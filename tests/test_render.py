"""The bound rows' one path to stdout, against references kept here.

render.report_rows turns each BoundReport into its cells once; to_csv writes
them, and a JSON row of cli pairs them with REPORT_FIELDS.  These tests
compare those bytes with the writers the package had before: a dict per row,
csv.writer over those dicts, and json.dumps with an indent.  They run the
CLI under a caller's decimal context that rounds differently, and check that
every row's precision is charpoly.profile_bits of its exponent over deep
tables, and that the table's rule is the bucket rule at every exponent.
"""

import contextlib
import csv
import decimal
import io
import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsion_bounds import cli, spaces
from torsion_bounds.bounds import BoundReport, _exponent_budget, _homology_gen, homology_rows, ktheory_params
from torsion_bounds.charpoly import GeneratorSet, profile_bits, profile_bits_of
from torsion_bounds.cli import main
from torsion_bounds.render import REPORT_FIELDS, report_rows, to_csv, to_json

KTHEORY_SPACES = {
    "grassmannian": {"n": 3, "k": 1, "p": 3},
    "milnor-hypersurface": {"n": 3, "l": 5, "p": 3},
    "unitary": {"n": 5, "p": 3},
    "special-unitary": {"n": 3, "p": 3},
}


def _reference_rows(reports):
    """The dict per row that report_rows yielded before it yielded cells."""
    for r in reports:
        row = {
            "degree": r.degree,
            "bound": r.text,
            "exact_rank": None,
            "theorem": r.theorem,
            "vacuous": r.vacuous,
            "precision_bits": r.precision_bits,
        }
        if r.note:
            row["note"] = r.note
        yield row


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _reference_csv(rows, fieldnames) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    writer.writerows([_reference_cell(row.get(k)) for k in fieldnames] for row in rows)
    return buf.getvalue()


def _reference(reports, fmt) -> str:
    rows = _reference_rows(reports)
    return _reference_csv(rows, list(REPORT_FIELDS)) if fmt == "csv" else json.dumps(list(rows), indent=2) + "\n"


def _emitted(reports, fmt) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_reports(reports, fmt, None)
    return buf.getvalue()


_TEXTS = st.one_of(st.from_regex(r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,24})?", fullmatch=True), st.text(min_size=1))
_REPORTS = st.lists(
    st.builds(
        BoundReport,
        degree=st.integers(-5, 10**9),
        text=_TEXTS,
        theorem=st.one_of(st.sampled_from(["homology_boundary", "ktheory_guaranteed", "ktheory_weak"]), st.text()),
        precision_bits=st.integers(64, 32768),
        note=st.one_of(st.just(""), st.text()),
    ),
    max_size=12,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(reports=_REPORTS, fmt=st.sampled_from(["csv", "json"]))
def test_any_rows_print_what_the_dict_rows_printed(reports, fmt):
    # texts and notes with commas, quotes, line breaks and non-ASCII characters included
    assert _emitted(reports, fmt) == _reference(reports, fmt)


def _table(draw_space, q, p, start, stop, eps):
    """(argv of the CLI, the same rows built here) for a report of the space."""
    if draw_space == "moore":
        argv = ["report", "--space", "moore", "--q", str(q), "--p", str(p), "--r", "1"]
        return argv, spaces.report(spaces.space_by_name("moore"), {"q": q, "p": p, "r": 1}, range(start, stop + 1))
    space, params = spaces.space_by_name(draw_space), KTHEORY_SPACES[draw_space]
    gp = space.g_prime(params["p"])
    argv = ["report", "--space", draw_space, *(f"--{k}={v}" for k, v in params.items()), "--eps", eps]
    return argv, spaces.report(space, params, range(start + (-start) % gp, stop + 1, gp), eps=eps)


@settings(derandomize=True, deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    space=st.sampled_from(["moore", *KTHEORY_SPACES]),
    q=st.integers(2, 6),
    p=st.sampled_from([3, 5]),
    start=st.integers(2, 400),
    length=st.integers(0, 300),
    eps=st.sampled_from(["1/2", "1/3", "7", "63/64"]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_any_table_prints_what_the_dict_rows_printed(space, q, p, start, length, eps, fmt):
    argv, reports = _table(space, q, p, start, start + length, eps)
    argv += ["--from", str(start), "--upto", str(start + length), "--format", fmt]
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0, result.stderr
    assert result.stdout_bytes == _reference(reports, fmt).encode()


def test_bound_rows_print_what_the_dict_rows_printed():
    reports = homology_rows(3, 5, range(2, 400))
    for fmt in ("csv", "json"):
        result = CliRunner().invoke(main, ["bound", "--homology", "--q", "3", "--p", "5", "--upto", "399", "--format", fmt])
        assert result.stdout_bytes == _reference(reports, fmt).encode()


def test_report_rows_hold_the_cells_of_each_row_once():
    row = BoundReport(7, "-1.5", "ktheory_weak", 128, "eps=1/2")
    assert list(report_rows([row])) == [(7, "-1.5", None, "ktheory_weak", True, 128, "eps=1/2")]
    assert to_csv(report_rows([row]), REPORT_FIELDS) == (
        "degree,bound,exact_rank,theorem,vacuous,precision_bits\r\n7,-1.5,,ktheory_weak,true,128\r\n"
    )


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30), st.floats(allow_nan=True), st.text(max_size=8)
)
_KEYS = st.one_of(st.text(max_size=6), st.integers(-99, 99), st.booleans(), st.none(), st.floats(allow_nan=False))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(_KEYS, inner, max_size=5),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(obj=_JSON)
def test_to_json_prints_what_json_dumps_with_an_indent_prints(obj):
    assert to_json(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {str(v): v // 3 for v in range(0, 3000, 3)},
    {"witnesses": {"1": {str(v): v for v in range(50)}, "2": {}}, "certificate": [{"n": 1, "first_checked": ""}]},
    [str(v) for v in range(20)] + [["x€\"\n"]],
    {"a": [1, True, 1.0, None]},
], ids=["int-values", "nested", "strings", "mixed"])
def test_to_json_lays_out_whole_containers_as_json_dumps(obj):
    assert to_json(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["bound", "--homology", "--q", "2", "--p", "3", "--upto", "300"],
    ["report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "600", "--format", "json"],
    ["bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--upto", "400",
     "--eps", "1/3"],
    ["roots", "--degrees", "2:1,3:1", "--format", "json"],
    ["lie-rank", "--degrees", "1:1000,2:1", "--upto", "60"],
], ids=["homology", "report-json", "ktheory-eps-1/3", "roots", "lie-rank"])
def test_a_caller_decimal_context_changes_no_byte_and_is_left_as_it_was(argv):
    expected = CliRunner().invoke(main, argv, catch_exceptions=False).stdout_bytes
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 5, decimal.ROUND_FLOOR
        ctx.traps[decimal.Inexact] = True
        ctx.clear_flags()
        state = (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
        result = CliRunner().invoke(main, argv, catch_exceptions=False)
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)) == state
    assert result.exit_code == 0 and result.stdout_bytes == expected


def _reference_bits(gen: GeneratorSet, n_max: int) -> int:
    """The bucket rule as profile_bits wrote it out in one expression: 64 bits past
    ceil(n_max log2(1 + max m_i)), rounded up to a multiple of 64."""
    log_upper = math.log2(1 + max(m for _, m in gen.degrees) + 1e-9)
    return 64 * math.ceil((math.ceil(max(n_max, 1) * log_upper) + 64) / 64)


_GENERATOR_SETS = [
    *(_homology_gen(q) for q in range(2, 11)),
    *{spaces.space_by_name(name).gen for name in KTHEORY_SPACES},
    GeneratorSet.of((1, 1), (4, 1)),
    GeneratorSet.of((2, 3), (3, 1)),
    GeneratorSet.of((2, 1000000), (3, 1)),
]


@pytest.mark.parametrize("gen", _GENERATOR_SETS, ids=lambda gen: gen.spec_string())
def test_the_table_rule_is_the_bucket_rule_at_every_exponent(gen):
    rule = profile_bits_of(gen)
    exponents = range(1, 20_001)
    expected = [_reference_bits(gen, x) for x in exponents]
    assert [rule(x) for x in exponents] == expected
    assert [profile_bits(gen, x) for x in exponents] == expected
    # the scan crosses every 64-bit bucket edge below 20000 log2(1 + max m_i) + 64 bits
    edges = [x for x, below, at in zip(exponents[1:], expected, expected[1:]) if at != below]
    assert len(edges) >= 20_000 * math.log2(1 + max(m for _, m in gen.degrees)) // 64 - 1


@pytest.mark.parametrize("q", range(2, 11))
def test_homology_row_precision_is_profile_bits_at_every_row(q):
    gen, degrees = _homology_gen(q), range(2, 5001)
    rows = homology_rows(q, 3, degrees)
    assert [row.precision_bits for row in rows] == [profile_bits(gen, n + 63) for n in degrees]


def test_homology_row_precision_follows_degrees_in_any_order():
    gen, degrees = _homology_gen(2), [2000, 5, 65, 64, 2, 4000]
    rows = homology_rows(2, 3, degrees)
    assert [row.degree for row in rows] == degrees
    assert [row.precision_bits for row in rows] == [profile_bits(gen, n + 63) for n in degrees]


@pytest.mark.parametrize("name, params", KTHEORY_SPACES.items(), ids=list(KTHEORY_SPACES))
def test_ktheory_row_precision_is_profile_bits_at_every_row(name, params):
    space = spaces.space_by_name(name)
    gp = space.g_prime(params["p"])
    degrees = range(gp, 4001, gp)
    rows = spaces.report(space, params, degrees)
    kt = ktheory_params(params["p"], space.gen, space.conn, space.dim(params))
    expected = [profile_bits(space.gen, _exponent_budget(kt, m)) for m in degrees for _ in range(2)]
    assert [row.precision_bits for row in rows] == expected


_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30), st.floats(), st.text(max_size=6),
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", " ", "a,b", 'say "x"', "\x00", " "]),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(width=st.integers(1, 4), rows=st.lists(st.lists(_CELLS, min_size=4, max_size=6), max_size=6),
       header=st.lists(st.text(max_size=4), min_size=4, max_size=4, unique=True))
def test_to_csv_prints_what_csv_writer_prints(width, rows, header):
    fieldnames = header[:width]
    assert to_csv(rows, fieldnames) == _reference_csv((dict(zip(fieldnames, row)) for row in rows), fieldnames)
