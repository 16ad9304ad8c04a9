import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from decimal import Decimal, localcontext

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from torsion_bounds import GeneratorSet, babenko_ranks, bounds, cli
from torsion_bounds.bounds import MAX_EPSILON
from torsion_bounds.charpoly import MAX_POLY_DEGREE
from torsion_bounds.cli import MAX_DGL_DEGREE, MAX_LIE_RANK_DEGREE, main
from torsion_bounds.combinat import MAX_PRIME_TESTED
from torsion_bounds.dgl_fp import MAX_PRIME
from torsion_bounds.render import decimal_str


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def test_lie_rank_csv():
    result = run("lie-rank", "--degrees", "2:1,3:1", "--upto", "6")
    assert result.exit_code == 0
    # RFC 4180: CRLF row endings (CliRunner's .output normalizes them away)
    assert result.stdout_bytes == b"N,rank\r\n1,0\r\n2,1\r\n3,1\r\n4,0\r\n5,1\r\n6,1\r\n"


def test_lie_rank_oracle_flag():
    result = run("lie-rank", "--degrees", "1:2", "--upto", "10", "--oracle-check")
    assert result.exit_code == 0


def test_lie_rank_bad_degrees_exit_code():
    result = run("lie-rank", "--degrees", "2:1,1:1", "--upto", "5")
    assert result.exit_code == 1


def test_roots_json_schema():
    result = run("roots", "--degrees", "2:1,4:1", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["g"] == 2
    assert payload["phi"].startswith("1.2720196495140689")
    assert len(payload["roots"]) == 4


def _plastic_number():
    x = Decimal(1)
    for _ in range(12):  # Newton on x^3 - x - 1, quadratic from x = 1
        x -= (x**3 - x - 1) / (3 * x * x - 1)
    return x


@pytest.mark.parametrize(
    "degrees, reference",
    [("2:1,3:1", _plastic_number), ("2:1,4:1", lambda: ((1 + Decimal(5).sqrt()) / 2).sqrt())],
    ids=["plastic", "sqrt-golden"],
)
def test_default_roots_print_the_digits_of_phi(degrees, reference):
    # phi of z^3 - z - 1 and of z^4 - z^2 - 1, computed here at 50 digits and rounded to the 24 printed
    with localcontext() as ctx:
        ctx.prec = 50
        phi = reference()
        ctx.prec = 24
        expected = str(+phi)
    result = run("roots", "--degrees", degrees, "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["phi"] == expected


def test_bound_requires_route():
    result = run("bound", "--p", "3", "--upto", "10")
    assert result.exit_code == 1


def test_bound_homology_json():
    result = run(
        "bound", "--homology", "--q", "2", "--p", "3", "--upto", "4", "--format", "json"
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert [row["degree"] for row in rows] == [2, 3, 4]
    for row in rows:
        assert set(row) >= {"degree", "bound", "exact_rank", "theorem", "vacuous", "precision_bits"}
        assert row["exact_rank"] is None
        assert row["vacuous"] is True


def test_bound_ktheory_csv_deterministic():
    args = (
        "bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4",
        "--p", "3", "--from", "380", "--upto", "384",
    )
    first = run(*args)
    second = run(*args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert "ktheory_guaranteed" in first.output and "ktheory_weak" in first.output


def test_bezout_json_with_witnesses():
    result = run(
        "bezout", "--alpha", "3", "--beta", "4", "--a", "1/2", "--n", "1",
        "--cap", "120", "--witnesses", "--format", "json",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["certificate"][0]["B"] == "92"
    assert payload["witnesses"]["1"]["99"] in range(1, 21)


def test_dgl_csv():
    result = run("dgl", "--q", "2", "--p", "3", "--upto", "6")
    assert result.exit_code == 0
    lines = result.stdout_bytes.decode().strip().split("\r\n")
    assert lines[0] == "degree,dim,cycles,boundaries,homology"
    assert lines[2] == "2,1,1,1,0"
    assert lines[5] == "5,1,1,1,0"


def test_report_moore_json_and_determinism():
    args = ("report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1",
            "--upto", "30", "--format", "json")
    first = run(*args)
    second = run(*args)
    assert first.exit_code == 0
    assert first.output == second.output
    rows = json.loads(first.output)
    assert len(rows) == 29
    assert rows[0]["theorem"] == "homology_boundary"


def test_report_unknown_space_exit_code():
    result = run("report", "--space", "torus", "--p", "3", "--upto", "10")
    assert result.exit_code == 1


def test_report_parameter_mismatch_exit_code():
    result = run("report", "--space", "moore", "--p", "3", "--upto", "10")
    assert result.exit_code == 1


def test_report_out_file(tmp_path):
    target = tmp_path / "table.csv"
    result = run(
        "report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1",
        "--upto", "5", "--out", str(target),
    )
    assert result.exit_code == 0
    raw = target.read_bytes()
    assert raw.startswith(b"degree,bound,exact_rank,theorem,vacuous,precision_bits\r\n")


@pytest.mark.parametrize(
    "bound_args, report_args",
    [
        (
            ("bound", "--homology", "--q", "2", "--p", "3", "--upto", "200"),
            ("report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1", "--upto", "200"),
        ),
        (
            ("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--upto", "600"),
            ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "600"),
        ),
        (
            ("bound", "--ktheory", "--degrees", "3:1,5:1", "--conn", "0", "--dim", "9", "--p", "3",
             "--from", "101", "--upto", "400"),
            ("report", "--space", "unitary", "--n", "3", "--p", "3", "--from", "101", "--upto", "400"),
        ),
    ],
    ids=["moore", "grassmannian", "unitary"],
)
def test_bound_and_report_emit_identical_csv(bound_args, report_args):
    bound, report = run(*bound_args), run(*report_args)
    assert bound.exit_code == report.exit_code == 0
    assert bound.stdout_bytes.count(b"\r\n") > 10
    assert bound.stdout_bytes == report.stdout_bytes


@pytest.mark.parametrize(
    "args",
    [
        ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "3000"),
        ("bound", "--homology", "--q", "2", "--p", "3", "--upto", "1500"),
    ],
    ids=["grassmannian", "moore"],
)
def test_csv_and_json_print_the_same_bounds_with_their_signs(args):
    as_csv, as_json = run(*args), run(*args, "--format", "json")
    assert as_csv.exit_code == as_json.exit_code == 0
    csv_rows = list(csv.DictReader(io.StringIO(as_csv.stdout_bytes.decode(), newline="")))
    json_rows = json.loads(as_json.stdout)
    assert len(csv_rows) == len(json_rows) > 1000
    assert [r["bound"] for r in csv_rows] == [r["bound"] for r in json_rows]
    assert [r["vacuous"] for r in csv_rows] == [("true" if r["vacuous"] else "false") for r in json_rows]
    for row in json_rows:
        assert row["vacuous"] == (row["bound"] == "0" or row["bound"].startswith("-")), row
        assert row["vacuous"] == (Decimal(row["bound"]) <= 0), row
    assert {r["vacuous"] for r in json_rows} == {True, False}


def test_verify_suite_combinat():
    result = run("verify", "--suite", "combinat")
    assert result.exit_code == 0
    assert "0 failures" in result.output


def test_decimal_str_plain_notation():
    from mpmath import mpf

    assert decimal_str(mpf("0.0001220703125")) == "0.0001220703125"
    assert decimal_str(mpf(2) ** 70) == "1180591620717411303424"  # 22 digits, exact
    assert decimal_str(mpf(2) ** 100).startswith("12676506002282294014967")  # 24 sig digits
    assert decimal_str(mpf(0)) == "0"
    assert decimal_str(5) == "5"
    assert "e" not in decimal_str(mpf("1e-30")).lower()


@settings(deadline=None, max_examples=60)
@given(x=st.one_of(st.integers(), st.integers(0, 40_000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))))
def test_decimal_str_of_an_int_is_all_its_digits(x):
    # ints above _SPLIT_BITS bits are split at powers of two and put back together
    assert decimal_str(x) == format(Decimal(x), "f")
    assert decimal_str(1 << x.bit_length()) == format(Decimal(1 << x.bit_length()), "f")


@pytest.mark.parametrize(
    "args",
    [
        ("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4",
         "--p", "3", "--upto", "10", "--eps", "abc"),
        ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3",
         "--upto", "10", "--eps", "abc"),
        ("bezout", "--alpha", "3", "--beta", "4", "--a", "abc", "--n", "1", "--cap", "100"),
        ("bezout", "--alpha", "3", "--beta", "4", "--a", "1/0", "--n", "1", "--cap", "100"),
    ],
    ids=["bound-eps", "report-eps", "bezout-a", "bezout-zero-denominator"],
)
def test_bad_rational_option_exit_code(args):
    result = run(*args)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and "must be rational" in result.stderr


_EPS_COMMANDS = [
    ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "100"),
    ("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--upto", "100"),
]


@pytest.mark.parametrize("eps", ["1e400", "99999999999999999999/7"])
@pytest.mark.parametrize("args", _EPS_COMMANDS, ids=["report", "bound"])
def test_eps_above_ceiling_exit_code(args, eps):
    # the weak bound's binary exponent would fall too far to render
    result = run(*args, "--eps", eps)
    assert result.exit_code == 1
    assert result.stderr == f"error: epsilon must be <= {MAX_EPSILON}\n"
    assert f"at most {MAX_EPSILON}" in " ".join(run(args[0], "--help").stdout.split())


@pytest.mark.parametrize(
    "args, stderr",
    [
        (("bound", "--homology", "--q", "1", "--p", "4"), "error: q must be >= 2, got 1\n"),
        (("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--eps", "0"),
         "error: epsilon must be > 0, got 0\n"),
        (("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--eps", "65"),
         f"error: epsilon must be <= {MAX_EPSILON}\n"),
    ],
    ids=["homology-q", "ktheory-eps", "report-eps"],
)
def test_an_empty_degree_range_keeps_its_refusals(args, stderr):
    # --upto 1 leaves no degree; the refusals of q, p and eps do not depend on one
    result = run(*args, "--upto", "1")
    assert result.exit_code == 1 and result.stdout == "" and result.stderr == stderr


@pytest.mark.parametrize(
    "eps, text",
    [("1e-4300", "1/1" + "0" * 4300), ("0." + "0" * 4299 + "1", "1/1" + "0" * 4300), ("1/3", "1/3"), ("0.5", "1/2"), ("2", "2")],
    ids=["exponent", "digits", "third", "half", "integer"],
)
def test_report_renders_eps_of_any_length(eps, text):
    # str(Fraction) refuses a denominator of more than 4300 digits; the note renders it whole
    report, bound = (run(*args, "--eps", eps) for args in _EPS_COMMANDS)
    assert report.exit_code == bound.exit_code == 0, report.stderr
    assert report.stdout_bytes == bound.stdout_bytes
    rows = json.loads(run(*_EPS_COMMANDS[0], "--eps", eps, "--format", "json").stdout)
    assert {row["note"] for row in rows if row["theorem"] == "ktheory_weak"} == {f"eps={text}"}
    negative = run(*_EPS_COMMANDS[1], "--eps", "-" + eps)
    refused = f"-{text}" if len(text) < 40 else f"-{text}"[:37] + "..."  # every refusal line cuts a long value
    assert negative.exit_code == 1 and negative.stderr == f"error: epsilon must be > 0, got {refused}\n"


_EPS_STRINGS = st.one_of(
    st.builds("{}/{}".format, st.integers(-(10**60), 10**60), st.integers(-(10**60), 10**60)),
    st.builds("{}e{}".format, st.integers(-(10**6), 10**6), st.integers(-2000, 2000)),
    st.builds("{}.{}e{}".format, st.integers(0, 99), st.integers(0, 10**20), st.integers(-400, 400)),
    st.integers(-(10**80), 10**80).map(str),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(eps=_EPS_STRINGS)
def test_any_eps_string_exits_cleanly(eps):
    # run() lets any exception through, so a traceback fails the test
    result = run("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "12", "--eps", eps)
    assert result.exit_code in (0, 1)
    if result.exit_code:
        assert result.stderr.startswith("error: ")


def test_bezout_walk_past_its_ceiling_exit_code():
    result = run("bezout", "--alpha", "1", "--beta", "3000", "--a", "1/1000000", "--n", "1", "--cap", "10000000")
    assert result.exit_code == 1
    assert result.stderr.startswith("error: the covering walk has ") and result.stderr.count("\n") == 1


def test_bezout_wide_window_ends_fast():
    # a window of beta(beta+1) = 10^10 indices, of which only the first 197 start at or below the cap
    start = time.perf_counter()
    result = run("bezout", "--alpha", "3", "--beta", "100000", "--a", "1/2", "--n", "1", "--cap", "10000000")
    assert time.perf_counter() - start < 2
    assert result.exit_code == 0
    assert result.stdout.splitlines()[1] == "1,3,100000,1/2,0,1,500035000100000,100003,,0,1..10000100000"


def test_bezout_oversized_cap_exit_code():
    result = run("bezout", "--alpha", "2", "--beta", "3", "--a", "1/2", "--n", "1",
                 "--cap", "100000000000")
    assert result.exit_code == 1
    assert result.stderr.startswith("error: value_cap must be <=")


@pytest.mark.parametrize(
    "args",
    [
        ("--alpha", "3", "--beta", "4", "--a", "1/2", "--b", "1e4300", "--n", "1", "--cap", "10"),
        ("--alpha", "3", "--beta", "4", "--a", "1e4300", "--n", "1", "--cap", "10", "--format", "json"),
        ("--alpha", "3", "--beta", "9" * 3000, "--a", "1/2", "--n", "1", "--cap", "10"),
    ],
    ids=["b", "a-json", "beta"],
)
def test_bezout_integers_past_4300_digits_exit_code(args):
    # min(S_n) or the window's last index past str()'s 4300 digits; the beta walk took 3.7 s, then a traceback
    result, seconds = _timed("bezout", *args)
    assert result.exit_code == 1 and seconds < 1 and result.stdout == ""
    assert result.stderr == (
        "error: min(S_n) or the window's last index has more than 4300 digits; no value up to --cap is checked\n"
    )


@pytest.mark.parametrize(
    "a, b, row",
    [
        ("1/2", "-1e4300", "1,3,4,1/2,-1" + "0" * 4300 + ",1,92,3,,0,1..20"),
        ("1e-4300", "0", "1,3,4,1/1" + "0" * 4300 + ",0,1,65" + "0" * 4297 + "1/125" + "0" * 4296 + ",7,,0,1..20"),
    ],
    ids=["b", "a"],
)
def test_bezout_prints_rationals_past_4300_digits(a, b, row):
    # str(Fraction) refused them, a traceback after the certificate
    result = run("bezout", "--alpha", "3", "--beta", "4", "--a", a, "--b", b, "--n", "1", "--cap", "10")
    assert result.exit_code == 0
    assert result.stdout.splitlines()[1] == row


def _no_allocation(*args, **kwargs):
    raise AssertionError("the ceiling must be checked before any work starts")


def test_dgl_oversized_upto_exit_code(monkeypatch):
    monkeypatch.setattr(cli, "subspace_dims", _no_allocation)
    result = run("dgl", "--q", "1", "--p", "3", "--upto", "24")
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: --upto must be <= {MAX_DGL_DEGREE}")


def test_lie_rank_oversized_upto_exit_code(monkeypatch):
    monkeypatch.setattr(cli, "babenko_ranks", _no_allocation)
    result = run("lie-rank", "--degrees", "2:1,3:1", "--upto", str(MAX_LIE_RANK_DEGREE + 1))
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: --upto must be <= {MAX_LIE_RANK_DEGREE}")


@pytest.mark.parametrize("degrees, upto", [
    ("1:1000000000", "2000"),  # 1.8e7 digits in all: 5.7 s and 18 MB of output before the ceiling
    ("1:" + "1" + "0" * 1000, "178"),  # 1.6e7 in all, 178000 in the last rank: 40 s before the ceiling
    ("1:2,3:1", str(MAX_LIE_RANK_DEGREE)),  # 2.4e7 in all
], ids=["all-digits", "last-rank-digits", "small-multiplicities"])
def test_lie_rank_oversized_output_exit_code(monkeypatch, degrees, upto):
    monkeypatch.setattr(cli, "babenko_ranks", _no_allocation)
    result = run("lie-rank", "--degrees", degrees, "--upto", upto)
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr.startswith(f"error: the ranks up to {upto} may print ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("degrees, upto", [("2:1,3:1", MAX_LIE_RANK_DEGREE), ("1:1,2:1", MAX_LIE_RANK_DEGREE),
                                           ("1:10", 4400), ("1:1000000000", 1880)])
def test_lie_rank_ceilings_accept_the_largest_documented_runs(monkeypatch, degrees, upto):
    monkeypatch.setattr(cli, "babenko_ranks", lambda gen, n_max: [1] * n_max)  # the ceilings alone
    result = run("lie-rank", "--degrees", degrees, "--upto", str(upto))
    assert result.exit_code == 0 and result.stdout.count("\n") == upto + 1


@pytest.mark.parametrize("out", ["missing-dir/x.csv", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_exits_1_with_one_error_line(tmp_path, out):
    result = run("bound", "--homology", "--q", "2", "--p", "3", "--upto", "10", "--out", str(tmp_path / out))
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("value", ["8192", "abc"])
@pytest.mark.parametrize(
    "args",
    [
        ("bound", "--homology", "--q", "2", "--p", "3", "--upto", "300"),
        ("report", "--space", "grassmannian", "--n", "4", "--k", "2", "--p", "3", "--upto", "60"),
        ("roots", "--degrees", "2:1,3:1"),
    ],
    ids=["bound-homology", "report-ktheory", "roots"],
)
def test_precision_env_changes_no_output(args, value):
    # no environment variable moves a precision: TORSION_BOUNDS_PRECISION, once a floor, is ignored
    plain = run(*args)
    result = run(*args, env={"TORSION_BOUNDS_PRECISION": value})
    assert plain.exit_code == result.exit_code == 0 and result.stdout_bytes == plain.stdout_bytes


@pytest.mark.parametrize(
    "args",
    [
        ("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--upto", "100000"),
        ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "100000"),
    ],
    ids=["bound", "report"],
)
def test_ktheory_oversized_range_exit_code(monkeypatch, args):
    # the deepest row's precision is checked before the first row is built
    monkeypatch.setattr(bounds, "ktheory_lower", _no_allocation)
    result = run(*args)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: precision_bits must be <=")


@pytest.mark.parametrize(
    "args",
    [
        ("bound", "--homology", "--q", "2", "--p", "3", "--upto", "100000"),
        ("report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1", "--upto", "100000"),
    ],
    ids=["bound", "report"],
)
def test_homology_oversized_range_exit_code(args):
    # the deepest row's parameters are built before the first row
    start = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - start < 2
    assert result.exit_code == 1
    assert result.stderr.startswith("error: precision_bits must be <= 32768, got ")


_CAPPED_CLI = (  # the CLI under a 2 GB address-space cap, where a list of 10^12 degrees is a MemoryError
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "from torsion_bounds.cli import main; main()"
)


@pytest.mark.parametrize(
    "args",
    [
        ("bound", "--homology", "--q", "2", "--p", "3", "--upto", "1000000000000"),
        ("report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1", "--upto", "1000000000000"),
        ("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--upto", "1000000000000"),
    ],
    ids=["bound-homology", "report-moore", "bound-ktheory"],
)
def test_range_of_a_trillion_degrees_is_refused_before_it_is_listed(args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *args], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("error: precision_bits must be <= 32768, got ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args, start",
    [
        (("bound", "--homology", "--q", "2", "--p", "3", "--from", "1", "--upto", "5"), 1),
        (("report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1", "--from", "0", "--upto", "4"), 0),
    ],
    ids=["bound", "report"],
)
def test_homology_degrees_start_at_two(args, start):
    result = run(*args)
    assert result.exit_code == 1
    assert result.stderr == f"error: homology-route degrees start at 2, got {start}\n"


@pytest.mark.parametrize(
    "args, ceiling",
    [
        (("roots", "--degrees", f"1:1,{MAX_POLY_DEGREE + 1}:1"), MAX_POLY_DEGREE),
        (("lie-rank", "--degrees", f"1:1,{MAX_POLY_DEGREE + 1}:1", "--upto", "10"), MAX_POLY_DEGREE),
        (("bound", "--homology", "--q", "5000", "--p", "3", "--upto", "10"), MAX_POLY_DEGREE - 1),
        (
            ("bound", "--ktheory", "--degrees", f"2:1,{MAX_POLY_DEGREE + 2}:1", "--conn", "1", "--dim", "4",
             "--p", "3", "--upto", "10"),
            MAX_POLY_DEGREE,
        ),
        (("report", "--space", "moore", "--q", str(MAX_POLY_DEGREE), "--p", "3", "--r", "1", "--upto", "10"),
         MAX_POLY_DEGREE - 1),
    ],
    ids=["roots", "lie-rank", "bound-homology", "bound-ktheory", "report"],
)
def test_oversized_generator_degree_exit_code(monkeypatch, args, ceiling):
    # the generator set refuses the degree before any root or rank work starts
    for module, name in [(cli, "profile_at"), (cli, "babenko_ranks"), (bounds, "profile_at"),
                         (bounds, "profile_for_exponent")]:
        monkeypatch.setattr(module, name, _no_allocation)
    result = run(*args)
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: generator degrees must be <= {MAX_POLY_DEGREE}, got ")
    assert f"at most {ceiling}" in run(args[0], "--help").stdout


def test_roots_oversized_precision_exit_code():
    result = run("roots", "--degrees", "2:1,3:1", "--precision-bits", "1000000000")
    assert result.exit_code == 1
    assert result.stderr.startswith("error: precision_bits must be <=")


def _timed(*args):
    start = time.perf_counter()
    result = run(*args)
    return result, time.perf_counter() - start


def test_roots_precision_times_degree_exit_code():
    # each ceiling alone accepts 2048 bits at degree 101; bisection would take about 30 s
    result, seconds = _timed("roots", "--degrees", "1:1,101:1", "--precision-bits", "2048")
    assert result.exit_code == 1 and seconds < 1
    assert result.stderr == "error: precision_bits must be <= 973 for a degree-101 polynomial, got 2048\n"


@pytest.mark.parametrize(
    "args",
    [
        ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "100", "--eps", "1e10000000"),
        ("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--upto", "100",
         "--eps", "1e-10000000"),
        ("bezout", "--alpha", "3", "--beta", "4", "--a", "1e10000000", "--n", "1", "--cap", "100"),
    ],
    ids=["report-eps", "bound-eps", "bezout-a"],
)
def test_huge_decimal_exponent_exit_code(args):
    # Fraction would build 10^e exactly: seconds for e = 10^7
    result, seconds = _timed(*args)
    assert result.exit_code == 1 and seconds < 1
    assert result.stderr.startswith("error: ") and "decimal exponent of at most 4300" in result.stderr


_LONG_DECIMAL = "0." + "0" * 100_000 + "1"


@pytest.mark.parametrize(
    "args",
    [
        ("report", "--space", "grassmannian", "--n", "3", "--k", "1", "--p", "3", "--upto", "100", "--eps", _LONG_DECIMAL),
        ("bound", "--ktheory", "--degrees", "2:1,4:1", "--conn", "1", "--dim", "4", "--p", "3", "--upto", "100",
         "--eps", _LONG_DECIMAL),
        ("bezout", "--alpha", "3", "--beta", "4", "--a", _LONG_DECIMAL, "--n", "1", "--cap", "100"),
        ("bezout", "--alpha", "3", "--beta", "4", "--a", "1/2", "--b", "1" * 5000, "--n", "1", "--cap", "100"),
    ],
    ids=["report-eps", "bound-eps", "bezout-a", "bezout-b"],
)
def test_decimal_over_4300_digits_exit_code(args):
    # int(str) refuses more than 4300 digits; such an input meets the decimal ceiling
    result = run(*args)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1 and len(result.stderr) < 120
    assert "decimal exponent of at most 4300" in result.stderr


@pytest.mark.parametrize("text", ["x" * 100_000, "1/" + "x" * 100_000], ids=["letters", "fraction"])
def test_bad_rational_echoes_at_most_40_characters(text):
    result = run("bezout", "--alpha", "3", "--beta", "4", "--a", text, "--n", "1", "--cap", "100")
    assert result.exit_code == 1
    assert result.stderr.startswith("error: --a must be rational, got ")
    assert result.stderr.count("\n") == 1 and len(result.stderr) < 90


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lie_rank_renders_ranks_over_4300_digits(fmt):
    # str(int) refuses more than 4300 digits; the last rank here has 4397
    result = run("lie-rank", "--degrees", "1:10", "--upto", "4400", "--format", fmt)
    assert result.exit_code == 0, result.stderr
    expected = format(Decimal(babenko_ranks(GeneratorSet.parse("1:10"), 4400)[-1]), "f")
    assert len(expected) == 4397
    if fmt == "csv":
        last = result.stdout_bytes.rstrip(b"\r\n").rsplit(b"\r\n", 1)[1].decode()
        assert last == f"4400,{expected}"
    else:
        assert json.loads(result.stdout)[-1] == {"degree": 4400, "rank": expected}


@pytest.mark.parametrize("upto", ["0", "-3"])
def test_dgl_upto_below_one_exit_code(monkeypatch, upto):
    monkeypatch.setattr(cli, "subspace_dims", _no_allocation)
    result = run("dgl", "--q", "1", "--p", "3", "--upto", upto)
    assert result.exit_code == 1
    assert result.stderr == f"error: --upto must be >= 1, got {upto}\n"


def test_dgl_prime_above_ceiling_exit_code():
    # (p - 1)^2 >= 2^63 here, so an int64 elimination would overflow silently
    result = run("dgl", "--q", "2", "--p", "4294967311", "--upto", "12")
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: p must be <= {MAX_PRIME}")
    assert str(MAX_PRIME) in run("dgl", "--help").stdout


def test_a_prime_of_nineteen_digits_is_decided_at_once():
    # trial division up to sqrt(p) ran past 20 s on this p
    start = time.perf_counter()
    result = run("report", "--space", "moore", "--q", "2", "--r", "1", "--p", "1000000000000000003", "--upto", "4")
    assert result.exit_code == 0 and result.stdout.count("homology_boundary") == 3
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("p", [MAX_PRIME_TESTED, MAX_PRIME_TESTED + 2, 2**89 - 1])
@pytest.mark.parametrize("command", [("report", "--space", "moore", "--q", "2", "--r", "1"), ("bound", "--homology", "--q", "2")])
def test_a_p_past_the_proven_primality_range_is_refused(p, command):
    result = run(*command, "--p", str(p), "--upto", "4")
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == f"error: p must be below {MAX_PRIME_TESTED}, where the primality test is proven\n"


# a multiplicity past the float range (about 1.8e308)
_HUGE = str(10**400)


@pytest.mark.parametrize(
    "args, exit_code, stderr",
    [
        # z^2 - 10^400 z - 1: phi = 10^400 computes, at the bits the integer bound asks for
        (("roots", "--degrees", f"1:{_HUGE},2:1", "--format", "json"), 0, ""),
        # z^3 - 10^400 z - 1 reaches the root classification: its roots about +-10^200 have
        # moduli 10^-400 apart, far inside the discs of a 320-bit cloud, so the orbit of
        # one is not separated there; that is a limit of the input's size, not a violation
        (("roots", "--degrees", f"2:{_HUGE},3:1"), 1,
         "error: the 1 roots of largest modulus are not separated from the others at 320 bits"),
        (("bound", "--ktheory", "--degrees", f"2:{_HUGE},3:1", "--conn", "1", "--dim", "5", "--p", "3", "--upto", "20"),
         1, "error: precision_bits must be <= 32768"),
        # z^2 - z - 10^700: the root iteration's double-precision start cannot hold 10^350
        (("roots", "--degrees", f"1:1,2:{10**700}"), 1, "error: |a_0|^(1/2) of the characteristic polynomial"),
    ],
    ids=["roots-computes", "roots-orbit", "bound-ktheory", "roots-past-doubles"],
)
def test_multiplicity_past_the_float_range_ends_without_a_traceback(args, exit_code, stderr):
    result = run(*args)
    assert result.exit_code == exit_code
    assert result.stderr.startswith(stderr) and "Traceback" not in result.stderr
    if exit_code == 0:
        out = json.loads(result.stdout)
        # ceil(log2 10^400) + 64 = 1393 bits, rounded up to a multiple of 64
        assert out["phi"] == "1" + "0" * 400 and out["precision_bits"] == 1408


@pytest.mark.parametrize("bits", [300, 570])
def test_root_cloud_past_its_work_ceiling_is_refused_at_once(bits):
    # the start circle fails for a root near 2^bits, and the sweeps carrying it out
    # took 64 s at 300 bits; both stay under the 640 x 150 precision ceiling of bisection
    start = time.perf_counter()
    result = run("roots", "--degrees", f"1:{2**bits},150:1")
    assert time.perf_counter() - start < 2
    assert result.exit_code == 1 and result.stderr == (
        f"error: degree times coefficient bits must be <= 6144 for the root cloud, got 150 * {bits + 1}\n"
    )


@pytest.mark.parametrize(
    "degrees, phi, psi",
    [
        ("2:1000000,3:1", "1000.00000049999999962500", "999.999999499999999625000"),
        ("2:1000000000000,3:1", "1000000.00000000000050000", "999999.999999999999500000"),
    ],
)
def test_roots_whose_moduli_nearly_tie_are_told_apart(degrees, phi, psi):
    # z^3 - m z - 1 has roots about sqrt(m) + 1/(2m), -sqrt(m) + 1/(2m) and -1/m: the two
    # large moduli differ by about 1/m, 1e-9 and 1e-18 of phi here, and the discs of the
    # cloud are far smaller, so the one max-modulus root is certified apart from -sqrt(m)
    result = run("roots", "--degrees", degrees, "--format", "json")
    assert result.exit_code == 0, result.stderr
    out = json.loads(result.stdout)
    assert (out["phi"], out["psi_abs"], out["g"]) == (phi, psi, 1)
