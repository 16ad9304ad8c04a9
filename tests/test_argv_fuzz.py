"""Fuzzed argv for every subcommand: exit 0, or exit 1 with one `error:` line.

The first test draws argv that click parses (every required option present,
every int option an int), with values from small ranges that reach past each
documented limit on both sides: zero, negative and oversized degrees,
composite and even primes, malformed degree specs and rationals, a repeated
root, unknown spaces, missing and foreign space parameters, and an --out
that names a new file, a file in a missing directory, or a directory. Each
argv runs in an empty temporary directory. Sizes stay small so a draw runs
in milliseconds; `verify` draws its two fastest suites. The
second test breaks such an argv the way click refuses: an unknown option, a
required option left out, or an int option given a non-integer; that is
invalid input too, so it must exit 1 with one line. The runner lets any
exception through, so a traceback fails the test, as does exit 2 (a
verification failure) or 3 (a numeric one).
"""

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsion_bounds.cli import main


def _mostly(valid, invalid):
    """Draws from `valid` about three times in four, else from `invalid`."""
    return st.one_of(valid, valid, valid, st.sampled_from(invalid))


SMALL = _mostly(st.integers(1, 8), [-3, 0, 200])
PRIME = _mostly(st.sampled_from([3, 5, 7]), [-3, 0, 1, 2, 9, 4294967311])
UPTO = _mostly(st.integers(1, 40), [-4, 0, 10**6])
FORMAT = st.sampled_from([[], ["--format", "json"]])
RATIONAL = _mostly(st.sampled_from(["1/2", "2/3", "1", "1/3"]), ["0", "-1/2", "5/2", "1/0", "x", "", "1e400"])
PAIRS = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 4)), min_size=1, max_size=3, unique_by=lambda t: t[0])
DEGREES = _mostly(
    PAIRS.map(lambda pairs: ",".join(f"{q}:{m}" for q, m in sorted(pairs))),
    ["", ",", "2:", ":3", "x:1", "0:1", "2:0", "2:1,2:1", "3:1,2:1", "151:1", "2:3,3:2", "2:1000000,3:1"],
)
# the parameters each catalog space takes besides p ("sphere" is not in the catalog)
SPACES = {
    "moore": "qr", "suspended-em": "qr", "grassmannian": "nk", "milnor-hypersurface": "nl",
    "unitary": "n", "special-unitary": "n", "sphere": "n",
}


def _opt(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _maybe(flag, values):
    return st.one_of(st.just([]), _opt(flag, values))


def _mostly_given(flag, values):
    return _mostly(_opt(flag, values), [[]])


# now and then an --out: a new file, one in a directory that does not exist, or a directory;
# each argv runs in an empty temporary directory
OUT = st.one_of(st.just([]), st.just([]), _opt("--out", st.sampled_from(["out.csv", "missing-dir/out.csv", "."])))


def _argv(name, *parts):
    """[name] followed by each part's arguments; a part draws a list of strings."""
    return st.tuples(*parts).map(lambda drawn: [name] + [arg for part in drawn for arg in part])


def _report(space):
    # each parameter the space takes, now and then left out, and now and then one it does not take
    keys = st.lists(st.sampled_from("qrnkl"), max_size=1).map(lambda extra: SPACES[space] + "".join(extra))
    params = keys.flatmap(lambda ks: _argv("--space", st.just([space]), *(_mostly_given(f"--{k}", SMALL) for k in ks)))
    return _argv("report", params, _opt("--p", PRIME), _maybe("--eps", RATIONAL), _maybe("--from", UPTO),
                 _opt("--upto", UPTO), FORMAT, OUT)


SUBCOMMANDS = [
    _argv("lie-rank", _opt("--degrees", DEGREES), _opt("--upto", UPTO), st.sampled_from([[], ["--oracle-check"]]),
          FORMAT, OUT),
    _argv("roots", _opt("--degrees", DEGREES),
          _maybe("--precision-bits", st.sampled_from([-1, 0, 63, 64, 100, 320, 12000, 40000])), FORMAT, OUT),
    _argv("bound", st.just(["--homology"]), _mostly_given("--q", SMALL), _opt("--p", PRIME), _maybe("--from", UPTO),
          _opt("--upto", UPTO), FORMAT, OUT),
    _argv("bound", st.just(["--ktheory"]), _mostly_given("--degrees", DEGREES), _mostly_given("--conn", SMALL),
          _mostly_given("--dim", SMALL), _opt("--p", PRIME), _maybe("--eps", RATIONAL), _maybe("--from", UPTO),
          _opt("--upto", UPTO), FORMAT, OUT),
    _argv("bezout", _opt("--alpha", SMALL), _opt("--beta", SMALL), _opt("--a", RATIONAL), _maybe("--b", RATIONAL),
          st.lists(st.integers(-1, 4), min_size=1, max_size=3).map(lambda ns: [a for n in ns for a in ("--n", str(n))]),
          _opt("--cap", _mostly(st.integers(1, 200), [-5, 0, 10**9])), st.sampled_from([[], ["--witnesses"]]), FORMAT, OUT),
    _argv("dgl", _opt("--q", _mostly(st.integers(1, 3), [-2, 0])), _opt("--p", PRIME),
          _opt("--upto", _mostly(st.integers(1, 9), [-2, 0, 21])), FORMAT, OUT),
    st.sampled_from(sorted(SPACES)).flatmap(_report),
    _argv("verify", _opt("--suite", st.sampled_from(["combinat", "dgl"]))),
]


# the options click itself requires, and those it parses as integers
REQUIRED = {
    "lie-rank": ("--degrees", "--upto"), "roots": ("--degrees",), "bound": ("--p", "--upto"),
    "bezout": ("--alpha", "--beta", "--a", "--n", "--cap"), "dgl": ("--q", "--p"), "report": ("--space", "--p", "--upto"),
}
INTEGER = {"--upto", "--from", "--p", "--q", "--r", "--n", "--k", "--l", "--conn", "--dim", "--alpha", "--beta", "--cap",
           "--precision-bits"}


def _without(argv, flag):
    """argv with every occurrence of flag and its value left out."""
    drop = {i for i, arg in enumerate(argv) if arg == flag} | {i + 1 for i, arg in enumerate(argv) if arg == flag}
    return [arg for i, arg in enumerate(argv) if i not in drop]


@st.composite
def _malformed(draw):
    argv = draw(st.one_of(SUBCOMMANDS))
    ints = [i + 1 for i, arg in enumerate(argv) if arg in INTEGER]
    how = draw(st.sampled_from(["unknown", "missing", "not-int"] if argv[0] in REQUIRED else ["unknown"]))
    if how == "missing":
        return _without(argv, draw(st.sampled_from(REQUIRED[argv[0]])))
    if how == "not-int" and ints:
        argv[draw(st.sampled_from(ints))] = draw(st.sampled_from(["abc", "1.5", "", "1e3", "3/1"]))
        return argv
    unknown = draw(st.sampled_from(["--bogus", "--upt", "-x"]))
    return draw(st.sampled_from([[unknown, *argv], [*argv, unknown], [*argv, unknown, "1"]]))


def _invoke(argv):
    runner = CliRunner()
    with runner.isolated_filesystem():
        return runner.invoke(main, argv, catch_exceptions=False)


def _assert_one_error_line(argv, result):
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, result.stderr)


@settings(derandomize=True, deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.one_of(SUBCOMMANDS))
def test_any_parsed_argv_exits_cleanly(argv):
    result = _invoke(argv)
    assert result.exit_code in (0, 1), (argv, result.exit_code, result.stderr)
    assert "Traceback" not in result.stderr
    if result.exit_code:
        _assert_one_error_line(argv, result)


@settings(derandomize=True, deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_malformed())
def test_any_malformed_argv_exits_with_one_error_line(argv):
    result = _invoke(argv)
    assert result.exit_code == 1 and result.stdout == "", (argv, result.exit_code, result.stderr)
    _assert_one_error_line(argv, result)


@pytest.mark.parametrize("argv", [
    ["roots"],
    ["bound", "--homology", "--q", "2", "--p", "3", "--upto", "abc"],
    ["report", "--space", "moore", "--q", "2", "--p", "3", "--r", "1", "--upto", "4", "--format", "xml"],
    ["nope"],
    [],
    ["bound", "--homology", "--q", "2", "--p", "3", "--upto", "10", "--out", "missing-dir/x.csv"],
    ["lie-rank", "--degrees", "1:1000000000", "--upto", "2000"],
], ids=["missing-option", "non-integer", "bad-choice", "unknown-command", "no-command", "unwritable-out",
        "oversized-lie-rank"])
def test_usage_errors_exit_1_with_one_error_line(argv):
    result = _invoke(argv)
    assert result.exit_code == 1 and result.stdout == ""
    _assert_one_error_line(argv, result)


@pytest.mark.parametrize("argv", [
    ["bound", "--homology", "--q", "2", "--p", "3", "--upto", "x" * 3000],
    ["bezout", "--alpha", "9" * 5000, "--beta", "4", "--a", "1/2", "--n", "1", "--cap", "10"],
    ["bound", "--homology", "--q", "2", "--p", "3", "--upto", "1 " * 3000],
    ["bound", "--homology", "--q", "2", "--p", "3", "--upto", "\u20ac" * 3000],
    ["bound", "--" + "x" * 3000],
    ["report", "--space", "x" * 3000, "--p", "3", "--upto", "4"],
    ["lie-rank", "--degrees", "x" * 3000, "--upto", "4"],
    ["bound", "--homology", "--q", "2", "--p", "3", "--upto", "10", "--out", "/nonexistent/" + "x" * 3000],
], ids=["long-int", "digits-past-int", "long-with-blanks", "long-non-ascii", "long-option", "long-space", "long-degrees",
        "long-out-path"])
def test_usage_errors_cut_long_values_below_200_bytes(argv):
    result = _invoke(argv)
    assert result.exit_code == 1 and result.stdout == ""
    _assert_one_error_line(argv, result)
    assert len(result.stderr.encode()) < 200 and "..." in result.stderr, result.stderr


def test_usage_errors_keep_short_values_whole():
    result = _invoke(["bound", "--homology", "--q", "2", "--p", "3", "--upto", "abc"])
    assert result.stderr == "error: Invalid value for '--upto': 'abc' is not a valid integer.\n"


@pytest.mark.parametrize("argv", [["--help"], ["roots", "--help"], ["report", "--help"]])
def test_help_still_exits_0(argv):
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0 and result.stdout.startswith("Usage:") and result.stderr == ""
