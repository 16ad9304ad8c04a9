"""Command-line surface: compute, verify, and report.

Subcommands: lie-rank, roots, bound, bezout, dgl, report, verify.
Output is deterministic (fixed precision, fixed ordering, no timestamps);
exit codes: 0 success, 1 invalid input (click's usage errors included),
2 verification failure, 3 numeric failure.
"""

from __future__ import annotations

import math
import re
import sys

import click
import mpmath

from . import verify as verify_mod
from .bounds import (
    _MAX_DECIMAL_EXPONENT, MAX_EPSILON, MAX_VALUE_CAP, _as_fraction, _fraction_str, bezout_cover, homology_rows, ktheory_params,
    ktheory_rows,
)
from .charpoly import (
    MAX_BITS_TIMES_DEGREE, MAX_POLY_DEGREE, MAX_PRECISION_BITS, GeneratorSet, char_poly, profile_at, profile_for_exponent
)
from .dgl_fp import MAX_PRIME, MOORE_DIFFERENTIAL, WeightedAlphabet, subspace_dims
from .errors import (
    CoverageViolation,
    DimensionMismatch,
    InternalError,
    InvalidArgument,
    NumericFailure,
    OracleInconsistency,
    RootStructureViolation,
    TorsionBoundsError,
)
from .lie_rank import babenko_ranks
from .render import REPORT_FIELDS, decimal_str, report_rows, to_csv, to_json
from .spaces import report as space_report
from .spaces import space_by_name

# Largest lie-rank --upto; 2:1,3:1 and 1:1,2:1 run there in 0.9 and 1.2 s. Since rank(L_N) < H^N,
# H the coefficient bound, lie-rank prints at most U(U+1)/2 log10 H digits up to U, U log10 H in
# the last rank, most of the run being rendering. 1:10^9 --upto 1880 (1.6e7 digits, 16920 last)
# takes 2.9-3.6 s and 93-96 MB peak RSS; 1:10^1000 --upto 178 (1.6e7, 178000 last) about 6 s.
MAX_LIE_RANK_DEGREE = 10_000
MAX_LIE_RANK_DIGITS, MAX_LIE_RANK_ROW_DIGITS = 16_000_000, 20_000
# Largest dgl --upto. q = 1 grows fastest: at 20 the run takes 0.6-0.8 s and 70 MB peak
# RSS (2-core Xeon). The matrix it ranks last is only 1164 x 750; the expansion cache,
# about 10 MiB at degree 21, is what grows fastest.
MAX_DGL_DEGREE = 20
# Most values a bezout --witnesses listing holds, over all --n. At cap 10^6 (one n) a listing
# takes about 1.4 s and 224 MB peak RSS (2-core host; 3.0-3.5 s and 300-308 MB on a 2-core Xeon
# with json's indented encoder, where 3 * 10^6 values took 10.8 s and 927 MB).
MAX_WITNESS_VALUES = 10**6

_DEGREES_HELP = f"generator degrees, e.g. 2:1,3:1, each at most {MAX_POLY_DEGREE}"

# a refusal may echo a value whole (click's usage errors, a malformed rational, an unknown space, an
# --out path): in every refusal line each run of more than _ECHOED_CHARS non-blank characters is
# cut to its first _ECHOED_CHARS - 3 and "...", and the line to 199 bytes
_ECHOED_CHARS, _MAX_LINE_BYTES = 40, 199

_EXIT_INVALID = 1
_EXIT_VERIFICATION = 2
_EXIT_NUMERIC = 3


def _exit_on_failure(fn, *args, **kwargs):
    """fn(*args, **kwargs); a failure prints one line on stderr and exits with its code."""
    try:
        return fn(*args, **kwargs)
    except NumericFailure as exc:
        message, code = f"numeric failure: {exc}", _EXIT_NUMERIC
    except (CoverageViolation, DimensionMismatch, InternalError, OracleInconsistency, RootStructureViolation) as exc:
        message, code = f"verification failure: {exc}", _EXIT_VERIFICATION
    except click.UsageError as exc:  # click's own: a missing or unknown option, a value of the wrong type
        message, code = f"error: {exc.format_message()}", _EXIT_INVALID
    except TorsionBoundsError as exc:
        message, code = f"error: {exc}", _EXIT_INVALID
    click.echo(_shortened(message), err=True)
    sys.exit(code)


def _shortened(message: str) -> str:
    """message on one line, every long echoed value in it cut, and the line cut to _MAX_LINE_BYTES
    of UTF-8 with the newline."""
    line = " ".join(message.splitlines())
    line = re.sub(rf"\S{{{_ECHOED_CHARS + 1},}}", lambda run: run[0][: _ECHOED_CHARS - 3] + "...", line)
    encoded = line.encode("utf-8", "backslashreplace")
    if len(encoded) < _MAX_LINE_BYTES:
        return line
    return encoded[: _MAX_LINE_BYTES - 4].decode("utf-8", "ignore") + "..."


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidArgument(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
_out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)


class _Main(click.Group):
    """Runs the parsing of the group's arguments and the subcommand, its own
    parsing included, under _exit_on_failure."""

    def make_context(self, *args, **kwargs):
        return _exit_on_failure(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _exit_on_failure(super().invoke, ctx)


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Exact free-Lie-algebra ranks and guaranteed homotopy torsion bounds."""


@main.command("lie-rank")
@click.option("--degrees", required=True, help=_DEGREES_HELP)
@click.option("--upto", type=int, required=True, help=f"last degree, at most {MAX_LIE_RANK_DEGREE}")
@click.option("--oracle-check", is_flag=True, help="cross-check against the series oracle")
@_format_option
@_out_option
def lie_rank_cmd(degrees, upto, oracle_check, fmt, out):
    """Exact rank(L_N) for N = 1..UPTO."""
    gen = GeneratorSet.parse(degrees)
    if upto < 1:
        raise InvalidArgument(f"--upto must be >= 1, got {upto}")
    if upto > MAX_LIE_RANK_DEGREE:
        raise InvalidArgument(f"--upto must be <= {MAX_LIE_RANK_DEGREE}, got {upto}")
    last = upto * math.log10(char_poly(gen).coeff_bound())  # digits of H^upto
    if last * (upto + 1) / 2 > MAX_LIE_RANK_DIGITS or last > MAX_LIE_RANK_ROW_DIGITS:
        raise InvalidArgument(
            f"the ranks up to {upto} may print {math.ceil(last * (upto + 1) / 2)} digits, {math.ceil(last)} in the "
            f"last; at most {MAX_LIE_RANK_DIGITS} in all and {MAX_LIE_RANK_ROW_DIGITS} in one rank"
        )
    ranks = babenko_ranks(gen, upto)
    if oracle_check:
        from .lie_rank import pbw_ranks

        if pbw_ranks(gen, upto) != ranks:
            raise OracleInconsistency("series oracle disagrees with the rank formula")
    ranks = [decimal_str(r) for r in ranks]
    if fmt == "csv":
        _emit(to_csv(enumerate(ranks, start=1), ["N", "rank"]), out)
    else:
        _emit(to_json([{"degree": n, "rank": r} for n, r in enumerate(ranks, start=1)]), out)


@main.command("roots")
@click.option("--degrees", required=True, help=_DEGREES_HELP)
@click.option(
    "--precision-bits", type=int, default=None,
    help=f"certified bits for phi, 64 to {MAX_PRECISION_BITS} and at most {MAX_BITS_TIMES_DEGREE} / degree of the"
    " polynomial (K-theory ranges on degree >= 4 polynomials stop there too)",
)
@_format_option
@_out_option
def roots_cmd(degrees, precision_bits, fmt, out):
    """Certified root profile (phi, |psi|, g) of the characteristic polynomial."""
    gen = GeneratorSet.parse(degrees)
    poly = char_poly(gen)
    profile = profile_for_exponent(gen, 1) if precision_bits is None else profile_at(gen, precision_bits)
    summary = {
        "degrees": gen.spec_string(),
        "phi": decimal_str(profile.phi),
        "psi_abs": None if profile.psi_abs is None else decimal_str(profile.psi_abs),
        "g": profile.g,
        "poly_degree": poly.degree,
        "precision_bits": profile.precision_bits,
    }
    if fmt == "csv":
        _emit(to_csv([list(summary.values())], list(summary)), out)
    else:
        with mpmath.mp.workprec(64):
            summary["roots"] = [
                {
                    "re": decimal_str(z.real),
                    "im": decimal_str(z.imag),
                    "residual": mpmath.nstr(res, 6),
                }
                for z, res in zip(profile.cloud.roots, profile.cloud.residuals)
            ]
        _emit(to_json(summary), out)


@main.command("bound")
@click.option("--homology", "route", flag_value="homology")
@click.option("--ktheory", "route", flag_value="ktheory")
@click.option("--q", type=int, default=None, help=f"homology route: degree parameter, at most {MAX_POLY_DEGREE - 1}")
@click.option("--p", type=int, required=True, help="odd prime")
@click.option("--degrees", default=None, help=f"ktheory route: wedge degrees q_i:m_i, each at most {MAX_POLY_DEGREE}")
@click.option("--conn", type=int, default=None, help="ktheory route: p-local connectivity")
@click.option("--dim", type=int, default=None, help="ktheory route: rational cohomological dimension")
@click.option(
    "--eps", default="1/2", show_default=True, help=f"ktheory route: weak-bound epsilon, above 0 and at most {MAX_EPSILON}"
)
@click.option("--from", "from_", type=int, default=None)
@click.option("--upto", type=int, required=True)
@_format_option
@_out_option
def bound_cmd(route, q, p, degrees, conn, dim, eps, from_, upto, fmt, out):
    """Guaranteed lower bounds: boundary-rank route or K-theory route.

    Emits the same rows as report, without the notes: --homology is
    report --space moore, --ktheory the K-theory route for any wedge.
    """
    if route is None:
        raise InvalidArgument("choose one of --homology or --ktheory")
    eps = _as_fraction(eps, "--eps")
    if route == "homology":
        if q is None:
            raise InvalidArgument("--homology requires --q")
        reports = homology_rows(q, p, _degree_range(from_, upto, 2))
    else:
        if degrees is None or conn is None or dim is None:
            raise InvalidArgument("--ktheory requires --degrees, --conn and --dim")
        kt = ktheory_params(p, GeneratorSet.parse(degrees), conn, dim)
        reports = ktheory_rows(kt, _degree_range(from_, upto, kt.g_prime, kt.g_prime), eps)
    _emit_reports(reports, fmt, out)


def _degree_range(from_, upto, first, step=1) -> range:
    """FROM (default: first) rounded up to a multiple of step, through UPTO."""
    start = first if from_ is None else from_
    return range(start + (-start) % step, upto + 1, step)


def _emit_reports(reports, fmt, out):
    rows = report_rows(reports)
    if fmt == "csv":
        _emit(to_csv(rows, REPORT_FIELDS), out)
    else:
        _emit(to_json([dict(zip((*REPORT_FIELDS, "note") if row[-1] else REPORT_FIELDS, row)) for row in rows]), out)


@main.command("bezout")
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--a", "a_", required=True, help="slope, a rational like 1/2")
@click.option("--b", "b_", default="0", show_default=True, help="offset, rational")
@click.option("--n", "ns", type=int, multiple=True, required=True, help="base index (repeatable)")
@click.option("--cap", type=int, required=True, help=f"verify multiples up to this value, at most {MAX_VALUE_CAP}")
@click.option("--witnesses", is_flag=True, help="include the witness map (json only)")
@_format_option
@_out_option
def bezout_cmd(alpha, beta, a_, b_, ns, cap, witnesses, fmt, out):
    """Exactly verified covering certificate for the sets S_n."""
    cert = bezout_cover(alpha, beta, _as_fraction(a_, "--a"), _as_fraction(b_, "--b"), list(ns), cap)
    rows = []
    for entry in cert.entries:
        # printed as ints, which str() refuses past 4300 digits; either one that long leaves no value to check
        if max(entry.min_value, entry.i_window[1] - 1) >= 10**_MAX_DECIMAL_EXPONENT:
            raise InvalidArgument(
                f"min(S_n) or the window's last index has more than {_MAX_DECIMAL_EXPONENT} digits; no value up to --cap is checked"
            )
        rows.append(
            {
                "n": entry.n,
                "alpha": alpha,
                "beta": beta,
                "a": _fraction_str(cert.a),
                "b": _fraction_str(cert.b),
                "g_prime": cert.g_prime,
                "B": _fraction_str(cert.bound_b),
                "min_Sn": entry.min_value,
                "first_checked": "" if entry.first_checked is None else entry.first_checked,
                "checked": entry.checked,
                "i_window": f"{entry.i_window[0]}..{entry.i_window[1] - 1}",
            }
        )
    if fmt == "csv":
        _emit(to_csv([list(row.values()) for row in rows], list(rows[0])), out)
    else:
        payload = {"certificate": rows}
        if witnesses:
            listed = sum(entry.checked for entry in cert.entries)
            if listed > MAX_WITNESS_VALUES:
                raise InvalidArgument(f"--witnesses would list {listed} values, more than {MAX_WITNESS_VALUES}; lower --cap")
            payload["witnesses"] = {
                str(entry.n): {str(v): i for v, i in cert.witness_map(entry.n).items()}
                for entry in cert.entries
            }
        _emit(to_json(payload), out)


@main.command("dgl")
@click.option("--q", type=int, required=True, help="lower generator degree (x has degree q+1)")
@click.option("--p", type=int, required=True, help=f"odd prime, at most {MAX_PRIME}")
@click.option("--upto", type=int, default=12, show_default=True, help=f"last degree, at most {MAX_DGL_DEGREE}")
@_format_option
@_out_option
def dgl_cmd(q, p, upto, fmt, out):
    """Brute-force dims of L_n, cycles, boundaries, homology over F_p."""
    if upto < 1:
        raise InvalidArgument(f"--upto must be >= 1, got {upto}")
    if upto > MAX_DGL_DEGREE:
        raise InvalidArgument(f"--upto must be <= {MAX_DGL_DEGREE}, got {upto}")
    dims = subspace_dims(WeightedAlphabet.moore(q), MOORE_DIFFERENTIAL, p, upto)
    rows = [
        {
            "degree": n,
            "dim": dims["dim"][n - 1],
            "cycles": dims["cycles"][n - 1],
            "boundaries": dims["boundaries"][n - 1],
            "homology": dims["homology"][n - 1],
        }
        for n in range(1, upto + 1)
    ]
    if fmt == "csv":
        _emit(to_csv([list(row.values()) for row in rows], list(rows[0])), out)
    else:
        _emit(to_json(rows), out)


@main.command("report")
@click.option("--space", "space_name", required=True)
@click.option(
    "--q", type=int, default=None, help=f"homology-route spaces: degree parameter, at most {MAX_POLY_DEGREE - 1}"
)
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--l", type=int, default=None)
@click.option(
    "--eps", default="1/2", show_default=True,
    help=f"K-theory-route spaces: weak-bound epsilon, above 0 and at most {MAX_EPSILON}",
)
@click.option("--from", "from_", type=int, default=None)
@click.option("--upto", type=int, required=True)
@_format_option
@_out_option
def report_cmd(space_name, q, p, r, n, k, l, eps, from_, upto, fmt, out):
    """Guaranteed lower-bound table for a catalog space."""
    space = space_by_name(space_name)
    supplied = {"q": q, "p": p, "r": r, "n": n, "k": k, "l": l}
    params = {key: val for key, val in supplied.items() if val is not None}
    eps = _as_fraction(eps, "--eps")
    if space.route == "homology":
        degree_range = _degree_range(from_, upto, 2)
    else:
        gp = space.ktheory(params).g_prime
        degree_range = _degree_range(from_, upto, gp, gp)
    _emit_reports(space_report(space, params, degree_range, eps=eps), fmt, out)


@main.command("verify")
@click.option(
    "--suite",
    default="all",
    show_default=True,
    type=click.Choice(["all", *verify_mod.SUITES]),
)
def verify_cmd(suite):
    """Run the invariant suites and print a summary table."""
    failures = 0
    rows = []
    for suite_name, label, fails in verify_mod.run_suite(suite):
        status = "ok" if not fails else "FAIL"
        failures += len(fails)
        rows.append((suite_name, label, status, "" if not fails else fails[0]))
    width = max(len(r[1]) for r in rows)
    for suite_name, label, status, detail in rows:
        line = f"{suite_name:10s} {label:{width}s} {status}"
        if detail:
            line += f"  {detail}"
        click.echo(line)
    click.echo(f"{len(rows)} checks, {failures} failures")
    if failures:
        sys.exit(_EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
