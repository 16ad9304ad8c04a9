"""Deterministic serialization helpers for the CLI.

High-precision reals are rendered as plain positional decimal strings
with a fixed number of significant digits (no scientific notation), so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .bounds import BoundReport

__all__ = ["common_text", "decimal_str", "report_rows", "to_csv", "to_json"]

SIGNIFICANT_DIGITS = 24
# Ints of at most this many bits go to Decimal(int) whole; it is quadratic above.
_SPLIT_BITS = 4096


def decimal_str(x) -> str:
    """Plain decimal string of x with SIGNIFICANT_DIGITS significant digits.

    Accepts mpf or int.  An int is rendered with all of its
    digits, however many (str(int) refuses more than 4300), split at 2^k
    into halves that are put back together in an unbounded context, where
    libmpdec multiplies fast: near-linear, where Decimal(int) is quadratic.
    mpf values are binary rationals, so the conversion itself is exact and
    only the final rounding depends on SIGNIFICANT_DIGITS.
    """
    if isinstance(x, int):
        powers: dict[int, decimal.Decimal] = {}  # k -> 2^k

        def power(k: int) -> decimal.Decimal:
            if k not in powers:
                powers[k] = decimal.Decimal(1 << k) if k <= _SPLIT_BITS else power(k // 2) * power(k - k // 2)
            return powers[k]

        def convert(n: int, bits: int) -> decimal.Decimal:
            if bits <= _SPLIT_BITS:
                return decimal.Decimal(n)
            high = n >> bits // 2
            return convert(high, bits - bits // 2) * power(bits // 2) + convert(n - (high << bits // 2), bits // 2)

        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.traps[decimal.Inexact] = decimal.MAX_PREC, decimal.MAX_EMAX, True
            value = convert(abs(x), abs(x).bit_length())
            return format(-value if x < 0 else value, "f")
    num, den = _ratio(x)
    if num == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = SIGNIFICANT_DIGITS
        value = decimal.Decimal(num) / decimal.Decimal(den)
    return format(value, "f")


def _ratio(x) -> tuple[int, int]:
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        num = int(-man if sign else man)
        return (num << exp, 1) if exp >= 0 else (num, 1 << -exp)
    raise TypeError(f"decimal_str cannot render {type(x).__name__}")


def common_text(lo: int, hi: int, k: int) -> str | None:
    """The string decimal_str gives every real in [lo 2^k, hi 2^k], or None.

    One correctly rounded Decimal division gives D = decimal_str(lo 2^k).
    Rounding to SIGNIFICANT_DIGITS is monotone, so every real of the interval
    rounds to D when hi 2^k < D, or when D < lo 2^k and hi 2^k < D + ulp(D)/2.
    D itself is refused: its exact quotient prints without trailing zeros.
    The compares are integer cross-multiplications; an interval holding 0 is
    refused and a negative one mirrored.
    """
    if hi < 0:
        text = common_text(-hi, -lo, k)
        return None if text is None else "-" + text
    if lo <= 0:
        return None
    with decimal.localcontext() as ctx:
        ctx.prec = SIGNIFICANT_DIGITS
        rounded = decimal.Decimal(lo << k if k >= 0 else lo) / decimal.Decimal(1 if k >= 0 else 1 << -k)
        e = rounded.as_tuple().exponent
        c = int(rounded.scaleb(-e))
    # x 2^k < c 10^e exactly when x left < c right, both sides scaled to integers
    left, right = (1 << max(k, 0)) * 10 ** max(-e, 0), (1 << max(-k, 0)) * 10 ** max(e, 0)
    if hi * left < c * right or (c * right < lo * left and 2 * hi * left < (2 * c + 1) * right):
        return format(rounded, "f")
    return None


def report_rows(reports: Iterable[BoundReport]) -> Iterator[dict]:
    """Rows matching the wire schema for bound reports, one at a time."""
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


def to_csv(rows: Iterable[dict], fieldnames: list[str]) -> str:
    """RFC 4180 CSV (CRLF line endings, minimal quoting)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    writer.writerows([_csv_cell(row.get(k)) for k in fieldnames] for row in rows)
    return buf.getvalue()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
