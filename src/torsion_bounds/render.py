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
from fractions import Fraction
from typing import TYPE_CHECKING

from mpmath import mpf

if TYPE_CHECKING:
    from .bounds import BoundReport

__all__ = ["decimal_str", "prints_alike", "report_rows", "to_csv", "to_json"]

SIGNIFICANT_DIGITS = 24


def decimal_str(x, sig: int = SIGNIFICANT_DIGITS) -> str:
    """Plain decimal string of x with sig significant digits.

    Accepts mpf, int, or Fraction.  An int is rendered with all of its
    digits, however many (str(int) refuses more than 4300).  mpf values
    are binary rationals, so the conversion itself is exact and only the
    final rounding depends on sig.
    """
    if isinstance(x, int):
        return format(decimal.Decimal(x), "f")
    num, den = _ratio(x)
    if num == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = sig
        value = decimal.Decimal(num) / decimal.Decimal(den)
    out = format(value, "f")
    return out


def _ratio(x) -> tuple[int, int]:
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, mpf) or hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        man, exp = int(man), int(exp)  # the gmpy2 backend hands back mpz
        num = -man if sign else man
        return (num << exp, 1) if exp >= 0 else (num, 1 << -exp)
    raise TypeError(f"decimal_str cannot render {type(x).__name__}")


def prints_alike(lo: mpf, hi: mpf) -> bool:
    """True when decimal_str gives every real in [lo, hi] the same string.

    Decimal division rounds correctly, so rounding to SIGNIFICANT_DIGITS is
    monotone and two ends that print alike round every real between them to
    the same decimal D.  The one exception is D itself, whose exact quotient
    prints without trailing zeros, so an interval holding D is refused.
    """
    text = decimal_str(lo)
    if text != decimal_str(hi):
        return False
    (lo_num, lo_den), (hi_num, hi_den) = _ratio(lo), _ratio(hi)
    num, den = decimal.Decimal(text).as_integer_ratio()  # every denominator is positive
    return not (lo_num * den <= num * lo_den and num * hi_den <= hi_num * den)


def report_rows(reports: list[BoundReport]) -> list[dict]:
    """Rows matching the wire schema for bound reports."""
    rows = []
    for r in reports:
        row = {
            "degree": r.degree,
            "bound": decimal_str(r.bound),
            "exact_rank": None if r.exact_rank is None else str(r.exact_rank),
            "theorem": r.theorem,
            "vacuous": r.vacuous,
            "precision_bits": r.precision_bits,
        }
        if r.note:
            row["note"] = r.note
        rows.append(row)
    return rows


def to_csv(rows: list[dict], fieldnames: list[str]) -> str:
    """RFC 4180 CSV (CRLF line endings, minimal quoting)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})
    return buf.getvalue()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
