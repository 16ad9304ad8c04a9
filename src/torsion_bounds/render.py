"""Deterministic serialization helpers for the CLI.

High-precision reals are rendered as plain positional decimal strings
with a fixed number of significant digits (no scientific notation), so
identical invocations produce byte-identical output.  Every Decimal
operation runs in a context of this module, never the caller's.
"""

from __future__ import annotations

import csv
import decimal
import io
import itertools
import json
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .bounds import BoundReport

__all__ = ["REPORT_FIELDS", "common_text", "decimal_str", "report_rows", "to_csv", "to_json"]

SIGNIFICANT_DIGITS = 24
# Ints of at most this many bits go to Decimal(int) whole; it is quadratic above.
_SPLIT_BITS = 4096
# The contexts every rounding and every exact sum of this module runs in: the Python defaults
# but for the precision, so a caller's context is neither read nor changed.
_ROUNDING = decimal.Context(
    prec=SIGNIFICANT_DIGITS, rounding=decimal.ROUND_HALF_EVEN, Emax=999_999, Emin=-999_999,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=-999_999,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact],
)
_ONE = decimal.Decimal(1)

# The wire schema of a bound row: the CSV header, and the keys of a JSON row, which adds "note" when there is one.
REPORT_FIELDS = ("degree", "bound", "exact_rank", "theorem", "vacuous", "precision_bits")


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

        with decimal.localcontext(_EXACT):
            value = convert(abs(x), abs(x).bit_length())
            return format(-value if x < 0 else value, "f")
    num, den = _ratio(x)
    if num == 0:
        return "0"
    return format(_ROUNDING.divide(decimal.Decimal(num), decimal.Decimal(den)), "f")


def _ratio(x) -> tuple[int, int]:
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        num = int(-man if sign else man)
        return (num << exp, 1) if exp >= 0 else (num, 1 << -exp)
    raise TypeError(f"decimal_str cannot render {type(x).__name__}")


def common_text(lo: int, hi: int, k: int) -> str | None:
    """The string decimal_str gives every real in [lo 2^k, hi 2^k], or None.

    One correctly rounded Decimal division in this module's own context gives
    D = decimal_str(lo 2^k).  Rounding to SIGNIFICANT_DIGITS is monotone, so
    every real of the interval rounds to D when hi 2^k < D, or when D < lo 2^k
    and hi 2^k < D + ulp(D)/2.  D itself is refused: its exact quotient prints
    without trailing zeros.  The compares are integer cross-multiplications;
    an interval holding 0 is refused and a negative one mirrored.  A bound row
    costs this one division and no other Decimal work.
    """
    if hi < 0:
        text = common_text(-hi, -lo, k)
        return None if text is None else "-" + text
    if lo <= 0:
        return None
    if k >= 0:
        rounded = _ROUNDING.divide(decimal.Decimal(lo << k), _ONE)
        left, right = 1 << k, 1
    else:
        rounded = _ROUNDING.divide(decimal.Decimal(lo), decimal.Decimal(1 << -k))
        left, right = 1, 1 << -k
    e = rounded.as_tuple().exponent
    c = int(_ROUNDING.scaleb(rounded, -e))
    # x 2^k < c 10^e exactly when x left < c right, both sides scaled to integers
    if e < 0:
        left *= 10**-e
    else:
        right *= 10**e
    if hi * left < c * right or (c * right < lo * left and 2 * hi * left < (2 * c + 1) * right):
        return format(rounded, "f")
    return None


def report_rows(reports: Iterable[BoundReport]) -> Iterator[tuple]:
    """The wire cells of each row, one row at a time and built once for both
    formats: its REPORT_FIELDS in order, then its note.  to_csv writes the first
    six; a JSON row pairs them with REPORT_FIELDS and adds the note when there
    is one."""
    return ((r.degree, r.text, None, r.theorem, r.vacuous, r.precision_bits, r.note) for r in reports)


def to_csv(rows: Iterable[Sequence], fieldnames: Sequence[str]) -> str:
    """RFC 4180 CSV (CRLF line endings, minimal quoting): the header, then the
    first len(fieldnames) cells of each row, None printed empty and a bool as
    true or false.  A line that needs no quotes is joined here; csv.writer,
    which takes about three times as long, writes the others."""
    width, buf = len(fieldnames), io.StringIO()
    writer = csv.writer(buf)
    for row in itertools.chain([fieldnames], rows):
        cells = ["" if c is None else ("true" if c else "false") if c.__class__ is bool else str(c) for c in row[:width]]
        line = ",".join(cells)
        # csv.writer quotes a cell with a comma, a quote or a line break, and a row that is one empty cell
        if line and line.count(",") == width - 1 and not ('"' in line or "\r" in line or "\n" in line):
            buf.write(line + "\r\n")
        else:
            writer.writerow(cells)
    return buf.getvalue()


def to_json(obj) -> str:
    """json.dumps(obj, indent=2) and a newline, byte for byte, with no value
    through the json module's pure-Python encoder, which an indent selects.  A
    list or dict that holds no list or dict is laid out whole by the C encoder,
    whose item separator carries the newline and the indent."""
    return _json(obj, "\n") + "\n"


_CONTAINERS = (dict, list, tuple)


def _json(obj, newline: str) -> str:
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    inner, is_dict = newline + "  ", isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    if any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values))):
        # json's key rule: a str as it is, None, a bool or a number by its JSON text
        parts = (
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_json(v, inner)}" for k, v in obj.items()
        ) if is_dict else (_json(v, inner) for v in obj)
        body = ("," + inner).join(parts)
    else:
        body = _flat_encoder(inner)(obj)[1:-1]
    return ("{" if is_dict else "[") + inner + body + newline + ("}" if is_dict else "]")


@lru_cache(maxsize=8)  # one per depth of nesting
def _flat_encoder(inner: str):
    return json.JSONEncoder(separators=("," + inner, ": ")).encode
