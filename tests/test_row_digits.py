"""Each bound row prints the digits of the public function at the row's precision.

A row whose profile runs at P >= 2L bits is evaluated at L bits first
(bounds._row_value) and keeps that value only when the rounding test shows
that its 24 digits and its sign are those of the P-bit value.  These tests
compare every row with decimal_str of ktheory_lower, weak_lower and f_q at
the same P, check the error bound against the exact difference, and force
the fallback.
"""

from fractions import Fraction

import pytest
from mpmath import mp

from torsion_bounds import bounds
from torsion_bounds.bounds import f_q, homology_row, ktheory_lower, ktheory_params, ktheory_rows, weak_lower
from torsion_bounds.render import decimal_str
from torsion_bounds.spaces import space_by_name

EPSILONS = ("1/2", "1/3", "7", "64")
# (environment floor, K-theory degrees, homology degrees): at 8192 bits every row
# runs at that precision, so the references cost more and fewer degrees are drawn
PRECISIONS = {
    "auto": (None, range(2, 3001, 6), range(2, 1501, 3)),
    "8192": ("8192", range(2, 1201, 46), range(2, 1201, 23)),
}


def _grassmannian():
    space, values = space_by_name("grassmannian"), {"n": 3, "k": 1, "p": 3}
    return ktheory_params(values["p"], space.gen, space.conn, space.dim(values))


def _printed(bound, vacuous, bits):
    return decimal_str(bound), vacuous, bits


def _set_precision(monkeypatch, floor):
    if floor is None:
        monkeypatch.delenv("TORSION_BOUNDS_PRECISION", raising=False)
    else:
        monkeypatch.setenv("TORSION_BOUNDS_PRECISION", floor)


def _record_fast_rows(monkeypatch) -> list:
    """[(v, e, reference)] for every row that reaches the low-precision evaluation."""
    seen, references = [], []
    row_value, low_precision = bounds._row_value, bounds._low_precision

    def recording_row_value(bits, weight, terms, inputs, reference):
        references.append(reference)
        return row_value(bits, weight, terms, inputs, reference)

    def recording_low_precision(*args):
        value, err = low_precision(*args)
        seen.append((value, err, references[-1]))
        return value, err

    monkeypatch.setattr(bounds, "_row_value", recording_row_value)
    monkeypatch.setattr(bounds, "_low_precision", recording_low_precision)
    return seen


@pytest.mark.parametrize("precision", PRECISIONS, ids=list(PRECISIONS))
@pytest.mark.parametrize("eps", EPSILONS)
def test_ktheory_rows_print_the_reference_digits(monkeypatch, eps, precision):
    floor, degrees, _ = PRECISIONS[precision]
    _set_precision(monkeypatch, floor)
    params = _grassmannian()
    fast = _record_fast_rows(monkeypatch)

    rows = ktheory_rows(params, degrees, eps)

    for strong, weak, m in zip(rows[::2], rows[1::2], degrees):
        want = ktheory_lower(params, m)
        assert _printed(strong.bound, strong.vacuous, strong.precision_bits) == _printed(
            want.bound, want.vacuous, want.precision_bits
        ), m
        exact = weak_lower(params, m, eps)
        assert _printed(weak.bound, weak.vacuous, weak.precision_bits) == _printed(
            exact, bool(exact <= 0), want.precision_bits
        ), m
    assert any(row.vacuous for row in rows) and not all(row.vacuous for row in rows)
    assert len(fast) >= len(degrees)  # the low-precision path ran for most rows


@pytest.mark.parametrize("precision", PRECISIONS, ids=list(PRECISIONS))
@pytest.mark.parametrize("q", [2, 4])
def test_homology_rows_print_the_reference_digits(monkeypatch, q, precision):
    floor, _, degrees = PRECISIONS[precision]
    _set_precision(monkeypatch, floor)
    fast = _record_fast_rows(monkeypatch)

    rows = [homology_row(q, 3, n) for n in degrees]

    for row, n in zip(rows, degrees):
        exact = f_q(q, n, 3)
        assert _printed(row.bound, row.vacuous, row.precision_bits) == _printed(
            exact, bool(exact <= 0), bounds.homology_params(q, 3, n).precision_bits
        ), n
    assert any(row.vacuous for row in rows) and not all(row.vacuous for row in rows)
    assert len(fast) >= len(degrees) // 2


@pytest.mark.parametrize("eps", EPSILONS)
def test_error_bound_covers_the_reference_value(monkeypatch, eps):
    fast = _record_fast_rows(monkeypatch)
    ktheory_rows(_grassmannian(), range(2, 3001, 14), eps)
    for n in range(2, 1501, 7):
        homology_row(2, 3, n)
    assert len(fast) > 300
    for value, err, reference in fast:
        exact = reference()
        # the bound is rigorous, and far below the 2^-80 relative spacing of 24 digits
        assert abs(mp.fsub(value, exact, exact=True)) <= err
        assert err <= abs(exact) * mp.mpf(2) ** -90 or abs(exact) < err * 2**20


def test_forced_straddle_takes_the_fallback(monkeypatch):
    # an error bound of 2^200 times the real one straddles every rounding boundary
    monkeypatch.setattr(bounds, "_ROW_SAFETY_BITS", 200)
    params = _grassmannian()
    degrees = range(2, 1201, 2)
    bounds._strong_digits.cache_clear()

    rows = ktheory_rows(params, degrees, "1/2")

    strong = [ktheory_lower(params, m) for m in degrees]
    weak = [weak_lower(params, m, Fraction(1, 2)) for m in degrees]
    assert [row.bound._mpf_ for row in rows[::2]] == [row.bound._mpf_ for row in strong]
    assert [row.bound._mpf_ for row in rows[1::2]] == [value._mpf_ for value in weak]
    homology = [homology_row(2, 3, n) for n in range(2, 400)]
    assert [row.bound._mpf_ for row in homology] == [f_q(2, n, 3)._mpf_ for n in range(2, 400)]
    bounds._strong_digits.cache_clear()


def test_value_near_a_short_decimal_takes_the_fallback():
    # n(M) = 102: the strong bound is 15474936163125650796.99999999999998..., within
    # 2e-14 of an integer, which prints as ...797.0000 and lies inside [v - e, v + e]
    params = _grassmannian()
    m = next(m for m in range(2, 3001, 2) if params.n_of(m) == 102)
    row = ktheory_rows(params, [m], "1/2")[0]
    assert row.bound._mpf_ == ktheory_lower(params, m).bound._mpf_
    assert decimal_str(row.bound) == "15474936163125650797.0000"
