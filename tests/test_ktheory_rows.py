"""The K-theory rows compute the strong bound once per (n(M), bits), and print
the digits of the uncached formulas.

The reference functions below are ktheory_lower, weak_lower and
ktheory_main_term written out as plain mpmath formulas, with no cache and no
integer pass.  The public functions are compared with them by raw mpf tuple,
not by value; the rows, whose values may come from the integer pass, by their
printed form.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from torsion_bounds import bounds
from torsion_bounds.bounds import BoundReport, _exponent_budget, _mpf_of, ktheory_params
from torsion_bounds.charpoly import profile_for_exponent
from torsion_bounds.render import decimal_str
from torsion_bounds.spaces import space_by_name

SPACES = (("grassmannian", {"n": 3, "k": 1, "p": 3}), ("milnor-hypersurface", {"n": 3, "l": 5, "p": 3}))
EPS = "1/2"


def _space_params(name, values):
    space = space_by_name(name)
    return ktheory_params(values["p"], space.gen, space.conn, space.dim(values))


def _tau_exponent(params) -> Fraction:
    return -params.g - params.ratio * (2 * (params.p - 1) * (params.b + 1) + params.big_b)


# -- the uncached formulas ------------------------------------------------------


def _reference_lower(params, m) -> BoundReport:
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    bits = profile.precision_bits
    n = params.n_of(m)
    if n is None:
        return BoundReport(m, mpf(0), "ktheory_guaranteed", True, bits, note="below-threshold")
    with mp.workprec(bits):
        phi = profile.phi
        big_e = n + 8 * (params.p - 1) ** 2
        value = phi ** (n * params.g) / big_e
        value -= params.g * phi ** (mpf(big_e * params.g) / 2)
        if profile.has_psi:
            value -= params.gen.q_max * (3 + 2 * profile.psi_abs ** (big_e * params.g))
        return BoundReport(m, value, "ktheory_guaranteed", bool(value <= 0), bits, note=f"n(M)={n}")


def _reference_weak(params, m, epsilon) -> mpf:
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    with mp.workprec(profile.precision_bits):
        exponent = _mpf_of(params.ratio * m)
        return profile.phi**exponent / mpf(m) ** (1 + _mpf_of(Fraction(epsilon)))


def _reference_main_term(params, m) -> mpf:
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    with mp.workprec(profile.precision_bits):
        denom = _mpf_of(params.ratio) * m / params.g + _mpf_of(params.theta_safe)
        if denom <= 0:
            return mpf(0)
        tau = _mpf_of(_tau_exponent(params))
        return profile.phi**tau / denom * profile.phi ** _mpf_of(params.ratio * m)


def _reference_rows(params, degrees, eps, note) -> list[BoundReport]:
    rows = []
    for m in degrees:
        strong = _reference_lower(params, m)
        weak = _reference_weak(params, m, eps)
        rows += [strong, BoundReport(m, weak, "ktheory_weak", bool(weak <= 0), strong.precision_bits, note=note)]
    return rows


def _fields(row: BoundReport) -> tuple:
    return (row.degree, row.bound._mpf_, row.theorem, row.vacuous, row.precision_bits, row.note)


def _printed(row: BoundReport, text: str) -> tuple:
    return (row.degree, text, row.theorem, row.vacuous, row.precision_bits, row.note)


# -- the rows ----------------------------------------------------------------------


@pytest.mark.parametrize("name, values", SPACES, ids=[name for name, _ in SPACES])
def test_rows_match_uncached_reference(monkeypatch, name, values):
    params = _space_params(name, values)
    degrees = list(range(params.g_prime, 1201, params.g_prime))
    bounds._strong_value.cache_clear()
    decided = []
    decide = bounds._Running.decide
    monkeypatch.setattr(bounds._Running, "decide", lambda self, *args: decided.append(self.step) or decide(self, *args))

    rows = bounds.ktheory_rows(params, degrees, EPS, note=f"eps={EPS}")

    # the rows print the reference's digits; their values may come from the
    # integer pass, so they are compared as printed: each row's text with the
    # reference value's decimal_str
    want = _reference_rows(params, degrees, EPS, f"eps={EPS}")
    assert [_printed(r, r.text) for r in rows] == [_printed(r, decimal_str(r.bound)) for r in want]
    pairs = {(params.n_of(m), row.precision_bits) for m, row in zip(degrees, rows[::2]) if params.n_of(m) is not None}
    # one strong evaluation per (n(M), bits) and one weak one per degree
    assert len(decided) == len(pairs) + len(degrees) and len(pairs) < len(degrees)
    # the public functions keep the reference's exact values, the strong one computed once per pair
    assert [_fields(bounds.ktheory_lower(params, m)) for m in degrees] == [_fields(r) for r in want[::2]]
    assert [bounds.weak_lower(params, m, EPS)._mpf_ for m in degrees] == [r.bound._mpf_ for r in want[1::2]]
    assert bounds._strong_value.cache_info().misses == len(pairs)
    for m in degrees:
        assert bounds.ktheory_main_term(params, m)._mpf_ == _reference_main_term(params, m)._mpf_
