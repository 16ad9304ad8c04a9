"""The K-theory rows compute the strong bound once per (n(M), bits), take the
weak bound's M^(1+eps) from the integer power routine with no mpmath power
per row, and print the digits of the uncached formulas.

The reference functions below are ktheory_lower and weak_lower written out
as plain mpmath formulas, with no cache and no integer pass, and the paper's
theta/tau display form, which only the tests read.  The public functions are
compared with them by raw mpf tuple, not by value; the rows, whose values may
come from the integer pass, by their printed form.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from torsion_bounds import bounds, charpoly
from torsion_bounds.bounds import BoundReport, _exponent_budget, _mpf_of, ktheory_params
from torsion_bounds.charpoly import profile_for_exponent
from torsion_bounds.errors import InvalidArgument
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


def _reference_lower(params, m) -> mpf:
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    n = params.n_of(m)
    if n is None:
        return mpf(0)
    with mp.workprec(profile.precision_bits):
        phi = profile.phi
        big_e = n + 8 * (params.p - 1) ** 2
        value = phi ** (n * params.g) / big_e
        value -= params.g * phi ** (mpf(big_e * params.g) / 2)
        if profile.psi_abs is not None:
            value -= params.gen.q_max * (3 + 2 * profile.psi_abs ** (big_e * params.g))
        return value


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


def _reference_rows(params, degrees, eps, note) -> list[tuple]:
    """Each row as _printed gives it, from the reference values."""
    rows = []
    for m in degrees:
        bits = profile_for_exponent(params.gen, _exponent_budget(params, m)).precision_bits
        n = params.n_of(m)
        strong, weak = _reference_lower(params, m), _reference_weak(params, m, eps)
        rows += [
            (m, decimal_str(strong), "ktheory_guaranteed", strong <= 0, bits, "below-threshold" if n is None else f"n(M)={n}"),
            (m, decimal_str(weak), "ktheory_weak", weak <= 0, bits, note),
        ]
    return rows


def _printed(row: BoundReport) -> tuple:
    return (row.degree, row.text, row.theorem, row.vacuous, row.precision_bits, row.note)


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

    # the rows print the reference's digits: each row's text is the reference
    # value's decimal_str, its vacuous flag the reference value's sign
    want = _reference_rows(params, degrees, EPS, f"eps={EPS}")
    assert [_printed(r) for r in rows] == want
    pairs = {(params.n_of(m), row.precision_bits) for m, row in zip(degrees, rows[::2]) if params.n_of(m) is not None}
    # one strong evaluation per (n(M), bits) and one weak one per degree
    assert len(decided) == len(pairs) + len(degrees) and len(pairs) < len(degrees)
    # the public functions keep the reference's exact values, the strong one computed once per pair
    assert [bounds.ktheory_lower(params, m)._mpf_ for m in degrees] == [_reference_lower(params, m)._mpf_ for m in degrees]
    assert [bounds.weak_lower(params, m, EPS)._mpf_ for m in degrees] == [_reference_weak(params, m, EPS)._mpf_ for m in degrees]
    assert bounds._strong_value.cache_info().misses == len(pairs)


@pytest.mark.parametrize(
    "degrees, eps, message",
    [([2, 4000], "0", "epsilon must be > 0"), ([3, 4000], "1/2", "M=3 is not a multiple of g'=2")],
    ids=["eps", "first-degree"],
)
def test_rows_refuse_their_input_before_any_profile(degrees, eps, message):
    params = _space_params(*SPACES[0])
    charpoly._cached_profile.cache_clear()
    with pytest.raises(InvalidArgument, match=message):
        bounds.ktheory_rows(params, degrees, eps)
    assert charpoly._cached_profile.cache_info().misses == 0


# -- M^(1+eps) from the integer power routine ---------------------------------------

# b = 16 and a + b = 512 once capped an integer root, 1/17 and 505/8 the first epsilons past them;
# 63/64 takes six square roots, 1e-4300 the exponent 1 once it is rounded
ROOT_EPSILONS = ["1/2", "1/3", "2/3", "1/16", "503/9", "64", "63/64", "1/17", "505/8", "1e-4300"]


@pytest.mark.parametrize("eps", ROOT_EPSILONS, ids=[eps[:8] for eps in ROOT_EPSILONS])
def test_weak_rows_print_weak_lower_on_both_sides_of_the_root_caps(eps):
    params = _space_params(*SPACES[0])
    degrees = range(2, 801, 2)

    rows = bounds.ktheory_rows(params, degrees, eps)

    assert [row.text for row in rows[1::2]] == [decimal_str(bounds.weak_lower(params, m, eps)) for m in degrees]


def _count_powers(monkeypatch, build_rows) -> tuple[int, dict]:
    """(mpf powers, {fallback function: calls}) of a second build_rows(), its profiles and strong values cached."""
    build_rows()
    cls, powers, fallbacks = type(mpf(1)), [], {"f_q": 0, "ktheory_lower": 0, "weak_lower": 0}
    with monkeypatch.context() as patch:
        for name in ("__pow__", "__rpow__"):
            patch.setattr(cls, name, lambda *args, f=getattr(cls, name): powers.append(1) or f(*args))
        for name in fallbacks:
            function = getattr(bounds, name)
            patch.setattr(bounds, name, lambda *args, f=function, name=name: fallbacks.update({name: fallbacks[name] + 1}) or f(*args))
        build_rows()
    return len(powers), fallbacks


@pytest.mark.parametrize("eps", ["1/2", "1/3", "63/64", "64", "1e-4300"])
def test_weak_rows_make_no_mpmath_power_per_row(monkeypatch, eps):
    # only a fallback row raises an mpf to a power: weak_lower twice, and ktheory_lower's value is cached
    params = _space_params(*SPACES[0])
    powers, fallbacks = _count_powers(monkeypatch, lambda: bounds.ktheory_rows(params, range(2, 3001, 2), eps))
    assert powers == 2 * fallbacks["weak_lower"]


def test_homology_rows_make_no_mpmath_power_per_row(monkeypatch):
    # only a fallback row raises an mpf to a power: f_q three times; no row of this table falls
    # back by itself, so every 250th row is made to
    decide = bounds._Running.decide
    monkeypatch.setattr(bounds._Running, "decide", lambda self, *args: None if self.at % 250 == 0 else decide(self, *args))
    powers, fallbacks = _count_powers(monkeypatch, lambda: bounds.homology_rows(2, 3, range(2, 2001)))
    assert powers == 3 * fallbacks["f_q"] and fallbacks["f_q"] == 8
