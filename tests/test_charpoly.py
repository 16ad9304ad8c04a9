import math
from dataclasses import fields
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from torsion_bounds import (
    GeneratorSet,
    InvalidArgument,
    MonicIntPoly,
    RootStructureViolation,
    char_poly,
    newton_sums,
    root_profile,
)
from torsion_bounds import charpoly, verify
from torsion_bounds.charpoly import (
    MAX_BITS_TIMES_DEGREE,
    MAX_DEGREE_TIMES_COEFF_BITS,
    MAX_PRECISION_BITS,
    RootProfile,
    certified_phi,
)
from torsion_bounds.verify import (
    generator_family,
    check_newton_growth,
    check_newton_root_agreement,
    check_phi_window,
    check_profile_family,
    check_root_sign_structure,
)

PLASTIC = "1.324717957244746025960908"  # positive root of z^3 - z - 1


def test_generator_set_validation():
    with pytest.raises(InvalidArgument):
        GeneratorSet.of()
    with pytest.raises(InvalidArgument):
        GeneratorSet.of((2, 1), (2, 1))  # not strictly increasing
    with pytest.raises(InvalidArgument):
        GeneratorSet.of((0, 1))
    with pytest.raises(InvalidArgument):
        GeneratorSet.of((2, 0))


def test_generator_set_parse_and_g():
    gen = GeneratorSet.parse("2:1,3:1")
    assert gen.degrees == ((2, 1), (3, 1))
    assert gen.g == 1
    assert GeneratorSet.parse("2:1,4:1").g == 2
    assert GeneratorSet.parse("6:2").g == 6
    with pytest.raises(InvalidArgument):
        GeneratorSet.parse("2:x")


def test_char_poly_examples():
    assert char_poly(GeneratorSet.of((2, 1), (3, 1))).coeffs == (-1, -1, 0, 1)
    assert char_poly(GeneratorSet.of((2, 1), (4, 1))).coeffs == (-1, 0, -1, 0, 1)
    assert char_poly(GeneratorSet.of((1, 2))).coeffs == (-2, 1)


def test_monic_poly_validation():
    with pytest.raises(InvalidArgument):
        MonicIntPoly((1,))  # degree 0
    with pytest.raises(InvalidArgument):
        MonicIntPoly((-1, 2))  # not monic


def test_newton_sums_examples():
    assert newton_sums(char_poly(GeneratorSet.of((2, 1), (3, 1))), 5) == [0, 2, 3, 2, 5]
    assert newton_sums(MonicIntPoly((-2, 1)), 3) == [2, 4, 8]
    assert newton_sums(MonicIntPoly((-1, 0, 1)), 4) == [0, 2, 0, 2]


def test_root_profile_plastic():
    profile = root_profile(char_poly(GeneratorSet.of((2, 1), (3, 1))), 1, 128)
    with mpmath.mp.workprec(160):
        assert abs(profile.phi - mpf(PLASTIC)) < mpf("1e-24")
        assert abs(profile.psi_abs - mpf("0.868837")) < mpf("1e-5")
        # |psi|^2 = 1/phi since the root product is 1
        assert abs(profile.psi_abs**2 - 1 / profile.phi) < mpf("1e-12")
    assert profile.g == 1 and len(profile.cloud.roots) == 3


def test_root_profile_quartic_closed_form():
    profile = root_profile(char_poly(GeneratorSet.of((2, 1), (4, 1))), 2, 128)
    with mpmath.mp.workprec(128):
        assert abs(profile.phi**4 - (3 + mpmath.sqrt(5)) / 2) < mpf("1e-9")


def test_root_profile_all_roots_on_circle():
    profile = root_profile(char_poly(GeneratorSet.of((2, 1))), 2, 64)
    assert profile.phi == 1
    assert profile.psi_abs is None
    assert sorted(complex(z).real for z in profile.cloud.roots) == [-1.0, 1.0]


def test_certified_enclosure_signs_are_exact():
    poly = char_poly(GeneratorSet.of((2, 1), (3, 1)))
    profile = root_profile(poly, 1, 128)
    assert poly(profile.phi_lo) < 0 < poly(profile.phi_hi)
    assert profile.phi_hi - profile.phi_lo <= Fraction(1, 2**128)


def test_root_profile_rejects_wrong_g():
    with pytest.raises(RootStructureViolation):
        root_profile(char_poly(GeneratorSet.of((2, 1), (3, 1))), 2, 64)


def test_root_profile_rejects_low_precision_and_bad_family():
    poly = char_poly(GeneratorSet.of((2, 1), (3, 1)))
    with pytest.raises(InvalidArgument):
        root_profile(poly, 1, 32)
    with pytest.raises(InvalidArgument):
        root_profile(MonicIntPoly((1, -2, 1)), 1, 64)  # positive constant term


def test_precision_scaling():
    gen = GeneratorSet.of((2, 1), (3, 2))  # coefficient bound 1 + 2
    bits = charpoly.profile_bits_of(gen)
    for n in (1, 200, 1000):
        assert bits(n) % 64 == 0 and n * math.log2(3) + 64 <= bits(n) < n * math.log2(3) + 2 * 64 + 1


def test_phi_window_small():
    assert check_phi_window(30) == []


@pytest.mark.parametrize("ulps", [0, -1])
def test_phi_window_catches_an_upper_end_at_one_plus_one_over_q(monkeypatch, ulps):
    # the check is exact: an upper end at 1 + 1/q fails every q, one unit of the
    # enclosure's last bit below it passes every q
    certify = verify.certified_phi

    def at_the_end(poly, bits):
        lo, _, phi = certify(poly, bits)
        return lo, 1 + Fraction(1, poly.degree - 1) + Fraction(ulps, 1 << bits), phi

    monkeypatch.setattr(verify, "certified_phi", at_the_end)
    assert check_phi_window(12) == ([f"q={q}: phi outside the window" for q in range(2, 13)] if ulps == 0 else [])


def test_sign_structure_family():
    'one sign change, P < 0 below phi, P > 0 above, phi >= (sum m)^(1/q_l)'
    assert check_root_sign_structure(4, 8) == []


def test_root_sign_structure_catches_a_swapped_enclosure(monkeypatch):
    certify = verify.certified_phi

    def swapped(poly, bits):
        lo, hi, phi = certify(poly, bits)
        return hi, lo, phi

    monkeypatch.setattr(verify, "certified_phi", swapped)
    family = generator_family(2, 3)
    assert check_root_sign_structure(2, 3) == [f"{gen.spec_string()}: enclosure signs wrong" for gen in family]


def test_root_sign_structure_catches_phi_below_the_multiplicity_root(monkeypatch):
    # every multiplicity dropped to 1 keeps gen.sum_m but shrinks phi: q_l = 1 sets phi = 1 < sum m,
    # and only the exact test catches the three sets whose phi^{q_l} lies within a factor of 2 of sum m
    assert check_root_sign_structure(3, 3) == []
    monkeypatch.setattr(verify, "char_poly", lambda gen: char_poly(GeneratorSet.of(*((q, 1) for q, _ in gen.degrees))))
    low = ["1:2", "1:3", "2:2", "2:3", "3:2", "3:3", "1:1,2:2", "1:2,2:1", "2:1,3:2", "2:2,3:1"]
    assert check_root_sign_structure(3, 3) == [f"{spec}: phi below (sum m)^(1/q_l)" for spec in low]


_RATIONALS = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60)),
    st.integers(-(10**7), 10**7).map(Fraction),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=12), x=_RATIONALS)
@example(coeffs=[-6, 1], x=Fraction(2))  # z^2 + z - 6 = (z - 2)(z + 3): a zero
@example(coeffs=[-6, 1], x=Fraction(-3))
@example(coeffs=[0, 0, 0], x=Fraction(0))
@example(coeffs=[1, 0], x=Fraction(-(10**50), 3**90))
def test_sign_at_matches_fraction_horner(coeffs, x):
    poly = MonicIntPoly((*coeffs, 1))
    value = poly(x)  # Horner in Fraction arithmetic
    assert poly.sign_at(x) == (value > 0) - (value < 0)


def _sparse_coeffs():
    """Coefficient lists below the leading 1 of up to degree 120, mostly zero."""
    return st.lists(st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-(10**6), 10**6)), min_size=1, max_size=120)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(coeffs=_sparse_coeffs(), num=st.integers(-(2**200), 2**200), shift=st.integers(0, 200), x=_RATIONALS)
@example(coeffs=[0] * 100 + [-1, 0], num=3, shift=1, x=Fraction(1, 3))  # a trinomial, gaps of 1 and 100
@example(coeffs=[5], num=0, shift=7, x=Fraction(0))
def test_sparse_horner_matches_the_dense_one(coeffs, num, shift, x):
    poly, k = MonicIntPoly((*coeffs, 1)), len(coeffs)
    scaled, homogeneous = 1, 1
    for j in range(k - 1, -1, -1):  # the dense Horner forms, one step per coefficient
        scaled = scaled * num + (coeffs[j] << (shift * (k - j)))
        homogeneous = homogeneous * x.numerator + coeffs[j] * x.denominator ** (k - j)
    assert poly.eval_scaled(num, shift) == scaled
    assert poly.sign_at(x) == (homogeneous > 0) - (homogeneous < 0)


def test_phi_lower_bound_attained_single_degree():
    # one degree, m generators: phi = m^{1/q} exactly, so the bound is tight
    lo, hi, phi = certified_phi(char_poly(GeneratorSet.of((3, 2))), 96)
    assert lo**3 < 2 < hi**3


def test_profile_structure_across_family():
    'every profile in the family certifies its max-modulus orbit'
    assert check_profile_family(4, 8) == []


def test_newton_growth_inequalities():
    assert check_newton_growth(60) == []


def test_newton_growth_catches_a_doubled_power_sum(monkeypatch):
    sums_of = verify.newton_sums

    def doubled_at_24(poly, n_max):
        sums = list(sums_of(poly, n_max))
        sums[23] *= 2
        return sums

    family = generator_family(2, 3)  # every g divides 24, so S_24 != 0
    assert check_newton_growth(30, family=family) == []
    monkeypatch.setattr(verify, "newton_sums", doubled_at_24)
    assert check_newton_growth(30, family=family) == [
        f"{gen.spec_string()}: Newton growth fails at N=24" for gen in family
    ]


def test_newton_sums_match_root_cloud():
    assert check_newton_root_agreement(40) == []


def test_certified_phi_rejects_oversized_precision():
    with pytest.raises(InvalidArgument):
        certified_phi(char_poly(GeneratorSet.of((2, 1), (3, 1))), MAX_PRECISION_BITS + 1)


class _Reached(Exception):
    pass


def _reached(*args):
    raise _Reached


@pytest.mark.parametrize("k, bits", [(150, 655), (101, 973), (4, 24576), (3, MAX_PRECISION_BITS)])
def test_certified_phi_bits_times_degree_ceiling(monkeypatch, k, bits):
    # bits * k = 3 * MAX_PRECISION_BITS at most: the largest accepted bits reach the
    # bisection, one bit more is refused before it
    assert bits * k <= MAX_BITS_TIMES_DEGREE == 3 * MAX_PRECISION_BITS < (bits + 1) * k
    monkeypatch.setattr(charpoly, "_certified_enclosure", _reached)
    poly = char_poly(GeneratorSet.of((1, 1), (k, 1)) if k > 3 else GeneratorSet.of((2, 1), (3, 1)))
    assert poly.degree == k
    with pytest.raises(_Reached):
        certified_phi(poly, bits)
    with pytest.raises(InvalidArgument, match="precision_bits must be <="):
        certified_phi(poly, bits + 1)


@pytest.mark.parametrize("k, b", [(150, 40), (50, 122), (3, 2048), (2, 3072)])
def test_root_profile_degree_times_coefficient_bits_ceiling(monkeypatch, k, b):
    # k * bitlen(H) <= MAX_DEGREE_TIMES_COEFF_BITS: the largest accepted coefficients
    # reach the root work, one bit more is refused before it
    assert k * b <= MAX_DEGREE_TIMES_COEFF_BITS < k * (b + 1)
    monkeypatch.setattr(charpoly, "certified_phi", _reached)
    largest, past = (char_poly(GeneratorSet.of((1, m), (k, 1))) for m in (1 << (b - 1), (1 << b) - 1))
    assert (largest.coeff_bound().bit_length(), past.coeff_bound().bit_length()) == (b, b + 1)
    with pytest.raises(_Reached):
        root_profile(largest, 1, 128)
    with pytest.raises(InvalidArgument, match=f"got {k} \\* {b + 1}$"):
        root_profile(past, 1, 128)


# -- refinement state: warm answers equal cold ones ----------------------------


def _reference_enclosure(poly, bits):
    """Bisection from [0, H] from scratch, as a reference for the refined state."""
    lo_num, hi_num, shift = 0, poly.coeff_bound(), 0
    while True:
        s = poly.eval_scaled(hi_num, shift)
        if s > 0:
            break
        if s == 0:
            return charpoly._exact_root_enclosure(poly, hi_num, shift, bits)
        hi_num *= 2
    for _ in range(bits + (hi_num - lo_num).bit_length()):
        lo_num, hi_num, shift = lo_num * 2, hi_num * 2, shift + 1
        mid = (lo_num + hi_num) // 2
        s = poly.eval_scaled(mid, shift)
        if s == 0:
            return charpoly._exact_root_enclosure(poly, mid, shift, bits)
        if s < 0:
            lo_num = mid
        else:
            hi_num = mid
    return lo_num, hi_num, shift


def _clear_refinement_state():
    charpoly._bisection_start.cache_clear()
    charpoly._certified_enclosure.cache_clear()
    charpoly._aberth_roots.cache_clear()


# dominant-family generator sets whose profiles check_profile_family certifies
GENERATOR_SETS = st.sampled_from(generator_family(4, 6))
# bit requests in a random, rising, falling or repeated order
BIT_REQUESTS = st.lists(st.integers(64, 400), min_size=1, max_size=4).flatmap(
    lambda bits: st.sampled_from([bits, sorted(bits), sorted(bits, reverse=True), bits + bits])
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(gen=GENERATOR_SETS, requests=BIT_REQUESTS)
@example(gen=GeneratorSet.of((1, 1)), requests=[64, 300, 64])
@example(gen=GeneratorSet.of((2, 1)), requests=[300, 64, 300])
def test_refined_enclosure_equals_cold_bisection(gen, requests):
    poly = char_poly(gen)
    _clear_refinement_state()
    warm = [charpoly._certified_enclosure(poly, bits) for bits in requests]
    for bits, (lo, hi, shift) in zip(requests, warm):
        _clear_refinement_state()
        assert charpoly._certified_enclosure(poly, bits) == (lo, hi, shift)
        assert _reference_enclosure(poly, bits) == (lo, hi, shift)
        assert poly(Fraction(lo, 2**shift)) < 0 < poly(Fraction(hi, 2**shift))
        assert Fraction(hi - lo, 2**shift) <= Fraction(1, 2**bits)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(gen=GENERATOR_SETS, requests=BIT_REQUESTS)
@example(gen=GeneratorSet.of((1, 1)), requests=[64, 300, 64])
@example(gen=GeneratorSet.of((2, 1)), requests=[300, 64, 300])
def test_warm_root_profile_equals_cold(gen, requests):
    poly = char_poly(gen)
    _clear_refinement_state()
    warm = {bits: root_profile(poly, gen.g, bits) for bits in requests}
    for bits, profile in warm.items():
        _clear_refinement_state()
        cold = root_profile(poly, gen.g, bits)
        for field in fields(RootProfile):
            assert getattr(profile, field.name) == getattr(cold, field.name), field.name


# -- the Newton jump along the bisection path ----------------------------------


@st.composite
def _dominant_polys(draw):
    """z^k - sum c_i z^i with c_0 >= 1 and each other c_i zero, small or up to 10^30."""
    k = draw(st.integers(1, 40))
    big = st.integers(1, 10**30)
    small = st.integers(0, 9)
    rest = [draw(st.one_of(small, big)) for _ in range(k - 1)]
    c0 = draw(st.one_of(st.integers(1, 9), big))
    return MonicIntPoly(tuple([-c0] + [-c for c in rest] + [1]))


def _requests(k):
    # bits times degree at most 16384, so the reference bisection stays within a second
    cap = max(64, min(4096, 16384 // k))
    return st.lists(st.integers(64, cap), min_size=1, max_size=3)


def _assert_requests_match_cold_bisection(poly, requests):
    _clear_refinement_state()
    for bits in requests:
        assert charpoly._certified_enclosure(poly, bits) == _reference_enclosure(poly, bits), (poly.coeffs, bits)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_newton_bracket_equals_cold_bisection(data):
    poly = data.draw(_dominant_polys())
    _assert_requests_match_cold_bisection(poly, data.draw(_requests(poly.degree)))


@pytest.mark.parametrize(
    "poly, requests",
    [
        (MonicIntPoly((-2, -1, 1)), [4096, 64, 2000]),  # z^2 - z - 2: phi = 2 lies inside every cell
        (MonicIntPoly((-2, -3, 0, 1)), [64, 4096]),  # z^3 - 3z - 2: phi = 2 is met at step 1
        (char_poly(GeneratorSet.parse("2:1,4:1")), [3264, 64, 4096]),
        (char_poly(GeneratorSet.parse("1:3,2:1,7:2")), [2000, 500]),
        (MonicIntPoly((-(10**30),) * 3 + (1,)), [4096, 128]),  # phi within 10^-60 of H
    ],
    ids=["z2-z-2", "z3-3z-2", "2:1,4:1", "1:3,2:1,7:2", "phi-at-H"],
)
def test_newton_bracket_on_integer_roots_and_falling_requests(poly, requests):
    _assert_requests_match_cold_bisection(poly, requests)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda j: j - 1,
        lambda j: j + 1,
        lambda j: j - 2**40,
        lambda j: j + 2**40,
        lambda j: 0,
    ],
    ids=["below", "above", "far-below", "far-above", "useless"],
)
def test_newton_off_the_cell_is_corrected_by_the_sign_search(monkeypatch, estimate):
    poly = char_poly(GeneratorSet.parse("2:1,3:1"))
    newton = charpoly._newton
    monkeypatch.setattr(charpoly, "_newton", lambda *args: estimate(newton(*args)))
    _clear_refinement_state()
    for bits in (600, 64, 1200):
        assert charpoly._certified_enclosure(poly, bits) == _reference_enclosure(poly, bits)


def test_newton_jumps_without_single_steps(monkeypatch):
    poly = char_poly(GeneratorSet.parse("2:1,4:1"))
    _clear_refinement_state()
    calls = []
    evaluate = MonicIntPoly.eval_scaled
    monkeypatch.setattr(
        MonicIntPoly, "eval_scaled", lambda self, num, shift: calls.append(shift) or evaluate(self, num, shift)
    )
    lo, hi, shift = charpoly._certified_enclosure(poly, 3200)
    h = poly.coeff_bound()
    assert shift == 3200 + h.bit_length()
    # the start cell's bitlen(H) + 32 single steps (P(H) > 0 needs no sign: H bounds every
    # root), then two sign checks of Newton's cell
    assert len(calls) <= h.bit_length() + 32 + 2
    assert _reference_enclosure(poly, 3200) == (lo, hi, shift)


def test_newton_miss_bisects_the_start_cell_once(monkeypatch):
    poly = char_poly(GeneratorSet.parse("2:1,3:1"))
    _clear_refinement_state()
    charpoly._bisection_start(poly)
    monkeypatch.setattr(charpoly, "_newton", lambda *args: 0)
    calls = []
    evaluate = MonicIntPoly.eval_scaled
    monkeypatch.setattr(
        MonicIntPoly, "eval_scaled", lambda self, num, shift: calls.append(shift) or evaluate(self, num, shift)
    )
    bits = 2048
    enclosure = charpoly._certified_enclosure(poly, bits)
    # the two checks of the estimate's cell, then steps - start = bits - 32 halvings
    assert len(calls) <= bits - 30
    monkeypatch.undo()
    assert enclosure == _reference_enclosure(poly, bits)
