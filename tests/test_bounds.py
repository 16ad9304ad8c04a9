import dataclasses
import math
import random
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from torsion_bounds import (
    GeneratorSet,
    InvalidArgument,
    babenko_rank,
    bbar_lower,
    bezout_cover,
    condition_star,
    f_q,
    ktheory_lower,
    min_j,
    rank_window,
    sigma_upper,
    weak_lower,
)
from torsion_bounds import bounds, charpoly, verify
from torsion_bounds.bounds import MAX_VALUE_CAP, KTheoryParams, ktheory_main_term, ktheory_params
from torsion_bounds.charpoly import profile_for_exponent
from torsion_bounds.render import decimal_str
from torsion_bounds.verify import (
    check_bezout_coverage,
    check_boundary_equals_fq,
    check_condition_star_minimality,
    check_fq_chain,
    check_ktheory_positivity,
    check_phi_dominates_two_power,
    generator_family,
)

# scanned regression constants (frozen)
FIRST_POSITIVE_N = {2: 96, 3: 149, 4: 207}
BBAR_FIRST_POSITIVE = {2: 53, 3: 86}


def _independent_homology_constants(q, dps=60):
    """phi, psi, c, kappa computed through mpmath.polyroots, not the package."""
    with mp.workdps(dps):
        roots = mpmath.polyroots([1] + [0] * (q - 1) + [-1, -1], maxsteps=200, extraprec=120)
        phi = max(r.real for r in roots if abs(r.imag) < mpf("1e-40"))
        psi = sorted((abs(r) for r in roots), reverse=True)[1]
        return phi, psi, 2 * (q + 2) * (1 + phi), (q + 1) * (1 + 1 / psi)


@pytest.mark.parametrize("q,n", [(2, 20), (2, 37), (3, 30), (4, 50)])
def test_f_q_against_independent_root_finder(q, n):
    phi, psi, c, kappa = _independent_homology_constants(q)
    with mp.workdps(60):
        want = (1 - (mpf(n) / (n - 1)) / phi) * phi**n / n - c * n * phi ** (mpf(n) / 2) - kappa * psi**n
        got = f_q(q, n)
        assert abs(got - want) <= mpf("1e-12") * abs(want)


def test_f_q_spot_value():
    assert mpf("-6.3e3") < f_q(2, 20) < mpf("-6.1e3")


def _fq_positive_threshold(q: int, n_hi: int = 400) -> int | None:
    """Smallest N with f_q(N) > 0 (scan), None if not reached by n_hi."""
    return next((n for n in range(2, n_hi + 1) if f_q(q, n) > 0), None)


def test_f_q_first_positive_regression():
    for q, n0 in FIRST_POSITIVE_N.items():
        assert _fq_positive_threshold(q) == n0
        assert f_q(q, n0) > 0 > f_q(q, n0 - 1)


def test_f_q_asymptotic_chain():
    assert check_fq_chain((2, 3, 4), 0.1, 400) == []


def test_f_q_chain_catches_a_halved_f_q(monkeypatch):
    f = bounds.f_q
    assert check_fq_chain((2,), 0.1, 200) == []
    monkeypatch.setattr(bounds, "f_q", lambda q, n: f(q, n) / 2)
    assert check_fq_chain((2,), 0.1, 200) == ["q=2: no threshold N0 <= 200"]


def test_f_q_chain_catches_a_phi_below_the_two_power(monkeypatch):
    # with phi = 1.2 < 2^{1/3} the middle curve falls below the lowest one at
    # every N, so the chain breaks at the threshold itself
    params = dataclasses.replace(bounds.homology_params(2, 200), phi=mpf("1.2"))
    with mp.workprec(params.precision_bits + 32):
        below = [n for n in range(2, 201) if not f_q(2, n) >= mpf("0.9") * (1 - 1 / params.phi) * params.phi**n / n]
    stub = types.SimpleNamespace(homology_params=lambda q, n_max: params, f_q=bounds.f_q)
    monkeypatch.setattr(verify, "bnd", stub)
    assert check_fq_chain((2,), 0.1, 200) == [f"q=2: chain fails at N={max(below) + 1}"]


def _two_power(degree: int, bits: int) -> mpf:
    with mp.workprec(bits):
        return mpf(2) ** (mpf(1) / degree)


def test_phi_dominance_check_catches_phi_at_the_two_power(monkeypatch):
    assert check_phi_dominates_two_power(12) == []
    # phi = 2^{1/(q+1)} rounded to the 96 bits the check asks for: the two sides
    # agree up to that rounding, so the check fails at every sampled N exactly
    # for the q whose rounded phi lies below 2^{1/(q+1)}
    monkeypatch.setattr(verify, "certified_phi", lambda poly, bits: (None, None, _two_power(poly.degree, bits)))
    below = []
    for q in range(2, 13):
        man, exp = _two_power(q + 1, 96).man_exp
        if (man * Fraction(2) ** exp) ** (q + 1) < 2:
            below.append(q)
    assert 0 < len(below) < 11  # rounding goes both ways over q = 2..12
    assert check_phi_dominates_two_power(12) == [
        f"q={q}, N={n}: phi term does not dominate" for q in below for n in (5, 20, 80, 200, 400)
    ]


def test_f_q_requires_n_at_least_two():
    with pytest.raises(InvalidArgument):
        f_q(2, 1)
    with pytest.raises(InvalidArgument):
        f_q(1, 10)


def test_boundary_rows_print_f_q():
    assert check_boundary_equals_fq(50, seed=7) == []
    assert check_boundary_equals_fq(50, seed=12345) == []


def test_boundary_rows_check_catches_a_scaled_f_q(monkeypatch):
    f = bounds.f_q
    monkeypatch.setattr(bounds, "f_q", lambda q, n: 3 * f(q, n))
    fails = check_boundary_equals_fq(50, seed=7)
    assert len(fails) == 50 and fails[0].endswith(decimal_str(3 * f(*_first_draw(7))))


def test_boundary_rows_check_catches_a_bumped_last_digit(monkeypatch):
    decide = bounds._Running.decide

    def bumped(self, *args):
        got = decide(self, *args)
        return got and (got[0], got[1][:-1] + str((int(got[1][-1]) + 1) % 10))

    monkeypatch.setattr(bounds._Running, "decide", bumped)
    assert len(check_boundary_equals_fq(50, seed=7)) == 50


def _first_draw(seed):
    rng = random.Random(seed)
    return rng.randint(2, 10), rng.randint(2, 80)


def test_homology_rows_share_the_params_of_every_p():
    degrees = range(2, 700, 3)
    at_3 = bounds.homology_rows(7, 3, degrees)
    misses = bounds._homology_params.cache_info().misses, charpoly._cached_profile.cache_info().misses
    at_5 = bounds.homology_rows(7, 5, degrees)
    assert (bounds._homology_params.cache_info().misses, charpoly._cached_profile.cache_info().misses) == misses
    assert [row.text for row in at_5] == [row.text for row in at_3]


@pytest.mark.parametrize("q, p", [(1, 4), (2, 4), (200, 4), (2, 9)])
def test_homology_rows_refuse_q_then_p(q, p):
    with pytest.raises(InvalidArgument) as q_or_p:
        bounds.homology_rows(q, p, [10])
    assert str(q_or_p.value).startswith("q must be" if q == 1 else "generator degrees" if q == 200 else "p must be")
    assert bounds.homology_rows(q, p, []) == []
    with pytest.raises(InvalidArgument, match="degrees start at 2"):
        bounds.homology_rows(q, p, [1, 10])


def test_bbar_lower_against_independent_root_finder():
    for q, n in ((2, 10), (2, 30), (2, 60), (3, 12)):
        phi, psi, _, kappa = _independent_homology_constants(q)
        with mp.workdps(60):
            c2 = (q + 2) * (1 + 1 / mpmath.sqrt(phi))
            want = (1 - (mpf(n) / (n - 1)) / phi) * phi**n / n - kappa * psi**n - c2 * phi ** (mpf(n) / 2)
            assert abs(bbar_lower(q, n) - want) <= mpf("1e-12") * abs(want)


def test_bbar_lower_sign_change_regression():
    for q, n0 in BBAR_FIRST_POSITIVE.items():
        assert bbar_lower(q, n0) > 0 > bbar_lower(q, n0 - 1)


def test_sigma_upper():
    assert sigma_upper(2, 3, 0) == 0
    phi, _, _, _ = _independent_homology_constants(2)
    with mp.workdps(60):
        want = 2 * 4 * phi ** (mpf(2) / 3) * 10 * phi ** (mpf(10) / 3)
        assert abs(sigma_upper(2, 3, 10) - want) <= mpf("1e-12") * want
    values = [sigma_upper(2, 3, n) for n in range(1, 40)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_rank_window_examples():
    gen = GeneratorSet.of((2, 1), (3, 1))
    lo, hi = rank_window(gen, 30)
    assert lo <= babenko_rank(gen, 30) <= hi
    lo, hi = rank_window(GeneratorSet.of((1, 1)), 2)
    assert lo <= 1 <= hi
    lo, hi = rank_window(GeneratorSet.of((2, 1)), 2)  # phi = 1, psi absent
    assert lo <= 1 <= hi
    assert hi == 3  # center 1 plus error g*phi^{N/2} = 2


def test_rank_window_rejects_off_grid():
    with pytest.raises(InvalidArgument):
        rank_window(GeneratorSet.of((2, 1), (4, 1)), 15)


def test_rank_window_deep_degree():
    'precision auto-scaling keeps the window meaningful out to N = 200'
    gen = GeneratorSet.of((2, 1), (3, 1))
    rank = babenko_rank(gen, 200)
    lo, hi = rank_window(gen, 200)
    assert lo <= rank <= hi
    with mp.workprec(64):
        # width is driven by the phi^{N/2} term, ~ N / phi^{N/2} relative
        assert (hi - lo) / rank < mpf("1e-8")


def test_condition_star_example():
    # threshold 2.625 -> least j is 3
    assert min_j(3, 1, 2, 10) == 3
    assert condition_star(3, 1, 2, 10, 3)
    assert not condition_star(3, 1, 2, 10, 2)


def test_condition_star_degenerate_slope():
    # dim == conn: ratio 1, slope 0, so min_j is constant in N
    js = {min_j(3, 2, 2, n) for n in range(0, 200, 7)}
    assert len(js) == 1


def test_condition_star_minimality():
    assert check_condition_star_minimality(200, seed=13) == []


def test_bezout_cover_worked_example():
    cert = bezout_cover(3, 4, Fraction(1, 2), 0, [1], 500)
    entry = cert.entries[0]
    assert entry.min_value == 7
    assert cert.bound_b == 92
    assert entry.first_checked == 99
    witnesses = cert.witness_map(1)
    assert set(witnesses) == set(range(99, 501))
    assert all(1 <= i < 21 for i in witnesses.values())


def test_bezout_cover_trivial_alpha_beta_one():
    cert = bezout_cover(1, 1, Fraction(1), 0, [3], 60)
    entry = cert.entries[0]
    assert entry.first_checked is not None
    assert set(cert.witness_map(3)) == set(range(entry.first_checked, 61))


def test_bezout_cover_parity():
    cert = bezout_cover(2, 4, Fraction(1, 2), 1, [2], 400)
    assert cert.g_prime == 2
    assert all(v % 2 == 0 for v in cert.witness_map(2))


def test_bezout_cover_rejects_zero_slope():
    with pytest.raises(InvalidArgument):
        bezout_cover(3, 4, 0, 0, [1], 100)


def test_bezout_cover_rejects_oversized_cap_and_zero_denominator():
    with pytest.raises(InvalidArgument):
        bezout_cover(2, 3, Fraction(1, 2), 0, [1], MAX_VALUE_CAP + 1)
    with pytest.raises(InvalidArgument):
        bezout_cover(3, 4, "1/0", 0, [1], 100)


def test_bezout_cover_randomized():
    assert check_bezout_coverage(100, seed=11) == []


GRASSMANNIAN_GEN = GeneratorSet.of((2, 1), (4, 1))


def _grassmannian_params():
    return ktheory_params(3, GRASSMANNIAN_GEN, 1, 4)  # n=3, k=1: dim 4


def _stated_theta(kt):
    """theta as the stated constant list gives it, 8(p-1)^2 - ratio 2(p-1)(b + 1 + B) / g.
    The package uses theta_safe instead, 8(p-1)^2 - ratio (2(p-1)(b + 1) + B) / g, from
    the offset 2(p-1)(b + 1) + B that the floor arithmetic of n(M) gives up: B is not
    multiplied by 2(p-1) there, so theta_safe >= theta."""
    return 8 * (kt.p - 1) ** 2 - kt.ratio * 2 * (kt.p - 1) * (kt.b + 1 + kt.big_b) / kt.g


def test_ktheory_constants_exact():
    kt = _grassmannian_params()
    assert kt.g == 2 and kt.g_prime == 2
    assert kt.a == Fraction(3, 4)
    assert kt.b == Fraction(17, 8)
    assert kt.big_b == 96
    assert _stated_theta(kt) == Fraction(-473, 10)
    assert kt.theta_safe == Fraction(103, 10)
    assert _stated_theta(kt) <= 8 * (3 - 1) ** 2
    assert kt.a >= 0


def test_ktheory_constants_match_stated_formulas():
    random.seed(3)
    for _ in range(20):
        p = random.choice([3, 5, 7])
        conn = random.randint(0, 4)
        dim = conn + random.randint(1, 6)
        gen = random.choice([GRASSMANNIAN_GEN, GeneratorSet.of((3, 1), (5, 1))])
        kt = ktheory_params(p, gen, conn, dim)
        g = gen.g
        ratio = Fraction(dim + 1, conn + 1)
        assert kt.a == Fraction(g, 2 * (p - 1)) * (ratio - 1)
        assert kt.b == Fraction(1, 2 * (p - 1)) * (ratio * (conn + 2) + 1)
        assert kt.big_b == 4 * (p - 1) ** 2 * (g + kt.a * (1 + 2 * (p - 1))) + 2 * (p - 1)
        assert kt.theta_safe == 8 * (p - 1) ** 2 - (1 / ratio) * (2 * (p - 1) * (kt.b + 1) + kt.big_b) / g
        assert _stated_theta(kt) <= kt.theta_safe <= 8 * (p - 1) ** 2


def test_ktheory_below_threshold_tag():
    kt = _grassmannian_params()
    report = ktheory_lower(kt, 2)
    assert report.bound == 0
    assert report.vacuous
    assert report.note == "below-threshold"


def test_ktheory_rejects_off_grid_degree():
    kt = _grassmannian_params()
    with pytest.raises(InvalidArgument):
        ktheory_lower(kt, 381)  # odd, g' = 2
    with pytest.raises(InvalidArgument):
        weak_lower(kt, 381, Fraction(1, 2))


def test_ktheory_n_of_monotone_step():
    kt = _grassmannian_params()
    step = kt.g * math.ceil(Fraction(kt.dim + 1, kt.conn + 1))
    for m in range(300, 600, 2):
        n1, n2 = kt.n_of(m), kt.n_of(m + step)
        if n1 is not None:
            assert n2 >= n1 + 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    p=st.sampled_from([3, 5, 7, 11, 13]),
    gen=st.sampled_from(generator_family(3, 6)),
    conn=st.integers(0, 12),
    extra=st.integers(1, 20),
    data=st.data(),
)
def test_ktheory_n_of_matches_fraction_formula(p, gen, conn, extra, data):
    kt = KTheoryParams.create(p, gen, conn, conn + extra)
    ratio = Fraction(conn + 1, conn + 1 + extra)
    assert kt.ratio == ratio
    threshold = 2 * (p - 1) * (kt.b + 1) + kt.big_b
    # values of M around the threshold, below it included, and far beyond it
    m = data.draw(st.one_of(st.integers(-50, 50).map(lambda d: math.floor(threshold) + d), st.integers(1, 10**9)))
    n = math.floor((m - threshold) * ratio / kt.g)
    assert kt.n_of(m) == (n if n >= 0 else None)


def test_ktheory_bound_dominates_display_main_term():
    'the fully explicit bound sits above the theta/tau display form minus its error terms'
    kt = _grassmannian_params()
    profile = profile_for_exponent(kt.gen, 1200)
    for m in range(380, 1200, 2):
        report = ktheory_lower(kt, m)
        n = kt.n_of(m)
        big_e = n + 8 * (kt.p - 1) ** 2
        with mp.workprec(report.precision_bits):
            error_terms = kt.g * profile.phi ** (mpf(big_e * kt.g) / 2)
            error_terms += kt.gen.q_max * (3 + 2 * profile.psi_abs ** (big_e * kt.g))
            main = ktheory_main_term(kt, m)
            assert report.bound >= main - error_terms - mpf("1e-12") * (1 + abs(main))


def test_ktheory_positivity_threshold():
    assert check_ktheory_positivity("grassmannian", {"n": 3, "k": 1, "p": 3}, 600, 50) == []
    kt = _grassmannian_params()
    assert ktheory_lower(kt, 380).bound > 0 > -1  # frozen M1
    assert ktheory_lower(kt, 378).bound <= 0


def test_weak_lower_closed_form_grassmannian():
    kt = _grassmannian_params()
    with mp.workprec(256):
        golden4 = (3 + mpmath.sqrt(5)) / 2
        for m in (1, 7, 100, 500):
            got = weak_lower(kt, 2 * m, Fraction(1, 2))
            want = golden4 ** (mpf(m) / 5) / mpf(2 * m) ** mpf("1.5")
            assert abs(got - want) <= mpf("1e-9") * want


def test_weak_lower_rejects_bad_epsilon():
    kt = _grassmannian_params()
    with pytest.raises(InvalidArgument):
        weak_lower(kt, 380, 0)


def test_ktheory_params_validation():
    with pytest.raises(InvalidArgument):
        KTheoryParams.create(2, GRASSMANNIAN_GEN, 1, 4)  # p even
    with pytest.raises(InvalidArgument):
        KTheoryParams.create(3, GRASSMANNIAN_GEN, 3, 3)  # dim < conn + 1
