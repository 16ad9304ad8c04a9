import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from test_ktheory_rows import _reference_main_term

from torsion_bounds import (
    GeneratorSet,
    InternalError,
    InvalidArgument,
    babenko_ranks,
    bezout_cover,
    condition_star,
    f_q,
    ktheory_lower,
    min_j,
    rank_window,
    sigma_upper,
    weak_lower,
)
from torsion_bounds import CoverageViolation, bounds, charpoly, verify
from torsion_bounds.bounds import MAX_COVER_INDICES, MAX_VALUE_CAP, KTheoryParams, _exponent_budget, ktheory_params, ktheory_rows
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
    rows = bounds.homology_rows
    assert check_fq_chain((2,), 0.1, 200) == []

    def halved(q, p, degrees, note=None):  # every row prints half its f_q
        return [row._replace(text=format(Decimal(row.text) / 2, "f")) for row in rows(q, p, degrees, note)]

    monkeypatch.setattr(bounds, "homology_rows", halved)
    assert check_fq_chain((2,), 0.1, 200) == ["q=2: no threshold N0 <= 200"]


def _two_power_floor(k: int, bits: int) -> Fraction:
    """2^{1/k} rounded down to `bits` bits, by integer bisection: its k-th power is at most 2."""
    lo, hi = 1 << bits, 2 << bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= 2 << (bits * k) else (lo, mid)
    return Fraction(lo, 1 << bits)


def _lower_end_at_the_two_power(ulps: int):
    """A certified_phi whose lower end is 2^{1/(q+1)} rounded down to its bits, plus ulps units."""
    certify = verify.certified_phi

    def shifted(poly, bits):
        _, hi, phi = certify(poly, bits)
        return _two_power_floor(poly.degree, bits) + Fraction(ulps, 1 << bits), hi, phi

    return shifted


def test_f_q_chain_catches_a_phi_below_the_two_power(monkeypatch):
    # phi_lo^{q+1} <= 2 leaves the second link undecided at every N, so the chain
    # breaks at its threshold, 118 for q = 2 (test_acceptance scans the same run)
    monkeypatch.setattr(verify, "certified_phi", _lower_end_at_the_two_power(0))
    assert check_fq_chain((2,), 0.1, 200) == ["q=2: chain fails at N=118"]
    monkeypatch.setattr(verify, "certified_phi", _lower_end_at_the_two_power(1))
    assert check_fq_chain((2,), 0.1, 200) == []


def test_f_q_chain_reports_the_thresholds_of_f_q_itself(monkeypatch):
    # the same fault names each q's threshold N0 <= 400: those of the printed rows are
    # 179 and 244 for q = 3, 4, as a scan of f_q gives
    monkeypatch.setattr(verify, "certified_phi", _lower_end_at_the_two_power(0))
    assert check_fq_chain((3, 4), 0.1, 400) == ["q=3: chain fails at N=179", "q=4: chain fails at N=244"]


def test_phi_dominance_check_catches_phi_at_the_two_power(monkeypatch):
    assert check_phi_dominates_two_power(12) == []
    # the check is exact: a lower end at 2^{1/(q+1)} rounded down fails every q,
    # and one unit of its last bit above passes every q
    monkeypatch.setattr(verify, "certified_phi", _lower_end_at_the_two_power(0))
    assert check_phi_dominates_two_power(12) == [f"q={q}: phi term does not dominate" for q in range(2, 13)]
    monkeypatch.setattr(verify, "certified_phi", _lower_end_at_the_two_power(1))
    assert check_phi_dominates_two_power(12) == []


def test_homology_params_raise_internal_error_when_the_window_is_refused(monkeypatch):
    monkeypatch.setattr(bounds, "phi_window", lambda q, lo, hi: (True, False))
    caches = (bounds._window_holds, bounds._homology_params)
    try:
        for cache in caches:
            cache.cache_clear()
        with pytest.raises(InternalError, match="phi window violated for q=3"):
            bounds.homology_params(3, 100)
    finally:
        for cache in caches:
            cache.cache_clear()


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
        return got and got[:-1] + str((int(got[-1]) + 1) % 10)

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
    assert lo <= babenko_ranks(gen, 30)[29] <= hi
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
    rank = babenko_ranks(gen, 200)[199]
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


def test_condition_star_minimality_catches_a_min_j_one_too_large(monkeypatch):
    least = bounds.min_j
    monkeypatch.setattr(bounds, "min_j", lambda *args: least(*args) + 1)
    fails = check_condition_star_minimality(50)
    assert len(fails) == 50 and all(fail.startswith("min_j not minimal at ") for fail in fails)


def test_bezout_cover_worked_example():
    cert = bezout_cover(3, 4, Fraction(1, 2), 0, [1], 500)
    entry = cert.entries[0]
    assert entry.min_value == 7
    assert cert.bound_b == 92
    assert entry.first_checked == 99
    witnesses = cert.witness_map(1)
    assert list(witnesses) == list(range(99, 501))  # in ascending order, as bezout --witnesses lists them
    assert all(1 <= i < 21 for i in witnesses.values())


def test_bezout_cover_trivial_alpha_beta_one():
    cert = bezout_cover(1, 1, Fraction(1), 0, [3], 60)
    entry = cert.entries[0]
    assert entry.first_checked is not None
    assert set(cert.witness_map(3)) == set(range(entry.first_checked, 61))


def test_bezout_cover_parity():
    cert = bezout_cover(2, 4, Fraction(1, 2), 1, [2], 400)
    assert cert.g_prime == 2
    witnesses = list(cert.witness_map(2))
    assert witnesses == sorted(witnesses) and all(v % 2 == 0 for v in witnesses)


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


def _whole_window_witnesses(alpha, beta, a, b, n, cap) -> list[int]:
    """The witness of each value 0..cap from every i of [n, n + beta(beta+1)), the
    smallest i whose S_i = {i alpha + j beta : j >= 0, j > a i + b} holds the value."""
    witness = [-1] * (cap + 1)
    for i in range(n + beta * (beta + 1) - 1, n - 1, -1):
        start = i * alpha + max(0, math.floor(a * i + b) + 1) * beta
        witness[start : cap + 1 : beta] = [i] * len(range(start, cap + 1, beta))
    return witness


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    alpha=st.integers(1, 12),
    beta=st.integers(1, 12),
    a=st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=20),
    b=st.integers(-20, 20),
    n=st.integers(0, 6),
    cap=st.integers(1, 2500),
)
def test_bezout_cover_witnesses_match_the_whole_window(alpha, beta, a, b, n, cap):
    # bezout_cover walks only the i whose S_i starts at or below cap, once per class mod beta
    (entry,) = bezout_cover(alpha, beta, a, b, [n], cap).entries
    assert [_witness_or_minus_one(entry, v) for v in range(cap + 1)] == _whole_window_witnesses(alpha, beta, a, b, n, cap)


def _witness_or_minus_one(entry, value):
    try:
        return entry.witness_for(value)
    except InvalidArgument:
        return -1


def _array_cover(alpha, beta, a, b, ns, cap):
    """The value-by-value certificate: an int64 witness array of cap + 1 entries per n,
    filled from the first walked i of each class mod beta, and every checked multiple
    of g' re-checked.  Returns (entry fields, witness maps) or the violation text."""
    g_prime = math.gcd(alpha, beta)
    bound_b = beta**2 * (alpha + a * (1 + beta)) + beta
    entries, maps = [], {}
    for n in ns:
        j0 = bounds._min_j_over(a, b, n)
        min_value = n * alpha + j0 * beta
        first = math.ceil(min_value + bound_b)
        first += (-first) % g_prime
        witness = np.full(cap + 1, -1, dtype=np.int64)
        firsts = {}
        for i in range(n, bounds._last_start(alpha, beta, a, b, n, cap) + 1):
            start = i * alpha + bounds._min_j_over(a, b, i) * beta
            firsts.setdefault(start % beta, (start, i))
        for start, i in firsts.values():
            witness[start::beta] = i
        if first > cap:
            entries.append((n, j0, min_value, None, 0))
            maps[n] = {}
            continue
        values = np.arange(first, cap + 1, g_prime, dtype=np.int64)
        wit = witness[values]
        if np.any(wit < 0):
            bad = int(values[np.argmax(wit < 0)])
            return f"multiple {bad} of g'={g_prime} not covered for n={n} (alpha={alpha}, beta={beta}, a={a}, b={b})"
        j_num = values - wit * alpha
        if np.any(j_num % beta):
            return f"witness for {int(values[np.argmax(j_num % beta != 0)])} is not a linear combination"
        j = j_num // beta
        lhs = j * (a.denominator * b.denominator)
        rhs = (a.numerator * b.denominator) * wit + b.numerator * a.denominator
        if np.any(j < 0) or np.any(lhs <= rhs):
            return f"witness for {int(values[np.argmax((j < 0) | (lhs <= rhs))])} fails the excess condition"
        entries.append((n, j0, min_value, first, len(values)))
        maps[n] = dict(zip(values.tolist(), wit.tolist()))
    return entries, maps


def _one_high(a, b, n):
    return max(0, math.floor(a * n + b) + 2)


def _always_zero(a, b, n):
    return 0


def _squared(a, b, n):
    return max(0, math.floor(a * n + b) + 1) ** 2


# A one-low fault is left out: it can make min(S_i) negative, where the array's
# witness[start::beta] counts the start from the array's end, an artefact of the
# array that a correct _min_j_over (always >= 0) never reaches.
@pytest.mark.parametrize("min_j_over", [bounds._min_j_over, _one_high, _always_zero, _squared])
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    alpha=st.integers(1, 12),
    beta=st.integers(1, 12),
    a=st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=20),
    b=st.integers(-20, 20).map(Fraction),
    ns=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    past_threshold=st.integers(-30, 400),
)
def test_bezout_cover_matches_the_value_by_value_array(min_j_over, alpha, beta, a, b, ns, past_threshold):
    # one exact fact per class gives the array's entries, witnesses and violation texts;
    # _always_zero fails the excess condition and _squared leaves gaps in some draws
    with mock.patch.object(bounds, "_min_j_over", min_j_over):
        n = ns[0]
        threshold = n * alpha + min_j_over(a, b, n) * beta + beta**2 * (alpha + a * (1 + beta)) + beta
        cap = max(1, math.ceil(threshold) + past_threshold)
        want = _array_cover(alpha, beta, a, b, ns, cap)
        try:
            cert = bezout_cover(alpha, beta, a, b, ns, cap)
        except CoverageViolation as exc:
            assert str(exc) == want
            return
    assert not isinstance(want, str), want
    entries, maps = want
    assert [(e.n, e.j_start, e.min_value, e.first_checked, e.checked) for e in cert.entries] == entries
    assert all(e.i_window == (e.n, e.n + beta * (beta + 1)) for e in cert.entries)
    assert {n: cert.witness_map(n) for n in ns} == maps


def test_bezout_cover_memory_does_not_grow_with_the_cap():
    # the value-by-value array peaked at about 90 MiB here
    tracemalloc.start()
    try:
        bezout_cover(3, 4, Fraction(1, 2), 0, [1, 2, 3, 4], 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bezout_cover_refuses_a_walk_past_its_ceiling():
    # alpha 1 and a near 0: nearly all of the 3000 * 3001 indices of the window start below the cap
    with pytest.raises(InvalidArgument, match=f"more than {MAX_COVER_INDICES}; lower value_cap"):
        bezout_cover(1, 3000, Fraction(1, 10**6), 0, [1], MAX_VALUE_CAP)
    # the walks of several n count together: 3 * 300 * 301 indices
    bezout_cover(1, 300, Fraction(1, 10**6), 0, [1], MAX_VALUE_CAP)
    with pytest.raises(InvalidArgument, match="the covering walk has 270900 indices i"):
        bezout_cover(1, 300, Fraction(1, 10**6), 0, [1, 2, 3], MAX_VALUE_CAP)


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
    assert ktheory_lower(kt, 2) == 0
    row = ktheory_rows(kt, [2], "1/2")[0]
    assert row.text == "0"
    assert row.vacuous
    assert row.note == "below-threshold"


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
        value = ktheory_lower(kt, m)
        n = kt.n_of(m)
        big_e = n + 8 * (kt.p - 1) ** 2
        with mp.workprec(profile_for_exponent(kt.gen, _exponent_budget(kt, m)).precision_bits):
            error_terms = kt.g * profile.phi ** (mpf(big_e * kt.g) / 2)
            error_terms += kt.gen.q_max * (3 + 2 * profile.psi_abs ** (big_e * kt.g))
            main = _reference_main_term(kt, m)
            assert value >= main - error_terms - mpf("1e-12") * (1 + abs(main))


def test_ktheory_positivity_threshold():
    assert check_ktheory_positivity("grassmannian", {"n": 3, "k": 1, "p": 3}, 600, 50) == []
    kt = _grassmannian_params()
    assert ktheory_lower(kt, 380) > 0 > -1  # frozen M1
    assert ktheory_lower(kt, 378) <= 0


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
