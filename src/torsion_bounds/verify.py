"""Invariant suites: every cross-check the package certifies itself with.

Each check_* function returns a list of failure strings (empty = pass),
shared by the CLI `verify` command and the test suite.  Scales default to
the certified ones, which tests may shrink.  The only tolerances are
REL_SLACK and CLOSED_FORM_TOL; a fact of phi alone is exact on [phi_lo, phi_hi].

A check spends its time on the function under test, which it calls at
every sample point, and not on the side it compares against: polynomial
signs at rational points are exact integer evaluations, and a reference
curve c b^N is a running product of b at P + 32 bits (_running_powers),
P the working precision of the comparison.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from . import bounds as bnd
from .charpoly import GeneratorSet, certified_phi, char_poly, newton_sums, profile_for_exponent
from .combinat import bezout_min_y, binom_div_p, divisors, mobius
from .dgl_fp import MOORE_DIFFERENTIAL, FreeDgl, WeightedAlphabet, subspace_dims
from .errors import TorsionBoundsError
from .lie_rank import babenko_ranks, pbw_ranks
from .render import decimal_str
from .spaces import report, space_by_name

REL_SLACK = 1e-6  # Newton growth and rank window: slack relative to 1 + |value|
CLOSED_FORM_TOL = 1e-9  # a weak K-theory bound's relative distance from its closed form


def _running_powers(base: mpf, n_max: int):
    """base^1, ..., base^n_max as a running product, each product taken as
    the caller iterates, at the working precision in force then.

    Each of the n products rounds once, so base^n is within a relative
    n 2^-prec of the exact power: at P + 32 bits and n < 2^12 that is under
    2^-(P+20), closer than the P-bit base ** n a comparison made to P bits
    would otherwise take.
    """
    return itertools.accumulate(itertools.repeat(base, n_max), operator.mul)


def generator_family(max_sum_m: int = 3, max_q: int = 5) -> list[GeneratorSet]:
    """All generator sets with sum of multiplicities and top degree bounded."""
    gens = []
    degrees = range(1, max_q + 1)
    for ell in range(1, max_sum_m + 1):
        for qs in itertools.combinations(degrees, ell):
            for ms in itertools.product(range(1, max_sum_m + 1), repeat=ell):
                if sum(ms) <= max_sum_m:
                    gens.append(GeneratorSet.of(*zip(qs, ms)))
    return gens


# -- combinat -------------------------------------------------------------------


def check_mobius_identity(n_max: int = 10_000) -> list[str]:
    fails = []
    for n in range(1, n_max + 1):
        total = sum(mobius(d) for d in divisors(n))
        if total != (1 if n == 1 else 0):
            fails.append(f"sum of mobius over divisors of {n} is {total}")
    return fails


def check_divisor_closure(n_max: int = 500) -> list[str]:
    fails = []
    for n in range(1, n_max + 1):
        ds = divisors(n)
        if sorted(n // d for d in ds) != ds:
            fails.append(f"divisors({n}) not closed under d -> n/d")
    return fails


def check_bezout_invariants(limit: int = 200) -> list[str]:
    fails = []
    for alpha in range(1, limit + 1):
        for beta in range(1, limit + 1):
            s = bezout_min_y(alpha, beta)
            g = math.gcd(alpha, beta)
            if s.x * alpha - s.y * beta != g or s.g_prime != g:
                fails.append(f"bezout identity fails at ({alpha}, {beta})")
            elif not (0 < s.x <= g / alpha + beta and 0 <= s.y <= alpha):
                fails.append(f"bezout range fails at ({alpha}, {beta})")
    return fails


def check_binom_div_p(ps=(3, 5), k_max: int = 3) -> list[str]:
    fails = []
    for p in ps:
        for k in range(1, k_max + 1):
            for j in range(1, p**k):
                if p * binom_div_p(p, k, j) != math.comb(p**k, j):
                    fails.append(f"binom_div_p({p}, {k}, {j}) inconsistent")
    return fails


# -- charpoly -------------------------------------------------------------------


def check_root_sign_structure(max_sum_m: int = 4, max_q: int = 8) -> list[str]:
    """Certified enclosure signs, positivity beyond phi, single sign change.

    Every sign and the final comparison are exact integer arithmetic
    (MonicIntPoly.sign_at at the rational sample points).
    """
    fails = []
    for gen in generator_family(max_sum_m, max_q):
        poly = char_poly(gen)
        lo, hi, _ = certified_phi(poly, 96)
        if not (poly.sign_at(lo) < 0 < poly.sign_at(hi)):
            fails.append(f"{gen.spec_string()}: enclosure signs wrong")
            continue
        for step in range(1, 6):
            x = hi + Fraction(step, 3)
            if poly.sign_at(x) <= 0:
                fails.append(f"{gen.spec_string()}: P({x}) <= 0 beyond phi")
        # sample grid on (0, phi): the polynomial must stay negative
        for step in range(1, 8):
            x = lo * Fraction(step, 8)
            if x > 0 and poly.sign_at(x) >= 0:
                fails.append(f"{gen.spec_string()}: P({x}) >= 0 below phi")
        # phi >= (sum m_i)^(1/q_l), i.e. sum m_i <= phi^{q_l} < hi^{q_l}, times den(hi)^{q_l}
        k = gen.q_max
        if gen.sum_m * hi.denominator**k > hi.numerator**k:
            fails.append(f"{gen.spec_string()}: phi below (sum m)^(1/q_l)")
    return fails


def check_profile_family(max_sum_m: int = 4, max_q: int = 8) -> list[str]:
    """Full root profiles across the family: each cloud must be certified by
    disjoint Weierstrass discs that separate the g max-modulus roots, so any
    exception here is a finding.  Then |psi| < phi, and since each disc holds
    one root, the centres sum to S_1 = -a_{k-1} within the sum of the radii."""
    fails = []
    for gen in generator_family(max_sum_m, max_q):
        try:
            profile = profile_for_exponent(gen, 1)
        except TorsionBoundsError as exc:
            fails.append(f"{gen.spec_string()}: {exc}")
            continue
        if profile.psi_abs is not None and not profile.psi_abs < profile.phi:
            fails.append(f"{gen.spec_string()}: |psi| not below phi")
        cloud, s1 = profile.cloud, newton_sums(char_poly(gen), 1)[0]
        miss = (sum(cloud.xs) - (s1 << cloud.shift)) ** 2 + sum(cloud.ys) ** 2
        if miss > sum(cloud.radii) ** 2:
            fails.append(f"{gen.spec_string()}: the roots sum off S_1 by more than their radii")
    return fails


def _window_ends(q: int) -> tuple[bool, bool]:
    """bounds.phi_window on the 96-bit enclosure of the dominant root of z^{q+1} - z - 1."""
    lo, hi, _ = certified_phi(char_poly(GeneratorSet.of((q, 1), (q + 1, 1))), 96)
    return bnd.phi_window(q, lo, hi)


def check_phi_window(q_max: int = 100) -> list[str]:
    """2^{1/(q+1)} < phi < 1 + 1/q for the two-generator family, decided exactly."""
    return [f"q={q}: phi outside the window" for q in range(2, q_max + 1) if not all(_window_ends(q))]


def check_newton_growth(n_max: int = 60, family=None) -> list[str]:
    """|S_N| <= (k-g)|psi|^N off the g-grid; |g phi^N - S_N| <= (k-g)|psi|^N on it.

    phi^N and |psi|^N are running products at the profile's precision + 32 bits.
    """
    fails = []
    for gen in family if family is not None else generator_family():
        poly = char_poly(gen)
        sums = newton_sums(poly, n_max)
        profile = profile_for_exponent(gen, n_max)
        g, k = gen.g, poly.degree
        with mp.workprec(profile.precision_bits + 32):
            phi_powers = _running_powers(profile.phi, n_max)
            psi_powers = _running_powers(mpf(0) if profile.psi_abs is None else profile.psi_abs, n_max)
            for n, phi_n, psi_n in zip(range(1, n_max + 1), phi_powers, psi_powers):
                rhs = (k - g) * psi_n
                lhs = abs(mpf(sums[n - 1]) - (g * phi_n if n % g == 0 else 0))
                if lhs > rhs + REL_SLACK * (1 + abs(sums[n - 1])):
                    fails.append(f"{gen.spec_string()}: Newton growth fails at N={n}")
    return fails


def check_newton_root_agreement(n_max: int = 40, family=None) -> list[str]:
    """Exact power sums vs direct summation over the root cloud: each root is
    within its disc radius r of z, so |z^n - root^n| <= n (|z| + r)^(n-1) r,
    and the 320-bit sum adds at most 2^-300 sum |z|^n."""
    fails = []
    for gen in family if family is not None else generator_family(2, 4):
        poly = char_poly(gen)
        sums = newton_sums(poly, n_max)
        cloud = profile_for_exponent(gen, n_max).cloud
        roots = cloud.roots
        with mp.workprec(320):
            radii = [mpmath.ldexp(r, -cloud.shift) for r in cloud.radii]
            for n in (1, 2, 5, 10, 20, n_max):
                direct = mpmath.fsum(z**n for z in roots)
                budget = mpmath.fsum(
                    n * (abs(z) + r) ** (n - 1) * r + abs(z) ** n / mpf(2) ** 300 for z, r in zip(roots, radii)
                )
                if abs(direct.real - sums[n - 1]) > budget:
                    fails.append(f"{gen.spec_string()}: root sum disagrees at N={n}")
    return fails


# -- lie_rank -------------------------------------------------------------------


def check_oracle_equivalence(max_sum_m: int = 3, max_q: int = 5, n_max: int = 40) -> list[str]:
    """babenko_ranks == pbw_ranks entrywise: the central correctness gate."""
    fails = []
    for gen in generator_family(max_sum_m, max_q):
        a = babenko_ranks(gen, n_max)
        b = pbw_ranks(gen, n_max)
        if a != b:
            first = next(i for i in range(n_max) if a[i] != b[i])
            fails.append(
                f"{gen.spec_string()}: formula {a[first]} vs series {b[first]} at N={first + 1}"
            )
    return fails


def check_g_divisibility(n_max: int = 40) -> list[str]:
    fails = []
    for gen in generator_family():
        ranks = babenko_ranks(gen, n_max)
        for n in range(1, n_max + 1):
            if n % gen.g and ranks[n - 1] != 0:
                fails.append(f"{gen.spec_string()}: rank {ranks[n - 1]} != 0 at N={n}")
    return fails


def check_rank_window(n_max: int = 60, family=None) -> list[str]:
    fails = []
    for gen in family if family is not None else generator_family():
        ranks = babenko_ranks(gen, n_max)
        for n in range(gen.g, n_max + 1, gen.g):
            lo, hi = bnd.rank_window(gen, n)
            slack = REL_SLACK * (1 + abs(hi))
            if not (lo - slack <= ranks[n - 1] <= hi + slack):
                fails.append(f"{gen.spec_string()}: rank outside window at N={n}")
    return fails


# -- dgl_fp ---------------------------------------------------------------------


def check_basis_certification(qs=(2, 3), ps=(3, 5), up_to: int = 14) -> list[str]:
    """Super-Lyndon counts match the rank formula and are independent over F_p.

    Construction raises DimensionMismatch itself on failure; the extra
    leading-column call forces the independence certification in every degree.
    """
    fails = []
    for q in qs:
        for p in ps:
            try:
                alg = FreeDgl(WeightedAlphabet.moore(q), p, up_to, MOORE_DIFFERENTIAL)
                for n in range(1, up_to + 1):
                    alg._leading_columns(n)
            except TorsionBoundsError as exc:
                fails.append(f"q={q}, p={p}: {exc}")
    try:
        alg = FreeDgl(WeightedAlphabet((("x", 1), ("y", 1))), 3, 10)
        for n in range(1, 11):
            alg._leading_columns(n)
    except TorsionBoundsError as exc:
        fails.append(f"two odd letters: {exc}")
    return fails


def check_differential_squares_to_zero(qs=(2, 3), ps=(3, 5), up_to: int = 14) -> list[str]:
    """d^2 = 0 on every basis element; a d whose image leaves the Lie algebra, as no
    graded derivation's does, is a failure too."""
    fails = []
    for q in qs:
        for p in ps:
            alg = FreeDgl(WeightedAlphabet.moore(q), p, up_to, MOORE_DIFFERENTIAL)
            try:
                for n in range(2, up_to + 1):
                    for be in alg.basis_by_degree[n]:
                        dd = alg.differential(alg.differential(alg.from_basis(be)))
                        if not dd.is_zero():
                            fails.append(f"q={q}, p={p}: d^2 != 0 on {be.display(alg.alphabet)}")
            except TorsionBoundsError as exc:
                fails.append(f"q={q}, p={p}: {exc}")
    return fails


def _jacobi_defect(alg: FreeDgl, a, b, c):
    """(-1)^{|a||c|}[a,[b,c]] + (-1)^{|b||a|}[b,[c,a]] + (-1)^{|c||b|}[c,[a,b]]."""
    sign = lambda u, v: -1 if (u.degree % 2) and (v.degree % 2) else 1
    total = sign(a, c) * alg.bracket(a, alg.bracket(b, c))
    total = total + sign(b, a) * alg.bracket(b, alg.bracket(c, a))
    return total + sign(c, b) * alg.bracket(c, alg.bracket(a, b))


def check_graded_jacobi(samples: int = 200, seed: int = 20241) -> list[str]:
    """Graded Jacobi on randomized basis triples across several algebras."""
    fails = []
    rng = random.Random(seed)
    algebras = [
        FreeDgl(WeightedAlphabet.moore(2), 3, 14, MOORE_DIFFERENTIAL),
        FreeDgl(WeightedAlphabet.moore(3), 5, 14, MOORE_DIFFERENTIAL),
        FreeDgl(WeightedAlphabet((("x", 1), ("y", 1))), 3, 9),
    ]
    pools = []
    for alg in algebras:
        pool = [be for n in range(1, alg.up_to + 1) for be in alg.basis_by_degree[n]]
        pools.append((alg, pool))
    done = 0
    attempts = 0
    while done < samples and attempts < samples * 200:
        attempts += 1
        alg, pool = pools[rng.randrange(len(pools))]
        a, b, c = (rng.choice(pool) for _ in range(3))
        if a.degree + b.degree + c.degree > alg.up_to:
            continue
        defect = _jacobi_defect(alg, alg.from_basis(a), alg.from_basis(b), alg.from_basis(c))
        if not defect.is_zero():
            fails.append(
                f"jacobi fails on ({a.display(alg.alphabet)}, {b.display(alg.alphabet)}, "
                f"{c.display(alg.alphabet)}) mod {alg.p}"
            )
        done += 1
    if done < samples:
        fails.append(f"only {done} of {samples} jacobi triples sampled")
    return fails


def check_cycle_elements(q: int = 3, p: int = 3) -> list[str]:
    """d(tau_1(x)) = 0 and d(sigma_1(x)) = 0 for the acyclic pair (x, y)."""
    fails = []
    cap = p * (q + 1)  # tau lives in degree p(q+1) - 1
    alg = FreeDgl(WeightedAlphabet.moore(q), p, cap, MOORE_DIFFERENTIAL)
    x = alg.letter("x")
    t = alg.tau(x, 1)
    if t.degree != p * (q + 1) - 1:
        fails.append(f"tau degree {t.degree} != {p * (q + 1) - 1}")
    if not alg.differential(t).is_zero():
        fails.append("d(tau_1(x)) != 0")
    s = alg.sigma(x, 1)
    if s.degree != p * (q + 1) - 2:
        fails.append(f"sigma degree {s.degree} != {p * (q + 1) - 2}")
    if not alg.differential(s).is_zero():
        fails.append("d(sigma_1(x)) != 0")
    return fails


def check_rank_nullity(q: int = 2, p: int = 3, up_to: int = 12) -> list[str]:
    """dim H_n = dim Z_n - dim B_n >= 0 in every degree; subspace_dims takes
    dim Z_n = dim L_n - dim B_{n-1} from rank-nullity itself."""
    dims = subspace_dims(WeightedAlphabet.moore(q), MOORE_DIFFERENTIAL, p, up_to)
    return [f"negative homology dimension in degree {n}" for n, h in enumerate(dims["homology"], 1) if h < 0]


def check_boundary_bound(qs=(2, 3), p: int = 3, up_to: int = 14) -> list[str]:
    """Brute-force dim B_N >= f_q(q, N); vacuous when negative."""
    fails = []
    for q in qs:
        dims = subspace_dims(WeightedAlphabet.moore(q), MOORE_DIFFERENTIAL, p, up_to)
        for n in range(2, up_to + 1):
            lower = bnd.f_q(q, n)
            if mpf(dims["boundaries"][n - 1]) < lower:
                fails.append(f"q={q}: B_{n} = {dims['boundaries'][n - 1]} below bound")
    return fails


# -- bounds ----------------------------------------------------------------------


def check_fq_chain(qs=(2, 3, 4), eps: float = 0.1, n_hi: int = 400) -> list[str]:
    """Scan the threshold N0 and check the asymptotic chain up to n_hi.

    f_q(N) >= (1-eps)(1-1/phi) phi^N / N > (1-eps)(1-2^{-1/(q+1)}) 2^{N/(q+1)} / N
    for all N0 <= N <= n_hi, with N0 <= n_hi existing.  f_q is called once
    per N against phi^N, a running product at P + 32 bits, P the precision
    of homology_params at n_hi.  The second link holds at every N exactly
    when phi > 2^{1/(q+1)} (check_phi_dominates_two_power), decided once per q.
    """
    fails = []
    for q in qs:
        profile = bnd.homology_params(q, n_hi)
        with mp.workprec(profile.precision_bits + 32):
            factor = (1 - eps) * (1 - 1 / profile.phi)
            n0 = None  # starts the run of N with f_q(N) >= the middle curve that reaches n_hi
            powers = zip(range(1, n_hi + 1), _running_powers(profile.phi, n_hi))
            for n, phi_n in itertools.islice(powers, 1, None):  # from N = 2
                if not bnd.f_q(q, n) >= factor * phi_n / n:
                    n0 = None
                elif n0 is None:
                    n0 = n
        if n0 is None:
            fails.append(f"q={q}: no threshold N0 <= {n_hi}")
        elif not _window_ends(q)[0]:
            fails.append(f"q={q}: chain fails at N={n0}")
    return fails


def check_phi_dominates_two_power(q_max: int = 50) -> list[str]:
    """(1 - 1/phi) phi^N > (1 - 2^{-1/(q+1)}) 2^{N/(q+1)} at every N >= 1.

    The common factors (1 - eps)/N of the chain cancel.  The sides are h(phi)
    and h(2^{1/(q+1)}) for h(x) = (1 - 1/x) x^N = (x - 1) x^{N-1}, and h'(x) =
    x^{N-2} (N (x - 1) + 1) > 0 for x > 1, so the inequality holds at every N
    exactly when phi > 2^{1/(q+1)}: one exact test per q, phi_lo^{q+1} > 2.
    """
    return [f"q={q}: phi term does not dominate" for q in range(2, q_max + 1) if not _window_ends(q)[0]]


def check_boundary_equals_fq(samples: int = 50, seed: int = 7) -> list[str]:
    """The homology row of a random (q, N, p), from the integer pass, prints
    decimal_str(f_q(q, N)) and is vacuous exactly when f_q(q, N) <= 0."""
    rng = random.Random(seed)
    fails = []
    for _ in range(samples):
        q = rng.randint(2, 10)
        n = rng.randint(2, 80)
        p = rng.choice([3, 5, 7])
        (row,), value = bnd.homology_rows(q, p, [n]), bnd.f_q(q, n)
        if row.text != decimal_str(value) or row.vacuous != (value <= 0):
            fails.append(f"q={q}, N={n}, p={p}: row prints {row.text}, f_q {decimal_str(value)}")
    return fails


def check_bezout_coverage(samples: int = 100, seed: int = 11) -> list[str]:
    """Randomized covering certificates plus the worked example."""
    fails = []
    try:
        cert = bnd.bezout_cover(3, 4, Fraction(1, 2), 0, [1], 500)
        entry = cert.entries[0]
        if entry.min_value != 7 or cert.bound_b != 92 or entry.first_checked != 99:
            fails.append("worked example constants off")
        for v, i in cert.witness_map(1).items():
            if not 1 <= i < 21:
                fails.append(f"witness {i} for {v} outside [1, 21)")
                break
    except TorsionBoundsError as exc:
        fails.append(f"worked example: {exc}")
    rng = random.Random(seed)
    for trial in range(samples):
        alpha = rng.randint(1, 12)
        beta = rng.randint(1, 12)
        a = Fraction(rng.randint(1, 6), rng.randint(1, 2))  # 1/2 .. 6
        if a > 3:
            a = Fraction(3)
        b = Fraction(rng.randint(0, 10))
        n = rng.randint(0, 4)
        j0 = max(0, math.floor(a * n + b) + 1)
        min_value = n * alpha + j0 * beta
        cap = int(10 * (min_value + beta**2 * (alpha + a * (1 + beta)) + beta)) + 1
        try:
            bnd.bezout_cover(alpha, beta, a, b, [n], cap)
        except TorsionBoundsError as exc:
            fails.append(f"trial {trial} (alpha={alpha}, beta={beta}, a={a}, b={b}, n={n}): {exc}")
    return fails


def check_condition_star_minimality(samples: int = 200, seed: int = 13) -> list[str]:
    rng = random.Random(seed)
    fails = []
    for _ in range(samples):
        p = rng.choice([3, 5, 7])
        conn = rng.randint(0, 6)
        dim = conn + rng.randint(0, 8)
        n = rng.randint(0, 60)
        j = bnd.min_j(p, conn, dim, n)
        if not bnd.condition_star(p, conn, dim, n, j):
            fails.append(f"min_j not sufficient at p={p}, conn={conn}, dim={dim}, N={n}")
        if j > 0 and bnd.condition_star(p, conn, dim, n, j - 1):
            fails.append(f"min_j not minimal at p={p}, conn={conn}, dim={dim}, N={n}")
    return fails


def check_ktheory_positivity(space_name: str, params: dict, m_cap: int = 6000, window: int = 200, expect_m1: int | None = None) -> list[str]:
    """Find M1 with ktheory_lower > 0 on [M1, M1 + window*g'] multiples."""
    kt = space_by_name(space_name).ktheory(params)
    gp = kt.g_prime
    m1 = None
    for m in range(gp, m_cap + 1, gp):
        if bnd.ktheory_lower(kt, m) > 0:
            m1 = m
            break
    if m1 is None:
        return [f"{space_name}: no positive guaranteed bound up to {m_cap}"]
    if expect_m1 is not None and m1 != expect_m1:
        return [f"{space_name}: scanned M1={m1} moved from stored {expect_m1}"]
    for m in range(m1, m1 + window * gp + 1, gp):
        if not bnd.ktheory_lower(kt, m) > 0:
            return [f"{space_name}: bound dips back to vacuous at M={m}"]
    return []


# smallest M with a positive guaranteed bound, scanned once and frozen
CATALOG_M1 = {
    "grassmannian": ({"n": 3, "k": 1, "p": 3}, 380),
    "milnor-hypersurface": ({"n": 2, "l": 3, "p": 3}, 682),
    "unitary": ({"n": 3, "p": 3}, 1305),
    "special-unitary": ({"n": 3, "p": 3}, 401),
}


def check_catalog_positivity(window: int = 200) -> list[str]:
    fails = []
    for name, (params, m1) in CATALOG_M1.items():
        fails += check_ktheory_positivity(name, params, m_cap=2 * m1, window=window, expect_m1=m1)
    return fails


def check_closed_form_specializations(m_max: int = 500) -> list[str]:
    """The weak K-theory bound reproduces the known closed forms; base-root facts.

    Each case's weak rows at M = 2m, m = 1..m_max, come from one ktheory_rows
    table, and every row's text, as the CLI prints it, is compared with the
    closed form; weak_lower is compared too at m = 1, 10, 100 and m_max.  The
    closed form's golden4^{m/d} is a running product of golden4^{1/d} at 256 + 32 bits.
    """
    fails = []
    with mp.workprec(256 + 32):
        golden4 = (3 + mp.sqrt(5)) / 2
        # Grassmannian: (1/(2m)^{1+eps}) ((3+sqrt 5)/2)^{m/d}, d = 2k(n-k)+1;
        # Milnor hypersurface: d = 2(n+l)-1
        cases = [
            (f"grassmannian n={n}, k={k}", "grassmannian", {"n": n, "k": k, "p": 3}, 2 * k * (n - k) + 1)
            for n, k in ((3, 1), (4, 2), (6, 2))
        ] + [
            (f"milnor n={n}, l={l}", "milnor-hypersurface", {"n": n, "l": l, "p": 3}, 2 * (n + l) - 1)
            for n, l in ((2, 3), (3, 4))
        ]
        for label, name, params, d in cases:
            kt = space_by_name(name).ktheory(params)
            weak_rows = bnd.ktheory_rows(kt, range(2, 2 * m_max + 1, 2), Fraction(1, 2))[1::2]
            powers = _running_powers(golden4 ** (mpf(1) / d), m_max)
            for m, power, row in zip(range(1, m_max + 1), powers, weak_rows):
                want = power / (2 * m * mp.sqrt(2 * m))
                values = [mpf(row.text)]
                if m in (1, 10, 100, m_max):
                    values.append(bnd.weak_lower(kt, 2 * m, Fraction(1, 2)))
                if any(abs(v - want) > CLOSED_FORM_TOL * want for v in values):
                    fails.append(f"{label}: mismatch at m={m}")
                    break
    # unitary groups: base root of z^5 - z^2 - 1, and the quartic's phi^4, from the enclosures
    lo = profile_for_exponent(GeneratorSet.of((3, 1), (5, 1)), 64).phi_lo
    if not lo > Fraction(119, 100):
        fails.append("phi(z^5 - z^2 - 1) not above 1.19")
    if not lo**3 > Fraction(17, 10):
        fails.append("phi^3 not above 1.70")
    quartic = profile_for_exponent(GeneratorSet.of((2, 1), (4, 1)), 64)
    low, high = (2 * x**4 - 3 for x in (quartic.phi_lo, quartic.phi_hi))
    if not (0 <= low and low**2 <= 5 <= high**2):  # 0 <= 2 lo^4 - 3 <= sqrt 5 <= 2 hi^4 - 3
        fails.append("phi^4 of z^4 - z^2 - 1 differs from (3 + sqrt 5)/2")
    return fails


def check_report_vs_boundary_oracle(q: int = 2, p: int = 3, r: int = 1, up_to: int = 14) -> list[str]:
    """Report bounds, as printed and read exactly, never exceed the brute-force
    boundary dims at the observable end of the chain rank(pi) >= rank(B) >= f_q."""
    fails = []
    rows = report(space_by_name("moore"), {"q": q, "p": p, "r": r}, range(2, up_to + 1))
    dims = subspace_dims(WeightedAlphabet.moore(q), MOORE_DIFFERENTIAL, p, up_to)
    for row in rows:
        b_n = dims["boundaries"][row.degree - 1]
        if Fraction(row.text) > b_n:
            fails.append(f"report bound at N={row.degree} exceeds brute-force B_N={b_n}")
    return fails


SUITES = {
    "combinat": (
        ("mobius divisor-sum identity", check_mobius_identity, {}),
        ("divisor closure under n/d", check_divisor_closure, {}),
        ("bezout minimal solutions", check_bezout_invariants, {"limit": 100}),
        ("divided binomials", check_binom_div_p, {}),
    ),
    "charpoly": (
        ("root sign structure", check_root_sign_structure, {}),
        ("root profile family", check_profile_family, {}),
        ("phi window", check_phi_window, {"q_max": 100}),
        ("newton growth", check_newton_growth, {}),
        ("newton vs root cloud", check_newton_root_agreement, {}),
    ),
    "lie-rank": (
        ("formula vs series oracle", check_oracle_equivalence, {}),
        ("g-divisibility", check_g_divisibility, {}),
        ("rank window", check_rank_window, {}),
    ),
    "dgl": (
        ("basis certification", check_basis_certification, {}),
        ("d squared is zero", check_differential_squares_to_zero, {"up_to": 12}),
        ("graded jacobi", check_graded_jacobi, {"samples": 200}),
        ("cycle elements", check_cycle_elements, {}),
        ("rank nullity", check_rank_nullity, {}),
        ("boundary bound", check_boundary_bound, {}),
    ),
    "bounds": (
        ("boundary rows print f_q", check_boundary_equals_fq, {}),
        ("f_q asymptotic chain", check_fq_chain, {}),
        ("phi dominates 2^{1/(q+1)}", check_phi_dominates_two_power, {}),
        ("condition-star minimality", check_condition_star_minimality, {}),
        ("covering certificates", check_bezout_coverage, {"samples": 100}),
    ),
    "spaces": (
        ("closed-form specializations", check_closed_form_specializations, {}),
        ("report vs boundary oracle", check_report_vs_boundary_oracle, {}),
        ("guaranteed bounds turn positive", check_catalog_positivity, {}),
    ),
}


def run_suite(name: str):
    """Yield (suite, check, failures) triples for the named suite (or 'all')."""
    names = list(SUITES) if name == "all" else [name]
    for suite in names:
        if suite not in SUITES:
            raise TorsionBoundsError(f"unknown suite {suite!r}")
        for label, fn, kwargs in SUITES[suite]:
            yield suite, label, fn(**kwargs)
