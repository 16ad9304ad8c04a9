"""Evaluation of every explicit lower bound with certified constants.

All real arithmetic of the public functions runs under an explicit mpmath
working precision P that auto-scales with the largest exponent in play
(charpoly.profile_bits; the TORSION_BOUNDS_PRECISION floor is read in
charpoly.precision_for_exponent only), so identical inputs give
bit-identical outputs.  Rational constants (a, b, B, theta_safe, thresholds)
are kept as exact Fractions in the parameter objects and only converted to
floating point inside a formula; each row sizes its own root profile, and
every profile comes from the one cache of charpoly (profile_at,
profile_for_exponent).  The homology route's c, kappa and c2 involve no p:
each formula computes them from the RootProfile of z^{q+1} - z - 1 that the
route reads phi and |psi| from (_c_kappa); p enters only sigma_upper.

homology_rows and ktheory_rows build the report rows of the two routes;
the CLI's bound and report commands both go through them.  A row prints
its bound to 24 significant digits, and its precision_bits column is P,
the precision whose 24 digits are printed.  Each table's rows are first
evaluated in one integer pass (_Running) on mantissas of F = 112 +
bitlen(W) + bitlen(rows) bits, W bounding the exponents of the deepest row
times the logarithms of their bases: consecutive rows differ by one factor
of phi, sqrt(phi) or |psi| to a power, so each power is a running product,
restarted from the row's own profile whenever the profile changes or the
degrees skip.  A rigorous bound e on the distance of the row's value v to
the P-bit value decides the row (Ziv's rounding test): render.common_text
rounds the integer enclosure [v - e, v + e] to a decimal string once and
returns it when every real of the enclosure prints it, so without 0 or the
printed decimal inside.  The row then keeps v and that string, whose digits
and sign are those of the P-bit value; otherwise it takes the P-bit value
from f_q, _strong_value or weak_lower and formats it once.  Each table row
carries its string to the printer, and is vacuous when that string is 0 or
negative: negative bound values are reported as-is, valid but vacuous.

These values of the K-theory path are computed once and reused:

- the ktheory_lower value, once per (p, g, q_l, n(M), bits), and within a
  table the strong row's value likewise.  M enters the formula only through
  n(M) and the row's precision, and a profile is fixed by its precision.
- within a table, 1 + eps, and the root profile once per precision bucket:
  rows whose exponent budgets round to the same bits share one profile.

Each reuses a value that the same operations at the same precision would
compute again, so every result stays bit-identical.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .charpoly import GeneratorSet, RootProfile, certified_phi, char_poly, profile_at, profile_bits, profile_for_exponent
from .combinat import is_odd_prime
from .errors import CoverageViolation, InternalError, InvalidArgument
from .render import common_text, decimal_str

__all__ = [
    "BezoutCoverage",
    "BoundReport",
    "KTheoryParams",
    "bbar_lower",
    "bezout_cover",
    "condition_star",
    "f_q",
    "homology_rows",
    "ktheory_lower",
    "ktheory_rows",
    "min_j",
    "rank_window",
    "sigma_upper",
    "weak_lower",
]


# Python's own limit on the digits of an integer read from a string.  Fraction
# reads each run of digits through int(str) and builds 10^e exactly for a
# decimal exponent e, which takes seconds for large e.
_MAX_DECIMAL_EXPONENT = 4300


def _as_fraction(x, name: str) -> Fraction:
    text = x.replace("_", "") if isinstance(x, str) else ""
    exponent = re.search(r"[eE][-+]?(\d+)", text)
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if longest > _MAX_DECIMAL_EXPONENT or (exponent and int(exponent[1]) > _MAX_DECIMAL_EXPONENT):
        raise InvalidArgument(f"{name} must have a decimal exponent of at most {_MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        shown = repr(x) if len(repr(x)) <= 40 else repr(x)[:37] + "..."
        raise InvalidArgument(f"{name} must be rational, got {shown}") from None


def _fraction_str(x: Fraction) -> str:
    """str(x), without the 4300-digit ceiling of str(int)."""
    text = decimal_str(x.numerator)
    return text if x.denominator == 1 else f"{text}/{decimal_str(x.denominator)}"


def _mpf_of(x: Fraction) -> mpf:
    """A Fraction converted at the ambient working precision."""
    return mpf(x.numerator) / x.denominator


# -- the homology route: the two-generator (q, q+1) boundary bounds ----------


def _homology_gen(q: int) -> GeneratorSet:
    if q < 2:
        raise InvalidArgument(f"q must be >= 2, got {q}")
    return GeneratorSet.of((q, 1), (q + 1, 1))


def _check_homology(q: int, p: int) -> None:
    """Refuse a bad q, then a bad p, before any profile is built."""
    _homology_gen(q)
    if not is_odd_prime(p):
        raise InvalidArgument(f"p must be an odd prime, got {p}")


def phi_window(q: int, phi_lo: Fraction, phi_hi: Fraction) -> tuple[bool, bool]:
    """(phi_lo^{q+1} > 2, phi_hi < 1 + 1/q): each end of 2^{1/(q+1)} < phi < 1 + 1/q, decided exactly."""
    return phi_lo ** (q + 1) > 2, phi_hi < 1 + Fraction(1, q)


@lru_cache(maxsize=None)
def _window_holds(q: int) -> bool:
    # phi lies more than 2^-17 inside the window for every q <= 149, so 64 bits decide it
    return all(phi_window(q, *certified_phi(char_poly(_homology_gen(q)), 64)[:2]))


@lru_cache(maxsize=None)
def _homology_params(q: int, bits: int) -> RootProfile:
    # z^{q+1} - z - 1 has q + 1 >= 3 simple roots and g = 1, so |psi| is always there
    profile = profile_at(_homology_gen(q), bits)
    if not _window_holds(q):  # a theorem: phi^{q+1} = phi + 1 > 2, (1 + 1/q)^{q+1} > e > 2 + 1/q
        raise InternalError(f"phi window violated for q={q}")
    return profile


def homology_params(q: int, n_max: int) -> RootProfile:
    # The profile of z^{q+1} - z - 1 for degree n_max, at the exponent budget n_max + 63 (cf. _exponent_budget)
    return _homology_params(q, profile_bits(_homology_gen(q), n_max + 63))


def _c_kappa(q: int, profile: RootProfile) -> tuple[mpf, mpf]:
    """c = 2(q+2)(1 + phi) and kappa = (q+1)(1 + 1/|psi|), at the ambient working precision."""
    return 2 * (q + 2) * (1 + profile.phi), (q + 1) * (1 + 1 / profile.psi_abs)


def f_q(q: int, n: int) -> mpf:
    """(1 - (N/(N-1))/phi) phi^N / N - c N phi^{N/2} - kappa |psi|^N."""
    if n < 2:
        raise InvalidArgument(f"f_q requires N >= 2, got {n}")
    profile = homology_params(q, n)
    with mp.workprec(profile.precision_bits):
        phi, (c, kappa) = profile.phi, _c_kappa(q, profile)
        main = (1 - (mpf(n) / (n - 1)) / phi) * phi**n / n
        return main - c * n * phi ** (mpf(n) / 2) - kappa * profile.psi_abs**n


def homology_rows(q: int, p: int, degrees, note=None) -> list[BoundReport]:
    """The homology_boundary row at each degree N, in order: the digits of f_q(N)
    at its working precision, with note(N) as its note when note is given.

    The deepest row's parameters are built first, so a range past the
    precision ceiling fails before any row is computed.
    """
    degrees = list(degrees)
    if not degrees:
        return []
    if min(degrees) < 2:
        raise InvalidArgument(f"homology-route degrees start at 2, got {min(degrees)}")
    deepest = max(degrees)
    _check_homology(q, p)
    top = homology_params(q, deepest)
    running = _Running(_weight((top.phi, deepest), (top.phi, deepest / 2), (top.psi_abs, deepest)), len(degrees), 1)
    rows, bucket = [], None
    for n in degrees:
        if -(-n // 64) != bucket:  # the precision depends on N only through ceil(N / 64)
            bucket, profile = -(-n // 64), homology_params(q, n)
            with mp.workprec(profile.precision_bits):
                constants = _c_kappa(q, profile)
        bits, phi = profile.precision_bits, profile.phi
        (big, half, tail, c, kappa, inverse), steps = running.powers(bits, n, lambda: (
            (phi, 1, 0), (phi, Fraction(1, 2), 0), (profile.psi_abs, 1, 0),
            (constants[0], 0, 1), (constants[1], 0, 1), (phi, 0, -1),
        ))
        # phi^N/N - phi^(N-1)/(N-1) - c N phi^(N/2) - kappa |psi|^N
        middle, less = _mul(c, half), _div(_mul(big, inverse), n - 1)
        terms = (_div(big, n), _neg(less), (-n * middle[0], middle[1]), _neg(_mul(kappa, tail)))
        printed = running.decide(terms, steps, bits) or _printed(f_q(q, n))
        rows.append(_table_row(n, printed, "homology_boundary", bits, note(n) if note else ""))
    return rows


def bbar_lower(q: int, n: int) -> mpf:
    """(1 - (N/(N-1))/phi) phi^N / N - kappa |psi|^N - c2 phi^{N/2}, c2 = (q+2)(1 + phi^{-1/2})."""
    if n < 2:
        raise InvalidArgument(f"bbar_lower requires N >= 2, got {n}")
    profile = homology_params(q, n)
    with mp.workprec(profile.precision_bits):
        phi, kappa = profile.phi, _c_kappa(q, profile)[1]
        main = (1 - (mpf(n) / (n - 1)) / phi) * phi**n / n
        return main - kappa * profile.psi_abs**n - (q + 2) * (1 + 1 / mp.sqrt(phi)) * phi ** (mpf(n) / 2)


def sigma_upper(q: int, p: int, n: int) -> mpf:
    """c1 N phi^{N/p}, c1 = 2(q+2) phi^{2/p}: the crude upper bound for the sigma subspace."""
    if n < 0:
        raise InvalidArgument(f"sigma_upper requires N >= 0, got {n}")
    if n == 0:
        return mpf(0)
    _check_homology(q, p)
    profile = homology_params(q, n)
    with mp.workprec(profile.precision_bits):
        phi = profile.phi
        return 2 * (q + 2) * phi ** (mpf(2) / p) * n * phi ** (mpf(n) / p)


def rank_window(gen: GeneratorSet, n: int) -> tuple[mpf, mpf]:
    """Window (g/N) phi^N +- ((q_l/N)|psi|^N + g phi^{N/2} + q_l |psi|^{N/2}).

    Only defined when g | N; the rank is exactly zero otherwise.  The psi
    terms are dropped when every root lies on the max-modulus circle.
    """
    if n < 1:
        raise InvalidArgument(f"rank_window requires N >= 1, got {n}")
    g = gen.g
    if n % g:
        raise InvalidArgument(f"rank_window needs g | N (g={g}, N={n}); the rank is 0 there")
    profile = profile_for_exponent(gen, n)
    ql = gen.q_max
    with mp.workprec(profile.precision_bits):
        phi = profile.phi
        center = g * phi**n / n
        err = g * phi ** (mpf(n) / 2)
        if profile.psi_abs is not None:
            psi = profile.psi_abs
            err += (mpf(ql) / n) * psi**n + ql * psi ** (mpf(n) / 2)
        return center - err, center + err


# -- Condition (*) and the covering certificate --------------------------------


def _star_line(p: int, conn: int, dim: int) -> tuple[Fraction, Fraction]:
    """(a, b) of condition (*), j > a N + b, for g = 1; b's last +1 is the conservative reading."""
    ratio = Fraction(dim + 1, conn + 1)
    return (ratio - 1) / (2 * (p - 1)), (ratio * (conn + 2) + 1) / (2 * (p - 1))


def condition_star(p: int, conn: int, dim: int, n: int, j: int) -> bool:
    """True iff j clears the linear threshold in N."""
    _validate_star(p, conn, dim, n)
    a, b = _star_line(p, conn, dim)
    return j > a * n + b


def min_j(p: int, conn: int, dim: int, n: int) -> int:
    """Least integer j >= 0 satisfying the condition."""
    _validate_star(p, conn, dim, n)
    return _min_j_over(*_star_line(p, conn, dim), n)


def _validate_star(p: int, conn: int, dim: int, n: int):
    if not is_odd_prime(p):
        raise InvalidArgument(f"p must be an odd prime, got {p}")
    if conn < 0:
        raise InvalidArgument(f"conn must be >= 0, got {conn}")
    if dim < conn:
        raise InvalidArgument(f"dim must be >= conn, got dim={dim}, conn={conn}")
    if n < 0:
        raise InvalidArgument(f"N must be >= 0, got {n}")


@dataclass(frozen=True)
class CoverageEntry:
    """Verified coverage data for one base index n."""

    n: int
    j_start: int
    min_value: int
    first_checked: int | None  # smallest checked multiple of g', None if none in range
    checked: int
    i_window: tuple[int, int]
    witness_array: np.ndarray = field(repr=False, compare=False)

    def witness_for(self, value: int) -> int:
        if not 0 <= value < len(self.witness_array):
            raise InvalidArgument(f"value {value} outside the certified range")
        w = int(self.witness_array[value])
        if w < 0:
            raise InvalidArgument(f"value {value} was not certified (below threshold?)")
        return w


@dataclass(frozen=True)
class BezoutCoverage:
    """Brute-force-verified covering certificate for the sets S_n."""

    alpha: int
    beta: int
    a: Fraction
    b: Fraction
    g_prime: int
    bound_b: Fraction
    value_cap: int
    entries: tuple[CoverageEntry, ...]

    def witness_map(self, n: int) -> dict[int, int]:
        """value -> covering index i, for every certified multiple of g'."""
        for entry in self.entries:
            if entry.n == n:
                if entry.first_checked is None:
                    return {}
                vals = range(entry.first_checked, self.value_cap + 1, self.g_prime)
                return {v: entry.witness_for(v) for v in vals}
        raise InvalidArgument(f"n={n} was not part of this certificate")


# Largest value_cap bezout_cover accepts. Each base index n holds an int64
# witness array of value_cap + 1 entries, so this caps it at 80 MB.
MAX_VALUE_CAP = 10**7


def _min_j_over(a: Fraction, b: Fraction, n: int) -> int:
    # smallest integer j >= 0 with j > a n + b
    return max(0, math.floor(a * n + b) + 1)


def bezout_cover(alpha: int, beta: int, a, b, n_range, value_cap: int) -> BezoutCoverage:
    """Verify that S_i for i in [n, n + beta(beta+1)) covers all multiples of
    g' = gcd(alpha, beta) in [min(S_n) + B, value_cap], B = beta^2(alpha + a(1+beta)) + beta.

    Every covered multiple is re-checked arithmetically (membership in S_i
    with its j recomputed), so a returned certificate is actually verified;
    a gap raises CoverageViolation with the counterexample.
    """
    if alpha < 1 or beta < 1:
        raise InvalidArgument(f"alpha, beta must be >= 1, got {alpha}, {beta}")
    a = _as_fraction(a, "a")
    b = _as_fraction(b, "b")
    if a <= 0:
        raise InvalidArgument("the slope a must be > 0")
    if value_cap < 1:
        raise InvalidArgument(f"value_cap must be >= 1, got {value_cap}")
    if value_cap > MAX_VALUE_CAP:
        raise InvalidArgument(f"value_cap must be <= {MAX_VALUE_CAP}, got {value_cap}")
    g_prime = math.gcd(alpha, beta)
    bound_b = beta**2 * (alpha + a * (1 + beta)) + beta
    entries = []
    for n in n_range:
        if n < 0:
            raise InvalidArgument(f"n must be >= 0, got {n}")
        j0 = _min_j_over(a, b, n)
        min_value = n * alpha + j0 * beta
        threshold = min_value + bound_b
        first = math.ceil(threshold)
        first += (-first) % g_prime
        i_window = (n, n + beta * (beta + 1))
        witness = np.full(value_cap + 1, -1, dtype=np.int64)
        for i in range(i_window[1] - 1, n - 1, -1):  # descending: smallest i wins
            start = i * alpha + _min_j_over(a, b, i) * beta
            if start <= value_cap:
                witness[start :: beta] = i
        if first > value_cap:
            entries.append(CoverageEntry(n, j0, min_value, None, 0, i_window, witness))
            continue
        values = np.arange(first, value_cap + 1, g_prime, dtype=np.int64)
        wit = witness[values]
        if np.any(wit < 0):
            bad = int(values[np.argmax(wit < 0)])
            raise CoverageViolation(
                f"multiple {bad} of g'={g_prime} not covered for n={n} "
                f"(alpha={alpha}, beta={beta}, a={a}, b={b})"
            )
        # independent membership re-check: value = i alpha + j beta, j >= 0 integer, j > a i + b
        j_num = values - wit * alpha
        if np.any(j_num % beta):
            bad = int(values[np.argmax(j_num % beta != 0)])
            raise CoverageViolation(f"witness for {bad} is not a linear combination")
        j = j_num // beta
        den = a.denominator * b.denominator
        lhs = j * den
        rhs = (a.numerator * b.denominator) * wit + b.numerator * a.denominator
        if np.any(j < 0) or np.any(lhs <= rhs):
            bad = int(values[np.argmax((j < 0) | (lhs <= rhs))])
            raise CoverageViolation(f"witness for {bad} fails the excess condition")
        entries.append(CoverageEntry(n, j0, min_value, int(values[0]), len(values), i_window, witness))
    return BezoutCoverage(
        alpha=alpha,
        beta=beta,
        a=a,
        b=b,
        g_prime=g_prime,
        bound_b=bound_b,
        value_cap=value_cap,
        entries=tuple(entries),
    )


# -- K-theory route -------------------------------------------------------------


@dataclass(frozen=True)
class KTheoryParams:
    """Constants for the dimension-shifted K-theory bounds.

    theta_safe, the constant of the display form, is the one implied by the
    floor arithmetic of n(M), which provably sits under the main term.
    """

    p: int
    gen: GeneratorSet
    conn: int
    dim: int
    g: int
    g_prime: int
    a: Fraction
    b: Fraction
    big_b: Fraction
    theta_safe: Fraction
    # derived from the fields above, so left out of equality and the hash
    ratio: Fraction = field(compare=False)  # (conn + 1) / (dim + 1), the exponent compression factor
    offset: Fraction = field(compare=False)  # 2(p-1)(b+1) + B, the degree n(M) gives up

    @classmethod
    def create(cls, p: int, gen: GeneratorSet, conn: int, dim: int) -> "KTheoryParams":
        if not is_odd_prime(p):
            raise InvalidArgument(f"p must be an odd prime, got {p}")
        if conn < 0:
            raise InvalidArgument(f"conn must be >= 0, got {conn}")
        if dim < conn + 1:
            raise InvalidArgument(f"dim must be >= conn + 1, got dim={dim}, conn={conn}")
        g = gen.g
        g_prime = math.gcd(g, 2 * (p - 1))
        compression = Fraction(conn + 1, dim + 1)
        a, b = _star_line(p, conn, dim)
        a *= g
        big_b = 4 * (p - 1) ** 2 * (g + a * (1 + 2 * (p - 1))) + 2 * (p - 1)
        theta_safe = 8 * (p - 1) ** 2 - compression * (2 * (p - 1) * (b + 1) + big_b) / g
        return cls(
            p=p,
            gen=gen,
            conn=conn,
            dim=dim,
            g=g,
            g_prime=g_prime,
            a=a,
            b=b,
            big_b=big_b,
            theta_safe=theta_safe,
            ratio=compression,
            offset=2 * (p - 1) * (b + 1) + big_b,
        )

    def n_of(self, m: int) -> int | None:
        """Largest n >= 0 with M >= g (1/ratio) n + offset, else None:
        floor((M - offset) ratio / g) in one integer division."""
        num, den = self.offset.numerator, self.offset.denominator
        n = (m * den - num) * (self.conn + 1) // (den * self.g * (self.dim + 1))
        return n if n >= 0 else None


@lru_cache(maxsize=None)
def _ktheory_params(p: int, gen: GeneratorSet, conn: int, dim: int) -> KTheoryParams:
    return KTheoryParams.create(p, gen, conn, dim)


def ktheory_params(p: int, gen: GeneratorSet, conn: int, dim: int) -> KTheoryParams:
    return _ktheory_params(p, gen, conn, dim)


@dataclass(frozen=True)
class BoundReport:
    """One guaranteed lower bound at one degree, with provenance; text, the bound
    as printed, is set on table rows (homology_rows, ktheory_rows) only."""

    degree: int
    bound: mpf
    theorem: str
    vacuous: bool
    precision_bits: int
    note: str = ""
    text: str | None = None


def _printed(value: mpf) -> tuple[mpf, str]:
    return value, decimal_str(value)


def _table_row(degree: int, printed: tuple[mpf, str], theorem: str, bits: int, note: str) -> BoundReport:
    """A printed row, vacuous when its text is 0 or negative: decimal_str keeps
    the value's sign, and the integer pass prints only a certified one."""
    value, text = printed
    return BoundReport(degree, value, theorem, text == "0" or text[0] == "-", bits, note=note, text=text)


def _exponent_budget(params: KTheoryParams, m: int) -> int:
    return m + 8 * (params.p - 1) ** 2 * params.g + 64


def ktheory_lower(params: KTheoryParams, m: int) -> BoundReport:
    """Fully explicit guaranteed bound for the p-torsion rank in degree M.

    bound = phi^{ng}/(n + 8(p-1)^2) - g phi^{(n+8(p-1)^2)g/2}
            - q_l (3 + 2 |psi|^{(n+8(p-1)^2)g}),  n = n(M);
    below the threshold where n(M) < 0 the report carries bound 0 and a tag.
    """
    _check_degree(params, m)
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    bits, n = profile.precision_bits, params.n_of(m)
    if n is None:
        return BoundReport(m, mpf(0), "ktheory_guaranteed", True, bits, note="below-threshold")
    value = _strong_value(params.p, params.g, params.gen.q_max, n, bits, profile.phi, profile.psi_abs)
    return BoundReport(m, value, "ktheory_guaranteed", bool(value <= 0), bits, note=f"n(M)={n}")


def _check_degree(params: KTheoryParams, m: int) -> None:
    if m < 1:
        raise InvalidArgument(f"M must be >= 1, got {m}")
    if m % params.g_prime:
        raise InvalidArgument(f"M={m} is not a multiple of g'={params.g_prime}")


@lru_cache(maxsize=None)
def _strong_value(p: int, g: int, q_max: int, n: int, bits: int, phi: mpf, psi_abs: mpf | None) -> mpf:
    # keyed on the ints it reads: hashing a KTheoryParams rehashes its Fractions on every call
    with mp.workprec(bits):
        big_e = n + 8 * (p - 1) ** 2
        value = phi ** (n * g) / big_e - g * phi ** (mpf(big_e * g) / 2)
        if psi_abs is not None:
            value -= q_max * (3 + 2 * psi_abs ** (big_e * g))
        return value


def ktheory_main_term(params: KTheoryParams, m: int) -> mpf:
    """Display form tau / ((1/g) ratio M + theta_safe) * phi^{ratio M},
    tau = phi^{-g - ratio (2(p-1)(b+1) + B)}, at the precision of the row at M."""
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    with mp.workprec(profile.precision_bits):
        denom = _mpf_of(params.ratio) * m / params.g + _mpf_of(params.theta_safe)
        if denom <= 0:
            return mpf(0)
        tau_exponent = -params.g - params.ratio * params.offset
        phi = profile.phi
        return phi ** _mpf_of(tau_exponent) / denom * phi ** _mpf_of(params.ratio * m)


# Largest epsilon weak_lower accepts (the default is 1/2). The weak bound divides by
# M^{1+eps}, so a huge eps drives its binary exponent far enough below zero that
# the rendered decimal would need an integer of that many bits.
MAX_EPSILON = 64


def weak_lower(params: KTheoryParams, m: int, epsilon) -> mpf:
    """(1 / M^{1+eps}) phi^{ratio M}."""
    _check_degree(params, m)
    eps = _epsilon(epsilon)
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    with mp.workprec(profile.precision_bits):
        return profile.phi ** _mpf_of(params.ratio * m) / mpf(m) ** (1 + _mpf_of(eps))


def _epsilon(epsilon) -> Fraction:
    eps = _as_fraction(epsilon, "epsilon")
    if eps <= 0:
        raise InvalidArgument(f"epsilon must be > 0, got {_fraction_str(eps)}")
    if eps > MAX_EPSILON:
        raise InvalidArgument(f"epsilon must be <= {MAX_EPSILON}")  # its digits may run to any length
    return eps


def ktheory_rows(params: KTheoryParams, degrees, eps, note: str = "") -> list[BoundReport]:
    """The ktheory_guaranteed and the ktheory_weak row at each degree M, in order.

    The deepest row's profile is built first, so a range past the
    precision ceiling fails before any row is computed.
    """
    degrees = list(degrees)
    if not degrees:
        return []
    top = profile_for_exponent(params.gen, _exponent_budget(params, max(degrees)))
    _check_degree(params, degrees[0])
    eps = _epsilon(eps)
    g, tail_e = params.g, 8 * (params.p - 1) ** 2
    m_top = max(degrees)
    n_top = params.n_of(m_top) or 0
    weight = _weight(
        (top.phi, n_top * g), (top.phi, (n_top + tail_e) * g / 2), (top.psi_abs, (n_top + tail_e) * g),
        (top.phi, params.ratio * m_top), (m_top, 1 + eps),
    )
    strong, weak = _Running(weight, len(degrees), 1), _Running(weight, len(degrees), params.g_prime)
    strong_values = {}  # M enters the strong bound only through n(M) and the profile
    profile, rows = top, []
    with mp.workprec(weak.bits):
        one_eps = 1 + _mpf_of(eps)
    for m in degrees:
        _check_degree(params, m)
        budget = _exponent_budget(params, m)
        if profile_bits(params.gen, budget) != profile.precision_bits:
            profile = profile_for_exponent(params.gen, budget)
        bits, phi, psi, n = profile.precision_bits, profile.phi, profile.psi_abs, params.n_of(m)
        if n is not None and (n, bits) not in strong_values:
            powers, steps = strong.powers(
                bits, n, lambda: ((phi, g, 0), (phi, Fraction(g, 2), Fraction(tail_e * g, 2)), (psi, g, tail_e * g))
            )
            # phi^(ng)/E - g phi^(Eg/2) - 3 q_l - 2 q_l |psi|^(Eg), E = n + 8(p-1)^2
            terms = [_div(powers[0], n + tail_e), (-g * powers[1][0], powers[1][1])]
            if psi is not None:
                terms += [(-3 * params.gen.q_max, 0), (-2 * params.gen.q_max * powers[2][0], powers[2][1])]
            strong_values[n, bits] = strong.decide(terms, steps, bits) or _printed(
                _strong_value(params.p, params.g, params.gen.q_max, n, bits, phi, psi)
            )
        (power,), steps = weak.powers(bits, m, lambda: ((phi, params.ratio, 0),))
        with mp.workprec(weak.bits):
            denominator = mpf(m) ** one_eps
        weak_printed = weak.decide([weak.divide(power, denominator)], steps, bits) or _printed(weak_lower(params, m, eps))
        rows += [
            # below the threshold (n None) the bound is 0
            _table_row(m, strong_values.get((n, bits), (mpf(0), "0")), "ktheory_guaranteed", bits,
                       "below-threshold" if n is None else f"n(M)={n}"),
            _table_row(m, weak_printed, "ktheory_weak", bits, note),
        ]
    return rows


# -- the rows' digits -----------------------------------------------------------------

# A table's rows run on mantissas of F = _ROW_BITS + bitlen(W) + bitlen(rows) bits, W
# the weight of its deepest row; the error bound is raised by 2^_ROW_SAFETY_BITS.
_ROW_BITS = 112
_ROW_SAFETY_BITS = 8


def _weight(*powers) -> int:
    """An integer W >= the sum of |y| (1 + |ln x|) over the powers x^y of a formula
    (x None stands for a term the formula leaves out); 2^(mag x - 3) <= |x| <= 2^mag x."""
    return sum(math.ceil(abs(y)) * (4 + abs(int(mp.mag(x)))) for x, y in powers if x is not None)


def _mantissa(x: mpf, bits: int) -> tuple[int, int]:
    """x > 0 rounded down to a mantissa of `bits` bits: (m, k) with m 2^k <= x < (m + 1) 2^k."""
    _, man, exp, bc = x._mpf_
    shift = int(bc) - bits
    return (int(man) >> shift, exp + shift) if shift >= 0 else (int(man) << -shift, exp + shift)


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a b rounded down to the bit length of a's mantissa."""
    m = a[0] * b[0]
    shift = m.bit_length() - a[0].bit_length()
    return m >> shift, a[1] + b[1] + shift


def _div(a: tuple[int, int], n: int) -> tuple[int, int]:
    """a / n rounded down, with a mantissa at least as long as a's."""
    shift = n.bit_length()
    return (a[0] << shift) // n, a[1] - shift


def _neg(a: tuple[int, int]) -> tuple[int, int]:
    return -a[0], a[1]


class _Running:
    """One integer pass over a table's rows, from the rows' own profiles.

    powers() gives x^(a N + b) for each base x of the row's profile, stepping
    from the previous row by one floor-rounded multiply by x^(a step) when the
    row's profile is the previous row's and N is the previous N + step, and
    restarting from mpmath powers at F bits otherwise.  Every mantissa has at
    least F bits, so each rounding moves its value by less than 2^(1-F)
    relatively.

    enclose() sums the row's signed terms into v and bounds |v - r| by e, r the
    value that the row's formula returns at its precision P from the same
    profile, and decide() keeps v with its text when render.common_text finds
    one string that every real of [v - e, v + e] prints: one rounding per
    row, from the integers, with no mpf for either end.  Each term
    is a product of constants and powers x^y.  Rounding the exponents to F bits
    moves it by at most the sum of |y| |ln x| 2^(1-F) <= W 2^(1-F) relatively,
    and its other roundings number at most 8 + 2 j: the mpmath restart powers
    and constants, 2 per step over the j steps since the restart, and the
    term's own products and quotients.  So v is within S (W + 8 + 2 j) 2^(3-F)
    of the exact formula, S the sum of the terms' magnitudes, and r within
    S (2W + 32) 2^(8-P) of it, mpmath's powers, logs and exps being good to one
    ulp.  e = S (2W + 32 + 4 j) 2^(9 - min(F, P)), plus one unit of the sum per
    term for its alignment, covers both.
    """

    def __init__(self, weight: int, rows: int, step: int):
        self.bits = _ROW_BITS + weight.bit_length() + rows.bit_length()
        self.weight, self.step, self.at = weight, step, None

    def powers(self, key, n: int, bases) -> tuple[list, int]:
        """[x^(a n + b) for (x, a, b) in bases()], x None giving None, and the steps since the restart."""
        if self.at == (key, n - self.step):
            self.steps += 1
            self.values = [v if s is None else _mul(v, s) for v, s in zip(self.values, self.factors)]
        else:
            self.steps = 0
            with mp.workprec(self.bits):
                bases = [(x, Fraction(a), Fraction(b)) for x, a, b in bases()]
                self.values = [None if x is None else self.round(x ** _mpf_of(a * n + b)) for x, a, b in bases]
                self.factors = [
                    None if x is None or not a else self.round(x ** _mpf_of(a * self.step)) for x, a, _ in bases
                ]
        self.at = (key, n)
        return self.values, self.steps

    def round(self, x: mpf) -> tuple[int, int]:
        return _mantissa(x, self.bits)

    def divide(self, a: tuple[int, int], x: mpf) -> tuple[int, int]:
        """a / x rounded down, x rounded down to F bits."""
        m, k = self.round(x)
        return (a[0] << self.bits) // m, a[1] - k - self.bits

    def enclose(self, terms, steps: int, bits: int) -> tuple[int, int, int]:
        """(V, E, k): v = V 2^k is the sum of the signed terms (m, k'), each worth
        m 2^k', and e = E 2^k bounds |v - r|."""
        base = max(k + m.bit_length() for m, k in terms) - self.bits - 16
        value = size = 0
        for m, k in terms:
            t = m << (k - base) if k >= base else m >> (base - k)
            value += t
            size += abs(t) + 1
        err = (size * (2 * self.weight + 32 + 4 * steps) << _ROW_SAFETY_BITS) >> (min(self.bits, bits) - 1)
        return value, err + len(terms) + 1, base

    def decide(self, terms, steps: int, bits: int) -> tuple[mpf, str] | None:
        """(v, its text) when every real within e of v prints that text; else None."""
        value, err, base = self.enclose(terms, steps, bits)
        text = common_text(value - err, value + err, base)
        return None if text is None else (mp.make_mpf(from_man_exp(value, base)), text)
