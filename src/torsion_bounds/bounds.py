"""Evaluation of every explicit lower bound with certified constants.

All real arithmetic of the public functions runs under an explicit mpmath
working precision P that auto-scales with the largest exponent in play
(charpoly.profile_bits_of, whose rule a table applies to each of its rows
with the generator set's part computed once), so identical inputs give
bit-identical outputs.  Rational constants (a, b, B, theta_safe,
thresholds) are kept as exact Fractions in the parameter objects and only converted to floating point inside a formula;
every profile comes from the one cache of charpoly (profile_at,
profile_for_exponent).  The homology route's c and kappa involve no p: each
formula computes them from the RootProfile of z^{q+1} - z - 1 that the route
reads phi and |psi| from (_c_kappa); p enters only sigma_upper.

homology_rows and ktheory_rows build the report rows of the two routes, for
the CLI's bound and report commands, and rank_windows verify's rank windows.
A row prints its bound to 24 significant digits, and its precision_bits column
is P, the precision whose digits those are.  One integer pass over the table
(_Running), from the table's deepest root profile, encloses each row's P-bit
value and decides the row when every real of the enclosure prints one decimal
string (Ziv's rounding test, render.common_text); otherwise the row builds its
own profile and formats the P-bit value of f_q, ktheory_lower or weak_lower
once.  A row is that string (BoundReport.text), and is vacuous when it is 0 or
negative: negative bound values are reported as-is, valid but vacuous.
Every power of the pass is one integer routine, _power: phi^(N/2),
phi^(ratio M) and the weak row's M^(1+eps) among them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp, mpf

from .charpoly import (
    GeneratorSet, RootProfile, certified_phi, char_poly, profile_at, profile_bits_of, profile_for_exponent,
)
from .combinat import is_odd_prime
from .errors import CoverageViolation, InternalError, InvalidArgument
from .render import common_text, decimal_str

__all__ = [
    "BezoutCoverage",
    "BoundReport",
    "KTheoryParams",
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
        raise InvalidArgument(f"{name} must be rational, got {x!r}") from None


def _fraction_str(x: Fraction) -> str:
    """str(x), without the 4300-digit ceiling of str(int)."""
    text = decimal_str(x.numerator)
    return text if x.denominator == 1 else f"{text}/{decimal_str(x.denominator)}"


def _mpf_of(x: Fraction) -> mpf:
    """A Fraction converted at the ambient working precision."""
    return mpf(x.numerator) / x.denominator


def _span(degrees) -> tuple:
    """(degrees as a sequence, its least, its greatest), 0 for both ends when it is empty.

    A range stays a range and its ends are read off, so one past the precision
    ceiling is refused before anything of its length is built.
    """
    if not isinstance(degrees, range):
        degrees = list(degrees)
    ends = (degrees[0], degrees[-1]) if isinstance(degrees, range) and degrees else degrees
    return degrees, min(ends, default=0), max(ends, default=0)


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
    return _homology_params(q, profile_bits_of(_homology_gen(q))(n_max + 63))


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

    The first degree, then q and p are checked (q and p of an empty range too),
    and the deepest row's parameters built, so a range past the precision
    ceiling fails before any row is computed.
    """
    degrees, least, deepest = _span(degrees)
    if degrees and least < 2:
        raise InvalidArgument(f"homology-route degrees start at 2, got {least}")
    _check_homology(q, p)
    if not degrees:
        return []
    gen, top = _homology_gen(q), homology_params(q, deepest)
    phi, psi = top.phi, top.psi_abs
    with mp.workprec(top.precision_bits):
        constants = _c_kappa(q, top)
    running = _Running(_weight((phi, deepest), (phi, deepest / 2), (psi, deepest)), len(degrees), 1, (
        (phi, 1, 0), (phi, Fraction(1, 2), 0), (psi, 1, 0), (constants[0], 0, 1), (constants[1], 0, 1), (phi, 0, -1)))
    bits_of, rows = profile_bits_of(gen), []
    for n in degrees:
        bits = bits_of(n + 63)
        (big, half, tail, c, kappa, inverse), steps = running.powers(n)
        # phi^N/N - phi^(N-1)/(N-1) - c N phi^(N/2) - kappa |psi|^N
        middle, less, last = _mul(c, half), _div(_mul(big, inverse), (n - 1, 0)), _mul(kappa, tail)
        terms = (_div(big, (n, 0)), (-less[0], less[1]), (-n * middle[0], middle[1]), (-last[0], last[1]))
        text = running.decide(terms, steps, bits) or decimal_str(f_q(q, n))
        rows.append(BoundReport(n, text, "homology_boundary", bits, note(n) if note else ""))
    return rows


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


def rank_windows(gen: GeneratorSet, degrees) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """The window (g/N) phi^N -+ ((q_l/N)|psi|^N + g phi^{N/2} + q_l |psi|^{N/2}) at each degree N,
    in order, from one _Running pass: each end an enclosure (V, E, k) of the end at the true phi and
    |psi|, within E 2^k of V 2^k.  Only defined when g | N, the rank being 0 otherwise; the psi terms
    are dropped when every root lies on the max-modulus circle."""
    degrees, _, deepest = _span(degrees)
    if not degrees:
        return []
    top, g, q_l, bits_of, ends = profile_for_exponent(gen, deepest), gen.g, gen.q_max, profile_bits_of(gen), []
    phi, psi = top.phi, top.psi_abs
    running = _Running(_weight((phi, deepest), (phi, deepest / 2), (psi, deepest), (psi, deepest / 2)), len(degrees), g,
                       ((phi, 1, 0), (phi, Fraction(1, 2), 0), (psi, 1, 0), (psi, Fraction(1, 2), 0)))
    for n in degrees:
        if n < 1 or n % g:
            raise InvalidArgument(f"rank windows need N >= 1 and g | N (g={g}, N={n}); the rank is 0 off the g-grid")
        (big, half, tail, tail_half), steps = running.powers(n)
        center, errs = _div((g * big[0], big[1]), (n, 0)), [(g * half[0], half[1])]
        if psi is not None:  # (q_l/N)|psi|^N and q_l |psi|^(N/2)
            errs += [_div((q_l * tail[0], tail[1]), (n, 0)), (q_l * tail_half[0], tail_half[1])]
        ends.append(tuple(running.enclose((center, *((s * m, k) for m, k in errs)), steps, bits_of(n)) for s in (-1, 1)))
    return ends


def rank_window(gen: GeneratorSet, n: int) -> tuple[mpf, mpf]:
    """The ends of rank_windows(gen, [n]), each its enclosure's midpoint V 2^k at N's working precision."""
    with mp.workprec(profile_bits_of(gen)(n)):
        return tuple(mpf((v, k)) for v, _, k in rank_windows(gen, [n])[0])


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
    # v mod beta -> (min(S_i), i) for the class's first walked i: S_i holds every v >= min(S_i) of the class
    classes: dict[int, tuple[int, int]] = field(repr=False, compare=False)
    beta: int = field(repr=False, compare=False)
    value_cap: int = field(repr=False, compare=False)

    def witness_for(self, value: int) -> int:
        if not 0 <= value <= self.value_cap:
            raise InvalidArgument(f"value {value} outside the certified range")
        start, i = self.classes.get(value % self.beta, (value + 1, -1))
        if start > value:
            raise InvalidArgument(f"value {value} was not certified (below threshold?)")
        return i


@dataclass(frozen=True)
class BezoutCoverage:
    """Exactly verified covering certificate for the sets S_n."""

    alpha: int
    beta: int
    a: Fraction
    b: Fraction
    g_prime: int
    bound_b: Fraction
    value_cap: int
    entries: tuple[CoverageEntry, ...]

    def witness_map(self, n: int) -> dict[int, int]:
        """value -> covering index i, for every certified multiple of g', in ascending order."""
        for entry in self.entries:
            if entry.n == n:
                if entry.first_checked is None:
                    return {}
                vals = range(entry.first_checked, self.value_cap + 1, self.g_prime)
                return {v: entry.witness_for(v) for v in vals}
        raise InvalidArgument(f"n={n} was not part of this certificate")


# Largest value_cap bezout_cover accepts.  The certificate holds one pair per
# class mod beta whatever the cap, so this bounds only what a witness listing
# could ask for, and the indices the walk may reach.
MAX_VALUE_CAP = 10**7
# Most indices i, over all n, that bezout_cover walks: those of the window whose S_i
# starts at or below value_cap. Each costs about 5 us (2-core Xeon), so alpha 1,
# beta 440, a 1/10^6, n 1, cap 10^7 (194040 indices) takes 1.7 s through the CLI,
# and alpha 3, beta 1000, a 1/2 (19879 indices) 0.5 s.
MAX_COVER_INDICES = 200_000


def _min_j_over(a: Fraction, b: Fraction, n: int) -> int:
    # smallest integer j >= 0 with j > a n + b
    return max(0, math.floor(a * n + b) + 1)


def _last_start(alpha: int, beta: int, a: Fraction, b: Fraction, n: int, value_cap: int) -> int:
    """The largest i in [n, n + beta(beta+1)) whose S_i starts at or below value_cap,
    n - 1 if none: min(S_i) = i alpha + j0(i) beta grows strictly with i, as alpha >= 1
    and a > 0, so a bisection finds it; min(S_i) >= i, so it searches no i past value_cap."""
    lo, hi = n - 1, max(n - 1, min(n + beta * (beta + 1) - 1, value_cap))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid * alpha + _min_j_over(a, b, mid) * beta <= value_cap else (lo, mid - 1)
    return lo


def bezout_cover(alpha: int, beta: int, a, b, n_range, value_cap: int) -> BezoutCoverage:
    """Verify that S_i for i in [n, n + beta(beta+1)) covers all multiples of
    g' = gcd(alpha, beta) in [min(S_n) + B, value_cap], B = beta^2(alpha + a(1+beta)) + beta.

    The witness of a value v is the first walked i of v's class mod beta, as
    min(S_i) grows with i; S_i holds every v >= min(S_i) of that class (the
    union's Apery-set element mod beta).  So the certificate is one exact fact per
    class that holds checked multiples: its least one v0 is at least min(S_i),
    and j = (v0 - i alpha)/beta is an integer with j >= 0 and j > a i + b.
    Each condition holds for every later member once it holds at v0.  A
    failure raises CoverageViolation naming the least failing value.  Only
    the i whose S_i starts at or below value_cap are walked, at most
    MAX_COVER_INDICES of them, and no work grows with value_cap.
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
    ns = list(n_range)
    for n in ns:
        if n < 0:
            raise InvalidArgument(f"n must be >= 0, got {n}")
    lasts = [_last_start(alpha, beta, a, b, n, value_cap) for n in ns]
    walk = sum(last - n + 1 for n, last in zip(ns, lasts))
    if walk > MAX_COVER_INDICES:
        raise InvalidArgument(f"the covering walk has {walk} indices i, more than {MAX_COVER_INDICES}; lower value_cap")
    g_prime = math.gcd(alpha, beta)
    bound_b = beta**2 * (alpha + a * (1 + beta)) + beta
    entries = []
    for n, last in zip(ns, lasts):
        j0 = _min_j_over(a, b, n)
        min_value = n * alpha + j0 * beta
        first = math.ceil(min_value + bound_b)
        first += (-first) % g_prime
        classes = {}
        for i in range(n, last + 1):
            start = i * alpha + _min_j_over(a, b, i) * beta
            classes.setdefault(start % beta, (start, i))
        # the least checked value of each class, in increasing order, with the class's (min(S_i), i)
        # and v = i alpha + j beta + rest
        least = []
        for v in range(first, min(first + beta, value_cap + 1), g_prime):
            start, i = classes.get(v % beta, (v + 1, -1))
            least.append((v, start, i, *divmod(v - i * alpha, beta)))
        bad = next((v for v, start, i, j, rest in least if start > v), None)
        if bad is not None:
            raise CoverageViolation(
                f"multiple {bad} of g'={g_prime} not covered for n={n} "
                f"(alpha={alpha}, beta={beta}, a={_fraction_str(a)}, b={_fraction_str(b)})"
            )
        # independent membership re-check: j >= 0 integer, j > a i + b
        bad = next((v for v, start, i, j, rest in least if rest), None)
        if bad is not None:
            raise CoverageViolation(f"witness for {bad} is not a linear combination")
        bad = next((v for v, start, i, j, rest in least if j < 0 or j <= a * i + b), None)
        if bad is not None:
            raise CoverageViolation(f"witness for {bad} fails the excess condition")
        checked = max(0, (value_cap - first) // g_prime + 1)
        i_window = (n, n + beta * (beta + 1))
        entries.append(CoverageEntry(n, j0, min_value, first if checked else None, checked, i_window, classes, beta, value_cap))
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

    theta_safe, the constant of the paper's display form, is the one implied
    by the floor arithmetic of n(M), which provably sits under the main term.
    Only the tests read the display form.
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


_ktheory_params = lru_cache(maxsize=None)(KTheoryParams.create)


def ktheory_params(p: int, gen: GeneratorSet, conn: int, dim: int) -> KTheoryParams:
    return _ktheory_params(p, gen, conn, dim)


class BoundReport(NamedTuple):
    """One table row (homology_rows, ktheory_rows): a guaranteed lower bound at one
    degree as printed, text being its 24 significant digits, with provenance.  A
    tuple, so a table's thousands of rows cost one allocation each."""

    degree: int
    text: str
    theorem: str
    precision_bits: int
    note: str = ""

    @property
    def vacuous(self) -> bool:
        """True when the text is 0 or negative: decimal_str keeps the value's sign,
        and the integer pass prints only a certified one."""
        return self.text == "0" or self.text[0] == "-"


def _exponent_budget(params: KTheoryParams, m: int) -> int:
    return m + 8 * (params.p - 1) ** 2 * params.g + 64


def ktheory_lower(params: KTheoryParams, m: int) -> mpf:
    """Fully explicit guaranteed bound for the p-torsion rank in degree M:

    phi^{ng}/(n + 8(p-1)^2) - g phi^{(n+8(p-1)^2)g/2} - q_l (3 + 2 |psi|^{(n+8(p-1)^2)g}),
    n = n(M), and 0 below the threshold where n(M) < 0.
    """
    _check_degree(params, m)
    n = params.n_of(m)
    if n is None:
        return mpf(0)
    profile = profile_for_exponent(params.gen, _exponent_budget(params, m))
    g, big_e = params.g, n + 8 * (params.p - 1) ** 2
    with mp.workprec(profile.precision_bits):
        value = profile.phi ** (n * g) / big_e - g * profile.phi ** (mpf(big_e * g) / 2)
        if profile.psi_abs is not None:
            value -= params.gen.q_max * (3 + 2 * profile.psi_abs ** (big_e * g))
        return value


def _check_degree(params: KTheoryParams, m: int) -> None:
    if m < 1:
        raise InvalidArgument(f"M must be >= 1, got {m}")
    if m % params.g_prime:
        raise InvalidArgument(f"M={m} is not a multiple of g'={params.g_prime}")


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
    """The ktheory_guaranteed and the ktheory_weak row at each degree M, in order;
    eps None gives the ktheory_guaranteed rows alone, with no weak work.

    The first degree, then eps are checked (eps of an empty range too; None is
    not checked), and the deepest row's profile built, so a range past the
    precision ceiling fails before any row is computed.
    """
    degrees, _, m_top = _span(degrees)
    if degrees:
        _check_degree(params, degrees[0])
    eps = None if eps is None else _epsilon(eps)
    if not degrees:
        return []
    top = profile_for_exponent(params.gen, _exponent_budget(params, m_top))
    g, tail_e, phi, psi = params.g, 8 * (params.p - 1) ** 2, top.phi, top.psi_abs
    n_top = params.n_of(m_top) or 0
    weight = _weight((phi, n_top * g), (phi, (n_top + tail_e) * g / 2), (psi, (n_top + tail_e) * g),
                     *(() if eps is None else ((phi, params.ratio * m_top), (m_top, 1 + eps))))
    strong = _Running(weight, len(degrees), 1,
                      ((phi, g, 0), (phi, Fraction(g, 2), Fraction(tail_e * g, 2)), (psi, g, tail_e * g)))
    if eps is not None:
        weak = _Running(weight, len(degrees), params.g_prime, ((phi, params.ratio, 0),))
        one_plus = _exponent(1 + eps, weak.bits)  # once per table: eps may have thousands of digits
    bits_of, q_max = profile_bits_of(params.gen), params.gen.q_max
    strong_texts, rows = {}, []  # M enters the strong bound only through n(M) and the precision
    for m in degrees:
        _check_degree(params, m)
        bits, n = bits_of(_exponent_budget(params, m)), params.n_of(m)
        if n is not None and (n, bits) not in strong_texts:
            (big, half, tail), steps = strong.powers(n)
            # phi^(ng)/E - g phi^(Eg/2) - 3 q_l - 2 q_l |psi|^(Eg), E = n + 8(p-1)^2
            terms = (_div(big, (n + tail_e, 0)), (-g * half[0], half[1]))
            if psi is not None:
                terms += ((-3 * q_max, 0), (-2 * q_max * tail[0], tail[1]))
            strong_texts[n, bits] = strong.decide(terms, steps, bits) or decimal_str(ktheory_lower(params, m))
        # below the threshold (n None) the bound is 0
        rows.append(BoundReport(m, strong_texts.get((n, bits), "0"), "ktheory_guaranteed", bits,
                                "below-threshold" if n is None else f"n(M)={n}"))
        if eps is not None:
            (power,), steps = weak.powers(m)
            weak_term = _div(power, _power((m, 0), one_plus, weak.bits))  # phi^(ratio M) / M^(1+eps)
            weak_text = weak.decide((weak_term,), steps, bits) or decimal_str(weak_lower(params, m, eps))
            rows.append(BoundReport(m, weak_text, "ktheory_weak", bits, note))
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


_SEED_BITS = 48  # _power's float seed is good to 2^-48; Newton gains bits from it only for a shorter root index


def _exponent(y: Fraction, bits: int) -> Fraction:
    """y, or past the seed's reach y to bits + 1 significant bits on a dyadic grid: |y' - y| <= |y| 2^-(bits+1)."""
    if y.denominator.bit_length() < _SEED_BITS:
        return y
    s = max(bits + 1 - y.numerator.bit_length() + y.denominator.bit_length(), 0)
    return Fraction(round(y * (1 << s)), 1 << s)


def _ipow(x: tuple[int, int], e: int, n: int) -> tuple[int, int]:
    """x^e, e >= 1, by binary powering, each square (times x) rounded down to n bits when longer."""
    (m, k), (p, q) = x, x
    for bit in bin(e)[3:]:
        p, q = (p * p * m, 2 * q + k) if bit == "1" else (p * p, 2 * q)
        if (s := p.bit_length() - n) > 0:
            p, q = p >> s, q + s
    return p, q


def _power(x: tuple[int, int], y: Fraction, bits: int) -> tuple[int, int]:
    """x^y for x = (m, k) worth m 2^k > 0 and y through _exponent, with a mantissa of more than `bits`
    bits: |ln(x^y / result)| <= (|y| + 2) u, u = 2^(1-bits) (Brent & Zimmermann, MCA, 1.5 and 4.2).
    m cut to n = bits + 1 bits and raised to y = a/b's |a| by _ipow takes < |y| u; b = 2^L then L floored
    square roots, < u, any other b Newton steps z + z (x^|a| / z^b - 1) / b from the float seed, each
    leaving (b - 1) t^2 / 2 + 0.9 u of z = root (1 + t), until that is < u/32; y < 0 a floored 1/x, < u/4."""
    (m, k), y = x, _exponent(y, bits)
    num, den, n = y.numerator, y.denominator, bits + 1
    if (s := m.bit_length() - n) > 0:
        m, k = m >> s, k + s
    m, k = _ipow((m, k), abs(num), n) if num else (1, 0)
    if den & (den - 1) == 0:
        for _ in range(den.bit_length() - 1):
            s = 2 * n - 1 - (b := m.bit_length()) + ((k + b + 1) & 1)  # k - s even, the root n bits
            m, k = math.isqrt(m << s), (k - s) >> 1
    else:
        q, r = divmod(k + m.bit_length() - 1, den)  # x^|a| = f 2^(q b + r), f in [1, 2)
        f = m >> max(m.bit_length() - 53, 0)
        t = (math.log2(f / (1 << f.bit_length() - 1)) + r) / den  # the root is 2^(q + t), t in [0, 1)
        z, good = int(math.ldexp(2**t, n)), _SEED_BITS
        while good < bits + 4:
            p, e = _ipow((z, q - n), den, n + 1)
            z += (z * ((m << n + 2 + k - e) // p - (1 << n + 2)) >> n + 2) // den
            good = 2 * good - den.bit_length() + 1
        m, k = z, q - n
    if num < 0:
        m, k = (1 << n + m.bit_length()) // m, -k - n - m.bit_length()
    return (m << n - m.bit_length(), k - n + m.bit_length()) if m.bit_length() < n else (m, k)


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a b rounded down to the bit length of a's mantissa."""
    m = a[0] * b[0]
    shift = m.bit_length() - a[0].bit_length()
    return m >> shift, a[1] + b[1] + shift


def _div(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a / b rounded down, with a mantissa at least as long as a's."""
    shift = b[0].bit_length()
    return (a[0] << shift) // b[0], a[1] - b[1] - shift


class _Running:
    """One integer pass over a table's rows, from the table's deepest profile.

    The pass runs on mantissas of F = _ROW_BITS + bitlen(W) + bitlen(rows)
    bits, W bounding the deepest row's exponents times the logs of their bases.
    powers() gives x^(a N + b) for each base (x, a, b) of the table, x None
    giving None: consecutive rows differ by one factor of phi, sqrt(phi) or
    |psi| to a power, so it steps from the previous row by one floor-rounded
    multiply by x^(a step) when N is the previous N + step, and restarts from
    x^(a N + b) otherwise.  Every power is one _power at F bits, with a
    mantissa of more than F bits, so each rounding moves its value by less than
    u = 2^(1-F) relatively.

    enclose() sums the row's signed terms into v and bounds |v - r| by e, r the
    value that the row's formula returns at the row's precision P from the
    row's own profile, and decide() returns the text when render.common_text
    finds one string that every real of [v - e, v + e] prints.  A term holds
    one stepping power x^y, at most one constant (c, kappa or 1/phi, one
    _power: 3 u), small integers and, in the weak row, M^(1+eps).  In units of u,
    x^y = x^(y0) (x^(a step))^j, j steps after a restart at y0 (a, b >= 0), is
    within |y| + 2 + 3 j: _power's |y0| + 2 and j (|a step| + 2), and j
    multiplies; _exponent adds |y| |ln x| / 4.  M^(1+eps) takes |1 + eps| + 2,
    its quotient 1, the term's own products and quotients at most 3.  As
    |ln x| <= 3 + |mag x|, a term's |y| units sum to at most W.  So v is within
    S (W + 8 + 3 j) 2^(1-F) of the exact formula at the table's inputs, S the sum of the terms'
    magnitudes, and r within S (2W + 32) 2^(8-P) of the exact formula at the
    row's inputs, mpmath's powers, logs and exps being good to one ulp.  Each
    input of the two profiles differs by a relative delta <= 2^-min(P, 149).
    phi is the midpoint of a bisection cell rounded to 32 bits beyond the
    profile's precision, and the cells are nested, the row's at most 2^-P wide
    (charpoly._certified_enclosure), so with phi >= 1 the two lie within
    2^-(P+1) + 2^-(P+31).  |psi| is a centre's modulus in a cloud whose discs
    have radii <= 2^-(b-8) |z| at b >= 160 Aberth bits, so within 2^-151 |psi|
    of the true value.  c = 2(q+2)(1 + phi) and kappa = (q+1)(1 + 1/|psi|) move
    by at most delta relatively, and a term holds at most one of them or 1/phi
    besides powers whose exponents sum to at most W.  So a term's log moves by
    at most delta (W + 2) (1 + 2^-127) <= 2^-80, as W < 2^40 and P >= 128
    (profile_bits_of), and the formula by at most 2 delta (W + 2) S.
    e = S (2W + 32 + 4 j) 2^(9 - min(F, P)) + S (W + 2) 2^(3 - min(P, 149)),
    plus one unit of the sum per term for its alignment, covers all three.
    rank_windows has no r: the true phi lies in every cell and the true |psi|
    within 2^-151 |psi|, so e's input part covers the table's inputs against
    the true ones too, and [v - e, v + e] holds the window's end at the truth.
    """

    def __init__(self, weight: int, rows: int, step: int, bases):
        self.bits = _ROW_BITS + weight.bit_length() + rows.bit_length()
        self.step, self.at = step, None
        self.scales = 2 * weight + 32, weight + 2  # the factors of e's two parts that the table fixes
        self.bases = [(None if x is None else (int(x.man), int(x.exp)), a, b) for x, a, b in bases]  # x > 0, exactly
        self.factors = [None if x is None or not a else _power(x, a * step, self.bits) for x, a, _ in self.bases]

    def powers(self, n: int) -> tuple[list, int]:
        """[x^(a n + b) for (x, a, b) in the bases], and the steps since the restart."""
        if n == self.at:
            return self.values, self.steps
        if self.at == n - self.step:
            self.steps += 1
            self.values = [v if s is None else _mul(v, s) for v, s in zip(self.values, self.factors)]
        else:
            self.steps = 0
            self.values = [None if x is None else _power(x, a * n + b, self.bits) for x, a, b in self.bases]
        self.at = n
        return self.values, self.steps

    def enclose(self, terms, steps: int, bits: int) -> tuple[int, int, int]:
        """(V, E, k): v = V 2^k is the sum of the signed terms (m, k'), each worth
        m 2^k', and e = E 2^k bounds |v - r|."""
        top = None
        for m, k in terms:
            if top is None or k + m.bit_length() > top:
                top = k + m.bit_length()
        base, value, size = top - self.bits - 16, 0, len(terms)
        for m, k in terms:
            t = m << (k - base) if k >= base else m >> (base - k)
            value += t
            size += abs(t)
        scale, input_scale = self.scales
        err = (size * (scale + 4 * steps) << _ROW_SAFETY_BITS) >> ((self.bits if self.bits < bits else bits) - 1)
        inputs = -(-size * input_scale >> ((bits if bits < 149 else 149) - 3))  # the table's inputs against the row's
        return value, err + inputs + len(terms) + 1, base

    def decide(self, terms, steps: int, bits: int) -> str | None:
        """The text that every real within e of v prints, or None."""
        value, err, base = self.enclose(terms, steps, bits)
        return common_text(value - err, value + err, base)
