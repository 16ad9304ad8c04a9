"""Characteristic polynomials of generator sets, exact Newton power sums,
and certified root profiles (phi, |psi|, g).

phi is enclosed by sign-change bisection in exact dyadic arithmetic, so
P(phi_lo) < 0 < P(phi_hi) really holds.  A polynomial's bisection takes
single steps once, to a start cell narrower than 2^-32; each precision then
takes its cell from integer Newton's estimate, confirmed by two exact signs,
or bisects the start cell when the estimate misses.  Only one cell has the
sign change, so every enclosure equals the one a bisection from scratch
returns.  Both steps are memoized pure functions.

|psi| comes from the complex root cloud, once per polynomial and working
precision.  Aberth-Ehrlich sweeps run on Python complex from a circle start
to a relative step of 2^-40, then on Gaussian integers scaled by 2^F (F the
precision plus 16 guard bits plus the range of the root moduli) from there,
or from the circle when that run fails.  After each fixed-point sweep the
cloud rounded to the precision meets the Weierstrass disc certificate, in
integers: every connected union of m discs D(z_i, k |P(z_i)| / prod_{j != i}
|z_i - z_j|) holds exactly m roots.  The first cloud whose discs are
disjoint, each of radius <= 2^-(bits-8) |z_i|, is accepted: after one sweep
for 489 of the 494 polynomials of the verify family, after two for 5.  The
orbit is then exact: P(z) = R(z^g), so phi times the g-th roots of unity
are g roots of modulus phi, the largest there is, and once every other disc
lies in |z| < phi_lo, the g discs with the largest centres hold them.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath
from mpmath import mp, mpf

from .errors import InvalidArgument, NumericFailure, RootStructureViolation

__all__ = [
    "GeneratorSet",
    "MAX_DEGREE_TIMES_COEFF_BITS",
    "MAX_POLY_DEGREE",
    "MonicIntPoly",
    "RootProfile",
    "certified_phi",
    "char_poly",
    "newton_sums",
    "profile_at",
    "profile_bits_of",
    "profile_for_exponent",
    "root_profile",
]

_ABERTH_BITS = 160
_ABERTH_MAX_ITER = 500
# a cloud from the double run certifies within 2 fixed sweeps; one still uncertified
# before this sweep is first checked for a repeated root
_REPEATED_ROOT_SWEEPS = 8
# the double-precision seed run stops at a relative step of 2^-40
_SEED_STEP_TOL = 2.0**-40
_GUARD_BITS = 16  # fixed-point bits beyond the working precision and the range of root moduli
# Newton on the bisection path starts once the bracket has this many bits below
# bitlen(H), and carries this many bits beyond the cell it aims for
_NEWTON_GUARD_BITS = 32
_NEWTON_MAX_ITER = 64
# Largest precision certified_phi accepts. Newton's estimate takes 15 ms for
# z^3 - z - 1 at 32768 bits, but when it is useless the bisection across the start
# cell grows about 5x per doubling of the bits (0.6 s at 8192, 20 s at 32768 on a
# 2-core Xeon host), and this bounds it; a report up to M = 4000 asks for about
# 6.5k bits.
MAX_PRECISION_BITS = 1 << 15
# Largest precision times degree certified_phi accepts. The bisection across the
# start cell grows about like degree^2 * bits^2.6 (1.3 s at degree 50 and 2048 bits,
# 0.45 s at 150 and 655 on a 2-core Xeon host; Newton takes 21 ms at the latter), so
# for a fixed product it falls as the degree grows, and this bounds every such
# bisection by the degree-3 case at MAX_PRECISION_BITS.
MAX_BITS_TIMES_DEGREE = 3 * MAX_PRECISION_BITS
# Largest generator degree, i.e. degree of the characteristic polynomial. Each
# Aberth sweep costs O(k^2) big-integer operations: roots --degrees 1:1,k:1 takes
# 0.7 s at k = 150, 1.2 s at 200 and 1.7 s at 300 on a 2-core Xeon host.
MAX_POLY_DEGREE = 150
# Largest degree times bitlen(H), H = coeff_bound(), that root_profile accepts. Once
# phi^degree passes the double range the double-precision start fails, and the
# fixed-point sweeps, each O(k^2) products of about 2 bitlen(H) + 336 bits, carry
# the largest root out from the circle. roots --degrees 1:2^e,k:1 (bitlen(H) = e + 1)
# takes 0.7 s at k = 150 and e = 1, 2.6 s at e = 38, 3.9 s at 60, 19 s at 150 and
# 64 s at 300, and at k = 50 1.1 s at e = 110, 4.2 s at 200, 6.9 s at 300 and over
# 30 s at 570, on a 2-core Xeon host. So bitlen(H) stops at 40 for k = 150, at 122
# for k = 50 and at 2048 for k = 3 (10^400 has 1329 bits).
MAX_DEGREE_TIMES_COEFF_BITS = 6144


@dataclass(frozen=True)
class GeneratorSet:
    """Distinct generator degrees q_1 < ... < q_l with multiplicities m_i >= 1."""

    degrees: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.degrees:
            raise InvalidArgument("a generator set needs at least one degree")
        prev = 0
        for q, m in self.degrees:
            if q < 1 or m < 1:
                raise InvalidArgument(f"degrees and multiplicities must be >= 1, got ({q}, {m})")
            if q <= prev:
                raise InvalidArgument("degrees must be strictly increasing")
            if q > MAX_POLY_DEGREE:
                raise InvalidArgument(f"generator degrees must be <= {MAX_POLY_DEGREE}, got {q}")
            prev = q

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "GeneratorSet":
        return cls(tuple((int(q), int(m)) for q, m in pairs))

    @classmethod
    def parse(cls, text: str) -> "GeneratorSet":
        """Parse 'q1:m1,q2:m2,...', e.g. '2:1,3:1'."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                q, _, m = chunk.partition(":")
                pairs.append((int(q), int(m) if m else 1))
            except ValueError:
                raise InvalidArgument(f"bad degree spec {chunk!r}, expected q:m") from None
        if not pairs:
            raise InvalidArgument("empty degree spec")
        return cls.of(*pairs)

    @cached_property
    def g(self) -> int:
        return math.gcd(*(q for q, _ in self.degrees))

    @property
    def q_max(self) -> int:
        return self.degrees[-1][0]

    @property
    def sum_m(self) -> int:
        return sum(m for _, m in self.degrees)

    def spec_string(self) -> str:
        return ",".join(f"{q}:{m}" for q, m in self.degrees)


@dataclass(frozen=True)
class MonicIntPoly:
    """z^k + a_{k-1} z^{k-1} + ... + a_0, integer coefficients; coeffs[i] = a_i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise InvalidArgument("polynomial degree must be >= 1")
        if self.coeffs[-1] != 1:
            raise InvalidArgument("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = self.coeffs[-1]
        for a in reversed(self.coeffs[:-1]):
            acc = acc * x + a
        return acc

    def derivative_at(self, x):
        acc = 0
        for i in range(self.degree, 0, -1):
            acc = acc * x + i * self.coeffs[i]
        return acc

    def eval_scaled(self, num: int, shift: int) -> int:
        """Exact P(num / 2^shift) * 2^(shift*degree), a run of zero coefficients costing one power of num."""
        acc, k, at = 1, self.degree, self.degree
        for j in range(k - 1, -1, -1):
            if self.coeffs[j]:
                acc, at = (acc * num if at - j == 1 else acc * num ** (at - j)) + (self.coeffs[j] << (shift * (k - j))), j
        return acc * num**at

    def sign_at(self, x: Fraction) -> int:
        """Exact sign of P(x) at a rational x = a/b with b > 0, from the homogeneous
        integer Horner b^k P(a/b) = sum_i a_i a^i b^(k-i), sparse as in eval_scaled."""
        num, den = x.numerator, x.denominator
        acc, k, at = 1, self.degree, self.degree
        for j in range(k - 1, -1, -1):
            if self.coeffs[j]:
                acc, at = (acc * num if at - j == 1 else acc * num ** (at - j)) + self.coeffs[j] * den ** (k - j), j
        acc *= num**at
        return (acc > 0) - (acc < 0)

    def is_dominant_family(self) -> bool:
        """True for z^k - sum c_i z^i with all c_i >= 0, c_0 >= 1."""
        return self.coeffs[0] <= -1 and all(a <= 0 for a in self.coeffs[:-1])

    def coeff_bound(self) -> int:
        """1 + max |a_i| over non-leading coefficients: bounds every root modulus."""
        return 1 + max(abs(a) for a in self.coeffs[:-1])


def char_poly(gen: GeneratorSet) -> MonicIntPoly:
    """z^{q_l} - sum_i m_i z^{q_l - q_i}; the reciprocal of 1 - sum_i m_i z^{q_i}."""
    k = gen.q_max
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    for q, m in gen.degrees:
        coeffs[k - q] -= m
    return MonicIntPoly(tuple(coeffs))


def newton_sums(poly: MonicIntPoly, n_max: int) -> list[int]:
    """Exact power sums S_1..S_{n_max} of the roots, by Newton's identities."""
    if n_max < 1:
        raise InvalidArgument(f"newton_sums requires N >= 1, got {n_max}")
    k, a = poly.degree, poly.coeffs
    sums: list[int] = []
    for n in range(1, n_max + 1):
        acc = n * a[k - n] if n <= k else 0
        for i in range(1, min(n - 1, k) + 1):
            acc += a[k - i] * sums[n - i - 1]
        sums.append(-acc)
    return sums


@lru_cache(maxsize=None)
def _bisection_start(poly: MonicIntPoly) -> tuple[int, int, int, bool]:
    """(H, j, s, exact): the cell (j H, (j + 1) H) / 2^s of phi after s = bitlen(H) +
    _NEWTON_GUARD_BITS bisection steps from [0, H], or phi = j H / 2^s with exact
    True when a midpoint meets it first.  H = coeff_bound() exceeds every root
    modulus (Cauchy) and P(0) = a_0 <= -1, so P < 0 on [0, phi) and P > 0 on
    (phi, H].  A rational phi is an integer m (P is monic), met if at all at
    step v2(H) - v2(m) < bitlen(H), where a bisection from scratch for any
    request meets it too."""
    h, j = poly.coeff_bound(), 0
    for s in range(1, h.bit_length() + _NEWTON_GUARD_BITS + 1):
        sign = poly.eval_scaled((2 * j + 1) * h, s)
        if sign == 0:
            return h, 2 * j + 1, s, True
        j = 2 * j + (sign < 0)
    return h, j, s, False


def _newton(poly: MonicIntPoly, h: int, j: int, start: int, steps: int) -> int:
    """Newton's estimate of floor(phi 2^steps / H) from the cell (j H, (j + 1) H) / 2^start.

    x = X / 2^F starts at the cell's midpoint with A = start + 1 - bitlen(H)
    correct bits; each iteration takes F = 2A + 32 and counts on 2A - 16
    correct bits after it.  At the last F, steps + 32 + degree * bitlen(H)
    (the Horner rounding grows with the coefficients), iterations go on
    until a step is below 2^-(steps + 16).  Iterates are clamped to the
    cell; P'(x) <= 0 or _NEWTON_MAX_ITER iterations end the run early.
    """
    guard, shift = _NEWTON_GUARD_BITS, start + 1
    last = steps + guard + poly.degree * h.bit_length()
    x, lo, hi = (2 * j + 1) * h, 2 * j * h, (2 * j + 2) * h
    accurate = shift - h.bit_length()
    for _ in range(_NEWTON_MAX_ITER):
        up = max(min(2 * accurate + guard, last) - shift, 0)
        x, lo, hi, shift = x << up, lo << up, hi << up, shift + up
        p, _, d, _ = _fixed_horner(poly.coeffs, x, 0, shift)
        if d <= 0:
            break
        dx = (p << shift) // d
        x = min(max(x - dx, lo), hi)
        if shift == last and abs(dx) >> (last - steps - guard // 2) == 0:
            break
        accurate = 2 * accurate - guard // 2
    return (x << steps) // (h << shift)


@lru_cache(maxsize=None)
def _certified_enclosure(poly: MonicIntPoly, bits: int) -> tuple[int, int, int]:
    """Dyadic (lo_num, hi_num, shift) with P(lo) < 0 < P(hi), hi - lo <= 2^-bits:
    the cell a bisection from [0, H] reaches after shift = bits + bitlen(H) steps.

    Newton's estimate g, clamped to the start cell, is the cell when P < 0 at
    its left end and not at its right: two exact signs.  Only one cell has
    P < 0 < P at its ends, so on a miss a bisection of the start cell finds
    the same one, in steps - start more signs.  Signs are taken in lowest
    terms, so each costs what a single step to its point would.
    """
    h, j, start, exact = _bisection_start(poly)
    if exact:
        return _exact_root_enclosure(poly, j * h, start, bits)
    steps = bits + h.bit_length()

    def below(i: int) -> bool:  # i H / 2^steps < phi, for i >= 1
        zeros = min((i & -i).bit_length() - 1, steps)
        return poly.eval_scaled((i >> zeros) * h, steps - zeros) < 0

    lo, hi = j << (steps - start), (j + 1) << (steps - start)
    guess = min(max(_newton(poly, h, j, start, steps), lo), hi - 1)
    if below(guess) and not below(guess + 1):
        return guess * h, (guess + 1) * h, steps
    # below(lo) and not below(hi) throughout; the answer is lo once hi = lo + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return lo * h, hi * h, steps


def _exact_root_enclosure(poly: MonicIntPoly, num: int, shift: int, bits: int) -> tuple[int, int, int]:
    # phi = num / 2^shift exactly; return a strict sign bracket around it
    extra = max(bits + 2 - shift, 1)
    num <<= extra
    shift += extra
    lo, hi = num - 1, num + 1
    if not (poly.eval_scaled(lo, shift) < 0 < poly.eval_scaled(hi, shift)):
        raise NumericFailure("sign bracket around exact dominant root failed")
    return lo, hi, shift


@dataclass(frozen=True)
class RootCloud:
    """All roots (xs[i] + i ys[i]) / 2^shift of a polynomial, each rounded to
    `bits` and certified by a Weierstrass disc of radius radii[i] / 2^shift
    that holds exactly one root."""

    poly: MonicIntPoly
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    radii: tuple[int, ...]
    shift: int
    bits: int

    @property
    def roots(self) -> tuple:
        with mp.workprec(self.bits):
            return tuple(mpmath.mpc(*(mpmath.ldexp(v, -self.shift) for v in z)) for z in zip(self.xs, self.ys))

    @property
    def residuals(self) -> tuple:
        """|P| at each root, from the fixed Horner."""
        horner = (_fixed_horner(self.poly.coeffs, x, y, self.shift) for x, y in zip(self.xs, self.ys))
        with mp.workprec(self.bits):
            return tuple(mpmath.ldexp(math.isqrt(px * px + py * py), -self.shift) for px, py, _, _ in horner)


@lru_cache(maxsize=None)
def _aberth_roots(poly: MonicIntPoly, bits: int) -> RootCloud:
    """All complex roots by Aberth-Ehrlich iteration, certified by _disc_radii.

    The sweeps run first in double precision from the circle start, then in
    fixed point from where that run ended, or from the circle when it fails.
    Memoized: a polynomial's cloud is computed once per working precision.
    """
    # root moduli lie in [1/H, H] for the coefficient bound H, so 2 log2 H more bits keep each precise
    k, shift = poly.degree, bits + _GUARD_BITS + 2 * poly.coeff_bound().bit_length()
    if k == 1:
        xs, ys = [-poly.coeffs[0] << shift], [0]
    else:
        try:
            radius = max(math.exp(math.log(abs(poly.coeffs[0])) / k), 0.5)
        except OverflowError:
            raise InvalidArgument(
                f"|a_0|^(1/{k}) of the characteristic polynomial is past the double range, "
                "where the root iteration starts"
            ) from None
        # slightly irrational angular offset so symmetric configurations cannot lock
        z = [cmath.rect(radius, math.pi * ((2 * j + 1) / k + 1 / (3 * k + 1))) for j in range(k)]
        seed = z[:]
        with contextlib.suppress(OverflowError, ZeroDivisionError):
            if _aberth_sweeps(poly, seed) and all(map(cmath.isfinite, seed)):
                z = seed
        xs, ys = [_to_fixed(zi.real, shift) for zi in z], [_to_fixed(zi.imag, shift) for zi in z]
    _, radii = _fixed_sweeps(poly, xs, ys, bits, shift)
    return RootCloud(poly, tuple(xs), tuple(ys), tuple(radii), shift, bits)


def _to_fixed(v: float, shift: int) -> int:
    """v * 2^shift truncated toward zero."""
    num, den = v.as_integer_ratio()
    return (num << shift) // den if num >= 0 else -((-num << shift) // den)


def _round_bits(x: int, bits: int) -> int:
    """x rounded to `bits` significant bits, to nearest with ties to even, as mpmath rounds."""
    drop = abs(x).bit_length() - bits
    if drop <= 0:
        return x
    q, r = divmod(abs(x), 1 << drop)
    q += (r << 1 | q & 1) > 1 << drop
    return q << drop if x > 0 else -(q << drop)


def _aberth_sweeps(poly: MonicIntPoly, z: list[complex]) -> bool:
    """Aberth-Ehrlich sweeps on Python complex z in place: True once a sweep's
    largest step relative to 1 + |z_i| is <= 2^-40, False after
    _ABERTH_MAX_ITER sweeps.  A root where P' vanishes moves by 2^-40 + 1e-3."""
    k = len(z)
    for _ in range(_ABERTH_MAX_ITER):
        max_step = 0
        for i in range(k):
            pv = poly(z[i])
            if pv == 0:
                continue
            dv = poly.derivative_at(z[i])
            if dv == 0:
                z[i] += _SEED_STEP_TOL + 1e-3
                max_step = 1
                continue
            w = pv / dv
            s = sum(1 / (z[i] - z[j]) for j in range(k) if j != i)
            denom = 1 - w * s
            delta = w if denom == 0 else w / denom
            z[i] -= delta
            max_step = max(max_step, abs(delta) / (1 + abs(z[i])))
        if max_step <= _SEED_STEP_TOL:
            return True
    return False


def _fixed_horner(coeffs: tuple[int, ...], x: int, y: int, shift: int) -> tuple[int, int, int, int]:
    """Re P, Im P, Re P', Im P' at (x + iy) / 2^shift, all scaled by 2^shift (products rounded down)."""
    px, py, dx, dy = 1 << shift, 0, 0, 0
    for a in reversed(coeffs[:-1]):
        dx, dy = ((dx * x - dy * y) >> shift) + px, ((dx * y + dy * x) >> shift) + py
        px, py = ((px * x - py * y) >> shift) + (a << shift), (px * y + py * x) >> shift
    return px, py, dx, dy


def _residual_bound(coeffs: tuple[int, ...], x: int, y: int, shift: int) -> int:
    """An integer >= |P(z)| 2^shift at z = (x + iy) / 2^shift: the fixed Horner
    value plus its running error (Higham 2002, section 5.1).  Each step floors
    the two parts of p z, an error under sqrt 2 units of 2^-shift, and scales
    the error so far by |z| <= (isqrt(x^2 + y^2) + 1) / 2^shift."""
    modulus = math.isqrt(x * x + y * y) + 1
    px, py, err = 1 << shift, 0, 0
    for a in reversed(coeffs[:-1]):
        px, py = ((px * x - py * y) >> shift) + (a << shift), (px * y + py * x) >> shift
        err = ((err * modulus) >> shift) + 3
    return math.isqrt(px * px + py * py) + 1 + err


def _disc_radii(coeffs: tuple[int, ...], xs: list[int], ys: list[int], bits: int, shift: int) -> list[int] | None:
    """Radii in units of 2^-shift, rounded up, of the Weierstrass discs D(z_i,
    k |P(z_i)| / prod_{j != i} |z_i - z_j|) of z_i = (xs[i] + i ys[i]) /
    2^shift; None unless each radius is <= 2^-(bits-8) |z_i| and no two
    discs meet.  Every connected union of m such discs holds exactly m roots
    of the monic P of degree k (Braess & Hadeler 1973; Carstensen 1991)."""
    k, radii, nearest = len(xs), [], []
    for i, (x, y) in enumerate(zip(xs, ys)):
        dists = [(x - xj) ** 2 + (y - yj) ** 2 for j, (xj, yj) in enumerate(zip(xs, ys)) if j != i]
        if not (near := min(dists, default=math.inf)):
            return None
        # m 2^e <= prod_j |z_i - z_j|^2 2^(2 shift (k-1)), floored to 128 bits after each factor
        m, e = 1, 0
        for dist in dists:
            drop = max((m := m * dist).bit_length() - 128, 0)
            m, e = m >> drop, e + drop
        bound = -k * _residual_bound(coeffs, x, y, shift) << shift * (k - 1)
        radius = -(bound // (math.isqrt(m << (e & 1)) << e // 2))
        if radius << (bits - 8) > math.isqrt(x * x + y * y):
            return None
        radii.append(radius)
        nearest.append(near)
    # r_i + r_j <= r_i + max r < |z_i - z_j| for every pair
    largest = max(radii)
    return None if any((r + largest) ** 2 >= near for r, near in zip(radii, nearest)) else radii


def _fixed_sweeps(poly: MonicIntPoly, xs: list[int], ys: list[int], bits: int, shift: int) -> tuple[int, list[int]]:
    """Aberth-Ehrlich sweeps in place on the roots (xs + i ys) / 2^shift until
    _disc_radii certifies the cloud rounded to `bits`, tried after each sweep;
    then xs, ys take the rounded cloud and (sweeps, radii) is returned.  A
    repeated root, which no disjoint discs certify, raises InvalidArgument
    before sweep _REPEATED_ROOT_SWEEPS; any other failure NumericFailure
    after _ABERTH_MAX_ITER.  A root where P' vanishes moves by 2^-(bits-8) +
    1e-3; a z_j equal to z_i adds nothing to the sum of 1/(z_i - z_j)."""
    one = 1 << shift
    for sweep in range(1, _ABERTH_MAX_ITER + 1):
        if sweep == _REPEATED_ROOT_SWEEPS and _has_repeated_root(poly):
            raise InvalidArgument("the characteristic polynomial has a repeated root, which no disc certificate isolates")
        for i, (x, y) in enumerate(zip(xs, ys)):
            px, py, dx, dy = _fixed_horner(poly.coeffs, x, y, shift)
            if px == py == 0:
                continue
            if dx == dy == 0:
                xs[i] += (one >> (bits - 8)) + one // 1000
                continue
            slope = dx * dx + dy * dy  # w = P / P'
            wx, wy = ((px * dx + py * dy) << shift) // slope, ((py * dx - px * dy) << shift) // slope
            sx = sy = 0
            for xj, yj in zip(xs, ys):
                ex, ey = x - xj, y - yj
                if dist := ex * ex + ey * ey:
                    sx, sy = sx + (ex << 2 * shift) // dist, sy - (ey << 2 * shift) // dist
            # delta = w / (1 - w s), or w where 1 - w s vanishes
            nx, ny = one - ((wx * sx - wy * sy) >> shift), -((wx * sy + wy * sx) >> shift)
            if den := nx * nx + ny * ny:
                wx, wy = ((wx * nx + wy * ny) << shift) // den, ((wy * nx - wx * ny) << shift) // den
            xs[i], ys[i] = x - wx, y - wy
        rounded_xs, rounded_ys = [_round_bits(x, bits) for x in xs], [_round_bits(y, bits) for y in ys]
        if (radii := _disc_radii(poly.coeffs, rounded_xs, rounded_ys, bits, shift)) is not None:
            xs[:], ys[:] = rounded_xs, rounded_ys
            return sweep, radii
    raise NumericFailure(f"no disc certificate for the root iteration after {_ABERTH_MAX_ITER} sweeps")


def _has_repeated_root(poly: MonicIntPoly) -> bool:
    """True when gcd(P, P') has positive degree, by Euclid's algorithm over Q."""
    a = [Fraction(c) for c in poly.coeffs]
    b = [Fraction(i * c) for i, c in enumerate(poly.coeffs)][1:]
    while len(b) > 1:
        while len(a) >= len(b):
            factor, offset = a[-1] / b[-1], len(a) - len(b)
            a = [c - factor * b[i - offset] if i >= offset else c for i, c in enumerate(a[:-1])]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return not b


@dataclass(frozen=True)
class RootProfile:
    """Certified phi enclosure, |psi| and the certified complex root cloud."""

    phi: mpf
    phi_lo: Fraction
    phi_hi: Fraction
    psi_abs: mpf | None
    g: int
    cloud: RootCloud
    precision_bits: int


def certified_phi(poly: MonicIntPoly, precision_bits: int) -> tuple[Fraction, Fraction, mpf]:
    """Sign-certified enclosure of the positive real root, bisection only.

    Cheap path for callers that do not need the complex root cloud.
    """
    if precision_bits < 64:
        raise InvalidArgument(f"precision_bits must be >= 64, got {precision_bits}")
    if precision_bits > MAX_PRECISION_BITS:
        raise InvalidArgument(f"precision_bits must be <= {MAX_PRECISION_BITS}, got {precision_bits}")
    if precision_bits * poly.degree > MAX_BITS_TIMES_DEGREE:
        raise InvalidArgument(
            f"precision_bits must be <= {MAX_BITS_TIMES_DEGREE // poly.degree} for a degree-{poly.degree} "
            f"polynomial, got {precision_bits}"
        )
    if not poly.is_dominant_family():
        raise InvalidArgument(
            "certified_phi expects z^k - sum c_i z^i with c_i >= 0 and c_0 >= 1"
        )
    lo_num, hi_num, shift = _certified_enclosure(poly, precision_bits)
    with mp.workprec(precision_bits + 32):
        phi = (mpf(lo_num) + mpf(hi_num)) / mpf(2) ** (shift + 1)
    return Fraction(lo_num, 2**shift), Fraction(hi_num, 2**shift), phi


def root_profile(poly: MonicIntPoly, g: int, precision_bits: int) -> RootProfile:
    """Certify phi to precision_bits and split the cloud into the orbit and the rest.

    Each disc of the cloud holds one root, and phi times the g-th roots of
    unity are the roots of modulus phi (module docstring); so when every disc
    but the g with the largest centres lies in |z| < phi_lo, |psi| is within
    a radius of the largest remaining centre's modulus, taken at the Aberth
    precision.  Raises RootStructureViolation when the exponents of P have a
    gcd other than g, InvalidArgument when the discs do not separate the orbit
    or the degree times bitlen(H) exceeds MAX_DEGREE_TIMES_COEFF_BITS.
    """
    if g < 1:
        raise InvalidArgument(f"g must be >= 1, got {g}")
    coeff_bits = poly.coeff_bound().bit_length()
    if poly.degree * coeff_bits > MAX_DEGREE_TIMES_COEFF_BITS:
        raise InvalidArgument(
            f"degree times coefficient bits must be <= {MAX_DEGREE_TIMES_COEFF_BITS} for the root cloud, "
            f"got {poly.degree} * {coeff_bits}"
        )
    phi_lo, phi_hi, phi = certified_phi(poly, precision_bits)
    exponent_gcd = math.gcd(*(i for i, a in enumerate(poly.coeffs) if a))
    if exponent_gcd != g:
        raise RootStructureViolation(
            f"expected {g} max-modulus roots, but the exponents of the polynomial have gcd {exponent_gcd}"
        )
    aberth_bits = max(_ABERTH_BITS, min(precision_bits, 320))
    cloud = _aberth_roots(poly, aberth_bits)
    moduli = [x * x + y * y for x, y in zip(cloud.xs, cloud.ys)]
    rest = sorted(range(poly.degree), key=moduli.__getitem__, reverse=True)[g:]
    # (|z_i| + r_i) 2^shift rounded up, for the largest disc outside the orbit
    outer = max((math.isqrt(moduli[i]) + 1 + cloud.radii[i] for i in rest), default=0)
    if outer * phi_lo.denominator >= phi_lo.numerator << cloud.shift:
        raise InvalidArgument(
            f"the {g} roots of largest modulus are not separated from the others at {aberth_bits} bits"
        )
    psi_abs = None
    if rest:
        with mp.workprec(aberth_bits):
            x, y = (mpmath.ldexp(v[rest[0]], -cloud.shift) for v in (cloud.xs, cloud.ys))
            psi_abs = abs(mpmath.mpc(x, y))
    return RootProfile(
        phi=phi,
        phi_lo=phi_lo,
        phi_hi=phi_hi,
        psi_abs=psi_abs,
        g=g,
        cloud=cloud,
        precision_bits=precision_bits,
    )


@lru_cache(maxsize=None)
def _cached_profile(coeffs: tuple[int, ...], g: int, bits: int) -> RootProfile:
    return root_profile(MonicIntPoly(coeffs), g, bits)


def profile_at(gen: GeneratorSet, bits: int) -> RootProfile:
    """Root profile of char_poly(gen) at `bits`, from the one profile cache
    that every caller in the package shares."""
    return _cached_profile(char_poly(gen).coeffs, gen.g, bits)


def profile_bits_of(gen: GeneratorSet) -> Callable[[int], int]:
    """n_max -> the precision for phi^n_max over char_poly(gen), the package's
    one bucket rule, with the part that depends on gen alone computed once,
    for the rows of a table.  phi^n_max must keep >= 64 correct bits, so the
    rule is n_max log2(bound) + 64 bits, rounded up to a multiple of 64, and
    sweeps share cached profiles.  The coefficients of char_poly(gen) are the
    -m_i, each at its own power, so its coefficient bound is 1 + max m_i."""
    bound = 1 + max(m for _, m in gen.degrees)
    try:
        log_bound = math.log2(bound + 1e-9)
    except OverflowError:  # an integer bound past the float range, where the 1e-9 is lost anyway
        log_bound = math.log2(bound)
    return lambda n_max: 64 * math.ceil((math.ceil(max(n_max, 1) * log_bound) + 64) / 64)


def profile_for_exponent(gen: GeneratorSet, n_max: int) -> RootProfile:
    """Root profile of char_poly(gen) at profile_bits_of(gen)(n_max)."""
    return profile_at(gen, profile_bits_of(gen)(n_max))
