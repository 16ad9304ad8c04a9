"""Exact integer number theory shared by the rank formulas and bounds.

Everything here is arbitrary-precision: the ranks downstream grow like
phi^N / N and leave 64-bit range well inside desk scale, so no operation
in this module ever goes through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalError, InvalidArgument

__all__ = [
    "BezoutSolution",
    "bezout_min_y",
    "binom_div_p",
    "divisors",
    "is_odd_prime",
    "mobius",
]


def mobius(n: int) -> int:
    """Moebius function: 1 at 1, 0 on a squared prime factor, else (-1)^#primes."""
    if n < 1:
        raise InvalidArgument(f"mobius requires n >= 1, got {n}")
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1 if d == 2 else 2
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    if n < 1:
        raise InvalidArgument(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TESTED = 3_317_044_064_679_887_385_961_981  # Miller-Rabin on _WITNESSES decides every p below it


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41, proven for p < MAX_PRIME_TESTED
    (Sorenson & Webster, Math. Comp. 86 (2017) 985-1003); a larger p is refused."""
    if p >= MAX_PRIME_TESTED:
        raise InvalidArgument(f"p must be below {MAX_PRIME_TESTED}, where the primality test is proven")
    if p < 3 or p % 2 == 0:
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s, d odd
    d = (p - 1) >> s
    # p passes base a, p prime to it, when a^d = 1 or a^(d 2^r) = -1 for some r < s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s)) for a in _WITNESSES if a % p)


@dataclass(frozen=True)
class BezoutSolution:
    """The solution of x*alpha - y*beta = gcd(alpha, beta) with minimal y >= 0.

    Minimality forces 0 <= y < alpha/g', hence x > 0 automatically.
    """

    x: int
    y: int
    alpha: int
    beta: int
    g_prime: int


def bezout_min_y(alpha: int, beta: int) -> BezoutSolution:
    """Solve x*alpha - y*beta = gcd(alpha, beta) with the smallest y >= 0."""
    if alpha < 1 or beta < 1:
        raise InvalidArgument(f"bezout_min_y requires alpha, beta >= 1, got {alpha}, {beta}")
    # iterative extended Euclid: u*alpha + v*beta = g
    old_r, r = alpha, beta
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    g = old_r
    y0 = -old_v  # x*alpha - y*beta = g with x = old_u, y = y0
    step_x, step_y = beta // g, alpha // g
    t = -(y0 // step_y)  # smallest t making y0 + t*step_y non-negative
    x = old_u + t * step_x
    y = y0 + t * step_y
    if x * alpha - y * beta != g or x <= 0 or y < 0 or y >= step_y:
        raise InternalError(f"bezout normalization failed for ({alpha}, {beta})")
    return BezoutSolution(x=x, y=y, alpha=alpha, beta=beta, g_prime=g)


def binom_div_p(p: int, k: int, j: int) -> int:
    """Exact C(p^k, j) / p for 1 <= j <= p^k - 1 (always an integer)."""
    if not is_odd_prime(p):
        raise InvalidArgument(f"binom_div_p requires an odd prime, got {p}")
    if k < 1:
        raise InvalidArgument(f"binom_div_p requires k >= 1, got {k}")
    if not 1 <= j <= p**k - 1:
        raise InvalidArgument(f"binom_div_p requires 1 <= j <= p^k - 1, got j={j}")
    q, r = divmod(math.comb(p**k, j), p)
    if r:
        raise InternalError(f"C({p}^{k}, {j}) is not divisible by {p}")
    return q
