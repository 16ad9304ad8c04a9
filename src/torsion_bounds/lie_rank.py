"""Exact ranks of free graded Lie algebras.

Two independent routes are implemented: the divisor-sum Moebius formula
driven by exact Newton power sums (babenko_ranks), and a graded
Poincare-Birkhoff-Witt power-series solve against the Hilbert series of
the tensor algebra (pbw_ranks).  Their entrywise agreement is the central
correctness gate of the whole package.
"""

from __future__ import annotations

import math

from .charpoly import GeneratorSet, char_poly, newton_sums
from .combinat import divisors, mobius
from .errors import InternalError, InvalidArgument, OracleInconsistency

__all__ = ["babenko_ranks", "pbw_ranks", "tensor_dims"]


def tensor_dims(gen: GeneratorSet, n_max: int) -> list[int]:
    """T_0..T_N of the tensor algebra: T_0 = 1, T_n = sum_i m_i T_{n-q_i}."""
    if n_max < 0:
        raise InvalidArgument(f"tensor_dims requires N >= 0, got {n_max}")
    dims = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        dims[n] = sum(m * dims[n - q] for q, m in gen.degrees if q <= n)
    return dims


def babenko_ranks(gen: GeneratorSet, n_max: int) -> list[int]:
    """rank(L_1)..rank(L_N) by the divisor-sum formula, all exact integers."""
    if n_max < 1:
        raise InvalidArgument(f"babenko_ranks requires N >= 1, got {n_max}")
    sums = newton_sums(char_poly(gen), n_max)
    ranks, mu = [], [0] + [mobius(d) for d in range(1, n_max + 1)]  # mu[d] = mobius(d), d >= 1
    for n in range(1, n_max + 1):
        total = sum(
            (-1) ** (n // d) * mu[d] * sums[n // d - 1] for d in divisors(n)
        )
        total *= (-1) ** n
        q, r = divmod(total, n)
        if r:
            raise InternalError(f"divisor sum for N={n} not divisible by N ({gen.spec_string()})")
        if q < 0:
            raise InternalError(f"negative rank {q} at N={n} ({gen.spec_string()})")
        ranks.append(q)
    return ranks


def pbw_ranks(gen: GeneratorSet, n_max: int) -> list[int]:
    """r_1..r_N solving prod_{n odd}(1+t^n)^{r_n} prod_{n even}(1-t^n)^{-r_n} = T(t).

    Solved degree by degree in exact integer arithmetic; a degree-n element
    is odd iff n is odd.  Once r_n is known the running product is
    multiplied in place by the degree-n factor, whose coefficients sit only
    at multiples of n, so the solve makes O(N^2 log N) big-integer
    additions.  Independent of the Newton/Moebius route.
    """
    if n_max < 1:
        raise InvalidArgument(f"pbw_ranks requires N >= 1, got {n_max}")
    return _pbw_solve(tensor_dims(gen, n_max), n_max)


def _pbw_solve(target: list[int], n_max: int) -> list[int]:
    series = [1] + [0] * n_max
    ranks = []
    for n in range(1, n_max + 1):
        r = target[n] - series[n]
        if r < 0:
            raise OracleInconsistency(
                f"series solve produced negative multiplicity {r} in degree {n}"
            )
        ranks.append(r)
        if r == 0:
            continue
        # multiply by the factor 1 + sum_{j >= 1} c_j t^{nj}, nonzero only at multiples of n
        base = series[:]
        for j in range(1, n_max // n + 1):
            c = math.comb(r, j) if n % 2 else math.comb(r + j - 1, j)
            if c == 0:  # (1 + t^n)^r stops at j = r
                break
            shift = n * j
            series[shift:] = [s + c * b for s, b in zip(series[shift:], base)]
    return ranks
