import math

import pytest

from torsion_bounds import (
    BezoutSolution,
    InvalidArgument,
    bezout_min_y,
    binom_div_p,
    divisors,
    mobius,
)
from torsion_bounds import verify
from torsion_bounds.combinat import MAX_PRIME_TESTED, is_odd_prime
from torsion_bounds.verify import check_bezout_invariants, check_mobius_identity


def test_mobius_known_values():
    assert mobius(1) == 1
    assert mobius(12) == 0  # 4 | 12
    assert mobius(30) == -1  # 2*3*5
    assert mobius(6) == 1
    assert mobius(7) == -1
    assert mobius(49) == 0


def test_mobius_rejects_zero():
    with pytest.raises(InvalidArgument):
        mobius(0)


def test_mobius_divisor_sum_identity():
    'sum of mobius(d) over d | n is 1 at n=1 and 0 afterwards'
    assert check_mobius_identity(10_000) == []


def test_mobius_identity_takes_mobius_once_per_d(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "mobius", lambda d: calls.append(d) or mobius(d))
    assert check_mobius_identity(300) == []
    assert sorted(calls) == list(range(1, 301))


def test_divisors_known_values():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]


def test_divisors_rejects_zero():
    with pytest.raises(InvalidArgument):
        divisors(0)


def test_divisors_closed_under_complement():
    for n in range(1, 500):
        ds = divisors(n)
        assert sorted(n // d for d in ds) == ds


def test_bezout_examples():
    assert bezout_min_y(3, 4) == BezoutSolution(x=3, y=2, alpha=3, beta=4, g_prime=1)
    assert bezout_min_y(2, 2) == BezoutSolution(x=1, y=0, alpha=2, beta=2, g_prime=2)
    assert bezout_min_y(1, 6) == BezoutSolution(x=1, y=0, alpha=1, beta=6, g_prime=1)


def test_bezout_minimality_by_scan():
    'no smaller non-negative y admits a solution'
    for alpha in range(1, 30):
        for beta in range(1, 30):
            s = bezout_min_y(alpha, beta)
            g = math.gcd(alpha, beta)
            for y in range(s.y):
                assert (g + y * beta) % alpha != 0
    assert check_bezout_invariants(200) == []


def test_binom_div_p_examples():
    assert binom_div_p(3, 2, 3) == 28  # C(9,3) = 84
    assert binom_div_p(5, 1, 2) == 2  # C(5,2) = 10
    for p in (3, 5, 7, 11):
        assert binom_div_p(p, 1, 1) == 1


def test_binom_div_p_exactness():
    for p in (3, 5):
        for k in (1, 2, 3):
            for j in range(1, p**k):
                assert p * binom_div_p(p, k, j) == math.comb(p**k, j)


def test_binom_div_p_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        binom_div_p(4, 1, 1)  # not prime
    with pytest.raises(InvalidArgument):
        binom_div_p(3, 1, 0)  # j out of range
    with pytest.raises(InvalidArgument):
        binom_div_p(3, 1, 3)  # j = p^k


def test_is_odd_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))

    assert [n for n in range(-3, 200_000) if is_odd_prime(n) != by_trial_division(n)] == []


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # 151 * 751 * 28351, strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to the bases 2 to 23
        318665857834031151167461,  # strong pseudoprime to the bases 2 to 37
    ],
)
def test_is_odd_prime_rejects_strong_pseudoprimes(n):
    assert not is_odd_prime(n)


def test_is_odd_prime_accepts_large_primes_and_refuses_past_its_proven_range():
    assert is_odd_prime(1000000000000000003) and is_odd_prime(2**61 - 1)
    for p in (MAX_PRIME_TESTED, MAX_PRIME_TESTED + 1, 2**89 - 1):
        with pytest.raises(InvalidArgument, match="primality test is proven"):
            is_odd_prime(p)
