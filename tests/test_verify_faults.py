"""Each verify check of the combinat suite, and the covering certificates, catch
a fault in the library function they check.

`FAULTS` maps each check's `verify.SUITES` label to the check, a fault
monkeypatched into the function it reads, and cheap arguments: the check
passes without the fault and fails with it.
"""

import dataclasses
import math

import pytest

from torsion_bounds import bounds, combinat, verify


def _mobius_zero_at_six(n):
    return 0 if n == 6 else combinat.mobius(n)


def _divisors_without_twelve(n):
    found = combinat.divisors(n)
    return found[:-1] if n == 12 else found


def _bezout_one_period_up(alpha, beta):
    # still a solution of x alpha - y beta = g', but not the one with the smallest y
    found = combinat.bezout_min_y(alpha, beta)
    return dataclasses.replace(found, x=found.x + beta // found.g_prime, y=found.y + alpha // found.g_prime)


def _binom_div_p_off_at_one(p, k, j):
    return combinat.binom_div_p(p, k, j) + (j == 1)


def _min_j_one_low(a, b, n):
    # the least j >= 0 with j >= floor(a n + b), one below the least with j > a n + b
    return max(0, math.floor(a * n + b))


# verify.SUITES label -> (check, (module, function, its fault), cheap kwargs)
FAULTS = {
    "mobius divisor-sum identity": (verify.check_mobius_identity, (verify, "mobius", _mobius_zero_at_six), {"n_max": 30}),
    "divisor closure under n/d": (
        verify.check_divisor_closure, (verify, "divisors", _divisors_without_twelve), {"n_max": 30}
    ),
    "bezout minimal solutions": (
        verify.check_bezout_invariants, (verify, "bezout_min_y", _bezout_one_period_up), {"limit": 12}
    ),
    "divided binomials": (
        verify.check_binom_div_p, (verify, "binom_div_p", _binom_div_p_off_at_one), {"ps": (3,), "k_max": 2}
    ),
    "covering certificates": (verify.check_bezout_coverage, (bounds, "_min_j_over", _min_j_one_low), {"samples": 5}),
}


@pytest.mark.parametrize("label", list(FAULTS))
def test_each_check_catches_its_fault(monkeypatch, label):
    check, (module, name, fault), kwargs = FAULTS[label]
    assert label in {entry[0] for suite in verify.SUITES.values() for entry in suite}
    assert check(**kwargs) == []
    monkeypatch.setattr(module, name, fault)
    assert check(**kwargs) != []
