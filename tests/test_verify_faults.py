"""Each verify check catches a fault in the library function it checks.

`FAULTS` maps each check's `verify.SUITES` label to the check, a fault
monkeypatched into the function it reads, and cheap arguments: the check
passes without the fault and fails with it.  The checks of the root cloud
have theirs in test_certificate.FAULTS, and those in STANDALONE have fault
tests of their own beside the other tests of their library.
"""

import dataclasses
import math
import re

import pytest
from test_certificate import FAULTS as CLOUD_FAULTS

from torsion_bounds import bounds, combinat, dgl_fp, verify


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


def _lyndon_words_without_one(alphabet, up_to):
    # drops the last Lyndon word of degree 5, so one basis element of L_5 is missing
    words = _LYNDON_WORDS(alphabet, up_to)
    return {**words, 5: words[5][:-1]} if up_to >= 5 else words


def _differential_terms_without_signs(self, be):
    # d as an ungraded derivation: an expansion's coefficients lie in [1, p), so the
    # terms that the Koszul sign flips are the negative ones
    cols, values = _DIFFERENTIAL_TERMS(self, be)
    return cols, abs(values)


def _bracket_with_a_flipped_sign(self, a, b):
    # [a, b] negated when |a| = 2 != |b|: no longer antisymmetric in the graded sense
    out = _BRACKET(self, a, b)
    return -1 * out if a.degree == 2 and b.degree != 2 else out


def _tau_one_bracket_short(self, u, k):
    acc = self.differential(u)
    for _ in range(self.p**k - 2):
        acc = self.bracket(u, acc)
    return acc


def _boundary_rank_one_high(self, n):
    return _BOUNDARY_RANK(self, n) + 1


def _f_q_above_the_boundaries(q, n):
    return _F_Q(q, n) + 10**6


def _first_digit_nine(lo, hi, k):
    # every row the integer pass decides prints 9 for its first digit
    text = _COMMON_TEXT(lo, hi, k)
    return text and re.sub(r"\d", "9", text, count=1)


def _without_minus_sign(lo, hi, k):
    text = _COMMON_TEXT(lo, hi, k)
    return text and text.lstrip("-")


def _n_of_one_high(self, m):
    # moves every n(M) up by one, and so M1, the first degree with a positive bound
    n = _N_OF(self, m)
    return None if n is None else n + 1


_LYNDON_WORDS = dgl_fp._lyndon_words_by_degree
_DIFFERENTIAL_TERMS = dgl_fp.FreeDgl._differential_terms
_BRACKET = dgl_fp.FreeDgl.bracket
_BOUNDARY_RANK = dgl_fp.FreeDgl.boundary_rank
_F_Q = bounds.f_q
_COMMON_TEXT = bounds.common_text
_N_OF = bounds.KTheoryParams.n_of

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
    "basis certification": (
        verify.check_basis_certification,
        (dgl_fp, "_lyndon_words_by_degree", _lyndon_words_without_one),
        {"qs": (2,), "ps": (3,), "up_to": 6},
    ),
    "d squared is zero": (
        verify.check_differential_squares_to_zero,
        (dgl_fp.FreeDgl, "_differential_terms", _differential_terms_without_signs),
        {"qs": (2,), "ps": (3,), "up_to": 8},
    ),
    "graded jacobi": (
        verify.check_graded_jacobi, (dgl_fp.FreeDgl, "bracket", _bracket_with_a_flipped_sign), {"samples": 20}
    ),
    "cycle elements": (verify.check_cycle_elements, (dgl_fp.FreeDgl, "tau", _tau_one_bracket_short), {}),
    "rank nullity": (
        verify.check_rank_nullity, (dgl_fp.FreeDgl, "boundary_rank", _boundary_rank_one_high), {"up_to": 6}
    ),
    "boundary bound": (
        verify.check_boundary_bound, (bounds, "f_q", _f_q_above_the_boundaries), {"qs": (2,), "up_to": 6}
    ),
    "closed-form specializations": (
        verify.check_closed_form_specializations, (bounds, "common_text", _first_digit_nine), {"m_max": 3}
    ),
    "report vs boundary oracle": (
        verify.check_report_vs_boundary_oracle, (bounds, "common_text", _without_minus_sign), {"up_to": 8}
    ),
    "guaranteed bounds turn positive": (
        verify.check_catalog_positivity, (bounds.KTheoryParams, "n_of", _n_of_one_high), {"window": 5}
    ),
}

# labels whose fault tests stand alone, beside the other tests of their library
STANDALONE = (
    "root sign structure",  # test_charpoly
    "phi window",
    "newton growth",
    "formula vs series oracle",  # test_lie_rank
    "g-divisibility",
    "rank window",
    "boundary rows print f_q",  # test_bounds
    "f_q asymptotic chain",
    "phi dominates 2^{1/(q+1)}",
    "condition-star minimality",
)


@pytest.mark.parametrize("label", list(FAULTS))
def test_each_check_catches_its_fault(monkeypatch, label):
    check, (module, name, fault), kwargs = FAULTS[label]
    assert label in {entry[0] for suite in verify.SUITES.values() for entry in suite}
    assert check(**kwargs) == []
    monkeypatch.setattr(module, name, fault)
    assert check(**kwargs) != []


def test_every_verify_check_has_a_fault_test():
    labels = [label for suite in verify.SUITES.values() for label, _, _ in suite]
    covered = [*FAULTS, *CLOUD_FAULTS, *STANDALONE]
    assert sorted(covered) == sorted(labels) and len(labels) == 26


def test_every_check_runs_at_its_defaults():
    # verify passes no arguments, so check_x() is what `verify --suite all` runs
    assert [kwargs for suite in verify.SUITES.values() for _, _, kwargs in suite] == [{}] * 26
