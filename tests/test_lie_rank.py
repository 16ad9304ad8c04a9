from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from torsion_bounds import (
    GeneratorSet,
    InvalidArgument,
    OracleInconsistency,
    babenko_ranks,
    pbw_ranks,
    rank_window,
    tensor_dims,
)
from torsion_bounds import bounds, verify
from torsion_bounds.charpoly import profile_bits_of
from torsion_bounds.lie_rank import _pbw_solve
from torsion_bounds.verify import check_g_divisibility, check_oracle_equivalence, check_rank_window, generator_family


def test_tensor_dims_examples():
    assert tensor_dims(GeneratorSet.of((2, 1), (3, 1)), 10) == [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7]
    assert tensor_dims(GeneratorSet.of((1, 1)), 4) == [1, 1, 1, 1, 1]
    assert tensor_dims(GeneratorSet.of((1, 2)), 3) == [1, 2, 4, 8]


def test_babenko_known_values():
    one_odd = GeneratorSet.of((1, 1))
    assert babenko_ranks(one_odd, 3) == [1, 1, 0]
    one_even = GeneratorSet.of((2, 1))
    assert babenko_ranks(one_even, 4)[1::2] == [1, 0]
    assert babenko_ranks(GeneratorSet.of((2, 1), (3, 1)), 5)[4] == 1
    assert babenko_ranks(GeneratorSet.of((1, 2)), 3)[2] == 2


def test_babenko_rejects_zero():
    with pytest.raises(InvalidArgument):
        babenko_ranks(GeneratorSet.of((1, 1)), 0)


def test_pbw_examples():
    assert pbw_ranks(GeneratorSet.of((1, 1)), 4) == [1, 1, 0, 0]
    assert pbw_ranks(GeneratorSet.of((2, 1), (3, 1)), 5) == [0, 1, 1, 0, 1]
    assert pbw_ranks(GeneratorSet.of((1, 2)), 2) == [2, 3]


def test_pbw_solve_flags_inconsistent_series():
    # T_1 = 1 but T_2 = 0 cannot come from any rank sequence:
    # the degree-1 exterior factor already forces a positive T_2
    with pytest.raises(OracleInconsistency):
        _pbw_solve([1, 2, 0], 2)


def test_oracle_equivalence_family():
    'the central gate: formula == series oracle entrywise'
    assert check_oracle_equivalence(3, 5, 40) == []


def test_g_divisibility():
    assert check_g_divisibility(40) == []
    gen = GeneratorSet.of((2, 1), (4, 1))
    ranks = babenko_ranks(gen, 21)
    assert all(ranks[n - 1] == 0 for n in range(1, 22, 2))


def test_rank_window_contains_exact_rank():
    assert check_rank_window(60) == []


def test_oracle_equivalence_catches_a_series_rank_one_too_large(monkeypatch):
    assert check_oracle_equivalence(2, 3, 12) == []
    series = verify.pbw_ranks
    monkeypatch.setattr(verify, "pbw_ranks", lambda gen, n: [r + (k == 10) for k, r in enumerate(series(gen, n), 1)])
    assert check_oracle_equivalence(2, 3, 12) == [
        f"{gen.spec_string()}: formula {rank} vs series {rank + 1} at N=10"
        for gen in generator_family(2, 3)
        for rank in [babenko_ranks(gen, 10)[9]]
    ]


def test_g_divisibility_catches_a_rank_off_the_g_grid(monkeypatch):
    assert check_g_divisibility(12) == []
    formula = verify.babenko_ranks

    def off_grid(gen, n):  # a rank of 1 at every N off the g-grid, where the rank is 0
        return [1 if k % gen.g else r for k, r in enumerate(formula(gen, n), 1)]

    monkeypatch.setattr(verify, "babenko_ranks", off_grid)
    fails = check_g_divisibility(12)
    family = generator_family()
    assert fails == [f"{gen.spec_string()}: rank 1 != 0 at N={n}" for gen in family for n in range(1, 13) if n % gen.g]
    assert len(fails) == 117


def test_rank_window_catches_a_shifted_window(monkeypatch):
    assert check_rank_window(12) == []
    windows = bounds.rank_windows

    def shifted(gen, degrees):  # up by twice the width plus 1: the rank, inside the true window, is below this one
        rows = []
        for (lo, lo_err, k), (hi, hi_err, _) in windows(gen, degrees):  # the ends share k: their terms differ in sign only
            up = 2 * (hi - lo) + (1 << max(-k, 0))
            rows.append(((lo + up, lo_err, k), (hi + up, hi_err, k)))
        return rows

    monkeypatch.setattr(bounds, "rank_windows", shifted)
    fails = check_rank_window(12)
    family = generator_family()
    assert fails == [f"{gen.spec_string()}: rank outside window at N={n}" for gen in family for n in range(gen.g, 13, gen.g)]
    assert len(fails) == 543


# random generator sets: up to four distinct degrees in 1..8, multiplicities 1..4
GENERATOR_SETS = st.dictionaries(st.integers(1, 8), st.integers(1, 4), min_size=1, max_size=4).map(
    lambda mult: GeneratorSet.of(*sorted(mult.items()))
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(gen=GENERATOR_SETS, n_max=st.integers(1, 60))
def test_pbw_ranks_equal_babenko_ranks(gen, n_max):
    assert pbw_ranks(gen, n_max) == babenko_ranks(gen, n_max)


def _exact(end):
    """The ends (V - E) 2^k and (V + E) 2^k of an enclosure, as Fractions."""
    v, e, k = end
    return Fraction(v - e) * Fraction(2) ** k, Fraction(v + e) * Fraction(2) ** k


@settings(derandomize=True, deadline=None, max_examples=100)
@given(gen=GENERATOR_SETS, n_max=st.integers(1, 150), pick=st.integers(0, 10**6))
def test_every_table_window_holds_its_exact_rank(gen, n_max, pick):
    degrees = range(gen.g, n_max + 1, gen.g)
    table = bounds.rank_windows(gen, degrees)
    assert len(table) == len(degrees)
    ranks = babenko_ranks(gen, n_max)
    for n, (lo, hi) in zip(degrees, table):
        assert _exact(lo)[0] <= ranks[n - 1] <= _exact(hi)[1]
    if degrees:
        # rank_window is the one-row table; its ends and the long table's, each stepped from
        # another deepest profile, are enclosures of the same two reals, so they overlap
        row = pick % len(degrees)
        n = degrees[row]
        (one,) = bounds.rank_windows(gen, [n])
        with mp.workprec(profile_bits_of(gen)(n)):
            assert rank_window(gen, n) == tuple(mpf((v, k)) for v, _, k in one)
        for short, long in zip(one, table[row]):
            (a, b), (c, d) = _exact(short), _exact(long)
            assert a <= d and c <= b


@settings(derandomize=True, deadline=None, max_examples=20)
@given(gen=GENERATOR_SETS)
def test_rank_window_check_passes_at_degree_200(gen):
    assert check_rank_window(200, [gen]) == []
