import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsion_bounds import (
    GeneratorSet,
    InvalidArgument,
    OracleInconsistency,
    babenko_rank,
    babenko_ranks,
    pbw_ranks,
    tensor_dims,
)
from torsion_bounds.lie_rank import _pbw_solve
from torsion_bounds.verify import check_g_divisibility, check_oracle_equivalence, check_rank_window


def test_tensor_dims_examples():
    assert tensor_dims(GeneratorSet.of((2, 1), (3, 1)), 10) == [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7]
    assert tensor_dims(GeneratorSet.of((1, 1)), 4) == [1, 1, 1, 1, 1]
    assert tensor_dims(GeneratorSet.of((1, 2)), 3) == [1, 2, 4, 8]


def test_babenko_known_values():
    one_odd = GeneratorSet.of((1, 1))
    assert [babenko_rank(one_odd, n) for n in (1, 2, 3)] == [1, 1, 0]
    one_even = GeneratorSet.of((2, 1))
    assert babenko_rank(one_even, 2) == 1
    assert babenko_rank(one_even, 4) == 0
    assert babenko_rank(GeneratorSet.of((2, 1), (3, 1)), 5) == 1
    assert babenko_rank(GeneratorSet.of((1, 2)), 3) == 2


def test_babenko_rejects_zero():
    with pytest.raises(InvalidArgument):
        babenko_rank(GeneratorSet.of((1, 1)), 0)


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


# random generator sets: up to four distinct degrees in 1..8, multiplicities 1..4
GENERATOR_SETS = st.dictionaries(st.integers(1, 8), st.integers(1, 4), min_size=1, max_size=4).map(
    lambda mult: GeneratorSet.of(*sorted(mult.items()))
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(gen=GENERATOR_SETS, n_max=st.integers(1, 60))
def test_pbw_ranks_equal_babenko_ranks(gen, n_max):
    assert pbw_ranks(gen, n_max) == babenko_ranks(gen, n_max)
