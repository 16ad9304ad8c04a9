import time
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torsion_bounds import (
    DegreeLimitExceeded,
    DimensionMismatch,
    FpMatrix,
    FreeDgl,
    GeneratorSet,
    InternalError,
    InvalidArgument,
    WeightedAlphabet,
    babenko_ranks,
    subspace_dims,
)
from torsion_bounds import dgl_fp
from torsion_bounds.combinat import binom_div_p
from torsion_bounds.dgl_fp import MAX_PRIME, LieElement, _standard_factorization, super_lyndon_basis
from torsion_bounds.lie_rank import tensor_dims
from torsion_bounds.verify import (
    check_basis_certification,
    check_cycle_elements,
    check_differential_squares_to_zero,
    check_graded_jacobi,
    check_rank_nullity,
    run_suite,
)

MOORE_D = {"x": "y", "y": None}


def moore_algebra(q, p, up_to):
    return FreeDgl(WeightedAlphabet.moore(q), p, up_to, MOORE_D)


def test_alphabet_validation():
    with pytest.raises(InvalidArgument):
        WeightedAlphabet((("x", 1), ("x", 2)))
    with pytest.raises(InvalidArgument):
        WeightedAlphabet((("x", 0),))
    alpha = WeightedAlphabet.moore(2)
    assert alpha.letters == (("x", 3), ("y", 2))
    assert alpha.generator_set() == GeneratorSet.of((2, 1), (3, 1))


def test_basis_size_examples():
    sizes = [len(v) for v in super_lyndon_basis(WeightedAlphabet.moore(2), 6).values()]
    assert sizes == [0, 1, 1, 0, 1, 1]
    sizes = [len(v) for v in super_lyndon_basis(WeightedAlphabet((("x", 1),)), 3).values()]
    assert sizes == [1, 1, 0]
    sizes = [len(v) for v in super_lyndon_basis(WeightedAlphabet((("x", 1), ("y", 1))), 2).values()]
    assert sizes == [2, 3]


def test_basis_matches_rank_formula_and_is_independent():
    assert check_basis_certification(qs=(2, 3), ps=(3, 5), up_to=14) == []


def test_basis_certified_against_formula_two_odd_letters():
    alg = FreeDgl(WeightedAlphabet((("x", 1), ("y", 1))), 3, 10)
    assert alg.dims() == babenko_ranks(GeneratorSet.of((1, 2)), 10)


def test_bracket_even_square_vanishes():
    alg = moore_algebra(2, 3, 14)
    y = alg.letter("y")  # degree 2, even
    assert alg.bracket(y, y).is_zero()


def test_bracket_of_letters_is_basis_element():
    alg = moore_algebra(2, 3, 14)
    out = alg.bracket(alg.letter("x"), alg.letter("y"))
    assert len(out.coeffs) == 1
    (be, c), = out.coeffs.items()
    assert not be.is_square and be.degree == 5 and c in (1, alg.p - 1)


def test_bracket_odd_square_is_square_element():
    alg = moore_algebra(2, 3, 14)
    x = alg.letter("x")  # degree 3, odd
    out = alg.bracket(x, x)
    (be, c), = out.coeffs.items()
    assert be.is_square and be.degree == 6 and c == 1


def test_bracket_degree_cap_fails_loudly():
    alg = moore_algebra(2, 3, 5)
    x = alg.letter("x")
    with pytest.raises(DegreeLimitExceeded):
        alg.bracket(x, x)  # degree 6 > cap 5


def test_differential_examples():
    alg = moore_algebra(2, 3, 14)
    x, y = alg.letter("x"), alg.letter("y")
    assert alg.differential(x) == y
    assert alg.differential(y).is_zero()
    # d[x,x] = [y,x] - [x,y] = -2[x,y]; mod 3 the coefficient is 1
    xx = alg.bracket(x, x)
    dxx = alg.differential(xx)
    xy = alg.bracket(x, y)
    assert dxx == (-2) * xy


def test_differential_squares_to_zero():
    assert check_differential_squares_to_zero(qs=(2, 3), ps=(3, 5), up_to=12) == []


def test_differential_squares_to_zero_at_max_prime():
    # every product of the bracket, the differential and the reduction stays below (p - 1)^2
    assert check_differential_squares_to_zero(qs=(1,), ps=(MAX_PRIME,), up_to=12) == []


def test_graded_jacobi_sample():
    assert check_graded_jacobi(samples=60, seed=5) == []


def test_tau_is_iterated_bracket():
    # q=3, p=3: tau_1(x) = [x, [x, y]] in degree 11
    alg = moore_algebra(3, 3, 12)
    x, y = alg.letter("x"), alg.letter("y")
    t = alg.tau(x, 1)
    assert t.degree == 11
    assert t == alg.bracket(x, alg.bracket(x, y))
    assert alg.differential(t).is_zero()


def test_sigma_degree_and_cycle():
    alg = moore_algebra(3, 3, 12)
    x = alg.letter("x")
    s = alg.sigma(x, 1)
    assert s.degree == 10
    assert not s.is_zero()
    assert alg.differential(s).is_zero()


def test_sigma_pairs_combine_by_antisymmetry():
    'the j and p^k - j terms are equal, so the half-sum has integer form'
    alg = moore_algebra(3, 3, 12)
    x = alg.letter("x")
    pk = 3
    du = alg.differential(x)
    ad = [du]
    for _ in range(pk - 2):
        ad.append(alg.bracket(x, ad[-1]))
    explicit = alg.zero(10)
    for j in range(1, (pk - 1) // 2 + 1):
        c = binom_div_p(3, 1, j) % 3
        explicit = explicit + c * alg.bracket(ad[j - 1], ad[pk - 1 - j])
    assert explicit == alg.sigma(x, 1)


def test_tau_sigma_preconditions():
    alg = moore_algebra(2, 3, 14)
    x = alg.letter("x")  # degree 3: odd, not allowed
    with pytest.raises(InvalidArgument):
        alg.tau(x, 1)
    alg2 = moore_algebra(3, 3, 6)
    with pytest.raises(DegreeLimitExceeded):
        alg2.tau(alg2.letter("x"), 1)  # needs degree 11


def test_cycle_elements_check():
    assert check_cycle_elements(3, 3) == []


def test_subspace_dims_examples():
    dims = subspace_dims(WeightedAlphabet.moore(2), MOORE_D, 3, 6)
    assert dims["boundaries"][2 - 1] == 1  # d(x) = y spans L_2
    assert dims["boundaries"][4 - 1] == 0  # L_4 = 0
    assert dims["boundaries"][5 - 1] == 1  # d[x,x] = -2[y,x] != 0
    assert dims["dim"] == [0, 1, 1, 0, 1, 1]


def test_rank_nullity_and_nonnegative_homology():
    assert check_rank_nullity(2, 3, 12) == []
    assert check_rank_nullity(3, 5, 12) == []


def test_fp_matrix_rank():
    mat = FpMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 3]], 5)
    assert mat.rank() == 2  # row 2 = 2*row 1 mod 5
    assert FpMatrix(np.zeros((2, 3), dtype=int), 3).rank() == 0


def test_prime_ceiling():
    # (p - 1)^2 >= 2^63 above MAX_PRIME, so int64 products could wrap around
    assert (MAX_PRIME - 1) ** 2 < 2**63 <= (4294967311 - 1) ** 2
    with pytest.raises(InvalidArgument):
        FpMatrix([[1]], 4294967311)
    with pytest.raises(InvalidArgument):
        FreeDgl(WeightedAlphabet.moore(2), 4294967311, 6)
    assert FpMatrix([[MAX_PRIME - 1, 1], [1, MAX_PRIME - 1]], MAX_PRIME).rank() == 1
    assert FreeDgl(WeightedAlphabet.moore(2), MAX_PRIME, 6, MOORE_D).p == MAX_PRIME


def _reference_row_reduce(a, p, transform=None):
    """The row-by-row elimination the vectorised one replaced, kept as a reference."""
    rows, cols = a.shape
    row = 0
    for col in range(cols):
        pivot = None
        for i in range(row, rows):
            if a[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
            if transform is not None:
                transform[[row, pivot]] = transform[[pivot, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row] = a[row] * inv % p
        if transform is not None:
            transform[row] = transform[row] * inv % p
        for i in range(rows):
            if i != row and a[i, col]:
                f = int(a[i, col])
                a[i] = (a[i] - f * a[row]) % p
                if transform is not None:
                    transform[i] = (transform[i] - f * transform[row]) % p
        row += 1
        if row == rows:
            break
    return a, transform, row


def _reference_pivot_columns(rref, rank):
    pivots = []
    col = 0
    for r in range(rank):
        while not rref[r, col]:
            col += 1
        pivots.append(col)
    return pivots


@st.composite
def fp_matrices(draw):
    """(entries, p): a random matrix, or a product of two through a narrow middle
    dimension so that it is rank-deficient, with entries reduced mod p."""
    p = draw(st.sampled_from([3, 5, 7, 13, 65537, MAX_PRIME]))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def grid(n, m):
        return draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m), min_size=n, max_size=n))

    if draw(st.booleans()):
        return grid(rows, cols), p
    k = draw(st.integers(0, min(rows, cols)))
    left, right = grid(rows, k), grid(k, cols)
    return [[sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(cols)] for i in range(rows)], p


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=fp_matrices())
def test_elimination_matches_reference(case):
    entries, p = case
    m = FpMatrix(entries, p)
    ref = np.array(entries, dtype=np.int64)
    ref_e = np.eye(m.rows, dtype=np.int64)
    _, _, rank = _reference_row_reduce(ref, p, ref_e)
    assert m.rank() == rank == _reference_row_reduce(m.a.copy(), p)[2]
    r, e, pivots = m.rref_with_transform()
    assert np.array_equal(r, ref[:rank])
    assert np.array_equal(e, ref_e[:rank])
    assert pivots == _reference_pivot_columns(ref, rank)
    assert np.array_equal(m.a, np.array(entries, dtype=np.int64))  # the input is left as it was
    # R = E M over F_p, in exact integers
    exact = e.astype(object).dot(np.array(entries, dtype=object)) % p
    assert np.array_equal(exact.astype(np.int64), r)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=fp_matrices(), block_cells=st.integers(1, 9))
def test_elimination_in_row_blocks_matches_reference(case, block_cells):
    # a pivot step updates the rows it clears a few cells at a time on matrices larger than one block
    entries, p = case
    ref = np.array(entries, dtype=np.int64)
    ref_e = np.eye(len(entries), dtype=np.int64)
    _, _, rank = _reference_row_reduce(ref, p, ref_e)
    with patch.object(dgl_fp, "_BLOCK_CELLS", block_cells):
        m = FpMatrix(entries, p)
        assert m.rank() == rank
        r, e, pivots = m.rref_with_transform()
    assert np.array_equal(r, ref[:rank]) and np.array_equal(e, ref_e[:rank])
    assert pivots == _reference_pivot_columns(ref, rank)


def test_fp_matrix_keeps_a_reduced_array_and_never_writes_to_its_input():
    reduced = np.array([[1, 2, 0], [2, 4, 1]], dtype=np.int64)
    assert FpMatrix(reduced, 5).a is reduced
    raw = np.array([[6, -3, 10], [2, 4, 1]], dtype=np.int64)
    m = FpMatrix(raw, 5)
    assert m.a.tolist() == [[1, 2, 0], [2, 4, 1]]
    assert m.rank() == 2 and m.rref_with_transform()[2] == [0, 2]
    assert raw.tolist() == [[6, -3, 10], [2, 4, 1]]
    assert reduced.tolist() == [[1, 2, 0], [2, 4, 1]]


def test_rank_peak_memory_is_at_most_twice_the_matrix():
    # a reduced int64 matrix is not copied on construction, and the pivot step's
    # temporaries are bounded by row blocks, so rank() holds one working copy
    rng = np.random.default_rng(0)
    m = rng.integers(0, 3, (600, 12)).dot(rng.integers(0, 3, (12, 2400))) % 3  # rank <= 12: quick
    assert m.dtype == np.int64 and m.size > 8 * dgl_fp._BLOCK_CELLS
    tracemalloc.start()
    try:
        rank = FpMatrix(m, 3).rank()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 12
    assert peak <= 2.0 * m.nbytes


def test_algebra_validation():
    with pytest.raises(InvalidArgument):
        FreeDgl(WeightedAlphabet.moore(2), 2, 6)  # p must be odd prime
    with pytest.raises(InvalidArgument):
        FreeDgl(WeightedAlphabet.moore(2), 3, 6, {"x": "x"})  # not degree -1
    alg = FreeDgl(WeightedAlphabet.moore(2), 3, 6)
    with pytest.raises(InvalidArgument):
        alg.differential(alg.letter("x"))  # no differential configured


def test_key_space_ceiling_is_checked_before_the_basis():
    # 3^39 < 2^63 <= 3^40: three degree-1 letters fit in int64 keys up to degree 39 only
    def refuse(*args):
        raise AssertionError("super_lyndon_basis called")

    three = WeightedAlphabet((("a", 1), ("b", 1), ("c", 1)))
    with patch.object(dgl_fp, "super_lyndon_basis", refuse):
        start = time.perf_counter()
        with pytest.raises(InvalidArgument, match="int64"):
            FreeDgl(three, 3, 40)
        assert time.perf_counter() - start < 0.1
    with patch.object(dgl_fp, "super_lyndon_basis", lambda alphabet, up_to: {}):
        FreeDgl(three, 3, 39)
    # the largest algebra the dgl command builds: --q 1 --upto 20, one degree beyond
    alg = moore_algebra(1, 3, 21)
    assert alg.dims() == babenko_ranks(WeightedAlphabet.moore(1).generator_set(), 21)


# -- the word keys and the array tensors against the dict-of-tuples build they replaced


def _reference_words_of_degree(degs, n):
    """Every word of degree n in the recursive (lexicographic) order of the dense columns."""
    words = []

    def rec(prefix, remaining):
        if remaining == 0:
            words.append(prefix)
            return
        for i, d in enumerate(degs):
            if d <= remaining:
                rec(prefix + (i,), remaining - d)

    rec((), n)
    return words


def _reference_bracket(ea, da, eb, db, p):
    sign = -1 if (da % 2) and (db % 2) else 1
    out = {}
    for wa, ca in ea.items():
        for wb, cb in eb.items():
            k = wa + wb
            out[k] = out.get(k, 0) + ca * cb
            k = wb + wa
            out[k] = out.get(k, 0) - sign * ca * cb
    return {w: c % p for w, c in out.items() if c % p}


def _reference_expansion(be, degs, p, cache):
    def expand(word):
        if word not in cache:
            if len(word) == 1:
                cache[word] = {word: 1}
            else:
                u, v = _standard_factorization(word)
                cache[word] = _reference_bracket(expand(u), _degree(u, degs), expand(v), _degree(v, degs), p)
        return cache[word]

    if be.is_square:
        e, d = expand(be.lyndon_word), _degree(be.lyndon_word, degs)
        return _reference_bracket(e, d, e, d, p)
    return expand(be.word)


def _degree(word, degs):
    return sum(degs[i] for i in word)


def _reference_differential(tensor, degs, d_map, p):
    out = {}
    for word, c in tensor.items():
        pre = 0
        for i, letter in enumerate(word):
            img = d_map[letter]
            if img is not None:
                w = word[:i] + (img,) + word[i + 1 :]
                out[w] = out.get(w, 0) + (-c if pre % 2 else c)
            pre += degs[letter]
    return {w: c % p for w, c in out.items() if c % p}


def _key_space(degs, up_to):
    """(B, W): keys are W base-B digits, B = max(letters, 2), W = up_to // least degree."""
    return max(len(degs), 2), up_to // min(degs)


def _reference_keys(degs, up_to, words):
    """Each word's key, computed in Python integers: its letters as base-B digits, left-aligned."""
    base, width = _key_space(degs, up_to)
    return np.array([sum(c * base ** (width - 1 - i) for i, c in enumerate(w)) for w in words], dtype=np.int64)


def _dense(degs, up_to, n, keys):
    """The dense column of each degree-n key: its place among the reference words' keys."""
    ref = _reference_keys(degs, up_to, _reference_words_of_degree(degs, n))
    at = np.searchsorted(ref, keys)
    assert np.all(at < len(ref)) and np.array_equal(ref[at], keys)
    return at


def _reference_matrix(degs, n, tensors):
    index = {w: i for i, w in enumerate(_reference_words_of_degree(degs, n))}
    mat = np.zeros((len(tensors), len(index)), dtype=np.int64)
    for i, tensor in enumerate(tensors):
        for w, c in tensor.items():
            mat[i, index[w]] = c
    return mat


@st.composite
def dgl_cases(draw):
    """(degrees, letter map, p, up_to): 2-3 letters of degree 1-3 in random order and a
    random degree -1 map on them, with up_to cut so that T(up_to) stays small."""
    degs = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    d_map = {
        i: draw(st.sampled_from([None] + [j for j, e in enumerate(degs) if e == d - 1]))
        for i, d in enumerate(degs)
    }
    p = draw(st.sampled_from([3, 5, 65537, MAX_PRIME]))
    up_to = draw(st.integers(2, 10))
    gen = GeneratorSet.of(*((d, degs.count(d)) for d in sorted(set(degs))))
    while tensor_dims(gen, up_to)[-1] > 600:
        up_to -= 1
    return degs, d_map, p, up_to


def _case_algebra(degs, d_map, p, up_to):
    names = [f"l{i}" for i in range(len(degs))]
    alpha = WeightedAlphabet(tuple(zip(names, degs)))
    return FreeDgl(alpha, p, up_to, {names[i]: None if j is None else names[j] for i, j in d_map.items()})


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=dgl_cases())
def test_word_index_and_matrices_match_dict_reference(case):
    # once with every bracket pair in a chunk of its own, once with the default chunks
    for terms in (1, dgl_fp._BRACKET_TERMS):
        with patch.object(dgl_fp, "_BRACKET_TERMS", terms):
            _check_against_dict_reference(case)


def _check_against_dict_reference(case):
    degs, d_map, p, up_to = case
    alg = _case_algebra(degs, d_map, p, up_to)

    # in each degree the keys rise with the dense columns and stay below the sentinel B^W,
    # so every leading word, every gathered M[:, S] and every rank is the dense index's
    base, width = _key_space(degs, up_to)
    for n in range(1, up_to + 1):
        keys = _reference_keys(degs, up_to, _reference_words_of_degree(degs, n)).tolist()
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(0 <= k < base**width <= np.iinfo(np.int64).max for k in keys)

    cache = {}
    expansions = {}
    for n in range(1, up_to + 1):
        for be in alg.basis_by_degree[n]:
            expansions[be] = _reference_expansion(be, degs, p, cache)
            e = alg.expansion(be)
            words = list(expansions[be])
            assert dict(zip(_reference_keys(degs, up_to, words).tolist(), expansions[be].values())) == dict(
                zip(e.cols.tolist(), e.coeffs.tolist())
            )
            assert np.all(e.cols[1:] > e.cols[:-1])

    lead = {}
    for n in range(1, up_to + 1):
        elems = alg.basis_by_degree[n]
        ref = _reference_matrix(degs, n, [expansions[be] for be in elems])
        lead[n] = _reference_leading_columns(ref)
        got_lead, in_order = alg._leading_columns(n)
        assert _dense(degs, up_to, n, got_lead).tolist() == lead[n] and sorted(in_order, key=elems.index) == elems
        # each basis element's reference row leads at its place in S, with its first key
        assert [int(np.flatnonzero(ref[elems.index(be)])[0]) for be in in_order] == lead[n]
        assert got_lead.tolist() == [int(alg.expansion(be).cols[0]) for be in in_order]

    for n, mat, ref in _boundary_matrices(alg, degs, d_map, p, expansions):
        if lead[n]:
            assert np.array_equal(mat, ref[:, lead[n]])
            assert FpMatrix(mat, p).rank() == _reference_row_reduce(ref.copy(), p)[2]
        else:
            assert mat is None and not ref.any()


def _reference_leading_columns(mat):
    """Sorted column of each row's first nonzero entry, asserted distinct."""
    lead = sorted(int(np.flatnonzero(row)[0]) for row in mat)
    assert len(set(lead)) == len(lead)
    return lead


def _boundary_matrices(alg, degs, d_map, p, expansions):
    """(n, the matrix boundary_rank(n) hands to FpMatrix.rank or None, the whole
    boundary matrix of the dict reference) for every n with L_{n+1} nonempty."""
    captured = []
    real_rank = FpMatrix.rank

    def rank(self):
        captured.append(self.a.copy())
        return real_rank(self)

    out = []
    with patch.object(FpMatrix, "rank", rank):
        for n in range(1, alg.up_to):
            captured.clear()
            got = alg.boundary_rank(n)
            elems = alg.basis_by_degree[n + 1]
            if elems:
                images = [_reference_differential(expansions[be], degs, d_map, p) for be in elems]
                mat = captured.pop() if captured else None
                assert not captured and got == (0 if mat is None else real_rank(FpMatrix(mat, p)))
                out.append((n, mat, _reference_matrix(degs, n, images)))
    return out


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=dgl_cases())
def test_leading_column_rank_equals_full_reference_rank(case):
    degs, d_map, p, up_to = case
    alg = _case_algebra(degs, d_map, p, up_to)
    cache = {}
    expansions = {
        be: _reference_expansion(be, degs, p, cache) for n in range(1, up_to + 1) for be in alg.basis_by_degree[n]
    }
    for n, mat, ref in _boundary_matrices(alg, degs, d_map, p, expansions):
        full_rank = _reference_row_reduce(ref.copy(), p)[2]
        assert alg.boundary_rank(n) == full_rank
        assert (0 if mat is None else _reference_row_reduce(mat.copy(), p)[2]) == full_rank


@pytest.mark.parametrize(
    "letters, d_letters, p, up_to",
    [
        (WeightedAlphabet.moore(1).letters, MOORE_D, 3, 12),
        # a and b both map to c, so each c in a leading word has two preimages
        ((("a", 2), ("b", 2), ("c", 1)), {"a": "c", "b": "c", "c": None}, 5, 10),
        # the same with the target first: letter 0 is what the padding digits of a key read as
        ((("c", 1), ("a", 2), ("b", 2)), {"a": "c", "b": "c", "c": None}, 5, 10),
    ],
    ids=["moore1-p3", "two-letters-one-target", "target-is-letter-0"],
)
def test_gathered_boundary_matrices_match_dict_reference(letters, d_letters, p, up_to):
    alg = FreeDgl(WeightedAlphabet(letters), p, up_to, d_letters)
    degs = alg.alphabet.degree_list
    names = [name for name, _ in letters]
    d_map = {names.index(a): None if b is None else names.index(b) for a, b in d_letters.items()}
    preimages = Counter(j for j in d_map.values() if j is not None)  # letter -> how many letters map to it
    cache = {}
    expansions = {
        be: _reference_expansion(be, degs, p, cache) for n in range(1, up_to + 1) for be in alg.basis_by_degree[n]
    }
    repeated = False
    for n, mat, ref in _boundary_matrices(alg, degs, d_map, p, expansions):
        lead = _reference_leading_columns(_reference_matrix(degs, n, [expansions[be] for be in alg.basis_by_degree[n]]))
        if lead:
            assert np.array_equal(mat, ref[:, lead])
            words = [_reference_words_of_degree(degs, n)[c] for c in lead]
            pre, target, sign = alg._preimages(n)
            # one entry per position of a leading word and letter mapping to it, then the sentinel
            assert len(pre) - 1 == len(target) == len(sign) == sum(preimages[c] for w in words for c in w)
            base, width = _key_space(degs, up_to)
            assert pre[-1] == base**width
            _dense(degs, up_to, n + 1, pre[:-1])  # every preimage key is a word of degree n + 1
            # some degree-(n + 1) word reaches two leading words
            repeated |= bool(np.any(pre[1:] == pre[:-1]))
    assert repeated


def test_boundary_rank_peak_memory_per_expansion_term():
    # M[:, S] is gathered from the degree-17 expansions, so the working arrays hold a
    # few numbers per expansion term; differentiating every term took about 440 bytes
    alg = moore_algebra(1, 3, 17)
    terms = sum(len(alg.expansion(be).coeffs) for be in alg.basis_by_degree[17])
    for be in alg.basis_by_degree[16]:
        alg.expansion(be)
    matrix = 8 * len(alg.basis_by_degree[17]) * len(alg.basis_by_degree[16])
    tracemalloc.start()
    try:
        assert alg.boundary_rank(16) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * terms + matrix


def test_expansions_in_a_key_space_near_int64_match_dict_reference():
    # B^W = 2^62, so a chunk takes at most two pairs: the labels i 2^62 + key stay below 2^63
    degs, p, up_to = (1, 20), 3, 62
    alg = FreeDgl(WeightedAlphabet((("a", 1), ("b", 20))), p, up_to)
    assert _key_space(degs, up_to) == (2, 62) and max(len(alg.basis_by_degree[n]) for n in range(1, up_to + 1)) > 2
    cache = {}
    for n in range(1, up_to + 1):
        for be in alg.basis_by_degree[n]:
            ref, e = _reference_expansion(be, degs, p, cache), alg.expansion(be)
            keys = _reference_keys(degs, up_to, list(ref)).tolist()
            assert dict(zip(keys, ref.values())) == dict(zip(e.cols.tolist(), e.coeffs.tolist()))


def test_expansion_peak_memory_is_the_kept_terms_plus_one_chunk():
    # a degree is expanded in chunks of _BRACKET_TERMS products, with about a hundred
    # bytes of working arrays a product; the 11340 products of degree 17 fill six chunks
    alg = moore_algebra(1, 3, 17)
    alg.expansion(alg.basis_by_degree[16][0])
    tracemalloc.start()
    try:
        alg.expansion(alg.basis_by_degree[17][0])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= 16 * sum(len(alg.expansion(be).cols) for be in alg.basis_by_degree[17])
    assert peak < kept + 256 * dgl_fp._BRACKET_TERMS


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=dgl_cases(), data=st.data())
def test_bracket_of_sums_matches_dict_reference(case, data):
    # bracket() sends every pair of basis elements through one _tensor_brackets call
    degs, d_map, p, up_to = case
    alg = _case_algebra(degs, d_map, p, up_to)
    degrees = [(n, m) for n in range(1, up_to) for m in range(1, up_to + 1 - n)]
    degrees = [(n, m) for n, m in degrees if alg.basis_by_degree[n] and alg.basis_by_degree[m]]
    assume(degrees)
    n, m = data.draw(st.sampled_from(degrees))
    coeffs = []
    for elems in (alg.basis_by_degree[n], alg.basis_by_degree[m]):
        terms = data.draw(st.lists(st.sampled_from(elems), min_size=min(2, len(elems)), unique=True))
        coeffs.append({be: data.draw(st.integers(1, p - 1)) for be in terms})
    cache = {}

    def tensor(coeffs):  # the dict reference's expansion of a sum of basis elements
        out = Counter()
        for be, c in coeffs.items():
            for w, e in _reference_expansion(be, degs, p, cache).items():
                out[w] += c * e
        return {w: c % p for w, c in out.items() if c % p}

    want = _reference_bracket(tensor(coeffs[0]), n, tensor(coeffs[1]), m, p)
    for terms in (1, dgl_fp._BRACKET_TERMS):
        with patch.object(dgl_fp, "_BRACKET_TERMS", terms):
            alg = _case_algebra(degs, d_map, p, up_to)
            got = alg.bracket(LieElement(alg, n, coeffs[0]), LieElement(alg, m, coeffs[1]))
        assert tensor(got.coeffs) == want


def test_shared_leading_column_raises_dimension_mismatch():
    def differentiate(alg, n):  # the coordinates of a degree-n differential
        return alg.differential(alg.from_basis(alg.basis_by_degree[n + 1][0]))

    for force in (FreeDgl.boundary_rank, FreeDgl._leading_columns, differentiate):
        alg = moore_algebra(1, 3, 8)
        first, second = alg.basis_by_degree[5][:2]
        real = alg.expansion
        alg.expansion = lambda be: real(first) if be == second else real(be)
        with pytest.raises(DimensionMismatch):
            force(alg, 5)


def test_boundary_rank_eliminates_only_the_leading_columns():
    # the cells FpMatrix.rank sees over a subspace_dims run are sum L_{n+1} L_n,
    # not the sum L_{n+1} T(n) of the whole boundary matrices
    alpha = WeightedAlphabet.moore(1)
    cells = []
    real_rank = FpMatrix.rank

    def rank(self):
        cells.append(self.a.size)
        return real_rank(self)

    with patch.object(FpMatrix, "rank", rank):
        subspace_dims(alpha, MOORE_D, 3, 12)
    dims = babenko_ranks(alpha.generator_set(), 13)
    assert sum(cells) == sum(dims[n] * dims[n - 1] for n in range(1, 13)) > 0


# -- the basis solve against the one it replaced


class _FullSolveDgl(FreeDgl):
    """FreeDgl with the basis solve it had before the leading-word reduction, kept as
    a reference: R = E M is the RREF of the whole L_n x T(n) expansion matrix M on the
    dense columns of the reference words, read off the reduced [M | I]; a tensor in
    the span is u R for u its entries at the pivots, and its coordinates are u E (in
    exact integers here)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._full_solves = {}

    def _coords(self, cols, coeffs, n):
        degs = self.alphabet.degree_list
        vec = np.zeros(len(_reference_words_of_degree(degs, n)), dtype=np.int64)
        vec[_dense(degs, self.up_to, n, cols)] = coeffs
        if n not in self._full_solves:
            elems = self.basis_by_degree[n]
            mat = np.zeros((len(elems), len(vec)), dtype=np.int64)
            for row, be in enumerate(elems):
                e = self.expansion(be)
                mat[row, _dense(degs, self.up_to, n, e.cols)] = e.coeffs
            rref, transform, pivots = FpMatrix(mat, self.p).rref_with_transform()
            assert len(pivots) == len(elems)
            self._full_solves[n] = rref.astype(object), transform.astype(object), pivots
        rref, transform, pivots = self._full_solves[n]
        u = vec[pivots].astype(object)
        if np.any((u.dot(rref) - vec) % self.p):
            raise InternalError("tensor is not in the span of the Lie basis")
        x = u.dot(transform) % self.p
        elems = self.basis_by_degree[n]
        return {elems[i]: int(x[i]) for i in np.flatnonzero(x)}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=dgl_cases())
def test_brackets_and_differentials_match_the_full_solve(case):
    degs, d_map, p, up_to = case
    names = [f"l{i}" for i in range(len(degs))]
    args = (WeightedAlphabet(tuple(zip(names, degs))), p, up_to)
    d_letters = {names[i]: None if j is None else names[j] for i, j in d_map.items()}
    alg, ref = FreeDgl(*args, d_letters), _FullSolveDgl(*args, d_letters)
    elems = [be for n in range(1, up_to + 1) for be in alg.basis_by_degree[n]]
    for be in elems:
        assert alg.differential(alg.from_basis(be)).coeffs == ref.differential(ref.from_basis(be)).coeffs
    pairs = [(a, b) for a in elems for b in elems if a.degree + b.degree <= up_to]
    for a, b in pairs[:: max(1, len(pairs) // 150)]:
        assert alg.bracket(alg.from_basis(a), alg.from_basis(b)).coeffs == (
            ref.bracket(ref.from_basis(a), ref.from_basis(b)).coeffs
        )
    # zero on the leading columns, so in the span only if it is zero
    keys = _reference_keys(degs, up_to, _reference_words_of_degree(degs, up_to))
    cols = np.setdiff1d(keys, alg._leading_columns(up_to)[0])
    coeffs = np.ones(len(cols), dtype=np.int64)
    for solve in (alg._coords, ref._coords):
        if cols.size:
            with pytest.raises(InternalError):
                solve(cols, coeffs, up_to)
        else:
            assert solve(cols, coeffs, up_to) == {}


@pytest.mark.parametrize("q, p", [(1, 3), (1, 5), (1, 7), (3, 3), (3, 5)])
def test_tau_and_sigma_match_the_full_solve(q, p):
    up_to = p * (q + 1) - 1  # tau_1(x) lands there
    alg, ref = moore_algebra(q, p, up_to), _FullSolveDgl(WeightedAlphabet.moore(q), p, up_to, MOORE_D)
    x, ref_x = alg.letter("x"), ref.letter("x")
    assert alg.tau(x, 1).coeffs == ref.tau(ref_x, 1).coeffs
    sigma = alg.sigma(x, 1)
    assert sigma.coeffs == ref.sigma(ref_x, 1).coeffs and not sigma.is_zero()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=dgl_cases(), seed=st.integers(0, 2**32 - 1))
def test_coords_recover_random_coordinates(case, seed):
    # the tensor sum x_i E_i, merged in Python integers, must give back exactly x
    degs, _, case_p, up_to = case
    alpha = WeightedAlphabet(tuple((f"l{i}", d) for i, d in enumerate(degs)))
    rng = np.random.default_rng(seed)
    for p in sorted({case_p, MAX_PRIME}):
        alg = FreeDgl(alpha, p, up_to)
        for n in range(1, up_to + 1):
            elems = alg.basis_by_degree[n]
            x = {be: int(rng.integers(1, p)) for be in elems if rng.random() < 0.6}
            tensor = {}
            for be, c in x.items():
                e = alg.expansion(be)
                for col, k in zip(e.cols.tolist(), e.coeffs.tolist()):
                    tensor[col] = (tensor.get(col, 0) + c * k) % p
            cols = np.array(sorted(col for col, k in tensor.items() if k), dtype=np.int64)
            coeffs = np.array([tensor[col] for col in cols.tolist()], dtype=np.int64)
            assert alg._coords(cols, coeffs, n) == x


def test_dgl_verify_checks_never_reach_rref_with_transform():
    def refuse(self):
        raise AssertionError("rref_with_transform called")

    with patch.object(FpMatrix, "rref_with_transform", refuse):
        assert [(label, fails) for _, label, fails in run_suite("dgl") if fails] == []
