"""Brute-force free (differential) graded Lie algebras over F_p.

Everything is realized inside the tensor algebra on the weighted alphabet:
the bracket of homogeneous tensors is [a, b] = ab - (-1)^{|a||b|} ba, and
the basis elements are the standard-factorization bracketings of
super-Lyndon words (Lyndon words, plus ww for Lyndon w of odd degree).
Basis sizes are certified against the exact divisor-sum ranks at
construction time.

Each expansion is its leading (least) word plus larger words (for a
Lyndon word, the word itself: Reutenauer, Free Lie Algebras, 1993,
Thm 5.1), but nothing rests on that citation.  The first time a degree is
used, its leading words are checked to be pairwise distinct.  That is the
certificate: with S the columns of those words, the block E[:, S] of the
expansion matrix E is then triangular with a nonzero diagonal, so the
expansions are independent over F_p.  A zero expansion or two equal
leading words raise DimensionMismatch, as does a count mismatch.  Every
boundary matrix is M = C E, C holding the basis coordinates of the
boundaries, so rank M = rank M[:, S]: boundary ranks come from
L_{n+1} x L_n matrices rather than L_{n+1} x T(n) ones.  A tensor's basis
coordinates come by leading-word reduction (FreeDgl._coords), which is
also an exact test of membership in the span.

Tensors are arrays (FreeDgl.expansion returns a Tensor): an int64 key per
word and an int64 coefficient vector.  A word's key is its letters read as
base-B digits, B = max(alphabet size, 2), left-aligned to W digits, W being
the most letters a word of degree <= up_to can have.  Within one degree
the keys are distinct (two words with equal keys differ by trailing zero
digits, hence in degree) and sort like the words in lexicographic order,
so a key serves as the word's column.  The key of a concatenation ab is
key(a) + key(b) // B^len(a), and d changes one digit.  Letters are read
off a key only as far as the word is long, which _differential_terms and
_preimages know from the basis element: the words of one expansion share
one length, since they permute one multiset of letters.  The expansions
of a degree, and bracket()'s basis pairs, are bracketed together, in flat
numpy passes over chunks of pairs (FreeDgl._tensor_brackets); _combine
merges repeated words there, in the differential and in the reduction.

boundary_rank differentiates nothing.  The entry M[b, s] of the boundary
matrix on the leading word w_s is the sum, over the positions i of w_s and
the letters c with d c = w_s[i], of (-1)^{deg w_s[:i]} times the
coefficient of u = w_s[:i] c w_s[i+1:] in the degree-(n + 1) expansion E_b.
So the keys of these preimages u are computed once per degree, from the
leading words' keys, and sorted; one searchsorted of every expansion key
against them finds the terms that count, and np.add.at adds those terms
into the L_{n+1} x L_n matrix.

This module is deliberately a brute-force oracle: ranks of cycles,
boundaries and homology come from dense Gaussian elimination over F_p,
never from the formulas it is used to check.  The elimination is one
in-place int64 RREF whose pivot step updates every other row in numpy row
blocks of bounded size.  Entries stay in [0, p) and products below
(p - 1)^2, so p is capped at MAX_PRIME, the largest prime with
(p - 1)^2 < 2^63; the reduction's products are of two numbers in [0, p)
too, so basis coordinates are exact up to MAX_PRIME.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .charpoly import GeneratorSet
from .combinat import is_odd_prime
from .errors import (
    DegreeLimitExceeded,
    DimensionMismatch,
    InternalError,
    InvalidArgument,
)
from .lie_rank import babenko_ranks

__all__ = [
    "BasisElement",
    "FpMatrix",
    "FreeDgl",
    "LieElement",
    "Tensor",
    "WeightedAlphabet",
    "subspace_dims",
]

# Largest prime p with (p - 1)^2 < 2^63: every product in the int64 elimination stays exact.
MAX_PRIME = 3_037_000_493


@dataclass(frozen=True)
class WeightedAlphabet:
    """Ordered letters with positive degrees; the order drives Lyndon words."""

    letters: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.letters]
        if not names:
            raise InvalidArgument("alphabet needs at least one letter")
        if len(set(names)) != len(names):
            raise InvalidArgument("letter names must be distinct")
        if any(d < 1 for _, d in self.letters):
            raise InvalidArgument("letter degrees must be >= 1")

    @classmethod
    def moore(cls, q: int) -> "WeightedAlphabet":
        """The two-letter alphabet x (degree q+1), y (degree q) with dx = y."""
        if q < 1:
            raise InvalidArgument(f"moore alphabet requires q >= 1, got {q}")
        return cls((("x", q + 1), ("y", q)))

    @property
    def size(self) -> int:
        return len(self.letters)

    @cached_property
    def degree_list(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.letters)

    def index(self, name: str) -> int:
        for i, (nm, _) in enumerate(self.letters):
            if nm == name:
                return i
        raise InvalidArgument(f"unknown letter {name!r}")

    def generator_set(self) -> GeneratorSet:
        mult: dict[int, int] = {}
        for _, d in self.letters:
            mult[d] = mult.get(d, 0) + 1
        return GeneratorSet.of(*sorted(mult.items()))

    def word_degree(self, word: tuple[int, ...]) -> int:
        degs = self.degree_list
        return sum(degs[i] for i in word)


MOORE_DIFFERENTIAL = {"x": "y", "y": None}  # dx = y, dy = 0 on WeightedAlphabet.moore (the mod-p Moore space)


@dataclass(frozen=True)
class BasisElement:
    """A super-Lyndon word with its standard bracketing.

    For squares the stored word is the doubled word ww; the bracketing is
    [b(w), b(w)].
    """

    word: tuple[int, ...]
    degree: int
    is_square: bool

    @property
    def lyndon_word(self) -> tuple[int, ...]:
        return self.word[: len(self.word) // 2] if self.is_square else self.word

    def bracketing(self):
        """Nested-pair form of the standard bracketing, letters as ints."""
        if self.is_square:
            half = _bracketing(self.lyndon_word)
            return (half, half)
        return _bracketing(self.word)

    def display(self, alphabet: WeightedAlphabet) -> str:
        names = [name for name, _ in alphabet.letters]

        def fmt(tree):
            if isinstance(tree, int):
                return names[tree]
            return f"[{fmt(tree[0])},{fmt(tree[1])}]"

        return fmt(self.bracketing())


def _standard_factorization(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """w = uv with v the lexicographically smallest proper suffix."""
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


def _bracketing(word: tuple[int, ...]):
    if len(word) == 1:
        return word[0]
    u, v = _standard_factorization(word)
    return (_bracketing(u), _bracketing(v))


def _lyndon_words_by_degree(alphabet: WeightedAlphabet, up_to: int) -> dict[int, list[tuple[int, ...]]]:
    """All Lyndon words of total degree <= up_to, grouped by degree.

    Duval's enumeration, written as a depth-first walk over prenecklaces (prefixes of
    powers of Lyndon words) that carries each prefix's period and degree: a prefix is
    Lyndon when its period is its length, and a branch stops once its degree passes up_to.
    """
    degs = alphabet.degree_list
    out: dict[int, list[tuple[int, ...]]] = {n: [] for n in range(1, up_to + 1)}
    word: list[int] = []

    def extend(period: int, degree: int):
        t = len(word)
        first = word[t - period] if t else 0
        for c in range(first, alphabet.size):
            deg = degree + degs[c]
            if deg > up_to:
                continue
            word.append(c)
            if c != first or not t:
                out[deg].append(tuple(word))
                extend(t + 1, deg)
            else:
                extend(period, deg)
            word.pop()

    extend(1, 0)
    return out


def super_lyndon_basis(alphabet: WeightedAlphabet, up_to: int) -> dict[int, list[BasisElement]]:
    """Per-degree basis elements for degrees 1..up_to, certified by count.

    Raises DimensionMismatch if any degree disagrees with the exact rank
    formula for the corresponding generator set.
    """
    if up_to < 1:
        raise InvalidArgument(f"up_to must be >= 1, got {up_to}")
    lyndon = _lyndon_words_by_degree(alphabet, up_to)
    out: dict[int, list[BasisElement]] = {n: [] for n in range(1, up_to + 1)}
    for deg in range(1, up_to + 1):
        for word in lyndon[deg]:
            out[deg].append(BasisElement(word, deg, False))
        if deg % 2 == 0:
            half = deg // 2
            if half % 2 == 1:
                for word in lyndon.get(half, []):
                    out[deg].append(BasisElement(word + word, deg, True))
        out[deg].sort(key=lambda be: (len(be.word), be.word))
    expected = babenko_ranks(alphabet.generator_set(), up_to)
    for deg in range(1, up_to + 1):
        if len(out[deg]) != expected[deg - 1]:
            raise DimensionMismatch(
                f"degree {deg}: {len(out[deg])} super-Lyndon elements but the "
                f"rank formula gives {expected[deg - 1]}"
            )
    return out


class Tensor(NamedTuple):
    """Homogeneous tensor of the tensor algebra: each word's key (its column, see
    the module docstring) with a coefficient in [1, p)."""

    cols: np.ndarray
    coeffs: np.ndarray


class FpMatrix:
    """Dense matrix over F_p, p <= MAX_PRIME, with exact Gaussian elimination.

    An int64 array whose entries already lie in [0, p) is kept as it is, not copied;
    the methods never write to it.
    """

    def __init__(self, data, p: int):
        _check_prime_ceiling(p)
        self.p = p
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise InvalidArgument("FpMatrix expects a two-dimensional array")
        if a.size and (a.min() < 0 or a.max() >= p):
            a = np.mod(a, p, out=a) if a is not data else np.mod(a, p)
        self.a = a

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def rank(self) -> int:
        return len(_row_reduce(self.a.copy(), self.p, self.cols))

    def rref_with_transform(self):
        """(R, E, pivots) with R the RREF and R = E @ self over F_p, read off the reduced [self | I]."""
        a = np.zeros((self.rows, self.cols + self.rows), dtype=np.int64)
        a[:, : self.cols] = self.a
        np.fill_diagonal(a[:, self.cols :], 1)
        pivots = _row_reduce(a, self.p, self.cols)
        rank = len(pivots)
        return a[:rank, : self.cols], a[:rank, self.cols :], pivots


def _check_prime_ceiling(p: int):
    if p > MAX_PRIME:
        raise InvalidArgument(f"p must be <= {MAX_PRIME} for exact int64 elimination, got {p}")


# Cells per row block of the pivot step's update: its two temporaries stay below
# 2 MB whatever the size of the matrix.
_BLOCK_CELLS = 1 << 17
# Products per chunk of _tensor_brackets: its working arrays stay below about 300 kB.
_BRACKET_TERMS = 1 << 11


def _row_reduce(a: np.ndarray, p: int, ncols: int) -> list[int]:
    """Reduce a in place to RREF over its first ncols columns; the pivot columns.

    Entries must lie in [0, p); every product stays below (p - 1)^2.  The rows a
    pivot clears are updated in blocks of at most _BLOCK_CELLS cells; each row
    depends only on itself and the pivot row, so the blocks give the same result
    as one update.
    """
    rows = a.shape[0]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == rows:
            break
        below = np.flatnonzero(a[row:, col])
        if not below.size:
            continue
        pivot = row + below[0]
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
        a[row, col:] = a[row, col:] * pow(int(a[row, col]), -1, p) % p
        others = np.flatnonzero(a[:, col])
        others = others[others != row]
        pivot_row = a[row, col:]
        step = max(1, _BLOCK_CELLS // pivot_row.size)
        for start in range(0, others.size, step):
            block = others[start : start + step]
            update = a[block, col:]
            update -= np.multiply.outer(a[block, col], pivot_row)
            update %= p
            a[block, col:] = update
        pivots.append(col)
    return pivots


class LieElement:
    """Homogeneous F_p linear combination of basis elements."""

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra: "FreeDgl", degree: int, coeffs: dict[BasisElement, int]):
        self.algebra = algebra
        self.degree = degree
        self.coeffs = {be: c % algebra.p for be, c in coeffs.items() if c % algebra.p}
        if any(be.degree != degree for be in self.coeffs):
            raise InvalidArgument("coefficients mix basis elements of different degrees")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for be, c in other.coeffs.items():
            out[be] = out.get(be, 0) + c
        return LieElement(self.algebra, self.degree, out)

    def __rmul__(self, scalar: int) -> "LieElement":
        return LieElement(self.algebra, self.degree, {be: scalar * c for be, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
            and (self.degree == other.degree or not self.coeffs)
        )

    def __repr__(self):
        if not self.coeffs:
            return f"<0 in degree {self.degree}>"
        parts = [
            f"{c}*{be.display(self.algebra.alphabet)}"
            for be, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0].word), kv[0].word))
        ]
        return " + ".join(parts)

    def _check_compatible(self, other: "LieElement"):
        if self.algebra is not other.algebra:
            raise InvalidArgument("elements live in different algebras")
        if self.coeffs and other.coeffs and self.degree != other.degree:
            raise InvalidArgument("elements are not homogeneous of the same degree")


class FreeDgl:
    """Free graded Lie algebra over F_p on a weighted alphabet, with an
    optional degree -1 differential given on letters (name -> name or None).

    up_to is a hard cap: operations that would leave it fail loudly with
    DegreeLimitExceeded rather than truncating.
    """

    def __init__(
        self,
        alphabet: WeightedAlphabet,
        p: int,
        up_to: int,
        d_letters: dict[str, str | None] | None = None,
    ):
        _check_prime_ceiling(p)
        if not is_odd_prime(p):
            raise InvalidArgument(f"p must be an odd prime, got {p}")
        if up_to < 1:
            raise InvalidArgument(f"up_to must be >= 1, got {up_to}")
        self._base = max(alphabet.size, 2)
        width = up_to // min(alphabet.degree_list)  # the most letters a word can have
        if width >= 63 or self._base**width > np.iinfo(np.int64).max:  # B >= 2, so 63 digits never fit
            raise InvalidArgument(
                f"words of up to {width} letters over {alphabet.size} letters have "
                f"{self._base}^{width} keys, more than int64 holds; lower up_to"
            )
        # the place value of each letter position: keys are left-aligned to width digits
        self._place = self._base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        self.alphabet = alphabet
        self.p = p
        self.up_to = up_to
        self.basis_by_degree = super_lyndon_basis(alphabet, up_to)
        self.d_image = self._resolve_differential(d_letters)
        self._degrees = np.array(alphabet.degree_list, dtype=np.int64)
        self._expansion_cache: dict[tuple[int, ...], Tensor] = {}  # by word (ww for a square)
        self._expanded = 0  # every degree up to this one is in _expansion_cache
        self._lead_cache: dict[int, tuple] = {}  # degree -> (sorted S, basis elements in S order)
        self._pair_cache: dict[tuple[BasisElement, BasisElement], dict] = {}

    # -- construction helpers ------------------------------------------------

    def _resolve_differential(self, d_letters) -> np.ndarray | None:
        """Letter images as an int array over the alphabet, -1 where d is zero."""
        if d_letters is None:
            return None
        degs = dict(self.alphabet.letters)
        image = np.full(self.alphabet.size, -1, dtype=np.int64)
        for name, target in d_letters.items():
            i = self.alphabet.index(name)
            if target is None:
                continue
            j = self.alphabet.index(target)
            if degs[target] != degs[name] - 1:
                raise InvalidArgument(
                    f"d({name}) = {target} is not a degree -1 assignment"
                )
            image[i] = j
        return image

    def dims(self) -> list[int]:
        """dim L_n for n = 1..up_to."""
        return [len(self.basis_by_degree[n]) for n in range(1, self.up_to + 1)]

    def zero(self, degree: int) -> LieElement:
        return LieElement(self, degree, {})

    def letter(self, name: str) -> LieElement:
        i = self.alphabet.index(name)
        deg = self.alphabet.degree_list[i]
        return LieElement(self, deg, {BasisElement((i,), deg, False): 1})

    def from_basis(self, be: BasisElement, coeff: int = 1) -> LieElement:
        return LieElement(self, be.degree, {be: coeff})

    # -- tensor algebra ------------------------------------------------------

    def expansion(self, be: BasisElement) -> Tensor:
        """Tensor-algebra expansion of a basis element, its words sorted by key.

        The first request in a degree expands it and each lower degree not yet expanded,
        one _tensor_brackets call a degree: [b(u), b(v)] for uv Lyndon, [b(w), b(w)] for ww.
        """
        for n in range(self._expanded + 1, be.degree + 1):
            pairs, words = [], []
            for elem in self.basis_by_degree[n]:
                if len(elem.word) == 1:
                    self._expansion_cache[elem.word] = Tensor(elem.word[0] * self._place[:1], np.ones(1, np.int64))
                    continue
                u, v = (elem.lyndon_word,) * 2 if elem.is_square else _standard_factorization(elem.word)
                pairs.append((self._expansion_cache[u], u, self._expansion_cache[v], v))
                words.append(elem.word)
            self._expansion_cache.update(zip(words, self._tensor_brackets(pairs)))
            self._expanded = n
        return self._expansion_cache[be.word]

    def _tensor_brackets(self, pairs: list) -> Iterator[Tensor]:
        """[a, b] = ab - (-1)^{|u||v|} ba for each (a, u, b, v) of pairs, in order: a and
        b are tensors whose words have the degree and the length of the words u and v;
        repeated words are merged mod p and zeros dropped.

        The key of a concatenation is its left factor's key plus its right factor's key
        shifted right by the left factor's length, so the keys of all products come from
        one flat outer sum.  Pairs go in chunks of at most _BRACKET_TERMS products (or one
        pair); the i-th pair's products are labelled i B^W + key, below 2^63, so one
        _combine merges each pair's terms apart, sorted by pair, and the labels split back.
        """
        if not pairs:
            return
        span = self._base ** len(self._place)  # every key lies below B^W
        cuts, terms = [0], 0
        for i, (x, _, y, _) in enumerate(pairs):  # a chunk's labels stay below 2^63
            if terms and (terms + len(x.cols) * len(y.cols) > _BRACKET_TERMS or (i - cuts[-1] + 1) * span > 2**63):
                cuts.append(i)
                terms = 0
            terms += len(x.cols) * len(y.cols)
        for lo, hi in zip(cuts, cuts[1:] + [len(pairs)]):
            a, u, b, v = zip(*pairs[lo:hi])
            na, nb = (np.array([len(t.cols) for t in x], dtype=np.int64) for x in (a, b))
            pair = np.repeat(np.arange(hi - lo), na * nb)  # each product's pair, row-major within it
            flat = np.arange(len(pair)) - (np.cumsum(na * nb) - na * nb)[pair]
            ia = (np.cumsum(na) - na)[pair] + flat // nb[pair]
            ib = (np.cumsum(nb) - nb)[pair] + flat % nb[pair]
            ka, kb = np.concatenate([t.cols for t in a])[ia], np.concatenate([t.cols for t in b])[ib]
            prod = np.concatenate([t.coeffs for t in a])[ia] * np.concatenate([t.coeffs for t in b])[ib] % self.p
            shift_u, shift_v = (self._base ** np.array([len(w) for w in x], dtype=np.int64) for x in (u, v))
            odd = np.array([self.alphabet.word_degree(x) * self.alphabet.word_degree(y) % 2 for x, y in zip(u, v)])
            label = pair * span
            cols, coeffs = _combine(
                np.concatenate([label + ka + kb // shift_u[pair], label + kb + ka // shift_v[pair]]),
                np.concatenate([prod, np.where(odd[pair], prod, -prod)]),
                self.p,
            )
            ends = [0, *np.searchsorted(cols, np.arange(1, hi - lo) * span).tolist(), len(cols)]
            cols %= span
            yield from (Tensor(cols[s:e], coeffs[s:e]) for s, e in zip(ends, ends[1:]))

    def _letters(self, keys: np.ndarray, length: int) -> np.ndarray:
        """The first length letters of each key's word, one row per key: length must
        be the words' length, or trailing padding would read as letter 0."""
        return keys[:, None] // self._place[:length] % self._base

    def _differential_terms(self, be: BasisElement) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values) of d on the expansion of be: one term per letter with an
        image, signed by the parity of the degree before it."""
        t = self.expansion(be)
        letters = self._letters(t.cols, len(be.word))
        degs = self._degrees[letters]
        targets = self.d_image[letters]
        k, i = np.nonzero(targets >= 0)
        cols = t.cols[k] - (letters[k, i] - targets[k, i]) * self._place[i]
        before = (np.cumsum(degs, axis=1) - degs)[k, i]
        return cols, np.where(before % 2, -t.coeffs[k], t.coeffs[k])

    def _leading_columns(self, n: int) -> tuple[np.ndarray, list[BasisElement]]:
        """The sorted keys S of the leading (least) words of the degree-n basis
        expansions, certified pairwise distinct, with their basis elements in the
        same order.

        An expansion's words are sorted by key, so its first is its least.  With
        the rows of the expansion matrix E taken in the order of their leading
        keys, E[:, S] is then triangular with a nonzero diagonal: the expansions
        are independent, and a tensor in their span is fixed by its entries on S.
        A zero expansion or two equal leading keys raise DimensionMismatch.
        """
        lead = self._lead_cache.get(n)
        if lead is None:
            elems = self.basis_by_degree[n]
            expansions = zip(elems, map(self.expansion, elems))
            firsts = [(e.cols[0], be) for be, e in expansions if len(e.cols)]
            cols = np.array([c for c, _ in firsts], dtype=np.int64)
            order = np.argsort(cols)
            cols = cols[order]
            if len(cols) < len(elems) or np.any(cols[1:] == cols[:-1]):
                raise DimensionMismatch(
                    f"basis expansions in degree {n} do not have distinct leading words, "
                    f"so their independence over F_{self.p} is not certified"
                )
            lead = self._lead_cache[n] = (cols, [firsts[i][1] for i in order])
        return lead

    def _coords(self, cols: np.ndarray, coeffs: np.ndarray, n: int) -> dict[BasisElement, int]:
        """Basis coordinates of a degree-n tensor (sorted distinct keys, coefficients
        in [1, p)) by leading-word reduction.  A nonzero element of the span has a
        leading word as its least word, where its coefficient is the coordinate times
        the expansion's first (2 for a square); each step subtracts that multiple of
        the expansion, and a least word that leads no expansion is outside the span."""
        lead, elems = self._leading_columns(n)
        p = self.p
        out: dict[BasisElement, int] = {}
        while cols.size:
            s = np.searchsorted(lead, cols[0])
            if s == len(lead) or lead[s] != cols[0]:
                raise InternalError("tensor is not in the span of the Lie basis")
            e = self.expansion(elems[s])
            c = out[elems[s]] = int(coeffs[0]) * pow(int(e.coeffs[0]), -1, p) % p
            cols, coeffs = _combine(  # the least words cancel, so they are left out
                np.concatenate([cols[1:], e.cols[1:]]), np.concatenate([coeffs[1:], (p - c) * e.coeffs[1:] % p]), p
            )
        return out

    # -- Lie operations ------------------------------------------------------

    def bracket(self, a: LieElement, b: LieElement) -> LieElement:
        if a.algebra is not self or b.algebra is not self:
            raise InvalidArgument("elements belong to a different algebra")
        n = a.degree + b.degree
        if n > self.up_to:
            raise DegreeLimitExceeded(
                f"bracket lands in degree {n} > cap {self.up_to}"
            )
        new = [(x, y) for x in a.coeffs for y in b.coeffs if (x, y) not in self._pair_cache]
        brackets = self._tensor_brackets([(self.expansion(x), x.word, self.expansion(y), y.word) for x, y in new])
        for key, t in zip(new, brackets):
            self._pair_cache[key] = self._coords(t.cols, t.coeffs, n)
        out: dict[BasisElement, int] = {}
        for x, ca in a.coeffs.items():
            for y, cb in b.coeffs.items():
                for be, c in self._pair_cache[(x, y)].items():
                    out[be] = out.get(be, 0) + ca * cb * c
        return LieElement(self, n, out)

    def differential(self, e: LieElement) -> LieElement:
        """Apply the degree -1 derivation determined by the letter images."""
        if self.d_image is None:
            raise InvalidArgument("algebra has no differential configured")
        n = e.degree - 1
        cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for be, c in e.coeffs.items():
            col, val = self._differential_terms(be)
            cols.append(col)
            vals.append(val * c % self.p)
        cols, coeffs = _combine(np.concatenate(cols), np.concatenate(vals), self.p)
        if n < 1:
            if cols.size:
                raise InternalError("differential image escaped below degree 1")
            return self.zero(max(n, 0))
        return LieElement(self, n, self._coords(cols, coeffs, n))

    def tau(self, u: LieElement, k: int) -> LieElement:
        """ad^{p^k - 1}(u)(du); degree p^k |u| - 1."""
        self._check_cycle_input(u, k)
        target = self.p**k * u.degree - 1
        if target > self.up_to:
            raise DegreeLimitExceeded(f"tau lands in degree {target} > cap {self.up_to}")
        acc = self.differential(u)
        for _ in range(self.p**k - 1):
            acc = self.bracket(u, acc)
        return acc

    def sigma(self, u: LieElement, k: int) -> LieElement:
        """(1/2) sum_j (C(p^k, j)/p) [ad^{j-1}(u)(du), ad^{p^k-1-j}(u)(du)].

        1/2 means the inverse of 2 in F_p; degree p^k |u| - 2.
        """
        from .combinat import binom_div_p

        self._check_cycle_input(u, k)
        pk = self.p**k
        target = pk * u.degree - 2
        if target > self.up_to:
            raise DegreeLimitExceeded(f"sigma lands in degree {target} > cap {self.up_to}")
        ad = [self.differential(u)]  # ad^0(u)(du)
        for _ in range(pk - 2):
            ad.append(self.bracket(u, ad[-1]))
        half = pow(2, -1, self.p)
        out = self.zero(target)
        for j in range(1, pk):
            c = binom_div_p(self.p, k, j) % self.p
            if c:
                out = out + (half * c) * self.bracket(ad[j - 1], ad[pk - 1 - j])
        return out

    def _check_cycle_input(self, u: LieElement, k: int):
        if u.algebra is not self:
            raise InvalidArgument("element belongs to a different algebra")
        if u.degree % 2:
            raise InvalidArgument("tau/sigma require an even-degree element")
        if k < 1:
            raise InvalidArgument(f"k must be >= 1, got {k}")
        if self.d_image is None:
            raise InvalidArgument("algebra has no differential configured")

    # -- linear-algebra summaries ---------------------------------------------

    def boundary_rank(self, n: int) -> int:
        """rank of d: L_{n+1} -> L_n over F_p (0 when either side is empty).

        The boundary matrix is M = C E, with C the basis coordinates of the
        boundaries and E the degree-n expansion matrix, whose block E[:, S] on the
        leading columns is invertible (_leading_columns).  So rank M = rank C =
        rank M[:, S], and only the L_{n+1} x L_n matrix M[:, S] is built, gathered
        from the degree-(n + 1) expansions at the preimages of the leading words.
        """
        if self.d_image is None:
            raise InvalidArgument("algebra has no differential configured")
        if n + 1 > self.up_to:
            raise DegreeLimitExceeded(f"need degree {n + 1} > cap {self.up_to}")
        elems = self.basis_by_degree.get(n + 1, [])
        if not elems or n < 1:
            return 0
        lead = self._leading_columns(n)[0]
        if not lead.size:
            return 0
        pre, target, sign = self._preimages(n)
        expansions = [self.expansion(be) for be in elems]
        cols = np.concatenate([e.cols for e in expansions])
        coeffs = np.concatenate([e.coeffs for e in expansions])
        ends = np.cumsum([len(e.cols) for e in expansions])  # term k belongs to row searchsorted(ends, k, "right")
        mat = np.zeros((len(elems), len(lead)), dtype=np.int64)
        at = np.searchsorted(pre, cols)
        k = np.flatnonzero(pre[at] == cols)
        at = at[k]
        while k.size:  # a key that U holds twice is matched once per copy
            np.add.at(mat, (np.searchsorted(ends, k, "right"), target[at]), sign[at] * coeffs[k])
            at += 1
            more = pre[at] == cols[k]
            k, at = k[more], at[more]
        return FpMatrix(np.mod(mat, self.p, out=mat), self.p).rank()

    def _preimages(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, targets, signs) for the leading words w_s of degree n, s in the order of
        their keys.

        U holds, sorted, the key of every degree-(n + 1) word u = w_s[:i] c w_s[i+1:]
        with d(c) = w_s[i], whose differential has the term (-1)^{deg w_s[:i]} w_s; each
        entry keeps its target s and that sign.  One word u can reach two leading words,
        so U can hold a key twice.  U ends in B^W, above every key, so a search never
        runs off its end.
        """
        lead, elems = self._leading_columns(n)
        image = self.d_image
        groups: dict[int, list[int]] = {}
        for s, be in enumerate(elems):
            groups.setdefault(len(be.word), []).append(s)
        cols, targets, signs = ([np.empty(0, dtype=np.int64)] for _ in range(3))
        for length, group in groups.items():
            group = np.array(group)
            w = self._letters(lead[group], length)
            degs = self._degrees[w]
            before = np.cumsum(degs, axis=1) - degs
            for c in np.flatnonzero(image >= 0):
                rows, pos = np.nonzero(w == image[c])
                cols.append(lead[group[rows]] + (c - image[c]) * self._place[pos])
                targets.append(group[rows])
                signs.append(1 - 2 * (before[rows, pos] % 2))
        cols = np.concatenate(cols)
        order = np.argsort(cols, kind="stable")
        return (
            np.append(cols[order], self._base ** len(self._place)),
            np.concatenate(targets)[order],
            np.concatenate(signs)[order],
        )


def _combine(cols: np.ndarray, coeffs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge the terms of a tensor that share a key: (cols, coeffs) with the
    surviving keys sorted, their coefficients summed mod p and all nonzero."""
    order = np.argsort(cols)
    cols = cols[order]
    first = np.ones(len(cols), dtype=bool)
    np.not_equal(cols[1:], cols[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    coeffs = np.add.reduceat(coeffs[order], starts) % p
    nonzero = coeffs != 0
    return cols[starts[nonzero]], coeffs[nonzero]


def subspace_dims(
    alphabet: WeightedAlphabet,
    d_letters: dict[str, str | None],
    p: int,
    up_to: int,
) -> dict[str, list[int]]:
    """Per-degree dims of L_n, cycles Z_n, boundaries B_n, homology H_n.

    B_n is the rank of d: L_{n+1} -> L_n, so the basis is built internally
    one degree beyond up_to.  Indices in the returned lists are n = 1..up_to.
    """
    alg = FreeDgl(alphabet, p, up_to + 1, d_letters)
    dims = alg.dims()[:up_to]
    bnd = [alg.boundary_rank(n) for n in range(0, up_to + 1)]  # bnd[n] = B_n
    cycles = [dims[n - 1] - bnd[n - 1] for n in range(1, up_to + 1)]
    homology = [cycles[n - 1] - bnd[n] for n in range(1, up_to + 1)]
    return {
        "dim": dims,
        "cycles": cycles,
        "boundaries": bnd[1:],
        "homology": homology,
    }

