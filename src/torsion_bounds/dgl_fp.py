"""Brute-force free (differential) graded Lie algebras over F_p.

Everything is realized inside the tensor algebra on the weighted alphabet:
the bracket of homogeneous tensors is [a, b] = ab - (-1)^{|a||b|} ba, and
the basis elements are the standard-factorization bracketings of
super-Lyndon words (Lyndon words, plus ww for Lyndon w of odd degree).
Expressing a tensor back in the basis is a linear solve over F_p against
the per-degree basis expansion matrix.  Basis sizes are certified against
the exact divisor-sum ranks at construction time, and linear independence
of the expansions is certified when a degree is first row-reduced; either
failure raises DimensionMismatch.

This module is deliberately a brute-force oracle: ranks of cycles,
boundaries and homology come from dense Gaussian elimination over F_p,
never from the formulas it is used to check.  The elimination is one
in-place int64 RREF whose pivot step updates every other row in a single
numpy block; the transform of rref_with_transform is read off the reduced
[M | I].  Entries stay in [0, p) and products below (p - 1)^2, so p is
capped at MAX_PRIME, the largest prime with (p - 1)^2 < 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charpoly import GeneratorSet
from .combinat import is_odd_prime
from .errors import (
    DegreeLimitExceeded,
    DimensionMismatch,
    InternalError,
    InvalidArgument,
)
from .lie_rank import babenko_ranks, tensor_dims

__all__ = [
    "BasisElement",
    "FpMatrix",
    "FreeDgl",
    "LieElement",
    "WeightedAlphabet",
    "subspace_dims",
]

DEFAULT_DEGREE_CAP = 14
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

    @property
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


def _is_lyndon(word: tuple[int, ...]) -> bool:
    n = len(word)
    if n == 1:
        return True
    return all(word < word[i:] for i in range(1, n))


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
    """All Lyndon words of total degree <= up_to, grouped by degree (Duval)."""
    s = alphabet.size
    max_len = up_to // min(alphabet.degree_list)
    out: dict[int, list[tuple[int, ...]]] = {n: [] for n in range(1, up_to + 1)}
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        word = tuple(w)
        deg = alphabet.word_degree(word)
        if deg <= up_to:
            out[deg].append(word)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == s - 1:
            w.pop()
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


class FpMatrix:
    """Dense matrix over F_p, p <= MAX_PRIME, with exact Gaussian elimination."""

    def __init__(self, data, p: int):
        _check_prime_ceiling(p)
        self.p = p
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise InvalidArgument("FpMatrix expects a two-dimensional array")
        self.a = np.mod(a, p)

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
        a = np.hstack([self.a, np.eye(self.rows, dtype=np.int64)])
        pivots = _row_reduce(a, self.p, self.cols)
        rank = len(pivots)
        return a[:rank, : self.cols], a[:rank, self.cols :], pivots


def _check_prime_ceiling(p: int):
    if p > MAX_PRIME:
        raise InvalidArgument(f"p must be <= {MAX_PRIME} for exact int64 elimination, got {p}")


def _row_reduce(a: np.ndarray, p: int, ncols: int) -> list[int]:
    """Reduce a in place to RREF over its first ncols columns; the pivot columns.

    Entries must lie in [0, p); every product stays below (p - 1)^2.
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
        if others.size:
            a[others, col:] = (a[others, col:] - np.outer(a[others, col], a[row, col:])) % p
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

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "LieElement":
        return LieElement(self.algebra, self.degree, {be: scalar * c for be, c in self.coeffs.items()})

    def __neg__(self) -> "LieElement":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
            and (self.degree == other.degree or not self.coeffs)
        )

    def __hash__(self):
        return hash((id(self.algebra), self.degree, frozenset(self.coeffs.items())))

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
        up_to: int = DEFAULT_DEGREE_CAP,
        d_letters: dict[str, str | None] | None = None,
    ):
        _check_prime_ceiling(p)
        if not is_odd_prime(p):
            raise InvalidArgument(f"p must be an odd prime, got {p}")
        if up_to < 1:
            raise InvalidArgument(f"up_to must be >= 1, got {up_to}")
        self.alphabet = alphabet
        self.p = p
        self.up_to = up_to
        self.basis_by_degree = super_lyndon_basis(alphabet, up_to)
        self.d_letters = self._resolve_differential(d_letters)
        self._tensor_dims = tensor_dims(alphabet.generator_set(), up_to)
        self._expansion_cache: dict[tuple[int, ...], dict] = {}
        self._words_cache: dict[int, dict[tuple[int, ...], int]] = {}
        self._solver_cache: dict[int, tuple] = {}  # degree -> (R, E, pivots) of its basis expansions
        self._pair_cache: dict[tuple[BasisElement, BasisElement], dict] = {}

    # -- construction helpers ------------------------------------------------

    def _resolve_differential(self, d_letters):
        if d_letters is None:
            return None
        degs = dict(self.alphabet.letters)
        resolved: dict[int, int | None] = {}
        for name, target in d_letters.items():
            i = self.alphabet.index(name)
            if target is None:
                resolved[i] = None
                continue
            j = self.alphabet.index(target)
            if degs[target] != degs[name] - 1:
                raise InvalidArgument(
                    f"d({name}) = {target} is not a degree -1 assignment"
                )
            resolved[i] = j
        for i in range(self.alphabet.size):
            resolved.setdefault(i, None)
        return resolved

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

    def _expand_lyndon(self, word: tuple[int, ...]) -> dict:
        cached = self._expansion_cache.get(word)
        if cached is not None:
            return cached
        if len(word) == 1:
            result = {word: 1}
        else:
            u, v = _standard_factorization(word)
            result = self._tensor_bracket(
                self._expand_lyndon(u),
                self.alphabet.word_degree(u),
                self._expand_lyndon(v),
                self.alphabet.word_degree(v),
            )
        self._expansion_cache[word] = result
        return result

    def expansion(self, be: BasisElement) -> dict:
        """Tensor-algebra expansion of a basis element (word -> F_p coeff)."""
        if be.is_square:
            half = be.lyndon_word
            e = self._expand_lyndon(half)
            d = self.alphabet.word_degree(half)
            return self._tensor_bracket(e, d, e, d)
        return self._expand_lyndon(be.word)

    def _tensor_bracket(self, ea: dict, da: int, eb: dict, db: int) -> dict:
        sign = -1 if (da % 2) and (db % 2) else 1
        out: dict[tuple[int, ...], int] = {}
        for wa, ca in ea.items():
            for wb, cb in eb.items():
                k = wa + wb
                out[k] = out.get(k, 0) + ca * cb
                k = wb + wa
                out[k] = out.get(k, 0) - sign * ca * cb
        p = self.p
        return {w: c % p for w, c in out.items() if c % p}

    def _words_of_degree(self, n: int) -> dict[tuple[int, ...], int]:
        cached = self._words_cache.get(n)
        if cached is not None:
            return cached
        degs = self.alphabet.degree_list
        words: list[tuple[int, ...]] = []

        def rec(prefix: tuple[int, ...], remaining: int):
            if remaining == 0:
                words.append(prefix)
                return
            for i, d in enumerate(degs):
                if d <= remaining:
                    rec(prefix + (i,), remaining - d)

        rec((), n)
        if n <= self.up_to and len(words) != self._tensor_dims[n]:
            raise InternalError(f"word count in degree {n} disagrees with tensor dims")
        index = {w: i for i, w in enumerate(words)}
        self._words_cache[n] = index
        return index

    def _matrix(self, n: int, rows: int, tensors) -> np.ndarray:
        """int64 matrix over the words of degree n, filled one row per tensor.

        tensors may be a generator, so no list of all tensors is held.
        """
        index = self._words_of_degree(n)
        mat = np.zeros((rows, len(index)), dtype=np.int64)
        for i, tensor in enumerate(tensors):
            for w, c in tensor.items():
                mat[i, index[w]] = c
        return mat

    def _solver(self, n: int) -> tuple:
        solver = self._solver_cache.get(n)
        if solver is not None:
            return solver
        elems = self.basis_by_degree[n]
        mat = self._matrix(n, len(elems), (self.expansion(be) for be in elems))
        solver = FpMatrix(mat, self.p).rref_with_transform()
        if len(solver[2]) != len(elems):
            raise DimensionMismatch(
                f"basis expansions in degree {n} are linearly dependent over F_{self.p}"
            )
        self._solver_cache[n] = solver
        return solver

    def _coords(self, tensor: dict, n: int) -> dict[BasisElement, int]:
        """Basis coordinates of a degree-n tensor: with R = E M, the tensor is u R for u
        its entries at the pivots, so its coordinates are u E."""
        if not tensor:
            return {}
        vec = self._matrix(n, 1, [tensor])[0]
        rref, transform, pivots = self._solver(n)
        u = vec[pivots] % self.p
        if np.any((u @ rref - vec) % self.p):
            raise InternalError("tensor is not in the span of the Lie basis")
        x = u @ transform % self.p
        elems = self.basis_by_degree[n]
        return {elems[i]: int(x[i]) for i in np.nonzero(x)[0]}

    # -- Lie operations ------------------------------------------------------

    def bracket(self, a: LieElement, b: LieElement) -> LieElement:
        if a.algebra is not self or b.algebra is not self:
            raise InvalidArgument("elements belong to a different algebra")
        n = a.degree + b.degree
        if n > self.up_to:
            raise DegreeLimitExceeded(
                f"bracket lands in degree {n} > cap {self.up_to}"
            )
        out: dict[BasisElement, int] = {}
        for ba, ca in a.coeffs.items():
            for bb, cb in b.coeffs.items():
                for be, c in self._basis_pair_bracket(ba, bb).items():
                    out[be] = out.get(be, 0) + ca * cb * c
        return LieElement(self, n, out)

    def _basis_pair_bracket(self, ba: BasisElement, bb: BasisElement) -> dict:
        cached = self._pair_cache.get((ba, bb))
        if cached is not None:
            return cached
        tensor = self._tensor_bracket(
            self.expansion(ba), ba.degree, self.expansion(bb), bb.degree
        )
        result = self._coords(tensor, ba.degree + bb.degree)
        self._pair_cache[(ba, bb)] = result
        return result

    def _tensor_differential(self, tensor: dict, d_map: dict[int, int | None]) -> dict:
        degs = self.alphabet.degree_list
        out: dict[tuple[int, ...], int] = {}
        for word, c in tensor.items():
            pre = 0
            for i, letter in enumerate(word):
                img = d_map[letter]
                if img is not None:
                    w = word[:i] + (img,) + word[i + 1 :]
                    s = -c if pre % 2 else c
                    out[w] = out.get(w, 0) + s
                pre += degs[letter]
        p = self.p
        return {w: c % p for w, c in out.items() if c % p}

    def differential(self, e: LieElement, d_letters: dict[str, str | None] | None = None) -> LieElement:
        """Apply the degree -1 derivation determined by the letter images."""
        if d_letters is None:
            d_map = self.d_letters
            if d_map is None:
                raise InvalidArgument("algebra has no differential configured")
        else:
            d_map = self._resolve_differential(d_letters)
        n = e.degree - 1
        tensor: dict[tuple[int, ...], int] = {}
        for be, c in e.coeffs.items():
            for w, cw in self.expansion(be).items():
                tensor[w] = tensor.get(w, 0) + c * cw
        image = self._tensor_differential(tensor, d_map)
        if n < 1:
            if image:
                raise InternalError("differential image escaped below degree 1")
            return self.zero(max(n, 0))
        return LieElement(self, n, self._coords(image, n))

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
        if self.d_letters is None:
            raise InvalidArgument("algebra has no differential configured")

    # -- linear-algebra summaries ---------------------------------------------

    def boundary_rank(self, n: int) -> int:
        """rank of d: L_{n+1} -> L_n over F_p (0 when either side is empty)."""
        if self.d_letters is None:
            raise InvalidArgument("algebra has no differential configured")
        if n + 1 > self.up_to:
            raise DegreeLimitExceeded(f"need degree {n + 1} > cap {self.up_to}")
        elems = self.basis_by_degree.get(n + 1, [])
        if not elems or n < 1:
            return 0
        images = (self._tensor_differential(self.expansion(be), self.d_letters) for be in elems)
        return FpMatrix(self._matrix(n, len(elems), images), self.p).rank()


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
    dims = [len(alg.basis_by_degree[n]) for n in range(1, up_to + 1)]
    bnd = [alg.boundary_rank(n) for n in range(0, up_to + 1)]  # bnd[n] = B_n
    cycles = [dims[n - 1] - bnd[n - 1] for n in range(1, up_to + 1)]
    homology = [cycles[n - 1] - bnd[n] for n in range(1, up_to + 1)]
    return {
        "dim": dims,
        "cycles": cycles,
        "boundaries": bnd[1:],
        "homology": homology,
    }

