"""Catalog of example spaces and guaranteed torsion lower-bound tables.

A SpaceSpec is a parameterized family, one record holding all the package
knows of it, so a new space is one new record.  report() instantiates it
and builds its rows with bounds.homology_rows / bounds.ktheory_rows, one
BoundReport per (degree, bound kind) and printed as its text.  Homology-route rows
print f_q(N) as the lower bound for the torsion of pi_{N+1}, the homotopy
group one degree up; K-theory-route rows print the guaranteed and the weak
1/M^{1+eps} bound for the p-torsion rank of pi_M of the suspension.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .bounds import BoundReport, KTheoryParams, _as_fraction, _fraction_str, homology_rows, ktheory_params, ktheory_rows
from .charpoly import GeneratorSet
from .combinat import is_odd_prime
from .errors import InvalidArgument, ParameterMismatch

__all__ = ["SpaceSpec", "catalog", "report", "space_by_name"]


@dataclass(frozen=True)
class SpaceSpec:
    """A catalog entry, a homology-route or a K-theory-route family, with all
    the package knows of it: its parameters and the condition on them, stated
    as the refusal states it and as a predicate, and on the K-theory route the
    wedge that generates its K-theory, its connectivity and its dimension."""

    name: str
    route: str  # "homology" | "ktheory"
    params: tuple[str, ...]
    condition: str
    holds: Callable[[dict[str, int]], bool]
    gen: GeneratorSet | None = None  # ktheory only
    conn: int | None = None  # ktheory only
    dim: Callable[[dict[str, int]], int] | None = None  # ktheory only: the rational cohomological dimension

    def check(self, values: dict[str, int]) -> None:
        """Refuse values that do not instantiate the family: missing or foreign
        parameters, then a p that is not an odd prime, then the family's condition."""
        missing = [k for k in self.params if k not in values]
        extra = [k for k in values if k not in self.params]
        if missing or extra:
            raise ParameterMismatch(f"{self.name} takes parameters {self.params}; missing {missing}, extra {extra}")
        if not is_odd_prime(values["p"]):
            raise ParameterMismatch(f"p must be an odd prime, got {values['p']}")
        if not self.holds(values):
            raise ParameterMismatch(f"{self.name} requires {self.condition}")

    def ktheory(self, values: dict[str, int]) -> KTheoryParams:
        """check(values), then the space's cached KTheoryParams, g' among them."""
        if self.route != "ktheory":
            raise ParameterMismatch(f"{self.name} has no K-theory parameters")
        self.check(values)
        return ktheory_params(values["p"], self.gen, self.conn, self.dim(values))


_S3_S5_SUSPENDED = GeneratorSet.of((2, 1), (4, 1))  # S^3 v S^5 into the suspension
_S3_S5_INTO_GROUP = GeneratorSet.of((3, 1), (5, 1))  # S^3 v S^5 into the group itself

_CATALOG = (
    # P^{q+1}(p^r): mod-p^r Moore space; the identity map realizes the homology hypothesis
    SpaceSpec(
        name="moore",
        route="homology",
        params=("q", "p", "r"),
        condition="q >= 2 and r >= 1",
        holds=lambda v: v["q"] >= 2 and v["r"] >= 1,
    ),
    # Sigma K(Z/p^r, q-1): suspended Eilenberg-MacLane space; bottom cell carries the Z/p^r summand
    SpaceSpec(
        name="suspended-em",
        route="homology",
        params=("q", "p", "r"),
        condition="q >= 2 and r >= 1",
        holds=lambda v: v["q"] >= 2 and v["r"] >= 1,
    ),
    # Sigma Gr_k(C^n): S^3 v S^5 -> Sigma Gr_k(C^n) is onto reduced K-theory mod p
    SpaceSpec(
        name="grassmannian",
        route="ktheory",
        params=("n", "k", "p"),
        condition="n >= 3 and 0 < k < n",
        holds=lambda v: v["n"] >= 3 and 0 < v["k"] < v["n"],
        gen=_S3_S5_SUSPENDED,
        conn=1,
        dim=lambda v: 2 * v["k"] * (v["n"] - v["k"]),
    ),
    # Sigma H_{n,l}: S^3 v S^5 -> Sigma H_{n,l} is onto reduced K-theory mod p
    SpaceSpec(
        name="milnor-hypersurface",
        route="ktheory",
        params=("n", "l", "p"),
        condition="n >= 2 and l >= 3",
        holds=lambda v: v["n"] >= 2 and v["l"] >= 3,
        gen=_S3_S5_SUSPENDED,
        conn=1,
        dim=lambda v: 2 * (v["n"] + v["l"] - 1),
    ),
    # Sigma U(n): S^3 v S^5 -> U(n) is onto reduced K-theory mod p; suspends to degrees 3, 5
    SpaceSpec(
        name="unitary",
        route="ktheory",
        params=("n", "p"),
        condition="n >= 3",
        holds=lambda v: v["n"] >= 3,
        gen=_S3_S5_INTO_GROUP,
        conn=0,
        dim=lambda v: v["n"] ** 2,
    ),
    # Sigma SU(n): the U(n) wedge map lifts to SU(n), which is 2-connected
    SpaceSpec(
        name="special-unitary",
        route="ktheory",
        params=("n", "p"),
        condition="n >= 3",
        holds=lambda v: v["n"] >= 3,
        gen=_S3_S5_INTO_GROUP,
        conn=2,
        dim=lambda v: v["n"] ** 2 - 1,
    ),
)


def catalog() -> tuple[SpaceSpec, ...]:
    """The example-space families with guaranteed bounds."""
    return _CATALOG


def space_by_name(name: str) -> SpaceSpec:
    for space in _CATALOG:
        if space.name == name:
            return space
    raise InvalidArgument(
        f"unknown space {name!r}; available: {', '.join(s.name for s in _CATALOG)}"
    )


def report(space: SpaceSpec, params: dict[str, int], degree_range, eps="1/2") -> list[BoundReport]:
    """BoundReport rows for the space at the given parameters.

    Homology route: one row per degree N with bound f_q(N) for the
    torsion of pi_{N+1} summed over Z/p^t, t = r..r.  K-theory route: two
    rows per degree M (guaranteed and weak); every M must be a multiple
    of g' = gcd(g, 2(p-1)).
    """
    if space.route == "ktheory":
        kt = space.ktheory(params)
    else:
        space.check(params)
    # a range of positive step is sorted and without repeats: kept, it is never listed past the ceiling
    ascending = isinstance(degree_range, range) and degree_range.step > 0
    degrees = degree_range if ascending else sorted(set(int(d) for d in degree_range))
    if space.route == "homology":
        return homology_rows(params["q"], params["p"], degrees, note=lambda n: f"bounds rank of pi_{{{n + 1}}} torsion")
    eps = _as_fraction(eps, "eps")
    return ktheory_rows(kt, degrees, eps, note=f"eps={_fraction_str(eps)}")
