"""Catalog of example spaces and guaranteed torsion lower-bound tables.

A SpaceSpec is a parameterized family; report() instantiates it and builds
its rows with bounds.homology_rows / bounds.ktheory_rows, one BoundReport
per (degree, bound kind) and printed as its text.  Homology-route rows
print f_q(N) as the lower bound for the torsion of pi_{N+1}, the homotopy
group one degree up; K-theory-route rows print the guaranteed and the weak
1/M^{1+eps} bound for the p-torsion rank of pi_M of the suspension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundReport, _as_fraction, _fraction_str, homology_rows, ktheory_params, ktheory_rows
from .charpoly import GeneratorSet
from .combinat import is_odd_prime
from .errors import InvalidArgument, ParameterMismatch

__all__ = ["SpaceSpec", "catalog", "report", "space_by_name"]


@dataclass(frozen=True)
class SpaceSpec:
    """A catalog entry: either a homology-route or a K-theory-route family."""

    name: str
    route: str  # "homology" | "ktheory"
    display: str
    params: tuple[str, ...]
    note: str
    gen: GeneratorSet | None = None  # ktheory only
    conn: int | None = None  # ktheory only

    def dim(self, values: dict[str, int]) -> int:
        if self.route != "ktheory":
            raise ParameterMismatch(f"{self.name} has no K-theory dimension")
        return _DIMS[self.name](values)

    def g_prime(self, p: int) -> int:
        if self.route != "ktheory":
            raise ParameterMismatch(f"{self.name} has no K-theory step g'")
        return math.gcd(self.gen.g, 2 * (p - 1))


_S3_S5_SUSPENDED = GeneratorSet.of((2, 1), (4, 1))  # S^3 v S^5 into the suspension
_S3_S5_INTO_GROUP = GeneratorSet.of((3, 1), (5, 1))  # S^3 v S^5 into the group itself

_CATALOG = (
    SpaceSpec(
        name="moore",
        route="homology",
        display="P^{q+1}(p^r)",
        params=("q", "p", "r"),
        note="mod-p^r Moore space; the identity map realizes the homology hypothesis",
    ),
    SpaceSpec(
        name="suspended-em",
        route="homology",
        display="Sigma K(Z/p^r, q-1)",
        params=("q", "p", "r"),
        note="suspended Eilenberg-MacLane space; bottom cell carries the Z/p^r summand",
    ),
    SpaceSpec(
        name="grassmannian",
        route="ktheory",
        display="Sigma Gr_k(C^n)",
        params=("n", "k", "p"),
        note="S^3 v S^5 -> Sigma Gr_k(C^n) is onto reduced K-theory mod p (n >= 3, 0 < k < n)",
        gen=_S3_S5_SUSPENDED,
        conn=1,
    ),
    SpaceSpec(
        name="milnor-hypersurface",
        route="ktheory",
        display="Sigma H_{n,l}",
        params=("n", "l", "p"),
        note="S^3 v S^5 -> Sigma H_{n,l} is onto reduced K-theory mod p (n >= 2, l >= 3)",
        gen=_S3_S5_SUSPENDED,
        conn=1,
    ),
    SpaceSpec(
        name="unitary",
        route="ktheory",
        display="Sigma U(n)",
        params=("n", "p"),
        note="S^3 v S^5 -> U(n) is onto reduced K-theory mod p (n >= 3); suspends to degrees 3, 5",
        gen=_S3_S5_INTO_GROUP,
        conn=0,
    ),
    SpaceSpec(
        name="special-unitary",
        route="ktheory",
        display="Sigma SU(n)",
        params=("n", "p"),
        note="the U(n) wedge map lifts to SU(n), which is 2-connected",
        gen=_S3_S5_INTO_GROUP,
        conn=2,
    ),
)

_DIMS = {
    "grassmannian": lambda v: 2 * v["k"] * (v["n"] - v["k"]),
    "milnor-hypersurface": lambda v: 2 * (v["n"] + v["l"] - 1),
    "unitary": lambda v: v["n"] ** 2,
    "special-unitary": lambda v: v["n"] ** 2 - 1,
}


def _validate_params(space: SpaceSpec, values: dict[str, int]):
    missing = [k for k in space.params if k not in values]
    extra = [k for k in values if k not in space.params]
    if missing or extra:
        raise ParameterMismatch(
            f"{space.name} takes parameters {space.params}; missing {missing}, extra {extra}"
        )
    p = values["p"]
    if not is_odd_prime(p):
        raise ParameterMismatch(f"p must be an odd prime, got {p}")
    if space.route == "homology":
        if values["q"] < 2:
            raise ParameterMismatch(f"{space.name} requires q >= 2, got {values['q']}")
        if values["r"] < 1:
            raise ParameterMismatch(f"{space.name} requires r >= 1, got {values['r']}")
    elif space.name == "grassmannian":
        if values["n"] < 3 or not 0 < values["k"] < values["n"]:
            raise ParameterMismatch("grassmannian requires n >= 3 and 0 < k < n")
    elif space.name == "milnor-hypersurface":
        if values["n"] < 2 or values["l"] < 3:
            raise ParameterMismatch("milnor-hypersurface requires n >= 2 and l >= 3")
    else:
        if values["n"] < 3:
            raise ParameterMismatch(f"{space.name} requires n >= 3")


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
    _validate_params(space, params)
    # a range of positive step is sorted and without repeats: kept, it is never listed past the ceiling
    ascending = isinstance(degree_range, range) and degree_range.step > 0
    degrees = degree_range if ascending else sorted(set(int(d) for d in degree_range))
    p = params["p"]
    if space.route == "homology":
        return homology_rows(params["q"], p, degrees, note=lambda n: f"bounds rank of pi_{{{n + 1}}} torsion")
    kt = ktheory_params(p, space.gen, space.conn, space.dim(params))
    eps = _as_fraction(eps, "eps")
    return ktheory_rows(kt, degrees, eps, note=f"eps={_fraction_str(eps)}")
