"""Algebra-valued accessibility relations over a finite universe.

An instance is a finite Heyting algebra H, a finite universe U, and a
total map R : U x U -> H.  Predicates are H-valued functions on U and
the four operators act pointwise by

    (dia phi)(x)  = join_y  R(x,y) & phi(y)
    (box phi)(x)  = meet_y  R(x,y) -> phi(y)
    (bdia phi)(x) = join_y  R(y,x) & phi(y)
    (bbox phi)(x) = meet_y  R(y,x) -> phi(y)

build_fuzzy_algebra materialises the full function space H^U as a
product Heyting algebra carrying those operators, so the law report
machinery applies unchanged.  The stock instance dunn2_failure_instance
passes every core law yet falsifies both join-style Dunn laws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .algebra import AlgebraWithOps, CapExceeded, attach_ops
from .lattice import HeytingAlgebra, diamond_with_top, from_order, name_pairs

MAX_FUZZY_SIZE = 64

_KINDS = ("dia", "box", "bdia", "bbox")


@dataclass(frozen=True)
class FuzzyInstance:
    base: HeytingAlgebra
    universe: tuple[str, ...]
    relation: np.ndarray  # element indices, shape (|U|, |U|)
    name: str = ""

    def __post_init__(self):
        u = len(self.universe)
        if u == 0 or len(set(self.universe)) != u:
            raise ValueError("universe must be nonempty with distinct names")
        if self.relation.shape != (u, u):
            raise ValueError("relation table must be square over the universe")
        if self.relation.min() < 0 or self.relation.max() >= self.base.n:
            raise ValueError("relation value out of range")

    def r(self, x: Union[int, str], y: Union[int, str]) -> int:
        ix = self.universe.index(x) if isinstance(x, str) else x
        iy = self.universe.index(y) if isinstance(y, str) else y
        return int(self.relation[ix, iy])


def make_fuzzy_instance(
    base: HeytingAlgebra,
    universe: Sequence[str],
    relation: Mapping[tuple[str, str], str],
    name: str = "",
) -> FuzzyInstance:
    """Build an instance from a total (x, y) -> element-name table."""
    universe = tuple(universe)
    u = len(universe)
    table = np.zeros((u, u), dtype=np.int64)
    seen = set()
    for (x, y), v in relation.items():
        table[universe.index(x), universe.index(y)] = base.index(v)
        seen.add((x, y))
    missing = [(x, y) for x in universe for y in universe if (x, y) not in seen]
    if missing:
        raise ValueError(f"relation must be total; missing {missing[0]}")
    table.setflags(write=False)
    return FuzzyInstance(base, universe, table, name=name)


def fuzzy_op(inst: FuzzyInstance, kind: str, phi: Sequence[int]) -> tuple[int, ...]:
    """Apply one operator to an H-valued predicate given as index tuple."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    base = inst.base
    u = len(inst.universe)
    if len(phi) != u:
        raise ValueError(f"predicate must assign all {u} points")
    out = []
    for x in range(u):
        if kind == "dia":
            v = base.join_all(base.meet[inst.relation[x, y], phi[y]] for y in range(u))
        elif kind == "box":
            v = base.meet_all(base.imp[inst.relation[x, y], phi[y]] for y in range(u))
        elif kind == "bdia":
            v = base.join_all(base.meet[inst.relation[y, x], phi[y]] for y in range(u))
        else:
            v = base.meet_all(base.imp[inst.relation[y, x], phi[y]] for y in range(u))
        out.append(int(v))
    return tuple(out)


@dataclass(frozen=True)
class FuzzyAlgebraResult:
    algebra: AlgebraWithOps
    carrier: tuple[tuple[int, ...], ...]  # carrier[i] = predicate of element i

    def index_of(self, phi: Sequence[int]) -> int:
        return self.carrier.index(tuple(phi))


def predicate_name(inst: FuzzyInstance, phi: Sequence[int]) -> str:
    return "(" + ",".join(inst.base.names[v] for v in phi) + ")"


def build_fuzzy_algebra(inst: FuzzyInstance) -> FuzzyAlgebraResult:
    """Product algebra H^U with the four relational operators attached.

    Elements are ordered lexicographically by component index, named by
    their component tuples.  Size n^|U| is capped to keep the product
    construction honest rather than clever.
    """
    base = inst.base
    u = len(inst.universe)
    size = base.n**u
    if size > MAX_FUZZY_SIZE:
        raise CapExceeded("fuzzy algebra size", MAX_FUZZY_SIZE)
    carrier = tuple(itertools.product(range(base.n), repeat=u))
    names = tuple(predicate_name(inst, phi) for phi in carrier)
    index = {phi: i for i, phi in enumerate(carrier)}
    points = np.array(carrier)
    pointwise = base.leq[points[:, None], points[None]].all(axis=2)
    product = from_order(names, name_pairs(pointwise, names), name=inst.name or "fuzzy_product")
    tables = {
        kind: [index[fuzzy_op(inst, kind, phi)] for phi in carrier] for kind in _KINDS
    }
    alg = attach_ops(product, tables["dia"], tables["box"], tables["bdia"], tables["bbox"])
    return FuzzyAlgebraResult(alg, carrier)


def dunn2_failure_instance() -> FuzzyInstance:
    """Two points over the five-element non-prelinear algebra.

    R(x,x) = R(y,y) = a and R(x,y) = R(y,x) = b.  The resulting
    25-element algebra passes every core law, but box(0 | 1) = 1
    while box 0 | dia 1 lands strictly below top, so dunn2_dia fails
    (and dually dunn2_bdia).
    """
    base = diamond_with_top()
    return make_fuzzy_instance(
        base,
        ("x", "y"),
        {
            ("x", "x"): "a",
            ("y", "y"): "a",
            ("x", "y"): "b",
            ("y", "x"): "b",
        },
        name="two_point_symmetric",
    )
