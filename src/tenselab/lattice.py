"""Finite posets and Heyting algebras.

Carriers are index sets 0..n-1 with a parallel tuple of element names.
Order and operation tables are read-only numpy arrays.  At the API a
subset of a carrier is a Python int mask (bit i set <=> element i in
the subset); inside the sweeps and the duality builders a family of
subsets is a bool matrix with one row per subset, and set operations
are array operations on its rows.  Isomorphism classes are found by
relabeling a relation under every permutation at once, as one array
(relabeled_codes), and keeping its least copy.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class OrderError(ValueError):
    """Base class for defects found while building an algebra."""


class NotAPartialOrder(OrderError):
    def __init__(self, witness):
        super().__init__(f"leq is not antisymmetric after closure: {witness}")
        self.witness = witness


class NoBounds(OrderError):
    def __init__(self, which: str):
        super().__init__(f"poset has no {which} element")
        self.which = which


class NotALattice(OrderError):
    def __init__(self, kind: str, witness):
        super().__init__(f"pair {witness} has no {kind}")
        self.kind = kind
        self.witness = witness


class NotDistributive(OrderError):
    def __init__(self, witness):
        super().__init__(f"distributivity fails at {witness}")
        self.witness = witness


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def transitive_closure(leq: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation (Warshall)."""
    out = leq.copy()
    n = out.shape[0]
    out |= np.eye(n, dtype=bool)
    for k in range(n):
        out |= out[:, k : k + 1] & out[k : k + 1, :]
    return out


def mask_rows(rel: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as a bitmask: bit j of row i is rel[i, j]."""
    return tuple(sum(1 << j for j, b in enumerate(row) if b) for row in rel.tolist())


def bool_rows(masks: Sequence[int], width: int) -> np.ndarray:
    """The inverse of mask_rows: row i, column j is bit j of masks[i].
    The masks pass through int64, so width must be at most 63."""
    return (np.array(masks, dtype=np.int64).reshape(-1, 1) >> np.arange(width) & 1).astype(bool)


def name_pairs(rel: np.ndarray, names: Sequence[str]) -> list[list[str]]:
    """[names[i], names[j]] for every true rel[i, j], row by row."""
    return [[names[i], names[j]] for i, j in np.argwhere(rel).tolist()]


def _some_table(rel: np.ndarray) -> np.ndarray:
    """Entry m is the bitmask of the points x with rel[x, y] for some
    point y in bitmask m, for every m in [0, 2^n).

    Built by doubling: the sets holding point j are the sets below 2^j
    with j added, so their entries are those below 2^j with column j of
    rel added.
    """
    table = np.zeros(1 << len(rel), dtype=np.intp)
    for j, column in enumerate(mask_rows(rel.T)):
        table[1 << j : 2 << j] = table[: 1 << j] | column
    return table


def up_sets(leq: np.ndarray, stop: Optional[int] = None) -> tuple[int, ...]:
    """All up-sets of the preorder leq as bitmasks, ascending; with stop,
    only the first stop of them.  A mask is an up-set when it is its own
    up-closure, read from the closure table of every mask."""
    n = len(leq)
    if n > 20:
        raise OrderError("up-set enumeration capped at 20 elements")
    closure = _some_table(leq.T)
    return tuple(np.flatnonzero(closure == np.arange(1 << n))[:stop].tolist())


# ------------------------------------------------------------ Heyting core

# Carriers past this size are refused: from_order's distributivity and
# residuation checks build n^3 arrays, about 34 MB at the cap.
MAX_ORDER_SIZE = 128


def check_order_size(n: int, at_least: bool = False) -> None:
    """Raise OrderError for a carrier of more than MAX_ORDER_SIZE elements;
    at_least says n counts only the elements listed so far."""
    if n > MAX_ORDER_SIZE:
        has = f"at least {n}" if at_least else n
        raise OrderError(f"carrier has {has} elements, more than the cap {MAX_ORDER_SIZE}")


class HeytingAlgebra:
    """Finite Heyting algebra over a bounded distributive lattice.

    Built by ``from_order``; all tables hold element indices.  imp obeys
    residuation: z & a <= b  iff  z <= imp(a, b).
    """

    def __init__(
        self,
        names: tuple[str, ...],
        leq: np.ndarray,
        join: np.ndarray,
        meet: np.ndarray,
        imp: np.ndarray,
        bottom: int,
        top: int,
        name: str = "",
    ):
        self.names = names
        self.leq = _freeze(leq)
        self.join = _freeze(join)
        self.meet = _freeze(meet)
        self.imp = _freeze(imp)
        self.bottom = bottom
        self.top = top
        self.name = name

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def neg(self, a: int) -> int:
        return int(self.imp[a, self.bottom])

    def join_all(self, items: Iterable[int]) -> int:
        out = self.bottom
        for a in items:
            out = int(self.join[out, a])
        return out

    def meet_all(self, items: Iterable[int]) -> int:
        out = self.top
        for a in items:
            out = int(self.meet[out, a])
        return out

    def join_irreducibles(self) -> tuple[int, ...]:
        """Ascending elements that are not bottom and not the join of
        everything strictly below them."""
        return tuple(
            a
            for a in range(self.n)
            if a != self.bottom
            and self.join_all(b for b in range(self.n) if b != a and self.leq[b, a]) != a
        )

    def __repr__(self) -> str:
        label = self.name or ",".join(self.names)
        return f"HeytingAlgebra({label})"


def from_order(
    names: Sequence[str],
    leq_pairs: Iterable[tuple[str, str]],
    name: str = "",
) -> HeytingAlgebra:
    """Build a Heyting algebra from named elements and order generators.

    The reflexive-transitive closure of leq_pairs is taken.  Raises
    NotAPartialOrder / NoBounds / NotALattice / NotDistributive with a
    witness when the data does not describe a bounded distributive
    lattice, and OrderError for a carrier past MAX_ORDER_SIZE.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise OrderError("element names must be distinct")
    n = len(names)
    if n == 0:
        raise OrderError("carrier must be nonempty")
    check_order_size(n)
    idx = {s: i for i, s in enumerate(names)}
    rel = np.zeros((n, n), dtype=bool)
    for a, b in leq_pairs:
        rel[idx[a], idx[b]] = True
    leq = transitive_closure(rel)

    sym = leq & leq.T
    bad = np.argwhere(sym & ~np.eye(n, dtype=bool))
    if len(bad):
        i, j = bad[0]
        raise NotAPartialOrder((names[i], names[j]))

    bottoms = [i for i in range(n) if leq[i].all()]
    tops = [i for i in range(n) if leq[:, i].all()]
    if not bottoms:
        raise NoBounds("bottom")
    if not tops:
        raise NoBounds("top")
    bottom, top = bottoms[0], tops[0]

    geq = leq.T
    join, no_join = _least(leq[:, None, :] & leq[None, :, :], leq)
    meet, no_meet = _least(geq[:, None, :] & geq[None, :, :], geq)
    # the first pair (a, b) with index a <= b, in row-major order, that
    # lacks a bound; a missing join is reported before a missing meet
    at = _first_true(np.triu(no_join | no_meet))
    if at is not None:
        a, b = at
        kind = "least upper bound" if no_join[a, b] else "greatest lower bound"
        raise NotALattice(kind, (names[a], names[b]))

    # axes (x, y, z): x & (y | z) against (x & y) | (x & z)
    at = _first_true(meet[:, join] != join[meet[:, :, None], meet[:, None, :]])
    if at is not None:
        raise NotDistributive(tuple(names[i] for i in at))

    # imp(a, b) is the join of every z with z & a <= b
    imp = np.full((n, n), bottom, dtype=np.int64)
    for z in range(n):
        imp = np.where(leq[meet[z]], join[imp, z], imp)
    # residuation is guaranteed by distributivity; verify anyway
    _check_residuation(names, leq, meet, imp)

    return HeytingAlgebra(names, leq, join, meet, imp, bottom, top, name=name)


def _least(bound: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least u in order with bound[a, b, u], per (a, b), and where there is none.

    The row bound[a, b] is an up-set of order, so a u in it is least
    exactly when the row has as many cells as u's own up-set.
    """
    least = bound & (order.sum(axis=1) == bound.sum(axis=2, keepdims=True))
    return least.argmax(axis=2), ~least.any(axis=2)


def _check_residuation(
    names: tuple[str, ...], leq: np.ndarray, meet: np.ndarray, imp: np.ndarray
) -> None:
    """Raise OrderError at the first (a, b, z) where z & a <= b and
    z <= imp(a, b) disagree."""
    ar = np.arange(len(names))
    # axes (a, b, z): z & a <= b  against  z <= imp(a, b)
    lhs = leq[meet.T[:, None, :], ar[None, :, None]]
    at = _first_true(lhs != leq[ar, imp[:, :, None]])
    if at is not None:
        a, b, z = at
        raise OrderError(f"residuation broken at {(names[z], names[a], names[b])}")


def _first_true(grid: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index of the first true cell in row-major order, or None."""
    if not grid.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(grid.argmax()), grid.shape))


# ----------------------------------------------------------- enumeration

MAX_ENUM_SIZE = 7


# A relabeled copy of a relation rel under a permutation p of its carrier
# has cell (i, j) = rel[p[i], p[j]].  Copies are compared by one integer
# each, with row i packed into byte i and row 0 most significant.  So a
# carrier has at most 8 points, where one relation has n! * n^2 = 2.6 M
# copy cells.
MAX_RELABEL_SIZE = 8


@lru_cache(maxsize=None)
def permutations(n: int) -> np.ndarray:
    """All n! permutations of range(n) as a read-only (n!, n) array, in
    itertools order, so row 0 is the identity."""
    if n > MAX_RELABEL_SIZE:
        raise OrderError(f"relabeling capped at {MAX_RELABEL_SIZE} points")
    count = math.factorial(n)
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return _freeze(np.fromiter(flat, dtype=np.intp, count=count * n).reshape(count, n))


def relabeled_codes(rels: np.ndarray, perms: np.ndarray, bitorder: str) -> np.ndarray:
    """Code of each relation of a (..., n, n) bool stack relabeled by each
    row of perms, as a (..., len(perms)) uint64 array.

    Equal codes mean equal copies.  Codes order the copies by their rows
    in turn, each row read as a byte: with bitorder "little" bit j is
    column j, as in mask_rows; with "big" column 0 is the high bit, so
    the codes order the cells as itertools.product does, first cell most
    significant.
    """
    n = rels.shape[-1]
    copies = rels[..., perms[:, :, None], perms[:, None, :]]
    weights = 1 << np.arange(n) if bitorder == "little" else 128 >> np.arange(n)
    packed = np.zeros(copies.shape[:-2] + (8,), dtype=np.uint8)
    packed[..., :n] = copies.view(np.uint8) @ weights.astype(np.uint8)
    return packed.view(">u8")[..., 0].astype(np.uint64)


def canonical_rows(rel: np.ndarray) -> tuple[int, ...]:
    """Row masks (bit j = column j) of the least relabeled copy of an n x n
    bool relation, rows compared in turn: equal for isomorphic relations."""
    n = len(rel)
    code = int(relabeled_codes(rel, permutations(n), "little").min())
    return tuple(code >> 8 * (7 - i) & 0xFF for i in range(n))


@lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical leq row-masks of all bounded distributive lattices on n.

    By Birkhoff each one is the lattice of down-sets of its poset of
    join-irreducibles, and that poset is unique up to isomorphism.  The
    posets, kept as the row masks of >= (row i is the down-set of i),
    grow one maximal point at a time: the new point's strict down-set is
    any down-set d of the smaller poset, and it adds one down-set for
    each old down-set holding d.  A poset that would get more than n
    down-sets is pruned, since growing it never removes any.
    """
    found = set()
    posets = {()}
    while posets:
        grown = set()
        for geq in posets:
            k = len(geq)
            downs = up_sets(bool_rows(geq, k))
            if len(downs) == n:
                sets = np.array(downs)
                found.add(canonical_rows(sets[:, None] & ~sets[None, :] == 0))
                continue
            for d in downs:
                if len(downs) + sum(d & ~e == 0 for e in downs) <= n:
                    grown.add(canonical_rows(bool_rows(geq + (d | 1 << k,), k + 1)))
        posets = grown
    return tuple(sorted(found))


def _algebra_from_rows(rows: tuple[int, ...], name: str = "") -> HeytingAlgebra:
    n = len(rows)
    names = tuple(f"e{i}" for i in range(n))
    return from_order(names, name_pairs(bool_rows(rows, n), names), name=name)


@lru_cache(maxsize=None)
def _iso_bases(n: int) -> tuple[HeytingAlgebra, ...]:
    """One algebra per class of _iso_classes(n), built once per process.

    Classes are numbered across sizes from 1 up, so class k of size n is
    named ha{n}_{k + the number of classes of sizes below n}, whatever
    bound the caller enumerates to.
    """
    first = sum(len(_iso_classes(m)) for m in range(1, n))
    return tuple(
        _algebra_from_rows(code, name=f"ha{n}_{first + k}")
        for k, code in enumerate(_iso_classes(n))
    )


def enumerate_heyting(n_max: int) -> Iterator[HeytingAlgebra]:
    """Yield every finite Heyting algebra with at most n_max elements, up
    to isomorphism: one per class, canonically labeled, by size and then
    canonical code.

    The bases of each size are built the first time that size is listed
    and shared afterwards, so every call yields the same objects; their
    tables are read-only.
    """
    if not 1 <= n_max <= MAX_ENUM_SIZE:
        raise OrderError(f"n_max must be in 1..{MAX_ENUM_SIZE}")
    for n in range(1, n_max + 1):
        yield from _iso_bases(n)


# ------------------------------------------------------- stock lattices


def chain(k: int) -> HeytingAlgebra:
    """Linear Heyting algebra with k elements."""
    if k < 1:
        raise OrderError("chain needs at least one element")
    if k == 1:
        names = ("0",)
    elif k == 2:
        names = ("0", "1")
    elif k == 3:
        names = ("0", "m", "1")
    else:
        names = ("0",) + tuple(f"c{i}" for i in range(1, k - 1)) + ("1",)
    pairs = [(names[i], names[i + 1]) for i in range(k - 1)]
    return from_order(names, pairs, name=f"chain{k}")


def diamond() -> HeytingAlgebra:
    """Four-element lattice 0 < a,b < 1 with a,b incomparable."""
    return from_order(
        ("0", "a", "b", "1"),
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
        name="diamond",
    )


def diamond_with_top() -> HeytingAlgebra:
    """Five elements, 0 < a,b < c < 1; a,b incomparable.  Not prelinear."""
    return from_order(
        ("0", "a", "b", "c", "1"),
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")],
        name="diamond_with_top",
    )


def diamond_with_bottom() -> HeytingAlgebra:
    """Five elements, 0 < c < a,b < 1; a,b incomparable."""
    return from_order(
        ("0", "c", "a", "b", "1"),
        [("0", "c"), ("c", "a"), ("c", "b"), ("a", "1"), ("b", "1")],
        name="diamond_with_bottom",
    )
