"""Finite posets and Heyting algebras.

Carriers are index sets 0..n-1 with a parallel tuple of element names.
Order and operation tables are read-only numpy arrays.  Subsets of a
carrier are fixed-width boolean vectors packed into Python ints
(bit i set <=> element i in the subset); all set operations are the
corresponding bitwise ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class Poset:
    """Finite poset: names plus a reflexive-transitive leq matrix."""

    names: tuple[str, ...]
    leq: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown element {name!r}") from None

    def up_mask(self, i: int) -> int:
        """Bitmask of the principal up-set of element i."""
        return self.up_masks()[i]

    def up_masks(self) -> tuple[int, ...]:
        return mask_rows(self.leq)

    def members(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in range(self.n) if mask >> i & 1)


def mask_rows(rel: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as a bitmask: bit j of row i is rel[i, j]."""
    return tuple(sum(1 << j for j, b in enumerate(row) if b) for row in rel.tolist())


def is_up_set(poset: Poset, mask: int) -> bool:
    closure = 0
    for i in range(poset.n):
        if mask >> i & 1:
            closure |= poset.up_mask(i)
    return closure == mask


def up_sets(poset: Poset) -> tuple[int, ...]:
    """All up-sets of the poset as bitmasks, ascending."""
    if poset.n > 20:
        raise OrderError("up-set enumeration capped at 20 elements")
    ups = poset.up_masks()
    out = []
    for mask in range(1 << poset.n):
        closure = 0
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            closure |= ups[i]
            rest &= rest - 1
        if closure == mask:
            out.append(mask)
    return tuple(out)


def interior(poset: Poset, mask: int) -> int:
    """Largest up-set contained in the given subset."""
    out = 0
    for i in range(poset.n):
        if poset.up_mask(i) & ~mask == 0:
            out |= 1 << i
    return out


# ------------------------------------------------------------ Heyting core


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
            raise KeyError(f"unknown element {name!r}") from None

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

    def poset(self) -> Poset:
        return Poset(self.names, self.leq)

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
    lattice.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise OrderError("element names must be distinct")
    n = len(names)
    if n == 0:
        raise OrderError("carrier must be nonempty")
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

    join = np.zeros((n, n), dtype=np.int64)
    meet = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            ups = np.flatnonzero(leq[a] & leq[b])
            lub = [u for u in ups if leq[u, ups].all()]
            if len(lub) != 1:
                raise NotALattice("least upper bound", (names[a], names[b]))
            lows = np.flatnonzero(leq[:, a] & leq[:, b])
            glb = [l for l in lows if leq[lows, l].all()]
            if len(glb) != 1:
                raise NotALattice("greatest lower bound", (names[a], names[b]))
            join[a, b] = join[b, a] = lub[0]
            meet[a, b] = meet[b, a] = glb[0]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x, join[y, z]] != join[meet[x, y], meet[x, z]]:
                    raise NotDistributive((names[x], names[y], names[z]))

    imp = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            r = bottom
            for z in range(n):
                if leq[meet[z, a], b]:
                    r = join[r, z]
            imp[a, b] = r
    # residuation is guaranteed by distributivity; verify anyway
    for a in range(n):
        for b in range(n):
            for z in range(n):
                if bool(leq[meet[z, a], b]) != bool(leq[z, imp[a, b]]):
                    raise OrderError(
                        f"residuation broken at {(names[z], names[a], names[b])}"
                    )

    return HeytingAlgebra(names, leq, join, meet, imp, bottom, top, name=name)


# ----------------------------------------------------------- enumeration

MAX_ENUM_SIZE = 7


def _closure_rows(rows: tuple[int, ...]) -> bool:
    """True when the row-bitmask relation is transitive."""
    n = len(rows)
    for i in range(n):
        acc = rows[i]
        rest = acc
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[j] & ~acc:
                return False
    return True


def _is_bounded_distributive_lattice(rows: tuple[int, ...]) -> bool:
    n = len(rows)
    cols = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                cols[j] |= 1 << i
    full = (1 << n) - 1
    if not any(rows[i] == full for i in range(n)):
        return False
    if not any(cols[j] == full for j in range(n)):
        return False
    join = [[-1] * n for _ in range(n)]
    meet = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ups = rows[a] & rows[b]
            lub = [u for u in range(n) if ups >> u & 1 and ups & ~rows[u] == 0]
            if len(lub) != 1:
                return False
            lows = cols[a] & cols[b]
            glb = [l for l in range(n) if lows >> l & 1 and lows & ~cols[l] == 0]
            if len(glb) != 1:
                return False
            join[a][b] = lub[0]
            meet[a][b] = glb[0]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return False
    return True


def relabelings(*relations: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every relabeled copy of row-mask relations on one carrier.

    Each permutation p of the carrier gives one copy: its row i is row
    p[i] of the original with bit p[j] moved to bit j.
    """
    n = len(relations[0])
    for perm in itertools.permutations(range(n)):
        code = []
        for rel in relations:
            rows = []
            for pi in perm:
                src, m = rel[pi], 0
                for j, pj in enumerate(perm):
                    if src >> pj & 1:
                        m |= 1 << j
                rows.append(m)
            code.append(tuple(rows))
        yield tuple(code)


def canonical_code(*relations: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Least relabeled copy: equal codes <=> isomorphic structures."""
    return min(relabelings(*relations))


@lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical leq row-masks of all bounded distributive lattices on n."""
    if n == 1:
        return ((1,),)
    mid = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    found: set[tuple[int, ...]] = set()
    # element 0 forced bottom, n-1 forced top; free bits sit between them
    base = [1 << i | 1 << (n - 1) for i in range(n)]
    base[0] = (1 << n) - 1
    base[n - 1] = 1 << (n - 1)
    for bits in range(1 << len(mid)):
        rows = list(base)
        for k, (i, j) in enumerate(mid):
            if bits >> k & 1:
                rows[i] |= 1 << j
        rows_t = tuple(rows)
        if not _closure_rows(rows_t):
            continue
        if not _is_bounded_distributive_lattice(rows_t):
            continue
        found.add(canonical_code(rows_t)[0])
    return tuple(sorted(found))


def _algebra_from_rows(rows: tuple[int, ...], name: str = "") -> HeytingAlgebra:
    n = len(rows)
    names = tuple(f"e{i}" for i in range(n))
    pairs = [
        (names[i], names[j]) for i in range(n) for j in range(n) if rows[i] >> j & 1
    ]
    return from_order(names, pairs, name=name)


def enumerate_heyting(
    n_max: int, up_to_iso: bool = True
) -> Iterator[HeytingAlgebra]:
    """Yield every finite Heyting algebra with at most n_max elements.

    With up_to_iso each isomorphism class appears exactly once (canonical
    labeling); without it every labeled copy of each class on carrier
    0..n-1 appears.  Deterministic order: by size, then canonical code,
    then (labeled mode) leq row masks.
    """
    if not 1 <= n_max <= MAX_ENUM_SIZE:
        raise OrderError(f"n_max must be in 1..{MAX_ENUM_SIZE}")
    counter = 0
    for n in range(1, n_max + 1):
        for code in _iso_classes(n):
            if up_to_iso:
                yield _algebra_from_rows(code, name=f"ha{n}_{counter}")
                counter += 1
            else:
                for (rows,) in sorted(set(relabelings(code))):
                    yield _algebra_from_rows(rows, name=f"ha{n}_{counter}")
                    counter += 1


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
