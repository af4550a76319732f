"""Heyting algebras with two Galois-connected operator pairs.

The forward diamond dia is left adjoint to the backward box bbox, and
the backward diamond bdia is left adjoint to the forward box box:

    dia x <= y  iff  x <= bbox y        bdia x <= y  iff  x <= box y

A structure passing every core law below is called an H2GC+FS algebra
here: both adjunctions, the (co)normality and (co)additivity laws they
imply, the four round-trip inequalities, the four Fischer Servi
inequalities and both Dunn meet-interaction laws.  The two join-style
Dunn laws (dunn2_*) are reported as well but deliberately excluded from
the core: they can fail on perfectly good H2GC+FS algebras, which is
the point of several stock examples.

Label convention: fs1..fs4 name the algebraic inequalities

    fs1:  dia(x -> y) <= box x -> dia y
    fs2:  (dia x -> box y) <= box(x -> y)
    fs3:  bdia(x -> y) <= bbox x -> bdia y
    fs4:  (bdia x -> bbox y) <= bbox(x -> y)

The proof systems use the axiom labels FS1..FS4 with FS2/FS3 swapped
relative to this list; see the README mapping table.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .lattice import (
    HeytingAlgebra,
    chain,
    diamond,
    diamond_with_bottom,
    diamond_with_top,
    enumerate_heyting,
    _iso_bases,
)
from .syntax import (
    And,
    BBox,
    BDia,
    Bot,
    Box,
    Dia,
    Formula,
    Iff,
    Imp,
    MetaVar,
    Not,
    Or,
    Program,
    Top,
    Var,
    compile_formula,
    parse_formula,
)


class EvalError(ValueError):
    pass


class UnboundVariable(EvalError):
    def __init__(self, name: str):
        super().__init__(f"valuation does not cover variable {name!r}")
        self.name = name


class ModalOperatorPresent(EvalError):
    def __init__(self):
        super().__init__("formula uses modal operators but no operator tables given")


class CapExceeded(ValueError):
    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} exceeds configured cap {limit}")
        self.what = what
        self.limit = limit


# ------------------------------------------------------------- structures


@dataclass(frozen=True)
class LawWitness:
    """Concrete elements falsifying a law, with both compared values."""

    args: tuple[int, ...]
    lhs: int
    rhs: int


# mode: how lhs/rhs relate when the law holds
_LAW_SPECS: list[tuple[str, str]] = [
    ("gc_dia_bbox", "iff"),
    ("gc_bdia_box", "iff"),
    ("additive_dia", "eq"),
    ("normal_dia", "eq"),
    ("additive_bdia", "eq"),
    ("normal_bdia", "eq"),
    ("multiplicative_box", "eq"),
    ("conormal_box", "eq"),
    ("multiplicative_bbox", "eq"),
    ("conormal_bbox", "eq"),
    ("br1", "leq"),
    ("br2", "leq"),
    ("br3", "leq"),
    ("br4", "leq"),
    ("fs1", "leq"),
    ("fs2", "leq"),
    ("fs3", "leq"),
    ("fs4", "leq"),
    ("d1", "leq"),
    ("d2", "leq"),
    ("dunn2_dia", "leq"),
    ("dunn2_bdia", "leq"),
]

LAW_NAMES: tuple[str, ...] = tuple(name for name, _ in _LAW_SPECS)
LAW_MODES: dict[str, str] = dict(_LAW_SPECS)
EXTRA_LAWS: frozenset[str] = frozenset({"dunn2_dia", "dunn2_bdia"})
CORE_LAWS: tuple[str, ...] = tuple(n for n in LAW_NAMES if n not in EXTRA_LAWS)
H2GC_LAWS: tuple[str, ...] = tuple(
    n for n in CORE_LAWS if n not in {"fs1", "fs2", "fs3", "fs4", "d1", "d2"}
)
H2GC_FS_LAWS: tuple[str, ...] = CORE_LAWS


class LawCheck:
    """Whether a law holds, and if not, the first place it fails.

    A failing check made by the grader finds its witness on the
    structure's own tables the first time witness is read, and keeps it.
    """

    __slots__ = ("holds", "_witness", "_source")

    def __init__(self, holds: bool, witness: Optional[LawWitness] = None, source=None):
        self.holds = holds
        self._witness = witness
        self._source = source  # (base, tables, law) while the witness is unread

    @property
    def witness(self) -> Optional[LawWitness]:
        if self._source is not None:
            self._witness = _witness(*self._source)
            self._source = None
        return self._witness

    def __eq__(self, other):
        if not isinstance(other, LawCheck):
            return NotImplemented
        return (self.holds, self.witness) == (other.holds, other.witness)

    def __hash__(self) -> int:
        return hash((self.holds, self.witness))

    def __repr__(self) -> str:
        return f"LawCheck(holds={self.holds!r}, witness={self.witness!r})"


_HOLDS = LawCheck(True)


def law_bits(laws: Iterable[str]) -> int:
    """The verdict bits of some laws: bit i stands for LAW_NAMES[i]."""
    bits = 0
    for law in laws:
        bits |= 1 << LAW_NAMES.index(law)
    return bits


_BIT = {law: law_bits([law]) for law in LAW_NAMES}
_CORE_BITS = law_bits(CORE_LAWS)
_H2GC_BITS = law_bits(H2GC_LAWS)


class LawReport:
    """The verdicts of all 22 laws on one structure.

    bits has bit i set when LAW_NAMES[i] holds; holds, all_green,
    h2gc_green and failures read nothing else.  verdicts maps each law,
    in LAW_NAMES order, to its LawCheck.
    """

    __slots__ = ("bits", "verdicts")

    def __init__(self, bits: int, base: HeytingAlgebra, tables: tuple[np.ndarray, ...]):
        self.bits = bits
        self.verdicts: Mapping[str, LawCheck] = _Verdicts(bits, base, tables)

    def holds(self, law: str) -> bool:
        return bool(self.bits & _BIT[law])

    def witness(self, law: str) -> Optional[LawWitness]:
        return self.verdicts[law].witness

    @property
    def all_green(self) -> bool:
        """Every core law holds (the structure is an H2GC+FS algebra)."""
        return self.bits & _CORE_BITS == _CORE_BITS

    @property
    def h2gc_green(self) -> bool:
        return self.bits & _H2GC_BITS == _H2GC_BITS

    def failures(self) -> tuple[str, ...]:
        return tuple(n for n in LAW_NAMES if not self.bits & _BIT[n])


class _Verdicts(Mapping):
    """Law name -> LawCheck from verdict bits.  A failing law's check is
    made when first looked up, and finds its witness on the tables (dia,
    box, bdia, bbox) when that is first read."""

    __slots__ = ("_bits", "_base", "_tables", "_failing")

    def __init__(self, bits: int, base: HeytingAlgebra, tables: tuple[np.ndarray, ...]):
        self._bits, self._base, self._tables = bits, base, tables
        self._failing: dict[str, LawCheck] = {}

    def __getitem__(self, law: str) -> LawCheck:
        if self._bits & _BIT[law]:
            return _HOLDS
        check = self._failing.get(law)
        if check is None:
            check = self._failing[law] = LawCheck(False, None, (self._base, self._tables, law))
        return check

    def __iter__(self) -> Iterator[str]:
        return iter(LAW_NAMES)

    def __len__(self) -> int:
        return len(LAW_NAMES)


class AlgebraWithOps:
    """A Heyting algebra plus the four unary operator tables.

    laws is the report on all 22 laws, made the first time it is read,
    and kept.  A caller that has graded the tables already passes in
    their verdict bits; otherwise they are graded then.
    """

    def __init__(
        self,
        base: HeytingAlgebra,
        dia: np.ndarray,
        box: np.ndarray,
        bdia: np.ndarray,
        bbox: np.ndarray,
        bits: Optional[int] = None,
    ):
        self.base = base
        self.dia = dia
        self.box = box
        self.bdia = bdia
        self.bbox = bbox
        self._bits = bits
        self._laws: Optional[LawReport] = None

    @property
    def laws(self) -> LawReport:
        if self._laws is None:
            bits = self._bits
            if bits is None:
                left = (self.dia[None], self.bbox[None])
                right = (self.bdia[None], self.box[None])
                ((bits, _),) = next(_grade(self.base, left, right))
            self._laws = LawReport(bits, self.base, (self.dia, self.box, self.bdia, self.bbox))
        return self._laws

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def names(self) -> tuple[str, ...]:
        return self.base.names

    def index(self, name: str) -> int:
        return self.base.index(name)

    def __repr__(self) -> str:
        return f"AlgebraWithOps({self.base.name or ','.join(self.base.names)})"


# --------------------------------------------------------------- grading

# Each law is a function of a diamond stack d and a box stack b, one
# table per row, that returns (ok, lhs, rhs): ok has the candidates on
# its leading axes and the law's arguments on the others, and the
# compared sides lhs and rhs broadcast to ok's shape.


def _eq(lhs, rhs):
    return lhs == rhs, lhs, rhs


def _leq(base: HeytingAlgebra, lhs, rhs):
    return base.leq[lhs, rhs], lhs, rhs


def _adjoint(base, d, b):  # d x <= y  iff  x <= b y
    below = base.leq[d]
    above = base.leq.T[b].swapaxes(-1, -2)
    return below == above, below, above


def _round_trip(b, d):  # b(d x) for each row
    return b[np.arange(len(b))[:, None], d]


# The laws of one (diamond, box) pair, on (C, n) stacks: adjunction,
# additivity and normality of the diamond, multiplicativity and
# conormality of the box, the two round trips.
_ONE_PAIR = (
    _adjoint,
    lambda base, d, b: _eq(d[:, base.join], base.join[d[:, :, None], d[:, None, :]]),
    lambda base, d, b: _eq(d[:, base.bottom], base.bottom),
    lambda base, d, b: _eq(b[:, base.meet], base.meet[b[:, :, None], b[:, None, :]]),
    lambda base, d, b: _eq(b[:, base.top], base.top),
    lambda base, d, b: _leq(base, np.arange(base.n), _round_trip(b, d)),
    lambda base, d, b: _leq(base, _round_trip(d, b), np.arange(base.n)),
)
# The laws reading a diamond with the box of the other pair: the two
# Fischer Servi laws, the Dunn meet law and the Dunn join law.  The
# stacks may have more leading axes, which broadcast: (c, 1, n) against
# (1, P, n) grades c * P candidates.
_TWO_PAIR = (
    lambda base, d, b: _leq(base, d[..., base.imp], base.imp[b[..., :, None], d[..., None, :]]),
    lambda base, d, b: _leq(base, base.imp[d[..., :, None], b[..., None, :]], b[..., base.imp]),
    lambda base, d, b: _leq(base, base.meet[d[..., :, None], b[..., None, :]], d[..., base.meet]),
    lambda base, d, b: _leq(base, b[..., base.join], base.join[b[..., :, None], d[..., None, :]]),
)

# Law name -> (law, index of d, index of b) in the tables (dia, box, bdia,
# bbox), in the grader's law order: the one-pair laws of (dia, bbox),
# the same of (bdia, box), then the two-pair laws of dia with box and
# of bdia with bbox.
_LAWS = {
    **dict(zip(
        ("gc_dia_bbox", "additive_dia", "normal_dia", "multiplicative_bbox",
         "conormal_bbox", "br1", "br2"),
        ((law, 0, 3) for law in _ONE_PAIR))),
    **dict(zip(
        ("gc_bdia_box", "additive_bdia", "normal_bdia", "multiplicative_box",
         "conormal_box", "br3", "br4"),
        ((law, 2, 1) for law in _ONE_PAIR))),
    **dict(zip(("fs1", "fs2", "d1", "dunn2_dia"), ((law, 0, 1) for law in _TWO_PAIR))),
    **dict(zip(("fs3", "fs4", "d2", "dunn2_bdia"), ((law, 2, 3) for law in _TWO_PAIR))),
}
# the verdict bit of each row of a chunk's verdict matrix
_ROW_BITS = np.array([_BIT[law] for law in _LAWS], dtype=np.int64)


def _one_pair(base: HeytingAlgebra, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one-pair verdicts of (C, n) stacks: one row per law, one
    column per candidate."""
    return np.array([law(base, d, b)[0].reshape(len(d), -1).all(axis=1) for law in _ONE_PAIR])


def _two_pair(base: HeytingAlgebra, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The two-pair verdicts, one row per law with the candidates on the
    other axes: (4, c, P) for (c, 1, n) stacks against (1, P, n) ones."""
    return np.array([law(base, d, b)[0].all(axis=(-2, -1)) for law in _TWO_PAIR])


def _witness(base: HeytingAlgebra, tables: tuple[np.ndarray, ...], law: str) -> LawWitness:
    """Where a law fails on one structure: its first failing argument
    tuple in row-major order, with both sides there.  These are the
    structure's own law arrays, so the witness does not depend on the
    chunk the structure was graded in."""
    grade, d, b = _LAWS[law]
    ok, lhs, rhs = grade(base, tables[d][None], tables[b][None])
    at = int(ok.argmin())
    zero = np.zeros(ok.shape, dtype=np.int64)  # broadcasts either side to ok's shape
    lw, rw = (int((side + zero).flat[at]) for side in (lhs, rhs))
    return LawWitness(tuple(map(int, np.unravel_index(at, ok.shape[1:]))), lw, rw)


# Cells per two-pair law array: _grade pairs as many left candidates with
# the whole right stack as fit, and always at least one.
GRADE_CELLS = 1 << 14


def _grade(
    base: HeytingAlgebra,
    left: tuple[np.ndarray, np.ndarray],
    right: tuple[np.ndarray, np.ndarray],
) -> Iterator[Iterator[tuple[int, tuple[int, int]]]]:
    """Verdict bits of every (left, right) candidate, a chunk at a time.

    left stacks (dia, bbox) candidates and right stacks (bdia, box)
    candidates, one table per row.  Each chunk yields (bits, (i, k)) for
    the candidate of left row i and right row k, left index outermost
    (see law_bits for the bits).  The fourteen laws that read one side
    are graded once per candidate, with the first chunk read.  The eight
    that read both sides are graded a chunk at a time: c left candidates
    against all P right ones, as c * P candidates, with c as large as
    keeps each law's array of c * P * n * n cells within GRADE_CELLS.  A
    chunk is graded when it is first read, into a bool matrix with one
    row per law and one column per candidate; chunks may be read in any
    order, or not at all.
    """
    dias, bboxes = left
    bdias, boxes = right
    p = len(bdias)

    @lru_cache(maxsize=None)
    def one_pair() -> tuple[np.ndarray, np.ndarray]:
        both = _one_pair(base, np.concatenate([dias, bdias]), np.concatenate([bboxes, boxes]))
        return both[:, : len(dias)], both[:, len(dias) :]

    def chunk(start: int, stop: int) -> Iterator[tuple[int, tuple[int, int]]]:
        lefts, rights = one_pair()
        dia, bbox = dias[start:stop, None], bboxes[start:stop, None]
        held = np.empty((len(_LAWS), stop - start, p), dtype=bool)  # rows in _LAWS order
        held[:7] = lefts[:, start:stop, None]
        held[7:14] = rights[:, None, :]
        held[14:18] = _two_pair(base, dia, boxes[None])
        held[18:] = _two_pair(base, bdias[None], bbox)
        bits = (_ROW_BITS @ held.reshape(len(_LAWS), -1)).tolist()
        yield from zip(bits, itertools.product(range(start, stop), range(p)))

    step = max(1, GRADE_CELLS // (p * base.n * base.n))
    for start in range(0, len(dias), step):
        yield chunk(start, min(start + step, len(dias)))


def _frozen(tables) -> np.ndarray:
    arr = np.asarray(tables, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def attach_ops(
    base: HeytingAlgebra,
    dia: Sequence[int],
    box: Sequence[int],
    bdia: Sequence[int],
    bbox: Sequence[int],
) -> AlgebraWithOps:
    """Bundle operator tables with a base algebra.

    The tables' shapes and ranges are checked here; the laws are graded
    the first time the result's laws are read.
    """
    n = base.n
    tables = {}
    for label, t in (("dia", dia), ("box", box), ("bdia", bdia), ("bbox", bbox)):
        arr = _frozen(list(t))
        if arr.shape != (n,):
            raise ValueError(f"{label} table must list {n} values")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"{label} table index out of range")
        tables[label] = arr
    return AlgebraWithOps(base, tables["dia"], tables["box"], tables["bdia"], tables["bbox"])


# ----------------------------------------------------------- adjunctions


def enumerate_gc_pairs(base: HeytingAlgebra) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All Galois connections (f, g) on the algebra, ordered by f's table.

    f ranges over the join-and-bottom-preserving unary maps; g is the
    residual fixed by f.  On a finite distributive lattice such an f is
    fixed by its values on the join-irreducibles J, and every monotone
    map J -> L extends to one by f(x) = join of f(j) over j <= x
    (Birkhoff), so the monotone maps are built one irreducible at a time
    along a linear extension of J.
    """
    n, leq, join = base.n, base.leq, base.join
    # fewer elements below comes first: a linear extension of J
    jis = sorted(base.join_irreducibles(), key=lambda j: int(leq[:, j].sum()))
    # one row per monotone map on the irreducibles placed so far
    images = np.zeros((1, 0), dtype=np.int64)
    for pos, j in enumerate(jis):
        floor = np.full(len(images), base.bottom, dtype=np.int64)
        for q in range(pos):
            if leq[jis[q], j]:
                floor = join[floor, images[:, q]]
        rows, values = np.nonzero(leq[floor])
        images = np.column_stack([images[rows], values])
    f = np.full((len(images), n), base.bottom, dtype=np.int64)
    for q, j in enumerate(jis):
        f[:, leq[j]] = join[f[:, leq[j]], images[:, q, None]]
    f = f[np.lexsort(f.T[::-1])]
    g = np.full_like(f, base.bottom)
    for a in range(n):
        g = np.where(leq[f[:, a]], join[g, a], g)
    return list(zip(map(tuple, f.tolist()), map(tuple, g.tolist())))


# ------------------------------------------------------------- evaluation


_TABLE = {Dia: "dia", Box: "box", BDia: "bdia", BBox: "bbox"}


def _values(
    alg: Union[HeytingAlgebra, AlgebraWithOps],
    program: Program,
    env: Mapping[str, np.ndarray],
    size: int,
) -> np.ndarray:
    """Values of a compiled formula, one per column of the env arrays."""
    with_ops = isinstance(alg, AlgebraWithOps)
    base = alg.base if with_ops else alg
    for node in program.hazards:
        if isinstance(node, Var):
            if node.name not in env:
                raise UnboundVariable(node.name)
        elif isinstance(node, MetaVar):
            raise EvalError(f"metavariable {node.name!r} has no semantic value")
        elif not with_ops:
            raise ModalOperatorPresent()
    meet, join, imp = base.meet, base.join, base.imp
    vals: list[np.ndarray] = []
    for kind, a, b in program.steps:
        if kind is Var:
            v = env[a]
        elif kind is And:
            v = meet[vals[a], vals[b]]
        elif kind is Or:
            v = join[vals[a], vals[b]]
        elif kind is Imp:
            v = imp[vals[a], vals[b]]
        elif kind is Not:
            v = imp[vals[a], base.bottom]
        elif kind is Iff:
            v = meet[imp[vals[a], vals[b]], imp[vals[b], vals[a]]]
        elif kind is Top:
            v = np.full(size, base.top, dtype=np.int64)
        elif kind is Bot:
            v = np.full(size, base.bottom, dtype=np.int64)
        else:  # a modal kind; the hazards ruled out a plain algebra
            v = getattr(alg, _TABLE[kind])[vals[a]]
        vals.append(v)
    return vals[-1]


def evaluate(
    alg: Union[HeytingAlgebra, AlgebraWithOps],
    valuation: Mapping[str, Union[int, str]],
    formula: Union[Formula, str],
) -> int:
    """Value of a formula under a total valuation; returns an element index."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    env = {}
    for k, v in valuation.items():
        i = base.index(v) if isinstance(v, str) else int(v)
        env[k] = np.asarray([i], dtype=np.int64)
    return int(_values(alg, compile_formula(formula), env, 1)[0])


DEFAULT_VAR_CAP = 4
# Columns per valuation block: one block covers every grid of a 5-element
# algebra (5^4) and of a 3-world frame (8^4), and bounds the memory of
# larger ones.
VALUATION_BLOCK = 4096


def valuation_blocks(choices: int, k: int) -> Iterable[np.ndarray]:
    """All choices**k valuations of k variables, VALUATION_BLOCK at a time.

    Each block is a (k, columns) array of choice indices, one row per
    variable.  Columns run in itertools.product order (the last variable
    varies fastest), so the first bad column of the first bad block is
    the lexicographically first valuation.  With k = 0 there is one
    block of one empty column.  When one block covers every valuation
    it is built once and shared, so it is read-only.
    """
    if choices**k <= VALUATION_BLOCK:
        return (_whole_grid(choices, k),)
    return _grid_blocks(choices, k)


@lru_cache(maxsize=64)
def _whole_grid(choices: int, k: int) -> np.ndarray:
    (grid,) = _grid_blocks(choices, k)
    grid.flags.writeable = False
    return grid


def _grid_blocks(choices: int, k: int) -> Iterator[np.ndarray]:
    total = choices**k
    # past int64, the digits of a column number are taken with Python ints
    dtype = np.int64 if total < 1 << 62 else object
    weights = np.array([choices**e for e in range(k - 1, -1, -1)], dtype=dtype)[:, None]
    for start in range(0, total, VALUATION_BLOCK):
        cols = np.arange(start, min(start + VALUATION_BLOCK, total), dtype=dtype)
        yield (cols // weights % choices).astype(np.int64, copy=False)


def algebra_validity(
    alg: Union[HeytingAlgebra, AlgebraWithOps],
    formula: Union[Formula, str],
    var_cap: int = DEFAULT_VAR_CAP,
) -> Optional[dict[str, int]]:
    """Exhaustively check valuations; None when valid on this algebra.

    On failure returns the first countervaluation, ordering assignments
    lexicographically by (sorted variable name, element index).
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    program = compile_formula(formula)
    names = program.variables
    if len(names) > var_cap:
        raise CapExceeded("variable count", var_cap)
    for grid in valuation_blocks(base.n, len(names)):
        bad = _values(alg, program, dict(zip(names, grid)), grid.shape[1]) != base.top
        if bad.any():
            first = int(np.argmax(bad))
            return {v: int(grid[i, first]) for i, v in enumerate(names)}
    return None


def valuation_names(
    alg: Union[HeytingAlgebra, AlgebraWithOps], valuation: Mapping[str, int]
) -> dict[str, str]:
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    return {k: base.names[v] for k, v in valuation.items()}


INTERMEDIATE_SCHEMES: dict[str, str] = {
    "prelinearity": "(p -> q) | (q -> p)",
    "peirce": "((p -> q) -> p) -> p",
    "weak_em": "~p | ~~p",
}


def check_intermediate_identity(
    alg: Union[HeytingAlgebra, AlgebraWithOps],
    scheme: Union[str, Formula],
    var_cap: int = DEFAULT_VAR_CAP,
) -> Optional[dict[str, int]]:
    """Validity of a named or custom propositional scheme on the algebra."""
    if isinstance(scheme, str):
        text = INTERMEDIATE_SCHEMES.get(scheme, scheme)
        scheme = parse_formula(text)
    return algebra_validity(alg, scheme, var_cap=var_cap)


# ------------------------------------------------------- stock structures


def identity_expansion(base: HeytingAlgebra) -> AlgebraWithOps:
    """Expand a Heyting algebra with identity operator tables."""
    ident = tuple(range(base.n))
    return attach_ops(base, ident, ident, ident, ident)


def dunn_separating_algebra() -> AlgebraWithOps:
    """Five-element algebra whose report separates d1 from dunn2_dia.

    Both Galois pairs coincide; dunn2_dia and dunn2_bdia hold while the
    meet-interaction laws d1 and d2 fail (at dia a & box b = c against
    dia(a & b) = 0), so the structure is H2GC but not H2GC+FS.  The four
    fs laws fail along with d1/d2, as they must: each is equivalent to a
    d law over H2GC structures.
    """
    base = diamond_with_bottom()
    ix = {s: i for i, s in enumerate(base.names)}
    dia_t = tuple(ix[v] for v in ("0", "0", "a", "0", "a"))  # 0 c a b 1
    box_t = tuple(ix[v] for v in ("b", "b", "1", "b", "1"))
    return attach_ops(base, dia_t, box_t, dia_t, box_t)


STOCK_ALGEBRAS: dict[str, Callable[[], Union[HeytingAlgebra, AlgebraWithOps]]] = {
    "chain2": lambda: chain(2),
    "chain3": lambda: chain(3),
    "chain4": lambda: chain(4),
    "chain5": lambda: chain(5),
    "diamond": diamond,
    "diamond_with_top": diamond_with_top,
    "diamond_with_bottom": diamond_with_bottom,
    "chain3_identity": lambda: identity_expansion(chain(3)),
    "dunn_separating": dunn_separating_algebra,
}


def stock_algebras() -> dict[str, Union[HeytingAlgebra, AlgebraWithOps]]:
    """Named structures usable wherever a file path would be accepted."""
    return {name: build() for name, build in STOCK_ALGEBRAS.items()}


@lru_cache(maxsize=None)
def _gc_stacks(n: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each size-n base's Galois pairs as read-only (f, g) stacks, one
    pair per row in enumerate_gc_pairs order, keyed by the base's name.
    Built once per process."""
    stacks = {}
    for base in _iso_bases(n):
        pairs = enumerate_gc_pairs(base)
        stacks[base.name] = (_frozen([f for f, _ in pairs]), _frozen([g for _, g in pairs]))
    return stacks


def _graded_chunks(n_max: int, max_gc_pairs: Optional[int]) -> Iterator[tuple]:
    """The combo stream a chunk at a time.

    Each item is (base, lowers, uppers, combos), where combos yields
    (bits, (i, k)) for the combo whose pairs are (lowers[i], uppers[i])
    and (lowers[k], uppers[k]), and grades the chunk when first read.
    """
    for base in enumerate_heyting(n_max):
        lowers, uppers = (s[:max_gc_pairs] for s in _gc_stacks(base.n)[base.name])
        for combos in _grade(base, (lowers, uppers), (lowers, uppers)):
            yield base, lowers, uppers, combos


def enumerate_op_combos(
    n_max: int, max_gc_pairs: Optional[int] = None
) -> Iterator[AlgebraWithOps]:
    """Every enumerated base algebra with every pair of Galois pairs.

    (dia, bbox) and (bdia, box) range independently over the Galois
    connections of the base, or over the first max_gc_pairs of them
    when that is given, so each structure is H2GC by construction; its
    laws are graded all the same.  Deterministic: base order, then pair
    indices.  The bases and their Galois pairs are shared with every
    other call in the process (see enumerate_heyting); the first call
    to reach a size builds them.
    """
    for base, lowers, uppers, combos in _graded_chunks(n_max, max_gc_pairs):
        for bits, (i, k) in combos:
            yield AlgebraWithOps(base, lowers[i], uppers[k], lowers[k], uppers[i], bits)
