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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

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


class NotJoinPreserving(ValueError):
    def __init__(self, witness):
        super().__init__(f"map does not preserve joins: {witness}")
        self.witness = witness


class NotMeetPreserving(ValueError):
    def __init__(self, witness):
        super().__init__(f"map does not preserve meets: {witness}")
        self.witness = witness


# ------------------------------------------------------------- structures


@dataclass(frozen=True)
class LawWitness:
    """Concrete elements falsifying a law, with both compared values."""

    args: tuple[int, ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class LawCheck:
    holds: bool
    witness: Optional[LawWitness]


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


@dataclass(frozen=True)
class LawReport:
    verdicts: dict[str, LawCheck]

    def holds(self, law: str) -> bool:
        return self.verdicts[law].holds

    def witness(self, law: str) -> Optional[LawWitness]:
        return self.verdicts[law].witness

    @property
    def all_green(self) -> bool:
        """Every core law holds (the structure is an H2GC+FS algebra)."""
        return all(self.verdicts[n].holds for n in CORE_LAWS)

    @property
    def h2gc_green(self) -> bool:
        return all(self.verdicts[n].holds for n in H2GC_LAWS)

    def failures(self) -> tuple[str, ...]:
        return tuple(n for n in LAW_NAMES if not self.verdicts[n].holds)


class AlgebraWithOps:
    """A Heyting algebra plus the four unary operator tables.

    laws is the report on all 22 laws.  A caller that has graded the
    tables already passes it in; otherwise it is graded the first time
    it is read, and kept.
    """

    def __init__(
        self,
        base: HeytingAlgebra,
        dia: np.ndarray,
        box: np.ndarray,
        bdia: np.ndarray,
        bbox: np.ndarray,
        laws: Optional[LawReport] = None,
    ):
        self.base = base
        self.dia = dia
        self.box = box
        self.bdia = bdia
        self.bbox = bbox
        if laws is not None:
            self.laws = laws

    @cached_property
    def laws(self) -> LawReport:
        left = (self.dia[None], self.bbox[None])
        right = (self.bdia[None], self.box[None])
        return next(_grade(self.base, left, right))

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

_HOLDS = LawCheck(True, None)

# The grader's law order: the seven laws of one (dia, bbox) candidate,
# the same seven for one (bdia, box) candidate, then the four laws that
# read dia with box and their mirrors that read bdia with bbox.
_LEFT = ("gc_dia_bbox", "additive_dia", "normal_dia", "multiplicative_bbox",
         "conormal_bbox", "br1", "br2")
_RIGHT = ("gc_bdia_box", "additive_bdia", "normal_bdia", "multiplicative_box",
          "conormal_box", "br3", "br4")
_FORWARD = ("fs1", "fs2", "d1", "dunn2_dia")
_BACKWARD = ("fs3", "fs4", "d2", "dunn2_bdia")
_IN_LAW_ORDER = itemgetter(
    *((_LEFT + _RIGHT + _FORWARD + _BACKWARD).index(name) for name in LAW_NAMES)
)


def _verdicts(ok: np.ndarray, lhs: np.ndarray, rhs) -> list[LawCheck]:
    """One verdict per candidate on ok's leading axis.

    The other axes are the law's arguments.  A failing candidate's
    witness is its first failing argument tuple in row-major order, with
    both sides there; lhs and rhs broadcast to ok's shape.
    """
    count, shape = ok.shape[0], ok.shape[1:]
    flat = ok.reshape(count, -1)
    held = flat.all(axis=1)
    out = [_HOLDS] * count
    if held.all():
        return out
    bad = np.flatnonzero(~held)
    at = np.unravel_index(flat[bad].argmin(axis=1), shape) if shape else ()
    lw, rw = (
        np.broadcast_to(side, ok.shape)[(bad, *at)].astype(np.int64).tolist()
        for side in (lhs, rhs)
    )
    args = zip(*(axis.tolist() for axis in at)) if shape else itertools.repeat(())
    made: dict[tuple, LawCheck] = {}  # candidates failing alike share one verdict
    for c, key in zip(bad.tolist(), zip(args, lw, rw)):
        check = made.get(key)
        if check is None:
            check = made[key] = LawCheck(False, LawWitness(*key))
        out[c] = check
    return out


def _one_pair(base: HeytingAlgebra, d: np.ndarray, b: np.ndarray) -> list[list[LawCheck]]:
    """The laws of (diamond, box) candidates d[c], b[c], in the order of
    _LEFT: adjunction, additivity and normality of the diamond,
    multiplicativity and conormality of the box, the two round trips."""
    leq, join, meet = base.leq, base.join, base.meet
    ar = np.arange(base.n)

    def eq(lhs, rhs):
        return _verdicts(lhs == rhs, lhs, rhs)

    below = leq[d[:, :, None], ar]  # d x <= y
    above = leq[ar[:, None], b[:, None, :]]  # x <= b y
    box_dia = np.take_along_axis(b, d, axis=1)
    dia_box = np.take_along_axis(d, b, axis=1)
    return [
        _verdicts(below == above, below, above),
        eq(d[:, join], join[d[:, :, None], d[:, None, :]]),
        eq(d[:, base.bottom], base.bottom),
        eq(b[:, meet], meet[b[:, :, None], b[:, None, :]]),
        eq(b[:, base.top], base.top),
        _verdicts(leq[ar, box_dia], ar, box_dia),
        _verdicts(leq[dia_box, ar], dia_box, ar),
    ]


def _two_pair(base: HeytingAlgebra, d: np.ndarray, b: np.ndarray) -> list[list[LawCheck]]:
    """The laws reading a diamond d with the box b of the other pair, in
    the order of _FORWARD (dia with box) or _BACKWARD (bdia with bbox).
    d[c] and b[c] are candidate c's tables; either may instead be a
    single row that every candidate shares."""
    leq, join, meet, imp = base.leq, base.join, base.meet, base.imp

    def leq_law(lhs, rhs):
        return _verdicts(leq[lhs, rhs], lhs, rhs)

    dx, dy, bx, by = d[:, :, None], d[:, None, :], b[:, :, None], b[:, None, :]
    return [
        leq_law(d[:, imp], imp[bx, dy]),
        leq_law(imp[dx, by], b[:, imp]),
        leq_law(meet[dx, by], d[:, meet]),
        leq_law(b[:, join], join[bx, dy]),
    ]


def _by_pairs(dias, bboxes, bdias, boxes) -> tuple[np.ndarray, ...]:
    """The tables of every (left, right) pair of candidates, one row per
    pair with the left index outermost.  A single left candidate is left
    as one row, which broadcasts against the right stack: repeating it
    would gather every left-side table P times over, which made the
    uncapped size-7 bases, graded one row per chunk, about 25% slower."""
    c, p = len(dias), len(bdias)
    if c == 1:
        return dias, bboxes, bdias, boxes
    return (
        np.repeat(dias, p, axis=0), np.repeat(bboxes, p, axis=0),
        np.tile(bdias, (c, 1)), np.tile(boxes, (c, 1)),
    )


# Cells per two-pair law array: _grade pairs as many left candidates with
# the whole right stack as fit, and always at least one.
GRADE_CELLS = 1 << 14


def _grade(
    base: HeytingAlgebra,
    left: tuple[np.ndarray, np.ndarray],
    right: tuple[np.ndarray, np.ndarray],
) -> Iterator[LawReport]:
    """Law reports of every (left, right) candidate, left index outermost.

    left stacks (dia, bbox) candidates and right stacks (bdia, box)
    candidates, one table per row.  The fourteen laws that read one
    side are graded once per candidate.  The eight that read both sides
    are graded a chunk at a time: c left candidates against all P right
    ones, as c * P candidates, with c as large as keeps each law's
    array of c * P * n * n cells within GRADE_CELLS.  A chunk is graded
    when its first report is asked for.
    """
    dias, bboxes = left
    bdias, boxes = right
    lefts = list(zip(*_one_pair(base, dias, bboxes)))
    rights = list(zip(*_one_pair(base, bdias, boxes)))
    step = max(1, GRADE_CELLS // (len(bdias) * base.n * base.n))
    for start in range(0, len(dias), step):
        rows = slice(start, start + step)
        dia, bbox, bdia, box = _by_pairs(dias[rows], bboxes[rows], bdias, boxes)
        forward = _two_pair(base, dia, box)
        backward = _two_pair(base, bdia, bbox)
        candidates = itertools.product(lefts[rows], rights)
        for (own, other), fw, bw in zip(candidates, zip(*forward), zip(*backward)):
            yield LawReport(dict(zip(LAW_NAMES, _IN_LAW_ORDER(own + other + fw + bw))))


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


def _is_additive(base: HeytingAlgebra, f: np.ndarray) -> Optional[tuple]:
    if f[base.bottom] != base.bottom:
        return (base.bottom,)
    for a in range(base.n):
        for b in range(base.n):
            if f[base.join[a, b]] != base.join[f[a], f[b]]:
                return (a, b)
    return None


def _is_multiplicative(base: HeytingAlgebra, f: np.ndarray) -> Optional[tuple]:
    if f[base.top] != base.top:
        return (base.top,)
    for a in range(base.n):
        for b in range(base.n):
            if f[base.meet[a, b]] != base.meet[f[a], f[b]]:
                return (a, b)
    return None


def adjoint_of(base: HeytingAlgebra, f: Sequence[int], side: str) -> tuple[int, ...]:
    """Residual of a unary table on a finite Heyting algebra.

    side="lower": f must preserve joins and bottom; returns the unique g
    with f -| g.  side="upper": f must preserve meets and top; returns
    the unique g with g -| f.
    """
    arr = np.asarray(list(f), dtype=np.int64)
    if side == "lower":
        bad = _is_additive(base, arr)
        if bad is not None:
            raise NotJoinPreserving(tuple(base.names[i] for i in bad))
        out = []
        for b in range(base.n):
            out.append(base.join_all(a for a in range(base.n) if base.leq[arr[a], b]))
        g = tuple(out)
        for b in range(base.n):
            assert base.leq[arr[g[b]], b], "residual failed its defining property"
        return g
    if side == "upper":
        bad = _is_multiplicative(base, arr)
        if bad is not None:
            raise NotMeetPreserving(tuple(base.names[i] for i in bad))
        out = []
        for a in range(base.n):
            out.append(base.meet_all(b for b in range(base.n) if base.leq[a, arr[b]]))
        g = tuple(out)
        for a in range(base.n):
            assert base.leq[a, arr[g[a]]], "residual failed its defining property"
        return g
    raise ValueError("side must be 'lower' or 'upper'")


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
    for base in enumerate_heyting(n_max):
        lowers, uppers = (s[:max_gc_pairs] for s in _gc_stacks(base.n)[base.name])
        reports = _grade(base, (lowers, uppers), (lowers, uppers))
        for (i, k), laws in zip(itertools.product(range(len(lowers)), repeat=2), reports):
            yield AlgebraWithOps(base, lowers[i], uppers[k], lowers[k], uppers[i], laws)
