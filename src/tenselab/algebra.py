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


# Each law is a function of a diamond stack d and a box stack b, one
# table per row, that returns the two sides it compares, lhs and rhs:
# they broadcast to one shape, with the candidates on its leading axes
# and the law's arguments on the others.  The laws of one Galois pair
# read (C, n) stacks; the laws of two broadcast any leading axes, so
# (c, 1, n) against (P, n) grades c * P candidates.


def _adjoint(base, d, b):  # d x <= y  iff  x <= b y
    return base.leq[d], base.leq.T[b].swapaxes(-1, -2)


def _additive(base, d, b):  # d(x | y) = d x | d y
    return d[:, base.join], base.join[d[:, :, None], d[:, None, :]]


def _normal(base, d, b):  # d 0 = 0
    return d[:, base.bottom], base.bottom


def _multiplicative(base, d, b):  # b(x & y) = b x & b y
    return b[:, base.meet], base.meet[b[:, :, None], b[:, None, :]]


def _conormal(base, d, b):  # b 1 = 1
    return b[:, base.top], base.top


def _unit(base, d, b):  # x <= b d x, row by row
    return np.arange(base.n), b[np.arange(len(b))[:, None], d]


def _counit(base, d, b):  # d b x <= x, row by row
    return d[np.arange(len(d))[:, None], b], np.arange(base.n)


def _fs_dia(base, d, b):  # d(x -> y) <= b x -> d y
    return d[..., base.imp], base.imp[b[..., :, None], d[..., None, :]]


def _fs_box(base, d, b):  # (d x -> b y) <= b(x -> y)
    return base.imp[d[..., :, None], b[..., None, :]], b[..., base.imp]


def _dunn_meet(base, d, b):  # d x & b y <= d(x & y)
    return base.meet[d[..., :, None], b[..., None, :]], d[..., base.meet]


def _dunn_join(base, d, b):  # b(x | y) <= b x | d y
    return b[..., base.join], base.join[b[..., :, None], d[..., None, :]]


def _compare(base: HeytingAlgebra, mode: str, lhs, rhs) -> np.ndarray:
    """Where a law's two sides compare as its mode asks."""
    return base.leq[lhs, rhs] if mode == "leq" else lhs == rhs


# Each law's mode (how lhs and rhs compare when it holds), the pairs its
# diamond d and box b come from, its sides and its point.  Combo (i, k)
# takes dia and bbox from pair i, 0 here, and bdia and box from pair k,
# 1 here (see _combo).  A law with d == b reads one pair and has no
# point.  A law of two pairs reads one of its tables at one argument
# only, and its point names both: "bx" reads b only at x (see
# _point_matrix).  The eight two-pair laws come last.
_LAWS = {
    "gc_dia_bbox": ("iff", 0, 0, _adjoint, None),
    "gc_bdia_box": ("iff", 1, 1, _adjoint, None),
    "additive_dia": ("eq", 0, 0, _additive, None),
    "normal_dia": ("eq", 0, 0, _normal, None),
    "additive_bdia": ("eq", 1, 1, _additive, None),
    "normal_bdia": ("eq", 1, 1, _normal, None),
    "multiplicative_box": ("eq", 1, 1, _multiplicative, None),
    "conormal_box": ("eq", 1, 1, _conormal, None),
    "multiplicative_bbox": ("eq", 0, 0, _multiplicative, None),
    "conormal_bbox": ("eq", 0, 0, _conormal, None),
    "br1": ("leq", 0, 0, _unit, None),
    "br2": ("leq", 0, 0, _counit, None),
    "br3": ("leq", 1, 1, _unit, None),
    "br4": ("leq", 1, 1, _counit, None),
    "fs1": ("leq", 0, 1, _fs_dia, "bx"),
    "fs2": ("leq", 0, 1, _fs_box, "dx"),
    "fs3": ("leq", 1, 0, _fs_dia, "bx"),
    "fs4": ("leq", 1, 0, _fs_box, "dx"),
    "d1": ("leq", 0, 1, _dunn_meet, "by"),
    "d2": ("leq", 1, 0, _dunn_meet, "by"),
    "dunn2_dia": ("leq", 0, 1, _dunn_join, "dy"),
    "dunn2_bdia": ("leq", 1, 0, _dunn_join, "dy"),
}

LAW_NAMES: tuple[str, ...] = tuple(_LAWS)
LAW_MODES: dict[str, str] = {law: mode for law, (mode, *_) in _LAWS.items()}
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
        self._source = source  # (base, (f, g), law) while the witness is unread

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


_BIT = {law: 1 << i for i, law in enumerate(LAW_NAMES)}


def law_bits(laws: Iterable[str]) -> int:
    """The verdict bits of some laws: bit i stands for LAW_NAMES[i]."""
    return sum(_BIT[law] for law in set(laws))


_CORE_BITS = law_bits(CORE_LAWS)
_H2GC_BITS = law_bits(H2GC_LAWS)


class LawReport(Mapping):
    """The verdicts of all 22 laws on one structure: a mapping from each
    law, in LAW_NAMES order, to its LawCheck.

    bits has bit i set when LAW_NAMES[i] holds; holds, all_green,
    h2gc_green and failures read nothing else.  A failing law's check is
    made when first looked up, and finds its witness on the structure's
    two-pair stack (f, g) when that is first read.
    """

    __slots__ = ("bits", "_base", "_pairs", "_failing")

    def __init__(self, bits: int, base: HeytingAlgebra, f, g):
        self.bits = bits
        self._base, self._pairs = base, (f, g)
        self._failing: dict[str, LawCheck] = {}

    @property
    def verdicts(self) -> Mapping[str, LawCheck]:
        return self

    def __getitem__(self, law: str) -> LawCheck:
        if self.bits & _BIT[law]:
            return _HOLDS
        check = self._failing.get(law)
        if check is None:
            check = self._failing[law] = LawCheck(False, None, (self._base, self._pairs, law))
        return check

    def __iter__(self) -> Iterator[str]:
        return iter(LAW_NAMES)

    def __len__(self) -> int:
        return len(LAW_NAMES)

    def holds(self, law: str) -> bool:
        return bool(self.bits & _BIT[law])

    def witness(self, law: str) -> Optional[LawWitness]:
        return self[law].witness

    @property
    def all_green(self) -> bool:
        """Every core law holds (the structure is an H2GC+FS algebra)."""
        return self.bits & _CORE_BITS == _CORE_BITS

    @property
    def h2gc_green(self) -> bool:
        return self.bits & _H2GC_BITS == _H2GC_BITS

    def failures(self) -> tuple[str, ...]:
        return tuple(n for n in LAW_NAMES if not self.bits & _BIT[n])


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
            # the structure is combo (0, 1) of the stack of its two pairs
            f, g = (self.dia, self.bdia), (self.bbox, self.box)
            bits = self._bits
            if bits is None:
                bits = int(_grade(self.base, np.array(f), np.array(g))[0, 1])
            self._laws = LawReport(bits, self.base, f, g)
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


def _combo(base: HeytingAlgebra, f: np.ndarray, g: np.ndarray, i: int, k: int, bits: int):
    """Combo (i, k) of a stack of Galois pairs (f[p], g[p]) with its
    verdict bits: pair i gives dia and bbox, pair k gives bdia and box."""
    return AlgebraWithOps(base, f[i], g[k], f[k], g[i], bits)


# --------------------------------------------------------------- grading


def _witness(base: HeytingAlgebra, pairs: tuple, law: str) -> LawWitness:
    """Where a law fails on one structure, given as the stack of two
    Galois pairs (f, g) it is combo (0, 1) of: the law's first failing
    argument tuple in row-major order, with both sides there.  These are
    the structure's own law arrays, so the witness does not depend on
    how the structure was graded."""
    (mode, d, b, sides, _), (f, g) = _LAWS[law], pairs
    lhs, rhs = sides(base, f[d][None], g[b][None])
    ok = _compare(base, mode, lhs, rhs)
    at = int(ok.argmin())
    zero = np.zeros(ok.shape, dtype=np.int64)  # broadcasts either side to ok's shape
    lw, rw = (int((side + zero).flat[at]) for side in (lhs, rhs))
    return LawWitness(tuple(map(int, np.unravel_index(at, ok.shape[1:]))), lw, rw)


def _point_matrix(base: HeytingAlgebra, mode: str, sides, point: str, f, g) -> np.ndarray:
    """Where a two-pair law holds with diamond f[p] and box g[q], as a
    (P, P) bool matrix indexed [p, q].

    The law reads its point table (d or b) at one argument only (x or
    y).  So it is graded once per table of the other stack, with the
    point table replaced by every constant value a at once, and reduced
    over the other argument: held[row, a, t] says the law holds at
    every other argument wherever the point table reads a at t.  A
    point table then holds with a row iff held[row, table[t], t] at
    every t.  That costs P * n^3 cells per law, then P * P * n for the
    matrix, and uses no adjointness, so any tables grade this way.
    """
    values = np.arange(base.n)
    reduce = -1 if point[1] == "x" else -2  # the other argument's axis
    if point[0] == "b":
        held = _compare(base, mode, *sides(base, f[:, None], values[:, None])).all(axis=reduce)
        return held[:, g, values].all(axis=-1)
    held = _compare(base, mode, *sides(base, values[:, None], g[:, None])).all(axis=reduce)
    return held[:, f, values].all(axis=-1).T


def _grade(base: HeytingAlgebra, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Verdict bits of every combo (i, k) of a stack of Galois pairs, as
    one (P, P) int32 array indexed [i, k] (see law_bits for the bits).

    f stacks P lower adjoints and g their upper adjoints, one pair per
    row; combo (i, k) reads pair i as (dia, bbox) and pair k as (bdia,
    box), as _combo builds it.  Each sides function is graded once: a
    one-pair shape as one verdict per pair, which gives its laws' bits
    to the rows i or the columns k; a two-pair shape as one matrix (see
    _point_matrix), which a law taking its diamond from pair k reads
    transposed.  The eight two-pair laws are the top byte of the bits.
    """
    p = len(f)
    first = len(_LAWS) - 8
    one = np.zeros((2, first, p), dtype=bool)  # the one-pair verdicts of pair i, of pair k
    two = np.empty((8, p, p), dtype=bool)
    graded: dict = {}
    for bit, (mode, d, b, sides, point) in enumerate(_LAWS.values()):
        if sides not in graded:
            if point is None:
                ok = _compare(base, mode, *sides(base, f, g))
                graded[sides] = ok.reshape(p, -1).all(axis=1)
            else:
                graded[sides] = _point_matrix(base, mode, sides, point, f, g)
        if point is None:
            one[d, bit] = graded[sides]
        else:
            two[bit - first] = graded[sides] if d == 0 else graded[sides].T
    rows, cols = (1 << np.arange(first, dtype=np.int32)) @ one
    bits = np.packbits(two, axis=0, bitorder="little")[0].astype(np.int32) << first
    bits |= rows[:, None]
    bits |= cols
    return bits


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
        values = arr.tolist()  # a Python min and max beat two array reductions here
        if min(values) < 0 or max(values) >= n:
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
    base: HeytingAlgebra,
    program: Program,
    env: Mapping[str, np.ndarray],
    size: int,
    gather: Optional[Callable[[type, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Values of a compiled formula, one per column of the env arrays.

    gather(kind, values) reads the modal table of a modal kind at some
    values; without it the formula must be modal-free.  On the combos of
    a pair stack (see _stack_gather) the values of a modal subformula,
    and so maybe the result, have one row per combo.
    """
    for node in program.hazards:
        if isinstance(node, Var):
            if node.name not in env:
                raise UnboundVariable(node.name)
        elif isinstance(node, MetaVar):
            raise EvalError(f"metavariable {node.name!r} has no semantic value")
        elif gather is None:
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
        else:  # a modal kind; the hazards ruled out a missing gather
            v = gather(kind, vals[a])
        vals.append(v)
    return vals[-1]


def _gather(alg: Union[HeytingAlgebra, AlgebraWithOps]):
    """The base of alg, and how _values reads its modal tables."""
    if isinstance(alg, AlgebraWithOps):
        return alg.base, lambda kind, v: getattr(alg, _TABLE[kind])[v]
    return alg, None


def _stack_gather(f: np.ndarray, g: np.ndarray, i: np.ndarray, k: np.ndarray):
    """How _values reads the modal tables of the combos (i[j], k[j]) of a
    stack of Galois pairs (see _combo), one row per combo: combo j's
    table at row j of the values, or at the one row all combos share."""
    i, k = i[:, None], k[:, None]
    rows = {Dia: (f, i), BBox: (g, i), BDia: (f, k), Box: (g, k)}

    def gather(kind, v):
        stack, row = rows[kind]
        return stack[row, v]

    return gather


def evaluate(
    alg: Union[HeytingAlgebra, AlgebraWithOps],
    valuation: Mapping[str, Union[int, str]],
    formula: Union[Formula, str],
) -> int:
    """Value of a formula under a total valuation; returns an element index."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    base, gather = _gather(alg)
    env = {}
    for k, v in valuation.items():
        i = base.index(v) if isinstance(v, str) else int(v)
        env[k] = np.asarray([i], dtype=np.int64)
    return int(_values(base, compile_formula(formula), env, 1, gather)[0])


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
    if var_cap < 0:
        raise ValueError(f"var_cap must be 0 or more, not {var_cap}")
    if isinstance(formula, str):
        formula = parse_formula(formula)
    base, gather = _gather(alg)
    program = compile_formula(formula)
    names = program.variables
    if len(names) > var_cap:
        raise CapExceeded("variable count", var_cap)
    for grid in valuation_blocks(base.n, len(names)):
        bad = _values(base, program, dict(zip(names, grid)), grid.shape[1], gather) != base.top
        if bad.any():
            first = int(np.argmax(bad))
            return {v: int(grid[i, first]) for i, v in enumerate(names)}
    return None


def _first_failure(
    base: HeytingAlgebra,
    f: np.ndarray,
    g: np.ndarray,
    i: np.ndarray,
    k: np.ndarray,
    program: Program,
    grid: np.ndarray,
) -> Optional[tuple[int, int, int]]:
    """Where a compiled formula first fails on the combos (i[j], k[j]) of
    a stack of Galois pairs, under the valuation columns of grid, as
    valuation_blocks gives them: (j, column, value) for the first
    failing combo j, its first failing column and the value there, or
    None when every combo gives top everywhere.  One (combos, columns)
    array per step of the program."""
    env = dict(zip(program.variables, grid))
    vals = _values(base, program, env, grid.shape[1], _stack_gather(f, g, i, k))
    vals = np.broadcast_to(vals, (len(i), grid.shape[1]))
    bad = vals != base.top
    failing = bad.any(axis=1)
    if not failing.any():
        return None
    j = int(failing.argmax())
    column = int(bad[j].argmax())
    return j, column, int(vals[j, column])


def valuation_names(
    alg: Union[HeytingAlgebra, AlgebraWithOps], valuation: Mapping[str, int]
) -> dict[str, str]:
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    return {k: base.names[v] for k, v in valuation.items()}


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


# Per process and keyed by the base's name: each enumerated base's
# Galois-pair stack, and the verdict bits of its combos.  Both are made
# when first asked for, so importing and listing bases build neither.
_PAIR_STACKS: dict[str, tuple[np.ndarray, np.ndarray]] = {}
_VERDICTS: dict[str, np.ndarray] = {}


def _gc_stack(base: HeytingAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """An enumerated base's Galois pairs as read-only (f, g) stacks, one
    pair per row in enumerate_gc_pairs order, built once per process."""
    stack = _PAIR_STACKS.get(base.name)
    if stack is None:
        pairs = enumerate_gc_pairs(base)
        stack = (_frozen([f for f, _ in pairs]), _frozen([g for _, g in pairs]))
        _PAIR_STACKS[base.name] = stack
    return stack


def _verdicts(base: HeytingAlgebra, max_gc_pairs: Optional[int]) -> np.ndarray:
    """The read-only verdict bits of an enumerated base's combos (i, k)
    with i and k below p, the number of its Galois pairs under the cap
    max_gc_pairs (None for all): the top-left p by p block of the one
    array the base keeps.

    Only the first p pairs are graded, since the cap bounds the work.
    A cap within the kept array's width reads it; a larger cap replaces
    it with a wider one, graded anew.
    """
    f, g = _gc_stack(base)
    p = len(f) if max_gc_pairs is None else min(max_gc_pairs, len(f))
    kept = _VERDICTS.get(base.name)
    if kept is None or len(kept) < p:
        kept = _VERDICTS[base.name] = _grade(base, f[:p], g[:p])
        kept.flags.writeable = False
    return kept[:p, :p]


def enumerate_op_combos(
    n_max: int, max_gc_pairs: Optional[int] = None
) -> Iterator[AlgebraWithOps]:
    """Every enumerated base algebra with every pair of Galois pairs.

    (dia, bbox) and (bdia, box) range independently over the Galois
    connections of the base, or over the first max_gc_pairs of them
    when that is given, so each structure is H2GC by construction; its
    laws are graded all the same.  Deterministic: base order, then pair
    indices.  The bases, their Galois pairs and the verdicts of their
    combos are shared with every other call in the process (see
    enumerate_heyting and _verdicts); the first call to reach a base
    builds its pairs and grades its combos.
    """
    for base in enumerate_heyting(n_max):
        bits = _verdicts(base, max_gc_pairs)
        f, g = _gc_stack(base)
        for i, row in enumerate(bits):
            for k, b in enumerate(row.tolist()):
                yield _combo(base, f, g, i, k, b)
