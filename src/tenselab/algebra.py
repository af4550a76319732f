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
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

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
    Top,
    Var,
    parse_formula,
    variables_of,
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
    """A Heyting algebra plus the four unary operator tables."""

    def __init__(
        self,
        base: HeytingAlgebra,
        dia: np.ndarray,
        box: np.ndarray,
        bdia: np.ndarray,
        bbox: np.ndarray,
        laws: LawReport,
    ):
        self.base = base
        self.dia = dia
        self.box = box
        self.bdia = bdia
        self.bbox = bbox
        self.laws = laws

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


def _check_laws(
    base: HeytingAlgebra,
    dia: np.ndarray,
    box: np.ndarray,
    bdia: np.ndarray,
    bbox: np.ndarray,
) -> LawReport:
    n = base.n
    ar = np.arange(n)
    col = ar[:, None]
    row = ar[None, :]
    leq, join, meet, imp = base.leq, base.join, base.meet, base.imp
    bot_i, top_i = base.bottom, base.top

    grids: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def leq_law(name, lhs, rhs):
        grids[name] = (leq[lhs, rhs], lhs, rhs)

    def eq_law(name, lhs, rhs):
        grids[name] = (lhs == rhs, lhs, rhs)

    lhs = leq[dia[col], row].astype(np.int64)
    rhs = leq[col, bbox[row]].astype(np.int64)
    grids["gc_dia_bbox"] = (lhs == rhs, lhs, rhs)
    lhs = leq[bdia[col], row].astype(np.int64)
    rhs = leq[col, box[row]].astype(np.int64)
    grids["gc_bdia_box"] = (lhs == rhs, lhs, rhs)

    eq_law("additive_dia", dia[join], join[dia[col], dia[row]])
    eq_law("normal_dia", dia[bot_i : bot_i + 1], np.array([bot_i]))
    eq_law("additive_bdia", bdia[join], join[bdia[col], bdia[row]])
    eq_law("normal_bdia", bdia[bot_i : bot_i + 1], np.array([bot_i]))
    eq_law("multiplicative_box", box[meet], meet[box[col], box[row]])
    eq_law("conormal_box", box[top_i : top_i + 1], np.array([top_i]))
    eq_law("multiplicative_bbox", bbox[meet], meet[bbox[col], bbox[row]])
    eq_law("conormal_bbox", bbox[top_i : top_i + 1], np.array([top_i]))

    leq_law("br1", ar, bbox[dia])
    leq_law("br2", dia[bbox], ar)
    leq_law("br3", ar, box[bdia])
    leq_law("br4", bdia[box], ar)

    leq_law("fs1", dia[imp], imp[box[col], dia[row]])
    leq_law("fs2", imp[dia[col], box[row]], box[imp])
    leq_law("fs3", bdia[imp], imp[bbox[col], bdia[row]])
    leq_law("fs4", imp[bdia[col], bbox[row]], bbox[imp])

    leq_law("d1", meet[dia[col], box[row]], dia[meet])
    leq_law("d2", meet[bdia[col], bbox[row]], bdia[meet])

    leq_law("dunn2_dia", box[join], join[box[col], dia[row]])
    leq_law("dunn2_bdia", bbox[join], join[bbox[col], bdia[row]])

    verdicts: dict[str, LawCheck] = {}
    for name, _mode in _LAW_SPECS:
        ok, lhs, rhs = grids[name]
        ok = np.asarray(ok)
        if ok.all():
            verdicts[name] = LawCheck(True, None)
            continue
        # first failing tuple in row-major element order
        at = tuple(int(v) for v in np.argwhere(~ok)[0])
        if ok.ndim == 1 and len(at) == 1 and name.startswith(("normal", "conormal")):
            at = ()
        lw = int(np.asarray(lhs)[tuple(np.argwhere(~ok)[0])])
        rw = int(np.asarray(rhs)[tuple(np.argwhere(~ok)[0])])
        verdicts[name] = LawCheck(False, LawWitness(at, lw, rw))
    return LawReport(verdicts)


def attach_ops(
    base: HeytingAlgebra,
    dia: Sequence[int],
    box: Sequence[int],
    bdia: Sequence[int],
    bbox: Sequence[int],
) -> AlgebraWithOps:
    """Bundle operator tables with a base algebra and grade all laws."""
    n = base.n
    tables = {}
    for label, t in (("dia", dia), ("box", box), ("bdia", bdia), ("bbox", bbox)):
        arr = np.asarray(list(t), dtype=np.int64)
        if arr.shape != (n,):
            raise ValueError(f"{label} table must list {n} values")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"{label} table index out of range")
        arr.setflags(write=False)
        tables[label] = arr
    laws = _check_laws(base, tables["dia"], tables["box"], tables["bdia"], tables["bbox"])
    return AlgebraWithOps(
        base, tables["dia"], tables["box"], tables["bdia"], tables["bbox"], laws
    )


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
    residual fixed by f.
    """
    n = base.n
    pairs = []
    for f in itertools.product(range(n), repeat=n):
        arr = np.asarray(f, dtype=np.int64)
        if _is_additive(base, arr) is not None:
            continue
        g = adjoint_of(base, f, "lower")
        pairs.append((tuple(f), g))
    return pairs


# ------------------------------------------------------------- evaluation


def _eval(alg, env: Mapping[str, np.ndarray], f: Formula, size: int) -> np.ndarray:
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    if isinstance(f, Var):
        try:
            return env[f.name]
        except KeyError:
            raise UnboundVariable(f.name) from None
    if isinstance(f, MetaVar):
        raise EvalError(f"metavariable {f.name!r} has no semantic value")
    if isinstance(f, Top):
        return np.full(size, base.top, dtype=np.int64)
    if isinstance(f, Bot):
        return np.full(size, base.bottom, dtype=np.int64)
    if isinstance(f, Not):
        c = _eval(alg, env, f.child, size)
        return base.imp[c, base.bottom]
    if isinstance(f, And):
        return base.meet[_eval(alg, env, f.left, size), _eval(alg, env, f.right, size)]
    if isinstance(f, Or):
        return base.join[_eval(alg, env, f.left, size), _eval(alg, env, f.right, size)]
    if isinstance(f, Imp):
        return base.imp[_eval(alg, env, f.left, size), _eval(alg, env, f.right, size)]
    if isinstance(f, Iff):
        l = _eval(alg, env, f.left, size)
        r = _eval(alg, env, f.right, size)
        return base.meet[base.imp[l, r], base.imp[r, l]]
    if isinstance(f, (Dia, Box, BDia, BBox)):
        if not isinstance(alg, AlgebraWithOps):
            raise ModalOperatorPresent()
        table = {
            Dia: alg.dia,
            Box: alg.box,
            BDia: alg.bdia,
            BBox: alg.bbox,
        }[type(f)]
        return table[_eval(alg, env, f.child, size)]
    raise TypeError(f"not a formula: {f!r}")


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
    return int(_eval(alg, env, formula, 1)[0])


DEFAULT_VAR_CAP = 4


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
    names = variables_of(formula)
    if len(names) > var_cap:
        raise CapExceeded("variable count", var_cap)
    n = base.n
    k = len(names)
    size = n**k
    grids = np.indices((n,) * k, dtype=np.int64).reshape(k, size) if k else None
    env = {v: grids[i] for i, v in enumerate(names)} if k else {}
    values = _eval(alg, env, formula, size)
    bad = values != base.top
    if not bad.any():
        return None
    first = int(np.argmax(bad))
    return {v: int(grids[i][first]) for i, v in enumerate(names)}


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


def enumerate_op_combos(
    n_max: int, max_gc_pairs: Optional[int] = None
) -> Iterator[AlgebraWithOps]:
    """Every enumerated base algebra with every pair of Galois pairs.

    (dia, bbox) and (bdia, box) range independently over the Galois
    connections of the base, or over the first max_gc_pairs of them
    when that is given; each yielded structure is H2GC by construction.
    Deterministic: base order, then pair indices.
    """
    for base in enumerate_heyting(n_max):
        pairs = enumerate_gc_pairs(base)[:max_gc_pairs]
        for f1, g1 in pairs:
            for f2, g2 in pairs:
                yield attach_ops(base, dia=f1, bbox=g1, bdia=f2, box=g2)


@lru_cache(maxsize=4)
def enumerate_h2gc_fs(n_max: int) -> tuple[AlgebraWithOps, ...]:
    """All H2GC+FS algebras over bases of at most n_max elements."""
    return tuple(a for a in enumerate_op_combos(n_max) if a.laws.all_green)
