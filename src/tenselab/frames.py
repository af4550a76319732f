"""Intuitionistic tense frames and models.

A frame is a set of worlds with a preorder leq (the intuitionistic
order) and one accessibility relation R shared by all four modalities:

    x |= F phi  iff  exists y with x (R ; >=) y and y |= phi
    x |= G phi  iff  forall y with x (<= ; R) y, y |= phi
    x |= P phi  iff  exists y with y (<= ; R) x and y |= phi
    x |= H phi  iff  forall y with y (R ; >=) x, y |= phi

(";" is left-to-right composition: x (A;B) z iff exists y, xAy and yBz.)

An IK frame satisfies the two confluence conditions

    (R ; <=) subseteq (<= ; R)      (>= ; R) subseteq (R ; >=)

which make all truth sets up-closed (persistence).

A formula is compiled once into postfix steps (syntax.compile_formula)
and evaluated for a whole block of valuations at once by one loop,
_truth_rows, which reads each unary clause (~, F, G, P, H) through a
function it is given.  truth_set hands it bool rows, one column per
world, and clauses that are bool matrix products with the relations
above.  frame_validity hands it world sets as int bitmasks, one per
valuation, and clauses that are lookups in the frame's clause table,
which holds each clause's value on every world set.  The public results
(truth_set, Model.val) are int bitmasks over world indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .lattice import mask_rows, permutations, relabeled_codes, transitive_closure, up_sets
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
from .algebra import CapExceeded, UnboundVariable, valuation_blocks


class FrameError(ValueError):
    pass


class NotAPreorder(FrameError):
    def __init__(self, witness):
        super().__init__(f"leq is not reflexive-transitive at {witness}")
        self.witness = witness


class NotUpClosed(FrameError):
    def __init__(self, var: str, lower: str, upper: str):
        super().__init__(
            f"valuation of {var!r} contains {lower!r} but not {upper!r} above it"
        )
        self.var = var
        self.lower = lower
        self.upper = upper


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relation composition: x (a;b) z iff exists y with xay and ybz."""
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


class Frame:
    """Finite preordered set with an accessibility relation."""

    def __init__(self, names: Sequence[str], leq: np.ndarray, r: np.ndarray, name: str = ""):
        self.names = tuple(names)
        self.n = len(self.names)
        self.leq = leq
        self.r = r
        self.name = name
        n = self.n
        if len(set(self.names)) != n or n == 0:
            raise FrameError("world names must be nonempty and distinct")
        for x in range(n):
            if not leq[x, x]:
                raise NotAPreorder((self.names[x], self.names[x]))
        comp = compose(leq, leq)
        bad = comp & ~leq
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            raise NotAPreorder((self.names[x], self.names[y]))
        geq = leq.T
        self._index = {s: i for i, s in enumerate(self.names)}
        # modal neighbourhoods; see module docstring
        self.r_up = compose(r, geq)        # for F (rows) and H (columns)
        self.leq_r = compose(leq, r)       # for G (rows) and P (columns)
        self.up_rows = mask_rows(leq)      # up-set of each world

    def index(self, name: str) -> int:
        return self._index[name]

    @cached_property
    def up_set_masks(self) -> np.ndarray:
        """Every up-set as a world bitmask, ascending; read-only intp.

        Listed on first use: a frame that is only built or IK-checked
        never needs them.
        """
        masks = np.array(up_sets(self.leq), dtype=np.intp)
        masks.flags.writeable = False
        return masks

    @cached_property
    def clause_table(self) -> np.ndarray:
        """Each unary clause on every world set: row k, column m is the
        bitmask of the worlds where _CLAUSES[k] holds when its argument
        holds exactly at the worlds of bitmask m.  Read-only intp, of
        shape (5, 2^n).

        A universal clause fails where the matching "some" clause holds
        on the complement of m, and a table read backwards reads each
        world set's complement.  Built on first use by frame_validity
        alone.  up_sets refuses frames past 20 worlds, so the table has
        at most 5 * 2^20 entries (40 MB).
        """
        full = (1 << self.n) - 1
        table = np.stack(
            [
                full ^ _some_table(self.leq),  # ~: no successor in m
                _some_table(self.r_up),  # F
                full ^ _some_table(self.leq_r)[::-1],  # G: none outside m
                _some_table(self.leq_r.T),  # P
                full ^ _some_table(self.r_up.T)[::-1],  # H: none outside m
            ]
        )
        table.flags.writeable = False
        return table

    def __repr__(self) -> str:
        return f"Frame({self.name or ','.join(self.names)})"


def make_frame(
    names: Sequence[str],
    leq_pairs: Iterable[tuple[str, str]],
    r_pairs: Iterable[tuple[str, str]],
    name: str = "",
) -> Frame:
    """Build a frame from generator pairs; leq is closed reflexively and
    transitively, R is taken exactly as given."""
    names = tuple(names)
    ix = {s: i for i, s in enumerate(names)}
    n = len(names)
    leq = np.zeros((n, n), dtype=bool)
    for a, b in leq_pairs:
        leq[ix[a], ix[b]] = True
    leq = transitive_closure(leq)
    r = np.zeros((n, n), dtype=bool)
    for a, b in r_pairs:
        r[ix[a], ix[b]] = True
    return Frame(names, leq, r, name=name)


# --------------------------------------------------------------- IK checks


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    witness: Optional[tuple[str, str]]


@dataclass(frozen=True)
class IKFrameReport:
    forward: ConditionCheck   # (R ; <=) subseteq (<= ; R)
    backward: ConditionCheck  # (>= ; R) subseteq (R ; >=)

    @property
    def is_ik(self) -> bool:
        return self.forward.holds and self.backward.holds


def _subset_check(frame: Frame, small: np.ndarray, big: np.ndarray) -> ConditionCheck:
    bad = small & ~big
    if not bad.any():
        return ConditionCheck(True, None)
    x, y = map(int, np.argwhere(bad)[0])
    return ConditionCheck(False, (frame.names[x], frame.names[y]))


def check_ik_frame(frame: Frame) -> IKFrameReport:
    return IKFrameReport(
        forward=_subset_check(frame, compose(frame.r, frame.leq), frame.leq_r),
        backward=_subset_check(frame, compose(frame.leq.T, frame.r), frame.r_up),
    )


# ------------------------------------------------------------------ models


class Model:
    """Frame plus an up-closed valuation of propositional variables."""

    def __init__(self, frame: Frame, val: Mapping[str, Iterable[Union[int, str]]]):
        self.frame = frame
        self.val: dict[str, int] = {}
        for var, worlds in val.items():
            mask = 0
            for w in worlds:
                mask |= 1 << (frame.index(w) if isinstance(w, str) else int(w))
            for x in range(frame.n):
                if mask & (1 << x) and (frame.up_rows[x] & ~mask):
                    y = (frame.up_rows[x] & ~mask).bit_length() - 1
                    raise NotUpClosed(var, frame.names[x], frame.names[y])
            self.val[var] = mask

    def __repr__(self) -> str:
        return f"Model({self.frame!r}, vars={sorted(self.val)})"


# the rows of Frame.clause_table
_CLAUSES = (Not, Dia, Box, BDia, BBox)


def _some_table(rel: np.ndarray) -> np.ndarray:
    """Entry m is the bitmask of the worlds x with rel[x, y] for some
    world y in bitmask m, for every m in [0, 2^n).

    Built by doubling: the sets holding world j are the sets below 2^j
    with j added, so their entries are those below 2^j with column j of
    rel added.
    """
    table = np.zeros(1 << len(rel), dtype=np.intp)
    for j, column in enumerate(mask_rows(rel.T)):
        table[1 << j : 2 << j] = table[: 1 << j] | column
    return table


def _some(a: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Column x of row v is set iff rel[x, y] and a[v, y] for some world y.

    A bool matmul: an integer one would wrap (uint8 at 256 worlds).
    """
    return a @ rel.T


def _row_clause(frame: Frame) -> Callable[[type, np.ndarray], np.ndarray]:
    """How _truth_rows reads a clause on bool rows of truth values, one
    column per world: as bool matrix products with the frame's relations."""

    def clause(kind, v):
        if kind is Not:
            return ~_some(v, frame.leq)
        if kind is Dia:
            return _some(v, frame.r_up)
        if kind is Box:
            return ~_some(~v, frame.leq_r)
        if kind is BDia:
            return _some(v, frame.leq_r.T)
        return ~_some(~v, frame.r_up.T)  # BBox

    return clause


def _truth_rows(
    program: Program,
    env: Mapping[str, np.ndarray],
    empty: np.ndarray,
    clause: Callable[[type, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Truth sets of a compiled formula, one per valuation, in the shape
    of the env values: bool rows of worlds or int world bitmasks.

    env maps each variable to its truth sets and empty holds the empty
    set once per valuation.  clause(kind, v) gives the truth sets of a
    unary kind (see _CLAUSES) whose argument holds on the sets v; ->
    and <-> are ~ of a set difference and of a symmetric difference,
    and top is ~ bot.
    """
    for node in program.hazards:
        if isinstance(node, MetaVar):
            raise FrameError(f"metavariable {node.name!r} has no truth set")
        if isinstance(node, Var) and node.name not in env:
            raise UnboundVariable(node.name)
    vals: list[np.ndarray] = []
    for kind, a, b in program.steps:
        if kind is Var:
            v = env[a]
        elif kind is And:
            v = vals[a] & vals[b]
        elif kind is Or:
            v = vals[a] | vals[b]
        elif kind is Imp:
            v = clause(Not, vals[a] & ~vals[b])
        elif kind is Iff:
            v = clause(Not, vals[a] ^ vals[b])
        elif kind is Top:
            v = clause(Not, empty)
        elif kind is Bot:
            v = empty
        else:  # a unary clause
            v = clause(kind, vals[a])
        vals.append(v)
    return vals[-1]


def truth_set(model: Model, formula: Union[Formula, str]) -> int:
    """Bitmask of worlds where the formula holds."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    frame = model.frame
    program = compile_formula(formula)
    env = {
        v: np.array([[model.val[v] >> x & 1 for x in range(frame.n)]], dtype=bool)
        for v in program.variables
        if v in model.val
    }
    empty = np.zeros((1, frame.n), dtype=bool)
    truth = _truth_rows(program, env, empty, _row_clause(frame))
    return sum(1 << int(x) for x in np.flatnonzero(truth[0]))


def satisfies(model: Model, world: Union[int, str], formula: Union[Formula, str]) -> bool:
    x = model.frame.index(world) if isinstance(world, str) else int(world)
    return bool(truth_set(model, formula) & (1 << x))


# ------------------------------------------------------------- validity


@dataclass(frozen=True)
class FrameCounterexample:
    valuation: dict[str, tuple[str, ...]]
    world: str


def frame_validity(
    frame: Frame,
    formula: Union[Formula, str],
    var_cap: int = 4,
) -> Optional[FrameCounterexample]:
    """Check truth at all worlds under every up-closed valuation.

    Returns None when valid.  Valuations are swept in ascending bitmask
    order per variable (variables sorted by name), one block of them at
    a time, so the reported counterexample is deterministic: the first
    failing valuation and its lowest failing world.  Truth sets are
    world bitmasks, and each unary clause is a lookup in the frame's
    clause table.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    program = compile_formula(formula)
    names = program.variables
    if len(names) > var_cap:
        raise CapExceeded("variable count", var_cap)
    upsets = frame.up_set_masks
    tables = dict(zip(_CLAUSES, frame.clause_table))

    def clause(kind, v):
        return tables[kind][v]

    full = (1 << frame.n) - 1
    for grid in valuation_blocks(len(upsets), len(names)):
        sets = upsets[grid]  # (variable, valuation) up-set bitmasks
        empty = np.zeros(grid.shape[1], dtype=np.intp)
        truth = _truth_rows(program, dict(zip(names, sets)), empty, clause)
        failing = truth != full
        if failing.any():
            first = int(failing.argmax())
            return FrameCounterexample(
                valuation={v: _world_names(frame, sets[k, first]) for k, v in enumerate(names)},
                world=_world_names(frame, full & ~int(truth[first]))[0],
            )
    return None


def _world_names(frame: Frame, mask: int) -> tuple[str, ...]:
    """The names of the worlds in a bitmask, in world order."""
    return tuple(name for x, name in enumerate(frame.names) if mask >> x & 1)


# ----------------------------------------------------------- enumeration


def _bit_strings(k: int) -> np.ndarray:
    """Every string of k bits as a (2^k, k) bool array, in itertools.product
    order: row m holds the bits of m, first column most significant."""
    return (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1) & 1).astype(bool)


def _ik_frames(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(leq, r) of every IK frame on n worlds up to isomorphism.

    Preorders and relations are stacks of bool matrices, each in
    itertools.product order over its cells (diagonal cells of a preorder
    are fixed).  A preorder is kept if no relabeling gives it a smaller
    code, and an IK relation is kept if no automorphism of its preorder,
    a relabeling that fixes leq, does.  So each class appears as the
    first labeled copy a loop over preorders, then relations, would meet,
    and in that order.  The relation stack has 2^(n^2) matrices: 512 at 3
    worlds, 65,536 (1 M cells) at 4.
    """
    perms = permutations(n)
    off_diagonal = ~np.eye(n, dtype=bool)
    leqs = np.broadcast_to(np.eye(n, dtype=bool), (1 << (n * n - n), n, n)).copy()
    leqs[:, off_diagonal] = _bit_strings(n * n - n)
    leqs = leqs[~((leqs @ leqs) & ~leqs).any(axis=(1, 2))]
    codes = relabeled_codes(leqs, perms, "big")
    least = codes[:, 0] == codes.min(axis=1)
    rels = _bit_strings(n * n).reshape(-1, n, n)
    for leq, leq_codes in zip(leqs[least], codes[least]):
        geq = leq.T
        ik = ~((rels @ leq) & ~(leq @ rels)).any(axis=(1, 2))
        ik &= ~((geq @ rels) & ~(rels @ geq)).any(axis=(1, 2))
        found = rels[ik]
        automorphisms = perms[leq_codes == leq_codes[0]]
        codes = relabeled_codes(found, automorphisms, "big")
        for r in found[codes[:, 0] == codes.min(axis=1)]:
            yield leq.copy(), r.copy()


def enumerate_frames(n_max: int) -> Iterator[Frame]:
    """All IK frames with at most n_max worlds up to isomorphism,
    smallest first, named fr{n}_{k} with k counted across sizes.

    Each size IK-checks all 2^(n^2) relations on each preorder as one
    array.  At 4 worlds that takes about a second, but yields 106,865
    frames, too many for the sweeps, so n_max is capped at 3.
    """
    if n_max > 3:
        raise CapExceeded("frame enumeration size", 3)
    counter = 0
    for n in range(1, n_max + 1):
        names = tuple(f"w{i}" for i in range(n))
        for leq, r in _ik_frames(n):
            yield Frame(names, leq, r, name=f"fr{n}_{counter}")
            counter += 1


STOCK_FRAMES: dict[str, Callable[[], Frame]] = {
    "one_point": lambda: make_frame(("w",), [], [("w", "w")], name="one_point"),
    "two_forward": lambda: make_frame(
        ("w", "u"), [("w", "u")], [("u", "w")], name="two_forward"
    ),
    "two_chain_r_leq": lambda: make_frame(
        ("w", "u"), [("w", "u")], [("w", "u")], name="two_chain_r_leq"
    ),
}


def stock_frames() -> dict[str, Frame]:
    return {name: build() for name, build in STOCK_FRAMES.items()}
