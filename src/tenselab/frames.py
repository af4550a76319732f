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

which make all truth sets up-closed (persistence).  Truth sets are
represented as int bitmasks over world indices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .lattice import Poset, canonical_code, mask_rows, transitive_closure, up_sets
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
from .algebra import CapExceeded, UnboundVariable


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
        self.f_rows = mask_rows(self.r_up)
        self.g_rows = mask_rows(self.leq_r)
        self.p_cols = mask_rows(self.leq_r.T)
        self.h_cols = mask_rows(self.r_up.T)
        self.full = (1 << n) - 1

    def index(self, name: str) -> int:
        return self._index[name]

    def poset(self) -> Poset:
        return Poset(self.names, self.leq)

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
    leq, r = frame.leq, frame.r
    geq = leq.T
    return IKFrameReport(
        forward=_subset_check(frame, compose(r, leq), compose(leq, r)),
        backward=_subset_check(frame, compose(geq, r), compose(r, geq)),
    )


def is_intgc_relation(leq: np.ndarray, s: np.ndarray) -> bool:
    """(>= ; s ; >=) subseteq s, the stability law of one-relation frames."""
    geq = leq.T
    return not (compose(compose(geq, s), geq) & ~s).any()


def ik_via_stability(frame: Frame) -> bool:
    """Equivalent formulation of the IK conditions.

    The frame is IK iff both derived relations R;>= and (R;>=)^-1 read
    against the order are stable: (>=;(R;>=);>=) subseteq R;>= and the
    same for (<=;R) transposed.  Used as a cross-check on
    check_ik_frame.
    """
    geq = frame.leq.T
    s1 = compose(frame.r, geq)
    s2 = compose(frame.leq, frame.r).T
    return is_intgc_relation(frame.leq, s1) and is_intgc_relation(frame.leq, s2)


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


def _truth(frame: Frame, val: Mapping[str, int], f: Formula) -> int:
    n, full = frame.n, frame.full
    if isinstance(f, Var):
        try:
            return val[f.name]
        except KeyError:
            raise UnboundVariable(f.name) from None
    if isinstance(f, MetaVar):
        raise FrameError(f"metavariable {f.name!r} has no truth set")
    if isinstance(f, Top):
        return full
    if isinstance(f, Bot):
        return 0
    if isinstance(f, Not):
        a = _truth(frame, val, f.child)
        return sum(1 << x for x in range(n) if not (frame.up_rows[x] & a))
    if isinstance(f, And):
        return _truth(frame, val, f.left) & _truth(frame, val, f.right)
    if isinstance(f, Or):
        return _truth(frame, val, f.left) | _truth(frame, val, f.right)
    if isinstance(f, Imp):
        a = _truth(frame, val, f.left)
        b = _truth(frame, val, f.right)
        return sum(1 << x for x in range(n) if not (frame.up_rows[x] & a & ~b))
    if isinstance(f, Iff):
        a = _truth(frame, val, f.left)
        b = _truth(frame, val, f.right)
        diff = a ^ b
        return sum(1 << x for x in range(n) if not (frame.up_rows[x] & diff))
    if isinstance(f, Dia):
        a = _truth(frame, val, f.child)
        return sum(1 << x for x in range(n) if frame.f_rows[x] & a)
    if isinstance(f, Box):
        a = _truth(frame, val, f.child)
        return sum(1 << x for x in range(n) if not (frame.g_rows[x] & ~a))
    if isinstance(f, BDia):
        a = _truth(frame, val, f.child)
        return sum(1 << x for x in range(n) if frame.p_cols[x] & a)
    if isinstance(f, BBox):
        a = _truth(frame, val, f.child)
        return sum(1 << x for x in range(n) if not (frame.h_cols[x] & ~a))
    raise TypeError(f"not a formula: {f!r}")


def truth_set(model: Model, formula: Union[Formula, str]) -> int:
    """Bitmask of worlds where the formula holds."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    return _truth(model.frame, model.val, formula)


def truth_worlds(model: Model, formula: Union[Formula, str]) -> tuple[str, ...]:
    mask = truth_set(model, formula)
    return tuple(n for i, n in enumerate(model.frame.names) if mask & (1 << i))


def satisfies(model: Model, world: Union[int, str], formula: Union[Formula, str]) -> bool:
    x = model.frame.index(world) if isinstance(world, str) else int(world)
    return bool(truth_set(model, formula) & (1 << x))


@dataclass(frozen=True)
class PersistenceViolation:
    formula: Formula
    lower: str
    upper: str


def check_persistence(
    model: Model, formulas: Iterable[Union[Formula, str]]
) -> tuple[PersistenceViolation, ...]:
    """Worlds breaking up-closure of a truth set, per formula.

    Empty on IK frames; on arbitrary frames this is where the
    confluence conditions earn their keep.
    """
    frame = model.frame
    out = []
    for f in formulas:
        if isinstance(f, str):
            f = parse_formula(f)
        mask = truth_set(model, f)
        done = False
        for x in range(frame.n):
            if done:
                break
            if not (mask & (1 << x)):
                continue
            missing = frame.up_rows[x] & ~mask
            if missing:
                y = missing.bit_length() - 1
                out.append(PersistenceViolation(f, frame.names[x], frame.names[y]))
                done = True
    return tuple(out)


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
    order per variable (variables sorted by name), so the reported
    counterexample is deterministic.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    names = variables_of(formula)
    if len(names) > var_cap:
        raise CapExceeded("variable count", var_cap)
    upsets = up_sets(frame.poset())
    for combo in itertools.product(upsets, repeat=len(names)):
        val = dict(zip(names, combo))
        mask = _truth(frame, val, formula)
        if mask != frame.full:
            missing = ~mask & frame.full
            x = (missing & -missing).bit_length() - 1
            return FrameCounterexample(
                valuation={
                    v: tuple(
                        frame.names[i] for i in range(frame.n) if combo[k] & (1 << i)
                    )
                    for k, v in enumerate(names)
                },
                world=frame.names[x],
            )
    return None


# ----------------------------------------------------------- enumeration


def _all_preorders(n: int) -> list[np.ndarray]:
    """Every reflexive-transitive relation on n labeled points."""
    out = []
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(off_diag)):
        m = np.eye(n, dtype=bool)
        for (i, j), b in zip(off_diag, bits):
            m[i, j] = b
        if (compose(m, m) & ~m).any():
            continue
        out.append(m)
    return out


def enumerate_frames(
    n_max: int, require_ik: bool = True, up_to_iso: bool = True
) -> Iterator[Frame]:
    """All frames with at most n_max worlds, smallest first.

    Exhaustive generation is quadratic in 2^(n^2), so n_max is capped
    at 3; use sample_frames for larger sizes.
    """
    if n_max > 3:
        raise CapExceeded("frame enumeration size", 3)
    counter = 0
    for n in range(1, n_max + 1):
        names = tuple(f"w{i}" for i in range(n))
        seen = set()
        for leq in _all_preorders(n):
            for bits in itertools.product((False, True), repeat=n * n):
                r = np.array(bits, dtype=bool).reshape(n, n)
                frame = Frame(names, leq, r, name=f"fr{n}_{counter}")
                if require_ik and not check_ik_frame(frame).is_ik:
                    continue
                if up_to_iso:
                    code = canonical_code(frame.up_rows, mask_rows(r))
                    if code in seen:
                        continue
                    seen.add(code)
                counter += 1
                yield frame


def sample_frames(
    n: int, count: int, seed: int, require_ik: bool = True
) -> list[Frame]:
    """Deterministic random frames of exactly n worlds."""
    rng = random.Random(seed)
    out: list[Frame] = []
    attempts = 0
    while len(out) < count and attempts < count * 2000:
        attempts += 1
        leq = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    leq[i, j] = True
        leq = transitive_closure(leq)
        r = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    r[i, j] = True
        frame = Frame(tuple(f"w{i}" for i in range(n)), leq, r, name=f"sample{n}_{len(out)}")
        if require_ik and not check_ik_frame(frame).is_ik:
            continue
        out.append(frame)
    return out


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
