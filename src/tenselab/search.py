"""Desk-scale exhaustive searches over the enumerated structures.

Three jobs: hunt countermodels for candidate non-theorems, test whether
one set of operator laws entails another over every small structure,
and confirm that adding identity operators proves nothing new
propositionally.  All scans walk the same deterministic stream (bases
by size then canonical code, Galois pairs in table-lexicographic order
with the second pair varying fastest, valuations lexicographic) so
golden witnesses stay stable across runs.

The countermodel hunt and the law comparison read the verdict bits of
each base's combos from arrays kept per base and per process (see
algebra._verdicts): a base is graded the first time any scan reaches
it, and later scans only read it.  They scan one base at a time: one
mask test over the base's bits finds its eligible combos, and the hunt
evaluates the formula on many of them at once, in blocks of at most
VALUATION_BLOCK (combo, valuation) cells.  The clock is read before each
base's Galois pairs are built, before each base is graded and before
each block, so a timeout's combos/eligible count whole bases; a found
verdict's count the combos up to and including the witness.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .algebra import (
    H2GC_FS_LAWS,
    H2GC_LAWS,
    LAW_NAMES,
    AlgebraWithOps,
    CapExceeded,
    VALUATION_BLOCK,
    EvalError,
    ModalOperatorPresent,
    _combo,
    _first_failure,
    _gc_stack,
    _verdicts,
    algebra_validity,
    identity_expansion,
    law_bits,
    valuation_blocks,
    valuation_names,
)
from .lattice import HeytingAlgebra, enumerate_heyting
from .syntax import (
    And,
    Bot,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    Var,
    compile_formula,
    has_modal,
    parse_formula,
    variables_of,
)

__all__ = [
    "SearchBounds",
    "Verdict",
    "CounterModel",
    "Separation",
    "ConservativityGap",
    "find_algebra_countermodel",
    "test_law_equivalence",
    "conservativity_check",
]


@dataclass(frozen=True)
class SearchBounds:
    """Resource limits shared by all searches.

    max_gc_pairs of None means every Galois pair of each base is tried;
    the deadline is wall-clock seconds for the whole scan.
    """

    max_algebra_size: int = 5
    max_vars: int = 3
    max_gc_pairs: Optional[int] = None
    deadline_seconds: float = 300.0

    def __post_init__(self):
        if min(self.max_algebra_size, self.max_vars) < 1:
            raise ValueError("size and variable bounds must be positive")
        if self.max_gc_pairs is not None and self.max_gc_pairs < 1:
            raise ValueError("max_gc_pairs must be positive when given")
        if not 0 < self.deadline_seconds < math.inf:  # False for NaN too
            raise ValueError("deadline_seconds must be finite and positive")


DEFAULT_BOUNDS = SearchBounds()


@dataclass(frozen=True)
class CounterModel:
    """Algebra plus a valuation under which the formula is not top."""

    algebra: AlgebraWithOps
    valuation: Mapping[str, str]
    value: str


@dataclass(frozen=True)
class Separation:
    """Structure satisfying one law set while violating the other.

    direction is "forward" when the first law set holds and the second
    breaks, "backward" for the mirror image.
    """

    algebra: AlgebraWithOps
    satisfied: tuple[str, ...]
    violated: str
    direction: str


@dataclass(frozen=True)
class ConservativityGap:
    """Base algebra whose validity verdict shifts under identity operators.

    One countervaluation is None and the other is not; soundness says
    this never happens, so any instance is a bug report.
    """

    base: HeytingAlgebra
    base_countervaluation: Optional[Mapping[str, str]]
    expansion_countervaluation: Optional[Mapping[str, str]]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a scan: found / exhausted / timeout plus statistics."""

    status: str
    witness: Optional[object] = None
    scanned: Mapping[str, float] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.status == "found"


class _Clock:
    def __init__(self, seconds: float):
        self.start = time.monotonic()
        self.limit = seconds

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def expired(self) -> bool:
        return self.elapsed > self.limit


def _checked_laws(laws: Sequence[str], label: str) -> tuple[str, ...]:
    laws = tuple(laws)
    unknown = sorted(set(laws) - set(LAW_NAMES))
    if unknown:
        raise ValueError(f"unknown law name(s) in {label}: {', '.join(unknown)}")
    return laws


def _stats(clock: _Clock, **counts: int) -> dict[str, float]:
    out: dict[str, float] = dict(counts)
    out["seconds"] = round(clock.elapsed, 3)
    return out


def _scan_combos(
    bounds: SearchBounds,
    ambient: Sequence[str],
    judge: Callable[..., Iterator[Callable[[], Optional[tuple[int, object]]]]],
) -> Verdict:
    # walk the combo stream a base at a time.  For each base,
    # judge(base, f, g, i, k, bits) gets the combos (i[j], k[j]) of its
    # pair stack (f, g) whose ambient laws hold, with their bits, in
    # stream order; it yields one function per block of them, which
    # returns (j, witness) for the block's first hit, or None.  The clock
    # is read before each base's pair stack is built, before each base
    # is graded and before each block; a timeout counts whole bases.
    clock = _Clock(bounds.deadline_seconds)
    need = law_bits(ambient)
    combos = eligible = 0

    def verdict(status: str, witness: Optional[object] = None) -> Verdict:
        return Verdict(status, witness, _stats(clock, combos=combos, eligible=eligible))

    for base in enumerate_heyting(bounds.max_algebra_size):
        if clock.expired():
            return verdict("timeout")
        f, g = _gc_stack(base)
        if clock.expired():
            return verdict("timeout")
        kept = _verdicts(base, bounds.max_gc_pairs)
        p, bits = len(kept), kept.ravel()
        ok = np.flatnonzero((bits & need) == need)
        scanned = combos, eligible
        combos, eligible = combos + len(bits), eligible + len(ok)
        for block in judge(base, f, g, ok // p, ok % p, bits[ok]):
            if clock.expired():
                return verdict("timeout")
            hit = block()
            if hit is not None:
                j, witness = hit
                combos, eligible = scanned[0] + int(ok[j]) + 1, scanned[1] + j + 1
                return verdict("found", witness)
    return verdict("exhausted")


def find_algebra_countermodel(
    formula: Union[Formula, str],
    bounds: Optional[SearchBounds] = None,
    laws_required: Sequence[str] = H2GC_FS_LAWS,
) -> Verdict:
    """Scan small algebras for one that invalidates the formula.

    Only structures whose law report satisfies laws_required are
    eligible; the default restricts the hunt to the class where both
    Galois pairs and all bridge laws hold, so a "found" verdict
    certifies the formula is not valid over that whole class.  The
    formula is evaluated on many eligible combos at once, in blocks of
    at most VALUATION_BLOCK (combo, valuation) cells, and the witness is
    the first failing combo in stream order with its first
    countervaluation; only that combo is built as an AlgebraWithOps.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    laws_required = _checked_laws(laws_required, "laws_required")
    bounds = bounds or DEFAULT_BOUNDS
    program = compile_formula(formula)
    names = program.variables
    if len(names) > bounds.max_vars:
        raise CapExceeded("variable count", bounds.max_vars)

    def judge(base, f, g, i, k, bits):
        def hunt(lo: int, hi: int, grid) -> Optional[tuple[int, CounterModel]]:
            hit = _first_failure(base, f, g, i[lo:hi], k[lo:hi], program, grid)
            if hit is None:
                return None
            j, column, value = hit
            j += lo
            alg = _combo(base, f, g, int(i[j]), int(k[j]), int(bits[j]))
            valuation = {v: base.names[grid[row, column]] for row, v in enumerate(names)}
            return j, CounterModel(alg, valuation, base.names[value])

        # more valuations than one block holds leave one combo per block
        per = max(1, VALUATION_BLOCK // base.n ** len(names))
        for lo in range(0, len(i), per):
            for grid in valuation_blocks(base.n, len(names)):
                yield partial(hunt, lo, lo + per, grid)

    return _scan_combos(bounds, laws_required, judge)


def test_law_equivalence(
    laws_a: Sequence[str],
    laws_b: Sequence[str],
    bounds: Optional[SearchBounds] = None,
    direction: str = "either",
    ambient: Sequence[str] = H2GC_LAWS,
) -> Verdict:
    """Hunt for an ambient-class structure separating two law sets.

    "forward" looks for laws_a all holding while some law in laws_b
    fails, "backward" swaps the roles, "either" tries forward then
    backward on each structure.  An exhausted verdict means the sets
    are equivalent over every structure within bounds.  Each base of
    the stream is tested as one array of verdict bits.
    """
    if direction not in ("forward", "backward", "either"):
        raise ValueError("direction must be forward, backward, or either")
    laws_a = _checked_laws(laws_a, "laws_a")
    laws_b = _checked_laws(laws_b, "laws_b")
    ambient = _checked_laws(ambient, "ambient")
    bounds = bounds or DEFAULT_BOUNDS
    need_a, need_b = law_bits(laws_a), law_bits(laws_b)

    def judge(base, f, g, i, k, bits):
        a_green, b_green = (bits & need_a) == need_a, (bits & need_b) == need_b
        forward = a_green & ~b_green & (direction != "backward")
        backward = b_green & ~a_green & (direction != "forward")

        def separate() -> Optional[tuple[int, Separation]]:
            hits = np.flatnonzero(forward | backward)
            if not len(hits):
                return None
            j = int(hits[0])
            alg = _combo(base, f, g, int(i[j]), int(k[j]), int(bits[j]))
            held, broken, way = (
                (laws_a, laws_b, "forward") if forward[j] else (laws_b, laws_a, "backward")
            )
            violated = next(law for law in broken if not alg.laws.holds(law))
            return j, Separation(alg, held, violated, way)

        yield separate

    return _scan_combos(bounds, ambient, judge)


def _eval_direct(base: HeytingAlgebra, env: Mapping[str, int], f: Formula) -> int:
    # deliberately independent of algebra's compiled evaluator: a plain table
    # walk used to cross-check the vectorized one in conservativity_check
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Top):
        return base.top
    if isinstance(f, Bot):
        return base.bottom
    if isinstance(f, Not):
        return base.neg(_eval_direct(base, env, f.child))
    if isinstance(f, (And, Or, Imp, Iff)):
        a = _eval_direct(base, env, f.left)
        b = _eval_direct(base, env, f.right)
        if isinstance(f, And):
            return int(base.meet[a, b])
        if isinstance(f, Or):
            return int(base.join[a, b])
        if isinstance(f, Imp):
            return int(base.imp[a, b])
        return int(base.meet[base.imp[a, b], base.imp[b, a]])
    raise EvalError(f"cannot evaluate a {type(f).__name__} node propositionally")


def _propositional_countervaluation(
    base: HeytingAlgebra, f: Formula, var_cap: int
) -> Optional[dict[str, int]]:
    names = variables_of(f)
    if len(names) > var_cap:
        raise CapExceeded("variable count", var_cap)
    for combo in itertools.product(range(base.n), repeat=len(names)):
        env = dict(zip(names, combo))
        if _eval_direct(base, env, f) != base.top:
            return env
    return None


def conservativity_check(
    formula: Union[Formula, str],
    bounds: Optional[SearchBounds] = None,
) -> Verdict:
    """Compare base-algebra validity against the identity expansion.

    The expansion side runs through the full operator machinery while
    the base side uses a direct table walk, so agreement genuinely
    cross-checks two evaluation paths.  Modal connectives are rejected.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    if has_modal(formula):
        raise ModalOperatorPresent()
    bounds = bounds or DEFAULT_BOUNDS
    clock = _Clock(bounds.deadline_seconds)
    bases = 0
    for base in enumerate_heyting(bounds.max_algebra_size):
        if clock.expired():
            return Verdict("timeout", None, _stats(clock, bases=bases))
        bases += 1
        direct = _propositional_countervaluation(base, formula, bounds.max_vars)
        lifted = algebra_validity(
            identity_expansion(base), formula, var_cap=bounds.max_vars
        )
        if (direct is None) != (lifted is None):
            witness = ConservativityGap(
                base=base,
                base_countervaluation=(
                    None if direct is None else valuation_names(base, direct)
                ),
                expansion_countervaluation=(
                    None if lifted is None else valuation_names(base, lifted)
                ),
            )
            return Verdict("found", witness, _stats(clock, bases=bases))
    return Verdict("exhausted", None, _stats(clock, bases=bases))
