"""Small helpers shared between test modules, the scalar relabeling and
frame-listing loops kept as oracles for the array engine, the bool-row
frame sweep kept as an oracle for the clause-table sweep, the n^2-cell
grading of the two-pair laws kept as an oracle for the one-point
grader, and the one-combo-at-a-time search loop kept as an oracle for
the per-base scan."""

import itertools
import random
import tracemalloc

import numpy as np

from tenselab import algebra, proofs
from tenselab.algebra import (
    H2GC_LAWS,
    CapExceeded,
    algebra_validity,
    enumerate_op_combos,
    evaluate,
    valuation_blocks,
)
from tenselab.frames import (
    Frame,
    FrameCounterexample,
    _row_clause,
    _truth_rows,
    check_ik_frame,
    compose,
)
from tenselab.lattice import mask_rows, up_sets
from tenselab.search import CounterModel, Separation, Verdict

from tenselab.syntax import (
    And,
    BBox,
    BDia,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    MetaVar,
    Not,
    Or,
    Top,
    Var,
    compile_formula,
    metavariables_of,
    parse_formula,
    substitute,
)

_LEAVES = ("var", "var", "var", "top", "bot")
_UNARY = (Not, Dia, Box, BDia, BBox)
_BINARY = (And, Or, Imp, Iff)


def grid_bits(base, f, g):
    """The verdict bits of every combo (i, k) of a stack of Galois pairs
    (f, g), as algebra._grade gives them, with each two-pair law graded
    on its whole n x n argument grid for every combo, 16 rows i at a
    time to bound the memory."""
    p = len(f)
    bits = np.zeros((p, p), dtype=np.int64)
    for bit, (mode, d, b, sides, _) in enumerate(algebra._LAWS.values()):
        if d == b:
            ok = algebra._compare(base, mode, *sides(base, f, g)).reshape(p, -1).all(axis=1)
            bits |= (ok[:, None] if d == 0 else ok[None, :]).astype(np.int64) << bit
            continue
        for lo in range(0, p, 16):
            i = slice(lo, lo + 16)
            # pair i on the leading axis, pair k on the next
            dia = f[i, None] if d == 0 else f[None, :]
            box = g[None, :] if b == 1 else g[i, None]
            ok = algebra._compare(base, mode, *sides(base, dia, box)).all(axis=(-2, -1))
            bits[i] |= np.broadcast_to(ok, bits[i].shape).astype(np.int64) << bit
    return bits


def random_formula(rng: random.Random, depth: int = 4, vars=("p", "q", "r"), meta=()):
    """Uniform-ish random AST; depth bounds the tree height."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(_LEAVES)
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bot()
        if meta and rng.random() < 0.4:
            return MetaVar(rng.choice(meta))
        return Var(rng.choice(vars))
    if rng.random() < 0.45:
        op = rng.choice(_UNARY)
        return op(random_formula(rng, depth - 1, vars, meta))
    op = rng.choice(_BINARY)
    return op(
        random_formula(rng, depth - 1, vars, meta),
        random_formula(rng, depth - 1, vars, meta),
    )


def peak_allocation(fn) -> int:
    """Peak bytes allocated (Python and numpy) while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ------------------------------------------------- relabeling oracles


def relabelings(*relations: tuple[int, ...]):
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


# ------------------------------------------------ frame-listing oracle


def all_preorders(n: int) -> list[np.ndarray]:
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


def loop_frames(n_max: int):
    """frames.enumerate_frames as a loop over every labeled (preorder, R)
    candidate, one Frame each, kept when IK and not isomorphic to one
    kept before."""
    counter = 0
    for n in range(1, n_max + 1):
        names = tuple(f"w{i}" for i in range(n))
        seen = set()
        for leq in all_preorders(n):
            for bits in itertools.product((False, True), repeat=n * n):
                r = np.array(bits, dtype=bool).reshape(n, n)
                frame = Frame(names, leq, r, name=f"fr{n}_{counter}")
                if not check_ik_frame(frame).is_ik:
                    continue
                code = canonical_code(frame.up_rows, mask_rows(r))
                if code in seen:
                    continue
                seen.add(code)
                counter += 1
                yield frame


# ----------------------------------------------- frame-validity oracle


def row_frame_validity(frame, formula, var_cap=4):
    """frames.frame_validity on bool rows: a block's truth sets as a
    (valuations, worlds) bool matrix, each clause a bool matrix product
    with the frame's relations (frames._row_clause, as truth_set reads
    them), and the witness read from the first row that is not all true."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    program = compile_formula(formula)
    names = program.variables
    if len(names) > var_cap:
        raise CapExceeded("variable count", var_cap)
    upsets = np.array(up_sets(frame.leq))
    worlds = np.arange(frame.n)
    for grid in valuation_blocks(len(upsets), len(names)):
        # (variable, valuation, world) bits of this block's up-sets
        rows = (upsets[grid, None] >> worlds & 1).astype(bool)
        empty = np.zeros((grid.shape[1], frame.n), dtype=bool)
        truth = _truth_rows(program, dict(zip(names, rows)), empty, _row_clause(frame))
        valid = truth.all(axis=1)
        if not valid.all():
            first = int(np.argmin(valid))
            return FrameCounterexample(
                valuation={
                    v: tuple(frame.names[x] for x in np.flatnonzero(rows[k, first]))
                    for k, v in enumerate(names)
                },
                world=frame.names[int(np.argmin(truth[first]))],
            )
    return None


def sweep_formulas():
    """The formulas of the frames-size3 benchmark: the 39 instances of the
    IK_t and BR1-BR4 axioms, metavariables sent to p, q, r, s in name
    order, then its 4 non-theorems, each with a countermodel on some IK
    frame of at most 3 worlds."""
    tense = sorted(proofs.SYSTEMS["IK_t"].axioms - proofs.SYSTEMS["Int"].axioms)
    names = tense + ["BR1", "BR2", "BR3", "BR4"] + sorted(proofs.SYSTEMS["Int"].axioms)
    out = []
    for name in names:
        schema = proofs.AXIOM_SCHEMAS[name]
        letters = dict(zip(metavariables_of(schema), map(Var, "pqrs")))
        out.append(substitute(schema, letters))
    non_theorems = ("G p -> p", "p | ~ p", "F p <-> ~ G ~ p", "G (p | q) -> G p | F q")
    return out + [parse_formula(text) for text in non_theorems]


# ------------------------------------------------------ search oracles


def scan_combos(bounds, ambient, judge):
    """search._scan_combos as a loop over the combo stream, one combo at
    a time, with no clock: judge sees each combo whose ambient laws hold
    and returns a witness to stop, or None to go on."""
    combos = eligible = 0
    for alg in enumerate_op_combos(bounds.max_algebra_size, bounds.max_gc_pairs):
        combos += 1
        if not all(alg.laws.holds(law) for law in ambient):
            continue
        eligible += 1
        witness = judge(alg)
        if witness is not None:
            return Verdict("found", witness, {"combos": combos, "eligible": eligible})
    return Verdict("exhausted", None, {"combos": combos, "eligible": eligible})


def find_countermodel(formula, bounds, laws_required):
    """search.find_algebra_countermodel with algebra_validity on each
    eligible combo."""

    def judge(alg):
        cex = algebra_validity(alg, formula, var_cap=bounds.max_vars)
        if cex is None:
            return None
        valuation = {v: alg.names[x] for v, x in cex.items()}
        return CounterModel(alg, valuation, alg.names[evaluate(alg, cex, formula)])

    return scan_combos(bounds, tuple(laws_required), judge)


def law_equivalence(laws_a, laws_b, bounds, direction="either", ambient=H2GC_LAWS):
    """search.test_law_equivalence reading each eligible combo's report."""
    laws_a, laws_b = tuple(laws_a), tuple(laws_b)

    def judge(alg):
        a_green = all(alg.laws.holds(law) for law in laws_a)
        b_green = all(alg.laws.holds(law) for law in laws_b)
        if direction != "backward" and a_green and not b_green:
            violated = next(law for law in laws_b if not alg.laws.holds(law))
            return Separation(alg, laws_a, violated, "forward")
        if direction != "forward" and b_green and not a_green:
            violated = next(law for law in laws_a if not alg.laws.holds(law))
            return Separation(alg, laws_b, violated, "backward")
        return None

    return scan_combos(bounds, ambient, judge)


def verdict_record(verdict):
    """What two scans must agree on: status, counts and the witness, with
    the witness's algebra as its base, four tables and verdict bits."""
    w = verdict.witness
    if w is not None:
        alg = w.algebra
        tables = tuple(tuple(t.tolist()) for t in (alg.dia, alg.box, alg.bdia, alg.bbox))
        fields = (
            (dict(w.valuation), w.value)
            if isinstance(w, CounterModel)
            else (w.satisfied, w.violated, w.direction)
        )
        w = (type(w).__name__, alg.base.name, tables, alg.laws.bits, *fields)
    counts = (verdict.scanned["combos"], verdict.scanned["eligible"])
    return verdict.status, counts, w
