import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tenselab import duality, frames
from tenselab.algebra import CapExceeded, UnboundVariable
from tenselab.frames import (
    Frame,
    FrameError,
    Model,
    NotAPreorder,
    NotUpClosed,
    check_ik_frame,
    compose,
    enumerate_frames,
    frame_validity,
    make_frame,
    satisfies,
    stock_frames,
    truth_set,
)
from tenselab.lattice import mask_rows, transitive_closure, up_sets
from tenselab.syntax import (
    And,
    BBox,
    BDia,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    Var,
    iter_subformulas,
    parse_formula,
)

from util import (
    canonical_code,
    loop_frames,
    peak_allocation,
    random_formula,
    row_frame_validity,
    sweep_formulas,
)

# ---------------------------------------------------------------- oracles


def truth_worlds(model, formula):
    """Names of the worlds where the formula holds, in world order."""
    mask = truth_set(model, formula)
    return tuple(n for i, n in enumerate(model.frame.names) if mask & (1 << i))


def _holds(fr, val, x, f):
    """World-by-world truth, straight quantifier loops over leq and r.

    val maps each variable to a set of world indices.
    """
    leq, r, n = fr.leq, fr.r, fr.n
    if isinstance(f, Var):
        return x in val[f.name]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return _holds(fr, val, x, f.left) and _holds(fr, val, x, f.right)
    if isinstance(f, Or):
        return _holds(fr, val, x, f.left) or _holds(fr, val, x, f.right)
    if isinstance(f, Not):
        return all(not _holds(fr, val, y, f.child) for y in range(n) if leq[x, y])
    if isinstance(f, Imp):
        return all(
            _holds(fr, val, y, f.right)
            for y in range(n)
            if leq[x, y] and _holds(fr, val, y, f.left)
        )
    if isinstance(f, Iff):
        return all(
            _holds(fr, val, y, f.left) == _holds(fr, val, y, f.right)
            for y in range(n)
            if leq[x, y]
        )
    if isinstance(f, Dia):
        return any(
            _holds(fr, val, y, f.child)
            for y in range(n)
            if any(r[x, z] and leq[y, z] for z in range(n))
        )
    if isinstance(f, Box):
        return all(
            _holds(fr, val, y, f.child)
            for y in range(n)
            if any(leq[x, z] and r[z, y] for z in range(n))
        )
    if isinstance(f, BDia):
        return any(
            _holds(fr, val, y, f.child)
            for y in range(n)
            if any(leq[y, z] and r[z, x] for z in range(n))
        )
    if isinstance(f, BBox):
        return all(
            _holds(fr, val, y, f.child)
            for y in range(n)
            if any(r[y, z] and leq[x, z] for z in range(n))
        )
    raise TypeError(f)


def _is_intgc_relation(leq, s):
    """(>= ; s ; >=) subseteq s, the stability law of one-relation frames."""
    geq = leq.T
    return not (compose(compose(geq, s), geq) & ~s).any()


def _ik_via_stability(frame):
    """Equivalent formulation of the IK conditions.

    The frame is IK iff both derived relations R;>= and (R;>=)^-1 read
    against the order are stable: (>=;(R;>=);>=) subseteq R;>= and the
    same for (<=;R) transposed.  Used as a cross-check on
    check_ik_frame.
    """
    geq = frame.leq.T
    s1 = compose(frame.r, geq)
    s2 = compose(frame.leq, frame.r).T
    return _is_intgc_relation(frame.leq, s1) and _is_intgc_relation(frame.leq, s2)


def _persistence_violations(model, formulas):
    """(formula, lower, upper) for each formula whose truth set is not
    up-closed: lower is its first true world with upper, a false world,
    above it.  Empty on IK frames; on arbitrary frames this is where the
    confluence conditions earn their keep."""
    fr = model.frame
    out = []
    for f in formulas:
        f = parse_formula(f) if isinstance(f, str) else f
        mask = truth_set(model, f)
        for x in range(fr.n):
            missing = fr.up_rows[x] & ~mask
            if mask >> x & 1 and missing:
                out.append((f, fr.names[x], fr.names[missing.bit_length() - 1]))
                break
    return tuple(out)


def _labeled_frames():
    """Every frame on the worlds w0, and on w0 and w1, IK or not: each
    preorder (on two points every reflexive relation is one) with each
    relation R, in bit order.  There are 66."""
    out = []
    for n in (1, 2):
        names = tuple(f"w{i}" for i in range(n))
        off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for up in itertools.product((False, True), repeat=len(off_diag)):
            leq = np.eye(n, dtype=bool)
            for (i, j), b in zip(off_diag, up):
                leq[i, j] = b
            for bits in itertools.product((False, True), repeat=n * n):
                out.append(Frame(names, leq, np.array(bits, dtype=bool).reshape(n, n)))
    return out


def sample_frames(n: int, count: int, seed: int, require_ik: bool = True) -> list[Frame]:
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


def _sample_pool():
    frames = list(stock_frames().values())
    frames += _labeled_frames()[::7]
    frames += sample_frames(3, 6, seed=11, require_ik=False)
    frames += sample_frames(4, 4, seed=12)
    return frames


def _six_cycle():
    """Six discrete worlds (64 up-sets) with R a cycle."""
    names = tuple(f"w{i}" for i in range(6))
    return make_frame(names, [], [(a, b) for a, b in zip(names, names[1:] + names[:1])])


def _sweep_pool():
    """12 IK and 12 non-IK frames of 4 to 6 worlds.  Their orders are
    sparse, so most of them have 12 to 64 up-sets."""
    rng = random.Random(25)
    pool = {True: [], False: []}
    while min(map(len, pool.values())) < 12:
        n = rng.choice((4, 5, 6))
        leq = np.array([[i == j or (i < j and rng.random() < 0.2) for j in range(n)] for i in range(n)])
        r = np.array([[rng.random() < 0.25 for _ in range(n)] for _ in range(n)])
        name = f"pool{len(pool[True]) + len(pool[False])}"
        fr = Frame(tuple(f"w{i}" for i in range(n)), transitive_closure(leq), r, name=name)
        kind = pool[check_ik_frame(fr).is_ik]
        if len(kind) < 12:
            kind.append(fr)
    return pool[True] + pool[False]


_SWEEP_POOL = _sweep_pool()

_FORMULAS = st.recursive(
    st.sampled_from([Top(), Bot(), Var("p"), Var("q")]),
    lambda sub: st.builds(lambda op, f: op(f), st.sampled_from([Not, Dia, Box, BDia, BBox]), sub)
    | st.builds(lambda op, f, g: op(f, g), st.sampled_from([And, Or, Imp, Iff]), sub, sub),
    max_leaves=10,
)


class TestCompose:
    def test_against_triple_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            a = rng.random((n, n)) < 0.4
            b = rng.random((n, n)) < 0.4
            got = compose(a, b)
            for x in range(n):
                for z in range(n):
                    expected = any(a[x, y] and b[y, z] for y in range(n))
                    assert bool(got[x, z]) == expected


class TestFrameConstruction:
    def test_make_frame_closes_order_only(self):
        fr = make_frame(
            ("a", "b", "c"), [("a", "b"), ("b", "c")], [("a", "c")]
        )
        assert fr.leq[0, 2] and fr.leq[0, 0]
        assert fr.r[0, 2] and not fr.r[0, 0] and not fr.r[2, 2]

    def test_missing_reflexivity(self):
        leq = np.zeros((2, 2), dtype=bool)
        leq[0, 0] = True
        with pytest.raises(NotAPreorder):
            Frame(("a", "b"), leq, np.zeros((2, 2), dtype=bool))

    def test_intransitive_order(self):
        leq = np.eye(3, dtype=bool)
        leq[0, 1] = leq[1, 2] = True
        with pytest.raises(NotAPreorder) as exc:
            Frame(("a", "b", "c"), leq, np.zeros((3, 3), dtype=bool))
        assert exc.value.witness == ("a", "c")

    def test_duplicate_names(self):
        with pytest.raises(FrameError):
            make_frame(("w", "w"), [], [])


class TestIKConditions:
    def test_stock_reports(self):
        stock = stock_frames()
        assert check_ik_frame(stock["one_point"]).is_ik

        rep = check_ik_frame(stock["two_forward"])
        assert not rep.is_ik
        assert not rep.forward.holds and rep.forward.witness == ("u", "u")
        assert rep.backward.holds

        rep = check_ik_frame(stock["two_chain_r_leq"])
        assert not rep.is_ik
        assert rep.forward.holds
        assert not rep.backward.holds and rep.backward.witness == ("u", "u")

    def test_two_formulations_agree(self):
        for fr in _labeled_frames():
            assert check_ik_frame(fr).is_ik == _ik_via_stability(fr)
        for fr in sample_frames(4, 25, seed=40, require_ik=False):
            assert check_ik_frame(fr).is_ik == _ik_via_stability(fr)

    def test_witness_reproduces_failure(self):
        fr = stock_frames()["two_forward"]
        rep = check_ik_frame(fr)
        x, y = (fr.index(w) for w in rep.forward.witness)
        rleq = compose(fr.r, fr.leq)
        leqr = compose(fr.leq, fr.r)
        assert rleq[x, y] and not leqr[x, y]


class TestModels:
    def test_rejects_non_up_closed(self):
        fr = stock_frames()["two_chain_r_leq"]
        with pytest.raises(NotUpClosed) as exc:
            Model(fr, {"p": ["w"]})
        assert (exc.value.var, exc.value.lower, exc.value.upper) == ("p", "w", "u")

    def test_accepts_world_indices_and_names(self):
        fr = stock_frames()["two_chain_r_leq"]
        assert Model(fr, {"p": ["u"]}).val == Model(fr, {"p": [1]}).val

    def test_unbound_variable(self):
        model = Model(stock_frames()["one_point"], {})
        with pytest.raises(UnboundVariable):
            truth_set(model, "p")

    def test_truth_against_reference(self):
        rng = random.Random(20240818)
        pool = _sample_pool()
        for _ in range(250):
            fr = rng.choice(pool)
            ups = up_sets(fr.leq)
            masks = {v: rng.choice(ups) for v in ("p", "q", "r")}
            val_sets = {
                v: {i for i in range(fr.n) if m >> i & 1} for v, m in masks.items()
            }
            model = Model(fr, {v: sorted(s) for v, s in val_sets.items()})
            f = random_formula(rng, depth=3)
            mask = truth_set(model, f)
            for x in range(fr.n):
                assert bool(mask >> x & 1) == _holds(fr, val_sets, x, f)

    def test_truth_on_every_labeled_two_world_frame(self):
        rng = random.Random(66)
        for fr in _labeled_frames():
            ups = up_sets(fr.leq)
            for _ in range(8):
                masks = {v: rng.choice(ups) for v in ("p", "q", "r")}
                val_sets = {
                    v: {i for i in range(fr.n) if m >> i & 1} for v, m in masks.items()
                }
                model = Model(fr, {v: sorted(s) for v, s in val_sets.items()})
                f = random_formula(rng, depth=4)
                mask = truth_set(model, f)
                for x in range(fr.n):
                    assert bool(mask >> x & 1) == _holds(fr, val_sets, x, f), (fr.name, f)

    def test_no_wrap_at_256_worlds(self):
        # 256 witnesses for F p at every world: an 8-bit count would read 0
        n = 256
        fr = Frame(
            tuple(f"w{i}" for i in range(n)),
            np.eye(n, dtype=bool),
            np.ones((n, n), dtype=bool),
        )
        model = Model(fr, {"p": range(n)})
        full = (1 << n) - 1
        for text in ("F p", "P p", "G p", "H p", "~ ~ F p"):
            assert truth_set(model, text) == full, text

    def test_truth_worlds_and_satisfies(self):
        fr = stock_frames()["two_chain_r_leq"]
        model = Model(fr, {"p": ["u"]})
        assert truth_worlds(model, "p") == ("u",)
        assert satisfies(model, "u", "p") and not satisfies(model, "w", "p")
        assert truth_worlds(model, "~ p") == ()
        assert truth_worlds(model, "~ ~ p") == ("w", "u")


class TestPersistence:
    FORMULAS = ("p", "~ p", "p -> q", "F p", "G p", "P p", "H p", "F (p & q)")

    def test_clean_on_ik_frames(self):
        frames = [f for f in _sample_pool() if check_ik_frame(f).is_ik]
        assert frames
        for fr in frames:
            ups = up_sets(fr.leq)
            rng = random.Random(fr.n * 101)
            for _ in range(5):
                masks = {v: rng.choice(ups) for v in ("p", "q")}
                model = Model(
                    fr,
                    {
                        v: [i for i in range(fr.n) if m >> i & 1]
                        for v, m in masks.items()
                    },
                )
                assert _persistence_violations(model, self.FORMULAS) == ()

    def test_violation_on_non_ik_frame(self):
        fr = stock_frames()["two_forward"]
        model = Model(fr, {"p": ["u"]})
        violations = _persistence_violations(model, ["P p"])
        assert len(violations) == 1
        formula, lower, upper = violations[0]
        assert (lower, upper) == ("w", "u")
        assert formula == parse_formula("P p")


class TestFrameValidity:
    def test_golden_counterexample(self):
        fr = stock_frames()["two_chain_r_leq"]
        got = frame_validity(fr, "G p -> p")
        assert got is not None
        assert got.valuation == {"p": ()} and got.world == "w"

    def test_valid_on_one_point(self):
        fr = stock_frames()["one_point"]
        for text in ("p | ~ p", "G p -> p", "p -> H F p", "F p <-> p"):
            assert frame_validity(fr, text) is None

    def test_round_trip_axiom_on_small_ik_frames(self):
        for fr in enumerate_frames(2):
            assert frame_validity(fr, "p -> H F p") is None
            assert frame_validity(fr, "P G p -> p") is None

    def test_against_brute_force(self):
        """The report is the first failure in the documented order:
        variables sorted by name, each running over the up-sets in
        ascending bitmask order with the last one fastest, and the
        lowest failing world of that valuation."""
        rng = random.Random(99)
        pool = _sample_pool()
        outcomes = set()
        for _ in range(60):
            fr = rng.choice(pool)
            f = random_formula(rng, depth=3, vars=("p", "q"))
            names = sorted({g.name for g in iter_subformulas(f) if isinstance(g, Var)})
            ups = up_sets(fr.leq)
            expected = None
            for masks in itertools.product(ups, repeat=len(names)):
                val = {
                    v: [i for i in range(fr.n) if m >> i & 1] for v, m in zip(names, masks)
                }
                worlds = [x for x in range(fr.n) if not _holds(fr, val, x, f)]
                if worlds:
                    expected = (
                        {v: tuple(fr.names[i] for i in ws) for v, ws in val.items()},
                        fr.names[worlds[0]],
                    )
                    break
            got = frame_validity(fr, f)
            assert (got and (got.valuation, got.world)) == expected, (fr.name, f)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_last_variable_runs_fastest(self):
        got = frame_validity(stock_frames()["one_point"], "q <-> p")
        assert got.valuation == {"p": (), "q": ("w",)} and got.world == "w"

    def test_first_counterexample_past_the_first_block(self):
        # 64 up-sets on six discrete worlds: the first failure of
        # ~(p & q & r), all three true at w0 alone, is valuation 4,161
        fr = _six_cycle()
        got = frame_validity(fr, "~ (p & q & r)")
        assert got.valuation == {"p": ("w0",), "q": ("w0",), "r": ("w0",)}
        assert got.world == "w0"

    def test_peak_allocation_bounded_by_block(self):
        # 64^3 valuations of a valid formula: one block of them peaks
        # under 1 MB, a single relational pass over all of them at 46 MB
        fr = _six_cycle()
        valid = []
        peak = peak_allocation(
            lambda: valid.append(frame_validity(fr, "F (p & q) -> F p & F q | r") is None)
        )
        assert valid == [True]
        assert peak < 2 << 20

    def test_var_cap(self):
        fr = stock_frames()["one_point"]
        with pytest.raises(CapExceeded):
            frame_validity(fr, "p1 & p2 & p3 & p4 & p5")

    def test_negative_var_cap(self, monkeypatch):
        monkeypatch.setattr(frames, "valuation_blocks", None)
        with pytest.raises(ValueError, match="var_cap must be 0 or more, not -1"):
            frame_validity(stock_frames()["one_point"], "top", var_cap=-1)

    def test_up_sets_listed_once_per_frame(self, monkeypatch):
        calls = []
        original = frames.up_sets

        def counted(leq):
            calls.append(leq)
            return original(leq)

        monkeypatch.setattr(frames, "up_sets", counted)
        fr = make_frame(("w", "u", "v"), [("w", "u")], [("u", "v"), ("v", "v")])
        assert check_ik_frame(fr).is_ik
        assert calls == []  # listed on first use, not when the frame is built
        rng = random.Random(43)
        for _ in range(43):
            frame_validity(fr, random_formula(rng, depth=3))
        assert len(calls) == 1 and calls[0] is fr.leq
        masks = fr.up_set_masks
        assert masks.dtype == np.intp and list(masks) == list(up_sets(fr.leq))
        with pytest.raises(ValueError):
            masks[0] = 1
        # the complex algebra reads the same list, in the same order
        assert duality.complex_algebra(fr).carrier == tuple(masks.tolist())
        assert len(calls) == 1 and calls[0] is fr.leq


class TestClauseTable:
    """frame_validity reads each unary clause from a table built once per
    frame; the bool-row sweep of util.row_frame_validity is its oracle."""

    @staticmethod
    def _row_table(fr):
        """Each clause of frames._CLAUSES on every world set, through the
        bool matrix products that truth_set uses."""
        sets = (np.arange(1 << fr.n)[:, None] >> np.arange(fr.n) & 1).astype(bool)
        clause = frames._row_clause(fr)
        return np.stack([clause(kind, sets) @ (1 << np.arange(fr.n)) for kind in frames._CLAUSES])

    def test_equals_row_clauses_on_every_world_set(self, ik_frames_upto3):
        rng = random.Random(8)
        non_ik = []
        while len(non_ik) < 200:
            (fr,) = sample_frames(rng.randint(2, 8), 1, seed=rng.random(), require_ik=False)
            if not check_ik_frame(fr).is_ik:
                non_ik.append(fr)
        assert max(fr.n for fr in non_ik) == 8
        for fr in (*ik_frames_upto3, *non_ik):
            assert (fr.clause_table == self._row_table(fr)).all(), fr

    def test_sweep_matches_row_oracle_on_the_benchmark_pairs(self, ik_frames_upto3):
        formulas = sweep_formulas()
        assert len(formulas) == 43
        refuted = Counter()
        for fr in ik_frames_upto3:
            for k, f in enumerate(formulas):
                got = frame_validity(fr, f)
                assert got == row_frame_validity(fr, f), (fr.name, f)
                if got is not None:
                    refuted[k] += 1
        # the axiom instances hold everywhere; each non-theorem fails somewhere
        assert sorted(refuted) == [39, 40, 41, 42]

    def test_pool_has_both_kinds(self):
        ik = [check_ik_frame(fr).is_ik for fr in _SWEEP_POOL]
        assert ik.count(True) == ik.count(False) == 12
        assert {fr.n for fr in _SWEEP_POOL} == {4, 5, 6}

    @settings(max_examples=80, deadline=None)
    @given(frame=st.sampled_from(_SWEEP_POOL), formula=_FORMULAS)
    def test_sweep_matches_row_oracle_on_drawn_formulas(self, frame, formula):
        assert frame_validity(frame, formula) == row_frame_validity(frame, formula)

    def test_built_once_by_the_sweep_alone(self, monkeypatch):
        calls = []
        original = frames._some_table

        def counted(rel):
            calls.append(rel)
            return original(rel)

        monkeypatch.setattr(frames, "_some_table", counted)
        listed = list(enumerate_frames(2))
        fr = listed[-1]
        assert check_ik_frame(fr).is_ik
        duality.complex_algebra(fr)
        truth_set(Model(fr, {"p": []}), "F p -> G ~ p")
        made = make_frame(("w", "u"), [("w", "u")], [("u", "w")])
        assert calls == []
        assert all("clause_table" not in f.__dict__ for f in (*listed, made))
        rng = random.Random(25)
        for _ in range(25):
            frame_validity(fr, random_formula(rng, depth=3))
        assert len(calls) == len(frames._CLAUSES)
        table = fr.clause_table
        assert table is fr.__dict__["clause_table"]
        assert table.dtype == np.intp and table.shape == (5, 1 << fr.n)
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert len(calls) == len(frames._CLAUSES)


class TestEnumeration:
    def test_labeled_two_world_count(self):
        assert len(_labeled_frames()) == 66

    def test_ik_count_up_to_iso(self, ik_frames_upto3):
        assert len(ik_frames_upto3) == 855
        for fr in ik_frames_upto3[:50]:
            assert check_ik_frame(fr).is_ik

    def test_iso_reduction_consistent(self):
        # the classes are IK, pairwise non-isomorphic, and cover every
        # labeled IK frame
        labeled = [f for f in _labeled_frames() if check_ik_frame(f).is_ik]
        classes = list(enumerate_frames(2))
        assert len(classes) <= len(labeled)
        assert all(check_ik_frame(f).is_ik for f in classes)

        def code(f):
            return canonical_code(f.up_rows, mask_rows(f.r))

        assert len({code(f) for f in classes}) == len(classes)
        assert {code(f) for f in classes} == {code(f) for f in labeled}

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_frames(4))

    def test_matches_candidate_loop(self, ik_frames_upto3):
        # the loop over all 14,914 labeled candidates meets each class
        # first in the copy the array listing keeps, in the same order
        oracle = list(loop_frames(3))
        assert len(oracle) == len(ik_frames_upto3) == 855
        for got, want in zip(ik_frames_upto3, oracle):
            assert (got.name, got.names) == (want.name, want.names)
            assert got.leq.dtype == got.r.dtype == bool
            assert (got.leq == want.leq).all() and (got.r == want.r).all()
            assert got.leq.flags.c_contiguous and got.r.flags.c_contiguous
        assert not np.shares_memory(ik_frames_upto3[0].r, ik_frames_upto3[1].r)

    def test_counts_per_world_count(self, ik_frames_upto3):
        assert Counter(f.n for f in ik_frames_upto3) == {1: 2, 2: 25, 3: 828}
        # with the discrete order these are the classical K_t frames,
        # digraphs with loops allowed: OEIS A000595
        discrete = Counter(f.n for f in ik_frames_upto3 if f.leq.sum() == f.n)
        assert discrete == {1: 2, 2: 10, 3: 104}

    def test_four_world_counts(self):
        total = discrete = 0
        for leq, r in frames._ik_frames(4):
            total += 1
            discrete += int(leq.sum()) == 4
        assert (total, discrete) == (106_865, 3_044)

    def test_sampling_deterministic(self):
        a = sample_frames(4, 5, seed=7)
        b = sample_frames(4, 5, seed=7)
        assert len(a) == 5
        for fa, fb in zip(a, b):
            assert (fa.leq == fb.leq).all() and (fa.r == fb.r).all()
            assert check_ik_frame(fa).is_ik
