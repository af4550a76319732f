import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tenselab import algebra
from tenselab.algebra import (
    CORE_LAWS,
    EXTRA_LAWS,
    H2GC_FS_LAWS,
    H2GC_LAWS,
    LAW_NAMES,
    VALUATION_BLOCK,
    CapExceeded,
    EvalError,
    ModalOperatorPresent,
    LawCheck,
    LawWitness,
    UnboundVariable,
    algebra_validity,
    attach_ops,
    dunn_separating_algebra,
    enumerate_gc_pairs,
    enumerate_op_combos,
    evaluate,
    identity_expansion,
    stock_algebras,
    valuation_blocks,
    valuation_names,
)
from tenselab.duality import complex_algebra, embedding_check
from tenselab.frames import FrameError, Model, enumerate_frames, stock_frames, truth_set
from tenselab.lattice import chain, diamond, diamond_with_top, enumerate_heyting
from tenselab.search import _eval_direct
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
    parse_schema,
)

from util import peak_allocation, random_formula

# ---------------------------------------------------------------- oracles


def _brute_gc_pairs(base):
    """All (f, g) with f(a) <= b iff a <= g(b), straight from the definition.

    Every unary f is tried, in table order; g(b) must be the c whose
    down-set is exactly {a : f(a) <= b}.
    """
    n = base.n
    fs = np.array(list(itertools.product(range(n), repeat=n)), dtype=np.int64)
    g = np.full((len(fs), n), -1)
    for b in range(n):
        below_b = base.leq[fs, b]  # f(a) <= b, for every f and a
        for c in range(n):
            g[(below_b == base.leq[:, c]).all(axis=1), b] = c
    keep = (g >= 0).all(axis=1)
    return [(tuple(f), tuple(r)) for f, r in zip(fs[keep].tolist(), g[keep].tolist())]


class NotJoinPreserving(ValueError):
    pass


class NotMeetPreserving(ValueError):
    pass


def _is_additive(base, f):
    if f[base.bottom] != base.bottom:
        return (base.bottom,)
    for a in range(base.n):
        for b in range(base.n):
            if f[base.join[a, b]] != base.join[f[a], f[b]]:
                return (a, b)
    return None


def _is_multiplicative(base, f):
    if f[base.top] != base.top:
        return (base.top,)
    for a in range(base.n):
        for b in range(base.n):
            if f[base.meet[a, b]] != base.meet[f[a], f[b]]:
                return (a, b)
    return None


def adjoint_of(base, f, side):
    """Residual of a unary table, by loops over the definition.

    side="lower": f must preserve joins and bottom; returns the unique g
    with f -| g.  side="upper": f must preserve meets and top; returns
    the unique g with g -| f.
    """
    arr = np.asarray(list(f), dtype=np.int64)
    if side == "lower":
        bad = _is_additive(base, arr)
        if bad is not None:
            raise NotJoinPreserving(tuple(base.names[i] for i in bad))
        g = tuple(
            base.join_all(a for a in range(base.n) if base.leq[arr[a], b]) for b in range(base.n)
        )
        assert all(base.leq[arr[g[b]], b] for b in range(base.n))
        return g
    if side == "upper":
        bad = _is_multiplicative(base, arr)
        if bad is not None:
            raise NotMeetPreserving(tuple(base.names[i] for i in bad))
        g = tuple(
            base.meet_all(b for b in range(base.n) if base.leq[a, arr[b]]) for a in range(base.n)
        )
        assert all(base.leq[a, arr[g[a]]] for a in range(base.n))
        return g
    raise ValueError("side must be 'lower' or 'upper'")


def _verdicts(ok, lhs, rhs):
    """One eager verdict per candidate on ok's leading axis.

    The other axes are the law's arguments.  A failing candidate's
    witness is its first failing argument tuple in row-major order, with
    both sides there; lhs and rhs broadcast to ok's shape.  This is how
    the grader made every witness up front before it kept only verdict
    bits and found witnesses when read.
    """
    count, shape = ok.shape[0], ok.shape[1:]
    flat = ok.reshape(count, -1)
    out = [LawCheck(True, None)] * count
    bad = np.flatnonzero(~flat.all(axis=1))
    if not len(bad):
        return out
    at = np.unravel_index(flat[bad].argmin(axis=1), shape) if shape else ()
    lw, rw = (
        np.broadcast_to(side, ok.shape)[(bad, *at)].astype(np.int64).tolist()
        for side in (lhs, rhs)
    )
    args = zip(*(axis.tolist() for axis in at)) if shape else itertools.repeat(())
    for c, a, l, r in zip(bad.tolist(), args, lw, rw):
        out[c] = LawCheck(False, LawWitness(a, l, r))
    return out


def _eager_verdicts(n_max, max_gc_pairs=None):
    """Every combo's list(verdicts.items()), in stream order, graded
    eagerly: each base's P * P combos as one stack per table."""
    out = []
    for base in enumerate_heyting(n_max):
        pairs = enumerate_gc_pairs(base)[:max_gc_pairs]
        lowers, uppers = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        p = len(pairs)
        # combo (i, k) reads pair i as pair 0 of algebra._LAWS and pair k as pair 1
        fs = (np.repeat(lowers, p, axis=0), np.tile(lowers, (p, 1)))
        gs = (np.repeat(uppers, p, axis=0), np.tile(uppers, (p, 1)))
        columns = []
        for law in LAW_NAMES:
            mode, d, b, sides = algebra._LAWS[law]
            lhs, rhs = sides(base, fs[d], gs[b])
            ok = base.leq[lhs, rhs] if mode == "leq" else lhs == rhs
            columns.append(_verdicts(ok, lhs, rhs))
        out.extend(list(zip(LAW_NAMES, row)) for row in zip(*columns))
    return out


def _scalar_laws(alg):
    """Each law's first failing (args, lhs, rhs), or None when it holds.

    Plain loops over the README law table, arguments in row-major
    order; the two Galois laws compare truth values, given as 0 or 1.
    """
    base = alg.base
    n, bot, top = base.n, base.bottom, base.top
    dia, box, bdia, bbox = (tuple(int(v) for v in t) for t in (alg.dia, alg.box, alg.bdia, alg.bbox))

    def leq(a, b):
        return bool(base.leq[a, b])

    def join(a, b):
        return int(base.join[a, b])

    def meet(a, b):
        return int(base.meet[a, b])

    def imp(a, b):
        return int(base.imp[a, b])

    one = [(x,) for x in range(n)]
    two = [(x, y) for x in range(n) for y in range(n)]
    table = {
        "gc_dia_bbox": ("iff", two, lambda x, y: (leq(dia[x], y), leq(x, bbox[y]))),
        "gc_bdia_box": ("iff", two, lambda x, y: (leq(bdia[x], y), leq(x, box[y]))),
        "additive_dia": ("eq", two, lambda x, y: (dia[join(x, y)], join(dia[x], dia[y]))),
        "normal_dia": ("eq", [()], lambda: (dia[bot], bot)),
        "additive_bdia": ("eq", two, lambda x, y: (bdia[join(x, y)], join(bdia[x], bdia[y]))),
        "normal_bdia": ("eq", [()], lambda: (bdia[bot], bot)),
        "multiplicative_box": ("eq", two, lambda x, y: (box[meet(x, y)], meet(box[x], box[y]))),
        "conormal_box": ("eq", [()], lambda: (box[top], top)),
        "multiplicative_bbox": ("eq", two, lambda x, y: (bbox[meet(x, y)], meet(bbox[x], bbox[y]))),
        "conormal_bbox": ("eq", [()], lambda: (bbox[top], top)),
        "br1": ("leq", one, lambda x: (x, bbox[dia[x]])),
        "br2": ("leq", one, lambda x: (dia[bbox[x]], x)),
        "br3": ("leq", one, lambda x: (x, box[bdia[x]])),
        "br4": ("leq", one, lambda x: (bdia[box[x]], x)),
        "fs1": ("leq", two, lambda x, y: (dia[imp(x, y)], imp(box[x], dia[y]))),
        "fs2": ("leq", two, lambda x, y: (imp(dia[x], box[y]), box[imp(x, y)])),
        "fs3": ("leq", two, lambda x, y: (bdia[imp(x, y)], imp(bbox[x], bdia[y]))),
        "fs4": ("leq", two, lambda x, y: (imp(bdia[x], bbox[y]), bbox[imp(x, y)])),
        "d1": ("leq", two, lambda x, y: (meet(dia[x], box[y]), dia[meet(x, y)])),
        "d2": ("leq", two, lambda x, y: (meet(bdia[x], bbox[y]), bdia[meet(x, y)])),
        "dunn2_dia": ("leq", two, lambda x, y: (box[join(x, y)], join(box[x], dia[y]))),
        "dunn2_bdia": ("leq", two, lambda x, y: (bbox[join(x, y)], join(bbox[x], bdia[y]))),
    }
    out = {}
    for name, (mode, domain, sides) in table.items():
        out[name] = None
        for args in domain:
            lhs, rhs = sides(*args)
            if not (leq(lhs, rhs) if mode == "leq" else lhs == rhs):
                out[name] = (args, int(lhs), int(rhs))
                break
    return out


def _graded(report):
    """A law report in the scalar checker's terms, Python ints checked."""
    out = {}
    for name, check in report.verdicts.items():
        w = check.witness
        assert check.holds == (w is None)
        if w is not None:
            assert all(type(v) is int for v in (*w.args, w.lhs, w.rhs)), name
            w = (w.args, w.lhs, w.rhs)
        out[name] = w
    assert list(out) == list(LAW_NAMES)
    return out


def _eval_ref(alg, env, f):
    """Scalar reference evaluator: table lookups and recursion, no numpy."""
    base = alg.base if hasattr(alg, "base") else alg
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Top):
        return base.top
    if isinstance(f, Bot):
        return base.bottom
    if isinstance(f, Not):
        return int(base.imp[_eval_ref(alg, env, f.child), base.bottom])
    if isinstance(f, And):
        return int(base.meet[_eval_ref(alg, env, f.left), _eval_ref(alg, env, f.right)])
    if isinstance(f, Or):
        return int(base.join[_eval_ref(alg, env, f.left), _eval_ref(alg, env, f.right)])
    if isinstance(f, Imp):
        return int(base.imp[_eval_ref(alg, env, f.left), _eval_ref(alg, env, f.right)])
    if isinstance(f, Iff):
        l = _eval_ref(alg, env, f.left)
        r = _eval_ref(alg, env, f.right)
        return int(base.meet[base.imp[l, r], base.imp[r, l]])
    table = {Dia: "dia", Box: "box", BDia: "bdia", BBox: "bbox"}[type(f)]
    return int(getattr(alg, table)[_eval_ref(alg, env, f.child)])


def _validity_ref(alg, f, names):
    """First valuation, in itertools.product order, at which f is not top."""
    for combo in itertools.product(range(alg.n), repeat=len(names)):
        env = dict(zip(names, combo))
        if _eval_ref(alg, env, f) != alg.base.top:
            return env
    return None


class TestGaloisPairs:
    # the max_gc_pairs cap keeps a prefix of this list, so order counts
    @pytest.mark.parametrize(
        "base",
        [chain(2), chain(3), chain(4), diamond(), *enumerate_heyting(6)],
        ids=lambda b: b.name,
    )
    def test_pairs_match_brute_force(self, base):
        assert enumerate_gc_pairs(base) == _brute_gc_pairs(base)

    def test_pair_counts(self):
        expected = {
            "chain2": 2,
            "chain3": 6,
            "chain4": 20,
            "chain5": 70,
            "diamond": 16,
            "diamond_with_top": 50,
            "diamond_with_bottom": 50,
        }
        stock = stock_algebras()
        for key, count in expected.items():
            assert len(enumerate_gc_pairs(stock[key])) == count, key

    def test_left_table_determines_pair(self):
        pairs = enumerate_gc_pairs(diamond())
        lefts = [f for f, _ in pairs]
        assert len(set(lefts)) == len(lefts)

    def test_adjoint_round_trips(self):
        for base in (chain(3), diamond(), diamond_with_top()):
            for f, g in enumerate_gc_pairs(base):
                assert adjoint_of(base, f, "lower") == g
                assert adjoint_of(base, g, "upper") == f

    def test_lower_requires_join_preservation(self):
        base = chain(3)
        const_top = (2, 2, 2)
        with pytest.raises(NotJoinPreserving):
            adjoint_of(base, const_top, "lower")

    def test_upper_requires_meet_preservation(self):
        base = chain(3)
        const_bot = (0, 0, 0)
        with pytest.raises(NotMeetPreserving):
            adjoint_of(base, const_bot, "upper")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            adjoint_of(chain(2), (0, 1), "sideways")


class TestAttachOps:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            attach_ops(chain(3), (0, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            attach_ops(chain(2), (0, 5), (0, 1), (0, 1), (0, 1))

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize(
        "table, message",
        [
            ((0, 1), "must list 3 values"),
            ((0, 1, 2, 2), "must list 3 values"),
            ((0, 3, 2), "index out of range"),
            ((0, -1, 2), "index out of range"),
        ],
    )
    def test_bad_table_fails_at_construction(self, grades, position, table, message):
        tables = [(0, 1, 2)] * 4
        tables[position] = table
        label = ("dia", "box", "bdia", "bbox")[position]
        with pytest.raises(ValueError, match=f"{label} table {message}"):
            attach_ops(chain(3), *tables)
        assert grades == []

    def test_identity_expansion_all_laws(self):
        for base in (chain(2), chain(4), diamond()):
            alg = identity_expansion(base)
            assert alg.laws.failures() == ()
            assert alg.laws.all_green and alg.laws.h2gc_green


_BASES_UPTO4 = list(enumerate_heyting(4))


class TestGrader:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scalar_checker(self, data):
        # random tables, each uniform or one side of a Galois pair, so
        # every law both holds and fails across the examples
        base = data.draw(st.sampled_from(_BASES_UPTO4), label="base")
        pairs = enumerate_gc_pairs(base)
        tables = []
        for side in (0, 1, 0, 1):  # dia, box, bdia, bbox
            uniform = st.lists(st.integers(0, base.n - 1), min_size=base.n, max_size=base.n)
            from_pair = st.sampled_from([pair[side] for pair in pairs])
            tables.append(data.draw(st.one_of(uniform, from_pair)))
        alg = attach_ops(base, *tables)
        assert _graded(alg.laws) == _scalar_laws(alg)

    def test_stream_matches_attach_ops(self, op_combos_upto5, graded_alone_upto5):
        # with the default cell budget each size-5 base's rows split into
        # chunks of 9 or 13, the last one short; the scalar checker, slow
        # at size 5, stops at size 4
        for alg, alone in zip(op_combos_upto5, graded_alone_upto5, strict=True):
            assert alg.laws.bits == alone.bits
            if alg.n <= 4:
                assert _graded(alg.laws) == _scalar_laws(alg)

    def test_witnesses_on_read_match_eager_grading(self, op_combos_upto5, eager_upto5):
        # every witness found on demand, in LAW_NAMES order
        for alg, eager in zip(op_combos_upto5, eager_upto5, strict=True):
            assert list(alg.laws.verdicts.items()) == eager

    def test_capped_stream_matches_eager_grading(self):
        stream = [list(alg.laws.verdicts.items()) for alg in enumerate_op_combos(6, 4)]
        assert stream == _eager_verdicts(6, 4)

    def test_chunks_read_in_any_order(self, fresh_verdicts, op_combos_upto5):
        # reading a base's last chunk first grades the rows before it as
        # well, so reading the chunks backwards gives the stream's combos
        # backwards
        read = []
        for base in reversed(list(enumerate_heyting(5))):
            kept, p = algebra._verdicts(base, None)
            for start in reversed(range(0, p, kept.step)):
                bits = kept.chunk(start, p)
                for (i, k), b in reversed(list(np.ndenumerate(bits))):
                    f, g = kept.f, kept.g
                    read.append((base, b, f[start + i], g[k], f[k], g[start + i]))
        for (base, bits, *tables), was in zip(read[::-1], op_combos_upto5, strict=True):
            assert base is was.base and bits == was.laws.bits
            for table, got in zip(("dia", "box", "bdia", "bbox"), tables):
                assert (got == getattr(was, table)).all()

    @pytest.mark.parametrize("cells", [1, 2600])
    def test_chunk_boundaries(self, monkeypatch, grades, op_combos_upto5, eager_upto5, cells):
        # a budget of 1 grades one row i per chunk; 2600 puts whole
        # size-3 bases in one chunk, splits size-4 bases as 10 + 6 and
        # 8 + 8 + 4 rows and size-5 bases into 2- or 1-row chunks
        monkeypatch.setattr(algebra, "GRADE_CELLS", cells)
        stream = list(enumerate_op_combos(5))
        chunks = Counter(base.name for base in grades)
        assert chunks["ha4_3"] == (16 if cells == 1 else 2)
        assert chunks["ha5_6"] == (50 if cells == 1 else 25)
        for alg, was, eager in zip(stream, op_combos_upto5, eager_upto5, strict=True):
            assert alg.base is was.base
            for table in ("dia", "box", "bdia", "bbox"):
                assert (getattr(alg, table) == getattr(was, table)).all()
            assert alg.laws.bits == was.laws.bits
            assert list(alg.laws.verdicts.items()) == eager


@pytest.fixture(scope="module")
def graded_alone_upto5(op_combos_upto5):
    """The law report of each combo up to size 5, graded alone by attach_ops."""
    return [
        attach_ops(a.base, a.dia, a.box, a.bdia, a.bbox).laws for a in op_combos_upto5
    ]


@pytest.fixture(scope="module")
def eager_upto5():
    return _eager_verdicts(5)


class TestWitnessOnRead:
    @pytest.fixture
    def found(self, monkeypatch):
        """The law of every call to the witness builder, in call order."""
        calls = []
        witness = algebra._witness

        def counted(base, tables, law):
            calls.append(law)
            return witness(base, tables, law)

        monkeypatch.setattr(algebra, "_witness", counted)
        return calls

    @staticmethod
    def _read_bits(report):
        for law in LAW_NAMES:
            assert report.verdicts[law].holds == report.holds(law)
        return report.all_green, report.h2gc_green, report.failures()

    def test_stream_verdicts_find_no_witness(self, found):
        green = sum(self._read_bits(alg.laws)[0] for alg in enumerate_op_combos(5))
        assert green == 807
        assert found == []

    def test_attach_ops_verdicts_find_no_witness(self, found, graded_alone_upto5):
        fresh = [identity_expansion(chain(3)), dunn_separating_algebra()]
        for report in [*graded_alone_upto5, *(alg.laws for alg in fresh)]:
            self._read_bits(report)
        assert found == []

    def test_witness_found_once_when_read(self, found):
        report = dunn_separating_algebra().laws
        check = report.verdicts["d1"]
        assert found == []
        assert check.witness == report.witness("d1") == check.witness
        assert found == ["d1"]
        assert report.witness("gc_dia_bbox") is None
        assert found == ["d1"]


class TestLazyLaws:
    def test_stream_passes_its_reports_in(self, grades):
        combos = list(enumerate_op_combos(3))
        assert len(grades) == 3  # one batch per base
        assert all(alg.laws.verdicts for alg in combos)
        assert len(grades) == 3

    def test_attach_ops_grades_on_first_read(self, grades):
        alg = identity_expansion(chain(3))
        assert grades == []
        report = alg.laws
        assert grades == [alg.base]
        assert alg.laws is report and alg.laws.all_green
        assert grades == [alg.base]

    def test_complex_algebra_grades_on_first_read(self, grades):
        frame = next(f for f in enumerate_frames(3) if f.n == 3)
        result = complex_algebra(frame)
        assert grades == []
        assert result.algebra.laws.all_green and result.algebra.laws.all_green
        assert grades == [result.algebra.base]

    def test_embedding_check_reads_only_its_input(self, grades):
        alg = identity_expansion(diamond())
        assert embedding_check(alg).is_isomorphism
        assert grades == [alg.base]
        alg.laws
        assert grades == [alg.base]


class TestLawVocabulary:
    def test_partition(self):
        assert len(LAW_NAMES) == 22
        assert set(CORE_LAWS) | EXTRA_LAWS == set(LAW_NAMES)
        assert not set(CORE_LAWS) & EXTRA_LAWS
        assert H2GC_FS_LAWS == CORE_LAWS
        assert set(H2GC_LAWS) == set(CORE_LAWS) - {
            "fs1",
            "fs2",
            "fs3",
            "fs4",
            "d1",
            "d2",
        }

    def test_dunn_separating_report(self):
        alg = dunn_separating_algebra()
        rep = alg.laws
        assert rep.h2gc_green
        assert not rep.all_green
        assert rep.failures() == ("fs1", "fs2", "fs3", "fs4", "d1", "d2")
        assert rep.holds("dunn2_dia") and rep.holds("dunn2_bdia")
        w = rep.witness("d1")
        names = alg.names
        assert tuple(names[i] for i in w.args) == ("a", "0")
        assert names[w.lhs] == "c"
        assert names[w.rhs] == "0"
        assert rep.witness("gc_dia_bbox") is None

    def test_witness_reproduces_failure(self):
        # replay every reported witness against the raw tables
        alg = dunn_separating_algebra()
        base = alg.base
        for law in alg.laws.failures():
            w = alg.laws.witness(law)
            assert w is not None
            if law == "d1":
                a, b = w.args
                assert base.meet[alg.dia[a], alg.box[b]] == w.lhs
                assert alg.dia[base.meet[a, b]] == w.rhs
            if law == "d2":
                a, b = w.args
                assert base.meet[alg.bdia[a], alg.bbox[b]] == w.lhs
                assert alg.bdia[base.meet[a, b]] == w.rhs
            assert not base.leq[w.lhs, w.rhs]


_BASES_UPTO5 = list(enumerate_heyting(5))
_PROP_FORMULAS = st.recursive(
    st.sampled_from([Top(), Bot(), Var("p"), Var("q"), Var("r")]),
    lambda sub: st.one_of(
        sub.map(Not),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([And, Or, Imp, Iff]), sub, sub),
    ),
    max_leaves=12,
)


class TestEvaluate:
    def test_matches_reference_evaluator(self):
        rng = random.Random(20240818)
        algs = [
            stock_algebras()["chain3_identity"],
            dunn_separating_algebra(),
            identity_expansion(diamond()),
        ]
        for _ in range(300):
            alg = rng.choice(algs)
            f = random_formula(rng, depth=4)
            env = {v: rng.randrange(alg.n) for v in ("p", "q", "r")}
            assert evaluate(alg, env, f) == _eval_ref(alg, env, f)

    @settings(max_examples=200, deadline=None)
    @given(_PROP_FORMULAS, st.data())
    def test_matches_table_walk_on_every_size5_base(self, f, data):
        for base in _BASES_UPTO5:
            env = {v: data.draw(st.integers(0, base.n - 1), label=v) for v in "pqr"}
            assert evaluate(base, env, f) == _eval_direct(base, env, f), base.name

    @staticmethod
    def _modal_matches_reference(combos, rng):
        # two random formulas per combo: one value and the first
        # countervaluation, each against the scalar reference
        outcomes = set()
        for alg in combos:
            for _ in range(2):
                f = random_formula(rng, depth=3)
                names = sorted({g.name for g in iter_subformulas(f) if isinstance(g, Var)})
                env = {v: rng.randrange(alg.n) for v in ("p", "q", "r")}
                assert evaluate(alg, env, f) == _eval_ref(alg, env, f), (alg, f)
                got = algebra_validity(alg, f)
                assert got == _validity_ref(alg, f, names), (alg, f)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_modal_matches_reference_on_every_combo_up_to_size4(self, op_combos_upto5):
        combos = [alg for alg in op_combos_upto5 if alg.n <= 4]
        assert len(combos) == 697
        self._modal_matches_reference(combos, random.Random(4))

    def test_modal_matches_reference_on_a_size5_sample(self, h2gc_fs_upto5):
        # 300 of the 725 size-5 combos among the 807 H2GC+FS ones up to size 5
        size5 = [alg for alg in h2gc_fs_upto5 if alg.n == 5]
        assert (len(h2gc_fs_upto5), len(size5)) == (807, 725)
        rng = random.Random(5)
        self._modal_matches_reference(rng.sample(size5, 300), rng)

    def test_accepts_names_and_text(self):
        alg = chain(3)
        assert alg.names[evaluate(alg, {"p": "m"}, "~ ~ p")] == "1"
        assert evaluate(alg, {"p": 1}, parse_formula("p -> p")) == alg.top

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(chain(2), {}, "p")

    def test_modal_needs_op_tables(self):
        with pytest.raises(ModalOperatorPresent):
            evaluate(chain(2), {"p": 0}, "F p")


_MODAL = (ModalOperatorPresent, "formula uses modal operators but no operator tables given")
_META = (EvalError, "metavariable 'X' has no semantic value")
_FRAME_META = (FrameError, "metavariable 'X' has no truth set")
_UNBOUND_P = (UnboundVariable, "valuation does not cover variable 'p'")


class TestErrorPrecedence:
    """With nothing bound, the first problem in preorder is reported:
    a modal node on a plain Heyting algebra, a metavariable, or an
    unbound variable."""

    @pytest.mark.parametrize(
        "text, plain, expanded, frame",
        [
            ("F X", _MODAL, _META, _FRAME_META),
            ("F p", _MODAL, _UNBOUND_P, _UNBOUND_P),
            ("X & F p", _META, _META, _FRAME_META),
            ("F p & q", _MODAL, _UNBOUND_P, _UNBOUND_P),
            ("p & X", _UNBOUND_P, _UNBOUND_P, _UNBOUND_P),
            ("F X | q", _MODAL, _META, _FRAME_META),
        ],
    )
    def test_first_problem_in_preorder(self, text, plain, expanded, frame):
        f = parse_schema(text)
        model = Model(stock_frames()["two_forward"], {})
        for run, (cls, message) in (
            (lambda: evaluate(chain(3), {}, f), plain),
            (lambda: evaluate(identity_expansion(chain(3)), {}, f), expanded),
            (lambda: truth_set(model, f), frame),
        ):
            with pytest.raises(cls) as exc:
                run()
            assert type(exc.value) is cls and str(exc.value) == message


class TestValidity:
    def test_valid_formulas(self):
        for text in ("p -> p", "~ (p & ~ p)", "p -> (q -> p)", "bot -> p"):
            for alg in (chain(3), diamond(), diamond_with_top()):
                assert algebra_validity(alg, text) is None

    def test_first_countervaluation_is_lex_minimal(self):
        alg = chain(3)
        got = algebra_validity(alg, "p -> q")
        assert got == {"p": 1, "q": 0}
        assert valuation_names(alg, got) == {"p": "m", "q": "0"}
        # cross-check: nothing earlier in (p, q) scan order fails
        f = parse_formula("p -> q")
        for p, q in itertools.product(range(3), repeat=2):
            if (p, q) < (1, 0):
                assert evaluate(alg, {"p": p, "q": q}, f) == alg.top
        # (0, 1) comes before (1, 0): the last variable runs fastest
        assert algebra_validity(alg, "q <-> p") == {"p": 0, "q": 1}

    def test_countervaluation_actually_fails(self):
        alg = dunn_separating_algebra()
        text = "F p & G q -> F (p & q)"
        got = algebra_validity(alg, text)
        assert got is not None
        assert evaluate(alg, got, text) != alg.base.top

    def test_first_countervaluation_past_the_first_block(self):
        # on the 16-chain the first (p, q, r, s) with all four nonzero is
        # column 4,369 of the scan, in the second block of valuations
        alg = chain(16)
        got = algebra_validity(alg, "~ (p & q & r & s)")
        assert got == {"p": 1, "q": 1, "r": 1, "s": 1}
        assert evaluate(alg, got, "~ (p & q & r & s)") != alg.top

    def test_peak_allocation_bounded_by_block(self):
        # 64^3 valuations of a law that holds on chains: one block of
        # them peaks under 1 MB, a single pass over all of them at 13 MB
        alg = chain(64)
        valid = []
        peak = peak_allocation(
            lambda: valid.append(algebra_validity(alg, "(p -> q) | (q -> p) | r") is None)
        )
        assert valid == [True]
        assert peak < 2 << 20

    def test_one_block_grid_is_shared_and_read_only(self):
        (grid,) = valuation_blocks(5, 2)
        assert grid.shape == (2, 25)
        assert valuation_blocks(5, 2)[0] is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 1
        # a multi-block sweep walks fresh blocks, one at a time
        blocks = valuation_blocks(VALUATION_BLOCK + 1, 1)
        first = next(iter(blocks))
        assert first.shape == (1, VALUATION_BLOCK) and first.flags.writeable

    def test_var_cap(self):
        with pytest.raises(CapExceeded):
            algebra_validity(chain(2), "p1 & p2 & p3 & p4 & p5")
        assert algebra_validity(chain(2), "p1 & p2 & p3 & p4 & p5", var_cap=5) == {
            f"p{i}": 0 for i in range(1, 6)
        }


class TestIntermediateSchemes:
    PRELINEARITY = "(p -> q) | (q -> p)"
    PEIRCE = "((p -> q) -> p) -> p"
    WEAK_EM = "~p | ~~p"

    def test_prelinearity(self):
        assert algebra_validity(chain(5), self.PRELINEARITY) is None
        assert algebra_validity(diamond(), self.PRELINEARITY) is None
        got = algebra_validity(diamond_with_top(), self.PRELINEARITY)
        assert valuation_names(diamond_with_top(), got) == {"p": "a", "q": "b"}

    def test_peirce(self):
        assert algebra_validity(chain(2), self.PEIRCE) is None
        got = algebra_validity(chain(3), self.PEIRCE)
        assert valuation_names(chain(3), got) == {"p": "m", "q": "0"}

    def test_weak_excluded_middle(self):
        assert algebra_validity(chain(4), self.WEAK_EM) is None
        assert algebra_validity(diamond(), self.WEAK_EM) is None
        assert algebra_validity(diamond_with_top(), self.WEAK_EM) is not None

    def test_custom_scheme_text(self):
        assert algebra_validity(chain(2), "p | ~ p") is None
        assert algebra_validity(chain(3), "p | ~ p") is not None


class TestEnumeration:
    def test_small_combo_counts(self):
        assert sum(1 for _ in enumerate_op_combos(3)) == 41
        assert sum(1 for _ in enumerate_op_combos(4)) == 697

    def test_combos_are_h2gc(self):
        for alg in enumerate_op_combos(3):
            assert alg.laws.h2gc_green

    def test_h2gc_fs_counts(self):
        assert sum(a.laws.all_green for a in enumerate_op_combos(3)) == 11
        assert sum(a.laws.all_green for a in enumerate_op_combos(4)) == 82

    def test_h2gc_fs_by_size(self, h2gc_fs_upto5):
        by_size = {}
        for a in h2gc_fs_upto5:
            by_size[a.n] = by_size.get(a.n, 0) + 1
        assert by_size == {1: 1, 2: 2, 3: 8, 4: 71, 5: 725}

    def test_full_combo_count(self, op_combos_upto5):
        assert len(op_combos_upto5) == 10597

    def test_size6_sweep(self):
        # the connecting-law collapse on every combo up to 6 elements
        per_base = Counter()
        green = 0
        for alg in enumerate_op_combos(6):
            per_base[alg.base.name] += 1
            green += alg.laws.all_green
            v = alg.laws.verdicts
            assert v["fs1"].holds == v["d1"].holds == v["fs4"].holds, alg.base.name
            assert v["fs2"].holds == v["d2"].holds == v["fs3"].holds, alg.base.name
        bases = list(enumerate_heyting(6))
        assert per_base == {b.name: len(enumerate_gc_pairs(b)) ** 2 for b in bases}
        assert sum(per_base.values()) == 173157
        assert green == 9581

    @pytest.mark.parametrize("k", [1, 2])
    def test_capped_stream_keeps_first_pairs(self, k):
        # the cap keeps the combos whose two Galois pairs are both among
        # the base's first k, in the uncapped stream's order
        def tables(alg):
            return tuple(tuple(t.tolist()) for t in (alg.dia, alg.bbox, alg.bdia, alg.box))

        first = {b.name: enumerate_gc_pairs(b)[:k] for b in enumerate_heyting(4)}
        want = [
            (alg.base.name, tables(alg))
            for alg in enumerate_op_combos(4)
            if tables(alg)[:2] in first[alg.base.name]
            and tables(alg)[2:] in first[alg.base.name]
        ]
        got = [
            (alg.base.name, tables(alg))
            for alg in enumerate_op_combos(4, max_gc_pairs=k)
        ]
        assert got == want
        assert len(got) < 697

    def test_pair_stacks_built_once(self):
        for base in enumerate_heyting(4):
            lowers, uppers = algebra._gc_stack(base)
            assert algebra._gc_stack(base)[0] is lowers
            want = enumerate_gc_pairs(base)
            assert list(zip(map(tuple, lowers.tolist()), map(tuple, uppers.tolist()))) == want
            for stack in (lowers, uppers):
                with pytest.raises(ValueError, match="read-only"):
                    stack[0, 0] = 0
        alg = next(iter(enumerate_op_combos(4, max_gc_pairs=2)))
        with pytest.raises(ValueError, match="read-only"):
            alg.dia[0] = 0

    def test_capped_stream_repeats(self):
        def listing():
            out, green = [], 0
            for alg in enumerate_op_combos(6, 4):
                tables = (alg.dia, alg.box, alg.bdia, alg.bbox)
                out.append((alg.base.name, *(tuple(t.tolist()) for t in tables)))
                green += alg.laws.all_green
            return out, green

        first, green = listing()
        assert (len(first), green) == (181, 120)
        assert listing() == (first, green)

    def test_stock_keys(self):
        assert sorted(stock_algebras()) == [
            "chain2",
            "chain3",
            "chain3_identity",
            "chain4",
            "chain5",
            "diamond",
            "diamond_with_bottom",
            "diamond_with_top",
            "dunn_separating",
        ]
