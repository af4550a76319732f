import itertools
import random

import pytest

from tenselab.algebra import (
    CORE_LAWS,
    EXTRA_LAWS,
    H2GC_FS_LAWS,
    H2GC_LAWS,
    LAW_NAMES,
    CapExceeded,
    ModalOperatorPresent,
    NotJoinPreserving,
    NotMeetPreserving,
    UnboundVariable,
    adjoint_of,
    algebra_validity,
    attach_ops,
    check_intermediate_identity,
    dunn_separating_algebra,
    enumerate_gc_pairs,
    enumerate_h2gc_fs,
    enumerate_op_combos,
    evaluate,
    identity_expansion,
    stock_algebras,
    valuation_names,
)
from tenselab.lattice import chain, diamond, diamond_with_top, enumerate_heyting
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
    parse_formula,
)

from util import random_formula

# ---------------------------------------------------------------- oracles


def _brute_gc_pairs(base):
    """All (f, g) with f(a) <= b iff a <= g(b), straight from the definition."""
    n = base.n
    found = set()
    for f in itertools.product(range(n), repeat=n):
        for g in itertools.product(range(n), repeat=n):
            if all(
                bool(base.leq[f[a], b]) == bool(base.leq[a, g[b]])
                for a in range(n)
                for b in range(n)
            ):
                found.add((f, g))
    return found


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


class TestGaloisPairs:
    @pytest.mark.parametrize(
        "base", [chain(2), chain(3), chain(4), diamond()], ids=lambda b: b.name or "d"
    )
    def test_pairs_match_brute_force(self, base):
        got = set(enumerate_gc_pairs(base))
        assert got == _brute_gc_pairs(base)

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

    def test_identity_expansion_all_laws(self):
        for base in (chain(2), chain(4), diamond()):
            alg = identity_expansion(base)
            assert alg.laws.failures() == ()
            assert alg.laws.all_green and alg.laws.h2gc_green


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

    def test_countervaluation_actually_fails(self):
        alg = dunn_separating_algebra()
        text = "F p & G q -> F (p & q)"
        got = algebra_validity(alg, text)
        assert got is not None
        assert evaluate(alg, got, text) != alg.base.top

    def test_var_cap(self):
        with pytest.raises(CapExceeded):
            algebra_validity(chain(2), "p1 & p2 & p3 & p4 & p5")
        assert algebra_validity(chain(2), "p1 & p2 & p3 & p4 & p5", var_cap=5) == {
            f"p{i}": 0 for i in range(1, 6)
        }


class TestIntermediateSchemes:
    def test_prelinearity(self):
        assert check_intermediate_identity(chain(5), "prelinearity") is None
        assert check_intermediate_identity(diamond(), "prelinearity") is None
        got = check_intermediate_identity(diamond_with_top(), "prelinearity")
        assert valuation_names(diamond_with_top(), got) == {"p": "a", "q": "b"}

    def test_peirce(self):
        assert check_intermediate_identity(chain(2), "peirce") is None
        got = check_intermediate_identity(chain(3), "peirce")
        assert valuation_names(chain(3), got) == {"p": "m", "q": "0"}

    def test_weak_excluded_middle(self):
        assert check_intermediate_identity(chain(4), "weak_em") is None
        assert check_intermediate_identity(diamond(), "weak_em") is None
        assert check_intermediate_identity(diamond_with_top(), "weak_em") is not None

    def test_custom_scheme_text(self):
        assert check_intermediate_identity(chain(2), "p | ~ p") is None
        assert check_intermediate_identity(chain(3), "p | ~ p") is not None


class TestEnumeration:
    def test_small_combo_counts(self):
        assert sum(1 for _ in enumerate_op_combos(3)) == 41
        assert sum(1 for _ in enumerate_op_combos(4)) == 697

    def test_combos_are_h2gc(self):
        for alg in enumerate_op_combos(3):
            assert alg.laws.h2gc_green

    def test_h2gc_fs_counts(self):
        assert len(enumerate_h2gc_fs(3)) == 11
        assert len(enumerate_h2gc_fs(4)) == 82

    def test_h2gc_fs_by_size(self, h2gc_fs_upto5):
        by_size = {}
        for a in h2gc_fs_upto5:
            by_size[a.n] = by_size.get(a.n, 0) + 1
        assert by_size == {1: 1, 2: 2, 3: 8, 4: 71, 5: 725}

    def test_full_combo_count(self, op_combos_upto5):
        assert len(op_combos_upto5) == 10597

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
