import itertools

import pytest

from tenselab.algebra import (
    dunn_separating_algebra,
    evaluate,
    identity_expansion,
    stock_algebras,
)
from tenselab.duality import (
    DegenerateAlgebra,
    NotAnH2GCFSAlgebra,
    NotAnIKFrame,
    canonical_frame,
    complex_algebra,
    embedding_check,
    prime_filters,
)
from tenselab.frames import (
    Model,
    check_ik_frame,
    enumerate_frames,
    stock_frames,
    truth_set,
)
from tenselab.fuzzy import build_fuzzy_algebra, dunn2_failure_instance
from tenselab.lattice import chain, diamond, diamond_with_bottom, enumerate_heyting, up_sets

# ---------------------------------------------------------------- oracles


def _brute_prime_filters(base):
    """Subset-by-subset check of the four defining clauses."""
    n = base.n
    out = []
    for mask in range(1, 1 << n):
        members = [a for a in range(n) if mask >> a & 1]
        if base.bottom in members:
            continue
        up = all(
            (mask >> b) & 1
            for a in members
            for b in range(n)
            if base.leq[a, b]
        )
        meets = all((mask >> int(base.meet[a, b])) & 1 for a in members for b in members)
        prime = all(
            (mask >> a) & 1 or (mask >> b) & 1
            for a in range(n)
            for b in range(n)
            if (mask >> int(base.join[a, b])) & 1
        )
        if up and meets and prime:
            out.append(mask)
    return tuple(out)


class TestPrimeFilters:
    def test_against_brute_force(self):
        for alg in enumerate_heyting(6):
            assert prime_filters(alg) == _brute_prime_filters(alg)

    def test_chain3_masks(self):
        # carrier order 0, m, 1: the filters are {1} and {m, 1}
        assert prime_filters(chain(3)) == (0b100, 0b110)

    def test_diamond_masks(self):
        assert prime_filters(diamond()) == (0b1010, 0b1100)

    def test_diamond_with_bottom_count(self):
        assert len(prime_filters(diamond_with_bottom())) == 3

    def test_one_element_has_none(self):
        assert prime_filters(chain(1)) == ()

    def test_filter_count_vs_join_irreducibles(self):
        # finite distributivity: filters correspond to join-irreducibles
        for alg in enumerate_heyting(5):
            irr = 0
            for a in range(alg.n):
                if a == alg.bottom:
                    continue
                below = [b for b in range(alg.n) if alg.leq[b, a] and b != a]
                if not below or alg.join_all(below) != a:
                    irr += 1
            assert len(prime_filters(alg)) == irr


class TestCanonicalFrame:
    def test_chain3_identity_shape(self):
        res = canonical_frame(stock_algebras()["chain3_identity"])
        assert res.frame.names == ("^1", "^m")
        assert res.filters == (0b100, 0b110)
        assert res.key_lemma_agrees
        assert check_ik_frame(res.frame).is_ik

    def test_fuzzy_dunn2_worlds(self):
        alg = build_fuzzy_algebra(dunn2_failure_instance()).algebra
        assert alg.n == 25
        assert canonical_frame(alg).frame.names == (
            "^(0,1)", "^(0,a)", "^(0,b)", "^(1,0)", "^(a,0)", "^(b,0)",
        )

    def test_filter_order_is_inclusion(self):
        res = canonical_frame(identity_expansion(diamond()))
        fr = res.frame
        for i, fi in enumerate(res.filters):
            for j, fj in enumerate(res.filters):
                assert bool(fr.leq[i, j]) == ((fi & ~fj) == 0)

    def test_rejects_core_failures(self):
        with pytest.raises(NotAnH2GCFSAlgebra) as exc:
            canonical_frame(dunn_separating_algebra())
        assert "d1" in exc.value.failures

    def test_degenerate(self):
        with pytest.raises(DegenerateAlgebra):
            canonical_frame(identity_expansion(chain(1)))

    def test_both_relation_readings_agree(self, h2gc_fs_upto4):
        for alg in h2gc_fs_upto4:
            if alg.n == 1:
                continue
            res = canonical_frame(alg)
            assert res.key_lemma_agrees
            assert check_ik_frame(res.frame).is_ik


class TestComplexAlgebra:
    def test_carrier_is_up_set_lattice(self, ik_frames_upto3):
        for fr in ik_frames_upto3[:120]:
            res = complex_algebra(fr)
            assert res.carrier == up_sets(fr.poset())
            assert res.algebra.laws.all_green

    def test_operator_tables_match_truth_sets(self):
        # modal set operators agree with formula evaluation on models
        for fr in enumerate_frames(2):
            res = complex_algebra(fr)
            for i, mask in enumerate(res.carrier):
                model = Model(
                    fr, {"p": [w for w in range(fr.n) if mask >> w & 1]}
                )
                for op, text in (
                    ("dia", "F p"),
                    ("box", "G p"),
                    ("bdia", "P p"),
                    ("bbox", "H p"),
                ):
                    table = getattr(res.algebra, op)
                    assert res.carrier[int(table[i])] == truth_set(model, text)

    def test_rejects_non_ik(self):
        with pytest.raises(NotAnIKFrame) as exc:
            complex_algebra(stock_frames()["two_forward"])
        assert not exc.value.report.forward.holds

    def test_element_names_are_world_sets(self):
        res = complex_algebra(stock_frames()["one_point"])
        assert res.algebra.base.names == ("{}", "{w}")


class TestEmbedding:
    def test_one_element_is_vacuous(self):
        rep = embedding_check(identity_expansion(chain(1)))
        assert rep.vacuous and rep.is_isomorphism and rep.filters == 0

    def test_chain3_identity(self):
        rep = embedding_check(stock_algebras()["chain3_identity"])
        assert rep.filters == 2
        assert rep.is_isomorphism
        assert rep.key_lemma_agrees
        assert rep.connection2_leq_r and rep.connection2_r_geq
        assert set(rep.operations) == {
            "bottom",
            "top",
            "meet",
            "join",
            "imp",
            "dia",
            "box",
            "bdia",
            "bbox",
        }

    def test_all_small_h2gc_fs(self, h2gc_fs_upto4):
        for alg in h2gc_fs_upto4:
            rep = embedding_check(alg)
            assert rep.is_isomorphism, alg
            assert rep.key_lemma_agrees
            assert rep.connection2_leq_r and rep.connection2_r_geq

    def test_rejects_core_failures(self):
        with pytest.raises(NotAnH2GCFSAlgebra):
            embedding_check(dunn_separating_algebra())

    FORMULAS = (
        "p",
        "p & q",
        "p | q",
        "p -> q",
        "~ p",
        "F p",
        "G p",
        "P p",
        "H q",
        "F (p -> q)",
        "G p & P q",
    )

    def test_truth_at_filter_is_membership(self, h2gc_fs_upto4):
        # canonical model: a formula holds at a prime filter exactly when
        # its algebra value is a member of that filter
        for alg in h2gc_fs_upto4:
            if alg.n == 1 or alg.n > 3:
                continue
            res = canonical_frame(alg)
            fr = res.frame
            for pv, qv in itertools.product(range(alg.n), repeat=2):
                val = {
                    var: [
                        i
                        for i, fm in enumerate(res.filters)
                        if (fm >> elem) & 1
                    ]
                    for var, elem in (("p", pv), ("q", qv))
                }
                model = Model(fr, val)
                for text in self.FORMULAS:
                    v = evaluate(alg, {"p": pv, "q": qv}, text)
                    mask = truth_set(model, text)
                    for i, fm in enumerate(res.filters):
                        assert bool(mask >> i & 1) == bool(fm >> v & 1)
