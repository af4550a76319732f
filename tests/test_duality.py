import itertools

import numpy as np
import pytest

from tenselab.algebra import (
    attach_ops,
    dunn_separating_algebra,
    evaluate,
    identity_expansion,
    stock_algebras,
)
from tenselab.duality import (
    CanonicalFrameResult,
    ComplexAlgebraResult,
    DegenerateAlgebra,
    EmbeddingReport,
    NotAnH2GCFSAlgebra,
    NotAnIKFrame,
    _OP_NAMES,
    canonical_frame,
    complex_algebra,
    embedding_check,
    prime_filters,
)
from tenselab.frames import (
    Frame,
    Model,
    check_ik_frame,
    compose,
    enumerate_frames,
    make_frame,
    stock_frames,
    truth_set,
)
from tenselab.fuzzy import build_fuzzy_algebra, dunn2_failure_instance
from tenselab.lattice import (
    chain,
    diamond,
    diamond_with_bottom,
    enumerate_heyting,
    from_order,
    mask_rows,
    up_sets,
)

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


def _inverse_image_mask(table, filter_mask):
    """{a : table[a] in filter} as a bitmask."""
    return sum(1 << a for a in range(len(table)) if (filter_mask >> int(table[a])) & 1)


def _loop_canonical_frame(alg):
    """canonical_frame one filter pair at a time, on filter bitmasks."""
    if not alg.laws.all_green:
        raise NotAnH2GCFSAlgebra(alg.laws.failures())
    base = alg.base
    ups = mask_rows(base.leq)
    filters = tuple(sorted(ups[a] for a in base.join_irreducibles()))
    k = len(filters)
    if k == 0:
        raise DegenerateAlgebra()
    names = []
    for fm in filters:
        members = [a for a in range(base.n) if (fm >> a) & 1]
        names.append("^" + base.names[base.meet_all(members)])
    leq = np.zeros((k, k), dtype=bool)
    r_fwd = np.zeros((k, k), dtype=bool)
    r_bwd = np.zeros((k, k), dtype=bool)
    box_inv = [_inverse_image_mask(alg.box, fm) for fm in filters]
    dia_inv = [_inverse_image_mask(alg.dia, fm) for fm in filters]
    bbox_inv = [_inverse_image_mask(alg.bbox, fm) for fm in filters]
    bdia_inv = [_inverse_image_mask(alg.bdia, fm) for fm in filters]
    for i, fi in enumerate(filters):
        for j, fj in enumerate(filters):
            leq[i, j] = (fi & ~fj) == 0
            r_fwd[i, j] = (box_inv[i] & ~fj) == 0 and (fj & ~dia_inv[i]) == 0
            r_bwd[i, j] = (bbox_inv[j] & ~fi) == 0 and (fi & ~bdia_inv[j]) == 0
    agrees = bool((r_fwd == r_bwd).all())
    frame = Frame(tuple(names), leq, r_fwd, name="canonical")
    return CanonicalFrameResult(frame, filters, agrees)


def _loop_complex_algebra(frame):
    """complex_algebra one up-set and one world at a time, on bitmasks."""
    report = check_ik_frame(frame)
    if not report.is_ik:
        raise NotAnIKFrame(report)
    carrier = up_sets(frame.leq)
    index = {m: i for i, m in enumerate(carrier)}
    names = tuple(
        "{" + ",".join(frame.names[i] for i in range(frame.n) if (m >> i) & 1) + "}"
        for m in carrier
    )
    pairs = []
    for a, ma in enumerate(carrier):
        for b, mb in enumerate(carrier):
            if (ma & ~mb) == 0:
                pairs.append((names[a], names[b]))
    base = from_order(names, pairs, name=f"complex({frame.name or 'frame'})")
    n = frame.n
    r_rows = mask_rows(frame.r)
    r_cols = mask_rows(frame.r.T)
    g_rows = mask_rows(frame.leq_r)
    h_cols = mask_rows(frame.r_up.T)
    dia_t, box_t, bdia_t, bbox_t = [], [], [], []
    for m in carrier:
        dia_m = sum(1 << x for x in range(n) if r_rows[x] & m)
        box_m = sum(1 << x for x in range(n) if not (g_rows[x] & ~m))
        bdia_m = sum(1 << x for x in range(n) if r_cols[x] & m)
        bbox_m = sum(1 << x for x in range(n) if not (h_cols[x] & ~m))
        dia_t.append(index[dia_m])
        box_t.append(index[box_m])
        bdia_t.append(index[bdia_m])
        bbox_t.append(index[bbox_m])
    alg = attach_ops(base, dia_t, box_t, bdia_t, bbox_t)
    return ComplexAlgebraResult(alg, carrier)


def _loop_embedding(alg):
    """embedding_check one element pair at a time.

    h is a list of carrier indices found by search, each preservation
    law is a Python loop over its arguments, and the second pair of
    composition identities compares filter bitmasks.
    """
    if alg.n == 1:
        ops = dict.fromkeys(_OP_NAMES, True)
        return EmbeddingReport(0, True, True, ops, True, True, True, vacuous=True)
    base = alg.base
    cf = canonical_frame(alg)
    frame, filters = cf.frame, cf.filters
    ca = complex_algebra(frame)
    k = len(filters)

    h_mask = [
        sum(1 << i for i, fm in enumerate(filters) if (fm >> a) & 1)
        for a in range(base.n)
    ]
    h = [ca.carrier.index(m) for m in h_mask]

    injective = len(set(h)) == base.n
    surjective = set(h) == set(range(ca.algebra.n))

    cb = ca.algebra.base
    ops = {}
    ops["bottom"] = h[base.bottom] == cb.bottom
    ops["top"] = h[base.top] == cb.top
    ok_meet = ok_join = ok_imp = True
    for a in range(base.n):
        for b in range(base.n):
            ok_meet &= h[base.meet[a, b]] == cb.meet[h[a], h[b]]
            ok_join &= h[base.join[a, b]] == cb.join[h[a], h[b]]
            ok_imp &= h[base.imp[a, b]] == cb.imp[h[a], h[b]]
    ops["meet"], ops["join"], ops["imp"] = bool(ok_meet), bool(ok_join), bool(ok_imp)
    for label in ("dia", "box", "bdia", "bbox"):
        src, dst = getattr(alg, label), getattr(ca.algebra, label)
        ops[label] = all(h[int(src[a])] == int(dst[h[a]]) for a in range(base.n))

    def inverse_image(table, fm):
        return sum(1 << a for a in range(base.n) if (fm >> int(table[a])) & 1)

    bdia_inv = [inverse_image(alg.bdia, fm) for fm in filters]
    bbox_inv = [inverse_image(alg.bbox, fm) for fm in filters]
    want_leq_r = np.zeros((k, k), dtype=bool)
    want_r_geq = np.zeros((k, k), dtype=bool)
    for i, fi in enumerate(filters):
        for j in range(k):
            want_leq_r[i, j] = (fi & ~bdia_inv[j]) == 0
            want_r_geq[i, j] = (bbox_inv[j] & ~fi) == 0
    got_leq_r = compose(frame.leq, frame.r)
    got_r_geq = compose(frame.r, frame.leq.T)

    return EmbeddingReport(
        filters=k,
        injective=injective,
        surjective=surjective,
        operations=ops,
        key_lemma_agrees=cf.key_lemma_agrees,
        connection2_leq_r=bool((got_leq_r == want_leq_r).all()),
        connection2_r_geq=bool((got_r_geq == want_r_geq).all()),
    )


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

    def test_matches_loop_oracle(self, h2gc_fs_upto5):
        assert len(h2gc_fs_upto5) == 807
        # the stock bases and the fuzzy product are not canonically labeled
        others = [identity_expansion(b) for b in (chain(3), diamond(), diamond_with_bottom())]
        others.append(build_fuzzy_algebra(dunn2_failure_instance()).algebra)
        for alg in (*h2gc_fs_upto5, *others):
            if alg.n == 1:
                for build in (canonical_frame, _loop_canonical_frame):
                    with pytest.raises(DegenerateAlgebra):
                        build(alg)
                continue
            got, want = canonical_frame(alg), _loop_canonical_frame(alg)
            assert got.frame.names == want.frame.names, alg
            assert (got.frame.leq == want.frame.leq).all(), alg
            assert (got.frame.r == want.frame.r).all(), alg
            assert got.filters == want.filters, alg
            assert got.key_lemma_agrees is want.key_lemma_agrees, alg

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
            assert res.carrier == up_sets(fr.leq)
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

    def test_matches_loop_oracle(self, ik_frames_upto3):
        assert len(ik_frames_upto3) == 855
        for fr in ik_frames_upto3:
            got, want = complex_algebra(fr), _loop_complex_algebra(fr)
            assert got.algebra.names == want.algebra.names, fr
            assert (got.algebra.base.leq == want.algebra.base.leq).all(), fr
            for op in ("dia", "box", "bdia", "bbox"):
                assert getattr(got.algebra, op).tolist() == getattr(want.algebra, op).tolist()
            assert got.carrier == want.carrier, fr

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

    def test_matches_loop_oracle(self, h2gc_fs_upto5):
        assert len(h2gc_fs_upto5) == 807
        for alg in h2gc_fs_upto5:
            rep, want = embedding_check(alg), _loop_embedding(alg)
            assert rep == want, alg
            assert list(rep.operations) == list(want.operations) == list(_OP_NAMES)
            # plain Python values, as the CLI's JSON needs
            flags = (rep.injective, rep.surjective, *rep.operations.values())
            assert {type(v) for v in flags} == {bool}

    def test_wide_algebra_matches_loop_oracle(self):
        # 64 up-sets, so filter masks reach bit 63 and no longer fit in int64
        names = [f"w{i}" for i in range(6)]
        r = [(names[i], names[(i + 1) % 6]) for i in range(6)] + [("w0", "w0")]
        alg = complex_algebra(make_frame(names, [], r, name="cycle6")).algebra
        assert alg.n == 64
        rep = embedding_check(alg)
        assert rep == _loop_embedding(alg)
        assert rep.filters == 6 and rep.is_isomorphism

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
