"""The oracles against hand-worked cases and brute force."""

import itertools
import random

import pytest

import oracles
from workloads import random_tree

P, Q, R = ("var", "p"), ("var", "q"), ("var", "r")


def chain(k):
    return oracles.lattice_of([[a <= b for b in range(k)] for a in range(k)])


def order(n, pairs):
    return oracles.closure(n, pairs)


# 0 < c < a, b < 1 with elements named 0 c a b 1
DIAMOND_WITH_BOTTOM = order(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


def test_a006982_matches_down_set_lattices():
    assert oracles.count_distributive_lattices(6) == oracles.A006982


@pytest.mark.parametrize("leq", [
    order(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),  # M3
    order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]),  # N5
])
def test_lattice_of_rejects_non_distributive(leq):
    with pytest.raises(ValueError):
        oracles.lattice_of(leq)


def test_implication_is_residuation():
    for lat in oracles.down_set_lattices(5):
        for z, a, b in itertools.product(range(lat.n), repeat=3):
            assert lat.leq[lat.meet[z][a]][b] == lat.leq[z][lat.imp[a][b]]


def test_galois_pairs_match_brute_force():
    for lat in oracles.down_set_lattices(5):
        brute = []
        for f in itertools.product(range(lat.n), repeat=lat.n):
            if f[lat.bottom] == lat.bottom and all(
                f[lat.join[a][b]] == lat.join[f[a]][f[b]]
                for a in range(lat.n)
                for b in range(lat.n)
            ):
                brute.append(f)
        pairs = oracles.galois_pairs(lat)
        assert [f for f, _ in pairs] == brute
        assert oracles.galois_pair_count(lat) == len(brute)
        for f, g in pairs:
            for a, b in itertools.product(range(lat.n), repeat=2):
                assert lat.leq[f[a]][b] == lat.leq[a][g[b]]


def test_galois_pair_counts_of_chains():
    # monotone maps from a (k-1)-chain into a k-chain: C(2k-2, k-1)
    assert [oracles.galois_pair_count(chain(k)) for k in (1, 2, 3, 4)] == [1, 2, 6, 20]


def dunn_separating():
    lat = oracles.lattice_of(DIAMOND_WITH_BOTTOM)
    dia = (0, 0, 2, 0, 2)
    box = (3, 3, 4, 3, 4)
    return lat, oracles.Ops(dia, box, dia, box)


def test_law_checker_on_identity_operators():
    lat = chain(3)
    ident = tuple(range(3))
    verdicts = oracles.check_laws(lat, oracles.Ops(ident, ident, ident, ident))
    assert all(v is None for v in verdicts.values())


def test_law_checker_separates_d1_from_dunn2():
    lat, ops = dunn_separating()
    verdicts = oracles.check_laws(lat, ops)
    failing = {law for law, v in verdicts.items() if v is not None}
    assert failing == {"fs1", "fs2", "fs3", "fs4", "d1", "d2"}
    args, lhs, rhs = verdicts["d1"]
    assert (lhs, rhs) == (1, 0)  # dia a & box b = c against dia(a & b) = 0
    assert not oracles.is_h2gc_fs(lat, ops)


def test_law_checker_collapses_the_connecting_laws():
    # on every H2GC structure fs1 = d1 = fs4 and fs2 = d2 = fs3
    for lat in oracles.down_set_lattices(4):
        pairs = oracles.galois_pairs(lat)
        for (f1, g1), (f2, g2) in itertools.product(pairs, repeat=2):
            v = oracles.check_laws(lat, oracles.Ops(f1, g2, f2, g1))
            assert v["gc_dia_bbox"] is None and v["gc_bdia_box"] is None
            assert (v["fs1"] is None) == (v["d1"] is None) == (v["fs4"] is None)
            assert (v["fs2"] is None) == (v["d2"] is None) == (v["fs3"] is None)


def test_table_walk_on_readme_examples():
    lat = chain(3)  # 0 < m < 1
    assert oracles.evaluate(lat, None, {"p": 2, "q": 1}, ("imp", P, Q)) == 1
    d, ops = dunn_separating()
    f = ("imp", ("and", ("F", P), ("G", Q)), ("F", ("and", P, Q)))
    env = oracles.first_countervaluation(d, ops, f)
    assert env == {"p": 2, "q": 0}  # p=a, q=0
    assert oracles.evaluate(d, ops, env, f) == 0


@pytest.mark.parametrize("tree, text", [
    (("imp", ("F", P), ("not", Q)), "F p -> ~q"),
    (("imp", ("imp", P, Q), R), "(p -> q) -> r"),
    (("imp", P, ("imp", Q, R)), "p -> q -> r"),
    (("and", P, ("and", Q, R)), "p & (q & r)"),
    (("or", ("and", P, Q), R), "p & q | r"),
    (("iff", ("iff", P, Q), R), "p <-> q <-> r"),
    (("iff", P, ("iff", Q, R)), "p <-> (q <-> r)"),
    (("not", ("not", P)), "~~p"),
    (("F", ("and", P, Q)), "F (p & q)"),
    (("imp", ("bot",), ("top",)), "bot -> top"),
])
def test_render_uses_fewest_parentheses(tree, text):
    assert oracles.render(tree) == text


def two_chain():
    # worlds w, u with w <= u and w R u
    return [[True, True], [False, True]], [[False, True], [False, False]]


def test_kripke_on_the_readme_model():
    model = oracles.Kripke(*two_chain())
    assert model.truth({"p": 0b10}, ("F", P)) == 0b01
    assert model.first_counterexample(("imp", ("G", P), P)) == ({"p": 0}, 0)


def test_kripke_truth_sets_persist_on_ik_frames():
    rng = random.Random(7)
    trees = [random_tree(rng, ("p", "q"), 4) for _ in range(30)]
    for n in (1, 2):
        for bits in range(1 << (n * n)):
            for leq in oracles._preorders(n):
                up = list(leq)
                leq_m = [[up[x] >> y & 1 == 1 for y in range(n)] for x in range(n)]
                r = [[bits >> (x * n + y) & 1 == 1 for y in range(n)] for x in range(n)]
                if not oracles.is_ik(leq_m, r):
                    continue
                model = oracles.Kripke(leq_m, r)
                ups = model.up_sets()
                for tree in trees:
                    for a, b in itertools.product(ups, repeat=2):
                        assert model.truth({"p": a, "q": b}, tree) in ups


def test_ik_witnesses_on_a_non_ik_frame():
    leq, r = two_chain()  # stock two_chain_r_leq: (>=;R) escapes (R;>=) at (u, u)
    assert oracles.ik_witnesses(leq, r) == (None, (1, 1))


def test_ik_frame_counts():
    assert len(oracles.ik_frame_codes(1)) == 2
    assert len(oracles.ik_frame_codes(3)) == 855


def test_prime_filters():
    assert len(oracles.prime_filters(chain(3))) == 2
    boolean4 = oracles.lattice_of(order(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    assert oracles.prime_filters(boolean4) == [0b1010, 0b1100]


def test_fuzzy_lift_keeps_core_laws_and_breaks_dunn2():
    # diamond_with_top, 0 < a, b < c < 1, with R(x,x) = R(y,y) = a and R(x,y) = R(y,x) = b
    lat = oracles.lattice_of(order(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]))
    carrier, product, ops = oracles.fuzzy_lift(lat, [[1, 2], [2, 1]])
    assert len(carrier) == product.n == 25
    verdicts = oracles.check_laws(product, ops)
    assert {law for law, v in verdicts.items() if v is not None} == {"dunn2_dia", "dunn2_bdia"}
