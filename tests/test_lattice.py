import itertools
import math
from collections import Counter

import numpy as np
import pytest

from tenselab.lattice import (
    MAX_RELABEL_SIZE,
    HeytingAlgebra,
    NoBounds,
    NotALattice,
    NotAPartialOrder,
    NotDistributive,
    OrderError,
    bool_rows,
    canonical_rows,
    chain,
    diamond,
    diamond_with_bottom,
    diamond_with_top,
    enumerate_heyting,
    from_order,
    mask_rows,
    permutations,
    relabeled_codes,
    transitive_closure,
    up_sets,
)
from tenselab.lattice import _check_residuation, _iso_classes

from util import canonical_code, relabelings

# ------------------------------------------------------------------ oracles


def _labeled(n: int) -> set:
    """Every labeled copy on carrier 0..n-1 of each size-n class, as its
    leq row masks."""
    return {rows for code in _iso_classes(n) for (rows,) in relabelings(code)}


def _brute_force_labeled_count(n: int) -> int:
    """Count labeled Heyting algebras on a fixed n-element carrier.

    Written against the raw definition with plain loops, independent of
    from_order: every reflexive relation is tried, then checked to be a
    partial order carrying a bounded distributive lattice.
    """
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(offdiag)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                leq[i][j] = True
        if not _is_heyting_order(n, leq):
            continue
        count += 1
    return count


def _is_heyting_order(n, leq) -> bool:
    for i in range(n):
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                return False
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return False
    if not any(all(leq[b][x] for x in range(n)) for b in range(n)):
        return False
    if not any(all(leq[x][t] for x in range(n)) for t in range(n)):
        return False
    join = {}
    meet = {}
    for a in range(n):
        for b in range(n):
            ups = [u for u in range(n) if leq[a][u] and leq[b][u]]
            least = [u for u in ups if all(leq[u][v] for v in ups)]
            downs = [d for d in range(n) if leq[d][a] and leq[d][b]]
            greatest = [d for d in downs if all(leq[e][d] for e in downs)]
            if len(least) != 1 or len(greatest) != 1:
                return False
            join[a, b] = least[0]
            meet[a, b] = greatest[0]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x, join[y, z]] != join[meet[x, y], meet[x, z]]:
                    return False
    return True


def _bit_scan_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical leq row-masks of the bounded distributive lattices on n.

    Scans every order with 0 at the bottom, n-1 at the top and i <= j
    only when i < j (every finite poset has a linear extension), keeps
    those _is_heyting_order accepts and sorts their canonical codes.
    """
    if n == 1:
        return ((1,),)
    mid = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    found = set()
    for bits in range(1 << len(mid)):
        rows = [1 << i | 1 << (n - 1) for i in range(n)]
        rows[0] = (1 << n) - 1
        for k, (i, j) in enumerate(mid):
            if bits >> k & 1:
                rows[i] |= 1 << j
        if _is_heyting_order(n, [[bool(r >> j & 1) for j in range(n)] for r in rows]):
            found.add(canonical_code(tuple(rows))[0])
    return tuple(sorted(found))


class TestEnumeration:
    # sizes 1..7, one bounded distributive lattice per line of the
    # Fibonacci-looking sequence; cross-checked below by brute force
    ISO_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_labeled_count_matches_brute_force(self, n):
        assert len(_labeled(n)) == _brute_force_labeled_count(n)

    # the codes and their order fix every ha{n}_{k} name
    @pytest.mark.parametrize("n", range(1, 8))
    def test_iso_classes_match_bit_scan(self, n):
        assert _iso_classes(n) == _bit_scan_classes(n)

    def test_iso_class_counts(self):
        algs = list(enumerate_heyting(7))
        by_size = {}
        for a in algs:
            by_size[a.n] = by_size.get(a.n, 0) + 1
        assert by_size == self.ISO_COUNTS

    def test_labeled_copies_per_class(self):
        # chain3 is rigid: six labelings; size 4 adds the diamond whose
        # single nontrivial symmetry halves its orbit
        assert len(_labeled(3)) == 6
        assert len(_labeled(4)) == 24 + 12

    def test_iso_classes_pairwise_nonisomorphic(self):
        algs = [a for a in enumerate_heyting(5) if a.n == 5]
        for a, b in itertools.combinations(algs, 2):
            assert not _isomorphic(a, b)

    def test_bases_built_once(self):
        first = list(enumerate_heyting(6))
        names = [a.name for a in first]
        again = list(enumerate_heyting(6))
        assert len(again) == len(first) == 13
        assert all(a is b for a, b in zip(first, again))
        assert [a.name for a in again] == names
        # a name does not depend on the bound the listing stops at
        assert [a.name for a in enumerate_heyting(4)] == names[:5]
        assert [a.name for a in enumerate_heyting(7)][:13] == names
        assert not first[-1].leq.flags.writeable

    def test_size_cap(self):
        with pytest.raises(OrderError):
            list(enumerate_heyting(8))
        with pytest.raises(OrderError):
            list(enumerate_heyting(0))


def _cells(code: int, n: int, bitorder: str) -> tuple[bool, ...]:
    """The n * n cells, row by row, of a relabeled_codes code."""
    bits = range(n) if bitorder == "little" else range(7, 7 - n, -1)
    return tuple(bool(code >> 8 * (7 - i) + b & 1) for i in range(n) for b in bits)


class TestRelabeling:
    def test_permutations(self):
        for n in range(MAX_RELABEL_SIZE + 1):
            perms = permutations(n)
            assert perms.shape == (math.factorial(n), n) and not perms.flags.writeable
            assert [tuple(p) for p in perms.tolist()] == list(itertools.permutations(range(n)))
        with pytest.raises(OrderError):
            permutations(MAX_RELABEL_SIZE + 1)

    def test_codes_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            n = int(rng.integers(1, 6))
            rel = rng.random((n, n)) < rng.random()
            copies = [tuple(bool_rows(c, n).ravel().tolist()) for (c,) in relabelings(mask_rows(rel))]
            for bitorder in ("little", "big"):
                codes = relabeled_codes(rel, permutations(n), bitorder).tolist()
                assert [_cells(c, n, bitorder) for c in codes] == copies
            # rows compared in turn as masks, as _iso_classes compares them
            assert canonical_rows(rel) == canonical_code(mask_rows(rel))[0]
            # cells in product order, as enumerate_frames compares them
            least = relabeled_codes(rel, permutations(n), "big").min()
            assert _cells(int(least), n, "big") == min(copies)

    def test_stack_codes_match_single(self):
        rng = np.random.default_rng(6)
        rels = rng.random((5, 2, 4, 4)) < 0.5
        perms = permutations(4)[::5]
        codes = relabeled_codes(rels, perms, "big")
        assert codes.shape == (5, 2, len(perms)) and codes.dtype == np.uint64
        for i, j in itertools.product(range(5), range(2)):
            assert (codes[i, j] == relabeled_codes(rels[i, j], perms, "big")).all()


def _isomorphic(a: HeytingAlgebra, b: HeytingAlgebra) -> bool:
    if a.n != b.n:
        return False
    for perm in itertools.permutations(range(a.n)):
        if all(
            a.leq[i, j] == b.leq[perm[i], perm[j]]
            for i in range(a.n)
            for j in range(a.n)
        ):
            return True
    return False


class TestFromOrder:
    def test_residuation_on_all_enumerated(self):
        for alg in enumerate_heyting(5):
            n = alg.n
            for z in range(n):
                for a in range(n):
                    for b in range(n):
                        lhs = alg.leq[alg.meet[z, a], b]
                        rhs = alg.leq[z, alg.imp[a, b]]
                        assert bool(lhs) == bool(rhs)

    def test_closure_taken(self):
        alg = from_order("0ab1", [("0", "a"), ("a", "b"), ("b", "1")])
        assert alg.leq[0, 3]
        assert alg.bottom == 0 and alg.top == 3

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrder):
            from_order("ab", [("a", "b"), ("b", "a")])

    def test_antichain_has_no_bounds(self):
        with pytest.raises(NoBounds):
            from_order("ab", [])

    def test_no_lattice(self):
        # 0 < a,b < c,d < 1: a and b have two minimal upper bounds
        with pytest.raises(NotALattice):
            from_order(
                "0abcd1",
                [("0", "a"), ("0", "b")]
                + [(x, y) for x in "ab" for y in "cd"]
                + [("c", "1"), ("d", "1")],
            )

    # the witness is the first failing (x, y, z) of
    # x & (y | z) = (x & y) | (x & z) in carrier order, so relabeling
    # the carrier moves it
    def test_m3_not_distributive(self):
        pairs = [("0", v) for v in "xyz"] + [(v, "1") for v in "xyz"]
        for names, witness in (("0xyz1", ("x", "y", "z")), ("zyx10", ("z", "y", "x"))):
            with pytest.raises(NotDistributive) as err:
                from_order(names, pairs)
            assert err.value.witness == witness

    def test_n5_not_distributive(self):
        pairs = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]
        for names, witness in (("0abc1", ("b", "a", "c")), ("1cba0", ("b", "c", "a"))):
            with pytest.raises(NotDistributive) as err:
                from_order(names, pairs)
            assert err.value.witness == witness

    def test_residuation_witness(self):
        # chain3 with every implication sent to bottom: the first (a, b, z)
        # in loop order where z & a <= b and z <= imp(a, b) disagree is
        # a = b = 0, z = m, reported as (z, a, b)
        alg = chain(3)
        wrong = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(OrderError, match=r"residuation broken at \('m', '0', '0'\)"):
            _check_residuation(alg.names, alg.leq, alg.meet, wrong)

    def test_residuation_check_matches_loop(self):
        # the first failure against a plain (a, b, z) loop, on tables
        # with one implication entry changed
        rng = np.random.default_rng(7)
        for alg in enumerate_heyting(5):
            n = alg.n
            _check_residuation(alg.names, alg.leq, alg.meet, alg.imp)
            for _ in range(5):
                imp = alg.imp.copy()
                imp[rng.integers(n), rng.integers(n)] = rng.integers(n)
                want = next(
                    (
                        (alg.names[z], alg.names[a], alg.names[b])
                        for a in range(n)
                        for b in range(n)
                        for z in range(n)
                        if bool(alg.leq[alg.meet[z, a], b]) != bool(alg.leq[z, imp[a, b]])
                    ),
                    None,
                )
                if want is None:
                    _check_residuation(alg.names, alg.leq, alg.meet, imp)
                    continue
                with pytest.raises(OrderError) as err:
                    _check_residuation(alg.names, alg.leq, alg.meet, imp)
                assert str(err.value) == f"residuation broken at {want}"

    def test_bound_tables_match_loop(self):
        # join/meet tables, and the first pair without a bound, against a
        # plain loop over (a, b) with a <= b that checks the least upper
        # bound before the greatest lower bound; random bounded orders,
        # half of them turned upside down, relabeled so that carrier
        # order is no linear extension
        rng = np.random.default_rng(11)
        kinds = Counter()
        for _ in range(400):
            n = int(rng.integers(6, 10))
            rel = np.triu(rng.random((n, n)) < 0.5)
            rel[0, :] = rel[:, n - 1] = True
            if rng.random() < 0.5:
                rel = rel.T
            perm = rng.permutation(n)
            leq = np.zeros((n, n), dtype=bool)
            leq[np.ix_(perm, perm)] = rel
            names = tuple(f"x{i}" for i in range(n))
            pairs = [(names[a], names[b]) for a, b in np.argwhere(leq)]
            want = _loop_bounds(transitive_closure(leq).tolist())
            if isinstance(want, tuple):
                kind, (a, b) = want
                kinds[kind] += 1
                with pytest.raises(NotALattice) as err:
                    from_order(names, pairs)
                assert (err.value.kind, err.value.witness) == (kind, (names[a], names[b]))
                continue
            kinds["lattice"] += 1
            try:
                alg = from_order(names, pairs)
            except NotDistributive:
                continue
            assert alg.join.tolist() == want["join"]
            assert alg.meet.tolist() == want["meet"]
        assert min(kinds.values()) >= 20 and len(kinds) == 3

    def test_pair_lacking_both_bounds_reports_join(self):
        # 0 < p,q < x,y < r,s < 1: x and y have two minimal upper bounds
        # and two maximal lower bounds, and (x, y) is the first pair checked
        pairs = [("0", "p"), ("0", "q"), ("r", "1"), ("s", "1")]
        pairs += [(lo, mid) for lo in "pq" for mid in "xy"]
        pairs += [(mid, hi) for mid in "xy" for hi in "rs"]
        with pytest.raises(NotALattice) as err:
            from_order("xy0pqrs1", pairs)
        assert (err.value.kind, err.value.witness) == ("least upper bound", ("x", "y"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(OrderError):
            from_order(("x", "x"), [])

    def test_neg_is_imp_to_bottom(self):
        alg = chain(3)
        for a in range(3):
            assert alg.neg(a) == alg.imp[a, alg.bottom]

    def test_join_meet_all(self):
        alg = diamond()
        a, b = alg.index("a"), alg.index("b")
        assert alg.join_all([a, b]) == alg.top
        assert alg.meet_all([a, b]) == alg.bottom
        assert alg.join_all([]) == alg.bottom
        assert alg.meet_all([]) == alg.top


def _loop_bounds(leq):
    """Join and meet tables, or (kind, (a, b)) at the first pair lacking one."""
    n = len(leq)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ups = [u for u in range(n) if leq[a][u] and leq[b][u]]
            lub = [u for u in ups if all(leq[u][v] for v in ups)]
            if not lub:
                return "least upper bound", (a, b)
            lows = [d for d in range(n) if leq[d][a] and leq[d][b]]
            glb = [d for d in lows if all(leq[e][d] for e in lows)]
            if not glb:
                return "greatest lower bound", (a, b)
            join[a][b] = join[b][a] = lub[0]
            meet[a][b] = meet[b][a] = glb[0]
    return {"join": join, "meet": meet}


class TestStock:
    def test_chain3_names(self):
        alg = chain(3)
        assert alg.names == ("0", "m", "1")
        assert alg.imp[alg.index("m"), alg.index("0")] == alg.index("0")

    def test_chain_sizes(self):
        for k in (1, 2, 4, 6):
            assert chain(k).n == k

    def test_diamond_incomparable(self):
        alg = diamond()
        a, b = alg.index("a"), alg.index("b")
        assert not alg.leq[a, b] and not alg.leq[b, a]

    def test_five_element_variants(self):
        top_heavy = diamond_with_top()
        bottom_heavy = diamond_with_bottom()
        assert top_heavy.n == bottom_heavy.n == 5
        assert not _isomorphic(top_heavy, bottom_heavy)


class TestUpSets:
    def test_chain3_up_sets(self):
        ups = up_sets(chain(3).leq)
        assert ups == (0b000, 0b100, 0b110, 0b111)

    def test_diamond_up_sets(self):
        ups = up_sets(diamond().leq)
        assert len(ups) == 6

    def test_up_sets_against_definition(self):
        for alg in enumerate_heyting(5):
            expected = [
                m for m in range(1 << alg.n) if _upward_closed(alg.leq, m)
            ]
            assert list(up_sets(alg.leq)) == expected

    def test_cap(self):
        with pytest.raises(OrderError):
            up_sets(chain(21).leq)


def _upward_closed(leq: np.ndarray, mask: int) -> bool:
    for i in range(len(leq)):
        if mask >> i & 1:
            for j in range(len(leq)):
                if leq[i, j] and not mask >> j & 1:
                    return False
    return True


class TestClosure:
    def test_transitive_closure_matches_powers(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            rel = rng.random((n, n)) < 0.3
            got = transitive_closure(rel)
            expected = np.eye(n, dtype=bool) | rel
            for _ in range(n):
                expected = expected | (expected @ expected)
            assert (got == expected).all()
