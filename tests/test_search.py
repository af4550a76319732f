import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tenselab import algebra, search
from tenselab.algebra import (
    CapExceeded,
    EXTRA_LAWS,
    H2GC_FS_LAWS,
    ModalOperatorPresent,
    enumerate_gc_pairs,
    evaluate,
)
from tenselab.lattice import enumerate_heyting
from tenselab.search import (
    ConservativityGap,
    CounterModel,
    SearchBounds,
    Separation,
    conservativity_check,
    find_algebra_countermodel,
)

from tenselab.syntax import parse_formula

import util

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fingerprint  # noqa: E402

SMALL = SearchBounds(max_algebra_size=3)


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBounds(max_algebra_size=0)
        with pytest.raises(ValueError):
            SearchBounds(max_vars=0)
        with pytest.raises(ValueError):
            SearchBounds(max_gc_pairs=0)
        with pytest.raises(ValueError):
            SearchBounds(deadline_seconds=0)
        assert SearchBounds(max_gc_pairs=None).max_gc_pairs is None

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_deadline_must_be_finite_and_positive(self, seconds):
        with pytest.raises(ValueError, match="finite and positive"):
            SearchBounds(deadline_seconds=seconds)

    def test_unknown_laws_rejected(self):
        with pytest.raises(ValueError, match="unknown law"):
            find_algebra_countermodel("p", SMALL, laws_required=("gc_dia_bbo",))
        with pytest.raises(ValueError, match="laws_b"):
            search.test_law_equivalence(("d1",), ("nope",), SMALL)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            search.test_law_equivalence(("d1",), ("d2",), SMALL, direction="up")

    def test_var_cap(self):
        with pytest.raises(CapExceeded):
            find_algebra_countermodel("p1 & p2 & p3 & p4", SMALL)


class TestCountermodelHunt:
    def test_classical_duality_fails_forward(self):
        verdict = find_algebra_countermodel("F p <-> ~ G ~ p", SMALL)
        assert verdict.found
        w = verdict.witness
        assert isinstance(w, CounterModel)
        assert w.algebra.base.name == "ha3_2"
        assert w.valuation == {"p": "e1"}
        assert w.value == "e1"
        assert verdict.scanned["combos"] == 12
        assert verdict.scanned["eligible"] == 7

    def test_classical_duality_fails_backward(self):
        verdict = find_algebra_countermodel("G p <-> ~ F ~ p", SMALL)
        assert verdict.found
        assert verdict.witness.valuation == {"p": "e1"}
        assert verdict.witness.value == "e2"

    def test_dunn_join_law_fails(self):
        verdict = find_algebra_countermodel("G (p | q) -> G p | F q", SMALL)
        assert verdict.found
        w = verdict.witness
        assert w.algebra.base.name == "ha3_2"
        assert w.valuation == {"p": "e1", "q": "e0"}
        assert w.value == "e1"
        assert verdict.scanned["combos"] == 24

    def test_witness_revalidates(self):
        for text in (
            "F p <-> ~ G ~ p",
            "G (p | q) -> G p | F q",
        ):
            verdict = find_algebra_countermodel(text, SMALL)
            w = verdict.witness
            # the algebra really is in the searched class
            assert all(w.algebra.laws.holds(law) for law in H2GC_FS_LAWS)
            # and the valuation really breaks the formula
            got = evaluate(w.algebra, dict(w.valuation), text)
            assert w.algebra.names[got] == w.value
            assert got != w.algebra.base.top

    def test_theorem_exhausts(self):
        verdict = find_algebra_countermodel("p -> H F p", SMALL)
        assert verdict.status == "exhausted" and not verdict.found
        assert verdict.scanned["combos"] == 41
        assert verdict.scanned["eligible"] == 11

    def test_deterministic(self):
        a = find_algebra_countermodel("F p <-> ~ G ~ p", SMALL)
        b = find_algebra_countermodel("F p <-> ~ G ~ p", SMALL)
        assert a.witness.valuation == b.witness.valuation
        assert a.scanned["combos"] == b.scanned["combos"]

    def test_timeout(self):
        bounds = SearchBounds(max_algebra_size=5, deadline_seconds=1e-9)
        verdict = find_algebra_countermodel("p -> H F p", bounds)
        assert verdict.status == "timeout" and verdict.witness is None

    @staticmethod
    def _slow_blocks(monkeypatch, now):
        # the clock reads now[0], and each evaluated block adds 10 to it
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
        first_failure = search._first_failure

        def slow(*args, **kwargs):
            now[0] += 10
            return first_failure(*args, **kwargs)

        monkeypatch.setattr(search, "_first_failure", slow)

    @staticmethod
    def _noted_laws(monkeypatch):
        # the name of the base of every call to a law's sides function
        graded = []

        def noted(sides):
            def counted(base, d, b):
                graded.append(base.name)
                return sides(base, d, b)

            return counted

        wrapped = {}  # laws sharing a sides function share its wrapper
        for law, (mode, d, b, sides, point) in algebra._LAWS.items():
            wrapped.setdefault(sides, noted(sides))
            monkeypatch.setitem(algebra._LAWS, law, (mode, d, b, wrapped[sides], point))
        return graded

    def test_clock_read_before_each_base_grading(self, monkeypatch, fresh_verdicts):
        # one combo per base, so one grading and one block per base; the
        # first block uses up the deadline, and no law of the next base
        # is graded
        now = [0.0]
        self._slow_blocks(monkeypatch, now)
        graded = self._noted_laws(monkeypatch)
        bounds = SearchBounds(max_algebra_size=3, max_gc_pairs=1, deadline_seconds=5)
        verdict = find_algebra_countermodel("p -> p", bounds, laws_required=())
        assert verdict.status == "timeout"
        assert (verdict.scanned["combos"], verdict.scanned["eligible"]) == (1, 1)
        assert set(graded) == {"ha1_0"}

    def test_clock_read_between_pair_stack_and_grading(self, monkeypatch, fresh_verdicts):
        # building the second base's Galois pairs uses up the deadline,
        # so that base is not graded
        now = [0.0]
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
        gc_stack = search._gc_stack

        def slow(base):
            now[0] += 10 * (base.n == 2)
            return gc_stack(base)

        monkeypatch.setattr(search, "_gc_stack", slow)
        graded = self._noted_laws(monkeypatch)
        bounds = SearchBounds(max_algebra_size=3, max_gc_pairs=1, deadline_seconds=5)
        verdict = find_algebra_countermodel("p -> p", bounds, laws_required=())
        assert verdict.status == "timeout"
        assert (verdict.scanned["combos"], verdict.scanned["eligible"]) == (1, 1)
        assert set(graded) == {"ha1_0"}

    def test_deadline_passed_on_the_last_combo_exhausts(self, monkeypatch, fresh_verdicts):
        # one combo per base and three bases; the last block uses up the
        # deadline, but every combo was scanned, so the verdict is
        # exhausted and not timeout
        now = [0.0]
        self._slow_blocks(monkeypatch, now)
        bounds = SearchBounds(max_algebra_size=3, max_gc_pairs=1, deadline_seconds=25)
        verdict = find_algebra_countermodel("p -> p", bounds, laws_required=())
        assert verdict.status == "exhausted"
        assert (verdict.scanned["combos"], verdict.scanned["eligible"]) == (3, 3)
        assert now[0] == 30  # one block per base

    def test_pair_cap_shrinks_scan(self):
        capped = SearchBounds(max_algebra_size=3, max_gc_pairs=1)
        verdict = find_algebra_countermodel("p -> H F p", capped)
        assert verdict.status == "exhausted"
        # one pair squared per base, three bases
        assert verdict.scanned["combos"] == 3


class TestLawEquivalence:
    def test_fs_and_d_families_coincide(self):
        for a, b in ((("fs1",), ("d1",)), (("fs2",), ("d2",))):
            verdict = search.test_law_equivalence(a, b, SMALL)
            assert verdict.status == "exhausted"

    def test_dunn2_does_not_imply_d1(self):
        verdict = search.test_law_equivalence(
            ("dunn2_dia",), ("d1",), SMALL, direction="forward"
        )
        assert verdict.found
        w = verdict.witness
        assert isinstance(w, Separation)
        assert w.direction == "forward"
        assert w.violated == "d1"
        assert w.satisfied == ("dunn2_dia",)
        # the first separator in scan order is already two-element
        assert w.algebra.base.name == "ha2_1"
        assert w.algebra.laws.holds("dunn2_dia")
        assert not w.algebra.laws.holds("d1")

    def test_extra_laws_are_really_extra(self):
        verdict = search.test_law_equivalence(
            H2GC_FS_LAWS, tuple(EXTRA_LAWS), SMALL, direction="forward"
        )
        assert verdict.found
        assert verdict.witness.violated in EXTRA_LAWS

    def test_backward_swaps_roles(self):
        verdict = search.test_law_equivalence(
            ("d1",), ("dunn2_dia",), SMALL, direction="backward"
        )
        assert verdict.found
        assert verdict.witness.direction == "backward"
        assert verdict.witness.violated == "d1"

    def test_timeout(self):
        bounds = SearchBounds(deadline_seconds=1e-9)
        verdict = search.test_law_equivalence(("fs1",), ("d1",), bounds)
        assert verdict.status == "timeout"


# sizes up to 5 uncapped, and size 6 capped at 4 Galois pairs
ORACLE_BOUNDS = (
    *(SearchBounds(max_algebra_size=n) for n in range(1, 6)),
    SearchBounds(max_algebra_size=6, max_gc_pairs=4),
)
LAW_SETS = (H2GC_FS_LAWS, algebra.H2GC_LAWS, ())


class TestAgainstOneComboScan:
    """The chunked scan gives what the one-combo-at-a-time loop in
    util.scan_combos gives: status, counts and the witness."""

    @pytest.mark.parametrize("formula", fingerprint.FORMULAS)
    def test_fingerprint_formulas(self, formula):
        for bounds in ORACLE_BOUNDS:
            for laws in LAW_SETS:
                got = find_algebra_countermodel(formula, bounds, laws)
                want = util.find_countermodel(parse_formula(formula), bounds, laws)
                assert util.verdict_record(got) == util.verdict_record(want), (bounds, laws)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bounds=st.sampled_from(ORACLE_BOUNDS[:4]),
        laws=st.sampled_from(LAW_SETS),
    )
    def test_drawn_formulas(self, seed, bounds, laws):
        formula = util.random_formula(random.Random(seed), depth=3, vars=("p", "q"))
        got = find_algebra_countermodel(formula, bounds, laws)
        want = util.find_countermodel(formula, bounds, laws)
        assert util.verdict_record(got) == util.verdict_record(want)

    @pytest.mark.parametrize("direction", ["forward", "backward", "either"])
    @pytest.mark.parametrize("laws_a, laws_b", [(a, b) for a, b, _ in fingerprint.EQUIV])
    def test_equiv_pairs(self, laws_a, laws_b, direction):
        for bounds in ORACLE_BOUNDS:
            got = search.test_law_equivalence(laws_a, laws_b, bounds, direction)
            want = util.law_equivalence(laws_a, laws_b, bounds, direction)
            assert util.verdict_record(got) == util.verdict_record(want), bounds

    @pytest.mark.parametrize("cells", [1, 7, 60])
    def test_small_blocks(self, monkeypatch, cells):
        # with fewer cells than valuations a block is one combo and part
        # of its valuations; with more, a few combos and all of them
        monkeypatch.setattr(algebra, "VALUATION_BLOCK", cells)
        monkeypatch.setattr(search, "VALUATION_BLOCK", cells)
        bounds = SearchBounds(max_algebra_size=4)
        formulas = ("p -> H F p", "G (p | q) -> G p | F q", "H F p -> p", "F p & G q -> F (p & q)")
        for formula in formulas:
            for laws in LAW_SETS:
                got = find_algebra_countermodel(formula, bounds, laws)
                want = util.find_countermodel(parse_formula(formula), bounds, laws)
                assert util.verdict_record(got) == util.verdict_record(want), (formula, laws)

    def test_capped_search_unchanged_by_an_uncapped_one(self, monkeypatch):
        # a cap within the kept width reads its top-left block, grading
        # the rows a stopped scan left; a wider cap grades a new array.
        # "H F p -> p" is found early, so it leaves arrays partly graded
        capped = SearchBounds(max_algebra_size=5, max_gc_pairs=3)
        uncapped = SearchBounds(max_algebra_size=5)
        formulas = ("H F p -> p", "G (p | q) -> G p | F q", "p -> H F p")
        want = {
            (formula, bounds): util.verdict_record(
                util.find_countermodel(parse_formula(formula), bounds, H2GC_FS_LAWS)
            )
            for formula in formulas
            for bounds in (capped, uncapped)
        }
        for order in ((capped, uncapped, capped), (uncapped, capped, uncapped)):
            monkeypatch.setattr(algebra, "_VERDICTS", {})
            for formula in formulas:
                for bounds in order:
                    got = util.verdict_record(find_algebra_countermodel(formula, bounds))
                    assert got == want[formula, bounds], (formula, bounds)


class TestKeptVerdicts:
    def test_only_the_reported_combo_is_built(self, monkeypatch):
        built = []
        init = algebra.AlgebraWithOps.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0].name)
            init(self, *args, **kwargs)

        monkeypatch.setattr(algebra.AlgebraWithOps, "__init__", counted)
        found = find_algebra_countermodel("H F p -> p", SearchBounds(max_algebra_size=5))
        assert found.found and built == [found.witness.algebra.base.name]
        built.clear()
        exhausted = find_algebra_countermodel("p -> H F p", SearchBounds(max_algebra_size=5))
        assert exhausted.status == "exhausted"
        assert search.test_law_equivalence(("fs1",), ("d1",), SMALL).status == "exhausted"
        assert built == []

    def test_grading_waits_for_a_scan(self):
        # importing and listing the bases grade nothing and build no pair
        # stack; the first scan to reach a base does both
        code = (
            "from tenselab import algebra, search\n"
            "from tenselab.lattice import enumerate_heyting\n"
            "list(enumerate_heyting(6))\n"
            "assert algebra._VERDICTS == {} and algebra._PAIR_STACKS == {}\n"
            "search.find_algebra_countermodel('p', search.SearchBounds(max_algebra_size=2))\n"
            "print(sorted(algebra._VERDICTS), sorted(algebra._PAIR_STACKS))\n"
        )
        src = Path(algebra.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "['ha1_0', 'ha2_1'] ['ha1_0', 'ha2_1']\n"

    def test_caps_share_one_array(self, grades):
        def graded_after(*args):
            start = len(grades)
            list(algebra.enumerate_op_combos(*args))
            return [base.name for base in grades[start:]]

        assert len(graded_after(4, 2)) == 5  # one grading per base
        assert graded_after(4, 1) == []  # the top-left block
        assert graded_after(4, 2) == []
        wider = graded_after(4)  # regraded: the bases with over 2 pairs
        assert wider == [b.name for b in enumerate_heyting(4) if len(enumerate_gc_pairs(b)) > 2]
        assert len(wider) == 3
        assert graded_after(4, 2) == graded_after(4) == []
        block = algebra._verdicts(list(enumerate_heyting(4))[-1], 2)
        assert block.shape == (2, 2)
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0


class TestConservativity:
    CORPUS = (
        "p -> p",
        "p -> (q -> p)",
        "p | ~ p",
        "((p -> q) -> p) -> p",
        "~ ~ p -> p",
        "(p -> q) | (q -> p)",
        "~ (p & ~ p)",
        "bot -> q",
    )

    def test_small_corpus_agrees(self):
        for text in self.CORPUS:
            verdict = conservativity_check(text, SMALL)
            assert verdict.status == "exhausted", text
            assert verdict.scanned["bases"] == 3

    def test_rejects_modal_input(self):
        with pytest.raises(ModalOperatorPresent):
            conservativity_check("G p -> p", SMALL)

    def test_timeout(self):
        bounds = SearchBounds(deadline_seconds=1e-9)
        verdict = conservativity_check("p -> p", bounds)
        assert verdict.status == "timeout"

    def test_gap_dataclass_shape(self):
        gap = ConservativityGap(None, None, {"p": "0"})
        assert gap.expansion_countervaluation == {"p": "0"}
