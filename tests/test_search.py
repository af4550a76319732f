from types import SimpleNamespace

import pytest

from tenselab import algebra, search
from tenselab.algebra import (
    CapExceeded,
    EXTRA_LAWS,
    H2GC_FS_LAWS,
    ModalOperatorPresent,
    evaluate,
)
from tenselab.search import (
    ConservativityGap,
    CounterModel,
    SearchBounds,
    Separation,
    conservativity_check,
    find_algebra_countermodel,
)

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

    def test_clock_read_before_each_chunk(self, monkeypatch):
        # one combo per base, so one chunk per base; the first judge call
        # uses up the deadline, and no law of the next base is graded
        now = [0.0]
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
        graded = []

        def noted(sides):
            def counted(base, d, b):
                graded.append(base.name)
                return sides(base, d, b)

            return counted

        wrapped = {}  # laws sharing a sides function share its wrapper
        for law, (mode, d, b, sides) in algebra._LAWS.items():
            wrapped.setdefault(sides, noted(sides))
            monkeypatch.setitem(algebra._LAWS, law, (mode, d, b, wrapped[sides]))
        validity = search.algebra_validity

        def slow(*args, **kwargs):
            now[0] += 10
            return validity(*args, **kwargs)

        monkeypatch.setattr(search, "algebra_validity", slow)
        bounds = SearchBounds(max_algebra_size=3, max_gc_pairs=1, deadline_seconds=5)
        verdict = find_algebra_countermodel("p -> p", bounds, laws_required=())
        assert verdict.status == "timeout"
        assert (verdict.scanned["combos"], verdict.scanned["eligible"]) == (1, 1)
        assert set(graded) == {"ha1_0"}

    def test_deadline_passed_on_the_last_combo_exhausts(self, monkeypatch):
        # one combo per base and three bases; the last judge call uses up
        # the deadline, but every combo was scanned, so the verdict is
        # exhausted and not timeout
        now = [0.0]
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
        validity = search.algebra_validity

        def slow(*args, **kwargs):
            now[0] += 10
            return validity(*args, **kwargs)

        monkeypatch.setattr(search, "algebra_validity", slow)
        bounds = SearchBounds(max_algebra_size=3, max_gc_pairs=1, deadline_seconds=25)
        verdict = find_algebra_countermodel("p -> p", bounds, laws_required=())
        assert verdict.status == "exhausted"
        assert (verdict.scanned["combos"], verdict.scanned["eligible"]) == (3, 3)

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
