"""End-to-end acceptance checks.

Each test covers one headline property of the workbench and prints a
single scoreboard line ("criterion N: PASS ...") straight to the
terminal, so a full run reads as a checklist.  The assertions hold the
actual expectations; the printed line is just the summary.
"""

import itertools
import random
import time

from util import random_formula

from tenselab import algebra, cli, duality, formats, proofs, search
from tenselab.algebra import H2GC_FS_LAWS, algebra_validity, evaluate, law_bits
from tenselab.fixtures import fixture_suite
from tenselab.frames import Model, check_ik_frame, frame_validity, truth_set
from tenselab.fuzzy import build_fuzzy_algebra
from tenselab.lattice import enumerate_heyting
from tenselab.search import SearchBounds
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
    metavariables_of,
    parse_formula,
    parse_schema,
    render_formula,
    substitute,
)

_LETTERS = ("p", "q", "r", "s")


def _announce(capsys, criterion, elapsed, detail):
    with capsys.disabled():
        print(f"criterion {criterion}: PASS — {detail} ({elapsed:.2f}s)")


def _instantiate(schema):
    """Ground a schema by sending its metavariables to distinct letters."""
    meta = sorted(set(metavariables_of(schema)))
    return substitute(schema, {m: Var(_LETTERS[i]) for i, m in enumerate(meta)})


def test_criterion_01_separating_algebra(corpus_dir, capsys):
    t0 = time.perf_counter()
    alg = formats.load_algebra(str(corpus_dir / "algebras" / "d1_independence.json"))
    v = alg.laws.verdicts

    assert v["gc_dia_bbox"].holds and v["gc_bdia_box"].holds
    assert v["dunn2_dia"].holds and v["dunn2_bdia"].holds

    assert not v["d1"].holds
    w = v["d1"].witness
    names = alg.names
    assert (names[w.lhs], names[w.rhs]) == ("c", "0")
    # the two sides at the valuation p=a, q=b land on the same values
    at_ab = {"p": "a", "q": "b"}
    assert names[evaluate(alg, at_ab, "F p & G q")] == "c"
    assert names[evaluate(alg, at_ab, "F (p & q)")] == "0"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(
        capsys, 1,
        elapsed,
        "five-element separating algebra: GC pairs hold, d1 fails with c vs 0",
    )


def test_criterion_02_fuzzy_second_axiom_failure(corpus_dir, capsys):
    t0 = time.perf_counter()
    inst = formats.load_fuzzy(str(corpus_dir / "fuzzy" / "dunn2_two_point.json"))
    assert inst.universe == ("x", "y")
    result = build_fuzzy_algebra(inst)
    alg, base = result.algebra, inst.base

    bot, top, c = base.index("0"), base.index("1"), base.index("c")
    phi = result.index_of((bot, bot))
    psi = result.index_of((top, top))
    both = int(alg.base.join[phi, psi])
    x, y = 0, 1

    # box(phi or psi) hits the top at x, box phi | dia psi only reaches c
    assert result.carrier[int(alg.box[both])][x] == top
    forward = int(alg.base.join[int(alg.box[phi]), int(alg.dia[psi])])
    assert result.carrier[forward][x] == c

    # the bbox/bdia mirror of the same gap shows up at y
    assert result.carrier[int(alg.bbox[both])][y] == top
    backward = int(alg.base.join[int(alg.bbox[phi]), int(alg.bdia[psi])])
    assert result.carrier[backward][y] == c

    assert alg.laws.all_green
    assert alg.laws.failures() == ("dunn2_dia", "dunn2_bdia")

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(
        capsys, 2,
        elapsed,
        "fuzzy two-point instance: core laws green, second-axiom laws fail 1 vs c",
    )


def test_criterion_03_connecting_law_equivalences(op_combos_upto5, capsys):
    # read from each base's kept verdict bits, every combo up to size 7
    t0 = time.perf_counter()
    assert len(op_combos_upto5) == 10597
    combos = 0
    for base in enumerate_heyting(7):
        bits = algebra._verdicts(base, None)
        for family in (("fs1", "d1", "fs4"), ("fs2", "d2", "fs3")):
            first, *rest = ((bits & law_bits([law])) != 0 for law in family)
            assert all((first == other).all() for other in rest), (base.name, family)
        combos += bits.size
    assert combos == 2926033
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _announce(
        capsys, 3,
        elapsed,
        f"fs1/d1/fs4 and fs2/d2/fs3 verdicts agree on all {combos} operator combos up to size 7",
    )


def test_criterion_04_soundness(h2gc_fs_upto5, ik_frames_upto3, capsys):
    t0 = time.perf_counter()
    tense = sorted(proofs.SYSTEMS["IK_t"].axioms - proofs.SYSTEMS["Int"].axioms)
    assert len(tense) == 20
    prop = sorted(proofs.SYSTEMS["Int"].axioms)
    assert len(prop) == 15
    round_trip = ["BR1", "BR2", "BR3", "BR4"]

    instances = [
        (name, _instantiate(proofs.AXIOM_SCHEMAS[name]))
        for name in tense + round_trip + prop
    ]
    assert len(instances) == 39

    assert len(h2gc_fs_upto5) == 807
    for alg in h2gc_fs_upto5:
        for name, f in instances:
            assert algebra_validity(alg, f) is None, (alg.base.name, name)

    assert len(ik_frames_upto3) == 855
    for frame in ik_frames_upto3:
        for name, f in instances:
            assert frame_validity(frame, f) is None, (frame.name, name)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _announce(
        capsys, 4,
        elapsed,
        "39 axiom instances valid on 807 algebras and 855 frames",
    )


def test_criterion_05_representation(h2gc_fs_upto5, capsys):
    t0 = time.perf_counter()
    nine = {"meet", "join", "imp", "top", "bottom", "dia", "box", "bdia", "bbox"}
    vacuous = 0
    for alg in h2gc_fs_upto5:
        report = duality.embedding_check(alg)
        if report.vacuous:
            vacuous += 1
            continue
        assert report.injective and report.surjective, alg.base.name
        assert set(report.operations) == nine, alg.base.name
        assert all(report.operations.values()), alg.base.name
        assert report.is_isomorphism, alg.base.name
        assert report.key_lemma_agrees, alg.base.name

        result = duality.canonical_frame(alg)
        assert check_ik_frame(result.frame).is_ik, alg.base.name
        assert result.key_lemma_agrees, alg.base.name
    # only the one-element algebra has no prime filters to map into
    assert vacuous == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _announce(
        capsys, 5,
        elapsed,
        "canonical frame is IK and the up-set embedding is an isomorphism, 806 algebras",
    )


def test_criterion_06_countermodel_hunts(capsys):
    bounds = SearchBounds(max_algebra_size=5)
    found = []
    for text in ("F p <-> ~ G ~ p", "G p <-> ~ F ~ p", "G (p | q) -> G p | F q"):
        t0 = time.perf_counter()
        verdict = search.find_algebra_countermodel(text, bounds, list(H2GC_FS_LAWS))
        assert verdict.status == "found", text

        # replay the witness from scratch
        witness = verdict.witness
        assert witness.algebra.laws.all_green
        value = evaluate(witness.algebra, witness.valuation, text)
        base = witness.algebra.base
        assert base.names[value] == witness.value
        assert value != base.top

        exit_code = cli.main(["search", "--formula", text, "--bounds", "size=5"])
        capsys.readouterr()
        assert exit_code == cli.FOUND

        elapsed = time.perf_counter() - t0
        assert elapsed < 300, text
        found.append(elapsed)
    _announce(
        capsys, 6,
        sum(found),
        "three non-theorems each have a replayable countermodel and exit code 1",
    )


def test_criterion_07_fixture_suite(h2gc_fs_upto5, ik_frames_upto3, capsys):
    t0 = time.perf_counter()
    suite = fixture_suite()
    assert len(suite) == 90
    by_name = {c.name: c for c in suite}
    assert len(by_name) == 90

    # the six derived operator facts
    for name in ("g_imp_f", "h_imp_p", "gf_dunn", "hp_dunn", "g_not_f", "h_not_p"):
        assert not by_name[name].premises

    # both directions of the connecting-axiom equivalences
    for name, system in (
        ("fs1_to_fs4", "Int2GC+FS1"),
        ("fs4_to_fs1", "Int2GC+FS4"),
        ("fs2_to_fs3", "Int2GC+FS2"),
        ("fs3_to_fs2", "Int2GC+FS3"),
    ):
        assert by_name[name].system == system

    # the four adjunction rules are admissible in the tense system
    for name in ("ikt_gc_hf", "ikt_gc_fh", "ikt_gc_gp", "ikt_gc_pg"):
        assert by_name[name].system == "IK_t" and by_name[name].premises

    # every tense axiom schema is derived inside the connecting-axiom system
    home = proofs.SYSTEMS["Int2GC+FS"]
    for axiom in proofs.SYSTEMS["IK_t"].axioms - proofs.SYSTEMS["Int"].axioms:
        schema = proofs.AXIOM_SCHEMAS[axiom]
        assert any(
            c.theorem == schema
            and not c.premises
            and home.includes(proofs.SYSTEMS[c.system])
            for c in suite
        ), axiom

    # semantic validation: grounded conclusions must be valid wherever
    # their grounded premises are (premise-free scripts unconditionally)
    obligations = {}
    for c in suite:
        meta = sorted(
            {m for f in (c.theorem, *c.premises) for m in metavariables_of(f)}
        )
        sub = {m: Var(_LETTERS[i]) for i, m in enumerate(meta)}
        premises = tuple(substitute(p, sub) for p in c.premises)
        goal = substitute(c.theorem, sub)
        obligations.setdefault((premises, goal), []).append(c.name)

    for alg in h2gc_fs_upto5:
        for (premises, goal), names in obligations.items():
            if all(algebra_validity(alg, p) is None for p in premises):
                assert algebra_validity(alg, goal) is None, (alg.base.name, names)
    for frame in ik_frames_upto3:
        for (premises, goal), names in obligations.items():
            if all(frame_validity(frame, p) is None for p in premises):
                assert frame_validity(frame, goal) is None, (frame.name, names)

    elapsed = time.perf_counter() - t0
    _announce(
        capsys, 7,
        elapsed,
        f"90 scripts check, {len(obligations)} distinct conclusions semantically valid",
    )


MEMBERSHIP_CORPUS = (
    "p -> q",
    "p & q",
    "p | q",
    "~p",
    "top",
    "bot",
    "F p",
    "G p",
    "P p",
    "H p",
    "F (p | q)",
    "G (p -> q)",
    "F p & G q",
    "G (p & q) <-> G p & G q",
    "p -> H F p",
    "F H p -> p",
    "P (p -> q) -> (H p -> P q)",
    "(F p -> G q) -> G (p -> q)",
    "~F bot",
    "G p & F q -> F (p & q)",
)


def test_criterion_08_truth_is_filter_membership(h2gc_fs_upto4, capsys):
    t0 = time.perf_counter()
    assert len(MEMBERSHIP_CORPUS) == 20
    formulas = [parse_formula(t) for t in MEMBERSHIP_CORPUS]

    compared = 0
    for alg in h2gc_fs_upto4:
        if alg.n == 1:
            continue  # no prime filters, nothing to compare
        result = duality.canonical_frame(alg)
        filters, frame = result.filters, result.frame
        for p_val, q_val in itertools.product(range(alg.n), repeat=2):
            model = Model(frame, {
                "p": [i for i, f in enumerate(filters) if f >> p_val & 1],
                "q": [i for i, f in enumerate(filters) if f >> q_val & 1],
            })
            for formula in formulas:
                truth = truth_set(model, formula)
                value = evaluate(alg, {"p": p_val, "q": q_val}, formula)
                members = sum(
                    1 << i for i, f in enumerate(filters) if f >> value & 1
                )
                assert truth == members, (alg.base.name, formula, p_val, q_val)
                compared += 1

    elapsed = time.perf_counter() - t0
    _announce(
        capsys, 8,
        elapsed,
        f"canonical-model truth equals filter membership in {compared} comparisons",
    )


PROPOSITIONAL_CORPUS = (
    "p -> p",
    "p | ~p",
    "((p -> q) -> p) -> p",
    "~~p -> p",
    "p -> ~~p",
    "(p -> q) | (q -> p)",
    "~(p & ~p)",
    "p & q -> p",
    "p -> p | q",
    "(p -> q) -> ((q -> r) -> (p -> r))",
    "~p | ~~p",
    "((p -> q) -> q) -> ((q -> p) -> p)",
    "p | (p -> q)",
    "(p <-> q) -> (p -> q)",
    "bot -> p",
)


def test_criterion_09_conservativity(capsys):
    t0 = time.perf_counter()
    assert len(PROPOSITIONAL_CORPUS) == 15
    assert "p | ~p" in PROPOSITIONAL_CORPUS
    assert "((p -> q) -> p) -> p" in PROPOSITIONAL_CORPUS

    bounds = SearchBounds(max_algebra_size=5)
    for text in PROPOSITIONAL_CORPUS:
        verdict = search.conservativity_check(text, bounds)
        assert verdict.status == "exhausted", (text, verdict.witness)
        assert verdict.scanned["bases"] == 8

    elapsed = time.perf_counter() - t0
    _announce(
        capsys, 9,
        elapsed,
        "15 propositional formulas agree between all 8 bases and their expansions",
    )


# independently transcribed axiom texts; parsing them must reproduce the
# stock schema table exactly
AXIOM_TEXTS = {
    "K": "A -> (B -> A)",
    "S": "(A -> (B -> C)) -> ((A -> B) -> (A -> C))",
    "AND-I": "A -> (B -> (A & B))",
    "AND-E1": "(A & B) -> A",
    "AND-E2": "(A & B) -> B",
    "OR-I1": "A -> (A | B)",
    "OR-I2": "B -> (A | B)",
    "OR-E": "(A -> C) -> ((B -> C) -> ((A | B) -> C))",
    "EFQ": "bot -> A",
    "NEG-E": "~A -> (A -> bot)",
    "NEG-I": "(A -> bot) -> ~A",
    "TOP": "top",
    "IFF-I": "(A -> B) -> ((B -> A) -> (A <-> B))",
    "IFF-E1": "(A <-> B) -> (A -> B)",
    "IFF-E2": "(A <-> B) -> (B -> A)",
    "PEIRCE": "((A -> B) -> A) -> A",
    "FS1": "F (A -> B) -> (G A -> F B)",
    "FS2": "P (A -> B) -> (H A -> P B)",
    "FS3": "(F A -> G B) -> G (A -> B)",
    "FS4": "(P A -> H B) -> H (A -> B)",
    "E2": "G (A -> B) -> (G A -> G B)",
    "E2'": "H (A -> B) -> (H A -> H B)",
    "E3": "G (A & B) <-> (G A & G B)",
    "E3'": "H (A & B) <-> (H A & H B)",
    "E4": "F (A | B) <-> (F A | F B)",
    "E4'": "P (A | B) <-> (P A | P B)",
    "E5": "G (A -> B) -> (F A -> F B)",
    "E5'": "H (A -> B) -> (P A -> P B)",
    "E6": "(G A & F B) -> F (A & B)",
    "E6'": "(H A & P B) -> P (A & B)",
    "E7": "G ~A -> ~F A",
    "E7'": "H ~A -> ~P A",
    "E8": "F H A -> A",
    "E8'": "P G A -> A",
    "E9": "A -> H F A",
    "E9'": "A -> G P A",
    "E10": "(F A -> G B) -> G (A -> B)",
    "E10'": "(P A -> H B) -> H (A -> B)",
    "E11": "F (A -> B) -> (G A -> F B)",
    "E11'": "P (A -> B) -> (H A -> P B)",
    "IK1-F": "F (A | B) -> (F A | F B)",
    "IK2-G": "(G A & G B) -> G (A & B)",
    "IK3-F": "~ F bot",
    "IK4-FG": "F (A -> B) -> (G A -> F B)",
    "IK5-FG": "(F A -> G B) -> G (A -> B)",
    "IK1-P": "P (A | B) -> (P A | P B)",
    "IK2-H": "(H A & H B) -> H (A & B)",
    "IK3-P": "~ P bot",
    "IK4-PH": "P (A -> B) -> (H A -> P B)",
    "IK5-PH": "(P A -> H B) -> H (A -> B)",
    "BR1": "A -> H F A",
    "BR2": "F H A -> A",
    "BR3": "A -> G P A",
    "BR4": "P G A -> A",
}

SHAPE_GOLDENS = (
    ("p -> q -> r", Imp(Var("p"), Imp(Var("q"), Var("r")))),
    ("p & q | r", Or(And(Var("p"), Var("q")), Var("r"))),
    ("~p & q", And(Not(Var("p")), Var("q"))),
    ("F p & q", And(Dia(Var("p")), Var("q"))),
    ("p <-> q -> r", Iff(Var("p"), Imp(Var("q"), Var("r")))),
    ("bot -> top", Imp(Bot(), Top())),
    ("~ ~ p", Not(Not(Var("p")))),
    ("F P p", Dia(BDia(Var("p")))),
    ("G H p", Box(BBox(Var("p")))),
    (
        "G (A -> B) -> (G A -> G B)",
        Imp(
            Box(Imp(MetaVar("A"), MetaVar("B"))),
            Imp(Box(MetaVar("A")), Box(MetaVar("B"))),
        ),
    ),
)


def test_criterion_10_parser_round_trips(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260818)
    for _ in range(1000):
        formula = random_formula(rng)
        assert parse_formula(render_formula(formula)) == formula

    for text, expected in SHAPE_GOLDENS:
        assert parse_schema(text) == expected, text

    assert set(AXIOM_TEXTS) == set(proofs.AXIOM_SCHEMAS)
    for name, text in AXIOM_TEXTS.items():
        assert parse_schema(text) == proofs.AXIOM_SCHEMAS[name], name
    for name, schema in proofs.AXIOM_SCHEMAS.items():
        assert parse_schema(render_formula(schema)) == schema, name

    elapsed = time.perf_counter() - t0
    _announce(
        capsys, 10,
        elapsed,
        f"1000 random round trips and {len(AXIOM_TEXTS)} transcribed schema texts",
    )
