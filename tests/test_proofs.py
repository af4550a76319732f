import pytest

from tenselab.algebra import algebra_validity, attach_ops, identity_expansion
from tenselab.fixtures import (
    FIXTURES,
    ax,
    fixture_env,
    fixture_script,
    fixture_suite,
    lm,
    pr,
    rl,
    script,
)
from tenselab.frames import Frame, frame_validity
from tenselab.lattice import chain
from tenselab.proofs import (
    AXIOM_SCHEMAS,
    MIRROR_NAMES,
    RULE_SPECS,
    SYSTEMS,
    ProofCheckError,
    ProofEnv,
    check_proof,
    register_derived_rule,
)
from tenselab.syntax import (
    Var,
    has_modal,
    metavariables_of,
    mirror,
    parse_schema,
    substitute,
)


def _check(name, system, theorem, steps, premises=(), env=None):
    return check_proof(script(name, system, theorem, steps, premises), env)


def _error(name, system, theorem, steps, premises=(), env=None):
    with pytest.raises(ProofCheckError) as exc:
        _check(name, system, theorem, steps, premises, env)
    return exc.value


IDENTITY_STEPS = [
    ax("S", A="p", B="p -> p", C="p"),
    ax("K", A="p", B="p -> p"),
    rl("MP", 1, 2),
    ax("K", A="p", B="p"),
    rl("MP", 3, 4),
]


class TestChecking:
    def test_identity_proof(self):
        checked = _check("t", "Int", "p -> p", IDENTITY_STEPS)
        assert checked.theorem == parse_schema("p -> p")
        assert len(checked.formulas) == 5

    def test_galois_switch(self):
        env = ProofEnv()
        env.register(fixture_script("id"))
        checked = _check(
            "t",
            "Int2GC",
            "p -> H F p",
            [lm("id", A="F p"), rl("GC-FH", 1)],
            env=env,
        )
        assert checked.formulas[0] == parse_schema("F p -> F p")

    def test_premises_become_assumptions(self):
        checked = _check(
            "t",
            "Int",
            "q",
            [pr(1), pr(2), rl("MP", 2, 1)],
            premises=("p", "p -> q"),
        )
        assert checked.premises == (parse_schema("p"), parse_schema("p -> q"))


class TestErrorCodes:
    def test_unknown_system(self):
        e = _error("t", "Int3", "p", [ax("K", A="p", B="p")])
        assert e.code == "UnknownSystem" and e.step is None
        assert str(e).startswith("[UnknownSystem]")

    def test_unknown_axiom_id(self):
        e = _error("t", "Int", "p", [ax("XYZ", A="p")])
        assert e.code == "UnknownAxiom" and e.step == 1

    def test_axiom_outside_system(self):
        e = _error(
            "t",
            "Int",
            "((p -> q) -> p) -> p",
            [ax("PEIRCE", A="p", B="q")],
        )
        assert e.code == "UnknownAxiom"
        assert "not part of Int" in e.message

    def test_unknown_rule_id(self):
        e = _error("t", "Int", "p", [rl("ZZ", 1)])
        assert e.code == "UnknownRule"

    def test_rule_outside_system(self):
        e = _error(
            "t", "Int", "F p -> p", [ax("K", A="p", B="p"), rl("GC-HF", 1)]
        )
        assert e.code == "UnknownRule"
        assert "not part of Int" in e.message

    def test_unknown_lemma(self):
        e = _error("t", "Int", "p -> p", [lm("id", A="p")])
        assert e.code == "UnknownLemma"
        e = _error("t", "Int", "p -> p", [lm("id", A="p")], env=ProofEnv())
        assert e.code == "UnknownLemma"

    def test_lemma_citation_needs_inclusion(self):
        env = ProofEnv()
        env.register(
            script(
                "fs1_restate",
                "Int2GC+FS",
                "F (A -> B) -> (G A -> F B)",
                [ax("FS1", A="A", B="B")],
            )
        )
        # fine where the home system is included
        _check(
            "t",
            "Cl2GC+FS",
            "F (p -> q) -> (G p -> F q)",
            [lm("fs1_restate", A="p", B="q")],
            env=env,
        )
        e = _error(
            "t",
            "Int2GC",
            "F (p -> q) -> (G p -> F q)",
            [lm("fs1_restate", A="p", B="q")],
            env=env,
        )
        assert e.code == "UnknownLemma"
        assert "not included" in e.message

    def test_unknown_premise(self):
        e = _error("t", "Int", "p", [pr(2)], premises=("p",))
        assert e.code == "UnknownPremise"

    def test_forward_reference(self):
        e = _error("t", "Int", "p", [rl("MP", 3, 1)])
        assert e.code == "ForwardReference" and e.step == 1
        e = _error(
            "t", "Int", "p", [ax("K", A="p", B="p"), rl("MP", 0, 1)]
        )
        assert e.code == "ForwardReference"

    def test_shape_mismatch_wrong_premise_shape(self):
        e = _error(
            "t",
            "Int2GC",
            "F p -> q",
            [ax("K", A="p", B="q"), rl("GC-HF", 1)],
        )
        assert e.code == "ShapeMismatch"
        assert "wants shape A -> H B" in e.message

    def test_shape_mismatch_wrong_arity(self):
        e = _error("t", "Int", "p", [ax("K", A="p", B="p"), rl("MP", 1)])
        assert e.code == "ShapeMismatch"
        assert "takes 2 premises" in e.message

    def test_bad_substitution_missing(self):
        e = _error("t", "Int", "p -> (q -> p)", [ax("K", A="p")])
        assert e.code == "BadSubstitution"
        assert "unassigned: B" in e.message

    def test_bad_substitution_stray(self):
        e = _error("t", "Int", "top", [ax("TOP", A="p")])
        assert e.code == "BadSubstitution"
        assert "does not mention" in e.message
        # a rule step is held to the same: keys its shapes do not mention
        e = _error(
            "t",
            "Int",
            "q",
            [pr(1), pr(2), rl("MP", 2, 1, Zzz="q")],
            premises=("p", "p -> q"),
        )
        assert (e.code, e.step) == ("BadSubstitution", 3)
        assert e.message == "rule MP does not mention: Zzz"

    def test_bad_substitution_conflict(self):
        e = _error(
            "t",
            "Int",
            "q",
            [pr(1), pr(2), rl("MP", 2, 1, A="r")],
            premises=("p", "p -> q"),
        )
        assert e.code == "BadSubstitution"
        assert "already binds A" in e.message

    def test_theorem_mismatch(self):
        e = _error("t", "Int", "q -> q", IDENTITY_STEPS)
        assert e.code == "TheoremMismatch" and e.step == 5
        assert "proves p -> p" in e.message

    def test_empty_script(self):
        e = _error("t", "Int", "p -> p", [])
        assert e.code == "TheoremMismatch" and e.step is None

    def test_message_format(self):
        e = _error("t", "Int", "p", [ax("XYZ")])
        assert str(e) == "step 1: [UnknownAxiom] no axiom schema 'XYZ'"


class TestRegistry:
    def test_name_collision(self):
        env = ProofEnv()
        env.register(script("one", "Int", "A -> A", FIXTURES[0].steps))
        with pytest.raises(ValueError, match="already registered"):
            env.register(script("one", "Int", "A -> A", FIXTURES[0].steps))

    def test_primitive_shadowing(self):
        env = ProofEnv()
        for name in ("MP", "K", "GC-HF"):
            with pytest.raises(ValueError, match="shadows"):
                env.register(script(name, "Int", "A -> A", FIXTURES[0].steps))

    def test_derived_rule_round_trip(self):
        env = ProofEnv()
        env.register(fixture_script("id"))
        register_derived_rule(
            env,
            script(
                "detach_twice",
                "Int",
                "C",
                [pr(1), pr(2), rl("MP", 1, 2), pr(3), rl("MP", 3, 4)],
                premises=("A -> (B -> C)", "A", "B"),
            ),
        )
        checked = _check(
            "t",
            "Int",
            "(p -> p) & (q -> q)",
            [
                ax("AND-I", A="p -> p", B="q -> q"),
                lm("id", A="p"),
                lm("id", A="q"),
                rl("detach_twice", 1, 2, 3),
            ],
            env=env,
        )
        assert checked.formulas[-1] == parse_schema("(p -> p) & (q -> q)")

    def test_derived_rule_needs_premises(self):
        env = ProofEnv()
        with pytest.raises(ValueError, match="premise"):
            register_derived_rule(
                env, script("np", "Int", "A -> A", FIXTURES[0].steps)
            )

    def test_derived_rule_free_conclusion_metavar(self):
        env = ProofEnv()
        register_derived_rule(
            env,
            script(
                "weaken_or",
                "Int",
                "A | B",
                [ax("OR-I1", A="A", B="B"), pr(1), rl("MP", 1, 2)],
                premises=("A",),
            ),
        )
        # B is not determined by the premise: must come in via subst
        e = _error(
            "t",
            "Int",
            "p | q",
            [ax("K", A="p", B="p"), rl("weaken_or", 1)],
            env=env,
        )
        assert e.code == "ShapeMismatch" and "leaves B free" in e.message
        checked = _check(
            "t2",
            "Int",
            "(p -> (p -> p)) | q",
            [ax("K", A="p", B="p"), rl("weaken_or", 1, B="q")],
            env=env,
        )
        assert checked.formulas[-1] == parse_schema("(p -> (p -> p)) | q")


class TestSystems:
    def test_inclusions(self):
        s = SYSTEMS
        assert s["Int2GC+FS"].includes(s["Int"])
        assert s["Cl2GC+FS"].includes(s["Int2GC+FS"])
        assert s["IK_t"].includes(s["Int"])
        assert not s["Int"].includes(s["Int2GC"])
        assert not s["IK_t"].includes(s["IKxIK+BR"])
        assert not s["IKxIK+BR"].includes(s["IK_t"])

    def test_expected_names(self):
        assert sorted(SYSTEMS) == [
            "Cl2GC+FS",
            "IK_t",
            "IKxIK+BR",
            "Int",
            "Int2GC",
            "Int2GC+FS",
            "Int2GC+FS1",
            "Int2GC+FS2",
            "Int2GC+FS3",
            "Int2GC+FS4",
        ]

    def test_axioms_and_rules_resolve(self):
        for system in SYSTEMS.values():
            assert system.axioms <= set(AXIOM_SCHEMAS)
            assert system.rules <= set(RULE_SPECS)


class TestFixtureSuite:
    def test_everything_checks(self):
        checked = fixture_suite()
        assert len(checked) == 90
        assert len({c.name for c in checked}) == 90

    def test_count_by_system(self):
        by_system = {}
        for s in FIXTURES:
            by_system[s.system] = by_system.get(s.system, 0) + 1
        assert by_system["Int2GC+FS"] == 22

    def test_env_is_reusable(self):
        env = fixture_env()
        assert "id" in env.lemmas
        assert env.lemmas["br1"].theorem == parse_schema("A -> H F A")

    def test_int_theorems_hold_on_small_algebras(self):
        # propositional fixtures must be valid over every Heyting algebra;
        # spot-check the three-element chain
        alg = identity_expansion(chain(3))
        for s in FIXTURES:
            if s.system != "Int" or s.premises:
                continue
            thm = substitute(
                s.theorem, {m: Var(m.lower()) for m in metavariables_of(s.theorem)}
            )
            if len(metavariables_of(s.theorem)) > 4:
                continue
            assert algebra_validity(alg, thm) is None, s.name

    def test_fixture_script_lookup(self):
        assert fixture_script("id").name == "id"
        with pytest.raises(KeyError):
            fixture_script("nonexistent")


def _mirror_name(name):
    return MIRROR_NAMES.get(name, name)


class TestMirror:
    """Swapping F with P and G with H maps each axiom, rule and system to
    the one MIRROR_NAMES pairs it with, so it maps proofs to proofs."""

    def test_table_pairs_known_names(self):
        known = set(AXIOM_SCHEMAS) | set(RULE_SPECS) | set(SYSTEMS)
        for name, other in MIRROR_NAMES.items():
            assert name in known and name != other
            assert MIRROR_NAMES[other] == name

    def test_axiom_pairs(self):
        for name, schema in AXIOM_SCHEMAS.items():
            assert AXIOM_SCHEMAS[_mirror_name(name)] == mirror(schema), name

    def test_rule_pairs(self):
        for name, spec in RULE_SPECS.items():
            other = RULE_SPECS[_mirror_name(name)]
            assert other.premises == tuple(map(mirror, spec.premises)), name
            assert other.conclusion == mirror(spec.conclusion), name

    def test_system_pairs(self):
        for name, system in SYSTEMS.items():
            other = SYSTEMS[_mirror_name(name)]
            assert set(map(_mirror_name, system.axioms)) == other.axioms, name
            assert set(map(_mirror_name, system.rules)) == other.rules, name


# the modal axioms, metavariables sent to variables (mirroring leaves the
# others as they are), and non-theorems that fail on some IK frames
_MODAL_INSTANCES = [
    substitute(s, {m: Var(m.lower()) for m in metavariables_of(s)})
    for s in AXIOM_SCHEMAS.values()
    if has_modal(s)
] + [parse_schema(t) for t in ("G p -> p", "p -> G F p", "G (p | q) -> G p | F q")]


class TestSemanticMirror:
    """The mirror on the semantic side, without the proof checker: a
    formula's verdict on a structure is its mirror's on the structure with
    the two Galois pairs swapped, or with R reversed.  A stride thins the
    structures to keep the two tests near half a second."""

    def test_algebras(self, op_combos_upto5):
        verdicts = set()
        for alg in [a for a in op_combos_upto5 if a.n <= 4][::5]:
            swapped = attach_ops(alg.base, alg.bdia, alg.bbox, alg.dia, alg.box)
            for f in _MODAL_INSTANCES:
                got = algebra_validity(alg, f)
                assert got == algebra_validity(swapped, mirror(f)), (alg.base.name, f)
                verdicts.add(got is None)
        assert verdicts == {True, False}

    def test_frames(self, ik_frames_upto3):
        verdicts = set()
        for frame in ik_frames_upto3[::9]:
            reversed_r = Frame(frame.names, frame.leq, frame.r.T)
            for f in _MODAL_INSTANCES:
                got = frame_validity(frame, f)
                assert got == frame_validity(reversed_r, mirror(f)), (frame.name, f)
                verdicts.add(got is None)
        assert verdicts == {True, False}
