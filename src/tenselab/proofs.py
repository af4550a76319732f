"""Hilbert-style proof checking for the tense systems.

A system is a named set of axiom-schema ids and rule ids.  A proof
script is a sequence of steps, each producing one formula:

    {"axiom": id, "subst": {...}}   instance of an axiom schema
    {"rule": id, "from": [i, ...]}  rule applied to earlier steps
    {"lemma": id, "subst": {...}}   instance of a registered lemma
    {"premise": k}                  k-th hypothesis of the script

Step and premise indices are 1-based.  A script with premises, once
checked, can be registered as a derived rule: its premises become the
premise shapes and its theorem the conclusion shape.  A script without
premises registers as a lemma.

Rule ids follow the operator letters: GC-HF turns A -> H B into
F A -> B, GC-FH is its inverse, GC-GP and GC-PG do the same for the
other Galois pair.  RG and RH are necessitation, RM-F .. RM-H
monotonicity, RN-G and RN-H necessitation in the tensor system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .syntax import (
    Formula,
    match,
    metavariables_of,
    parse_schema,
    render_formula,
    substitute,
)


class ProofCheckError(Exception):
    """A script failed at a specific step (or at the final theorem)."""

    def __init__(self, step: Optional[int], code: str, message: str):
        super().__init__(
            f"step {step}: [{code}] {message}" if step else f"[{code}] {message}"
        )
        self.step = step
        self.code = code
        self.message = message


# ------------------------------------------------------------- axiom table

_AXIOM_TEXTS: dict[str, str] = {
    # intuitionistic basis; top and <-> are primitive connectives here,
    # so they carry their own introduction/elimination schemas
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
    # connecting axioms for the two Galois pairs
    "FS1": "F (A -> B) -> (G A -> F B)",
    "FS2": "P (A -> B) -> (H A -> P B)",
    "FS3": "(F A -> G B) -> G (A -> B)",
    "FS4": "(P A -> H B) -> H (A -> B)",
    # tense axiom family, unprimed for (F, G), primed for (P, H)
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
    # bi-modal axioms of the tensor system
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
    # round-trip axioms making the accessibility relations converse
    "BR1": "A -> H F A",
    "BR2": "F H A -> A",
    "BR3": "A -> G P A",
    "BR4": "P G A -> A",
}

AXIOM_SCHEMAS: dict[str, Formula] = {
    name: parse_schema(text) for name, text in _AXIOM_TEXTS.items()
}


@dataclass(frozen=True)
class RuleSpec:
    premises: tuple[Formula, ...]
    conclusion: Formula


def _rule(premises: Sequence[str], conclusion: str) -> RuleSpec:
    return RuleSpec(
        tuple(parse_schema(p) for p in premises), parse_schema(conclusion)
    )


RULE_SPECS: dict[str, RuleSpec] = {
    "MP": _rule(["A -> B", "A"], "B"),
    "GC-HF": _rule(["A -> H B"], "F A -> B"),
    "GC-FH": _rule(["F A -> B"], "A -> H B"),
    "GC-GP": _rule(["A -> G B"], "P A -> B"),
    "GC-PG": _rule(["P A -> B"], "A -> G B"),
    "RG": _rule(["A"], "G A"),
    "RH": _rule(["A"], "H A"),
    "RM-F": _rule(["A -> B"], "F A -> F B"),
    "RM-G": _rule(["A -> B"], "G A -> G B"),
    "RM-P": _rule(["A -> B"], "P A -> P B"),
    "RM-H": _rule(["A -> B"], "H A -> H B"),
    "RN-G": _rule(["A"], "G A"),
    "RN-H": _rule(["A"], "H A"),
}


# ----------------------------------------------------------------- systems


@dataclass(frozen=True)
class System:
    name: str
    axioms: frozenset[str]
    rules: frozenset[str]

    def includes(self, other: "System") -> bool:
        """Everything provable there is provable here."""
        return other.axioms <= self.axioms and other.rules <= self.rules


_INT_AXIOMS = frozenset(
    {
        "K",
        "S",
        "AND-I",
        "AND-E1",
        "AND-E2",
        "OR-I1",
        "OR-I2",
        "OR-E",
        "EFQ",
        "NEG-E",
        "NEG-I",
        "TOP",
        "IFF-I",
        "IFF-E1",
        "IFF-E2",
    }
)

_GC_RULES = frozenset({"GC-HF", "GC-FH", "GC-GP", "GC-PG"})

_EWALD_AXIOMS = frozenset(
    {
        "E2",
        "E2'",
        "E3",
        "E3'",
        "E4",
        "E4'",
        "E5",
        "E5'",
        "E6",
        "E6'",
        "E7",
        "E7'",
        "E8",
        "E8'",
        "E9",
        "E9'",
        "E10",
        "E10'",
        "E11",
        "E11'",
    }
)

_IK_TENSOR_AXIOMS = frozenset(
    {
        "IK1-F",
        "IK2-G",
        "IK3-F",
        "IK4-FG",
        "IK5-FG",
        "IK1-P",
        "IK2-H",
        "IK3-P",
        "IK4-PH",
        "IK5-PH",
        "BR1",
        "BR2",
        "BR3",
        "BR4",
    }
)


SYSTEMS: dict[str, System] = {
    s.name: s
    for s in (
        System("Int", _INT_AXIOMS, frozenset({"MP"})),
        System("Int2GC", _INT_AXIOMS, frozenset({"MP"}) | _GC_RULES),
        System(
            "Int2GC+FS",
            _INT_AXIOMS | {"FS1", "FS2"},
            frozenset({"MP"}) | _GC_RULES,
        ),
        System(
            "Cl2GC+FS",
            _INT_AXIOMS | {"FS1", "FS2", "PEIRCE"},
            frozenset({"MP"}) | _GC_RULES,
        ),
        # single connecting axiom each, for the equivalence scripts
        System(
            "Int2GC+FS1", _INT_AXIOMS | {"FS1"}, frozenset({"MP"}) | _GC_RULES
        ),
        System(
            "Int2GC+FS2", _INT_AXIOMS | {"FS2"}, frozenset({"MP"}) | _GC_RULES
        ),
        System(
            "Int2GC+FS3", _INT_AXIOMS | {"FS3"}, frozenset({"MP"}) | _GC_RULES
        ),
        System(
            "Int2GC+FS4", _INT_AXIOMS | {"FS4"}, frozenset({"MP"}) | _GC_RULES
        ),
        System(
            "IK_t",
            _INT_AXIOMS | _EWALD_AXIOMS,
            frozenset({"MP", "RG", "RH"}),
        ),
        System(
            "IKxIK+BR",
            _INT_AXIOMS | _IK_TENSOR_AXIOMS,
            frozenset({"MP", "RM-F", "RM-G", "RM-P", "RM-H", "RN-G", "RN-H"}),
        ),
    )
}


# The tense mirror image, syntax.mirror, swaps F with P and G with H.  It
# turns each schema, rule shape and system named here into its partner's,
# and every other one into itself, so it turns a proof into a proof of
# the mirrored theorem.
_MIRROR_PAIRS = (
    # axioms
    ("FS1", "FS2"), ("FS3", "FS4"), ("BR1", "BR3"), ("BR2", "BR4"),
    *((f"E{k}", f"E{k}'") for k in range(2, 12)),
    ("IK1-F", "IK1-P"), ("IK2-G", "IK2-H"), ("IK3-F", "IK3-P"),
    ("IK4-FG", "IK4-PH"), ("IK5-FG", "IK5-PH"),
    # rules
    ("GC-HF", "GC-GP"), ("GC-FH", "GC-PG"), ("RG", "RH"),
    ("RM-F", "RM-P"), ("RM-G", "RM-H"), ("RN-G", "RN-H"),
    # systems
    ("Int2GC+FS1", "Int2GC+FS2"), ("Int2GC+FS3", "Int2GC+FS4"),
)

MIRROR_NAMES: dict[str, str] = {
    x: y for a, b in _MIRROR_PAIRS for x, y in ((a, b), (b, a))
}


# ------------------------------------------------------------------- steps


@dataclass(frozen=True)
class AxiomStep:
    axiom: str
    subst: Mapping[str, Formula] = field(default_factory=dict)


@dataclass(frozen=True)
class RuleStep:
    rule: str
    premises: tuple[int, ...]
    subst: Mapping[str, Formula] = field(default_factory=dict)


@dataclass(frozen=True)
class LemmaStep:
    lemma: str
    subst: Mapping[str, Formula] = field(default_factory=dict)


@dataclass(frozen=True)
class PremiseStep:
    index: int


Step = Union[AxiomStep, RuleStep, LemmaStep, PremiseStep]


@dataclass(frozen=True)
class ProofScript:
    name: str
    system: str
    theorem: Formula
    steps: tuple[Step, ...]
    premises: tuple[Formula, ...] = ()


@dataclass(frozen=True)
class CheckedProof:
    name: str
    system: str
    theorem: Formula
    premises: tuple[Formula, ...]
    formulas: tuple[Formula, ...]


@dataclass(frozen=True)
class Lemma:
    name: str
    system: str
    theorem: Formula


@dataclass(frozen=True)
class DerivedRule:
    name: str
    system: str
    spec: RuleSpec


class ProofEnv:
    """Registry of checked lemmas and derived rules.

    A lemma or rule proved in system S may be cited in any system that
    includes S (axioms and rules both).
    """

    def __init__(self):
        self.lemmas: dict[str, Lemma] = {}
        self.derived_rules: dict[str, DerivedRule] = {}

    def register(self, script: ProofScript) -> CheckedProof:
        """Check a script, then make it citable under its name."""
        if script.name in self.lemmas or script.name in self.derived_rules:
            raise ValueError(f"{script.name!r} already registered")
        if script.name in RULE_SPECS or script.name in AXIOM_SCHEMAS:
            raise ValueError(f"{script.name!r} shadows a primitive id")
        checked = check_proof(script, self)
        if script.premises:
            self.derived_rules[script.name] = DerivedRule(
                script.name,
                script.system,
                RuleSpec(script.premises, script.theorem),
            )
        else:
            self.lemmas[script.name] = Lemma(
                script.name, script.system, script.theorem
            )
        return checked


def register_derived_rule(env: ProofEnv, script: ProofScript) -> CheckedProof:
    """Check a premise-carrying script and install it as a rule.

    Metavariables in the premises enter the proof as opaque atoms; the
    conclusion shape is the script's theorem.
    """
    if not script.premises:
        raise ValueError("a derived rule needs at least one premise")
    return env.register(script)


# --------------------------------------------------------------- checking


def _instantiate(
    schema: Formula,
    subst: Mapping[str, Formula],
    step_no: int,
    what: str,
) -> Formula:
    need = set(metavariables_of(schema))
    missing = sorted(need - set(subst))
    if missing:
        raise ProofCheckError(
            step_no,
            "BadSubstitution",
            f"{what} leaves metavariables unassigned: {', '.join(missing)}",
        )
    _no_stray_keys(subst, need, step_no, what)
    return substitute(schema, subst)


def _no_stray_keys(
    subst: Mapping[str, Formula], mentioned: set[str], step_no: int, what: str
) -> None:
    stray = sorted(set(subst) - mentioned)
    if stray:
        raise ProofCheckError(
            step_no,
            "BadSubstitution",
            f"{what} does not mention: {', '.join(stray)}",
        )


def _apply_rule(
    rule_id: str,
    spec: RuleSpec,
    given: Sequence[Formula],
    subst: Mapping[str, Formula],
    step_no: int,
) -> Formula:
    if len(given) != len(spec.premises):
        raise ProofCheckError(
            step_no,
            "ShapeMismatch",
            f"rule {rule_id} takes {len(spec.premises)} premises, got {len(given)}",
        )
    bindings: dict[str, Formula] = {}
    for i, (pattern, formula) in enumerate(zip(spec.premises, given), 1):
        extended = match(pattern, formula, bindings)
        if extended is None:
            raise ProofCheckError(
                step_no,
                "ShapeMismatch",
                f"rule {rule_id} premise {i} wants shape "
                f"{render_formula(pattern)}, got {render_formula(formula)}",
            )
        bindings = extended
    # the premises are matched, so bindings names every premise metavariable
    wanted = set(metavariables_of(spec.conclusion))
    _no_stray_keys(subst, wanted | set(bindings), step_no, f"rule {rule_id}")
    for k, v in subst.items():
        if k in bindings and bindings[k] != v:
            raise ProofCheckError(
                step_no,
                "BadSubstitution",
                f"rule {rule_id} already binds {k} to "
                f"{render_formula(bindings[k])}",
            )
        bindings[k] = v
    unbound = sorted(wanted - set(bindings))
    if unbound:
        raise ProofCheckError(
            step_no,
            "ShapeMismatch",
            f"rule {rule_id} conclusion leaves {', '.join(unbound)} free; "
            "supply them via subst",
        )
    return substitute(spec.conclusion, bindings)


def check_proof(script: ProofScript, env: Optional[ProofEnv] = None) -> CheckedProof:
    """Validate every step and the stated theorem; raises ProofCheckError."""
    system = SYSTEMS.get(script.system)
    if system is None:
        raise ProofCheckError(None, "UnknownSystem", f"no system {script.system!r}")
    derived: list[Formula] = []
    for no, step in enumerate(script.steps, 1):
        if isinstance(step, AxiomStep):
            if step.axiom not in AXIOM_SCHEMAS:
                raise ProofCheckError(
                    no, "UnknownAxiom", f"no axiom schema {step.axiom!r}"
                )
            if step.axiom not in system.axioms:
                raise ProofCheckError(
                    no,
                    "UnknownAxiom",
                    f"axiom {step.axiom} is not part of {system.name}",
                )
            formula = _instantiate(
                AXIOM_SCHEMAS[step.axiom], step.subst, no, f"axiom {step.axiom}"
            )
        elif isinstance(step, LemmaStep):
            if env is None or step.lemma not in env.lemmas:
                raise ProofCheckError(
                    no, "UnknownLemma", f"no registered lemma {step.lemma!r}"
                )
            lem = env.lemmas[step.lemma]
            home = SYSTEMS[lem.system]
            if not system.includes(home):
                raise ProofCheckError(
                    no,
                    "UnknownLemma",
                    f"lemma {step.lemma} lives in {lem.system}, "
                    f"not included in {system.name}",
                )
            formula = _instantiate(
                lem.theorem, step.subst, no, f"lemma {step.lemma}"
            )
        elif isinstance(step, RuleStep):
            spec: Optional[RuleSpec] = None
            if step.rule in RULE_SPECS:
                if step.rule not in system.rules:
                    raise ProofCheckError(
                        no,
                        "UnknownRule",
                        f"rule {step.rule} is not part of {system.name}",
                    )
                spec = RULE_SPECS[step.rule]
            elif env is not None and step.rule in env.derived_rules:
                dr = env.derived_rules[step.rule]
                home = SYSTEMS[dr.system]
                if not system.includes(home):
                    raise ProofCheckError(
                        no,
                        "UnknownRule",
                        f"derived rule {step.rule} lives in {dr.system}, "
                        f"not included in {system.name}",
                    )
                spec = dr.spec
            else:
                raise ProofCheckError(
                    no, "UnknownRule", f"no rule {step.rule!r}"
                )
            given = []
            for k in step.premises:
                if k < 1 or k > len(derived):
                    raise ProofCheckError(
                        no,
                        "ForwardReference",
                        f"rule cites step {k}, but only steps 1..{len(derived)} exist here",
                    )
                given.append(derived[k - 1])
            formula = _apply_rule(step.rule, spec, given, step.subst, no)
        elif isinstance(step, PremiseStep):
            if step.index < 1 or step.index > len(script.premises):
                raise ProofCheckError(
                    no,
                    "UnknownPremise",
                    f"script has {len(script.premises)} premises, cited {step.index}",
                )
            formula = script.premises[step.index - 1]
        else:
            raise ProofCheckError(no, "ShapeMismatch", f"unrecognised step {step!r}")
        derived.append(formula)
    if not derived:
        raise ProofCheckError(None, "TheoremMismatch", "script has no steps")
    if derived[-1] != script.theorem:
        raise ProofCheckError(
            len(derived),
            "TheoremMismatch",
            f"last step proves {render_formula(derived[-1])}, "
            f"script claims {render_formula(script.theorem)}",
        )
    return CheckedProof(
        script.name,
        script.system,
        script.theorem,
        script.premises,
        tuple(derived),
    )
