"""Checked proof-script corpus for the tense systems.

The scripts build up a small derived-rule toolkit over the pure
implication fragment (hs, s2, hs2, perm, weaken, curry, uncurry,
and_both, or_both, iff_both), then derive, in order:

  * the round-trip theorems br1..br4 and the monotonicity and
    necessitation rules of the Galois fragment;
  * distribution of G/H over conjunction and of F/P over disjunction,
    plus the K-shape schemas for G and H;
  * the mixed laws requiring the connecting axioms: the meet
    interaction (G A & F B -> F(A & B) and its dual), the modal
    K-shapes for F and P, the negation transfer laws, and the two
    remaining connecting schemas;
  * the four cross-derivations showing each connecting axiom pair
    interderivable inside the plain Galois system;
  * admissibility of the four Galois rules in the tensor system with
    round-trip axioms, and of monotonicity plus the Galois rules in
    the tense axiomatisation;
  * one-step wrappers exposing every tense axiom as a theorem of the
    connecting-axiom system, and the bi-modal axiom set for both
    operator pairs.

Swapping F with P and G with H turns every axiom, rule and system into
its mirror image (proofs.MIRROR_NAMES), so it turns a proof into a proof
of the mirrored theorem.  The P/H half of the corpus is therefore
written once: an entry mirror(name, partner) is the mirror image of the
earlier script partner.  Its theorem, premises and substitutions are
partner's mirrored, and each axiom, rule, system and lemma it cites is
renamed to its mirror.  The lemma pairs are the mirror entries
themselves, so h_k, the mirror of g_k, cites rm_f and br2 where g_k
cites rm_p and br4.  37 of the 90 scripts are built this way.

fixture_suite() checks everything in dependency order and returns the
checked proofs; fixture_env() returns the populated registry.

The necessitation script rn_h (and its mirror rn_g) reconstructs a
derivation that is usually left implicit: from A, weaken to F top -> A,
switch sides with a Galois rule, and detach with top.  It is the only
script here not following a source laid out step by step.
"""

from __future__ import annotations

from functools import lru_cache

from .syntax import mirror as mirror_formula, parse_schema
from .proofs import (
    MIRROR_NAMES,
    AxiomStep,
    CheckedProof,
    LemmaStep,
    PremiseStep,
    ProofEnv,
    ProofScript,
    RuleStep,
)


def ax(axiom: str, **subst: str) -> AxiomStep:
    return AxiomStep(axiom, {k: parse_schema(v) for k, v in subst.items()})


def rl(rule: str, *premises: int, **subst: str) -> RuleStep:
    return RuleStep(rule, premises, {k: parse_schema(v) for k, v in subst.items()})


def lm(lemma: str, **subst: str) -> LemmaStep:
    return LemmaStep(lemma, {k: parse_schema(v) for k, v in subst.items()})


def pr(index: int) -> PremiseStep:
    return PremiseStep(index)


def script(name, system, theorem, steps, premises=()):
    return ProofScript(
        name=name,
        system=system,
        theorem=parse_schema(theorem),
        steps=tuple(steps),
        premises=tuple(parse_schema(p) for p in premises),
    )


def mirror(name: str, partner: str) -> tuple[str, str]:
    """Entry for the script name, the mirror image of the earlier partner."""
    return name, partner


def _mirror_script(s: ProofScript, name: str, names: dict[str, str]) -> ProofScript:
    """The mirror image of s, named name; names pairs the ids it cites."""

    def swap(id_: str) -> str:
        return names.get(id_, id_)

    def subst(step) -> dict:
        return {k: mirror_formula(v) for k, v in step.subst.items()}

    steps = []
    for step in s.steps:
        if isinstance(step, AxiomStep):
            step = AxiomStep(swap(step.axiom), subst(step))
        elif isinstance(step, RuleStep):
            step = RuleStep(swap(step.rule), step.premises, subst(step))
        elif isinstance(step, LemmaStep):
            step = LemmaStep(swap(step.lemma), subst(step))
        steps.append(step)
    return ProofScript(
        name=name,
        system=swap(s.system),
        theorem=mirror_formula(s.theorem),
        steps=tuple(steps),
        premises=tuple(map(mirror_formula, s.premises)),
    )


def _expand(entries) -> tuple[ProofScript, ...]:
    """The scripts of entries, each mirror entry built from its partner."""
    names = dict(MIRROR_NAMES)
    scripts: dict[str, ProofScript] = {}
    for entry in entries:
        if isinstance(entry, tuple):
            name, partner = entry
            names[name], names[partner] = partner, name
            entry = _mirror_script(scripts[partner], name, names)
        scripts[entry.name] = entry
    return tuple(scripts.values())


FIXTURES: tuple[ProofScript, ...] = _expand((
    # ---------------------------------------------- implication toolkit
    script(
        "id",
        "Int",
        "A -> A",
        [
            ax("S", A="A", B="A -> A", C="A"),
            ax("K", A="A", B="A -> A"),
            rl("MP", 1, 2),
            ax("K", A="A", B="A"),
            rl("MP", 3, 4),
        ],
    ),
    script(
        "syl2",
        "Int",
        "(B -> C) -> ((A -> B) -> (A -> C))",
        [
            ax("S", A="A", B="B", C="C"),
            ax(
                "K",
                A="(A -> (B -> C)) -> ((A -> B) -> (A -> C))",
                B="B -> C",
            ),
            rl("MP", 2, 1),
            ax(
                "S",
                A="B -> C",
                B="A -> (B -> C)",
                C="(A -> B) -> (A -> C)",
            ),
            rl("MP", 4, 3),
            ax("K", A="B -> C", B="A"),
            rl("MP", 5, 6),
        ],
    ),
    script(
        "hs",
        "Int",
        "A -> C",
        [
            pr(2),
            lm("syl2", A="A", B="B", C="C"),
            rl("MP", 2, 1),
            pr(1),
            rl("MP", 3, 4),
        ],
        premises=["A -> B", "B -> C"],
    ),
    script(
        "s2",
        "Int",
        "A -> C",
        [
            ax("S", A="A", B="B", C="C"),
            pr(1),
            rl("MP", 1, 2),
            pr(2),
            rl("MP", 3, 4),
        ],
        premises=["A -> (B -> C)", "A -> B"],
    ),
    script(
        "hs2",
        "Int",
        "A -> (B -> D)",
        [
            pr(2),
            lm("syl2", A="B", B="C", C="D"),
            rl("MP", 2, 1),
            pr(1),
            rl("hs", 4, 3),
        ],
        premises=["A -> (B -> C)", "C -> D"],
    ),
    script(
        "perm",
        "Int",
        "B -> (A -> C)",
        [
            pr(1),
            ax("S", A="A", B="B", C="C"),
            rl("MP", 2, 1),
            ax("K", A="B", B="A"),
            rl("hs", 4, 3),
        ],
        premises=["A -> (B -> C)"],
    ),
    script(
        "syl1",
        "Int",
        "(A -> B) -> ((B -> C) -> (A -> C))",
        [
            lm("syl2", A="A", B="B", C="C"),
            rl("perm", 1),
        ],
    ),
    script(
        "weaken",
        "Int",
        "B -> A",
        [
            pr(1),
            ax("K", A="A", B="B"),
            rl("MP", 2, 1),
        ],
        premises=["A"],
    ),
    script(
        "uncurry",
        "Int",
        "(A & B) -> C",
        [
            ax("AND-E1", A="A", B="B"),
            pr(1),
            rl("hs", 1, 2),
            ax("AND-E2", A="A", B="B"),
            rl("s2", 3, 4),
        ],
        premises=["A -> (B -> C)"],
    ),
    script(
        "curry",
        "Int",
        "A -> (B -> C)",
        [
            ax("AND-I", A="A", B="B"),
            pr(1),
            rl("hs2", 1, 2),
        ],
        premises=["(A & B) -> C"],
    ),
    script(
        "and_both",
        "Int",
        "A -> (B & C)",
        [
            pr(1),
            ax("AND-I", A="B", B="C"),
            rl("hs", 1, 2),
            pr(2),
            rl("s2", 3, 4),
        ],
        premises=["A -> B", "A -> C"],
    ),
    script(
        "or_both",
        "Int",
        "(A | B) -> C",
        [
            ax("OR-E", A="A", B="B", C="C"),
            pr(1),
            rl("MP", 1, 2),
            pr(2),
            rl("MP", 3, 4),
        ],
        premises=["A -> C", "B -> C"],
    ),
    script(
        "iff_both",
        "Int",
        "A <-> B",
        [
            ax("IFF-I", A="A", B="B"),
            pr(1),
            rl("MP", 1, 2),
            pr(2),
            rl("MP", 3, 4),
        ],
        premises=["A -> B", "B -> A"],
    ),
    script(
        "and_comm",
        "Int",
        "(A & B) -> (B & A)",
        [
            ax("AND-E2", A="A", B="B"),
            ax("AND-E1", A="A", B="B"),
            rl("and_both", 1, 2),
        ],
    ),
    # -------------------------------------------------- Galois fragment
    script(
        "br1",
        "Int2GC",
        "A -> H F A",
        [
            lm("id", A="F A"),
            rl("GC-FH", 1),
        ],
    ),
    script(
        "br2",
        "Int2GC",
        "F H A -> A",
        [
            lm("id", A="H A"),
            rl("GC-HF", 1),
        ],
    ),
    mirror("br3", "br1"),
    mirror("br4", "br2"),
    script(
        "rm_f",
        "Int2GC",
        "F A -> F B",
        [
            pr(1),
            lm("br1", A="B"),
            rl("hs", 1, 2),
            rl("GC-HF", 3),
        ],
        premises=["A -> B"],
    ),
    script(
        "rm_h",
        "Int2GC",
        "H A -> H B",
        [
            lm("br2", A="A"),
            pr(1),
            rl("hs", 1, 2),
            rl("GC-FH", 3),
        ],
        premises=["A -> B"],
    ),
    mirror("rm_p", "rm_f"),
    mirror("rm_g", "rm_h"),
    script(
        "rn_h",
        "Int2GC",
        "H A",
        [
            pr(1),
            rl("weaken", 1, B="F top"),
            rl("GC-FH", 2),
            ax("TOP"),
            rl("MP", 3, 4),
        ],
        premises=["A"],
    ),
    mirror("rn_g", "rn_h"),
    script(
        "f_bot",
        "Int2GC",
        "F bot -> bot",
        [
            ax("EFQ", A="H bot"),
            rl("GC-HF", 1),
        ],
    ),
    mirror("p_bot", "f_bot"),
    script(
        "not_f_bot",
        "Int2GC",
        "~ F bot",
        [
            lm("f_bot"),
            ax("NEG-I", A="F bot"),
            rl("MP", 2, 1),
        ],
    ),
    mirror("not_p_bot", "not_f_bot"),
    script(
        "g_k",
        "Int2GC",
        "G (A -> B) -> (G A -> G B)",
        [
            ax("AND-E1", A="G (A -> B)", B="G A"),
            rl("rm_p", 1),
            lm("br4", A="A -> B"),
            rl("hs", 2, 3),
            ax("AND-E2", A="G (A -> B)", B="G A"),
            rl("rm_p", 5),
            lm("br4", A="A"),
            rl("hs", 6, 7),
            rl("s2", 4, 8),
            rl("GC-PG", 9),
            rl("curry", 10),
        ],
    ),
    mirror("h_k", "g_k"),
    script(
        "g_dist_and",
        "Int2GC",
        "G (A & B) <-> (G A & G B)",
        [
            ax("AND-E1", A="A", B="B"),
            rl("rm_g", 1),
            ax("AND-E2", A="A", B="B"),
            rl("rm_g", 3),
            rl("and_both", 2, 4),
            ax("AND-E1", A="G A", B="G B"),
            rl("rm_p", 6),
            lm("br4", A="A"),
            rl("hs", 7, 8),
            ax("AND-E2", A="G A", B="G B"),
            rl("rm_p", 10),
            lm("br4", A="B"),
            rl("hs", 11, 12),
            rl("and_both", 9, 13),
            rl("GC-PG", 14),
            rl("iff_both", 5, 15),
        ],
    ),
    mirror("h_dist_and", "g_dist_and"),
    script(
        "f_dist_or",
        "Int2GC",
        "F (A | B) <-> (F A | F B)",
        [
            lm("br1", A="A"),
            ax("OR-I1", A="F A", B="F B"),
            rl("rm_h", 2),
            rl("hs", 1, 3),
            lm("br1", A="B"),
            ax("OR-I2", A="F A", B="F B"),
            rl("rm_h", 6),
            rl("hs", 5, 7),
            rl("or_both", 4, 8),
            rl("GC-HF", 9),
            ax("OR-I1", A="A", B="B"),
            rl("rm_f", 11),
            ax("OR-I2", A="A", B="B"),
            rl("rm_f", 13),
            rl("or_both", 12, 14),
            rl("iff_both", 10, 15),
        ],
    ),
    mirror("p_dist_or", "f_dist_or"),
    # ------------------------------------------- connecting-axiom layer
    script(
        "gf_dunn",
        "Int2GC+FS",
        "(G A & F B) -> F (A & B)",
        [
            ax("AND-I", A="A", B="B"),
            rl("perm", 1),
            rl("rm_f", 2),
            ax("FS1", A="A", B="A & B"),
            rl("hs", 3, 4),
            rl("perm", 5),
            rl("uncurry", 6),
        ],
    ),
    mirror("hp_dunn", "gf_dunn"),
    script(
        "g_imp_f",
        "Int2GC+FS",
        "G (A -> B) -> (F A -> F B)",
        [
            lm("br4", A="A -> B"),
            rl("uncurry", 1),
            rl("rm_f", 2),
            lm("gf_dunn", A="P G (A -> B)", B="A"),
            rl("hs", 4, 3),
            ax("AND-E1", A="G (A -> B)", B="F A"),
            lm("br3", A="G (A -> B)"),
            rl("hs", 6, 7),
            ax("AND-E2", A="G (A -> B)", B="F A"),
            rl("and_both", 8, 9),
            rl("hs", 10, 5),
            rl("curry", 11),
        ],
    ),
    mirror("h_imp_p", "g_imp_f"),
    script(
        "g_not_f",
        "Int2GC+FS",
        "G ~A -> ~F A",
        [
            lm("g_imp_f", A="A", B="bot"),
            lm("f_bot"),
            rl("hs2", 1, 2),
            ax("NEG-E", A="A"),
            rl("rm_g", 4),
            rl("hs", 5, 3),
            ax("NEG-I", A="F A"),
            rl("hs", 6, 7),
        ],
    ),
    mirror("h_not_p", "g_not_f"),
    script(
        "fs3_derived",
        "Int2GC+FS",
        "(F A -> G B) -> G (A -> B)",
        [
            lm("syl1", A="A", B="H F A", C="P G B"),
            lm("br1", A="A"),
            rl("MP", 1, 2),
            ax("FS2", A="F A", B="G B"),
            rl("hs", 4, 3),
            lm("br4", A="B"),
            rl("hs2", 5, 6),
            rl("GC-PG", 7),
        ],
    ),
    mirror("fs4_derived", "fs3_derived"),
    # -------------------------------- interderivability of the axioms
    script(
        "fs1_to_fs4",
        "Int2GC+FS1",
        "(P A -> H B) -> H (A -> B)",
        [
            lm("syl1", A="A", B="G P A", C="F H B"),
            lm("br3", A="A"),
            rl("MP", 1, 2),
            rl("perm", 3),
            rl("uncurry", 4),
            lm("br2", A="B"),
            rl("hs", 5, 6),
            rl("curry", 7),
            rl("perm", 8),
            ax("FS1", A="P A", B="H B"),
            rl("hs", 10, 9),
            rl("GC-FH", 11),
        ],
    ),
    script(
        "fs4_to_fs1",
        "Int2GC+FS4",
        "F (A -> B) -> (G A -> F B)",
        [
            lm("syl1", A="P G A", B="A", C="B"),
            lm("br4", A="A"),
            rl("MP", 1, 2),
            lm("br1", A="B"),
            rl("hs2", 3, 4),
            rl("rm_f", 5),
            ax("FS4", A="G A", B="F B"),
            rl("GC-HF", 7),
            rl("hs", 6, 8),
        ],
    ),
    mirror("fs2_to_fs3", "fs1_to_fs4"),
    mirror("fs3_to_fs2", "fs4_to_fs1"),
    # -------------------------- Galois rules inside the tensor system
    script(
        "br_gc_hf",
        "IKxIK+BR",
        "F A -> B",
        [
            pr(1),
            rl("RM-F", 1),
            ax("BR2", A="B"),
            rl("hs", 2, 3),
        ],
        premises=["A -> H B"],
    ),
    script(
        "br_gc_fh",
        "IKxIK+BR",
        "A -> H B",
        [
            pr(1),
            rl("RM-H", 1),
            ax("BR1", A="A"),
            rl("hs", 3, 2),
        ],
        premises=["F A -> B"],
    ),
    mirror("br_gc_gp", "br_gc_hf"),
    mirror("br_gc_pg", "br_gc_fh"),
    # ------------------------------ bi-modal axioms for both pairs
    script(
        "ik1_f",
        "Int2GC",
        "F (A | B) -> (F A | F B)",
        [
            lm("f_dist_or", A="A", B="B"),
            ax("IFF-E1", A="F (A | B)", B="F A | F B"),
            rl("MP", 2, 1),
        ],
    ),
    script(
        "ik2_g",
        "Int2GC",
        "(G A & G B) -> G (A & B)",
        [
            lm("g_dist_and", A="A", B="B"),
            ax("IFF-E2", A="G (A & B)", B="G A & G B"),
            rl("MP", 2, 1),
        ],
    ),
    script(
        "ik3_f",
        "Int2GC",
        "~ F bot",
        [
            lm("not_f_bot"),
        ],
    ),
    script(
        "ik4_fg",
        "Int2GC+FS",
        "F (A -> B) -> (G A -> F B)",
        [
            ax("FS1", A="A", B="B"),
        ],
    ),
    script(
        "ik5_fg",
        "Int2GC+FS",
        "(F A -> G B) -> G (A -> B)",
        [
            lm("fs3_derived", A="A", B="B"),
        ],
    ),
    mirror("ik1_p", "ik1_f"),
    mirror("ik2_h", "ik2_g"),
    mirror("ik3_p", "ik3_f"),
    mirror("ik4_ph", "ik4_fg"),
    mirror("ik5_ph", "ik5_fg"),
    # ------------------------ derived rules of the tense axiomatisation
    script(
        "ikt_rm_g",
        "IK_t",
        "G A -> G B",
        [
            pr(1),
            rl("RG", 1),
            ax("E2", A="A", B="B"),
            rl("MP", 3, 2),
        ],
        premises=["A -> B"],
    ),
    script(
        "ikt_rm_f",
        "IK_t",
        "F A -> F B",
        [
            pr(1),
            rl("RG", 1),
            ax("E5", A="A", B="B"),
            rl("MP", 3, 2),
        ],
        premises=["A -> B"],
    ),
    mirror("ikt_rm_h", "ikt_rm_g"),
    mirror("ikt_rm_p", "ikt_rm_f"),
    script(
        "ikt_gc_hf",
        "IK_t",
        "F A -> B",
        [
            pr(1),
            rl("ikt_rm_f", 1),
            ax("E8", A="B"),
            rl("hs", 2, 3),
        ],
        premises=["A -> H B"],
    ),
    script(
        "ikt_gc_fh",
        "IK_t",
        "A -> H B",
        [
            pr(1),
            rl("ikt_rm_h", 1),
            ax("E9", A="A"),
            rl("hs", 3, 2),
        ],
        premises=["F A -> B"],
    ),
    mirror("ikt_gc_gp", "ikt_gc_hf"),
    mirror("ikt_gc_pg", "ikt_gc_fh"),
    # --------------- every tense axiom as a connecting-system theorem
    script("ewald_2", "Int2GC", "G (A -> B) -> (G A -> G B)", [lm("g_k", A="A", B="B")]),
    mirror("ewald_2p", "ewald_2"),
    script(
        "ewald_3",
        "Int2GC",
        "G (A & B) <-> (G A & G B)",
        [lm("g_dist_and", A="A", B="B")],
    ),
    mirror("ewald_3p", "ewald_3"),
    script(
        "ewald_4",
        "Int2GC",
        "F (A | B) <-> (F A | F B)",
        [lm("f_dist_or", A="A", B="B")],
    ),
    mirror("ewald_4p", "ewald_4"),
    script(
        "ewald_5",
        "Int2GC+FS",
        "G (A -> B) -> (F A -> F B)",
        [lm("g_imp_f", A="A", B="B")],
    ),
    mirror("ewald_5p", "ewald_5"),
    script(
        "ewald_6",
        "Int2GC+FS",
        "(G A & F B) -> F (A & B)",
        [lm("gf_dunn", A="A", B="B")],
    ),
    mirror("ewald_6p", "ewald_6"),
    script("ewald_7", "Int2GC+FS", "G ~A -> ~F A", [lm("g_not_f", A="A")]),
    mirror("ewald_7p", "ewald_7"),
    script("ewald_8", "Int2GC", "F H A -> A", [lm("br2", A="A")]),
    mirror("ewald_8p", "ewald_8"),
    script("ewald_9", "Int2GC", "A -> H F A", [lm("br1", A="A")]),
    mirror("ewald_9p", "ewald_9"),
    script(
        "ewald_10",
        "Int2GC+FS",
        "(F A -> G B) -> G (A -> B)",
        [lm("fs3_derived", A="A", B="B")],
    ),
    mirror("ewald_10p", "ewald_10"),
    script(
        "ewald_11",
        "Int2GC+FS",
        "F (A -> B) -> (G A -> F B)",
        [ax("FS1", A="A", B="B")],
    ),
    mirror("ewald_11p", "ewald_11"),
    # ----------------------------------------------------------- demos
    script(
        "demo_identity",
        "Int",
        "p -> p",
        [
            ax("S", A="p", B="p -> p", C="p"),
            ax("K", A="p", B="p -> p"),
            rl("MP", 1, 2),
            ax("K", A="p", B="p"),
            rl("MP", 3, 4),
        ],
    ),
    script(
        "demo_br1",
        "Int2GC",
        "p -> H F p",
        [
            lm("id", A="F p"),
            rl("GC-FH", 1),
        ],
    ),
))


def fixture_suite() -> tuple[CheckedProof, ...]:
    """Check and register every fixture in dependency order."""
    env = ProofEnv()
    return tuple(env.register(s) for s in FIXTURES)


@lru_cache(maxsize=1)
def fixture_env() -> ProofEnv:
    """A populated registry shared by callers that only read from it."""
    env = ProofEnv()
    for s in FIXTURES:
        env.register(s)
    return env


def fixture_script(name: str) -> ProofScript:
    for s in FIXTURES:
        if s.name == name:
            return s
    raise KeyError(name)
