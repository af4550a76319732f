"""Workbench for intuitionistic tense logic over finite structures.

Two families of modal operators, each a Galois connection over a finite
Heyting algebra, linked by the bridge laws that make the relational and
algebraic pictures match: law grading, Kripke-style frames, prime
filter duality, many-valued liftings, a Hilbert proof checker with a
corpus of machine-checked derivations, and exhaustive countermodel
search.  The submodules stay importable on their own; this namespace
re-exports the everyday entry points.
"""

from .algebra import (
    CORE_LAWS,
    EXTRA_LAWS,
    LAW_NAMES,
    AlgebraWithOps,
    algebra_validity,
    attach_ops,
    enumerate_gc_pairs,
    enumerate_op_combos,
    evaluate,
    identity_expansion,
    stock_algebras,
)
from .duality import canonical_frame, complex_algebra, embedding_check, prime_filters
from .fixtures import fixture_script, fixture_suite
from .formats import (
    dump_algebra,
    dump_frame,
    dump_model,
    dump_proof,
    load_algebra,
    load_frame,
    load_fuzzy,
    load_model,
    load_proof,
)
from .frames import (
    Frame,
    Model,
    check_ik_frame,
    enumerate_frames,
    frame_validity,
    make_frame,
    satisfies,
    stock_frames,
)
from .fuzzy import build_fuzzy_algebra, dunn2_failure_instance, make_fuzzy_instance
from .lattice import HeytingAlgebra, chain, diamond, enumerate_heyting, from_order
from .proofs import SYSTEMS, ProofEnv, ProofScript, check_proof
from .search import SearchBounds, conservativity_check, find_algebra_countermodel
from .syntax import parse_formula, parse_schema, render_formula

__version__ = "0.1.0"

__all__ = [
    "AlgebraWithOps",
    "CORE_LAWS",
    "EXTRA_LAWS",
    "Frame",
    "HeytingAlgebra",
    "LAW_NAMES",
    "Model",
    "ProofEnv",
    "ProofScript",
    "SYSTEMS",
    "SearchBounds",
    "algebra_validity",
    "attach_ops",
    "build_fuzzy_algebra",
    "canonical_frame",
    "chain",
    "check_ik_frame",
    "check_proof",
    "complex_algebra",
    "conservativity_check",
    "diamond",
    "dump_algebra",
    "dump_frame",
    "dump_model",
    "dump_proof",
    "dunn2_failure_instance",
    "embedding_check",
    "enumerate_frames",
    "enumerate_gc_pairs",
    "enumerate_heyting",
    "enumerate_op_combos",
    "evaluate",
    "find_algebra_countermodel",
    "fixture_script",
    "fixture_suite",
    "frame_validity",
    "from_order",
    "identity_expansion",
    "load_algebra",
    "load_frame",
    "load_fuzzy",
    "load_model",
    "load_proof",
    "make_frame",
    "make_fuzzy_instance",
    "parse_formula",
    "parse_schema",
    "prime_filters",
    "render_formula",
    "satisfies",
    "stock_algebras",
    "stock_frames",
]
