"""Print one JSON document that fingerprints tenselab's observable results.

    PYTHONPATH=src python tools/fingerprint.py > fingerprint.json

Run it on two checkouts and compare the two files with `diff`: a change
that keeps every result keeps the document byte for byte.  It covers

- the names and leq tables of the bases up to size 7;
- the combo streams of enumerate_op_combos for (4), (5, 1), (5), (6, 4),
  (7, 3) and (6): their order, tables, verdict bits, verdicts and
  witnesses, as counts plus one digest per base;
- searches, equiv runs and conservativity checks: status, counts and
  witness;
- the IK frames of enumerate_frames(3), as a count and one digest per
  size over their names, world names, leq and R, in listing order;
- frame validity on those frames of the 43 formulas of the
  frames-size3 benchmark (the 39 IK_t and BR1-BR4 axiom instances and
  4 non-theorems), as a count and one digest per size over each frame
  name, rendered formula and counterexample;
- duality, as a count and one digest per size: the canonical frame and
  embedding report of every H2GC+FS combo up to size 5, and the complex
  algebra (names, leq, tables, carrier, law bits) of every frame in
  enumerate_frames(3);
- the proof corpus: a count and one digest over every fixture script in
  suite order, each as its dump_proof document (name, system, theorem,
  premises, and each step's kind, id, step numbers and substitution in
  the script's order);
- the CLI: exit code, stdout (JSON parsed where it is JSON) and stderr
  of a fixed list of commands, run in this process.

Wall-clock `seconds` are masked, so the document does not depend on the
machine.  The uncapped size-6 stream reads every witness of 173,157
combos; a run takes about half a minute on a 2-core machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from tenselab import cli, search
from tenselab.algebra import (
    EXTRA_LAWS,
    H2GC_FS_LAWS,
    H2GC_LAWS,
    LAW_NAMES,
    enumerate_op_combos,
    stock_algebras,
)
from tenselab.duality import DegenerateAlgebra, canonical_frame, complex_algebra, embedding_check
from tenselab.fixtures import FIXTURES
from tenselab.formats import dump_proof
from tenselab.frames import enumerate_frames, frame_validity, stock_frames
from tenselab.lattice import enumerate_heyting
from tenselab.proofs import AXIOM_SCHEMAS, SYSTEMS
from tenselab.syntax import Var, metavariables_of, parse_formula, render_formula, substitute

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

STREAMS = ((4, None), (5, 1), (5, None), (6, 4), (7, 3), (6, None))

FORMULAS = (
    "p -> H F p",
    "G (p | q) -> G p | F q",
    "F p <-> ~ G ~ p",
    "F p & G q -> F (p & q)",
    "p | ~p",
    "(p -> q) | (q -> p)",
    "G p -> p",
    "F (p | q) -> F p | F q",
    "P p -> ~ H ~ p",
    "G (p -> q) -> F p -> F q",
    "~ ~ G p -> G ~ ~ p",
    "H F p -> p",
)
SEARCH_BOUNDS = (
    search.SearchBounds(max_algebra_size=5),
    search.SearchBounds(max_algebra_size=6, max_gc_pairs=4),
)
LAW_SETS = (("H2GC+FS", H2GC_FS_LAWS), ("H2GC", H2GC_LAWS), ("none", ()))
EQUIV = (
    (("fs1",), ("d1",), "either"),
    (("fs2",), ("d2",), "either"),
    (("fs1",), ("fs4",), "either"),
    (("fs1",), ("fs2",), "either"),
    (H2GC_FS_LAWS, tuple(sorted(EXTRA_LAWS)), "forward"),
    (("d1",), ("dunn2_dia",), "backward"),
)
CONSERVATIVITY = ("p | ~p", "(p -> q) | (q -> p)", "~ ~ p -> p", "p -> p", "~ p | ~ ~ p")
NON_THEOREMS = ("G p -> p", "p | ~ p", "F p <-> ~ G ~ p", "G (p | q) -> G p | F q")


def _mask(doc):
    """doc with every "seconds" value replaced by a fixed string."""
    if isinstance(doc, dict):
        return {k: "masked" if k == "seconds" else _mask(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_mask(v) for v in doc]
    return doc


def _tables(alg) -> list:
    return [t.tolist() for t in (alg.dia, alg.box, alg.bdia, alg.bbox)]


def _law_record(alg) -> list:
    laws = alg.laws
    verdicts = []
    for law in LAW_NAMES:
        check = laws.verdicts[law]
        w = check.witness
        verdicts.append(None if check.holds else [list(w.args), w.lhs, w.rhs])
    return [laws.bits, laws.all_green, laws.h2gc_green, list(laws.failures()), verdicts]


def bases() -> list:
    return [[b.name, b.leq.astype(int).tolist()] for b in enumerate_heyting(7)]


def streams() -> dict:
    out = {}
    for n, cap in STREAMS:
        digests, combos, green = {}, 0, 0
        for alg in enumerate_op_combos(n, cap):
            line = json.dumps([_tables(alg), _law_record(alg)]).encode()
            digests.setdefault(alg.base.name, hashlib.sha256()).update(line + b"\n")
            combos += 1
            green += alg.laws.all_green
        out[f"{n},{cap}"] = {
            "combos": combos,
            "green": green,
            "bases": {name: h.hexdigest() for name, h in digests.items()},
        }
    return out


def _algebra_summary(alg) -> list:
    return [alg.base.name, _tables(alg)]


def _verdict(verdict, witness) -> dict:
    scanned = {k: v for k, v in verdict.scanned.items() if k != "seconds"}
    return {"status": verdict.status, "scanned": scanned, "witness": witness}


def searches() -> list:
    out = []
    for bounds in SEARCH_BOUNDS:
        for formula in FORMULAS:
            for label, laws in LAW_SETS:
                v = search.find_algebra_countermodel(formula, bounds, laws)
                w = v.witness
                witness = w and [_algebra_summary(w.algebra), dict(w.valuation), w.value]
                out.append([repr(bounds), formula, label, _verdict(v, witness)])
    return out


def equivs() -> list:
    out = []
    for bounds in SEARCH_BOUNDS:
        for a, b, direction in EQUIV:
            v = search.test_law_equivalence(a, b, bounds, direction=direction)
            w = v.witness
            witness = w and [
                _algebra_summary(w.algebra), list(w.satisfied), w.violated, w.direction
            ]
            out.append([repr(bounds), list(a), list(b), direction, _verdict(v, witness)])
    return out


def conservativity() -> list:
    out = []
    for formula in CONSERVATIVITY:
        v = search.conservativity_check(formula, SEARCH_BOUNDS[0])
        w = v.witness
        witness = w and [
            w.base.name, w.base_countervaluation and dict(w.base_countervaluation),
            w.expansion_countervaluation and dict(w.expansion_countervaluation),
        ]
        out.append([formula, _verdict(v, witness)])
    return out


def _digest_by_size(records) -> dict:
    """{size: {"count", "digest"}} over (size, JSON-able record) pairs."""
    out = {}
    for size, record in records:
        entry = out.setdefault(str(size), {"count": 0, "digest": hashlib.sha256()})
        entry["count"] += 1
        entry["digest"].update(json.dumps(record).encode() + b"\n")
    return {k: {"count": v["count"], "digest": v["digest"].hexdigest()} for k, v in out.items()}


def frames() -> dict:
    return _digest_by_size(
        (fr.n, [fr.name, fr.names, fr.leq.astype(int).tolist(), fr.r.astype(int).tolist()])
        for fr in enumerate_frames(3)
    )


def _sweep_formulas() -> list:
    """The 39 IK_t and BR1-BR4 axiom instances, metavariables sent to p,
    q, r, s in name order, then the 4 non-theorems."""
    tense = sorted(SYSTEMS["IK_t"].axioms - SYSTEMS["Int"].axioms)
    out = []
    for name in tense + ["BR1", "BR2", "BR3", "BR4"] + sorted(SYSTEMS["Int"].axioms):
        schema = AXIOM_SCHEMAS[name]
        out.append(substitute(schema, dict(zip(metavariables_of(schema), map(Var, "pqrs")))))
    return out + [parse_formula(text) for text in NON_THEOREMS]


def frame_validities() -> dict:
    formulas = _sweep_formulas()
    records = []
    for fr in enumerate_frames(3):
        for f in formulas:
            cex = frame_validity(fr, f)
            records.append((fr.n, [fr.name, render_formula(f), cex and [cex.valuation, cex.world]]))
    return _digest_by_size(records)


def _canonical_record(alg) -> list:
    try:
        cf = canonical_frame(alg)
    except DegenerateAlgebra:
        frame = "degenerate"
    else:
        fr = cf.frame
        frame = [
            fr.name, fr.names, fr.leq.astype(int).tolist(), fr.r.astype(int).tolist(),
            cf.filters, cf.key_lemma_agrees,
        ]
    return [frame, dataclasses.asdict(embedding_check(alg))]


def _complex_record(frame) -> list:
    ca = complex_algebra(frame)
    alg = ca.algebra
    return [
        alg.base.name, alg.names, alg.base.leq.astype(int).tolist(), _tables(alg),
        ca.carrier, alg.laws.bits,
    ]


def duality() -> dict:
    green = (alg for alg in enumerate_op_combos(5) if alg.laws.all_green)
    return {
        "canonical": _digest_by_size((alg.n, _canonical_record(alg)) for alg in green),
        "complex": _digest_by_size((fr.n, _complex_record(fr)) for fr in enumerate_frames(3)),
    }


def proofs() -> dict:
    digest = hashlib.sha256()
    for script in FIXTURES:
        digest.update(json.dumps(dump_proof(script)).encode() + b"\n")
    return {"count": len(FIXTURES), "digest": digest.hexdigest()}


def _commands() -> list[list[str]]:
    algebras = list(stock_algebras()) + sorted(
        str(p.relative_to(ROOT)) for p in (CORPUS / "algebras").glob("*.json")
    )
    frames = list(stock_frames()) + sorted(
        str(p.relative_to(ROOT)) for p in (CORPUS / "frames").glob("*.json")
    )
    cmds = [["parse", "F p -> ~q"], ["parse", "--json", "F A & p", "--schema"]]
    for alg in algebras:
        cmds += [["check-algebra", "--algebra", alg]]
        cmds += [["check-algebra", "--json", "--algebra", alg]]
        cmds += [["validity", "--json", "--algebra", alg, "--formula", "F p & G q -> F (p & q)"]]
        cmds += [[cmd, "--json", "--algebra", alg] for cmd in ("canonical", "embed")]
    for frame in frames:
        cmds += [[cmd, "--json", "--frame", frame] for cmd in ("check-frame", "complex")]
        cmds += [["frame-validity", "--json", "--frame", frame, "--formula", "G p -> p"]]
    cmds += [
        ["eval", "--algebra", "chain3", "--formula", "p -> q", "--set", "p=1", "--set", "q=m"],
        ["eval", "--algebra", "chain3", "--formula", "p", "--set", "p=zz"],
        ["eval", "--json", "--model", "corpus/frames/two_chain_model.json", "--formula", "p | q"],
        ["search", "--formula", "G (p | q) -> G p | F q", "--bounds", "size=5"],
        ["search", "--json", "--formula", "G (p | q) -> G p | F q", "--bounds", "size=5"],
        ["search", "--json", "--formula", "p -> H F p", "--bounds", "size=6,pairs=4"],
        ["search", "--json", "--formula", "p | ~p", "--laws", "gc_dia_bbox", "--bounds", "size=4"],
        ["search", "--json", "--formula", "p", "--bounds", "size=9"],
        ["equiv", "--json", "--laws-a", "fs1", "--laws-b", "d1", "--bounds", "size=5"],
        ["equiv", "--json", "--laws-a", "fs1", "--laws-b", "fs2"],
        ["equiv", "--json", "--laws-a", "nope", "--laws-b", "fs2"],
        ["equiv", "--laws-a", "fs1", "--laws-b", "d1", "--bounds", "size=9,size=2"],
        ["parse", "~" * 101 + "p"],
        ["fuzzy-build", "--json", "--dump", "--instance", "corpus/fuzzy/dunn2_two_point.json"],
        ["fixtures", "--json"],
    ]
    cmds += [
        ["check-proof", "--json", "--script", str(p.relative_to(ROOT))]
        for p in sorted((CORPUS / "proofs").glob("*.json"))
    ]
    return cmds


def commands() -> list:
    out = []
    for argv in _commands():
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        text = stdout.getvalue()
        try:
            shown = _mask(json.loads(text))
        except ValueError:
            shown = re.sub(r"'seconds': [0-9.e+-]+", "'seconds': masked", text)
        out.append([argv, code, shown, stderr.getvalue()])
    return out


def main() -> int:
    os.chdir(ROOT)  # the commands name corpus files relative to the checkout
    doc = {
        "bases": bases(),
        "streams": streams(),
        "searches": searches(),
        "equiv": equivs(),
        "conservativity": conservativity(),
        "frames": frames(),
        "frame_validity": frame_validities(),
        "duality": duality(),
        "proofs": proofs(),
        "cli": commands(),
    }
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
