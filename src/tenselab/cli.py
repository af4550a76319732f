"""Command-line front end.

Exit codes: 0 success or valid, 1 counterexample or failed check, 2
input error, 3 deadline hit.  Every --json payload re-parses through
the loaders in formats, and none of them embeds timestamps, so output
is stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import duality, formats, frames, proofs, search
from .algebra import AlgebraWithOps, algebra_validity, evaluate, valuation_names
from .fixtures import fixture_suite
from .frames import check_ik_frame, frame_validity
from .fuzzy import build_fuzzy_algebra
from .lattice import OrderError
from .proofs import ProofCheckError
from .syntax import (
    SyntaxIssue,
    parse_formula,
    parse_schema,
    render_formula,
)

OK, FOUND, USAGE, TIMEOUT = 0, 1, 2, 3

_STATUS_EXIT = {"exhausted": OK, "found": FOUND, "timeout": TIMEOUT}


class UsageError(ValueError):
    pass


def _parse_bounds(text: Optional[str]) -> search.SearchBounds:
    """size=5,vars=3,pairs=N,seconds=300."""
    kwargs = {}
    keys = {
        "size": "max_algebra_size",
        "vars": "max_vars",
        "pairs": "max_gc_pairs",
        "seconds": "deadline_seconds",
    }
    for part in filter(None, (text or "").split(",")):
        if "=" not in part:
            raise UsageError(f"bad bounds entry {part!r} (want key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"unknown bounds key {key!r} (want {'/'.join(keys)})")
        try:
            parsed = float(value) if key == "seconds" else int(value)
        except ValueError:
            raise UsageError(f"bounds value for {key!r} must be a number") from None
        kwargs[keys[key]] = parsed
    try:
        return search.SearchBounds(**kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _emit(doc, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


def _law_lines(report: dict) -> list[str]:
    """Text form of formats.law_report_json."""
    out = []
    for law, doc in report.items():
        if doc["holds"]:
            out.append(f"  {law}: ok")
        else:
            w = doc["witness"]
            lhs, rhs = (
                json.dumps(v) if isinstance(v, bool) else v for v in (w["lhs"], w["rhs"])
            )
            out.append(f"  {law}: FAILS at ({', '.join(w['args'])}): {lhs} vs {rhs}")
    return out


def _assignments(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"bad assignment {pair!r} (want var=element)")
        var, _, value = pair.partition("=")
        out[var.strip()] = value.strip()
    return out


# ---------------------------------------------------------------- commands


def _cmd_parse(args) -> int:
    parse = parse_schema if args.schema else parse_formula
    f = parse(args.formula)
    text = render_formula(f)
    _emit({"text": text, "ast": formats.ast_json(f)}, args.json, [text])
    return OK


def _cmd_check_algebra(args) -> int:
    alg = formats.resolve_algebra(args.algebra)
    if not isinstance(alg, AlgebraWithOps):
        _emit(
            {"name": alg.name, "elements": len(alg.names), "heyting": True},
            args.json,
            [f"{alg.name or 'algebra'}: Heyting algebra with {len(alg.names)} elements"],
        )
        return OK
    ok = alg.laws.all_green
    doc = {
        "name": alg.base.name,
        "elements": len(alg.names),
        "all_core_laws": ok,
        "laws": formats.law_report_json(alg),
    }
    lines = [
        f"{alg.base.name or 'algebra'}: {len(alg.names)} elements, "
        f"core laws {'all hold' if ok else 'FAIL'}"
    ] + _law_lines(doc["laws"])
    _emit(doc, args.json, lines)
    return OK if ok else FOUND


def _cmd_check_frame(args) -> int:
    frame = formats.resolve_frame(args.frame)
    report = check_ik_frame(frame)
    doc = {
        "name": frame.name,
        "worlds": len(frame.names),
        "forward": {"holds": report.forward.holds, "witness": report.forward.witness},
        "backward": {"holds": report.backward.holds, "witness": report.backward.witness},
        "ik": report.is_ik,
    }
    lines = [
        f"{frame.name or 'frame'}: {len(frame.names)} worlds",
        f"  (R;<=) <= (<=;R): {'ok' if report.forward.holds else f'FAILS at {report.forward.witness}'}",
        f"  (>=;R) <= (R;>=): {'ok' if report.backward.holds else f'FAILS at {report.backward.witness}'}",
        f"  IK frame: {'yes' if report.is_ik else 'no'}",
    ]
    _emit(doc, args.json, lines)
    return OK if report.is_ik else FOUND


def _cmd_eval(args) -> int:
    if (args.algebra is None) == (args.model is None):
        raise UsageError("eval needs exactly one of --algebra or --model")
    if args.algebra is not None:
        alg = formats.resolve_algebra(args.algebra)
        valuation = _assignments(args.set)
        value = evaluate(alg, valuation, args.formula)
        base = alg.base if isinstance(alg, AlgebraWithOps) else alg
        name = base.names[value]
        _emit({"value": name}, args.json, [name])
        return OK
    model = formats.load_model(args.model)
    mask = frames.truth_set(model, args.formula)
    worlds = [model.frame.names[i] for i in range(model.frame.n) if mask >> i & 1]
    if args.world is not None:
        holds = args.world in worlds
        if args.world not in model.frame.names:
            raise UsageError(f"unknown world {args.world!r}")
        _emit(
            {"world": args.world, "satisfied": holds},
            args.json,
            [f"{args.world}: {'satisfied' if holds else 'not satisfied'}"],
        )
        return OK if holds else FOUND
    _emit({"worlds": worlds}, args.json, ["true at: " + (", ".join(worlds) or "(nowhere)")])
    return OK


def _cmd_validity(args) -> int:
    alg = formats.resolve_algebra(args.algebra)
    cex = algebra_validity(alg, args.formula, var_cap=args.vars)
    if cex is None:
        _emit({"valid": True, "countervaluation": None}, args.json, ["valid"])
        return OK
    named = valuation_names(alg, cex)
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    value = base.names[evaluate(alg, cex, args.formula)]
    doc = {"valid": False, "countervaluation": named, "value": value}
    pretty = ", ".join(f"{k}={v}" for k, v in named.items())
    _emit(doc, args.json, [f"countervaluation: {pretty or '(closed)'} gives {value}"])
    return FOUND


def _cmd_frame_validity(args) -> int:
    frame = formats.resolve_frame(args.frame)
    cex = frame_validity(frame, args.formula, var_cap=args.vars)
    if cex is None:
        _emit({"valid": True, "counterexample": None}, args.json, ["valid"])
        return OK
    doc = {
        "valid": False,
        "counterexample": {
            "valuation": {k: list(v) for k, v in cex.valuation.items()},
            "world": cex.world,
        },
    }
    pretty = "; ".join(f"{k}={{{','.join(v)}}}" for k, v in cex.valuation.items())
    _emit(doc, args.json, [f"fails at world {cex.world} under {pretty or '(closed)'}"])
    return FOUND


def _cmd_canonical(args) -> int:
    alg = formats.resolve_algebra(args.algebra)
    if not isinstance(alg, AlgebraWithOps):
        raise UsageError("canonical needs an algebra with operator tables")
    result = duality.canonical_frame(alg)
    doc = {
        "frame": formats.dump_frame(result.frame),
        "prime_filters": len(result.filters),
        "characterizations_agree": result.key_lemma_agrees,
    }
    lines = [
        f"canonical frame: {len(result.filters)} prime filters",
        f"  worlds: {', '.join(result.frame.names)}",
        f"  box/dia and bbox/bdia characterizations agree: {result.key_lemma_agrees}",
    ]
    _emit(doc, args.json, lines)
    return OK


def _cmd_complex(args) -> int:
    frame = formats.resolve_frame(args.frame)
    result = duality.complex_algebra(frame)
    alg = result.algebra
    doc = {
        "algebra": formats.dump_algebra(alg),
        "upsets": len(result.carrier),
        "all_core_laws": alg.laws.all_green,
    }
    lines = [
        f"complex algebra: {len(result.carrier)} up-sets, "
        f"core laws {'all hold' if alg.laws.all_green else 'FAIL'}"
    ]
    _emit(doc, args.json, lines)
    return OK


def _cmd_embed(args) -> int:
    alg = formats.resolve_algebra(args.algebra)
    if not isinstance(alg, AlgebraWithOps):
        raise UsageError("embed needs an algebra with operator tables")
    report = duality.embedding_check(alg)
    doc = {
        "prime_filters": report.filters,
        "injective": report.injective,
        "surjective": report.surjective,
        "operations": report.operations,
        "characterizations_agree": report.key_lemma_agrees,
        "embedding": report.is_embedding,
        "isomorphism": report.is_isomorphism,
        "vacuous": report.vacuous,
    }
    if report.vacuous:
        lines = ["one-element algebra: embedding holds vacuously"]
    else:
        broken = sorted(k for k, v in report.operations.items() if not v)
        lines = [
            f"map into the up-set algebra of {report.filters} prime filters:",
            f"  injective: {report.injective}   surjective: {report.surjective}",
            f"  operations preserved: {'all' if not broken else 'NOT ' + ', '.join(broken)}",
            f"  {'isomorphism' if report.is_isomorphism else 'embedding' if report.is_embedding else 'NOT an embedding'}",
        ]
    _emit(doc, args.json, lines)
    return OK if report.is_embedding else FOUND


def _cmd_fuzzy_build(args) -> int:
    inst = formats.load_fuzzy(args.instance)
    result = build_fuzzy_algebra(inst)
    alg = result.algebra
    doc = {
        "predicates": len(result.carrier),
        "all_core_laws": alg.laws.all_green,
        "laws": formats.law_report_json(alg),
    }
    if args.dump:
        doc["algebra"] = formats.dump_algebra(alg)
    lines = [
        f"{inst.name or 'instance'}: {len(result.carrier)} predicates over "
        f"{len(inst.universe)} points, core laws "
        f"{'all hold' if alg.laws.all_green else 'FAIL'}"
    ] + _law_lines(doc["laws"])
    _emit(doc, args.json, lines)
    return OK if alg.laws.all_green else FOUND


def _cmd_check_proof(args) -> int:
    script = formats.load_proof(args.script, default_name=Path(args.script).stem)
    env = proofs.ProofEnv()
    try:
        checked = proofs.check_proof(script, env)
    except ProofCheckError as e:
        _emit(
            {"ok": False, "step": e.step, "code": e.code, "message": e.message},
            args.json,
            [str(e)],
        )
        return FOUND
    doc = {
        "ok": True,
        "name": checked.name,
        "system": checked.system,
        "theorem": render_formula(checked.theorem),
        "steps": [render_formula(f) for f in checked.formulas],
    }
    lines = [f"{checked.name}: {render_formula(checked.theorem)} [{checked.system}]"] + [
        f"  {i}. {render_formula(f)}" for i, f in enumerate(checked.formulas, start=1)
    ]
    _emit(doc, args.json, lines)
    return OK


def _cmd_search(args) -> int:
    bounds = _parse_bounds(args.bounds)
    laws = args.laws.split(",") if args.laws else list(search.H2GC_FS_LAWS)
    verdict = search.find_algebra_countermodel(args.formula, bounds, laws)
    doc = formats.verdict_json(verdict)
    lines = [f"{verdict.status} after {verdict.scanned}"]
    if verdict.found:
        w = verdict.witness
        pretty = ", ".join(f"{k}={v}" for k, v in w.valuation.items())
        lines += [
            f"  algebra {w.algebra.base.name or 'unnamed'} "
            f"({len(w.algebra.names)} elements)",
            f"  countervaluation {pretty or '(closed)'} gives {w.value}",
        ]
    _emit(doc, args.json, lines)
    return _STATUS_EXIT[verdict.status]


def _cmd_equiv(args) -> int:
    bounds = _parse_bounds(args.bounds)
    verdict = search.test_law_equivalence(
        args.laws_a.split(","),
        args.laws_b.split(","),
        bounds,
        direction=args.direction,
    )
    doc = formats.verdict_json(verdict)
    lines = [f"{verdict.status} after {verdict.scanned}"]
    if verdict.found:
        w = verdict.witness
        lines += [
            f"  algebra {w.algebra.base.name or 'unnamed'} satisfies "
            f"{', '.join(w.satisfied)} but breaks {w.violated} ({w.direction})"
        ]
    _emit(doc, args.json, lines)
    return _STATUS_EXIT[verdict.status]


def _cmd_fixtures(args) -> int:
    checked = fixture_suite()
    if args.system is not None:
        if args.system not in proofs.SYSTEMS:
            raise UsageError(
                f"unknown system {args.system!r} (want one of {', '.join(sorted(proofs.SYSTEMS))})"
            )
        checked = tuple(c for c in checked if c.system == args.system)
    doc = {
        "count": len(checked),
        "proofs": [
            {
                "name": c.name,
                "system": c.system,
                "theorem": render_formula(c.theorem),
                "premises": [render_formula(p) for p in c.premises],
            }
            for c in checked
        ],
    }
    lines = []
    for c in checked:
        if c.premises:
            prem = " ; ".join(render_formula(p) for p in c.premises)
            lines.append(f"{c.name} [{c.system}] [{prem}] |- {render_formula(c.theorem)}")
        else:
            lines.append(f"{c.name} [{c.system}] {render_formula(c.theorem)}")
    lines.append(f"checked: {len(checked)}")
    _emit(doc, args.json, lines)
    return OK


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenselab",
        description="Workbench for intuitionistic tense logic over finite structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = cmd("parse", _cmd_parse, "parse a formula and print its normal rendering")
    p.add_argument("formula")
    p.add_argument("--schema", action="store_true", help="allow metavariables")

    p = cmd("check-algebra", _cmd_check_algebra, "validate an algebra file and grade its laws")
    p.add_argument("--algebra", required=True, help="stock name or .json path")

    p = cmd("check-frame", _cmd_check_frame, "check the two IK frame conditions")
    p.add_argument("--frame", required=True, help="stock name or .json path")

    p = cmd("eval", _cmd_eval, "evaluate a formula on an algebra or a model")
    p.add_argument("--formula", required=True)
    p.add_argument("--algebra")
    p.add_argument("--model", help="model .json path")
    p.add_argument("--set", action="append", default=[], metavar="VAR=ELEM")
    p.add_argument("--world", help="with --model: test one world")

    p = cmd("validity", _cmd_validity, "exhaustive valuation sweep on one algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--vars", type=int, default=4, help="variable cap")

    p = cmd("frame-validity", _cmd_frame_validity, "exhaustive persistent-valuation sweep")
    p.add_argument("--frame", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--vars", type=int, default=4)

    p = cmd("canonical", _cmd_canonical, "prime-filter frame of an algebra")
    p.add_argument("--algebra", required=True)

    p = cmd("complex", _cmd_complex, "up-set algebra of an IK frame")
    p.add_argument("--frame", required=True)

    p = cmd("embed", _cmd_embed, "grade the map into the double dual")
    p.add_argument("--algebra", required=True)

    p = cmd("fuzzy-build", _cmd_fuzzy_build, "lift a many-valued relation to an algebra")
    p.add_argument("--instance", required=True, help="fuzzy instance .json path")
    p.add_argument("--dump", action="store_true", help="include the full algebra in --json")

    p = cmd("check-proof", _cmd_check_proof, "check a proof script file")
    p.add_argument("--script", required=True, help="proof .json path")

    p = cmd("search", _cmd_search, "hunt a countermodel over enumerated algebras")
    p.add_argument("--formula", required=True)
    p.add_argument("--laws", help="comma list of required laws (default: all core)")
    p.add_argument("--bounds", help="size=5,vars=3,pairs=N,seconds=300")

    p = cmd("equiv", _cmd_equiv, "test whether two law sets coincide on small algebras")
    p.add_argument("--laws-a", required=True)
    p.add_argument("--laws-b", required=True)
    p.add_argument("--direction", choices=("forward", "backward", "either"), default="either")
    p.add_argument("--bounds")

    p = cmd("fixtures", _cmd_fixtures, "check the bundled derivations and list them")
    p.add_argument("--system", help="only list proofs in this system")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, formats.FormatError, SyntaxIssue, OrderError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except KeyError as e:
        print(f"error: unknown name {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
