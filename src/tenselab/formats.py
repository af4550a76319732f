"""JSON document formats shared by the command line and the corpus.

Loaders accept either a decoded JSON mapping or a path to a .json file.
Order generators ("leq") are completed to their reflexive transitive
closure silently, since the closure is canonical; valuations that break
persistence are rejected, never repaired, because a repair would change
what the document says.  Every dump_* output re-loads to an equal
structure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .algebra import (
    LAW_MODES,
    LAW_NAMES,
    STOCK_ALGEBRAS,
    AlgebraWithOps,
    attach_ops,
)
from .frames import STOCK_FRAMES, Frame, Model, make_frame
from .fuzzy import FuzzyInstance, make_fuzzy_instance
from .lattice import HeytingAlgebra, from_order
from .proofs import (
    AxiomStep,
    LemmaStep,
    PremiseStep,
    ProofScript,
    RuleStep,
)
from .search import ConservativityGap, CounterModel, Separation, Verdict
from .syntax import (
    BINARY_KINDS,
    UNARY_KINDS,
    Bot,
    Formula,
    MetaVar,
    Top,
    Var,
    parse_schema,
    render_formula,
)

__all__ = [
    "FormatError",
    "read_json",
    "load_algebra",
    "dump_algebra",
    "resolve_algebra",
    "load_frame",
    "dump_frame",
    "resolve_frame",
    "load_model",
    "dump_model",
    "load_fuzzy",
    "dump_fuzzy",
    "load_proof",
    "dump_proof",
    "ast_json",
    "law_report_json",
    "verdict_json",
]

Doc = Union[str, Path, Mapping[str, Any]]


class FormatError(ValueError):
    """Malformed input document."""


def read_json(path: Union[str, Path]) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON ({e})") from None


def _as_mapping(doc: Doc, what: str) -> Mapping[str, Any]:
    if isinstance(doc, (str, Path)):
        doc = read_json(doc)
    if not isinstance(doc, Mapping):
        raise FormatError(f"{what} document must be a JSON object")
    return doc


def _check_keys(doc: Mapping[str, Any], required: set, optional: set, what: str):
    keys = set(doc)
    missing = sorted(required - keys)
    if missing:
        raise FormatError(f"{what}: missing key(s) {', '.join(missing)}")
    unknown = sorted(keys - required - optional)
    if unknown:
        raise FormatError(f"{what}: unknown key(s) {', '.join(unknown)}")


def _name_list(doc: Mapping[str, Any], key: str, what: str) -> tuple[str, ...]:
    items = doc[key]
    if (
        not isinstance(items, Sequence)
        or isinstance(items, str)
        or not items
        or not all(isinstance(s, str) and s for s in items)
    ):
        raise FormatError(f"{what}: {key!r} must be a nonempty list of names")
    if len(set(items)) != len(items):
        raise FormatError(f"{what}: duplicate name in {key!r}")
    return tuple(items)


def _pair_list(
    doc: Mapping[str, Any], key: str, names: tuple[str, ...], what: str
) -> list[tuple[str, str]]:
    items = doc.get(key, [])
    if not isinstance(items, Sequence) or isinstance(items, str):
        raise FormatError(f"{what}: {key!r} must be a list of name pairs")
    out = []
    known = set(names)
    for item in items:
        if (
            not isinstance(item, Sequence)
            or isinstance(item, str)
            or len(item) != 2
            or not all(isinstance(s, str) for s in item)
        ):
            raise FormatError(f"{what}: each {key!r} entry must be a pair of names")
        a, b = item
        if a not in known or b not in known:
            raise FormatError(f"{what}: {key!r} mentions unknown name in {item!r}")
        out.append((a, b))
    return out


# ---------------------------------------------------------------- algebras


_OP_KEYS = ("dia", "box", "bdia", "bbox")


def load_algebra(doc: Doc) -> Union[HeytingAlgebra, AlgebraWithOps]:
    """{"name"?, "elements", "leq", "ops"?}; ops carry all four tables."""
    doc = _as_mapping(doc, "algebra")
    _check_keys(doc, {"elements"}, {"name", "leq", "ops"}, "algebra")
    names = _name_list(doc, "elements", "algebra")
    pairs = _pair_list(doc, "leq", names, "algebra")
    label = doc.get("name", "")
    if not isinstance(label, str):
        raise FormatError("algebra: 'name' must be a string")
    base = from_order(names, pairs, name=label)
    if "ops" not in doc:
        return base
    ops = doc["ops"]
    if not isinstance(ops, Mapping):
        raise FormatError("algebra: 'ops' must be an object")
    _check_keys(ops, set(_OP_KEYS), set(), "algebra ops")
    tables = {}
    for key in _OP_KEYS:
        table = ops[key]
        if not isinstance(table, Mapping):
            raise FormatError(f"algebra ops: {key!r} must map element to element")
        extra = sorted(set(table) - set(names))
        if extra:
            raise FormatError(f"algebra ops: {key!r} mentions unknown {extra[0]!r}")
        missing = [s for s in names if s not in table]
        if missing:
            raise FormatError(f"algebra ops: {key!r} lacks a value for {missing[0]!r}")
        col = []
        for s in names:
            v = table[s]
            if not isinstance(v, str) or v not in set(names):
                raise FormatError(f"algebra ops: {key!r}[{s!r}] is not an element")
            col.append(base.index(v))
        tables[key] = tuple(col)
    return attach_ops(base, **tables)


def dump_algebra(alg: Union[HeytingAlgebra, AlgebraWithOps]) -> dict:
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    names = base.names
    doc: dict[str, Any] = {
        "name": base.name,
        "elements": list(names),
        "leq": [
            [names[i], names[j]]
            for i in range(base.n)
            for j in range(base.n)
            if base.leq[i, j]
        ],
    }
    if isinstance(alg, AlgebraWithOps):
        doc["ops"] = {
            key: {names[i]: names[int(table[i])] for i in range(base.n)}
            for key, table in zip(_OP_KEYS, (alg.dia, alg.box, alg.bdia, alg.bbox))
        }
    return doc


def _resolve(spec: Doc, stock: Mapping, load: Callable, what: str, base_dir):
    """Build a stock structure by name, or load a file path or inline document."""
    if isinstance(spec, Mapping):
        return load(spec)
    if isinstance(spec, str) and spec in stock:
        return stock[spec]()
    path = Path(spec)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    if not path.exists():
        raise FormatError(
            f"{spec!r} is neither a stock {what} ({', '.join(sorted(stock))}) "
            "nor an existing file"
        )
    return load(path)


def resolve_algebra(spec: Doc, base_dir: Optional[Path] = None):
    """Accept a stock algebra name, a file path, or an inline document."""
    return _resolve(spec, STOCK_ALGEBRAS, load_algebra, "algebra", base_dir)


# ------------------------------------------------------------------ frames


def load_frame(doc: Doc) -> Frame:
    """{"name"?, "worlds", "leq", "R"}; leq closed, R taken exactly."""
    doc = _as_mapping(doc, "frame")
    _check_keys(doc, {"worlds"}, {"name", "leq", "R", "val"}, "frame")
    if "val" in doc:
        raise FormatError("frame: 'val' belongs to a model document")
    return _frame_of(doc)


def _frame_of(doc: Mapping[str, Any]) -> Frame:
    names = _name_list(doc, "worlds", "frame")
    leq_pairs = _pair_list(doc, "leq", names, "frame")
    r_pairs = _pair_list(doc, "R", names, "frame")
    label = doc.get("name", "")
    if not isinstance(label, str):
        raise FormatError("frame: 'name' must be a string")
    return make_frame(names, leq_pairs, r_pairs, name=label)


def dump_frame(frame: Frame) -> dict:
    names = frame.names
    return {
        "name": frame.name,
        "worlds": list(names),
        "leq": [
            [names[i], names[j]]
            for i in range(frame.n)
            for j in range(frame.n)
            if frame.leq[i, j]
        ],
        "R": [
            [names[i], names[j]]
            for i in range(frame.n)
            for j in range(frame.n)
            if frame.r[i, j]
        ],
    }


def resolve_frame(spec: Doc, base_dir: Optional[Path] = None) -> Frame:
    """Accept a stock frame name, a file path, or an inline document."""
    return _resolve(spec, STOCK_FRAMES, load_frame, "frame", base_dir)


def load_model(doc: Doc) -> Model:
    """Frame document plus "val": {variable: [worlds]}; up-closure is
    validated, never repaired."""
    doc = _as_mapping(doc, "model")
    _check_keys(doc, {"worlds", "val"}, {"name", "leq", "R"}, "model")
    frame = _frame_of({k: v for k, v in doc.items() if k != "val"})
    val = doc["val"]
    if not isinstance(val, Mapping):
        raise FormatError("model: 'val' must map variables to world lists")
    parsed: dict[str, list[str]] = {}
    for var, worlds in val.items():
        if not isinstance(var, str) or not var or not var[0].islower():
            raise FormatError(f"model: bad variable name {var!r}")
        if (
            not isinstance(worlds, Sequence)
            or isinstance(worlds, str)
            or not all(isinstance(w, str) for w in worlds)
        ):
            raise FormatError(f"model: val[{var!r}] must be a list of worlds")
        unknown = sorted(set(worlds) - set(frame.names))
        if unknown:
            raise FormatError(f"model: val[{var!r}] names unknown world {unknown[0]!r}")
        parsed[var] = list(worlds)
    return Model(frame, parsed)


def dump_model(model: Model) -> dict:
    doc = dump_frame(model.frame)
    doc["val"] = {
        var: [model.frame.names[i] for i in range(model.frame.n) if mask >> i & 1]
        for var, mask in sorted(model.val.items())
    }
    return doc


# ------------------------------------------------------------------- fuzzy


def load_fuzzy(doc: Doc, base_dir: Optional[Path] = None) -> FuzzyInstance:
    """{"algebra": stock name | path | inline, "universe", "relation"}.

    The relation is a total {"x,y": element} table over the universe.
    """
    if isinstance(doc, (str, Path)) and base_dir is None:
        base_dir = Path(doc).parent
    doc = _as_mapping(doc, "fuzzy instance")
    _check_keys(doc, {"algebra", "universe", "relation"}, {"name"}, "fuzzy instance")
    alg = resolve_algebra(doc["algebra"], base_dir=base_dir)
    base = alg.base if isinstance(alg, AlgebraWithOps) else alg
    universe = _name_list(doc, "universe", "fuzzy instance")
    rel_doc = doc["relation"]
    if not isinstance(rel_doc, Mapping):
        raise FormatError("fuzzy instance: 'relation' must be an object")
    relation: dict[tuple[str, str], str] = {}
    for key, value in rel_doc.items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2 or not all(p in universe for p in parts):
            raise FormatError(f"fuzzy instance: bad relation key {key!r}")
        if not isinstance(value, str) or value not in base.names:
            raise FormatError(f"fuzzy instance: relation[{key!r}] is not an element")
        pair = (parts[0], parts[1])
        if pair in relation:
            raise FormatError(f"fuzzy instance: duplicate relation key for {pair}")
        relation[pair] = value
    label = doc.get("name", "")
    if not isinstance(label, str):
        raise FormatError("fuzzy instance: 'name' must be a string")
    try:
        return make_fuzzy_instance(base, universe, relation, name=label)
    except ValueError as e:
        raise FormatError(f"fuzzy instance: {e}") from None


def dump_fuzzy(inst: FuzzyInstance) -> dict:
    names = inst.base.names
    return {
        "name": inst.name,
        "algebra": dump_algebra(inst.base),
        "universe": list(inst.universe),
        "relation": {
            f"{x},{y}": names[inst.r(i, j)]
            for i, x in enumerate(inst.universe)
            for j, y in enumerate(inst.universe)
        },
    }


# ------------------------------------------------------------------ proofs


def _load_subst(obj: Any, where: str) -> dict[str, Formula]:
    if obj is None:
        return {}
    if not isinstance(obj, Mapping):
        raise FormatError(f"{where}: 'subst' must map metavariables to formulas")
    out = {}
    for key, value in obj.items():
        if not isinstance(key, str) or not key or not key[0].isupper():
            raise FormatError(f"{where}: bad metavariable name {key!r}")
        if not isinstance(value, str):
            raise FormatError(f"{where}: subst[{key!r}] must be formula text")
        out[key] = parse_schema(value)
    return out


def load_proof(doc: Doc, default_name: str = "proof") -> ProofScript:
    """{"system", "theorem", "steps", "name"?, "premises"?}."""
    doc = _as_mapping(doc, "proof")
    _check_keys(doc, {"system", "theorem", "steps"}, {"name", "premises"}, "proof")
    name = doc.get("name", default_name)
    system = doc["system"]
    if not isinstance(name, str) or not isinstance(system, str):
        raise FormatError("proof: 'name' and 'system' must be strings")
    if not isinstance(doc["theorem"], str):
        raise FormatError("proof: 'theorem' must be formula text")
    theorem = parse_schema(doc["theorem"])
    premises_doc = doc.get("premises", [])
    if not isinstance(premises_doc, Sequence) or isinstance(premises_doc, str):
        raise FormatError("proof: 'premises' must be a list of formula texts")
    premises = []
    for text in premises_doc:
        if not isinstance(text, str):
            raise FormatError("proof: 'premises' must be a list of formula texts")
        premises.append(parse_schema(text))
    steps_doc = doc["steps"]
    if not isinstance(steps_doc, Sequence) or isinstance(steps_doc, str):
        raise FormatError("proof: 'steps' must be a list")
    steps = []
    for pos, item in enumerate(steps_doc, start=1):
        where = f"proof step {pos}"
        if not isinstance(item, Mapping):
            raise FormatError(f"{where}: must be an object")
        kinds = [k for k in ("axiom", "rule", "lemma", "premise") if k in item]
        if len(kinds) != 1:
            raise FormatError(
                f"{where}: needs exactly one of axiom / rule / lemma / premise"
            )
        kind = kinds[0]
        if kind == "axiom":
            _check_keys(item, {"axiom"}, {"subst"}, where)
            if not isinstance(item["axiom"], str):
                raise FormatError(f"{where}: 'axiom' must be a schema id")
            steps.append(AxiomStep(item["axiom"], _load_subst(item.get("subst"), where)))
        elif kind == "rule":
            _check_keys(item, {"rule", "from"}, {"subst"}, where)
            if not isinstance(item["rule"], str):
                raise FormatError(f"{where}: 'rule' must be a rule id")
            froms = item["from"]
            if (
                not isinstance(froms, Sequence)
                or isinstance(froms, str)
                or not all(isinstance(i, int) and not isinstance(i, bool) for i in froms)
            ):
                raise FormatError(f"{where}: 'from' must be a list of step numbers")
            steps.append(
                RuleStep(item["rule"], tuple(froms), _load_subst(item.get("subst"), where))
            )
        elif kind == "lemma":
            _check_keys(item, {"lemma"}, {"subst"}, where)
            if not isinstance(item["lemma"], str):
                raise FormatError(f"{where}: 'lemma' must be a name")
            steps.append(LemmaStep(item["lemma"], _load_subst(item.get("subst"), where)))
        else:
            _check_keys(item, {"premise"}, set(), where)
            if not isinstance(item["premise"], int) or isinstance(item["premise"], bool):
                raise FormatError(f"{where}: 'premise' must be a premise number")
            steps.append(PremiseStep(item["premise"]))
    return ProofScript(name, system, theorem, tuple(steps), tuple(premises))


def _dump_subst(subst: Mapping[str, Formula]) -> dict[str, str]:
    return {k: render_formula(v) for k, v in subst.items()}


def dump_proof(script: ProofScript) -> dict:
    steps: list[dict[str, Any]] = []
    for step in script.steps:
        if isinstance(step, AxiomStep):
            item: dict[str, Any] = {"axiom": step.axiom}
            if step.subst:
                item["subst"] = _dump_subst(step.subst)
        elif isinstance(step, RuleStep):
            item = {"rule": step.rule, "from": list(step.premises)}
            if step.subst:
                item["subst"] = _dump_subst(step.subst)
        elif isinstance(step, LemmaStep):
            item = {"lemma": step.lemma}
            if step.subst:
                item["subst"] = _dump_subst(step.subst)
        else:
            item = {"premise": step.index}
        steps.append(item)
    doc: dict[str, Any] = {
        "name": script.name,
        "system": script.system,
        "theorem": render_formula(script.theorem),
        "steps": steps,
    }
    if script.premises:
        doc["premises"] = [render_formula(p) for p in script.premises]
    return doc


# ----------------------------------------------------------------- reports


def ast_json(f: Formula) -> Any:
    node = type(f).__name__.lower()
    if isinstance(f, (Var, MetaVar)):
        return {"node": node, "name": f.name}
    if isinstance(f, (Top, Bot)):
        return {"node": node}
    if isinstance(f, UNARY_KINDS):
        return {"node": node, "child": ast_json(f.child)}
    if isinstance(f, BINARY_KINDS):
        return {"node": node, "left": ast_json(f.left), "right": ast_json(f.right)}
    raise TypeError(f"unexpected node {type(f).__name__}")


def law_report_json(alg: AlgebraWithOps) -> dict:
    names = alg.names
    out = {}
    for law in LAW_NAMES:
        check = alg.laws.verdicts[law]
        if check.holds:
            out[law] = {"holds": True}
        else:
            w = check.witness
            # the sides of an "iff" law are truth values, not elements
            side = bool if LAW_MODES[law] == "iff" else names.__getitem__
            out[law] = {
                "holds": False,
                "witness": {
                    "args": [names[i] for i in w.args],
                    "lhs": side(w.lhs),
                    "rhs": side(w.rhs),
                },
            }
    return out


def verdict_json(verdict: Verdict) -> dict:
    doc: dict[str, Any] = {
        "status": verdict.status,
        "scanned": dict(verdict.scanned),
        "witness": None,
    }
    w = verdict.witness
    if isinstance(w, CounterModel):
        doc["witness"] = {
            "kind": "countermodel",
            "algebra": dump_algebra(w.algebra),
            "valuation": dict(w.valuation),
            "value": w.value,
        }
    elif isinstance(w, Separation):
        doc["witness"] = {
            "kind": "separation",
            "algebra": dump_algebra(w.algebra),
            "satisfied": list(w.satisfied),
            "violated": w.violated,
            "direction": w.direction,
        }
    elif isinstance(w, ConservativityGap):
        doc["witness"] = {
            "kind": "conservativity_gap",
            "algebra": dump_algebra(w.base),
            "base_countervaluation": (
                None
                if w.base_countervaluation is None
                else dict(w.base_countervaluation)
            ),
            "expansion_countervaluation": (
                None
                if w.expansion_countervaluation is None
                else dict(w.expansion_countervaluation)
            ),
        }
    elif w is not None:
        raise TypeError(f"no JSON form for witness {type(w).__name__}")
    return doc
