"""The four workloads: seeded inputs, one timed operation, and its check.

Each workload is a class.  ``setup(seed)`` imports tenselab and builds
the inputs (this is what ``setup_s`` times), ``expect()`` computes what
the oracles predict, ``items()`` lists one pass of operations, ``run``
is one timed operation and ``check`` raises CheckFailed when its output
is wrong.  tenselab is imported inside ``setup`` so that the import is
part of the set-up time.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import selectors
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Any, Callable, Optional

import oracles

ROOT = Path(__file__).resolve().parent.parent
LETTERS = ("p", "q", "r", "s", "t", "u", "v", "w")

_KIND_OF_CLASS = {
    "Var": "var", "Top": "top", "Bot": "bot", "Not": "not",
    "Dia": "F", "Box": "G", "BDia": "P", "BBox": "H",
    "And": "and", "Or": "or", "Imp": "imp", "Iff": "iff",
}

# Non-theorems of LK_t with countermodels on some IK frames.
NON_THEOREMS = (
    ("imp", ("G", ("var", "A")), ("var", "A")),
    ("or", ("var", "A"), ("not", ("var", "A"))),
    ("iff", ("F", ("var", "A")), ("not", ("G", ("not", ("var", "A"))))),
    (
        "imp",
        ("G", ("or", ("var", "A"), ("var", "B"))),
        ("or", ("G", ("var", "A")), ("F", ("var", "B"))),
    ),
)


class CheckFailed(Exception):
    """An output of tenselab disagrees with an oracle or a property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def child_env() -> dict:
    """This process's environment with the checkout's ``src`` first on PYTHONPATH."""
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# ---------------------------------------------------------------- formulas


def tree_of(formula) -> tuple:
    """A tenselab Formula (or schema) as an oracle tuple; MetaVar -> var."""
    cls = type(formula).__name__
    if cls in ("Var", "MetaVar"):
        return ("var", formula.name)
    kind = _KIND_OF_CLASS[cls]
    if kind in ("top", "bot"):
        return (kind,)
    if kind in oracles.UNARY:
        return (kind, tree_of(formula.child))
    return (kind, tree_of(formula.left), tree_of(formula.right))


def rename(tree: tuple, names: dict[str, str]) -> tuple:
    if tree[0] == "var":
        return ("var", names.get(tree[1], tree[1]))
    return (tree[0],) + tuple(
        rename(c, names) if isinstance(c, tuple) else c for c in tree[1:]
    )


def renamed(tree: tuple, rng: random.Random) -> tuple:
    """Send the variables of a tree to distinct seeded letters."""
    old = oracles.variables(tree)
    return rename(tree, dict(zip(old, rng.sample(LETTERS, len(old)))))


def random_tree(rng: random.Random, letters, depth: int) -> tuple:
    """A seeded formula of at most ``depth`` levels; the top two levels of
    a tree of depth 3 or more are always connectives."""
    if depth == 0 or (depth < 3 and rng.random() < 0.25):
        leaf = rng.random()
        if leaf < 0.08:
            return ("top",)
        if leaf < 0.16:
            return ("bot",)
        return ("var", rng.choice(letters))
    if rng.random() < 0.45:
        return (rng.choice(oracles.UNARY), random_tree(rng, letters, depth - 1))
    return (
        rng.choice(oracles.BINARY),
        random_tree(rng, letters, depth - 1),
        random_tree(rng, letters, depth - 1),
    )


def axiom_instances(proofs, rng: random.Random) -> list[tuple[str, tuple]]:
    """The 39 instances of IK_t plus BR1-BR4, metavariables sent to
    distinct seeded letters, in seeded order."""
    ikt = proofs.SYSTEMS["IK_t"].axioms
    prop = proofs.SYSTEMS["Int"].axioms
    names = sorted(ikt - prop) + ["BR1", "BR2", "BR3", "BR4"] + sorted(prop)
    out = [(name, renamed(tree_of(proofs.AXIOM_SCHEMAS[name]), rng)) for name in names]
    rng.shuffle(out)
    return out


def parsed(syntax, trees: list[tuple]) -> list:
    """Formulas for tenselab: each tree rendered, then parsed by tenselab."""
    return [syntax.parse_formula(oracles.render(t)) for t in trees]


def require_round_trip(formulas: list, trees: list[tuple]) -> None:
    for f, t in zip(formulas, trees):
        require(tree_of(f) == t, f"parse of {oracles.render(t)!r} gave another tree")


def lattice_of_base(base, cache: dict) -> oracles.Lattice:
    key = (base.name, base.leq.tobytes())
    if key not in cache:
        cache[key] = oracles.lattice_of(base.leq.tolist())
    return cache[key]


def ops_of(alg) -> oracles.Ops:
    return oracles.Ops(
        tuple(map(int, alg.dia)),
        tuple(map(int, alg.box)),
        tuple(map(int, alg.bdia)),
        tuple(map(int, alg.bbox)),
    )


def require_laws_agree(report, lat: oracles.Lattice, ops: oracles.Ops, label: str) -> None:
    expected = oracles.check_laws(lat, ops)
    for law in oracles.LAWS:
        require(
            report.holds(law) == (expected[law] is None),
            f"{label}: law {law} graded {report.holds(law)}, scalar checker disagrees",
        )
    require(
        report.all_green == all(expected[law] is None for law in oracles.CORE_LAWS),
        f"{label}: all_green disagrees with the scalar checker",
    )


# ------------------------------------------------------------ claims-size5


@dataclass
class ClaimsResult:
    facts: list  # per combo: (base name, fs1, d1, fs4, fs2, d2, fs3)
    bases: dict  # base name -> base algebra
    sampled: list  # (combo, all_green) for the seeded sample
    green: list  # the H2GC+FS combos
    validity: list  # per green combo, one result per axiom instance
    embeddings: list  # per green combo, its embedding report


class ClaimsSweep:
    """One operation re-verifies scoreboard criteria 03-05 up to ``size``."""

    name = "claims-size5"

    def __init__(self, size: int = 5, sample_rate: float = 0.03):
        self.size, self.sample_rate = size, sample_rate
        self._lattices: dict = {}

    def setup(self, seed: int) -> None:
        from tenselab import algebra, duality, proofs, syntax

        self.algebra, self.duality = algebra, duality
        rng = random.Random(seed)
        self.instances = axiom_instances(proofs, rng)
        self.formulas = parsed(syntax, [t for _, t in self.instances])
        self.sample_seed = rng.getrandbits(64)

    def expect(self) -> None:
        require_round_trip(self.formulas, [t for _, t in self.instances])

    def items(self) -> list:
        return [None]

    def run(self, _item) -> ClaimsResult:
        facts, sampled, green, bases = [], [], [], {}
        pick = random.Random(self.sample_seed)  # the same sample on every pass
        for alg in self.algebra.enumerate_op_combos(self.size):
            v = alg.laws.verdicts
            facts.append(
                (
                    alg.base.name,
                    v["fs1"].holds, v["d1"].holds, v["fs4"].holds,
                    v["fs2"].holds, v["d2"].holds, v["fs3"].holds,
                )
            )
            bases.setdefault(alg.base.name, alg.base)
            ok = alg.laws.all_green
            if pick.random() < self.sample_rate:
                sampled.append((alg, ok))
            if ok:
                green.append(alg)
        validity = [
            [self.algebra.algebra_validity(alg, f) for f in self.formulas] for alg in green
        ]
        embeddings = [self.duality.embedding_check(alg) for alg in green]
        return ClaimsResult(facts, bases, sampled, green, validity, embeddings)

    def check(self, _item, r: ClaimsResult) -> None:
        sizes = Counter(base.n for base in r.bases.values())
        want = {n: oracles.A006982[n] for n in range(1, self.size + 1)}
        require(dict(sizes) == want, f"bases per size {dict(sizes)}, A006982 gives {want}")
        per_base = Counter(fact[0] for fact in r.facts)
        for name, base in r.bases.items():
            pairs = oracles.galois_pair_count(lattice_of_base(base, self._lattices))
            require(
                per_base[name] == pairs**2,
                f"{name}: {per_base[name]} combos, Birkhoff gives {pairs}^2",
            )
        for name, fs1, d1, fs4, fs2, d2, fs3 in r.facts:
            require(fs1 == d1 == fs4, f"{name}: fs1/d1/fs4 verdicts differ")
            require(fs2 == d2 == fs3, f"{name}: fs2/d2/fs3 verdicts differ")
        for alg, ok in r.sampled:
            lat = lattice_of_base(alg.base, self._lattices)
            require_laws_agree(alg.laws, lat, ops_of(alg), alg.base.name)
            require(ok == alg.laws.all_green, f"{alg.base.name}: recorded verdict differs")
        for alg, results in zip(r.green, r.validity):
            for (axiom, _), cex in zip(self.instances, results):
                require(cex is None, f"{axiom} fails on {alg.base.name} at {cex}")
        require(len(r.validity) == len(r.green), "validity results missing")
        require(len(r.embeddings) == len(r.green), "embedding reports missing")
        vacuous = [alg.n for alg, rep in zip(r.green, r.embeddings) if rep.vacuous]
        require(vacuous == [1], f"vacuous reports on algebras of sizes {vacuous}, want [1]")
        for alg, rep in zip(r.green, r.embeddings):
            require(
                rep.vacuous or rep.is_isomorphism,
                f"{alg.base.name}: the double-dual map is not an isomorphism",
            )


# ------------------------------------------------------------- pairs-size6


class PairsSearch:
    """One operation is one exhaustive search with max_gc_pairs capped."""

    name = "pairs-size6"

    def __init__(self, size: int = 6, cap: int = 4, per_pass: int = 4):
        self.size, self.cap, self.per_pass = size, cap, per_pass

    def setup(self, seed: int) -> None:
        from tenselab import lattice, proofs, search, syntax

        self.lattice, self.search = lattice, search
        rng = random.Random(seed)
        self.theorems = rng.sample(axiom_instances(proofs, rng), self.per_pass)
        self.formulas = parsed(syntax, [t for _, t in self.theorems])
        self.bounds = search.SearchBounds(
            max_algebra_size=self.size, max_gc_pairs=self.cap, max_vars=3
        )
        # the first search in a process pays for the lattice classes
        list(lattice.enumerate_heyting(self.size))

    def expect(self) -> None:
        require_round_trip(self.formulas, [t for _, t in self.theorems])
        lattices = oracles.down_set_lattices(self.size)
        self.combos = sum(
            min(self.cap, oracles.galois_pair_count(lat)) ** 2 for lat in lattices
        )
        bases = list(self.lattice.enumerate_heyting(self.size))
        sizes = Counter(base.n for base in bases)
        want = {n: oracles.A006982[n] for n in range(1, self.size + 1)}
        require(dict(sizes) == want, f"bases per size {dict(sizes)}, A006982 gives {want}")
        self.eligible = 0
        for base in bases:
            lat = oracles.lattice_of(base.leq.tolist())
            pairs = oracles.galois_pairs(lat)[: self.cap]
            for (f1, g1), (f2, g2) in itertools.product(pairs, repeat=2):
                self.eligible += oracles.is_h2gc_fs(lat, oracles.Ops(f1, g2, f2, g1))

    def items(self) -> list:
        return list(range(self.per_pass))

    def run(self, i: int):
        verdict = self.search.find_algebra_countermodel(self.formulas[i], self.bounds)
        return verdict.status, dict(verdict.scanned)

    def check(self, i: int, result) -> None:
        status, scanned = result
        axiom = self.theorems[i][0]
        require(status == "exhausted", f"{axiom}: verdict {status}, want exhausted")
        require(
            scanned.get("combos") == self.combos,
            f"{axiom}: {scanned.get('combos')} combos, Birkhoff gives {self.combos}",
        )
        require(
            scanned.get("eligible") == self.eligible,
            f"{axiom}: {scanned.get('eligible')} eligible, scalar checker finds {self.eligible}",
        )


# ------------------------------------------------------------ frames-size3


class FrameSweep:
    """One operation checks a group of 15 IK frames against 43 formulas.

    Single frames make a poor operation: their cost follows the number
    of up-sets, and the median of all 855 falls between the frames with
    4 up-sets (about 8 ms) and those with 5 (about 12 ms), so it jumps
    between the two when the machine's speed shifts a little.  Groups
    drawn by the seed mix the sizes and cost about the same.
    """

    name = "frames-size3"
    GROUP = 15

    def __init__(self, size: int = 3):
        self.size = size

    def setup(self, seed: int) -> None:
        from tenselab import frames, proofs, syntax

        self.frames_mod = frames
        rng = random.Random(seed)
        self.frames = list(frames.enumerate_frames(self.size))
        self.instances = axiom_instances(proofs, rng)
        self.non_theorems = [renamed(t, rng) for t in NON_THEOREMS]
        self.formulas = parsed(syntax, [t for _, t in self.instances] + self.non_theorems)
        order = list(range(len(self.frames)))
        rng.shuffle(order)
        self.groups = [tuple(order[k : k + self.GROUP]) for k in range(0, len(order), self.GROUP)]

    def expect(self) -> None:
        trees = [t for _, t in self.instances] + self.non_theorems
        require_round_trip(self.formulas, trees)
        codes = set()
        self.kripke = []
        for fr in self.frames:
            leq, r = fr.leq.tolist(), fr.r.tolist()
            require(oracles.is_ik(leq, r), f"{fr.name} breaks an IK condition")
            codes.add((fr.n,) + oracles.frame_code(oracles.row_masks(leq), oracles.row_masks(r)))
            self.kripke.append(oracles.Kripke(leq, r))
        require(len(codes) == len(self.frames), "two enumerated frames are isomorphic")
        want = oracles.ik_frame_codes(self.size)
        require(codes == want, f"{len(codes)} frames, brute force finds {len(want)}")
        self.expected = [
            [model.first_counterexample(t) for t in self.non_theorems]
            for model in self.kripke
        ]

    def items(self) -> list:
        return self.groups

    def run(self, group: tuple) -> list:
        validity = self.frames_mod.frame_validity
        return [[validity(self.frames[i], f) for f in self.formulas] for i in group]

    def check(self, group: tuple, results: list) -> None:
        require(len(results) == len(group), "results missing")
        for i, frame_results in zip(group, results):
            self._check_frame(i, frame_results)

    def _check_frame(self, i: int, results: list) -> None:
        frame, model = self.frames[i], self.kripke[i]
        require(len(results) == len(self.formulas), "results missing")
        k = len(self.instances)
        for (axiom, _), cex in zip(self.instances, results):
            require(cex is None, f"{axiom} fails on {frame.name}: {cex}")
        for tree, cex, want in zip(self.non_theorems, results[k:], self.expected[i]):
            label = f"{oracles.render(tree)} on {frame.name}"
            if cex is None:
                require(want is None, f"{label}: reported valid, Kripke finds {want}")
                continue
            index = {name: x for x, name in enumerate(frame.names)}
            require(set(cex.valuation) == set(oracles.variables(tree)), f"{label}: variables")
            val = {v: sum(1 << index[w] for w in ws) for v, ws in cex.valuation.items()}
            for v, mask in val.items():
                require(
                    all(model.up[x] & ~mask == 0 for x in range(model.n) if mask >> x & 1),
                    f"{label}: valuation of {v} is not up-closed",
                )
            world = index[cex.world]
            require(
                not model.truth(val, tree) >> world & 1,
                f"{label}: holds at {cex.world} under the reported valuation",
            )
            require(want == (val, world), f"{label}: not the first counterexample {want}")


# ------------------------------------------------------------- cli-oneshot

OK, FOUND = 0, 1  # exit codes from the README

ALGEBRAS_WITH_OPS = (
    "chain3_identity",
    "dunn_separating",
    "corpus/algebras/d1_independence.json",
    "corpus/algebras/dunn2_chain3.json",
    "corpus/algebras/two_element_identity.json",
)
DUAL_ALGEBRAS = (  # H2GC+FS with more than one element
    "chain3_identity",
    "corpus/algebras/dunn2_chain3.json",
    "corpus/algebras/two_element_identity.json",
)
FRAMES = (
    "one_point",
    "two_forward",
    "two_chain_r_leq",
    "corpus/frames/one_point.json",
    "corpus/frames/two_forward.json",
)
IK_FRAMES = ("one_point", "corpus/frames/one_point.json")
PROOFS = ("corpus/proofs/br1_gc.json", "corpus/proofs/identity_mp.json")
FUZZY = "corpus/fuzzy/dunn2_two_point.json"
EQUIVALENT = (("fs1", "d1"), ("fs1", "fs4"), ("d1", "fs4"), ("fs2", "d2"), ("fs2", "fs3"), ("d2", "fs3"))
EARLY_FIND = NON_THEOREMS[3]  # G (p | q) -> G p | F q, found at size 3


@dataclass
class Command:
    """One command line of the rotation and what its output must satisfy."""

    argv: list[str]
    exit_code: int
    check: Callable[[str], None]  # raises CheckFailed on wrong stdout
    exact: Optional[str] = None  # the whole stdout, where only exact text will do


@dataclass
class AlgebraData:
    names: list[str]
    lattice: oracles.Lattice
    ops: Optional[oracles.Ops]


def _read_json(path: str) -> dict:
    with open(ROOT / path) as fh:
        return json.load(fh)


def algebra_from_doc(doc: dict) -> AlgebraData:
    """An algebra document ({"elements", "leq", "ops"?}) read directly."""
    names = list(doc["elements"])
    ix = {s: i for i, s in enumerate(names)}
    lat = oracles.lattice_of(
        oracles.closure(len(names), [(ix[a], ix[b]) for a, b in doc.get("leq", [])])
    )
    ops = None
    if "ops" in doc:
        t = {k: tuple(ix[doc["ops"][k][s]] for s in names) for k in ("dia", "box", "bdia", "bbox")}
        ops = oracles.Ops(t["dia"], t["box"], t["bdia"], t["bbox"])
    return AlgebraData(names, lat, ops)


def frame_from_doc(doc: dict):
    names = list(doc["worlds"])
    ix = {s: i for i, s in enumerate(names)}
    n = len(names)
    leq = oracles.closure(n, [(ix[a], ix[b]) for a, b in doc.get("leq", [])])
    r = [[False] * n for _ in range(n)]
    for a, b in doc.get("R", []):
        r[ix[a]][ix[b]] = True
    return names, leq, r


class CliOneshot:
    """One operation is one fresh ``python -m tenselab`` process.

    A pass is one rotation through the README quick-tour subcommands.
    With ``in_process`` set (the traced run) the same command lines go
    through ``tenselab.cli.main`` in this process instead.
    """

    name = "cli-oneshot"

    def __init__(self):
        self.in_process = False
        self.peak_rss_kb = 0

    def setup(self, seed: int) -> None:
        import tenselab.cli  # noqa: F401  the import is part of set-up

        rng = random.Random(seed)
        two = rng.sample(LETTERS, 2)
        self.plan = [
            ("parse", random_tree(rng, two, 4)),
            ("eval", rng.choice(ALGEBRAS_WITH_OPS), random_tree(rng, two, 3),
             {v: rng.random() for v in two}),
            ("validity", rng.choice(ALGEBRAS_WITH_OPS), random_tree(rng, two, 3)),
            ("check-algebra", rng.choice(ALGEBRAS_WITH_OPS)),
            ("check-frame", rng.choice(FRAMES)),
            ("frame-validity", rng.choice(FRAMES), random_tree(rng, two, 3)),
            ("canonical", rng.choice(DUAL_ALGEBRAS)),
            ("complex", rng.choice(IK_FRAMES)),
            ("embed", rng.choice(DUAL_ALGEBRAS)),
            ("fuzzy-build", FUZZY),
            ("check-proof", rng.choice(PROOFS)),
            ("fixtures",),
            ("search", renamed(EARLY_FIND, rng)),
            ("equiv", rng.choice(EQUIVALENT), rng.choice(("forward", "backward", "either"))),
        ]
        self.env = child_env()

    # -- oracle data for the stock and corpus structures

    def _algebra(self, spec: str) -> AlgebraData:
        if spec.endswith(".json"):
            return algebra_from_doc(_read_json(spec))
        from tenselab.algebra import stock_algebras

        alg = stock_algebras()[spec]
        base = getattr(alg, "base", alg)
        data = AlgebraData(list(base.names), oracles.lattice_of(base.leq.tolist()), None)
        if base is not alg:
            data.ops = ops_of(alg)
        return data

    def _frame(self, spec: str):
        if spec.endswith(".json"):
            return frame_from_doc(_read_json(spec))
        from tenselab.frames import stock_frames

        fr = stock_frames()[spec]
        return list(fr.names), fr.leq.tolist(), fr.r.tolist()

    def expect(self) -> None:
        self.commands = [getattr(self, "_" + step[0].replace("-", "_"))(*step[1:]) for step in self.plan]

    # -- the rotation; each method returns the Command and its check

    def _parse(self, tree) -> Command:
        from tenselab.syntax import parse_formula

        text = oracles.render(tree)

        def check(out: str) -> None:
            require(tree_of(parse_formula(out.strip())) == tree, "output re-parses to another tree")

        return Command(["parse", oracles.render_bracketed(tree)], OK, check, text + "\n")

    def _eval(self, spec, tree, draws) -> Command:
        a = self._algebra(spec)
        env = {v: int(x * a.lattice.n) for v, x in draws.items()}
        value = a.names[oracles.evaluate(a.lattice, a.ops, env, tree)]
        argv = ["eval", "--algebra", spec, "--formula", oracles.render(tree), "--json"]
        for v, i in sorted(env.items()):
            argv += ["--set", f"{v}={a.names[i]}"]

        def check(out: str) -> None:
            require(json.loads(out) == {"value": value}, f"eval gave {out.strip()}, table walk gives {value}")

        return Command(argv, OK, check)

    def _validity(self, spec, tree) -> Command:
        a = self._algebra(spec)
        first = oracles.first_countervaluation(a.lattice, a.ops, tree)
        argv = ["validity", "--algebra", spec, "--formula", oracles.render(tree), "--json"]

        def check(out: str) -> None:
            doc = json.loads(out)
            if first is None:
                require(doc == {"valid": True, "countervaluation": None}, "valid formula reported invalid")
                return
            require(doc["valid"] is False, "invalid formula reported valid")
            env = {v: a.names.index(e) for v, e in doc["countervaluation"].items()}
            value = oracles.evaluate(a.lattice, a.ops, env, tree)
            require(value != a.lattice.top, "countervaluation evaluates to top")
            require(doc["value"] == a.names[value], "reported value differs from the table walk")
            require(env == first, f"countervaluation {env} is not the first, {first}")

        return Command(argv, OK if first is None else FOUND, check)

    def _check_algebra(self, spec) -> Command:
        a = self._algebra(spec)
        laws = oracles.check_laws(a.lattice, a.ops)
        green = all(laws[law] is None for law in oracles.CORE_LAWS)

        def check(out: str) -> None:
            doc = json.loads(out)
            require(doc["all_core_laws"] == green, "all_core_laws disagrees with the scalar checker")
            for law, failure in laws.items():
                got = doc["laws"][law]
                require(got["holds"] == (failure is None), f"law {law} graded {got['holds']}")
                if failure is None:
                    continue
                args, lhs, rhs = failure
                w = got["witness"]
                require(w["args"] == [a.names[x] for x in args], f"{law}: witness {w['args']}")
                if law.startswith("gc_"):
                    continue  # sides of an adjunction are truth values, not elements
                require([w["lhs"], w["rhs"]] == [a.names[lhs], a.names[rhs]], f"{law}: sides")

        return Command(["check-algebra", "--algebra", spec, "--json"], OK if green else FOUND, check)

    def _check_frame(self, spec) -> Command:
        names, leq, r = self._frame(spec)
        fwd, bwd = oracles.ik_witnesses(leq, r)

        def named(w):
            return None if w is None else [names[w[0]], names[w[1]]]

        def check(out: str) -> None:
            doc = json.loads(out)
            for key, w in (("forward", fwd), ("backward", bwd)):
                require(doc[key]["holds"] == (w is None), f"{key} condition graded wrongly")
                require(doc[key]["witness"] == named(w), f"{key} witness {doc[key]['witness']}")
            require(doc["ik"] == (fwd is None and bwd is None), "ik verdict")

        ik = fwd is None and bwd is None
        return Command(["check-frame", "--frame", spec, "--json"], OK if ik else FOUND, check)

    def _frame_validity(self, spec, tree) -> Command:
        names, leq, r = self._frame(spec)
        model = oracles.Kripke(leq, r)
        first = model.first_counterexample(tree)
        argv = ["frame-validity", "--frame", spec, "--formula", oracles.render(tree), "--json"]

        def check(out: str) -> None:
            doc = json.loads(out)
            if first is None:
                require(doc == {"valid": True, "counterexample": None}, "valid formula reported invalid")
                return
            cex = doc["counterexample"]
            val = {v: sum(1 << names.index(w) for w in ws) for v, ws in cex["valuation"].items()}
            for mask in val.values():
                require(mask in model.up_sets(), "valuation is not up-closed")
            world = names.index(cex["world"])
            require(not model.truth(val, tree) >> world & 1, "formula holds at the reported world")
            require((val, world) == first, f"counterexample is not the first, {first}")

        return Command(argv, OK if first is None else FOUND, check)

    def _canonical(self, spec) -> Command:
        a = self._algebra(spec)
        require(oracles.is_h2gc_fs(a.lattice, a.ops), f"{spec} is not H2GC+FS")
        filters = len(oracles.prime_filters(a.lattice))

        def check(out: str) -> None:
            doc = json.loads(out)
            require(doc["prime_filters"] == filters, f"{doc['prime_filters']} prime filters, want {filters}")
            names, leq, r = frame_from_doc(doc["frame"])
            require(len(names) == filters, "one world per prime filter")
            require(oracles.is_ik(leq, r), "canonical frame is not IK")
            require(doc["characterizations_agree"] is True, "the two Rc definitions differ")

        return Command(["canonical", "--algebra", spec, "--json"], OK, check)

    def _complex(self, spec) -> Command:
        names, leq, r = self._frame(spec)
        upsets = len(oracles.Kripke(leq, r).up_sets())

        def check(out: str) -> None:
            doc = json.loads(out)
            require(doc["upsets"] == upsets, f"{doc['upsets']} up-sets, want {upsets}")
            a = algebra_from_doc(doc["algebra"])
            require(a.lattice.n == upsets, "carrier size")
            green = oracles.is_h2gc_fs(a.lattice, a.ops)
            require(green and doc["all_core_laws"] is True, "complex algebra of an IK frame fails a law")

        return Command(["complex", "--frame", spec, "--json"], OK, check)

    def _embed(self, spec) -> Command:
        a = self._algebra(spec)
        require(oracles.is_h2gc_fs(a.lattice, a.ops), f"{spec} is not H2GC+FS")
        filters = len(oracles.prime_filters(a.lattice))

        def check(out: str) -> None:
            doc = json.loads(out)
            require(doc["prime_filters"] == filters, "prime filter count")
            require(doc["vacuous"] is False, "report is vacuous on a nontrivial algebra")
            require(doc["embedding"] is True and doc["isomorphism"] is True, "not an isomorphism")

        return Command(["embed", "--algebra", spec, "--json"], OK, check)

    def _fuzzy_build(self, path) -> Command:
        doc = _read_json(path)
        spec = doc["algebra"]
        base = self._algebra(spec) if isinstance(spec, str) else algebra_from_doc(spec)
        points = {x: i for i, x in enumerate(doc["universe"])}
        relation = [[0] * len(points) for _ in points]
        for key, grade in doc["relation"].items():
            x, y = (points[p.strip()] for p in key.split(","))
            relation[x][y] = base.names.index(grade)
        carrier, lat, ops = oracles.fuzzy_lift(base.lattice, relation)
        names = ["(" + ",".join(base.names[v] for v in phi) + ")" for phi in carrier]
        laws = oracles.check_laws(lat, ops)
        green = all(laws[law] is None for law in oracles.CORE_LAWS)

        def check(out: str) -> None:
            got = json.loads(out)
            require(got["predicates"] == len(carrier), f"{got['predicates']} predicates")
            dump = got["algebra"]
            require(dump["elements"] == names, "predicates out of lexicographic order")
            leq = {(a, b) for a, b in dump["leq"]}
            require(
                leq == {(names[a], names[b]) for a in range(lat.n) for b in range(lat.n) if lat.leq[a][b]},
                "order is not pointwise",
            )
            for kind in ("dia", "box", "bdia", "bbox"):
                want = {names[a]: names[v] for a, v in enumerate(getattr(ops, kind))}
                require(dump["ops"][kind] == want, f"{kind} differs from the sup/inf lift")
            for law, failure in laws.items():
                require(got["laws"][law]["holds"] == (failure is None), f"law {law} graded wrongly")
            require(got["all_core_laws"] == green, "all_core_laws disagrees with the scalar checker")

        argv = ["fuzzy-build", "--instance", path, "--json", "--dump"]
        return Command(argv, OK if green else FOUND, check)

    def _check_proof(self, path) -> Command:
        from tenselab.syntax import parse_schema

        doc = _read_json(path)
        theorem = tree_of(parse_schema(doc["theorem"]))
        witnesses = [self._algebra(spec) for spec in DUAL_ALGEBRAS]

        def check(out: str) -> None:
            got = json.loads(out)
            require(got["ok"] is True and got["system"] == doc["system"], "proof rejected")
            require(len(got["steps"]) == len(doc["steps"]), "one formula per step")
            require(got["theorem"] == oracles.render(theorem), f"theorem {got['theorem']!r}")
            require(got["steps"][-1] == got["theorem"], "the last step is not the theorem")
            for a in witnesses:
                require(
                    oracles.first_countervaluation(a.lattice, a.ops, theorem) is None,
                    "checked theorem fails on an H2GC+FS algebra",
                )

        return Command(["check-proof", "--script", path, "--json"], OK, check)

    def _fixtures(self) -> Command:
        def check(out: str) -> None:
            lines = out.splitlines()
            require(lines[-1:] == ["checked: 90"], f"last line {lines[-1:]}")
            require(len(lines) == 91, f"{len(lines) - 1} proofs listed")

        return Command(["fixtures"], OK, check)

    def _search(self, tree) -> Command:
        def check(out: str) -> None:
            doc = json.loads(out)
            require(doc["status"] == "found", f"status {doc['status']}")
            w = doc["witness"]
            a = algebra_from_doc(w["algebra"])
            require(oracles.is_h2gc_fs(a.lattice, a.ops), "witness algebra is not H2GC+FS")
            env = {v: a.names.index(e) for v, e in w["valuation"].items()}
            value = oracles.evaluate(a.lattice, a.ops, env, tree)
            require(value != a.lattice.top, "countervaluation evaluates to top")
            require(w["value"] == a.names[value], "reported value differs from the table walk")

        argv = ["search", "--formula", oracles.render(tree), "--bounds", "size=5", "--json"]
        return Command(argv, FOUND, check)

    def _equiv(self, laws, direction) -> Command:
        combos = sum(oracles.galois_pair_count(lat) ** 2 for lat in oracles.down_set_lattices(3))

        def check(out: str) -> None:
            doc = json.loads(out)
            require(doc["status"] == "exhausted", f"status {doc['status']}")
            require(doc["scanned"]["combos"] == combos, f"{doc['scanned']['combos']} combos, want {combos}")
            require(doc["scanned"]["eligible"] == combos, "every combo is H2GC by construction")

        argv = ["equiv", "--laws-a", laws[0], "--laws-b", laws[1], "--direction", direction,
                "--bounds", "size=3", "--json"]
        return Command(argv, OK, check)

    # -- running

    def items(self) -> list:
        return list(range(len(self.commands)))

    def run(self, i: int):
        argv = self.commands[i].argv
        if self.in_process:
            return self._replay(argv)
        proc = subprocess.Popen(
            [sys.executable, "-m", "tenselab", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
        )
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if "Traceback" in err:
            raise RuntimeError(f"tenselab {' '.join(argv)} crashed:\n{err}")
        return proc.returncode, out, err

    def _replay(self, argv):
        from tenselab import cli

        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, result) -> None:
        cmd = self.commands[i]
        code, out, err = result
        label = "tenselab " + " ".join(cmd.argv)
        require(err == "", f"{label}: stderr {err!r}")
        require(code == cmd.exit_code, f"{label}: exit {code}, want {cmd.exit_code}")
        if cmd.exact is not None:
            require(out == cmd.exact, f"{label}: printed {out!r}, want {cmd.exact!r}")
        try:
            cmd.check(out)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            raise CheckFailed(f"{label}: malformed output ({e!r})") from None


def _drain(proc) -> tuple[str, str]:
    """Read a child's stdout and stderr to the end without threads."""
    chunks: dict[Any, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return (b"".join(chunks[proc.stdout]).decode(), b"".join(chunks[proc.stderr]).decode())


WORKLOADS = {w.name: w for w in (ClaimsSweep, PairsSearch, FrameSweep, CliOneshot)}
