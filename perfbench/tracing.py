"""Spans around the calls into tenselab's modules, for the traced run.

``Tracer.install`` replaces each public function ``Tracer.targets`` lists, under every
name a tenselab module holds it by (``tenselab.search.enumerate_gc_pairs``
as well as ``tenselab.algebra.enumerate_gc_pairs``), with a wrapper that
records a span (layer, start, end, parent) and the counts of the work
the call did.  ``uninstall`` puts the originals back.  Spans stay in
memory until ``write`` saves them.

A layer's self time is the time inside its spans minus the time inside
their child spans, so ``attach_ops`` inside ``complex_algebra`` is
charged to ``algebra.grade`` and not to ``duality.complex``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import re
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import oracles
from workloads import tree_of

# (metric name, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.failed", "count", "lower"),
    ("formats.resolve_s", "s", "lower"),
    ("formats.resolve_calls", "count", "lower"),
    ("formats.failed", "count", "lower"),
    ("syntax.parse_s", "s", "lower"),
    ("syntax.parse_calls", "count", "lower"),
    ("syntax.failed", "count", "lower"),
    ("lattice.enumerate_s", "s", "lower"),
    ("lattice.bases", "count", "lower"),
    ("lattice.from_order_s", "s", "lower"),
    ("lattice.from_order_calls", "count", "lower"),
    ("lattice.failed", "count", "lower"),
    ("algebra.gc_pairs_s", "s", "lower"),
    ("algebra.gc_pairs", "count", "lower"),
    ("algebra.maps_tried", "count", "lower"),
    ("algebra.gc_pair_yield", "ratio", "higher"),
    ("algebra.grade_s", "s", "lower"),
    ("algebra.combos_graded", "count", "lower"),
    ("algebra.eligible", "count", "lower"),
    ("algebra.eligible_ratio", "ratio", "higher"),
    ("algebra.validity_s", "s", "lower"),
    ("algebra.validity_calls", "count", "lower"),
    ("algebra.valuations", "count", "lower"),
    ("algebra.failed", "count", "lower"),
    ("duality.embedding_s", "s", "lower"),
    ("duality.canonical_s", "s", "lower"),
    ("duality.complex_s", "s", "lower"),
    ("duality.embeddings", "count", "lower"),
    ("duality.failed", "count", "lower"),
    ("frames.enumerate_s", "s", "lower"),
    ("frames.frames", "count", "lower"),
    ("frames.validity_s", "s", "lower"),
    ("frames.validity_calls", "count", "lower"),
    ("frames.valuations", "count", "lower"),
    ("frames.failed", "count", "lower"),
    ("search.query_s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.combos", "count", "lower"),
    ("search.eligible", "count", "lower"),
    ("search.failed", "count", "lower"),
    ("proofs.check_s", "s", "lower"),
    ("proofs.steps", "count", "lower"),
    ("proofs.failed", "count", "lower"),
    ("fuzzy.build_s", "s", "lower"),
    ("fuzzy.failed", "count", "lower"),
]

_VAR = re.compile(r"[a-z][A-Za-z0-9_]*")
_NOT_VARS = {"top", "bot", "dia", "box", "bdia", "bbox"}


def _variable_count(formula) -> int:
    if isinstance(formula, str):
        return len(set(_VAR.findall(formula)) - _NOT_VARS)
    return len(oracles.variables(tree_of(formula)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [span name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patched: list[tuple] = []
        self._upsets: dict[int, tuple] = {}
        self._arity: dict[int, tuple] = {}

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def _wrap(self, fn: Callable, span: str, count: Optional[Callable]) -> Callable:
        failed = span.split(".")[0] + ".failed"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                self.counts[failed] += 1
                raise
            self.close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _wrap_generator(self, fn: Callable, span: str, count: Callable) -> Callable:
        """Each resumption of the generator is one span."""
        failed = span.split(".")[0] + ".failed"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(span)
                try:
                    item = next(gen)
                except StopIteration:
                    self.close(idx)
                    return
                except BaseException:
                    self.close(idx)
                    self.counts[failed] += 1
                    raise
                self.close(idx)
                count(self.counts, args, item)
                yield item

        return traced

    # -- counts of the work each call did

    def _frame_upsets(self, frame) -> tuple:
        if id(frame) not in self._upsets:
            model = oracles.Kripke(frame.leq.tolist(), frame.r.tolist())
            self._upsets[id(frame)] = (frame, model.up_sets())
        return self._upsets[id(frame)][1]

    def _arity_of(self, formula) -> int:
        if id(formula) not in self._arity:
            self._arity[id(formula)] = (formula, _variable_count(formula))
        return self._arity[id(formula)][1]

    def _count_frame_validity(self, counts, args, result) -> None:
        frame, formula = args[0], args[1]
        upsets = self._frame_upsets(frame)
        counts["frames.validity_calls"] += 1
        if result is None:
            counts["frames.valuations"] += len(upsets) ** self._arity_of(formula)
            return
        # valuations swept up to and including the counterexample
        position = 0
        for var in sorted(result.valuation):
            mask = sum(1 << frame.names.index(w) for w in result.valuation[var])
            position = position * len(upsets) + upsets.index(mask)
        counts["frames.valuations"] += position + 1

    def _count_validity(self, counts, args, result) -> None:
        counts["algebra.validity_calls"] += 1
        counts["algebra.valuations"] += args[0].n ** self._arity_of(args[1])

    def targets(self):
        """(module, function, span, count, is generator) for every wrap."""

        def calls(key):
            def count(counts, args, result):
                counts[key] += 1

            return count

        def pairs(counts, args, result):
            counts["algebra.gc_pairs"] += len(result)
            counts["algebra.maps_tried"] += args[0].n ** args[0].n

        def graded(counts, args, result):
            counts["algebra.combos_graded"] += 1
            counts["algebra.eligible"] += result.laws.all_green

        def scanned(counts, args, result):
            counts["search.combos"] += result.scanned.get("combos", 0)
            counts["search.eligible"] += result.scanned.get("eligible", 0)

        def steps(counts, args, result):
            counts["proofs.steps"] += len(args[0].steps)

        return [
            ("tenselab.cli", "main", "cli.main", None, False),
            ("tenselab.formats", "resolve_algebra", "formats.resolve", calls("formats.resolve_calls"), False),
            ("tenselab.formats", "resolve_frame", "formats.resolve", calls("formats.resolve_calls"), False),
            ("tenselab.formats", "load_model", "formats.resolve", calls("formats.resolve_calls"), False),
            ("tenselab.formats", "load_fuzzy", "formats.resolve", calls("formats.resolve_calls"), False),
            ("tenselab.formats", "load_proof", "formats.resolve", calls("formats.resolve_calls"), False),
            ("tenselab.syntax", "parse_formula", "syntax.parse", calls("syntax.parse_calls"), False),
            ("tenselab.syntax", "parse_schema", "syntax.parse", calls("syntax.parse_calls"), False),
            ("tenselab.lattice", "enumerate_heyting", "lattice.enumerate", calls("lattice.bases"), True),
            ("tenselab.lattice", "from_order", "lattice.from_order", calls("lattice.from_order_calls"), False),
            ("tenselab.algebra", "enumerate_gc_pairs", "algebra.gc_pairs", pairs, False),
            ("tenselab.algebra", "attach_ops", "algebra.grade", graded, False),
            ("tenselab.algebra", "algebra_validity", "algebra.validity", self._count_validity, False),
            ("tenselab.duality", "embedding_check", "duality.embedding", calls("duality.embeddings"), False),
            ("tenselab.duality", "canonical_frame", "duality.canonical", None, False),
            ("tenselab.duality", "complex_algebra", "duality.complex", None, False),
            ("tenselab.frames", "enumerate_frames", "frames.enumerate", calls("frames.frames"), True),
            ("tenselab.frames", "frame_validity", "frames.validity", self._count_frame_validity, False),
            ("tenselab.search", "find_algebra_countermodel", "search.query", scanned, False),
            ("tenselab.search", "test_law_equivalence", "search.query", scanned, False),
            ("tenselab.proofs", "check_proof", "proofs.check", steps, False),
            ("tenselab.fuzzy", "build_fuzzy_algebra", "fuzzy.build", None, False),
        ]

    # -- patching

    def install(self) -> None:
        """Wrap every target under every name tenselab's modules hold it by."""
        modules = [importlib.import_module(m) for m in {t[0] for t in self.targets()}]
        modules += [m for name, m in sys.modules.items() if name.split(".")[0] == "tenselab"]
        for module_name, attr, span, count, generator in self.targets():
            original = getattr(importlib.import_module(module_name), attr)
            wrap = self._wrap_generator if generator else self._wrap
            traced = wrap(original, span, count)
            for module in set(modules):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results

    def self_times(self) -> tuple[dict[str, float], dict[str, float], list[float], dict[str, float]]:
        """Self time per span name, inclusive time per span name, the
        duration of each "op" span, and self time per span name counting
        only spans inside an op."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        root = [-1] * len(self.spans)
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        inside: dict[str, float] = defaultdict(float)
        ops: list[float] = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "op":
                root[i] = i
                ops.append(end - start)
                continue
            root[i] = root[parent] if parent >= 0 else -1
            mine = end - start - child_time[i]
            own[name] += mine
            inclusive[name] += end - start
            if root[i] >= 0:
                inside[name] += mine
        return own, inclusive, ops, inside

    def metrics(self) -> dict[str, float]:
        own, inclusive, _, _ = self.self_times()
        c = self.counts
        out = {
            "cli.main_s": own["cli.main"],
            "formats.resolve_s": own["formats.resolve"],
            "syntax.parse_s": own["syntax.parse"],
            "lattice.enumerate_s": own["lattice.enumerate"],
            "lattice.from_order_s": own["lattice.from_order"],
            "algebra.gc_pairs_s": own["algebra.gc_pairs"],
            "algebra.grade_s": own["algebra.grade"],
            "algebra.validity_s": own["algebra.validity"],
            "duality.embedding_s": own["duality.embedding"],
            "duality.canonical_s": own["duality.canonical"],
            "duality.complex_s": own["duality.complex"],
            "frames.enumerate_s": own["frames.enumerate"],
            "frames.validity_s": own["frames.validity"],
            "search.query_s": inclusive["search.query"],
            "search.self_s": own["search.query"],
            "proofs.check_s": own["proofs.check"],
            "fuzzy.build_s": own["fuzzy.build"],
            "algebra.gc_pair_yield": c["algebra.gc_pairs"] / c["algebra.maps_tried"]
            if c["algebra.maps_tried"]
            else 0.0,
            "algebra.eligible_ratio": c["algebra.eligible"] / c["algebra.combos_graded"]
            if c["algebra.combos_graded"]
            else 0.0,
        }
        for name, _, _ in PER_LAYER:
            if name not in out and not name.startswith("cli.i"):
                out[name] = c[name]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
