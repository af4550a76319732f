"""Alternated A/B runs of the perfbench workloads on two checkouts.

    python tools/ab.py --parent ../parent --change . --seeds 2101-2110 \
        --parent-commit abc1234 --out BENCH_21.json

For each seed and each workload it runs `perfbench/run.py --trace 0`
for BENCHMARK.json's `run_seconds` once in each checkout, the parent
first on odd seeds and the change first on even seeds, and keeps the
JSON line each run prints last.  It then applies VERDICT_RULE to every
end-to-end metric that BENCHMARK.json declares and writes one JSON
document: on which machine, the rule, a summary per workload and
metric, and every run in the order it ran.  Its `what` and `notes`
fields are left empty for the author to fill in.  Nothing in either
checkout is changed; give it clean copies (git archive) so neither
carries stray build output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]

VERDICT_RULE = (
    "per metric: better when the change wins at least 9 of 10 pairs and the medians "
    "differ by more than the parent's IQR (or every change run beats every parent run); "
    "worse when the median is worse by more than the bound; unresolved when the parent's "
    "IQR is wider than the bound (as a share of its median) and not every change run "
    "beats every parent run; otherwise within_bound"
)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's summary under VERDICT_RULE; parent[i] and change[i]
    come from the same seed."""

    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    # the figures are rounded first, and the ratios taken from them
    p1, pm, p3 = (round(v, 4) for v in _quartiles(parent))
    c1, cm, c3 = (round(v, 4) for v in _quartiles(change))
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    iqr = p3 - p1
    spread = iqr / pm if pm else math.inf
    shift = (cm - pm) / pm if pm else 0.0
    worse_by = shift if better == "lower" else -shift
    sweep = all(beats(c, p) for c in change for p in parent)
    if sweep or (wins >= math.ceil(0.9 * len(parent)) and beats(cm, pm) and abs(cm - pm) > iqr):
        verdict = "better"
    elif worse_by > bound:
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "n": len(parent)},
        "change": {"median": cm, "q1": c1, "q3": c3, "n": len(change)},
        "change_wins": f"{wins}/{len(parent)}",
        "median_change": round(shift, 4),
        "parent_iqr": round(iqr, 4),
        "parent_spread": round(spread, 4),
        "bound": bound,
        "verdict": verdict,
    }


def summarise(runs: list[dict]) -> dict:
    """{workload: {pairs, all_correct, metric: judge(...)}} over paired runs."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [(s["parent"], s["change"]) for s in by_seed.values() if len(s) == 2]
        entry = {
            "pairs": len(pairs),
            "all_correct": all(r["result"].get("correct", False) for r in mine),
        }
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})
            ]
            if values:
                parent, change = map(list, zip(*values))
                entry[name] = judge(parent, change, metric["better"], metric["bound"])
        out[workload] = entry
    return out


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one perfbench run in tree, as JSON."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": done.stderr.strip()[-2000:], "exit": done.returncode}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _machine() -> str:
    return (
        f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}, numpy {numpy.__version__}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    seeds = _seeds(args.seeds)
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    runs = []
    for seed in seeds:
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in workloads:
            for order, side in enumerate(sides):
                result = run_once(trees[side], workload, seed)
                runs.append(
                    {"workload": workload, "seed": seed, "side": side, "result": result, "order": order}
                )
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(result.get('metrics', result))}", file=sys.stderr)
    command = f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0"
    doc = {
        "what": "",
        "machine": _machine(),
        "command": command,
        "parent_commit": args.parent_commit,
        "order": (
            f"odd seeds run the parent first, even seeds the change first; seeds "
            f"{seeds[0]}-{seeds[-1]}, all of {', '.join(workloads)} per seed"
        ),
        "verdict_rule": VERDICT_RULE,
        "notes": "",
        "summary": summarise(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
