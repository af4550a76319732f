"""The A/B driver's verdicts, checked against a committed bench file."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402


def test_summary_of_bench_15_is_recomputed():
    doc = json.loads((ROOT / "BENCH_15.json").read_text())
    assert ab.summarise(doc["runs"]) == doc["summary"]
    assert ab.VERDICT_RULE == doc["verdict_rule"]


def test_verdicts():
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.8]
    assert ab.judge(parent, [v / 2 for v in parent], "lower", 0.25)["verdict"] == "better"
    assert ab.judge(parent, [v * 2 for v in parent], "lower", 0.25)["verdict"] == "worse"
    assert ab.judge(parent, [v * 2 for v in parent], "higher", 0.25)["verdict"] == "better"
    assert ab.judge(parent, parent, "lower", 0.25)["verdict"] == "within_bound"
    noisy = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
    judged = ab.judge(noisy, noisy, "lower", 0.25)
    assert judged["verdict"] == "unresolved" and judged["change_wins"] == "0/6"
