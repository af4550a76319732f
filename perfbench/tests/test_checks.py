"""Each workload's check passes on real output and fails on a wrong answer.

The workloads run here at small sizes so the tests stay quick; the
benchmark runs them at the sizes their names give.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import workloads
from tracing import PER_LAYER, Tracer
from workloads import CheckFailed, ClaimsSweep, CliOneshot, FrameSweep, PairsSearch

ROOT = Path(__file__).resolve().parents[2]


def ran(workload, seed=5):
    workload.setup(seed)
    workload.expect()
    return workload


@pytest.fixture(scope="module")
def claims():
    w = ran(ClaimsSweep(size=3, sample_rate=1.0))
    result = w.run(None)
    w.check(None, result)
    return w, result


def tampered(result, **changes):
    return dataclasses.replace(result, **changes)


def test_claims_count_tampered(claims):
    w, r = claims
    with pytest.raises(CheckFailed, match="Birkhoff"):
        w.check(None, tampered(r, facts=r.facts[:-1]))


def test_claims_base_missing(claims):
    w, r = claims
    name = next(iter(r.bases))
    bases = {k: v for k, v in r.bases.items() if k != name}
    facts = [f for f in r.facts if f[0] != name]
    with pytest.raises(CheckFailed, match="A006982"):
        w.check(None, tampered(r, bases=bases, facts=facts))


def test_claims_flipped_connecting_law(claims):
    w, r = claims
    name, fs1, *rest = r.facts[0]
    facts = [(name, not fs1, *rest)] + r.facts[1:]
    with pytest.raises(CheckFailed, match="fs1/d1/fs4"):
        w.check(None, tampered(r, facts=facts))


def test_claims_flipped_all_green(claims):
    w, r = claims
    alg, ok = r.sampled[0]
    with pytest.raises(CheckFailed, match="recorded verdict"):
        w.check(None, tampered(r, sampled=[(alg, not ok)] + r.sampled[1:]))


def test_claims_countervaluation_on_an_axiom(claims):
    w, r = claims
    validity = [list(row) for row in r.validity]
    validity[-1][0] = {"p": 0}
    with pytest.raises(CheckFailed, match="fails on"):
        w.check(None, tampered(r, validity=validity))


def test_claims_embedding_not_iso(claims):
    w, r = claims
    reports = list(r.embeddings)
    i = next(k for k, rep in enumerate(reports) if not rep.vacuous)
    reports[i] = dataclasses.replace(reports[i], surjective=False)
    with pytest.raises(CheckFailed, match="isomorphism"):
        w.check(None, tampered(r, embeddings=reports))


def test_claims_second_vacuous_report(claims):
    w, r = claims
    reports = list(r.embeddings)
    i = next(k for k, rep in enumerate(reports) if not rep.vacuous)
    reports[i] = dataclasses.replace(reports[i], vacuous=True)
    with pytest.raises(CheckFailed, match="vacuous"):
        w.check(None, tampered(r, embeddings=reports))


@pytest.fixture(scope="module")
def pairs():
    w = ran(PairsSearch(size=4, cap=2, per_pass=1))
    result = w.run(0)
    w.check(0, result)
    return w, result


def test_pairs_flipped_verdict(pairs):
    w, (status, scanned) = pairs
    with pytest.raises(CheckFailed, match="exhausted"):
        w.check(0, ("found", scanned))


@pytest.mark.parametrize("key, message", [("combos", "Birkhoff"), ("eligible", "scalar checker")])
def test_pairs_tampered_count(pairs, key, message):
    w, (status, scanned) = pairs
    with pytest.raises(CheckFailed, match=message):
        w.check(0, (status, {**scanned, key: scanned[key] + 1}))


@pytest.fixture(scope="module")
def frames():
    w = ran(FrameSweep(size=2))
    results = {}
    for group in w.items():
        out = w.run(group)
        w.check(group, out)
        results.update(zip(group, out))
    return w, results


def first_counterexample(frames):
    w, results = frames
    k = len(w.instances)
    for i, res in results.items():
        for j, cex in enumerate(res[k:], start=k):
            if cex is not None:
                return w, i, res, j, cex
    raise AssertionError("no non-theorem fails on any frame")


def test_frames_results_missing(frames):
    w, results = frames
    group = w.items()[0]
    with pytest.raises(CheckFailed, match="missing"):
        w.check(group, [results[i] for i in group][:-1])


def test_frames_counterexample_at_a_world_where_it_holds(frames):
    w, i, res, j, cex = first_counterexample(frames)
    model = w.kripke[i]
    frame = w.frames[i]
    tree = w.non_theorems[j - len(w.instances)]
    val = {v: sum(1 << frame.names.index(x) for x in ws) for v, ws in cex.valuation.items()}
    holds = model.truth(val, tree)
    if not holds:
        pytest.skip("formula fails everywhere under this valuation")
    world = frame.names[(holds & -holds).bit_length() - 1]
    bad = list(res)
    bad[j] = dataclasses.replace(cex, world=world)
    with pytest.raises(CheckFailed, match="holds at"):
        w.check((i,), [bad])


def test_frames_valuation_not_up_closed(frames):
    w, results = frames
    for i, res in results.items():
        frame = w.frames[i]
        model = w.kripke[i]
        downs = [m for m in range(1, 1 << frame.n) if m not in model.up_sets()]
        k = len(w.instances)
        for j, cex in enumerate(res[k:], start=k):
            if cex is not None and downs:
                bad = list(res)
                var = next(iter(cex.valuation))
                worlds = tuple(frame.names[x] for x in range(frame.n) if downs[0] >> x & 1)
                bad[j] = dataclasses.replace(cex, valuation={**cex.valuation, var: worlds})
                with pytest.raises(CheckFailed):
                    w.check((i,), [bad])
                return
    pytest.fail("no frame with a counterexample and a non-up-closed set")


def test_frames_flipped_verdicts(frames):
    w, i, res, j, cex = first_counterexample(frames)
    bad = list(res)
    bad[j] = None
    with pytest.raises(CheckFailed, match="reported valid"):
        w.check((i,), [bad])
    bad = list(res)
    bad[0] = cex
    with pytest.raises(CheckFailed, match="fails on"):
        w.check((i,), [bad])


@pytest.fixture(scope="module")
def cli():
    w = CliOneshot()
    w.in_process = True
    ran(w, seed=3)
    outputs = {i: w.run(i) for i in w.items()}
    for i, out in outputs.items():
        w.check(i, out)
    return w, outputs


def command(cli, name):
    w, outputs = cli
    i = next(k for k, c in enumerate(w.commands) if c.argv[0] == name)
    return w, i, outputs[i]


def test_cli_flipped_exit_code(cli):
    w, i, (code, out, err) = command(cli, "fixtures")
    with pytest.raises(CheckFailed, match="exit"):
        w.check(i, (1, out, err))


def test_cli_parse_exact_text(cli):
    w, i, (code, out, err) = command(cli, "parse")
    with pytest.raises(CheckFailed, match="printed"):
        w.check(i, (code, "(" + out.strip() + ")\n", err))


def test_cli_fixtures_count(cli):
    w, i, (code, out, err) = command(cli, "fixtures")
    with pytest.raises(CheckFailed):
        w.check(i, (code, out.replace("checked: 90", "checked: 89"), err))


def test_cli_countervaluation_evaluating_to_top():
    w = CliOneshot()
    w.in_process = True
    p = ("var", "p")
    cmd = w._validity("chain3_identity", ("or", p, ("not", p)))  # first failure p=m
    doc = {"valid": False, "countervaluation": {"p": "1"}, "value": "1"}
    with pytest.raises(CheckFailed, match="top"):
        cmd.check(json.dumps(doc))
    code, out, err = w._replay(cmd.argv)
    assert code == cmd.exit_code == 1
    cmd.check(out)


def test_cli_search_witness_evaluating_to_top(cli):
    w, i, (code, out, err) = command(cli, "search")
    doc = json.loads(out)
    top = doc["witness"]["algebra"]["elements"][-1]  # ha*_* algebras list top last
    doc["witness"]["valuation"] = {v: top for v in doc["witness"]["valuation"]}
    doc["witness"]["value"] = top
    with pytest.raises(CheckFailed):
        w.check(i, (code, json.dumps(doc), err))


def test_cli_law_verdict_flipped(cli):
    w, i, (code, out, err) = command(cli, "check-algebra")
    doc = json.loads(out)
    doc["laws"]["br1"]["holds"] = not doc["laws"]["br1"]["holds"]
    with pytest.raises(CheckFailed):
        w.check(i, (code, json.dumps(doc), err))


def test_cli_equiv_count_tampered(cli):
    w, i, (code, out, err) = command(cli, "equiv")
    doc = json.loads(out)
    doc["scanned"]["combos"] += 1
    with pytest.raises(CheckFailed, match="combos"):
        w.check(i, (code, json.dumps(doc), err))


def test_tracer_charges_child_spans_to_their_own_layer():
    from tenselab import duality, lattice
    from tenselab.frames import stock_frames

    original = lattice.from_order
    tracer = Tracer()
    tracer.install()
    try:
        assert duality.from_order is not original
        duality.complex_algebra(stock_frames()["one_point"])
    finally:
        tracer.uninstall()
    assert duality.from_order is original and lattice.from_order is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "duality.complex"
    assert {"lattice.from_order", "algebra.grade"} <= set(names)
    assert all(s[3] == 0 for s in tracer.spans[1:])
    own, inclusive, _, _ = tracer.self_times()
    children = inclusive["lattice.from_order"] + inclusive["algebra.grade"]
    assert own["duality.complex"] == pytest.approx(inclusive["duality.complex"] - children)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (unit, better) for _, unit, better in PER_LAYER
    ]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"
    ]
