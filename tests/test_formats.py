import json

import pytest

from tenselab.algebra import AlgebraWithOps, dunn_separating_algebra, evaluate
from tenselab.formats import (
    FormatError,
    ast_json,
    dump_algebra,
    dump_frame,
    dump_fuzzy,
    dump_model,
    dump_proof,
    law_report_json,
    load_algebra,
    load_frame,
    load_fuzzy,
    load_model,
    load_proof,
    read_json,
    resolve_algebra,
    resolve_frame,
    verdict_json,
)
from tenselab.fixtures import fixture_script
from tenselab.frames import Model, NotUpClosed, stock_frames, truth_set
from tenselab.fuzzy import dunn2_failure_instance
from tenselab import lattice
from tenselab.lattice import NotDistributive, chain
from tenselab.proofs import check_proof
from tenselab.search import SearchBounds, conservativity_check, find_algebra_countermodel
from tenselab.syntax import parse_formula


class TestRoundTrips:
    def test_algebra_base_only(self):
        alg = chain(3)
        doc = dump_algebra(alg)
        back = load_algebra(doc)
        assert back.names == alg.names
        assert (back.leq == alg.leq).all()
        assert not isinstance(back, AlgebraWithOps)

    def test_algebra_with_ops(self):
        alg = dunn_separating_algebra()
        back = load_algebra(dump_algebra(alg))
        assert isinstance(back, AlgebraWithOps)
        assert back.names == alg.names
        for op in ("dia", "box", "bdia", "bbox"):
            assert (getattr(back, op) == getattr(alg, op)).all()
        assert back.laws.failures() == alg.laws.failures()

    def test_frame(self):
        fr = stock_frames()["two_forward"]
        back = load_frame(dump_frame(fr))
        assert back.names == fr.names
        assert (back.leq == fr.leq).all() and (back.r == fr.r).all()

    def test_model(self):
        fr = stock_frames()["two_chain_r_leq"]
        model = Model(fr, {"p": ["u"], "q": ["w", "u"]})
        back = load_model(dump_model(model))
        assert back.val == model.val
        assert truth_set(back, "p -> q") == truth_set(model, "p -> q")

    def test_fuzzy(self):
        inst = dunn2_failure_instance()
        back = load_fuzzy(dump_fuzzy(inst))
        assert back.universe == inst.universe
        assert (back.relation == inst.relation).all()
        assert back.base.names == inst.base.names

    def test_proof(self):
        script = fixture_script("demo_identity")
        back = load_proof(dump_proof(script))
        assert back == script
        check_proof(back)

    def test_proof_with_premises_and_subst(self):
        script = fixture_script("rm_f")
        back = load_proof(dump_proof(script))
        assert back.premises == script.premises
        assert back.steps == script.steps

    def test_json_serializable(self):
        # every dump must survive an actual JSON encode/decode cycle
        docs = [
            dump_algebra(dunn_separating_algebra()),
            dump_frame(stock_frames()["one_point"]),
            dump_fuzzy(dunn2_failure_instance()),
            dump_proof(fixture_script("br1")),
        ]
        for doc in docs:
            assert json.loads(json.dumps(doc)) == doc


class TestCorpus:
    def test_every_file_loads(self, corpus_dir):
        loaders = {
            "algebras": load_algebra,
            "frames": load_frame,
            "proofs": load_proof,
            "fuzzy": load_fuzzy,
        }
        seen = 0
        for sub, loader in loaders.items():
            for path in sorted((corpus_dir / sub).glob("*.json")):
                if path.name == "two_chain_model.json":
                    load_model(path)
                else:
                    loader(path)
                seen += 1
        assert seen == 12

    def test_independent_pair_example(self, corpus_dir):
        alg = load_algebra(corpus_dir / "algebras" / "d1_independence.json")
        assert alg.laws.holds("dunn2_dia")
        assert not alg.laws.holds("d1")

    def test_resolution_order(self, corpus_dir):
        # stock name beats path; explicit paths resolve against base_dir
        stock = resolve_algebra("chain3")
        assert stock.names == ("0", "m", "1")
        from_file = resolve_algebra("algebras/three_chain.json", base_dir=corpus_dir)
        assert from_file.n == 3
        fr = resolve_frame("one_point")
        assert fr.names == ("w",)
        with pytest.raises(FormatError, match="neither a stock"):
            resolve_algebra("no_such_thing_anywhere")

    def test_resolution_builds_only_what_it_returns(self, corpus_dir, monkeypatch):
        # stock algebras are built through lattice.from_order; a file is
        # loaded through the name formats imported, which is not counted
        calls = []
        original = lattice.from_order

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(lattice, "from_order", counted)
        resolve_algebra("algebras/three_chain.json", base_dir=corpus_dir)
        assert calls == []
        resolve_algebra("chain3")
        assert calls == [("0", "m", "1")]


class TestRejections:
    def test_read_json_errors(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            read_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError, match="not valid JSON"):
            read_json(bad)

    def test_algebra_key_checks(self):
        with pytest.raises(FormatError, match="missing key"):
            load_algebra({"leq": []})
        with pytest.raises(FormatError, match="unknown key"):
            load_algebra({"elements": ["0", "1"], "extra": 1})
        with pytest.raises(FormatError, match="duplicate"):
            load_algebra({"elements": ["0", "0"]})
        with pytest.raises(FormatError, match="unknown name"):
            load_algebra({"elements": ["0", "1"], "leq": [["0", "2"]]})

    def test_algebra_ops_must_be_total(self):
        doc = dump_algebra(dunn_separating_algebra())
        del doc["ops"]["bbox"]
        with pytest.raises(FormatError, match="missing key"):
            load_algebra(doc)
        doc = dump_algebra(dunn_separating_algebra())
        del doc["ops"]["dia"]["a"]
        with pytest.raises(FormatError, match="lacks a value"):
            load_algebra(doc)
        doc = dump_algebra(dunn_separating_algebra())
        doc["ops"]["dia"]["a"] = "zz"
        with pytest.raises(FormatError, match="not an element"):
            load_algebra(doc)

    def test_algebra_order_errors_propagate(self):
        doc = {
            "elements": ["0", "x", "y", "z", "1"],
            "leq": [["0", v] for v in "xyz"] + [[v, "1"] for v in "xyz"],
        }
        with pytest.raises(NotDistributive):
            load_algebra(doc)

    def test_leq_closure_is_silent(self):
        # only cover pairs given; reflexivity and transitivity are implied
        alg = load_algebra(
            {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
        )
        assert alg.leq[0, 2] and alg.leq[1, 1]

    def test_frame_rejects_val(self):
        with pytest.raises(FormatError, match="belongs to a model"):
            load_frame({"worlds": ["w"], "R": [], "val": {"p": []}})

    def test_model_checks(self):
        base = {"worlds": ["w", "u"], "leq": [["w", "u"]], "R": []}
        with pytest.raises(FormatError, match="bad variable name"):
            load_model({**base, "val": {"P": []}})
        with pytest.raises(FormatError, match="unknown world"):
            load_model({**base, "val": {"p": ["v"]}})
        with pytest.raises(NotUpClosed):
            load_model({**base, "val": {"p": ["w"]}})

    @pytest.mark.parametrize("var", ["top", "dia", "bbox", "p q", "p-1", "pé", ""])
    def test_model_variable_names(self, var):
        doc = {"worlds": ["w"], "R": [], "val": {var: ["w"]}}
        with pytest.raises(FormatError, match=f"model: bad variable name {var!r}"):
            load_model(doc)

    def test_fuzzy_checks(self):
        good = dump_fuzzy(dunn2_failure_instance())
        doc = {**good, "relation": {**good["relation"], "x;y": "a"}}
        with pytest.raises(FormatError, match="bad relation key"):
            load_fuzzy(doc)
        doc = {**good, "relation": {**good["relation"], "x , y": "a"}}
        with pytest.raises(FormatError, match="duplicate relation key"):
            load_fuzzy(doc)
        rel = dict(good["relation"])
        del rel["x,y"]
        with pytest.raises(FormatError, match="total"):
            load_fuzzy({**good, "relation": rel})
        rel = {**good["relation"], "x,y": "nope"}
        with pytest.raises(FormatError, match="not an element"):
            load_fuzzy({**good, "relation": rel})
        for algebra in (None, 3, ["chain3"]):
            with pytest.raises(FormatError, match="neither a stock algebra"):
                load_fuzzy({**good, "algebra": algebra})

    def test_proof_step_shapes(self):
        base = {"system": "Int", "theorem": "p -> p"}
        with pytest.raises(FormatError, match="exactly one"):
            load_proof({**base, "steps": [{"axiom": "K", "rule": "MP"}]})
        with pytest.raises(FormatError, match="exactly one"):
            load_proof({**base, "steps": [{}]})
        with pytest.raises(FormatError, match="list of step numbers"):
            load_proof({**base, "steps": [{"rule": "MP", "from": [True, 1]}]})
        with pytest.raises(FormatError, match="unknown key"):
            load_proof({**base, "steps": [{"axiom": "K", "from": [1]}]})
        with pytest.raises(FormatError, match="bad metavariable"):
            load_proof({**base, "steps": [{"axiom": "K", "subst": {"a": "p"}}]})
        with pytest.raises(FormatError, match="formula text"):
            load_proof({"system": "Int", "theorem": 7, "steps": []})


class TestReports:
    def test_ast_json(self):
        got = ast_json(parse_formula("F p -> ~ q"))
        assert got == {
            "node": "imp",
            "left": {"node": "dia", "child": {"node": "var", "name": "p"}},
            "right": {"node": "not", "child": {"node": "var", "name": "q"}},
        }
        assert ast_json(parse_formula("top"))["node"] == "top"

    def test_law_report_json(self):
        alg = dunn_separating_algebra()
        doc = law_report_json(alg)
        assert doc["gc_dia_bbox"] == {"holds": True}
        assert doc["d1"] == {
            "holds": False,
            "witness": {"args": ["a", "0"], "lhs": "c", "rhs": "0"},
        }

    def test_verdict_json_countermodel_reloads(self):
        verdict = find_algebra_countermodel(
            "F p <-> ~ G ~ p", SearchBounds(max_algebra_size=3)
        )
        doc = verdict_json(verdict)
        assert doc["status"] == "found"
        assert doc["witness"]["kind"] == "countermodel"
        alg = load_algebra(doc["witness"]["algebra"])
        got = evaluate(alg, doc["witness"]["valuation"], "F p <-> ~ G ~ p")
        assert alg.names[got] == doc["witness"]["value"]
        assert got != alg.base.top

    def test_verdict_json_exhausted(self):
        verdict = conservativity_check("p -> p", SearchBounds(max_algebra_size=2))
        doc = verdict_json(verdict)
        assert doc == {
            "status": "exhausted",
            "scanned": dict(verdict.scanned),
            "witness": None,
        }

    def test_verdict_json_rejects_unknown_witness(self):
        from tenselab.search import Verdict

        with pytest.raises(TypeError):
            verdict_json(Verdict("found", witness=object()))
