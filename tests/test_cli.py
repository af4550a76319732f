"""Command line coverage.

Every subcommand is driven in process through cli.main so coverage and
capsys work.  The single subprocess test at the bottom checks the console
script wiring from the checkout: the `tenselab` entry that pyproject.toml
declares must resolve to cli.main, and a fresh interpreter running the
same wrapper a console-script installer writes must give the in-process
answer.  When a `tenselab` script is installed on PATH, it is run too.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tenselab
from tenselab import cli, duality, formats, frames
from tenselab.algebra import AlgebraWithOps
from tenselab.syntax import parse_formula, variables_of


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestParse:
    def test_plain(self, capsys):
        code, out, err = run(capsys, "parse", "F p -> ~q")
        assert (code, out, err) == (cli.OK, "F p -> ~q\n", "")

    def test_json_ast(self, capsys):
        code, doc = run_json(capsys, "parse", "--json", "F p")
        assert code == cli.OK
        assert doc["text"] == "F p"
        assert doc["ast"] == formats.ast_json(parse_formula("F p"))

    def test_metavariable_needs_schema_flag(self, capsys):
        code, out, err = run(capsys, "parse", "A -> A")
        assert code == cli.USAGE
        assert "metavariable" in err

        code, out, err = run(capsys, "parse", "--schema", "A -> A")
        assert (code, out) == (cli.OK, "A -> A\n")

    def test_garbage_is_usage_error(self, capsys):
        code, out, err = run(capsys, "parse", "p ->")
        assert code == cli.USAGE
        assert err.startswith("error:")

    @pytest.mark.parametrize("text, pos", [("é", 0), ("pé", 1)])
    def test_non_ascii_letter_is_usage_error(self, capsys, text, pos):
        expected = f"error: unexpected character 'é' at position {pos}\n"
        assert run(capsys, "parse", text) == (cli.USAGE, "", expected)


# formulas with `depth` connectives, modalities or parentheses on one path
NESTED = {
    "negations": lambda depth: "~" * depth + "p",
    "and_chain": lambda depth: "p & " * depth + "p",
    "imp_chain": lambda depth: "p -> " * depth + "p",
    "parentheses": lambda depth: "(" * depth + "p" + ")" * depth,
}


class TestFormulaDepth:
    COMMANDS = {
        "parse": lambda f: ["parse", f],
        "eval": lambda f: ["eval", "--algebra", "chain3", "--formula", f, "--set", "p=m"],
        "validity": lambda f: ["validity", "--algebra", "chain3_identity", "--formula", f],
    }

    @pytest.mark.parametrize("shape", NESTED)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_depth_at_the_bound_is_read(self, capsys, shape, command):
        code, out, err = run(capsys, *self.COMMANDS[command](NESTED[shape](100)))
        assert code in (cli.OK, cli.FOUND) and out and err == ""

    # 600 levels exhaust Python's default recursion limit in a plain recursive descent
    @pytest.mark.parametrize("depth", [101, 600])
    @pytest.mark.parametrize("shape", NESTED)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_depth_past_the_bound_is_usage_error(self, capsys, shape, command, depth):
        code, out, err = run(capsys, *self.COMMANDS[command](NESTED[shape](depth)))
        assert (code, out) == (cli.USAGE, "")
        assert err.startswith("error: formula nested deeper than 100 at position ")

    @pytest.mark.parametrize("depth, want", [(100, cli.FOUND), (101, cli.USAGE)])
    def test_proof_theorem(self, capsys, tmp_path, depth, want):
        script = tmp_path / "deep.json"
        script.write_text(json.dumps({
            "system": "Int",
            "theorem": NESTED["imp_chain"](depth),
            "steps": [{"axiom": "K", "subst": {"A": "p", "B": "p"}}],
        }))
        code, out, err = run(capsys, "check-proof", "--script", str(script))
        assert code == want
        if want == cli.USAGE:
            assert (out, err) == ("", "error: formula nested deeper than 100 at position 502\n")


class TestCheckAlgebra:
    def test_bare_heyting_stock(self, capsys):
        code, out, err = run(capsys, "check-algebra", "--algebra", "chain3")
        assert code == cli.OK
        assert out == "chain3: Heyting algebra with 3 elements\n"

    def test_green_stock(self, capsys):
        code, out, err = run(capsys, "check-algebra", "--algebra", "chain3_identity")
        assert code == cli.OK
        assert "core laws all hold" in out

    def test_failing_stock(self, capsys):
        code, out, err = run(capsys, "check-algebra", "--algebra", "dunn_separating")
        assert code == cli.FOUND
        assert "core laws FAIL" in out
        assert "  d1: FAILS at (a, 0): c vs 0" in out.splitlines()
        assert "  dunn2_dia: ok" in out.splitlines()

    def test_corpus_file(self, capsys, corpus_dir):
        path = str(corpus_dir / "algebras" / "d1_independence.json")
        code, doc = run_json(capsys, "check-algebra", "--json", "--algebra", path)
        assert code == cli.FOUND
        assert doc["all_core_laws"] is False
        assert doc["laws"]["d1"]["witness"] == {
            "args": ["a", "0"],
            "lhs": "c",
            "rhs": "0",
        }

    def test_unknown_name(self, capsys):
        code, out, err = run(capsys, "check-algebra", "--algebra", "nope")
        assert code == cli.USAGE
        assert "neither a stock algebra" in err

    def test_galois_witness_prints_truth_values(self, capsys, tmp_path):
        # dia = id is not left adjoint to bbox = (0, 0, 1): at (m, m)
        # "dia m <= m" is true while "m <= bbox m" is false
        names = ["0", "m", "1"]
        ident = {s: s for s in names}
        path = tmp_path / "bad_gc.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bad_gc",
                    "elements": names,
                    "leq": [["0", "m"], ["m", "1"]],
                    "ops": {
                        "dia": ident,
                        "box": ident,
                        "bdia": ident,
                        "bbox": {"0": "0", "m": "0", "1": "1"},
                    },
                }
            )
        )
        code, out, err = run(capsys, "check-algebra", "--algebra", str(path))
        assert (code, err) == (cli.FOUND, "")
        assert "  gc_dia_bbox: FAILS at (m, m): true vs false" in out.splitlines()
        code, doc = run_json(capsys, "check-algebra", "--json", "--algebra", str(path))
        assert code == cli.FOUND
        assert doc["laws"]["gc_dia_bbox"]["witness"] == {
            "args": ["m", "m"],
            "lhs": True,
            "rhs": False,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-algebra",),
            ("eval", "--formula", "p", "--set", "p=e0"),
            ("validity", "--formula", "p | ~p"),
        ],
    )
    def test_carrier_past_the_cap(self, capsys, tmp_path, argv):
        # one element past MAX_ORDER_SIZE: refused before any n^3 check
        names = [f"e{i}" for i in range(129)]
        path = tmp_path / "chain129.json"
        path.write_text(
            json.dumps({"elements": names, "leq": [list(p) for p in zip(names, names[1:])]})
        )
        code, out, err = run(capsys, *argv, "--algebra", str(path))
        assert (code, out) == (cli.USAGE, "")
        assert err == "error: carrier has 129 elements, more than the cap 128\n"


class TestCheckFrame:
    def test_ik_frame(self, capsys):
        code, out, err = run(capsys, "check-frame", "--frame", "one_point")
        assert code == cli.OK
        assert "IK frame: yes" in out

    def test_forward_failure(self, capsys):
        code, doc = run_json(capsys, "check-frame", "--json", "--frame", "two_forward")
        assert code == cli.FOUND
        assert doc["ik"] is False
        assert doc["forward"] == {"holds": False, "witness": ["u", "u"]}
        assert doc["backward"]["holds"] is True


class TestEval:
    def test_algebra_mode(self, capsys):
        code, out, err = run(
            capsys,
            "eval", "--formula", "p -> q", "--algebra", "chain3",
            "--set", "p=1", "--set", "q=m",
        )
        assert (code, out) == (cli.OK, "m\n")

    def test_algebra_mode_json(self, capsys):
        code, doc = run_json(
            capsys,
            "eval", "--json", "--formula", "p & q", "--algebra", "chain3",
            "--set", "p=m", "--set", "q=1",
        )
        assert (code, doc) == (cli.OK, {"value": "m"})

    def test_model_mode(self, capsys, corpus_dir):
        path = str(corpus_dir / "frames" / "two_chain_model.json")
        code, out, err = run(capsys, "eval", "--formula", "F p", "--model", path)
        assert (code, out) == (cli.OK, "true at: w\n")

        code, out, err = run(capsys, "eval", "--formula", "q", "--model", path)
        assert (code, out) == (cli.OK, "true at: w, u\n")

    def test_model_world_hit_and_miss(self, capsys, corpus_dir):
        path = str(corpus_dir / "frames" / "two_chain_model.json")
        code, out, err = run(
            capsys, "eval", "--formula", "q", "--model", path, "--world", "w"
        )
        assert (code, out) == (cli.OK, "w: satisfied\n")

        code, out, err = run(
            capsys, "eval", "--formula", "P p", "--model", path, "--world", "w"
        )
        assert (code, out) == (cli.FOUND, "w: not satisfied\n")

    def test_unknown_world(self, capsys, corpus_dir):
        path = str(corpus_dir / "frames" / "two_chain_model.json")
        code, out, err = run(
            capsys, "eval", "--formula", "p", "--model", path, "--world", "zz"
        )
        assert code == cli.USAGE
        assert "unknown world" in err

    def test_needs_exactly_one_target(self, capsys):
        code, out, err = run(capsys, "eval", "--formula", "p")
        assert code == cli.USAGE
        assert "exactly one of" in err

        code, out, err = run(
            capsys, "eval", "--formula", "p", "--algebra", "chain3", "--model", "x"
        )
        assert code == cli.USAGE

    def test_bad_assignment(self, capsys):
        code, out, err = run(
            capsys, "eval", "--formula", "p", "--algebra", "chain3", "--set", "p"
        )
        assert code == cli.USAGE
        assert "bad assignment" in err

    def test_unknown_element(self, capsys):
        # the element is named once, not inside a second quoted message
        code, out, err = run(
            capsys, "eval", "--formula", "p", "--algebra", "chain3", "--set", "p=zz"
        )
        assert (code, out, err) == (cli.USAGE, "", "error: unknown name 'zz'\n")

    @pytest.mark.parametrize("second", ["p=0", " p =0"])
    def test_variable_set_twice(self, capsys, second):
        code, out, err = run(
            capsys, "eval", "--algebra", "chain3", "--formula", "p",
            "--set", "p=1", "--set", second,
        )
        assert (code, out, err) == (cli.USAGE, "", "error: variable 'p' set twice\n")


class TestValidity:
    def test_valid(self, capsys):
        code, doc = run_json(
            capsys, "validity", "--json", "--algebra", "chain3", "--formula", "p -> p"
        )
        assert (code, doc) == (cli.OK, {"valid": True, "countervaluation": None})

    def test_countervaluation_is_lex_minimal(self, capsys):
        code, doc = run_json(
            capsys, "validity", "--json", "--algebra", "chain3", "--formula", "p -> q"
        )
        assert code == cli.FOUND
        assert doc == {
            "valid": False,
            "countervaluation": {"p": "m", "q": "0"},
            "value": "0",
        }

    def test_corpus_algebra(self, capsys, corpus_dir):
        # the separating structure: both GC pairs hold but F p & G q -> F (p & q) does not
        path = str(corpus_dir / "algebras" / "d1_independence.json")
        code, out, err = run(
            capsys, "validity", "--algebra", path,
            "--formula", "F p & G q -> F (p & q)",
        )
        assert code == cli.FOUND
        assert out == "countervaluation: p=a, q=0 gives 0\n"

    def test_var_cap(self, capsys):
        code, out, err = run(
            capsys, "validity", "--algebra", "chain3", "--formula", "p -> q",
            "--vars", "1",
        )
        assert code == cli.USAGE

    def test_negative_var_cap(self, capsys):
        # a closed formula is within any cap, so only the bad option can fail
        code, out, err = run(
            capsys, "validity", "--algebra", "chain3", "--formula", "top", "--vars", "-3"
        )
        assert (code, out, err) == (cli.USAGE, "", "error: --vars must be 0 or more, not -3\n")
        code, out, err = run(
            capsys, "validity", "--algebra", "chain3", "--formula", "top", "--vars", "0"
        )
        assert (code, out) == (cli.OK, "valid\n")


class TestFrameValidity:
    def test_counterexample(self, capsys):
        code, doc = run_json(
            capsys,
            "frame-validity", "--json", "--frame", "two_chain_r_leq",
            "--formula", "G p -> p",
        )
        assert code == cli.FOUND
        assert doc == {
            "valid": False,
            "counterexample": {"valuation": {"p": []}, "world": "w"},
        }

    def test_valid(self, capsys):
        code, out, err = run(
            capsys, "frame-validity", "--frame", "one_point", "--formula", "G p -> p"
        )
        assert (code, out) == (cli.OK, "valid\n")

    def test_negative_var_cap(self, capsys):
        code, out, err = run(
            capsys, "frame-validity", "--frame", "one_point", "--formula", "~ bot", "--vars=-1"
        )
        assert (code, out, err) == (cli.USAGE, "", "error: --vars must be 0 or more, not -1\n")
        code, out, err = run(
            capsys, "frame-validity", "--frame", "one_point", "--formula", "~ bot", "--vars", "0"
        )
        assert (code, out) == (cli.OK, "valid\n")


class TestDuality:
    def test_canonical(self, capsys):
        code, doc = run_json(capsys, "canonical", "--json", "--algebra", "chain3_identity")
        assert code == cli.OK
        assert doc["prime_filters"] == 2
        assert doc["characterizations_agree"] is True
        frame = formats.load_frame(doc["frame"])
        assert frame.names == ("^1", "^m")

    def test_canonical_needs_operators(self, capsys):
        code, out, err = run(capsys, "canonical", "--algebra", "chain3")
        assert code == cli.USAGE
        assert "operator tables" in err

    def test_complex(self, capsys):
        code, doc = run_json(capsys, "complex", "--json", "--frame", "one_point")
        assert code == cli.OK
        assert doc["upsets"] == 2
        alg = formats.load_algebra(doc["algebra"])
        assert isinstance(alg, AlgebraWithOps) and alg.laws.all_green

    def test_complex_past_the_cap(self, capsys, tmp_path):
        # eight unordered worlds and an empty R: an IK frame with 256 up-sets
        worlds = [f"w{i}" for i in range(8)]
        path = tmp_path / "antichain8.json"
        path.write_text(json.dumps({"worlds": worlds, "leq": [], "R": []}))
        code, out, err = run(capsys, "complex", "--frame", str(path))
        assert (code, out) == (cli.USAGE, "")
        assert err == "error: carrier has at least 129 elements, more than the cap 128\n"

    def test_complex_stops_listing_at_the_cap(self, capsys, tmp_path, monkeypatch):
        # 18 unordered worlds have 2^18 up-sets; the listing stops at the
        # 129th, mask 128, and the frame's full listing is never made
        worlds = [f"w{i}" for i in range(18)]
        path = tmp_path / "antichain18.json"
        path.write_text(json.dumps({"worlds": worlds, "leq": [], "R": []}))
        listed = []
        up_sets = duality.up_sets

        def counted(leq, stop=None):
            listed.append(up_sets(leq, stop))
            return listed[-1]

        monkeypatch.setattr(duality, "up_sets", counted)
        monkeypatch.setattr(frames, "up_sets", None)
        code, out, err = run(capsys, "complex", "--frame", str(path))
        assert (code, out) == (cli.USAGE, "")
        assert err == "error: carrier has at least 129 elements, more than the cap 128\n"
        assert [carrier[-1] for carrier in listed] == [128]

    def test_complex_rejects_non_ik(self, capsys):
        code, out, err = run(capsys, "complex", "--frame", "two_forward")
        assert code == cli.USAGE
        assert "escapes" in err

    def test_embed(self, capsys):
        code, doc = run_json(capsys, "embed", "--json", "--algebra", "chain3_identity")
        assert code == cli.OK
        assert doc["isomorphism"] is True and doc["vacuous"] is False
        assert sorted(doc["operations"]) == [
            "bbox", "bdia", "bottom", "box", "dia", "imp", "join", "meet", "top",
        ]
        assert all(doc["operations"].values())

    def test_embed_rejects_core_failures(self, capsys):
        code, out, err = run(capsys, "embed", "--algebra", "dunn_separating")
        assert code == cli.USAGE
        assert "fails core laws" in err


class TestFuzzyBuild:
    def test_report(self, capsys, corpus_dir):
        path = str(corpus_dir / "fuzzy" / "dunn2_two_point.json")
        code, out, err = run(capsys, "fuzzy-build", "--instance", path)
        # the extra laws fail, the core stays green, so this still exits 0
        assert code == cli.OK
        lines = out.splitlines()
        assert lines[0] == (
            "dunn2_two_point: 25 predicates over 2 points, core laws all hold"
        )
        assert "  dunn2_dia: FAILS at ((0,0), (a,b)): (1,0) vs (c,0)" in lines

    def test_json_dump_round_trip(self, capsys, corpus_dir):
        path = str(corpus_dir / "fuzzy" / "dunn2_two_point.json")
        code, doc = run_json(capsys, "fuzzy-build", "--json", "--instance", path)
        assert "algebra" not in doc

        code, doc = run_json(
            capsys, "fuzzy-build", "--json", "--dump", "--instance", path
        )
        assert doc["all_core_laws"] is True
        assert doc["laws"]["dunn2_dia"]["holds"] is False
        alg = formats.load_algebra(doc["algebra"])
        assert len(alg.names) == doc["predicates"] == 25

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "fuzzy-build", "--instance", "missing.json")
        assert code == cli.USAGE


class TestCheckProof:
    def test_good_script(self, capsys, corpus_dir):
        path = str(corpus_dir / "proofs" / "identity_mp.json")
        code, out, err = run(capsys, "check-proof", "--script", path)
        assert code == cli.OK
        lines = out.splitlines()
        assert lines[0] == "identity_mp: p -> p [Int]"
        assert lines[-1] == "  5. p -> p"

    def test_modal_script(self, capsys, corpus_dir):
        path = str(corpus_dir / "proofs" / "br1_gc.json")
        code, out, err = run(capsys, "check-proof", "--script", path)
        assert code == cli.OK

    def test_check_failure(self, capsys, tmp_path):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({
            "name": "broken",
            "system": "Int",
            "theorem": "p -> p",
            "steps": [{"axiom": "XYZ", "subst": {"A": "p"}}],
        }))
        code, out, err = run(capsys, "check-proof", "--script", str(script))
        assert code == cli.FOUND
        assert out == "step 1: [UnknownAxiom] no axiom schema 'XYZ'\n"

        code, doc = run_json(capsys, "check-proof", "--json", "--script", str(script))
        assert code == cli.FOUND
        assert doc == {
            "ok": False,
            "step": 1,
            "code": "UnknownAxiom",
            "message": "no axiom schema 'XYZ'",
        }

    def test_rule_step_key_the_rule_does_not_mention(self, capsys, corpus_dir, tmp_path):
        doc = json.loads((corpus_dir / "proofs" / "identity_mp.json").read_text())
        doc["steps"][2]["subst"] = {"Zzz": "q"}
        script = tmp_path / "stray.json"
        script.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-proof", "--script", str(script))
        assert code == cli.FOUND
        assert out == "step 3: [BadSubstitution] rule MP does not mention: Zzz\n"

    def test_unknown_system_has_no_step(self, capsys, tmp_path):
        script = tmp_path / "nosys.json"
        script.write_text(json.dumps({
            "name": "nosys",
            "system": "NoSuch",
            "theorem": "p -> p",
            "steps": [{"axiom": "K", "subst": {"A": "p", "B": "p"}}],
        }))
        code, out, err = run(capsys, "check-proof", "--script", str(script))
        assert code == cli.FOUND
        assert out == "[UnknownSystem] no system 'NoSuch'\n"

    def test_malformed_step_is_usage(self, capsys, tmp_path):
        script = tmp_path / "shape.json"
        script.write_text(json.dumps({
            "name": "shape",
            "system": "Int",
            "theorem": "p -> p",
            "steps": [{"formula": "p -> p", "axiom": "K"}],
        }))
        code, out, err = run(capsys, "check-proof", "--script", str(script))
        assert code == cli.USAGE
        assert "unknown key(s)" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "check-proof", "--script", "missing.json")
        assert code == cli.USAGE


class TestSearch:
    def test_found(self, capsys):
        code, doc = run_json(
            capsys,
            "search", "--json", "--formula", "F p <-> ~ G ~ p", "--bounds", "size=3",
        )
        assert code == cli.FOUND
        assert doc["status"] == "found"
        assert doc["scanned"]["combos"] == 12 and doc["scanned"]["eligible"] == 7
        w = doc["witness"]
        assert w["algebra"]["name"] == "ha3_2"
        assert w["valuation"] == {"p": "e1"} and w["value"] == "e1"
        assert len(formats.load_algebra(w["algebra"]).names) == 3

    def test_exhausted(self, capsys):
        code, out, err = run(
            capsys, "search", "--formula", "p -> p", "--bounds", "size=3"
        )
        assert code == cli.OK
        assert out.startswith("exhausted after")

    def test_timeout(self, capsys):
        code, out, err = run(
            capsys, "search", "--formula", "p -> p", "--bounds", "seconds=0.000000001"
        )
        assert code == cli.TIMEOUT
        assert out.startswith("timeout after")

    @pytest.mark.parametrize(
        "bounds",
        ["size", "shoes=2", "size=two", "size=9", "frames=4", "size=9,size=2"],
    )
    def test_bad_bounds(self, capsys, bounds):
        code, out, err = run(
            capsys, "search", "--formula", "p -> p", "--bounds", bounds
        )
        assert code == cli.USAGE
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command",
        [("search", "--formula", "p -> p"), ("equiv", "--laws-a", "fs1", "--laws-b", "d1")],
    )
    @pytest.mark.parametrize("seconds", ["nan", "inf", "-1"])
    def test_deadline_must_be_finite_and_positive(self, capsys, command, seconds):
        # a NaN deadline never expires, since every comparison with it is false
        code, out, err = run(capsys, *command, "--bounds", f"size=2,seconds={seconds}")
        assert (code, out) == (cli.USAGE, "")
        assert err == "error: deadline_seconds must be finite and positive\n"

    def test_unknown_law(self, capsys):
        code, out, err = run(
            capsys, "search", "--formula", "p -> p", "--laws", "nope",
            "--bounds", "size=2",
        )
        assert code == cli.USAGE
        assert "unknown law name" in err


class TestEquiv:
    def test_exhausted(self, capsys):
        code, out, err = run(
            capsys, "equiv", "--laws-a", "fs1", "--laws-b", "d1", "--bounds", "size=3"
        )
        assert code == cli.OK
        assert out.startswith("exhausted after")

    def test_separator(self, capsys):
        code, doc = run_json(
            capsys,
            "equiv", "--json", "--laws-a", "dunn2_dia", "--laws-b", "d1",
            "--direction", "forward", "--bounds", "size=2",
        )
        assert code == cli.FOUND
        w = doc["witness"]
        assert w["algebra"]["name"] == "ha2_1"
        assert w["satisfied"] == ["dunn2_dia"]
        assert (w["violated"], w["direction"]) == ("d1", "forward")

    def test_vars_bound_rejected(self, capsys):
        # equiv compares law sets and has no formula for vars to bound
        code, out, err = run(
            capsys, "equiv", "--laws-a", "fs1", "--laws-b", "dunn2_dia",
            "--bounds", "size=3,vars=1",
        )
        assert code == cli.USAGE
        assert out == ""
        assert err.startswith("error: unknown bounds key 'vars' (want size/pairs/seconds)")

    def test_repeated_bounds_key(self, capsys):
        code, out, err = run(
            capsys, "equiv", "--laws-a", "fs1", "--laws-b", "d1", "--bounds", "size=9,size=2"
        )
        assert (code, out, err) == (cli.USAGE, "", "error: bounds key 'size' given twice\n")

    def test_bad_direction_is_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["equiv", "--laws-a", "fs1", "--laws-b", "d1",
                      "--direction", "sideways"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestFixtures:
    def test_all(self, capsys):
        code, out, err = run(capsys, "fixtures")
        assert code == cli.OK
        lines = out.splitlines()
        assert lines[-1] == "checked: 90" and len(lines) == 91

    def test_filtered(self, capsys):
        code, out, err = run(capsys, "fixtures", "--system", "Int2GC+FS")
        assert code == cli.OK
        lines = out.splitlines()
        assert lines[-1] == "checked: 22"
        assert all("[Int2GC+FS]" in line for line in lines[:-1])

    def test_json(self, capsys):
        code, doc = run_json(capsys, "fixtures", "--json", "--system", "IKxIK+BR")
        assert code == cli.OK
        assert doc["count"] == len(doc["proofs"]) > 0
        assert set(doc["proofs"][0]) == {"name", "system", "theorem", "premises"}

    def test_unknown_system(self, capsys):
        code, out, err = run(capsys, "fixtures", "--system", "Bogus")
        assert code == cli.USAGE
        # the hint lists every system in sorted order
        assert "Cl2GC+FS, IK_t, IKxIK+BR, Int, Int2GC" in err


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["eval", "--algebra", "chain3", "--formula=--"], "--formula"),
            (["eval", "--algebra", "chain3", "--formula", "p", "--set=--"], "--set"),
            (["validity", "--algebra=--", "--formula", "p"], "--algebra"),
            (["validity", "--algebra", "chain3", "--formula", "p", "--vars=--"], "--vars"),
            (["search", "--formula", "p", "--bounds=--"], "--bounds"),
        ],
    )
    def test_double_dash_option_value_is_usage_error(self, capsys, argv, option):
        expected = f"error: {option} needs a value other than '--'\n"
        assert run(capsys, *argv) == (cli.USAGE, "", expected)


_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text("01amw", max_size=2),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "leq", "R", "ops", "x"]), kids, max_size=3),
    max_leaves=6,
)


# proof steps of every kind, citing axioms and rules, their mirror images
# and unknown ids, with step numbers and substitutions good and bad
_PROOF_IDS = st.sampled_from(
    ["K", "S", "MP", "FS1", "FS2", "BR1", "BR3", "E8", "E8'", "IK1-P", "GC-FH", "GC-PG",
     "RM-P", "RH", "id", "XYZ"]
)
_SUBST = st.one_of(
    st.dictionaries(
        st.sampled_from(["A", "B", "C", "Zzz", "a"]),
        st.sampled_from(["p", "F p", "P p", "P p -> P p", "A", "p ->"]),
        max_size=3,
    ),
    _JUNK,
)
_PROOF_STEP = st.one_of(
    st.fixed_dictionaries({"axiom": _PROOF_IDS}, optional={"subst": _SUBST}),
    st.fixed_dictionaries(
        {"rule": _PROOF_IDS, "from": st.lists(st.integers(-1, 7), max_size=3) | _JUNK},
        optional={"subst": _SUBST},
    ),
    st.fixed_dictionaries({"lemma": _PROOF_IDS}, optional={"subst": _SUBST}),
    st.fixed_dictionaries({"premise": st.integers(-1, 2)}),
)
_PROOF = Path(__file__).resolve().parent.parent / "corpus" / "proofs" / "br1_gc.json"


@st.composite
def _malformed(draw, kind):
    """JSON text near a valid algebra, frame, model, fuzzy instance or
    proof document, often broken."""
    labels = st.sampled_from(["0", "a", "b", "m", "1"])
    names = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    element = st.sampled_from(names)
    chain = [list(pair) for pair in zip(names, names[1:])]  # a lattice, so laws get graded
    pair = st.lists(element, min_size=2, max_size=2)
    pairs = st.one_of(st.just(chain), st.lists(pair, max_size=6))
    if kind == "algebra":
        doc = {"elements": names, "leq": draw(pairs)}
        if draw(st.booleans()):
            identity = st.just({x: x for x in names})
            table = st.one_of(identity, st.fixed_dictionaries({x: element for x in names}))
            doc["ops"] = {op: draw(table) for op in ("dia", "box", "bdia", "bbox")}
    elif kind == "fuzzy":  # at most two points: chain3 lifts to 9 predicates
        universe = names[:2]
        doc = {
            "algebra": draw(st.sampled_from(["chain3", "diamond_with_top", "nope"])),
            "universe": universe,
            "relation": {f"{x},{y}": draw(labels) for x in universe for y in universe},
        }
    elif kind == "proof":  # a checked corpus proof with steps drawn into it
        doc = json.loads(_PROOF.read_text())
        doc["system"] = draw(st.sampled_from(["Int2GC", "Int2GC+FS2", "IK_t", "Nope"]))
        for step in draw(st.lists(_PROOF_STEP, max_size=2)):
            doc["steps"].insert(draw(st.integers(0, len(doc["steps"]))), step)
    else:
        doc = {"worlds": names, "leq": draw(pairs), "R": draw(pairs)}
        if kind == "model":
            world_list = st.lists(st.sampled_from([*names, "zz"]), max_size=3)
            doc["val"] = draw(st.dictionaries(st.sampled_from(["p", "q", "P", "top"]), world_list))
    damage = draw(st.sampled_from(["none"] * 3 + ["drop", "junk", "entry", "whole", "truncate"]))
    key = draw(st.sampled_from(sorted(doc)))
    if damage == "drop":
        del doc[key]
    elif damage == "junk":
        doc[key] = draw(_JUNK)
    elif damage == "entry":  # one bad pair or name, or one table value
        inner = doc[key]
        if isinstance(inner, list):
            inner.append(draw(_JUNK))
        elif isinstance(inner, dict) and inner:  # one table value, or one inner value
            name = draw(st.sampled_from(sorted(inner)))
            table, x = inner[name], draw(st.sampled_from(names))
            if not isinstance(table, dict) or x not in table:
                table, x = inner, name
            if draw(st.booleans()):
                del table[x]
            else:
                table[x] = draw(_JUNK)
        else:
            doc[key] = draw(_JUNK)
    elif damage == "whole":
        doc = draw(_JUNK)
    text = json.dumps(doc)
    if damage == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


# formula tokens and pieces of them, with letters and symbols the lexer rejects;
# no free st.text, which builds a Unicode table on its first run in a checkout
_FORMULA_TEXT = st.lists(
    st.sampled_from(
        ["p", "q", "A", "F", "H", "top", "bot", "dia", " ", "(", ")", "&", "|", "~",
         "->", "<->", "-", "<", ">", "é", "ß", "Ω", "$", "1", "_"]
    ),
    max_size=10,
).map("".join)


class TestMalformedInputFuzz:
    """Bad documents and formulas exit 0, 1 or 2 with a message, never a traceback."""

    @classmethod
    def _run(cls, path, command, option, as_json, text, *more):
        path.write_text(text)
        json_flag = ["--json"] if as_json else []
        cls._main([command, *json_flag, option, str(path), *more], as_json)

    @staticmethod
    def _main(argv, as_json):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (cli.OK, cli.FOUND, cli.USAGE), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == cli.USAGE:
            assert err.getvalue().startswith("error: ") and out.getvalue() == ""
        elif as_json:
            json.loads(out.getvalue())

    @settings(max_examples=60, deadline=None)
    @given(
        text=_malformed("algebra"),
        command=st.sampled_from(["check-algebra", "canonical", "embed"]),
        as_json=st.booleans(),
    )
    def test_algebra_commands(self, tmp_path_factory, text, command, as_json):
        path = tmp_path_factory.getbasetemp() / "fuzz_algebra.json"
        self._run(path, command, "--algebra", as_json, text)

    @settings(max_examples=40, deadline=None)
    @given(text=_malformed("frame"), as_json=st.booleans())
    def test_complex(self, tmp_path_factory, text, as_json):
        path = tmp_path_factory.getbasetemp() / "fuzz_frame.json"
        self._run(path, "complex", "--frame", as_json, text)

    @settings(max_examples=60, deadline=None)
    @given(text=_malformed("proof"), as_json=st.booleans())
    def test_check_proof(self, tmp_path_factory, text, as_json):
        path = tmp_path_factory.getbasetemp() / "fuzz_proof.json"
        self._run(path, "check-proof", "--script", as_json, text)

    @settings(max_examples=40, deadline=None)
    @given(
        text=_malformed("model"),
        as_json=st.booleans(),
        world=st.sampled_from([[], ["--world", "a"], ["--world", "zz"]]),
    )
    def test_eval_model(self, tmp_path_factory, text, as_json, world):
        path = tmp_path_factory.getbasetemp() / "fuzz_model.json"
        self._run(path, "eval", "--model", as_json, text, "--formula", "p -> G q", *world)

    @settings(max_examples=30, deadline=None)
    @given(text=_malformed("fuzzy"), as_json=st.booleans())
    def test_fuzzy_build(self, tmp_path_factory, text, as_json):
        path = tmp_path_factory.getbasetemp() / "fuzz_fuzzy.json"
        self._run(path, "fuzzy-build", "--instance", as_json, text)

    @settings(max_examples=100, deadline=None)
    @given(
        text=_FORMULA_TEXT,
        command=st.sampled_from(["parse", "eval", "validity", "frame-validity"]),
        as_json=st.booleans(),
    )
    def test_formula_commands(self, text, command, as_json):
        json_flag = ["--json"] if as_json else []
        if command == "parse":
            argv = ["parse", *json_flag, "--", text]
        elif command == "frame-validity":
            argv = [command, *json_flag, "--frame", "two_forward", f"--formula={text}"]
        else:
            argv = [command, *json_flag, "--algebra", "chain3", f"--formula={text}"]
            if command == "eval":
                argv += ["--set", "p=m", "--set", "q=1"]
        self._main(argv, as_json)


# --bounds entries near valid ones: every key, with small sizes and
# deadlines, and values and shapes that must be refused
_BOUNDS_ENTRY = st.one_of(
    st.tuples(
        st.sampled_from(["size", "vars", "pairs", "seconds", "frames", "Size", " pairs", ""]),
        st.sampled_from(["1", "2", "3", "4", "0", "-1", "0.02", "1.5", "nan", "inf", "x", ""]),
    ).map("=".join),
    st.sampled_from(["size", "=", "", "size==2", "pairs=1=2", "seconds=1e-9"]),
)
# --set entries near var=element on chain3, whose elements are 0, m and 1
_SET_ENTRY = st.tuples(
    st.sampled_from(["p", "q", "r", "", " p", "P"]),
    st.sampled_from(["=", "", "==", " = "]),
    st.sampled_from(["0", "m", "1", "zz", "", "p", "1=1"]),
).map("".join)


class TestOptionFuzz:
    """Drawn --bounds, --set and --vars values exit 0, 1, 2 or 3, never
    with a traceback.  Every search carries a deadline of at most 0.05 s."""

    @staticmethod
    def _main(argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (cli.OK, cli.FOUND, cli.USAGE, cli.TIMEOUT), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == cli.USAGE:
            assert err.getvalue().startswith("error: ") and out.getvalue() == ""
        return code

    @staticmethod
    def _bounds(entries, seconds):
        # the deadline goes at a drawn place; a drawn seconds= makes it a repeat
        entries = list(entries)
        entries.insert(seconds[0] % (len(entries) + 1), f"seconds={seconds[1]}")
        return "--bounds=" + ",".join(entries)

    _SECONDS = st.tuples(st.integers(0, 3), st.sampled_from(["0.01", "0.05"]))

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(_BOUNDS_ENTRY, max_size=3),
        seconds=_SECONDS,
        formula=st.sampled_from(["p -> H F p", "G (p | q) -> G p | F q", "p1 & p2 & p3 & p4"]),
    )
    def test_search_bounds(self, entries, seconds, formula):
        self._main(["search", "--formula", formula, self._bounds(entries, seconds)])

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(_BOUNDS_ENTRY, max_size=3),
        seconds=_SECONDS,
        direction=st.sampled_from(["forward", "backward", "either"]),
    )
    def test_equiv_bounds(self, entries, seconds, direction):
        argv = ["equiv", "--laws-a", "fs1", "--laws-b", "dunn2_dia", "--direction", direction]
        self._main([*argv, self._bounds(entries, seconds)])

    @settings(max_examples=60, deadline=None)
    @given(sets=st.lists(_SET_ENTRY, max_size=3), as_json=st.booleans())
    def test_eval_sets(self, sets, as_json):
        argv = ["eval", *(["--json"] if as_json else []), "--algebra", "chain3"]
        self._main([*argv, "--formula", "p -> q", *(f"--set={entry}" for entry in sets)])

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from([
            ["validity", "--algebra", "chain3_identity"],
            ["frame-validity", "--frame", "two_chain_r_leq"],
        ]),
        formula=st.sampled_from(["top", "~ bot", "p -> q", "G p -> p", "p1 & p2 & p3 & p4 & p5"]),
        cap=st.one_of(st.integers(-(2**70), -1), st.just(0), st.integers(1, 6), st.integers(2**31)),
        as_json=st.booleans(),
    )
    def test_var_caps(self, command, formula, cap, as_json):
        argv = [*command, *(["--json"] if as_json else []), "--formula", formula]
        code = self._main([*argv, f"--vars={cap}"])
        assert (code == cli.USAGE) == (cap < 0 or len(variables_of(parse_formula(formula))) > cap)


def test_installed_console_script():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "tenselab"
    assert project["version"] == tenselab.__version__
    target = project["scripts"]["tenselab"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main

    argv = ["eval", "--algebra", "chain3", "--formula", "p -> q",
            "--set", "p=1", "--set", "q=m"]
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
    src = str(Path(tenselab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [([sys.executable, "-c", wrapper, *argv],
             dict(os.environ, PYTHONPATH=pythonpath))]
    installed = shutil.which("tenselab")
    if installed:
        runs.append(([installed, *argv], None))

    for command, env in runs:
        result = subprocess.run(command, capture_output=True, text=True, env=env)
        assert (result.returncode, result.stdout, result.stderr) == (0, "m\n", "")
