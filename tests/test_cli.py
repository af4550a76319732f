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
from pathlib import Path

import pytest

import tenselab
from tenselab import cli, formats
from tenselab.algebra import AlgebraWithOps
from tenselab.syntax import parse_formula


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
        code, out, err = run(
            capsys, "eval", "--formula", "p", "--algebra", "chain3", "--set", "p=zz"
        )
        assert code == cli.USAGE
        assert "unknown" in err


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
        ["size", "shoes=2", "size=two", "size=9", "frames=4"],
    )
    def test_bad_bounds(self, capsys, bounds):
        code, out, err = run(
            capsys, "search", "--formula", "p -> p", "--bounds", bounds
        )
        assert code == cli.USAGE
        assert err.startswith("error:")

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


def test_installed_console_script():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tenselab"]
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
