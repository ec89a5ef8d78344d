import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multloc
from multloc.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMu:
    def test_value(self, capsys):
        code, out, _ = run_cli(["mu", "4"], capsys)
        assert code == 0
        assert "mu: 6" in out

    def test_structured(self, capsys):
        code, out, _ = run_cli(["mu", "7", "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["mu"] == 16

    def test_zero(self, capsys):
        code, out, _ = run_cli(["mu", "0"], capsys)
        assert code == 0
        assert "mu: 0" in out


class TestDistinguish:
    @pytest.fixture
    def diamond(self, tmp_path):
        doc = {"primes": ["q", "p1", "p2", "m"],
               "covers": [["q", "p1"], ["q", "p2"], ["p1", "m"], ["p2", "m"]]}
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.fixture
    def chain1(self, tmp_path):
        doc = {"primes": ["a", "b"], "covers": [["a", "b"]]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_dim2_passes(self, diamond, capsys):
        code, out, _ = run_cli(["distinguish", diamond, "--mode", "dim2",
                                "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["pass"] and len(doc["subsets"]) == 2

    def test_dim1_on_chain(self, chain1, capsys):
        code, out, _ = run_cli(["distinguish", chain1, "--mode", "dim1",
                                "--format", "structured"], capsys)
        assert code == 0
        assert len(json.loads(out)["subsets"]) == 1

    def test_dimension_mismatch_exit_code(self, chain1, capsys):
        code, out, _ = run_cli(["distinguish", chain1, "--mode", "wave:3"],
                               capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["distinguish", "/nonexistent.json"], capsys)
        assert code == 2


class TestArtinian:
    def test_pass(self, capsys):
        code, out, _ = run_cli(["artinian", "--s", "3", "--t", "1,1",
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_not_in_s1(self, capsys):
        code, _, _ = run_cli(["artinian", "--s", "0", "--t", "0,1"], capsys)
        assert code == 1

    def test_not_in_s2(self, capsys):
        code, _, _ = run_cli(["artinian", "--s", "2", "--t", "0,2"], capsys)
        assert code == 1

    def test_gfp_base(self, capsys):
        # over F_2[t]: s = t^2 + t, f = x + t
        code, out, _ = run_cli(["artinian", "--base", "gfp:2",
                                "--s", "0,1,1", "--t", "0,1;1",
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] is True


class TestComplete:
    def test_z12_by_2(self, capsys):
        code, out, _ = run_cli(["complete", "--module", "12",
                                "--generators", "2", "--depth", "8",
                                "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["stages"][0] == [2]
        assert doc["delta"]["delta_invariants"] == [4]

    def test_z5_by_2(self, capsys):
        code, out, _ = run_cli(["complete", "--module", "5",
                                "--generators", "2", "--depth", "8",
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["delta"]["delta_invariants"] == []

    def test_trivial_generator(self, capsys):
        code, out, _ = run_cli(["complete", "--module", "0",
                                "--generators", "1", "--depth", "8",
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["delta"]["delta_invariants"] == []

    def test_free_not_stabilized(self, capsys):
        code, out, _ = run_cli(["complete", "--module", "0",
                                "--generators", "2", "--depth", "8",
                                "--format", "structured"], capsys)
        assert code == 1
        assert "not_stabilized" in json.loads(out)["delta"]

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_is_a_usage_error(self, depth, capsys):
        code, out, err = run_cli(["complete", "--module", "12",
                                  "--generators", "2", "--depth", depth], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "depth" in err


class TestTelescope:
    def test_matrix_and_homology(self, capsys):
        code, out, _ = run_cli(["telescope", "--generators", "2,3", "-n", "2",
                                "--module", "10", "--format", "structured"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["differential"] == [[1, 0], [-2, 1]]
        assert doc["homology"]["pass"]


class TestWcCheck:
    def test_torsion(self, capsys):
        code, out, _ = run_cli(["wc-check", "--module", "36", "-m", "2",
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["decision"] is True

    def test_free(self, capsys):
        code, out, _ = run_cli(["wc-check", "--module", "0", "-m", "2",
                                "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] is False
        assert doc["free_part_growth"][0] == [2]


class TestVerifyCert:
    def test_valid_certificate(self, tmp_path, capsys):
        from multloc.certs import decompose_weakly_cotorsion
        from multloc.fpmod import FPModule
        cert = decompose_weakly_cotorsion(FPModule.from_invariants([8]), 2)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_document()))
        code, out, _ = run_cli(["verify-cert", str(path),
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["level"] == 1

    def test_malformed_tree(self, tmp_path, capsys):
        doc = {"root": {"kind": "Extension", "level": 1,
                        "children": [{"kind": "Seed", "level": 1,
                                      "tag": {"kind": "Custom", "label": "x"},
                                      "children": []}]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify-cert", str(path),
                                "--format", "structured"], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "MalformedTree"

    def test_level_violation_detected(self, tmp_path, capsys):
        from multloc.certs import embed_two_obtainable
        from multloc.fpmod import FPModule
        cert = embed_two_obtainable(FPModule.from_invariants([2], modulus=4))
        doc = cert.to_document()
        doc["root"]["level"] = 1
        path = tmp_path / "lv.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify-cert", str(path),
                                "--format", "structured"], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "LevelViolation"

    @pytest.mark.parametrize("doc, where", [
        ([], "document"),
        ({}, "document"),
        ({"root": []}, "root: node"),
        ({"root": {"kind": 3, "level": 1}}, "root: kind"),
        ({"root": {"kind": "Seed", "level": "1"}}, "root: level"),
        ({"root": {"kind": "Seed", "level": True}}, "root: level"),
        ({"root": {"kind": "FiniteProduct", "level": 1, "children": 5}}, "root: children"),
        ({"root": {"kind": "FiniteProduct", "level": 1, "children": [7]}}, "root.0: node"),
        ({"root": {"kind": "Seed", "level": 1, "tag": []}}, "root: tag"),
        ({"root": {"kind": "Seed", "level": 1, "payload": 4}}, "root: payload"),
    ])
    def test_malformed_document_is_a_usage_error(self, doc, where, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify-cert", str(path)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and where in err

    def test_with_orthogonality_tests(self, tmp_path, capsys):
        from multloc.certs import embed_two_obtainable
        from multloc.fpmod import FPModule
        cert = embed_two_obtainable(FPModule.from_invariants([3], modulus=12))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_document()))
        tests = [{"gens": 1, "modulus": 12, "relations": [[4]]}]
        tpath = tmp_path / "tests.json"
        tpath.write_text(json.dumps(tests))
        code, out, _ = run_cli(["verify-cert", str(path), "--tests", str(tpath),
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["orthogonality"]["pass"]


class TestBatteryCLI:
    def test_quick_battery_deterministic_across_processes(self):
        cmd = [sys.executable, "-m", "multloc.cli", "battery", "--quick",
               "--seed", "42", "--format", "structured"]
        # the child imports the same package as this process, also when only
        # pytest's ``pythonpath`` setting put it on the path
        src = str(Path(multloc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        r1 = subprocess.run(cmd, capture_output=True, timeout=590, env=env)
        r2 = subprocess.run(cmd, capture_output=True, timeout=590, env=env)
        assert r1.returncode == 0, r1.stderr.decode()[:2000]
        assert r1.stdout == r2.stdout
        doc = json.loads(r1.stdout)
        assert doc["all_pass"]
        assert doc["rule_refs"]["2"]
