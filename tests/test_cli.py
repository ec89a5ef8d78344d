import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multloc
from multloc.battery import GENERATOR_SETS
from multloc.cli import BROKEN_PIPE, main
from multloc.towers import (DEFAULT_DEPTH, MultSubsetSeq, certified_depth,
                            cyclic_completion_oracle)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """Environment for a ``python -m multloc.cli`` child that imports the
    same package as this process, also when only pytest's ``pythonpath``
    setting put it on the path."""
    src = str(Path(multloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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

    @pytest.mark.parametrize("doc, where", [
        ([1], "poset document"),
        ({"primes": 3, "covers": []}, "primes"),
        ({"primes": ["a", 2], "covers": []}, "primes"),
        ({"covers": []}, "primes"),
        ({"primes": ["a", "b"], "covers": [5]}, "covers"),
        ({"primes": ["a", "b"], "covers": [["a"]]}, "covers"),
        ({"primes": ["a", "b"], "covers": {"a": "b"}}, "covers"),
        ({"primes": ["a\nb"], "covers": [["a\nb", "x"]]}, "unknown prime"),
        ({"primes": ["a\nb"], "covers": [["a\nb", "a\nb"]]}, "irreflexive"),
    ])
    def test_malformed_poset(self, doc, where, tmp_path, capsys):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["distinguish", str(path)], capsys)
        _usage_error(code, out, err, where)


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

    @pytest.mark.parametrize("args", [
        ["--s", "2", "--t", "0"],
        ["--s", "2", "--t", ""],
        ["--s", "2", "--t", "0,0"],
        ["--base", "gfp:5", "--s", "1", "--t", "0"],
    ])
    def test_zero_t_is_not_in_s2(self, args, capsys):
        code, out, err = run_cli(["artinian", *args, "--format", "structured"], capsys)
        assert code == 1 and err == ""
        assert json.loads(out) == {"error": {
            "kind": "NotInS2", "message": "t must have content 1, got the zero polynomial"}}

    def test_gfp_base(self, capsys):
        # over F_2[t]: s = t^2 + t, f = x + t
        code, out, _ = run_cli(["artinian", "--base", "gfp:2",
                                "--s", "0,1,1", "--t", "0,1;1",
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_unknown_base(self, capsys):
        code, out, err = run_cli(["artinian", "--base", "foo", "--s", "1", "--t", "1,1"],
                                 capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--base" in err

    def test_large_prime_base(self, capsys):
        # a 19-digit prime: primality must not take trial division
        code, out, _ = run_cli(["artinian", "--base", "gfp:1000000000000000003",
                                "--s", "1,1", "--t", "1;1", "--format", "structured"],
                               capsys)
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

    def test_default_depth_certifies_battery_cyclic_inputs(self, capsys):
        # without --depth the tower goes to the largest certified depth of
        # the module's factors, at least 12: the 122 inputs that need more
        # answer the oracle's Lambda (44 of them did not stabilize at 12),
        # and every other input prints what an explicit --depth 12 prints
        deeper = failed_at_12 = 0
        for d in range(1, 65):
            for gens in GENERATOR_SETS:
                args = ["complete", "--module", str(d), "--generators",
                        ",".join(map(str, gens)), "--format", "structured"]
                code, out, _ = run_cli(args, capsys)
                assert code == 0, (d, gens)
                assert (tuple(json.loads(out)["delta"]["lambda_invariants"])
                        == cyclic_completion_oracle(d, gens)["lambda"]), (d, gens)
                at_12 = run_cli(args + ["--depth", "12"], capsys)
                if certified_depth(d, MultSubsetSeq(generators=gens)) <= DEFAULT_DEPTH:
                    assert at_12 == (code, out, ""), (d, gens)
                else:
                    deeper += 1
                    failed_at_12 += at_12[0] != 0
        assert (deeper, failed_at_12) == (122, 44)

    def test_default_depth_z64(self, capsys):
        code, out, _ = run_cli(["complete", "--module", "64", "--generators", "3,5,6",
                                "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["stages"]) == certified_depth(64, MultSubsetSeq((3, 5, 6))) == 39
        assert doc["delta"]["lambda_invariants"] == [64]

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

    @pytest.mark.parametrize("module", ["0", "36", "0,4"])
    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_depth_below_one_is_a_usage_error(self, module, depth, capsys):
        code, out, err = run_cli(["wc-check", "--module", module, "-m", "2",
                                  "--depth", depth], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "depth" in err


class TestModuleLiteral:
    """A --module factor must be nonnegative and, over Z/N, divide N;
    otherwise the command would answer for a different module."""

    @pytest.mark.parametrize("args, message", [
        (["complete", "--module", "12", "--modulus", "8", "--generators", "2"],
         "factor 12 does not divide --modulus 8"),
        (["complete", "--module", "2,5", "--modulus", "12", "--generators", "2"],
         "factor 5 does not divide --modulus 12"),
        (["telescope", "--module", "4", "--modulus", "6", "--generators", "2", "-n", "2"],
         "factor 4 does not divide --modulus 6"),
        (["complete", "--module=-4", "--generators", "2"], "factor -4 is negative"),
        (["telescope", "--module=-10", "--generators", "2", "-n", "2"],
         "factor -10 is negative"),
        (["wc-check", "--module=-36", "-m", "2"], "factor -36 is negative"),
    ])
    def test_rejected_with_one_line(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_free_summand_and_divisors_over_z_mod_n(self, capsys):
        code, out, _ = run_cli(["complete", "--module", "4,0", "--modulus", "8",
                                "--generators", "2", "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["delta"]["lambda_invariants"] == [4, 8]
        assert run_cli(["complete", "--module", "4,3", "--modulus", "12",
                        "--generators", "2"], capsys)[0] == 0


class TestNegativeListValues:
    """A list value that starts with a minus sign may follow its option as a
    separate argument, as well as after '='; both print the same."""

    @pytest.mark.parametrize("option, value, rest", [
        ("--generators", "-1,2", ["complete", "--module", "12"]),
        ("--generators", "-1,2", ["complete", "--module", "12", "--depth", "6"]),
        ("--generators", "-2", ["complete", "--module", "0", "--depth", "4"]),
        ("--generators", "-1,2", ["telescope", "-n", "2"]),
        ("--generators", "-3,2", ["telescope", "-n", "3", "--module", "6"]),
        ("--t", "-1,1", ["artinian", "--s", "3"]),
        ("--s", "-3", ["artinian", "--t", "1,1"]),
        ("--t", "-1;1", ["artinian", "--base", "gfp:3", "--s", "1"]),
    ])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_separate_argument_as_with_equals(self, option, value, rest, fmt, capsys):
        tail = ["--format", fmt]
        separate = run_cli(rest + [option, value] + tail, capsys)
        assert separate[0] != 2 and separate[1] and separate[2] == ""
        assert separate == run_cli(rest + [f"{option}={value}"] + tail, capsys)

    def test_negative_factor_rejected_either_way(self, capsys):
        for args in (["--module", "-4"], ["--module=-4"]):
            code, out, err = run_cli(["complete", *args, "--generators", "2"], capsys)
            assert (code, out) == (2, "") and "factor -4 is negative" in err

    def test_other_options_keep_their_value(self, capsys):
        # a negative value after an option that takes none stays an argument
        code, _, err = run_cli(["battery", "--quick", "-1"], capsys)
        assert code == 2 and "unrecognized arguments: -1" in err


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

    def test_certificate_over_two_rings(self, tmp_path, capsys):
        def z2_over_z2():
            return {"kind": "Seed", "level": 1, "children": [],
                    "tag": {"kind": "Custom", "label": "z2"},
                    "payload": {"module": {"gens": 1, "modulus": 2, "relations": [[2]]}}}
        doc = {"root": {"kind": "Extension", "level": 1,
                        "children": [z2_over_z2(), z2_over_z2()],
                        "payload": {"module": {"gens": 1, "modulus": 4, "relations": [[4]]},
                                    "inject": [[2]], "project": [[1]]}}}
        path = tmp_path / "rings.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify-cert", str(path), "--format", "structured"],
                               capsys)
        assert code == 1
        assert json.loads(out) == {
            "level": 1, "rule_refs": ["obtainability-certificate-soundness"],
            "error": {"kind": "PayloadMismatch",
                      "message": "root.0: module has modulus 2, not the root's 4"}}

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

    def test_orthogonality_precondition_failure(self, tmp_path, capsys):
        # Z/2 over Z/8 has a nonzero first extension group against the seed Z/4
        from multloc.certs import embed_two_obtainable
        from multloc.fpmod import FPModule
        cert = embed_two_obtainable(FPModule.from_invariants([2], modulus=8))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert.to_document()))
        tpath = tmp_path / "tests.json"
        tpath.write_text(json.dumps([{"gens": 1, "modulus": 8, "relations": [[2]]}]))
        code, out, err = run_cli(["verify-cert", str(path), "--tests", str(tpath),
                                  "--format", "structured"], capsys)
        assert code == 1 and err == ""
        assert json.loads(out)["error"]["kind"] == "PreconditionFailed"


def _usage_error(code, out, err, where):
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and where in err


# every argument that names a file to read; FILE stands for it and CERT for
# a valid certificate
FILE_ARGUMENTS = {
    "distinguish": ["distinguish", "FILE"],
    "verify-cert": ["verify-cert", "FILE"],
    "verify-cert --tests": ["verify-cert", "CERT", "--tests", "FILE"],
    "complete --presentation": ["complete", "--generators", "2", "--presentation", "FILE"],
    "wc-check --presentation": ["wc-check", "-m", "2", "--presentation", "FILE"],
}


class TestUnreadableInput:
    """A path that is not a readable file, or a document nested deeper than
    the JSON reader recurses, is a usage error with one line on stderr,
    for every argument that names a file."""

    @pytest.fixture
    def command(self, request, tmp_path):
        from multloc.certs import decompose_weakly_cotorsion
        from multloc.fpmod import FPModule
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(
            decompose_weakly_cotorsion(FPModule.from_invariants([8]), 2).to_document()))
        args = [str(cert) if a == "CERT" else a for a in FILE_ARGUMENTS[request.param]]
        return lambda path: [str(path) if a == "FILE" else a for a in args]

    @pytest.mark.parametrize("command", FILE_ARGUMENTS, indirect=True)
    def test_directory(self, command, tmp_path, capsys):
        code, out, err = run_cli(command(tmp_path), capsys)
        _usage_error(code, out, err, "IsADirectoryError")

    @pytest.mark.parametrize("command", FILE_ARGUMENTS, indirect=True)
    def test_missing_file(self, command, tmp_path, capsys):
        code, out, err = run_cli(command(tmp_path / "absent.json"), capsys)
        _usage_error(code, out, err, "FileNotFoundError")

    @pytest.mark.parametrize("command", FILE_ARGUMENTS, indirect=True)
    def test_deeply_nested_document(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        code, out, err = run_cli(command(path), capsys)
        _usage_error(code, out, err, "RecursionError")

    def test_deeply_nested_certificate(self, tmp_path, capsys):
        # 700 nodes, each an object holding a list of children: 1,400 levels
        node = '{"kind": "FiniteProduct", "level": 1, "children": ['
        path = tmp_path / "deep.json"
        path.write_text('{"root": ' + node * 700 + '{"kind": "Seed", "level": 1}'
                        + "]}" * 700 + "}")
        code, out, err = run_cli(["verify-cert", str(path)], capsys)
        _usage_error(code, out, err, "RecursionError")


class TestModulePayloads:
    """One parser for certificate payloads, --presentation and --tests."""

    def test_presentation_defaults(self, tmp_path, capsys):
        path = tmp_path / "z12.json"
        path.write_text(json.dumps({"gens": 1, "relations": [[12]]}))
        code, out, _ = run_cli(["complete", "--presentation", str(path),
                                "--generators", "2", "--depth", "8",
                                "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["delta"]["delta_invariants"] == [4]

    @pytest.mark.parametrize("command", [
        ["complete", "--generators", "2"],
        ["wc-check", "-m", "2"],
    ])
    @pytest.mark.parametrize("doc, where", [
        ({"gens": 1, "relations": 7}, "presentation: relations"),
        ({"gens": 1, "relations": [[1.5]]}, "presentation: relations"),
        ({"gens": 1, "relations": [[True]]}, "presentation: relations"),
        ({"gens": 2, "relations": [[3]]}, "presentation: relations"),
        ({"gens": 1, "relations": [5]}, "presentation: relations"),
        ({"gens": "1"}, "presentation: gens"),
        ({"gens": -1}, "presentation: gens"),
        ({"relations": [[4]]}, "presentation: gens"),
        ({"gens": 1, "modulus": -4}, "presentation: modulus"),
        ({"gens": 1, "modulus": False}, "presentation: modulus"),
        ([[4]], "presentation: module"),
    ])
    def test_malformed_presentation(self, command, doc, where, tmp_path, capsys):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(command + ["--presentation", str(path)], capsys)
        _usage_error(code, out, err, where)

    @staticmethod
    def _cert_doc():
        from multloc.certs import decompose_weakly_cotorsion
        from multloc.fpmod import FPModule
        return decompose_weakly_cotorsion(FPModule.from_invariants([8]), 2).to_document()

    @pytest.mark.parametrize("module, where", [
        ({"gens": 1, "modulus": 0, "relations": 5}, "root.payload.module: relations"),
        ({"gens": 1, "modulus": 0, "relations": [[2.0]]}, "root.payload.module: relations"),
        ({"gens": 1, "modulus": 0, "relations": [[2, 0]]}, "root.payload.module: relations"),
        ({"gens": True, "modulus": 0, "relations": []}, "root.payload.module: gens"),
        ({"gens": 1, "modulus": "8", "relations": []}, "root.payload.module: modulus"),
        ({"gens": 1, "relations": [[8]]}, "root.payload.module: modulus"),
        (8, "root.payload.module: module"),
    ])
    def test_malformed_payload_module(self, module, where, tmp_path, capsys):
        doc = self._cert_doc()
        doc["root"]["payload"]["module"] = module
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify-cert", str(path)], capsys)
        _usage_error(code, out, err, where)

    @pytest.mark.parametrize("stages, where", [
        (3, "root.payload.stages: stages"),
        ([{"gens": 1, "modulus": 0, "relations": [[1, 2]]}], "root.payload.stages.0: relations"),
    ])
    def test_malformed_payload_stages(self, stages, where, tmp_path, capsys):
        doc = self._cert_doc()
        doc["root"]["payload"]["stages"] = stages
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify-cert", str(path)], capsys)
        _usage_error(code, out, err, where)

    @pytest.mark.parametrize("key, value", [
        ("map", 5), ("map", [["a"]]), ("map", [3]), ("into", "x"), ("retract", [[1.0]]),
        ("inject", [[True]]), ("project", None), ("transitions", 7), ("transitions", [5]),
        ("transitions", [[[1], ["b"]]]),
    ])
    def test_malformed_payload_map(self, key, value, tmp_path, capsys):
        doc = self._cert_doc()
        doc["root"]["payload"][key] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify-cert", str(path)], capsys)
        _usage_error(code, out, err, f"root.payload.{key}")

    @pytest.mark.parametrize("key, value", [
        ("s", "x"), ("s", 2.0), ("s", [2]), ("generators", 3), ("generators", ["2"]),
    ])
    def test_malformed_seed_tag(self, key, value, tmp_path, capsys):
        doc = self._cert_doc()
        seed = doc["root"]["children"][0]
        assert seed["tag"]["kind"] == "QuotientRingModule"
        seed["tag"][key] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify-cert", str(path)], capsys)
        _usage_error(code, out, err, f"root.0.tag.{key}")

    @pytest.mark.parametrize("tests, where", [
        ({"gens": 1, "modulus": 12, "relations": [[4]]}, "tests: must be a list"),
        ([{"gens": 1, "modulus": 12, "relations": [[4.0]]}], "tests.0: relations"),
        ([{"gens": 1, "modulus": 12, "relations": [[4]]}, {"gens": 1}], "tests.1: modulus"),
    ])
    def test_malformed_tests(self, tests, where, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(self._cert_doc()))
        tpath = tmp_path / "tests.json"
        tpath.write_text(json.dumps(tests))
        code, out, err = run_cli(["verify-cert", str(path), "--tests", str(tpath)], capsys)
        _usage_error(code, out, err, where)


# JSON values that are never what the slot they replace asks for
SCALARS = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
NOT_INT = st.one_of(SCALARS, st.lists(st.integers(), max_size=2))
NOT_NATURAL = st.one_of(NOT_INT, st.integers(max_value=-1))
NOT_ROWS = st.one_of(SCALARS, st.integers(), st.lists(st.integers(), min_size=1, max_size=3),
                     st.lists(st.lists(NOT_INT, min_size=1, max_size=2), min_size=1, max_size=2))
NOT_MATRICES = st.one_of(SCALARS, st.integers(), st.lists(NOT_ROWS, min_size=1, max_size=2))
NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.lists(st.text(max_size=2),
                                                                      max_size=2))
NOT_LIST = st.one_of(SCALARS, st.integers())
NOT_PAIR = st.one_of(NOT_LIST, st.lists(st.sampled_from(["a", "b"]), max_size=4)
                     .filter(lambda c: len(c) != 2),
                     st.lists(NOT_STR, min_size=2, max_size=2))


@functools.cache
def _fuzz_cert_doc() -> str:
    from multloc.certs import decompose_weakly_cotorsion
    from multloc.fpmod import FPModule
    return json.dumps(decompose_weakly_cotorsion(FPModule.from_invariants([8]), 2).to_document())


def _cert_case(where, key, value):
    doc = json.loads(_fuzz_cert_doc())
    slot = {"module": doc["root"]["payload"]["module"], "payload": doc["root"]["payload"],
            "tag": doc["root"]["children"][0]["tag"]}[where]
    slot[key] = value
    return ["verify-cert"], doc


def _poset_case(key, value):
    doc = {"primes": ["a", "b"], "covers": [["a", "b"]]}
    if key is None:
        return ["distinguish"], value
    doc[key] = value
    return ["distinguish"], doc


MALFORMED = st.one_of(
    st.builds(_cert_case, st.just("module"), st.sampled_from(["gens", "modulus"]), NOT_NATURAL),
    st.builds(_cert_case, st.just("module"), st.just("relations"), NOT_ROWS),
    st.builds(_cert_case, st.just("payload"),
              st.sampled_from(["into", "retract", "inject", "project", "map"]), NOT_ROWS),
    st.builds(_cert_case, st.just("payload"), st.just("transitions"), NOT_MATRICES),
    st.builds(_cert_case, st.just("tag"), st.just("s"), NOT_INT),
    st.builds(_cert_case, st.just("tag"), st.just("generators"),
              st.one_of(NOT_LIST, st.lists(NOT_INT, min_size=1, max_size=2))),
    st.builds(_poset_case, st.none(), st.one_of(NOT_LIST, st.lists(st.integers(), max_size=2))),
    st.builds(_poset_case, st.just("primes"),
              st.one_of(NOT_LIST, st.lists(NOT_STR, min_size=1, max_size=2))),
    st.builds(_poset_case, st.just("covers"),
              st.one_of(NOT_LIST, st.lists(NOT_PAIR, min_size=1, max_size=2))),
    st.builds(lambda key, value: (["complete", "--generators", "2", "--presentation"],
                                  {"gens": 1, key: value}),
              st.sampled_from(["gens", "modulus"]), NOT_NATURAL),
    st.builds(lambda value: (["complete", "--generators", "2", "--presentation"],
                             {"gens": 1, "relations": value}), NOT_ROWS),
)


class TestParserFuzz:
    """Certificate, module and poset documents: every malformed value is a
    usage error with one line on stderr, never a traceback."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=MALFORMED)
    def test_malformed_documents_exit_2(self, case, tmp_path, capsys):
        command, doc = case
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(command + [str(path)], capsys)
        assert code == 2 and out == "", (doc, out)
        assert len(err.splitlines()) == 1, err


# Any JSON value, to put in place of one slot of a generated document.
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-40, max_value=40),
              st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def _slots(doc):
    """Every (container, key) of a JSON document, outermost first."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        out += _slots(value)
    return out


@st.composite
def _documents(draw, base):
    """``base`` (two times in three), or a copy with one slot (or the whole)
    replaced by any JSON value."""
    doc = json.loads(json.dumps(base))
    how = draw(st.sampled_from(["keep", "keep", "slot", "slot", "slot", "whole"]))
    if how == "keep":
        return doc
    slots = _slots(doc)
    value = draw(ANY_JSON)
    if how == "whole" or not slots:
        return value
    container, key = draw(st.sampled_from(slots))
    container[key] = value
    return doc


@functools.cache
def _certificate(kind: str, factors: tuple[int, ...], n: int) -> dict:
    from multloc.certs import decompose_weakly_cotorsion, embed_two_obtainable
    from multloc.fpmod import FPModule
    if kind == "decompose":
        cert = decompose_weakly_cotorsion(FPModule.from_invariants(factors), n)
    else:
        cert = embed_two_obtainable(FPModule.from_invariants(factors, modulus=n))
    return cert.to_document()


CERTIFICATES = st.one_of(
    st.builds(lambda f, m: _certificate("decompose", f, m),
              st.sampled_from([(8,), (12,), (2, 4), (9,), (5,), (6, 36), (3, 9, 27)]),
              st.sampled_from([2, 3, 6])),
    st.builds(lambda f, n: _certificate("embed", f, n),
              st.sampled_from([(2,), (4,), (2, 6), (3, 12)]), st.just(12)),
    st.builds(lambda f: _certificate("embed", f, 8), st.sampled_from([(2,), (8,), (2, 4)])),
).flatmap(_documents)

PRESENTATIONS = st.builds(
    lambda gens, modulus, rows: {"gens": gens, "modulus": modulus,
                                 "relations": [r[:gens] for r in rows]},
    st.integers(min_value=0, max_value=3), st.sampled_from([0, 0, 0, 12, 36]),
    st.lists(st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
             max_size=3)).flatmap(_documents)

TEST_MODULES = st.lists(
    st.builds(lambda d: {"gens": 1, "modulus": 12, "relations": [[d]]},
              st.sampled_from([0, 2, 3, 4, 6])), max_size=3).flatmap(_documents)

# covers go from a lower to a higher index, so the relation has no cycle
POSETS = st.builds(
    lambda primes, pairs: {"primes": primes,
                           "covers": sorted({(primes[min(i, j)], primes[max(i, j)])
                                             for i, j in ((a % len(primes), b % len(primes))
                                                          for a, b in pairs) if i != j})},
    st.lists(st.sampled_from("pqrstu"), min_size=1, max_size=5, unique=True),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6)).flatmap(_documents)

# what stands where a command reads a file: a generated document, or a
# path that is not a readable JSON file
NOT_FILES = st.sampled_from(["directory", "missing", "deep", "empty", "bytes"])


def _write_input(tmp_path, name, content):
    path = tmp_path / name
    if content == "directory":
        path = tmp_path / (name + ".d")
        path.mkdir(exist_ok=True)
    elif content == "missing":
        path = tmp_path / (name + ".absent")
    elif content == "deep":
        path.write_text("[" * 3000 + "]" * 3000)
    elif content == "empty":
        path.write_text("")
    elif content == "bytes":
        path.write_bytes(b"\xff\xfe{\x00")
    else:
        path.write_text(json.dumps(content[1]))
    return str(path)


def _documents_or(strategy):
    return st.one_of(strategy.map(lambda doc: ("doc", doc)), NOT_FILES)


INVOCATIONS = st.one_of(
    st.tuples(st.just("verify-cert"), _documents_or(CERTIFICATES),
              st.one_of(st.none(), _documents_or(TEST_MODULES))),
    st.tuples(st.sampled_from(["complete", "wc-check"]), _documents_or(PRESENTATIONS),
              st.tuples(st.lists(st.sampled_from([-6, -2, 1, 2, 3, 5, 6, 10]), min_size=1,
                                 max_size=3),
                        st.one_of(st.none(), st.integers(min_value=0, max_value=30)))),
    st.tuples(st.just("distinguish"), _documents_or(POSETS),
              st.sampled_from(["mu", "mu", "dim1", "dim2", "wave:1", "wave:2", "wave:x"])),
)


class TestCommandsProperty:
    """Every command that reads a file, driven through ``main`` with generated
    certificates, presentations, posets, ``--tests`` lists and paths that
    are not files: the exit code is 0, 1 or 2, exit 2 prints one line on
    stderr, and nothing ends in a traceback."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(invocation=INVOCATIONS, structured=st.booleans())
    def test_exit_codes_and_messages(self, invocation, structured, tmp_path, capsys):
        command, content, extra = invocation
        path = _write_input(tmp_path, "input.json", content)
        if command == "verify-cert":
            args = ["verify-cert", path]
            if extra is not None:
                args += ["--tests", _write_input(tmp_path, "tests.json", extra)]
        elif command == "distinguish":
            args = ["distinguish", path, "--mode", extra]
        else:
            gens, depth = extra
            args = [command, "--presentation", path]
            args += (["--generators", ",".join(map(str, gens))] if command == "complete"
                     else ["-m", str(abs(gens[0]))])
            if depth is not None:
                args += ["--depth", str(depth)]
        if structured:
            args += ["--format", "structured"]
        code, out, err = run_cli(args, capsys)
        assert code in (0, 1, 2), (args, code, err)
        assert "Traceback" not in out + err, err
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1, (args, out, err)


class TestBatteryCLI:
    def test_quick_battery_deterministic_across_processes(self):
        cmd = [sys.executable, "-m", "multloc.cli", "battery", "--quick",
               "--seed", "42", "--format", "structured"]
        env = child_env()
        r1 = subprocess.run(cmd, capture_output=True, timeout=590, env=env)
        r2 = subprocess.run(cmd, capture_output=True, timeout=590, env=env)
        assert r1.returncode == 0, r1.stderr.decode()[:2000]
        assert r2.returncode == 0, r2.stderr.decode()[:2000]
        doc, doc2 = json.loads(r1.stdout), json.loads(r2.stdout)
        # criteria 1, 2, 4, 5 and 8 carry wall-clock pass flags, so name
        # the criteria (and detail keys) that differ between the runs
        differing = {a["criterion"]: sorted(k for k in a["details"].keys() | b["details"].keys()
                                            if a["details"].get(k) != b["details"].get(k))
                     for a, b in zip(doc["criteria"], doc2["criteria"]) if a != b}
        assert r1.stdout == r2.stdout, f"criteria whose entries differ: {differing}"
        assert doc["all_pass"]
        assert doc["rule_refs"]["2"]


class TestBrokenPipe:
    @pytest.mark.parametrize("args", [
        ["mu", "3"],
        ["telescope", "--generators", "2,3", "-n", "2", "--module", "10",
         "--format", "structured"],
    ])
    def test_reader_gone_before_the_first_write(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run([sys.executable, "-m", "multloc.cli", *args],
                               stdout=write_end, stderr=subprocess.PIPE,
                               timeout=120, env=child_env())
        finally:
            os.close(write_end)
        assert "Traceback" not in r.stderr.decode(), r.stderr.decode()[:2000]
        assert r.returncode == BROKEN_PIPE
