import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multloc import battery, certs, towers
from multloc.battery import _embed_corpus, abelian_groups_upto
from multloc.certs import (
    CertNode,
    Certificate,
    LevelViolation,
    MalformedTree,
    NotWeaklyCotorsion,
    PayloadMismatch,
    PreconditionFailed,
    decompose_weakly_cotorsion,
    embed_two_obtainable,
    instantiate_and_check,
    orthogonality_battery,
    verify_certificate,
)
from multloc.fpmod import FPModule
from multloc.intlinalg import _saturate_divisor
from multloc.randomgen import coprime_split, projective_test_modules, random_certificate
from reference_routes import instantiate_and_check_nested


def seed(inv, modulus=0, tag=None):
    return CertNode(kind="Seed", level=1,
                    tag=tag or {"kind": "Custom", "label": "seed"},
                    payload={"module": FPModule.from_invariants(inv, modulus=modulus)})


class TestVerify:
    def test_single_seed(self):
        cert = Certificate(root=seed([2]))
        assert verify_certificate(cert) == 1

    def test_kernel_of_surjection_level2(self):
        root = CertNode(kind="KernelOfSurjection", level=2,
                        children=[seed([4]), seed([2])])
        assert verify_certificate(Certificate(root=root)) == 2

    def test_kernel_requires_level1_target(self):
        lvl2 = CertNode(kind="KernelOfSurjection", level=2,
                        children=[seed([4]), seed([2])])
        root = CertNode(kind="KernelOfSurjection", level=2,
                        children=[seed([4]), lvl2])
        with pytest.raises(LevelViolation):
            verify_certificate(Certificate(root=root))

    def test_cokernel_level_follows_target(self):
        lvl2 = CertNode(kind="KernelOfSurjection", level=2,
                        children=[seed([4]), seed([2])])
        # level-2 source into level-1 target: cokernel is level 1 (rule iv)
        ok = CertNode(kind="CokernelOfInjection", level=1,
                      children=[lvl2, seed([8])])
        assert verify_certificate(Certificate(root=ok)) == 1

    def test_cokernel_level2_target_claimed_1(self):
        lvl2a = CertNode(kind="KernelOfSurjection", level=2,
                         children=[seed([4]), seed([2])])
        lvl2b = CertNode(kind="KernelOfSurjection", level=2,
                         children=[seed([4]), seed([2])])
        bad = CertNode(kind="CokernelOfInjection", level=1,
                       children=[lvl2a, lvl2b])
        with pytest.raises(LevelViolation):
            verify_certificate(Certificate(root=bad))

    def test_claiming_level2_on_level1_is_fine(self):
        root = CertNode(kind="Extension", level=2, children=[seed([2]), seed([3])])
        assert verify_certificate(Certificate(root=root)) == 1

    def test_malformed_arity(self):
        bad = CertNode(kind="Extension", level=1, children=[seed([2])])
        with pytest.raises(MalformedTree):
            verify_certificate(Certificate(root=bad))

    def test_malformed_level_value(self):
        bad = CertNode(kind="Seed", level=3, tag={"kind": "Custom", "label": "x"},
                       payload={"module": FPModule.from_invariants([2])})
        with pytest.raises(MalformedTree):
            verify_certificate(Certificate(root=bad))

    def test_shared_node_rejected(self):
        s = seed([2])
        bad = CertNode(kind="Extension", level=1, children=[s, s])
        with pytest.raises(MalformedTree):
            verify_certificate(Certificate(root=bad))

    def test_seed_replacement_never_raises_level(self):
        rng = random.Random(4040)
        for _ in range(30):
            n = rng.choice([4, 8, 9, 12, 16, 24, 36])
            a, b = coprime_split(rng, n)
            cert = random_certificate(rng, n, a, depth=rng.randint(1, 3))
            before = verify_certificate(cert)
            # replace a random subtree by a seed with the same module
            nodes = []

            def collect(node):
                nodes.append(node)
                for c in node.children:
                    collect(c)

            collect(cert.root)
            victim = rng.choice(nodes)
            victim.kind = "Seed"
            victim.children = []
            victim.tag = {"kind": "Custom", "label": "replacement"}
            victim.level = 1
            victim.payload = {"module": victim.payload["module"]}
            after = verify_certificate(cert)
            assert after <= before


class TestInstantiate:
    def test_extension_z2_z4_z2(self):
        z2a = seed([2])
        z2b = seed([2])
        root = CertNode(kind="Extension", level=1, children=[z2a, z2b],
                        payload={"module": FPModule.from_invariants([4]),
                                 "inject": [[2]], "project": [[1]]})
        rep = instantiate_and_check(Certificate(root=root))
        assert rep["ok"] and rep["root_invariants"] == [4]

    def test_zero_map_claimed_injective(self):
        root = CertNode(kind="CokernelOfInjection", level=1,
                        children=[seed([2]), seed([2])],
                        payload={"module": FPModule.from_invariants([]),
                                 "map": [[0]]})
        with pytest.raises(PayloadMismatch):
            instantiate_and_check(Certificate(root=root))

    def test_product_z2_z3_is_z6(self):
        root = CertNode(kind="FiniteProduct", level=1,
                        children=[seed([2]), seed([3])],
                        payload={"module": FPModule.from_invariants([6])})
        rep = instantiate_and_check(Certificate(root=root))
        assert rep["ok"]

    def test_product_mismatch(self):
        root = CertNode(kind="FiniteProduct", level=1,
                        children=[seed([2]), seed([3])],
                        payload={"module": FPModule.from_invariants([4])})
        with pytest.raises(PayloadMismatch):
            instantiate_and_check(Certificate(root=root))

    def test_missing_payload(self):
        root = CertNode(kind="FiniteProduct", level=1, children=[seed([2])])
        with pytest.raises(PayloadMismatch):
            instantiate_and_check(Certificate(root=root))

    def test_seed_tag_annihilation_checked(self):
        bad = CertNode(kind="Seed", level=1,
                       tag={"kind": "QuotientRingModule", "s": 2},
                       payload={"module": FPModule.from_invariants([3])})
        with pytest.raises(PayloadMismatch):
            instantiate_and_check(Certificate(root=bad))

    def test_direct_summand_of_a_zero_child_is_a_mismatch(self):
        # Z/2 cannot be a summand of 0: the composite through the child is the
        # zero map, which is not the identity
        root = CertNode(kind="DirectSummand", level=1, children=[seed([])],
                        payload={"module": FPModule.from_invariants([2]),
                                 "into": [[]], "retract": []})
        with pytest.raises(PayloadMismatch, match="does not split"):
            instantiate_and_check(Certificate(root=root))

    def test_children_over_another_ring_are_a_mismatch(self):
        # inject and project check out on the presentations, but Z/2 over
        # Z/2 is not a module over Z/4
        root = CertNode(kind="Extension", level=1,
                        children=[seed([2], modulus=2), seed([2], modulus=2)],
                        payload={"module": FPModule.from_invariants([4], modulus=4),
                                 "inject": [[2]], "project": [[1]]})
        with pytest.raises(PayloadMismatch, match="^root.0: module has modulus 2, "
                                                  "not the root's 4$"):
            instantiate_and_check(Certificate(root=root))

    def test_tower_stage_over_another_ring_is_a_mismatch(self):
        cert = decompose_weakly_cotorsion(FPModule.from_invariants([8]), 2)
        stages = cert.root.payload["stages"]
        assert instantiate_and_check(cert)["ok"]
        stages[1] = FPModule(stages[1].gens, stages[1].relations, 8)
        with pytest.raises(PayloadMismatch, match="^root: stage 1 has modulus 8, "
                                                  "not the root's 0$"):
            instantiate_and_check(cert)

    def test_roundtrip_serialization(self):
        cert = decompose_weakly_cotorsion(FPModule.from_invariants([12]), 2)
        doc = cert.to_document()
        back = Certificate.from_document(doc)
        assert verify_certificate(back) == 1
        assert instantiate_and_check(back)["ok"]
        assert back.to_document() == doc


class TestDecompose:
    def test_z8_m2(self):
        cert = decompose_weakly_cotorsion(FPModule.from_invariants([8]), 2)
        assert cert.root.kind == "OmegaIteratedExtension"
        kernels = [c.payload["module"].invariants() for c in cert.root.children]
        assert kernels[:3] == [(2,), (2,), (2,)]
        assert kernels[-1] == ()
        assert verify_certificate(cert) == 1

    def test_z5_m2_is_localized_seed(self):
        cert = decompose_weakly_cotorsion(FPModule.from_invariants([5]), 2)
        assert cert.root.kind == "Seed"
        assert cert.root.tag["kind"] == "LocalizedRingModule"
        assert cert.root.payload["module"].invariants() == (5,)

    def test_z12_m2_mixed(self):
        cert = decompose_weakly_cotorsion(FPModule.from_invariants([12]), 2)
        assert cert.root.kind == "Extension"
        sub, quot = cert.root.children
        assert sub.kind == "Seed"
        assert sub.payload["module"].invariants() == (3,)
        assert quot.kind == "OmegaIteratedExtension"
        assert quot.payload["module"].invariants() == (4,)

    def test_rejects_free_rank(self):
        with pytest.raises(NotWeaklyCotorsion):
            decompose_weakly_cotorsion(FPModule.from_presentation([], gens=1), 2)

    def test_zero_module(self):
        cert = decompose_weakly_cotorsion(FPModule.zero(), 2)
        assert cert.root.kind == "Seed"

    def test_battery_small(self):
        rng = random.Random(99)
        for _ in range(20):
            inv = sorted(rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(1, 2)))
            m = rng.choice([2, 3, 6])
            cert = decompose_weakly_cotorsion(FPModule.from_invariants(inv), m)
            assert verify_certificate(cert) == 1
            assert instantiate_and_check(cert)["ok"]


class TestEmbed:
    def test_z2_over_z4(self):
        cert = embed_two_obtainable(FPModule.from_invariants([2], modulus=4))
        big, quot = cert.root.children
        assert big.payload["module"].invariants() == (4,)
        assert quot.payload["module"].invariants() == (2,)
        assert verify_certificate(cert) == 2

    def test_self_injective(self):
        cert = embed_two_obtainable(FPModule.from_invariants([12], modulus=12))
        big, quot = cert.root.children
        assert big.payload["module"].invariants() == (12,)
        assert quot.payload["module"].invariants() == ()

    def test_mixed_over_z12(self):
        cert = embed_two_obtainable(FPModule.from_invariants([2, 3], modulus=12))
        big, _ = cert.root.children
        assert big.payload["module"].invariants() == (2 * 3 * 2,)  # Z/4 + Z/3 = Z/12
        assert instantiate_and_check(cert)["ok"]

    def test_envelope_is_injective_by_baer(self):
        # Baer criterion over Z/N reduces to cyclic test modules Z/e
        from multloc.ext import ext1
        for n in (4, 12, 18):
            for d in range(2, n + 1):
                if n % d:
                    continue
                cert = embed_two_obtainable(FPModule.from_invariants([d], modulus=n))
                big = cert.root.children[0].payload["module"]
                for e in range(2, n + 1):
                    if n % e:
                        continue
                    probe = FPModule.from_invariants([e], modulus=n)
                    assert ext1(probe, big) == (), (n, d, e)


class TestOrthogonality:
    def test_projective_tests_pass(self):
        rng = random.Random(11)
        cert = random_certificate(rng, 12, 3, depth=2)
        tests = projective_test_modules(rng, 12, 4)
        rep = orthogonality_battery(cert, tests)
        assert rep["pass"]

    def test_precondition_failure_detected(self):
        # over Z/4, the test Z/2 against the seed Z/2 has a nonsplit extension
        cert = Certificate(root=seed([2], modulus=4))
        probe = FPModule.from_invariants([2], modulus=4)
        with pytest.raises(PreconditionFailed):
            orthogonality_battery(cert, [probe])

    def test_random_battery(self):
        rng = random.Random(2023)
        for _ in range(40):
            n = rng.choice([4, 6, 8, 9, 12, 16, 18, 24, 36])
            a, b = coprime_split(rng, n)
            cert = random_certificate(rng, n, a, depth=rng.randint(1, 4))
            tests = projective_test_modules(rng, n, b)
            rep = orthogonality_battery(cert, tests)
            assert rep["pass"], (n, a, b)


def _saturate_by_trial_division(d, n):
    """Product of the full prime powers of n over the primes dividing d."""
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if d % p == 0:
                out *= p ** e
        p += 1
    if m > 1 and d % m == 0:
        out *= m
    return out


def test_saturate_divisor_matches_trial_division():
    for n in range(1, 401):
        for d in range(0, 401):
            assert _saturate_divisor(d, n) == _saturate_by_trial_division(d, n), (d, n)


def test_saturate_divisor_64_bit_modulus():
    p, q = 2 ** 31 - 1, 4294967291          # primes; n is a 64-bit modulus
    n = 2 * p * q
    assert n.bit_length() == 64
    assert _saturate_divisor(2 * q, n) == 2 * q
    assert _saturate_divisor(p ** 3, n) == p
    assert _saturate_divisor(6, n) == 2
    assert _saturate_divisor(5, n) == 1
    assert _saturate_divisor(0, n) == n


# sha256 of json.dumps(documents, sort_keys=True).  The decompose documents
# carry kernel presentations and torsion transitions, so a change of basis in
# the linear algebra beneath them changes their bytes; the embed documents are
# built from invariant factors and stacked cokernel presentations, so theirs
# pin the invariants and the presentation layout.  The divisible-part seed
# of a decompose document is presented by its canonical relation HNF.
DECOMPOSE_DOCS_SHA256 = "a5594f009df474107471dc15c1bbcb2be59dd60b44a84b7753629886b50b2a5d"
EMBED_DOCS_SHA256 = "e3d6d2feb515b945804fe568b0f2a0140998a739882c998f0f3a8223d7796f68"
# the zero module and the same groups with the other generators m in
# {4, 5, 10, 12, 30}: prime powers, a third prime and three-prime products
DECOMPOSE_OTHER_M_DOCS_SHA256 = "3f4c9e099173218187776c5add25e2f0a74603b4b32fca878b9f72eec8b78435"


def _sha256(docs) -> str:
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def test_decompose_documents_are_pinned():
    docs = [decompose_weakly_cotorsion(FPModule.from_invariants(list(g)), m).to_document()
            for g in abelian_groups_upto(64) for m in (2, 3, 6)]
    assert len(docs) == 348
    assert _sha256(docs) == DECOMPOSE_DOCS_SHA256


def test_decompose_documents_for_other_generators_are_pinned():
    docs = [decompose_weakly_cotorsion(FPModule.from_invariants(list(g)), m).to_document()
            for g in [()] + abelian_groups_upto(64) for m in (4, 5, 10, 12, 30)]
    assert len(docs) == 585
    assert _sha256(docs) == DECOMPOSE_OTHER_M_DOCS_SHA256


def test_decompose_seed_relations_are_their_hnf():
    # the divisible part t*M is the image of multiplication by t*, presented
    # on M's generators by its preimage HNF; parsed back from its document,
    # the seed's relations are their own canonical HNF
    seeds = 0
    for g in abelian_groups_upto(64):
        for m in (2, 3, 6):
            doc = decompose_weakly_cotorsion(FPModule.from_invariants(list(g)), m).to_document()
            root = Certificate.from_document(doc).root
            if root.kind == "Extension":
                div = root.children[0].payload["module"]
                assert div.relations == div.relation_hnf(), (g, m)
                seeds += 1
    assert seeds == 122


def test_embed_documents_are_pinned():
    docs = [embed_two_obtainable(FPModule.from_invariants(list(inv), modulus=n)).to_document()
            for n, inv in _embed_corpus(36)]
    assert len(docs) == 514
    assert _sha256(docs) == EMBED_DOCS_SHA256


class TestBuildersCheckWhatTheyReturn:
    """The builders verify and instantiate each certificate before returning
    it, with an explicit check that ``python -O`` keeps; criterion 9 relies
    on that and does not repeat the checks."""

    def test_wrong_level_raises(self, monkeypatch):
        monkeypatch.setattr(certs, "verify_certificate", lambda cert: 3)
        with pytest.raises(LevelViolation, match="level 3, not 1"):
            decompose_weakly_cotorsion(FPModule.from_invariants([12]), 2)
        with pytest.raises(LevelViolation, match="level 3, not 2"):
            embed_two_obtainable(FPModule.from_invariants([2], modulus=4))

    def test_check_kept_under_optimization(self):
        script = ("from multloc import certs\n"
                  "from multloc.fpmod import FPModule\n"
                  "certs.verify_certificate = lambda cert: 3\n"
                  "try:\n"
                  "    certs.embed_two_obtainable(FPModule.from_invariants([2], modulus=4))\n"
                  "except certs.LevelViolation:\n"
                  "    print('raised')\n")
        src = str(Path(certs.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "raised", out.stderr

    def test_criterion_9_records_a_builder_failure(self, monkeypatch):
        def failing_on_z2_over_z4(module):
            if (module.modulus, module.invariants()) == (4, (2,)):
                raise PayloadMismatch("root", "built wrongly")
            return embed_two_obtainable(module)

        monkeypatch.setattr(battery, "embed_two_obtainable", failing_on_z2_over_z4)
        result = battery.criterion_9(42, groups=[(2,), (4,)], quick=True)
        assert not result["pass"]
        assert result["details"]["failures"] == [
            {"kind": "embed", "modulus": 4, "inv": [2],
             "error": "PayloadMismatch('root: built wrongly')"}]
        assert result["details"]["decompose_certs"] == 6


# the moduli of the benchmark's certificates
CERT_MODULI = (4, 6, 8, 9, 12, 16, 18, 20, 24, 27, 28, 32, 36)
MAP_KEYS = ("into", "retract", "inject", "project", "map")


def _doc_nodes(node: dict) -> list[dict]:
    out = [node]
    for c in node.get("children", []):
        out.extend(_doc_nodes(c))
    return out


def _mutated(doc: dict, how: str, rng: random.Random) -> dict:
    """A copy of a certificate document with one corruption (or none, when
    the document has nothing of that kind to corrupt)."""
    doc = json.loads(json.dumps(doc))
    nodes = _doc_nodes(doc["root"])
    if how == "level":
        rng.choice(nodes)["level"] = rng.choice([0, 1, 3])
    elif how == "growth":
        try:
            doc, _ = battery._mutate_payload(doc, rng)
        except IndexError:      # no node whose growth must be rejected
            pass
    elif how == "flip":
        rows = [row for n in nodes for key in MAP_KEYS
                for row in (n.get("payload") or {}).get(key, []) if row]
        rows += [row for n in nodes for m in (n.get("payload") or {}).get("transitions", [])
                 for row in m if row]
        if rows:
            row = rng.choice(rows)
            row[rng.randrange(len(row))] += rng.choice([-1, 1])
    elif how == "swap":
        omegas = [n["payload"]["stages"] for n in nodes
                   if len((n.get("payload") or {}).get("stages", [])) > 1]
        if omegas:
            stages = rng.choice(omegas)
            i, j = rng.sample(range(len(stages)), 2)
            stages[i], stages[j] = stages[j], stages[i]
    return doc


def _outcome(check, cert):
    try:
        return check(cert)
    except Exception as exc:
        return type(exc), getattr(exc, "path", None), str(exc)


@st.composite
def built_certificates(draw):
    source = draw(st.sampled_from(["random", "decompose", "embed"]))
    rng = draw(st.randoms(use_true_random=False))
    if source == "random":
        n = draw(st.sampled_from(CERT_MODULI))
        a, _ = coprime_split(rng, n)
        return random_certificate(rng, n, a, depth=draw(st.integers(min_value=1, max_value=4)))
    if source == "decompose":
        group = draw(st.sampled_from(abelian_groups_upto(24)))
        m = draw(st.sampled_from((2, 3, 6)))
        return decompose_weakly_cotorsion(FPModule.from_invariants(list(group)), m)
    n, inv = draw(st.sampled_from(_embed_corpus(18)))
    return embed_two_obtainable(FPModule.from_invariants(list(inv), modulus=n))


@settings(max_examples=80, deadline=None)
@given(built_certificates(), st.sampled_from(["level", "growth", "flip", "swap"]),
       st.randoms(use_true_random=False))
def test_memoized_check_matches_the_nested_walk(cert, how, rng):
    """A certificate, then a corrupted copy of its document, each checked
    twice: the first check of the certificate starts from empty memos, and
    every later one may read joints an earlier check stored.  Each check
    gives the nested walk's result dict, or its exception class, path and
    message."""
    towers.clear_caches()
    mutated = Certificate.from_document(_mutated(cert.to_document(), how, rng))
    for c in (cert, mutated):
        expected = _outcome(instantiate_and_check_nested, c)
        assert _outcome(instantiate_and_check, c) == expected     # first check
        assert _outcome(instantiate_and_check, c) == expected     # again, memo warm
