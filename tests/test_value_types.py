"""The package's classes are named tuples and plain classes: importing it
generates no class code, and the value types keep their semantics."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import multloc
from multloc.certs import CertNode, Certificate
from multloc.fpmod import FPModule, Morphism
from multloc.poset import PrimePoset
from multloc.rings import BasePID, Poly
from multloc.towers import MultSubsetSeq


def test_cli_import_loads_no_class_generation_modules():
    """Nor the battery, which only ``multloc battery`` runs, with what it
    alone imports."""
    src = str(Path(multloc.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import multloc.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'multloc.battery', "
            "'multloc.randomgen', 'random', 'signal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def z4():
    return FPModule(1, ((2,),), 4)


# each value type, built twice from equal fields
EQUAL_PAIRS = [
    (lambda: FPModule(2, ((2, 4),), 0), lambda: FPModule(gens=2, relations=((2, 4),))),
    (lambda: Morphism.multiplication(z4(), 3), lambda: Morphism(z4(), z4(), ((3,),))),
    (lambda: MultSubsetSeq((2, 3)), lambda: MultSubsetSeq(generators=[2, 3])),
    (lambda: BasePID(), lambda: BasePID(p=None)),
    (lambda: BasePID(5), lambda: BasePID(p=5)),
    (lambda: Poly.over_z([1, 2]), lambda: Poly(BasePID(), (1, 2, 0))),
    # the same order from its covers listed in another order, or with a
    # transitive pair added
    (lambda: PrimePoset.from_covers(["q", "p1", "p2", "m"], [("q", "p1"), ("q", "p2"),
                                                            ("p1", "m"), ("p2", "m")]),
     lambda: PrimePoset.from_covers(["q", "p1", "p2", "m"], [("p2", "m"), ("q", "p2"),
                                                            ("p1", "m"), ("q", "p1")])),
    (lambda: PrimePoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")]),
     lambda: PrimePoset.from_covers(["a", "b", "c"], [("b", "c"), ("a", "c"), ("a", "b")])),
]


@pytest.mark.parametrize("make_a, make_b", EQUAL_PAIRS)
def test_equal_fields_give_equal_values(make_a, make_b):
    a, b = make_a(), make_b()
    assert a == b and not a != b and hash(a) == hash(b)
    assert a is not b and len({a, b}) == 1


def test_unequal_fields_give_unequal_values():
    assert FPModule(1, ((2,),), 0) != FPModule(1, ((3,),), 0)
    assert Morphism.multiplication(z4(), 1) != Morphism.multiplication(z4(), 3)
    assert MultSubsetSeq((2, 3)) != MultSubsetSeq((3, 2))
    assert BasePID(2) != BasePID(3)
    assert Poly.over_z([1, 2]) != Poly.over_z([1, 3])


def test_held_forms_do_not_affect_equality():
    f = Morphism.multiplication(FPModule(2, ((2, 0),), 8), 2)
    coker = f.cokernel()
    img = f.image()[0]
    assert coker._hnf is not None and img._hnf is not None
    for held in (coker, img):
        fresh = FPModule(held.gens, held.relations, held.modulus)
        assert fresh._hnf is None
        assert held == fresh and hash(held) == hash(fresh)
    fresh = Morphism(f.source, f.target, f.matrix)
    f.kernel()
    assert f._forms is not None and fresh._forms is None
    assert f == fresh and hash(f) == hash(fresh)


def test_prime_poset_compares_primes_and_order():
    chain = PrimePoset.from_covers(["a", "b"], [("a", "b")])
    antichain = PrimePoset.from_covers(["a", "b"], [])
    assert chain != antichain and not chain == antichain
    assert chain != PrimePoset.from_covers(["b", "a"], [("a", "b")])


def test_no_named_tuple_defines_equality_or_hash():
    """Named tuples compare and hash field by field, as tuples do."""
    found = []
    for info in pkgutil.iter_modules(multloc.__path__):
        module = importlib.import_module(f"multloc.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                for cls in value.__mro__[:value.__mro__.index(tuple)]:
                    found += [f"{cls.__qualname__}.{name}" for name in
                              ("__eq__", "__ne__", "__hash__") if name in vars(cls)]
    assert found == []


@pytest.mark.parametrize("value, field", [
    (FPModule(1, (), 0), "gens"),
    (FPModule(1, (), 0), "relations"),
    (Morphism.multiplication(FPModule(1, (), 0), 2), "matrix"),
    (MultSubsetSeq((2,)), "generators"),
    (BasePID(), "p"),
    (Poly.over_z([1]), "coefficients"),
])
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("make, message", [
    (lambda: FPModule(1, (), -4), "modulus must be nonnegative"),
    (lambda: FPModule(2, ((1,),)), "relation width does not match generator count"),
    (lambda: Morphism(FPModule(2), FPModule(1), ((1,),)),
     "matrix row count must equal source generator count"),
    (lambda: Morphism(FPModule(1), FPModule(2), ((1,),)),
     "matrix width must equal target generator count"),
    (lambda: MultSubsetSeq(()), "at least one generator is required"),
    (lambda: MultSubsetSeq((2, 0)), "generators must be nonzero integers"),
    (lambda: BasePID(4), "4 is not prime"),
    (lambda: Poly.over_z([0] * 65 + [1]), "degree above the configured bound 64"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_normalization():
    assert FPModule(2, ((5, -1),), 4).relations == ((1, 3),)
    assert FPModule(1, ((-5,),)).relations == ((-5,),)
    assert Poly.over_z([1, 2, 0, 0]).coefficients == (1, 2)
    assert Poly(BasePID(3), ((4, 3), (3,))).coefficients == ((1,),)


def test_cert_node_is_mutable():
    node = CertNode(kind="Seed", level=1)
    assert node.children == [] and node.tag is None and node.payload is None
    assert CertNode(kind="Seed", level=1).children is not node.children
    node.level = 2
    node.children.append(CertNode(kind="Seed", level=1))
    node.payload = {"module": FPModule(0)}
    cert = Certificate(root=node)
    assert cert.root.level == 2 and len(cert.root.children) == 1
