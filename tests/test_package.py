"""The package's public surface: every exported name resolves."""

import ast
import copy
import dataclasses
import pathlib
import pickle

import pytest

import steiner_ekr
from steiner_ekr import bounds, canon, designs, ekr, errors, exactnum, geometry

LAYERS = (bounds, canon, designs, ekr, errors, exactnum, geometry)


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from steiner_ekr import *", namespace)
    names = steiner_ekr.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert namespace[name] is getattr(steiner_ekr, name)


def test_package_exports_the_union_of_the_module_lists():
    for mod in LAYERS:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
            assert getattr(steiner_ekr, name) is getattr(mod, name)
    union = [name for mod in LAYERS for name in mod.__all__]
    assert len(set(union)) == len(union)
    assert sorted(steiner_ekr.__all__) == sorted(union)


def test_no_module_imports_another_modules_private_name():
    package = pathlib.Path(steiner_ekr.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("steiner_ekr")):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


UNITAL3 = designs.hermitian_unital(3)
PLANE2 = designs.projective_plane(2)

# Each record with its repr as the frozen dataclass it replaced printed it.
RECORDS = {
    "SurdExpr": (lambda: exactnum.SurdExpr(1, 2, 3), "SurdExpr(a=Fraction(1, 1), b=Fraction(2, 1), n=3)"),
    "CubeRootBound": (
        lambda: bounds.unital_second_max_bound(27).value,
        "CubeRootBound(radicand=27, const=Fraction(703, 1), sq_coef=Fraction(1, 1), lin_coef=Fraction(-2, 3))",
    ),
    "BoundReport": (
        lambda: bounds.counting_bound(3, 5, 0),
        "BoundReport(value=Fraction(10, 3), floor_value=3, active_branch=1)",
    ),
    "SweepCertificate": (
        lambda: bounds.SweepCertificate({"k": [4, 5]}, 2, (("second", 5),)),
        "SweepCertificate(ranges={'k': [4, 5]}, total_cases=2, certified=False, failures=(('second', 5),))",
    ),
    "CoverProfile": (
        lambda: ekr.cover_profile(ekr.point_pencil(UNITAL3, 0)),
        "CoverProfile(covered=28, k_hist=(0, 27, 0, 0, 0, 0, 0, 0, 0, 1), k_s=9, cover_excess=16)",
    ),
    "EkrType": (
        lambda: ekr.classify(UNITAL3, [ekr.point_pencil(UNITAL3, 0)])[0][0],
        "EkrType(label='point-pencil', size=9, profile=CoverProfile(covered=28,"
        " k_hist=(0, 27, 0, 0, 0, 0, 0, 0, 0, 1), k_s=9, cover_excess=16), code='k4:s9:0,1,2,3,4,5,6,7,8')",
    ),
    "OnanFreeVerdict": (
        lambda: ekr.classify_onan_free(UNITAL3),
        "OnanFreeVerdict(confirmed=True, pencil_count=28, triangle_count=1512, counterexample=None, note=None)",
    ),
    "BlockSet": (lambda: ekr.BlockSet(PLANE2, [3, 0, 5]), "BlockSet((0, 3, 5))"),
}


def _holds_design(record) -> bool:
    return any(isinstance(getattr(record, name), (designs.Design, ekr.BlockSet)) for name in record.__slots__)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    build, want_repr = RECORDS[name]
    record = build()
    assert type(record).__name__ == name and isinstance(record, errors.Record)
    assert "Record" not in errors.__all__
    assert repr(record) == want_repr
    values = tuple(getattr(record, field) for field in record._fields)
    try:
        want_hash = hash(values)
    except TypeError:  # SweepCertificate's ranges is a dict, as it was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want_hash
    # equal only to a record of the very same class
    assert record == build() and not record != build()
    assert record != values
    twin = object.__new__(type("Twin", (type(record),), {"__slots__": ()}))
    for slot in record.__slots__:
        object.__setattr__(twin, slot, getattr(record, slot))
    assert twin != record and record != twin
    assert all(record != other() for key, (other, _) in RECORDS.items() if key != name)
    # frozen: every slot refuses assignment and deletion and keeps its value
    for slot in record.__slots__:
        held = getattr(record, slot)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, slot, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, slot)
        assert getattr(record, slot) is held
    assert repr(record) == want_repr
    if not _holds_design(record):
        for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(copied) is type(record) and copied == record and repr(copied) == want_repr


def test_ekr_type_witness_takes_no_part_in_equality_hash_or_repr():
    etype = RECORDS["EkrType"][0]()
    other = ekr.EkrType(etype.label, etype.size, etype.profile, etype.code, ekr.point_pencil(UNITAL3, 1))
    assert other.witness != etype.witness
    assert other == etype and hash(other) == hash(etype) and repr(other) == repr(etype)
    assert "witness" not in etype._fields and "witness" in etype.__slots__
