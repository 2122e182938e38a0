"""The package's public surface: every exported name resolves."""

import ast
import pathlib

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
