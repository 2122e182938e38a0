"""The package's public surface: every exported name resolves."""

import steiner_ekr


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from steiner_ekr import *", namespace)
    names = steiner_ekr.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert namespace[name] is getattr(steiner_ekr, name)
