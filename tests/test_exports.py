"""The package's public names: a star import binds exactly ``__all__``."""

import dyncov


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dyncov import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dyncov.__all__)
    assert len(set(dyncov.__all__)) == len(dyncov.__all__)


def test_every_entry_resolves():
    assert [name for name in dyncov.__all__ if not hasattr(dyncov, name)] == []
