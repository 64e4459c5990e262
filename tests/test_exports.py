"""The package's public names: a star import binds exactly ``__all__``,
and every function the benchmark's tracer wraps exists."""

import importlib
import importlib.util
from pathlib import Path

import dyncov


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dyncov import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dyncov.__all__)
    assert len(set(dyncov.__all__)) == len(dyncov.__all__)


def test_every_entry_resolves():
    assert [name for name in dyncov.__all__ if not hasattr(dyncov, name)] == []


def test_benchmark_tracer_targets_resolve():
    # the benchmark wraps these functions by name; a deleted or renamed one
    # makes its tracer fail before the first run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, qualname, _ in tracer.TARGETS:
        owner = importlib.import_module(f"dyncov.{module}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
    assert missing == []
