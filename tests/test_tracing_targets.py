"""The bench tracer's span targets exist: a rename of a traced function fails
here instead of breaking `bench/run.py --trace 1`."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """bench/tracing.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable(tracing):
    missing = []
    for module, attr, _name, _attrs in tracing.TARGETS:
        try:
            owner, key = tracing.resolve(module, attr)
            ok = callable(getattr(owner, key))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            missing.append(f"{module}.{attr}")
    assert missing == []
