"""The benchmark's traced run wraps functions by (module, attribute); each
one must exist, or the traced result silently loses its metrics."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({(module, attr) for module, attr, *_ in tracing.BOUNDARIES})


@pytest.mark.parametrize("module, attr", _boundaries(), ids=lambda value: value)
def test_boundary_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
