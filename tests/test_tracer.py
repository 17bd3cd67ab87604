"""The benchmark's tracer wraps library functions by name
(bench/tracer.py TARGETS); each name must resolve, or a traced run dies."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    """TARGETS, read from the tracer's source without running it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("module, function", _targets())
def test_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"ostro_stab.{module}"), function))
