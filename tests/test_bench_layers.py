"""The benchmark tracer wraps package functions by name: every layer it
lists must still resolve, so deleting a traced name fails here first."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = []
    for layer, (module_name, path) in tracing.LAYERS.items():
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(layer)
            continue
        if not callable(owner):
            missing.append(layer)
    assert missing == []
