"""The benchmark reads package names: the tracer wraps functions by name,
and the workloads, checks and bench tests call the package. Every such name
must still resolve, so deleting one fails here first."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import spinfridge

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def bench_package_names() -> set[str]:
    """Dotted names under `spinfridge` that bench/*.py reads: each name
    imported from the package, and each attribute chain on the package or
    on a name imported from it (`sf.SwapSpec.partial`)."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "spinfridge":
                        # `import a.b` binds a; `import a.b as c` binds a.b
                        bound[alias.asname or root] = \
                            alias.name if alias.asname else root
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "spinfridge":
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = name
                    names.add(name)
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id], *reversed(chain)]))
    return names


def unresolved(names: set[str]) -> list[str]:
    missing = []
    for name in sorted(names):
        first, *rest = name.split(".")
        owner = importlib.import_module(first)
        try:
            for part in rest:
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(name)
    return missing


def test_every_bench_package_name_resolves():
    names = bench_package_names()
    assert {f"spinfridge.{name}" for name in (
        "ProtocolConfig", "SwapSpec.partial", "run_protocol",
        "oracle_always_cools", "thermal_product_state",
        "TemperatureRecord.from_beta", "entropy_accounting",
        "protocol.partial_trace", "states.partial_trace")} <= names
    assert unresolved(names) == []


@pytest.mark.parametrize("owner, name", [
    (spinfridge, "entropy_accounting"),     # from spinfridge import ...
    (spinfridge.SwapSpec, "partial"),       # sf.SwapSpec.partial
    (spinfridge.protocol, "partial_trace"),  # protocol.partial_trace
])
def test_a_deleted_bench_name_is_reported(monkeypatch, owner, name):
    monkeypatch.delattr(owner, name)
    assert [missing.rsplit(".", 1)[-1] for missing
            in unresolved(bench_package_names())] == [name]
