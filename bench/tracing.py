"""In-memory span tracing around the package's layer boundaries.

A `Tracer` replaces each traced function by a wrapper in every `spinfridge`
module namespace where a caller looks the name up (a function imported with
`from .states import partial_trace` is a separate binding in each importing
module), and on the class for methods. Each call records one span: name,
start, end and the span that was open when it began. Spans stay in memory
until the run ends; `write` dumps them as JSON.

Self time of a span is its duration minus the durations of its direct
children. The process is single-threaded, so children nest strictly inside
their parent and the subtraction is exact.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer name -> (module, attribute path). The layer name is the one reported.
LAYERS = {
    "protocol.optimize_waiting_time": ("spinfridge.protocol", "optimize_waiting_time"),
    "protocol.attach_thermal_qubit": ("spinfridge.protocol", "attach_thermal_qubit"),
    "protocol.cool_step": ("spinfridge.protocol", "cool_step"),
    "dynamics.evolve_exact": ("spinfridge.dynamics", "evolve_exact"),
    "dynamics.evolve": ("spinfridge.dynamics", "evolve"),
    "dynamics.perfect_swap": ("spinfridge.dynamics", "perfect_swap"),
    "dynamics.partial_swap": ("spinfridge.dynamics", "partial_swap"),
    "dynamics.window_generator": ("spinfridge.dynamics", "window_generator"),
    "dynamics.LindbladGenerator.from_network":
        ("spinfridge.dynamics", "LindbladGenerator.from_network"),
    "dynamics.LindbladGenerator.blocked_propagators":
        ("spinfridge.dynamics", "LindbladGenerator.blocked_propagators"),
    "dynamics.conserves_z_excitation":
        ("spinfridge.dynamics", "conserves_z_excitation"),
    "dynamics.is_unital": ("spinfridge.dynamics", "is_unital"),
    "integrate.rkf45": ("spinfridge.integrate", "rkf45"),
    "states.partial_trace": ("spinfridge.states", "partial_trace"),
    "states.von_neumann_entropy": ("spinfridge.states", "von_neumann_entropy"),
    "states.trace_distance": ("spinfridge.states", "trace_distance"),
    "states.thermal_product_state": ("spinfridge.states", "thermal_product_state"),
    "oracles.random_channel_sample": ("spinfridge.oracles", "random_channel_sample"),
}

# Counters read off a layer's return value: metric name -> (layer, attribute).
RESULT_COUNTERS = {
    "integrate.rkf45.steps": ("integrate.rkf45", "steps_taken"),
    "integrate.rkf45.rejected": ("integrate.rkf45", "steps_rejected"),
}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span called `name`."""
        counters = [(metric, attr) for metric, (layer, attr)
                    in RESULT_COUNTERS.items() if layer == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            record = [name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            for metric, attr in counters:
                self.counters[metric] += getattr(result, attr)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (module_name, path) in LAYERS.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if inspect.isclass(owner):
                self._patch_method(owner, attr, name)
            else:
                self._patch_bindings(getattr(owner, attr), name)
        return self

    def _patch_method(self, cls, attr: str, name: str):
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.span(name, raw.__func__))
        else:
            replacement = self.span(name, raw)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, raw))

    def _patch_bindings(self, original, name: str):
        wrapper = self.span(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name != "spinfridge" and \
                    not module_name.startswith("spinfridge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- reading -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Layer name -> (calls, self seconds), over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name][0] += 1
            totals[name][1] += (end - start) - inner
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
        path.write_text(json.dumps({"spans": rows, "counters": self.counters}))
