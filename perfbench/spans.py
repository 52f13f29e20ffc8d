"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark side: every public gftnn function
of interest is wrapped at the name its caller resolves (the modules bind
each other's functions with ``from .x import y``, so ``gftnn.cli.predict``
and ``gftnn.model.predict`` are separate names). A span holds its name,
start, end and the index of the span that caused it; a span's self time is
its duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute, span name). Each caller's binding of one function
# gets its own entry; the span name is the defining module's.
SPANS = (
    ("gftnn.cli", "synthesize", "scenario.synthesize"),
    ("gftnn.cli", "ingest_tracks", "scenario.ingest_tracks"),
    ("gftnn.cli", "extract_scenarios", "scenario.extract_scenarios"),
    ("gftnn.scenario", "extract_scenarios", "scenario.extract_scenarios"),
    ("gftnn.cli", "balance", "scenario.balance"),
    ("gftnn.cli", "split", "scenario.split"),
    ("gftnn.cli", "save_archive", "scenario.save_archive"),
    ("gftnn.cli", "load_archive", "scenario.load_archive"),
    ("gftnn.cli", "load_checkpoint", "model.load_checkpoint"),
    ("gftnn.cli", "train", "training.train"),
    ("gftnn.cli", "predict", "model.predict"),
    ("gftnn.cli", "evaluate", "metrics.evaluate"),
    ("gftnn.training", "build_basis", "model.build_basis"),
    ("gftnn.training", "scenario_spectrum", "model.scenario_spectrum"),
    ("gftnn.training", "adam_step", "training.adam_step"),
    ("gftnn.training", "save_checkpoint", "model.save_checkpoint"),
    ("gftnn.model", "scenario_spectrum", "model.scenario_spectrum"),
    ("gftnn.model", "encode", "model.encode"),
    ("gftnn.model", "decode", "model.decode"),
    ("gftnn.model", "eigendecompose", "spectral.eigendecompose"),
    ("gftnn.model", "gft_extended", "spectral.gft_extended"),
    ("gftnn.model", "laplacian", "graph.laplacian"),
    ("gftnn.model", "build_line_graph", "graph.build_line_graph"),
    ("gftnn.model", "build_spider_graph", "graph.build_spider_graph"),
    ("gftnn.model", "build_mesh_graph", "graph.build_mesh_graph"),
    ("gftnn.model", "apply_inverse_distance_weights",
     "graph.apply_inverse_distance_weights"),
    ("gftnn.spectral", "symmetric_eigh", "spectral.symmetric_eigh"),
)


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)

    @property
    def p50_us(self) -> float:
        return statistics.median(self.durations) * 1e6 if self.durations else 0.0


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index]
        self._stack = []
        self.windows_extracted = 0

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "scenario.extract_scenarios":
                self.windows_extracted += len(result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, table=SPANS):
        """Swap each name in ``table`` for a traced wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, span_name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layers(self, by_root=False) -> dict:
        """Aggregate spans by name, or by (root span name, name): calls,
        total, self time, durations."""
        out = {}
        child_time = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[i] = root[parent]
        for i, (name, start, end, _) in enumerate(self.spans):
            key = (self.spans[root[i]][0], name) if by_root else name
            layer = out.setdefault(key, Layer())
            layer.calls += 1
            layer.total_s += end - start
            layer.self_s += end - start - child_time[i]
            layer.durations.append(end - start)
        return out
