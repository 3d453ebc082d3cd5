"""Span recording for the traced benchmark run.

The recorder wraps pcup's public functions at the module attributes the
program calls them through, so no file of the package changes.  A span
keeps its name, start and end (ns), the index of its parent span, the
run id of the setup or repeat it belongs to, and a work count (points
indexed, points queried, Adam bytes).  Spans stay in memory until the
run ends; self times are derived afterwards.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import List, Optional

# (module, attribute, span name).  Both bindings of a function are
# wrapped where the package imports it into more than one module, e.g.
# encoder_forward is called from training.train and from network.upsample.
FUNCTION_SPANS = (
    ("pcup.synthetic", "generate_category", "synthetic.generate"),
    ("pcup.meshio", "save_obj", "meshio.save_obj"),
    ("pcup.meshio", "load_obj", "meshio.load_obj"),
    ("pcup.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("pcup.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("pcup.experiments", "normalize_model", "mesh.normalize"),
    ("pcup.mesh", "normalize_model", "mesh.normalize"),
    ("pcup.experiments", "sample_surface_uniform", "sampling.sample"),
    ("pcup.sampling", "sample_surface_uniform", "sampling.sample"),
    ("pcup.experiments", "subsample", "sampling.subsample"),
    ("pcup.experiments", "subsample_hybrid", "sampling.subsample"),
    ("pcup.training", "train", "train"),
    ("pcup.training", "evaluate", "evaluate"),
    ("pcup.training", "_validation_loss", "training.val"),
    ("pcup.training", "adam_step", "training.adam"),
    ("pcup.training", "encoder_forward", "network.enc_fwd"),
    ("pcup.network", "encoder_forward", "network.enc_fwd"),
    ("pcup.training", "decoder_forward", "network.dec_fwd"),
    ("pcup.network", "decoder_forward", "network.dec_fwd"),
    ("pcup.training", "network_backward", "network.bwd"),
    ("pcup.training", "upsample", "network.upsample"),
    ("pcup.network", "upsample", "network.upsample"),
    ("pcup.training", "chamfer_with_gradient", "metrics.chamfer_grad"),
    ("pcup.training", "chamfer_distance", "metrics.chamfer"),
    ("pcup.training", "accuracy", "metrics.accuracy"),
    ("pcup.metrics", "accuracy", "metrics.accuracy"),
    ("pcup.training", "coverage", "metrics.coverage"),
)


def adam_bytes(arrays, grads, state) -> int:
    """Bytes one Adam step must move at least, computed from the array
    sizes: read a, g, m, v and write a, m, v (temporaries not counted)."""
    return sum(2 * a.nbytes + g.nbytes + 2 * m.nbytes + 2 * v.nbytes
               for a, g, m, v in zip(arrays, grads, state.m, state.v))


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    run_id: str
    count: int


class SpanRecorder:
    """In-memory span list with an explicit parent stack."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.run_id = ""

    def call(self, name: str, count: int, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), 0, parent, self.run_id, count)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def run(self, run_id: str, fn, *args, **kwargs):
        """Call fn as the root span of a setup or repeat named run_id."""
        self.run_id = run_id
        return self.call(run_id.split("-")[0], 0, fn, *args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _wrap(recorder: SpanRecorder, name: str, fn, count):
    def traced(*args, **kwargs):
        n = count(args) if count is not None else 0
        return recorder.call(name, n, fn, *args, **kwargs)
    traced.__wrapped__ = fn
    return traced


def _traced_index(recorder: SpanRecorder, base):
    class TracedNearestNeighborIndex(base):
        def __init__(self, points):
            recorder.call("kdtree.build", len(points), super().__init__, points)

        def query(self, queries):
            return recorder.call("kdtree.query", len(queries),
                                 super().query, queries)
    return TracedNearestNeighborIndex


class Patches:
    """Replace module attributes and put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, module: str, attr: str, value) -> None:
        mod = importlib.import_module(module)
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def get(self, module: str, attr: str):
        return getattr(importlib.import_module(module), attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def install(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    for module, attr, name in FUNCTION_SPANS:
        count = (lambda args: adam_bytes(*args[:3])) if name == "training.adam" else None
        patches.set(module, attr, _wrap(recorder, name,
                                        patches.get(module, attr), count))
    patches.set("pcup.metrics", "NearestNeighborIndex",
                _traced_index(recorder,
                              patches.get("pcup.metrics", "NearestNeighborIndex")))


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus its direct children's durations (ns)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def has_ancestor(spans: List[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
