"""Spans around asdkit's public functions, patched in from the benchmark.

``Tracer.recording`` replaces every public function of the traced modules
with a wrapper, both where the function is defined and wherever another
asdkit module imported it by name (``cli`` imports ``extract_features``,
``scoring`` imports ``forward``, ...), so every call goes through exactly
one wrapper. The wrappers are removed when the block ends; untraced runs
never see them.

A span records name, start, end, parent span and run id, plus counts of
work taken from the call's arguments (vectors, MACs, audio seconds, feature
bytes). With ``memory=True`` the spans named in MEMORY_SPANS also record
their tracemalloc peak above the traced size at entry.

All layers run in one thread with no queues between them, so there is no
"waiting" time to record: a layer's time is its self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "asdkit"
MODULES = ("dsp", "model", "scoring", "metrics", "dataset", "cli", "synth")
MEMORY_SPANS = frozenset({"cli.train_machine", "scoring.fit_covariances", "model.train"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str
    work: dict | None = None
    mem_peak_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def forward_macs(model) -> int:
    """MACs of one forward pass of one vector: asdkit's own count_macs."""
    from asdkit.model import count_macs
    return inspect.unwrap(count_macs)(model)


def gradient_macs(model) -> int:
    """MACs of one gradient evaluation of one vector.

    Forward (M = count_macs) + weight gradients ``acts.T @ delta`` (M) +
    back-propagated deltas ``delta @ W.T`` for every layer but the first
    (M - d0*d1): exactly 3*M - d0*d1, i.e. about 3*M.
    """
    dims = model.layer_dims
    return 3 * forward_macs(model) - dims[0] * dims[1]


# Counts of work done, read from each call's bound arguments.
WORK = {
    "dsp.extract_features": lambda a: {
        "audio_s": a["clip"].num_samples / a["clip"].sample_rate_hz},
    "model.forward": lambda a: {
        "vectors": _rows(a["batch"]),
        "macs": forward_macs(a["model"]) * _rows(a["batch"])},
    "model.gradient": lambda a: {
        "vectors": _rows(a["batch"]),
        "macs": gradient_macs(a["model"]) * _rows(a["batch"])},
    "model.train": lambda a: {
        # the float64 feature matrix train_machine stacks before training
        "feature_bytes": int(np.prod(np.shape(a["features"]))) * 8},
    "scoring.mahalanobis_frame_scores": lambda a: {
        # one quadratic form per residual row; score_mahalanobis makes two
        # calls per clip, so 2*D^2*K MACs per clip
        "macs": _rows(a["residuals"]) * np.shape(a["inv_sigma"])[0] ** 2},
}


def public_functions(package: str = PACKAGE, modules=MODULES) -> dict:
    """``{"module.function": function}`` for the functions each module defines."""
    found = {}
    for short in modules:
        mod = importlib.import_module(f"{package}.{short}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Collects spans in memory; ``recording`` patches the package for one run."""

    def __init__(self, package: str = PACKAGE, modules=MODULES, work=None):
        self.package = package
        self.modules = modules
        self.work = WORK if work is None else work
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self._run_id: str | None = None
        self._memory = False

    @contextmanager
    def recording(self, run_id: str, memory: bool = False):
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in public_functions(self.package, self.modules).items()}
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        self._run_id, self._memory = run_id, memory
        if memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if memory:
                tracemalloc.stop()
            self._run_id, self._memory = None, False
            self._stack.clear()
            self._mem_stack.clear()
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def _wrap(self, name: str, fn):
        work = self.work.get(name)
        signature = inspect.signature(fn) if work else None
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = work(signature.bind(*args, **kwargs).arguments) if work else None
            index = enter(name, counts)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)

        return traced

    def _enter(self, name: str, work) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self._run_id, work))
        index = len(self.spans) - 1
        self._stack.append(index)
        if self._memory and name in MEMORY_SPANS:
            self._mem_enter()
        self.spans[index].start = time.perf_counter()
        return index

    def _leave(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span.end = end
        self._stack.pop()
        if self._memory and span.name in MEMORY_SPANS:
            span.mem_peak_bytes = self._mem_leave()

    # tracemalloc keeps one peak; nested tracked spans reset it, so each
    # frame carries the outer span's peak from before the reset.
    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        self._mem_stack.append([current, 0])  # [size at entry, carried peak]
        tracemalloc.reset_peak()

    def _mem_leave(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        at_entry, carried = self._mem_stack.pop()
        peak = max(peak, carried)
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        return peak - at_entry


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children[index]):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.duration - covered)
    return out


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    self_per_call: list = field(default_factory=list)
    work: dict = field(default_factory=dict)
    mem_peak_bytes: int = 0


def layer_stats(spans: list[Span], run_ids) -> dict[str, LayerStats]:
    """Per span name: calls, self and inclusive time, per-call self times,
    summed work counts and the largest memory peak, over the given runs."""
    run_ids = set(run_ids)
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for span, own in zip(spans, selfs):
        if span.run_id not in run_ids:
            continue
        s = stats[span.name]
        s.calls += 1
        s.self_s += own
        s.inclusive_s += span.duration
        s.self_per_call.append(own)
        for key, value in (span.work or {}).items():
            s.work[key] = s.work.get(key, 0) + value
        if span.mem_peak_bytes is not None:
            s.mem_peak_bytes = max(s.mem_peak_bytes, span.mem_peak_bytes)
    return dict(stats)


def top_level_seconds(spans: list[Span], run_id: str) -> float:
    """Time covered by the spans of a run that have no parent."""
    return sum(s.duration for s in spans if s.run_id == run_id and s.parent is None)
