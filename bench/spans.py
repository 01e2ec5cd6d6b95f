"""Spans around calls into collapsesim's layers, installed from outside.

The tracer replaces public names in the module namespaces where callers
look them up (``models.combined_step``, ``cli.run_trajectory``, class
attributes such as ``Model.advance``) with timing wrappers, and puts the
originals back on ``restore``.  No file of the package is touched.

Every span records its thread.  A span's parent is the innermost open span
on the same thread, so a self time (duration minus direct children) never
subtracts work done on another thread, and the blocking path of a run is
the set of spans on the thread that ran it.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    thread: int
    start: float
    duration: float
    self_time: float  # duration minus the direct children on the same thread


class _ThreadBuffer:
    """One thread's open-span stack, finished spans and counters; only
    that thread writes to it, so recording takes no lock."""

    __slots__ = ("thread", "stack", "spans", "counts")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[float] = []  # per open span: summed duration of its children
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}


class Tracer:
    """Keeps spans and counters in memory until ``take``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._saved: list[tuple[object, str, object]] = []

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buffer
        except AttributeError:
            buf = self._local.buffer = _ThreadBuffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            return buf

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and count the call."""
        buf = self._buffer()
        stack = buf.stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            buf.spans.append(Span(name, buf.thread, start, duration, duration - children))
            key = name + "_calls"
            buf.counts[key] = buf.counts.get(key, 0) + 1

    def count(self, name: str, amount: float) -> None:
        counts = self._buffer().counts
        counts[name] = counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded as ``name``.

        on_result(tracer, result) may add counters measured on the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        functools.update_wrapper(wrapper, original, updated=())
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self):
        """Hand over and forget the spans and counters of every thread.

        Call it only while no traced call is running."""
        with self._lock:
            buffers = list(self._buffers)
        spans, counts = [], {}
        for buf in buffers:
            spans += buf.spans
            for key, value in buf.counts.items():
                counts[key] = counts.get(key, 0) + value
            buf.spans, buf.counts = [], {}
        return spans, counts


def summarize(spans, thread=None) -> dict:
    """Per-name inclusive and self seconds; ``thread`` limits both to one thread."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        if thread is not None and s.thread != thread:
            continue
        entry = out.setdefault(s.name, {"total": 0.0, "self": 0.0})
        entry["total"] += s.duration
        entry["self"] += s.self_time
    return out


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every collapsesim layer."""
    from collapsesim import analysis, cli, config, engine, kernels, models

    def count_noise(tr, result):
        tr.count("kernels.noise_values", result.size)

    def count_positivity(tr, record):
        tr.count("engine.positivity_events", len(record.positivity_warnings))

    tracer.wrap(kernels.CorrelationKernel, "sample_noise", "kernels.sample_noise",
                on_result=count_noise)
    tracer.wrap(engine, "ensemble_mean", "engine.ensemble_mean")
    tracer.wrap(engine, "combined_step", "engine.combined_step")
    tracer.wrap(models, "combined_step", "engine.combined_step")
    tracer.wrap(models, "sse_step", "engine.sse_step")
    tracer.wrap(engine, "run_trajectory", "engine.run_trajectory", on_result=count_positivity)
    tracer.wrap(cli, "run_trajectory", "engine.run_trajectory", on_result=count_positivity)
    tracer.wrap(models.Model, "advance", "models.advance")
    tracer.wrap(models, "MonitoringSpec", "engine.MonitoringSpec_init")
    tracer.wrap(models, "FeedbackSpec", "engine.FeedbackSpec_init")
    tracer.wrap(models, "kinetic_hamiltonian", "lattice.kinetic_hamiltonian")
    tracer.wrap(models, "density_family", "models.density_family")
    tracer.wrap(models, "newton_family", "models.newton_family")
    tracer.wrap(models, "build_model", "models.build_model")
    tracer.wrap(cli, "build_model", "models.build_model")
    tracer.wrap(config, "load_config", "config.load_config")
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(config, "build_initial_state", "config.build_initial_state")
    tracer.wrap(cli, "build_initial_state", "config.build_initial_state")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "cmd_run", "cli.cmd_run")
    tracer.wrap(analysis, "decoherence_profile", "analysis.decoherence_profile")
    tracer.wrap(analysis, "kappa_scan", "analysis.kappa_scan")
