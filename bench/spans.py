"""In-memory span tracer that wraps linrep's public functions from outside.

The tracer replaces every module attribute through which callers reach a
traced function (``linrep.metrics.spectral_norm`` and the copy bound into
``linrep.algorithms`` alike) with one wrapper that opens a span, calls the
original and closes the span.  Spans are kept in flat arrays (name, parent,
start, end) and written out at the end of a run; self time (duration minus
the durations of direct child spans) and call counts are accumulated as
spans close.  ``traced`` restores every replaced attribute on exit, so code
timed after it never runs through a wrapper.

Step functions are reached through ``linrep.algorithms.step_for``; its
wrapper returns the step wrapped in a span named
``algorithms.step.<ALGO>.<MODE>``.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# The modules of the package, in layer order.  Every attribute of these
# modules that refers to a traced function is rebound while tracing.
MODULES = ("linrep", "linrep.rng", "linrep.metrics", "linrep.env", "linrep.model",
           "linrep.algorithms", "linrep.harness", "linrep.cli")

# (layer, function) pairs that get a span; the layer is the defining module.
TRACED = (
    ("rng", "standard_normal"),
    ("rng", "substream"),
    ("metrics", "qr_orthonormalize"),
    ("metrics", "orth_complement"),
    ("metrics", "spectral_norm"),
    ("metrics", "principal_angle_dist"),
    ("metrics", "delta_norm"),
    ("env", "sample_environment"),
    ("env", "sample_task_batch"),
    ("env", "sample_dataset"),
    ("env", "diversity_stats"),
    ("model", "init_model"),
    ("algorithms", "run_trajectory"),
    ("harness", "run_experiment"),
    ("harness", "sweep"),
)

# Step spans reported even when a workload does not execute them.
STEP_PAIRS = (
    ("FO_ANIL", "POPULATION"),
    ("EXACT_ANIL", "POPULATION"),
    ("FO_MAML", "POPULATION"),
    ("EXACT_MAML", "POPULATION"),
    ("AVG_RISK_MIN", "POPULATION"),
    ("FO_ANIL", "FINITE"),
)

_MARK = "__bench_span__"


class Tracer:
    """Records nested spans and per-name aggregates.

    ``clock`` returns seconds; tests pass a deterministic one.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._child_time: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.windows: list[tuple[float, float]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(math.nan)
        self._open.append(index)
        self._child_time.append(0.0)
        self.start.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        now = self.clock()
        if self._open[-1] != index:
            raise RuntimeError("spans closed out of order")
        self._open.pop()
        children = self._child_time.pop()
        self.end[index] = now
        duration = now - self.start[index]
        name = self.names[self.name_id[index]]
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self._child_time:
            self._child_time[-1] += duration

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span named ``name``; ``after(args, kwargs,
        result)`` runs once the span has closed, to update counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.exit(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    @contextmanager
    def window(self):
        """Mark a timed region; ``uncovered_frac`` compares it to the spans."""
        begin = self.clock()
        try:
            yield
        finally:
            self.windows.append((begin, self.clock()))

    def uncovered_frac(self) -> float:
        """Share of the timed windows that no root span covers."""
        total = sum(end - begin for begin, end in self.windows)
        covered = 0.0
        for index in range(len(self.start)):
            if self.parent[index] != -1:
                continue
            for begin, end in self.windows:
                overlap = min(end, self.end[index]) - max(begin, self.start[index])
                if overlap > 0.0:
                    covered += overlap
        return (total - covered) / total if total > 0.0 else 0.0

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (a ``.npz`` with a name table)."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _count_hooks(tracer: Tracer) -> dict[str, object]:
    counts = tracer.counts

    def variates(args, kwargs, result):
        counts["rng.standard_normal.variates"] += int(
            np.prod(kwargs["shape"] if "shape" in kwargs else args[1])
        )

    def rows(args, kwargs, result):
        counts["env.sample_dataset.rows"] += int(kwargs["m"] if "m" in kwargs else args[2])

    def trajectory(args, kwargs, result):
        counts["algorithms.run_trajectory.records"] += len(result.trajectory)
        counts["algorithms.run_trajectory.diverged"] += int(result.diverged)

    return {
        "rng.standard_normal": variates,
        "env.sample_dataset": rows,
        "algorithms.run_trajectory": trajectory,
    }


def _step_for_wrapper(tracer: Tracer, step_for):
    wrapped: dict[tuple[str, str], object] = {}

    @functools.wraps(step_for)
    def wrapper(hp):
        key = (hp.algo.name, hp.mode.name)
        if key not in wrapped:
            wrapped[key] = tracer.wrap("algorithms.step." + ".".join(key), step_for(hp))
        return wrapped[key]

    setattr(wrapper, _MARK, "algorithms.step_for")
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Rebind every traced function of the package for the duration of the
    block, then restore the originals."""
    modules = [importlib.import_module(name) for name in MODULES]
    hooks = _count_hooks(tracer)
    pairs = []
    for layer, fn_name in TRACED:
        original = getattr(importlib.import_module(f"linrep.{layer}"), fn_name)
        name = f"{layer}.{fn_name}"
        pairs.append((original, tracer.wrap(name, original, hooks.get(name))))
    step_for = importlib.import_module("linrep.algorithms").step_for
    pairs.append((step_for, _step_for_wrapper(tracer, step_for)))

    restore: list[tuple[object, str, object]] = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in pairs:
                    if value is original:
                        restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, value in restore:
            setattr(module, attr, value)


def wrapped_attributes() -> list[str]:
    """Attributes of the package that are currently tracing wrappers."""
    found = []
    for name in MODULES:
        for attr, value in vars(importlib.import_module(name)).items():
            if hasattr(value, _MARK):
                found.append(f"{name}.{attr}")
    return found


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics: calls, self time and self time per call of every
    traced function and step pair, plus the derived counts and ratios."""
    out: dict[str, float] = {}
    names = [f"{layer}.{fn}" for layer, fn in TRACED]
    names += [f"algorithms.step.{algo}.{mode}" for algo, mode in STEP_PAIRS]
    for name in names:
        calls = tracer.calls[name]
        self_s = tracer.self_s[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    counts = tracer.counts
    steps = sum(c for name, c in tracer.calls.items() if name.startswith("algorithms.step."))
    records = counts["algorithms.run_trajectory.records"]
    out["rng.standard_normal.variates"] = counts["rng.standard_normal.variates"]
    out["env.sample_dataset.rows"] = counts["env.sample_dataset.rows"]
    out["metrics.principal_angle_dist.errors"] = tracer.errors["metrics.principal_angle_dist"]
    out["algorithms.run_trajectory.diverged"] = counts["algorithms.run_trajectory.diverged"]
    out["algorithms.run_trajectory.records_per_step"] = records / steps if steps else 0.0
    out["env.diversity_stats.calls_per_record"] = (
        tracer.calls["env.diversity_stats"] / records if records else 0.0
    )
    out["trace.uncovered_frac"] = tracer.uncovered_frac()
    return out
