"""Span bookkeeping of the benchmark tracer.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest bench``.
"""
from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import linrep
import linrep.algorithms
import linrep.metrics
import spans
from linrep.env import sample_environment
from linrep.metrics import orth_complement, qr_orthonormalize
from linrep.model import Algorithm, HyperParams, InitScheme, Mode, init_model
from linrep.rng import standard_normal, substream


def _ticking_clock():
    """A clock that advances by one second each time it is read."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


def _truth(d: int = 6, k: int = 2):
    rng = substream(7, "bench-test")
    truth, _ = qr_orthonormalize(standard_normal(rng, (d, k)))
    return orth_complement(truth), standard_normal(rng, (d, k))


def test_nested_self_time_and_call_counts():
    perp, rep = _truth()
    tracer = spans.Tracer(clock=_ticking_clock())
    with spans.traced(tracer):
        for _ in range(3):
            linrep.metrics.principal_angle_dist(rep, perp)
    # Per call: enter dist (t), enter qr (t+1), exit (t+2), enter
    # spectral_norm (t+3), exit (t+4), exit dist (t+5).
    assert tracer.calls["metrics.principal_angle_dist"] == 3
    assert tracer.calls["metrics.qr_orthonormalize"] == 3
    assert tracer.calls["metrics.spectral_norm"] == 3
    assert tracer.self_s["metrics.principal_angle_dist"] == 3 * 3.0
    assert tracer.self_s["metrics.qr_orthonormalize"] == 3 * 1.0
    assert tracer.self_s["metrics.spectral_norm"] == 3 * 1.0
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] == -1]
    assert len(roots) == 3
    root_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(tracer.self_s.values()) == root_time
    children = [i for i in range(len(tracer.start)) if tracer.parent[i] != -1]
    assert {tracer.names[tracer.name_id[tracer.parent[i]]] for i in children} == {
        "metrics.principal_angle_dist"
    }


def test_stored_spans_give_the_accumulated_self_time(tmp_path):
    env = sample_environment(8, 2, 0.0, 1.0, 0.0, substream(3, "env"))
    hp = HyperParams(algo=Algorithm.FO_ANIL, mode=Mode.POPULATION, alpha=0.1, beta=0.1,
                     n=3, iters=7)
    init = init_model(env, hp.alpha, InitScheme.SPEC, substream(3, "init"))
    tracer = spans.Tracer()
    with spans.traced(tracer):
        result = linrep.algorithms.run_trajectory(env, hp, init, substream(3, "tasks"),
                                                  record_every=2)
    metrics = spans.layer_metrics(tracer)
    steps = hp.iters + 1  # the final diagnostic step included
    assert metrics["algorithms.step.FO_ANIL.POPULATION.calls"] == steps
    assert metrics["env.diversity_stats.calls"] == steps
    assert metrics["algorithms.run_trajectory.calls"] == 1
    assert metrics["algorithms.run_trajectory.records_per_step"] == len(result.trajectory) / steps
    assert metrics["rng.standard_normal.variates"] == steps * hp.n * env.k

    tracer.write(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as stored:
        names = stored["names"].item()
        duration = stored["end"] - stored["start"]
        child_time = np.zeros_like(duration)
        has_parent = stored["parent"] >= 0
        np.add.at(child_time, stored["parent"][has_parent], duration[has_parent])
        own = duration - child_time
        for index, name in enumerate(json.loads(names)):
            assert own[stored["name_id"] == index].sum() == pytest.approx(
                tracer.self_s[name], rel=1e-9, abs=1e-12
            )


def test_uncovered_frac_counts_window_time_outside_root_spans():
    perp, rep = _truth()
    tracer = spans.Tracer(clock=_ticking_clock())
    with spans.traced(tracer):
        with tracer.window():  # opens at t=0, the span runs t=1..6
            linrep.metrics.principal_angle_dist(rep, perp)
        # closes at t=7
    assert tracer.windows == [(0.0, 7.0)]
    assert tracer.uncovered_frac() == pytest.approx(2.0 / 7.0)
    assert spans.layer_metrics(tracer)["trace.uncovered_frac"] == pytest.approx(2.0 / 7.0)


def test_failed_calls_are_counted_and_close_their_span():
    perp, rep = _truth()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        with pytest.raises(np.linalg.LinAlgError):
            linrep.metrics.principal_angle_dist(np.zeros_like(rep), perp)
    assert tracer.errors["metrics.principal_angle_dist"] == 1
    assert spans.layer_metrics(tracer)["metrics.principal_angle_dist.errors"] == 1
    assert not np.isnan(np.frombuffer(tracer.end)).any()


def test_every_binding_is_wrapped_and_then_restored():
    originals = {
        (module, attr): getattr(module, attr)
        for module in (linrep, linrep.metrics, linrep.algorithms)
        for attr in ("spectral_norm", "principal_angle_dist", "step_for", "run_trajectory")
        if hasattr(module, attr)
    }
    assert spans.wrapped_attributes() == []
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            inside = spans.wrapped_attributes()
            raise RuntimeError("leave the block early")
    for name in ("linrep.metrics.spectral_norm", "linrep.algorithms.spectral_norm",
                 "linrep.spectral_norm", "linrep.algorithms.step_for",
                 "linrep.harness.run_trajectory", "linrep.env.standard_normal"):
        assert name in inside
    assert spans.wrapped_attributes() == []
    for (module, attr), value in originals.items():
        assert getattr(module, attr) is value
