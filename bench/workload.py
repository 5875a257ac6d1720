"""One benchmark workload in one process: generate configs from a seed,
check gradients, then time closed-loop passes of harness calls.

Run by ``bench/run.py`` with ``src`` on ``PYTHONPATH`` and BLAS pinned to
one thread.  ``--setup-only`` stops once ``linrep`` is imported and the
configs are validated and prints ``time.monotonic()``, so the parent can
time set-up from process start, then the time of one ``reference_s``
loop.  Otherwise the process writes its artifacts and ``result.json``
under ``--work``:

- ``--trace 0``: at least two passes, then more until the next one
  would end after ``--seconds``; each pass's harness wall time, outcome
  checks and artifact digests are recorded, and the reference loop is
  timed before every harness call and once at the end.
- ``--trace 1``: one untraced pass, then one pass with every public
  function of ``linrep`` wrapped in spans (see ``spans.py``).

A pass is the whole workload once: ``population`` runs five algorithms,
``finite`` sweeps three outer sample sizes.  Each harness call, sweep
cell and gradient check is one operation; an operation fails if it
raises or its output check fails.  Artifact bytes that differ between
passes fail an operation too.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import linrep.harness as harness
from linrep.env import sample_environment
from linrep.harness import ExperimentConfig
from linrep.model import init_model
from linrep.rng import substream

WORKLOADS = ("population", "finite")
GBML = ("FO_ANIL", "EXACT_ANIL", "FO_MAML", "EXACT_MAML")
ALGOS = GBML + ("AVG_RISK_MIN",)
ITERS = 10_000
FINITE_ITERS = 300
M_OUT = (50, 200, 800)
# Population runs reach the float64 floor near t=3000.  Finite runs level
# off at their sampling-noise plateau far above it, so on ``finite`` the
# first floor iteration reads horizon + 1.
FLOOR = 1e-12
# From a starting subspace almost orthogonal to col(B*) FO_MAML diverges:
# over 3000 seeds it did so at alignment (cosine of the largest principal
# angle) 8e-5 and 2.5e-7 and converged from 1e-4 up.  Such draws (about one
# in 2000) are skipped with a hundredfold margin, which drops about 6% of
# draws; on the seeds tried, runs then reached the floor at t=2900-3230.
MIN_ALIGNMENT = 1e-2
MIN_PASSES = 2
GRADCHECK_TOL = {"POPULATION": 1e-6, "FINITE": 1e-5}
# Iterations of the reference loop: about 0.15 s on one core.
REF_REPS = 45_000


def master_seed(workload: str, seed: int, tag: str = "", attempt: int = 0) -> int:
    """Experiment master seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"linrep-bench/{workload}/{seed}/{tag}/{attempt}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _config(env: dict, hp: dict, seed: int, record_every: int = 10) -> ExperimentConfig:
    return ExperimentConfig.model_validate(
        {
            "env": {"head_mean": 0.0, "head_scale": 1.0, **env},
            "hp": {"alpha": 0.1, "beta": 0.1, **hp},
            "init": {"scheme": "SPEC"},
            "run": {"trials": 1, "master_seed": seed, "record_every": record_every},
        }
    )


def initial_alignment(config: ExperimentConfig) -> float:
    """Cosine of the largest principal angle between trial 0's starting
    subspace and ``col(B*)``, drawn from the substreams the harness uses."""
    e, ms = config.env, config.run.master_seed
    env = sample_environment(e.d, e.k, head_mean=np.asarray(e.head_mean, dtype=float),
                             head_scale=e.head_scale, noise_std=e.noise_std,
                             rng=substream(ms, 0, "env"))
    init = init_model(env, config.hp.alpha, config.init.scheme, substream(ms, 0, "init"))
    basis, _ = np.linalg.qr(init.rep)
    return float(np.linalg.svd(env.ground_truth_rep.T @ basis, compute_uv=False)[-1])


def _screened(make, workload: str, seed: int, tag: str) -> ExperimentConfig:
    """``make(master_seed)`` for the first master seed derived from
    (``workload``, ``seed``, ``tag``) whose starting subspace is not nearly
    orthogonal to ``col(B*)`` (see ``MIN_ALIGNMENT``)."""
    attempt = 0
    config = make(master_seed(workload, seed, tag))
    while initial_alignment(config) < MIN_ALIGNMENT:
        attempt += 1
        config = make(master_seed(workload, seed, tag, attempt))
    return config


def workload_configs(workload: str, seed: int) -> list[ExperimentConfig]:
    """The validated configs one pass of ``workload`` runs.  Each population
    algorithm gets a draw of its own: the record path's cost depends on the
    draw (near-tied spectra stall the power iteration), so a pass averages
    over five draws instead of one."""
    if workload == "population":
        pop_env = {"d": 20, "k": 3, "noise_std": 0.0}
        return [
            _screened(
                lambda ms, a=a: _config(
                    pop_env, {"algo": a, "mode": "POPULATION", "n": 3, "iters": ITERS}, ms
                ),
                workload, seed, a,
            )
            for a in ALGOS
        ]
    if workload == "finite":
        hp = {"algo": "FO_ANIL", "mode": "FINITE", "n": 10, "m_in": 100, "m_out": M_OUT[0],
              "iters": FINITE_ITERS}
        env = {"d": 20, "k": 3, "noise_std": 0.1}
        return [_screened(lambda ms: _config(env, hp, ms), workload, seed, "FO_ANIL")]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def gradcheck_configs(seed: int) -> list[ExperimentConfig]:
    """All ten (algorithm, mode) pairs at d=6, k=2, n=3, m=40."""
    ms = master_seed("gradcheck", seed)
    configs = []
    for algo in ALGOS:
        for mode in ("POPULATION", "FINITE"):
            hp = {"algo": algo, "mode": mode, "n": 3, "iters": 10}
            if mode == "FINITE":
                hp.update(m_in=40, m_out=40)
            noise = 0.1 if mode == "FINITE" else 0.0
            configs.append(_config({"d": 6, "k": 2, "noise_std": noise}, hp, ms))
    return configs


@dataclass
class Pass:
    call_s: dict[str, float] = field(default_factory=dict)
    steps: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    floor_iters: list[int] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    calibrate: bool = False
    ref_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.call_s.values())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _first_at_or_below(points, floor: float, horizon: int) -> int:
    """First ``t`` with ``dist <= floor``; ``horizon + 1`` if none."""
    return next((t for t, dist in points if dist <= floor), horizon + 1)


def reference_s() -> float:
    """Seconds taken by a fixed loop of the kind of work the population
    kernels dispatch: small numpy products, a 3x3 ``eigvalsh`` and Python
    arithmetic.  Its time tracks how fast the host runs this process at
    the moment."""
    a = np.linspace(-1.0, 1.0, 60).reshape(20, 3)
    b = np.linspace(0.5, 1.5, 9).reshape(3, 3)
    start = time.perf_counter()
    acc = 0.0
    for i in range(REF_REPS):
        acc = 0.5 * acc + float((a @ b)[i % 20, i % 3])
        if i % 15 == 0:
            m = a @ b
            acc += float(np.linalg.eigvalsh(m.T @ m)[-1]) + float(m[:, 0] @ m[:, 1])
    return time.perf_counter() - start


def _timed(call, window, p: Pass):
    """Run ``call()`` inside ``window``; return (result or exception, seconds).
    A calibrating pass samples the reference loop first, outside the timing."""
    if p.calibrate:
        p.ref_s.append(reference_s())
    start = time.perf_counter()
    with window():
        try:
            result = call()
        except Exception as exc:  # an operation failure, reported by the caller
            result = exc
    return result, time.perf_counter() - start


def _population(configs, out: Path, p: Pass, window) -> None:
    for config in configs:
        algo = config.hp.algo.name
        art, seconds = _timed(
            lambda: harness.run_experiment(config, out_dir=out / algo.lower()), window, p
        )
        p.call_s[algo] = seconds
        p.steps += config.run.trials * (config.hp.iters + 1)
        if isinstance(art, Exception):
            p.check(False, f"{algo}: {art!r}")
            continue
        final = art.summary["final_dist_mean"]
        dist0 = sum(r.trajectory[0].dist for r in art.results) / len(art.results)
        if algo == "AVG_RISK_MIN":
            p.check(final is not None and final > 0.5 * dist0,
                    f"AVG_RISK_MIN final {final} not above 0.5*dist0 {0.5 * dist0}")
            continue
        # The screen in workload_configs must see the start the harness uses.
        screened = math.sqrt(max(0.0, 1.0 - dist0 * dist0)) >= 0.5 * MIN_ALIGNMENT
        p.check(screened and art.summary["diverged"] == 0 and final is not None and final < 1e-3,
                f"{algo} final dist {final} (diverged {art.summary['diverged']}, dist0 {dist0!r})")
        for result in art.results:
            points = [(r.t, r.dist) for r in result.trajectory]
            p.floor_iters.append(_first_at_or_below(points, FLOOR, config.hp.iters))


def _finite(configs, out: Path, p: Pass, window) -> None:
    (config,) = configs
    result, seconds = _timed(lambda: harness.sweep(config, "M_OUT", M_OUT, out_dir=out),
                             window, p)
    p.call_s["sweep"] = seconds
    p.steps += len(M_OUT) * config.run.trials * (config.hp.iters + 1)
    if isinstance(result, Exception):
        for m_out in M_OUT:
            p.check(False, f"m_out={m_out}: {result!r}")
        return
    cells = {cell.value: cell for cell in result.cells}
    for m_out in M_OUT:
        cell = cells.get(str(m_out))
        plateau = None if cell is None else cell.plateau_dist
        ok = (
            cell is not None
            and cell.error is None
            and cell.diverged is not None
            and cell.diverged < config.run.trials
            and plateau is not None
            and math.isfinite(plateau)
            and 0.0 <= plateau <= 1.0
        )
        p.check(ok, f"m_out={m_out}: {cell}")
        if not ok:
            continue
        with open(out / f"m_out_{m_out}" / "trajectory.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        for trial in sorted({row["trial"] for row in rows}):
            points = [(int(r["t"]), float(r["dist"])) for r in rows if r["trial"] == trial]
            p.floor_iters.append(_first_at_or_below(points, FLOOR, config.hp.iters))


_RUNNERS = {"population": _population, "finite": _finite}


def run_pass(workload: str, configs, out: Path, window=nullcontext,
             calibrate: bool = False) -> Pass:
    """Run ``workload`` once into a fresh ``out``, check outputs, and digest
    every artifact written; with ``calibrate``, sample ``reference_s``
    before each harness call."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    p = Pass(calibrate=calibrate)
    _RUNNERS[workload](configs, out, p, window)
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            p.digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
            p.bytes_written += len(data)
    return p


def run_gradchecks(seed: int) -> tuple[int, list[str]]:
    """Untimed gradient check of all ten pairs; returns (attempted, failures)."""
    failures = []
    configs = gradcheck_configs(seed)
    for config in configs:
        name = f"gradcheck {config.hp.algo.name}/{config.hp.mode.name}"
        try:
            report = harness.gradcheck(config)
        except Exception as exc:  # an operation failure
            failures.append(f"{name}: {exc!r}")
            continue
        error = max(report.max_rel_err_head, report.max_rel_err_rep)
        if not (math.isfinite(error) and error <= GRADCHECK_TOL[config.hp.mode.name]):
            failures.append(f"{name}: relative error {error}")
    return len(configs), failures


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "linrep_file": harness.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", type=Path, help="directory for artifacts and result.json")
    args = parser.parse_args(argv)

    configs = workload_configs(args.workload, args.seed)
    if args.setup_only:
        print(repr(time.monotonic()), flush=True)
        print(repr(reference_s()))
        return 0
    if args.work is None:
        parser.error("--work is required unless --setup-only")

    attempted, failures = run_gradchecks(args.seed)
    passes: list[Pass] = []
    ref_s: list[float] = []
    result: dict = {"versions": _versions()}
    if args.trace:
        import spans

        passes.append(run_pass(args.workload, configs, args.work / "untraced"))
        tracer = spans.Tracer()
        with spans.traced(tracer):
            passes.append(run_pass(args.workload, configs, args.work / "traced", tracer.window))
        leftover = spans.wrapped_attributes()
        attempted += 1
        if leftover:
            failures.append(f"tracing wrappers left installed: {leftover}")
        layers = spans.layer_metrics(tracer)
        layers["harness.bytes_written"] = passes[1].bytes_written
        layers["trace.overhead_frac"] = passes[1].wall_s / passes[0].wall_s - 1.0
        result["layers"] = layers
        tracer.write(args.work / "spans.npz")
    else:
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, configs, args.work / f"pass{len(passes)}",
                                   calibrate=True))
            elapsed = time.perf_counter() - begin
            predicted_end = elapsed * (len(passes) + 1) / len(passes)
            if len(passes) >= MIN_PASSES and predicted_end > args.seconds:
                break
        ref_s = [t for p in passes for t in p.ref_s] + [reference_s()]

    for index, p in enumerate(passes):
        attempted += p.attempted
        failures += p.failures
        if index:
            attempted += 1
            if p.digests != passes[0].digests:
                failures.append(f"pass {index} artifact digests differ from pass 0")
    result.update(
        attempted=attempted,
        failures=failures,
        call_s=[p.call_s for p in passes],
        ref_s=ref_s,
        steps=passes[0].steps,
        iters_to_floor=max(passes[0].floor_iters, default=max(c.hp.iters for c in configs) + 1),
        digests=passes[0].digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    (args.work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
