"""linrep benchmark entry point; see ``bench/README.md``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload population --seed 1 --seconds 55 --trace 0

Workloads: ``population`` and ``finite``.  Set-up time is
measured over fresh interpreters; the workload itself runs in one more
fresh process (``workload.py``) with ``src`` as its only ``PYTHONPATH``
entry and BLAS/OpenMP pinned to one thread.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer span metrics with ``--trace 1``.  Lines
before it give the run fingerprint, the SHA-256 of every artifact and any
failed check.  A full record of each run is kept under
``.bench_out/results``.  Repeated runs of one seed on the same source must
write identical artifact bytes; a mismatch with an earlier run recorded
under ``.bench_out/digests`` counts as a failed operation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("population", "finite")
SETUP_SAMPLES = 5
# Time metrics are reported at a fixed host speed: measured seconds times
# REF_NOMINAL_S over the time of workload.reference_s() in the same run.
# A shared host slows this process by up to ~1.8x for seconds to minutes at
# a time; the reference loop slows with it.  While the host's speed swung,
# dividing by it cut the spread (IQR over median) of population's wall time
# over consecutive 50 s windows from 0.16-0.25 to 0.07-0.10; on a steadier
# host it stayed at 0.05-0.10 and the extremes narrowed from +-12% to +-7%.
# Raw seconds stay in the printed lines and the record.
REF_NOMINAL_S = 0.15
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "iters_to_floor": "iterations",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_frac") or name.endswith("_per_step") or name.endswith("_per_record"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package and the benchmark sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "linrep").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload process timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return proc


def _setup_seconds(common: list[str], deadline: float) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times and the reference-loop time each
    interpreter measured after set-up; the first start only warms caches."""
    samples, refs = [], []
    for index in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        proc = _run_child([*common, "--setup-only"], deadline)
        ready, ref = proc.stdout.strip().splitlines()[-2:]
        if index:
            samples.append(float(ready) - start)
            refs.append(float(ref))
    return samples, refs


def _check_against_earlier(workload: str, seed: int, digests: dict, source: str,
                           versions: dict) -> bool:
    """Compare artifact digests with an earlier run of the same seed on the
    same source and numpy; record them if this is the first."""
    key = hashlib.sha256(
        json.dumps([workload, seed, source, versions["numpy"], versions["python"]]).encode()
    ).hexdigest()[:24]
    path = ROOT / ".bench_out" / "digests" / f"{workload}-{seed}-{key}.json"
    if path.exists():
        return json.loads(path.read_text()) == digests
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return True


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; return the full record and the result line."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "linrep" / "__init__.py").is_file():
        raise BenchError(f"no linrep sources under {ROOT / 'src'}")
    fingerprint = {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: _child_env()[name] for name in THREAD_VARS},
        "uname": [os.uname().sysname, os.uname().release, os.uname().machine],
        "loadavg_start": os.getloadavg(),
    }
    common = ["--workload", workload, "--seed", str(seed)]
    setup, setup_ref = _setup_seconds(common, deadline)

    work = ROOT / ".bench_out" / "work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _run_child([*common, "--seconds", str(seconds), "--trace", str(trace),
                    "--work", str(work)], deadline)
        child = json.loads((work / "result.json").read_text())
        spans_file = work / "spans.npz"
        if spans_file.exists():
            kept = ROOT / ".bench_out" / "spans" / f"{workload}-{seed}.npz"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(spans_file, kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprint["loadavg_end"] = os.getloadavg()
    fingerprint.update(child["versions"])
    failures = list(child["failures"])
    attempted = child["attempted"] + 1
    if not _check_against_earlier(workload, seed, child["digests"], fingerprint["source_sha256"],
                                  child["versions"]):
        failures.append("artifact digests differ from an earlier run of this seed")
    failed = len(failures)

    raw = {"setup_s": statistics.median(setup), "setup_ref_s": statistics.median(setup_ref)}
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in child["layers"].items()}
    else:
        calls = child["call_s"]
        # Means, not medians: with three to five passes, the mean of each
        # call and of the reference samples tracked the host's speed better.
        raw_wall = sum(statistics.fmean(p[name] for p in calls) for name in calls[0])
        raw_ref = statistics.fmean(child["ref_s"])
        wall = raw_wall * REF_NOMINAL_S / raw_ref
        raw.update(wall_s=raw_wall, ref_s=raw_ref)
        values = {
            "setup_s": raw["setup_s"] * REF_NOMINAL_S / raw["setup_ref_s"],
            "wall_s": wall,
            "steps_per_s": child["steps"] / wall,
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "iters_to_floor": child["iters_to_floor"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint,
        "raw_s": raw,
        "setup_s_samples": setup,
        "setup_ref_s": setup_ref,
        "call_s_passes": child["call_s"],
        "ref_s": child["ref_s"],
        "failures": failures,
        "fail_frac": failed / attempted,
        "digests": child["digests"],
        "metrics": metrics,
    }
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload}-{seed}-trace{trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    return record, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="linrep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    print("digests: " + json.dumps(record["digests"], sort_keys=True))
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(f"passes: {len(record['call_s_passes'])}, fail_frac: {record['fail_frac']}")
    print("raw seconds: " + json.dumps(record["raw_s"], sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
