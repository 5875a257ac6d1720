"""Byte parity of linrep's artifacts between a git revision and the checkout.

Usage, from the root of a checkout::

    python3 tools/parity.py REV
    python3 tools/parity.py --compare DIR_A DIR_B

The first form extracts ``REV`` (``git archive``, so no worktree is
registered) under ``.bench_build/``, then produces the same artifacts from
``REV``'s tree and from the checkout, each command in a fresh process with
that tree's ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread:

- ``linrep run`` at ``--jobs`` 1 and 2 and ``linrep hypcheck`` for each
  shipped run config (``gradcheck_small`` and the ``population_*`` ones)
  and each of the five algorithms, at 2 trials with ``checks.hypcheck``
  on, and ``linrep plot`` of each ``--jobs 1`` run's ``trajectory.csv``;
- ``linrep sweep`` over ``M_IN`` (``20,0,100,400``) and over ``M_OUT``
  (``50,0,200,800``) on ``finite_sample_sweep`` at 3 trials, for each of
  the five algorithms, at ``--jobs`` 1 and 2: every stacked kernel, and a
  cell whose value is refused beside cells that run;
- ``harness.gradcheck``'s errors as float hex for the ten (algorithm,
  mode) pairs, from ``gradcheck_small`` with the pair swapped in.

Each command's standard output is kept as an artifact too.  The second
form only compares two directories that hold such outputs.

The report (JSON, ``--report``, and a summary on standard output) gives the
SHA-256 of every file on each side; for a file that differs, the first
differing line and, for a CSV, the largest absolute and relative
difference of each column whose cells differ.  The exit status is 0 when
every file is identical, 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
ALGOS = ("FO_ANIL", "EXACT_ANIL", "FO_MAML", "EXACT_MAML", "AVG_RISK_MIN")
RUN_CONFIGS = ("gradcheck_small", "population_zero_mean", "population_mean10_near_truth",
               "population_mean10_random_init")
SWEEP_CONFIG = "finite_sample_sweep"
SWEEPS = (("M_IN", "20,0,100,400"), ("M_OUT", "50,0,200,800"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
GRADCHECK_HEX = """
import json, sys
from linrep.harness import ExperimentConfig, gradcheck
base = json.load(open(sys.argv[1]))
for algo in {algos!r}:
    for mode in ("POPULATION", "FINITE"):
        raw = json.loads(json.dumps(base))
        raw["hp"].update(algo=algo, mode=mode)
        if mode == "POPULATION":
            raw["hp"].update(m_in=0, m_out=0)
        report = gradcheck(ExperimentConfig.model_validate(raw))
        print(algo, mode, report.max_rel_err_head.hex(), report.max_rel_err_rep.hex(),
              report.status)
"""


def extract(rev: str) -> Path:
    """The tree of ``rev`` under ``.bench_build/``, extracted once per commit."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = BUILD / f"parity-{sha[:12]}"
    if not (tree / "src").is_dir():
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        shutil.rmtree(tree, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    return tree


def _commands(tree: Path) -> list[tuple]:
    """``(name, argv, config)`` of every command: ``config`` is the JSON
    dict to write as ``name.json`` first, or None."""
    commands = []
    for stem in RUN_CONFIGS:
        raw = json.loads((tree / "configs" / f"{stem}.json").read_text())
        for algo in ALGOS:
            name = f"{stem}-{algo.lower()}"
            config = json.loads(json.dumps(raw))
            config["hp"]["algo"] = algo
            config["run"]["trials"] = 2
            config["checks"]["hypcheck"] = True
            for jobs in (1, 2):
                commands.append((f"{name}-run{jobs}", ["run", f"{name}.json", "--jobs",
                                                      str(jobs), "--out", f"{name}/run{jobs}"],
                                 config))
            commands.append((f"{name}-plot", ["plot", f"{name}/run1/trajectory.csv", "-o",
                                              f"{name}/run1/plot.svg"], None))
            commands.append((f"{name}-hypcheck", ["hypcheck", f"{name}.json", "--out",
                                                  f"{name}/hypcheck"], config))
    raw = json.loads((tree / "configs" / f"{SWEEP_CONFIG}.json").read_text())
    for algo in ALGOS:
        name = f"{SWEEP_CONFIG}-{algo.lower()}"
        config = json.loads(json.dumps(raw))
        config["hp"]["algo"] = algo
        config["run"]["trials"] = 3
        for axis, values in SWEEPS:
            for jobs in (1, 2):
                commands.append((f"{name}-{axis.lower()}{jobs}",
                                 ["sweep", f"{name}.json", "--axis", axis, "--values", values,
                                  "--jobs", str(jobs), "--out", f"{name}/{axis.lower()}{jobs}"],
                                 config))
    return commands


def produce(tree: Path, out: Path) -> None:
    """Write the artifacts of ``tree``'s sources under ``out`` (emptied)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1")}

    def call(name: str, argv: list[str]) -> None:
        done = subprocess.run([sys.executable, *argv], cwd=out, env=env, capture_output=True,
                              text=True)
        (out / f"{name}.stdout").write_text(done.stdout + f"exit {done.returncode}\n")
        if done.returncode not in (0, 2):  # 2: a check reported FAIL, itself an artifact
            raise RuntimeError(f"{name} failed in {tree}:\n{done.stderr}")

    for name, argv, config in _commands(tree):
        if config is not None:
            (out / argv[1]).write_text(json.dumps(config, indent=2, sort_keys=True))
        call(name, ["-m", "linrep.cli", *argv])
    call("gradcheck-hex", ["-c", GRADCHECK_HEX.format(algos=ALGOS),
                           str(tree / "configs" / "gradcheck_small.json")])


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _column_differences(a: str, b: str) -> dict[str, dict]:
    """Per CSV column whose cells differ: the largest absolute and relative
    differences of its numeric cells (rows paired in order; ``NaN`` when
    only one side of a pair is numeric or finite) and the number of
    differing cells."""
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if not rows_a or not rows_b:
        return {}
    header = rows_a[0] if rows_a[0] == rows_b[0] else [
        f"{x}|{y}" for x, y in zip(rows_a[0], rows_b[0])]
    columns: dict[str, dict] = {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(header, row_a, row_b):
            if x == y:
                continue
            entry = columns.setdefault(name, {"cells": 0, "max_abs": 0.0, "max_rel": 0.0})
            entry["cells"] += 1
            u, v = _number(x), _number(y)
            if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
                entry["max_abs"] = entry["max_rel"] = math.nan
                continue
            diff = abs(u - v)
            scale = max(abs(u), abs(v))
            rel = diff / scale if scale else 0.0
            # A NaN already recorded stays: max() would drop it.
            if not math.isnan(entry["max_abs"]):
                entry["max_abs"] = max(entry["max_abs"], diff)
                entry["max_rel"] = max(entry["max_rel"], rel)
    return columns


def compare(parent: Path, change: Path) -> dict:
    """The report on every file under ``parent`` and ``change``."""
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    files, differ = {}, {}
    for name in names:
        a, b = parent / name, change / name
        files[name] = {"parent": _digest(a) if a.is_file() else None,
                       "change": _digest(b) if b.is_file() else None}
        if files[name]["parent"] == files[name]["change"] or not (a.is_file() and b.is_file()):
            continue
        text_a, text_b = a.read_text(), b.read_text()
        lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
        line = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                    min(len(lines_a), len(lines_b)))
        entry = {"first_line": line + 1,
                 "parent_line": lines_a[line] if line < len(lines_a) else None,
                 "change_line": lines_b[line] if line < len(lines_b) else None}
        if name.endswith(".csv"):
            entry["columns"] = _column_differences(text_a, text_b)
        differ[name] = entry
    return {
        "identical": sum(f["parent"] == f["change"] for f in files.values()),
        "differ": differ,
        "only_parent": [n for n, f in files.items() if f["change"] is None],
        "only_change": [n for n, f in files.items() if f["parent"] is None],
        "files": files,
    }


def summary(report: dict) -> str:
    lines = [f"{report['identical']} of {len(report['files'])} files identical"]
    for name in report["only_parent"]:
        lines.append(f"only in parent: {name}")
    for name in report["only_change"]:
        lines.append(f"only in change: {name}")
    for name, entry in report["differ"].items():
        lines.append(f"differs: {name} from line {entry['first_line']}")
        for column, stats in entry.get("columns", {}).items():
            lines.append(f"  {column}: {stats['cells']} cells, max abs {stats['max_abs']:.3g},"
                         f" max rel {stats['max_rel']:.3g}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare the checkout with")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"),
                        help="compare two output directories instead")
    parser.add_argument("--report", type=Path, default=BUILD / "parity" / "report.json")
    args = parser.parse_args(argv)
    if args.compare:
        parent, change = args.compare
    elif args.rev:
        parent, change = BUILD / "parity" / "parent", BUILD / "parity" / "change"
        produce(extract(args.rev), parent)
        produce(ROOT, change)
    else:
        parser.error("give a revision or --compare")
    report = compare(parent, change)
    report["rev"] = args.rev
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(summary(report))
    return 0 if report["identical"] == len(report["files"]) else 1


if __name__ == "__main__":
    sys.exit(main())
