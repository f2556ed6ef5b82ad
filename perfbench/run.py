"""graphbench benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ucv-cora --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; graphbench is imported from its
``src/``. The seed generates the workload's dataset bundle; graphbench only
sees those files. With ``--trace 0`` the benchmark repeats cold grid runs,
each in a fresh interpreter, for ``--seconds`` and prints the end-to-end
metrics. With ``--trace 1`` it makes one untraced run, one serial traced
run and one run through the ``graphbench run`` CLI, checks that all three
write the same report CSVs, and prints the per-layer metrics. The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import COMMON_LAYERS, WORKLOADS  # noqa: E402

ROOT = HERE.parent
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take
SETUP_SAMPLES = 5
BASELINES = ("cmeans-baseline", "logreg-baseline", "reference-graph")
# unit of each per-layer metric, by the last part of its name
PER_LAYER_UNITS = {
    "calls": "count", "edges_built": "count", "solves_per_graph": "count",
    "s": "s", "self_s": "s", "best_score": "score",
    "unique_frac": "frac", "fallback_frac": "frac", "fail_frac": "frac",
    "busy_frac": "frac", "coverage": "frac", "overhead_frac": "frac",
}
# Every process graphbench runs in uses one BLAS thread, so timings do not
# depend on how many cores the BLAS library decides to use.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Spawns graphbench processes with the pinned environment, within the deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ, **BLAS_PIN, TMPDIR=str(work))
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.count = 0

    def spawn(self, cmd, ok_codes=(0,)):
        """Run cmd; return (spawn time, stdout). Kill its process group on timeout."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[1]} exceeded the benchmark's deadline")
        if proc.returncode not in ok_codes:
            sys.stderr.write(stderr[-4000:])
            raise BenchError(f"{' '.join(cmd[:3])} exited with code {proc.returncode}")
        return start, stdout

    def grid(self, data: Path, stages, jobs: int, trace: bool) -> dict:
        """One cold grid run (no stages: set-up only); adds its report paths."""
        self.count += 1
        tag = f"run{self.count}"
        spec = {
            "data": str(data),
            "jobs": jobs,
            "trace": trace,
            "stages": [
                {"task": task, "grid": list(grid), "report": str(self.work / f"{tag}-{task}.csv")}
                for task, grid in stages
            ],
        }
        spec_path = self.work / f"{tag}.json"
        spec_path.write_text(json.dumps(spec))
        start, stdout = self.spawn([sys.executable, str(HERE / "gridproc.py"), str(spec_path)])
        out = json.loads(stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - start
        out["reports"] = [Path(stage["report"]) for stage in spec["stages"]]
        return out

    def cli(self, data: Path, stages, jobs: int) -> list:
        """The same grid through `graphbench run --grid <json>`; returns report paths."""
        reports = []
        for task, grid in stages:
            grid_path = self.work / f"cli-{task}.json"
            grid_path.write_text(json.dumps(list(grid)))
            report = self.work / f"cli-{task}.csv"
            cmd = [
                sys.executable, "-m", "graphbench.cli", "run", "--task", task,
                "--data", str(data), "--grid", str(grid_path), "--seed", "0",
                "--jobs", str(jobs), "--report", str(report),
            ]
            self.spawn(cmd, ok_codes=(0, 2))  # 2: some grid points failed
            reports.append(report)
        return reports


def read_rows(reports) -> list:
    rows = []
    for path in reports:
        with open(path, newline="") as fh:
            rows += list(csv.DictReader(fh))
    return rows


def csv_digest(reports) -> str:
    h = hashlib.sha256()
    for path in reports:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def point_problems(workload, run: dict) -> list:
    """Grid-point failures other than the workload's documented ones, and bad scores."""
    problems = []
    for f in run["failures"]:
        expected = workload.known_failures.get((f["method"], f["k"]))
        if expected is None or not f["error"].startswith(expected + ":"):
            problems.append(f"unexpected failure {f['method']} k={f['k']}: {f['error']}")
    for row in read_rows(run["reports"]):
        score = float(row["score"])
        if math.isnan(score):
            continue
        bounded = row["task"] != "dgs"
        if not math.isfinite(score) or (bounded and not -1.0 <= score <= 1.0):
            problems.append(f"score out of range: {row}")
    return problems


def best_scores(rows) -> dict:
    """Best score per method over every stage, as `<report>.best.txt` lists them."""
    best = {}
    for row in rows:
        score = float(row["score"])
        if not math.isnan(score):
            best[row["method"]] = max(score, best.get(row["method"], -math.inf))
    return best


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
        "src_lines": src_lines,
    }


def timed(runner: Runner, workload, data: Path, seconds: float):
    """End-to-end metrics from repeated cold grid runs with tracing off."""
    runner.grid(data, (), 1, False)  # warm the file cache and bytecode
    reps, problems = [], []
    start = time.perf_counter()
    # at least two, so that every run checks that repeats agree
    while len(reps) < 2 or time.perf_counter() - start < seconds:
        reps.append(runner.grid(data, workload.stages, workload.jobs, False))
    first = [r.read_bytes() for r in reps[0]["reports"]]
    failed = 0
    for rep in reps:
        found = point_problems(workload, rep)
        if [r.read_bytes() for r in rep["reports"]] != first:
            found.append("report CSV differs from the first repeat's")
        problems += found
        failed += bool(found)
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.grid(data, (), 1, False)["setup_s"])

    best = best_scores(read_rows(reps[0]["reports"]))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "grid_s": (statistics.median(r["grid_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "points_ok_frac": (1.0 - len(reps[0]["failures"]) / reps[0]["points"], "frac"),
        # 0 when every point of the method failed, which the checks flag
        "best.naive": (best.get("naive", 0.0), "score"),
        "best.nnk": (best.get("nnk", 0.0), "score"),
        "best.baseline": (max([best[m] for m in BASELINES if m in best] or [0.0]), "score"),
    }
    info = {
        "repeats": len(reps),
        "grid_s_samples": [r["grid_s"] for r in reps],
        "setup_s_samples": setups,
        "blas_threads": reps[0]["blas_threads"],
        "csv_sha256": csv_digest(reps[0]["reports"]),
        "failed_points": reps[0]["failures"],
    }
    return metrics, len(reps), failed, problems, info


def traced(runner: Runner, workload, data: Path):
    """Per-layer metrics from one serial traced run, checked against untraced runs."""
    runner.grid(data, (), 1, False)
    plain = runner.grid(data, workload.stages, workload.jobs, False)
    # tracing overhead is measured against an untraced run that is serial too
    serial = plain if workload.jobs == 1 else runner.grid(data, workload.stages, 1, False)
    trace = runner.grid(data, workload.stages, 1, True)
    cli_reports = runner.cli(data, workload.stages, workload.jobs)

    expected = [r.read_bytes() for r in plain["reports"]]
    runs = {"untraced": point_problems(workload, plain)}
    others = {"serial untraced": serial, "traced": trace} if serial is not plain else {"traced": trace}
    for name, run in others.items():
        runs[name] = point_problems(workload, run)
        if [r.read_bytes() for r in run["reports"]] != expected:
            runs[name].append(f"{name} run's report CSV differs from the jobs={workload.jobs} run's")
    calls = trace["stats"]["calls"]
    missing = [n for n in COMMON_LAYERS + workload.layers if not calls.get(n)]
    if missing:
        runs["traced"].append(f"tracer self-check: no calls recorded for {', '.join(missing)}")
    runs["cli"] = []
    if [r.read_bytes() for r in cli_reports] != expected:
        runs["cli"].append("`graphbench run` wrote a different report CSV")

    values = layer_metrics(
        trace["stats"], trace["grid_s"], trace["load_s"], serial["grid_s"], plain["busy_frac"]
    )
    values["inference.smooth_graph.best_score"] = best_scores(
        read_rows(plain["reports"])
    ).get("smooth", 0.0)
    info = {
        "traced_grid_s": trace["grid_s"],
        "untraced_serial_grid_s": serial["grid_s"],
        "csv_sha256": csv_digest(plain["reports"]),
        "layers_seen": sorted(calls),
    }
    found = list(runs.values())
    return values, len(found), sum(map(bool, found)), sum(found, []), info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphbench" / "__init__.py").is_file():
        print(f"perfbench: no graphbench source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=ROOT / ".perfbench_work"))
    try:
        data = workload.make_bundle(work / "data", args.seed)
        runner = Runner(work)
        if args.trace:
            values, attempted, failed, problems, info = traced(runner, workload, data)
            metrics = {
                name: (value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
                for name, value in values.items()
            }
        else:
            metrics, attempted, failed, problems, info = timed(
                runner, workload, data, args.seconds
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed, **info}))
    print(json.dumps({"environment": environment()}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
