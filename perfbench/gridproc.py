"""One cold grid run in a fresh interpreter, making the calls `graphbench run` makes.

    python3 perfbench/gridproc.py SPEC.json

SPEC names the dataset directory, the grid stages (task, grid entries,
report path), ``jobs`` and ``trace``. The process imports graphbench, calls
``load_dataset``, builds each stage's grid, then ``run_grid`` and
``emit_report`` per stage, and prints one JSON line with its timings. With
no stages it stops after loading, which times set-up alone. The parent
takes set-up time as the wall time from its spawn call to ``ready``, which
is read from the system-wide monotonic clock.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import threading
import time
from pathlib import Path


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or -1 when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {p for p in fh.read().split() if "openblas" in p and p.endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


class ChildPeakSampler:
    """Peak resident memory of this process's children, polled every 10 ms.

    Process-pool workers exit inside ``run_grid``, so their high-water mark
    (VmHWM) is read while they live; the last reading per pid is its peak.
    The thread holds no lock a forked worker could need: it only opens and
    reads its own ``/proc`` files.
    """

    def __init__(self):
        self.peaks_kb = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self):
        while not self._stop.wait(0.01):
            for pid in self._children():
                try:
                    with open(f"/proc/{pid}/status") as fh:
                        for line in fh:
                            if line.startswith("VmHWM:"):
                                self.peaks_kb[pid] = int(line.split()[1])
                except OSError:  # the child exited between listing and reading
                    pass

    @staticmethod
    def _children():
        pids = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids += (task / "children").read_text().split()
            except OSError:
                pass
        return pids

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return sum(self.peaks_kb.values())


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from graphbench.harness import RunConfig, emit_report, load_dataset, run_grid

    bundle = load_dataset(spec["data"])
    grids = [
        [RunConfig(task=stage["task"], seed=0, **entry) for entry in stage["grid"]]
        for stage in spec["stages"]
    ]
    ready = time.perf_counter()
    out = {"ready": ready, "blas_threads": blas_threads()}
    if not grids:
        print(json.dumps(out))
        return
    load_s = 0.0
    if tracer is not None:
        load_s = tracer.total["harness.load_dataset"]
        tracer.reset()

    sampler = ChildPeakSampler() if spec["jobs"] > 1 else None
    results = []
    pool_wall = 0.0
    start = time.perf_counter()
    for stage, configs in zip(spec["stages"], grids):
        t0 = time.perf_counter()
        stage_results, _ = run_grid(bundle, configs, jobs=spec["jobs"])
        pool_wall += time.perf_counter() - t0
        emit_report(stage_results, stage["report"], bundle.name)
        results += stage_results
    grid_s = time.perf_counter() - start
    children_kb = sampler.stop() if sampler is not None else 0

    busy = sum(r.auxiliary["seconds"] for r in results)
    out.update(
        grid_s=grid_s,
        busy_frac=busy / (spec["jobs"] * pool_wall),
        peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb) / 1024.0,
        points=len(results),
        failures=[
            {"method": r.config.method, "k": r.config.k, "error": r.auxiliary["error"]}
            for r in results
            if r.failed
        ],
    )
    if tracer is not None:
        out.update(load_s=load_s, stats=tracer.stats())
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
