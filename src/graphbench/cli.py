"""Command-line entry points for graph inference and benchmark runs."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core_graph import write_graph
from .harness import (
    GRAPH_METHODS,
    TASKS,
    DatasetError,
    RunConfig,
    emit_report,
    full_grid,
    load_dataset,
    point_graph,
    run_grid,
    summary_path,
)
from .inference import DEFAULT_SIGMA, SIMILARITY_KINDS, CalibrationError

VARIANT_ALIASES = {
    "raw": "raw",
    "sym": "sym_norm",
    "aug": "augmented",
    "augsym": "augmented_sym_norm",
}


def _master_seed(args) -> int:
    env = os.environ.get("GRAPHBENCH_SEED") or "0"
    try:
        return args.seed if args.seed is not None else int(env)
    except ValueError:
        raise ValueError(f"GRAPHBENCH_SEED={env!r} is not an integer") from None


def cmd_infer(args) -> int:
    bundle = load_dataset(args.data)
    cfg = RunConfig(
        task="ucv",  # placeholder: point_graph reads only the graph fields
        method=args.method,
        similarity=args.similarity,
        k=args.k,
        gamma=args.gamma,
        sigma=args.sigma,
        adjacency_variant=VARIANT_ALIASES[args.variant],
    )
    g = point_graph(bundle, cfg)
    write_graph(g, args.out)
    print(f"wrote {g.n_edges} edges to {args.out}")
    return 0


def _load_grid(spec: str, task: str, bundle, master_seed: int) -> list[RunConfig]:
    if spec == "full":
        return full_grid(task, bundle, master_seed)
    with open(spec) as fh:
        raw = json.load(fh)
    configs = []
    for entry in raw:
        entry = dict(entry)
        entry.setdefault("task", task)
        entry.setdefault("seed", master_seed)
        if "adjacency_variant" in entry:
            entry["adjacency_variant"] = VARIANT_ALIASES.get(
                entry["adjacency_variant"], entry["adjacency_variant"]
            )
        configs.append(RunConfig(**entry))
    if not configs:
        raise ValueError(f"{spec} holds no grid points")
    return configs


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    bundle = load_dataset(args.data)
    try:
        configs = _load_grid(args.grid, args.task, bundle, _master_seed(args))
    except (OSError, ValueError, TypeError) as exc:
        raise ValueError(f"bad grid spec: {exc}") from None
    # fail before the grid runs, not after, when a report file cannot be written
    for path in (args.report, summary_path(args.report)):
        open(path, "a").close()
    results, best = run_grid(bundle, configs, jobs=args.jobs)
    emit_report(results, args.report, bundle.name, timing=args.timing)
    n_failed = sum(r.failed for r in results)
    if best is not None:
        cfg = best.config
        score = best.primary_score
        print(
            f"best: {cfg.method} similarity={cfg.similarity} k={cfg.k} "
            f"variant={cfg.adjacency_variant} score={score if math.isinf(score) else round(score, 4)}"
        )
    print(f"{len(results)} grid points, {n_failed} failed; report: {args.report}")
    return 2 if n_failed else 0


def cmd_validate(args) -> int:
    try:
        bundle = load_dataset(args.dir)
    except DatasetError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    parts = [f"name={bundle.name}", f"N={bundle.features.shape[0]}", f"F={bundle.features.shape[1]}"]
    if bundle.C is not None:
        parts.append(f"C={bundle.C}")
    if bundle.clean_signal is not None:
        parts.append(f"signal_len={bundle.clean_signal.size}")
    if bundle.reference_graph is not None:
        parts.append(f"reference_graph_n={bundle.reference_graph.n}")
    print("valid: " + " ".join(parts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="build a graph from a dataset directory")
    p_infer.add_argument("--data", required=True)
    p_infer.add_argument("--method", required=True, choices=GRAPH_METHODS)
    p_infer.add_argument("--similarity", choices=SIMILARITY_KINDS)
    p_infer.add_argument("--k", type=int, required=True)
    p_infer.add_argument("--gamma", type=float)
    p_infer.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p_infer.add_argument("--variant", default="raw", choices=list(VARIANT_ALIASES))
    p_infer.add_argument("--out", required=True)
    p_infer.set_defaults(func=cmd_infer)

    p_run = sub.add_parser("run", help="run a task grid and write a CSV report")
    p_run.add_argument("--task", required=True, choices=TASKS)
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--grid", default="full", help="'full' or a JSON grid file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--report", required=True)
    p_run.add_argument("--timing", action="store_true", help="record wall time in the CSV")
    p_run.set_defaults(func=cmd_run)

    p_data = sub.add_parser("datasets", help="dataset utilities")
    data_sub = p_data.add_subparsers(dest="datasets_command", required=True)
    p_val = data_sub.add_parser("validate", help="validate a dataset directory")
    p_val.add_argument("dir")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    """Run one command; any input error prints `error: <message>` and exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, CalibrationError) as exc:  # ValueError covers DatasetError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
