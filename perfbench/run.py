"""Run the repo benchmark.

    python3 perfbench/run.py                                # every workload, fresh process each
    python3 perfbench/run.py --workload serve-open --seed 3 --seconds 10 --trace 0

With ``--trace 0`` a run prints the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it prints the per-layer metrics
of a traced run instead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A run whose output checks fail exits with code 1.

Without ``--workload`` (or with ``--workload all``) each workload runs
in its own subprocess, because peak RSS is a per-process high-water
mark; the summary table lists every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# The benchmark pins the program's environment knobs: telemetry off,
# serial execution unless a workload asks otherwise.
for _var in ("REPRO_TELEMETRY", "REPRO_JOBS", "REPRO_BACKEND"):
    os.environ.pop(_var, None)

from perfbench.common import Context, load_spec, result_line  # noqa: E402

WORKLOADS = {
    "serve-open": ("perfbench.serving", "run_open"),
    "serve-churn": ("perfbench.serving", "run_churn"),
    "search-bulk": ("perfbench.search_bulk", "run"),
    "campaign-train": ("perfbench.campaign_train", "run"),
}


def run_one(args: argparse.Namespace) -> int:
    import importlib

    module_name, func_name = WORKLOADS[args.workload]
    run = getattr(importlib.import_module(module_name), func_name)
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(Context(args.workload, args.seed, args.seconds, bool(args.trace), workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    for line in outcome.report:
        print(line)
    for note in outcome.checks.notes:
        print(f"CHECK FAILED: {note}")
    print(result_line(outcome, bool(args.trace)), flush=True)
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    combined: dict[str, dict] = {}
    correct = True
    attempted = failed = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit code {proc.returncode})")
            return 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        print(
            f"\n{workload}: correct={result['correct']} checked={result['attempted']} "
            f"failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
            combined[f"{workload}/{name}"] = metric
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}
    print(json.dumps(summary))
    return 0 if correct else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
