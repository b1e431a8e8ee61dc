"""qsdsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload library --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and measures the qsdsim in its src/.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones.  The last line of stdout is the result object; the line
before it holds the detail: environment, tail percentile and sample count,
per-entry medians and any failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
import workloads

WORKER = Path(__file__).resolve().parent / "worker.py"
# Everything ends within this many seconds.
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def run_worker(worker_args: list[str], env: dict) -> dict:
    """Run the worker to its end and return its result object."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *worker_args],
        cwd=workloads.ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(worker_args)} ran past {DEADLINE_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(worker_args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = workloads.ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    lat = result["latencies_s"]
    pct, tail_s, beyond = stats.tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (stats.order_statistic(sorted(lat), 500) * 1000.0, "ms"),
        "op_tail_ms": (tail_s * 1000.0, "ms"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    detail = {
        "op_tail": {"percentile": pct, "samples": len(lat), "beyond": beyond},
        "setup_samples_s": setup,
    }
    return metrics, detail


def per_entry_medians(result: dict) -> dict:
    by_label: dict[str, list[float]] = {}
    for label, t in zip(result["labels"], result["latencies_s"]):
        by_label.setdefault(label, []).append(t)
    return {label: statistics.median(ts) * 1000.0 for label, ts in by_label.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (workloads.SRC / "qsdsim" / "__init__.py", workloads.GOLDEN) if not p.exists()]
    if missing:
        print(f"perfbench: not a qsdsim checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    worker_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        result = run_worker(worker_args, workloads.child_env())
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = result["failures"]
    attempted = result["attempted"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(result["environment"], commit=git_commit(), seed=args.seed),
        "error_frac": len(failures) / attempted,
        "failures": failures[:20],
        "entry_p50_ms": per_entry_medians(result),
    }
    if args.trace:
        metrics = result["layers"]
        detail["errors_by_module"] = result["errors_by_module"]
    else:
        metrics, extra = end_to_end(result, result["setup_samples_s"])
        detail.update(extra)
        sampled = [(n, t) for n, t in zip(result["trials"], result["latencies_s"]) if n]
        if sampled:
            detail["trials_per_s"] = sum(n for n, _ in sampled) / sum(t for _, t in sampled)
    for failure in failures[:20]:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
