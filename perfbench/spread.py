"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/spread.py                       # seeds 1..10, every workload
    python3 perfbench/spread.py --traced --out perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against a third of the metric's bound in BENCHMARK.json.  With --traced it
also makes one traced run per workload for the per-layer table.  Run from
the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats
import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"
SEEDS = range(1, 11)


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        tails, runs = [], []
        for seed in SEEDS:
            detail, result = run_once(bench["command"], workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: failures {detail['failures']}", file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            tails.append(detail["op_tail"])
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{workload} seed {seed}: " + json.dumps({k: round(v[-1], 4) for k, v in values.items()}), flush=True)
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = stats.quartiles(vals)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3.0
            steady &= ok
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"  {name:14s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:.4f}  bound/3 {bounds[name] / 3.0:.4f}  {'ok' if ok else 'WIDE'}")
        entry = {"end_to_end": metrics, "op_tail": tails, "runs": runs, "environment": detail["environment"]}
        if args.traced:
            detail, result = run_once(bench["command"], workload, SEEDS[0], seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in result["metrics"].items()}
            entry["per_layer_seed"] = SEEDS[0]
            entry["errors_by_module"] = detail["errors_by_module"]
            print(f"  traced: " + json.dumps({k: round(v, 3) for k, v in entry["per_layer"].items() if v}))
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
