"""One workload in one process: set up, warm up, then run the mix in a closed loop.

Started by run.py; writes one result object to stdout.  With --setup-only
it writes {"ready": true} when set-up ends and exits: the worker starts
itself that way before each cycle to sample the set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

SPANS_DIR = Path(__file__).resolve().parent / "out"
# A run starts no new cycle once this share of its nominal time has passed,
# so a slower machine cannot stretch the whole benchmark past its budget.
OVERRUN = 1.3


@dataclass
class Phase:
    """What one measuring phase saw."""

    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    trials: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def op_seconds(self) -> float:
        return sum(self.latencies)


def run_op(op, phase: Phase, tracer=None) -> None:
    if tracer is not None:
        tracer.op = len(phase.latencies)
    error = None
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if error is None:
        try:
            op.check(out)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    phase.latencies.append(t1 - t0)
    phase.labels.append(op.label)
    phase.trials.append(op.trials)
    if error is not None:
        phase.failures.append(f"{op.label}: {error}")
    # Collect the output and the check's parsed copy here, untimed, so the
    # next operation does not pay for the garbage of this one's check.
    out = None
    gc.collect()


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles of the mix that take about `seconds` at the nominal pace."""
    return max(1, round(seconds / workloads.NOMINAL_CYCLE_S[workload]))


def cycles(count: int, nominal_s: float):
    """Yield `count` times, then stop; stop early past OVERRUN x the nominal time.

    A fixed count, rather than a deadline, keeps the number of samples the
    same from run to run, so the tail percentile is the same one on every
    run and on both sides of a comparison.  The deadline only bounds a run
    on a much slower machine.
    """
    deadline = time.perf_counter() + OVERRUN * count * nominal_s
    for _ in range(count):
        if time.perf_counter() > deadline:
            return
        yield


def run_cycle(ops, phase: Phase, tracer=None) -> None:
    for op in ops:
        run_op(op, phase, tracer)


def warm_up(ops) -> Phase:
    phase = Phase()
    for op in ops:
        run_op(op, phase)
    return phase


def import_seconds(env) -> float:
    """Spawn-to-exit time of `python -c "import qsdsim.cli"`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import qsdsim.cli"], env=env)
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    code = proc.wait()
    elapsed = time.perf_counter() - t0
    timer.cancel()
    if code != 0:
        raise RuntimeError(f"import qsdsim.cli exited with {code}")
    return elapsed


def worker_setup_seconds(args, env) -> float:
    """Spawn-to-ready time of this worker with --setup-only: import, inputs, warm-up."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workloads.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up worker exited with {proc.returncode}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy  # imported by qsdsim anyway, but not by a CLI client

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in workloads.BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def load_api():
    import api
    import qsdsim

    if not qsdsim.__file__.startswith(str(workloads.SRC)):
        raise SystemExit(f"qsdsim imported from {qsdsim.__file__}, not from {workloads.SRC}")
    return api


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = workloads.draw_inputs(args.seed)
    env = workloads.child_env()
    subprocess_cli = args.workload == "cli-paper" and not args.trace
    result = {}

    if subprocess_cli:
        ops = workloads.cli_paper(inputs, lambda argv: workloads.spawn_cli(argv, env))
        warm = Phase()
    else:
        api = load_api()
        if args.workload == "library":
            ops = workloads.library(api, inputs)
            warm = warm_up(workloads.warm_ups(api, inputs, ops))
        else:
            ops = workloads.cli_paper(inputs, lambda argv: workloads.dispatch_in_process(api, argv))
            warm = warm_up(ops)
    if args.setup_only:
        emit({"ready": True})
        return 0
    result["environment"] = environment()
    cycle_s = workloads.NOMINAL_CYCLE_S[args.workload]

    if not args.trace:
        # One set-up sample before each cycle spreads the samples over the
        # run like the operations, so they see the same machine states.  A
        # CLI client pays interpreter start and `import qsdsim.cli` on every
        # call; a library user pays one worker start-up.
        if subprocess_cli:
            sample_setup = lambda: import_seconds(env)
        else:
            sample_setup = lambda: worker_setup_seconds(args, env)
        setup_s = workloads.NOMINAL_SETUP_S[args.workload]
        phase, setup = Phase(), []
        for _ in cycles(cycles_for(args.workload, args.seconds), cycle_s + setup_s):
            setup.append(sample_setup())
            run_cycle(ops, phase)
        result["setup_samples_s"] = setup
        phases = [warm, phase]
    else:
        # Untraced and traced cycles alternate in one process on the same
        # inputs, so both see the same machine states: the difference in
        # their rates is the tracing overhead.
        import spans

        tracer = spans.Tracer()
        plain, phase, imports = Phase(), Phase(), []
        pairs = cycles_for(args.workload, args.seconds / 2.0)
        for _ in cycles(pairs, 2.0 * cycle_s + workloads.NOMINAL_SETUP_S["cli-paper"]):
            imports.append(import_seconds(env))
            run_cycle(ops, plain)
            with tracer.installed(api):
                run_cycle(ops, phase, tracer)
        phases = [warm, plain, phase]
        layers = tracer.summary(len(phase.latencies), phase.op_seconds)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
        if tracer.trials:
            # one more cycle, untimed, for the sampler's peak allocation
            tracer.probe_alloc = True
            probe = Phase()
            with tracer.installed(api):
                run_cycle(ops, probe)
            phases.append(probe)
        layers["montecarlo.peak_alloc_mib"] = (tracer.peak_alloc / 2**20, "MiB")
        layers["cli.import_s"] = (statistics.median(imports), "s")
        traced_rate = len(phase.latencies) / phase.op_seconds
        plain_rate = len(plain.latencies) / plain.op_seconds
        layers["trace.ops_per_s"] = (traced_rate, "1/s")
        layers["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
        layers["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
        result["layers"] = layers
        result["errors_by_module"] = dict(tracer.errors)

    result["latencies_s"] = phase.latencies
    result["labels"] = phase.labels
    result["trials"] = phase.trials
    result["attempted"] = sum(len(p.latencies) for p in phases)
    result["failures"] = [f for p in phases for f in p.failures]
    # the CLI client's largest child, or the in-process worker itself
    who = resource.RUSAGE_CHILDREN if subprocess_cli else resource.RUSAGE_SELF
    result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
