"""Spans around the calls into each qsdsim module, installed at run time.

Every public function of a qsdsim module is wrapped in each namespace that
bound it other than its own: the other qsdsim modules, the package, and
the benchmark's api module.  A span therefore marks a call that crosses
into the module; calls inside a module stay unwrapped and count as its
self time.  src/ is never edited.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict
from pathlib import Path

MODULES = (
    "cli",
    "families",
    "fock",
    "minerror",
    "unambiguous",
    "multiport",
    "channels",
    "montecarlo",
    "serialize",
)


class Tracer:
    """Records spans in memory: name, start, end, parent span and operation id.

    Spans live in flat arrays, which the garbage collector does not scan,
    so a long traced run does not slow collections down.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.op = -1
        self.errors = Counter()
        self.serialized_bytes = 0
        self.trials = 0
        # tracemalloc slows the sampler by a quarter, so its peak is taken
        # in a separate pass with this set, not during the timed spans
        self.probe_alloc = False
        self.peak_alloc = 0
        self._stack: list[int] = []

    def _wrap(self, module: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(f"{module}.{name}")
        stack = self._stack
        is_runner = module == "montecarlo" and name.startswith("run_")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            probe = is_runner and self.probe_alloc and not tracemalloc.is_tracing()
            if probe:
                tracemalloc.start()
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            self.start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
                if probe:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if module == "serialize" and isinstance(result, str):
                self.serialized_bytes += len(result.encode())
            elif is_runner:
                self.trials += result.trials
            return result

        return span

    @contextlib.contextmanager
    def installed(self, *extra_namespaces):
        """Wrap the cross-module bindings for the duration of the block."""
        owners = {}
        for short in MODULES:
            mod = sys.modules[f"qsdsim.{short}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    owners[id(obj)] = (short, name, mod)
        namespaces = [m for n, m in sys.modules.items() if n == "qsdsim" or n.startswith("qsdsim.")]
        namespaces += extra_namespaces
        wrappers, patched = {}, []
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                owner = owners.get(id(obj))
                if owner is None or owner[2] is ns:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(owner[0], owner[1], obj)
                setattr(ns, name, wrappers[id(obj)])
                patched.append((ns, name, obj))
        try:
            yield
        finally:
            for ns, name, obj in patched:
                setattr(ns, name, obj)

    def summary(self, op_count: int, op_seconds: float) -> dict:
        """Per-layer metrics; times and counts are means per operation."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        self_s = defaultdict(float)
        calls = Counter()
        top_s = 0.0
        atom_s, atom_calls = 0.0, 0
        for i in range(n):
            name = self.names[self.name_of[i]]
            module = name.split(".", 1)[0]
            self_s[module] += duration[i] - child[i]
            calls[module] += 1
            if self.parent[i] < 0:
                top_s += duration[i]
            if name == "channels.atom_excitation_avg":
                atom_s += duration[i]
                atom_calls += 1

        per_op = 1000.0 / op_count
        metrics = {}
        for module in MODULES:
            metrics[f"{module}.self_ms"] = (self_s[module] * per_op, "ms")
            metrics[f"{module}.calls"] = (calls[module] / op_count, "count")
        serialize_s = self_s["serialize"]
        sampler_s = self_s["montecarlo"]
        metrics["serialize.bytes"] = (self.serialized_bytes / op_count, "B")
        metrics["serialize.mb_per_s"] = (
            self.serialized_bytes / 1e6 / serialize_s if serialize_s else 0.0,
            "MB/s",
        )
        metrics["montecarlo.trials"] = (self.trials / op_count, "count")
        metrics["montecarlo.ns_per_trial"] = (
            sampler_s * 1e9 / self.trials if self.trials else 0.0,
            "ns",
        )
        metrics["channels.atom_ms_per_call"] = (
            atom_s * 1000.0 / atom_calls if atom_calls else 0.0,
            "ms",
        )
        metrics["unattributed.self_ms"] = ((op_seconds - top_s) * per_op, "ms")
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as one CSV row; times in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "name", "start_us", "end_us", "parent"])
            for i in range(len(self.start)):
                out.writerow(
                    [
                        self.op_of[i],
                        self.names[self.name_of[i]],
                        f"{self.start[i] * 1e6:.1f}",
                        f"{self.end[i] * 1e6:.1f}",
                        self.parent[i],
                    ]
                )
