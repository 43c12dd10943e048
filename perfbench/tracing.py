"""Spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own files, never from inside the
package: the benchmark wraps the library functions it calls (or, for the CLI
replay, the functions `tripletdnp.cli` imports) so that each call becomes a
span. Spans stay in memory until the run ends. Counters are taken at the same
boundaries, from the arguments and results of the wrapped calls, after the
span has closed so that they add nothing to its duration.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "config", "tripletspin", "ise", "kinetics", "analysis", "curveio")


def _rk4_steps(args, kwargs, result):
    # buildup_ode's documented step rule: at most min(td, tr)/1000 per step,
    # at least one step per grid interval.
    params, grid = args[0], args[1] if len(args) > 1 else kwargs["t_grid"]
    h_max = min(params.td_minutes, params.tr_minutes) / 1000.0
    spans = [b - a for a, b in zip(grid[:-1], grid[1:])]
    return {"kinetics.rk4_steps": sum(max(1, math.ceil(s / h_max)) for s in spans)}


def _shots(args, kwargs, result):
    return {"ise.shots": int(args[5] if len(args) > 5 else kwargs["n_shots"])}


def _rows_read(args, kwargs, result):
    return {"curveio.rows_read": len(result)}


def _rows_written(args, kwargs, result):
    path, curve = args[0], args[1]
    return {"curveio.rows_written": len(curve), "curveio.bytes_written": os.path.getsize(path)}


def _fit(args, kwargs, result):
    return {
        "analysis.fits": 1,
        "analysis.converged": int(result.converged),
        "analysis.iterations": result.iterations,
    }


# span name -> counters derived from one call's arguments and result
COUNTERS = {
    "kinetics.buildup_ode": _rk4_steps,
    "ise.iterate_shots": _shots,
    "curveio.read_curve": _rows_read,
    "curveio.write_curve": _rows_written,
    "analysis.fit_buildup": _fit,
    "analysis.fit_decay": _fit,
}


# counters reported as they are; analysis.fits and analysis.converged only
# feed analysis.converged_ratio
COUNT_METRICS = {
    "kinetics.rk4_steps", "ise.shots", "curveio.rows_read", "curveio.rows_written",
    "curveio.bytes_written", "analysis.iterations",
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start ns, end ns]
        self.passes: list[tuple[int, int, dict]] = []  # (first span, end span, counts)
        self._stack: list[int] = []
        self._counts: dict[str, int] = {}
        self._pass_start = 0

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self._counts = {}

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.spans), self._counts))

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        """Return fn wrapped so that each call records a span called name."""
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    self._counts[key] = self._counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, with its pass number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for number, (lo, hi, _) in enumerate(self.passes):
                for i in range(lo, hi):
                    name, parent, start, end = self.spans[i]
                    f.write(json.dumps({"id": i, "parent": parent, "pass": number,
                                        "name": name, "start_ns": start, "end_ns": end}) + "\n")

    def per_pass(self) -> list[dict]:
        """Per pass: call counts per span name, self ns per layer, counters."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = []
        for lo, hi, counts in self.passes:
            calls: dict[str, int] = {}
            self_ns: dict[str, int] = {}
            for i in range(lo, hi):
                name, _, start, end = self.spans[i]
                calls[name] = calls.get(name, 0) + 1
                layer = name.split(".", 1)[0]
                self_ns[layer] = self_ns.get(layer, 0) + (end - start) - child_ns[i]
            out.append({"calls": calls, "self_ns": self_ns, "counts": dict(counts)})
        return out

    def durations_ns(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for name, _, start, end in self.spans:
            out.setdefault(name, []).append(end - start)
        return out


def layer_metrics(tracer: Tracer, names: list[str], extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Compute the named per-layer metrics from a finished trace.

    Counts are per pass and must repeat exactly from pass to pass; any that
    do not are returned as problems. Times are means (`.ms`, `.us`) or
    medians (`.ms_p50`) over every traced call; `<layer>.self_ms` is the
    median over passes of the layer's summed self time. Layers the workload
    never calls report 0.
    """
    passes = tracer.per_pass()
    problems = []
    for key in ("calls", "counts"):
        if any(p[key] != passes[0][key] for p in passes[1:]):
            problems.append(f"per-pass {key} differ between passes of the same inputs")
    first = passes[0] if passes else {"calls": {}, "self_ns": {}, "counts": {}}
    durations = tracer.durations_ns()
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
        elif name in COUNT_METRICS:
            values[name] = first["counts"].get(name, 0)
        elif name == "analysis.converged_ratio":
            fits = first["counts"].get("analysis.fits", 0)
            values[name] = first["counts"].get("analysis.converged", 0) / fits if fits else 0.0
        elif name.endswith(".self_ms"):
            layer = name[: -len(".self_ms")]
            values[name] = statistics.median(p["self_ns"].get(layer, 0) for p in passes) / 1e6
        elif name.endswith(".calls"):
            prefix = name[: -len(".calls")]
            if prefix in LAYERS:
                values[name] = sum(n for s, n in first["calls"].items() if s.split(".", 1)[0] == prefix)
            else:
                values[name] = first["calls"].get(prefix, 0)
        else:
            span, stat = name.rsplit(".", 1)  # stat is ms, us (means) or ms_p50
            ns = durations.get(span)
            average = statistics.median if stat == "ms_p50" else statistics.fmean
            values[name] = average(ns) / (1e3 if stat == "us" else 1e6) if ns else 0.0
    return values, problems


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_costs(env: dict, probes: int) -> dict[str, float]:
    """Split the CLI's start-up cost with `-X importtime`, median of probes.

    import.numpy_ms is numpy's cumulative import time, import.tripletdnp_ms
    the rest of `import tripletdnp.cli`, and import.interpreter_ms the wall
    time of the probe process minus both: interpreter start-up, site imports
    and shutdown.
    """
    samples: dict[str, list[float]] = {"import.interpreter_ms": [], "import.numpy_ms": [],
                                       "import.tripletdnp_ms": []}
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tripletdnp.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        wall_ms = (time.perf_counter() - t0) * 1e3
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e3)
        package_ms = cumulative["tripletdnp.cli"]
        samples["import.numpy_ms"].append(cumulative["numpy"])
        samples["import.tripletdnp_ms"].append(package_ms - cumulative["numpy"])
        samples["import.interpreter_ms"].append(wall_ms - package_ms)
    return {k: statistics.median(v) for k, v in samples.items()}
