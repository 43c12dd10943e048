"""One benchmark process: set a workload up, then measure it.

run.py starts this file in a fresh interpreter. It prints `READY <digest>`
as soon as tripletdnp is imported and the workload's inputs are generated
(the digest lets run.py check that a seed always gives byte-identical
inputs), exits there with --setup-only, and otherwise measures the workload
and prints one JSON line of raw results.

Untraced (--trace 0): one warm-up pass, then whole passes over the inputs
until --seconds have passed. Traced (--trace 1): import costs from
`-X importtime`, then in-process passes alternating untraced and traced, so
that tracing overhead is measured on the same code in the same process, until
--seconds have passed or MAX_SPANS spans are held.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from reference import NOMINAL_MS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
MAX_PROBLEMS = 20
MAX_SPANS = 100_000  # a traced run ends early once it holds this many spans in memory


class Record:
    """Operation outcomes of one run, and what its timed passes measured.

    Every pass runs the same operations on the same inputs in the same order,
    so each operation is repeated once per pass. This kind of shared machine
    drifts between speed regimes some 40-70 % apart that last from seconds
    to several minutes (other tenants), and code of different kinds slows by
    different amounts in one regime. So in a measured run each operation is
    followed by a reference operation of its own kind (reference.py), and
    the operation's time at nominal speed is the median over the passes of
    its time over that reference's time, times the reference's nominal time.
    Each operation's best time is kept as well: the measured times, and the
    traced run's overhead, come from those.
    """

    def __init__(self):
        self.best: list[float] = []  # best time of the k-th operation of a pass, ms
        self.ref_names: list = []  # name in NOMINAL_MS of the reference timed after it
        # per timed pass, each operation's time over its reference's time, and
        # the reference's time (nan where either is missing); one float32
        # array per pass, so that the memory they take (part of peak_rss_mb)
        # stays small as faster code fits more passes in a run
        self.ratios: list[array] = []
        self.ref_ms: list[array] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._k = 0
        self._timed = False

    def begin_pass(self, timed: bool = True) -> None:
        """Start a pass; the times of an untimed (warm-up) pass are not kept."""
        if timed:
            self.passes += 1
            self.ratios.append(array("f"))
            self.ref_ms.append(array("f"))
        self._timed = timed
        self._k = 0

    def op(self, ms, problems, ref=None) -> None:
        """Count one operation: its time in ms (None if it raised), failed checks,
        and (name, ms) of the reference operation timed after it, if any."""
        self.attempted += 1
        if ms is None or problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])
        if self._timed:
            if self._k == len(self.best):
                self.best.append(math.inf)
                self.ref_names.append(ref[0] if ref else None)
            if ms is not None:
                self.best[self._k] = min(self.best[self._k], ms)
            ref_ms = ref[1] if ref else math.nan
            self.ref_ms[-1].append(ref_ms)
            self.ratios[-1].append(math.nan if ms is None else ms / ref_ms)
        self._k += 1

    def fail(self, problem: str) -> None:
        """Count a failed check that belongs to the run rather than one operation."""
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def best_ms(self) -> list[float]:
        """Each operation's best time over the timed passes, ascending."""
        return sorted(ms for ms in self.best if ms < math.inf)

    def summary(self) -> dict:
        """Times at nominal speed, the measured (best) times, and each
        reference's median time over its nominal time."""
        ratios = np.median(np.array(self.ratios, dtype=float), axis=0)
        nominal = [r * NOMINAL_MS[name] for r, name in zip(ratios, self.ref_names)
                   if name is not None and not math.isnan(r)]
        if not nominal:
            return {"op_ms_p50": None, "op_ms_p90": None, "ops_per_s": None, "ops": 0,
                    "passes": self.passes}
        ref_ms, names = np.array(self.ref_ms, dtype=float), np.array(self.ref_names, dtype=object)
        speed = {name: float(np.median(ref_ms[:, names == name])) / NOMINAL_MS[name]
                 for name in set(self.ref_names) - {None}}
        return _percentiles(nominal) | {"raw": _percentiles(self.best_ms()), "speed": speed,
                                        "ops": len(nominal), "passes": self.passes}


def _percentiles(times_ms: list[float]) -> dict:
    ordered = sorted(times_ms)
    return {
        "op_ms_p50": statistics.median(ordered),
        "op_ms_p90": _percentile(ordered, 0.9),
        "ops_per_s": 1e3 * len(ordered) / sum(ordered),
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def measure(wl, seconds: float, quick: bool) -> dict:
    rec = Record()
    wl.prepare()
    if not quick:  # warm-up pass: its checks count, its times do not
        rec.begin_pass(timed=False)
        wl.measured_pass(rec)
    deadline = time.perf_counter() + seconds
    while True:
        rec.begin_pass()
        wl.measured_pass(rec)
        if quick or time.perf_counter() >= deadline:
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_reference" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # before summary() allocates
    out = rec.summary()
    out["peak_rss_mb"] = peak_rss_mb
    return out | _outcome(rec)


def measure_traced(wl, seconds: float, quick: bool, trace_file: Path) -> dict:
    from tracing import Tracer, import_costs, layer_metrics
    from workloads import PER_LAYER

    extra = import_costs(dict(os.environ), probes=1 if quick else 5)
    wl.prepare()
    tracer = Tracer()
    plain, traced = Record(), Record()
    if not quick:  # warm-up pass: its checks count, its times do not
        plain.begin_pass(timed=False)
        wl.traced_pass(plain, None)
    deadline = time.perf_counter() + seconds
    while True:
        plain.begin_pass()
        wl.traced_pass(plain, None)
        traced.begin_pass()
        tracer.begin_pass()
        wl.traced_pass(traced, tracer)
        tracer.end_pass()
        if quick or time.perf_counter() >= deadline or len(tracer.spans) >= MAX_SPANS:
            break
    extra["trace.overhead_pct"] = 100.0 * (sum(traced.best_ms()) / sum(plain.best_ms()) - 1.0)
    values, problems = layer_metrics(tracer, PER_LAYER, extra)
    tracer.write(trace_file)

    rec = Record()
    for part in (plain, traced):
        rec.attempted += part.attempted
        rec.failed += part.failed
        rec.problems += part.problems[: MAX_PROBLEMS - len(rec.problems)]
    for problem in problems:
        rec.fail(problem)
    return {"layers": values, "passes": traced.passes, "spans": len(tracer.spans)} | _outcome(rec)


def _outcome(rec: Record) -> dict:
    threads = _thread_count()
    nproc = os.cpu_count() or 1
    if threads is not None and threads > nproc:
        rec.fail(f"{threads} threads in the benchmark process, more than nproc = {nproc}")
    return {"attempted": rec.attempted, "failed": rec.failed, "problems": rec.problems,
            "threads": threads, "numpy": sys.modules["numpy"].__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    import tripletdnp

    source = Path(tripletdnp.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"tripletdnp imported from {source}, not from this checkout", file=sys.stderr)
        return 3
    from workloads import load

    wl = load(args.workload)(args.seed, args.workdir, args.quick)
    print("READY", wl.digest(), time.monotonic_ns(), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = measure_traced(wl, args.seconds, args.quick, args.trace_file)
    else:
        result = measure(wl, args.seconds, args.quick)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
