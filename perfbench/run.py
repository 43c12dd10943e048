"""tripletdnp benchmark: CLI session, orientation scan and fit campaign.

    python3 perfbench/run.py --workload cli_reference --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30    # every workload
    python3 perfbench/run.py --quick                                 # self-check

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. Each workload runs in a fresh interpreter (worker.py), one
process and one client. Set-up is measured as the median of several fresh
interpreters, each timed from launch until tripletdnp is imported and the
inputs are generated. With --trace 0 the last line of output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a traced run. The full result, with the environment it ran in, is also
written under `.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_MS, spawn_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7  # fresh interpreters per run whose set-up time is measured
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("cli_reference", "orientation_scan", "fit_campaign")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(BLAS_THREADS)
    return env


def _start(workload: str, seed: int, seconds: float, trace: int, quick: bool,
           setup_only: bool, env: dict, timeout: float) -> tuple[float, str, str]:
    """Run worker.py once; return (set-up seconds, input digest, last output line)."""
    workdir = OUT / "work" / workload
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
           "--trace-file", str(OUT / "trace" / f"{workload}.jsonl")]
    cmd += ["--setup-only"] * setup_only + ["--quick"] * quick
    started = time.monotonic_ns()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload}: worker did not finish within {timeout:.0f} s") from None
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    _, digest, ready_ns = lines[0].split()
    return (int(ready_ns) - started) / 1e9, digest, lines[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    workdir = OUT / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    # one untimed start first, so that byte-compiling the sources is not set-up time
    _, first_digest, _ = _start(workload, seed, 0, trace, quick, True, env, 120)
    # set-up samples before and after the measuring worker (itself one sample),
    # so that they see the machine at more than one moment; each is preceded
    # by the reference interpreter, which gives the machine's speed then
    extra = 0 if quick or trace else SETUP_SAMPLES // 2
    runs = [(0, True)] * extra + [(seconds, False)] + [(0, True)] * extra
    starts, speeds = [], []
    for run_seconds, setup_only in runs:
        speeds.append(spawn_ms(ROOT, env) / NOMINAL_MS["spawn"])
        starts.append(_start(workload, seed, run_seconds, trace, quick, setup_only, env,
                             run_seconds + 120))
    setups = [setup_s for setup_s, _, _ in starts]
    digests = [first_digest] + [digest for _, digest, _ in starts]
    raw = json.loads(starts[extra][2])

    attempted, failed, problems = raw["attempted"] + 1, raw["failed"], raw["problems"]
    if len(set(digests)) != 1:
        failed += 1
        problems.append(f"seed {seed} gave {len(set(digests))} different input sets")
    if trace:
        metrics = raw["layers"]
    else:
        metrics = {name: raw[name] for name in ("op_ms_p50", "op_ms_p90", "ops_per_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(t / v for t, v in zip(setups, speeds))
        raw["raw"]["setup_s"] = statistics.median(setups)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed, "problems": problems,
        "input_sha256": digests[-1], "setup_samples_s": setups, "setup_speeds": speeds,
        "metrics": metrics, "raw_metrics": raw.get("raw"), "speed": raw.get("speed"),
        "samples": {k: raw[k] for k in ("ops", "passes", "spans") if k in raw},
        "environment": environment(raw["numpy"], raw["threads"]),
    }


def environment(numpy_version: str, threads) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "commit": commit, "src_sha256": src.hexdigest(),
        "blas_threads": BLAS_THREADS, "worker_threads": threads, "machine": platform.machine(),
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(result: dict) -> None:
    """Human-readable lines, all before the result line that ends the output."""
    from workloads import ALIASES

    units = _units()
    aliases = ALIASES[result["workload"]]
    samples = result["samples"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:g}")
    for problem in result["problems"]:
        print(f"#   FAILED {problem}")
    raw = result.get("raw_metrics") or {}
    for name, value in result["metrics"].items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        if name in aliases:
            count = f"  n={samples['ops']} operations, best of {samples['passes']} passes"
        elif name == "setup_s":
            count = f"  n={len(result['setup_samples_s'])} starts"
        else:
            count = ""
        if name in raw:
            count += f", measured {raw[name]:.6g}"
        print(f"#   {label:<44} {value:>14.6g} {units.get(name, '')}{count}")
    if result.get("speed"):
        speeds = ", ".join(f"{name} {v:.4g}x" for name, v in sorted(result["speed"].items()))
        setup = ", ".join(f"{v:.3g}x" for v in result["setup_speeds"])
        print(f"# times above are at nominal speed; the references took their nominal time times: "
              f"{speeds}; spawn before each set-up start {setup}")
    print(f"# env {json.dumps(result['environment'], sort_keys=True)}")


def save(result: dict) -> None:
    path = OUT / "results" / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": _units()[k]} for k, v in result["metrics"].items()},
    })


def selfcheck() -> bool:
    """Each workload once at a tiny size, all output checks on; timings are not judged."""
    from workloads import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [m["name"] for m in spec["end_to_end"]] == END_TO_END \
        and [m["name"] for m in spec["per_layer"]] == PER_LAYER \
        and [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    if not ok:
        print("# BENCHMARK.json does not declare the metrics and workloads the benchmark reports")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in WORKLOAD_NAMES:
        results = [run_workload(workload, 1, 0, trace, quick=True) for trace in (0, 1, 1)]
        for result in results:
            report(result)
            names = END_TO_END if result["trace"] == 0 else PER_LAYER
            if not result["correct"] or sorted(result["metrics"]) != sorted(names):
                ok = False
        first, second = (r["metrics"] for r in results[1:])
        changed = [name for name in counts if first[name] != second[name]]
        if changed:
            ok = False
            print(f"# {workload}: counts differ between two traced runs of one seed: {changed}")
    print("# selfcheck", "passed" if ok else "FAILED")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="self-check at a tiny size")
    args = ap.parse_args()
    if not (ROOT / "src" / "tripletdnp" / "__init__.py").is_file():
        print(f"error: no tripletdnp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        if args.quick:
            return 0 if selfcheck() else 1
        if args.workload is None:
            ap.error("--workload is required unless --quick is given")
        results = []
        for workload in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            save(result)
            report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(final_line(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": {"value": v, "unit": _units()[k]}
                        for r in results for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
