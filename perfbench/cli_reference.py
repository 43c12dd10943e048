"""Workload cli_reference: a fixed script of CLI calls on the reference config.

One operation is one call of `python -m tripletdnp.cli` in a fresh
subprocess, which is how the toolkit's users run it: interpreter, numpy and
package import dominate the median call. The script covers all five
subcommands on the reference config (pe 0.826, td 20.2 min, tr 57.1 min,
0.64 T, 1000 Hz). Its two long RK4 runs are 2 of 11 calls, so op_ms_p90 is
the long-ODE call time rather than the noise tail of the short calls. Each
call is followed by a reference interpreter (reference.py): `spawn_rk4`
after the long RK4 runs, `spawn` after the others.

Every call is checked: exit code, report files byte-identical to the first
pass, and reported numbers against the in-process library.

The traced run replays the script in one process through
`tripletdnp.cli.main(argv)`, with every library function that
`tripletdnp.cli` imports wrapped so that each call becomes a span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import io
import math
import os
import subprocess
import sys
import time

import numpy as np

import tripletdnp as td
import tripletdnp.cli as cli

from reference import spawn_ms

REFERENCE_CONFIG = """\
[field]
field_tesla = 0.64

[sequence]
repetition_rate_hz = 1000.0

[kinetics]
pe = 0.826
td_minutes = 20.2
tr_minutes = 57.1
"""
PARAMS = td.KineticsParams(pe=0.826, td_minutes=20.2, tr_minutes=57.1)
CURVE_NOISE = 0.005
SIGMA_LIMIT = 6.0
SHOTS_TOL = 1e-6
LONG_ODE = ("simulate_ode_long", "simulate_ode_long_pth")  # timed next to spawn_rk4


def _script(seed: int) -> list[tuple[str, list[str], list[str]]]:
    """(entry name, argv, output files) in script order."""
    common = ["--config", "reference.cfg", "--seed", str(seed)]

    def simulate(name, *extra):
        return (name, ["simulate", *extra, *common, "--out", f"out/{name}.csv"],
                [f"out/{name}.csv", f"out/{name}.summary.txt", f"out/{name}.summary.csv"])

    def report(name, argv):
        return (name, [*argv, *common, "--out", f"out/{name}.txt"],
                [f"out/{name}.txt", f"out/{name}.csv"])

    return [
        simulate("simulate_closed_form", "--duration-min", "150", "--mode", "closed_form"),
        simulate("simulate_ode", "--duration-min", "150", "--mode", "ode"),
        simulate("simulate_shots", "--duration-min", "150", "--mode", "shots"),
        simulate("simulate_ode_long", "--duration-min", "1440", "--points", "2001", "--mode", "ode"),
        simulate("simulate_ode_long_pth", "--duration-min", "1440", "--points", "2001",
                 "--mode", "ode", "--include-pth"),
        report("fit_buildup", ["fit", "in/buildup.csv", "--model", "buildup", "--tr-minutes", "57.1"]),
        report("fit_decay", ["fit", "in/decay.csv", "--model", "decay"]),
        report("decompose", ["decompose", "132", "57.1", "--reference-te", "96.9"]),
        report("calibrate", ["calibrate", "--enhanced", "2.77e5", "--reference", "1.0"]),
        ("sweep_tr", ["sweep", "tr", "--values", "57.1,96.9,132", *common, "--out", "out/sweep_tr.csv"],
         ["out/sweep_tr.csv"]),
        ("sweep_b1", ["sweep", "b1", "--start", "0.1", "--stop", "1.0", "--num", "10", *common,
                      "--out", "out/sweep_b1.csv"], ["out/sweep_b1.csv"]),
    ]


def _curve_text(t, values) -> str:
    return "# value_kind: polarization\ntime_min,value\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, values))


def _rows(text: str) -> dict[str, str]:
    return dict(line.split(",", 1) for line in text.splitlines() if line)


def _curve_values(text: str) -> np.ndarray:
    return np.array([float(line.split(",")[1]) for line in text.splitlines()[2:]])


class CliReference:
    name = "cli_reference"

    def __init__(self, seed: int, workdir, quick: bool):
        self.workdir = workdir
        self.script = _script(seed)
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 150.0, 201)
        amplitude = td.final_polarization(PARAMS)
        rate = 1.0 / PARAMS.td_minutes + 1.0 / PARAMS.tr_minutes
        buildup = amplitude * -np.expm1(-rate * t) + CURVE_NOISE * rng.normal(size=t.size)
        t_decay = np.linspace(0.0, 300.0, 201)
        decay = amplitude * np.exp(-t_decay / PARAMS.tr_minutes) + CURVE_NOISE * rng.normal(size=t.size)
        self.truth = {
            "fit_buildup": {"amplitude": amplitude, "rate": rate},
            "fit_decay": {"p0": amplitude, "t_const": PARAMS.tr_minutes, "offset": 0.0},
        }
        inputs = {
            "reference.cfg": REFERENCE_CONFIG,
            "in/buildup.csv": _curve_text(t, buildup),
            "in/decay.csv": _curve_text(t_decay, decay),
        }
        digest = hashlib.sha256()
        for rel, text in inputs.items():
            path = workdir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            digest.update(rel.encode() + b"\0" + text.encode() + b"\0")
        (workdir / "out").mkdir(exist_ok=True)
        self._digest = digest.hexdigest()
        self.golden: dict[str, bytes] = {}  # output file -> bytes of its first checked copy
        self.verified: set[str] = set()  # entries already compared against the library

    def digest(self) -> str:
        return self._digest

    def prepare(self) -> None:
        pass

    def measured_pass(self, rec) -> None:
        """Run the script once, each call a fresh `python -m tripletdnp.cli`
        followed by its reference interpreter."""
        for name, argv, outputs in self.script:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "tripletdnp.cli", *argv],
                                      cwd=self.workdir, capture_output=True, timeout=120)
            except subprocess.TimeoutExpired:
                rec.op(None, [f"{name}: timed out"])
                continue
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            problems = [] if proc.returncode == 0 else [
                f"{name}: exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"]
            rk4 = name in LONG_ODE
            ref = ("spawn_rk4" if rk4 else "spawn", spawn_ms(self.workdir, rk4=rk4))
            rec.op(elapsed_ms, problems + self.check(name, outputs), ref)

    def traced_pass(self, rec, tracer) -> None:
        """Replay the script in process through cli.main, traced when tracer is given."""
        originals = {}
        if tracer is not None:
            for attr, fn in vars(cli).items():
                module = fn.__module__ if inspect.isfunction(fn) else ""
                if module.startswith("tripletdnp.") and module != "tripletdnp.cli":
                    originals[attr] = fn
            for attr, fn in originals.items():
                setattr(cli, attr, tracer.wrap(fn, f"{fn.__module__.rsplit('.', 1)[1]}.{attr}"))
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for name, argv, outputs in self.script:
                sink = io.StringIO()
                try:
                    t0 = time.perf_counter_ns()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        if tracer is None:
                            code = cli.main(argv)
                        else:
                            with tracer.span(f"cli.{name}"):
                                code = cli.main(argv)
                    elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
                except Exception as exc:  # an exception is a failed operation
                    rec.op(None, [f"{name}: {type(exc).__name__}: {exc}"])
                    continue
                problems = [] if code == 0 else [f"{name}: exit code {code}: {sink.getvalue()[-300:]}"]
                rec.op(elapsed_ms, problems + self.check(name, outputs))
        finally:
            os.chdir(cwd)
            for attr, fn in originals.items():
                setattr(cli, attr, fn)

    def check(self, name: str, outputs: list[str]) -> list[str]:
        problems = []
        for rel in outputs:
            try:
                data = (self.workdir / rel).read_bytes()
            except OSError as exc:
                problems.append(f"{name}: {rel}: {exc}")
                continue
            if rel not in self.golden:
                self.golden[rel] = data
            elif data != self.golden[rel]:
                problems.append(f"{name}: {rel} differs from the first pass")
        if problems:
            return problems
        if name in self.verified:
            return []
        # compare against the in-process library once; later passes are byte-compared
        self.verified.add(name)
        try:
            return self.verify(name, {rel: self.golden[rel].decode() for rel in outputs})
        except (KeyError, ValueError, td.TripletDnpError) as exc:
            return [f"{name}: report does not parse: {type(exc).__name__}: {exc}"]

    def verify(self, name: str, text: dict[str, str]) -> list[str]:
        """Reported numbers against the in-process library."""
        problems = []

        def expect(label, got: float, want: float, rel_tol: float = 0.0):
            if not (got == want or math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)):
                problems.append(f"{name}: {label} = {got!r}, library gives {want!r}")

        if name.startswith("simulate"):
            rows = _rows(text[f"out/{name}.summary.csv"])
            values = _curve_values(text[f"out/{name}.csv"])
            duration, points = float(rows["duration_min"]), int(rows["points"])
            grid = np.linspace(0.0, duration, points)
            closed = td.buildup_closed_form(PARAMS, grid)
            if rows["mode"] == "shots":
                # discrete shots track the continuous closed form to about 1e-7 here
                if values.shape != closed.shape or not np.max(np.abs(values - closed)) <= SHOTS_TOL:
                    problems.append(f"{name}: shots curve departs from the closed form by > {SHOTS_TOL}")
            else:
                ref = closed if rows["mode"] == "closed_form" else td.buildup_ode(
                    PARAMS, grid, include_pth="pth" in name).values
                if values.shape != ref.shape or not np.array_equal(values, ref):
                    problems.append(f"{name}: curve differs from the in-process {rows['mode']} curve")
            expect("final_polarization", float(rows["final_polarization"]), float(values[-1]))
            expect("final_polarization vs closed form", float(rows["final_polarization"]),
                   td.buildup_closed_form(PARAMS, duration), rel_tol=1e-6)
            expect("steady_state_polarization", float(rows["steady_state_polarization"]),
                   td.steady_state_with_pth(PARAMS))
        elif name.startswith("fit"):
            rows = _rows(text[f"out/{name}.csv"])
            curve = td.read_curve(self.workdir / ("in/buildup.csv" if "buildup" in name else "in/decay.csv"))
            fit = td.fit_buildup(curve) if "buildup" in name else td.fit_decay(curve)
            if rows["converged"] != "true" or not fit.converged:
                problems.append(f"{name}: fit did not converge")
            for key, want in self.truth[name].items():
                got, sigma = float(rows[key]), float(rows[f"{key}_sigma"])
                expect(key, got, fit.parameters[key])
                expect(f"{key}_sigma", sigma, fit.uncertainties[key])
                if not abs(got - want) <= SIGMA_LIMIT * sigma:
                    problems.append(f"{name}: {key} = {got!r} +- {sigma!r} misses truth {want!r}")
            if "buildup" in name:
                derived = td.disentangle_buildup(fit, 57.1)
                expect("td_minutes", float(rows["td_minutes"]), derived.td_minutes)
                expect("pe", float(rows["pe"]), derived.pe)
        elif name == "decompose":
            rows = _rows(text["out/decompose.csv"])
            expect("te_minutes", float(rows["te_minutes"]), td.decompose_relaxation(132.0, 57.1).te_minutes)
            if rows["within_tolerance"] != "true":
                problems.append(f"{name}: te is not within tolerance of the reference 96.9")
        elif name == "calibrate":
            rows = _rows(text["out/calibrate.csv"])
            thermal = td.thermal_polarization(0.64, 295.0)
            want = td.calibrate_polarization(td.NmrCalibration(2.77e5, 1.0, thermal))
            expect("reference_thermal_polarization", float(rows["reference_thermal_polarization"]), thermal)
            expect("polarization", float(rows["polarization"]), want)
        elif name == "sweep_tr":
            for value, got in list(_rows(text["out/sweep_tr.csv"]).items())[1:]:
                want = td.steady_state_with_pth(dataclasses.replace(PARAMS, tr_minutes=float(value)))
                expect(f"tr={value}", float(got), want)
        elif name == "sweep_b1":
            seq = td.IseSequenceParams(17.2, 20.0, 1.0, 1000.0, 3.0, td.hartmann_hahn_b1(0.64), 0.64, 2.0)
            gain = (td.epsilon_for_buildup_time(PARAMS.td_minutes, seq.shot_period_s)
                    / td.sweep_transfer_probability(seq))
            rows = list(_rows(text["out/sweep_b1.csv"]).items())[1:]
            if len(rows) != 10:
                problems.append(f"{name}: {len(rows)} rows, expected 10")
            for value, got in rows:
                swept = dataclasses.replace(seq, b1_amplitude_mt=float(value))
                eps = min(1.0, gain * td.sweep_transfer_probability(swept))
                buildup_minutes = swept.shot_period_s / 60.0 / eps
                want = td.steady_state_with_pth(dataclasses.replace(PARAMS, td_minutes=buildup_minutes))
                expect(f"b1={value}", float(got), want, rel_tol=1e-12)
        return problems
