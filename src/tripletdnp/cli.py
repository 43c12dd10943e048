"""Command-line surface: simulate, fit, decompose, calibrate, sweep.

Exit codes: 0 success, 2 usage, 3 parse/validation failure (an empty
`--config` or `--out` among them), 4 fit non-convergence, 5 I/O failure (a
stdout that cannot be written among them). Outputs are deterministic: the same
config and seed give byte-identical files.

`main(argv)` returns the exit code and never ends the process. `run()`, which
`python -m tripletdnp.cli` and the installed `tripletdnp` script call, ends it
with `os._exit` once stdout and stderr are flushed, skipping interpreter
teardown, so `atexit` hooks (such as those of `coverage run`) do not fire.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .analysis import (
    NmrCalibration,
    calibrate_polarization,
    decompose_relaxation,
    disentangle_buildup,
    fit_buildup,
    fit_decay,
)
from .config import ToolkitConfig, default_config, parse_config
from .constants import SECONDS_PER_MINUTE
from .curveio import read_curve, write_curve, write_text
from .errors import ValidationError
from .ise import (
    IseSequenceParams,
    ShotModel,
    effective_buildup_time,
    epsilon_for_buildup_time,
    iterate_shots,
    sweep_transfer_probability,
)
from .kinetics import (
    BuildupCurve,
    KineticsParams,
    ValueKind,
    buildup_closed_form,
    buildup_ode,
    steady_state_with_pth,
    thermal_polarization,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IO = 5

# sweep parameter -> the KineticsParams (first row) or IseSequenceParams field it replaces
SWEEP_PARAMETERS = {
    "td": "td_minutes", "tr": "tr_minutes", "pe": "pe",
    "repetition_rate": "repetition_rate_hz", "b1": "b1_amplitude_mt", "sweep_span": "sweep_span_mt",
}

# largest simulate --points and sweep --num, checked before allocating. 10**5 points through
# cli.main in process (best of 3, two runs, 2-CPU Xeon VM, Python 3.11, numpy 2.4) take
# 0.15-0.21 s per simulate mode (shots 0.23 s), 0.6-0.7 s for sweep tr and 1.4-1.5 s for sweep b1
MAX_POINTS = 100_000

_TOLERANCE_RATIONALE = (
    "time constants quoted to three significant figures shift the paramagnetic "
    "decomposition by a few percent, so reference comparisons use a relative window"
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a config file; defaults apply when omitted")
    sub.add_argument("--out", help="primary output path")
    sub.add_argument("--seed", type=int, default=None, help="seed recorded with the outputs")
    sub.add_argument("--verbose", action="store_true", help="echo defaults and extra diagnostics")


def _load_config(args) -> ToolkitConfig:
    echo = print if args.verbose else None
    if args.config is not None:
        return parse_config(args.config, echo=echo)
    return default_config(echo=echo)


def _out_path(args, cfg: ToolkitConfig, default_name: str) -> Path:
    out = Path(args.out) if args.out is not None else cfg.output_dir / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _report(args, out_path: Path, rows: list[tuple[str, str]], notes=()) -> None:
    """Write rows (plus the seed) as `key: value` text and as a CSV twin; note lines
    follow the text, which is also echoed."""
    twin = out_path.with_suffix(".csv")
    if twin == out_path:
        raise ValidationError(f"--out {out_path} would be overwritten by the report's CSV twin; "
                              "give the report another suffix, such as .txt")
    if args.seed is not None:
        rows = rows + [("seed", str(args.seed))]
    lines = [f"{k}: {v}" for k, v in rows] + [f"note: {note}" for note in notes]
    write_text(out_path, "\n".join(lines) + "\n")
    write_text(twin, "\n".join(f"{k},{v}" for k, v in rows) + "\n")
    print("\n".join(lines))


def _simulate_grid(duration_min: float, points: int) -> np.ndarray:
    if not 0.0 <= duration_min < math.inf:
        raise ValidationError(f"duration must be finite and nonnegative, got {duration_min}")
    if points < 2:
        raise ValidationError(f"need at least 2 grid points, got {points}")
    if points > MAX_POINTS:
        raise ValidationError(f"at most {MAX_POINTS:,} grid points allowed, got {points}")
    if duration_min == 0.0:
        return np.array([0.0])
    grid = np.linspace(0.0, duration_min, points)
    if not np.all(np.diff(grid) > 0.0):
        raise ValidationError(f"--duration-min {duration_min!r} is too short for --points {points}: times repeat")
    return grid


def _simulate_shots(params: KineticsParams, grid: np.ndarray, sequence: IseSequenceParams) -> BuildupCurve:
    period, repetition_rate_hz = sequence.shot_period_s, sequence.repetition_rate_hz
    shot = ShotModel(epsilon_for_buildup_time(params.td_minutes, period), period)
    # each point's shot count from t = 0 as a float, whole past 2^53; an inf count gives the fixed point
    with np.errstate(over="ignore"):
        counts = np.rint(grid * SECONDS_PER_MINUTE * repetition_rate_hz).tolist()
    try:  # t = 0 holds 0 shots, so overshooting kinetics are rejected at any duration
        values = [iterate_shots(params.pth, shot, params.pe, params.tr_minutes, params.pth, n) for n in counts]
    except ValidationError as exc:
        raise ValidationError(
            f"td {params.td_minutes:g} min and tr {params.tr_minutes:g} min at {repetition_rate_hz:g} Hz: {exc}"
        ) from None
    return BuildupCurve(grid, np.array(values), ValueKind.POLARIZATION)


def cmd_simulate(args, cfg: ToolkitConfig) -> int:
    # the one place the thermal floor is decided: without --include-pth it is 0 in every mode and row
    params = cfg.kinetics if args.include_pth else dataclasses.replace(cfg.kinetics, pth=0.0)
    grid = _simulate_grid(args.duration_min, args.points)

    if args.mode == "closed_form":
        curve = BuildupCurve(grid, buildup_closed_form(params, grid, include_pth=True), ValueKind.POLARIZATION)
    elif args.mode == "ode":
        curve = buildup_ode(params, grid, include_pth=True)
    else:
        curve = _simulate_shots(params, grid, cfg.sequence)

    out = _out_path(args, cfg, f"buildup_{args.mode}.csv")
    write_curve(out, curve)

    rows = [
        ("mode", args.mode),
        ("duration_min", repr(float(args.duration_min))),
        ("points", str(len(curve))),
        ("pe", repr(params.pe)),
        ("td_minutes", repr(params.td_minutes)),
        ("tr_minutes", repr(params.tr_minutes)),
        ("pth", repr(params.pth)),
        ("steady_state_polarization", repr(steady_state_with_pth(params))),
        ("final_time_min", repr(float(curve.times_min[-1]))),
        ("final_polarization", repr(float(curve.values[-1]))),
        ("curve_file", str(out)),
    ]
    if args.mode == "shots":
        rows.insert(3, ("repetition_rate_hz", repr(cfg.sequence.repetition_rate_hz)))
    _report(args, out.with_suffix(".summary.txt"), rows)
    return EXIT_OK


def cmd_fit(args, cfg: ToolkitConfig) -> int:
    if args.tr_minutes is not None:
        if args.model != "buildup":
            raise ValidationError("--tr-minutes applies to --model buildup only")
        if not args.tr_minutes > 0.0:
            raise ValidationError(f"--tr-minutes must be positive, got {args.tr_minutes}")
    curve = read_curve(args.curve)
    if args.tr_minutes is not None and curve.value_kind is ValueKind.RAW_SIGNAL:
        raise ValidationError(
            f"{args.curve} holds raw_signal values; --tr-minutes derives pe and td from a polarization "
            "curve, so calibrate the curve to polarization first"
        )
    fit = fit_buildup(curve) if args.model == "buildup" else fit_decay(curve)

    rows: list[tuple[str, str]] = [
        ("model", args.model),
        ("converged", str(fit.converged).lower()),
        ("iterations", str(fit.iterations)),
        ("residual_rms", repr(fit.residual_norm)),
    ]
    for name, value in fit.parameters.items():
        rows.append((name, repr(value)))
        rows.append((f"{name}_sigma", repr(fit.uncertainties[name])))
    if args.tr_minutes is not None and fit.converged:
        derived = disentangle_buildup(fit, args.tr_minutes)
        rows.append(("tr_minutes_input", repr(args.tr_minutes)))
        rows.append(("td_minutes", repr(derived.td_minutes)))
        rows.append(("pe", repr(derived.pe)))
    _report(args, _out_path(args, cfg, "fit_report.txt"), rows, notes=fit.notes)
    return EXIT_OK if fit.converged else EXIT_NO_CONVERGENCE


def cmd_decompose(args, cfg: ToolkitConfig) -> int:
    if args.tolerance_pct is not None and args.reference_te is None:
        raise ValidationError("--tolerance-pct applies with --reference-te only")
    if args.reference_te is not None and not 0.0 < args.reference_te < math.inf:
        raise ValidationError(f"--reference-te must be finite and positive, got {args.reference_te}")
    tolerance_pct = 5.0 if args.tolerance_pct is None else args.tolerance_pct
    if not 0.0 <= tolerance_pct < math.inf:
        raise ValidationError(f"--tolerance-pct must be finite and >= 0, got {tolerance_pct}")
    result = decompose_relaxation(args.t1_minutes, args.tr_minutes)
    recomposed = 1.0 / (1.0 / result.t1_minutes + 1.0 / result.te_minutes)
    rows = [
        ("t1_minutes", repr(result.t1_minutes)),
        ("tr_minutes", repr(result.tr_minutes)),
        ("te_minutes", repr(result.te_minutes)),
        ("recomposed_tr_minutes", repr(recomposed)),
    ]
    notes = ()
    if args.reference_te is not None:
        rel = abs(result.te_minutes - args.reference_te) / args.reference_te
        within = rel <= tolerance_pct / 100.0
        rows += [
            ("reference_te_minutes", repr(args.reference_te)),
            ("relative_difference", repr(rel)),
            ("tolerance_pct", repr(tolerance_pct)),
            ("within_tolerance", str(within).lower()),
        ]
        notes = (_TOLERANCE_RATIONALE,)
    _report(args, _out_path(args, cfg, "decompose_report.txt"), rows, notes=notes)
    return EXIT_OK


def _thermal_baseline(cfg: ToolkitConfig) -> float:
    """The config's thermal polarization, rejected at 0: calibrate scales by it
    or, with --verbose, divides by it."""
    baseline = thermal_polarization(cfg.field.magnitude_tesla, cfg.temperature_kelvin)
    if baseline == 0.0:
        raise ValidationError(
            f"the thermal polarization at [field] field_tesla = {cfg.field.magnitude_tesla!r} T and "
            f"[general] temperature_kelvin = {cfg.temperature_kelvin!r} K underflows to 0"
        )
    return baseline


def cmd_calibrate(args, cfg: ToolkitConfig) -> int:
    ref_pol = args.reference_thermal_polarization
    if ref_pol is None:
        ref_pol = _thermal_baseline(cfg)
    cal = NmrCalibration(
        enhanced_signal=args.enhanced,
        reference_signal=args.reference,
        reference_thermal_polarization=ref_pol,
        spin_count_ratio=args.spin_count_ratio,
        gain_ratio=args.gain_ratio,
    )
    with warnings.catch_warnings(record=True) as clamped:  # reported as a note, not on stderr
        warnings.simplefilter("always")
        polarization = calibrate_polarization(cal)

    rows = [
        ("enhanced_signal", repr(args.enhanced)),
        ("reference_signal", repr(args.reference)),
        ("reference_thermal_polarization", repr(ref_pol)),
        ("spin_count_ratio", repr(args.spin_count_ratio)),
        ("gain_ratio", repr(args.gain_ratio)),
        ("polarization", repr(polarization)),
    ]
    if args.verbose:
        baseline = ref_pol if args.reference_thermal_polarization is None else _thermal_baseline(cfg)
        rows.append(("thermal_polarization_baseline", repr(baseline)))
        rows.append(("enhancement_factor", repr(polarization / baseline)))
    notes = [str(w.message) for w in clamped]
    _report(args, _out_path(args, cfg, "calibrate_report.txt"), rows, notes=notes)
    return EXIT_OK


def _sweep_values(args) -> list[float]:
    if args.values is not None and (args.start, args.stop, args.num) != (None, None, None):
        raise ValidationError("--values does not combine with --start, --stop or --num")
    if args.values is not None:
        try:
            return [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ValidationError(
                f"--values must be a comma-separated number list, got {args.values!r}"
            ) from None
    if args.start is None or args.stop is None:
        raise ValidationError("provide either --values or --start/--stop (with optional --num)")
    num = 11 if args.num is None else args.num
    if num < 1:
        raise ValidationError(f"--num must be at least 1, got {num}")
    if num > MAX_POINTS:
        raise ValidationError(f"--num must be at most {MAX_POINTS:,}, got {num}")
    if not math.isfinite(args.stop - args.start):  # Python floats overflow to inf without a warning
        raise ValidationError(
            f"--start and --stop must be finite and less than 1.8e308 apart, got {args.start} and {args.stop}"
        )
    return [float(v) for v in np.linspace(args.start, args.stop, num)]


def _sweep_final_polarizations(cfg: ToolkitConfig, parameter: str, values: list[float]) -> list[float]:
    base = cfg.kinetics
    name = SWEEP_PARAMETERS[parameter]
    if hasattr(base, name):
        return [steady_state_with_pth(dataclasses.replace(base, **{name: v})) for v in values]

    # ISE-side sweeps: scale the per-shot gain with the transfer probability,
    # calibrated once so the configured sequence reproduces the configured td.
    seq = cfg.sequence
    p_ref = sweep_transfer_probability(seq)
    if p_ref == 0.0:
        raise ValidationError(f"[sequence] b1_amplitude_mt = {seq.b1_amplitude_mt!r} gives the configured "
                              "sequence a transfer probability of 0, so no per-shot gain reproduces td")
    eps_ref = epsilon_for_buildup_time(base.td_minutes, seq.shot_period_s)
    results = []
    for value in values:
        swept = dataclasses.replace(seq, **{name: value})
        # p / p_ref first: eps_ref / p_ref overflows for a subnormal p_ref
        eps = min(1.0, eps_ref * (sweep_transfer_probability(swept) / p_ref))
        # without transfer td is infinite and the floor pth remains
        td_minutes = effective_buildup_time(ShotModel(eps, swept.shot_period_s))
        results.append(steady_state_with_pth(dataclasses.replace(base, td_minutes=td_minutes)))
    return results


def cmd_sweep(args, cfg: ToolkitConfig) -> int:
    values = _sweep_values(args)
    if not values:
        raise ValidationError("sweep needs at least one value")
    results = zip(values, _sweep_final_polarizations(cfg, args.parameter, values))

    out = _out_path(args, cfg, f"sweep_{args.parameter}.csv")
    lines = [f"{args.parameter},final_polarization"]
    lines += [f"{v!r},{p!r}" for v, p in results]
    write_text(out, "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripletdnp",
        description="Triplet-DNP buildup simulation and analysis toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="simulate a polarization buildup curve")
    sim.add_argument("--duration-min", type=float, required=True, help="buildup duration, minutes")
    sim.add_argument("--mode", choices=("ode", "closed_form", "shots"), default="closed_form")
    sim.add_argument("--points", type=int, default=201, help="number of grid points incl. t=0")
    sim.add_argument("--include-pth", action="store_true", help="keep the thermal floor term")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    fit = subs.add_parser("fit", help="fit a measured curve")
    fit.add_argument("curve", help="curve CSV path")
    fit.add_argument("--model", choices=("buildup", "decay"), required=True)
    fit.add_argument(
        "--tr-minutes",
        type=float,
        default=None,
        help="independently measured relaxation constant (--model buildup only); also reports td and pe",
    )
    _add_common(fit)
    fit.set_defaults(func=cmd_fit)

    dec = subs.add_parser("decompose", help="split tr into lattice and paramagnetic channels")
    dec.add_argument("t1_minutes", type=float)
    dec.add_argument("tr_minutes", type=float)
    dec.add_argument("--reference-te", type=float, default=None, help="reference value to compare against")
    dec.add_argument("--tolerance-pct", type=float, default=None,
                     help="comparison window, percent (--reference-te only; default 5)")
    _add_common(dec)
    dec.set_defaults(func=cmd_decompose)

    calib = subs.add_parser("calibrate", help="convert a signal ratio to absolute polarization")
    calib.add_argument("--enhanced", type=float, required=True, help="integrated enhanced signal")
    calib.add_argument("--reference", type=float, required=True, help="integrated reference signal")
    calib.add_argument(
        "--reference-thermal-polarization",
        type=float,
        default=None,
        help="thermal polarization of the reference; computed from config field/temperature when omitted",
    )
    calib.add_argument("--spin-count-ratio", type=float, default=1.0)
    calib.add_argument("--gain-ratio", type=float, default=1.0)
    _add_common(calib)
    calib.set_defaults(func=cmd_calibrate)

    sweep = subs.add_parser("sweep", help="tabulate final polarization against one parameter")
    sweep.add_argument("parameter", choices=SWEEP_PARAMETERS)
    sweep.add_argument("--values", help="comma-separated list of parameter values")
    sweep.add_argument("--start", type=float, default=None)
    sweep.add_argument("--stop", type=float, default=None)
    sweep.add_argument("--num", type=int, default=None, help="number of range points (default 11)")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, value in (("--config", args.config), ("--out", args.out)):
            if value == "":  # as from an unset shell variable; never fall back to the default
                raise ValidationError(f"{flag} is empty; give a path or omit the flag")
        return args.func(args, _load_config(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run(argv=None) -> NoReturn:
    """Run main(argv), flush stdout and then stderr, and end the process with
    os._exit, skipping the interpreter's teardown (module clearing, garbage
    collection, atexit hooks). A stdout that cannot be flushed is reported as
    one `i/o error:` line and turns exit 0 into 5; any other code stays.
    argparse's SystemExit and unexpected exceptions propagate as usual."""
    code = main(argv)
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = code or EXIT_IO
        with contextlib.suppress(OSError):  # a stderr that cannot be written leaves the code to report
            print(f"i/o error: {exc}", file=sys.stderr)
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
