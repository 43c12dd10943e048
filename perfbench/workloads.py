"""The benchmark's workloads and the names of the metrics it reports.

BENCHMARK.json at the repository root declares the same names; the
self-check (`run.py --quick`) fails if the two disagree.
"""

import importlib

# workload name -> class; each module is imported only by the process that runs it
_CLASSES = {"cli_reference": "CliReference", "orientation_scan": "OrientationScan",
            "fit_campaign": "FitCampaign"}


def load(name: str):
    return getattr(importlib.import_module(name), _CLASSES[name])


# End-to-end metrics, reported by every workload. One operation is a CLI
# call (cli_reference), a full spin chain (orientation_scan) or a curve
# through write, read and fit (fit_campaign).
END_TO_END = ["op_ms_p50", "op_ms_p90", "ops_per_s", "setup_s", "peak_rss_mb"]

# The same metrics under the names a reader of each workload looks for.
ALIASES = {
    "cli_reference": {"op_ms_p50": "cli_call_ms_p50", "op_ms_p90": "cli_call_ms_p90",
                      "ops_per_s": "cli_calls_per_s"},
    "orientation_scan": {"op_ms_p50": "orientation_ms_p50", "op_ms_p90": "orientation_ms_p90",
                         "ops_per_s": "orientations_per_s"},
    "fit_campaign": {"op_ms_p50": "curve_ms_p50", "op_ms_p90": "curve_ms_p90",
                     "ops_per_s": "curves_per_s"},
}

CLI_ENTRIES = ["simulate_closed_form", "simulate_ode", "simulate_shots", "simulate_ode_long",
               "simulate_ode_long_pth", "fit_buildup", "fit_decay", "decompose", "calibrate",
               "sweep_tr", "sweep_b1"]

# Per-layer metrics of the traced run, reported by every workload; a layer
# the workload does not call reports 0.
PER_LAYER = [
    "import.interpreter_ms", "import.numpy_ms", "import.tripletdnp_ms",
    *[f"cli.{entry}.ms" for entry in CLI_ENTRIES], "cli.self_ms",
    "config.parse_config.calls", "config.parse_config.ms", "config.self_ms",
    "tripletspin.build_hamiltonian.us", "tripletspin.eigensystem.us",
    "tripletspin.project_populations.us", "tripletspin.electron_polarization.us",
    "tripletspin.transition_frequencies.us", "tripletspin.calls", "tripletspin.self_ms",
    "kinetics.buildup_ode.ms", "kinetics.rk4_steps", "kinetics.buildup_closed_form.us",
    "kinetics.self_ms",
    "ise.iterate_shots.calls", "ise.shots", "ise.sweep_transfer_probability.calls", "ise.self_ms",
    "curveio.read_curve.ms", "curveio.write_curve.ms", "curveio.rows_read", "curveio.rows_written",
    "curveio.bytes_written", "curveio.self_ms",
    "analysis.fit_buildup.ms_p50", "analysis.fit_decay.ms_p50", "analysis.iterations",
    "analysis.converged_ratio", "analysis.self_ms",
    "trace.overhead_pct",
]
