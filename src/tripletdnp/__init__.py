"""Triplet-DNP toolkit: spin model, ISE shot model, buildup kinetics, fitting.

Simulates the polarization transfer from photoexcited triplet electrons to
1H spins (integrated solid effect), models the macroscopic buildup and
relaxation kinetics, and fits measured curves to extract the buildup and
relaxation time constants and the attainable polarization.

`import tripletdnp` loads no layer and no numpy; the exports resolve on
first use (PEP 562). `_EXPORTS` is the one declaration of the public
surface: each layer and the names it exports. A layer name imports that
module; an exported name imports its one layer (and what that layer
imports) and is then cached here; any other name raises AttributeError
without importing anything. So an exception type, an input type or a
closed-form scalar (steady state, thermal polarization, Larmor frequency,
Hartmann-Hahn B1, calibration) loads only `constants` and `params`, the numpy-
free base every layer imports, a config or ISE name no numpy, and `__all__`,
`dir()` and `hasattr()` of a missing name no layer.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "params": ("TripletDnpError", "ValidationError", "ConfigError", "CurveParseError", "InconsistencyError",
               "TripletParameters", "MagneticFieldSetting", "KineticsParams", "IseSequenceParams",
               "final_polarization", "steady_state_with_pth", "thermal_polarization", "hartmann_hahn_b1",
               "proton_larmor", "NmrCalibration", "calibrate_polarization"),
    "kinetics": ("ValueKind", "BuildupCurve", "buildup_closed_form", "buildup_ode", "relaxation_decay"),
    "curveio": ("read_curve", "write_curve"),
    "analysis": ("FitResult", "RelaxationDecomposition", "fit_decay", "fit_buildup", "disentangle_buildup",
                 "decompose_relaxation"),
    "ise": ("sweep_transfer_probability", "epsilon_for_buildup_time", "iterate_shots"),
    "tripletspin": ("SpinHamiltonian", "EigenSystem", "FieldPopulations", "build_hamiltonian", "eigensystem",
                    "project_populations", "electron_polarization", "transition_frequencies"),
    "config": ("ToolkitConfig", "parse_config", "default_config", "CONFIG_REFERENCE"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # the import also binds it here
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
