"""Fitting measured curves to the kinetics model and calibrating polarization.

Both exponential models are linear in all parameters but one rate, so they
are fitted by variable projection with a bracketed search over that rate;
no starting values are needed. Non-convergence is a reported state on the
result, with a note naming the reason, never an exception. A buildup curve
alone only determines the asymptote and the total rate, so separating the
buildup time from the relaxation time requires an independently measured
relaxation constant (disentangle_buildup).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InconsistencyError, ValidationError
from .kinetics import BuildupCurve, KineticsParams

__all__ = [
    "FitResult",
    "RelaxationDecomposition",
    "NmrCalibration",
    "fit_decay",
    "fit_buildup",
    "disentangle_buildup",
    "decompose_relaxation",
    "calibrate_polarization",
]

MAX_ITERATIONS = 200
_SCAN_POINTS = 31
_MIN_SAMPLES = 4


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with one-sigma uncertainties from the residual covariance.

    residual_norm is the root-mean-square residual. gradient_norm is the
    max-norm of J^T r at the returned point; a converged fit has driven it
    to numerical noise. iterations counts the rate-search steps after the
    bracketing scan plus the closing Gauss-Newton steps (at most two).
    """

    parameters: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    gradient_norm: float = 0.0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        for name, u in self.uncertainties.items():
            if not (u >= 0.0 or math.isnan(u)):
                raise ValidationError(f"uncertainty for {name} must be nonnegative, got {u}")


@dataclass(frozen=True)
class RelaxationDecomposition:
    """Split of the total relaxation rate: 1/tr = 1/t1 + 1/te."""

    t1_minutes: float
    tr_minutes: float
    te_minutes: float

    def __post_init__(self):
        if min(self.t1_minutes, self.tr_minutes, self.te_minutes) <= 0.0:
            raise ValidationError("all decomposition time constants must be positive")
        lhs = 1.0 / self.tr_minutes
        rhs = 1.0 / self.t1_minutes + 1.0 / self.te_minutes
        if abs(lhs - rhs) > 1e-9 * lhs:
            raise ValidationError("decomposition must satisfy 1/tr = 1/t1 + 1/te within 1e-9 relative")


@dataclass(frozen=True)
class NmrCalibration:
    """Signal comparison against a thermally polarized reference sample.

    spin_count_ratio is (reference 1H count) / (sample 1H count); gain_ratio
    corrects for different receiver gains between the two measurements.
    """

    enhanced_signal: float
    reference_signal: float
    reference_thermal_polarization: float
    spin_count_ratio: float = 1.0
    gain_ratio: float = 1.0

    def __post_init__(self):
        if self.reference_signal == 0.0:
            raise ValidationError("reference_signal must be nonzero")
        if self.spin_count_ratio <= 0.0 or self.gain_ratio <= 0.0:
            raise ValidationError("spin_count_ratio and gain_ratio must be positive")


def _rate_scan(t: np.ndarray) -> np.ndarray:
    """Log-spaced trial rates from well below 1/span to well above 1/(shortest step)."""
    return np.geomspace(0.01 / (t[-1] - t[0]), 10.0 / float(np.min(np.diff(t))), _SCAN_POINTS)


def _varpro(rates, scan_ssr, solve, residual, jacobian):
    """Fit the one nonlinear rate by variable projection.

    scan_ssr(rates) is the SSR, up to a constant, with the linear parameters
    solved at each trial rate; solve(k) returns (k, parameters, residual, g)
    with g of the sign of dSSR/dk. The smallest scanned SSR and its downhill
    neighbour bracket a root of g, which Illinois regula falsi pins down; up
    to two Gauss-Newton steps on all parameters then polish it, keeping the
    lowest-SSR point. Returns the values needed to assemble a FitResult.
    """
    i = int(np.argmin(scan_ssr(rates)))
    k, x, r, g = solve(rates[i])
    if i in (0, rates.size - 1):
        return _unconverged(
            x, r, jacobian, f"smallest SSR at the edge of the scanned rates ({rates[0]:.3g} to "
            f"{rates[-1]:.3g} per min): the curve is not a single exponential over its time span",
        )
    k_lo, g_lo = k_hi, g_hi = k, g
    if g < 0.0:
        k_hi, _, _, g_hi = solve(rates[i + 1])
    elif g > 0.0:
        k_lo, _, _, g_lo = solve(rates[i - 1])
    iterations = moved = 0  # the end the last step moved; moving it twice halves the stale end's g
    while g != 0.0:
        if not g_lo < 0.0 < g_hi:
            return _unconverged(
                x, r, jacobian, "dSSR/drate does not change sign next to the smallest scanned SSR: "
                "the SSR is too flat there to locate the rate",
            )
        k_next = (k_lo * g_hi - k_hi * g_lo) / (g_hi - g_lo)
        if not k_lo < k_next < k_hi:
            break  # the bracket has closed to adjacent floats
        if iterations == MAX_ITERATIONS:
            note = f"rate search did not converge in {iterations} steps"
            return _unconverged(x, r, jacobian, note, iterations)
        iterations += 1
        k, x, r, g = solve(k_next)
        if g < 0.0:
            k_lo, g_lo = k, g
            if moved < 0:
                g_hi *= 0.5
            moved = -1
        else:
            k_hi, g_hi = k, g
            if moved > 0:
                g_lo *= 0.5
            moved = 1

    ssr = float(r @ r)
    for _ in range(2):
        delta, *_ = np.linalg.lstsq(jacobian(x), -r, rcond=None)
        x_try = x + delta
        if not x_try[1] > 0.0:  # the rate (t_const for a decay) must stay positive
            break
        r_try = residual(x_try)
        ssr_try = float(r_try @ r_try)
        if not ssr_try < ssr:
            break
        x, r, ssr = x_try, r_try, ssr_try
        iterations += 1
    return x, r, jacobian(x), ssr, True, iterations, []


def _unconverged(x, r, jacobian, note, iterations=0):
    return x, r, jacobian(x), float(r @ r), False, iterations, [note]


def _uncertainties(jac: np.ndarray, ssr: float, n_params: int) -> tuple[np.ndarray, bool]:
    """One-sigma parameter errors from the linearized residual covariance.

    Directions in which the Jacobian is rank-deficient get infinite
    uncertainty; the second return value flags that case.
    """
    n = jac.shape[0]
    dof = max(n - n_params, 1)
    sigma2 = ssr / dof
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    rank_tol = s[0] * 1e-12 if s.size and s[0] > 0 else 0.0
    deficient = bool(np.any(s <= rank_tol))
    var = np.full(n_params, math.inf)
    good = s > rank_tol
    if np.any(good):
        contrib = (vt[good].T ** 2) / s[good] ** 2  # (params, good dirs)
        var_finite = sigma2 * contrib.sum(axis=1)
        null_weight = (vt[~good].T ** 2).sum(axis=1) if deficient else np.zeros(n_params)
        for i in range(n_params):
            var[i] = math.inf if null_weight[i] > 1e-12 else var_finite[i]
    return np.sqrt(var), deficient


def _result(names, x, r, jac, ssr, converged, iterations, notes) -> FitResult:
    sigmas, deficient = _uncertainties(jac, ssr, len(names))
    if deficient:
        notes = list(notes) + ["some parameters are unidentifiable from this curve"]
    return FitResult(
        parameters={name: float(v) for name, v in zip(names, x)},
        uncertainties={name: float(s) for name, s in zip(names, sigmas)},
        residual_norm=math.sqrt(ssr / r.size),
        converged=converged,
        iterations=iterations,
        gradient_norm=float(np.max(np.abs(jac.T @ r))),
        notes=tuple(notes),
    )


def fit_decay(curve: BuildupCurve) -> FitResult:
    """Fit P(t) = offset + (p0 - offset) exp(-t / t_const).

    Needs at least four samples. A constant curve cannot determine t_const
    and comes back with converged False rather than raising.
    """
    if len(curve) < _MIN_SAMPLES:
        raise ValidationError(f"decay fit needs at least {_MIN_SAMPLES} samples, got {len(curve)}")
    t = curve.times_min
    y = curve.values
    names = ("p0", "t_const", "offset")

    if float(np.ptp(y)) == 0.0:
        c = float(y[0])
        return FitResult(
            parameters={"p0": c, "t_const": math.nan, "offset": c},
            uncertainties={"p0": 0.0, "t_const": math.inf, "offset": 0.0},
            residual_norm=0.0,
            converged=False,
            iterations=0,
            notes=("degenerate curve: constant values leave t_const unidentifiable",),
        )

    ybar = float(y.mean())
    ym = y - ybar

    def scan_ssr(rates):
        e = np.multiply.outer(-rates, t)
        np.exp(e, out=e)
        s1 = e.sum(axis=1)
        see = np.einsum("ij,ij->i", e, e) - s1 * s1 / t.size
        sy = e @ ym
        return -np.divide(sy * sy, see, out=np.zeros_like(sy), where=see > 0.0)

    def solve(k):
        # offset + a exp(-k t) is a centred one-column regression for fixed k
        e = np.exp(-k * t)
        em = e - e.mean()
        den = float(em @ em)  # 0 once exp(-k t) underflows at every sample
        a = float(em @ ym) / den if den > 0.0 else 0.0
        offset = ybar - a * float(e.mean())
        r = offset + a * e - y
        return k, np.array([a + offset, 1.0 / k, offset]), r, -a * float((t * e) @ r)

    def residual(p):
        return p[2] + (p[0] - p[2]) * np.exp(-t / p[1]) - y

    def jacobian(p):
        e = np.exp(-t / p[1])
        return np.column_stack([e, (p[0] - p[2]) * t / p[1] ** 2 * e, 1.0 - e])

    return _result(names, *_varpro(_rate_scan(t), scan_ssr, solve, residual, jacobian))


def fit_buildup(curve: BuildupCurve) -> FitResult:
    """Fit P(t) = amplitude * (1 - exp(-rate t)).

    Only the asymptote and the total rate are identifiable from a buildup
    curve alone; the result carries a note saying so. Identically zero data
    converge to zero amplitude with the rate flagged unidentifiable.
    """
    if len(curve) < _MIN_SAMPLES:
        raise ValidationError(f"buildup fit needs at least {_MIN_SAMPLES} samples, got {len(curve)}")
    t = curve.times_min
    y = curve.values
    names = ("amplitude", "rate")
    identifiability = (
        "amplitude and rate are the only combinations identifiable from a buildup curve; "
        "splitting the buildup and relaxation times needs an independent relaxation measurement"
    )

    if float(np.max(np.abs(y))) == 0.0:
        return FitResult(
            parameters={"amplitude": 0.0, "rate": 0.0},
            uncertainties={"amplitude": 0.0, "rate": math.inf},
            residual_norm=0.0,
            converged=True,
            iterations=0,
            notes=("rate unidentifiable: curve amplitude is zero", identifiability),
        )
    if float(np.ptp(y)) == 0.0:
        return FitResult(
            parameters={"amplitude": float(y[0]), "rate": math.nan},
            uncertainties={"amplitude": 0.0, "rate": math.inf},
            residual_norm=0.0,
            converged=False,
            iterations=0,
            notes=("degenerate curve: constant nonzero values", identifiability),
        )

    def scan_ssr(rates):
        b = np.multiply.outer(-rates, t)
        np.expm1(b, out=b)  # minus the basis 1 - exp(-k t); the sign drops out
        by = b @ y
        return -by * by / np.einsum("ij,ij->i", b, b)

    def solve(k):
        e = np.exp(-k * t)
        b = 1.0 - e
        amplitude = float(b @ y) / float(b @ b)
        r = amplitude * b - y
        return k, np.array([amplitude, k]), r, amplitude * float((t * e) @ r)

    def residual(p):
        return p[0] * (1.0 - np.exp(-p[1] * t)) - y

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([1.0 - e, p[0] * t * e])

    x, r, jac, ssr, converged, iterations, notes = _varpro(
        _rate_scan(t), scan_ssr, solve, residual, jacobian
    )
    return _result(names, x, r, jac, ssr, converged, iterations, notes + [identifiability])


def disentangle_buildup(fit: FitResult, tr_minutes: float) -> KineticsParams:
    """Recover td and pe from a buildup fit plus a separately measured tr.

    1/td = rate - 1/tr and pe = amplitude (1 + td/tr). The fitted rate must
    exceed the relaxation rate, otherwise no positive buildup time exists.
    """
    if tr_minutes <= 0.0:
        raise ValidationError(f"tr_minutes must be positive, got {tr_minutes}")
    amplitude = fit.parameters["amplitude"]
    rate = fit.parameters["rate"]
    if not rate > 1.0 / tr_minutes:
        raise InconsistencyError(
            f"fitted rate {rate} per min does not exceed the relaxation rate "
            f"1/tr = {1.0 / tr_minutes} per min; no positive buildup time exists"
        )
    td = 1.0 / (rate - 1.0 / tr_minutes)
    pe = amplitude * (1.0 + td / tr_minutes)
    return KineticsParams(pe=pe, td_minutes=td, tr_minutes=tr_minutes, pth=0.0)


def decompose_relaxation(t1_minutes: float, tr_minutes: float) -> RelaxationDecomposition:
    """Split the laser-on relaxation into lattice and paramagnetic channels.

    te = 1 / (1/tr - 1/t1). Requires t1 > tr > 0: the triplet electrons add
    a relaxation channel, so the combined constant must be the shorter one.
    """
    if tr_minutes <= 0.0:
        raise ValidationError(f"tr_minutes must be positive, got {tr_minutes}")
    if t1_minutes <= tr_minutes:
        raise InconsistencyError(
            f"t1 = {t1_minutes} min must exceed tr = {tr_minutes} min; "
            "no positive paramagnetic time constant exists otherwise"
        )
    te = 1.0 / (1.0 / tr_minutes - 1.0 / t1_minutes)
    return RelaxationDecomposition(t1_minutes=t1_minutes, tr_minutes=tr_minutes, te_minutes=te)


def calibrate_polarization(cal: NmrCalibration) -> float:
    """Absolute polarization from the signal ratio against the reference.

    P = (enhanced / reference) * spin_count_ratio * gain_ratio * reference
    thermal polarization. The sign passes through (an emissive line gives a
    negative polarization); a magnitude above 1 is unphysical and is clamped
    with a warning.
    """
    p = (
        cal.enhanced_signal
        / cal.reference_signal
        * cal.spin_count_ratio
        * cal.gain_ratio
        * cal.reference_thermal_polarization
    )
    if abs(p) > 1.0:
        warnings.warn(
            f"calibrated polarization {p} exceeds unit magnitude; clamping. "
            "Check the signal integrals and correction ratios.",
            stacklevel=2,
        )
        p = math.copysign(1.0, p)
    return p
