"""Fitting measured curves to the kinetics model and splitting the fitted constants.

Both exponential models are linear in all parameters but one rate, so they
are fitted by variable projection with a bracketed search over that rate;
no starting values are needed. Non-convergence is a reported state on the
result, with a note naming the reason, never an exception. A buildup curve
alone only determines the asymptote and the total rate, so separating the
buildup time from the relaxation time requires an independently measured
relaxation constant (disentangle_buildup). The NMR calibration is scalar
arithmetic and lives in the numpy-free params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinetics import BuildupCurve
from .params import ByValue, InconsistencyError, KineticsParams, ValidationError

MAX_ITERATIONS = 200
_SCAN_POINTS = 31
_SCAN_STEPS = np.arange(_SCAN_POINTS, dtype=float)
_MIN_SAMPLES = 4
_OVERFLOW_NOTE = (
    "the model overflows at this curve's scale (non-finite Jacobian or residual), "
    "so the fit and its uncertainties are meaningless; rescale the times or values"
)


@dataclass(frozen=True, eq=False)
class FitResult(ByValue):
    """Fitted parameters with one-sigma uncertainties from the residual covariance.

    residual_norm is the root-mean-square residual. gradient_norm is the
    max-norm of J^T r at the returned point; a converged fit has driven it
    to numerical noise. iterations counts the rate-search steps after the
    bracketing scan. Results compare and hash by value, NaN equal to NaN.
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
        if not (self.t1_minutes > 0.0 and self.tr_minutes > 0.0 and self.te_minutes > 0.0):
            raise ValidationError("all decomposition time constants must be positive")
        lhs = 1.0 / self.tr_minutes
        rhs = 1.0 / self.t1_minutes + 1.0 / self.te_minutes
        if not abs(lhs - rhs) <= 1e-9 * lhs:
            raise ValidationError("decomposition must satisfy 1/tr = 1/t1 + 1/te within 1e-9 relative")


def _rate_scan(t: np.ndarray) -> np.ndarray:
    """Log-spaced trial rates from well below 1/span to well above 1/(shortest step).

    Bitwise np.geomspace(lo, hi, _SCAN_POINTS), without its Python overhead:
    exponents evenly spaced from log10(lo) to log10(hi), then both ends pinned.
    """
    lo = 0.01 / (t[-1] - t[0])
    hi = 10.0 / float(np.minimum.reduce(t[1:] - t[:-1]))
    log_lo, log_hi = np.log10([lo, hi])
    rates = np.power(10.0, _SCAN_STEPS * ((log_hi - log_lo) / (_SCAN_POINTS - 1)) + log_lo)
    rates[0], rates[-1] = lo, hi
    return rates


def _varpro(curve, model, names, flat, scan_ssr, solve, jacobian, notes=()) -> FitResult:
    """Fit a model's one nonlinear rate to curve by variable projection.

    model names the fit in the sample-count error. names lists the
    parameters, the rate's at names[1]. flat is (parameters, converged,
    note), the result for a constant curve: the rate is unidentifiable
    there, so its sigma is inf and every other sigma 0. scan_ssr(rates) is
    the SSR, up to a constant, with the linear parameters solved at each
    trial rate; solve(k) returns (parameters, residual, g) with g of the
    sign of dSSR/dk. The smallest scanned SSR and its downhill neighbour
    bracket a root of g, which Illinois regula falsi pins down until the
    bracket closes to adjacent floats; the linear parameters are exact at
    every trial rate, so that point is the fit. Returns the FitResult, with
    notes appended to its own.
    """
    if len(curve) < _MIN_SAMPLES:
        raise ValidationError(f"{model} fit needs at least {_MIN_SAMPLES} samples, got {len(curve)}")
    y = curve.values
    if y.max() == y.min():
        parameters, converged, note = flat
        return FitResult(
            parameters=dict(zip(names, parameters)),
            uncertainties={**dict.fromkeys(names, 0.0), names[1]: math.inf},
            residual_norm=0.0,
            converged=converged,
            iterations=0,
            notes=(note, *notes),
        )
    rates = _rate_scan(curve.times_min)
    i = int(scan_ssr(rates).argmin())
    k = rates[i]
    x, r, g = solve(k)
    if i in (0, rates.size - 1):
        why = (
            f"smallest SSR at the edge of the scanned rates ({rates[0]:.3g} to "
            f"{rates[-1]:.3g} per min): the curve is not a single exponential over its time span"
        )
        return _result(names, x, r, jacobian, 0, notes, why)
    k_lo, g_lo = k_hi, g_hi = k, g
    if g < 0.0:
        k_hi, g_hi = rates[i + 1], solve(rates[i + 1])[2]
    elif g > 0.0:
        k_lo, g_lo = rates[i - 1], solve(rates[i - 1])[2]
    iterations = moved = 0  # the end the last step moved; moving it twice halves the stale end's g
    while g != 0.0:
        if not g_lo < 0.0 < g_hi:
            why = (
                "dSSR/drate does not change sign next to the smallest scanned SSR: "
                "the SSR is too flat there to locate the rate"
            )
            return _result(names, x, r, jacobian, 0, notes, why)
        k = (k_lo * g_hi - k_hi * g_lo) / (g_hi - g_lo)
        if not k_lo < k < k_hi:
            break  # the bracket has closed to adjacent floats
        if iterations == MAX_ITERATIONS:
            why = f"rate search did not converge in {iterations} steps"
            return _result(names, x, r, jacobian, iterations, notes, why)
        iterations += 1
        x, r, g = solve(k)
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
    return _result(names, x, r, jacobian, iterations, notes)


def _uncertainties(jac: np.ndarray, ssr: float, n_params: int) -> tuple[np.ndarray, bool]:
    """One-sigma parameter errors from the linearized residual covariance.

    Directions in which the Jacobian is rank-deficient (singular value at
    most 1e-12 of the largest) get infinite uncertainty, and so does every
    parameter with weight in them; the second return value flags that case.
    The singular values come sorted, so the determined directions are the
    leading rows of vt.
    """
    sigma2 = ssr / max(jac.shape[0] - n_params, 1)
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * 1e-12))
    var = sigma2 * np.add.reduce(vt[:rank].T ** 2 / s[:rank] ** 2, axis=1)
    if rank < n_params:
        var[np.add.reduce(vt[rank:].T ** 2, axis=1) > 1e-12] = math.inf
    return np.sqrt(var), rank < n_params


def _result(names, x, r, jacobian, iterations, notes, why=None) -> FitResult:
    """The FitResult at parameters x; a reason why the search stopped short leads the notes."""
    x = np.array(x)
    jac = jacobian(x)
    ssr = float(r @ r)
    if math.isfinite(ssr) and np.isfinite(jac).all():  # a finite SSR means a finite residual
        sigmas, deficient = _uncertainties(jac, ssr, len(names))
        if deficient:
            notes = (*notes, "some parameters are unidentifiable from this curve")
    else:  # the SVD cannot take it, and the search ran on overflowed numbers
        sigmas, why = np.full(len(names), math.inf), _OVERFLOW_NOTE
    return FitResult(
        parameters=dict(zip(names, x.tolist())),
        uncertainties=dict(zip(names, sigmas.tolist())),
        residual_norm=math.sqrt(ssr / r.size),
        converged=why is None,
        iterations=iterations,
        gradient_norm=float(np.max(np.abs(jac.T @ r))),
        notes=tuple(notes) if why is None else (why, *notes),
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_decay(curve: BuildupCurve) -> FitResult:
    """Fit P(t) = offset + (p0 - offset) exp(-t / t_const).

    Needs at least four samples. A constant curve cannot determine t_const
    and comes back with converged False rather than raising, and so does a
    curve at whose scale the model overflows.
    """
    t, y = curve.times_min, curve.values
    ybar = float(np.add.reduce(y)) / t.size  # bitwise y.mean(), as is e_mean below
    ym = y - ybar

    def scan_ssr(rates):
        e = np.multiply.outer(-rates, t)
        np.exp(e, out=e)
        s1 = np.add.reduce(e, axis=1)
        see = np.einsum("ij,ij->i", e, e) - s1 * s1 / t.size
        sy = e @ ym
        return -np.divide(sy * sy, see, out=np.zeros(rates.size), where=see > 0.0)

    def solve(k):
        # offset + a exp(-k t) is a centred one-column regression for fixed k
        e = np.exp(-k * t)
        e_mean = float(np.add.reduce(e)) / t.size
        em = e - e_mean
        den = float(em @ em)  # 0 once exp(-k t) underflows at every sample
        a = float(em @ ym) / den if den > 0.0 else 0.0
        offset = ybar - a * e_mean
        r = offset + a * e - y
        return (a + offset, 1.0 / k, offset), r, -a * float((t * e) @ r)

    def jacobian(p):
        e = np.exp(-t / p[1])
        return np.column_stack([e, (p[0] - p[2]) * t / p[1] ** 2 * e, 1.0 - e])

    c = float(y[0])
    flat = (c, math.nan, c), False, "degenerate curve: constant values leave t_const unidentifiable"
    return _varpro(curve, "decay", ("p0", "t_const", "offset"), flat, scan_ssr, solve, jacobian)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_buildup(curve: BuildupCurve) -> FitResult:
    """Fit P(t) = amplitude * (1 - exp(-rate t)).

    Only the asymptote and the total rate are identifiable from a buildup
    curve alone; the result carries a note saying so. Identically zero data
    converge to zero amplitude with the rate flagged unidentifiable. A curve
    at whose scale the model overflows comes back with converged False.
    """
    t, y = curve.times_min, curve.values

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
        return (amplitude, k), r, amplitude * float((t * e) @ r)

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([1.0 - e, p[0] * t * e])

    c = float(y[0])  # a constant curve is all zero exactly when its first value is
    if c == 0.0:
        flat = (0.0, 0.0), True, "rate unidentifiable: curve amplitude is zero"
    else:
        flat = (c, math.nan), False, "degenerate curve: constant nonzero values"
    identifiability = (
        "amplitude and rate are the only combinations identifiable from a buildup curve; "
        "splitting the buildup and relaxation times needs an independent relaxation measurement"
    )
    return _varpro(curve, "buildup", ("amplitude", "rate"), flat, scan_ssr, solve, jacobian, (identifiability,))


def disentangle_buildup(fit: FitResult, tr_minutes: float) -> KineticsParams:
    """Recover td and pe from a buildup fit plus a separately measured tr.

    1/td = rate - 1/tr and pe = amplitude (1 + td/tr). The fitted rate must
    exceed the relaxation rate, otherwise no positive buildup time exists,
    and the derived pe must be a polarization, |pe| <= 1.
    """
    if not tr_minutes > 0.0:
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
    if not abs(pe) <= 1.0:
        raise InconsistencyError(
            f"fitted amplitude {amplitude} and rate {rate} per min with tr = {tr_minutes} min "
            f"give pe = {pe}, beyond unit magnitude; the curve and tr cannot both hold"
        )
    return KineticsParams(pe=pe, td_minutes=td, tr_minutes=tr_minutes, pth=0.0)


def decompose_relaxation(t1_minutes: float, tr_minutes: float) -> RelaxationDecomposition:
    """Split the laser-on relaxation into lattice and paramagnetic channels.

    te = 1 / (1/tr - 1/t1). Requires t1 > tr > 0: the triplet electrons add
    a relaxation channel, so the combined constant must be the shorter one.
    """
    if math.isnan(t1_minutes):  # else reported as the inconsistency t1 <= tr
        raise ValidationError(f"t1_minutes must be a number, got {t1_minutes}")
    if not 0.0 < tr_minutes < math.inf:
        raise ValidationError(f"tr_minutes must be finite and positive, got {tr_minutes}")
    if not t1_minutes > tr_minutes:
        raise InconsistencyError(
            f"t1 = {t1_minutes} min must exceed tr = {tr_minutes} min; "
            "no positive paramagnetic time constant exists otherwise"
        )
    if not 1.0 / tr_minutes < math.inf:  # te would come out as 0
        raise ValidationError(f"1 / tr overflows: tr_minutes {tr_minutes} is too small")
    te = 1.0 / (1.0 / tr_minutes - 1.0 / t1_minutes)
    return RelaxationDecomposition(t1_minutes=t1_minutes, tr_minutes=tr_minutes, te_minutes=te)
