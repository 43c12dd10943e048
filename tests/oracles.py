"""Independent reference implementations used only by the tests.

Everything here deliberately takes a different route than the package:
spin matrices are built in the Zeeman basis and transformed, eigenvalues
come from the characteristic polynomial, the swept-passage transfer
probability comes from direct numerical propagation of the two-level
Schrodinger equation, curve files are read and checked one row at a time,
and the exponential fits and the spin chain's validators and projections
keep the plain numpy calls they were first written with, as do the
closed-form kinetics, and shots are stepped one at a time. Agreement
between these and the package is the point of the tests, so nothing below
may import from tripletdnp except ValidationError, which the shot loop
raises where the package does.
"""

import math
from pathlib import Path

import numpy as np

from tripletdnp.errors import ValidationError

GAMMA_E_MHZ_PER_T = 28024.9


def spin_ops_via_zeeman_basis():
    """S = 1 operators in the zero-field basis, built the long way round.

    Start from the standard ladder-operator matrices in the |m = +1, 0, -1>
    basis and transform with the zero-field states
    Tx = (|-1> - |+1>)/sqrt2, Ty = i(|-1> + |+1>)/sqrt2, Tz = |0>.
    """
    s2 = 1.0 / np.sqrt(2.0)
    sx_m = s2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    sy_m = s2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
    sz_m = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    # columns: Tx, Ty, Tz expressed in (|+1>, |0>, |-1>)
    u = np.array(
        [
            [-s2, 1j * s2, 0.0],
            [0.0, 0.0, 1.0],
            [s2, 1j * s2, 0.0],
        ],
        dtype=complex,
    )
    to_zf = lambda m: u.conj().T @ m @ u
    return to_zf(sx_m), to_zf(sy_m), to_zf(sz_m)


def hamiltonian_by_direct_arithmetic(d_mhz, e_mhz, b_tesla, theta, phi):
    """Triplet Hamiltonian assembled from the independently built spin matrices."""
    sx, sy, sz = spin_ops_via_zeeman_basis()
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    h = d_mhz * (sz @ sz - (2.0 / 3.0) * np.eye(3))
    h = h + e_mhz * (sx @ sx - sy @ sy)
    h = h + GAMMA_E_MHZ_PER_T * b_tesla * (n[0] * sx + n[1] * sy + n[2] * sz)
    return h


def eigenvalues_by_characteristic_roots(h):
    """Roots of det(H - x I) for a 3x3 Hermitian matrix, ascending."""
    tr = np.trace(h)
    minors = 0.0
    for i in range(3):
        rows = [k for k in range(3) if k != i]
        sub = h[np.ix_(rows, rows)]
        minors += sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
    det = np.linalg.det(h)
    roots = np.roots([1.0, -tr.real, minors.real, -det.real])
    assert np.max(np.abs(roots.imag)) < 1e-6 * max(1.0, np.max(np.abs(roots)))
    return np.sort(roots.real)


def overlap_population_table(eigvecs, zf_populations):
    """Field-dressed populations from the explicit |<psi_i|T_k>|^2 table."""
    out = []
    for i in range(3):
        total = 0.0
        for k in range(3):
            total += abs(eigvecs[k, i]) ** 2 * zf_populations[k]
        out.append(total)
    return np.array(out)


def expectation_polarization(eigvecs, populations, theta, phi):
    """Sum_i p_i <psi_i| n . S |psi_i> with the independently built spin matrices."""
    sx, sy, sz = spin_ops_via_zeeman_basis()
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    s_b = n[0] * sx + n[1] * sy + n[2] * sz
    total = 0.0
    for i in range(3):
        v = eigvecs[:, i]
        total += populations[i] * np.real(v.conj() @ s_b @ v)
    return total


# The per-orientation spin chain and its validators as they were written on
# numpy arrays, before the checks and projections moved onto Python numbers.
# The package must give the same verdicts and messages, the same eigensystem
# bit for bit, and populations and pe within rounding.


def spin_hamiltonian_error(matrix):
    """The message SpinHamiltonian's numpy validator raised for matrix, or None."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (3, 3):
        return f"Hamiltonian must be 3x3, got shape {m.shape}"
    with np.errstate(all="ignore"):
        scale = abs(m).max()
        if not math.isfinite(scale):
            return "Hamiltonian entries must be finite"
        if not abs(m - m.conj().T).max() <= 1e-12 * max(1.0, scale):
            return "Hamiltonian must be Hermitian within 1e-12"
        if not abs(m[0, 0] + m[1, 1] + m[2, 2]) <= 1e-9:
            return "Hamiltonian must be traceless within 1e-9 MHz"
    return None


def unitarity_gap(vectors):
    """max |V^H V - I| by numpy's matmul, the quantity the 1e-10 unitarity check bounds."""
    v = np.asarray(vectors, dtype=complex)
    with np.errstate(all="ignore"):
        return abs(v.conj().T @ v - np.eye(3, dtype=complex)).max()


def eigensystem_error(values, vectors):
    """The message EigenSystem's numpy validator raised, or None."""
    vals = np.asarray(values, dtype=float)
    vecs = np.asarray(vectors, dtype=complex)
    if vals.shape != (3,) or vecs.shape != (3, 3):
        return "eigensystem must hold 3 eigenvalues and a 3x3 eigenvector matrix"
    low, mid, high = vals.tolist()
    if not all(math.isfinite(v) for v in (low, mid, high)):
        return f"eigenvalues must be finite, got {vals}"
    if not low <= mid <= high:
        return "eigenvalues must be ascending"
    if not unitarity_gap(vecs) <= 1e-10:
        return "eigenvector set must be unitary within 1e-10"
    if abs(low + mid + high) > 1e-9:
        return "eigenvalue sum must vanish within 1e-9 MHz (traceless Hamiltonian)"
    return None


def _spin_form(x, y, z, diagonal=(0.0, 0.0, 0.0)):
    return np.array([
        [diagonal[0], -1j * z, 1j * y],
        [1j * z, diagonal[1], -1j * x],
        [-1j * y, 1j * x, diagonal[2]],
    ])


def spin_chain(d_mhz, e_mhz, zf_populations, b_tesla, theta, phi):
    """(H, eigenvalues, eigenvectors, populations, pe) for one field orientation.

    H is assembled as the package assembles it, eigh's eigenvector phases are
    fixed the package's way, and the projections use the array expressions
    (weights |V|^2 through np.dot, <psi|S_B|psi> through S_B @ V).
    """
    st = math.sin(theta)
    axis = (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
    gamma_b = GAMMA_E_MHZ_PER_T * b_tesla
    zfs = (d_mhz / 3.0 - e_mhz, d_mhz / 3.0 + e_mhz, -2.0 * d_mhz / 3.0)
    h = _spin_form(gamma_b * axis[0], gamma_b * axis[1], gamma_b * axis[2], zfs)
    vals, vecs = np.linalg.eigh(h)
    phases = []
    for col in vecs.T.tolist():
        lead = next((c for c in col if abs(c) > 1e-12), 1.0)
        phases.append(lead.conjugate() / abs(lead))
    vecs = vecs * phases
    p = np.dot(zf_populations, abs(vecs) ** 2).tolist()
    total = sum(p)
    pops = (p[0] / total, p[1] / total, p[2] / total)
    expect = (vecs.conj() * (_spin_form(*axis) @ vecs)).sum(axis=0).real
    pe = float(np.dot(pops, expect))
    return h, vals, vecs, pops, max(min(pe, 1.0), -1.0)


def landau_zener_numeric(omega1_rad_s, sweep_rate_rad_s2, span_factor=60.0, tail=0.25, nsteps=60000):
    """Transfer probability of a linear two-level sweep by direct propagation.

    H(t) = (rate t / 2) sigma_z + (omega1 / 2) sigma_x, propagated with exact
    2x2 exponentials of the midpoint Hamiltonian on a fine grid, starting in
    one diabatic state far below the crossing. The occupation of the other
    diabatic state oscillates after the passage, so the result is averaged
    over the trailing quarter of the window. Accurate to a few 1e-3 absolute
    for omega1 / (2 sqrt(rate)) up to ~3; vectorized over array inputs.
    """
    w = np.atleast_1d(np.asarray(omega1_rad_s, dtype=float))
    r = np.atleast_1d(np.asarray(sweep_rate_rad_s2, dtype=float))
    w, r = np.broadcast_arrays(w, r)
    t_window = span_factor * np.maximum(w, np.sqrt(r)) / r
    dt = 2.0 * t_window / nsteps
    a = np.zeros(w.shape, dtype=complex)
    b = np.ones(w.shape, dtype=complex)
    transfer_sum = np.zeros(w.shape)
    tail_start = int(nsteps * (1.0 - tail))
    count = 0
    for k in range(nsteps):
        t_mid = -t_window + (k + 0.5) * dt
        dz = r * t_mid / 2.0
        wx = w / 2.0
        h = np.sqrt(dz * dz + wx * wx)
        theta = h * dt
        cos = np.cos(theta)
        sinc = np.where(h > 0.0, np.sin(theta) / np.where(h > 0.0, h, 1.0), dt)
        a_next = (cos - 1j * sinc * dz) * a - 1j * sinc * wx * b
        b_next = -1j * sinc * wx * a + (cos + 1j * sinc * dz) * b
        a, b = a_next, b_next
        if k >= tail_start:
            transfer_sum += np.abs(a) ** 2
            count += 1
    out = transfer_sum / count
    return out if out.size > 1 else float(out[0])


def rk4_rate_equation(pe, td_minutes, tr_minutes, pth, grid, include_pth):
    """dP/dt = (pe - P)/td - (P - pth)/tr by the textbook four-stage RK4 loop.

    Same step rule as the package (n = ceil(span / h_max) equal steps per grid
    interval, h_max = min(td, tr)/1000) and the same start (pth with
    include_pth, else 0 with the thermal term dropped), but every stage is
    evaluated from the right-hand side as written.
    """
    floor = pth if include_pth else 0.0
    rhs = lambda p: (pe - p) / td_minutes - (p - floor) / tr_minutes
    h_max = min(td_minutes, tr_minutes) / 1000.0
    p = floor
    out = [p]
    for a, b in zip(grid[:-1], grid[1:]):
        span = float(b) - float(a)
        n = max(1, int(np.ceil(span / h_max)))
        h = span / n
        for _ in range(n):
            k1 = rhs(p)
            k2 = rhs(p + 0.5 * h * k1)
            k3 = rhs(p + 0.5 * h * k2)
            k4 = rhs(p + h * k3)
            p += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(p)
    return np.array(out)


# The closed-form kinetics as written before the buildup and the decay shared
# one approach step, without their input checks. final_polarization and
# steady_state_with_pth did not change, so the caller passes the asymptote.


def buildup_closed_form(params, t_minutes, include_pth, p_inf):
    """P_inf (1 - e) + pth e with include_pth, else P_inf (1 - e); e = exp(-t (1/td + 1/tr))."""
    t = np.asarray(t_minutes, dtype=float)
    rate = 1.0 / params.td_minutes + 1.0 / params.tr_minutes
    with np.errstate(over="ignore"):
        e = np.exp(-t * rate) if rate < math.inf else (t == 0.0).astype(float)
    out = p_inf * (1.0 - e) + params.pth * e if include_pth else p_inf * (1.0 - e)
    return float(out) if np.ndim(t_minutes) == 0 else out


def relaxation_decay(p0, t_const_minutes, t_minutes, pth=0.0):
    """pth + (p0 - pth) exp(-t / t_const); -t / t_const may overflow, with a RuntimeWarning."""
    t = np.asarray(t_minutes, dtype=float)
    out = pth + (p0 - pth) * np.exp(-t / t_const_minutes)
    return float(out) if np.ndim(t_minutes) == 0 else out


def shot_map(p_now, shot, pe, tr_minutes, pth=0.0):
    """Polarization after one shot: gain epsilon (pe - p), relax (dt/tr)(p - pth).

    The loop oracle of iterate_shots, one shot per call. It rejects the
    inputs iterate_shots rejects with ValidationError, except that a shot
    that overshoots its fixed point (epsilon + dt/tr > 1) is taken and the
    result clamped to [-1, 1].
    """
    if not abs(p_now) <= 1.0:
        raise ValidationError(f"|polarization| <= 1 required, got {p_now}")
    if not (abs(pe) <= 1.0 and abs(pth) <= 1.0):
        raise ValidationError(f"|pe| and |pth| must be finite and not exceed 1, got {pe}, {pth}")
    if not tr_minutes > 0.0:
        raise ValidationError(f"tr_minutes must be positive, got {tr_minutes}")
    delta = shot.shot_period_s / (60.0 * tr_minutes)
    if not delta < math.inf:  # inf * (p - pth) would be NaN at p = pth, which the clamp hides
        raise ValidationError(f"shot period / tr overflows: tr_minutes {tr_minutes} is too small")
    p = p_now + shot.epsilon * (pe - p_now) - delta * (p_now - pth)
    return min(1.0, max(-1.0, p))


def read_curve_by_rows(path):
    """Curve file read and checked one row at a time, in file order.

    Returns (times_min, values, value kind name) as float arrays, or the
    "row N: ..." message of the first problem: an unknown value_kind
    comment, a bad header, a row without two cells, a non-numeric or
    non-finite cell, a time not above the previous one, a negative time, a
    missing header or no data rows.
    """
    kinds = ("polarization", "raw_signal")
    headers = {"time_min": 1.0, "time_s": 1.0 / 60.0}
    lines = Path(path).read_text().splitlines()
    kind, scale = "polarization", None
    times, values = [], []
    for row, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
            if comment.startswith("value_kind:"):
                kind = comment[len("value_kind:"):].strip()
                if kind not in kinds:
                    return f"row {row}: unknown value_kind {kind!r}; expected polarization or raw_signal"
            continue
        cells = [c.strip() for c in line.split(",")]
        if scale is None:
            if len(cells) != 2 or cells[0] not in headers or cells[1] != "value":
                return f"row {row}: expected header 'time_min,value' or 'time_s,value', got {line!r}"
            scale = headers[cells[0]]
            continue
        if len(cells) != 2:
            return f"row {row}: expected two comma-separated cells, got {line!r}"
        try:
            t = float(cells[0]) * scale
            v = float(cells[1])
        except ValueError:
            return f"row {row}: non-numeric cell in {line!r}"
        if not (math.isfinite(t) and math.isfinite(v)):
            return f"row {row}: non-finite cell in {line!r}"
        if times and t <= times[-1]:
            return f"row {row}: time {cells[0]} does not increase over the previous sample"
        if t < 0.0:
            return f"row {row}: negative time {cells[0]}"
        times.append(t)
        values.append(v)
    if scale is None:
        return f"row {len(lines) or 1}: file has no header row"
    if not times:
        return f"row {len(lines)}: file has no data rows"
    return np.array(times), np.array(values), kind


_ORACLE_MAX_ITERATIONS = 200
_BUILDUP_NOTE = (
    "amplitude and rate are the only combinations identifiable from a buildup curve; "
    "splitting the buildup and relaxation times needs an independent relaxation measurement"
)


def _oracle_uncertainties(jac, ssr, n_params):
    n = jac.shape[0]
    dof = max(n - n_params, 1)
    sigma2 = ssr / dof
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    rank_tol = s[0] * 1e-12 if s.size and s[0] > 0 else 0.0
    deficient = bool(np.any(s <= rank_tol))
    var = np.full(n_params, math.inf)
    good = s > rank_tol
    if np.any(good):
        contrib = (vt[good].T ** 2) / s[good] ** 2
        var_finite = sigma2 * contrib.sum(axis=1)
        null_weight = (vt[~good].T ** 2).sum(axis=1) if deficient else np.zeros(n_params)
        for i in range(n_params):
            var[i] = math.inf if null_weight[i] > 1e-12 else var_finite[i]
    return np.sqrt(var), deficient


def _oracle_result(names, x, r, jacobian, converged, iterations, notes):
    jac = jacobian(x)
    ssr = float(r @ r)
    sigmas, deficient = _oracle_uncertainties(jac, ssr, len(names))
    if deficient:
        notes = (*notes, "some parameters are unidentifiable from this curve")
    return {
        "parameters": {name: float(v) for name, v in zip(names, x)},
        "uncertainties": {name: float(s) for name, s in zip(names, sigmas)},
        "residual_norm": math.sqrt(ssr / r.size),
        "converged": converged,
        "iterations": iterations,
        "gradient_norm": float(np.max(np.abs(jac.T @ r))),
        "notes": tuple(notes),
    }


def _oracle_varpro(names, rates, scan_ssr, solve, jacobian, notes=()):
    i = int(np.argmin(scan_ssr(rates)))
    k = rates[i]
    x, r, g = solve(k)
    if i in (0, rates.size - 1):
        why = (
            f"smallest SSR at the edge of the scanned rates ({rates[0]:.3g} to "
            f"{rates[-1]:.3g} per min): the curve is not a single exponential over its time span"
        )
        return _oracle_result(names, x, r, jacobian, False, 0, (why, *notes))
    k_lo, g_lo = k_hi, g_hi = k, g
    if g < 0.0:
        k_hi, g_hi = rates[i + 1], solve(rates[i + 1])[2]
    elif g > 0.0:
        k_lo, g_lo = rates[i - 1], solve(rates[i - 1])[2]
    iterations = moved = 0
    while g != 0.0:
        if not g_lo < 0.0 < g_hi:
            why = (
                "dSSR/drate does not change sign next to the smallest scanned SSR: "
                "the SSR is too flat there to locate the rate"
            )
            return _oracle_result(names, x, r, jacobian, False, 0, (why, *notes))
        k = (k_lo * g_hi - k_hi * g_lo) / (g_hi - g_lo)
        if not k_lo < k < k_hi:
            break
        if iterations == _ORACLE_MAX_ITERATIONS:
            why = f"rate search did not converge in {iterations} steps"
            return _oracle_result(names, x, r, jacobian, False, iterations, (why, *notes))
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
    return _oracle_result(names, x, r, jacobian, True, iterations, notes)


def varpro_fit(t, y, model):
    """Variable-projection fit of a buildup or decay curve, as plain numpy.

    The reference for bit identity: the rate scan comes from np.geomspace,
    means from ndarray.mean, the constant-curve test from np.ptp, and the
    uncertainties from a boolean mask over the singular directions. Returns
    the FitResult fields as a dict; model is "buildup" or "decay".
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    rates = np.geomspace(0.01 / (t[-1] - t[0]), 10.0 / float(np.min(np.diff(t))), 31)
    flat = {"residual_norm": 0.0, "iterations": 0, "gradient_norm": 0.0}
    if model == "decay":
        names = ("p0", "t_const", "offset")
        if float(np.ptp(y)) == 0.0:
            c = float(y[0])
            return {
                "parameters": {"p0": c, "t_const": math.nan, "offset": c},
                "uncertainties": {"p0": 0.0, "t_const": math.inf, "offset": 0.0},
                "converged": False,
                "notes": ("degenerate curve: constant values leave t_const unidentifiable",),
                **flat,
            }
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
            e = np.exp(-k * t)
            em = e - e.mean()
            den = float(em @ em)
            a = float(em @ ym) / den if den > 0.0 else 0.0
            offset = ybar - a * float(e.mean())
            r = offset + a * e - y
            return np.array([a + offset, 1.0 / k, offset]), r, -a * float((t * e) @ r)

        def jacobian(p):
            e = np.exp(-t / p[1])
            return np.column_stack([e, (p[0] - p[2]) * t / p[1] ** 2 * e, 1.0 - e])

        return _oracle_varpro(names, rates, scan_ssr, solve, jacobian)

    names = ("amplitude", "rate")
    if float(np.max(np.abs(y))) == 0.0:
        return {
            "parameters": {"amplitude": 0.0, "rate": 0.0},
            "uncertainties": {"amplitude": 0.0, "rate": math.inf},
            "converged": True,
            "notes": ("rate unidentifiable: curve amplitude is zero", _BUILDUP_NOTE),
            **flat,
        }
    if float(np.ptp(y)) == 0.0:
        return {
            "parameters": {"amplitude": float(y[0]), "rate": math.nan},
            "uncertainties": {"amplitude": 0.0, "rate": math.inf},
            "converged": False,
            "notes": ("degenerate curve: constant nonzero values", _BUILDUP_NOTE),
            **flat,
        }

    def scan_ssr(rates):
        b = np.multiply.outer(-rates, t)
        np.expm1(b, out=b)
        by = b @ y
        return -by * by / np.einsum("ij,ij->i", b, b)

    def solve(k):
        e = np.exp(-k * t)
        b = 1.0 - e
        amplitude = float(b @ y) / float(b @ b)
        r = amplitude * b - y
        return np.array([amplitude, k]), r, amplitude * float((t * e) @ r)

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([1.0 - e, p[0] * t * e])

    return _oracle_varpro(names, rates, scan_ssr, solve, jacobian, (_BUILDUP_NOTE,))
