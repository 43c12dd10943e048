"""Reference operations: fixed work, written in the benchmark, that gauges machine speed.

The machine the benchmark runs on is shared. Its speed drifts between
regimes some 40-70 % apart that last from seconds to several minutes, and
code of different kinds slows by different amounts in the same regime. So
each workload times, right after every operation, a reference operation of
the same kind (a fresh interpreter that imports numpy, with or without a
plain-Python RK4 loop; a 3x3 Hermitian eigenproblem assembled from plain
floats; a CSV round trip with small least-squares fits) that uses numpy and
the standard library only, never tripletdnp. An operation's time at nominal
speed is the median over a run's passes of its time over its reference's
time, times the reference's nominal time below. A change to tripletdnp moves
the operations and not the references, so it moves those times by the same
share as the measured ones; a slow spell moves both and cancels.

The nominal times are the references' median times on the machine the
baseline was measured on (2-vCPU x86_64 VM, Python 3.11, numpy 2.4, one BLAS
thread). They only set the scale: runs on one machine compare the same way
whatever they are.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# reference name -> nominal time in ms (about its median time on that machine)
NOMINAL_MS = {"spawn": 165.0, "spawn_rk4": 200.0, "spin": 0.03, "curve": 0.9, "curve_large": 12.0}

_SPAWN_CODE = "import numpy as np; print(float(np.linspace(0.0, 1.0, 201).sum()))"
# the same, then a pure-Python RK4 loop on a scalar linear ODE
_SPAWN_RK4_CODE = """import numpy as np
p, k, c, h = 0.0, 0.07, 0.04, 0.02
for _ in range(30000):
    k1 = c - k * p
    k2 = c - k * (p + 0.5 * h * k1)
    k3 = c - k * (p + 0.5 * h * k2)
    k4 = c - k * (p + h * k3)
    p += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
print(float(np.float64(p)))
"""


def spawn_ms(cwd, env=None, rk4: bool = False) -> float:
    """Wall time of a fresh interpreter that imports numpy, does a little work
    (with rk4, 30,000 RK4 steps in plain Python) and exits."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", _SPAWN_RK4_CODE if rk4 else _SPAWN_CODE], cwd=cwd,
                   env=env, capture_output=True, timeout=60, check=True)
    return (time.perf_counter_ns() - t0) / 1e6


def spin(d: float, e: float, g: tuple[float, float, float], populations: np.ndarray) -> float:
    """A triplet Hamiltonian in the {Tx, Ty, Tz} basis, its eigensystem and projections."""
    gx, gy, gz = g
    h = np.array([
        [d / 3.0 - e, -1j * gz, 1j * gy],
        [1j * gz, d / 3.0 + e, -1j * gx],
        [-1j * gy, 1j * gx, -2.0 * d / 3.0],
    ])
    w, v = np.linalg.eigh(h)
    p = (np.abs(v) ** 2).T @ populations
    return float(w[2] - w[0]) + float(p[0] - p[2])


def curve(path, t: np.ndarray, y: np.ndarray) -> float:
    """Write t, y as CSV with repr, read it back, and run six linearised exponential fits."""
    lines = ["time_min,value"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, y)]
    path.write_text("\n".join(lines) + "\n")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    tt = np.array([float(a) for a, _ in rows])
    yy = np.array([float(b) for _, b in rows])
    rate = 3.0 / tt[-1]
    for _ in range(6):
        e = np.exp(-rate * tt)
        jac = np.column_stack([e, 1.0 - e, tt * e])
        coef, *_ = np.linalg.lstsq(jac, yy, rcond=None)
        rate *= 1.0 + 1e-3 * float(np.tanh(coef[2]))
    return rate
