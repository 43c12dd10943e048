"""Workload orientation_scan: the triplet spin chain over a spherical grid.

One operation is the full chain for one field orientation:
build_hamiltonian -> eigensystem -> project_populations ->
electron_polarization -> transition_frequencies. This is the only workload in
which `tripletspin` does the work, and the loop that orientation averaging
repeats thousands of times.

Inputs: a golden-spiral grid of field directions at 0.64 T under a seeded
random rotation, the pentacene parameters on every direction, and three
seeded random (D, E, populations) draws on every eighth direction each.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

import tripletdnp as td
from tripletdnp.constants import GAMMA_E_MHZ_PER_T

from reference import spin as spin_reference

FIELD_TESLA = 0.64
CHAIN = ("build_hamiltonian", "eigensystem", "project_populations",
         "electron_polarization", "transition_frequencies")
TOL = 1e-9


def _directions(n: int, rng) -> np.ndarray:
    """n near-uniform unit vectors: golden spiral, randomly rotated."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(n)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    q, upper = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(upper))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return pts @ q.T


def _reference_hamiltonian(d, e, bvec) -> np.ndarray:
    """H in the {Tx, Ty, Tz} basis, assembled without the package's operators."""
    gx, gy, gz = GAMMA_E_MHZ_PER_T * np.asarray(bvec)
    return np.array([
        [d / 3.0 - e, -1j * gz, 1j * gy],
        [1j * gz, d / 3.0 + e, -1j * gx],
        [-1j * gy, 1j * gx, -2.0 * d / 3.0],
    ])


class OrientationScan:
    name = "orientation_scan"

    def __init__(self, seed: int, workdir, quick: bool):
        rng = np.random.default_rng(seed)
        n = 24 if quick else 400
        dirs = _directions(n, rng)
        theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
        phi = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
        phi[phi >= 2.0 * math.pi] = 0.0
        self.fields = [td.MagneticFieldSetting(FIELD_TESLA, float(t), float(p))
                       for t, p in zip(theta, phi)]

        params = [td.TripletParameters(1395.0, -50.0, (0.76, 0.16, 0.08))]
        for _ in range(3):
            d = float(rng.uniform(500.0, 3000.0) * rng.choice([-1.0, 1.0]))
            e = float(rng.uniform(-0.99, 0.99) * abs(d) / 3.0)
            pops = rng.dirichlet([1.0, 1.0, 1.0])
            pops = pops / pops.sum()
            params.append(td.TripletParameters(d, e, (float(pops[0]), float(pops[1]), float(pops[2]))))
        self.jobs = [(params[0], f) for f in self.fields]
        for j, p in enumerate(params[1:]):
            self.jobs += [(p, self.fields[k]) for k in range(j, n, 8)]

        digest = hashlib.sha256()
        for p, f in self.jobs:
            digest.update(np.array([p.d_mhz, p.e_mhz, *p.zf_populations,
                                    f.magnitude_tesla, f.theta_rad, f.phi_rad]).tobytes())
        self._digest = digest.hexdigest()
        self.expected = self.ref_inputs = None

    def digest(self) -> str:
        return self._digest

    def prepare(self) -> None:
        """Eigenvalues of independently assembled Hamiltonians, one batched eigvalsh,
        and the plain-number inputs of the reference operation."""
        fields = [f.magnitude_tesla * np.asarray(f.direction()) for _, f in self.jobs]
        hs = np.array([_reference_hamiltonian(p.d_mhz, p.e_mhz, b) for (p, _), b in zip(self.jobs, fields)])
        self.expected = np.linalg.eigvalsh(hs)
        self.ref_inputs = [(p.d_mhz, p.e_mhz, tuple(float(x) for x in GAMMA_E_MHZ_PER_T * b),
                            np.array(p.zf_populations)) for (p, _), b in zip(self.jobs, fields)]

    def functions(self, tracer):
        fns = {name: getattr(td.tripletspin, name) for name in CHAIN}
        if tracer is not None:
            fns = {name: tracer.wrap(fn, f"tripletspin.{name}") for name, fn in fns.items()}
        return fns

    def measured_pass(self, rec) -> None:
        self.traced_pass(rec, None, reference=True)

    def traced_pass(self, rec, tracer, reference=False) -> None:
        f = self.functions(tracer)
        build, eigsys, project, polarization, frequencies = (f[n] for n in CHAIN)
        clock = time.perf_counter_ns
        for k, (params, field) in enumerate(self.jobs):
            try:
                t0 = clock()
                if tracer is None:
                    eig = eigsys(build(params, field))
                    pops = project(eig, params)
                    pe = polarization(eig, pops, field)
                    freqs = frequencies(eig)
                else:
                    with tracer.span("op.orientation"):
                        eig = eigsys(build(params, field))
                        pops = project(eig, params)
                        pe = polarization(eig, pops, field)
                        freqs = frequencies(eig)
                t1 = clock()
            except Exception as exc:  # an exception is a failed operation
                rec.op(None, [f"job {k}: {type(exc).__name__}: {exc}"])
                continue
            ref = None
            if reference:
                t2 = clock()
                spin_reference(*self.ref_inputs[k])
                ref = ("spin", (clock() - t2) / 1e6)
            rec.op((t1 - t0) / 1e6, self.check(k, eig, pops, pe, freqs), ref)

    def check(self, k, eig, pops, pe, freqs) -> list[str]:
        vals = np.asarray(eig.eigenvalues)
        scale = max(1.0, float(np.max(np.abs(vals))))
        problems = []
        if not abs(sum(pops.populations) - 1.0) <= 1e-10:
            problems.append(f"job {k}: populations sum to {sum(pops.populations)!r}")
        if not abs(pe) <= 1.0:
            problems.append(f"job {k}: |pe| = {abs(pe)!r} exceeds 1")
        if not abs(float(vals.sum())) <= TOL * scale:
            problems.append(f"job {k}: eigenvalues sum to {float(vals.sum())!r}")
        lo, mid, hi = freqs
        if not abs(hi - (lo + mid)) <= TOL * scale:
            problems.append(f"job {k}: largest gap {hi!r} is not {lo!r} + {mid!r}")
        if not np.max(np.abs(vals - self.expected[k])) <= TOL * scale:
            problems.append(f"job {k}: eigenvalues {vals} differ from eigvalsh {self.expected[k]}")
        return problems
