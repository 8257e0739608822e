"""Quadrature noise spectra of the field leaving the driven cavity.

Fluctuations around a steady state are treated to linear order in
drift-diffusion form: the state vector (dx_re, dx_im, {dp_re, dp_im, dd} per
bin) obeys dv/dt = A v + noise, where the white noise has diffusion matrix D
(Hilico, Fabre, Reynaud & Giacobino, PRA 46, 4397 (1992)).  The cavity is
fed vacuum through two ports, the input mirror at kappa_in and the loss port
at kappa - kappa_in.  Independent vacua add, so D's cavity block is the full
2 kappa I2 whatever the loss; only the detected output, which leaves through
the input mirror, tells the ports apart.  Each atom bin's 3x3 block of D
follows from the generalized Einstein relation for the two-level algebra at
the bin's operating point (population decay at gamma_par plus the pure
dephasing needed to make the total dipole decay gamma).

Normalization: every spectral density is expressed in shot-noise units.
A vacuum input carries unit spectral density after dividing the physical
diffusion by the vacuum quadrature density, so an empty cavity returns the
identity matrix and squeezing shows up as an eigenvalue of V below 1.  The
atom number enters the per-bin diffusion as 1/(w_j N) and cancels against
the collective coupling; it is kept explicit so the cancellation is
exercised, not assumed.

Frequencies: the analysis frequency omega_hz and all rates are ordinary
frequencies in Hz (half-linewidths), so omega_hz compares directly with
kappa_hz and the 2*pi factors drop out of every ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bistability import ModelParams, SteadyState

__all__ = [
    "FluctuationSystem",
    "QuadratureSpectrum",
    "build_fluctuation_system",
    "drift_eigenvalues",
    "output_spectrum",
    "quadrature_extrema",
    "efficiency_matrix",
]


# === fluctuation system assembly ===

@dataclass(frozen=True)
class FluctuationSystem:
    """Linearized dynamics around one steady state, in drift-diffusion form.

    a           -- real drift matrix A, (2+3M) x (2+3M)
    d           -- symmetric diffusion matrix D, same shape, shot-normalized:
                   the cavity block is 2 kappa I2, since the input and loss
                   ports both feed vacuum and their rates add to kappa; each
                   bin's 3x3 block is its atomic diffusion, and blocks of
                   different bins do not mix
    kappa_in_hz -- input-mirror coupling rate, the port the detected field
                   leaves by (= kappa when lossless)
    """

    a: np.ndarray
    d: np.ndarray
    kappa_in_hz: float


def _check_dephasing(p: ModelParams) -> None:
    """Reject gamma_par_ratio > 2, which would need negative pure dephasing."""
    if p.gamma_par_ratio > 2.0 + 1e-12:
        raise ValueError(
            f"gamma_par_ratio={p.gamma_par_ratio} exceeds 2: total dipole decay "
            "cannot be slower than half the population decay"
        )


def build_fluctuation_system(ss: SteadyState, p: ModelParams) -> FluctuationSystem:
    """Drift and diffusion for fluctuations around ``ss``.

    Valid on any branch; the resulting spectra are physically meaningful
    only where the drift is stable.  Rejects gamma_par_ratio > 2, which
    would require negative pure dephasing.
    """
    _check_dephasing(p)
    kappa = p.kappa_hz
    gamma = p.gamma_hz
    gpar = p.gamma_par_hz
    n = 2 + 3 * len(ss.bins)
    x1, x2 = ss.x.real, ss.x.imag

    a = np.zeros((n, n))
    a[0, 0] = -kappa
    a[0, 1] = kappa * p.theta
    a[1, 0] = -kappa * p.theta
    a[1, 1] = -kappa

    # input and loss ports both feed vacuum: together they diffuse at 2 kappa
    d = np.zeros((n, n))
    d[0, 0] = d[1, 1] = 2.0 * kappa

    # shot normalization: physical vacuum density per quadrature divided out;
    # the atomic diffusion below is divided by the same factor
    sigma_cav = 2.0 * kappa * p.c / (p.n_atoms * gpar) if p.c > 0 else 0.0

    for j, bn in enumerate(ss.bins):
        ip1 = 2 + 3 * j
        ip2 = ip1 + 1
        idd = ip1 + 2
        u, w = bn.u, bn.w
        p1, p2 = bn.p.real, bn.p.imag

        a[0, ip1] = -2.0 * kappa * p.c * w * u
        a[1, ip2] = -2.0 * kappa * p.c * w * u

        a[ip1, 0] = gamma * u * bn.d
        a[ip1, idd] = gamma * u * x1
        a[ip1, ip1] = -gamma
        a[ip1, ip2] = gamma * p.delta

        a[ip2, 1] = gamma * u * bn.d
        a[ip2, idd] = gamma * u * x2
        a[ip2, ip1] = -gamma * p.delta
        a[ip2, ip2] = -gamma

        a[idd, 0] = -gpar * u * p1
        a[idd, 1] = -gpar * u * p2
        a[idd, ip1] = -gpar * u * x1
        a[idd, ip2] = -gpar * u * x2
        a[idd, idd] = -gpar

        if p.c > 0:
            d[ip1:idd + 1, ip1:idd + 1] = np.array([
                [2.0 * gamma ** 2 / gpar, 0.0, -gpar * p1],
                [0.0, 2.0 * gamma ** 2 / gpar, -gpar * p2],
                [-gpar * p1, -gpar * p2, 2.0 * gpar * (1.0 - bn.d)],
            ]) / (w * p.n_atoms) / sigma_cav

    return FluctuationSystem(a=a, d=d, kappa_in_hz=kappa * (1.0 - p.loss_fraction))


def drift_eigenvalues(fs: FluctuationSystem) -> np.ndarray:
    """Eigenvalues of the drift matrix; all real parts < 0 means stable."""
    return np.linalg.eigvals(fs.a)


# === output spectra ===

@dataclass(frozen=True)
class QuadratureSpectrum:
    """Symmetric 2x2 spectral matrix of the output quadratures at one Ω."""

    omega_hz: float
    v: np.ndarray
    s_min: float
    s_max: float
    theta_min: float  # quadrature angle of s_min, in [0, pi)


def quadrature_extrema(v: np.ndarray) -> tuple[float, float, float]:
    """(s_min, s_max, theta_min) of a symmetric 2x2 spectral matrix.

    theta_min is the angle of the minimal-noise quadrature in [0, pi);
    an isotropic matrix reports 0 by convention.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {v.shape}")
    scale = max(abs(v[0, 0]), abs(v[1, 1]), 1e-300)
    if abs(v[0, 1] - v[1, 0]) > 1e-8 * scale:
        raise ValueError(f"spectral matrix must be symmetric, got {v!r}")
    va, vb, vc = v[0, 0], 0.5 * (v[0, 1] + v[1, 0]), v[1, 1]
    mean = 0.5 * (va + vc)
    radius = math.hypot(0.5 * (va - vc), vb)
    s_min = mean - radius
    s_max = mean + radius
    if radius <= 1e-14 * max(abs(mean), 1.0):
        theta = 0.0
    elif vb == 0.0:
        theta = 0.0 if va <= vc else 0.5 * math.pi
    else:
        theta = math.atan2(s_min - va, vb) % math.pi
    return s_min, s_max, theta


def output_spectrum(fs: FluctuationSystem, omega_hz: float) -> QuadratureSpectrum:
    """Shot-normalized output quadrature spectrum at analysis frequency Ω.

    The detected field is the transmitted cavity leakage minus the directly
    reflected input, sqrt(2 kappa_in) dx - dx_in.  With R the cavity rows of
    (-iΩ - A)^(-1) and R_c its cavity columns, its spectral matrix is
    V = I + 2 kappa_in Re(R D R^H - R_c - R_c^H); the R_c terms are the
    correlation of the reflected input with the vacuum it drives inside.
    """
    if not (np.isfinite(omega_hz) and omega_hz >= 0):
        raise ValueError(f"omega_hz must be finite and >= 0, got {omega_hz}")
    n = fs.a.shape[0]
    try:
        # rows 0-1 of the inverse, from one transposed solve
        r = np.linalg.solve((-1j * omega_hz * np.eye(n) - fs.a).T, np.eye(n, 2)).T
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"fluctuation response is singular at omega_hz={omega_hz}: "
            "the operating point sits on an instability boundary"
        ) from exc
    r_c = r[:, :2]
    v = np.eye(2) + 2.0 * fs.kappa_in_hz * np.real(r @ fs.d @ r.conj().T - r_c - r_c.conj().T)
    v = 0.5 * (v + v.T)
    s_min, s_max, theta = quadrature_extrema(v)
    return QuadratureSpectrum(omega_hz=float(omega_hz), v=v,
                              s_min=s_min, s_max=s_max, theta_min=theta)


def efficiency_matrix(v: np.ndarray, eta: float) -> np.ndarray:
    """Noise after a lossy detection path: V -> eta*V + (1 - eta)*I.

    The map keeps the eigenvectors of V, so each quadrature noise power S
    goes to eta*S + (1 - eta).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    v = np.asarray(v, dtype=float)
    return eta * v + (1.0 - eta) * np.eye(2)
