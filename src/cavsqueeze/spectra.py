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

Per-bin reduction: bins couple only through the cavity's 2-vector, so the
output needs the bins only through sums, never the dense (2+3M)^2 solve.
Write z = -iΩ and J = [[0, 1], [-1, 0]].  The dipole 2x2 of every bin's
block of (z - A) is the same P = (z + gamma) I - gamma delta J, with
P^-1 = ((z + gamma) I + gamma delta J) / ((z + gamma)^2 + gamma^2 delta^2).
A bin's couplings are multiples of x = (Re x, Im x) and its dipole is
u_j d_j q with q = x / (1 + i delta), so one scalar Schur pivot per bin,

    sigma_j = z + gamma_par
              + gamma gamma_par u_j^2 X (z + gamma) / ((z + gamma)^2 + gamma^2 delta^2),

eliminates it (X = |x|^2).  The cavity Schur complement S and the noise
term Q = 2 kappa I + sum_j Y_j D_j Y_j^H (Y_j = M_cj M_j^-1, bin j's
coupling to the cavity through its own block M_j of z - A) are then fixed
2x2 matrices built from a = P^-1 x, P^-T x and P^-1 q, weighted by bin sums
of 1/sigma_j and 1/|sigma_j|^2 whose bin factors do not depend on Ω.  Per
Ω this costs one sigma vector and two matrix-vector products.

Frequencies: the analysis frequency omega_hz and all rates are ordinary
frequencies in Hz (half-linewidths), so omega_hz compares directly with
kappa_hz and the 2*pi factors drop out of every ratio.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bistability import ModelParams, PlaneWave, SteadyState, _layout, _trace_blocks

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
    """Linearized dynamics around one steady state, reduced to bin sums.

    state       -- the steady state the fluctuations are taken around
    params      -- the model parameters of that state
    kappa_in_hz -- input-mirror coupling rate, the port the detected field
                   leaves by (= kappa when lossless)
    pivot_u2    -- (M,) gamma gamma_par X u_j^2, the bin factor of each
                   Schur pivot sigma_j (see the module docstring)
    w_sigma     -- (3, M) bin weights summed against 1/sigma_j: the
                   saturation term of S and the two cross terms of Q
    w_power     -- (3, M) bin weights summed against 1/|sigma_j|^2: the
                   coefficient of a a^H in Q
    sat         -- coefficient of P^-1 in S, 2 kappa C gamma sum w u^2 d
    dip         -- coefficient of P^-1 P^-H in Q, the bins' dipole noise

    A plane wave's one bin holds floats: pivot_u2 is a float, w_sigma and
    w_power tuples of three.

    ``a`` (real drift matrix A) and ``d`` (symmetric shot-normalized
    diffusion matrix D, cavity block 2 kappa I2, one 3x3 block per bin),
    both (2+3M) x (2+3M), are assembled on first access; ``output_spectrum``
    never reads them.
    """

    state: SteadyState
    params: ModelParams
    kappa_in_hz: float
    pivot_u2: np.ndarray | float
    w_sigma: np.ndarray | tuple[float, float, float]
    w_power: np.ndarray | tuple[float, float, float]
    sat: float
    dip: float

    @cached_property
    def a(self) -> np.ndarray:
        """Dense drift matrix A, read-only."""
        return _drift_matrix(self.state, self.params)

    @cached_property
    def d(self) -> np.ndarray:
        """Dense shot-normalized diffusion matrix D, read-only."""
        return _diffusion_matrix(self.state, self.params)


def _check_dephasing(p: ModelParams) -> None:
    """Reject gamma_par_ratio > 2, which would need negative pure dephasing."""
    if p.gamma_par_ratio > 2.0 + 1e-12:
        raise ValueError(
            f"gamma_par_ratio={p.gamma_par_ratio} exceeds 2: total dipole decay "
            "cannot be slower than half the population decay"
        )


def _sigma_cav(p: ModelParams, c):
    """Physical vacuum density per quadrature at cooperativity ``c`` (a
    scalar or an array), divided out of the diffusion."""
    return 2.0 * p.kappa_hz * c / (p.n_atoms * p.gamma_par_hz)


def _bin_factors(x_int, p: ModelParams):
    """(u^2, w u^2, d) of every bin at X, with the inversion d_j = A/(A +
    u_j^2 X), A = 1 + delta^2: read-only (M,) arrays, and d (M,) at a
    scalar X, (n, M) at n values of X.  One plane-wave state (a float X)
    gives its one bin (u = w = 1) as three floats, so that its spectra pay
    no numpy call."""
    a_sat = 1.0 + p.delta * p.delta
    if isinstance(p.transverse, PlaneWave) and isinstance(x_int, float):
        return 1.0, 1.0, a_sat / (a_sat + x_int)
    _, _, u2, wu2 = _layout(p.transverse)
    return u2, wu2, a_sat / (a_sat + np.multiply.outer(x_int, u2))


def _bin_columns(ss: SteadyState, p: ModelParams) -> tuple[np.ndarray, ...]:
    """(u, w, d, p_re, p_im) of every bin of ``ss``, one array each: the
    inversion d_j (``_bin_factors``) and the dipole p_j = u_j d_j x/(1 + i delta)."""
    u, w, _, _ = _layout(p.transverse)
    dsat = _bin_factors(np.asarray(ss.intensity, dtype=float), p)[2]
    pol = u * ss.x * dsat / complex(1.0, p.delta)
    return u, w, dsat, pol.real, pol.imag


def _bin_indices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State-vector indices of every bin's dp_re, dp_im and dd."""
    ip1 = np.arange(2, 2 + 3 * m, 3)
    return ip1, ip1 + 1, ip1 + 2


def _drift_matrix(ss: SteadyState, p: ModelParams) -> np.ndarray:
    kappa, gamma, gpar = p.kappa_hz, p.gamma_hz, p.gamma_par_hz
    x1, x2 = ss.x.real, ss.x.imag
    u, w, dsat, p1, p2 = _bin_columns(ss, p)
    ip1, ip2, idd = _bin_indices(len(u))
    n = 2 + 3 * len(u)

    a = np.zeros((n, n))
    a[0, 0] = a[1, 1] = -kappa
    a[0, 1] = kappa * p.theta
    a[1, 0] = -kappa * p.theta
    a[0, ip1] = a[1, ip2] = -2.0 * kappa * p.c * w * u

    a[ip1, 0] = a[ip2, 1] = gamma * u * dsat
    a[ip1, idd] = gamma * u * x1
    a[ip2, idd] = gamma * u * x2
    a[ip1, ip1] = a[ip2, ip2] = -gamma
    a[ip1, ip2] = gamma * p.delta
    a[ip2, ip1] = -gamma * p.delta

    a[idd, 0] = -gpar * u * p1
    a[idd, 1] = -gpar * u * p2
    a[idd, ip1] = -gpar * u * x1
    a[idd, ip2] = -gpar * u * x2
    a[idd, idd] = -gpar
    a.flags.writeable = False
    return a


def _diffusion_matrix(ss: SteadyState, p: ModelParams) -> np.ndarray:
    kappa, gamma, gpar = p.kappa_hz, p.gamma_hz, p.gamma_par_hz
    u, w, dsat, p1, p2 = _bin_columns(ss, p)
    ip1, ip2, idd = _bin_indices(len(u))
    n = 2 + 3 * len(u)

    # input and loss ports both feed vacuum: together they diffuse at 2 kappa
    d = np.zeros((n, n))
    d[0, 0] = d[1, 1] = 2.0 * kappa
    if p.c > 0:
        # each bin's block scales as 1/(w_j N), shot-normalized by sigma_cav
        scale = w * p.n_atoms
        sigma_cav = _sigma_cav(p, p.c)
        d[ip1, ip1] = d[ip2, ip2] = 2.0 * gamma ** 2 / gpar / scale / sigma_cav
        d[ip1, idd] = d[idd, ip1] = -gpar * p1 / scale / sigma_cav
        d[ip2, idd] = d[idd, ip2] = -gpar * p2 / scale / sigma_cav
        d[idd, idd] = 2.0 * gpar * (1.0 - dsat) / scale / sigma_cav
    d.flags.writeable = False
    return d


def build_fluctuation_system(ss: SteadyState, p: ModelParams) -> FluctuationSystem:
    """Bin sums of the fluctuation dynamics around ``ss``.

    ``ss`` must be a mean-field steady state of ``p`` (as returned by
    ``solve_steady_states``): each bin's inversion follows from its X
    (``_bin_factors``).  Valid on any branch; the resulting spectra are
    physically meaningful only where the drift is stable.  Rejects
    gamma_par_ratio > 2, which would require negative pure dephasing.
    """
    _check_dephasing(p)
    return FluctuationSystem(ss, p, _kappa_in(p), *_system_sums(ss.x, ss.intensity, p.c, p))


def _kappa_in(p: ModelParams) -> float:
    """Input-mirror coupling rate, the port the detected field leaves by."""
    return p.kappa_hz * (1.0 - p.loss_fraction)


def _system_sums(x, x_int, c, p: ModelParams):
    """(pivot_u2, w_sigma, w_power, sat, dip) of ``FluctuationSystem``.

    One state (complex x, float X and C) gives them as there; one
    plane-wave state gives its one bin in floats (``_bin_factors``), with
    w_sigma and w_power tuples of three; n states ((n,) arrays x, X and C,
    the rest of ``p`` shared) stack the bin axis last: pivot_u2 (n, M),
    w_sigma and w_power (3, n, M), sat and dip (n,).
    """
    kappa, gamma, gpar = p.kappa_hz, p.gamma_hz, p.gamma_par_hz
    u2, wu2, dsat = _bin_factors(x_int, p)
    # bin j couples to the cavity at g_cav w_j u_j; g_j^2 times the scale
    # 1/(w_j N sigma_cav) of its diffusion block is alpha w_j u_j^2 (N cancels)
    g_cav = 2.0 * kappa * c
    one = not isinstance(c, np.ndarray)
    if one:
        alpha = g_cav * g_cav / (p.n_atoms * _sigma_cav(p, c)) if c > 0 else 0.0
        pivot = gamma * gpar * (x.real * x.real + x.imag * x.imag)
    else:
        # a pivot past the float range overflows unwarned: _output_noise raises
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha = np.where(c > 0, g_cav * g_cav / (p.n_atoms * _sigma_cav(p, c)), 0.0)
            pivot = gamma * gpar * (x.real * x.real + x.imag * x.imag)
    one_bin = isinstance(dsat, float)
    w4 = wu2 * u2
    if not one_bin and dsat.ndim > 1:
        w4 = np.broadcast_to(w4, dsat.shape)  # the rows below stack as one array
    w4d = w4 * dsat
    # rows 0-2 are summed against 1/sigma_j, rows 3-5 against 1/|sigma_j|^2
    rows = (w4d, w4, w4d, w4 * u2, w4d * u2, w4 - w4d)
    factors = (
        g_cav * gamma * gpar,
        2.0 * gamma ** 3 * alpha,
        gamma * gpar * alpha,
        2.0 * gamma ** 4 * gpar * alpha,
        2.0 * (gamma * gpar) ** 2 * alpha,
        2.0 * gamma ** 2 * gpar * alpha,
    )
    dip = 2.0 * gamma ** 2 / gpar * alpha
    if one_bin:
        weights = [row * f for row, f in zip(rows, factors)]
        return (pivot * u2, tuple(weights[:3]), tuple(weights[3:]),
                g_cav * gamma * (dsat * wu2), dip * wu2)
    weights = np.array(rows) * np.array(factors)[..., None]
    sat = g_cav * gamma * (dsat @ wu2)
    dip = dip * float(wu2.sum())
    if one:
        sat, dip = float(sat), float(dip)
    return (np.multiply.outer(pivot, u2), weights[:3].astype(complex), weights[3:],
            sat, dip)


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
    (va, vb), (vc, vd) = v.tolist()
    scale = max(abs(va), abs(vd), 1e-300)
    if abs(vb - vc) > 1e-8 * scale:
        raise ValueError(f"spectral matrix must be symmetric, got {v!r}")
    return _extrema(va, 0.5 * (vb + vc), vd)


def _envelope(va, vb, vc):
    """(mean, radius) of the eigenvalues of the symmetric matrix
    [[va, vb], [vb, vc]]: floats, or arrays for a stack of matrices."""
    hypot = math.hypot if isinstance(va, float) else np.hypot
    return 0.5 * (va + vc), hypot(0.5 * (va - vc), vb)


def _extrema(va: float, vb: float, vc: float) -> tuple[float, float, float]:
    """quadrature_extrema of the symmetric matrix [[va, vb], [vb, vc]]."""
    mean, radius = _envelope(va, vb, vc)
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
    reflected input, sqrt(2 kappa_in) dx - dx_in.  With S the cavity Schur
    complement of (-iΩ - A) and Q its noise term (module docstring),
    V = I + 2 kappa_in Re(S^-1 Q S^-H - S^-1 - S^-H); the S^-1 terms are the
    correlation of the reflected input with the vacuum it drives inside.
    """
    if not (math.isfinite(omega_hz) and omega_hz >= 0):
        raise ValueError(f"omega_hz must be finite and >= 0, got {omega_hz}")
    v11, v12, v22 = _output_noise(
        fs.state.x, fs.params.theta, fs.pivot_u2, fs.w_sigma, fs.w_power, fs.sat,
        fs.dip, fs.kappa_in_hz, fs.params, float(omega_hz))
    s_min, s_max, theta = _extrema(v11, v12, v22)
    v = np.array([[v11, v12], [v12, v22]])
    return QuadratureSpectrum(omega_hz=float(omega_hz), v=v,
                              s_min=s_min, s_max=s_max, theta_min=theta)


# the smallest normal float: a 1/|sigma_j|^2 below it has lost its precision
_TINY = sys.float_info.min


def _output_noise(x, theta, pivot_u2, w_sigma, w_power, sat, dip, kappa_in: float,
                  p: ModelParams, omega_hz: float):
    """(v11, v12, v22) of ``output_spectrum``'s V at Ω = ``omega_hz``.

    One state gives Python floats from Python complex arithmetic; n states
    (``_system_sums``'s stacked terms, x and theta (n,) arrays, the rest of
    ``p`` shared) give (n,) arrays from the same expressions.  Only the bin
    sums and the two checks tell the two apart: a plane-wave state's one bin
    is summed in Python complex arithmetic too.  Raises RuntimeError where
    the response is singular, and where a bin with a non-zero ``w_power``
    weight has 1/|sigma_j|^2 below the smallest normal float (from X of
    about 1e150 at delta = -20), or a pivot past the float range (from
    1.3e295): the atoms' a a^H term of Q would lose its precision, then
    drop out, and V fall below the vacuum.
    """
    kappa, gamma = p.kappa_hz, p.gamma_hz
    one = not isinstance(x, np.ndarray)
    q = x / complex(1.0, p.delta)  # each bin's dipole is u_j d_j q
    x1, x2, q1, q2 = x.real, x.imag, q.real, q.imag
    z = -1j * omega_hz
    zg = z + gamma
    gd = gamma * p.delta
    det_p = zg * zg + gd * gd
    pa, pb = zg / det_p, gd / det_p  # P^-1 = [[pa, pb], [-pb, pa]]

    if isinstance(pivot_u2, float):  # one plane-wave state's one bin
        inv = 1.0 / ((z + p.gamma_par_hz) + pa * pivot_u2)  # 1 / sigma_j
        (ws0, ws1, ws2), (wp0, wp1, wp2) = w_sigma, w_power
        mag = abs(inv)
        power = mag * mag
        underflow = not power >= _TINY and (any(w_power) or not math.isfinite(pivot_u2))
        s0, s1, s2 = ws0 * inv, ws1 * inv, ws2 * inv
        r0, r1, r2 = wp0 * power, wp1 * power, wp2 * power
    else:
        with np.errstate(invalid="ignore"):  # a pivot past the float range: below
            inv = 1.0 / ((z + p.gamma_par_hz) + pa * pivot_u2)
        power = np.abs(inv) ** 2
        underflow = not power.min() >= _TINY and bool(np.any(
            ~(power >= _TINY) & (np.any(w_power != 0.0, axis=0) | ~np.isfinite(pivot_u2))))
        if one:
            s0, s1, s2 = (w_sigma @ inv).tolist()
            r0, r1, r2 = (w_power @ power).tolist()
        else:
            s0, s1, s2 = (w_sigma * inv).sum(axis=-1)
            r0, r1, r2 = (w_power * power).sum(axis=-1)
    if underflow:
        raise RuntimeError(
            f"the atomic noise underflows at omega_hz={omega_hz}: 1/|sigma_j|^2 is "
            "below the smallest normal float, the intracavity intensity too large"
        )

    # a = P^-1 x, h = P^-T x, f = P^-1 q, e = P^-1 conj(h)
    a1, a2 = pa * x1 + pb * x2, pa * x2 - pb * x1
    h1, h2 = pa * x1 - pb * x2, pa * x2 + pb * x1
    f1, f2 = pa * q1 + pb * q2, pa * q2 - pb * q1
    hc1, hc2 = h1.conjugate(), h2.conjugate()
    e1, e2 = pa * hc1 + pb * hc2, pa * hc2 - pb * hc1

    # S = -iΩ - A_cc + sat P^-1 - s0 a (gamma h + q)^T
    b1, b2 = gamma * h1 + q1, gamma * h2 + q2
    diag = z + kappa + sat * pa
    off = kappa * theta - sat * pb
    s11, s12 = diag - s0 * a1 * b1, -off - s0 * a1 * b2
    s21, s22 = off - s0 * a2 * b1, diag - s0 * a2 * b2
    det = s11 * s22 - s12 * s21
    if one:
        singular = det == 0 or not cmath.isfinite(det)
    else:
        singular = not np.all(np.isfinite(det) & (det != 0))
    if singular:
        raise RuntimeError(
            f"fluctuation response is singular at omega_hz={omega_hz}: "
            "the operating point sits on an instability boundary"
        )
    t11, t12, t21, t22 = s22 / det, -s12 / det, -s21 / det, s11 / det

    # Q = 2 kappa I + dip P^-1 P^-H + c_aa a a^H - a g^H - g a^H
    g1 = s1.conjugate() * e1 + s2.conjugate() * f1
    g2 = s1.conjugate() * e2 + s2.conjugate() * f2
    c_aa = (r0 * (abs(h1) ** 2 + abs(h2) ** 2)
            + r1 * (h1.real * q1 + h2.real * q2) + r2)
    pp = dip * (abs(pa) ** 2 + abs(pb) ** 2) + 2.0 * kappa
    ac2 = a2.conjugate()
    q11 = pp + c_aa * abs(a1) ** 2 - 2.0 * (a1 * g1.conjugate()).real
    q22 = pp + c_aa * abs(a2) ** 2 - 2.0 * (a2 * g2.conjugate()).real
    q12 = (dip * (pb * pa.conjugate() - pa * pb.conjugate())
           + c_aa * a1 * ac2 - a1 * g2.conjugate() - g1 * ac2)
    q21 = q12.conjugate()

    # G = S^-1 Q S^-H
    m11, m12 = t11 * q11 + t12 * q21, t11 * q12 + t12 * q22
    m21, m22 = t21 * q11 + t22 * q21, t21 * q12 + t22 * q22
    g11 = m11 * t11.conjugate() + m12 * t12.conjugate()
    g12 = m11 * t21.conjugate() + m12 * t22.conjugate()
    g22 = m21 * t21.conjugate() + m22 * t22.conjugate()

    k2 = 2.0 * kappa_in
    v11 = 1.0 + k2 * (g11.real - 2.0 * t11.real)
    v12 = k2 * (g12.real - t12.real - t21.real)
    v22 = 1.0 + k2 * (g22.real - 2.0 * t22.real)
    return v11, v12, v22


def _trace_noise(x, x_int, c, theta, p: ModelParams, omega_hz: float) -> np.ndarray:
    """(3, n): v11, v12 and v22 of ``output_spectrum``'s V for n states of a
    trace, (n,) arrays x, X, C and theta with the rest of ``p`` shared.

    Runs ``_output_noise`` on blocks of states (``_trace_blocks``), so that
    memory stays flat in the trace length whatever the bin count.
    """
    out = np.empty((3, x.size))
    for b in _trace_blocks(x.size, p.transverse):
        out[:, b] = _output_noise(x[b], theta[b], *_system_sums(x[b], x_int[b], c[b], p),
                                  _kappa_in(p), p, omega_hz)
    return out


_EYE2 = np.eye(2)
_EYE2.flags.writeable = False


def efficiency_matrix(v: np.ndarray, eta: float) -> np.ndarray:
    """Noise after a lossy detection path: V -> eta*V + (1 - eta)*I.

    The map keeps the eigenvectors of V, so each quadrature noise power S
    goes to eta*S + (1 - eta).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    v = np.asarray(v, dtype=float)
    return eta * v + (1.0 - eta) * _EYE2
