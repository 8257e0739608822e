"""Cooperativity decay of a released cold-atom cloud.

After the trap is switched off the cloud expands ballistically and falls.
The on-axis overlap of the atomic density with a thin horizontal probe beam
then decays as a Lorentzian in time (thermal expansion) multiplied by a
Gaussian-like factor (gravitational drop out of the beam):

    C(t) = C(0) * tau_r^2/(tau_r^2 + t^2) * exp(-t^4 / (tau_g^2 (tau_r^2 + t^2)))

with tau_r = sigma_r/sigma_v the expansion time and tau_g = 2*sqrt(2)*sigma_v/g
the fall time.  ``mc_cooperativity`` validates this closed form against a
direct Monte Carlo average of the beam-overlap kernel over sampled atom
trajectories, and ``fit_cooperativity`` recovers cloud parameters from
measured C(t) data by damped Gauss-Newton least squares in log-parameter
space.

Times are seconds, lengths metres, temperatures kelvin throughout.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

K_BOLTZMANN = 1.380649e-23
CS_MASS_KG = 2.20695e-25
STANDARD_GRAVITY = 9.80665

_MC_CHUNK = 65536


@dataclass(frozen=True)
class CloudParams:
    """Released-cloud parameters; derived timescales are recomputed on access."""

    sigma_r_m: float
    temp_k: float
    c0: float
    mass_kg: float = CS_MASS_KG
    g_grav: float = STANDARD_GRAVITY

    def __post_init__(self) -> None:
        for name in ("sigma_r_m", "temp_k", "c0", "mass_kg", "g_grav"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def sigma_v_m_s(self) -> float:
        """Thermal velocity spread (1D std) of the cloud."""
        return math.sqrt(K_BOLTZMANN * self.temp_k / self.mass_kg)

    @property
    def tau_r_s(self) -> float:
        """Expansion time: the cloud radius divided by the velocity spread."""
        return self.sigma_r_m / self.sigma_v_m_s

    @property
    def tau_g_s(self) -> float:
        """Fall time: time for gravity to dominate over thermal motion."""
        return 2.0 * math.sqrt(2.0) * self.sigma_v_m_s / self.g_grav


@dataclass(frozen=True)
class CooperativitySample:
    """One measured cooperativity point, optionally with its uncertainty."""

    t_s: float
    c: float
    sigma_c: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_s) and self.t_s >= 0.0):
            raise ValueError(f"t_s must be finite and >= 0, got {self.t_s}")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        if self.sigma_c is not None and not (
            math.isfinite(self.sigma_c) and self.sigma_c > 0.0
        ):
            raise ValueError(f"sigma_c must be positive when given, got {self.sigma_c}")


def cooperativity_decay(t_s, cp: CloudParams):
    """Closed-form cooperativity decay after release.

    Accepts a scalar or array of times (s); returns the same shape.
    """
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0) or not np.all(np.isfinite(t)):
        raise ValueError("times must be finite and >= 0")
    out, _, _ = _decay_terms(t, cp.c0, cp.tau_r_s, cp.tau_g_s)
    if np.isscalar(t_s) or np.ndim(t_s) == 0:
        return float(out)
    return out


def _decay_terms(t: np.ndarray, c0: float, tau_r: float, tau_g: float):
    """The decay law C(t) with its denominator tau_r^2 + t^2 and exponent.

    Returns (C, tau_r^2 + t^2, t^4 / (tau_g^2 (tau_r^2 + t^2))); the fit's
    Jacobian is built from the last two.
    """
    tau_r2 = tau_r**2
    denom = tau_r2 + t * t
    expo = t**4 / (tau_g**2 * denom)
    return c0 * (tau_r2 / denom) * np.exp(-expo), denom, expo


def mc_cooperativity(
    cp: CloudParams,
    waist_m: float,
    times_s: Sequence[float],
    n_samples: int = 1_000_000,
    seed: int = 12345,
) -> list[tuple[float, float]]:
    """Monte Carlo estimate of the beam-overlap cooperativity decay.

    Draws a thermal velocity for each atom and follows its ballistic flight
    (transverse drift plus the gravitational drop) relative to a horizontal
    beam axis through the initial cloud centre.  The transverse beam kernel
    exp(-2 rho^2 / w^2) is averaged over each atom's initial-position
    distribution in closed form (a Gaussian convolution), so only the
    velocity average is sampled; this keeps the estimator unbiased while
    removing the position-sampling variance, which would otherwise swamp the
    small late-time signal (the naive per-atom kernel average needs ~100x
    more samples for the same accuracy once the cloud has expanded past the
    beam).  The result is scaled by the exact t=0 expectation, so C_hat(0)
    equals c0 and later points fluctuate by ~(t/tau_r)/sqrt(n_samples).

    Returns a list of (t, C_hat) pairs in the order of ``times_s``.
    Deterministic for a fixed seed.
    """
    if waist_m <= 0.0 or not math.isfinite(waist_m):
        raise ValueError(f"waist_m must be positive, got {waist_m}")
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be at least 1e4, got {n_samples}")
    if waist_m > cp.sigma_r_m / 5.0:
        warnings.warn(
            "waist is not small compared to the cloud radius; the thin-beam "
            "closed form will not be reached",
            stacklevel=2,
        )
    t = np.asarray(times_s, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times_s must be a non-empty 1D sequence")
    if np.any(t < 0.0) or not np.all(np.isfinite(t)):
        raise ValueError("times must be finite and >= 0")

    sigma_v = cp.sigma_v_m_s
    # kernel convolved with the initial Gaussian cloud: width picks up 4 sigma_r^2
    w_eff2 = waist_m**2 + 4.0 * cp.sigma_r_m**2
    drop = 0.5 * cp.g_grav * t * t
    kernel_sum = np.zeros(t.size)
    rng = np.random.Generator(np.random.Philox(seed))
    remaining = int(n_samples)
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        draws = rng.standard_normal((2, m))
        vy, vz = sigma_v * draws[0], sigma_v * draws[1]
        # ballistic displacement of each atom's position distribution
        my = np.outer(t, vy)
        mz = np.outer(t, vz) - drop[:, None]
        kernel_sum += np.exp(-2.0 * (my * my + mz * mz) / w_eff2).sum(axis=1)
    c_hat = cp.c0 * kernel_sum / n_samples
    return [(float(ti), float(ci)) for ti, ci in zip(t, c_hat)]


@dataclass(frozen=True)
class FitResult:
    """Cooperativity-decay fit output with Jacobian-based uncertainties."""

    c0: float
    sigma_r_m: float
    temp_k: float
    tau_r_s: float
    tau_g_s: float
    c0_err: float
    sigma_r_err: float
    temp_k_err: float
    rms_residual: float
    n_iter: int
    converged: bool
    message: str


_EPS = float(np.finfo(float).eps)


def _fit_model_and_jacobian(t: np.ndarray, log_params: np.ndarray):
    c0, tau_r, tau_g = np.exp(log_params)
    m, denom, expo = _decay_terms(t, c0, tau_r, tau_g)
    jac = np.empty((t.size, 3))
    jac[:, 0] = m
    jac[:, 1] = m * (2.0 * t * t / denom + 2.0 * tau_r**2 * t**4 / (tau_g**2 * denom**2))
    jac[:, 2] = m * 2.0 * expo
    return m, jac


def fit_cooperativity(
    samples: Sequence[CooperativitySample],
    mass_kg: float = CS_MASS_KG,
    g_grav: float = STANDARD_GRAVITY,
) -> FitResult:
    """Weighted least-squares fit of the decay law to measured C(t) points.

    Works in log-space of (C0, tau_r, tau_g) so all parameters stay positive:
    a coarse grid seeds a damped Gauss-Newton refinement with the analytic
    Jacobian.  The fitted timescales are converted back to cloud radius and
    temperature for reporting, with uncertainties propagated from the
    residual covariance.  Degenerate data produce a non-converged result
    with a diagnostic message rather than an exception.  When the steps
    drive tau_g so high that the fall term is below round-off at every
    sample, the samples do not resolve the fall time: C0 and tau_r are
    fitted in the tau_g -> inf limit and returned, unconverged, with
    tau_g = inf and NaN in the derived fields.
    """
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples, got {len(samples)}")
    t = np.array([s.t_s for s in samples])
    c = np.array([s.c for s in samples])
    wts = np.array([1.0 / s.sigma_c if s.sigma_c is not None else 1.0 for s in samples])

    def failure(msg: str) -> FitResult:
        nan = float("nan")
        return FitResult(nan, nan, nan, nan, nan, nan, nan, nan, nan, 0, False, msg)

    span = t.max() - t.min()
    if span <= 0.0:
        return failure("degenerate data: all samples at the same time")
    if c.max() <= 0.0:
        return failure("degenerate data: no positive cooperativity values")
    order = np.argsort(t)
    c_sorted = c[order]
    if c_sorted[-1] >= c_sorted[0] or np.ptp(c) < 1e-12 * c.max():
        return failure("degenerate data: samples do not decay over the time span")

    def cost(lp: np.ndarray) -> float:
        m, _ = _fit_model_and_jacobian(t, lp)
        r = (m - c) * wts
        return float(r @ r)

    # coarse log-grid seed
    c0_init = float(c_sorted[0])
    best_lp, best_cost = None, np.inf
    for tau_r in np.geomspace(span / 30.0, 3.0 * span, 25):
        for tau_g_fac in np.geomspace(1.0, 300.0, 12):
            lp = np.log([c0_init, tau_r, tau_g_fac * tau_r])
            cc = cost(lp)
            if cc < best_cost:
                best_lp, best_cost = lp, cc
    lp = best_lp

    converged = False
    n_iter = 0
    n_free = 3
    for n_iter in range(1, 201):
        m, jac = _fit_model_and_jacobian(t, lp)
        if n_free == 3 and np.all(jac[:, 2] < _EPS * m):
            # the fall term is below round-off at every sample, so the data
            # no longer see tau_g: fit (C0, tau_r) in the tau_g -> inf limit
            n_free, lp[2] = 2, math.inf
        r = (m - c) * wts
        jw = jac[:, :n_free] * wts[:, None]
        step = np.zeros(3)
        try:
            step[:n_free] = np.linalg.solve(jw.T @ jw, jw.T @ r)
        except np.linalg.LinAlgError:
            return failure("singular normal equations; data do not constrain the model")
        # damped line search on the Gauss-Newton step
        base = float(r @ r)
        scale = 1.0
        for _ in range(25):
            trial = lp - scale * step
            if cost(trial) < base:
                break
            scale *= 0.5
        else:
            converged = True
            break
        lp = lp - scale * step
        if np.max(np.abs(scale * step)) < 1e-13:
            converged = True
            break

    c0, tau_r, tau_g = np.exp(lp)
    if n_free == 2:
        nan = math.nan
        return FitResult(float(c0), nan, nan, float(tau_r), math.inf, nan, nan, nan,
                         nan, n_iter, False,
                         "fall time tau_g unresolved: the fall term is below "
                         "round-off at every sample; C0 and tau_r fitted at tau_g -> inf")
    m, jac = _fit_model_and_jacobian(t, lp)
    r = (m - c) * wts
    rss = float(r @ r)
    dof = max(t.size - 3, 1)
    jw = jac * wts[:, None]
    try:
        cov = (rss / dof) * np.linalg.inv(jw.T @ jw)
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)

    sigma_v = g_grav * tau_g / (2.0 * math.sqrt(2.0))
    sigma_r = sigma_v * tau_r
    temp_k = mass_kg * sigma_v**2 / K_BOLTZMANN
    # log-space covariance maps directly to relative errors
    var_log_sigma_r = cov[1, 1] + cov[2, 2] + 2.0 * cov[1, 2]
    c0_err = c0 * math.sqrt(max(cov[0, 0], 0.0))
    sigma_r_err = sigma_r * math.sqrt(max(var_log_sigma_r, 0.0))
    temp_k_err = temp_k * 2.0 * math.sqrt(max(cov[2, 2], 0.0))
    return FitResult(
        c0=float(c0),
        sigma_r_m=float(sigma_r),
        temp_k=float(temp_k),
        tau_r_s=float(tau_r),
        tau_g_s=float(tau_g),
        c0_err=float(c0_err),
        sigma_r_err=float(sigma_r_err),
        temp_k_err=float(temp_k_err),
        rms_residual=math.sqrt(rss / t.size),
        n_iter=n_iter,
        converged=converged,
        message="converged" if converged else "iteration limit reached",
    )


def read_samples(path: str) -> list[CooperativitySample]:
    """Read C(t) samples from a CSV file with header ``t_s,c[,sigma_c]``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:2] != ["t_s", "c"] or header[2:] not in ([], ["sigma_c"]):
            raise ValueError(
                f"{path}: expected header 't_s,c' or 't_s,c,sigma_c', got {','.join(header)}"
            )
        has_sigma = len(header) == 3
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                t_s, c = float(row[0]), float(row[1])
                sigma_c = float(row[2]) if has_sigma else None
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value in {row!r}") from None
            out.append(CooperativitySample(t_s=t_s, c=c, sigma_c=sigma_c))
    if not out:
        raise ValueError(f"{path}: no data rows")
    return out
