"""Synthetic measurement scans through the squeezing experiment.

Two time-domain scans reproduce the measurement geometry, and the function
called names the scan: ``free_release_scan`` lets the cooperativity decay
after trap release so the dispersive shift sweeps the cavity through
resonance, and ``piezo_scan`` sweeps the bare cavity detuning at fixed atom
number.  Each turns its schedule into arrays of C and theta, one entry per
time step; the shared tracker then follows the steady state quasi-statically
(branch continuity, hysteretic jumps when a branch ends), evaluates the noise
envelope at the analysis frequency, and pushes a local-oscillator phase sample
through the synthetic detection chain: detection efficiency, then
``analyzer_chain`` (multiplicative analyzer noise and a single-pole video
filter) and ``calibrate_and_correct`` (electronic-noise subtraction and
shot-noise calibration).  The signal, shot and electronic series draw from
one Philox stream at ``seed``, in that order.

Scan timescales (ms) sit far above the cavity and atomic relaxation times
(sub-us), so the quasi-static approximation is exact for all practical
purposes; no dynamical integration is performed.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bistability import (
    ModelParams,
    PlaneWave,
    SteadyState,
    solve_steady_states,
    state_equation,
    turning_points,
)
from .cloud import CloudParams, cooperativity_decay
from .spectra import (
    build_fluctuation_system,
    efficiency_matrix,
    output_spectrum,
    quadrature_extrema,
)


@dataclass(frozen=True)
class ScanConfig:
    """Measurement-scan settings; defaults target the released-cloud trace."""

    duration_s: float = 0.025
    dt_s: float = 2e-6
    drive_y: float = 800.0
    theta0: float = -7.5
    theta_rate: float = 0.0
    lo_freq_hz: float = 2000.0
    lo_phase0_rad: float = 0.0
    omega_hz: float = 5e6
    rel_noise: float = 0.10
    vbw_hz: float = 1e5
    elec_floor: float = 0.10
    eta: float = 0.9
    seed: int = 12345
    noise_transverse: str = "model"

    def __post_init__(self) -> None:
        for name in ("theta0", "theta_rate", "lo_phase0_rad", "elec_floor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("duration_s", "dt_s", "lo_freq_hz", "vbw_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value}")
        if not (math.isfinite(self.drive_y) and self.drive_y >= 0.0):
            raise ValueError(f"drive_y must be >= 0, got {self.drive_y}")
        if not (0.0 <= self.rel_noise < 1.0):
            raise ValueError(f"rel_noise must lie in [0, 1), got {self.rel_noise}")
        if not (0.0 <= self.elec_floor):
            raise ValueError(f"elec_floor must be >= 0, got {self.elec_floor}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not (math.isfinite(self.omega_hz) and self.omega_hz >= 0.0):
            raise ValueError(f"omega_hz must be >= 0, got {self.omega_hz}")
        if self.vbw_hz >= 0.5 / self.dt_s:
            raise ValueError(
                f"vbw_hz={self.vbw_hz} aliases at dt_s={self.dt_s}; "
                "need vbw_hz < 1/(2*dt_s)"
            )
        if self.noise_transverse not in ("model", "plane"):
            raise ValueError(
                f"noise_transverse must be 'model' or 'plane', got {self.noise_transverse!r}"
            )
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class TraceSample:
    """One time step of a scan: state, envelope, and measured noise."""

    t_s: float
    c: float
    theta_eff: float
    x: float
    branch: str
    s_meas: float
    s_min: float
    s_max: float
    shot_ref: float


@dataclass(frozen=True)
class Trace:
    """Full scan output plus any non-fatal warnings raised during the run."""

    samples: tuple[TraceSample, ...]
    warnings: tuple[str, ...] = ()


def lo_phase(t_s, sc: ScanConfig):
    """Local-oscillator phase at time t: a linear ramp from the start phase."""
    t = np.asarray(t_s, dtype=float)
    out = sc.lo_phase0_rad + 2.0 * math.pi * sc.lo_freq_hz * t
    if np.ndim(t_s) == 0:
        return float(out)
    return out


def _video_filter(x: np.ndarray, vbw_hz: float, dt_s: float) -> np.ndarray:
    """Single-pole low-pass with unit DC gain, initialized at the first sample."""
    a = math.exp(-2.0 * math.pi * vbw_hz * dt_s)
    y = np.empty_like(x)
    acc = x[0]
    y[0] = acc
    b = 1.0 - a
    for i in range(1, x.size):
        acc = a * acc + b * x[i]
        y[i] = acc
    return y


def analyzer_chain(
    s_true: Sequence[float], sc: ScanConfig, seed: int | np.random.Generator
) -> np.ndarray:
    """Apply analyzer statistics and video filtering to a noise series.

    Each sample is scaled by (1 + rel_noise * xi) with xi standard normal,
    then the series passes the single-pole video filter at ``vbw_hz``.  An
    int ``seed`` starts a fresh Philox stream; a ``Generator`` is drawn from
    in place, so successive calls continue one stream.
    """
    x = np.asarray(s_true, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("s_true must be a non-empty 1D series")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.Generator(np.random.Philox(seed))
    noisy = x * (1.0 + sc.rel_noise * rng.standard_normal(x.size))
    return _video_filter(noisy, sc.vbw_hz, sc.dt_s)


def calibrate_and_correct(raw, shot_raw, elec) -> np.ndarray:
    """Normalize a measured power series to the calibrated shot-noise level.

    Subtracts the electronic-noise series pointwise and divides by the
    averaged, electronic-corrected shot level, so a blocked-cavity input
    normalizes to 1 on average.
    """
    raw = np.asarray(raw, dtype=float)
    shot_raw = np.asarray(shot_raw, dtype=float)
    elec = np.asarray(elec, dtype=float)
    denom = float(np.mean(shot_raw) - np.mean(elec))
    if denom <= 0.0:
        raise ValueError(
            f"shot level must exceed electronic noise; got denominator {denom}"
        )
    return (raw - elec) / denom


def _pick_start(roots: list[SteadyState]) -> SteadyState:
    return min(roots, key=lambda r: r.intensity)


def _pick_continuous(roots: list[SteadyState], x_prev: float) -> SteadyState:
    floor = 1e-300
    return min(
        roots,
        key=lambda r: abs(math.log(max(r.intensity, floor) / max(x_prev, floor))),
    )


def _noise_state(ss: SteadyState, p: ModelParams, sc: ScanConfig):
    """Steady state and params used for the fluctuation analysis.

    ``noise_transverse='model'`` analyses fluctuations with the same
    transverse profile as the steady state.  ``'plane'`` instead analyses
    a plane-wave medium operated at the same intracavity intensity, which
    isolates the transverse average to the mean-field level.
    """
    if sc.noise_transverse == "model" or isinstance(p.transverse, PlaneWave):
        return ss, p
    p_plane = replace(p, transverse=PlaneWave())
    y_plane = state_equation(ss.intensity, p_plane)
    roots = solve_steady_states(y_plane, p_plane)
    ss_plane = min(roots, key=lambda r: abs(r.intensity - ss.intensity))
    return ss_plane, p_plane


def _scan_times(sc: ScanConfig) -> np.ndarray:
    n = int(round(sc.duration_s / sc.dt_s))
    if n < 2:
        raise ValueError("scan needs at least 2 samples; increase duration_s")
    return np.arange(n) * sc.dt_s


def _run_scan(
    sc: ScanConfig, p: ModelParams, ts: np.ndarray, cs: np.ndarray, thetas: np.ndarray
) -> Trace:
    """Track the steady state along the schedule C(ts), theta(ts) and measure it."""
    n = ts.size
    phases = lo_phase(ts, sc)

    s_phase = np.empty(n)
    s_min = np.empty(n)
    s_max = np.empty(n)
    xs = np.empty(n)
    theta_eff = np.empty(n)
    branches: list[str] = []

    x_prev = None
    for i in range(n):
        p_t = replace(p, c=float(cs[i]), theta=float(thetas[i]))
        roots = [r for r in solve_steady_states(sc.drive_y, p_t) if r.stable]
        if not roots:
            raise RuntimeError(f"no stable steady state at t={ts[i]}")
        ss = _pick_start(roots) if x_prev is None else _pick_continuous(roots, x_prev)
        x_prev = ss.intensity
        xs[i] = ss.intensity
        branches.append(ss.branch.name)
        theta_eff[i] = ss.theta_eff
        ss_n, p_n = _noise_state(ss, p_t, sc)
        q = output_spectrum(build_fluctuation_system(ss_n, p_n), sc.omega_hz)
        ve = efficiency_matrix(q.v, sc.eta)
        lo, hi, _ = quadrature_extrema(ve)
        s_min[i] = lo
        s_max[i] = hi
        cphi, sphi = math.cos(phases[i]), math.sin(phases[i])
        vec = np.array([cphi, sphi])
        s_phase[i] = float(vec @ ve @ vec)

    # one Philox stream, drawn in turn by the signal, shot and electronic
    # series; the trace at a fixed seed depends on this order
    rng = np.random.Generator(np.random.Philox(sc.seed))
    signal_f = analyzer_chain(s_phase + sc.elec_floor, sc, rng)
    shot_f = analyzer_chain(np.full(n, 1.0 + sc.elec_floor), sc, rng)
    elec_f = analyzer_chain(np.full(n, sc.elec_floor), sc, rng)
    s_meas = calibrate_and_correct(signal_f, shot_f, elec_f)
    shot_ref = calibrate_and_correct(shot_f, shot_f, elec_f)

    notes: list[str] = []
    if not (np.any(theta_eff > 0.0) and np.any(theta_eff < 0.0)):
        msg = "scan never crosses the cavity resonance (theta_eff keeps one sign)"
        warnings.warn(msg, stacklevel=3)
        notes.append(msg)

    samples = tuple(
        TraceSample(
            t_s=float(ts[i]),
            c=float(cs[i]),
            theta_eff=float(theta_eff[i]),
            x=float(xs[i]),
            branch=branches[i],
            s_meas=float(s_meas[i]),
            s_min=float(s_min[i]),
            s_max=float(s_max[i]),
            shot_ref=float(shot_ref[i]),
        )
        for i in range(n)
    )
    return Trace(samples=samples, warnings=tuple(notes))


def free_release_scan(sc: ScanConfig, cp: CloudParams, p: ModelParams) -> Trace:
    """Scan driven by the cooperativity decay of the released cloud.

    The bare cavity detuning stays at ``sc.theta0``; the escape of the atoms
    moves the dispersive shift, which sweeps the effective detuning through
    resonance.  The drive and all chain settings come from ``sc``; the cloud
    timescales from ``cp``; atomic and cavity rates from ``p``.
    """
    ts = _scan_times(sc)
    return _run_scan(sc, p, ts, cooperativity_decay(ts, cp), np.full(ts.size, sc.theta0))


def piezo_scan(sc: ScanConfig, p: ModelParams) -> Trace:
    """Scan driven by a linear sweep of the cavity detuning at fixed C.

    The detuning runs from ``sc.theta0`` at ``sc.theta_rate`` per second,
    which must be nonzero.
    """
    if sc.theta_rate == 0.0:
        raise ValueError("piezo scan needs a nonzero theta_rate")
    ts = _scan_times(sc)
    return _run_scan(sc, p, ts, np.full(ts.size, p.c), sc.theta0 + sc.theta_rate * ts)


def release_threshold_drive(
    p: ModelParams,
    theta0: float,
    c0: float,
    n_grid: int = 400,
) -> float:
    """Lowest drive that switches branches during a release from c0.

    Scans the cooperativity range the release passes through and returns the
    smallest upper-fold ordinate found; a drive above this value jumps to the
    upper branch at some point of the release, a drive below never switches.
    Grid-resolution limited; intended for choosing scan drives, not as a
    root-finder-grade boundary.  ``n_grid`` must be an integer >= 2.
    """
    if isinstance(n_grid, bool) or not isinstance(n_grid, numbers.Integral) or n_grid < 2:
        raise ValueError(f"n_grid must be an integer >= 2, got {n_grid!r}")
    if c0 <= 0.0:
        raise ValueError(f"c0 must be positive, got {c0}")
    best = math.inf
    for c in np.geomspace(min(3.0, c0), c0, n_grid):
        tp = turning_points(replace(p, c=float(c), theta=theta0))
        if tp.bistable:
            best = min(best, max(tp.ordinates))
    if not math.isfinite(best):
        raise ValueError(
            "release path is never bistable; no switching threshold exists"
        )
    return best
