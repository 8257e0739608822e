"""Synthetic measurement scans through the squeezing experiment.

Two time-domain scans reproduce the measurement geometry, and the function
called names the scan: ``free_release_scan`` lets the cooperativity decay
after trap release so the dispersive shift sweeps the cavity through
resonance, and ``piezo_scan`` sweeps the bare cavity detuning at fixed atom
number.  Each turns its schedule into arrays of C and theta, one entry per
time step, and the shared tracker works through the whole trace in passes,
not step by step:

1. roots: the distinct steady states of every step, all steps in lockstep
   and bit for bit the roots of a single solve.  A plane wave polishes the
   roots of its exact cubics (``bistability._plane_roots_many``); a binned
   profile takes the fold grid of every step as a few products of cached
   tables, then finds the slope minima, the folds and the roots over all
   its brackets at once (``bistability._binned_roots``), in blocks of steps.
2. states: slope dY/dX, effective detuning and amplitude x of every root of
   every step, in array passes over blocks of roots
   (``bistability._trace_states``), so that memory stays flat in the trace
   length whatever the bin count.
3. tracking: the only Python loop over steps follows the steady state
   quasi-statically (branch continuity, hysteretic jumps when a branch ends)
   among the stable roots (dY/dX > 0).
4. spectra: the output noise at the analysis frequency for every step at
   once (``spectra._trace_noise``, the closed form of ``output_spectrum``),
   then the detection efficiency, the quadrature extrema and the noise of
   the local-oscillator quadrature.
5. the synthetic detection chain: ``analyzer_chain`` (multiplicative
   analyzer noise and a single-pole video filter) and
   ``calibrate_and_correct`` (electronic-noise subtraction and shot-noise
   calibration).  The signal, shot and electronic series draw from one
   Philox stream at ``seed``, in that order.

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
    _branch_labels,
    _response_at,
    _state_terms,
    _trace_roots,
    _trace_states,
    turning_points,
)
from .cloud import CloudParams, cooperativity_decay
from .spectra import _check_dephasing, _envelope, _trace_noise, efficiency_matrix


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


def _pick_start(xs: list[float]) -> int:
    """Index of the state a trace starts on: the least X."""
    return min(range(len(xs)), key=xs.__getitem__)


def _pick_continuous(xs: list[float], x_prev: float) -> int:
    """Index of the state nearest in log X to the last step's ``x_prev``."""
    floor = 1e-300
    return min(range(len(xs)),
               key=lambda k: abs(math.log(max(xs[k], floor) / max(x_prev, floor))))


def _follow(roots: list[list[float]], stable: list[bool],
            ts: np.ndarray) -> tuple[list[int], list[str]]:
    """The state followed at every step, as an index into the flattened
    ``roots``, and its branch name.

    Only stable roots are candidates: the first step takes
    ``_pick_start``'s, each later one ``_pick_continuous``'s.
    """
    picks: list[int] = []
    names: list[str] = []
    x_prev = None
    j0 = 0
    for i, xs in enumerate(roots):
        cand = [j for j in range(len(xs)) if stable[j0 + j]]
        if not cand:
            raise RuntimeError(f"no stable steady state at t={ts[i]}")
        xc = [xs[j] for j in cand]
        j = cand[_pick_start(xc) if x_prev is None else _pick_continuous(xc, x_prev)]
        x_prev = xs[j]
        picks.append(j0 + j)
        names.append(_branch_labels(len(xs))[j].name)
        j0 += len(xs)
    return picks, names


def _scan_times(sc: ScanConfig) -> np.ndarray:
    n = int(round(sc.duration_s / sc.dt_s))
    if n < 2:
        raise ValueError("scan needs at least 2 samples; increase duration_s")
    return np.arange(n) * sc.dt_s


def _run_scan(
    sc: ScanConfig, p: ModelParams, ts: np.ndarray, cs: np.ndarray, thetas: np.ndarray
) -> Trace:
    """Track the steady state along the schedule C(ts), theta(ts) and measure it.

    Works in passes over the whole trace (module docstring).
    ``scan.noise_transverse='plane'`` analyses the fluctuations of a binned
    profile in a plane-wave medium at each step's intracavity intensity,
    which isolates the transverse average to the mean-field level; a step
    whose intensity lies on the unstable branch of the plane-wave response
    (dY/dX <= 0 there) is counted in a warning.
    """
    n = ts.size
    bad = ~(np.isfinite(cs) & (cs >= 0.0) & np.isfinite(thetas))
    if bad.any():
        i = int(np.argmax(bad))
        replace(p, c=float(cs[i]), theta=float(thetas[i]))  # raises, naming the field
    _check_dephasing(p)
    c_list, theta_list = cs.tolist(), thetas.tolist()

    roots = _trace_roots([sc.drive_y] * n, c_list, theta_list, p)
    step = np.repeat(np.arange(n), [len(r) for r in roots])
    x_roots = np.array([x for r in roots for x in r])
    amp, slope, disperse = _trace_states(x_roots, sc.drive_y, cs[step], thetas[step], p)
    picks, branches = _follow(roots, (slope > 0.0).tolist(), ts)
    xs, x_amp, theta_eff = x_roots[picks], amp[picks], disperse[picks]

    notes: list[str] = []
    p_n = p
    if sc.noise_transverse == "plane" and not isinstance(p.transverse, PlaneWave):
        # X is a state of the plane-wave medium at its drive Y_pw(X): no solve
        p_n = replace(p, transverse=PlaneWave())
        plane = _response_at(xs, cs, thetas, p_n)
        x_amp = _state_terms(xs, plane.y, cs, thetas, p_n)[0]
        unstable = np.flatnonzero(plane.y1 <= 0.0)
        if unstable.size:
            notes.append(f"{unstable.size} steps analyse a state on the unstable branch of "
                         f"the plane-wave response (dY/dX <= 0), the first at "
                         f"t={ts[unstable[0]]}")
    v11, v12, v22 = _trace_noise(x_amp, xs, cs, thetas, p_n, sc.omega_hz)
    ve = efficiency_matrix(np.stack((v11, v12, v12, v22), axis=-1).reshape(n, 2, 2),
                           sc.eta)
    mean, radius = _envelope(ve[:, 0, 0], ve[:, 0, 1], ve[:, 1, 1])
    s_min, s_max = mean - radius, mean + radius
    phases = lo_phase(ts, sc)
    cphi, sphi = np.cos(phases), np.sin(phases)
    s_phase = ((cphi * ve[:, 0, 0] + sphi * ve[:, 1, 0]) * cphi
               + (cphi * ve[:, 0, 1] + sphi * ve[:, 1, 1]) * sphi)

    # one Philox stream, drawn in turn by the signal, shot and electronic
    # series; the trace at a fixed seed depends on this order
    rng = np.random.Generator(np.random.Philox(sc.seed))
    signal_f = analyzer_chain(s_phase + sc.elec_floor, sc, rng)
    shot_f = analyzer_chain(np.full(n, 1.0 + sc.elec_floor), sc, rng)
    elec_f = analyzer_chain(np.full(n, sc.elec_floor), sc, rng)
    s_meas = calibrate_and_correct(signal_f, shot_f, elec_f)
    shot_ref = calibrate_and_correct(shot_f, shot_f, elec_f)

    if not (np.any(theta_eff > 0.0) and np.any(theta_eff < 0.0)):
        notes.append("scan never crosses the cavity resonance (theta_eff keeps one sign)")
    for msg in notes:
        warnings.warn(msg, stacklevel=3)

    samples = tuple(map(TraceSample, ts.tolist(), c_list, theta_eff.tolist(), xs.tolist(),
                        branches, s_meas.tolist(), s_min.tolist(), s_max.tolist(),
                        shot_ref.tolist()))
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
