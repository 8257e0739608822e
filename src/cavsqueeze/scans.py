"""Synthetic measurement scans through the squeezing experiment.

Two time-domain scans reproduce the measurement geometry, and the function
called names the scan: ``free_release_scan`` lets the cooperativity decay
after trap release so the dispersive shift sweeps the cavity through
resonance, and ``piezo_scan`` sweeps the bare cavity detuning at fixed atom
number.  Each turns its schedule into arrays of C and theta, one entry per
time step, and the shared tracker works through the whole trace in passes,
not step by step:

1. roots: the distinct steady states of every step, all steps in lockstep,
   as an (n, 3) array, each row ascending and padded with NaN.  Every
   profile, the plane wave's one bin included, forms one root locus per
   trace on a cached grid, C(X) along a release and theta(X) along a piezo
   sweep; each step's roots lie in the cells where its C or theta crosses
   it, and one Newton polishes them all (``bistability._trace_roots``).  A
   binned release's rows are bit for bit the roots of a single solve, which
   crosses the same C(X); a piezo sweep's, and a plane wave's, whose single
   solve takes the exact cubic, agree to round-off.
2. states: slope dY/dX, effective detuning and amplitude x of every root of
   every step, in array passes over blocks of roots
   (``bistability._trace_states``), so that memory stays flat in the trace
   length whatever the bin count.
3. tracking: the steady state is followed quasi-statically (branch
   continuity, hysteretic jumps when a branch ends) among the stable roots
   (dY/dX > 0).  A step with one stable root takes it by an array pick; a
   Python loop runs only over the steps with more than one (863 of the
   12,500 steps of the default plane-wave release, 98 of the Gaussian-64
   one).  It gives the ``x``, ``theta_eff`` and ``branch`` columns.  The
   video filter of step 5 (``_video_filter``) is the one per-sample loop
   left.
4. spectra: the output noise at the analysis frequency for every step at
   once (``spectra._trace_noise``, the closed form of ``output_spectrum``),
   then the detection efficiency, the quadrature extrema (the ``s_min`` and
   ``s_max`` columns) and the noise of the local-oscillator quadrature.
5. the synthetic detection chain: ``analyzer_chain`` (multiplicative
   analyzer noise and a single-pole video filter) and
   ``calibrate_and_correct`` (electronic-noise subtraction and shot-noise
   calibration), which give the ``s_meas`` and ``shot_ref`` columns.  The
   signal, shot and electronic series draw from one Philox stream at
   ``seed``, in that order.

The ``Trace`` returned holds these arrays as they are, one column per
quantity; no per-step object is built unless ``Trace.samples`` is read.

The tracker is quasi-static: no dynamical integration is performed, and a
branch is left at the step where its fold is crossed.  Scan timescales (ms)
sit far above the cavity and atomic relaxation times (sub-us), so away from
folds the state follows its steady state closely.  Near a fold it does not:
the relaxation rate vanishes at a saddle-node, so a swept state jumps late
(slow passage; Haberman, SIAM J. Appl. Math. 37, 69 (1979)).  An RK4
integration of the plane-wave mean-field equations along the C = 50 piezo
sweeps of the acceptance tests (theta at +-50/s, 2e-4 a step) put that lag
at 6 to 16 steps (4 on the up sweep if every rate is read as an angular
frequency).  This package neither models nor tests the lag.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .bistability import (
    ModelParams,
    PlaneWave,
    _branch_labels,
    _response,
    _state_terms,
    _trace_roots,
    _trace_states,
    critical_point,
)
from .cloud import CloudParams, cooperativity_decay
from .spectra import _check_dephasing, _envelope, _trace_noise, efficiency_matrix

# a trace keeps about 1 KiB a step (95 MiB at 1e5 steps), so 1e6 steps, 80
# times the default 12,500, take about 1 GiB; a step count of 2.5e10 asked numpy
# for 186 GiB of times alone
_MAX_STEPS = 1_000_000


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
        if not math.isfinite(self.duration_s / self.dt_s):
            raise ValueError(f"duration_s / dt_s must be a finite step count, got "
                             f"{self.duration_s} / {self.dt_s}")
        if round(self.duration_s / self.dt_s) > _MAX_STEPS:
            raise ValueError(f"duration_s / dt_s must be at most {_MAX_STEPS:,} steps, "
                             f"got {self.duration_s} / {self.dt_s}")
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
    """One time step of a scan: a row of ``Trace.samples``."""

    t_s: float
    c: float
    theta_eff: float
    x: float
    branch: str
    s_meas: float
    s_min: float
    s_max: float
    shot_ref: float


@dataclass(frozen=True, eq=False)
class Trace:
    """Full scan output, one column per ``TraceSample`` field, plus any
    non-fatal warnings raised during the run.

    Each column has one entry per time step: ``branch`` is a tuple of branch
    names, every other column a read-only float64 array.  Arrays have no
    usable ``==``, so traces compare by identity; compare their columns.
    """

    t_s: np.ndarray
    c: np.ndarray
    theta_eff: np.ndarray
    x: np.ndarray
    branch: tuple[str, ...]
    s_meas: np.ndarray
    s_min: np.ndarray
    s_max: np.ndarray
    shot_ref: np.ndarray
    warnings: tuple[str, ...] = ()

    @cached_property
    def samples(self) -> tuple[TraceSample, ...]:
        """The trace as one ``TraceSample`` per step, built on first use."""
        cols = (getattr(self, f.name) for f in fields(TraceSample))
        return tuple(map(TraceSample, *(c.tolist() if isinstance(c, np.ndarray) else c
                                        for c in cols)))


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


# _BRANCH_NAMES[k, j]: the branch of root j, ascending, of a step with k roots
_BRANCH_NAMES = np.array([[b.name for b in _branch_labels(k)] + [""] * (3 - k)
                          for k in range(4)])


def _follow(x: np.ndarray, stable: np.ndarray,
            ts: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The column of ``x`` followed at every step, and its branch name.

    ``x`` is ``_trace_roots``' (n, 3) array and ``stable`` marks its stable
    roots, the only candidates.  Rows ascend, so the first step, and every
    step with one stable root, takes its least stable X.  Only a step with
    more than one runs in Python: it takes the root nearest in log X to the
    last step's.
    """
    n_stable = np.count_nonzero(stable, axis=1)
    if not n_stable.all():
        raise RuntimeError(f"no stable steady state at t={ts[np.argmin(n_stable)]}")
    col = np.argmax(stable, axis=1).tolist()
    choice = np.flatnonzero(n_stable[1:] > 1) + 1
    for i, xs, ok in zip(choice.tolist(), x[choice].tolist(), stable[choice].tolist()):
        x_prev = max(float(x[i - 1, col[i - 1]]), 1e-300)
        col[i] = min((j for j in range(3) if ok[j]),
                     key=lambda j: abs(math.log(max(xs[j], 1e-300) / x_prev)))
    return np.array(col), _BRANCH_NAMES[np.count_nonzero(x == x, axis=1), col].tolist()


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, which stays writable for its owner."""
    view = a.view()
    view.flags.writeable = False
    return view


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
    roots = _trace_roots(np.full(n, sc.drive_y), cs, thetas, p)
    found = roots == roots
    step = np.nonzero(found)[0]
    amp, slope, disperse = _trace_states(roots[found], sc.drive_y, cs[step], thetas[step], p)
    stable = np.zeros_like(found)
    stable[found] = slope > 0.0
    col, branches = _follow(roots, stable, ts)
    # each row's roots fill it from column 0: the followed one is its first found + col
    picks = np.searchsorted(step, np.arange(n)) + col
    xs, x_amp, theta_eff = roots[np.arange(n), col], amp[picks], disperse[picks]

    notes: list[str] = []
    p_n = p
    if sc.noise_transverse == "plane" and not isinstance(p.transverse, PlaneWave):
        # X is a state of the plane-wave medium at its drive Y_pw(X): no solve
        p_n = replace(p, transverse=PlaneWave())
        plane = _response(xs, cs, thetas, p_n, 2)
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

    return Trace(t_s=_read_only(ts), c=_read_only(cs), theta_eff=_read_only(theta_eff),
                 x=_read_only(xs), branch=tuple(branches), s_meas=_read_only(s_meas),
                 s_min=_read_only(s_min), s_max=_read_only(s_max),
                 shot_ref=_read_only(shot_ref), warnings=tuple(notes))


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


def release_threshold_drive(p: ModelParams, theta0: float, c0: float) -> float:
    """Lowest drive that switches branches during a release from c0.

    Returns the ordinate of the cusp at theta0 (``critical_point``).  The
    release passes every C between the cusp's and c0, and the upper fold
    ordinate there never lies below the cusp's: a drive above it jumps to
    the upper branch as C nears the cusp, a drive below never switches.  A
    release from c0 at or below the cusp's C, or with no cusp, raises.
    """
    try:
        c_crit, _, y_crit = critical_point(replace(p, theta=theta0))
    except RuntimeError:
        c_crit = math.inf
    if not c_crit < c0:
        raise ValueError("release path is never bistable; no switching threshold exists")
    return y_crit
