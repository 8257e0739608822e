"""Tests for swept-operating-point traces and the synthetic measurement chain."""

import math
import re
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from cavsqueeze import (
    CloudParams,
    GaussianBins,
    ModelParams,
    PlaneWave,
    ScanConfig,
    TraceSample,
    analyzer_chain,
    calibrate_and_correct,
    critical_point,
    free_release_scan,
    lo_phase,
    piezo_scan,
    release_threshold_drive,
    turning_points,
)
from cavsqueeze import scans
from cavsqueeze.scans import _video_filter

CLOUD = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0)
FLOAT_COLUMNS = ("t_s", "c", "theta_eff", "x", "s_meas", "s_min", "s_max", "shot_ref")


def _release_config(**kw):
    base = dict(duration_s=1.5e-3, dt_s=2e-6,
                drive_y=800.0, theta0=-7.5, rel_noise=0.0, elec_floor=0.0)
    base.update(kw)
    return ScanConfig(**base)


def _same_trace(a, b):
    """Every float column equal, and the branch names and warnings too."""
    return (all(np.array_equal(getattr(a, k), getattr(b, k)) for k in FLOAT_COLUMNS)
            and a.branch == b.branch and a.warnings == b.warnings)


# === local oscillator and analyzer pieces ===


def test_lo_phase_ramp():
    sc = ScanConfig()
    assert lo_phase(0.0, sc) == 0.0
    quarter = 0.25 / sc.lo_freq_hz
    assert abs(lo_phase(quarter, sc) - 0.5 * math.pi) < 1e-12
    sc2 = ScanConfig(lo_phase0_rad=1.0)
    assert abs(lo_phase(0.0, sc2) - 1.0) < 1e-15
    arr = lo_phase(np.array([0.0, quarter]), sc)
    assert arr.shape == (2,)


def test_video_filter_passes_dc():
    x = np.full(500, 2.7)
    assert np.max(np.abs(_video_filter(x, 1e5, 2e-6) - 2.7)) < 1e-12


def test_video_filter_step_response_time_constant():
    vbw, dt = 1e4, 1e-6
    n = 5000
    x = np.ones(n)
    x[0] = 0.0  # start the filter at zero, then feed a unit step
    y = _video_filter(x, vbw, dt)
    k = int(round(1.0 / (2.0 * math.pi * vbw * dt)))
    assert abs(y[k] - (1.0 - math.exp(-1.0))) < 0.02


def test_analyzer_chain_shrinks_noise_by_the_filter_bandwidth():
    sc = ScanConfig(rel_noise=0.1, vbw_hz=1e5, dt_s=2e-6)
    n = 40000
    out = analyzer_chain(np.ones(n), sc, seed=321)
    a = math.exp(-2.0 * math.pi * sc.vbw_hz * sc.dt_s)
    expected_std = 0.1 * math.sqrt((1.0 - a) / (1.0 + a))
    body = out[200:]  # discard the filter settling range
    assert abs(np.std(body) - expected_std) < 0.1 * expected_std
    assert abs(np.mean(body) - 1.0) < 5.0 * expected_std / math.sqrt(n)


def test_analyzer_chain_is_deterministic_and_validates():
    sc = ScanConfig(rel_noise=0.05)
    a = analyzer_chain(np.ones(100), sc, seed=9)
    b = analyzer_chain(np.ones(100), sc, seed=9)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        analyzer_chain(np.ones((2, 2)), sc, seed=9)
    with pytest.raises(ValueError):
        analyzer_chain([], sc, seed=9)


def test_calibration_normalizes_shot_and_cancels_electronics():
    n = 1000
    elec = np.full(n, 0.2)
    shot = np.full(n, 1.2)   # shot level 1.0 above electronics
    sig = np.full(n, 0.65)   # true noise 0.45 above electronics
    out = calibrate_and_correct(sig, shot, elec)
    assert np.max(np.abs(out - 0.45)) < 1e-12
    assert np.max(np.abs(calibrate_and_correct(elec, shot, elec))) < 1e-12
    assert np.max(np.abs(calibrate_and_correct(shot, shot, elec) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        calibrate_and_correct(sig, elec, elec)


def test_analyzer_chain_calls_on_one_generator_continue_one_stream():
    sc = ScanConfig(rel_noise=0.1)
    for n in (1, 7, 1001):
        series = [np.linspace(0.5, 1.5, n), np.full(n, 1.1), np.full(n, 0.1)]
        rng = np.random.Generator(np.random.Philox(5))
        outs = [analyzer_chain(x, sc, rng) for x in series]
        xi = np.random.Generator(np.random.Philox(5)).standard_normal((3, n))
        for k, x in enumerate(series):
            expected = _video_filter(x * (1.0 + 0.1 * xi[k]), sc.vbw_hz, sc.dt_s)
            assert np.array_equal(outs[k], expected)


def test_scan_noise_stream_layout_is_pinned():
    """Signal, shot and electronic series take the rows of one (3, n) draw."""
    sc = ScanConfig(duration_s=2e-3, dt_s=4e-6, drive_y=12.0, theta0=-5.0,
                    theta_rate=5000.0, rel_noise=0.1, elec_floor=0.1, seed=2024)
    tr = piezo_scan(sc, ModelParams(c=0.0, delta=0.0))  # true noise is 1
    n = tr.t_s.size
    xi = np.random.Generator(np.random.Philox(sc.seed)).standard_normal((3, n))
    sig, shot, elec = (
        _video_filter(level * (1.0 + 0.1 * row), sc.vbw_hz, sc.dt_s)
        for level, row in zip((1.1, 1.1, 0.1), xi)
    )
    s_meas = calibrate_and_correct(sig, shot, elec)
    shot_ref = calibrate_and_correct(shot, shot, elec)
    assert np.max(np.abs(tr.s_meas - s_meas)) < 1e-12
    assert np.max(np.abs(tr.shot_ref - shot_ref)) < 1e-12


# === configuration guards ===


def test_config_rejects_video_bandwidth_aliasing():
    with pytest.raises(ValueError):
        ScanConfig(vbw_hz=1e5, dt_s=2e-5)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ScanConfig(rel_noise=1.5)
    with pytest.raises(ValueError):
        ScanConfig(eta=0.0)
    with pytest.raises(ValueError):
        ScanConfig(duration_s=-1.0)
    with pytest.raises(ValueError):
        ScanConfig(noise_transverse="banana")
    with pytest.raises(ValueError):
        ScanConfig(seed=-1)


def test_config_bounds_the_step_count():
    # a million steps (about 1 GiB of trace) pass; one more stops before any
    # time grid is built
    assert round(ScanConfig(duration_s=1.0, dt_s=1e-6).duration_s / 1e-6) == 1_000_000
    with pytest.raises(ValueError, match="at most 1,000,000 steps"):
        ScanConfig(duration_s=1.0, dt_s=1.0 / 1_000_001)


@pytest.mark.parametrize("seed", [1.5, 7.0, True, False, -1, "3", None])
def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        ScanConfig(seed=seed)


def test_config_takes_a_numpy_integer_seed():
    assert ScanConfig(seed=np.int64(7)).seed == 7


@pytest.mark.parametrize("cls, name, value", [
    (ModelParams, "c", math.inf),
    (ModelParams, "delta", math.nan),
    (ModelParams, "theta", math.inf),
    (ModelParams, "theta", -math.inf),
    (ModelParams, "kappa_hz", math.inf),
    (ModelParams, "gamma_hz", math.inf),
    (ModelParams, "gamma_par_ratio", math.nan),
    (ModelParams, "n_atoms", math.inf),
    (ScanConfig, "theta0", math.nan),
    (ScanConfig, "theta_rate", math.inf),
    (ScanConfig, "lo_phase0_rad", -math.inf),
    (ScanConfig, "elec_floor", math.inf),
])
def test_non_finite_fields_rejected_by_name(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{name: value})


def test_piezo_scan_rejects_a_zero_sweep_rate():
    with pytest.raises(ValueError, match="theta_rate"):
        piezo_scan(ScanConfig(theta_rate=0.0), ModelParams(c=50.0, delta=-20.0))


# === release traces ===


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_release_without_atoms_is_flat_shot_noise():
    cloud = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=1e-9)
    sc = _release_config(drive_y=5.0, theta0=2.0, duration_s=0.5e-3)
    p = ModelParams(c=0.0, delta=-20.0)
    tr = free_release_scan(sc, cloud, p)
    assert tr.warnings  # the effective detuning never crosses zero
    assert np.max(np.abs(tr.x - 1.0)) < 1e-6          # X = Y / (1 + theta^2)
    assert np.max(np.abs(tr.s_meas - 1.0)) < 1e-6
    assert np.max(np.abs(tr.s_min - 1.0)) < 1e-6
    assert np.max(np.abs(tr.s_max - 1.0)) < 1e-6
    assert np.max(np.abs(tr.theta_eff - 2.0)) < 1e-9


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_release_trace_is_deterministic():
    sc = _release_config(rel_noise=0.1, elec_floor=0.1, duration_s=1.0e-3)
    p = ModelParams(c=220.0, delta=-20.0)
    tr1 = free_release_scan(sc, CLOUD, p)
    tr2 = free_release_scan(sc, CLOUD, p)
    assert _same_trace(tr1, tr2)
    tr3 = free_release_scan(replace(sc, seed=7), CLOUD, p)
    assert not _same_trace(tr3, tr1)


@pytest.mark.parametrize("profile", [PlaneWave(), GaussianBins(8)])
def test_the_row_view_holds_the_columns_step_by_step(profile):
    p = ModelParams(c=220.0, delta=-20.0, transverse=profile)
    sc = _release_config(duration_s=0.025, dt_s=2.5e-4, vbw_hz=1e3)
    tr = free_release_scan(sc, CLOUD, p)
    assert set(tr.branch) == {"LOWER", "MONOSTABLE"}  # it leaves the bistable window
    for name in FLOAT_COLUMNS:
        col = getattr(tr, name)
        assert col.dtype == np.float64 and col.shape == (100,) and not col.flags.writeable
    assert isinstance(tr.branch, tuple) and len(tr.branch) == 100
    assert len(tr.samples) == 100 and tr.samples is tr.samples  # built once
    for i, row in enumerate(tr.samples):
        assert astuple(row) == tuple(getattr(tr, f.name)[i] for f in fields(TraceSample))
        assert all(type(getattr(row, name)) is float for name in FLOAT_COLUMNS)


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_noiseless_release_measurement_stays_inside_the_envelope():
    sc = _release_config(duration_s=1.5e-3)
    p = ModelParams(c=220.0, delta=-20.0)
    tr = free_release_scan(sc, CLOUD, p)
    lo = np.min(tr.s_min)
    hi = np.max(tr.s_max)
    assert np.all((lo - 1e-9 <= tr.s_meas) & (tr.s_meas <= hi + 1e-9))
    # cooperativity column follows the cloud decay
    assert abs(tr.c[0] - CLOUD.c0) < 1e-9
    assert tr.c[-1] < CLOUD.c0


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_shot_reference_is_calibrated_to_unity():
    sc = _release_config(rel_noise=0.1, elec_floor=0.1, duration_s=1.0e-3)
    p = ModelParams(c=220.0, delta=-20.0)
    tr = free_release_scan(sc, CLOUD, p)
    ref = tr.shot_ref
    assert abs(np.mean(ref) - 1.0) < 1e-9
    assert np.all(ref > 0.0)


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_plane_wave_noise_option_changes_profiled_spectra():
    p = ModelParams(c=150.0, delta=-20.0, transverse=GaussianBins(m=6))
    sc_model = _release_config(duration_s=0.4e-3)
    sc_plane = replace(sc_model, noise_transverse="plane")
    tr_model = free_release_scan(sc_model, CLOUD, p)
    tr_plane = free_release_scan(sc_plane, CLOUD, p)
    assert np.max(np.abs(tr_model.x - tr_plane.x)) < 1e-9  # same steady state
    dev = np.max(np.abs(tr_model.s_min - tr_plane.s_min))
    assert dev > 1e-4  # but a genuinely different fluctuation medium


def test_plane_noise_warns_of_states_on_the_plane_wave_unstable_branch():
    # the Gaussian-8 release passes intensities at which the plane-wave
    # response folds back: at dt = 50 us, steps 139-143 (6.95 to 7.15 ms)
    p = ModelParams(c=220.0, delta=-20.0, transverse=GaussianBins(8))
    sc = _release_config(duration_s=0.025, dt_s=5e-5, vbw_hz=1e3, seed=11,
                         noise_transverse="plane")
    msg = ("5 steps analyse a state on the unstable branch of the plane-wave "
           f"response (dY/dX <= 0), the first at t={139 * 5e-5}")
    with pytest.warns(UserWarning, match=re.escape(msg)):
        tr = free_release_scan(sc, CLOUD, p)
    assert tr.warnings == (msg,)
    # the binned states themselves are stable, and model noise has no such note
    tr_model = free_release_scan(replace(sc, noise_transverse="model"), CLOUD, p)
    assert tr_model.warnings == ()
    assert np.array_equal(tr_model.x, tr.x)


# === piezo traces ===


def test_piezo_sweep_of_empty_cavity_traces_a_lorentzian():
    p = ModelParams(c=0.0, delta=0.0)
    sc = ScanConfig(duration_s=0.01, dt_s=4e-6,
                    drive_y=12.0, theta0=-5.0, theta_rate=1000.0,
                    rel_noise=0.0, elec_floor=0.0)
    tr = piezo_scan(sc, p)
    assert tr.warnings == ()  # the sweep crosses the resonance
    theta = -5.0 + 1000.0 * tr.t_s
    assert np.max(np.abs(tr.theta_eff - theta)) < 1e-12
    assert np.max(np.abs(tr.x - 12.0 / (1.0 + theta * theta))) < 1e-9
    assert np.max(np.abs(tr.s_meas - 1.0)) < 1e-9
    assert abs(tr.t_s[np.argmax(tr.x)] - 5.0e-3) < 1e-4  # peak where theta = 0


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_piezo_hysteresis_jumps_at_the_fold_edges():
    """Sweeping the detuning up and then down across the bistable window
    switches branches at different detunings, with the jump locations set
    by where the occupied branch loses its fold."""
    p = ModelParams(c=50.0, delta=-20.0)

    def sweep(theta0, rate):
        sc = ScanConfig(duration_s=6e-3, dt_s=4e-6,
                        drive_y=900.0, theta0=theta0, theta_rate=rate,
                        rel_noise=0.0, elec_floor=0.0)
        tr = piezo_scan(sc, p)
        thetas = theta0 + rate * tr.t_s
        dln = np.abs(np.diff(np.log(tr.x)))
        jumps = np.nonzero(dln > 0.5)[0]
        return thetas, jumps, dln, set(tr.branch)

    th_up, j_up, dln_up, br_up = sweep(-1.6, 50.0)
    assert len(j_up) == 1
    theta_jump_up = th_up[j_up[0] + 1]
    assert abs(theta_jump_up - (-1.4577)) < 6e-4
    assert dln_up[j_up[0]] > 1.0
    assert br_up == {"MONOSTABLE", "UPPER"}

    th_dn, j_dn, dln_dn, br_dn = sweep(-1.35, -50.0)
    assert len(j_dn) == 1
    theta_jump_dn = th_dn[j_dn[0] + 1]
    assert abs(theta_jump_dn - (-1.5664)) < 6e-4
    assert dln_dn[j_dn[0]] > 1.0
    assert br_dn == {"MONOSTABLE", "LOWER"}

    # the two switching points bracket the shared bistable window
    assert theta_jump_up > theta_jump_dn + 0.05


# === switching-threshold helper ===


def test_release_threshold_drive_values():
    p = ModelParams(c=220.0, delta=-20.0)
    y75 = release_threshold_drive(p, theta0=-7.5, c0=220.0)
    y10 = release_threshold_drive(p, theta0=-10.0, c0=220.0)
    # the cusp ordinates at each theta0
    assert abs(y75 - 236.59357736413227) <= 1e-12 * y75
    assert abs(y10 - 226.33958246315478) <= 1e-12 * y10
    for theta0, y in ((-7.5, y75), (-10.0, y10)):
        assert y == critical_point(replace(p, theta=theta0))[2]
    # the default release drive sits above both, so a mid-release jump occurs
    assert ScanConfig().drive_y > max(y75, y10)


def test_release_threshold_drive_rejects_never_bistable_paths(monkeypatch):
    with pytest.raises(ValueError):
        release_threshold_drive(ModelParams(c=3.0, delta=0.0), theta0=0.0, c0=3.0)
    with pytest.raises(ValueError):
        release_threshold_drive(ModelParams(c=220.0, delta=-20.0), theta0=-7.5, c0=0.0)

    def no_cusp(p, x_max=None):
        raise RuntimeError("no cusp of the fold curve")

    monkeypatch.setattr(scans, "critical_point", no_cusp)
    with pytest.raises(ValueError, match="never bistable"):
        release_threshold_drive(ModelParams(c=220.0, delta=-20.0), theta0=-7.5, c0=220.0)


def test_a_release_switches_just_above_the_threshold_drive_and_not_below():
    p = ModelParams(c=220.0, delta=-20.0)
    y = release_threshold_drive(p, theta0=-10.0, c0=CLOUD.c0)
    jumps = []
    for factor in (1.02, 0.97):
        trace = free_release_scan(ScanConfig(theta0=-10.0, drive_y=factor * y), CLOUD, p)
        jumps.append(float(np.max(np.abs(np.diff(np.log(trace.x))))))
    # 0.32 (X 62.2 -> 85.9 in one step) against 0.065 of a smooth passage
    assert jumps[0] > 0.15 > jumps[1], jumps


@pytest.mark.parametrize("profile", [PlaneWave(), GaussianBins(8)])
@pytest.mark.parametrize("theta0", [-7.5, -10.0])
def test_no_upper_fold_ordinate_above_the_cusp_lies_below_the_threshold(profile, theta0):
    p = ModelParams(c=220.0, delta=-20.0, theta=theta0, transverse=profile)
    y = release_threshold_drive(p, theta0, 220.0)
    c_crit = critical_point(p)[0]
    near = [c_crit * (1.0 + eps) for eps in (1e-12, 1e-9, 1e-6)]
    for c in near + np.geomspace(c_crit, 220.0, 201)[1:].tolist():
        tp = turning_points(replace(p, c=c))
        assert tp.bistable, c
        assert max(tp.ordinates) >= y, c
