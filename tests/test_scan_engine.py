"""Tests for the array passes of the scan engine against the scalar API.

The lockstep plane-wave roots must equal the single-step solve exactly; the
stacked spectrum kernel must match ``output_spectrum``; and a whole trace
must match a step-by-step reference loop built from the public functions.
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cavsqueeze import (
    CloudParams,
    GaussianBins,
    ModelParams,
    PlaneWave,
    ScanConfig,
    analyzer_chain,
    build_fluctuation_system,
    calibrate_and_correct,
    critical_point,
    efficiency_matrix,
    free_release_scan,
    lo_phase,
    output_spectrum,
    piezo_scan,
    quadrature_extrema,
    solve_steady_states,
    state_equation,
    turning_points,
)
from cavsqueeze import bistability, scans
from cavsqueeze.bistability import _plane_roots, _plane_roots_many
from cavsqueeze.cli import main
from cavsqueeze.cloud import cooperativity_decay
from cavsqueeze.spectra import _kappa_in, _output_noise, _system_sums

CLOUD = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0)


# === lockstep plane-wave roots ===


def _assert_lockstep_equals_scalar(ys, cs, delta, thetas):
    rows = _plane_roots_many(ys, cs, delta, thetas)
    assert rows.shape == (len(ys), 7)
    for y, c, theta, row in zip(ys, cs, thetas, rows.tolist()):
        got = sorted(x for x in row if x == x)
        ref = sorted(_plane_roots(y, ModelParams(c=c, delta=delta, theta=theta)))
        assert got == ref, (y, c, delta, theta)


def test_lockstep_plane_roots_equal_the_scalar_solve_on_random_steps():
    # the operating-point ranges of the benchmark's queries, 10,000 steps
    rng = np.random.default_rng(20140)
    for delta in np.linspace(-30.0, 30.0, 20).tolist():
        n = 500
        cs = np.exp(rng.uniform(0.0, math.log(500.0), n)).tolist()
        thetas = rng.uniform(-10.0, 10.0, n).tolist()
        ys = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), n)).tolist()
        _assert_lockstep_equals_scalar(ys, cs, delta, thetas)


def test_lockstep_plane_roots_equal_the_scalar_solve_near_folds():
    cs, thetas, ys = [], [], []
    # near-critical absorptive inputs, C = 4 (1 + eps), inside the fold window
    for eps in (10.0 ** (-8.0 + k / 8.0) for k in range(8)):
        p = ModelParams(c=4.0 * (1.0 + eps), delta=0.0, theta=0.0)
        tp = turning_points(p)
        assert tp.bistable
        lo, hi = sorted(tp.ordinates)
        for at in (0.3, 0.5, 0.7):
            cs.append(p.c)
            thetas.append(0.0)
            ys.append(lo + at * (hi - lo))
    # fold pairs tangent to round-off, and the onset itself
    for eps in (0.0, 1e-16, 1e-15, 1e-14, 1e-13):
        for y in (20.0, 27.0, 30.0):
            cs.append(4.0 * (1.0 + eps))
            thetas.append(0.0)
            ys.append(y)
    # drives exactly on a fold ordinate, and no drive at all
    for c, theta in ((8.0, 0.0), (50.0, 0.0), (4.5, 0.0), (20.0, 0.0)):
        for y in turning_points(ModelParams(c=c, delta=0.0, theta=theta)).ordinates:
            cs.append(c)
            thetas.append(theta)
            ys.append(y)
    cs.append(50.0)
    thetas.append(0.0)
    ys.append(0.0)
    _assert_lockstep_equals_scalar(ys, cs, 0.0, thetas)

    # the same at the release detuning, along a fold-crossing release path
    p = ModelParams(c=220.0, delta=-20.0, theta=-7.5)
    cs = cooperativity_decay(np.linspace(0.0, 0.025, 300), CLOUD).tolist()
    ys = [max(turning_points(replace(p, c=c)).ordinates, default=800.0) for c in cs]
    _assert_lockstep_equals_scalar(ys, cs, -20.0, [-7.5] * len(cs))


# === lockstep binned roots ===


def _assert_binned_lockstep_equals_scalar(ys, cs, delta, thetas, m):
    p = ModelParams(delta=delta, transverse=GaussianBins(m))
    rows = bistability._trace_roots(ys, cs, thetas, p)
    assert len(rows) == len(ys)
    for y, c, theta, row in zip(ys, cs, thetas, rows):
        ref = [s.intensity for s in solve_steady_states(y, replace(p, c=c, theta=theta))]
        assert row == ref, (y, c, delta, theta, m)
    return rows


@pytest.mark.parametrize("m", [8, 64])
def test_lockstep_binned_roots_equal_the_scalar_solve_on_random_steps(m):
    # the operating-point ranges of the benchmark's queries
    rng = np.random.default_rng(20160 + m)
    for delta in np.linspace(-30.0, 30.0, 7).tolist():
        n = 60
        cs = np.exp(rng.uniform(0.0, math.log(500.0), n)).tolist()
        thetas = rng.uniform(-10.0, 10.0, n).tolist()
        ys = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), n)).tolist()
        _assert_binned_lockstep_equals_scalar(ys, cs, delta, thetas, m)


@pytest.mark.parametrize("m", [8, 64])
def test_lockstep_binned_roots_equal_the_scalar_solve_near_folds(m):
    cs, thetas, ys = [], [], []
    for c, delta, theta in ((150.0, -20.0, -7.5), (30.0, 1.0, -2.0), (200.0, -5.0, 4.0)):
        tp = turning_points(ModelParams(c=c, delta=delta, theta=theta,
                                        transverse=GaussianBins(m)))
        assert tp.bistable
        lo, hi = sorted(tp.ordinates)
        # exactly on each fold ordinate, an ulp and 1e-12 off it, and between
        for y in (lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, math.inf),
                  lo * (1.0 + 1e-12), hi * (1.0 - 1e-12), 0.5 * (lo + hi), 0.0):
            cs.append(c)
            thetas.append(theta)
            ys.append(float(y))
        _assert_binned_lockstep_equals_scalar(ys, cs, delta, thetas, m)
        cs, thetas, ys = [], [], []

    # just above the critical cooperativity, where the fold pair is narrow
    p = ModelParams(c=8.0, delta=0.0, theta=0.0, transverse=GaussianBins(m))
    c_crit, _, y_crit = critical_point(p)
    for eps in (0.0, 1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
        c = c_crit * (1.0 + eps)
        ordinates = turning_points(replace(p, c=c)).ordinates
        for y in (y_crit, *ordinates, 0.5 * sum(ordinates) if ordinates else 0.0):
            cs.append(c)
            thetas.append(0.0)
            ys.append(float(y))
    _assert_binned_lockstep_equals_scalar(ys, cs, 0.0, thetas, m)

    # drives whose fold windows differ (Y/A = 100, the float above, 1e3), in one trace
    a = 10.0
    ys = [float(y) for y in (99.0 * a, 100.0 * a, np.nextafter(100.0 * a, math.inf),
                             1e3 * a, 0.0)] * 4
    rows = _assert_binned_lockstep_equals_scalar(ys, [100.0] * 20, 3.0, [0.0] * 20, m)
    assert {len(r) for r in rows} == {1, 3}

    # along a fold-crossing release path at the release detuning
    p = ModelParams(c=220.0, delta=-20.0, theta=-7.5, transverse=GaussianBins(m))
    cs = cooperativity_decay(np.linspace(0.0, 0.025, 60), CLOUD).tolist()
    ys = [max(turning_points(replace(p, c=c)).ordinates, default=800.0) for c in cs]
    _assert_binned_lockstep_equals_scalar(ys, cs, -20.0, [-7.5] * len(cs), m)


def test_a_step_with_more_than_two_folds_raises_naming_it(monkeypatch):
    fold_grid = bistability._fold_grid

    def three_more_folds(p, xi_lo, xi_max, c, theta):
        grid, (i, j, neg_lo, neg_hi, fi, fj, f_neg) = fold_grid(p, xi_lo, xi_max, c, theta)
        # fold brackets without a sign change in them at step 7: Newton ends at an edge
        return grid, (i, j, neg_lo, neg_hi, np.concatenate((fi, [7, 7, 7])),
                      np.concatenate((fj, [100, 1000, 2000])),
                      np.concatenate((f_neg, [True] * 3)))

    monkeypatch.setattr(bistability, "_fold_grid", three_more_folds)
    p = ModelParams(c=220.0, delta=-20.0, theta=-7.5, transverse=GaussianBins(8))
    cs = np.linspace(100.0, 200.0, 20).tolist()
    thetas = np.linspace(-7.5, -7.0, 20).tolist()
    step7 = re.escape(repr(replace(p, c=cs[7], theta=thetas[7])))
    with pytest.raises(RuntimeError, match=rf"found [3-5] slope sign changes at {step7}"):
        bistability._trace_roots([800.0] * 20, cs, thetas, p)


# === stacked spectra ===


@pytest.mark.parametrize("profile", [PlaneWave(), GaussianBins(8), GaussianBins(64)])
@pytest.mark.parametrize("loss", [0.0, 0.1])
def test_stacked_spectra_match_output_spectrum(profile, loss):
    rng = np.random.default_rng(7)
    base = ModelParams(delta=-20.0, transverse=profile, loss_fraction=loss)
    states, params = [], []
    while len(states) < 40:
        p = replace(base, c=float(np.exp(rng.uniform(0.0, math.log(400.0)))),
                    theta=float(rng.uniform(-10.0, 10.0)))
        y = float(np.exp(rng.uniform(math.log(1.0), math.log(3e3))))
        for ss in solve_steady_states(y, p):
            if ss.stable:
                states.append(ss)
                params.append(p)
    x = np.array([ss.x for ss in states])
    x_int = np.array([ss.intensity for ss in states])
    c = np.array([p.c for p in params])
    theta = np.array([p.theta for p in params])
    sums = _system_sums(x, x_int, c, base)
    for omega in (0.0, 5e6, 1e10):
        got = np.stack(_output_noise(x, theta, *sums, _kappa_in(base), base, omega), axis=1)
        for k, (ss, p) in enumerate(zip(states, params)):
            v = output_spectrum(build_fluctuation_system(ss, p), omega).v
            ref = np.array([v[0, 0], v[0, 1], v[1, 1]])
            assert np.max(np.abs(got[k] - ref)) <= 1e-13 * np.max(np.abs(ref)), (omega, k)


# === whole traces against a step-by-step reference ===


def _reference_scan(sc, p, ts, cs, thetas):
    """The trace step by step from the public single-state functions."""
    n = ts.size
    s_phase, s_min, s_max = np.empty(n), np.empty(n), np.empty(n)
    xs, theta_eff, branches = np.empty(n), np.empty(n), []
    x_prev = None
    for i in range(n):
        p_t = replace(p, c=float(cs[i]), theta=float(thetas[i]))
        roots = [r for r in solve_steady_states(sc.drive_y, p_t) if r.stable]
        if x_prev is None:
            ss = min(roots, key=lambda r: r.intensity)
        else:
            ss = min(roots, key=lambda r: abs(math.log(max(r.intensity, 1e-300)
                                                       / max(x_prev, 1e-300))))
        x_prev = xs[i] = ss.intensity
        branches.append(ss.branch.name)
        theta_eff[i] = ss.theta_eff
        ss_n, p_n = ss, p_t
        if sc.noise_transverse == "plane" and not isinstance(p.transverse, PlaneWave):
            p_n = replace(p_t, transverse=PlaneWave())
            y_n = state_equation(ss.intensity, p_n)
            ss_n = min(solve_steady_states(y_n, p_n),
                       key=lambda r: abs(r.intensity - ss.intensity))
        ve = efficiency_matrix(output_spectrum(build_fluctuation_system(ss_n, p_n),
                                               sc.omega_hz).v, sc.eta)
        s_min[i], s_max[i], _ = quadrature_extrema(ve)
        phase = lo_phase(float(ts[i]), sc)
        vec = np.array([math.cos(phase), math.sin(phase)])
        s_phase[i] = vec @ ve @ vec
    rng = np.random.Generator(np.random.Philox(sc.seed))
    signal_f = analyzer_chain(s_phase + sc.elec_floor, sc, rng)
    shot_f = analyzer_chain(np.full(n, 1.0 + sc.elec_floor), sc, rng)
    elec_f = analyzer_chain(np.full(n, sc.elec_floor), sc, rng)
    return dict(x=xs, branch=branches, theta_eff=theta_eff, s_min=s_min, s_max=s_max,
                s_meas=calibrate_and_correct(signal_f, shot_f, elec_f),
                shot_ref=calibrate_and_correct(shot_f, shot_f, elec_f))


def _columns(trace):
    cols = {k: np.array([getattr(s, k) for s in trace.samples])
            for k in ("t_s", "c", "x", "theta_eff", "s_min", "s_max", "s_meas", "shot_ref")}
    cols["branch"] = [s.branch for s in trace.samples]
    return cols


def _assert_trace_matches(trace, ref):
    got = _columns(trace)
    for key in ("x", "theta_eff", "shot_ref"):
        assert np.array_equal(got[key], ref[key]), key
    assert got["branch"] == ref["branch"]
    for key in ("s_min", "s_max", "s_meas"):
        assert np.all(np.abs(got[key] - ref[key]) <= 1e-13 * np.abs(ref[key])), key


def _release_case(p, **kw):
    sc = ScanConfig(**{"duration_s": 0.025, "dt_s": 5e-5, "vbw_hz": 1e3, **kw})
    ts = scans._scan_times(sc)
    cs = cooperativity_decay(ts, CLOUD)
    thetas = np.full(ts.size, sc.theta0)
    return free_release_scan(sc, CLOUD, p), _reference_scan(sc, p, ts, cs, thetas)


def test_plane_wave_release_matches_the_step_by_step_reference():
    p = ModelParams(c=220.0, delta=-20.0)
    trace, ref = _release_case(p)
    assert "LOWER" in ref["branch"]  # it runs through the bistable window
    assert np.max(np.abs(np.diff(np.log(ref["x"])))) > 0.5  # and jumps off its end
    _assert_trace_matches(trace, ref)


@pytest.mark.filterwarnings("ignore:scan never crosses")
@pytest.mark.parametrize("theta0, rate", [(-1.7, 112.5), (-1.25, -112.5)])
def test_hysteretic_piezo_sweeps_match_the_step_by_step_reference(theta0, rate):
    p = ModelParams(c=50.0, delta=-20.0)
    sc = ScanConfig(drive_y=900.0, theta0=theta0, theta_rate=rate, duration_s=0.004,
                    dt_s=2e-5, vbw_hz=2500.0)
    ts = scans._scan_times(sc)
    thetas = sc.theta0 + sc.theta_rate * ts
    ref = _reference_scan(sc, p, ts, np.full(ts.size, p.c), thetas)
    assert len(set(ref["branch"])) == 2  # one jump between the branches
    _assert_trace_matches(piezo_scan(sc, p), ref)


def test_binned_release_matches_the_step_by_step_reference():
    p = ModelParams(c=220.0, delta=-20.0, transverse=GaussianBins(8))
    trace, ref = _release_case(p, dt_s=2.5e-4)
    _assert_trace_matches(trace, ref)


@pytest.mark.filterwarnings("ignore:.* on the unstable branch of the plane-wave")
def test_plane_noise_binned_release_matches_the_step_by_step_reference():
    p = ModelParams(c=220.0, delta=-20.0, transverse=GaussianBins(8))
    trace, ref = _release_case(p, dt_s=2.5e-4, noise_transverse="plane")
    _assert_trace_matches(trace, ref)


@pytest.mark.filterwarnings("ignore:.* on the unstable branch of the plane-wave")
@pytest.mark.parametrize("noise", ["model", "plane"])
def test_a_binned_trace_does_not_depend_on_the_block_size(monkeypatch, noise):
    sc = ScanConfig(duration_s=0.025, dt_s=2.5e-4, vbw_hz=1e3, noise_transverse=noise)
    p = ModelParams(c=220.0, delta=-20.0, transverse=GaussianBins(8))
    whole = _columns(free_release_scan(sc, CLOUD, p))
    n_roots = sum(len(r) for r in bistability._trace_roots(
        [sc.drive_y] * 100, cooperativity_decay(scans._scan_times(sc), CLOUD).tolist(),
        [sc.theta0] * 100, p))
    assert 100 < n_roots < bistability._BLOCK_BINS // 8  # one block by default
    # blocks of 3 steps for the roots, and of 3 roots and of 3 states, ending
    # partway through a step's roots
    monkeypatch.setattr(bistability, "_BLOCK_BINS", 3 * 8)
    assert len(list(bistability._trace_blocks(n_roots, p.transverse))) == -(-n_roots // 3)
    _assert_trace_matches(free_release_scan(sc, CLOUD, p), whole)


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_a_trace_without_drive_sits_at_zero():
    for profile, noise in ((PlaneWave(), "model"), (GaussianBins(4), "plane")):
        p = ModelParams(c=50.0, delta=-20.0, transverse=profile)
        sc = ScanConfig(drive_y=0.0, theta0=-1.0, theta_rate=100.0, duration_s=4e-4,
                        dt_s=2e-5, vbw_hz=2500.0, noise_transverse=noise)
        ts = scans._scan_times(sc)
        thetas = sc.theta0 + sc.theta_rate * ts
        ref = _reference_scan(sc, p, ts, np.full(ts.size, p.c), thetas)
        assert np.all(ref["x"] == 0.0)
        _assert_trace_matches(piezo_scan(sc, p), ref)


# === failures ===


def test_follow_names_the_first_step_without_a_stable_state():
    ts = np.array([0.0, 2e-5, 4e-5])
    roots = [[1.0], [1.0, 2.0, 3.0], [0.5]]
    with pytest.raises(RuntimeError, match=r"no stable steady state at t=4e-05"):
        scans._follow(roots, [True, True, False, True, False], ts)
    picks, names = scans._follow(roots, [True, False, False, True, True], ts)
    assert picks == [0, 3, 4] and names == ["MONOSTABLE", "UPPER", "MONOSTABLE"]


def _unstable_from(c_cut, state_terms):
    """``_state_terms`` with every root at C <= c_cut made unstable."""
    def wrapped(x_int, y_drive, c, theta, p):
        amp, at = state_terms(x_int, y_drive, c, theta, p)
        return amp, at._replace(y1=np.where(np.asarray(c) <= c_cut, -1.0, at.y1))
    return wrapped


def test_a_step_without_a_stable_state_stops_the_scan(monkeypatch, capsys):
    sc = ScanConfig(duration_s=4e-4, dt_s=2e-5, vbw_hz=2500.0)
    ts = scans._scan_times(sc)
    c_cut = float(cooperativity_decay(ts, CLOUD)[7])
    monkeypatch.setattr(bistability, "_state_terms",
                        _unstable_from(c_cut, bistability._state_terms))
    with pytest.raises(RuntimeError, match=f"no stable steady state at t={ts[7]}"):
        free_release_scan(sc, CLOUD, ModelParams(c=220.0, delta=-20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = main(["release", "--scan.duration_s=0.0004", "--scan.dt_s=2e-05",
                   "--scan.vbw_hz=2500"])
    assert rc == 2
    assert f"no stable steady state at t={ts[7]}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_schedule_leaving_the_model_domain_is_rejected_by_name(bad):
    sc = ScanConfig(duration_s=4e-4, dt_s=2e-5, vbw_hz=2500.0)
    ts = scans._scan_times(sc)
    p = ModelParams(c=50.0, delta=-20.0)
    thetas = np.full(ts.size, -1.0)
    thetas[5] = bad
    with pytest.raises(ValueError, match="theta must be finite"):
        scans._run_scan(sc, p, ts, np.full(ts.size, 50.0), thetas)
    cs = np.full(ts.size, 50.0)
    cs[3] = -1.0
    with pytest.raises(ValueError, match="cooperativity must be >= 0"):
        scans._run_scan(sc, p, ts, cs, np.full(ts.size, -1.0))
