"""Tests for the array passes of the scan engine against the scalar API.

A plane-wave trace's roots must agree with the single-step exact cubics to
round-off, and a binned trace's must equal the single-step solve exactly; the
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
    state_equation_slope,
    turning_points,
)
from cavsqueeze import bistability, scans
from cavsqueeze.bistability import _distinct, _plane_roots
from cavsqueeze.cli import main
from cavsqueeze.cloud import cooperativity_decay
from cavsqueeze.spectra import _kappa_in, _output_noise, _system_sums

CLOUD = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0)


# === plane-wave trace roots against the exact cubics ===


def _plane_trace_rows(ys, cs, delta, thetas):
    """Each step's roots from the root locus of a plane-wave trace, beside
    those of the single-step exact cubic ``_plane_roots``."""
    rows = bistability._trace_roots(ys, cs, thetas, ModelParams(delta=delta))
    assert rows.shape == (len(ys), 3)
    for y, c, theta, row in zip(ys, cs, thetas, rows.tolist()):
        p = ModelParams(c=c, delta=delta, theta=theta)
        ref = _distinct(_plane_roots(y, p)) if y > 0.0 else [0.0]
        yield y, p, [x for x in row if x == x], ref


def _assert_near(x, r, y, p):
    # a root near a fold is as ill-conditioned as dY/dX is small there
    assert abs(x - r) <= 1e-12 * r + 1e-13 * y / abs(state_equation_slope(r, p)), (x, r, y, p)


def _assert_on_fold(y, p, got, ref):
    """At a drive exactly on a fold ordinate, round-off decides how many roots
    the double root at the fold gives: the simple root must be there, and
    every other root within 1e-7 (relative) of a fold."""
    folds = turning_points(p, x_max=y).points

    def at_fold(x):
        return any(abs(x - f) <= 1e-7 * f for f in folds)

    simple = [r for r in ref if not at_fold(r)]
    assert simple, (y, p, ref)
    rest = [x for x in got if not at_fold(x)]
    assert len(rest) == len(simple), (y, p, got, ref)
    for x, r in zip(rest, simple):
        _assert_near(x, r, y, p)


def test_plane_wave_trace_roots_match_the_exact_cubics_on_random_steps():
    # the operating-point ranges of the benchmark's queries, 10,000 steps
    rng = np.random.default_rng(20140)
    for delta in np.linspace(-30.0, 30.0, 20).tolist():
        n = 500
        cs = np.exp(rng.uniform(0.0, math.log(500.0), n)).tolist()
        thetas = rng.uniform(-10.0, 10.0, n).tolist()
        ys = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), n)).tolist()
        for y, p, got, ref in _plane_trace_rows(ys, cs, delta, thetas):
            assert len(got) == len(ref), (y, p)
            for x, r in zip(got, ref):
                assert abs(x - r) <= 1e-13 * r, (y, p)


def test_plane_wave_trace_roots_match_the_exact_cubics_near_folds():
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
    # fold pairs tangent to round-off, the onset itself, and no drive at all
    for eps in (0.0, 1e-16, 1e-15, 1e-14, 1e-13):
        for y in (20.0, 27.0, 30.0):
            cs.append(4.0 * (1.0 + eps))
            thetas.append(0.0)
            ys.append(y)
    cs.append(50.0)
    thetas.append(0.0)
    ys.append(0.0)
    for y, p, got, ref in _plane_trace_rows(ys, cs, 0.0, thetas):
        assert len(got) == len(ref), (y, p, got, ref)
        for x, r in zip(got, ref):
            if r == 0.0:
                assert x == 0.0
            else:
                _assert_near(x, r, y, p)

    # drives exactly on a fold ordinate
    for c in (8.0, 50.0, 4.5, 20.0):
        ys = list(turning_points(ModelParams(c=c, delta=0.0, theta=0.0)).ordinates)
        for y, p, got, ref in _plane_trace_rows(ys, [c] * len(ys), 0.0, [0.0] * len(ys)):
            _assert_on_fold(y, p, got, ref)

    # the same at the release detuning, along a fold-crossing release path
    p = ModelParams(c=220.0, delta=-20.0, theta=-7.5)
    cs = cooperativity_decay(np.linspace(0.0, 0.025, 300), CLOUD).tolist()
    ys = [max(turning_points(replace(p, c=c)).ordinates, default=800.0) for c in cs]
    for y, q, got, ref in _plane_trace_rows(ys, cs, -20.0, [-7.5] * len(cs)):
        if y == 800.0:
            assert len(got) == len(ref) == 1
            _assert_near(got[0], ref[0], y, q)
        else:
            _assert_on_fold(y, q, got, ref)


# === lockstep binned roots ===


def _assert_binned_lockstep_equals_scalar(ys, cs, delta, thetas, m):
    p = ModelParams(delta=delta, transverse=GaussianBins(m))
    roots = bistability._trace_roots(ys, cs, thetas, p)
    assert roots.shape == (len(ys), 3)
    rows = [row[row == row].tolist() for row in roots]
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


# the benchmark's piezo_up sweep: C = 50, Y = 900, theta from -1.7 at 112.5 per
# second, 50 steps of 80 us
PIEZO_THETAS = (-1.7 + 112.5 * 8e-5 * np.arange(50)).tolist()


def test_lockstep_newton_equals_the_scalar_one_at_bracket_edges():
    # the piezo sweep's cells, then brackets whose root is an edge to round-off
    # (test_bistability's FLOOR_EDGES) from either end and mid-cell: one pass
    # of lockstep rounds and scalar finishes
    p = ModelParams(c=50.0, delta=-20.0)
    loc, x, sums = bistability._root_locus(p, 900.0, 50.0, np.array(PIEZO_THETAS), True)
    (i, lo, hi, start, rising), _ = bistability._level_crossings(loc, x, sums,
                                                                 np.array(PIEZO_THETAS))
    thetas = [PIEZO_THETAS[k] for k in i.tolist()]
    lo, hi, start, rising = lo.tolist(), hi.tolist(), start.tolist(), rising.tolist()
    for a, b in [(126.25178611253935, 126.2526237807717), (126.2509484443070, 126.25178611253938),
                 (126.25178611253932, 126.2526237807717), (126.2509484443070, 126.25178611253942)]:
        for x0 in (a, 0.5 * (a + b), b):
            lo, hi, start, rising = lo + [a], hi + [b], start + [x0], rising + [True]
            thetas.append(-1.403)
    n = len(thetas)
    params = (np.full(n, 50.0), np.array(thetas), np.full(n, 900.0))
    make = bistability._root_fdf(p)
    roots = bistability._newton_many(make, params, np.array(lo), np.array(hi), np.array(start),
                                     np.array(rising))
    for k, root in enumerate(roots.tolist()):
        assert root == bistability._newton(make((50.0, thetas[k], 900.0)), lo[k], hi[k],
                                           start[k], rising[k]), k
    # fewer than _LOCKSTEP_MIN brackets, with the parameters as floats
    few = slice(n - 3, n)
    assert bistability._newton_many(
        make, (50.0, -1.403, 900.0), *(np.array(v[few]) for v in (lo, hi, start, rising))
    ).tolist() == roots[few].tolist()


def test_a_piezo_trace_polishes_its_roots_in_three_lockstep_rounds(monkeypatch):
    # a rule that bisects towards roots on their cells' edges takes five rounds
    # here, and 14 scalar finishes of 236 evaluations, up to 36 for one root
    make_fdf, rounds, scalar = bistability._root_fdf, [], []

    def counting(p, slope=False):
        make = make_fdf(p, slope)

        def counted(params):
            fdf = make(params)

            def f(x):
                (rounds if isinstance(x, np.ndarray) else scalar).append(np.size(x))
                return fdf(x)
            return f
        return counted
    monkeypatch.setattr(bistability, "_root_fdf", counting)
    rows = bistability._trace_roots([900.0] * 50, [50.0] * 50, PIEZO_THETAS,
                                    ModelParams(delta=-20.0))
    assert np.count_nonzero(rows == rows) == 74
    assert len(rounds) == 3 and len(scalar) <= 20


@pytest.mark.parametrize("sweep", ["c", "theta"])
def test_a_step_with_more_than_three_crossings_raises_naming_it(monkeypatch, sweep):
    crossings = bistability._level_crossings

    def three_more(loc, x, sums, levels):
        (i, lo, hi, start, rising), knots = crossings(loc, x, sums, levels)
        if not loc.fold:
            # cells without a root in them at step 7: Newton ends at an edge
            cells = np.array([10, 100, 200])
            i, lo, hi, start = (np.concatenate(pair) for pair in (
                (i, [7] * 3), (lo, x[cells]), (hi, x[cells + 1]),
                (start, 0.5 * (x[cells] + x[cells + 1]))))
            rising = np.concatenate((rising, [True] * 3))
        return (i, lo, hi, start, rising), knots

    monkeypatch.setattr(bistability, "_level_crossings", three_more)
    p = ModelParams(c=220.0, delta=-20.0, theta=-7.5, transverse=GaussianBins(8))
    cs = np.linspace(100.0, 200.0, 20).tolist() if sweep == "c" else [150.0] * 20
    thetas = [-7.5] * 20 if sweep == "c" else np.linspace(-7.5, -7.0, 20).tolist()
    step7 = re.escape(f"Y=800.0, {replace(p, c=cs[7], theta=thetas[7])!r}")
    with pytest.raises(RuntimeError, match=rf"found [4-6] crossings .* {step7}"):
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
    kappa = base.kappa_hz
    for omega in (0.0, 0.5 * kappa, kappa, 2.0 * kappa, 5.0 * kappa, 1e10):
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
    return dict(x=xs, branch=branches, theta=thetas, theta_eff=theta_eff, s_min=s_min,
                s_max=s_max, s_meas=calibrate_and_correct(signal_f, shot_f, elec_f),
                shot_ref=calibrate_and_correct(shot_f, shot_f, elec_f))


def _assert_trace_matches(trace, ref, exact=True):
    """A trace against its step-by-step reference: x and theta_eff equal for
    a binned profile, whose single solve crosses the same root locus; to
    round-off for a plane wave (not ``exact``), whose single solve takes the
    exact cubics."""
    if exact:
        assert np.array_equal(trace.x, ref["x"])
        assert np.array_equal(trace.theta_eff, ref["theta_eff"])
    else:
        assert np.all(np.abs(trace.x - ref["x"]) <= 1e-13 * ref["x"])
        # theta_eff = theta - 2 C delta G: to round-off in its larger term
        scale = np.abs(ref["theta"]) + np.abs(ref["theta_eff"] - ref["theta"])
        assert np.all(np.abs(trace.theta_eff - ref["theta_eff"]) <= 1e-13 * scale)
    assert np.array_equal(trace.shot_ref, ref["shot_ref"])
    assert list(trace.branch) == list(ref["branch"])
    for key in ("s_min", "s_max", "s_meas"):
        got = getattr(trace, key)
        assert np.all(np.abs(got - ref[key]) <= 1e-13 * np.abs(ref[key])), key


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
    _assert_trace_matches(trace, ref, exact=False)


@pytest.mark.filterwarnings("ignore:scan never crosses")
# (-1.5, 112.5) starts with three roots, so the start rule has a choice
@pytest.mark.parametrize("theta0, rate", [(-1.7, 112.5), (-1.25, -112.5), (-1.5, 112.5)])
def test_hysteretic_piezo_sweeps_match_the_step_by_step_reference(theta0, rate):
    p = ModelParams(c=50.0, delta=-20.0)
    sc = ScanConfig(drive_y=900.0, theta0=theta0, theta_rate=rate, duration_s=0.004,
                    dt_s=2e-5, vbw_hz=2500.0)
    ts = scans._scan_times(sc)
    thetas = sc.theta0 + sc.theta_rate * ts
    ref = _reference_scan(sc, p, ts, np.full(ts.size, p.c), thetas)
    assert len(set(ref["branch"])) == 2  # one jump between the branches
    _assert_trace_matches(piezo_scan(sc, p), ref, exact=False)


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
    whole = vars(free_release_scan(sc, CLOUD, p))
    roots = bistability._trace_roots(
        [sc.drive_y] * 100, cooperativity_decay(scans._scan_times(sc), CLOUD).tolist(),
        [sc.theta0] * 100, p)
    n_roots = np.count_nonzero(roots == roots)
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
    ts = np.array([0.0, 2e-5, 4e-5, 6e-5])
    nan = math.nan
    roots = np.array([[1.0, nan, nan], [1.0, 2.0, 3.0], [0.5, nan, nan], [0.4, 2.0, nan]])
    stable = np.array([[True, False, False], [True, False, True], [False, False, False],
                       [True, True, False]])
    with pytest.raises(RuntimeError, match=r"no stable steady state at t=4e-05"):
        scans._follow(roots, stable, ts)
    stable[1, 0], stable[2, 0] = False, True
    cols, names = scans._follow(roots, stable, ts)
    assert cols.tolist() == [0, 2, 0, 0]
    assert names == ["MONOSTABLE", "UPPER", "MONOSTABLE", "LOWER"]
    # a step with two stable roots takes the one nearest in log X to the last
    roots[2, 0] = 1.5
    cols, names = scans._follow(roots, stable, ts)
    assert cols.tolist() == [0, 2, 0, 1]
    assert names == ["MONOSTABLE", "UPPER", "MONOSTABLE", "UPPER"]


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
