"""Steady-state model core: state equation, folds, branches, inversion."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from cavsqueeze import (
    Branch,
    GaussianBins,
    ModelParams,
    PlaneWave,
    bin_layout,
    cooperativity_from_amplitudes,
    critical_point,
    gaussian_susceptibility_limit,
    peak_transmission,
    solve_steady_states,
    state_equation,
    state_equation_slope,
    turning_points,
)
from cavsqueeze import bistability
from cavsqueeze.bistability import (
    _bin_sums,
    _curvature_fdf,
    _fold_grid,
    _fold_window,
    _gauss_legendre_01,
    _grid_sums,
    _layout,
    _response,
    _slope_minima,
)
from cavsqueeze.spectra import _bin_columns


def absorptive(c, delta=0.0, theta=0.0, transverse=None):
    return ModelParams(
        c=c, delta=delta, theta=theta,
        transverse=transverse if transverse is not None else PlaneWave(),
    )


# === state equation: pinned values ===

def test_empty_cavity_on_resonance():
    assert state_equation(1.0, absorptive(0.0)) == 1.0


def test_empty_cavity_detuned():
    assert state_equation(1.0, absorptive(0.0, theta=1.0)) == pytest.approx(2.0, rel=1e-15)


def test_plane_wave_substitution():
    # X=1, C=100, on both resonances: Y = (1 + 200/2)^2
    y = state_equation(1.0, absorptive(100.0))
    assert y == pytest.approx(10201.0, rel=1e-14)


def test_gaussian_closed_form_value():
    # X=1, C=100: Y = (1 + 200 ln 2)^2, frozen to 1.9496e4
    y_expect = (1.0 + 200.0 * math.log(2.0)) ** 2
    assert y_expect == pytest.approx(1.9496379e4, rel=1e-7)
    p = absorptive(100.0, transverse=GaussianBins(256))
    assert state_equation(1.0, p) == pytest.approx(y_expect, rel=1e-10)


def test_gaussian_susceptibility_against_quadrature():
    # independent oracle: G(X) = integral_0^1 ds/(A + s X)
    for delta in (0.0, -20.0, 7.5):
        a = 1.0 + delta * delta
        for x in (1e-3, 0.7, 42.0, 1e3):
            ref, _ = quad(lambda s: 1.0 / (a + s * x), 0.0, 1.0, epsrel=1e-12)
            assert gaussian_susceptibility_limit(x, a) == pytest.approx(ref, rel=1e-10)
            p = absorptive(50.0, delta=delta, transverse=GaussianBins(256))
            y = state_equation(x, p)
            y_ref = x * ((1 + 2 * 50.0 * ref) ** 2 + (2 * 50.0 * delta * ref) ** 2)
            assert y == pytest.approx(y_ref, rel=1e-6)


def test_gaussian_bins_converge_to_log_limit():
    xs = np.geomspace(1e-3, 1e3, 257)
    for delta in (-30.0, -20.0, 0.0, 17.0, 30.0):
        a = 1.0 + delta * delta
        p = ModelParams(c=100.0, delta=delta, theta=0.0,
                        transverse=GaussianBins(256))
        g = gaussian_susceptibility_limit(xs, a)
        y_lim = xs * ((1 + 200.0 * g) ** 2 + (0.0 - 200.0 * delta * g) ** 2)
        y_bin = state_equation(xs, p)
        assert np.max(np.abs(y_bin - y_lim) / y_lim) <= 1e-3


def test_weak_field_profile_independence():
    # as X -> 0 both profiles give the same linear susceptibility 2C/(1+delta^2)
    for delta in (0.0, -20.0):
        pw = absorptive(30.0, delta=delta)
        gs = absorptive(30.0, delta=delta, transverse=GaussianBins(64))
        for x in (1e-6, 1e-5, 1e-4):
            y_pw = state_equation(x, pw)
            y_gs = state_equation(x, gs)
            assert abs(y_gs - y_pw) / y_pw <= x


def test_state_equation_rejects_negative_intensity():
    with pytest.raises(ValueError):
        state_equation(-1.0, absorptive(1.0))


_PW = absorptive(50.0)
_G8 = absorptive(50.0, transverse=GaussianBins(8))


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: state_equation(math.inf, _PW), "intensity X", id="X-inf"),
    pytest.param(lambda: state_equation_slope(-5.0, _PW), "intensity X", id="slope-X-negative"),
    pytest.param(lambda: state_equation_slope(math.nan, _PW), "intensity X", id="slope-X-nan"),
    pytest.param(lambda: state_equation_slope(np.array([1.0, -1.0]), _G8), "intensity X",
                 id="slope-X-array"),
    pytest.param(lambda: solve_steady_states(math.inf, _PW), "drive intensity Y", id="steady-Y-inf"),
    pytest.param(lambda: peak_transmission(math.inf, _PW), "drive intensity Y", id="peak-Y-inf"),
    pytest.param(lambda: peak_transmission(0.0, _G8), "drive intensity Y", id="peak-Y-zero"),
    pytest.param(lambda: cooperativity_from_amplitudes(1.0, 2.0, _PW, drive_y=math.nan),
                 "drive intensity Y", id="coop-Y-nan"),
    pytest.param(lambda: critical_point(_PW, x_max=-1.0), "x_max", id="critical-negative"),
    pytest.param(lambda: critical_point(_G8, x_max=math.nan), "x_max", id="critical-nan"),
    pytest.param(lambda: turning_points(_G8, x_max=math.inf), "x_max", id="turning-gauss-inf"),
    pytest.param(lambda: turning_points(_PW, x_max=math.inf), "x_max", id="turning-plane-inf"),
    pytest.param(lambda: turning_points(_PW, x_max=0.0), "x_max", id="turning-zero"),
])
def test_public_entry_points_reject_bad_inputs(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_bin_layout_normalization():
    u, w = bin_layout(PlaneWave())
    assert u.tolist() == [1.0] and w.tolist() == [1.0]
    for m in (1, 2, 7, 32, 256):
        u, w = bin_layout(GaussianBins(m))
        assert len(u) == m
        assert np.sum(w * u * u) == pytest.approx(1.0, rel=1e-13)
        assert np.all(u > 0) and np.all(u < 1) and np.all(w > 0)


def test_cached_layout_is_read_only_and_matches_the_nodes():
    for prof in (PlaneWave(), GaussianBins(1), GaussianBins(8), GaussianBins(64)):
        layout = _layout(prof)
        assert _layout(prof) is layout
        for a in layout:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        u, w, s, ws = layout
        assert np.array_equal(s, u * u) and np.array_equal(ws, w * s)
        assert all(a is b for a, b in zip(bin_layout(prof), (u, w)))
        if isinstance(prof, GaussianBins):
            nodes, v = _gauss_legendre_01(prof.m)
            assert np.array_equal(u, np.sqrt(nodes)) and np.array_equal(w, v / nodes)
        else:
            assert u.tolist() == [1.0] and w.tolist() == [1.0]


@pytest.mark.parametrize("m", [0, -3, 2.5, 8.0, True, False, "8", None])
def test_gaussian_bins_reject_a_count_that_is_not_a_positive_integer(m):
    with pytest.raises(ValueError, match="bin count m"):
        GaussianBins(m)


def test_gaussian_bins_take_a_numpy_integer_count():
    prof = GaussianBins(np.int64(8))
    assert prof == GaussianBins(8)
    assert np.array_equal(bin_layout(prof)[0], bin_layout(GaussianBins(8))[0])


# === derivatives ===

def test_slope_matches_finite_difference():
    rng = np.random.default_rng(20260822)
    for _ in range(40):
        p = ModelParams(
            c=float(rng.uniform(0, 300)),
            delta=float(rng.uniform(-25, 25)),
            theta=float(rng.uniform(-5, 5)),
            transverse=GaussianBins(16) if rng.random() < 0.5 else PlaneWave(),
        )
        x = float(rng.uniform(0.1, 50.0)) * (1.0 + p.delta ** 2)
        h = 1e-6 * x
        fd = (state_equation(x + h, p) - state_equation(x - h, p)) / (2 * h)
        assert state_equation_slope(x, p) == pytest.approx(fd, rel=2e-6, abs=1e-9)


def test_curvature_matches_finite_difference():
    for transverse in (PlaneWave(), GaussianBins(16)):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = ModelParams(
                c=float(rng.uniform(0, 100)),
                delta=float(rng.uniform(-10, 10)),
                theta=float(rng.uniform(-3, 3)),
                transverse=transverse,
            )
            x = float(rng.uniform(0.5, 20.0)) * (1.0 + p.delta ** 2)
            h = 1e-5 * x
            fd = (state_equation_slope(x + h, p) - state_equation_slope(x - h, p)) / (2 * h)
            assert _response(x, p).y2 == pytest.approx(fd, rel=5e-5, abs=1e-10)


def test_curvature_derivative_matches_finite_difference():
    for transverse in (PlaneWave(), GaussianBins(16)):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = ModelParams(
                c=float(rng.uniform(0, 100)),
                delta=float(rng.uniform(-10, 10)),
                theta=float(rng.uniform(-3, 3)),
                transverse=transverse,
            )
            x = float(rng.uniform(0.5, 20.0)) * (1.0 + p.delta ** 2)
            y2, y3 = _curvature_fdf(p)((p.c, p.theta))(x)
            assert y2 == pytest.approx(_response(x, p).y2, rel=1e-12)
            # Richardson-extrapolated central difference of d2Y/dX2
            f = lambda t: _curvature_fdf(p)((p.c, p.theta))(t)[0]
            h = 1e-3 * x
            wide = (f(x + h) - f(x - h)) / (2 * h)
            narrow = (f(x + h / 2) - f(x - h / 2)) / h
            assert y3 == pytest.approx((4 * narrow - wide) / 3, rel=1e-9)


def test_slope_minima_match_bisection():
    # Newton on d2Y/dX2 lands where a bisection to round-off does
    def bisect(f, lo, hi):
        while hi - lo > 4 * np.finfo(float).eps * hi:
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for m, c, delta, theta in [(64, 150.0, -20.0, -7.5), (16, 100.0, 3.0, 0.0),
                               (8, 30.0, 1.0, -2.0), (64, 8.3112565261436, 0.0, 0.0),
                               (16, 400.0, -1.0, 3.0)]:
        p = ModelParams(c=c, delta=delta, theta=theta, transverse=GaussianBins(m))
        cs, thetas = np.array([p.c]), np.array([p.theta])
        grid, (step, steps, *_) = _fold_grid(p, 1e-9, 1e4, cs, thetas)
        minima = _slope_minima(grid, p, cs, thetas, step, steps)
        assert minima.size == steps.size >= 1
        for x, i in zip(minima, steps):
            ref = bisect(lambda t: _response(t, p).y2, grid[i], grid[i + 1])
            assert abs(x - ref) <= 1e-12 * ref, (p, x, ref)


# === turning points and the critical point ===

def test_no_folds_without_atoms():
    tp = turning_points(absorptive(0.0))
    assert tp.points == () and not tp.bistable


def test_absorptive_fold_positions():
    # X_fold = (C-1) +- sqrt(C^2-4C): frozen for C=8 -> 7 -+ sqrt(32)
    tp = turning_points(absorptive(8.0))
    assert tp.bistable
    lo, hi = tp.points
    assert lo == pytest.approx(7.0 - math.sqrt(32.0), rel=1e-9)
    assert hi == pytest.approx(7.0 + math.sqrt(32.0), rel=1e-9)
    y_lo, y_hi = tp.ordinates
    assert y_lo > y_hi  # lower fold sits at the higher drive


def test_marginal_cooperativity_reports_no_fold():
    # C=4 is the absorptive onset: slope touches zero without crossing
    tp = turning_points(absorptive(4.0))
    assert not tp.bistable and tp.points == ()


def test_critical_point_absorptive():
    c, x, y = critical_point(absorptive(1.0))
    assert abs(c - 4.0) <= 1e-6
    assert abs(x - 3.0) <= 1e-6
    assert abs(y - 27.0) <= 1e-6


def test_critical_point_detuned_is_consistent():
    p = ModelParams(c=1.0, delta=-20.0, theta=0.0)
    c, x, y = critical_point(p)
    pc = ModelParams(c=c, delta=-20.0, theta=0.0)
    at = _response(x, pc)
    assert abs(at.y1) <= 1e-6 * y / x
    assert abs(at.y2) <= 1e-6 * y / x ** 2
    assert state_equation(x, pc) == pytest.approx(y, rel=1e-12)


# === steady-state roots ===

def test_linear_cavity_root():
    states = solve_steady_states(5.0, absorptive(0.0, theta=2.0))
    assert len(states) == 1
    s = states[0]
    assert s.intensity == pytest.approx(1.0, rel=1e-12)
    assert s.branch is Branch.MONOSTABLE and s.stable


def test_marginal_root_at_onset():
    states = solve_steady_states(27.0, absorptive(4.0))
    assert len(states) == 1
    # the drive meets the response where it is locally cubic; float noise in
    # Y near the degenerate point limits X to ~ cbrt(eps) accuracy
    assert states[0].intensity == pytest.approx(3.0, abs=1e-3)


def test_three_roots_against_dense_sweep():
    p = absorptive(10.0)
    tp = turning_points(p)
    y_mid = 0.5 * (tp.ordinates[0] + tp.ordinates[1])
    states = solve_steady_states(y_mid, p)
    assert [s.branch for s in states] == [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
    assert [s.stable for s in states] == [True, False, True]
    # independent oracle: sign changes of Y(X) - y_mid on a dense grid
    grid = np.geomspace(1e-6, y_mid, 400001)
    resid = state_equation(grid, p) - y_mid
    idx = np.flatnonzero(np.sign(resid[:-1]) != np.sign(resid[1:]))
    assert len(idx) == 3
    for s, i in zip(states, idx):
        assert abs(s.intensity - grid[i]) <= grid[i + 1] - grid[i]


def test_root_residuals_and_invariants():
    rng = np.random.default_rng(123)
    for _ in range(60):
        p = ModelParams(
            c=float(rng.uniform(0, 250)),
            delta=float(rng.uniform(-25, 25)),
            theta=float(rng.uniform(-4, 4)),
            transverse=GaussianBins(8) if rng.random() < 0.5 else PlaneWave(),
        )
        y = float(rng.uniform(0.01, 100.0)) * (1.0 + p.delta ** 2)
        states = solve_steady_states(y, p)
        assert 1 <= len(states) <= 3
        for s in states:
            assert abs(state_equation(s.intensity, p) - y) / y <= 1e-9
            assert s.intensity <= y * (1 + 1e-12)
            assert abs(abs(s.x) ** 2 - s.intensity) <= 1e-9 * max(s.intensity, 1.0)
            _, _, d, _, _ = _bin_columns(s, p)
            assert np.all((0.0 < d) & (d <= 1.0))
            if s.branch is Branch.MIDDLE:
                assert not s.stable
        if isinstance(p.transverse, PlaneWave):
            u, w, _, _, _ = _bin_columns(states[0], p)
            assert u.tolist() == [1.0] and w.tolist() == [1.0]


# independent route: the plane-wave state equation times (X + A)^2 is a cubic
# in X, built here in exact rationals from the float inputs

def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _padd(p, q, sign=1):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return [a + sign * b for a, b in zip(p, q)]


def _exact_cubics(c, delta, theta, y):
    """(F, H), lowest power first: F = 0 at the roots, H = 0 at the folds."""
    c, delta, theta, y = (Fraction(v) for v in (c, delta, theta, y))
    a_sat = 1 + delta * delta
    absorb = [a_sat + 2 * c, Fraction(1)]
    disperse = [theta * a_sat - 2 * c * delta, theta]
    n = _pmul([Fraction(0), Fraction(1)],
              _padd(_pmul(absorb, absorb), _pmul(disperse, disperse)))
    u = [a_sat, Fraction(1)]
    f = _padd(n, [y * v for v in _pmul(u, u)], -1)
    dn = [k * v for k, v in enumerate(n)][1:]
    h = _padd(_pmul(dn, u), [2 * v for v in n], -1)
    return f, h[:4]


def _discriminant(cubic):
    d, c, b, a = cubic
    return (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)


def _mid_window_drive(c, delta, theta):
    _, h = _exact_cubics(c, delta, theta, 0.0)
    folds = [r.real for r in np.roots([float(v) for v in h[::-1]])
             if abs(r.imag) == 0.0 and r.real > 0.0]
    assert len(folds) == 2
    p = ModelParams(c=c, delta=delta, theta=theta)
    return 0.5 * sum(state_equation(x, p) for x in folds)


def test_near_critical_absorptive_roots():
    # the fold pair (width ~0.008) is narrower than a fixed grid can resolve
    p = absorptive(4.0 * (1.0 + 1e-6))
    states = solve_steady_states(27.000036, p)
    assert [s.branch for s in states] == [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
    assert [s.stable for s in states] == [True, False, True]
    xs = [s.intensity for s in states]
    assert xs == pytest.approx([2.99308, 3.00000, 3.00694], abs=1e-5)
    assert turning_points(p) == turning_points(p, x_max=27.000036)


@pytest.mark.parametrize("c, delta, theta", [
    (150.12888 * (1.0 + 1e-6), -20.0, -12.0),
    (8.447839 * (1.0 + 1e-6), 3.0, 1.0),
])
def test_near_critical_dispersive_roots(c, delta, theta):
    p = ModelParams(c=c, delta=delta, theta=theta)
    y = _mid_window_drive(c, delta, theta)
    states = solve_steady_states(y, p)
    assert [s.branch for s in states] == [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
    tp = turning_points(p)
    assert tp.bistable
    assert tp == turning_points(p, x_max=y)


@pytest.mark.parametrize("m, delta, theta, c_crit", [
    (8, 0.0, 0.0, 8.26115),
    (64, -20.0, -7.5, None),
    (64, 3.0, 1.0, None),
])
def test_near_critical_gaussian_folds(m, delta, theta, c_crit):
    # the fold pair is narrower than a step of the fold search's grid
    p = ModelParams(c=1.0, delta=delta, theta=theta, transverse=GaussianBins(m))
    c_found, x_crit, _ = critical_point(p)
    p = ModelParams(c=(c_crit or c_found) * (1.0 + 1e-6), delta=delta, theta=theta,
                    transverse=GaussianBins(m))
    tp = turning_points(p)
    assert tp.bistable
    wide = turning_points(p, x_max=1e4 * (1.0 + delta ** 2))
    assert tp.points == pytest.approx(wide.points, rel=1e-10)
    # independent oracle: sign changes of dY/dX on a dense grid
    grid = np.linspace(0.98 * x_crit, 1.02 * x_crit, 20001)
    slopes = state_equation_slope(grid, p)
    idx = np.flatnonzero(np.sign(slopes[:-1]) != np.sign(slopes[1:]))
    assert len(idx) == 2
    for x, i in zip(tp.points, idx):
        assert grid[i] <= x <= grid[i + 1]
    y_mid = 0.5 * sum(tp.ordinates)
    states = solve_steady_states(y_mid, p)
    assert [s.branch for s in states] == [Branch.LOWER, Branch.MIDDLE, Branch.UPPER]
    assert [s.stable for s in states] == [True, False, True]
    assert states[0].intensity < tp.points[0] < states[1].intensity < tp.points[1]
    assert tp.points[1] < states[2].intensity


def test_binned_grid_sums_cache_is_transparent_and_read_only():
    p = ModelParams(c=150.0, delta=-20.0, theta=-7.5, transverse=GaussianBins(64))

    def run():
        states = solve_steady_states(3000.0, p)
        return ([(s.intensity, s.slope, s.x) for s in states], turning_points(p),
                critical_point(p))

    _grid_sums.cache_clear()
    cold = run()
    assert len(cold[0]) == 3 and cold[1].bistable
    assert _grid_sums.cache_info().currsize == 2  # roots and folds share one; C search
    assert run() == cold
    assert _grid_sums.cache_info().currsize == 2
    # the unit sums, scaled by powers of A, agree with a full evaluation
    xi_lo, xi_max = 1e-9, 100.0
    xi, tp, tq, tr, ts = _grid_sums(p.transverse, xi_lo, xi_max)
    grid, _ = _fold_grid(p, xi_lo, xi_max, np.array([p.c]), np.array([p.theta]))
    assert np.array_equal(grid, 401.0 * np.geomspace(xi_lo, xi_max, 4096))
    direct = _response(grid, p)
    unit = _bin_sums(xi, p.transverse, 1.0)
    for a, b, k in zip(unit, direct[:3], (1, 2, 3)):  # G, G', G''
        assert np.max(np.abs(a / 401.0 ** k - b) / np.abs(b)) <= 4e-15
    # and so do the cached fold tables, to round-off in the terms they sum
    u, v = p.c * (1.0 - p.delta * p.theta), p.c * p.c
    for terms, b in (((1.0 + p.theta ** 2, u * tp / 401.0, v * tq / 401.0), direct.y1),
                     ((u * tr / 401.0 ** 2, v * ts / 401.0 ** 2), direct.y2)):
        scale = sum(np.abs(t) for t in terms)
        assert np.max(np.abs(sum(terms) - b) / scale) <= 1e-13
    for a in _grid_sums(p.transverse, xi_lo, xi_max):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # the fold grid is in X / (1 + delta^2): one table serves every delta
    _grid_sums.cache_clear()
    for delta in (-20.0, 3.0):
        turning_points(ModelParams(c=150.0, delta=delta, theta=-7.5,
                                   transverse=GaussianBins(64)))
    assert _grid_sums.cache_info().currsize == 1


def test_fold_window_is_a_power_of_ten_at_or_above_the_drive():
    for xi in (1e-3, 99.0, 100.0, np.nextafter(100.0, math.inf), 1e3,
               np.nextafter(1e3, math.inf), np.nextafter(1e3, 0.0), 3e7, 1e300):
        w = _fold_window(float(xi))
        assert w >= max(xi, 100.0)
        assert w == 10.0 ** round(math.log10(w))
        assert w / 10.0 < max(xi, 100.0)  # the smallest such power


def test_binned_roots_across_fold_windows(monkeypatch):
    # the upper fold lies at X/A = 280, between the windows 100 and 1e3
    p = ModelParams(c=100.0, delta=3.0, theta=0.0, transverse=GaussianBins(16))
    a = 1.0 + p.delta ** 2
    tp = turning_points(p, x_max=1e3 * a)
    assert tp.bistable and tp.points[0] < 100.0 * a < tp.points[1]

    windows = []
    folds = bistability._binned_folds
    monkeypatch.setattr(bistability, "_binned_folds", lambda q, xi_max, *steps:
                        windows.append(xi_max) or folds(q, xi_max, *steps))
    # Y/A = 99, 100, the float after 100, 1e3 and a float just above 1e3
    ys = [float(y) for y in (99.0 * a, 100.0 * a, np.nextafter(100.0 * a, math.inf),
                             1e3 * a, np.nextafter(1e3 * a, math.inf))]
    assert [y / a for y in ys[:4]] == [99.0, 100.0, np.nextafter(100.0, math.inf), 1e3]
    assert ys[4] / a > 1e3
    counts, searched = [], []
    for y in ys:
        windows.clear()
        states = solve_steady_states(y, p)
        assert len(windows) == 1 and windows[0] >= y / a
        searched.append(windows[0])
        # independent reference: sign changes of Y(X) - Y, refined by brentq
        grid = np.geomspace(1e-6 * y, y, 20001)
        resid = state_equation(grid, p) - y
        idx = np.flatnonzero(np.sign(resid[:-1]) != np.sign(resid[1:]))
        ref = [brentq(lambda x: state_equation(x, p) - y, grid[i], grid[i + 1],
                      xtol=1e-300, rtol=4 * np.finfo(float).eps) for i in idx]
        assert len(states) == len(ref)
        for s, x in zip(states, ref):
            assert abs(s.intensity - x) <= 1e-12 * x
        counts.append(len(states))
    assert counts == [1, 1, 1, 3, 3]
    assert searched == [100.0, 100.0, 1e3, 1e3, 1e4]


@pytest.mark.parametrize("m", [8, 64])
def test_binned_roots_far_above_both_fold_ordinates(m):
    # at Y/A = 1e5-1e7 the lower bracket edge Y / (4 max factor) lies above the
    # lower fold and below the upper one, and only the upper one may split it
    for delta in (0.0, 3.0):
        p = ModelParams(c=100.0, delta=delta, theta=0.0, transverse=GaussianBins(m))
        a = 1.0 + delta ** 2
        tp = turning_points(p, x_max=1e7 * a)
        assert tp.bistable
        ys = [f * a for f in (1e4, 1e5, 1e6, 1e7)]
        rows = bistability._trace_roots(ys, [p.c] * 4, [p.theta] * 4, p)
        for y, row in zip(ys, rows):
            # independent reference: sign changes of Y(X) - Y, refined by brentq
            grid = np.geomspace(1e-6 * y, y, 20001)
            resid = state_equation(grid, p) - y
            idx = np.flatnonzero(np.sign(resid[:-1]) != np.sign(resid[1:]))
            ref = [brentq(lambda x: state_equation(x, p) - y, grid[i], grid[i + 1],
                          xtol=1e-300, rtol=4 * np.finfo(float).eps) for i in idx]
            states = solve_steady_states(y, p)
            assert row == [s.intensity for s in states]
            assert len(states) == len(ref), (m, delta, y)
            for s, x in zip(states, ref):
                assert abs(s.intensity - x) <= 1e-12 * x
            if y > max(tp.ordinates):
                assert [s.branch for s in states] == [Branch.MONOSTABLE]


def test_plane_wave_roots_against_exact_discriminant():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        p = ModelParams(
            c=float(np.exp(rng.uniform(0.0, np.log(500.0)))),
            delta=float(rng.uniform(-30.0, 30.0)),
            theta=float(rng.uniform(-10.0, 10.0)),
        )
        y = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e4))))
        disc = _discriminant(_exact_cubics(p.c, p.delta, p.theta, y)[0])
        states = solve_steady_states(y, p)
        assert len(states) == (3 if disc > 0 else 1), (p, y)
        for s in states:
            assert abs(state_equation(s.intensity, p) - y) <= 1e-9 * y
            assert s.stable == (state_equation_slope(s.intensity, p) > 0.0)


def test_theta_eff_is_the_response_detuning_on_every_branch():
    rng = np.random.default_rng(1313)
    for prof in (PlaneWave(), GaussianBins(8), GaussianBins(64)):
        seen = set()
        for _ in range(30):
            p = ModelParams(
                c=float(rng.uniform(20.0, 250.0)),
                delta=float(rng.uniform(-25.0, 25.0)),
                theta=float(rng.uniform(-8.0, 8.0)),
                transverse=prof,
            )
            tp = turning_points(p)
            if tp.bistable and rng.random() < 0.7:
                y = float(rng.uniform(*sorted(tp.ordinates)))
            else:
                y = float(rng.uniform(0.01, 100.0)) * (1.0 + p.delta ** 2)
            for s in solve_steady_states(y, p):
                assert s.theta_eff == _response(s.intensity, p).disperse
                seen.add(s.branch)
        assert seen == set(Branch)


def test_drive_gauge_is_real_positive():
    # the reported x has the phase that makes the drive amplitude real > 0:
    # y_amp = (1 + i theta) x + 2C sum w u p must come out real positive
    rng = np.random.default_rng(99)
    for _ in range(25):
        p = ModelParams(
            c=float(rng.uniform(0, 150)),
            delta=float(rng.uniform(-22, 22)),
            theta=float(rng.uniform(-3, 3)),
        )
        y = float(rng.uniform(0.1, 50.0)) * (1.0 + p.delta ** 2)
        for s in solve_steady_states(y, p):
            u, w, _, p_re, p_im = _bin_columns(s, p)
            pol = complex(np.sum(w * u * p_re), np.sum(w * u * p_im))
            y_amp = complex(1.0, p.theta) * s.x + 2.0 * p.c * pol
            assert abs(y_amp.imag) <= 1e-9 * abs(y_amp)
            assert y_amp.real > 0
            assert abs(y_amp.real - math.sqrt(y)) <= 1e-9 * math.sqrt(y)


def test_zero_drive_is_dark():
    states = solve_steady_states(0.0, absorptive(50.0))
    assert len(states) == 1 and states[0].intensity == 0.0
    with pytest.raises(ValueError):
        solve_steady_states(-1.0, absorptive(1.0))


# === cooperativity inversion ===

def test_peak_transmission_empty_cavity():
    assert peak_transmission(17.0, absorptive(0.0, theta=1.5)) == pytest.approx(17.0, rel=1e-12)


def _largest_root(h, y: float) -> float:
    # last sign change of h - Y on a dense log grid, refined by brentq
    grid = np.geomspace(1e-12 * y, y, 20001)
    below = np.flatnonzero(h(grid) < y)
    return brentq(lambda x: h(x) - y, grid[below[-1]], grid[below[-1] + 1],
                  xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


# C, delta, theta, Y: h(X) = X (1 + 2CG)^2 is non-monotone in all but the
# first and fifth cases; h = Y has three roots in the last case (and in
# the third for a plane wave)
_PEAK_CASES = [(3.0, 0.0, 0.0, 10.0), (100.0, 0.0, 0.0, 40.0),
               (100.0, 0.0, 0.0, 2000.0), (60.0, 2.0, 1.0, 300.0),
               (220.0, -20.0, 0.0, 5000.0), (500.0, 1.0, -3.0, 1e5)]


@pytest.mark.parametrize("c, delta, theta, y", _PEAK_CASES)
def test_peak_transmission_plane_wave_against_cubic(c, delta, theta, y):
    # X (A + X + 2C)^2 = Y (A + X)^2, highest power first
    a = 1.0 + delta * delta
    coeffs = np.polymul([1.0, 0.0], np.polymul([1.0, a + 2.0 * c], [1.0, a + 2.0 * c]))
    coeffs = np.polysub(coeffs, y * np.polymul([1.0, a], [1.0, a]))
    roots = np.roots(coeffs)
    x_ref = max(r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r))
    x = peak_transmission(y, absorptive(c, delta=delta, theta=theta))
    assert abs(x - x_ref) <= 1e-12 * x_ref


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("c, delta, theta, y", _PEAK_CASES)
def test_peak_transmission_gaussian_against_brentq(m, c, delta, theta, y):
    xi, lam = np.polynomial.legendre.leggauss(m)
    s, v = (xi + 1.0) / 2.0, lam / 2.0     # G = sum_j v_j / (A + s_j X)
    a = 1.0 + delta * delta
    h = lambda x: x * (1.0 + 2.0 * c * (v / (a + np.multiply.outer(x, s))).sum(-1)) ** 2
    x_ref = _largest_root(h, y)
    x = peak_transmission(y, absorptive(c, delta=delta, theta=theta,
                                        transverse=GaussianBins(m)))
    assert abs(x - x_ref) <= 1e-10 * x_ref


@pytest.mark.parametrize("c", [0.3, 2.0])
def test_cooperativity_roundtrip_small_c(c):
    p = absorptive(c, delta=1.0)
    y = 25.0
    c_back = cooperativity_from_amplitudes(peak_transmission(y, p), y, p)
    assert abs(c_back - c) <= 2e-12 * c


def test_cooperativity_ratio_one_means_no_atoms():
    assert cooperativity_from_amplitudes(3.0, 3.0, absorptive(1.0)) == 0.0


def test_cooperativity_roundtrip_plane_wave():
    p = absorptive(100.0)
    y = 900.0
    peak = peak_transmission(y, p)
    c = cooperativity_from_amplitudes(peak, y, p)
    assert abs(c - 100.0) <= 1e-4


def test_cooperativity_roundtrip_detuned_operating_point():
    p = ModelParams()  # C=220, delta=-20
    tp = turning_points(p)
    y = 0.9 * tp.ordinates[1]
    peak = peak_transmission(y, p)
    c = cooperativity_from_amplitudes(peak, y, p, drive_y=y)
    assert abs(c - 220.0) <= 1e-4 * 220.0


def test_cooperativity_rejects_ratio_above_one():
    with pytest.raises(ValueError):
        cooperativity_from_amplitudes(4.0, 3.0, absorptive(1.0))


# Near the absorptive threshold C = 4(1 + delta^2) of h the fold pair of h
# is narrower than any fixed grid step; the largest root must still be found.
@pytest.mark.parametrize("c, delta, transverse, y, x_peak", [
    (40.00004, -3.0, PlaneWave(), 270.0003599520799, 30.0592517),
    (8.261231390496881, 0.0, GaussianBins(8), 246.3840085309749, 13.7420977),
], ids=["plane", "gauss8"])
def test_peak_transmission_near_threshold_pinned(c, delta, transverse, y, x_peak):
    x = peak_transmission(y, absorptive(c, delta=delta, transverse=transverse))
    assert abs(x - x_peak) <= 1e-8 * x_peak


def _plane_h(x, c, a):
    return x * (1.0 + 2.0 * c / (a + x)) ** 2


@pytest.mark.parametrize("eps", [10.0 ** -k for k in range(2, 9)])
def test_peak_transmission_plane_wave_near_threshold_sweep(eps):
    # at C = 4A(1 + eps) h has its folds at X = C - A -+ sqrt(C (C - 4A));
    # a drive between their ordinates gives h = Y three roots
    for delta in (0.0, -3.0, 2.5):
        a = 1.0 + delta * delta
        c = 4.0 * a * (1.0 + eps)
        r = math.sqrt(c * (c - 4.0 * a))
        y_max, y_min = _plane_h(c - a - r, c, a), _plane_h(c - a + r, c, a)
        for frac in (0.1, 0.5, 0.9):
            y = y_min + frac * (y_max - y_min)
            x = peak_transmission(y, absorptive(c, delta=delta, theta=1.0))
            assert abs(_plane_h(x, c, a) - y) <= 1e-14 * y
            # every root lies at or below Y, since h(X) >= X: h - Y keeps
            # its sign above the returned X, so no root lies 1e-6 above it
            grid = np.linspace(x * (1.0 + 1e-6), y, 1_000_001)
            assert np.all(_plane_h(grid, c, a) > y), (delta, frac)


def test_cooperativity_rejects_a_ratio_inside_a_branch_jump_gap():
    # at delta = theta = 0 the state equation is h: three roots at this drive,
    # and only the largest is a cavity scan's peak
    p = absorptive(100.0)
    lower, middle, upper = solve_steady_states(2000.0, p)
    for state in (lower, middle):
        with pytest.raises(ValueError, match="branch-jump gap"):
            cooperativity_from_amplitudes(state.intensity, 2000.0, p)
    assert abs(cooperativity_from_amplitudes(upper.intensity, 2000.0, p) - 100.0) <= 1e-12 * 100.0


def test_cooperativity_rejects_a_ratio_with_no_finite_cooperativity():
    # the ratio 1e-600 rounds to 0, which only C = inf would give
    with pytest.raises(ValueError, match="peak ratio 0"):
        cooperativity_from_amplitudes(1e-300, 1e300, absorptive(1.0))


@pytest.mark.parametrize("transverse", [PlaneWave(), GaussianBins(8), GaussianBins(64)],
                         ids=["plane", "gauss8", "gauss64"])
def test_cooperativity_roundtrip_random_points(transverse):
    # C -> peak -> C over the ranges of the benchmark's operating-point queries
    rng = np.random.default_rng(15)
    for _ in range(100):
        c = float(np.exp(rng.uniform(0.0, math.log(500.0))))
        delta, theta = float(rng.uniform(-30.0, 30.0)), float(rng.uniform(-10.0, 10.0))
        y = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e4))))
        p = ModelParams(c=c, delta=delta, theta=theta, transverse=transverse)
        c_back = cooperativity_from_amplitudes(peak_transmission(y, p), y, p)
        assert abs(c_back - c) <= 1e-11 * c, (c, delta, theta, y)
