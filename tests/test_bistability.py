"""Steady-state model core: state equation, folds, branches, inversion."""

from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from cavsqueeze import (
    Branch,
    CloudParams,
    GaussianBins,
    ModelParams,
    PlaneWave,
    ScanConfig,
    bin_layout,
    cooperativity_from_amplitudes,
    critical_point,
    free_release_scan,
    gaussian_susceptibility_limit,
    peak_transmission,
    piezo_scan,
    solve_steady_states,
    state_equation,
    state_equation_slope,
    turning_points,
)
from cavsqueeze import bistability, scans
from cavsqueeze.bistability import (
    _bin_sums,
    _curvature_fdf,
    _fold_window,
    _gauss_legendre_01,
    _grid_sums,
    _layout,
    _locus_grid,
    _reduce_bins,
    _response,
)
from cavsqueeze.cloud import cooperativity_decay
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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: solve_steady_states(800.0, ModelParams(c=1e200)), id="steady-C"),
    pytest.param(lambda: turning_points(ModelParams(c=1e300)), id="turning-C"),
    pytest.param(lambda: solve_steady_states(1e308, ModelParams()), id="steady-Y"),
    pytest.param(lambda: piezo_scan(ScanConfig(theta_rate=112.5, duration_s=4e-4, dt_s=8e-5,
                                               vbw_hz=2500.0),
                                    ModelParams(c=1e200)), id="piezo-C"),
])
def test_plane_wave_coefficients_beyond_the_float_range_raise_a_value_error(call):
    with pytest.raises(ValueError, match=r"at C=.*, delta=.*, theta=.*, Y=.* "
                                         "has coefficients beyond the float range"):
        call()


_PIEZO_1E200 = ScanConfig(theta_rate=112.5, duration_s=4e-4, dt_s=8e-5, vbw_hz=2500.0)
_RELEASE_1E200 = ScanConfig(duration_s=4e-4, dt_s=8e-5, vbw_hz=2500.0)


@pytest.mark.parametrize("transverse", [PlaneWave(), GaussianBins(8)], ids=["plane", "gauss8"])
@pytest.mark.parametrize("scan", ["piezo", "release"])
def test_a_trace_beyond_the_float_range_raises_the_input_error_naming_its_step(
        transverse, scan):
    # the root locus of every profile: dY/dX at X = 0 overflows at C = 1e200
    p = ModelParams(c=1e200, transverse=transverse)
    name = "plane-wave" if isinstance(transverse, PlaneWave) else "GaussianBins\\(m=8\\)"
    with pytest.raises(ValueError, match=rf"^the {name} state equation at C=1e\+200, "
                                         r"delta=-20.0, theta=-7.5, Y=800.0 "
                                         "has coefficients beyond the float range$"):
        if scan == "piezo":
            piezo_scan(_PIEZO_1E200, p)
        else:
            free_release_scan(_RELEASE_1E200, CloudParams(sigma_r_m=4e-3, temp_k=5e-3,
                                                          c0=1e200), p)
    # a step past the first is named by its own C, theta and Y
    with pytest.raises(ValueError, match=rf"^the {name} state equation at C=1e\+200, "
                                         r"delta=-20.0, theta=-7.2, Y=700.0 "):
        bistability._trace_roots([800.0] * 3 + [700.0] * 2, [220.0, 220.0, 220.0, 1e200, 5.0],
                                 [-7.5, -7.4, -7.3, -7.2, -7.1], p)


def _beyond(name, c, theta, y):
    return "^" + re.escape(f"the {name} state equation at C={c!r}, delta=-20.0, "
                           f"theta={theta!r}, Y={y!r} has coefficients beyond the float "
                           "range") + "$"


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("y", [4e305, 1e306])
def test_a_binned_solve_at_a_huge_drive_raises_the_input_error(m, y):
    # the 4 C X of dY/dX overflows below X = Y at 4e305, and from 5e305 on the
    # A Y of the root locus' discriminant: Gaussian-64 returned X = 4e305 with
    # dY/dX = NaN, and at 1e306 no steady state at all
    with pytest.raises(ValueError, match=_beyond(f"GaussianBins(m={m})", 220.0, 0.0, y)):
        solve_steady_states(y, ModelParams(transverse=GaussianBins(m)))


@pytest.mark.parametrize("transverse", [PlaneWave(), GaussianBins(64)], ids=["plane", "gauss64"])
def test_a_trace_at_a_huge_drive_raises_the_input_error_naming_its_step(transverse):
    # at 5e305 the release's root locus formed A Y = inf and wrote X = 0.0
    name = "plane-wave" if isinstance(transverse, PlaneWave) else "GaussianBins(m=64)"
    with pytest.raises(ValueError, match=_beyond(name, 220.0, -7.4, 5e305)):
        bistability._trace_roots(np.array([800.0, 5e305]), np.array([220.0, 220.0]),
                                 np.array([-7.5, -7.4]), ModelParams(transverse=transverse))


@pytest.mark.parametrize("m", [8, 64])
def test_a_binned_solve_and_a_trace_step_agree_at_huge_drives(m):
    # both form the same locus and Newton at the same inputs: the same roots
    # or the same input error
    p = ModelParams(transverse=GaussianBins(m))
    for y in (1e305, 2e305, 3e305, 4e305, 5e305, 1e306):
        try:
            single = [s.intensity for s in solve_steady_states(y, p)]
        except ValueError as exc:
            single = str(exc)
        try:
            row = bistability._trace_roots([y], [p.c], [p.theta], p)[0]
            trace = row[row == row].tolist()
        except ValueError as exc:
            trace = str(exc)
        assert single == trace, y
    (state,) = solve_steady_states(1e305, p)
    assert (state.intensity, state.slope) == (1e305, 1.0)


def test_a_piezo_trace_whose_discriminant_overflows_raises_the_input_error():
    # the theta(X) locus' discriminant 4 X (Y - X (1 + 2 C G)^2) overflows from
    # Y of about 1e154: at 1e160 every step returned X = 9.80e159, where the
    # single solve finds 2.57e159; a C(X) trace at that drive still fits
    p = ModelParams(c=50.0, theta=-1.7)
    with pytest.raises(ValueError, match=_beyond("plane-wave", 50.0, -1.7, 1e160)):
        bistability._trace_roots([1e160] * 3, [50.0] * 3, [-1.7, -1.6, -1.5], p)
    row = bistability._trace_roots([1e160] * 2, [50.0, 60.0], [-1.7] * 2, p)[:, 0]
    single = [solve_steady_states(1e160, dataclasses.replace(p, c=c))[0].intensity
              for c in (50.0, 60.0)]
    assert row.tolist() == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("m, c", [(64, 1e200), (8, 1e308), (8, 1e153)])
def test_binned_folds_beyond_the_float_range_raise_the_input_error(m, c):
    # Y at the fold overflowed to inf (C = 1e200, 1e308), or 8 C^2 X in
    # d2Y/dX2 did and Newton stopped 1.2 off the fold (C = 1e153)
    p = ModelParams(c=c, transverse=GaussianBins(m))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"the GaussianBins(m={m}) state equation at C={c!r}, delta=-20.0, theta=0.0, "
            "Y=0.0 has coefficients beyond the float range") + "$"):
        turning_points(p)
    # a C whose folds fit still finds them: dY/dX changes sign across each
    p = dataclasses.replace(p, c=1e152)
    tp = turning_points(p)
    assert len(tp.points) == 1 and all(map(math.isfinite, tp.ordinates))
    lo, hi = state_equation_slope(np.array(tp.points) * [[1.0 - 1e-9], [1.0 + 1e-9]], p)
    assert ((lo < 0.0) != (hi < 0.0)).all()


def test_a_steady_state_beyond_the_float_range_warns():
    # the coefficients fit, but the slope at X = Y overflows: numpy warned
    # here, and the plane wave's float response must too
    with pytest.warns(RuntimeWarning, match="overflows the float range"):
        (state,) = solve_steady_states(1e300, ModelParams(c=1e140))
    assert not math.isfinite(state.slope)


def test_plane_wave_bin_sums_are_the_one_bin_reduction_bit_for_bit():
    """The closed form G = r = 1/(X + A), -r^2, 2 r^3, -6 r^4 rounds as the
    reduction over the one plane-wave bin, and keeps a float X a float."""
    rng = np.random.default_rng(17)
    xs = np.concatenate(([0.0, 5e-324, 1e-300, 1.0, 1e150, 1e300, np.finfo(float).max],
                         np.exp(rng.uniform(-30.0, 30.0, 200))))
    for a_sat in (1.0, 1.0 + 0.3 * 0.3, 401.0, 1.0 + 1e10):
        for n in (1, 2, 3, 4):
            for x in (xs, xs.reshape(-1, 9), *xs[:40], *(np.asarray(v) for v in xs[:40])):
                got = _bin_sums(x, PlaneWave(), a_sat, n)
                ref = _reduce_bins(x, PlaneWave(), a_sat, n)
                assert len(got) == len(ref) == n
                for g, r in zip(got, ref):
                    assert np.shape(g) == np.shape(x) == np.shape(r)
                    assert np.array_equal(g, r), (x, a_sat, n)
            for x in xs[:40].tolist():
                got = _bin_sums(x, PlaneWave(), a_sat, n)
                assert all(type(g) is float for g in got)
                assert got == [float(r) for r in _reduce_bins(x, PlaneWave(), a_sat, n)]


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
            assert _response(x, p.c, p.theta, p).y2 == pytest.approx(fd, rel=5e-5, abs=1e-10)


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
            assert y2 == pytest.approx(_response(x, p.c, p.theta, p).y2, rel=1e-12)
            # Richardson-extrapolated central difference of d2Y/dX2
            f = lambda t: _curvature_fdf(p)((p.c, p.theta))(t)[0]
            h = 1e-3 * x
            wide = (f(x + h) - f(x - h)) / (2 * h)
            narrow = (f(x + h / 2) - f(x - h / 2)) / h
            assert y3 == pytest.approx((4 * narrow - wide) / 3, rel=1e-9)


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
    at = _response(x, pc.c, pc.theta, pc)
    assert abs(at.y1) <= 1e-6 * y / x
    assert abs(at.y2) <= 1e-6 * y / x ** 2
    assert state_equation(x, pc) == pytest.approx(y, rel=1e-12)


# (C, X, Y) at the critical point as bisection in C found it, to 1e-12 relative
_CRITICAL_POINTS = {
    (PlaneWave(), 0.0, 0.0): (4.0, 3.0000000000000018, 27.0),
    (PlaneWave(), -20.0, -7.5): (101.78795857194928, 87.26472713969918, 236.59357736444713),
    (PlaneWave(), 3.0, 1.0): (8.447838757969294, 14.25718549166603, 57.96040288626692),
    (PlaneWave(), 2.0, 0.5): (6.4951905283833185, 10.000000000000002, 50.00000000000033),
    (PlaneWave(), -20.0, 0.0): (53.5194068094861, 824.9058184979864, 3490.7950827317486),
    (GaussianBins(8), 0.0, 0.0): (8.26114877900909, 13.61609065506958, 246.38023931768123),
    (GaussianBins(8), -20.0, -7.5): (103.16991520029842, 196.00130499737708,
                                     546.0643137085183),
    (GaussianBins(8), 3.0, 1.0): (11.457815292600571, 51.50917542498059, 272.93601828919236),
    (GaussianBins(8), 2.0, 0.5): (10.407001258954551, 41.06814015330998, 311.4283142319568),
    (GaussianBins(8), -20.0, 0.0): (87.13996671963832, 3420.28432084647, 22303.033562474106),
    (GaussianBins(64), 0.0, 0.0): (8.311256526143552, 13.297236724807977, 248.7649082158856),
    (GaussianBins(64), -20.0, -7.5): (103.16991520029842, 196.00130499737142,
                                      546.0643137085191),
    (GaussianBins(64), 3.0, 1.0): (11.458259223505593, 51.50259236632451, 272.9564552047521),
    (GaussianBins(64), 2.0, 0.5): (10.413243050705205, 40.98676084223558, 311.75280285085546),
    (GaussianBins(64), -20.0, 0.0): (87.2035522130609, 3411.9954374863282, 22331.097598890537),
}


@pytest.mark.parametrize("transverse, delta, theta", list(_CRITICAL_POINTS))
def test_critical_point_matches_pinned_bisection(transverse, delta, theta):
    c_ref, x_ref, y_ref = _CRITICAL_POINTS[transverse, delta, theta]
    got = critical_point(ModelParams(c=1.0, delta=delta, theta=theta, transverse=transverse))
    assert all(type(v) is float for v in got)
    c, x, y = got
    assert c == pytest.approx(c_ref, rel=1e-12)
    assert x == pytest.approx(x_ref, rel=1e-11)
    assert y == pytest.approx(y_ref, rel=1e-11)


@pytest.mark.parametrize("transverse, delta, theta, exact", [
    # delta theta = 1: C^2 = (5 + X)^3 / (16 (X - 5)), least at X = 10
    (PlaneWave(), 2.0, 0.5, (15.0 * math.sqrt(3.0) / 4.0, 10.0, 50.0)),
    # one bin at s = 1/2, w = 2: G = 1/(1 + X/2), the absorptive cusp at X = 2 * 3
    (GaussianBins(1), 0.0, 0.0, (4.0, 6.0, 54.0)),
])
def test_critical_point_exact(transverse, delta, theta, exact):
    got = critical_point(ModelParams(c=1.0, delta=delta, theta=theta, transverse=transverse))
    assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("transverse, delta, theta", list(_CRITICAL_POINTS))
def test_critical_point_brackets_the_onset_of_folds(transverse, delta, theta):
    # independent of the search: a plane wave's folds come from the fold
    # cubic's discriminant, formed in integers, a binned profile's from the
    # sign changes of dY/dX (round-off decides within a few ulps of C)
    p = ModelParams(c=1.0, delta=delta, theta=theta, transverse=transverse)
    c, _, _ = critical_point(p)
    assert turning_points(dataclasses.replace(p, c=c * (1.0 - 1e-13))).points == ()
    assert turning_points(dataclasses.replace(p, c=c * (1.0 + 1e-13))).bistable


@pytest.mark.parametrize("transverse, delta, theta",
                         [k for k in _CRITICAL_POINTS if isinstance(k[0], GaussianBins)])
def test_binned_fold_count_flips_exactly_at_the_critical_point(transverse, delta, theta):
    # turning_points takes critical_point's polish as the cusp of its fold locus
    p = ModelParams(c=1.0, delta=delta, theta=theta, transverse=transverse)
    c, _, _ = critical_point(p)
    assert turning_points(dataclasses.replace(p, c=c)).points == ()
    assert turning_points(dataclasses.replace(p, c=float(np.nextafter(c, math.inf)))).bistable


@pytest.mark.parametrize("m, delta, theta", [
    (8, 2.0, -1.0), (8, 10.0, 1.0), (64, -20.0, -2.0), (64, 3.0, 0.5), (64, 2.0, 4.0),
])
def test_fold_count_flips_exactly_where_minus_one_over_c_joins_two_floats(m, delta, theta):
    # the fold locus runs in sigma = -1/C, and here -1/C rounds the polished
    # cusp's C and its next float up to one value: critical_point returns the
    # largest C of that value, so that the next float up still folds
    p = ModelParams(c=1.0, delta=delta, theta=theta, transverse=GaussianBins(m))
    c, _, _ = critical_point(p)
    assert turning_points(dataclasses.replace(p, c=c)).points == ()
    assert turning_points(dataclasses.replace(p, c=math.nextafter(c, math.inf))).bistable


@pytest.mark.parametrize("m, c, delta, theta", [
    (8, 529.5354878865377, 0.5956342029358481, 1.7785120603119164),
    (64, 1080.463482862866, -11.872230532531141, -0.044850395760997586),
])
def test_a_fold_where_the_fold_locus_in_c_passes_infinity_is_found(m, c, delta, theta):
    # the fold lies in the grid cell where Q, the C^2 term of the fold locus,
    # changes sign (X / A near 3.92): there the locus in C passes infinity
    p = ModelParams(c=c, delta=delta, theta=theta, transverse=GaussianBins(m))
    (x,) = turning_points(p).points
    assert 3.9 < x / (1.0 + delta * delta) < 3.95
    below, above = state_equation_slope(np.array([x * (1 - 1e-6), x * (1 + 1e-6)]), p)
    assert below > 0.0 > above


def test_binned_fold_counts_match_the_slope_sign_changes_at_large_c():
    # a large C pushes a fold toward the pole of the fold locus in C
    rng = np.random.default_rng(20261020)
    for _ in range(200):
        p = ModelParams(c=float(np.exp(rng.uniform(np.log(100.0), np.log(5000.0)))),
                        delta=float(rng.uniform(-30.0, 30.0)),
                        theta=float(rng.uniform(-10.0, 10.0)),
                        transverse=GaussianBins(8))
        a_sat = 1.0 + p.delta * p.delta
        slope = state_equation_slope(np.geomspace(1e-4 * a_sat, 100.0 * a_sat, 20001), p)
        flips = int(np.count_nonzero(np.diff(np.sign(slope))))
        assert len(turning_points(p).points) == flips, p


@pytest.mark.parametrize("x_max", [0.5, 2.0])
def test_critical_point_window_without_cusp_raises(x_max):
    # the absorptive cusp sits at X = 3: below X = 1 no C folds the response,
    # and up to X = 2 the fold curve still falls at the window's top
    with pytest.raises(RuntimeError, match=r"x_max=.*ModelParams"):
        critical_point(absorptive(1.0), x_max=x_max)


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
    assert _grid_sums.cache_info().currsize == 2  # roots and folds share one; fold curve
    assert run() == cold
    assert _grid_sums.cache_info().currsize == 2
    # the unit sums, scaled by powers of A, agree with a full evaluation
    xi_lo, xi_max = 1e-9, 100.0
    xi, (tg, tp, tq, tr, ts) = _grid_sums(p.transverse, xi_lo, xi_max)
    grid, (g, *_) = _locus_grid(p, xi_max)
    assert np.array_equal(grid, 401.0 * np.geomspace(xi_lo, xi_max, 4096))
    direct = _response(grid, p.c, p.theta, p)
    unit = _bin_sums(xi, p.transverse, 1.0)
    assert np.array_equal(tg, unit[0])  # the G column is the unit sum itself
    assert np.max(np.abs(g - direct.g) / direct.g) <= 4e-15
    for a, b, k in zip(unit, direct[:3], (1, 2, 3)):  # G, G', G''
        assert np.max(np.abs(a / 401.0 ** k - b) / np.abs(b)) <= 4e-15
    # and so do the cached fold tables, to round-off in the terms they sum
    u, v = p.c * (1.0 - p.delta * p.theta), p.c * p.c
    for terms, b in (((1.0 + p.theta ** 2, u * tp / 401.0, v * tq / 401.0), direct.y1),
                     ((u * tr / 401.0 ** 2, v * ts / 401.0 ** 2), direct.y2)):
        scale = sum(np.abs(t) for t in terms)
        assert np.max(np.abs(sum(terms) - b) / scale) <= 1e-13
    # the state equation from the G column, as the root locus reads it
    y_g = grid * (1.0 + p.theta ** 2 + 4.0 * u * g + 4.0 * v * 401.0 * g * g)
    assert np.max(np.abs(y_g - direct.y) / direct.y) <= 1e-13
    for a in (xi, tg, tp, tq, tr, ts):
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
    locus_grid = bistability._locus_grid
    monkeypatch.setattr(bistability, "_locus_grid", lambda q, xi_max, *top:
                        windows.append(xi_max) or locus_grid(q, xi_max, *top))
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
            assert row[row == row].tolist() == [s.intensity for s in states]
            assert len(states) == len(ref), (m, delta, y)
            for s, x in zip(states, ref):
                assert abs(s.intensity - x) <= 1e-12 * x
            if y > max(tp.ordinates):
                assert [s.branch for s in states] == [Branch.MONOSTABLE]


def _roots_between_folds(y, p):
    """Independent reference: one brentq root of Y(X) - Y on each monotone
    segment between 0, the folds of ``turning_points`` and Y."""
    edges = [0.0, *turning_points(p, x_max=y).points, y]
    resid = [state_equation(x, p) - y for x in edges]
    return [brentq(lambda x: state_equation(x, p) - y, lo, hi, xtol=1e-300,
                   rtol=4 * np.finfo(float).eps)
            for lo, hi, f_lo, f_hi in zip(edges, edges[1:], resid, resid[1:])
            if f_lo * f_hi < 0.0]


def _level_of_fold(p, y, name, lo, hi, pick):
    """The C or theta (``name``) at which fold ordinate ``pick`` (min or max)
    of the response of ``p`` is Y: a knot of the root locus at Y."""
    return brentq(lambda v: pick(turning_points(dataclasses.replace(p, **{name: v}))
                                 .ordinates) - y, lo, hi, xtol=1e-300, rtol=1e-15)


# (swept parameter, the other one fixed, drive, brackets of the two knots)
_KNOTS = [("c", dict(theta=-7.5), 800.0, ((109.0, 110.0, max), (112.0, 113.0, min))),
          ("theta", dict(c=150.0), 3000.0, ((-8.7, -8.5, max), (-5.6, -5.4, min)))]


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("name, fixed, y, knots", _KNOTS)
def test_binned_roots_inside_a_knot_cell(m, name, fixed, y, knots):
    # a level within 1e-10 of a knot of the root locus: on one side the
    # response has a root pair narrower than one cell of the locus grid
    p = ModelParams(delta=-20.0, transverse=GaussianBins(m), **fixed)
    cell = math.log(1e11) / 4095  # the grid's log step at the smallest window
    for lo, hi, pick in knots:
        knot = _level_of_fold(p, y, name, lo, hi, pick)
        levels = [knot * (1.0 - 1e-10), knot * (1.0 + 1e-10)]
        # a release shares theta and sweeps C, a piezo sweep shares C
        rows = [row[row == row].tolist() for row in bistability._trace_roots(
            [y] * 2, levels if name == "c" else [p.c] * 2,
            levels if name == "theta" else [p.theta] * 2, p)]
        assert sorted(len(r) for r in rows) == [1, 3], (name, knot)
        for v, row in zip(levels, rows):
            q = dataclasses.replace(p, **{name: v})
            ref = _roots_between_folds(y, q)
            assert len(row) == len(ref)
            for x, r in zip(row, ref):
                # a root of the narrow pair is as ill-conditioned as dY/dX is small
                assert abs(x - r) <= 1e-12 * r + 1e-13 * y / abs(state_equation_slope(r, q))
            if len(row) == 3:
                pair = min(row[1] - row[0], row[2] - row[1])
                assert pair < cell * row[1]  # narrower than a cell
            # a one-step trace is the single solve, on the root locus C(X)
            if name == "c":
                assert row == [s.intensity for s in solve_steady_states(y, q)]


@pytest.mark.parametrize("m, c, x_ref", [
    # step 8 of the Gaussian-64 benchmark release, and just below the tip's C
    (8, 109.15523448392895, 424.1956684740072),
    (64, 109.15523448392895, 424.19566847402547),
    (8, 109.20608118433053, 424.19834710743805),
    (64, 109.20608118433053, 424.19834710743805),
])
def test_binned_root_in_the_tip_cell(m, c, x_ref):
    # the root locus C(X) at delta = -20, theta = -7.5, Y = 800 is real up to
    # X_t = A Y/(delta + theta)^2 = 424.198..., where its two branches meet:
    # these roots lie in the grid cell that holds X_t (pinned from the
    # earlier per-step fold search)
    p = ModelParams(c=c, delta=-20.0, theta=-7.5, transverse=GaussianBins(m))
    x_tip = 401.0 * 800.0 / 27.5 ** 2
    states = solve_steady_states(800.0, p)
    assert len(states) == 1
    assert x_tip * (1.0 - math.log(1e11) / 4095) < states[0].intensity <= x_tip
    assert abs(states[0].intensity - x_ref) <= 1e-14 * x_ref


def test_a_binned_solve_is_row_zero_of_a_trace_through_the_same_window():
    # one set of cell rules for one level and for many: a six-step trace that
    # shares Y and theta, with every C at most the solve's, forms the same
    # locus on the same grid, and its lockstep Newton polishes the same cells
    rng = np.random.default_rng(20261020)
    for m in (8, 64):
        for _ in range(300):
            c = float(np.exp(rng.uniform(0.0, math.log(500.0))))
            delta, theta = float(rng.uniform(-30.0, 30.0)), float(rng.uniform(-10.0, 10.0))
            y = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e4))))
            p = ModelParams(c=c, delta=delta, theta=theta, transverse=GaussianBins(m))
            cs = [c, *(c * rng.uniform(0.0, 1.0, 5)).tolist()]
            row = bistability._trace_roots([y] * 6, cs, [theta] * 6, p)[0]
            assert row[row == row].tolist() == [s.intensity for s in solve_steady_states(y, p)]


def _assert_trace_counts_follow_the_discriminant(ys, cs, delta, thetas):
    rows = bistability._trace_roots(ys, cs, thetas, ModelParams(delta=delta))
    for y, c, theta, row in zip(ys, cs, thetas, rows):
        disc = _discriminant(_exact_cubics(c, delta, theta, y)[0])
        assert disc != 0
        assert np.count_nonzero(row == row) == (3 if disc > 0 else 1), (y, c, theta)


def test_plane_wave_trace_root_counts_follow_the_exact_discriminant():
    # the 500-step release of the step-by-step reference test in test_scan_engine
    sc = ScanConfig(duration_s=0.025, dt_s=5e-5, vbw_hz=1e3)
    ts = scans._scan_times(sc)
    cs = cooperativity_decay(ts, CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0))
    _assert_trace_counts_follow_the_discriminant([sc.drive_y] * ts.size, cs.tolist(), -20.0,
                                                 [sc.theta0] * ts.size)
    # criterion 09's two C = 50 sweeps through the bistable window, 1,500 steps each
    for theta0, rate in ((-1.6, 50.0), (-1.35, -50.0)):
        sc = ScanConfig(duration_s=6e-3, dt_s=4e-6, drive_y=900.0, theta0=theta0,
                        theta_rate=rate)
        ts = scans._scan_times(sc)
        _assert_trace_counts_follow_the_discriminant([sc.drive_y] * ts.size, [50.0] * ts.size,
                                                     -20.0, (theta0 + rate * ts).tolist())


def test_a_root_far_below_the_first_locus_vertex_is_found():
    # the root, near 8.02e-96 at C = 1e50, lies far below the locus grid's
    # first vertex (A 1e-9): Newton starts from X = 0 in the first cell
    p = ModelParams(c=1e50, transverse=GaussianBins(8))
    (state,) = solve_steady_states(800.0, p)
    assert abs(state_equation(state.intensity, p) / 800.0 - 1.0) <= 1e-15
    for c in (1e40, 1e100, 1e150):
        p = ModelParams(c=c, delta=-20.0, theta=-7.5)
        row = bistability._trace_roots([800.0], [c], [-7.5], p)[0]
        assert np.count_nonzero(row == row) == 1
        assert abs(state_equation(row[0], p) / 800.0 - 1.0) <= 1e-15, c


@pytest.mark.parametrize("transverse, delta, theta", [
    (GaussianBins(8), -20.0, -10.0),
    (GaussianBins(8), -20.0, -7.5),
    (GaussianBins(64), -20.0, -7.5),
    (GaussianBins(64), 0.0, 0.0),
    (PlaneWave(), 0.0, 0.0),
    (PlaneWave(), 3.0, -2.0),
])
def test_a_drive_at_the_cusp_takes_the_cusp_vertex_as_its_root(transverse, delta, theta):
    # the root locus at critical_point's Y carries its C exactly at the cusp
    # vertex, and Y(X) - Y need not change sign across the cells beside it
    p = ModelParams(delta=delta, theta=theta, transverse=transverse)
    c, _, y = critical_point(p)
    p = dataclasses.replace(p, c=c)
    row = bistability._trace_roots([y], [c], [theta], p)[0]
    for xs in ([s.intensity for s in solve_steady_states(y, p)], row[row == row].tolist()):
        assert xs
        for x in xs:
            assert abs(state_equation(x, p) / y - 1.0) <= 1e-13, x
    # the absorptive cusp itself, C = 4 and Y = 27
    p = ModelParams(c=4.0, delta=0.0, theta=0.0)
    row = bistability._trace_roots([27.0], [4.0], [0.0], p)[0]
    assert row[0] == row[0]
    for x in row[row == row].tolist():
        assert abs(state_equation(x, p) / 27.0 - 1.0) <= 1e-13, x


def test_newton_raises_at_its_cap_naming_the_bracket():
    # every Newton step leaves the bracket: 200 bisections stop 6e-61 short
    with pytest.raises(RuntimeError, match=r"no root to round-off in \[0.0, 1.0\] in 200 "
                                           r"steps; the last bracket is \[0.0, "):
        bistability._newton(lambda x: (x - 1e-300, x - 1e-300), 0.0, 1.0, 1.0, True)


def _counted(fdf):
    """``fdf`` and the list of the points it is called at."""
    calls = []

    def counted(x):
        calls.append(x)
        return fdf(x)
    return counted, calls


def test_newton_spends_200_evaluations_before_its_cap():
    fdf, calls = _counted(lambda x: (x - 1e-300, x - 1e-300))
    with pytest.raises(RuntimeError, match="200 steps"):
        bistability._newton(fdf, 0.0, 1.0, 1.0, True)
    assert len(calls) == 200


def test_newton_breaks_a_newton_cycle():
    # from 0, plain Newton on x^3 - 2x + 2 cycles 0, 1, 0, 1, ...
    fdf, calls = _counted(lambda x: (x * x * x - 2.0 * x + 2.0, 3.0 * x * x - 2.0))
    x = bistability._newton(fdf, -3.0, 1.0, 0.0, True)
    assert abs(x + 1.7692923542386314) <= 2.0 * np.spacing(1.77)
    assert len(calls) <= 7


# piezo_up's step at theta = -1.403 (C = 50, delta = -20, Y = 900): Y(X) - Y
# is at its noise floor, a few ulps of Y, over some twenty floats of X around
# its root, and 0.0 at X = 126.25178611253936
FLOOR_STEP = ModelParams(c=50.0, delta=-20.0), (50.0, -1.403, 900.0)
FLOOR_EDGES = [
    # (lo, hi, evaluations from mid-cell): the root is lo (f(lo) < 0 at the
    # float below the zero), it is hi, and three ulps inside lo and inside hi
    (126.25178611253935, 126.2526237807717, 3),
    (126.2509484443070, 126.25178611253938, 5),
    (126.25178611253932, 126.2526237807717, 3),
    (126.2509484443070, 126.25178611253942, 3),
]


@pytest.mark.parametrize("lo, hi, evaluations", FLOOR_EDGES)
@pytest.mark.parametrize("rising", [True, False])
def test_newton_takes_a_root_at_a_bracket_edge_in_a_few_evaluations(lo, hi, evaluations,
                                                                    rising):
    # each Newton step from mid-cell lands on the edge or just past it, or
    # inside at twice the bisection step before it: a rule that bisects there
    # halves its way to a root at lo, or three ulps inside it, in 33-34
    # evaluations
    p, params = FLOOR_STEP
    step = bistability._root_fdf(p)(params)
    sign = 1.0 if rising else -1.0
    fdf, calls = _counted(lambda x: tuple(sign * v for v in step(x)))
    assert fdf(lo)[0] * sign < 0.0 < fdf(hi)[0] * sign
    calls.clear()
    x = bistability._newton(fdf, lo, hi, 0.5 * (lo + hi), rising)
    assert len(calls) <= evaluations
    assert abs(x - 126.25178611253936) <= 12.0 * np.spacing(x)
    assert abs(step(x)[0]) <= 4.0 * np.spacing(900.0)


def test_critical_point_stops_within_a_few_newton_evaluations(monkeypatch):
    # at the noise floor of d2Y/dX2 the steps stop shrinking: a Newton that
    # waits there for a 2 eps step takes a mean of 8.9 evaluations per cusp
    # over these draws, and up to 50
    newton, counts = bistability._newton, []

    def counting(fdf, *args):
        counted, calls = _counted(fdf)
        try:
            return newton(counted, *args)
        finally:
            counts.append(len(calls))
    monkeypatch.setattr(bistability, "_newton", counting)
    rng = np.random.default_rng(20261022)
    for profile in (PlaneWave(), GaussianBins(8), GaussianBins(64)):
        for _ in range(60):
            p = ModelParams(delta=float(rng.uniform(-30.0, 30.0)),
                            theta=float(rng.uniform(-10.0, 10.0)), transverse=profile)
            try:
                critical_point(p)
            except RuntimeError:  # no cusp in the window: no Newton either
                pass
    assert len(counts) >= 150
    assert sum(counts) / len(counts) < 6.8
    assert max(counts) <= 6


@pytest.mark.parametrize("c", [1e32, 1e40, 1e100, 1e140, 1e150])
def test_a_plane_wave_root_far_below_its_segment_is_found(c):
    # the root cubic's root, near 8.02e-60 at C = 1e32, lies below the
    # segment [0, 401] / 2^200, where Newton from the top cancels in x - f/f'
    p = ModelParams(c=c)
    (state,) = solve_steady_states(800.0, p)
    assert 0.0 < state.intensity < 1e-50 and state.stable
    assert abs(state_equation(state.intensity, p) / 800.0 - 1.0) <= 1e-15


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
                assert s.theta_eff == _response(s.intensity, p.c, p.theta, p).disperse
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
