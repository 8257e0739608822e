"""Tests of the benchmark's reference checks.

Run with ``python -m pytest bench``.  A check that the benchmark reports as
failed should mean the program is wrong, so these tests pin the checks
themselves: they must see three roots where the exact cubic has three,
reject a root set with a root dropped, and accept the solver's output away
from the critical point.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact as ex  # noqa: E402
from cavsqueeze import GaussianBins, ModelParams, solve_steady_states, turning_points  # noqa: E402

NEAR_CRITICAL = (4.0 * (1.0 + 1e-6), 0.0, 0.0, 27.000036)


def test_near_critical_case_has_three_roots():
    f, _ = ex.cubic_coefficients(*NEAR_CRITICAL)
    assert ex.discriminant(f) > 0
    ref = ex.PlaneWaveReference(*NEAR_CRITICAL)
    assert ref.n_real == 3
    assert np.allclose(ref.roots, [2.99308, 3.00000, 3.00694], atol=1e-5)
    assert [ref.slope(x) > 0 for x in ref.roots] == [True, False, True]
    lo, hi = ex.fold_window(*NEAR_CRITICAL[:3])
    assert lo < NEAR_CRITICAL[3] < hi


def test_dropped_root_is_rejected():
    ref = ex.PlaneWaveReference(*NEAR_CRITICAL)
    xs = ref.roots
    stable = [ref.slope(x) > 0 for x in xs]
    ex.check_plane_roots(ref, xs, stable)
    for drop in range(3):
        keep = [i for i in range(3) if i != drop]
        with pytest.raises(ex.CheckError, match="missed root"):
            ex.check_plane_roots(ref, [xs[i] for i in keep], [stable[i] for i in keep])


def test_wrong_root_and_wrong_stability_are_rejected():
    ref = ex.PlaneWaveReference(50.0, -20.0, -1.5, 900.0)
    assert ref.n_real == 3
    xs = list(ref.roots)
    stable = [ref.slope(x) > 0 for x in xs]
    with pytest.raises(ex.CheckError, match="not a root"):
        ex.check_plane_roots(ref, [xs[0] * (1 + 1e-6)] + xs[1:], stable)
    with pytest.raises(ex.CheckError, match="stability"):
        ex.check_plane_roots(ref, xs, [not s for s in stable])


def test_absorptive_folds_match_closed_form():
    # C=8, delta=theta=0: folds at X = 7 -+ sqrt(32)
    ref = ex.PlaneWaveReference(8.0, 0.0, 0.0, 70.0)
    assert np.allclose(ref.folds, [7.0 - 32 ** 0.5, 7.0 + 32 ** 0.5], rtol=1e-12)
    with pytest.raises(ex.CheckError, match="turning points"):
        ex.check_plane_folds(ref, ref.folds[:1], 100.0)


def test_solver_output_accepted_on_random_points():
    rng = np.random.default_rng(7)
    for _ in range(60):
        c = float(np.exp(rng.uniform(0.0, np.log(500.0))))
        delta = float(rng.uniform(-30.0, 30.0))
        theta = float(rng.uniform(-10.0, 10.0))
        y = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e4))))
        p = ModelParams(c=c, delta=delta, theta=theta)
        roots = solve_steady_states(y, p)
        ref = ex.PlaneWaveReference(c, delta, theta, y)
        ex.check_plane_roots(ref, [r.intensity for r in roots], [r.stable for r in roots])
        ex.check_plane_folds(ref, turning_points(p).points, 100.0 * (1.0 + delta ** 2))
        pg = ModelParams(c=c, delta=delta, theta=theta, transverse=GaussianBins(8))
        roots = solve_steady_states(y, pg)
        ex.check_binned_roots([r.intensity for r in roots], [r.stable for r in roots],
                              c, delta, theta, y, 8)


def test_binned_residual_rejects_a_perturbed_root():
    p = ModelParams(c=100.0, delta=-10.0, theta=-5.0, transverse=GaussianBins(8))
    roots = solve_steady_states(500.0, p)
    xs = [r.intensity for r in roots]
    stable = [r.stable for r in roots]
    ex.check_binned_roots(xs, stable, 100.0, -10.0, -5.0, 500.0, 8)
    with pytest.raises(ex.CheckError, match="residual"):
        ex.check_binned_roots([xs[0] * (1 + 1e-6)] + xs[1:], stable, 100.0, -10.0, -5.0, 500.0, 8)


def test_spectrum_properties():
    v = np.array([[0.5, 0.1], [0.1, 2.5]])
    lo, hi = np.linalg.eigvalsh(v)
    eta = 0.9
    v_eff = eta * v + (1 - eta) * np.eye(2)
    s_eff = np.linalg.eigvalsh(v_eff)
    ex.check_spectrum(v, lo, hi, eta, v_eff, s_eff, "ok")
    squeezed_too_far = np.diag([0.5, 1.5])
    with pytest.raises(ex.CheckError, match="uncertainty"):
        ex.check_spectrum(squeezed_too_far, 0.5, 1.5, 1.0, squeezed_too_far, (0.5, 1.5), "bad")
    with pytest.raises(ex.CheckError, match="vacuum|V - I"):
        ex.check_vacuum(v, 1e-8, "bad")


def test_closed_form_decay_and_timescales():
    tau_r, tau_g = ex.cloud_timescales(4e-3, 5e-3)
    assert ex.decay(0.0, 220.0, 4e-3, 5e-3) == pytest.approx(220.0)
    assert ex.decay(tau_r, 220.0, 4e-3, 5e-3) < 110.0
    assert tau_g > 0.0
