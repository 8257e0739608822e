"""Tests for the linearized quantum-noise spectra of the transmitted field."""

import dataclasses

import numpy as np
import pytest

from cavsqueeze import spectra
from cavsqueeze import (
    GaussianBins,
    ModelParams,
    PlaneWave,
    build_fluctuation_system,
    drift_eigenvalues,
    efficiency_matrix,
    output_spectrum,
    quadrature_extrema,
    solve_steady_states,
    state_equation,
    state_equation_slope,
    turning_points,
)

KAPPA = 2.5e6


def _single_stable_state(y, p):
    roots = [r for r in solve_steady_states(y, p) if r.stable]
    assert roots, "expected at least one stable root"
    return roots[0]


def _spectrum_at(p, y, omega_hz, pick=0):
    roots = [r for r in solve_steady_states(y, p) if r.stable]
    ss = roots[pick]
    fs = build_fluctuation_system(ss, p)
    return output_spectrum(fs, omega_hz)


# === output spectrum basics ===


def test_empty_cavity_output_is_vacuum():
    p = ModelParams(c=0.0, theta=2.7)
    for omega in (0.0, 0.3 * KAPPA, KAPPA, 4.0 * KAPPA):
        q = _spectrum_at(p, 5.0, omega)
        assert np.max(np.abs(q.v - np.eye(2))) < 1e-12


def test_decoupled_eigenvalues_without_atoms():
    p = ModelParams(c=0.0, delta=3.0, theta=0.0)
    ss = _single_stable_state(1e-8, p)
    fs = build_fluctuation_system(ss, p)
    eig = np.sort_complex(drift_eigenvalues(fs))
    gamma, gpar = p.gamma_hz, p.gamma_par_hz
    expected = np.sort_complex(
        np.array(
            [
                -KAPPA,
                -KAPPA,
                -gamma * (1 + 1j * p.delta),
                -gamma * (1 - 1j * p.delta),
                -gpar,
            ]
        )
    )
    assert np.allclose(eig, expected, rtol=1e-9, atol=1e-3)


def test_high_frequency_rolloff_to_vacuum():
    p = ModelParams(c=220.0, delta=-20.0, theta=-7.5)
    ss = _single_stable_state(100.0, p)
    fs = build_fluctuation_system(ss, p)
    for mult in (20.0, 50.0, 200.0):
        omega = mult * KAPPA
        q = output_spectrum(fs, omega)
        assert np.max(np.abs(q.v - np.eye(2))) <= 10.0 * (KAPPA / omega) ** 2


def test_negative_or_bad_frequency_rejected():
    p = ModelParams(c=0.0)
    ss = _single_stable_state(1.0, p)
    fs = build_fluctuation_system(ss, p)
    with pytest.raises(ValueError):
        output_spectrum(fs, -1.0)
    with pytest.raises(ValueError):
        output_spectrum(fs, float("nan"))


# === passivity, positivity, uncertainty ===


def test_vacuum_input_stays_vacuum_at_weak_drive():
    x = 1e-6
    for c in (0.0, 10.0, 220.0, 500.0):
        for delta in (-30.0, 0.0, 30.0):
            for theta in (-10.0, 0.0, 10.0):
                p = ModelParams(c=c, delta=delta, theta=theta)
                y = state_equation(x, p)
                q = _spectrum_at(p, y, 0.7 * KAPPA)
                assert np.max(np.abs(q.v - np.eye(2))) <= 1e-6


def test_uncertainty_product_and_positivity_on_random_states():
    rng = np.random.default_rng(2214)
    checked = 0
    while checked < 120:
        p = ModelParams(
            c=float(np.exp(rng.uniform(0.0, np.log(500.0)))),
            delta=float(rng.uniform(-30.0, 30.0)),
            theta=float(rng.uniform(-10.0, 10.0)),
        )
        y = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e4))))
        stable = [r for r in solve_steady_states(y, p) if r.stable]
        if not stable:
            continue
        ss = stable[rng.integers(len(stable))]
        fs = build_fluctuation_system(ss, p)
        q = output_spectrum(fs, float(rng.uniform(0.0, 10.0 * KAPPA)))
        assert q.s_min > -1e-9
        assert q.s_min * q.s_max >= 1.0 - 1e-9
        checked += 1


def test_atom_number_does_not_move_the_spectrum():
    x = 10.0
    base = ModelParams(c=220.0, delta=-20.0, theta=-7.5, n_atoms=1e5)
    y = state_equation(x, base)
    q_lo = _spectrum_at(base, y, KAPPA)
    q_hi = _spectrum_at(ModelParams(c=220.0, delta=-20.0, theta=-7.5, n_atoms=1e7), y, KAPPA)
    assert np.max(np.abs(q_lo.v - q_hi.v)) < 1e-6 * np.max(np.abs(q_lo.v))


def test_extra_loss_channel_stays_passive_and_dilutes_squeezing():
    clean = ModelParams(c=163.0, delta=-20.0, theta=-13.0)
    lossy = ModelParams(c=163.0, delta=-20.0, theta=-13.0, loss_fraction=0.3)
    # vacuum in, vacuum out, loss or not
    y0 = state_equation(1e-6, lossy)
    q0 = _spectrum_at(lossy, y0, KAPPA)
    assert np.max(np.abs(q0.v - np.eye(2))) <= 1e-6
    # at a squeezing state the lost fraction drags the minimum toward shot noise
    y = 265.0
    q_clean = _spectrum_at(clean, y, 2.0 * KAPPA)
    q_lossy = _spectrum_at(lossy, y, 2.0 * KAPPA)
    assert q_clean.s_min < 1.0
    assert q_clean.s_min < q_lossy.s_min < 1.0


# === drift-diffusion form against the channel form ===


def _channel_form_spectrum(ss, p, omega_hz):
    """V from white input channels: vacuum at the input mirror, a separate
    vacuum loss port and three atomic channels per bin, each propagated
    through (-iΩ - A)^(-1) B, the reflected input subtracted."""
    kappa, gamma, gpar = p.kappa_hz, p.gamma_hz, p.gamma_par_hz
    a = build_fluctuation_system(ss, p).a
    _, bin_w, bin_d, bin_p1, bin_p2 = spectra._bin_columns(ss, p)
    n, m = a.shape[0], bin_w.size
    kappa_in = kappa * (1.0 - p.loss_fraction)
    n_chan = 4 + 3 * m
    b = np.zeros((n, n_chan))
    psd = np.zeros((n_chan, n_chan))
    b[0, 0] = b[1, 1] = np.sqrt(2.0 * kappa_in)
    b[0, 2] = b[1, 3] = np.sqrt(2.0 * kappa * p.loss_fraction)
    psd[:4, :4] = np.eye(4)
    sigma_cav = 2.0 * kappa * p.c / (p.n_atoms * gpar)
    for j in range(m):
        i, c0 = 2 + 3 * j, 4 + 3 * j
        b[i:i + 3, c0:c0 + 3] = np.eye(3)
        p1, p2 = bin_p1[j], bin_p2[j]
        psd[c0:c0 + 3, c0:c0 + 3] = np.array([
            [2.0 * gamma ** 2 / gpar, 0.0, -gpar * p1],
            [0.0, 2.0 * gamma ** 2 / gpar, -gpar * p2],
            [-gpar * p1, -gpar * p2, 2.0 * gpar * (1.0 - bin_d[j])],
        ]) / (bin_w[j] * p.n_atoms * sigma_cav)
    resp = np.linalg.solve(-1j * omega_hz * np.eye(n) - a, b)
    w_out = np.sqrt(2.0 * kappa_in) * resp[:2, :]
    w_out[0, 0] -= 1.0
    w_out[1, 1] -= 1.0
    v = np.real(w_out @ psd @ w_out.conj().T)
    return 0.5 * (v + v.T)


def test_output_spectrum_matches_channel_form():
    rng = np.random.default_rng(8101)
    profiles = (PlaneWave(), GaussianBins(m=8), GaussianBins(m=64))
    checked = 0
    while checked < 240:
        p = ModelParams(
            c=float(np.exp(rng.uniform(np.log(2.0), np.log(300.0)))),
            delta=float(rng.uniform(-25.0, 25.0)),
            theta=float(rng.uniform(-10.0, 10.0)),
            loss_fraction=(0.0, 0.1)[(checked // 3) % 2],
            gamma_par_ratio=(2.0, 1.2)[(checked // 6) % 2],
            transverse=profiles[checked % 3],
        )
        y = float(np.exp(rng.uniform(np.log(1.0), np.log(3e3))))
        roots = solve_steady_states(y, p)
        ss = roots[rng.integers(len(roots))]
        omega = (0.0, 0.5 * KAPPA, 5.0 * KAPPA, 1e10)[(checked // 12) % 4]
        v = output_spectrum(build_fluctuation_system(ss, p), omega).v
        ref = _channel_form_spectrum(ss, p, omega)
        assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref)), (p, y, omega)
        checked += 1


def _dense_spectrum(fs, omega_hz):
    """V from one dense solve: the cavity rows R of (-iΩ - A)^(-1), then
    V = I + 2 kappa_in Re(R D R^H - R_c - R_c^H)."""
    n = fs.a.shape[0]
    r = np.linalg.solve((-1j * omega_hz * np.eye(n) - fs.a).T, np.eye(n, 2)).T
    r_c = r[:, :2]
    v = np.eye(2) + 2.0 * fs.kappa_in_hz * np.real(r @ fs.d @ r.conj().T - r_c - r_c.conj().T)
    return 0.5 * (v + v.T)


def test_output_spectrum_matches_dense_solve():
    """The per-bin closed form against a dense solve on every root, the
    unstable middle ones included."""
    rng = np.random.default_rng(20261018)
    profiles = (PlaneWave(), GaussianBins(m=8), GaussianBins(m=64))
    omegas = (0.0, 0.5 * KAPPA, 5.0 * KAPPA, 1e10)
    states = draws = 0
    while states < 600:
        p = ModelParams(
            c=float(np.exp(rng.uniform(np.log(2.0), np.log(300.0)))),
            delta=float(rng.uniform(-25.0, 25.0)),
            theta=float(rng.uniform(-10.0, 10.0)),
            loss_fraction=(0.0, 0.1)[(draws // 3) % 2],
            gamma_par_ratio=float(rng.uniform(0.2, 2.0)),
            transverse=profiles[draws % 3],
        )
        tp = turning_points(p)
        if tp.bistable and draws % 2:  # inside the window: three roots
            y = float(rng.uniform(min(tp.ordinates), max(tp.ordinates)))
        else:
            y = float(np.exp(rng.uniform(np.log(1.0), np.log(3e3))))
        for ss in solve_steady_states(y, p):
            fs = build_fluctuation_system(ss, p)
            for omega in omegas:
                v = output_spectrum(fs, omega).v
                ref = _dense_spectrum(fs, omega)
                assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref)), (p, y, omega)
            states += 1
        draws += 1


def test_output_spectrum_never_forms_the_dense_system(monkeypatch):
    def dense(*args):
        raise AssertionError("the spectrum assembled a dense matrix")

    monkeypatch.setattr(spectra, "_drift_matrix", dense)
    monkeypatch.setattr(spectra, "_diffusion_matrix", dense)
    for transverse in (PlaneWave(), GaussianBins(m=64)):
        p = ModelParams(c=163.0, delta=-20.0, theta=-13.0, transverse=transverse)
        for ss in solve_steady_states(265.0, p):
            fs = build_fluctuation_system(ss, p)
            for omega in (0.0, 5e6):
                assert np.all(np.isfinite(output_spectrum(fs, omega).v))
    with pytest.raises(AssertionError):
        fs.a


def test_dense_matrices_are_read_only_and_assembled_once():
    p = ModelParams(c=30.0, delta=-5.0, theta=-2.0, transverse=GaussianBins(m=8))
    fs = build_fluctuation_system(solve_steady_states(50.0, p)[0], p)
    assert fs.a.shape == fs.d.shape == (2 + 3 * 8, 2 + 3 * 8)
    assert fs.a is fs.a and fs.d is fs.d
    for m in (fs.a, fs.d):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fs.a = np.zeros((26, 26))


def test_singular_response_is_reported():
    p = ModelParams(c=30.0, delta=-5.0, theta=-2.0)
    fs = build_fluctuation_system(solve_steady_states(50.0, p)[0], p)
    with pytest.raises(RuntimeError, match="singular at omega_hz=0.0"):
        output_spectrum(dataclasses.replace(fs, sat=float("inf")), 0.0)


def test_diffusion_matrix_is_symmetric_and_positive_semidefinite():
    rng = np.random.default_rng(4016)
    checked = 0
    while checked < 200:
        p = ModelParams(
            c=float(np.exp(rng.uniform(0.0, np.log(300.0)))),
            delta=float(rng.uniform(-25.0, 25.0)),
            theta=float(rng.uniform(-10.0, 10.0)),
            gamma_par_ratio=float(rng.uniform(0.2, 2.0)),
            loss_fraction=float(rng.uniform(0.0, 0.5)),
            transverse=GaussianBins(m=8) if checked % 4 == 0 else PlaneWave(),
        )
        tp = turning_points(p)
        if tp.bistable:  # mid-window, where the middle root is unstable
            y = float(np.mean(tp.ordinates))
        else:
            y = float(np.exp(rng.uniform(np.log(1e-1), np.log(5e3))))
        for ss in solve_steady_states(y, p):
            d = build_fluctuation_system(ss, p).d
            assert np.array_equal(d, d.T)
            eig = np.linalg.eigvalsh(d)
            assert eig[0] >= -1e-12 * eig[-1], (p, y, ss.branch)
            checked += 1


# === stability bookkeeping ===


def test_lower_branch_drift_is_stable():
    p = ModelParams(c=220.0, delta=-20.0)
    tp = turning_points(p)
    y = 0.9 * min(tp.ordinates)
    ss = [r for r in solve_steady_states(y, p) if r.stable][0]
    fs = build_fluctuation_system(ss, p)
    assert np.max(np.real(drift_eigenvalues(fs))) < 0.0


def test_middle_branch_drift_is_unstable():
    p = ModelParams(c=8.0, delta=0.0, theta=0.0)
    tp = turning_points(p)
    y = 0.5 * (min(tp.ordinates) + max(tp.ordinates))
    roots = solve_steady_states(y, p)
    middle = [r for r in roots if r.branch.name == "MIDDLE"][0]
    fs = build_fluctuation_system(middle, p)
    assert np.max(np.real(drift_eigenvalues(fs))) > 0.0


def test_slope_sign_matches_drift_stability():
    """The state-equation slope and the drift eigenvalues grade stability
    identically; any disagreement is reported sample by sample."""
    rng = np.random.default_rng(990817)
    mismatches = []
    checked = 0
    while checked < 150:
        p = ModelParams(
            c=float(np.exp(rng.uniform(0.0, np.log(300.0)))),
            delta=float(rng.uniform(-25.0, 25.0)),
            theta=float(rng.uniform(-8.0, 8.0)),
        )
        y = float(np.exp(rng.uniform(np.log(1e-1), np.log(5e3))))
        for ss in solve_steady_states(y, p):
            slope = state_equation_slope(ss.intensity, p)
            if abs(slope) < 1e-8 * max(1.0, y / max(ss.intensity, 1e-12)):
                continue  # too close to a fold to grade either way
            fs = build_fluctuation_system(ss, p)
            max_re = np.max(np.real(drift_eigenvalues(fs)))
            if (slope > 0) != (max_re < 0):
                mismatches.append(
                    f"c={p.c:.3f} delta={p.delta:.3f} theta={p.theta:.3f} "
                    f"y={y:.4g} x={ss.intensity:.4g}: slope={slope:.3e} "
                    f"max-Re-eig={max_re:.3e}"
                )
            checked += 1
    assert not mismatches, "stability gradings disagree:\n" + "\n".join(mismatches)


def test_noise_diverges_approaching_a_fold():
    p = ModelParams(c=8.0, delta=0.0, theta=0.0)
    tp = turning_points(p)
    y_fold = max(tp.ordinates)
    prev = 0.0
    values = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        q = _spectrum_at(p, y_fold * (1.0 - eps), 0.0)
        values.append(q.s_max)
        assert q.s_max > prev
        prev = q.s_max
    assert values[-1] > 10.0 * values[0]


def test_dipole_decay_slower_than_population_limit_rejected():
    p = ModelParams(c=10.0, gamma_par_ratio=2.3)
    ss = _single_stable_state(1.0, p)
    with pytest.raises(ValueError):
        build_fluctuation_system(ss, p)


# === quadrature extrema and the detection chain ===


def test_quadrature_extrema_pinned_values():
    s_min, s_max, theta = quadrature_extrema(np.diag([0.6, 1.8]))
    assert abs(s_min - 0.6) < 1e-12
    assert abs(s_max - 1.8) < 1e-12
    assert theta == 0.0

    s_min, s_max, theta = quadrature_extrema(np.eye(2))
    assert (s_min, s_max, theta) == (1.0, 1.0, 0.0)

    s_min, s_max, theta = quadrature_extrema(np.array([[1.2, 0.3], [0.3, 1.2]]))
    assert abs(s_min - 0.9) < 1e-12
    assert abs(s_max - 1.5) < 1e-12
    assert abs(theta - 0.75 * np.pi) < 1e-12


def test_quadrature_extrema_rejects_a_matrix_that_is_not_2x2():
    with pytest.raises(ValueError, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
        quadrature_extrema(np.eye(3))


def test_quadrature_extrema_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        quadrature_extrema(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_quadrature_angle_diagonalizes_the_matrix():
    rng = np.random.default_rng(33)
    for _ in range(50):
        m = rng.normal(size=(2, 2))
        v = m @ m.T + 0.05 * np.eye(2)
        s_min, s_max, theta = quadrature_extrema(v)
        direction = np.array([np.cos(theta), np.sin(theta)])
        assert abs(direction @ v @ direction - s_min) < 1e-10
        assert s_min <= s_max
        assert 0.0 <= theta < np.pi


def test_efficiency_matrix_pinned_values():
    ve = efficiency_matrix(np.diag([1.0, 0.0]), 0.9)
    assert abs(ve[0, 0] - 1.0) < 1e-15
    assert abs(ve[1, 1] - 0.1) < 1e-15
    assert ve[0, 1] == 0.0 and ve[1, 0] == 0.0
    assert abs(efficiency_matrix(np.diag([0.33, 0.33]), 0.9)[0, 0] - 0.397) < 1e-15
    with pytest.raises(ValueError):
        efficiency_matrix(np.diag([0.5, 0.5]), 0.0)
    with pytest.raises(ValueError):
        efficiency_matrix(np.diag([0.5, 0.5]), 1.2)


def test_efficiency_matrix_matches_scalar_map_on_eigenvalues():
    v = np.array([[0.8, 0.25], [0.25, 1.9]])
    ve = efficiency_matrix(v, 0.85)
    s_min, s_max, theta = quadrature_extrema(v)
    e_min, e_max, theta_e = quadrature_extrema(ve)
    assert abs(e_min - (0.85 * s_min + (1 - 0.85))) < 1e-12
    assert abs(e_max - (0.85 * s_max + (1 - 0.85))) < 1e-12
    assert abs(theta - theta_e) < 1e-12


# === squeezing in the measurement regime ===


def test_release_path_reaches_deep_sub_shot_noise():
    """Scanning the cooperativity range a released cloud passes through, the
    best bare squeezing at the 5 MHz analysis frequency lands between 30%
    and 40% below shot noise."""
    best = 2.0
    for c in np.geomspace(2.0, 220.0, 120):
        p = ModelParams(c=float(c), delta=-20.0, theta=-7.5)
        for ss in solve_steady_states(800.0, p):
            if not ss.stable:
                continue
            fs = build_fluctuation_system(ss, p)
            q = output_spectrum(fs, 5e6)
            best = min(best, q.s_min)
    assert 0.60 <= best < 0.70


def test_gaussian_profile_spectrum_stays_physical():
    p = ModelParams(c=163.0, delta=-20.0, theta=-13.0, transverse=GaussianBins(m=16))
    for ss in solve_steady_states(265.0, p):
        if not ss.stable:
            continue
        fs = build_fluctuation_system(ss, p)
        assert fs.a.shape == (2 + 3 * 16, 2 + 3 * 16)
        q = output_spectrum(fs, 5e6)
        assert q.s_min * q.s_max >= 1.0 - 1e-9
        assert q.s_min > -1e-9


# at the default model 1/|sigma_j|^2 is subnormal from Y of about 1e150 on;
# V at 1e140, pinned bit for bit
_V_AT_1E140 = {
    PlaneWave(): [[1.0, -3.5762786865234373e-14], [-3.5762786865234373e-14, 1761.0]],
    GaussianBins(8): [[0.9999999999999984, -4.768371582031249e-14],
                      [-4.768371582031249e-14, 1760.9999999999993]],
}


@pytest.mark.parametrize("transverse", list(_V_AT_1E140))
def test_atomic_noise_underflow_raises_instead_of_negative_noise(transverse):
    p = ModelParams(transverse=transverse)
    ss = _single_stable_state(1e140, p)
    assert output_spectrum(build_fluctuation_system(ss, p), 0.0).v.tolist() == \
        _V_AT_1E140[transverse]
    for y in (1e158, 1e160):
        ss = _single_stable_state(y, p)
        with pytest.raises(RuntimeError, match="atomic noise underflows at omega_hz=0.0"):
            output_spectrum(build_fluctuation_system(ss, p), 0.0)
        # the stacked path of a trace
        one = [np.array([v]) for v in (ss.x, ss.intensity, p.c, p.theta)]
        with pytest.raises(RuntimeError, match="atomic noise underflows"):
            spectra._trace_noise(*one, p, 0.0)
        # an empty cavity weights no bin against 1/|sigma_j|^2
        empty = dataclasses.replace(p, c=0.0)
        q = output_spectrum(build_fluctuation_system(_single_stable_state(y, empty), empty), 0.0)
        assert q.s_min == q.s_max == 1.0


@pytest.mark.parametrize("transverse", list(_V_AT_1E140))
def test_a_pivot_beyond_the_float_range_raises_the_underflow_error(transverse):
    # from X of about 1.3e295 the pivot gamma gamma_par X overflows and
    # 1/sigma_j is NaN, which the underflow test missed: the plane wave raised
    # the singular-response error, the binned profile a RuntimeWarning
    p = ModelParams(transverse=transverse)
    ss = _single_stable_state(1e300, p)
    with pytest.raises(RuntimeError, match="atomic noise underflows at omega_hz=0.0"):
        output_spectrum(build_fluctuation_system(ss, p), 0.0)
    one = [np.array([v]) for v in (ss.x, ss.intensity, p.c, p.theta)]
    with pytest.raises(RuntimeError, match="atomic noise underflows"):
        spectra._trace_noise(*one, p, 0.0)
