"""Tests for released-cloud cooperativity decay, Monte Carlo, and fitting."""

import warnings

import numpy as np
import pytest

from cavsqueeze import (
    CloudParams,
    CooperativitySample,
    cooperativity_decay,
    fit_cooperativity,
    mc_cooperativity,
    read_samples,
)

# a 4 mm cloud at 5 mK: expansion and fall timescales a few ms and ~160 ms
CLOUD = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0)


# === closed-form decay ===


def test_timescale_anchors():
    assert abs(CLOUD.sigma_v_m_s - 0.55928) < 1e-4
    assert abs(CLOUD.tau_r_s - 7.1520e-3) < 1e-6
    assert abs(CLOUD.tau_g_s - 0.161308) < 1e-5


def test_decay_pinned_ratios():
    assert cooperativity_decay(0.0, CLOUD) == CLOUD.c0
    assert abs(cooperativity_decay(CLOUD.tau_r_s, CLOUD) / CLOUD.c0 - 0.49951) < 1e-4
    assert abs(cooperativity_decay(0.010, CLOUD) / CLOUD.c0 - 0.33755) < 1e-4


def test_decay_shapes_and_validation():
    t = np.linspace(0.0, 0.05, 11)
    c = cooperativity_decay(t, CLOUD)
    assert c.shape == t.shape
    assert isinstance(cooperativity_decay(0.01, CLOUD), float)
    with pytest.raises(ValueError):
        cooperativity_decay(-1e-3, CLOUD)
    with pytest.raises(ValueError):
        cooperativity_decay(float("nan"), CLOUD)


def test_decay_is_monotone_nonincreasing():
    t = np.linspace(0.0, 0.05, 2001)
    c = cooperativity_decay(t, CLOUD)
    assert np.all(np.diff(c) <= 0.0)
    assert np.all(c > 0.0)


def test_without_gravity_decay_is_a_pure_expansion_curve():
    cp = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0, g_grav=1e-9)
    t = np.linspace(0.0, 0.05, 101)
    expected = cp.c0 * cp.tau_r_s**2 / (cp.tau_r_s**2 + t**2)
    assert np.max(np.abs(cooperativity_decay(t, cp) - expected)) < 1e-9 * cp.c0


def test_short_time_expansion_is_quadratic():
    t = CLOUD.tau_r_s / 100.0
    drop = (CLOUD.c0 - cooperativity_decay(t, CLOUD)) / CLOUD.c0
    assert abs(drop - (t / CLOUD.tau_r_s) ** 2) < 0.01 * (t / CLOUD.tau_r_s) ** 2


def test_cloud_params_validation():
    with pytest.raises(ValueError):
        CloudParams(sigma_r_m=0.0, temp_k=5e-3, c0=220.0)
    with pytest.raises(ValueError):
        CloudParams(sigma_r_m=4e-3, temp_k=-1.0, c0=220.0)
    with pytest.raises(ValueError):
        CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=float("inf"))


# === Monte Carlo estimator ===


def test_mc_is_exact_at_release_time():
    est = mc_cooperativity(CLOUD, CLOUD.sigma_r_m / 15.0, [0.0],
                           n_samples=20_000, seed=1)
    assert est[0] == (0.0, CLOUD.c0)


def test_mc_thin_beam_tracks_the_closed_form():
    times = [0.0, 0.003, 0.007, 0.012, 0.018, 0.024, 0.030]
    est = mc_cooperativity(CLOUD, CLOUD.sigma_r_m / 15.0, times,
                           n_samples=1_000_000, seed=12345)
    truth = cooperativity_decay(np.array(times), CLOUD)
    rel = [abs(c - tr) / tr for (_, c), tr in zip(est, truth)]
    assert max(rel) < 0.01


def test_mc_without_gravity_gives_the_expansion_curve():
    cp = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0, g_grav=1e-9)
    times = [0.0, 0.005, 0.012, 0.020, 0.030]
    est = mc_cooperativity(cp, cp.sigma_r_m / 15.0, times,
                           n_samples=100_000, seed=99)
    lor = cp.c0 * cp.tau_r_s**2 / (cp.tau_r_s**2 + np.array(times)**2)
    rel = [abs(c - l) / l for (_, c), l in zip(est, lor)]
    assert max(rel) < 0.03


def test_mc_is_deterministic_per_seed():
    w = CLOUD.sigma_r_m / 15.0
    # n chosen to straddle an internal block boundary
    a = mc_cooperativity(CLOUD, w, [0.01, 0.02], n_samples=70_000, seed=5)
    b = mc_cooperativity(CLOUD, w, [0.01, 0.02], n_samples=70_000, seed=5)
    c = mc_cooperativity(CLOUD, w, [0.01, 0.02], n_samples=70_000, seed=6)
    assert a == b
    assert a != c


def test_mc_error_scales_like_inverse_root_n():
    w = CLOUD.sigma_r_m / 15.0
    spreads = []
    for n in (10_000, 100_000, 1_000_000):
        vals = [mc_cooperativity(CLOUD, w, [0.02], n_samples=n, seed=s)[0][1]
                for s in range(12)]
        spreads.append(np.std(vals))
    r1 = spreads[0] / spreads[1]
    r2 = spreads[1] / spreads[2]
    root_ten = np.sqrt(10.0)
    assert root_ten / 2.0 < r1 < root_ten * 2.0
    assert root_ten / 2.0 < r2 < root_ten * 2.0


def test_mc_validation_and_warnings():
    w = CLOUD.sigma_r_m / 15.0
    with pytest.raises(ValueError):
        mc_cooperativity(CLOUD, 0.0, [0.01])
    with pytest.raises(ValueError):
        mc_cooperativity(CLOUD, w, [0.01], n_samples=5000)
    with pytest.raises(ValueError):
        mc_cooperativity(CLOUD, w, [])
    with pytest.raises(ValueError):
        mc_cooperativity(CLOUD, w, [-0.01])
    with pytest.warns(UserWarning):
        mc_cooperativity(CLOUD, CLOUD.sigma_r_m, [0.01], n_samples=20_000)


# === fitting measured decay points ===


def _samples_from(cp, t, c, rel_sigma=None):
    out = []
    for ti, ci in zip(t, c):
        sigma = rel_sigma * cooperativity_decay(float(ti), cp) if rel_sigma else None
        out.append(CooperativitySample(float(ti), float(max(ci, 0.0)), sigma_c=sigma))
    return out


def test_fit_noiseless_roundtrip():
    t = np.linspace(0.0, 0.060, 12)
    fr = fit_cooperativity(_samples_from(CLOUD, t, cooperativity_decay(t, CLOUD)))
    assert fr.converged
    assert abs(fr.c0 - CLOUD.c0) / CLOUD.c0 < 1e-6
    assert abs(fr.sigma_r_m - CLOUD.sigma_r_m) / CLOUD.sigma_r_m < 1e-6
    assert abs(fr.temp_k - CLOUD.temp_k) / CLOUD.temp_k < 1e-6
    assert fr.rms_residual < 1e-6


def test_fit_noiseless_roundtrip_over_parameter_range():
    rng = np.random.default_rng(7)
    for _ in range(10):
        cp = CloudParams(
            sigma_r_m=float(np.exp(rng.uniform(np.log(1e-3), np.log(8e-3)))),
            temp_k=float(np.exp(rng.uniform(np.log(1e-3), np.log(2e-2)))),
            c0=float(rng.uniform(20.0, 500.0)),
        )
        t = np.linspace(0.0, 0.080, 25)
        fr = fit_cooperativity(_samples_from(cp, t, cooperativity_decay(t, cp)))
        assert fr.converged
        assert abs(fr.c0 - cp.c0) / cp.c0 < 1e-5
        assert abs(fr.sigma_r_m - cp.sigma_r_m) / cp.sigma_r_m < 1e-5
        assert abs(fr.temp_k - cp.temp_k) / cp.temp_k < 1e-5


def test_fit_recovers_cloud_from_noisy_weighted_points():
    t = np.linspace(0.0, 0.080, 60)
    truth = cooperativity_decay(t, CLOUD)
    rng = np.random.default_rng(777)
    noisy = truth * (1.0 + 0.02 * rng.standard_normal(t.size))
    fr = fit_cooperativity(_samples_from(CLOUD, t, noisy, rel_sigma=0.02))
    assert fr.converged
    assert abs(fr.c0 - CLOUD.c0) / CLOUD.c0 < 0.03
    assert abs(fr.sigma_r_m - CLOUD.sigma_r_m) / CLOUD.sigma_r_m < 0.04
    assert abs(fr.temp_k - CLOUD.temp_k) / CLOUD.temp_k < 0.07
    # the reported uncertainties should cover the actual deviations
    assert 0.0 < fr.c0_err < 0.05 * CLOUD.c0
    assert abs(fr.c0 - CLOUD.c0) < 4.0 * fr.c0_err
    assert abs(fr.sigma_r_m - CLOUD.sigma_r_m) < 4.0 * fr.sigma_r_err
    assert abs(fr.temp_k - CLOUD.temp_k) < 4.0 * fr.temp_k_err


def test_fit_reports_unresolved_fall_time():
    # 16 samples over 30 ms with 1 % noise: in draws 3, 6, 14 and 17 the
    # least-squares cost falls monotonically towards tau_g -> inf
    t = np.linspace(0.0, 0.030, 16)
    truth = cooperativity_decay(t, CLOUD)
    for seed in range(20):
        noisy = truth * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal(t.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fr = fit_cooperativity(_samples_from(CLOUD, t, noisy))
        if seed not in (3, 6, 14, 17):
            assert fr.converged, seed
            continue
        assert not fr.converged and "fall time" in fr.message
        assert fr.tau_g_s == np.inf and fr.n_iter > 0
        assert abs(fr.c0 - CLOUD.c0) < 0.02 * CLOUD.c0
        assert abs(fr.tau_r_s - CLOUD.tau_r_s) < 0.02 * CLOUD.tau_r_s
        others = (fr.sigma_r_m, fr.temp_k, fr.c0_err, fr.sigma_r_err,
                  fr.temp_k_err, fr.rms_residual)
        assert all(np.isnan(v) for v in others)
        # the tau_g -> inf optimum: the gradient in (C0, tau_r) vanishes
        model = fr.c0 * fr.tau_r_s ** 2 / (fr.tau_r_s ** 2 + t * t)
        resid = model - noisy
        grad = [resid @ model, resid @ (model * t * t / (fr.tau_r_s ** 2 + t * t))]
        assert max(abs(g) for g in grad) <= 1e-8 * (model @ model)


def test_fit_requires_enough_points():
    t = np.linspace(0.0, 0.02, 3)
    with pytest.raises(ValueError):
        fit_cooperativity(_samples_from(CLOUD, t, cooperativity_decay(t, CLOUD)))


def test_fit_reports_degenerate_data_without_raising():
    same_time = [CooperativitySample(0.01, 100.0 + i) for i in range(5)]
    fr = fit_cooperativity(same_time)
    assert not fr.converged and "same time" in fr.message

    zeros = [CooperativitySample(0.002 * i, 0.0) for i in range(5)]
    fr = fit_cooperativity(zeros)
    assert not fr.converged

    rising = [CooperativitySample(0.002 * i, 100.0 + 10.0 * i) for i in range(5)]
    fr = fit_cooperativity(rising)
    assert not fr.converged
    assert not np.isfinite(fr.c0)


def test_sample_validation():
    with pytest.raises(ValueError):
        CooperativitySample(-0.01, 10.0)
    with pytest.raises(ValueError):
        CooperativitySample(0.01, -10.0)
    with pytest.raises(ValueError):
        CooperativitySample(0.01, 10.0, sigma_c=0.0)


# === sample files ===


def test_read_samples_roundtrip(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("t_s,c,sigma_c\n0.0,220.0,2.0\n0.01,74.3,1.5\n")
    rows = read_samples(str(path))
    assert rows == [
        CooperativitySample(0.0, 220.0, 2.0),
        CooperativitySample(0.01, 74.3, 1.5),
    ]

    bare = tmp_path / "bare.csv"
    bare.write_text("t_s,c\n0.0,220.0\n")
    assert read_samples(str(bare)) == [CooperativitySample(0.0, 220.0)]


def test_read_samples_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,c\n0.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_samples(str(bad_header))

    bad_width = tmp_path / "b.csv"
    bad_width.write_text("t_s,c\n0.0,1.0,9.9\n")
    with pytest.raises(ValueError, match=":2:"):
        read_samples(str(bad_width))

    bad_number = tmp_path / "c.csv"
    bad_number.write_text("t_s,c\n0.0,fast\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_samples(str(bad_number))

    empty = tmp_path / "d.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_samples(str(empty))

    headers_only = tmp_path / "e.csv"
    headers_only.write_text("t_s,c\n")
    with pytest.raises(ValueError, match="no data"):
        read_samples(str(headers_only))
