"""Tests for released-cloud cooperativity decay, Monte Carlo, and fitting."""

import tracemalloc
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
from cavsqueeze import cloud
from cavsqueeze.cloud import _decay_terms, _seed_log_params

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
    with pytest.raises(ValueError, match="c0"):
        CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=True)
    # finite positive numpy scalars are numbers like any other, stored as floats
    cp = CloudParams(sigma_r_m=np.float32(4e-3), temp_k=5e-3, c0=np.int64(220))
    assert cp == CloudParams(sigma_r_m=float(np.float32(4e-3)), temp_k=5e-3, c0=220.0)
    assert type(cp.sigma_r_m) is float and type(cp.c0) is float


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


def test_mc_output_is_pinned_at_a_fixed_seed():
    # frozen values: ten times fill a tile and a part of one, and 140,000
    # samples are two full chunks plus a tail, so a change to the draws, the
    # chunking, the tiling or the order of the sums shows here
    times = [0.0, 0.002, 0.004, 0.007, 0.01, 0.013, 0.017, 0.021, 0.025, 0.03]
    est = mc_cooperativity(CLOUD, CLOUD.sigma_r_m / 15.0, times,
                           n_samples=140_000, seed=2024)
    assert est == list(zip(times, [
        220.0, 204.04388117553384, 167.53123625141131, 112.12817315030917,
        74.05578204142309, 50.62297738440479, 32.52055920535158,
        22.277929157981337, 16.057384598989536, 11.266807263391621,
    ]))
    # the values of the direct form, exponent by exponent, which the feature
    # product moves at round-off only: a change to the draws or the chunking
    # moves them by far more
    np.testing.assert_allclose([c for _, c in est], [
        220.0, 204.0438811755338, 167.5312362514113, 112.12817315030914,
        74.05578204142309, 50.6229773844048, 32.52055920535158,
        22.277929157981333, 16.05738459898954, 11.266807263391623,
    ], rtol=1e-14, atol=0.0)


def _mc_direct(cp, waist_m, times, n_samples, seed):
    """The Monte Carlo with each exponent formed from the atom's displacement."""
    t = np.asarray(times, dtype=float)
    w_eff2 = waist_m**2 + 4.0 * cp.sigma_r_m**2
    drop = 0.5 * cp.g_grav * t * t
    rng = np.random.Generator(np.random.Philox(seed))
    kernel_sum = np.zeros(t.size)
    for lo in range(0, n_samples, 65536):
        vy, vz = rng.standard_normal((2, min(65536, n_samples - lo))) * cp.sigma_v_m_s
        my, mz = t[:, None] * vy, t[:, None] * vz - drop[:, None]
        kernel_sum += np.exp(-2.0 * (my * my + mz * mz) / w_eff2).sum(axis=1)
    return cp.c0 * kernel_sum / n_samples


@pytest.mark.parametrize("temp_k", [5e-3, 0.2])
def test_mc_feature_form_matches_the_direct_form_far_below_the_beam(temp_k):
    # at g = 100 m/s^2 the cloud centre falls 62 effective waists in 0.1 s, so
    # the exponent's three terms reach 2 (drop / w_eff)^2 ~ 7800 and cancel to
    # the kernel of an atom that still meets the beam (0.2 K) or underflow (5 mK)
    cp = CloudParams(sigma_r_m=4e-3, temp_k=temp_k, c0=220.0, g_grav=100.0)
    w = cp.sigma_r_m / 15.0
    times = np.linspace(0.0, 0.1, 11)
    assert 0.5 * cp.g_grav * times[-1] ** 2 / np.sqrt(w * w + 4.0 * cp.sigma_r_m**2) > 50.0
    got = np.array([c for _, c in mc_cooperativity(cp, w, times, n_samples=70_000, seed=31)])
    ref = _mc_direct(cp, w, times, 70_000, 31)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got == 0.0, ref == 0.0)
    nonzero = ref != 0.0
    assert np.all(np.abs(got[nonzero] / ref[nonzero] - 1.0) <= 1e-10)


def test_mc_memory_stays_bounded():
    # a full chunk's features (1.5 MiB) and one 1 MiB kernel tile, whatever the
    # number of times; the nine-pass kernel the feature product replaced (fresh
    # draws each chunk, two time-block buffers) peaked at 4.0 MiB at 31 times
    w = CLOUD.sigma_r_m / 15.0
    for n_times, n_samples in ((31, 1_000_000), (2000, 200_000)):
        times = np.linspace(0.0, 0.03, n_times)
        tracemalloc.start()
        try:
            mc_cooperativity(CLOUD, w, times, n_samples=n_samples, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20, (n_times, peak)


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
    for n in (5000, 1_048_576.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="n_samples"):
            mc_cooperativity(CLOUD, w, [0.01], n_samples=n)
    with pytest.raises(ValueError):
        mc_cooperativity(CLOUD, w, [])
    with pytest.raises(ValueError):
        mc_cooperativity(CLOUD, w, [-0.01])
    with pytest.warns(UserWarning):
        mc_cooperativity(CLOUD, CLOUD.sigma_r_m, [0.01], n_samples=20_000)
    for seed in (1.5, -1, True):
        with pytest.raises(ValueError, match="seed"):
            mc_cooperativity(CLOUD, w, [0.01], n_samples=20_000, seed=seed)


def test_mc_takes_a_numpy_integer_seed():
    w = CLOUD.sigma_r_m / 15.0
    times = [0.005, 0.02]
    assert (mc_cooperativity(CLOUD, w, times, n_samples=20_000, seed=np.int64(3))
            == mc_cooperativity(CLOUD, w, times, n_samples=20_000, seed=3))


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


def test_fit_with_a_failed_line_search_is_not_converged():
    # draw 68 of the setup above: the Gauss-Newton step moves log tau_g by
    # about -6.6e9 and no halving of it lowers the cost
    t = np.linspace(0.0, 0.030, 16)
    truth = cooperativity_decay(t, CLOUD)
    noisy = truth * (1.0 + 0.01 * np.random.default_rng(68).standard_normal(t.size))
    fr = fit_cooperativity(_samples_from(CLOUD, t, noisy))
    assert not fr.converged
    assert fr.message == "line search failed"


def test_fit_evaluates_the_decay_law_once_per_trial(monkeypatch):
    # one evaluation at the seed, then one per line-search trial: the accepted
    # trial is the next iterate, and its decay terms serve that iterate's
    # Jacobian and the final covariance.  Evaluating them again there cost
    # 43, 29 and 41 calls on these converged, line-search-failed and
    # tau_g -> inf fits; halving on after the trial had rounded to the
    # iterate itself cost 34, 27 and 35.
    calls = []

    def counted(t, c0, tau_r, tau_g):
        if np.ndim(c0) == 0:  # not the seed grid's one broadcast pass
            calls.append(c0)
        return _decay_terms(t, c0, tau_r, tau_g)

    monkeypatch.setattr(cloud, "_decay_terms", counted)

    t = np.linspace(0.0, 0.030, 16)
    truth = cooperativity_decay(t, CLOUD)
    for seed, message, n_calls in ((0, "converged", 13), (68, "line search failed", 27),
                                   (3, "fall time", 29)):
        noisy = truth * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal(t.size))
        calls.clear()
        fr = fit_cooperativity(_samples_from(CLOUD, t, noisy))
        assert fr.message.startswith(message)
        assert len(calls) == n_calls, seed


def test_fit_trials_that_overflow_raise_no_warning():
    # a 2 mm, 1 mK cloud sampled over 20 ms with 2 % noise sends many line
    # searches through overflowing trials; the suite turns any
    # RuntimeWarning into an error
    cp = CloudParams(sigma_r_m=2e-3, temp_k=1e-3, c0=220.0)
    t = np.linspace(0.0, 0.020, 16)
    truth = cooperativity_decay(t, cp)
    n_converged = 0
    for seed in range(100):
        noisy = truth * (1.0 + 0.02 * np.random.default_rng(seed).standard_normal(t.size))
        n_converged += fit_cooperativity(_samples_from(cp, t, noisy)).converged
    assert n_converged >= 90
    # a 2 mm, 5 uK cloud with 10 % noise, weighted by 1 + C: the fit runs along
    # the tau_r tau_g valley to tau_r = 1.1e91 s, where the final Jacobian
    # overflows; the infinite sigma_r_err it returns is named unresolved
    cp = CloudParams(sigma_r_m=2e-3, temp_k=5e-6, c0=220.0)
    t = np.linspace(0.0, 0.030, 16)
    z = np.random.default_rng(5).standard_normal(t.size)
    c = np.maximum(cooperativity_decay(t, cp) * (1.0 + 0.1 * z), 0.0)
    fr = fit_cooperativity([CooperativitySample(float(ti), float(ci), sigma_c=float(1.0 + ci))
                            for ti, ci in zip(t, c)])
    assert fr.sigma_r_err == np.inf and not fr.converged
    assert fr.message == "line search failed; the estimate is unresolved: an error is not finite"


def _scalar_seed_pick(t, c, wts, c0_init, span):
    # the seed grid as a scalar double loop: a strict < keeps the first
    # minimum and never takes a NaN or infinite cost
    best_lp, best_cost = None, np.inf
    for tau_r in np.geomspace(span / 30.0, 3.0 * span, 25):
        for tau_g_fac in np.geomspace(1.0, 300.0, 12):
            lp = np.log([c0_init, tau_r, tau_g_fac * tau_r])
            with np.errstate(all="ignore"):
                m, _, _ = _decay_terms(t, *np.exp(lp))
                r = (m - c) * wts
                cc = float(r @ r)
            if cc < best_cost:
                best_lp, best_cost = lp, cc
    return best_lp


def test_seed_grid_pick_matches_the_scalar_loop():
    # criterion 02's draws (60 points over 80 ms, noiseless and unweighted,
    # then 50 with 5 % noise, weighted)
    t = np.linspace(0.0, 0.080, 60)
    truth = cooperativity_decay(t, CLOUD)
    draws = [(t, truth, np.ones(t.size))]
    for seed in range(50):
        noise = np.random.default_rng(20_000 + seed).standard_normal(t.size)
        draws.append((t, np.maximum(truth * (1.0 + 0.05 * noise), 0.0), 1.0 / (0.05 * truth)))
    # times of order 1e-81 s: 37 seeds cost NaN (0/0 at t = 0), among them
    # the first, which a plain argmin would pick
    t_tiny = np.arange(8) * 1e-81
    draws.append((t_tiny, 100.0 / (1.0 + np.arange(8.0) ** 2 / 4.0), np.ones(8)))
    for tt, c, wts in draws:
        ref = _scalar_seed_pick(tt, c, wts, float(c[0]), float(tt[-1]))
        assert np.array_equal(_seed_log_params(tt, c, wts, float(c[0]), float(tt[-1])), ref)
    # weights so large that every seed's cost overflows
    wts = np.full(t.size, 1e160)
    assert _scalar_seed_pick(t, truth, wts, float(truth[0]), float(t[-1])) is None
    assert _seed_log_params(t, truth, wts, float(truth[0]), float(t[-1])) is None


def test_fit_reports_overflowing_weights_without_raising():
    t = np.linspace(0.0, 0.030, 20)
    samples = [CooperativitySample(float(ti), float(ci), sigma_c=1e-160)
               for ti, ci in zip(t, cooperativity_decay(t, CLOUD))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fr = fit_cooperativity(samples)
    assert not fr.converged and "overflow" in fr.message
    assert np.isnan(fr.c0) and fr.n_iter == 0


@pytest.mark.parametrize("name, value", [
    ("g_grav", -9.8), ("g_grav", 0.0), ("g_grav", float("nan")),
    ("mass_kg", -1.0), ("mass_kg", float("inf")), ("mass_kg", True), ("g_grav", True),
])
def test_fit_rejects_bad_mass_and_gravity(name, value):
    t = np.linspace(0.0, 0.030, 8)
    samples = _samples_from(CLOUD, t, cooperativity_decay(t, CLOUD))
    with pytest.raises(ValueError, match=name):
        fit_cooperativity(samples, **{name: value})


def test_fit_takes_numpy_scalar_mass_and_gravity():
    t = np.linspace(0.0, 0.030, 8)
    samples = _samples_from(CLOUD, t, cooperativity_decay(t, CLOUD))
    mass = np.float32(CLOUD.mass_kg)
    ref = fit_cooperativity(samples, mass_kg=float(mass), g_grav=10.0)
    assert ref.converged
    assert fit_cooperativity(samples, mass_kg=mass, g_grav=np.int64(10)) == ref


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
