"""Acceptance suite: ten end-to-end criteria, one verdict line per criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line with its measured
numbers (visible with ``pytest -s`` or on failure) and enforces the pinned
tolerances and runtime caps with plain asserts.  Run the whole file with::

    pytest tests/test_acceptance.py -v
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cavsqueeze import (
    CloudParams,
    CooperativitySample,
    GaussianBins,
    ModelParams,
    ScanConfig,
    build_fluctuation_system,
    cooperativity_decay,
    critical_point,
    fit_cooperativity,
    free_release_scan,
    gaussian_susceptibility_limit,
    mc_cooperativity,
    output_spectrum,
    piezo_scan,
    solve_steady_states,
    state_equation,
    turning_points,
)
from cavsqueeze.cli import main
from cavsqueeze.oracle import me_oracle_spectrum

KAPPA = 2.5e6
RELEASE_CLOUD = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0)


def _verdict(num, ok, details):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    assert ok, line


def test_criterion_01_mc_decay_agreement():
    t = np.linspace(0.0, 0.030, 31)
    start = time.perf_counter()
    est = mc_cooperativity(RELEASE_CLOUD, RELEASE_CLOUD.sigma_r_m / 15.0, t,
                           n_samples=1_000_000, seed=12345)
    elapsed = time.perf_counter() - start
    truth = cooperativity_decay(t, RELEASE_CLOUD)
    worst = max(abs(c - tr) / tr for (_, c), tr in zip(est, truth))
    _verdict(1, worst <= 0.03 and elapsed < 10.0,
             f"max rel dev {worst:.5f} <= 0.03, runtime {elapsed:.2f}s < 10s")


def test_criterion_02_fit_roundtrip():
    start = time.perf_counter()
    t = np.linspace(0.0, 0.080, 60)
    truth = cooperativity_decay(t, RELEASE_CLOUD)

    clean = [CooperativitySample(float(ti), float(ci)) for ti, ci in zip(t, truth)]
    fr = fit_cooperativity(clean)
    clean_worst = max(
        abs(fr.c0 - RELEASE_CLOUD.c0) / RELEASE_CLOUD.c0,
        abs(fr.tau_r_s - RELEASE_CLOUD.tau_r_s) / RELEASE_CLOUD.tau_r_s,
        abs(fr.tau_g_s - RELEASE_CLOUD.tau_g_s) / RELEASE_CLOUD.tau_g_s,
    )

    rel = np.empty((50, 3))
    for s in range(50):
        rng = np.random.default_rng(20_000 + s)
        noisy = truth * (1.0 + 0.05 * rng.standard_normal(t.size))
        samples = [
            CooperativitySample(float(ti), float(max(ci, 0.0)),
                                sigma_c=float(0.05 * tr))
            for ti, ci, tr in zip(t, noisy, truth)
        ]
        nf = fit_cooperativity(samples)
        rel[s] = (
            abs(nf.c0 - RELEASE_CLOUD.c0) / RELEASE_CLOUD.c0,
            abs(nf.tau_r_s - RELEASE_CLOUD.tau_r_s) / RELEASE_CLOUD.tau_r_s,
            abs(nf.tau_g_s - RELEASE_CLOUD.tau_g_s) / RELEASE_CLOUD.tau_g_s,
        )
    medians = np.median(rel, axis=0)
    elapsed = time.perf_counter() - start
    _verdict(2, clean_worst <= 1e-6 and np.max(medians) <= 0.10 and elapsed < 5.0,
             f"noiseless worst {clean_worst:.2e} <= 1e-6, noisy medians "
             f"{medians[0]:.4f}/{medians[1]:.4f}/{medians[2]:.4f} <= 0.10, "
             f"runtime {elapsed:.2f}s < 5s")


def test_criterion_03_absorptive_critical_point():
    c, x, y = critical_point(ModelParams(c=1.0, delta=0.0, theta=0.0))
    worst = max(abs(c - 4.0) / 4.0, abs(x - 3.0) / 3.0, abs(y - 27.0) / 27.0)
    _verdict(3, worst <= 1e-6,
             f"(C,X,Y)=({c:.8f},{x:.8f},{y:.8f}) vs (4,3,27), worst {worst:.2e} <= 1e-6")


def test_criterion_04_gaussian_profile_limit():
    xs = np.geomspace(1e-3, 1e3, 61)
    worst = 0.0
    for delta in (-30.0, -10.0, 0.0, 10.0, 30.0):
        p256 = ModelParams(c=100.0, delta=delta, theta=-5.0,
                           transverse=GaussianBins(m=256))
        a_sat = 1.0 + delta * delta
        g = gaussian_susceptibility_limit(xs, a_sat)
        closed = xs * ((1.0 + 2.0 * p256.c * g) ** 2
                       + (p256.theta - 2.0 * p256.c * p256.delta * g) ** 2)
        binned = state_equation(xs, p256)
        worst = max(worst, float(np.max(np.abs(binned - closed) / closed)))
    _verdict(4, worst <= 1e-3, f"max rel dev {worst:.2e} <= 1e-3 over X in [1e-3,1e3]")


def test_criterion_05_vacuum_passivity_grid():
    start = time.perf_counter()
    x = 1e-6
    worst = 0.0
    for c in (0.0, 1.0, 10.0, 100.0, 500.0):
        for delta in (-30.0, -10.0, 0.0, 10.0, 30.0):
            for theta in (-10.0, -3.0, 0.0, 3.0, 10.0):
                p = ModelParams(c=c, delta=delta, theta=theta)
                y = state_equation(x, p)
                ss = [r for r in solve_steady_states(y, p) if r.stable][0]
                fs = build_fluctuation_system(ss, p)
                for omega in (0.0, 0.5 * KAPPA, KAPPA, 3.0 * KAPPA, 10.0 * KAPPA):
                    q = output_spectrum(fs, omega)
                    worst = max(worst, float(np.max(np.abs(q.v - np.eye(2)))))
    elapsed = time.perf_counter() - start
    _verdict(5, worst <= 1e-6 and elapsed < 30.0,
             f"max |V - I| {worst:.2e} <= 1e-6 over 625 grid points, "
             f"runtime {elapsed:.2f}s < 30s")


def test_criterion_06_uncertainty_product():
    rng = np.random.default_rng(424242)
    worst_product = np.inf
    worst_min = np.inf
    checked = 0
    while checked < 1000:
        extra = {"transverse": GaussianBins(m=8)} if checked % 10 == 9 else {}
        p = ModelParams(
            c=float(np.exp(rng.uniform(0.0, np.log(500.0)))),
            delta=float(rng.uniform(-30.0, 30.0)),
            theta=float(rng.uniform(-10.0, 10.0)),
            **extra,
        )
        y = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e4))))
        stable = [r for r in solve_steady_states(y, p) if r.stable]
        if not stable:
            continue
        ss = stable[rng.integers(len(stable))]
        fs = build_fluctuation_system(ss, p)
        q = output_spectrum(fs, float(rng.uniform(0.0, 10.0 * KAPPA)))
        worst_product = min(worst_product, q.s_min * q.s_max)
        worst_min = min(worst_min, q.s_min)
        checked += 1
    _verdict(6, worst_product >= 1.0 - 1e-9 and worst_min >= -1e-9,
             f"min product {worst_product:.12f} >= 1 - 1e-9 on 1000 states, "
             f"min eigenvalue {worst_min:.3e}")


def test_criterion_07_oracle_agreement():
    start = time.perf_counter()
    p = ModelParams(c=0.2, delta=0.0, theta=0.0, n_atoms=1)
    x_target = 0.05
    y = state_equation(x_target, p)
    grid = np.linspace(0.0, 4.0 * KAPPA, 21)
    spectra = me_oracle_spectrum(p, grid, drive_y=y, fock_cutoff=15)
    ss = min(solve_steady_states(y, p), key=lambda r: abs(r.intensity - x_target))
    fs = build_fluctuation_system(ss, p)
    worst = 0.0
    for q_me in spectra:
        q_lin = output_spectrum(fs, q_me.omega_hz)
        denom = float(np.max(np.abs(q_me.v)))
        worst = max(worst, float(np.max(np.abs(q_lin.v - q_me.v))) / denom)
    elapsed = time.perf_counter() - start
    _verdict(7, worst <= 0.05 and elapsed < 60.0,
             f"max rel dev {worst:.5f} <= 0.05 over 21 frequencies, "
             f"runtime {elapsed:.2f}s < 60s")


def test_criterion_08_release_scan_regime():
    start = time.perf_counter()
    sc = ScanConfig()  # frozen defaults: drive just below the C(0)=220 threshold
    p = ModelParams(c=220.0, delta=-20.0)
    trace = free_release_scan(sc, RELEASE_CLOUD, p)
    elapsed = time.perf_counter() - start

    t, x, theta_eff = trace.t_s, trace.x, trace.theta_eff
    s_meas, s_max = trace.s_meas, trace.s_max

    s_floor = float(np.min(s_meas))
    floor_ok = 0.45 <= s_floor <= 0.70

    sign_change = np.nonzero(np.diff(np.sign(theta_eff)) != 0)[0]
    crossing_ms = float(t[sign_change[0] + 1] * 1e3) if sign_change.size else math.nan
    crossing_ok = sign_change.size > 0 and 5.0 <= crossing_ms <= 15.0

    high_side = x > 0.5 * float(np.max(x))
    excess = float(np.max(s_max[high_side]))
    excess_ok = excess > 3.0

    off_res = np.abs(theta_eff) > 5.0
    off_mean = float(np.mean(s_meas[off_res]))
    off_ok = abs(off_mean - 1.0) <= 0.01

    ok = floor_ok and crossing_ok and excess_ok and off_ok and elapsed < 60.0
    _verdict(8, ok,
             f"filtered min {s_floor:.4f} in [0.45,0.70], crossing {crossing_ms:.2f}ms "
             f"in [5,15], upper-branch max {excess:.2f} > 3, off-resonance mean "
             f"{off_mean:.4f} within 0.01, runtime {elapsed:.1f}s < 60s")


def _theta_of_fold_crossing(p, drive_y, bracket, pick):
    lo, hi = bracket
    f = lambda th: pick(turning_points(replace(p, theta=th)).ordinates) - drive_y
    flo = f(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_09_piezo_regime():
    start = time.perf_counter()
    p20 = ModelParams(c=20.0, delta=-20.0)
    sc20 = ScanConfig(duration_s=0.025, dt_s=2e-6,
                      drive_y=180.0, theta0=-8.0, theta_rate=360.0)
    trace = piezo_scan(sc20, p20)
    s_env, x = trace.s_min, trace.x
    best = float(np.min(s_env))
    best_ok = 0.70 <= best <= 0.90
    jumps20 = int(np.sum(np.abs(np.diff(np.log(x))) > 0.5))
    smooth_ok = jumps20 == 0  # monostable at C=20: branch continuity, no switching

    # switching consistency where folds do exist: C=50 up and down sweeps
    p50 = ModelParams(c=50.0, delta=-20.0)
    drive = 900.0
    step = 50.0 * 4e-6

    def jump_theta(theta0, rate):
        sc = ScanConfig(duration_s=6e-3, dt_s=4e-6,
                        drive_y=drive, theta0=theta0, theta_rate=rate,
                        rel_noise=0.0, elec_floor=0.0)
        tr = piezo_scan(sc, p50)
        xs = tr.x
        thetas = theta0 + rate * tr.t_s
        idx = np.nonzero(np.abs(np.diff(np.log(xs))) > 0.5)[0]
        return float(thetas[idx[0] + 1]) if idx.size else math.nan

    with pytest.warns(UserWarning):
        up_jump = jump_theta(-1.6, 50.0)
    with pytest.warns(UserWarning):
        down_jump = jump_theta(-1.35, -50.0)
    up_fold = _theta_of_fold_crossing(p50, drive, (-1.5, -1.4), min)
    down_fold = _theta_of_fold_crossing(p50, drive, (-1.65, -1.5), max)
    up_ok = math.isfinite(up_jump) and abs(up_jump - up_fold) <= 1.5 * step
    down_ok = math.isfinite(down_jump) and abs(down_jump - down_fold) <= 1.5 * step
    elapsed = time.perf_counter() - start

    ok = best_ok and smooth_ok and up_ok and down_ok
    _verdict(9, ok,
             f"best envelope {best:.4f} in [0.70,0.90], jumps at C=20: {jumps20}, "
             f"fold crossings vs jumps: up {up_jump:.5f}/{up_fold:.5f}, "
             f"down {down_jump:.5f}/{down_fold:.5f} within one step {step:.4g}, "
             f"runtime {elapsed:.1f}s")


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_criterion_10_byte_identical_reruns(tmp_path):
    cases = {
        "steady": ["steady", "--model.C=50", "--scan.drive_Y=900"],
        "turning": ["turning", "--model.C=8", "--model.delta=0"],
        "spectrum": ["spectrum", "--scan.n_omega=5"],
        "release": ["release", "--scan.duration_s=0.001"],
        "piezo": ["piezo", "--model.C=20", "--scan.duration_s=0.001",
                  "--scan.theta_rate=360", "--scan.theta0=-8"],
        "mc-cloud": ["mc-cloud", "--cloud.mc_samples=50000", "--cloud.n_times=3"],
        "oracle": ["oracle", "--model.C=0.2", "--model.n_atoms=1",
                   "--scan.drive_Y=0.1", "--scan.n_omega=3"],
    }
    data = tmp_path / "decay.csv"
    t = np.linspace(0.0, 0.05, 10)
    rows = ["t_s,c"] + [
        f"{float(ti)!r},{float(cooperativity_decay(float(ti), RELEASE_CLOUD))!r}"
        for ti in t
    ]
    data.write_text("\n".join(rows) + "\n")
    cases["fitc"] = ["fitc", str(data)]

    mismatched = []
    for name, args in cases.items():
        a = tmp_path / f"{name}-a.csv"
        b = tmp_path / f"{name}-b.csv"
        rc1 = main(args + [f"--output.path={a}"])
        rc2 = main(args + [f"--output.path={b}"])
        if rc1 != 0 or rc2 != 0 or a.read_bytes() != b.read_bytes():
            mismatched.append(name)
    _verdict(10, not mismatched,
             f"all {len(cases)} subcommands byte-identical on rerun"
             + (f"; mismatches: {mismatched}" if mismatched else ""))
