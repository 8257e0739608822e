"""Operations of the benchmark: inputs made from the seed, timed calls, checks.

A workload repeats a round of operations.  The operations are

    release, piezo_up, piezo_down, piezo_mono
            the plane-wave trace set, each scan run through ``cli.main``
    gauss   a Gaussian-profile (64 bins) release scan through ``cli.main``
    query   a block of ten operating-point queries through the package API
    o15, o12, o10, o8
            the oracle case list, one ``me_oracle_spectrum`` call each; the
            n-th call of each case together make the n-th oracle pass
    mc      one Monte Carlo cooperativity run at 1e6 samples x 31 times
    fit     one cooperativity fit; every eleventh is noiseless

Every round holds every operation, so every run reports every end-to-end
metric; the workloads differ in how much of the round each operation takes.
Within a round the operations are spread evenly in time, so that the
machine's speed drifts over each operation class alike.

An operation fails when it raises or when a check rejects its output.  Only
the near-critical queries are expected to fail (``solve_steady_states``
returns one root where the cubic has three).  Their inputs do not depend on
the seed and every query block holds one, so failures are a fixed share of
the operations in every run.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time
import warnings
import zlib

import numpy as np

import exact as ex
from exact import require

KAPPA = 2.5e6
ETA = 0.9
OMEGA_HI = 1e10  # far above every drift rate: V must be the vacuum there
QUERY_OMEGAS = (0.0, 0.5 * KAPPA, KAPPA, 2.0 * KAPPA, 5.0 * KAPPA, OMEGA_HI)

# one query block: P random plane wave, W plane wave at weak drive (X = 1e-6),
# g and G Gaussian profile with 8 and 64 bins, N near-critical absorptive
QUERY_BLOCK = "PPgPNPWPGP"
NEAR_CRITICAL_EPS = tuple(10.0 ** (-8.0 + k / 8.0) for k in range(8))
NEAR_CRITICAL_AT = (0.3, 0.5, 0.7)  # position inside the fold window

# cloud defaults of the package (cloud.sigma_r_m, cloud.temp_k, cloud.c0)
CLOUD = (4e-3, 5e-3, 220.0)
DELTA = -20.0
RELEASE_THETA0 = -7.5
RELEASE_DRIVE = 800.0

# name -> (CLI arguments, rows written); piezo start detunings are drawn per scan
SCANS = {
    "release": (["release", "--scan.duration_s=0.018", "--scan.dt_s=0.00018",
                 "--scan.vbw_hz=1000"], 100),
    "piezo_up": (["piezo", "--model.C=50", "--scan.drive_Y=900",
                  "--scan.theta_rate=112.5", "--scan.duration_s=0.004",
                  "--scan.dt_s=8e-05", "--scan.vbw_hz=2500"], 50),
    "piezo_down": (["piezo", "--model.C=50", "--scan.drive_Y=900",
                    "--scan.theta_rate=-112.5", "--scan.duration_s=0.004",
                    "--scan.dt_s=8e-05", "--scan.vbw_hz=2500"], 50),
    "piezo_mono": (["piezo", "--model.C=20", "--scan.drive_Y=180",
                    "--scan.theta_rate=360", "--scan.duration_s=0.025",
                    "--scan.dt_s=0.0005", "--scan.vbw_hz=500"], 50),
    "gauss": (["release", "--model.transverse=gaussian", "--model.gaussian_bins=64",
               "--scan.duration_s=0.018", "--scan.dt_s=0.0009",
               "--scan.vbw_hz=250"], 20),
}
PIEZO_THETA0 = {"piezo_up": -1.7, "piezo_down": -1.25, "piezo_mono": -8.0}

# name -> (C, X range, analysis frequencies, Fock cutoff) at delta = theta = 0
ORACLE_CASES = {
    "o15": (0.2, (0.04, 0.06), tuple(np.linspace(0.0, 4.0 * KAPPA, 9)), 15),
    "o12": (0.2, (0.015, 0.025), (0.5 * KAPPA, 2.0 * KAPPA), 12),
    "o10": (0.2, (0.08, 0.1), (0.0, KAPPA, 3.0 * KAPPA), 10),
    "o8": (0.2, (0.02, 0.04), (0.25 * KAPPA, 1.5 * KAPPA), 8),
}

MC_TIMES = np.linspace(0.0, 0.030, 31)
MC_SAMPLES = 1_000_000
FIT_TIMES = np.linspace(0.0, 0.080, 60)
FIT_GROUP = 11  # one noiseless fit, then ten noisy ones

ROUND_COUNTS = {
    "traces": {**{k: 5 for k in SCANS}, "gauss": 10, **{k: 1 for k in ORACLE_CASES},
               "mc": 3, "fit": 22, "query": 16},
    "points": {**{k: 3 for k in SCANS}, "gauss": 6, **{k: 1 for k in ORACLE_CASES},
               "mc": 3, "fit": 22, "query": 50},
    "crosscheck": {**{k: 2 for k in SCANS}, "gauss": 4, **{k: 2 for k in ORACLE_CASES},
                   "mc": 4, "fit": 44, "query": 16},
}


def round_order(counts: dict[str, int]) -> list[str]:
    """Operations of one round, each kind spread evenly over the round.

    Kind i of K with n occurrences sits at fractions (j + (i + 0.5)/K)/n.
    """
    kinds = list(counts)
    slots = [((j + (i + 0.5) / len(kinds)) / counts[k], k)
             for i, k in enumerate(kinds) for j in range(counts[k])]
    return [k for _, k in sorted(slots)]


def _flag(key, value) -> str:
    return f"--{key}={value!r}"


def _read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [r[k] for r in rows] for k in rows[0]} if rows else {}


def near_critical_inputs():
    """Fixed (C, Y) pairs at delta = theta = 0 with three real roots each."""
    out = []
    for k, eps in enumerate(NEAR_CRITICAL_EPS):
        c = 4.0 * (1.0 + eps)
        lo, hi = ex.fold_window(c, 0.0, 0.0)
        y = lo + NEAR_CRITICAL_AT[k % len(NEAR_CRITICAL_AT)] * (hi - lo)
        f, _ = ex.cubic_coefficients(c, 0.0, 0.0, y)
        if not ex.discriminant(f) > 0:
            raise RuntimeError(f"near-critical input C={c!r} Y={y!r} lost its three roots")
        out.append((c, y))
    return out


class Bench:
    """Counters, timings and the operations of one run."""

    def __init__(self, mods, seed: int, out_dir: str):
        self.m = mods
        self.seed = seed
        self.out_dir = out_dir
        self.near_critical = near_critical_inputs()
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.count: dict[str, int] = {}
        self.scan_s: dict[str, list[float]] = {}
        self.query_ms: list[float] = []
        self.oracle_calls: dict[int, list[float]] = {}
        self.mc_s: list[float] = []
        self.fit_ms: list[float] = []
        self.csv_bytes = 0
        self._jumps: dict[tuple[str, int], float] = {}
        self._fit_errors: dict[int, list[tuple[float, float, float]]] = {}

    def run(self, kind: str) -> None:
        n = self.count.get(kind, 0)
        self.count[kind] = n + 1
        rng = np.random.default_rng([self.seed, zlib.crc32(kind.encode()), n])
        if kind in SCANS:
            self._op(self._scan, kind, n, rng)
        elif kind in ORACLE_CASES:
            self._op(self._oracle, kind, n, rng)
        elif kind == "query":
            self.query_block(n, rng)
        elif kind == "mc":
            self._op(self._mc, rng)
        elif kind == "fit":
            self._op(self._fit, n, rng)
        else:
            raise KeyError(kind)

    def _op(self, fn, *args, expected_failure=False):
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if not expected_failure:
                self.unexpected.append(f"{type(exc).__name__}: {exc}")

    # --- scans through the CLI ---

    def _scan(self, name, n, rng):
        argv, n_rows = SCANS[name]
        argv = argv + [_flag("scan.seed", int(rng.integers(1, 2 ** 31 - 1))),
                       _flag("scan.lo_phase0_rad", float(rng.uniform(0.0, 2.0 * math.pi)))]
        theta0 = PIEZO_THETA0.get(name)
        if theta0 is not None:
            theta0 += float(rng.uniform(-0.01, 0.01))
            argv.append(_flag("scan.theta0", theta0))
        path = os.path.join(self.out_dir, f"scan-{name}.csv")
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rc = self.m["cli"].main(argv + [f"--output.path={path}"])
        elapsed = time.perf_counter() - t0
        require(rc == 0, f"{name} scan exited with code {rc}")
        self.csv_bytes += os.path.getsize(path)
        cols = _read_columns(path)
        require(len(cols.get("t_s", ())) == n_rows, f"{name}: expected {n_rows} rows")
        self.scan_s.setdefault(name, []).append(elapsed)

        t = np.array(cols["t_s"], dtype=float)
        c = np.array(cols["c"], dtype=float)
        x = np.array(cols["X"], dtype=float)
        theta_eff = np.array(cols["theta_eff"], dtype=float)
        flags = dict(a[2:].split("=", 1) for a in argv[1:])
        if argv[0] == "release":
            c_model = ex.decay(t, CLOUD[2], CLOUD[0], CLOUD[1])
            thetas = np.full(t.size, RELEASE_THETA0)
            drive = RELEASE_DRIVE
        else:
            c_model = np.full(t.size, float(flags["model.C"]))
            thetas = np.array([theta0 + float(flags["scan.theta_rate"]) * ti for ti in t])
            drive = float(flags["scan.drive_Y"])
        require(np.allclose(c, c_model, rtol=1e-10, atol=0.0),
                f"{name}: column c disagrees with the model cooperativity")
        check_trace_noise(name, cols)
        if name == "gauss":
            check_binned_trace(c, x, theta_eff, drive)
            return
        n_jumps, jump_theta, n_real = check_plane_trace(name, c, thetas, DELTA, drive, x, theta_eff)
        if name == "release":
            check_release_crossing(name, t, theta_eff)
        elif name == "piezo_mono":
            require(n_jumps == 0 and max(n_real) == 1,
                    f"{name}: the C=20 sweep must stay monostable without jumps")
        else:
            require(n_jumps == 1, f"{name}: {n_jumps} branch jumps, expected one")
            self._jumps[name, n] = jump_theta
            up, down = self._jumps.get(("piezo_up", n)), self._jumps.get(("piezo_down", n))
            if up is not None and down is not None:
                require(up > down, f"no hysteresis: the up sweep jumps at theta={up!r}, "
                        f"the down sweep at {down!r}")

    # --- operating-point queries through the API ---

    def query_block(self, n, rng) -> None:
        bis = self.m["bistability"]
        for kind in QUERY_BLOCK:
            if kind == "N":
                c, y = self.near_critical[n % len(self.near_critical)]
                delta = theta = 0.0
            else:
                c = float(np.exp(rng.uniform(0.0, math.log(500.0))))
                delta = float(rng.uniform(-30.0, 30.0))
                theta = float(rng.uniform(-10.0, 10.0))
                y = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e4))))
                if kind == "W":
                    y = ex.plane_state_equation(1e-6, c, delta, theta)
            bins = {"g": 8, "G": 64}.get(kind)
            profile = bis.PlaneWave() if bins is None else bis.GaussianBins(bins)
            p = bis.ModelParams(c=c, delta=delta, theta=theta, transverse=profile)
            self._op(self._query, p, y, bins, kind == "W", expected_failure=kind == "N")

    def _query(self, p, y, bins, weak):
        bis, spec = self.m["bistability"], self.m["spectra"]
        t0 = time.perf_counter()
        roots = bis.solve_steady_states(y, p)
        tp = bis.turning_points(p)
        spectra = []
        for r in roots:
            if r.stable:
                fs = spec.build_fluctuation_system(r, p)
                for om in QUERY_OMEGAS:
                    q = spec.output_spectrum(fs, om)
                    ve = spec.efficiency_matrix(q.v, ETA)
                    spectra.append((q, ve, spec.quadrature_extrema(ve)))
        self.query_ms.append((time.perf_counter() - t0) * 1e3)

        label = f"C={p.c!r} delta={p.delta!r} theta={p.theta!r} Y={y!r} bins={bins}"
        xs = [r.intensity for r in roots]
        stable = [r.stable for r in roots]
        if bins is None:
            ref = ex.PlaneWaveReference(p.c, p.delta, p.theta, y)
            ex.check_plane_roots(ref, xs, stable)
            ex.check_plane_folds(ref, tp.points, 100.0 * (1.0 + p.delta ** 2))
        else:
            ex.check_binned_roots(xs, stable, p.c, p.delta, p.theta, y, bins)
            require(len(tp.points) <= 2, f"more than two folds at {label}")
            for x in tp.points:
                _, sl = ex.binned_drive_and_slope(np.array([x * (1 - 1e-6), x * (1 + 1e-6)]),
                                                  p.c, p.delta, p.theta, bins)
                require(sl[0] * sl[1] < 0.0, f"dY/dX keeps its sign across the fold X={x!r} at {label}")
        names = [r.branch.name for r in roots]
        expect = {1: ["MONOSTABLE"], 2: ["LOWER", "UPPER"], 3: ["LOWER", "MIDDLE", "UPPER"]}
        require(names == expect.get(len(roots)), f"branch labels {names} at {label}")
        require(any(stable), f"no stable steady state at {label}")
        for q, ve, ext in spectra:
            where = f"omega={q.omega_hz:g} {label}"
            ex.check_spectrum(q.v, q.s_min, q.s_max, ETA, ve, ext[:2], where)
            if q.omega_hz == OMEGA_HI:
                ex.check_vacuum(q.v, 1e-8, where)
            if weak:
                ex.check_vacuum(q.v, 1e-5, where)

    # --- cross-checks ---

    def _oracle(self, case, n, rng):
        c, (x_lo, x_hi), omegas, cutoff = ORACLE_CASES[case]
        bis, spec, orc = self.m["bistability"], self.m["spectra"], self.m["oracle"]
        x = float(rng.uniform(x_lo, x_hi))
        p = bis.ModelParams(c=c, delta=0.0, theta=0.0, n_atoms=1)
        y = ex.plane_state_equation(x, c, 0.0, 0.0)
        t0 = time.perf_counter()
        spectra = orc.me_oracle_spectrum(p, np.array(omegas), drive_y=y, fock_cutoff=cutoff)
        self.oracle_calls.setdefault(n, []).append(time.perf_counter() - t0)
        ss = min(bis.solve_steady_states(y, p), key=lambda r: abs(r.intensity - x))
        fs = spec.build_fluctuation_system(ss, p)
        for q_me in spectra:
            v_lin = spec.output_spectrum(fs, q_me.omega_hz).v
            dev = float(np.max(np.abs(v_lin - q_me.v)) / np.max(np.abs(q_me.v)))
            require(dev <= 0.05, f"oracle and linearized spectra differ by {dev:.4f} at "
                    f"X={x!r} omega={q_me.omega_hz:g} cutoff={cutoff}")

    def _mc(self, rng):
        cloud = self.m["cloud"]
        cp = cloud.CloudParams(sigma_r_m=CLOUD[0], temp_k=CLOUD[1], c0=CLOUD[2])
        seed = int(rng.integers(1, 2 ** 31 - 1))
        t0 = time.perf_counter()
        est = cloud.mc_cooperativity(cp, CLOUD[0] / 15.0, MC_TIMES, n_samples=MC_SAMPLES, seed=seed)
        self.mc_s.append(time.perf_counter() - t0)
        truth = ex.decay(MC_TIMES, CLOUD[2], CLOUD[0], CLOUD[1])
        worst = max(abs(c - tr) / tr for (_, c), tr in zip(est, truth))
        require(worst <= 0.03, f"Monte Carlo deviates {worst:.4f} from the closed-form decay")

    def _fit(self, n, rng):
        cloud = self.m["cloud"]
        truth = ex.decay(FIT_TIMES, CLOUD[2], CLOUD[0], CLOUD[1])
        noiseless = n % FIT_GROUP == 0
        if noiseless:
            samples = [cloud.CooperativitySample(float(t), float(c)) for t, c in zip(FIT_TIMES, truth)]
        else:
            noisy = truth * (1.0 + 0.05 * rng.standard_normal(truth.size))
            samples = [cloud.CooperativitySample(float(t), float(max(c, 0.0)), sigma_c=float(0.05 * tr))
                       for t, c, tr in zip(FIT_TIMES, noisy, truth)]
        t0 = time.perf_counter()
        fr = cloud.fit_cooperativity(samples)
        self.fit_ms.append((time.perf_counter() - t0) * 1e3)
        tau_r, tau_g = ex.cloud_timescales(CLOUD[0], CLOUD[1])
        rel = (abs(fr.c0 - CLOUD[2]) / CLOUD[2], abs(fr.tau_r_s - tau_r) / tau_r,
               abs(fr.tau_g_s - tau_g) / tau_g)
        require(fr.converged, f"fit did not converge: {fr.message}")
        if noiseless:
            require(max(rel) <= 1e-6, f"noiseless fit misses the truth by {max(rel):.3e}")
            return
        group = self._fit_errors.setdefault(n // FIT_GROUP, [])
        group.append(rel)
        if len(group) == FIT_GROUP - 1:
            medians = np.median(np.array(group), axis=0)
            require(np.max(medians) <= 0.10, f"noisy-fit median errors {medians} exceed 0.10")

    # --- results ---

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        ranked = sorted(self.query_ms)
        passes = [sum(t) for t in self.oracle_calls.values() if len(t) == len(ORACLE_CASES)]
        plane = [k for k in SCANS if k != "gauss"]
        return {
            "trace_steps_per_s": (sum(SCANS[k][1] for k in plane)
                                  / sum(statistics.median(self.scan_s[k]) for k in plane), "steps/s"),
            "gauss_steps_per_s": (SCANS["gauss"][1] / statistics.median(self.scan_s["gauss"]), "steps/s"),
            "query_p50_ms": (statistics.median(ranked), "ms"),
            "query_tail_ms": (tail(ranked), "ms"),
            "oracle_pass_s": (statistics.median(passes), "s"),
            "mc_s": (statistics.median(self.mc_s), "s"),
            "fit_ms": (statistics.median(self.fit_ms), "ms"),
        }


TAIL_PERCENTILE = 95


def tail(sorted_values) -> float:
    """The 95th percentile (nearest rank); needs 200 values for 10 beyond it."""
    n = len(sorted_values)
    if n < 200:
        raise RuntimeError(f"{n} queries are too few for a 95th percentile with 10 beyond it")
    return sorted_values[math.ceil(TAIL_PERCENTILE / 100 * n) - 1]


def check_plane_trace(name, c, thetas, delta, drive, x, theta_eff):
    """Each row's X is a stable root; jumps only where the branch ended.

    Returns (number of jumps, theta at the first jump, real-root counts).
    """
    n_real = []
    prev = None
    jumps = 0
    jump_theta = math.nan
    for i, (ci, th, xi) in enumerate(zip(c, thetas, x)):
        ref = ex.PlaneWaveReference(float(ci), delta, float(th), drive)
        roots = ref.roots
        where = f"{name} row {i} (C={ci!r} theta={th!r})"
        stable = ref.stable_roots()
        require(any(ex.near(xi, r, 1e-8) for r in stable),
                f"{where}: X={xi!r} is not a stable root {stable}")
        if len(roots) == 3:
            label = "lower" if ex.near(xi, roots[0], 1e-8) else "upper"
        else:
            label = "mono"
        if prev is not None:
            prev_label, prev_roots, prev_x = prev
            if prev_label != "mono" and len(roots) == 3:
                require(label == prev_label,
                        f"{where}: jumped off the {prev_label} branch while it still exists")
            elif len(roots) == 3:
                nearest = min(stable, key=lambda r: abs(math.log(r / prev_x)))
                require(ex.near(xi, nearest, 1e-8), f"{where}: left the continuing branch")
            elif prev_label != "mono":
                own, other = (prev_roots[0], prev_roots[2]) if prev_label == "lower" \
                    else (prev_roots[2], prev_roots[0])
                if abs(math.log(xi / other)) < abs(math.log(xi / own)):
                    jumps += 1
                    if jumps == 1:
                        jump_theta = float(th)
        prev = (label, roots, xi)
        n_real.append(len(roots))
        expect = th - 2.0 * ci * delta / (1.0 + delta * delta + xi)
        require(abs(theta_eff[i] - expect) <= 1e-9 * max(1.0, abs(expect - th)),
                f"{where}: theta_eff={theta_eff[i]!r}, the model gives {expect!r}")
    return jumps, jump_theta, n_real


def check_binned_trace(c, x, theta_eff, drive):
    y, slope = ex.binned_drive_and_slope(x, c, DELTA, RELEASE_THETA0, 64)
    require(np.all(np.abs(y - drive) <= 1e-9 * drive),
            "gauss: a row's X leaves a residual in the binned state equation")
    require(np.all(slope > 0.0), "gauss: a row sits on an unstable root")
    g = ex.binned_susceptibility(x, DELTA, 64)
    expect = RELEASE_THETA0 - 2.0 * c * DELTA * g
    require(np.all(np.abs(theta_eff - expect) <= 1e-9 * np.maximum(1.0, np.abs(expect - RELEASE_THETA0))),
            "gauss: theta_eff disagrees with the binned susceptibility")


def check_trace_noise(name, cols):
    s_min = np.array(cols["s_min"], dtype=float)
    s_max = np.array(cols["s_max"], dtype=float)
    shot = np.array(cols["shot_ref"], dtype=float)
    require(np.all(s_min >= -1e-9), f"{name}: negative s_min")
    require(np.all(s_min * s_max >= 1.0 - 1e-9), f"{name}: s_min*s_max < 1")
    require(abs(float(np.mean(shot)) - 1.0) <= 1e-9, f"{name}: shot_ref mean {np.mean(shot)!r} != 1")


def check_release_crossing(name, t, theta_eff):
    flips = np.nonzero(np.diff(np.sign(theta_eff)) != 0)[0]
    require(flips.size > 0, f"{name}: the release never crosses resonance")
    t_ms = float(t[flips[0] + 1]) * 1e3
    require(5.0 <= t_ms <= 15.0, f"{name}: resonance crossed at {t_ms:.2f} ms, outside [5, 15]")
