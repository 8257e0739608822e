"""Benchmark of cavsqueeze: traces, point queries and cross-checks.

Run from the repository root:

    python3 bench/run.py --workload traces --seed 1 --seconds 32 --trace 0

The package is imported from ``src`` next to this directory, never from an
installed copy.  The run sets the package up (import, config load, input
generation, one warm-up call per layer), then repeats whole rounds of the
workload until ``--seconds`` have passed, timing further set-ups between
the operations of each round.  It checks every output against the
references in ``exact.py``, and prints one line per metric followed by a
JSON summary as the last line.  ``--trace 1`` wraps the
package's public functions, records spans and reports per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is a single closed-loop client on a 2-core box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAYERS = ("bistability", "spectra", "scans", "oracle", "cloud", "config", "cli")
SETUPS_PER_ROUND = 5
MIN_QUERIES = 200  # the 95th percentile needs 10 queries beyond it

sys.path.insert(0, str(HERE))

from spans import Recorder, layer_metrics, layer_self_s  # noqa: E402
from workloads import ROUND_COUNTS, Bench, round_order  # noqa: E402


def setup(seed: int) -> tuple[Bench, float]:
    """Import the package afresh, load the config, make inputs, warm up."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "cavsqueeze" or m.startswith("cavsqueeze.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cavsqueeze")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported cavsqueeze from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"cavsqueeze.{name}") for name in LAYERS}
    mods["config"].load_config(None, [])
    bench = Bench(mods, seed, str(OUT))
    warm_up(mods)
    return bench, time.perf_counter() - t0


def warm_up(m) -> None:
    bis, spec = m["bistability"], m["spectra"]
    csv_path = str(OUT / "warmup.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = m["cli"].main(["piezo", "--model.C=20", "--scan.theta_rate=360",
                            "--scan.duration_s=4e-06", f"--output.path={csv_path}"])
    if rc != 0:
        raise RuntimeError(f"warm-up scan exited with code {rc}")
    p = bis.ModelParams(transverse=bis.GaussianBins(64))
    ss = bis.solve_steady_states(800.0, p)[0]
    bis.turning_points(p)
    spec.output_spectrum(spec.build_fluctuation_system(ss, p), 5e6)
    po = bis.ModelParams(c=0.2, delta=0.0, theta=0.0, n_atoms=1)
    m["oracle"].me_oracle_spectrum(po, [0.0, 2.5e6], drive_y=0.01, fock_cutoff=6)
    cloud = m["cloud"]
    cp = cloud.CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0)
    cloud.mc_cooperativity(cp, 4e-3 / 15.0, [0.0, 0.01], n_samples=10_000, seed=1)
    t = np.linspace(0.0, 0.08, 12)
    cloud.fit_cooperativity([cloud.CooperativitySample(float(ti), float(ci))
                             for ti, ci in zip(t, cloud.cooperativity_decay(t, cp))])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_COUNTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cavsqueeze" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cavsqueeze'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    bench, elapsed = setup(args.seed)
    setup_times = [elapsed]

    recorder = Recorder() if args.trace else None
    if recorder:
        recorder.install(bench.m)
    # set-ups are timed again during the rounds, so that setup_s sees the
    # machine over the whole run; the modules they import are discarded
    round_kinds = round_order({**ROUND_COUNTS[args.workload], "setup": SETUPS_PER_ROUND})
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for kind in round_kinds:
            if kind == "setup":
                setup_times.append(setup(args.seed)[1])
            else:
                bench.run(kind)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        # stop at the round boundary nearest to the requested length
        if elapsed + 0.5 * elapsed / rounds >= args.seconds and len(bench.query_ms) >= MIN_QUERIES:
            break
    if recorder:
        recorder.uninstall()

    e2e = {"setup_s": (statistics.median(setup_times), "s"),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")}
    e2e.update(bench.end_to_end())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "measured_s": elapsed, "setup_runs_s": setup_times,
              "attempted": bench.attempted, "failed": bench.failed,
              "unexpected_failures": bench.unexpected[:20],
              "end_to_end": {k: v for k, (v, _) in e2e.items()}}
    if recorder:
        shown = layer_metrics(recorder.spans, bench.csv_bytes)
        record["per_layer"] = {k: v for k, (v, _) in shown.items()}
        record["layer_self_s"] = layer_self_s(recorder.spans)
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        shown = e2e
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for msg in bench.unexpected[:20]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds in {elapsed:.1f} s, "
          f"{bench.attempted} operations attempted, {bench.failed} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.unexpected,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
