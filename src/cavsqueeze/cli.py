"""Command-line interface: one subcommand per pipeline, CSV in and out.

Every subcommand reads the same layered configuration (defaults, then an
optional ``--config FILE``, then ``--key=value`` flags) and writes CSV with
full round-trip float precision to stdout or to ``output.path``.  Exit codes:
0 on success, 1 for configuration or validation problems, 2 for runtime
failures (no stable state, truncation overflow, and the like).
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import stat
import sys
from typing import Any, Iterable, Sequence

import numpy as np

from .bistability import solve_steady_states, turning_points
from .cloud import cooperativity_decay, fit_cooperativity, mc_cooperativity, read_samples
from .config import ConfigError, RunConfig, load_config
from .oracle import me_oracle_spectrum
from .scans import free_release_scan, piezo_scan
from .spectra import build_fluctuation_system, efficiency_matrix, output_spectrum, quadrature_extrema

__all__ = ["main", "entry"]

TRACE_HEADER = ["t_s", "c", "theta_eff", "X", "branch", "s_meas", "s_min", "s_max", "shot_ref"]
SPECTRUM_HEADER = ["omega_hz", "v11", "v12", "v22", "s_min", "s_max", "theta_min"]


def _format(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(cfg: RunConfig, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    path = cfg["output.path"]
    formatted = [[_format(v) for v in row] for row in rows]
    if path:
        with _open_output(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(formatted)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)


def _open_output(path: str):
    """Open ``path`` for writing text, replacing a plain existing file.

    Creating a new file is faster than truncating the old one, which waits
    for the old contents' writeback.  The old file is replaced only where
    the new one can be just like it: a regular file with one link, owned by
    this process's user and group, writable by this process and without
    extended attributes such as ACLs (where they cannot be listed, no file
    is replaced).  It is removed and created anew with its permission bits.
    Every other path (a symlink, a hard-linked, read-only or foreign file, a
    device such as /dev/null) is opened and truncated in place, and so
    written through, as ``open(path, "w")`` does.
    """
    try:
        st = os.lstat(path)
        plain = (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                 and st.st_uid == os.geteuid() and st.st_gid == os.getegid()
                 and os.access(path, os.W_OK)
                 and hasattr(os, "listxattr") and not os.listxattr(path))
        if plain:
            os.unlink(path)
            # created private, then given the old bits: never wider than them
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            except OSError:
                os.close(fd)
                raise
            return open(fd, "w", encoding="utf-8", newline="")
    except OSError:
        pass
    return open(path, "w", encoding="utf-8", newline="")


def _spectrum_rows(spectra, eta: float):
    rows = []
    for q in spectra:
        ve = efficiency_matrix(q.v, eta)
        lo, hi, theta = quadrature_extrema(ve)
        rows.append([q.omega_hz, ve[0, 0], ve[0, 1], ve[1, 1], lo, hi, theta])
    return rows


def _omega_grid(cfg: RunConfig) -> np.ndarray:
    lo = cfg["scan.omega_min_hz"]
    hi = cfg["scan.omega_max_hz"]
    n = int(cfg["scan.n_omega"])
    if hi < lo:
        raise ValueError(f"scan.omega_max_hz={hi} is below scan.omega_min_hz={lo}")
    return np.linspace(lo, hi, n)


def _cmd_steady(cfg: RunConfig, args: argparse.Namespace) -> None:
    p = cfg.model_params()
    roots = sorted(solve_steady_states(cfg["scan.drive_Y"], p), key=lambda r: r.intensity)
    rows = [[r.intensity, r.drive, r.branch.name, r.stable, r.slope] for r in roots]
    _write_csv(cfg, ["X", "Y", "branch", "stable", "slope"], rows)


def _cmd_turning(cfg: RunConfig, args: argparse.Namespace) -> None:
    tp = turning_points(cfg.model_params())
    rows = [[x, y] for x, y in zip(tp.points, tp.ordinates)]
    _write_csv(cfg, ["X", "Y"], rows)


def _cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> None:
    p = cfg.model_params()
    stable = [r for r in solve_steady_states(cfg["scan.drive_Y"], p) if r.stable]
    if not stable:
        raise RuntimeError("no stable steady state at this drive")
    ss = min(stable, key=lambda r: r.intensity)
    fs = build_fluctuation_system(ss, p)
    spectra = [output_spectrum(fs, float(om)) for om in _omega_grid(cfg)]
    _write_csv(cfg, SPECTRUM_HEADER, _spectrum_rows(spectra, cfg["detection.eta"]))


def _trace_rows(trace):
    return [
        [s.t_s, s.c, s.theta_eff, s.x, s.branch, s.s_meas, s.s_min, s.s_max, s.shot_ref]
        for s in trace.samples
    ]


def _cmd_release(cfg: RunConfig, args: argparse.Namespace) -> None:
    trace = free_release_scan(cfg.scan_config(), cfg.cloud_params(), cfg.model_params())
    _write_csv(cfg, TRACE_HEADER, _trace_rows(trace))


def _cmd_piezo(cfg: RunConfig, args: argparse.Namespace) -> None:
    trace = piezo_scan(cfg.scan_config(), cfg.model_params())
    _write_csv(cfg, TRACE_HEADER, _trace_rows(trace))


def _cmd_fitc(cfg: RunConfig, args: argparse.Namespace) -> None:
    fr = fit_cooperativity(read_samples(args.data))
    header = [
        "c0", "sigma_r_m", "temp_k", "tau_r_s", "tau_g_s",
        "c0_err", "sigma_r_err", "temp_k_err",
        "rms_residual", "n_iter", "converged", "message",
    ]
    row = [
        fr.c0, fr.sigma_r_m, fr.temp_k, fr.tau_r_s, fr.tau_g_s,
        fr.c0_err, fr.sigma_r_err, fr.temp_k_err,
        fr.rms_residual, fr.n_iter, fr.converged, fr.message,
    ]
    _write_csv(cfg, header, [row])


def _cmd_mc_cloud(cfg: RunConfig, args: argparse.Namespace) -> None:
    cp = cfg.cloud_params()
    times = np.linspace(0.0, cfg["cloud.t_max_s"], int(cfg["cloud.n_times"]))
    est = mc_cooperativity(
        cp,
        cfg["cloud.waist_m"],
        times,
        n_samples=int(cfg["cloud.mc_samples"]),
        seed=int(cfg["cloud.mc_seed"]),
    )
    rows = [[t, c_hat, cooperativity_decay(t, cp)] for t, c_hat in est]
    _write_csv(cfg, ["t_s", "c_hat", "c_model"], rows)


def _cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> None:
    spectra = me_oracle_spectrum(
        cfg.model_params(),
        _omega_grid(cfg),
        drive_y=cfg["scan.drive_Y"],
        fock_cutoff=int(cfg["model.fock_cutoff"]),
    )
    _write_csv(cfg, SPECTRUM_HEADER, _spectrum_rows(spectra, cfg["detection.eta"]))


COMMANDS = {
    "steady": ("solve the steady states at one drive intensity", _cmd_steady),
    "turning": ("list the turning points of the steady-state curve", _cmd_turning),
    "spectrum": ("output noise spectra on an analysis-frequency grid", _cmd_spectrum),
    "release": ("simulate a noise trace during free fall of the cloud", _cmd_release),
    "piezo": ("simulate a noise trace during a cavity-length sweep", _cmd_piezo),
    "fitc": ("fit the cooperativity decay law to measured samples", _cmd_fitc),
    "mc-cloud": ("Monte Carlo check of the cooperativity decay", _cmd_mc_cloud),
    "oracle": ("exact single-atom spectra from the master equation", _cmd_oracle),
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: building it costs about a millisecond,
    a large share of a short scan."""
    parser = argparse.ArgumentParser(
        prog="cavsqueeze",
        allow_abbrev=False,
        description="Bistability, noise spectra, and release scans of the "
        "cold-atom cavity model; all output is CSV.",
        epilog="Any configuration key can be overridden with --key=value, "
        "e.g. --model.C=50 --scan.drive_Y=900.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", default=None, help="path to a key = value config file")
        if name == "fitc":
            sp.add_argument("data", help="CSV file of decay samples (t_s,c[,sigma_c])")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    ns, extra = _parser().parse_known_args(argv)
    try:
        cfg = load_config(ns.config, list(extra))
        COMMANDS[ns.command][1](cfg, ns)
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
