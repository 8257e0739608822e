"""Tests for configuration layering and the CSV command-line interface."""

import io
import contextlib
import csv
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cavsqueeze
from cavsqueeze.cli import TRACE_HEADER, _write_csv, main
from cavsqueeze.config import ConfigError, DEFAULTS, load_config
from cavsqueeze.scans import Trace, TraceSample


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, out.getvalue(), err.getvalue()


# === configuration layering ===


def test_defaults_without_file_or_flags():
    cfg = load_config(None, [])
    assert cfg["model.C"] == 220.0
    assert cfg["model.delta"] == -20.0
    assert cfg["model.kappa_hz"] == 2.5e6
    assert cfg["model.gamma_hz"] == 2.6e6
    assert cfg["detection.eta"] == 0.9
    assert cfg["scan.omega_hz"] == 5e6


def test_empty_file_yields_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(str(path), [])
    assert cfg.values == {k: d for k, (d, _) in DEFAULTS.items()}


def test_file_then_flag_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# release settings\n"
        "model.C = 50\n"
        "model.delta = -20  # trailing comment\n"
        "scan.drive_Y = 900\n"
    )
    cfg = load_config(str(path), ["--model.delta=-25"])
    assert cfg["model.C"] == 50.0
    assert cfg["model.delta"] == -25.0  # flag wins over file
    assert cfg["scan.drive_Y"] == 900.0
    assert cfg["model.theta"] == 0.0   # untouched default


def test_all_file_errors_reported_with_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "model.C = -1\n"
        "nonsense_line\n"
        "weird.key = 3\n"
        "model.C = 4\n"
        "scan.rel_noise = 2.0\n"
    )
    with pytest.raises(ConfigError) as exc:
        load_config(str(path), [])
    messages = exc.value.errors
    assert len(messages) == 5
    assert any("model.C" in m and ":1:" in m for m in messages)
    assert any(":2:" in m for m in messages)
    assert any("unknown key" in m and "weird.key" in m for m in messages)
    assert any("duplicate" in m and ":4:" in m for m in messages)
    assert any("scan.rel_noise" in m and ":5:" in m for m in messages)


def test_flag_errors_name_the_key():
    with pytest.raises(ConfigError) as exc:
        load_config(None, ["--model.C=oops", "--no.such=1", "stray"])
    joined = "\n".join(exc.value.errors)
    assert "--model.C" in joined
    assert "unknown key" in joined
    assert "stray" in joined


def test_integer_keys_reject_fractions():
    with pytest.raises(ConfigError):
        load_config(None, ["--scan.n_omega=2.5"])
    cfg = load_config(None, ["--scan.n_omega=11", "--cloud.mc_samples=2e4"])
    assert cfg["scan.n_omega"] == 11
    assert cfg["cloud.mc_samples"] == 20000


def test_missing_config_file_is_an_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg", [])


def test_typed_views_construct_model_objects():
    cfg = load_config(None, ["--model.transverse=gaussian", "--model.gaussian_bins=8"])
    p = cfg.model_params()
    assert type(p.transverse).__name__ == "GaussianBins"
    assert p.transverse.m == 8
    cp = cfg.cloud_params()
    assert cp.c0 == 220.0
    assert cfg.scan_config().eta == 0.9


# === subcommands ===


def test_steady_uncoupled_cavity_row():
    rc, out, _ = run_cli(["steady", "--model.C=0", "--scan.drive_Y=5", "--model.theta=2"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "X,Y,branch,stable,slope"
    fields = lines[1].split(",")
    assert float(fields[0]) == 1.0
    assert float(fields[1]) == 5.0
    assert fields[2] == "MONOSTABLE"
    assert fields[3] == "true"


def test_steady_reports_all_roots_sorted():
    rc, out, _ = run_cli(
        ["steady", "--model.C=50", "--model.delta=-20", "--model.theta=-1.5",
         "--scan.drive_Y=900"]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [r[2] for r in rows] == ["LOWER", "MIDDLE", "UPPER"]
    xs = [float(r[0]) for r in rows]
    assert xs == sorted(xs)


def test_turning_lists_both_folds():
    rc, out, _ = run_cli(["turning", "--model.C=8", "--model.delta=0", "--model.theta=0"])
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 2
    xs = sorted(float(r[0]) for r in rows)
    assert abs(xs[0] - (7.0 - np.sqrt(32.0))) < 1e-6
    assert abs(xs[1] - (7.0 + np.sqrt(32.0))) < 1e-6


def test_spectrum_of_empty_cavity_is_shot_noise():
    rc, out, _ = run_cli(
        ["spectrum", "--model.C=0", "--scan.n_omega=5", "--detection.eta=1.0"]
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega_hz,v11,v12,v22,s_min,s_max,theta_min"
    for line in lines[1:]:
        _, v11, v12, v22, s_min, s_max, _ = (float(f) for f in line.split(","))
        assert abs(v11 - 1.0) < 1e-12 and abs(v22 - 1.0) < 1e-12
        assert abs(v12) < 1e-12
        assert abs(s_min - 1.0) < 1e-12 and abs(s_max - 1.0) < 1e-12


def test_validation_failures_exit_one():
    rc, _, err = run_cli(["steady", "--model.C=-1"])
    assert rc == 1 and "model.C" in err
    rc, _, err = run_cli(["steady", "--model.unknown=1"])
    assert rc == 1 and "unknown key" in err
    rc, _, err = run_cli(["piezo", "--scan.duration_s=0.001"])  # rate left at zero
    assert rc == 1 and "theta_rate" in err
    rc, _, err = run_cli(["fitc", "/no/such/file.csv"])
    assert rc == 1
    rc, _, err = run_cli(["release", "--config=/no/such/file.cfg"])
    assert rc == 1 and "config" in err


@pytest.mark.parametrize("command", ["spectrum", "oracle"])
def test_an_inverted_frequency_window_exits_one(command):
    rc, out, err = run_cli([command, "--scan.omega_min_hz=2e7", "--scan.omega_max_hz=1e7"])
    assert rc == 1 and out == ""
    assert err.startswith("error: scan.omega_max_hz=10000000.0 is below "
                          "scan.omega_min_hz=20000000.0")


@pytest.mark.parametrize("args", [
    ["steady", "--model.C=1e200"],
    ["turning", "--model.C=1e300"],
    ["steady", "--scan.drive_Y=1e308"],
])
def test_plane_wave_coefficients_beyond_the_float_range_exit_one(args):
    rc, out, err = run_cli(args)
    assert rc == 1 and out == ""
    assert err.startswith("error: the plane-wave state equation at C=")
    assert "beyond the float range" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["piezo", "--model.C=1e200", "--scan.theta_rate=112.5"],
    ["release", "--cloud.c0=1e200"],
])
def test_a_gaussian_trace_beyond_the_float_range_exits_one(args):
    rc, out, err = run_cli(args + ["--model.transverse=gaussian", "--model.gaussian_bins=8",
                                   "--scan.duration_s=4e-4", "--scan.dt_s=8e-5",
                                   "--scan.vbw_hz=2500"])
    assert rc == 1 and out == ""
    assert err.startswith("error: the GaussianBins(m=8) state equation at C=1e+200, ")
    assert "beyond the float range" in err and "Traceback" not in err


@pytest.mark.parametrize("bins, c", [("64", "1e200"), ("8", "1e308")])
def test_a_binned_fold_beyond_the_float_range_exits_one(bins, c):
    rc, out, err = run_cli(["turning", "--model.transverse=gaussian",
                            f"--model.gaussian_bins={bins}", f"--model.C={c}"])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: the GaussianBins(m={bins}) state equation at C=")
    assert "beyond the float range" in err and "Traceback" not in err


@pytest.mark.parametrize("args, name, theta, y", [
    (["release", "--scan.drive_Y=5e305", "--scan.duration_s=2e-05"], "plane-wave", -7.5,
     "5e+305"),
    (["release", "--model.transverse=gaussian", "--model.gaussian_bins=64",
      "--scan.drive_Y=5e305", "--scan.duration_s=2e-05"], "GaussianBins(m=64)", -7.5, "5e+305"),
    (["steady", "--model.transverse=gaussian", "--model.gaussian_bins=8",
      "--scan.drive_Y=1e306"], "GaussianBins(m=8)", 0.0, "1e+306"),
])
def test_a_drive_beyond_the_float_range_exits_one(args, name, theta, y):
    # the release wrote X = 0.0 on the lower branch and the steady state
    # printed only its header, both exiting 0
    rc, out, err = run_cli(args)
    assert rc == 1 and out == ""
    assert err == (f"error: the {name} state equation at C=220.0, delta=-20.0, "
                   f"theta={theta!r}, Y={y} has coefficients beyond the float range\n")


def test_a_bin_count_past_its_bound_stops_in_validation(monkeypatch):
    # rejected before any quadrature is built: 100,000 bins asked leggauss for 74.5 GiB
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
    rc, out, err = run_cli(["steady", "--model.transverse=gaussian",
                            "--model.gaussian_bins=1025"])
    assert rc == 1 and out == ""
    assert err.startswith("error: --model.gaussian_bins: must lie in [1, 1024], got '1025'")


@pytest.mark.parametrize("args, allocator, message", [
    (["mc-cloud", "--cloud.n_times=1e11", "--cloud.mc_samples=10000"], "numpy.linspace",
     "error: --cloud.n_times: must lie in [2, 10000], got '1e11'"),
    (["spectrum", "--scan.n_omega=1e11"], "numpy.linspace",
     "error: --scan.n_omega: must lie in [1, 1000], got '1e11'"),
    (["oracle", "--model.n_atoms=1", "--model.fock_cutoff=100000", "--model.C=0.2",
      "--scan.drive_Y=0.05", "--scan.n_omega=2"], "cavsqueeze.oracle._cavity_operators",
     "error: --model.fock_cutoff: must lie in [2, 40], got '100000'"),
    (["release", "--scan.dt_s=1e-12"], "cavsqueeze.scans._scan_times",
     "error: duration_s / dt_s must be at most 1,000,000 steps, got 0.025 / 1e-12"),
    (["piezo", "--scan.theta_rate=112.5", "--scan.dt_s=1e-12"], "cavsqueeze.scans._scan_times",
     "error: duration_s / dt_s must be at most 1,000,000 steps, got 0.025 / 1e-12"),
], ids=["n_times", "n_omega", "fock_cutoff", "release-steps", "piezo-steps"])
def test_a_count_past_its_bound_stops_in_validation(monkeypatch, args, allocator, message):
    # each of these asked numpy for tens of GiB or more and died with a
    # traceback; the allocator is patched out, so nothing that big is built
    monkeypatch.setattr(allocator, None)
    rc, out, err = run_cli(args)
    assert rc == 1 and out == ""
    assert err == message + "\n"


def test_a_root_far_below_its_bracket_exits_zero():
    # the root near 8.02e-60 C^-2 lies far below the bracket [0, 401], where
    # Newton from the top cancels in x - f/f'
    for c in (1e32, 1e100, 1e150):
        rc, out, err = run_cli(["steady", f"--model.C={c!r}", "--scan.drive_Y=800"])
        assert rc == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        x = float(rows[0]["X"])
        assert 0.0 < x < 1e-50
        assert abs(cavsqueeze.state_equation(x, cavsqueeze.ModelParams(c=c)) / 800.0
                   - 1.0) <= 1e-15


def test_a_step_count_beyond_the_float_range_exits_one():
    rc, out, err = run_cli(["release", "--scan.duration_s=1e300", "--scan.dt_s=1e-300"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "duration_s" in err and "dt_s" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, key", [("release", "scan.seed"), ("mc-cloud", "cloud.mc_seed")])
def test_negative_seeds_are_rejected_before_any_work(tmp_path, command, key):
    out_path = tmp_path / "out.csv"
    rc, _, err = run_cli([command, f"--{key}=-1", f"--output.path={out_path}"])
    assert rc == 1 and key in err
    assert not out_path.exists()


def test_runtime_failures_exit_two():
    rc, _, err = run_cli(
        ["oracle", "--model.C=0.2", "--model.n_atoms=1", "--scan.drive_Y=4000",
         "--scan.n_omega=2"]
    )
    assert rc == 2 and "truncated" in err


def test_atomic_noise_underflow_exits_two(tmp_path):
    out_path = tmp_path / "out.csv"
    rc, _, err = run_cli(["spectrum", "--scan.drive_Y=1e160", f"--output.path={out_path}"])
    assert rc == 2 and "atomic noise underflows" in err


def test_fitc_roundtrip_through_files(tmp_path):
    from cavsqueeze import CloudParams, cooperativity_decay

    cp = CloudParams(sigma_r_m=4e-3, temp_k=5e-3, c0=220.0)
    data = tmp_path / "decay.csv"
    times = np.linspace(0.0, 0.06, 14)
    lines = ["t_s,c"] + [
        f"{float(t)!r},{float(cooperativity_decay(float(t), cp))!r}" for t in times
    ]
    data.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "fit.csv"
    rc, _, _ = run_cli(["fitc", str(data), f"--output.path={out_path}"])
    assert rc == 0
    header, row = out_path.read_text().strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["c0"]) - 220.0) / 220.0 < 1e-6
    assert abs(float(cols["sigma_r_m"]) - 4e-3) / 4e-3 < 1e-6
    assert abs(float(cols["temp_k"]) - 5e-3) / 5e-3 < 1e-6
    assert cols["converged"] == "true"


def test_fitc_of_an_unresolved_fit_exits_zero(tmp_path):
    # a 2 mm, 5 uK cloud with 10 % noise, weighted by 1 + C: the final
    # Jacobian overflowed, a RuntimeWarning (a traceback under
    # error::RuntimeWarning); the fit is reported, named unresolved
    from cavsqueeze import CloudParams, cooperativity_decay

    t = np.linspace(0.0, 0.030, 16)
    z = np.random.default_rng(5).standard_normal(t.size)
    c = np.maximum(cooperativity_decay(t, CloudParams(2e-3, 5e-6, 220.0)) * (1.0 + 0.1 * z),
                   0.0)
    data = tmp_path / "decay.csv"
    rows = (f"{float(ti)!r},{float(ci)!r},{float(1.0 + ci)!r}\n" for ti, ci in zip(t, c))
    data.write_text("t_s,c,sigma_c\n" + "".join(rows))
    rc, out, err = run_cli(["fitc", str(data)])
    assert rc == 0 and err == ""
    header, row = out.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["sigma_r_err"] == "inf" and cols["converged"] == "false"
    assert cols["message"] == ("line search failed; the estimate is unresolved: "
                               "an error is not finite")


def test_mc_cloud_matches_model_column(tmp_path):
    rc, out, _ = run_cli(
        ["mc-cloud", "--cloud.mc_samples=200000", "--cloud.n_times=5",
         "--cloud.t_max_s=0.02"]
    )
    assert rc == 0
    for line in out.strip().split("\n")[1:]:
        _, c_hat, c_model = (float(f) for f in line.split(","))
        assert abs(c_hat - c_model) / c_model < 0.02


@pytest.mark.filterwarnings("ignore:scan never crosses")
def test_reruns_are_byte_identical(tmp_path):
    args = [
        "release", "--scan.duration_s=0.001", "--cloud.c0=220",
        "--scan.drive_Y=800", "--scan.theta0=-7.5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run_cli(args + [f"--output.path={a}"])
    rc2, _, _ = run_cli(args + [f"--output.path={b}"])
    assert rc1 == 0 and rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().split("\n", 1)[0]
    assert header == "t_s,c,theta_eff,X,branch,s_meas,s_min,s_max,shot_ref"

    spec_args = ["spectrum", "--model.C=220", "--scan.drive_Y=800", "--scan.n_omega=7"]
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run_cli(spec_args + [f"--output.path={s1}"])[0] == 0
    assert run_cli(spec_args + [f"--output.path={s2}"])[0] == 0
    assert s1.read_bytes() == s2.read_bytes()

    mc_args = ["mc-cloud", "--cloud.mc_samples=50000", "--cloud.n_times=3"]
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert run_cli(mc_args + [f"--output.path={m1}"])[0] == 0
    assert run_cli(mc_args + [f"--output.path={m2}"])[0] == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_different_seed_changes_the_trace(tmp_path):
    base = ["release", "--scan.duration_s=0.0005"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    with pytest.warns(UserWarning):
        assert main(base + [f"--output.path={a}"]) == 0
    with pytest.warns(UserWarning):
        assert main(base + ["--scan.seed=99", f"--output.path={b}"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_floats_roundtrip_exactly():
    rc, out, _ = run_cli(["steady", "--model.C=220", "--model.delta=-20",
                          "--scan.drive_Y=123.456"])
    assert rc == 0
    x, y = (float(f) for f in out.strip().split("\n")[1].split(",")[:2])
    assert y == 123.456  # full precision survives the CSV
    from cavsqueeze import ModelParams, state_equation

    assert abs(state_equation(x, ModelParams(c=220.0, delta=-20.0)) - y) < 1e-9 * y


@pytest.mark.parametrize("module", ["cavsqueeze.cli", "cavsqueeze"])
def test_module_entry_points_run_the_cli(module):
    src = str(Path(cavsqueeze.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", module, "steady"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "X,Y,branch,stable,slope"


# === one parser for every call, and the output file ===


def test_back_to_back_calls_share_one_parser_and_keep_their_output():
    from cavsqueeze.cli import _parser

    _parser.cache_clear()
    steady = ["steady", "--model.C=50", "--scan.drive_Y=900"]
    spectrum = ["spectrum", "--scan.n_omega=3"]
    first_steady = run_cli(steady)
    parser = _parser()
    assert run_cli(spectrum)[0] == 0
    assert run_cli(steady) == first_steady
    assert _parser() is parser
    _parser.cache_clear()
    first_spectrum = run_cli(spectrum)
    assert run_cli(["turning", "--model.C=50"])[0] == 0
    assert run_cli(spectrum) == first_spectrum
    assert first_steady[0] == 0 and first_steady[1].startswith("X,Y,branch")
    assert first_spectrum[1].startswith("omega_hz,v11")


def test_help_and_an_unknown_subcommand_still_exit_as_argparse_does(capsys):
    for _ in range(2):  # the second round runs on the cached parser
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: cavsqueeze") and "mc-cloud" in out
        with pytest.raises(SystemExit) as exc:
            main(["release", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


def _steady_csv(path):
    return run_cli(["steady", "--model.C=50", "--scan.drive_Y=900", f"--output.path={path}"])


def test_a_rerun_replaces_an_existing_output_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("stale\n" * 1000)
    rc, out, _ = _steady_csv(path)
    assert rc == 0 and out == ""
    expected = path.read_text()
    assert expected.startswith("X,Y,branch,stable,slope\n") and "stale" not in expected
    assert _steady_csv(path)[0] == 0
    assert path.read_text() == expected


def test_output_through_a_symlink_or_a_hard_link_writes_the_target(tmp_path):
    reference = tmp_path / "reference.csv"
    assert _steady_csv(reference)[0] == 0
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("stale\n" * 1000)
    link.symlink_to(target)
    assert _steady_csv(link)[0] == 0
    assert link.is_symlink()
    assert target.read_text() == reference.read_text()

    other = tmp_path / "other_name.csv"
    other.write_text("stale\n")
    os.link(other, tmp_path / "second_name.csv")
    assert _steady_csv(other)[0] == 0
    assert (tmp_path / "second_name.csv").read_text() == reference.read_text()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_output_to_dev_null_still_works():
    rc, out, err = _steady_csv("/dev/null")
    assert rc == 0 and out == "" and err == ""
    assert not Path("/dev/null").is_file()


def test_a_replaced_output_file_keeps_its_permission_bits(tmp_path):
    reference = tmp_path / "reference.csv"
    assert _steady_csv(reference)[0] == 0
    path = tmp_path / "private.csv"
    path.write_text("stale\n" * 1000)
    path.chmod(0o600)
    with open(path) as old:
        assert _steady_csv(path)[0] == 0
        if not getattr(os, "listxattr", lambda p: [True])(path):
            # a plain file is replaced, not truncated in place
            assert os.fstat(old.fileno()).st_nlink == 0
            assert old.read() == "stale\n" * 1000
    assert path.read_text() == reference.read_text()
    assert path.stat().st_mode & 0o7777 == 0o600


def test_a_read_only_output_file_opens_as_open_for_writing_does(tmp_path):
    path = tmp_path / "read_only.csv"
    path.write_text("stale\n")
    path.chmod(0o444)
    writable = os.access(path, os.W_OK)  # true for a superuser
    rc, _, err = _steady_csv(path)
    assert path.stat().st_mode & 0o7777 == 0o444
    if writable:
        # open(path, "w") would succeed too: the file is written, its mode kept
        assert rc == 0 and path.read_text().startswith("X,Y,branch,stable,slope\n")
    else:
        assert rc == 1 and "Permission denied" in err
        assert path.read_text() == "stale\n"


# === the column-wise CSV writer ===


def _csv_writer_reference(header, rows):
    """The table as ``csv.writer`` writes it, each value formatted on its own."""
    def text(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[text(v) for v in row] for row in rows])
    return buf.getvalue()


def _written(tmp_path, header, columns):
    path = tmp_path / "table.csv"
    _write_csv(load_config(None, [f"--output.path={path}"]), header, columns)
    return path.read_bytes().decode("utf-8")


def test_the_writer_matches_csv_writer_value_by_value(tmp_path):
    floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 123.456, 1e16]
    ints = [0, -7, 1, 2**40, 12, -1, 3, 999]
    bools = [True, False, False, True, True, False, True, False]
    strs = ["MONOSTABLE", "a,b", 'say "hi"', "two\nlines", "", " padded ", "x;y", "\u00e9"]
    columns = [
        floats,                          # Python floats
        [np.float64(v) for v in floats],  # numpy scalars, as in a list of rows
        np.array(floats),                # an array column, as a Trace holds
        ints,
        np.array(ints, dtype=np.int64),
        bools,
        np.array(bools),
        strs,
    ]
    header = [f"col{k}" for k in range(len(columns))]
    got = _written(tmp_path, header, columns)
    assert got == _csv_writer_reference(header, list(zip(*columns)))


def test_the_writer_quotes_a_carriage_return(tmp_path):
    # csv.writer quotes a lone CR from Python 3.13 on, as RFC 4180 asks;
    # this package writes no field that holds one
    assert _written(tmp_path, ["a", "b"], [["x\ry"], [1.5]]) == 'a,b\n"x\ry",1.5\n'


def test_an_empty_table_prints_the_header_only(tmp_path):
    assert _written(tmp_path, ["X", "Y"], []) == "X,Y\n"
    assert _written(tmp_path, ["X", "Y"], [(), ()]) == "X,Y\n"
    assert run_cli(["turning", "--model.C=0"]) == (0, "X,Y\n", "")


def test_the_trace_header_names_the_trace_columns_in_row_order():
    names = [f.name for f in fields(TraceSample)]
    assert [h.lower() for h in TRACE_HEADER] == names
    assert [f.name for f in fields(Trace)] == names + ["warnings"]
