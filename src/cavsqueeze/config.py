"""Flat key-value run configuration with defaults, file, and flag layers.

Configuration is a single namespace of dotted keys (``model.C``,
``scan.drive_Y``, ...) merged from three layers with increasing precedence:
built-in defaults, an optional ``key = value`` config file, and command-line
flags of the form ``--key=value``.  Parsing validates every value against the
key's type and physical range and reports *all* problems at once, each named
by key and, for files, by line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .bistability import GaussianBins, ModelParams, PlaneWave
from .cloud import CloudParams
from .scans import ScanConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "DEFAULTS",
    "parse_value",
    "parse_config_file",
    "parse_flags",
    "load_config",
]


class ConfigError(ValueError):
    """Carries the full list of configuration problems."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _finite(v: float) -> str | None:
    return None if math.isfinite(v) else "must be finite"


def _positive(v: float) -> str | None:
    return None if math.isfinite(v) and v > 0 else "must be positive"


def _nonnegative(v: float) -> str | None:
    return None if math.isfinite(v) and v >= 0 else "must be >= 0"


def _unit_interval_open_top(v: float) -> str | None:
    return None if 0.0 <= v < 1.0 else "must lie in [0, 1)"


def _efficiency(v: float) -> str | None:
    return None if 0.0 < v <= 1.0 else "must lie in (0, 1]"


def _at_least(n: float) -> Callable[[float], str | None]:
    def check(v: float) -> str | None:
        return None if v >= n else f"must be >= {n}"

    return check


def _between(lo: int, hi: int) -> Callable[[int], str | None]:
    def check(v: int) -> str | None:
        return None if lo <= v <= hi else f"must lie in [{lo}, {hi}]"

    return check


def _choice(*allowed: str) -> Callable[[str], str | None]:
    def check(v: str) -> str | None:
        return None if v in allowed else f"must be one of {', '.join(allowed)}"

    return check


def _any_string(v: str) -> str | None:
    return None


# key -> (default, validator).  The default's Python type fixes the key's type.
DEFAULTS: dict[str, tuple[Any, Callable[[Any], str | None]]] = {
    "model.C": (220.0, _nonnegative),
    "model.delta": (-20.0, _finite),
    "model.theta": (0.0, _finite),
    "model.kappa_hz": (2.5e6, _positive),
    "model.gamma_hz": (2.6e6, _positive),
    "model.gamma_par_ratio": (2.0, _positive),
    "model.n_atoms": (1e6, _at_least(1.0)),
    "model.loss_fraction": (0.0, _unit_interval_open_top),
    "model.transverse": ("plane", _choice("plane", "gaussian")),
    # at most four times the 256 bins of acceptance criterion 04: Gauss-Legendre
    # nodes solve an m x m eigenproblem, 74.5 GiB at 100,000 bins
    "model.gaussian_bins": (64, _between(1, 1024)),
    # the top of the README's oracle table: the Liouvillian's block triple
    # grows as cutoff^3, 50 MiB at 40, where a call peaks near 0.1 GiB; a
    # cutoff of 100,000 asked for a 74.5 GiB photon operator
    "model.fock_cutoff": (15, _between(2, 40)),
    "cloud.sigma_r_m": (4e-3, _positive),
    "cloud.temp_k": (5e-3, _positive),
    "cloud.c0": (220.0, _positive),
    "cloud.waist_m": (4e-3 / 15.0, _positive),
    "cloud.mc_samples": (1_000_000, _at_least(10_000)),
    "cloud.mc_seed": (12345, _at_least(0)),
    "cloud.t_max_s": (0.030, _positive),
    # each time costs one kernel evaluation per sample: 1e10, about 15 s on one
    # core, at 10,000 times and the default 1e6 samples
    "cloud.n_times": (16, _between(2, 10_000)),
    "scan.duration_s": (0.025, _positive),
    "scan.dt_s": (2e-6, _positive),
    "scan.drive_Y": (800.0, _nonnegative),
    "scan.theta0": (-7.5, _finite),
    "scan.theta_rate": (0.0, _finite),
    "scan.lo_freq_hz": (2000.0, _positive),
    "scan.lo_phase0_rad": (0.0, _finite),
    "scan.omega_hz": (5e6, _nonnegative),
    "scan.omega_min_hz": (0.0, _nonnegative),
    "scan.omega_max_hz": (2.5e7, _nonnegative),
    # the oracle solves the grid in tiles, so its memory does not grow with
    # the frequency count but its time does: 1,000 frequencies at cutoff 40
    # take about 110 s on one core (and 0.1 GiB)
    "scan.n_omega": (101, _between(1, 1000)),
    "scan.rel_noise": (0.10, _unit_interval_open_top),
    "scan.vbw_hz": (1e5, _positive),
    "scan.elec_floor": (0.10, _nonnegative),
    "scan.seed": (12345, _at_least(0)),
    "scan.noise_transverse": ("model", _choice("model", "plane")),
    "detection.eta": (0.9, _efficiency),
    "output.path": ("", _any_string),
}


def parse_value(key: str, text: str) -> tuple[Any, str | None]:
    """Parse one value per the key's declared type; (value, error)."""
    if key not in DEFAULTS:
        return None, "unknown key"
    default, validator = DEFAULTS[key]
    text = text.strip()
    if isinstance(default, str):
        value: Any = text
    elif isinstance(default, int):
        try:
            as_float = float(text)
        except ValueError:
            return None, f"expected an integer, got {text!r}"
        if not (math.isfinite(as_float) and as_float == int(as_float)):
            return None, f"expected an integer, got {text!r}"
        value = int(as_float)
    else:
        try:
            value = float(text)
        except ValueError:
            return None, f"expected a number, got {text!r}"
    problem = validator(value)
    if problem is not None:
        return None, f"{problem}, got {text!r}"
    return value, None


def parse_config_file(path: str) -> tuple[dict[str, Any], list[str]]:
    """Read ``key = value`` lines; returns (values, errors) with all errors."""
    values: dict[str, Any] = {}
    errors: list[str] = []
    seen_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return {}, [f"{path}: cannot read config file: {exc}"]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, text = (part.strip() for part in line.split("=", 1))
        if key in seen_line:
            errors.append(
                f"{path}:{lineno}: duplicate key {key} (first set on line {seen_line[key]})"
            )
            continue
        value, problem = parse_value(key, text)
        if problem == "unknown key":
            errors.append(f"{path}:{lineno}: unknown key {key}")
            continue
        seen_line[key] = lineno
        if problem is not None:
            errors.append(f"{path}:{lineno}: {key} {problem}")
            continue
        values[key] = value
    return values, errors


def parse_flags(tokens: list[str]) -> tuple[dict[str, Any], list[str]]:
    """Parse ``--key=value`` override tokens; returns (values, errors)."""
    values: dict[str, Any] = {}
    errors: list[str] = []
    for token in tokens:
        if not token.startswith("--") or "=" not in token:
            errors.append(f"unrecognized argument {token!r}; expected --key=value")
            continue
        key, text = token[2:].split("=", 1)
        key = key.strip()
        value, problem = parse_value(key, text)
        if problem == "unknown key":
            errors.append(f"--{key}: unknown key")
            continue
        if problem is not None:
            errors.append(f"--{key}: {problem}")
            continue
        values[key] = value
    return values, errors


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration with typed views onto the model objects."""

    values: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def model_params(self) -> ModelParams:
        if self.values["model.transverse"] == "gaussian":
            transverse: PlaneWave | GaussianBins = GaussianBins(
                m=int(self.values["model.gaussian_bins"])
            )
        else:
            transverse = PlaneWave()
        return ModelParams(
            c=self.values["model.C"],
            delta=self.values["model.delta"],
            theta=self.values["model.theta"],
            kappa_hz=self.values["model.kappa_hz"],
            gamma_hz=self.values["model.gamma_hz"],
            gamma_par_ratio=self.values["model.gamma_par_ratio"],
            n_atoms=self.values["model.n_atoms"],
            transverse=transverse,
            loss_fraction=self.values["model.loss_fraction"],
        )

    def cloud_params(self) -> CloudParams:
        return CloudParams(
            sigma_r_m=self.values["cloud.sigma_r_m"],
            temp_k=self.values["cloud.temp_k"],
            c0=self.values["cloud.c0"],
        )

    def scan_config(self) -> ScanConfig:
        return ScanConfig(
            duration_s=self.values["scan.duration_s"],
            dt_s=self.values["scan.dt_s"],
            drive_y=self.values["scan.drive_Y"],
            theta0=self.values["scan.theta0"],
            theta_rate=self.values["scan.theta_rate"],
            lo_freq_hz=self.values["scan.lo_freq_hz"],
            lo_phase0_rad=self.values["scan.lo_phase0_rad"],
            omega_hz=self.values["scan.omega_hz"],
            rel_noise=self.values["scan.rel_noise"],
            vbw_hz=self.values["scan.vbw_hz"],
            elec_floor=self.values["scan.elec_floor"],
            eta=self.values["detection.eta"],
            seed=int(self.values["scan.seed"]),
            noise_transverse=self.values["scan.noise_transverse"],
        )


def load_config(config_path: str | None, flag_tokens: list[str]) -> RunConfig:
    """Merge defaults < config file < flags; raise ConfigError with all problems."""
    merged = {key: default for key, (default, _) in DEFAULTS.items()}
    errors: list[str] = []
    if config_path is not None:
        file_values, file_errors = parse_config_file(config_path)
        errors.extend(file_errors)
        merged.update(file_values)
    flag_values, flag_errors = parse_flags(flag_tokens)
    errors.extend(flag_errors)
    merged.update(flag_values)
    if errors:
        raise ConfigError(errors)
    return RunConfig(values=merged)
