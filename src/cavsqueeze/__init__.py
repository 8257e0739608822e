"""Squeezed-light simulator for a saturable atomic medium in a driven cavity.

The package covers the full arc of a cold-atom squeezing measurement:
steady-state bistability of the driven cavity (``bistability``), linearized
quantum noise spectra of the transmitted field (``spectra``), a small-system
density-matrix oracle used to validate the linearization (``oracle``),
cooperativity decay of a released atom cloud (``cloud``), time-domain scans
through the measurement including the synthetic detection chain (``scans``),
and a config/CLI layer (``config``, ``cli``).
"""

from .bistability import (
    Branch,
    GaussianBins,
    ModelParams,
    PlaneWave,
    SteadyState,
    TurningPoints,
    bin_layout,
    cooperativity_from_amplitudes,
    critical_point,
    gaussian_susceptibility_limit,
    peak_transmission,
    solve_steady_states,
    state_equation,
    state_equation_slope,
    turning_points,
)
from .spectra import (
    FluctuationSystem,
    QuadratureSpectrum,
    build_fluctuation_system,
    drift_eigenvalues,
    efficiency_matrix,
    output_spectrum,
    quadrature_extrema,
)
from .cloud import (
    CloudParams,
    CooperativitySample,
    FitResult,
    cooperativity_decay,
    fit_cooperativity,
    mc_cooperativity,
    read_samples,
)
from .scans import (
    ScanConfig,
    Trace,
    TraceSample,
    analyzer_chain,
    calibrate_and_correct,
    free_release_scan,
    lo_phase,
    piezo_scan,
    release_threshold_drive,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CloudParams",
    "ConfigError",
    "CooperativitySample",
    "FitResult",
    "FluctuationSystem",
    "GaussianBins",
    "ModelParams",
    "PlaneWave",
    "QuadratureSpectrum",
    "RunConfig",
    "ScanConfig",
    "SteadyState",
    "Trace",
    "TraceSample",
    "TurningPoints",
    "analyzer_chain",
    "bin_layout",
    "build_fluctuation_system",
    "calibrate_and_correct",
    "cooperativity_decay",
    "cooperativity_from_amplitudes",
    "critical_point",
    "drift_eigenvalues",
    "efficiency_matrix",
    "fit_cooperativity",
    "free_release_scan",
    "gaussian_susceptibility_limit",
    "lo_phase",
    "load_config",
    "mc_cooperativity",
    "output_spectrum",
    "peak_transmission",
    "piezo_scan",
    "quadrature_extrema",
    "read_samples",
    "release_threshold_drive",
    "solve_steady_states",
    "state_equation",
    "state_equation_slope",
    "turning_points",
    "__version__",
]
