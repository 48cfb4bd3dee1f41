"""Experiment harness: configuration, drivers, and CSV records."""

from .config import ExperimentConfig, load_config
from .drivers import (
    SystemBundle,
    build_system,
    run_error_norm_ensemble,
    run_optimal_threshold_scan,
    run_perturbation_vs_bound,
    run_singular_spectrum,
    run_threshold_sweep,
    targets_for,
)
from .records import DriverResult, write_csv

__all__ = [
    "ExperimentConfig",
    "load_config",
    "SystemBundle",
    "build_system",
    "targets_for",
    "run_error_norm_ensemble",
    "run_singular_spectrum",
    "run_threshold_sweep",
    "run_optimal_threshold_scan",
    "run_perturbation_vs_bound",
    "DriverResult",
    "write_csv",
]
