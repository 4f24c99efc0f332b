"""The experiment runner, registry, metrics and reporting for the evaluation."""

from repro.analysis.experiments import EXPERIMENTS, Experiment, render, run_experiment, save
from repro.analysis.runner import Cell, Fault, build_config, run_cell

__all__ = [
    "EXPERIMENTS", "Cell", "Experiment", "Fault",
    "build_config", "render", "run_cell", "run_experiment", "save",
]
