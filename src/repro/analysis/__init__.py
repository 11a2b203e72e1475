"""Analysis layer: metric collection, experiment harnesses, reporting."""

from .experiment import (
    EXPERIMENT_REGISTRY,
    Experiment,
    default_agreement_configs,
    default_detector_configs,
    experiment_params,
    falsification_experiment,
    run_experiment,
    screened_solvability_grid_experiment,
    separation_statements_experiment,
    solvability_map_experiment,
)
from .metrics import DetectorConvergenceReport, run_detector_experiment
from .reporting import ascii_table, bullet_list, format_cell, render_solvability_grid
from .timeliness_matrix import (
    PairwiseTimeliness,
    best_set_witnesses,
    pairwise_timeliness,
    timely_sets_of_size,
)

__all__ = [
    "EXPERIMENT_REGISTRY",
    "Experiment",
    "default_agreement_configs",
    "default_detector_configs",
    "experiment_params",
    "falsification_experiment",
    "run_experiment",
    "screened_solvability_grid_experiment",
    "separation_statements_experiment",
    "solvability_map_experiment",
    "DetectorConvergenceReport",
    "run_detector_experiment",
    "ascii_table",
    "bullet_list",
    "format_cell",
    "render_solvability_grid",
    "PairwiseTimeliness",
    "best_set_witnesses",
    "pairwise_timeliness",
    "timely_sets_of_size",
    ]
