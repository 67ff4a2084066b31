"""Experiment harness: runners, sweeps, tables, experiments, resilience."""

from .cache import ResultCache, config_fingerprint, run_key, workload_fingerprint
from .experiments import EXPERIMENTS, ExperimentResult
from .parallel import (
    ParallelRunner,
    default_jobs,
    plan_experiment_grid,
    run_experiments,
)
from .report import (
    collect_artifacts,
    render_record,
    render_resilience,
    resilience_summary,
    update_experiments_md,
)
from .resilience import (
    ResilienceReport,
    RetryPolicy,
    RunOutcome,
    chaos_smoke,
    execute_supervised,
)
from .runner import ExperimentRunner, GridPoint, RunRecord, geomean
from .tables import format_percent, format_series, format_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentRunner",
    "GridPoint",
    "ParallelRunner",
    "ResilienceReport",
    "ResultCache",
    "RetryPolicy",
    "RunOutcome",
    "RunRecord",
    "chaos_smoke",
    "collect_artifacts",
    "config_fingerprint",
    "default_jobs",
    "execute_supervised",
    "format_percent",
    "format_series",
    "format_table",
    "geomean",
    "plan_experiment_grid",
    "render_record",
    "render_resilience",
    "resilience_summary",
    "run_experiments",
    "run_key",
    "update_experiments_md",
    "workload_fingerprint",
]
