"""Parallel experiment execution over a deduplicated run grid.

Experiments are embarrassingly parallel at the granularity of one
(workload, policy, config) simulation, and the figures share many points
(every figure's baseline is the unprotected run of the same workloads).
This module

1. *plans* the union grid for a set of experiment ids,
2. *dedupes* it by content key (:mod:`repro.harness.cache`), and
3. *fans out* the remaining simulations over a
   :class:`concurrent.futures.ProcessPoolExecutor`,

after which the experiment modules run unchanged against a warm in-memory
store — every ``runner.run(...)`` they issue is a hit.  Every work item is a
lockstep batch (:func:`~repro.harness.lockstep.simulate_batch`; a lone
point is a batch of one), whose worker self-checks each run's architectural
result and returns slim :class:`RunRecord` objects.  ``runner.run`` goes
through the same per-batch function in-process, so parallel execution is
bit-identical to serial execution by construction; the test suite
additionally asserts equal cycle counts for serial vs ``jobs=2``.

The worker count comes from ``--jobs N`` on the CLI or the ``REPRO_JOBS``
environment variable; ``jobs=1`` (the default) never forks and behaves
exactly like the serial runner.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Sequence

from ..errors import HarnessError
from ..uarch import CoreConfig
from .cache import ResultCache
from .lockstep import LOCKSTEP_MAX, simulate_batch, twin_key
from .resilience import (
    ResilienceReport,
    RetryPolicy,
    WorkItem,
    execute_supervised,
    failed_run_record,
)
from .runner import ExperimentRunner, GridPoint, RunRecord


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set and positive, else 1 (serial).

    A malformed value still maps to 1, but loudly: silently serializing
    a grid run because of a typo like ``REPRO_JOBS=four`` wastes hours
    before anyone notices.
    """
    import sys

    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        print(
            f"warning: ignoring malformed REPRO_JOBS={raw!r} "
            f"(expected an integer); running serial with jobs=1",
            file=sys.stderr,
        )
        return 1
    return max(jobs, 1)


class ParallelRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that can prefetch a grid in parallel.

    ``run()`` itself stays serial (experiments mix runs with
    arithmetic); parallelism comes from :meth:`prefetch`, which fills the
    in-memory store so subsequent ``run()`` calls are hits.  Pass a shared
    ``store`` dict to pool results across runners with different default
    configs (keys are content fingerprints, so this is always safe).

    Prefetching is *supervised* (:mod:`repro.harness.resilience`): worker
    exceptions are captured per point — with traceback text — into
    :class:`RunOutcome` records on :attr:`report` instead of aborting the
    grid, points are retried under ``retry_policy``, a dead or hung pool
    is rebuilt (ultimately degrading to serial execution).  Every
    completion lands in the persistent ``cache`` as it finishes, so an
    interrupted grid resumes by rerunning it with the same cache: the
    finished points are hits and only the rest simulate.

    With ``keep_going=True``, permanently failed points do not raise:
    ``run()`` returns a NaN-filled hole record for them so experiments
    can render partial tables (see ``resilience.scrub_holes``).
    """

    def __init__(self, scale: str = "ref", config: CoreConfig | None = None,
                 verbose: bool = False, cache: ResultCache | None = None,
                 store: dict[str, RunRecord] | None = None,
                 jobs: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 keep_going: bool = False):
        super().__init__(scale=scale, config=config, verbose=verbose,
                         cache=cache, store=store)
        self.jobs = jobs if jobs is not None else default_jobs()
        self.retry_policy = retry_policy or RetryPolicy()
        self.keep_going = keep_going
        self.report = ResilienceReport()
        #: key -> (workload, policy) of points that exhausted their budget.
        self.failed_points: dict[str, tuple[str, str]] = {}

    def prefetch(self, points: Iterable[GridPoint]) -> int:
        """Simulate every not-yet-cached point; returns how many succeeded.

        Points already in the in-memory store or the persistent cache are
        skipped; duplicates within ``points`` collapse to one simulation.

        Unless ``keep_going`` is set, points that remain failed after
        supervision raise a summarizing :class:`HarnessError` at the end
        (the rest of the grid still completes first).
        """
        todo: list[tuple[str, GridPoint]] = []
        seen: set[str] = set()
        for point in points:
            cfg = point.config or self.config
            key = self.run_key_for(point.workload, point.policy, cfg,
                                   point.use_compiler_info, point.observe)
            if key in seen or key in self._cache:
                continue
            if self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    self._cache[key] = record
                    continue
            seen.add(key)
            todo.append((key, point))
        self.report = ResilienceReport()
        if not todo:
            return 0

        items, members = self._plan_work(todo)
        self.report = execute_supervised(
            items, simulate_batch, self.jobs, self.retry_policy,
            lambda item, records: self._keep(records),
        )
        for outcome in self.report.failed:
            # One member sinks the whole batch: every member is unfetched.
            for key, point in members[outcome.key]:
                self.failed_points[key] = (point.workload, point.policy)
        if self.report.failed and not self.keep_going:
            names = ", ".join(
                f"{o.workload}/{o.policy} ({o.status} after "
                f"{o.attempts} attempt(s))"
                for o in self.report.failed
            )
            raise HarnessError(
                f"{len(self.report.failed)} grid point(s) failed permanently "
                f"after supervision: {names} — rerun with --keep-going to "
                f"render a partial table around them"
            )
        return sum(
            len(members[o.key])
            for o in self.report.outcomes
            if o.status in ("ok", "retried")
        )

    def _plan_work(
        self, todo: list[tuple[str, GridPoint]]
    ) -> tuple[list[WorkItem], dict[str, list[tuple[str, GridPoint]]]]:
        """Turn deduped grid points into lockstep batch work items.

        Observed points whose programs differ only in their secret fill
        (:func:`~repro.harness.lockstep.twin_key`) form a *twin family*:
        its worker simulates the first fill and copies the rest when the
        run is proven fill-independent (DESIGN.md §15).  Units (families
        and lone points) sharing a workload are chunked into batches of up
        to :data:`LOCKSTEP_MAX` points that one worker runs one after
        another (:mod:`repro.harness.lockstep`); a chunk never splits a
        family.  A batch of one point is keyed by its run key and labelled
        with its own workload and policy.  Returns the work items plus the item-key
        -> members map used to account for failures.
        """
        items: list[WorkItem] = []
        members: dict[str, list[tuple[str, GridPoint]]] = {}

        def emit(chunk: list[tuple[str, GridPoint]]) -> None:
            keys = tuple(k for k, _ in chunk)
            points = tuple(p for _, p in chunk)
            if len(chunk) == 1:
                key, policy = keys[0], points[0].policy
            else:
                key = "batch:" + hashlib.sha256(
                    "|".join(keys).encode()
                ).hexdigest()[:16]
                policy = f"{len(chunk)}-point lockstep batch"
            members[key] = chunk
            items.append(WorkItem(
                key=key, args=(self.scale, points, self.config, keys),
                workload=points[0].workload, policy=policy,
            ))

        units: dict[tuple, list[tuple[str, GridPoint]]] = {}
        for key, point in todo:
            tkey = twin_key(self.workload(point.workload), point,
                            point.config or self.config)
            units.setdefault(tkey or (key,), []).append((key, point))
        groups: dict[str, list[list[tuple[str, GridPoint]]]] = {}
        for unit in units.values():
            groups.setdefault(unit[0][1].workload, []).append(unit)
        for group in groups.values():
            chunk: list[tuple[str, GridPoint]] = []
            for unit in group:
                if chunk and len(chunk) + len(unit) > LOCKSTEP_MAX:
                    emit(chunk)
                    chunk = []
                chunk += unit
            emit(chunk)
        return items, members

    def run(self, workload_name, policy_name, config=None,
            use_compiler_info=True, observe=False) -> RunRecord:
        if self.failed_points and self.keep_going:
            key = self.run_key_for(workload_name, policy_name,
                                   config or self.config, use_compiler_info,
                                   observe)
            if key in self.failed_points:
                return failed_run_record(workload_name, policy_name)
        return super().run(workload_name, policy_name, config=config,
                           use_compiler_info=use_compiler_info,
                           observe=observe)


def plan_experiment_grid(experiment_ids: Iterable[str]) -> list[GridPoint]:
    """Union of the experiments' ``grid()`` points (duplicates included;
    the runner dedupes by content key when prefetching).  Experiments that
    drive the simulators directly (table1/table2/fig5/ablationC) have no
    grid and gain nothing from prefetching."""
    from .experiments import EXPERIMENTS

    points: list[GridPoint] = []
    for experiment_id in experiment_ids:
        grid = getattr(EXPERIMENTS[experiment_id], "grid", None)
        if grid is not None:
            points.extend(grid())
    return points


def run_experiments(
    experiment_ids: Sequence[str],
    scale: str = "ref",
    jobs: int | None = None,
    cache: ResultCache | None = None,
    verbose: bool = False,
    retry_policy: RetryPolicy | None = None,
    keep_going: bool = False,
    with_report: bool = False,
):
    """Run experiments with shared, parallel-prefetched simulations.

    Returns ``{experiment_id: ExperimentResult}`` (or, with
    ``with_report=True``, a ``(results, ResilienceReport)`` pair).  All
    experiments share one result store, so points common to several
    figures simulate once.  Each result's ``failed_claims`` holds what its
    module's ``check`` found unmet (empty: every claim holds).

    With a persistent ``cache``, an interrupted invocation resumes by
    running it again: the points that finished are cache hits.  With
    ``keep_going``, experiments touching permanently failed points render
    partial tables with explicit holes instead of raising.
    """
    import inspect

    from .experiments import EXPERIMENTS
    from .resilience import failed_experiment_result, scrub_holes

    store: dict[str, RunRecord] = {}
    runner = ParallelRunner(scale=scale, jobs=jobs, cache=cache,
                            verbose=verbose, store=store,
                            retry_policy=retry_policy, keep_going=keep_going)
    runner.prefetch(plan_experiment_grid(experiment_ids))

    results = {}
    for experiment_id in experiment_ids:
        module = EXPERIMENTS[experiment_id]
        params = inspect.signature(module.run).parameters
        kwargs = {}
        if "scale" in params:
            kwargs["scale"] = scale
        if "runner" in params:
            kwargs["runner"] = runner
        elif "runner_factory" in params:
            kwargs["runner_factory"] = lambda config: ParallelRunner(
                scale=scale, config=config, jobs=jobs, cache=cache,
                verbose=verbose, store=store,
                retry_policy=retry_policy, keep_going=keep_going,
            )
        try:
            result = module.run(**kwargs)
        except Exception as exc:
            if not keep_going:
                raise
            result = failed_experiment_result(experiment_id, exc)
        else:
            result.failed_claims = module.check(result)
        if keep_going and runner.failed_points:
            holes = scrub_holes(result.rows)
            if holes:
                result.notes = (result.notes + "\n" if result.notes else "") + (
                    f"PARTIAL: {holes} cell(s) depend on failed grid points "
                    f"(rendered as holes); see the resilience report"
                )
        results[experiment_id] = result
    if with_report:
        return results, runner.report
    return results
