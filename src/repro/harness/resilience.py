"""Supervised, fault-tolerant execution: one supervisor for every caller.

The parallel harness fans a (workload × policy × config) grid out over
worker processes and cannot assume every worker returns; neither can the
service's scheduler.  Both run through this module:

* :class:`RetryPolicy` — per-point wall-clock timeouts and bounded
  retries with exponential backoff and deterministic jitter;
* :class:`WorkerPool` — worker processes with generation-tracked
  rebuilds, degrading to one in-process thread when they keep dying;
* :func:`supervise` — the one attempt loop: start, await within the
  deadline, classify (ok / failed / hung / lost), back off, until the
  point reaches a terminal result.  DESIGN.md §13 states the taxonomy;
* :func:`execute_supervised` — the batch entry point: runs a grid on that
  loop with ``jobs`` slots, capturing each point's fate (with traceback
  text) into a structured :class:`RunOutcome` instead of letting the
  first failure abort the grid; the service's ``Scheduler`` and the
  cluster coordinator call the same loop per flight;
* :class:`RunJournal` — an append-only manifest of per-point outcomes
  that survives ``SIGKILL`` mid-grid (each line is flushed and fsynced),
  giving ``--resume`` exact knowledge of what already finished;
* :class:`ResilienceReport` — the aggregate surfaced through
  ``harness.report`` and the CLI;
* :func:`chaos_smoke` — the seeded end-to-end check behind
  ``repro chaos``: inject worker crashes/hangs/kills plus cache
  corruption, and assert the final records are identical to a clean
  serial run (:func:`serial_reference`, shared by every chaos drill).

Simulations are deterministic pure functions of their content key, so a
retried or re-executed point always reproduces the same record —
supervision can never change results, only whether they arrive.
"""

from __future__ import annotations

import concurrent.futures as cf
import dataclasses
import hashlib
import json
import math
import os
import signal
import threading
import time
import traceback
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Iterable

from ..uarch.stats import CoreStats
from .runner import RunRecord

#: Terminal statuses a grid point can end in.
OUTCOME_STATUSES = ("ok", "retried", "timed-out", "failed", "cache-hit")


# ------------------------------------------------------------------ policy
@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """When to retry a grid point and when to give up.

    ``delay()`` is pure and deterministic: the jitter term is a hash of
    the point key and attempt number, not ``random``, so backoff schedules
    are reproducible and unit-testable while still decorrelating points
    that fail together.
    """

    max_attempts: int = 3          # total tries per point (1 = no retry)
    timeout: float | None = None   # per-point wall-clock seconds (pool mode)
    base_delay: float = 0.05       # first backoff, seconds
    backoff: float = 2.0           # multiplier per further attempt
    max_delay: float = 2.0         # backoff ceiling, seconds
    jitter: float = 0.5            # max extra fraction added to a delay
    max_pool_rebuilds: int = 3     # pool deaths tolerated before serial mode

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(
            self.base_delay * self.backoff ** max(attempt - 1, 0),
            self.max_delay,
        )
        if not self.jitter:
            return base
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).hexdigest()[:8]
        frac = int(digest, 16) / 0xFFFFFFFF
        return base * (1.0 + self.jitter * frac)


# ----------------------------------------------------------------- outcome
@dataclasses.dataclass
class RunOutcome:
    """What happened to one grid point under supervision."""

    key: str
    workload: str
    policy: str
    status: str            # one of OUTCOME_STATUSES
    attempts: int = 1
    duration: float = 0.0  # seconds spent on the successful/last attempt
    error: str = ""        # traceback text of the last failure, if any

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ResilienceReport:
    """Aggregate of one supervised grid execution."""

    outcomes: list[RunOutcome] = dataclasses.field(default_factory=list)
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(o.status for o in self.outcomes))

    @property
    def failed(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if o.status in ("failed", "timed-out")]

    @property
    def recovered(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if o.status == "retried"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def text(self) -> str:
        from .tables import format_table

        counts = self.counts
        parts = [f"{counts.get(s, 0)} {s}" for s in OUTCOME_STATUSES
                 if counts.get(s)]
        lines = [f"resilience: {', '.join(parts) or 'nothing executed'}"
                 + (f", {self.pool_rebuilds} pool rebuild(s)"
                    if self.pool_rebuilds else "")
                 + (", degraded to serial" if self.degraded_to_serial else "")]
        noteworthy = [o for o in self.outcomes if o.status != "ok"
                      and o.status != "cache-hit"]
        if noteworthy:
            rows = [
                [o.workload, o.policy, o.status, o.attempts,
                 (o.error.strip().splitlines()[-1][:60] if o.error else "-")]
                for o in noteworthy
            ]
            lines.append(format_table(
                ["workload", "policy", "status", "attempts", "last error"],
                rows,
            ))
        return "\n".join(lines)


# ----------------------------------------------------------------- journal
class RunJournal:
    """Append-only manifest of completed grid points.

    One JSON object per line; every append is flushed and fsynced, so a
    process killed mid-grid leaves a manifest that exactly matches the
    work that finished (a torn final line is tolerated on read).
    """

    #: Statuses that count as "this point's result exists".
    DONE = ("ok", "retried", "cache-hit")

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def record(self, key: str, status: str, **meta) -> None:
        entry = {"key": key, "status": status, **meta}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(entry) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def entries(self) -> list[dict]:
        try:
            text = self.path.read_text()
        except OSError:
            return []
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn write from a kill mid-append
            if isinstance(entry, dict) and "key" in entry:
                entries.append(entry)
        return entries

    def completed(self) -> set[str]:
        """Keys whose results were fully produced before an interruption."""
        return {
            e["key"] for e in self.entries() if e.get("status") in self.DONE
        }

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


def journal_path_for(cache_root: Path, keys: Iterable[str], scale: str) -> Path:
    """Stable journal location for a given grid (same grid → same file)."""
    digest = hashlib.sha256(
        json.dumps({"scale": scale, "keys": sorted(keys)}).encode()
    ).hexdigest()[:16]
    return Path(cache_root) / f"journal-{digest}.jsonl"


# ------------------------------------------------------------- work items
@dataclasses.dataclass
class WorkItem:
    """One grid point queued for supervised execution."""

    key: str
    args: tuple            # picklable args for the worker function
    workload: str = ""
    policy: str = ""
    attempts: int = 0
    started: float = 0.0   # monotonic start of the in-flight attempt


def simulate_point(args: tuple) -> RunRecord:
    """Top-level pool-worker entrypoint (must be picklable).

    ``args`` is ``(scale, point, default_config)``; the runner consults
    the active fault plan (site ``worker``) before simulating, so
    injected crashes/hangs/kills surface exactly where real ones would.
    """
    from .runner import ExperimentRunner

    scale, point, default_config = args
    runner = ExperimentRunner(scale=scale, config=point.config or default_config)
    record = runner.run(
        point.workload,
        point.policy,
        use_compiler_info=point.use_compiler_info,
        observe=getattr(point, "observe", False),
    )
    return record.slim()


# ------------------------------------------------------------------- pools
#: How often a pool worker checks that the process that forked it is alive.
_PARENT_POLL_S = 0.5


def _exit_with_parent() -> None:
    """Pool-worker initializer: never outlive the pool's owner.

    A worker whose owner was SIGKILLed keeps both ends of the pool's pipes
    open, so it never sees EOF and would run forever; a daemon thread
    exits it once it has been re-parented.  The owner's signal setup is
    undone as well: a forked worker inherits the ``repro serve`` drain
    handler (and the event loop's wakeup fd), which would turn a plain
    ``kill`` of the worker into a no-op.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def process_pool(workers: int) -> cf.ProcessPoolExecutor:
    """A process pool whose workers exit when their owner dies."""
    return cf.ProcessPoolExecutor(
        max_workers=workers, initializer=_exit_with_parent
    )


# -------------------------------------------------------------- supervisor
#: What one attempt came to (see :meth:`WorkerPool.attempt`).
OK, FAILED, HUNG, LOST = "ok", "failed", "hung", "lost"


class WorkerTimeout(TimeoutError):
    """A point overran its wall-clock budget on every allowed attempt."""


class WorkerPool:
    """Worker processes with generation-tracked rebuilds.

    Each attempt runs in the pool generation it entered.
    ``declare_dead(generation)`` rebuilds at most once per generation
    (attempts observing the same death coalesce into one rebuild) and
    cancels that generation's other live attempts, which come back
    :data:`LOST`.  After ``max_rebuilds`` deaths the pool degrades to one
    in-process thread.  A pool of ``processes=0`` is in-process from the
    start and runs attempts inline in the caller's thread: its caller
    (the batch harness at ``jobs<=1``) has nothing else on its loop, and
    an inline run costs no thread.  ``max_rebuilds=-1`` starts degraded.
    No wall-clock timeout is enforceable in-process: there is no worker
    to abandon, so a hung point simply runs long.
    """

    def __init__(self, processes: int, max_rebuilds: int = 3,
                 on_rebuild: Callable[[], None] | None = None):
        self.processes = processes
        self.max_rebuilds = max_rebuilds
        self.on_rebuild = on_rebuild
        self.generation = 0
        self.rebuilds = 0
        self._live: set = set()  # asyncio futures of running attempts
        self._pool = self._executor()

    @property
    def degraded(self) -> bool:
        """Worker deaths used up the rebuild budget."""
        return self.rebuilds > self.max_rebuilds

    @property
    def in_process(self) -> bool:
        return self.processes <= 0 or self.degraded

    def _executor(self) -> cf.Executor | None:
        if self.degraded:
            # One thread, not inline: attempts serialize while the caller's
            # event loop stays free (health checks, status reads, flights).
            return cf.ThreadPoolExecutor(max_workers=1)
        return process_pool(self.processes) if self.processes > 0 else None

    async def attempt(self, fn: Callable[[tuple], object], args: tuple,
                      timeout: float | None = None) -> tuple[str, object]:
        """Run ``fn(args)`` once; never raises for the worker.

        Returns ``(OK, result)``, ``(FAILED, exception)``, ``(HUNG, None)``
        once ``timeout`` elapsed (the generation is abandoned), or
        ``(LOST, None)`` when the attempt died with its generation: a
        worker was killed, or a sibling hung.
        """
        import asyncio

        if self._pool is None:
            await asyncio.sleep(0)  # lets a cancelled caller stop here
            try:
                return OK, fn(args)
            except Exception as exc:
                return FAILED, exc
        generation = self.generation
        try:
            future = asyncio.wrap_future(self._pool.submit(fn, args))
        except (BrokenProcessPool, RuntimeError):
            # The pool broke under a sibling before anyone rebuilt it.  The
            # in-process thread cannot break: it raises only once shut down.
            if self.in_process:
                raise
            self.declare_dead(generation)
            return LOST, None
        self._live.add(future)
        try:
            done, _ = await asyncio.wait(
                (future,), timeout=None if self.in_process else timeout)
        except asyncio.CancelledError:
            future.cancel()
            raise
        finally:
            self._live.discard(future)
        if not done:
            future.cancel()
            self.declare_dead(generation)
            return HUNG, None
        if future.cancelled():
            return LOST, None
        exc = future.exception()
        if isinstance(exc, BrokenProcessPool):
            self.declare_dead(generation)
            return LOST, None
        if exc is not None:
            return FAILED, exc
        return OK, future.result()

    def declare_dead(self, generation: int) -> None:
        """Replace the pool if ``generation`` is still the live one.

        The old workers are SIGKILLed: the interpreter's exit hook would
        join a hung one, pinning the owner's exit until the hang ended.
        """
        if generation != self.generation or self.in_process:
            return
        self.generation += 1
        self.rebuilds += 1
        old, self._pool = self._pool, self._executor()
        # Read the process table first: ``shutdown`` drops it.
        workers = list((getattr(old, "_processes", None) or {}).values())
        old.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            process.kill()
        for future in self._live:
            future.cancel()
        if self.on_rebuild is not None:
            self.on_rebuild()

    def shutdown(self, wait: bool = True) -> None:
        # A clean stop joins the idle workers so the executor's atexit
        # hook finds nothing half-dead; the in-process thread may be
        # stuck in a hung point and must not block the caller.
        if self._pool is not None:
            self._pool.shutdown(wait=wait and not self.in_process,
                                cancel_futures=True)


async def supervise(pool: WorkerPool, policy: RetryPolicy, item: WorkItem,
                    worker: Callable[[tuple], object]):
    """The one attempt loop: take ``item`` to a terminal result.

    Each round starts an attempt on ``pool``, awaits it within
    ``policy.timeout`` and classifies it (:meth:`WorkerPool.attempt`).  A
    worker exception or a hang is the item's own fault: charged against
    ``policy.max_attempts`` and retried after ``policy.delay``.  A lost
    attempt is not: it is resubmitted at once, uncharged, since the
    victim of a pool death cannot be identified.

    Returns the worker's result.  Raises the worker's last exception, or
    :class:`WorkerTimeout` when the last charged attempt hung.
    ``item.attempts`` counts charged attempts and ``item.started`` is the
    start of the latest one.
    """
    import asyncio

    while True:
        item.attempts += 1
        item.started = time.monotonic()
        verdict, value = await pool.attempt(worker, item.args, policy.timeout)
        if verdict == OK:
            return value
        if verdict == LOST:
            item.attempts -= 1
            continue
        if item.attempts >= policy.max_attempts:
            if verdict == HUNG:
                raise WorkerTimeout(
                    f"{item.workload}/{item.policy} exceeded "
                    f"{policy.timeout}s wall-clock budget "
                    f"{item.attempts} time(s)")
            raise value
        await asyncio.sleep(policy.delay(item.attempts, item.key))


def _failure_outcome(item: WorkItem, exc: BaseException,
                     status: str) -> RunOutcome:
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return RunOutcome(
        key=item.key, workload=item.workload, policy=item.policy,
        status=status, attempts=item.attempts,
        duration=time.monotonic() - item.started,
        error=text,
    )


def _success_outcome(item: WorkItem) -> RunOutcome:
    return RunOutcome(
        key=item.key, workload=item.workload, policy=item.policy,
        status="ok" if item.attempts <= 1 else "retried",
        attempts=item.attempts,
        duration=time.monotonic() - item.started,
    )


def execute_supervised(
    items: list[WorkItem],
    worker: Callable[[tuple], RunRecord],
    jobs: int,
    policy: RetryPolicy,
    on_success: Callable[[WorkItem, RunRecord], None],
) -> ResilienceReport:
    """Run every item to a terminal outcome; never raises for a worker.

    Drives :func:`supervise` over the items with ``jobs`` slots, one
    attempt per point (per-point deadlines need per-point attempts).
    ``jobs<=1`` runs in-process from the start; pool deaths beyond
    ``policy.max_pool_rebuilds`` degrade the rest of the grid there.
    """
    # asyncio is imported where it is used: it adds ~60 ms to the start-up
    # of every CLI command that merely imports the harness.
    import asyncio

    report = ResilienceReport()
    if not items:
        return report
    slots = min(jobs, len(items)) if jobs > 1 else 1

    async def drive() -> None:
        pool = WorkerPool(slots if jobs > 1 else 0, policy.max_pool_rebuilds)
        todo = iter(items)

        async def slot() -> None:
            for item in todo:
                try:
                    record = await supervise(pool, policy, item, worker)
                except WorkerTimeout as exc:
                    report.outcomes.append(
                        _failure_outcome(item, exc, "timed-out"))
                except Exception as exc:
                    report.outcomes.append(
                        _failure_outcome(item, exc, "failed"))
                else:
                    on_success(item, record)
                    report.outcomes.append(_success_outcome(item))

        tasks = [asyncio.ensure_future(slot()) for _ in range(slots)]
        try:
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()
            pool.shutdown(wait=False)
            report.pool_rebuilds = pool.rebuilds
            report.degraded_to_serial = pool.degraded

    try:
        asyncio.run(drive())
    finally:
        _feed_metrics(report)
    return report


def _feed_metrics(report: ResilienceReport) -> None:
    """Fold the grid's outcomes into the global service metrics registry.

    Best-effort by design: the registry (``repro.service.metrics``) is a
    pure-stdlib observer fed by both the batch harness and the daemon —
    a metrics problem must never fail a grid run.
    """
    try:
        from ..service.metrics import record_grid_report

        record_grid_report(report)
    except Exception:  # pragma: no cover - observer must stay silent
        pass


# ------------------------------------------------------------ hole records
class NanCounters(dict):
    """Counter dict standing in for a failed point's ``mem_stats``.

    Any key reads as NaN, so downstream arithmetic (energy model, miss
    rates) yields NaN instead of raising — which the table renderer then
    prints as an explicit hole.
    """

    def __missing__(self, key):
        return math.nan

    def get(self, key, default=None):
        return math.nan


def failed_run_record(workload: str, policy: str) -> RunRecord:
    """A hole: every counter is NaN so derived cells become NaN too."""
    stats = CoreStats()
    for f in dataclasses.fields(CoreStats):
        setattr(stats, f.name, math.nan)
    nan = math.nan
    return RunRecord(
        workload=workload, policy=policy, cycles=nan, committed=nan,
        ipc=nan, loads_gated=nan, load_gate_cycles=nan, mean_gate_delay=nan,
        gated_loads_pki=nan, mpki=nan, core_stats=stats,
        mem_stats=NanCounters(), result=None,
    )


def failed_experiment_result(experiment_id: str, exc: Exception):
    """Placeholder table for an experiment that could not render at all.

    Used under ``--keep-going`` when an experiment's own arithmetic (not
    just individual cells) cannot survive its failed grid points.
    """
    from .experiments.base import ExperimentResult

    return ExperimentResult(
        experiment_id=experiment_id,
        title="(not rendered)",
        headers=["status"],
        rows=[["FAILED"]],
        notes=f"experiment failed around missing grid points: {exc}",
    )


HOLE = "—"


def scrub_holes(rows: list[list]) -> int:
    """Replace NaN cells (failed points) with an explicit hole marker.

    Mutates ``rows`` in place; returns how many cells were holes.
    """
    holes = 0
    for row in rows:
        for i, cell in enumerate(row):
            if isinstance(cell, float) and math.isnan(cell):
                row[i] = HOLE
                holes += 1
    return holes


# ------------------------------------------------------------- chaos smoke
def serial_reference(
    pairs: Iterable[tuple[str, str]],
    scale: str,
    say: Callable[[str], None],
) -> Callable[[str, str, RunRecord, str], bool]:
    """The clean serial run every chaos drill is judged against.

    Uninstalls any fault plan, simulates each ``(workload, policy)`` pair
    in-process, and returns ``check(workload, policy, record, source)``:
    True iff ``record`` serializes exactly like the reference record;
    otherwise the mismatch is reported through ``say``.
    """
    from ..faults import uninstall
    from .cache import ResultCache
    from .runner import ExperimentRunner

    uninstall()
    runner = ExperimentRunner(scale=scale)
    expected = {(w, p): ResultCache.serialize(runner.run(w, p))
                for w, p in pairs}
    say(f"reference: {runner.simulations} clean serial simulations")

    def check(workload: str, policy: str, record: RunRecord,
              source: str) -> bool:
        if ResultCache.serialize(record) == expected[(workload, policy)]:
            return True
        say(f"MISMATCH {workload}/{policy}: {source} record differs from "
            f"the clean serial run")
        return False

    return check


def chaos_smoke(
    seed: int = 0,
    scale: str = "test",
    jobs: int = 2,
    workloads: tuple[str, ...] = ("gather", "pchase"),
    policies: tuple[str, ...] = ("none", "levioso"),
    cache_dir: str | Path | None = None,
    log: Callable[[str], None] | None = print,
) -> bool:
    """Seeded end-to-end fault drill; True iff recovery was bit-identical.

    Runs a small grid twice: once clean and serial (the reference), once
    under the default chaos plan (worker crashes, a hang, a kill, cache
    corruption, a transient read error) with supervision and a persistent
    cache.  Passes iff the supervised run converges without operator
    intervention and every record matches the reference exactly.
    """
    import tempfile

    from ..faults import default_chaos_plan, uninstall
    from .cache import ResultCache
    from .parallel import GridPoint, ParallelRunner

    def say(message: str) -> None:
        if log is not None:
            log(message)

    points = [GridPoint(w, p) for w in workloads for p in policies]
    matches = serial_reference(
        [(p.workload, p.policy) for p in points], scale, say)

    own_dir = cache_dir is None
    cache_dir = Path(cache_dir) if cache_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-chaos-"))
    plan = default_chaos_plan(seed).install()
    try:
        chaotic = ParallelRunner(
            scale=scale, jobs=jobs, cache=ResultCache(cache_dir),
            retry_policy=RetryPolicy(max_attempts=4, timeout=2.0),
            keep_going=True,
        )
        chaotic.prefetch(points)
        report = chaotic.report
        say(report.text())
        say(f"faults fired: {plan.fired()}")
        # The corrupted cache entry is exercised on a warm re-read: the
        # poisoned file must quarantine, re-simulate, and still match.
        warm_cache = ResultCache(cache_dir)
        warm = ParallelRunner(
            scale=scale, jobs=1, cache=warm_cache,
            retry_policy=RetryPolicy(max_attempts=4),
        )
        warm.prefetch(points)
        # Two rebuilds: the kill's, and the hung worker's abandonment.
        ok = report.ok and report.pool_rebuilds >= 2
        for point in points:
            got = warm.run(point.workload, point.policy)
            ok &= matches(point.workload, point.policy, got, "recovered")
        if warm_cache.stats.corrupt or warm_cache.stats.quarantined:
            say(f"quarantined {warm_cache.stats.quarantined} corrupt "
                f"cache entr(ies) during warm re-read")
        verify = ResultCache(cache_dir).verify()
        if not verify.clean:
            say(f"cache verify after repair path: {verify.as_dict()}")
            ok = False
        say("chaos smoke: " + ("PASS — recovered results bit-identical "
                               "to the clean serial run" if ok else "FAIL"))
        return ok
    finally:
        uninstall()
        if own_dir:
            import shutil

            shutil.rmtree(cache_dir, ignore_errors=True)
