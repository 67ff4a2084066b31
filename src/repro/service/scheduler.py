"""Asynchronous flight scheduler over a supervised persistent worker pool.

Flights are popped from the :class:`AdmissionQueue` as worker slots free
up and run through the supervisor the batch harness uses:
:func:`~repro.harness.resilience.supervise`, the one attempt loop, over a
persistent :class:`~repro.harness.resilience.WorkerPool` that calls
:func:`~repro.harness.lockstep.simulate_batch` with a batch of one (the
grid harness's worker entrypoint, and the function behind every
in-process run, so a result computed through the service is
bit-identical to a serial in-process run by construction).  DESIGN.md
("Supervision") states the failure taxonomy once: charged worker
exceptions and hangs, uncharged pool deaths, degradation to one
in-process thread.  That last step is what keeps the daemon up: every
accepted job still completes, slowly — admission control upstream is
what keeps this path survivable.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from typing import Callable

from ..harness.lockstep import simulate_batch
from ..harness.resilience import RetryPolicy, WorkerPool, WorkItem, supervise
from ..harness.runner import RunRecord
from .jobs import RUNNING, Flight
from .metrics import MetricsRegistry
from .queue import AdmissionQueue


class Scheduler:
    """Drains the admission queue through the worker pool.

    A popped flight that succeeds or exhausts its retries is handed to
    ``resolve(flight, record, error)`` — the daemon's
    :meth:`~repro.service.daemon.SimulationService.resolve` — exactly once.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        metrics: MetricsRegistry,
        resolve: Callable[[Flight, RunRecord | None, str], None],
        jobs: int = 2,
        retry_policy: RetryPolicy | None = None,
    ):
        self.queue = queue
        self.resolve = resolve
        self.metrics = metrics
        self.retry_policy = retry_policy or RetryPolicy()
        self.pool = WorkerPool(max(jobs, 1),
                               self.retry_policy.max_pool_rebuilds,
                               on_rebuild=self._pool_rebuilt)
        self.inflight: dict[str, Flight] = {}   # key -> running flight
        self._running = False
        self._paused = asyncio.Event()
        self._paused.set()              # set == not paused
        self._wakeup = asyncio.Event()
        self._slots = asyncio.Semaphore(max(jobs, 1))
        self._tasks: set[asyncio.Task] = set()
        self._loop_task: asyncio.Task | None = None

        m = self.metrics
        self.m_simulations = m.counter(
            "repro_service_simulations_total",
            "Simulations actually executed by the worker pool.")
        self.m_retries = m.counter(
            "repro_service_retries_total",
            "Flight attempts retried after a worker failure.")
        self.m_restarts = m.counter(
            "repro_service_worker_restarts_total",
            "Worker-pool rebuilds after a death or hung worker.")
        self.m_running = m.gauge(
            "repro_service_jobs_running", "Flights currently simulating.")
        self.m_degraded = m.gauge(
            "repro_service_degraded",
            "1 when the pool has degraded to in-process serial mode.")
        self.m_sim_seconds = m.histogram(
            "repro_service_simulation_seconds",
            "Wall-clock duration of individual worker simulations.")

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        self._running = True
        self._loop_task = asyncio.get_running_loop().create_task(
            self._drain_loop())

    def pause(self) -> None:
        """Stop popping new flights (running ones finish); test hook."""
        self._paused.clear()

    def resume(self) -> None:
        self._paused.set()
        self._wakeup.set()

    def notify(self) -> None:
        """Wake the drain loop after an enqueue."""
        self._wakeup.set()

    async def stop(self, wait_workers: bool = True) -> None:
        self._running = False
        self._wakeup.set()
        if self._loop_task is not None:
            self._loop_task.cancel()
            try:
                await self._loop_task
            except asyncio.CancelledError:
                pass
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self.pool.shutdown(wait=wait_workers)

    # ----------------------------------------------------------- drain loop
    async def _drain_loop(self) -> None:
        while self._running:
            await self._paused.wait()
            await self._slots.acquire()
            flight = self.queue.pop() if self._paused.is_set() else None
            if flight is None:
                self._slots.release()
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            self.inflight[flight.key] = flight
            task = asyncio.get_running_loop().create_task(
                self._run_flight(flight))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    # -------------------------------------------------------------- flights
    async def _run_flight(self, flight: Flight) -> None:
        started = time.time()
        for job in flight.jobs:
            job.state = RUNNING
            job.started = started
        self.m_running.inc()
        try:
            record = await self._execute(flight)
        except Exception as exc:
            self.resolve(flight, None, error="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)))
        else:
            self.resolve(flight, record)
        finally:
            self.m_running.dec()
            self.inflight.pop(flight.key, None)
            self._slots.release()
            self._wakeup.set()

    async def _execute(self, flight: Flight) -> RunRecord:
        """One flight to success or exhaustion, under supervision."""
        item = WorkItem(key=flight.key, args=flight.worker_args(),
                        workload=flight.request.workload,
                        policy=flight.request.policy)
        try:
            records = await supervise(self.pool, self.retry_policy, item,
                                      simulate_batch)
        finally:
            flight.attempts = item.attempts
            self.m_retries.inc(max(item.attempts - 1, 0))
        self.m_simulations.inc()
        self.m_sim_seconds.observe(time.monotonic() - item.started)
        return records[flight.key]

    def _pool_rebuilt(self) -> None:
        self.m_restarts.inc()
        self.m_degraded.set(1 if self.pool.degraded else 0)
