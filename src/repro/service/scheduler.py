"""Asynchronous flight scheduler over a supervised persistent worker pool.

This is the serving-path sibling of :func:`repro.harness.resilience.
execute_supervised`: same failure taxonomy, adapted from batch to
long-running.  Flights are popped from the :class:`AdmissionQueue` as
worker slots free up and executed on a persistent
``ProcessPoolExecutor`` via :func:`~repro.harness.resilience.
simulate_point` (the exact worker entrypoint the batch harness uses, so
a result computed through the service is bit-identical to a serial
in-process run by construction).  Supervision distinguishes:

* a worker exception — the flight's own fault; charged against its
  :class:`~repro.harness.resilience.RetryPolicy` budget and retried
  after deterministic backoff;
* ``BrokenProcessPool`` — some worker died; the pool is rebuilt, every
  flight that was in that pool generation is resubmitted **uncharged**
  (the victim cannot be identified);
* a per-flight deadline overrun — the worker is hung and cannot be
  killed portably, so the whole pool generation is abandoned: the hung
  flight is charged an attempt, innocents resubmit uncharged.

Pool deaths beyond ``RetryPolicy.max_pool_rebuilds`` degrade the
scheduler to a single in-process worker thread: throughput collapses
but the daemon stays up and every accepted job still completes —
admission control upstream is what keeps this path survivable.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import time
import traceback
from concurrent.futures.process import BrokenProcessPool

from ..harness.cache import ResultCache
from ..harness.lockstep import LOCKSTEP_MAX, lockstep_enabled, simulate_batch
from ..harness.resilience import RetryPolicy, process_pool, simulate_point
from ..harness.runner import RunRecord
from .jobs import DONE, FAILED, RUNNING, Flight, JobStore
from .metrics import MetricsRegistry
from .queue import AdmissionQueue


class WorkerPool:
    """A ``ProcessPoolExecutor`` with generation-tracked rebuilds.

    ``submit`` tags each future with the pool generation it entered;
    ``declare_dead(generation)`` rebuilds at most once per generation
    (concurrent flights observing the same death coalesce into one
    rebuild).  After ``max_rebuilds`` deaths the pool degrades to one
    in-process worker thread — no per-flight timeout is enforceable
    there, matching the batch harness's serial degradation.
    """

    def __init__(self, workers: int, max_rebuilds: int = 3):
        self.workers = max(workers, 1)
        self.max_rebuilds = max_rebuilds
        self.generation = 0
        self.rebuilds = 0
        self.degraded = False
        self._pool: cf.Executor = process_pool(self.workers)

    def submit(self, args: tuple) -> tuple[cf.Future, int]:
        return self._pool.submit(simulate_point, args), self.generation

    def submit_batch(self, args: tuple) -> tuple[cf.Future, int]:
        """Submit one lockstep batch (``simulate_batch`` args)."""
        return self._pool.submit(simulate_batch, args), self.generation

    def declare_dead(self, generation: int) -> None:
        """Replace the pool if ``generation`` is still the live one."""
        if generation != self.generation or self.degraded:
            return
        self.generation += 1
        self.rebuilds += 1
        old, self._pool = self._pool, None  # type: ignore[assignment]
        old.shutdown(wait=False, cancel_futures=True)
        if self.rebuilds > self.max_rebuilds:
            self.degraded = True
            # One thread: simulations serialize in-process, the event
            # loop stays responsive for health checks and status reads.
            self._pool = cf.ThreadPoolExecutor(max_workers=1)
        else:
            self._pool = process_pool(self.workers)

    def shutdown(self, wait: bool = True) -> None:
        # A clean stop joins the (idle, post-drain) workers so the
        # executor's atexit hook finds nothing half-dead; an unclean one
        # (drain timeout, hung degraded thread) must not block on them.
        self._pool.shutdown(wait=wait and not self.degraded,
                            cancel_futures=True)


class Scheduler:
    """Drains the admission queue through the worker pool, resolving jobs."""

    def __init__(
        self,
        queue: AdmissionQueue,
        store: JobStore,
        results: dict[str, RunRecord],
        metrics: MetricsRegistry,
        jobs: int = 2,
        retry_policy: RetryPolicy | None = None,
        cache: ResultCache | None = None,
    ):
        self.queue = queue
        self.store = store
        self.results = results          # key -> slim RunRecord (warm store)
        self.cache = cache              # optional persistent ResultCache
        self.metrics = metrics
        self.retry_policy = retry_policy or RetryPolicy()
        self.pool = WorkerPool(jobs, self.retry_policy.max_pool_rebuilds)
        self.inflight: dict[str, Flight] = {}   # key -> running flight
        self._wrapped: dict[str, asyncio.Future] = {}
        self._running = False
        self._paused = asyncio.Event()
        self._paused.set()              # set == not paused
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._slots = asyncio.Semaphore(max(jobs, 1))
        self._tasks: set[asyncio.Task] = set()
        self._loop_task: asyncio.Task | None = None

        m = self.metrics
        self.m_completed = m.counter(
            "repro_service_jobs_completed_total",
            "Jobs resolved by the service, by terminal state.",
            labelnames=("state",))
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
        self.m_latency = m.histogram(
            "repro_service_job_latency_seconds",
            "Submit-to-resolve latency of completed jobs.")
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

    @property
    def busy(self) -> bool:
        return bool(self.inflight) or len(self.queue) > 0

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for queue + in-flight work to finish; True on full drain."""
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        while True:
            self._idle.clear()
            if not self.busy:  # checked after clear, so no lost wakeup
                return True
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    return False
            try:
                await asyncio.wait_for(self._idle.wait(), wait)
            except asyncio.TimeoutError:
                return False

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
            # Lockstep vectorization: pull queued flights that share the
            # popped flight's program image into one worker task.  The
            # batch occupies the one slot just acquired (it is one worker
            # process), so sibling slots keep draining other batches.
            siblings = (
                self.queue.pop_compatible(flight, LOCKSTEP_MAX - 1)
                if lockstep_enabled() and not self.pool.degraded
                else []
            )
            if siblings:
                flights = [flight, *siblings]
                for member in flights:
                    self.inflight[member.key] = member
                task = asyncio.get_running_loop().create_task(
                    self._run_batch(flights))
            else:
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
            self._resolve(flight, None, error="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)))
        else:
            self._resolve(flight, record)
        finally:
            self.m_running.dec()
            self.inflight.pop(flight.key, None)
            self._wrapped.pop(flight.key, None)
            self._slots.release()
            self._wakeup.set()
            if not self.busy:
                self._idle.set()

    async def _run_batch(self, flights: "list[Flight]") -> None:
        """Run compatible flights as one lockstep batch, with fallback.

        The batch is one *optimistic, uncharged* attempt: on success every
        member resolves from the shared worker call; on any failure —
        worker exception, hung batch, pool death — the members fall back
        to the classic per-flight supervised path (:meth:`_execute`),
        which attributes failures to individual flights and applies the
        full retry-policy machinery.  SimulationTimeout raised mid-batch
        carries the guilty member's run key in its ``point`` attribute.
        """
        started = time.time()
        for flight in flights:
            for job in flight.jobs:
                job.state = RUNNING
                job.started = started
        self.m_running.inc(len(flights))
        try:
            records = await self._execute_batch(flights)
            if records is not None:
                for flight in flights:
                    self._resolve(flight, records[flight.key])
            else:
                for flight in flights:
                    try:
                        record = await self._execute(flight)
                    except Exception as exc:
                        self._resolve(flight, None, error="".join(
                            traceback.format_exception(
                                type(exc), exc, exc.__traceback__)))
                    else:
                        self._resolve(flight, record)
        finally:
            self.m_running.dec(len(flights))
            for flight in flights:
                self.inflight.pop(flight.key, None)
                self._wrapped.pop(flight.key, None)
            self._slots.release()
            self._wakeup.set()
            if not self.busy:
                self._idle.set()

    async def _execute_batch(self, flights: "list[Flight]"):
        """One uncharged lockstep attempt; ``None`` means fall back."""
        policy = self.retry_policy
        args = (
            flights[0].request.scale,
            tuple(flight.request.grid_point() for flight in flights),
            None,
            tuple(flight.key for flight in flights),
        )
        submit_generation = self.pool.generation
        attempt_started = time.monotonic()
        try:
            future, generation = self.pool.submit_batch(args)
        except (BrokenProcessPool, RuntimeError):
            if self.pool.degraded:
                raise
            self._abandon_generation(submit_generation)
            await asyncio.sleep(0)
            return None
        for flight in flights:
            flight.generation = generation
        wrapped = asyncio.wrap_future(future)
        for flight in flights:
            self._wrapped[flight.key] = wrapped
        # The batch deadline scales with membership: N serial-equivalent
        # simulations legitimately take up to N single budgets.
        timeout = (None if self.pool.degraded or policy.timeout is None
                   else policy.timeout * len(flights))
        try:
            records = await asyncio.wait_for(wrapped, timeout)
        except asyncio.TimeoutError:
            # Hung batch, culprit member unknown: abandon the generation
            # and let every member retry individually, uncharged.
            self._abandon_generation(generation)
            return None
        except asyncio.CancelledError:
            if not any(flight.abandoned for flight in flights):
                raise  # real cancellation (service stopping)
            return None
        except BrokenProcessPool:
            self._abandon_generation(generation)
            return None
        except Exception:
            # Some member failed; the per-flight fallback attributes it.
            return None
        self.m_simulations.inc(len(flights))
        self.m_sim_seconds.observe(time.monotonic() - attempt_started)
        return records

    async def _execute(self, flight: Flight) -> RunRecord:
        """One flight to success or exhaustion, under supervision."""
        policy = self.retry_policy
        while True:
            flight.attempts += 1
            flight.abandoned = False
            attempt_started = time.monotonic()
            submit_generation = self.pool.generation
            try:
                future, generation = self.pool.submit(flight.worker_args())
            except (BrokenProcessPool, RuntimeError):
                # The pool broke under a sibling and we hit it before the
                # rebuild: submit() itself raises.  Same treatment as a
                # BrokenProcessPool from the future — rebuild (if nobody
                # beat us to it) and resubmit uncharged.  The degraded
                # thread pool cannot break this way; if it raises, the
                # scheduler is shutting down and the error is real.
                if self.pool.degraded:
                    raise
                self._abandon_generation(submit_generation)
                flight.attempts -= 1
                await asyncio.sleep(0)  # let the rebuild settle
                continue
            flight.generation = generation
            wrapped = asyncio.wrap_future(future)
            self._wrapped[flight.key] = wrapped
            timeout = None if self.pool.degraded else policy.timeout
            try:
                record = await asyncio.wait_for(wrapped, timeout)
            except asyncio.TimeoutError:
                # Hung worker: abandon the generation; this flight is the
                # culprit and is charged, siblings resubmit uncharged.
                self._abandon_generation(generation, culprit=flight)
                if flight.attempts >= policy.max_attempts:
                    raise TimeoutError(
                        f"{flight.request.workload}/{flight.request.policy} "
                        f"exceeded {policy.timeout}s wall-clock budget "
                        f"{flight.attempts} time(s)")
                self.m_retries.inc()
                await asyncio.sleep(policy.delay(flight.attempts, flight.key))
            except asyncio.CancelledError:
                if not flight.abandoned:
                    raise  # real cancellation (service stopping)
                flight.attempts -= 1  # collateral damage: uncharged
            except BrokenProcessPool:
                self._abandon_generation(generation)
                flight.attempts -= 1  # victim unidentifiable: uncharged
            except Exception:
                if flight.attempts >= policy.max_attempts:
                    raise
                self.m_retries.inc()
                await asyncio.sleep(policy.delay(flight.attempts, flight.key))
            else:
                self.m_simulations.inc()
                self.m_sim_seconds.observe(
                    time.monotonic() - attempt_started)
                return record

    def _abandon_generation(self, generation: int,
                            culprit: Flight | None = None) -> None:
        """Rebuild the pool; cancel + uncharge sibling flights of ``generation``."""
        if generation == self.pool.generation and not self.pool.degraded:
            self.m_restarts.inc()
        self.pool.declare_dead(generation)
        self.m_degraded.set(1 if self.pool.degraded else 0)
        for key, sibling in list(self.inflight.items()):
            if sibling is culprit or sibling.generation != generation:
                continue
            wrapped = self._wrapped.get(key)
            if wrapped is not None and not wrapped.done():
                sibling.abandoned = True
                wrapped.cancel()

    # -------------------------------------------------------------- resolve
    def _resolve(self, flight: Flight, record: RunRecord | None,
                 error: str = "") -> None:
        finished = time.time()
        if record is not None:
            self.results[flight.key] = record
            if self.cache is not None:
                self.cache.put(flight.key, record)
        for job in flight.jobs:
            job.attempts = flight.attempts
            job.finished = finished
            if record is not None:
                job.state = DONE
                job.record = record
            else:
                job.state = FAILED
                job.error = error
            self.m_completed.inc(state=job.state)
            if job.latency is not None:
                self.m_latency.observe(job.latency)
