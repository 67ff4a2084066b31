"""Simulation-as-a-service: the asyncio HTTP daemon behind ``repro serve``.

A long-running process that turns the one-shot experiment harness into a
serving layer: clients POST (workload, policy, config-override) requests
and poll job ids, while the daemon keeps a warm worker pool, an
in-memory result store and (optionally) the persistent
:class:`~repro.harness.cache.ResultCache` across requests::

    POST /v1/runs        submit one request object or {"runs": [...]}
                         -> 202 {"jobs": [{id, state, coalesced, cached}]}
                         -> 400 malformed, 413 batch too large
                         -> 429 + Retry-After when admission is full
                         -> 503 while draining
    GET  /v1/runs        job table summary
    GET  /v1/runs/{id}   job status, with the serialized RunRecord once done
    GET  /healthz        liveness + queue and worker gauges
    GET  /metrics        Prometheus text format

**Admission** keys each request by its run-cache content key and plans
the whole batch before committing any of it (all-or-nothing).  A key
with a stored result is answered at once (``cached``), a key with an
open flight gets the job attached (``coalesced``), and only novel keys
open a flight and take a slot in the bounded :class:`AdmissionQueue`.
Simulations are pure functions of the key, so all three ways serve
results bit-identical to a serial run.  Open flights live in one table,
:attr:`SimulationService.flights`, until :meth:`SimulationService.resolve`
settles their jobs; the supervised worker-pool :class:`Scheduler` drains
the queue and calls ``resolve`` once per flight.  A drain stops
admission and waits for that table to empty, bounded by
``drain_timeout``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import signal
import sys
import threading
import time

from .. import __version__
from ..harness.cache import ResultCache
from ..harness.resilience import RetryPolicy
from ..harness.runner import RunRecord
from .httpd import HttpError, JsonHttpServer, json_bytes
from .jobs import (
    DONE,
    FAILED,
    BadRequest,
    BatchTooLarge,
    Flight,
    Job,
    JobStore,
    RunKeyer,
    RunRequest,
    parse_submission,
)
from .metrics import MetricsRegistry, record_cache_stats
from .queue import AdmissionQueue, QueueFull
from .scheduler import Scheduler

#: Largest accepted batch; beyond this a client should chunk.
MAX_BATCH = 1024

#: Completed jobs kept addressable by id.
HISTORY = 4096


@dataclasses.dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8765
    jobs: int = 2                  # worker processes
    queue_depth: int = 64          # max queued flights (backpressure)
    retries: int = 2               # per-flight retries after first attempt
    timeout: float | None = None   # per-flight wall-clock seconds
    cache_dir: str | None = None   # persistent ResultCache root
    use_cache: bool = False        # persist results across restarts
    drain_timeout: float = 60.0    # grace period on SIGTERM

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=max(self.retries + 1, 1),
                           timeout=self.timeout)


class SimulationService:
    """Admission, the flight table, resolution, routes, metrics, drain."""

    def __init__(self, config: ServiceConfig | None = None,
                 metrics: MetricsRegistry | None = None):
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.http = JsonHttpServer(self.route, self.on_response)
        self.keyer = RunKeyer()
        self.store = JobStore(history=HISTORY)
        self.results: dict[str, RunRecord] = {}
        self.flights: dict[str, Flight] = {}   # key -> open flight
        self.draining = False
        #: The first drain's verdict, returned to every later caller.
        self.drained: bool | None = None
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()            # set == no open flights
        self._idle.set()
        self.cache = (ResultCache(self.config.cache_dir)
                      if self.config.use_cache or self.config.cache_dir
                      else None)

        m = self.metrics
        self.m_requests = m.counter(
            "repro_service_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            labelnames=("endpoint", "code"))
        self.m_submitted = m.counter(
            "repro_service_jobs_submitted_total",
            "Jobs accepted (cached + coalesced + new flights).")
        self.m_coalesced = m.counter(
            "repro_service_jobs_coalesced_total",
            "Jobs attached to an already queued/in-flight identical request.")
        self.m_cache_hits = m.counter(
            "repro_service_cache_hits_total",
            "Jobs answered from the result store without opening a flight.")
        self.m_rejected = m.counter(
            "repro_service_jobs_rejected_total",
            "Submissions rejected by admission control (HTTP 429).")
        self.m_completed = m.counter(
            "repro_service_jobs_completed_total",
            "Jobs reaching a terminal state, by state.",
            labelnames=("state",))
        self.m_latency = m.histogram(
            "repro_service_job_latency_seconds",
            "Submit-to-resolve latency of completed jobs.")
        m.gauge("repro_service_info", "Static daemon metadata.",
                labelnames=("version",)).set(1, version=__version__)

        self.queue = AdmissionQueue(self.config.queue_depth)
        self.scheduler = Scheduler(
            self.queue, self.metrics, self.resolve,
            jobs=self.config.jobs,
            retry_policy=self.config.retry_policy(),
        )
        self.m_queue_depth = m.gauge(
            "repro_service_queue_depth", "Flights waiting in the job queue.")
        m.gauge("repro_service_workers",
                "Configured worker processes.").set(self.config.jobs)

    @property
    def port(self) -> int | None:
        """The bound port, once :meth:`start` has returned."""
        return self.http.port

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self.scheduler.start()
        await self.http.bind(self.config.host, self.config.port)

    async def drain_and_stop(self) -> bool:
        """Stop admission, let open flights resolve, shut down.  True iff
        every accepted job resolved inside the drain budget; a concurrent
        or later caller waits for the first drain and gets its verdict.

        The listener stays open until the flights resolve or the budget
        runs out, so clients can still poll their jobs and read
        ``/healthz`` while new submissions get 503."""
        if self.draining:
            await self._stopped.wait()
            return bool(self.drained)
        self.draining = True
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   self.config.drain_timeout)
            drained = True
        except asyncio.TimeoutError:
            drained = False
        await self.http.close_server()
        await self.scheduler.stop(wait_workers=drained)
        self.drained = drained
        self._stopped.set()
        return drained

    # ------------------------------------------------------------ admission
    def submit(self, requests: list[RunRequest]) -> list[Job]:
        """Admit a batch (all-or-nothing); raises :class:`QueueFull`.

        Runs synchronously on the event loop — no awaits — so the plan
        (which keys are cached / coalescible / novel) cannot be
        invalidated by a flight resolving mid-batch.
        """
        if self.draining:
            raise HttpError(503, "service is draining")
        plans: list[tuple[RunRequest, str, str]] = []  # (request, key, how)
        novel: dict[str, None] = {}   # insertion-ordered unique new keys
        for request in requests:
            key = self.keyer.key_for(request)
            if key in novel or key in self.flights:
                how = "coalesce"
            elif self._stored(key):
                how = "cached"
            else:
                how = "new"
                novel[key] = None
            plans.append((request, key, how))
        if not self.queue.has_room_for(len(novel)):
            self.m_rejected.inc(len(requests))
            raise QueueFull(self.queue.depth, self._retry_after())

        jobs: list[Job] = []
        for request, key, how in plans:
            job = Job(request=request, key=key)
            self.store.add(job)
            self.m_submitted.inc()
            if how == "cached":
                job.cached = True
                job.state = DONE
                job.record = self.results[key]
                job.finished = job.created
                self.m_cache_hits.inc()
            elif key in self.flights:
                job.coalesced = True
                flight = self.flights[key]
                before = flight.priority
                flight.attach(job)
                if flight.priority < before:
                    self.queue.reprioritize(flight)
                self.m_coalesced.inc()
            else:
                flight = Flight(key=key, request=request,
                                priority=request.priority)
                flight.attach(job)
                self.flights[key] = flight
                self._idle.clear()
                self.queue.push(flight)
                self.scheduler.notify()
            jobs.append(job)
        return jobs

    def _stored(self, key: str) -> bool:
        """Whether ``key`` has a result, warming it from the cache tier."""
        if key in self.results:
            return True
        record = self.cache.get(key) if self.cache is not None else None
        if record is None:
            return False
        self.results[key] = record
        return True

    def _retry_after(self) -> float:
        """Backpressure hint: median sim time x queue depth / workers."""
        per_sim = self.scheduler.m_sim_seconds.quantile(0.5) or 0.5
        return max(1.0, round(
            per_sim * self.queue.depth / max(self.config.jobs, 1), 1))

    # ----------------------------------------------------------- resolution
    def resolve(self, flight: Flight, record: RunRecord | None,
                error: str = "") -> None:
        """Close ``flight``: store its result, settle its jobs.

        Jobs already terminal are left as they are.
        """
        self.flights.pop(flight.key, None)
        if not self.flights:
            self._idle.set()
        finished = time.time()
        if record is not None:
            self.results[flight.key] = record
            if self.cache is not None:
                self.cache.put(flight.key, record)
        for job in flight.jobs:
            if job.state in (DONE, FAILED):
                continue
            job.attempts = flight.attempts
            job.finished = finished
            if record is not None:
                job.state = DONE
                job.record = record
            else:
                job.state = FAILED
                job.error = error or "unknown failure"
            self.m_completed.inc(state=job.state)
            self.m_latency.observe(job.latency)

    # ------------------------------------------------------------- endpoints
    def _healthz(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.depth,
            "running": len(self.scheduler.inflight),
            "workers": self.config.jobs,
            "degraded": self.scheduler.pool.degraded,
            "jobs_tracked": len(self.store),
            "results_stored": len(self.results),
        }

    def _runs_index(self) -> dict:
        jobs = self.store.jobs()
        return {
            "jobs": [j.describe(include_result=False) for j in jobs[-100:]],
            "total": len(jobs),
            "evicted": self.store.evicted,
        }

    def _metrics_text(self) -> str:
        self.m_queue_depth.set(len(self.queue))
        if self.cache is not None:
            record_cache_stats(self.cache.stats, self.metrics)
        return self.metrics.render()

    def on_response(self, endpoint: str, status: int) -> None:
        self.m_requests.inc(endpoint=endpoint, code=str(status))

    def route(self, method: str, path: str, body: bytes):
        """Dispatch; returns (status, extra headers, body, endpoint label)."""
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "healthz is GET-only")
            return 200, {}, json_bytes(self._healthz()), "/healthz"
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "metrics is GET-only")
            return 200, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            }, self._metrics_text().encode(), "/metrics"
        if path == "/v1/runs":
            if method == "GET":
                return 200, {}, json_bytes(self._runs_index()), "/v1/runs"
            if method != "POST":
                raise HttpError(405, "use POST to submit, GET to list")
            try:
                requests = parse_submission(body, max_batch=MAX_BATCH)
            except BatchTooLarge as exc:
                raise HttpError(413, str(exc)) from exc
            except BadRequest as exc:
                raise HttpError(400, str(exc)) from exc
            try:
                jobs = self.submit(requests)
            except QueueFull as exc:
                raise HttpError(
                    429, str(exc),
                    headers={"Retry-After": str(int(exc.retry_after + 0.5))},
                ) from exc
            accepted = {
                "jobs": [j.describe(include_result=False) for j in jobs],
            }
            return 202, {}, json_bytes(accepted), "/v1/runs"
        if path.startswith("/v1/runs/"):
            if method != "GET":
                raise HttpError(405, "job status is GET-only")
            job = self.store.get(path[len("/v1/runs/"):])
            if job is None:
                raise HttpError(404, "no such job (it may have aged out)")
            return 200, {}, json_bytes(job.describe()), "/v1/runs/{id}"
        raise HttpError(404, f"no route for {path}")


def serve(config: ServiceConfig | None = None) -> int:
    """Blocking entrypoint behind ``repro serve``: serve until
    SIGTERM/SIGINT, drain, and return the exit code (0 iff every
    accepted job resolved inside the drain budget)."""
    return asyncio.run(_serve_until_signal(config or ServiceConfig()))


async def _serve_until_signal(config: ServiceConfig) -> int:
    service = SimulationService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    drain_task: list[asyncio.Task] = []

    def request_drain(signame: str) -> None:
        if not drain_task:
            print(f"repro serve: {signame} received, draining "
                  f"({len(service.flights)} open flight(s))...",
                  file=sys.stderr, flush=True)
            drain_task.append(loop.create_task(service.drain_and_stop()))

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                sig, request_drain, signal.Signals(sig).name)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    print(f"repro serve: listening on http://{config.host}:{service.port} "
          f"({config.jobs} worker(s), queue depth {config.queue_depth})",
          flush=True)
    await service._stopped.wait()
    drained = drain_task[0].result() if drain_task else True
    print("repro serve: drained clean, bye" if drained
          else "repro serve: drain timeout hit, some jobs unresolved",
          file=sys.stderr, flush=True)
    return 0 if drained else 1


class ServiceThread:
    """A :class:`SimulationService` on a background thread + event loop.

    The in-process harness used by tests, load generators and chaos
    drills: ``start()`` returns once the port is bound; ``stop()`` drains
    and joins.  Use ``base_url`` with
    :class:`~repro.service.client.ServiceClient`.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig(port=0)
        self.service: SimulationService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self.drained: bool | None = None

    @property
    def base_url(self) -> str:
        assert self.service is not None and self.service.port is not None
        return f"http://{self.config.host}:{self.service.port}"

    def start(self) -> "ServiceThread":
        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def boot():
                self.service = SimulationService(self.config)
                await self.service.start()
                self._ready.set()
                await self.service._stopped.wait()

            try:
                loop.run_until_complete(boot())
            finally:
                loop.close()

        self._thread = threading.Thread(target=runner, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("repro-serve failed to start within 30s")
        return self

    def call(self, fn, *args):
        """Run ``fn(service, *args)`` on the daemon loop; returns its value."""
        assert self._loop is not None

        async def wrapper():
            return fn(self.service, *args)

        return asyncio.run_coroutine_threadsafe(
            wrapper(), self._loop).result(30.0)

    def pause(self) -> None:
        self.call(lambda s: s.scheduler.pause())

    def resume(self) -> None:
        self.call(lambda s: s.scheduler.resume())

    def stop(self, timeout: float = 60.0) -> bool:
        """Drain + stop + join; True iff the drain completed cleanly."""
        assert self._loop is not None and self._thread is not None
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain_and_stop(), self._loop)
        self.drained = future.result(timeout)
        self._thread.join(timeout)
        return bool(self.drained)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self._thread is not None and self._thread.is_alive():
            self.stop()
