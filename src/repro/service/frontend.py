"""One HTTP front end for ``repro serve`` and ``repro coordinate``.

Both daemons speak the same client API, held here once::

    POST /v1/runs        submit one request object or {"runs": [...]}
                         -> 202 {"jobs": [{id, state, coalesced, cached}]}
                         -> 400 malformed, 413 batch too large
                         -> 429 + Retry-After when admission is full
                         -> 503 while draining
    GET  /v1/runs        job table summary
    GET  /v1/runs/{id}   job status, with the serialized RunRecord once done
    GET  /healthz        liveness + executor gauges
    GET  /metrics        Prometheus text format

**Admission** keys each request by its run-cache content key and plans
the whole batch before committing any of it (all-or-nothing).  A key
with a stored result is answered at once (``cached``), a key with an
open flight gets the job attached (``coalesced``), and only novel keys
open a flight and use capacity.  Simulations are pure functions of the
key, so all three ways serve results bit-identical to a serial run.
Open flights live in one table, :attr:`Frontend.flights`, until
:meth:`Frontend.resolve` settles their jobs; a drain stops admission and
waits for that table to empty, bounded by ``drain_timeout``.

The daemons differ only in how a new flight is executed — the seam a
subclass fills in: ``check_room``, ``launch``, ``health``,
``extra_route``, ``render_metrics`` and ``stop_executor``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading
import time

from .. import __version__
from ..harness.cache import ResultCache
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
from .metrics import MetricsRegistry
from .queue import QueueFull

#: Largest accepted batch; beyond this a client should chunk.
MAX_BATCH = 1024

#: Completed jobs kept addressable by id.
HISTORY = 4096


def env_seconds(name: str, default: float) -> float:
    """A duration from the environment, or ``default`` if unset/garbled."""
    try:
        return float(os.environ[name])
    except (KeyError, ValueError):
        return default


def default_heartbeat_interval() -> float:
    """``$REPRO_HEARTBEAT_INTERVAL`` or 1 s — for workers and coordinator."""
    return env_seconds("REPRO_HEARTBEAT_INTERVAL", 1.0)


class Frontend(JsonHttpServer):
    """Admission, the flight table, resolution, routes, metrics, drain."""

    #: Log-line prefix (the CLI command).
    name: str
    #: What the 503-while-draining message calls this daemon.
    noun: str
    #: Prefix of the shared metric families.
    metric_prefix: str
    #: (name, help) of the coalesced-jobs counter.
    coalesced_family: tuple[str, str]
    config_class: type
    flight_class = Flight
    #: Optional persistent result tier consulted on admission misses.
    cache: ResultCache | None = None

    def __init__(self, config, metrics: MetricsRegistry | None = None):
        super().__init__()
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.keyer = RunKeyer()
        self.store = JobStore(history=HISTORY)
        self.results: dict[str, RunRecord] = {}
        self.flights: dict[str, Flight] = {}   # key -> open flight
        self.draining = False
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()            # set == no open flights
        self._idle.set()

        m, p = self.metrics, self.metric_prefix
        self.m_requests = m.counter(
            f"{p}_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            labelnames=("endpoint", "code"))
        self.m_submitted = m.counter(
            f"{p}_jobs_submitted_total",
            "Jobs accepted (cached + coalesced + new flights).")
        self.m_coalesced = m.counter(*self.coalesced_family)
        self.m_cache_hits = m.counter(
            f"{p}_cache_hits_total",
            "Jobs answered from the result store without opening a flight.")
        self.m_rejected = m.counter(
            f"{p}_jobs_rejected_total",
            "Submissions rejected by admission control (HTTP 429).")
        self.m_completed = m.counter(
            f"{p}_jobs_completed_total",
            "Jobs reaching a terminal state, by state.",
            labelnames=("state",))
        self.m_latency = m.histogram(
            f"{p}_job_latency_seconds",
            "Submit-to-resolve latency of completed jobs.")
        m.gauge(f"{p}_info", "Static daemon metadata.",
                labelnames=("version",)).set(1, version=__version__)

    # ----------------------------------------------------------------- seam
    def check_room(self, new_flights: int) -> None:
        """Raise :class:`QueueFull` unless ``new_flights`` more fit."""
        raise NotImplementedError

    def launch(self, flight: Flight) -> None:
        """Start executing a flight just opened by :meth:`submit`; the
        executor must eventually call :meth:`resolve` on it."""
        raise NotImplementedError

    def coalesce(self, flight: Flight, job: Job) -> None:
        """Attach a job to an open flight."""
        flight.attach(job)

    def health(self) -> dict:
        return {}

    def extra_route(self, method: str, path: str, body: bytes):
        raise HttpError(404, f"no route for {path}")

    async def render_metrics(self) -> str:
        return self.metrics.render()

    async def before_drain(self) -> None:
        """Runs once admission stops, before the listener closes."""

    async def stop_executor(self, drained: bool) -> None:
        """Tear the executor down; ``drained`` says whether it is idle."""

    def banner(self) -> list[str]:
        return [f"listening on http://{self.config.host}:{self.port}"]

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        await self.bind(self.config.host, self.config.port)

    async def drain_and_stop(self) -> bool:
        """Stop admission, let open flights resolve, shut down.  True iff
        every accepted job resolved inside the drain budget."""
        if self.draining:
            await self._stopped.wait()
            return True
        self.draining = True
        await self.before_drain()
        await self.close_server()
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   self.config.drain_timeout)
            drained = True
        except asyncio.TimeoutError:
            drained = False
        await self.stop_executor(drained)
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
            raise HttpError(503, f"{self.noun} is draining")
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
        try:
            self.check_room(len(novel))
        except QueueFull:
            self.m_rejected.inc(len(requests))
            raise

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
                self.coalesce(self.flights[key], job)
                self.m_coalesced.inc()
            else:
                flight = self.flight_class(key=key, request=request,
                                           priority=request.priority)
                flight.attach(job)
                self.flights[key] = flight
                self._idle.clear()
                self.launch(flight)
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
            **self.health(),
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

    async def _metrics_response(self) -> tuple[int, dict, bytes, str]:
        text = await self.render_metrics()
        return 200, {
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
        }, text.encode(), "/metrics"

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
            return self._metrics_response()
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
        return self.extra_route(method, path, body)

    # -------------------------------------------------------------- serving
    @classmethod
    def run(cls, config) -> int:
        """Serve until SIGTERM/SIGINT, drain, and return the exit code
        (0 iff every accepted job resolved inside the drain budget)."""
        return asyncio.run(_serve_until_signal(cls, config))


async def _serve_until_signal(cls: type[Frontend], config) -> int:
    daemon = cls(config)
    await daemon.start()
    loop = asyncio.get_running_loop()
    drain_task: list[asyncio.Task] = []

    def request_drain(signame: str) -> None:
        if not drain_task:
            print(f"{daemon.name}: {signame} received, draining "
                  f"({len(daemon.flights)} open flight(s))...",
                  file=sys.stderr, flush=True)
            drain_task.append(loop.create_task(daemon.drain_and_stop()))

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                sig, request_drain, signal.Signals(sig).name)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    for line in daemon.banner():
        print(f"{daemon.name}: {line}", flush=True)
    await daemon._stopped.wait()
    drained = drain_task[0].result() if drain_task else True
    print(f"{daemon.name}: drained clean, bye" if drained
          else f"{daemon.name}: drain timeout hit, some jobs unresolved",
          file=sys.stderr, flush=True)
    return 0 if drained else 1


class FrontendThread:
    """A :class:`Frontend` daemon on a background thread + event loop.

    The in-process harness used by tests, load generators and chaos
    drills: ``start()`` returns once the port is bound; ``stop()`` drains
    and joins.  Subclasses name the daemon class.
    """

    daemon_class: type[Frontend]

    def __init__(self, config=None):
        self.config = config or self.daemon_class.config_class(port=0)
        self.daemon: Frontend | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self.drained: bool | None = None

    @property
    def base_url(self) -> str:
        assert self.daemon is not None and self.daemon.port is not None
        return f"http://{self.config.host}:{self.daemon.port}"

    def start(self):
        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def boot():
                self.daemon = self.daemon_class(self.config)
                await self.daemon.start()
                self._ready.set()
                await self.daemon._stopped.wait()

            try:
                loop.run_until_complete(boot())
            finally:
                loop.close()

        label = self.daemon_class.server_label
        self._thread = threading.Thread(target=runner, name=label, daemon=True)
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError(f"{label} failed to start within 30s")
        return self

    def call(self, fn, *args):
        """Run ``fn(daemon, *args)`` on the daemon loop; returns its value."""
        assert self._loop is not None

        async def wrapper():
            return fn(self.daemon, *args)

        return asyncio.run_coroutine_threadsafe(
            wrapper(), self._loop).result(30.0)

    def stop(self, timeout: float = 60.0) -> bool:
        """Drain + stop + join; True iff the drain completed cleanly."""
        assert self._loop is not None and self._thread is not None
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.drain_and_stop(), self._loop)
        self.drained = future.result(timeout)
        self._thread.join(timeout)
        return bool(self.drained)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        if self._thread is not None and self._thread.is_alive():
            self.stop()
