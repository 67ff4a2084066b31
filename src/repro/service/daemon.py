"""Simulation-as-a-service: the asyncio HTTP daemon behind ``repro serve``.

A long-running process that turns the one-shot experiment harness into a
serving layer: clients POST (workload, policy, config-override) requests
and poll job ids, while the daemon keeps a warm worker pool, an
in-memory result store and (optionally) the persistent
:class:`~repro.harness.cache.ResultCache` across requests.  The client
API — endpoints, admission and coalescing, drain — is the shared
:class:`~repro.service.frontend.Frontend`; this module is its
single-node executor: a bounded :class:`AdmissionQueue` drained by the
supervised worker-pool :class:`Scheduler`.

**Cluster membership**: with ``register_url`` set the daemon becomes a
fleet worker — it registers with a :mod:`repro.cluster` coordinator,
heartbeats on an interval, re-registers after a coordinator restart or
a partition (a heartbeat answered 404 means "I don't know you"), and
deregisters *before* draining so the coordinator stops routing to it.
The daemon consults the fault plan at the ``node`` site once per new
flight it admits (key ``"{node_id}/job{n}"``) and once per heartbeat
(key ``"{node_id}/hb{seq}"``), which is how the cluster chaos drill
kills a worker or partitions it mid-campaign.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import uuid

from ..faults import maybe_fault
from ..harness.cache import ResultCache
from ..harness.resilience import RetryPolicy
from .frontend import Frontend, FrontendThread, default_heartbeat_interval
from .jobs import Flight, Job
from .metrics import record_cache_stats
from .queue import AdmissionQueue, QueueFull
from .scheduler import Scheduler


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
    # --- cluster membership (all optional; None = standalone daemon) ---
    register_url: str | None = None   # coordinator base URL to join
    node_id: str | None = None        # stable fleet identity (default: random)
    advertise_url: str | None = None  # URL the coordinator reaches us at
    heartbeat_interval: float | None = None  # default: $REPRO_HEARTBEAT_INTERVAL or 1s

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=max(self.retries + 1, 1),
                           timeout=self.timeout)


class SimulationService(Frontend):
    """The shared front end over a priority queue and a worker pool."""

    server_label = "repro-serve"
    name = "repro serve"
    noun = "service"
    metric_prefix = "repro_service"
    coalesced_family = (
        "repro_service_jobs_coalesced_total",
        "Jobs attached to an already queued/in-flight identical request.")
    config_class = ServiceConfig

    def __init__(self, config: ServiceConfig | None = None, metrics=None):
        super().__init__(config or ServiceConfig(), metrics)
        self.queue = AdmissionQueue(self.config.queue_depth)
        if self.config.use_cache or self.config.cache_dir:
            self.cache = ResultCache(self.config.cache_dir)
        self.scheduler = Scheduler(
            self.queue, self.metrics, self.resolve,
            jobs=self.config.jobs,
            retry_policy=self.config.retry_policy(),
        )
        self.node_id = (self.config.node_id
                        or f"node-{uuid.uuid4().hex[:8]}")
        self.heartbeat_interval = (
            self.config.heartbeat_interval
            if self.config.heartbeat_interval is not None
            else default_heartbeat_interval())
        self.heartbeats_sent = 0
        self._silent_until = 0.0     # monotonic end of an injected partition
        self._membership_task: asyncio.Task | None = None
        self._registered = False

        self.m_queue_depth = self.metrics.gauge(
            "repro_service_queue_depth", "Flights waiting in the job queue.")
        self.metrics.gauge(
            "repro_service_workers", "Configured worker processes.",
        ).set(self.config.jobs)

    # ----------------------------------------------------------------- seam
    def check_room(self, new_flights: int) -> None:
        if not self.queue.has_room_for(new_flights):
            raise QueueFull(self.queue.depth, self._retry_after())

    def launch(self, flight: Flight) -> None:
        self.queue.push(flight)
        self._node_fault(f"job{self.queue.admitted}")
        self.scheduler.notify()

    def coalesce(self, flight: Flight, job: Job) -> None:
        before = flight.priority
        flight.attach(job)
        if flight.priority < before:
            self.queue.reprioritize(flight)

    def _retry_after(self) -> float:
        """Backpressure hint: median sim time x queue depth / workers."""
        per_sim = self.scheduler.m_sim_seconds.quantile(0.5) or 0.5
        return max(1.0, round(
            per_sim * self.queue.depth / max(self.config.jobs, 1), 1))

    def health(self) -> dict:
        return {
            "node_id": self.node_id,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.depth,
            "running": len(self.scheduler.inflight),
            "workers": self.config.jobs,
            "degraded": self.scheduler.pool.degraded,
        }

    async def render_metrics(self) -> str:
        self.m_queue_depth.set(len(self.queue))
        if self.cache is not None:
            record_cache_stats(self.cache.stats, self.metrics)
        return self.metrics.render()

    def banner(self) -> list[str]:
        lines = [f"listening on http://{self.config.host}:{self.port} "
                 f"({self.config.jobs} worker(s), "
                 f"queue depth {self.config.queue_depth})"]
        if self.config.register_url:
            lines.append(f"joining cluster at {self.config.register_url} "
                         f"as {self.node_id} "
                         f"(heartbeat {self.heartbeat_interval:g}s)")
        return lines

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self.scheduler.start()
        await super().start()
        if self.config.register_url:
            self._membership_task = asyncio.get_running_loop().create_task(
                self._membership_loop())

    async def before_drain(self) -> None:
        await self._leave_cluster()

    async def stop_executor(self, drained: bool) -> None:
        await self.scheduler.stop(wait_workers=drained)

    # ----------------------------------------------------------- membership
    def _node_fault(self, event: str) -> None:
        """Consult the fault plan at the ``node`` site for ``event``.

        ``node_kill`` SIGKILLs this process inside
        :func:`repro.faults.maybe_fault`; ``heartbeat_loss`` is passive,
        so the membership loop goes silent for its ``hang_seconds``.
        """
        spec = maybe_fault("node", f"{self.node_id}/{event}")
        if spec is not None and spec.kind == "heartbeat_loss":
            self._silent_until = time.monotonic() + spec.hang_seconds

    async def _leave_cluster(self) -> None:
        """Drain-aware deregistration: tell the coordinator we're leaving
        *before* the socket closes, so it stops routing to us instead of
        declaring us dead and re-running our in-flight work."""
        if self._membership_task is not None:
            self._membership_task.cancel()
            try:
                await self._membership_task
            except (asyncio.CancelledError, Exception):
                pass
            self._membership_task = None
        if not self._registered:
            return
        from ..cluster.transport import request_json

        base = self.config.register_url.rstrip("/")
        try:
            await request_json(
                "DELETE", f"{base}/v1/nodes/{self.node_id}", timeout=3.0)
        except (OSError, asyncio.TimeoutError):
            pass  # coordinator gone; its sweep will notice anyway
        self._registered = False

    async def _membership_loop(self) -> None:
        """Register with the coordinator, then heartbeat forever.

        Self-healing by design: a failed or 404'd heartbeat flips back to
        the register step, so the worker survives coordinator restarts
        and rejoins after a partition.  Each beat consults the fault plan
        (key ``{node_id}/hb{seq}``); an injected partition, from a beat
        or from an admitted flight, silences the loop until it ends.
        """
        from ..cluster.transport import request_json

        base = self.config.register_url.rstrip("/")
        advertise = (self.config.advertise_url
                     or f"http://{self.config.host}:{self.port}")
        interval = max(self.heartbeat_interval, 0.05)
        while not self.draining:
            self.heartbeats_sent += 1
            self._node_fault(f"hb{self.heartbeats_sent}")
            silence = self._silent_until - time.monotonic()
            if silence > 0:
                await asyncio.sleep(silence)
                self._registered = False  # assume we were declared dead
                continue
            try:
                if not self._registered:
                    status, _, _ = await request_json(
                        "POST", base + "/v1/nodes",
                        {"id": self.node_id, "url": advertise},
                        timeout=5.0)
                    self._registered = status < 400
                if self._registered:
                    status, _, _ = await request_json(
                        "POST", f"{base}/v1/nodes/{self.node_id}/heartbeat",
                        {
                            "queue_depth": len(self.queue),
                            "running": len(self.scheduler.inflight),
                            "draining": self.draining,
                        },
                        timeout=5.0)
                    if status == 404:   # coordinator restarted: re-register
                        self._registered = False
                        continue
            except (OSError, asyncio.TimeoutError):
                pass  # coordinator unreachable; keep trying
            await asyncio.sleep(interval)


def serve(config: ServiceConfig | None = None) -> int:
    """Blocking entrypoint behind ``repro serve``; returns the exit code."""
    return SimulationService.run(config or ServiceConfig())


class ServiceThread(FrontendThread):
    """A :class:`SimulationService` on a background thread + event loop.

    Use ``base_url`` with :class:`~repro.service.client.ServiceClient`.
    """

    daemon_class = SimulationService

    @property
    def service(self) -> SimulationService | None:
        return self.daemon

    def pause(self) -> None:
        self.call(lambda s: s.scheduler.pause())

    def resume(self) -> None:
        self.call(lambda s: s.scheduler.resume())
