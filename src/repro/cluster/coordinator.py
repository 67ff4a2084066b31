"""The cluster coordinator daemon behind ``repro coordinate``.

The coordinator *is* the single-node front end
(:class:`~repro.service.frontend.Frontend`: POST/GET ``/v1/runs``,
``/healthz``, ``/metrics``, admission, coalescing, drain) with a
different flight executor — an existing
:class:`~repro.service.client.ServiceClient` pointed at a coordinator
cannot tell the difference — plus the fleet-facing membership surface::

    POST   /v1/nodes                 worker joins: {"id": ..., "url": ...}
    POST   /v1/nodes/{id}/heartbeat  liveness + load report (404 -> worker
                                     must re-register: "I don't know you")
    DELETE /v1/nodes/{id}            drain-aware departure (stop routing,
                                     do NOT fail over: the worker finishes
                                     its accepted jobs during its drain)
    GET    /v1/nodes                 the membership table

Routing: content keys are placed on a consistent-hash ring
(:mod:`repro.cluster.ring`) over routable nodes, so a key lands on the
worker whose persistent :class:`ResultCache` most likely already holds
it.  One *cluster flight* exists per unresolved key no matter how many
clients ask (cluster-wide coalescing).  Each flight is one asyncio task
running :func:`~repro.harness.resilience.supervise`, the one retry loop,
with the coordinator as its attempt source (DESIGN.md §13): a job the
worker reports failed is **charged** and final, a node that lets the
flight down loses the attempt (**uncharged**, retried at once up to
:data:`MAX_FAILOVERS` reroutes), and with no routable node the flight
runs on a degraded in-process pool — a fleet outage is slow, not down.

Static nodes (``--nodes`` / ``$REPRO_CLUSTER_NODES``) never heartbeat;
the monitor probes their ``/healthz`` every sweep whatever their state,
so a static node that was down when the coordinator started — or died
later — rejoins the ring on its first healthy answer.

Simulations are pure functions of the content key, so reroutes, orphan
re-executions and local fallback can never change a result —
bit-identity to a clean serial run survives any failure schedule.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
import traceback

from ..harness.cache import ResultCache
from ..harness.resilience import (
    FAILED,
    LOST,
    OK,
    RetryPolicy,
    WorkerPool,
    WorkItem,
    simulate_point,
    supervise,
)
from ..service.frontend import (
    Frontend,
    FrontendThread,
    default_heartbeat_interval,
    env_seconds,
)
from ..service.httpd import HttpError, json_bytes
from ..service.jobs import RUNNING, Flight
from ..service.queue import QueueFull
from .federation import render_federated
from .membership import ALIVE, DEAD, SUSPECT, Membership, Node
from .ring import HashRing
from .transport import request, request_json

#: Uncharged reroutes per flight before it fails (runaway guard).
MAX_FAILOVERS = 16
#: 429-from-worker waits before an attempt is given up as lost.
SUBMIT_RETRIES = 20
#: Worker job-status poll cadence, seconds.
POLL_INTERVAL = 0.05
#: Budget of one intra-cluster HTTP call, seconds.
REQUEST_TIMEOUT = 10.0


def _env_nodes() -> tuple[str, ...]:
    raw = os.environ.get("REPRO_CLUSTER_NODES", "")
    return tuple(u for u in raw.replace(",", " ").split() if u)


@dataclasses.dataclass
class CoordinatorConfig:
    """Everything ``repro coordinate`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8770
    #: Static worker URLs (probed via /healthz since they never
    #: heartbeat); dynamic workers self-register on top of these.
    nodes: tuple[str, ...] = dataclasses.field(default_factory=_env_nodes)
    heartbeat_interval: float = dataclasses.field(
        default_factory=default_heartbeat_interval)
    node_timeout: float = dataclasses.field(
        default_factory=lambda: env_seconds("REPRO_NODE_TIMEOUT", 5.0))
    max_flights: int = 256         # open-flight admission cap (backpressure)
    drain_timeout: float = 60.0    # grace period on SIGTERM


class _NodeFailure(Exception):
    """A flight's current node let it down: the attempt is lost."""

    def __init__(self, reason: str, declare_dead: bool = False):
        super().__init__(reason)
        self.declare_dead = declare_dead


class _JobFailed(Exception):
    """A charged failure; its text is the job's error, verbatim."""


@dataclasses.dataclass
class ClusterFlight(Flight):
    """A :class:`~repro.service.jobs.Flight` plus its routing state."""

    node_id: str | None = None     # current assignment (None: local/unplaced)
    remote_id: str | None = None   # worker-side job id of the live attempt
    failovers: int = 0             # uncharged reroutes so far
    node_lost: asyncio.Event = dataclasses.field(
        default_factory=asyncio.Event)


class ClusterCoordinator(Frontend):
    """The shared front end over a consistent-hash ring of workers."""

    server_label = "repro-coordinate"
    name = "repro coordinate"
    noun = "coordinator"
    metric_prefix = "repro_cluster"
    coalesced_family = (
        "repro_cluster_cross_node_coalesced_total",
        "Jobs attached to a key already in flight somewhere in the "
        "fleet (cluster-wide coalescing).")
    flight_class = ClusterFlight
    config_class = CoordinatorConfig

    def __init__(self, config: CoordinatorConfig | None = None,
                 metrics=None):
        super().__init__(config or CoordinatorConfig(), metrics)
        self.membership = Membership(
            heartbeat_interval=self.config.heartbeat_interval,
            node_timeout=self.config.node_timeout)
        self.ring = HashRing()
        self._monitor_task: asyncio.Task | None = None
        self._flight_tasks: set[asyncio.Task] = set()
        # A spent rebuild budget: degraded from the start, one thread.
        self.local = WorkerPool(0, max_rebuilds=-1)

        m = self.metrics
        self.m_failovers = m.counter(
            "repro_cluster_failovers_total",
            "In-flight jobs rerouted off a failed node (uncharged retries).")
        self.m_forwards = m.counter(
            "repro_cluster_forwards_total",
            "Flight submissions forwarded to a worker node.",
            labelnames=("node",))
        self.m_local = m.counter(
            "repro_cluster_local_runs_total",
            "Flights executed in-process because no node was routable.")
        self.m_nodes_alive = m.gauge(
            "repro_cluster_nodes_alive", "Nodes currently heartbeating.")
        self.m_nodes_suspect = m.gauge(
            "repro_cluster_nodes_suspect",
            "Nodes past the suspicion threshold but not yet dead.")
        self.m_open_flights = m.gauge(
            "repro_cluster_open_flights", "Unresolved cluster flights.")
        self.m_degraded = m.gauge(
            "repro_cluster_degraded",
            "1 while the fleet is empty and flights run in-process.")

    # ----------------------------------------------------------------- seam
    def check_room(self, new_flights: int) -> None:
        if new_flights > self.config.max_flights - len(self.flights):
            raise QueueFull(self.config.max_flights, self._retry_after())

    def launch(self, flight: ClusterFlight) -> None:
        task = asyncio.get_running_loop().create_task(self._run_flight(flight))
        self._flight_tasks.add(task)
        task.add_done_callback(self._flight_tasks.discard)

    def _retry_after(self) -> float:
        """Backpressure hint: open flights per routable worker, at an
        assumed fraction of a second per simulation."""
        nodes = max(len(self.ring), 1)
        return max(1.0, round(0.5 * len(self.flights) / nodes, 1))

    def health(self) -> dict:
        return {
            "role": "coordinator",
            "nodes": self.membership.counts(),
            "routable": len(self.ring),
            "open_flights": len(self.flights),
            "degraded": bool(self.flights) and not len(self.ring),
        }

    def banner(self) -> list[str]:
        return [f"listening on http://{self.config.host}:{self.port} "
                f"({len(self.config.nodes)} static node(s), "
                f"heartbeat {self.config.heartbeat_interval:g}s, "
                f"node timeout {self.config.node_timeout:g}s)"]

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        await super().start()
        for url in self.config.nodes:
            node_id = f"static:{url.rstrip('/').rsplit('/', 1)[-1]}"
            self._admit_node(node_id, url.rstrip("/"), static=True)
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor_loop())

    async def stop_executor(self, drained: bool) -> None:
        tasks = list(self._flight_tasks)
        for task in tasks:
            task.cancel()   # each resolves its flight as cancelled
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        self.local.shutdown(wait=False)

    # ----------------------------------------------------------- membership
    def _admit_node(self, node_id: str, url: str, static: bool = False
                    ) -> Node:
        node = self.membership.register(node_id, url, static=static)
        self.ring.add(node_id)
        self._update_node_gauges()
        return node

    def _beat(self, node_id: str, load: dict | None = None) -> Node | None:
        """A sign of life: a heartbeat, or a static node's healthy probe.

        A dead or left node is resurrected and put back on the ring;
        ``None`` for an unknown id.
        """
        node = self.membership.heartbeat(node_id, load)
        if node is not None:
            self.ring.add(node_id)   # no-op unless it had left the ring
            self._update_node_gauges()
        return node

    def _node_dead(self, node_id: str, reason: str) -> None:
        """Declare a node dead and abandon its in-flight flights (their
        tasks observe the event and reroute, uncharged)."""
        node = self.membership.mark_dead(node_id)
        self.ring.remove(node_id)
        self._update_node_gauges()
        if node is None:
            return
        for flight in self.flights.values():
            if flight.node_id == node_id:
                flight.node_lost.set()

    def _node_left(self, node_id: str) -> Node | None:
        """Drain-aware departure: unroutable, flights NOT abandoned —
        the departing worker resolves them during its drain window."""
        node = self.membership.deregister(node_id)
        self.ring.remove(node_id)
        self._update_node_gauges()
        return node

    def _update_node_gauges(self) -> None:
        counts = self.membership.counts()
        self.m_nodes_alive.set(counts[ALIVE])
        self.m_nodes_suspect.set(counts[SUSPECT])

    async def _monitor_loop(self) -> None:
        """Sweep heartbeat timeouts; probe every static node via /healthz."""
        period = max(min(self.config.heartbeat_interval / 2, 1.0), 0.05)
        while True:
            await asyncio.sleep(period)
            statics = [n for n in self.membership.nodes.values() if n.static]
            if statics:
                await asyncio.gather(
                    *(self._probe(node) for node in statics))
            for node in self.membership.sweep():
                self._node_dead(node.node_id, "heartbeat timeout")
            self._update_node_gauges()

    async def _probe(self, node: Node) -> None:
        try:
            status, _, _ = await request_json(
                "GET", node.url + "/healthz",
                timeout=max(self.config.heartbeat_interval, 1.0))
        except (OSError, asyncio.TimeoutError):
            return  # silence counts; the sweep applies the timeout
        if status == 200:
            self._beat(node.node_id)

    # -------------------------------------------------------------- flights
    async def _run_flight(self, flight: ClusterFlight) -> None:
        item = WorkItem(flight.key, flight)
        record, error = None, ""
        try:
            # One charged attempt: a failed job spent the worker's retries.
            record = await supervise(self, RetryPolicy(max_attempts=1),
                                     item, simulate_point)
        except asyncio.CancelledError:
            error = "cancelled at shutdown"
        except _JobFailed as exc:
            error = str(exc)
        except Exception:
            error = traceback.format_exc()
        flight.attempts = item.attempts
        self.resolve(flight, record, error)
        if self.ring:
            self.m_degraded.set(0)

    async def attempt(self, fn, flight: ClusterFlight,
                      timeout: float | None = None) -> tuple[str, object]:
        """:meth:`WorkerPool.attempt` on the fleet, its args the flight.

        Runs the flight on the node its key resolves to now, or on
        :attr:`local` if none is routable.  A node that lets the flight
        down loses the attempt; past :data:`MAX_FAILOVERS` reroutes, fails it.
        """
        for job in flight.jobs:
            job.state = RUNNING
            job.started = job.started or time.time()
        node_id = self.ring.node_for(flight.key)
        node = self.membership.get(node_id) if node_id else None
        if node is None:
            self.m_degraded.set(1)
            self.m_local.inc()
            return await self.local.attempt(fn, flight.worker_args(), timeout)
        flight.node_id = node.node_id
        flight.node_lost = asyncio.Event()
        try:
            return await self._run_on_node(flight, node)
        except _NodeFailure as exc:
            if exc.declare_dead:
                self._node_dead(node.node_id, str(exc))
            flight.node_id = None
            flight.remote_id = None
            flight.failovers += 1
            self.m_failovers.inc(len(flight.jobs))
            if flight.failovers > MAX_FAILOVERS:
                return FAILED, _JobFailed(
                    f"gave up after {flight.failovers} reroutes; "
                    f"last: {exc}")
            return LOST, None

    async def _wait_node_lost(self, flight: ClusterFlight,
                              delay: float) -> None:
        """Sleep ``delay`` unless the flight's node dies first."""
        try:
            await asyncio.wait_for(flight.node_lost.wait(), delay)
        except asyncio.TimeoutError:
            return
        raise _NodeFailure("assigned node declared dead", declare_dead=False)

    async def _run_on_node(self, flight: ClusterFlight, node: Node
                           ) -> tuple[str, object]:
        """Forward one flight to ``node`` and poll it to resolution.

        Raises :class:`_NodeFailure` when the node let the flight down;
        returns ``(OK, record)``, or ``(FAILED, _JobFailed)`` when the
        worker answered that the job failed or rejected the request.
        """
        base = node.url
        generation = node.generation
        payload = {"runs": [flight.request.describe()]}
        waits = 0
        while True:
            try:
                status, headers, data = await request_json(
                    "POST", base + "/v1/runs", payload, timeout=REQUEST_TIMEOUT)
            except (OSError, asyncio.TimeoutError) as exc:
                raise _NodeFailure(
                    f"submit to {node.node_id} failed: {exc}",
                    declare_dead=True) from exc
            if status == 429:
                waits += 1
                if waits > SUBMIT_RETRIES:
                    # Saturated but alive: lose the attempt, node kept
                    # on the ring (so the key resolves to it again).
                    raise _NodeFailure(
                        f"{node.node_id} kept answering 429")
                retry_after = float(headers.get("retry-after", "1") or "1")
                await self._wait_node_lost(flight, min(retry_after, 2.0))
                continue
            if status == 503:
                # Draining worker that hasn't deregistered yet.
                self._node_left(node.node_id)
                raise _NodeFailure(f"{node.node_id} is draining")
            if status >= 400 or not data or not data.get("jobs"):
                return FAILED, _JobFailed(
                    f"{node.node_id} rejected the request: "
                    f"{(data or {}).get('error', status)}")
            flight.remote_id = data["jobs"][0]["id"]
            self.m_forwards.inc(node=node.node_id)
            break

        while True:
            await self._wait_node_lost(flight, POLL_INTERVAL)
            live = self.membership.get(node.node_id)
            if live is None or live.generation != generation:
                raise _NodeFailure(
                    f"{node.node_id} was reincarnated under the flight")
            try:
                status, _, job = await request_json(
                    "GET", f"{base}/v1/runs/{flight.remote_id}",
                    timeout=REQUEST_TIMEOUT)
            except (OSError, asyncio.TimeoutError) as exc:
                raise _NodeFailure(
                    f"poll on {node.node_id} failed: {exc}",
                    declare_dead=True) from exc
            if status == 404:
                # Restarted (or aged-out) worker lost the job: resubmit.
                raise _NodeFailure(f"{node.node_id} lost job "
                                   f"{flight.remote_id}")
            if status != 200 or not isinstance(job, dict):
                raise _NodeFailure(
                    f"{node.node_id} answered {status} to a status poll")
            state = job.get("state")
            if state == "done":
                return OK, ResultCache.deserialize(job["result"])
            if state == "failed":
                # The worker burned its own retry budget: charged.
                return FAILED, _JobFailed(
                    job.get("error") or f"job failed on {node.node_id}")

    # ------------------------------------------------------------ endpoints
    def extra_route(self, method: str, path: str, body: bytes):
        if path == "/v1/nodes":
            if method == "GET":
                return 200, {}, json_bytes(
                    {"nodes": self.membership.describe(),
                     "routable": sorted(self.ring.nodes())}), "/v1/nodes"
            if method != "POST":
                raise HttpError(405, "use POST to register, GET to list")
            return self._handle_register(body)
        if path.startswith("/v1/nodes/"):
            rest = path[len("/v1/nodes/"):]
            if rest.endswith("/heartbeat") and method == "POST":
                return self._handle_heartbeat(
                    rest[: -len("/heartbeat")], body)
            if method == "DELETE":
                node = self._node_left(rest)
                if node is None:
                    raise HttpError(404, f"unknown node {rest!r}")
                return 200, {}, json_bytes(
                    {"id": rest, "state": node.state}), "/v1/nodes/{id}"
            raise HttpError(405, "POST {id}/heartbeat or DELETE {id}")
        raise HttpError(404, f"no route for {path}")

    async def render_metrics(self) -> str:
        texts: dict[str, str | None] = {}

        async def scrape(node: Node) -> None:
            try:
                status, _, body = await request(
                    "GET", node.url + "/metrics", timeout=2.0)
                texts[node.node_id] = (body.decode()
                                       if status == 200 else None)
            except (OSError, asyncio.TimeoutError):
                texts[node.node_id] = None

        await asyncio.gather(
            *(scrape(n) for n in self.membership.routable()))
        for node in self.membership.nodes.values():
            # Dead nodes stay visible as node_up 0 — the alerting
            # signal — instead of silently vanishing from the sum.
            # (LEFT nodes departed cleanly and really are gone.)
            if node.state == DEAD:
                texts.setdefault(node.node_id, None)
        self._update_node_gauges()
        self.m_open_flights.set(len(self.flights))
        return render_federated(self.metrics.render(), texts)

    def _handle_register(self, body: bytes):
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "registration must be an object")
        node_id = payload.get("id")
        url = payload.get("url")
        if not node_id or not isinstance(node_id, str):
            raise HttpError(400, 'registration needs an "id" string')
        if not url or not isinstance(url, str) \
                or not url.startswith("http://"):
            # The intra-cluster transport speaks plain http only; reject
            # unroutable URLs at the door instead of at first forward.
            raise HttpError(400, 'registration needs a "url" like '
                                 '"http://host:port"')
        node = self._admit_node(node_id, url.rstrip("/"))
        return 200, {}, json_bytes({
            "id": node.node_id,
            "state": node.state,
            "generation": node.generation,
            "heartbeat_interval": self.config.heartbeat_interval,
        }), "/v1/nodes"

    def _handle_heartbeat(self, node_id: str, body: bytes):
        try:
            load = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            load = None
        node = self._beat(node_id, load if isinstance(load, dict) else None)
        if node is None:
            raise HttpError(404, f"unknown node {node_id!r}; re-register")
        return 200, {}, json_bytes(
            {"id": node_id, "state": node.state}), "/v1/nodes/{id}/heartbeat"


def coordinate(config: CoordinatorConfig | None = None) -> int:
    """Blocking entrypoint behind ``repro coordinate``."""
    return ClusterCoordinator.run(config or CoordinatorConfig())


class CoordinatorThread(FrontendThread):
    """A :class:`ClusterCoordinator` on a background thread + event loop."""

    daemon_class = ClusterCoordinator

    @property
    def coordinator(self) -> ClusterCoordinator | None:
        return self.daemon
