"""Fault-tolerant simulation fleet: ring, membership, coordinator.

The acceptance bar (ISSUE 8): a coordinator consistent-hashes run-cache
content keys across registered worker daemons, detects death by missed
heartbeats, fails in-flight jobs over as *uncharged* retries, coalesces
duplicates cluster-wide, and degrades to in-process execution at zero
nodes — with every served result bit-identical to a clean serial run
(simulations are pure functions of the content key, so placement can
never change an answer).
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.federation import merge_samples, render_federated
from repro.cluster.membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    Membership,
)
from repro.cluster.ring import HashRing
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentRunner
from repro.service.client import ServiceClient


# -------------------------------------------------------------------- ring
def test_ring_deterministic_and_order_independent():
    a, b = HashRing(), HashRing()
    for node in ("w1", "w2", "w3"):
        a.add(node)
    for node in ("w3", "w1", "w2"):
        b.add(node)
    keys = [f"key-{i}" for i in range(200)]
    assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]
    assert len(a) == 3 and "w2" in a and a.nodes() == {"w1", "w2", "w3"}


def test_ring_spreads_keys_across_nodes():
    ring = HashRing()
    for node in ("w1", "w2", "w3"):
        ring.add(node)
    owners = {ring.node_for(f"key-{i}") for i in range(300)}
    assert owners == {"w1", "w2", "w3"}


def test_ring_removal_moves_only_the_dead_nodes_keys():
    ring = HashRing()
    for node in ("w1", "w2", "w3"):
        ring.add(node)
    keys = [f"key-{i}" for i in range(500)]
    before = {k: ring.node_for(k) for k in keys}
    ring.remove("w2")
    for key in keys:
        owner = ring.node_for(key)
        if before[key] != "w2":
            # Consistency: keys not owned by the dead node never move.
            assert owner == before[key]
        else:
            assert owner in ("w1", "w3")


def test_ring_preference_is_failover_order():
    ring = HashRing()
    for node in ("w1", "w2", "w3"):
        ring.add(node)
    for key in ("key-a", "key-b", "key-c"):
        pref = ring.preference(key)
        assert pref[0] == ring.node_for(key)
        assert sorted(pref) == ["w1", "w2", "w3"]   # all distinct nodes
    ring.remove(ring.node_for("key-a"))
    assert ring.node_for("key-a") in ring.nodes()


def test_empty_ring_routes_nowhere():
    ring = HashRing()
    assert ring.node_for("anything") is None
    assert ring.preference("anything") == []
    ring.add("solo")
    ring.remove("solo")
    assert ring.node_for("anything") is None


# -------------------------------------------------------------- membership
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_membership_suspect_then_dead_thresholds():
    clock = FakeClock()
    m = Membership(heartbeat_interval=1.0, node_timeout=5.0, clock=clock)
    m.register("w1", "http://w1")
    assert m.get("w1").state == ALIVE

    clock.now += 1.0
    m.heartbeat("w1")
    assert m.sweep() == [] and m.get("w1").state == ALIVE

    clock.now += 3.0                      # 3s silent > suspect_after (2.5)
    assert m.sweep() == []                # suspect flip is silent
    assert m.get("w1").state == SUSPECT
    assert [n.node_id for n in m.routable()] == ["w1"]  # still routable

    clock.now += 2.5                      # 5.5s silent > node_timeout
    died = m.sweep()
    assert [n.node_id for n in died] == ["w1"]
    assert m.get("w1").state == DEAD
    assert m.routable() == []
    assert m.sweep() == []                # death is reported exactly once


def test_membership_heartbeat_revives_suspect():
    clock = FakeClock()
    m = Membership(heartbeat_interval=1.0, node_timeout=5.0, clock=clock)
    m.register("w1", "http://w1")
    clock.now += 3.0
    m.sweep()
    assert m.get("w1").state == SUSPECT
    m.heartbeat("w1", load={"queue_depth": 2})
    assert m.get("w1").state == ALIVE
    assert m.get("w1").load == {"queue_depth": 2}


def test_membership_resurrection_bumps_generation():
    clock = FakeClock()
    m = Membership(heartbeat_interval=1.0, node_timeout=5.0, clock=clock)
    node = m.register("w1", "http://w1")
    assert node.generation == 0
    clock.now += 10.0
    m.sweep()
    assert m.get("w1").state == DEAD
    # A beat from a dead node is a resurrection: same id, new generation
    # — stale per-incarnation state (e.g. a remote job id) is discarded.
    m.heartbeat("w1")
    assert m.get("w1").state == ALIVE
    assert m.get("w1").generation == 1


def test_membership_unknown_heartbeat_and_drain_departure():
    clock = FakeClock()
    m = Membership(heartbeat_interval=1.0, node_timeout=5.0, clock=clock)
    assert m.heartbeat("ghost") is None   # caller answers 404
    m.register("w1", "http://w1")
    m.deregister("w1")
    assert m.get("w1").state == LEFT      # unroutable, not failed over
    assert m.routable() == []
    assert m.sweep() == []                # LEFT never becomes newly-dead
    counts = m.counts()
    assert counts[LEFT] == 1 and counts[ALIVE] == 0


def test_membership_mark_dead_reports_transition_once():
    clock = FakeClock()
    m = Membership(heartbeat_interval=1.0, node_timeout=5.0, clock=clock)
    m.register("w1", "http://w1")
    assert m.mark_dead("w1") is not None   # caller owes a failover now
    assert m.mark_dead("w1") is None       # already dead: no second one
    assert m.mark_dead("ghost") is None


def test_membership_records_why_a_node_died():
    clock = FakeClock()
    m = Membership(heartbeat_interval=1.0, node_timeout=5.0, clock=clock)
    m.register("w1", "http://w1")
    m.register("w2", "http://w2")
    assert m.get("w1").describe(clock.now)["death_reason"] is None
    m.mark_dead("w1", "submit to w1 failed: refused")
    m.mark_dead("w1", "a later, second declaration")   # not a transition
    clock.now += 10.0
    m.sweep()
    assert m.get("w1").describe(clock.now)["death_reason"] \
        == "submit to w1 failed: refused"
    assert m.get("w2").describe(clock.now)["death_reason"] \
        == "heartbeat timeout"
    m.heartbeat("w2")                       # resurrection clears it
    assert m.get("w2").describe(clock.now)["death_reason"] is None


# -------------------------------------------------------------- federation
def test_merge_samples_sums_by_sample_key():
    merged = merge_samples([
        'repro_jobs_total{state="done"} 3\nrepro_queue_depth 1\n',
        'repro_jobs_total{state="done"} 4\nrepro_queue_depth 2\n',
    ])
    assert merged['repro_jobs_total{state="done"}'] == 7
    assert merged["repro_queue_depth"] == 3


def test_render_federated_includes_node_up_flags():
    text = render_federated(
        "repro_cluster_jobs_submitted_total 5\n",
        {"w1": "repro_simulations_total 2\n", "w2": None},
    )
    assert "repro_cluster_jobs_submitted_total 5" in text
    assert "repro_simulations_total 2" in text
    assert 'repro_cluster_node_up{node="w1"} 1' in text
    assert 'repro_cluster_node_up{node="w2"} 0' in text


# ------------------------------------------------------- coordinator (e2e)
GRID = [
    {"workload": "gather", "policy": "none", "scale": "test"},
    {"workload": "gather", "policy": "levioso", "scale": "test"},
    {"workload": "pchase", "policy": "none", "scale": "test"},
    {"workload": "pchase", "policy": "fence", "scale": "test"},
]


@pytest.fixture(scope="module")
def expected():
    runner = ExperimentRunner(scale="test")
    return {
        (r["workload"], r["policy"]): ResultCache.serialize(
            runner.run(r["workload"], r["policy"]))
        for r in GRID
    }


def _start_fleet(n_workers: int, heartbeat: float = 0.2,
                 node_timeout: float = 1.5, **coord_overrides):
    from repro.cluster.coordinator import CoordinatorConfig, CoordinatorThread
    from repro.service.daemon import ServiceConfig, ServiceThread

    coord = CoordinatorThread(CoordinatorConfig(
        port=0, nodes=(), heartbeat_interval=heartbeat,
        node_timeout=node_timeout, **coord_overrides)).start()
    workers = []
    for i in range(n_workers):
        workers.append(ServiceThread(ServiceConfig(
            port=0, jobs=1, register_url=coord.base_url,
            node_id=f"tw{i + 1}", heartbeat_interval=heartbeat)).start())
    client = ServiceClient(coord.base_url)
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if client.healthz()["nodes"]["alive"] >= n_workers:
            break
        time.sleep(0.05)
    else:
        raise AssertionError(f"{n_workers} worker(s) never registered")
    return coord, workers, client


def test_cluster_grid_bit_identical_with_cross_node_coalescing(expected):
    coord, workers, client = _start_fleet(2)
    try:
        results = client.run_grid(GRID * 2, timeout=120.0)  # duplicates
        assert len(results) == len(GRID) * 2
        for job, record in results:
            want = expected[(job["request"]["workload"],
                             job["request"]["policy"])]
            assert ResultCache.serialize(record) == want
        metrics = client.metrics()
        assert metrics["repro_cluster_nodes_alive"] == 2
        # The duplicated half never re-simulates anywhere in the fleet.
        assert metrics["repro_cluster_cross_node_coalesced_total"] \
            + metrics["repro_cluster_cache_hits_total"] >= len(GRID)
        # Both workers actually served flights (the ring spreads GRID).
        forwards = {k: v for k, v in metrics.items()
                    if k.startswith("repro_cluster_forwards_total")}
        assert sum(forwards.values()) == len(GRID)
        # Resubmitting after completion is answered from coordinator
        # results without opening a single new flight.
        before = metrics["repro_cluster_cache_hits_total"]
        again = client.run_grid(GRID, timeout=30.0)
        for job, record in again:
            assert job["cached"]
        assert client.metrics()["repro_cluster_cache_hits_total"] \
            == before + len(GRID)
    finally:
        for w in workers:
            w.stop()
        assert coord.stop()


def test_cluster_healthz_federated_metrics_and_drain_departure(expected):
    coord, workers, client = _start_fleet(2)
    try:
        health = client.healthz()
        assert health["nodes"]["alive"] == 2
        fleet = client._json("GET", "/v1/nodes")
        assert {n["id"] for n in fleet["nodes"]} == {"tw1", "tw2"}
        assert sorted(fleet["routable"]) == ["tw1", "tw2"]
        client.run_grid(GRID[:2], timeout=60.0)
        text = client.metrics_text()
        assert 'repro_cluster_node_up{node="tw1"} 1' in text
        assert 'repro_cluster_node_up{node="tw2"} 1' in text
        # Fleet aggregate folds worker-side samples into the scrape.
        assert "repro_service_jobs_submitted_total" in text
        # A SIGTERM-style drain deregisters: LEFT, never failed over.
        workers.pop(0).stop()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            counts = client.healthz()["nodes"]
            if counts["left"] >= 1:
                break
            time.sleep(0.05)
        assert client.healthz()["nodes"]["left"] >= 1
        assert client.metrics()["repro_cluster_failovers_total"] == 0
    finally:
        for w in workers:
            w.stop()
        assert coord.stop()


def test_cluster_failover_reroutes_dead_nodes_flights(expected):
    # One real worker + one registered-but-bogus node: flights hashed to
    # the bogus node hit connection-refused, which declares it dead and
    # reroutes the flight — an *uncharged* retry (job still succeeds).
    coord, workers, client = _start_fleet(1, node_timeout=5.0)
    try:
        client._json("POST", "/v1/nodes",
                     {"id": "bogus", "url": "http://127.0.0.1:9"})
        results = client.run_grid(GRID, timeout=120.0)
        for job, record in results:
            want = expected[(job["request"]["workload"],
                             job["request"]["policy"])]
            assert ResultCache.serialize(record) == want
            assert job["state"] == "done"
        metrics = client.metrics()
        assert metrics["repro_cluster_failovers_total"] >= 1
        # The bogus node is dead, not merely suspect.
        assert client.healthz()["nodes"]["dead"] == 1
    finally:
        for w in workers:
            w.stop()
        assert coord.stop()


def test_cluster_zero_nodes_degrades_to_local_execution(expected):
    from repro.cluster.coordinator import CoordinatorConfig, CoordinatorThread

    coord = CoordinatorThread(CoordinatorConfig(
        port=0, nodes=(), heartbeat_interval=0.2, node_timeout=1.5)).start()
    try:
        client = ServiceClient(coord.base_url)
        results = client.run_grid(GRID[:2], timeout=120.0)
        for job, record in results:
            want = expected[(job["request"]["workload"],
                             job["request"]["policy"])]
            assert ResultCache.serialize(record) == want
        metrics = client.metrics()
        assert metrics["repro_cluster_degraded"] == 1
        assert metrics["repro_cluster_local_runs_total"] == len(GRID[:2])
    finally:
        assert coord.stop()


def test_cluster_heartbeat_silence_kills_node():
    # Register a node by hand and never heartbeat: the monitor sweep
    # must declare it dead within node_timeout plus one sweep period.
    from repro.cluster.coordinator import CoordinatorConfig, CoordinatorThread

    coord = CoordinatorThread(CoordinatorConfig(
        port=0, nodes=(), heartbeat_interval=0.1, node_timeout=0.5)).start()
    try:
        client = ServiceClient(coord.base_url)
        client._json("POST", "/v1/nodes",
                     {"id": "silent", "url": "http://127.0.0.1:9"})
        assert client.healthz()["nodes"]["alive"] == 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if client.healthz()["nodes"]["dead"] == 1:
                break
            time.sleep(0.05)
        assert client.healthz()["nodes"]["dead"] == 1
        assert client.metrics()["repro_cluster_nodes_alive"] == 0
        # Dead nodes stay visible in the federation as the alerting
        # signal, never silently dropped from the scrape.
        assert 'repro_cluster_node_up{node="silent"} 0' \
            in client.metrics_text()
    finally:
        assert coord.stop()


def test_cluster_node_entries_say_why_a_node_died(expected):
    # An unreachable node dies of a failed submit; a silent one of a
    # heartbeat timeout.  Both reasons show in the node's /v1/nodes entry.
    coord, workers, client = _start_fleet(1, heartbeat=0.1, node_timeout=0.5)
    try:
        client._json("POST", "/v1/nodes",
                     {"id": "bogus", "url": "http://127.0.0.1:9"})
        client.run_grid(GRID, timeout=120.0)
        client._json("POST", "/v1/nodes",
                     {"id": "silent", "url": "http://127.0.0.1:9"})
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            nodes = {n["id"]: n for n in client._json("GET", "/v1/nodes")["nodes"]}
            if nodes["silent"]["state"] == "dead":
                break
            time.sleep(0.05)
        assert nodes["bogus"]["state"] == "dead"
        assert "submit to bogus failed" in nodes["bogus"]["death_reason"]
        assert nodes["silent"]["death_reason"] == "heartbeat timeout"
        assert nodes["tw1"]["death_reason"] is None
    finally:
        for w in workers:
            w.stop()
        assert coord.stop()


def test_cluster_rejects_bad_registrations():
    from repro.cluster.coordinator import CoordinatorConfig, CoordinatorThread
    from repro.service.client import ServiceError

    coord = CoordinatorThread(CoordinatorConfig(port=0, nodes=())).start()
    try:
        client = ServiceClient(coord.base_url)
        with pytest.raises(ServiceError):
            client._json("POST", "/v1/nodes", {"id": "", "url": "http://x"})
        with pytest.raises(ServiceError):
            client._json("POST", "/v1/nodes", {"id": "w", "url": "ftp://x"})
        with pytest.raises(ServiceError):
            client._json("POST", "/v1/nodes/ghost/heartbeat", {})
    finally:
        assert coord.stop()


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_cluster_static_node_rejoins_after_starting_late(expected):
    # A coordinator started before its --nodes worker declares the node
    # dead; the monitor must keep probing it and put it back on the ring
    # once the worker comes up, then route work to it.
    from repro.cluster.coordinator import CoordinatorConfig, CoordinatorThread
    from repro.service.daemon import ServiceConfig, ServiceThread

    port = _free_port()
    coord = CoordinatorThread(CoordinatorConfig(
        port=0, nodes=(f"http://127.0.0.1:{port}",),
        heartbeat_interval=0.1, node_timeout=0.5)).start()
    worker = None
    try:
        client = ServiceClient(coord.base_url)
        deadline = time.monotonic() + 10.0
        while client.healthz()["nodes"]["dead"] != 1:
            assert time.monotonic() < deadline, client.healthz()
            time.sleep(0.05)
        worker = ServiceThread(ServiceConfig(port=port, jobs=1)).start()
        deadline = time.monotonic() + 10.0
        while client.healthz()["routable"] != 1:
            assert time.monotonic() < deadline, client.healthz()
            time.sleep(0.05)
        assert client.healthz()["nodes"]["alive"] == 1
        [(job, record)] = client.run_grid(GRID[:1], timeout=60.0)
        want = expected[(job["request"]["workload"],
                         job["request"]["policy"])]
        assert ResultCache.serialize(record) == want
        metrics = client.metrics()
        node = f"static:127.0.0.1:{port}"
        assert metrics[f'repro_cluster_forwards_total{{node="{node}"}}'] == 1
        assert metrics["repro_cluster_local_runs_total"] == 0
    finally:
        if worker is not None:
            worker.stop()
        assert coord.stop()


def test_cluster_chaos_drill_passes_at_the_ci_seed():
    # The gating CI drill: node faults are keyed on admitted work, so the
    # kill and the partition land inside the campaign on every run.
    from repro.cluster.chaos import cluster_chaos_smoke

    messages: list[str] = []
    assert cluster_chaos_smoke(seed=20240808, log=messages.append), \
        "\n".join(messages)


def _terminal(client: ServiceClient, job_ids: list[str],
              timeout: float = 60.0) -> list[dict]:
    """Poll until every job is terminal; failed jobs included."""
    deadline = time.monotonic() + timeout
    while True:
        jobs = [client.status(job_id) for job_id in job_ids]
        if all(j["state"] in ("done", "failed") for j in jobs):
            return jobs
        assert time.monotonic() < deadline, jobs
        time.sleep(0.05)


def test_cluster_worker_side_failure_is_charged_and_verbatim(tmp_path):
    # A worker that answers "this job failed" already spent its own retry
    # budget: the coordinator reports the failure once, with the worker's
    # own error text, and neither reroutes it nor runs it locally.
    from repro.cluster.coordinator import CoordinatorConfig, CoordinatorThread
    from repro.faults import FaultPlan, FaultSpec, uninstall
    from repro.service.daemon import ServiceConfig, ServiceThread

    FaultPlan([FaultSpec("worker", "exception", times=10, persistent=True)],
              state_dir=tmp_path).install()
    coord = worker = None
    try:
        coord = CoordinatorThread(CoordinatorConfig(
            port=0, nodes=(), heartbeat_interval=0.2,
            node_timeout=5.0)).start()
        worker = ServiceThread(ServiceConfig(
            port=0, jobs=1, retries=1, register_url=coord.base_url,
            node_id="tw1", heartbeat_interval=0.2)).start()
        client = ServiceClient(coord.base_url)
        deadline = time.monotonic() + 20.0
        while client.healthz()["nodes"]["alive"] < 1:
            assert time.monotonic() < deadline, client.healthz()
            time.sleep(0.05)
        [job] = _terminal(client, [client.submit_one("gather", "none")["id"]])
        assert job["state"] == "failed"
        assert "InjectedFault" in job["error"]
        [remote] = ServiceClient(worker.base_url).jobs()["jobs"]
        assert remote["state"] == "failed"
        assert job["error"] == remote["error"]       # verbatim
        assert job["attempts"] == 1
        metrics = client.metrics()
        assert metrics["repro_cluster_failovers_total"] == 0
        assert metrics['repro_cluster_forwards_total{node="tw1"}'] == 1
        assert metrics["repro_cluster_local_runs_total"] == 0
    finally:
        uninstall()
        if worker is not None:
            worker.stop()
        if coord is not None:
            assert coord.stop()


def test_cluster_runaway_guard_fails_a_flight_after_max_reroutes():
    # A node that accepts every submission and then forgets it (404 on
    # every poll) stays routable, so each reroute lands on it again; the
    # runaway guard must end the flight after MAX_FAILOVERS + 1 reroutes,
    # counting every job of the flight as failed over each time.
    import http.server
    import json
    import threading

    from repro.cluster.coordinator import (
        MAX_FAILOVERS,
        CoordinatorConfig,
        CoordinatorThread,
    )

    class Amnesiac(http.server.BaseHTTPRequestHandler):
        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self._reply(202, {"jobs": [{"id": "forgotten",
                                        "state": "queued"}]})

        def do_GET(self):
            self._reply(404, {"error": "unknown job"})

        def log_message(self, *args):
            pass

    stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Amnesiac)
    threading.Thread(target=stub.serve_forever, daemon=True).start()
    coord = CoordinatorThread(CoordinatorConfig(
        port=0, nodes=(), heartbeat_interval=0.2,
        node_timeout=30.0)).start()
    try:
        client = ServiceClient(coord.base_url)
        client._json("POST", "/v1/nodes", {
            "id": "amnesiac",
            "url": f"http://127.0.0.1:{stub.server_address[1]}"})
        run = {"workload": "gather", "policy": "none"}
        jobs = client.submit([run, run])           # one flight, two jobs
        finals = _terminal(client, [j["id"] for j in jobs])
        reroutes = MAX_FAILOVERS + 1
        assert reroutes == 17
        for job in finals:
            assert job["state"] == "failed"
            assert job["error"].startswith(
                f"gave up after {reroutes} reroutes; last: amnesiac lost job")
        metrics = client.metrics()
        assert metrics["repro_cluster_failovers_total"] == reroutes * 2
        assert metrics['repro_cluster_forwards_total{node="amnesiac"}'] \
            == reroutes
        assert metrics["repro_cluster_local_runs_total"] == 0
        assert client.healthz()["nodes"]["dead"] == 0
    finally:
        assert coord.stop()
        stub.shutdown()
        stub.server_close()
