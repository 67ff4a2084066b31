"""Simulation-as-a-service: daemon, queue, coalescing, metrics, client.

The acceptance bar (ISSUE 5): a grid of simulations submitted through
the HTTP service — batch + duplicate submissions — must return results
bit-identical to the serial in-process runner, with ``/metrics`` showing
coalesced > 0 and cache hits > 0; queue overflow must return 429 and
never drop an accepted job.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.request

import pytest

from repro.faults import FaultPlan, FaultSpec, uninstall
from repro.harness.cache import ResultCache
from repro.harness.resilience import RetryPolicy
from repro.harness.runner import ExperimentRunner
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceQueueFull,
    parse_metrics,
)
from repro.service.daemon import (
    MAX_BATCH,
    ServiceConfig,
    ServiceThread,
    SimulationService,
)
from repro.service.httpd import HttpError
from repro.service.jobs import BadRequest, Flight, Job, JobStore, RunRequest
from repro.service.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    record_grid_report,
)
from repro.service.queue import AdmissionQueue, QueueFull


# ----------------------------------------------------------------- metrics
def test_counter_labels_and_render():
    registry = MetricsRegistry()
    c = registry.counter("http_requests_total", "Requests.",
                         labelnames=("code",))
    c.inc(code="200")
    c.inc(2, code="429")
    assert c.value(code="429") == 2
    assert c.total() == 3
    text = registry.render()
    assert "# TYPE http_requests_total counter" in text
    assert 'http_requests_total{code="200"} 1' in text
    assert 'http_requests_total{code="429"} 2' in text


def test_counter_rejects_negative_and_kind_conflict():
    registry = MetricsRegistry()
    c = registry.counter("ops_total")
    with pytest.raises(ValueError):
        c.inc(-1)
    with pytest.raises(ValueError):
        registry.gauge("ops_total")
    # get-or-create returns the same instrument
    assert registry.counter("ops_total") is c


def test_gauge_set_inc_dec():
    g = Gauge("depth")
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.value() == 4
    assert "depth 4" in "\n".join(g.render())


def test_histogram_quantiles_and_render():
    h = Histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.05, 0.5, 0.5, 0.5, 5.0):
        h.observe(v)
    assert h.count == 6
    assert h.sum == pytest.approx(6.6)
    assert 0.0 < h.quantile(0.5) <= 1.0
    assert h.quantile(0.99) > 1.0
    text = "\n".join(h.render())
    assert 'latency_seconds_bucket{le="+Inf"} 6' in text
    assert "latency_seconds_count 6" in text


def test_histogram_quantile_edge_cases():
    h = Histogram("empty", buckets=(1.0,))
    assert h.quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_record_grid_report_feeds_registry():
    from repro.harness.resilience import ResilienceReport, RunOutcome

    report = ResilienceReport(
        outcomes=[
            RunOutcome(key="k1", workload="w", policy="p", status="ok"),
            RunOutcome(key="k2", workload="w", policy="p", status="retried"),
        ],
        pool_rebuilds=2,
    )
    registry = MetricsRegistry()
    record_grid_report(report, registry)
    grid = registry.get("repro_grid_points_total")
    assert grid.value(status="ok") == 1
    assert grid.value(status="retried") == 1
    assert registry.get("repro_pool_rebuilds_total").total() == 2


def test_harness_feeds_global_metrics_registry():
    """The batch harness itself must feed the service metrics registry."""
    from repro.harness.resilience import RetryPolicy, WorkItem, execute_supervised
    from repro.service.metrics import GLOBAL

    before = (GLOBAL.get("repro_grid_points_total").value(status="ok")
              if GLOBAL.get("repro_grid_points_total") else 0)
    items = [WorkItem(key="k", args=("x",), workload="w", policy="p")]
    execute_supervised(items, lambda args: None, jobs=1,
                       policy=RetryPolicy(max_attempts=1),
                       on_success=lambda item, record: None)
    assert GLOBAL.get("repro_grid_points_total").value(status="ok") == before + 1


def test_parse_metrics():
    text = (
        "# HELP x Help.\n# TYPE x counter\n"
        'x{label="a"} 3\n'
        "y 1.5\n"
        "garbage line\n"
    )
    samples = parse_metrics(text)
    assert samples['x{label="a"}'] == 3
    assert samples["y"] == 1.5


# ------------------------------------------------------------ jobs / queue
def test_run_request_validation_errors():
    with pytest.raises(BadRequest):
        RunRequest.from_dict({"workload": "nope", "policy": "none"})
    with pytest.raises(BadRequest):
        RunRequest.from_dict({"workload": "gather", "policy": "nope"})
    with pytest.raises(BadRequest):
        RunRequest.from_dict({"workload": "gather", "scale": "huge"})
    with pytest.raises(BadRequest):
        RunRequest.from_dict({"workload": "gather", "frobnicate": 1})
    with pytest.raises(BadRequest):
        RunRequest.from_dict({"workload": "gather",
                              "config": {"not_a_field": 3}})
    with pytest.raises(BadRequest):
        RunRequest.from_dict({"workload": "gather",
                              "config": {"rob_size": [1, 2]}})
    with pytest.raises(BadRequest):
        RunRequest.from_dict(["not", "an", "object"])


def test_run_request_config_overrides_round_trip():
    request = RunRequest.from_dict(
        {"workload": "gather", "policy": "levioso",
         "config": {"rob_size": 64}})
    assert request.config.rob_size == 64
    described = request.describe()
    assert described["config"] == {"rob_size": 64}
    point = request.grid_point()
    assert point.config.rob_size == 64


def test_admission_queue_priority_and_overflow():
    q = AdmissionQueue(depth=2)
    r = RunRequest(workload="gather", policy="none")
    low = Flight(key="low", request=r, priority=20)
    high = Flight(key="high", request=r, priority=1)
    q.push(low)
    q.push(high)
    assert q.full
    with pytest.raises(QueueFull) as exc_info:
        q.push(Flight(key="x", request=r, priority=5))
    assert exc_info.value.retry_after > 0
    assert q.pop() is high  # priority order, not FIFO
    assert q.pop() is low
    assert q.pop() is None
    assert q.admitted == 2 and q.rejected == 1


def test_admission_queue_priority_raise_after_enqueue():
    q = AdmissionQueue(depth=4)
    r = RunRequest(workload="gather", policy="none")
    a = Flight(key="a", request=r, priority=10)
    b = Flight(key="b", request=r, priority=9)
    q.push(a)
    q.push(b)
    # A high-priority latecomer coalesces onto `a`, pulling it forward.
    a.attach(Job(
        request=RunRequest(workload="gather", policy="none", priority=1),
        key="a"))
    q.reprioritize(a)
    assert a.priority == 1
    assert len(q) == 2  # the duplicate heap entry is not a new flight
    assert [f.key for f in q.flights()] == ["a", "b"]
    assert q.pop() is a
    assert q.pop() is b
    assert q.pop() is None  # a's stale entry is lazy-deletion garbage


def test_job_store_prunes_only_terminal_jobs():
    from repro.service.jobs import DONE

    store = JobStore(history=3)
    r = RunRequest(workload="gather", policy="none")
    done = [Job(request=r, key=f"k{i}", state=DONE) for i in range(3)]
    for job in done:
        store.add(job)
    active = Job(request=r, key="active")
    store.add(active)
    assert len(store) == 3  # one DONE job evicted, the active one kept
    assert store.get(active.id) is active
    assert store.get(done[0].id) is None
    assert store.evicted == 1


# ------------------------------------------------------- service end-to-end
@pytest.fixture(scope="module")
def service():
    with ServiceThread(ServiceConfig(port=0, jobs=2, queue_depth=16)) as s:
        yield s


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.base_url)


def test_healthz_and_404(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["queue_capacity"] == 16
    with pytest.raises(ServiceError) as exc_info:
        client._json("GET", "/nope")
    assert exc_info.value.status == 404


def test_submit_rejects_bad_requests(client):
    with pytest.raises(ServiceError) as exc_info:
        client.submit([{"workload": "not-a-workload", "policy": "none"}])
    assert exc_info.value.status == 400
    with pytest.raises(ServiceError) as exc_info:
        client._json("POST", "/v1/runs", ["not", "a", "dict"])
    assert exc_info.value.status == 400
    status, _, _ = client._request("PUT", "/healthz", {"x": 1})
    assert status == 405
    # One body over MAX_BATCH runs (ServiceClient.submit would chunk it).
    too_many = [{"workload": "gather", "policy": "none"}] * (MAX_BATCH + 1)
    with pytest.raises(ServiceError) as exc_info:
        client._json("POST", "/v1/runs", {"runs": too_many})
    assert exc_info.value.status == 413


def test_unknown_job_is_404(client):
    with pytest.raises(ServiceError) as exc_info:
        client.status("no-such-job")
    assert exc_info.value.status == 404


def test_grid_bit_identical_with_coalescing_and_cache_hits(client):
    """THE acceptance test: batch + duplicates, bit-identical to serial."""
    points = [
        ("gather", "none"), ("gather", "levioso"),
        ("pchase", "none"), ("pchase", "levioso"),
        ("bsearch", "fence"),
    ]
    runs = [{"workload": w, "policy": p} for w, p in points]
    # Batch with in-batch duplicates -> coalescing.
    jobs = client.submit(runs + runs)
    assert len(jobs) == 10
    assert sum(1 for j in jobs if j["coalesced"]) >= len(points)
    finals = client.wait([j["id"] for j in jobs], timeout=120)

    serial = ExperimentRunner(scale="test")
    for job in finals.values():
        record = client.record_of(job)
        want = serial.run(job["request"]["workload"],
                          job["request"]["policy"])
        got, expect = ResultCache.serialize(record), ResultCache.serialize(want)
        assert json.loads(json.dumps(got)) == json.loads(json.dumps(expect)), (
            f"{job['request']}: service record differs from serial run")

    # Duplicate submission after completion -> served from the store.
    again = client.submit(runs)
    assert all(j["cached"] and j["state"] == "done" for j in again)
    metrics = client.metrics()
    assert metrics["repro_service_jobs_coalesced_total"] >= len(points)
    assert metrics["repro_service_cache_hits_total"] >= len(points)
    assert metrics["repro_service_simulations_total"] >= len(points)
    # Prometheus exposition contains the histogram family.
    text = client.metrics_text()
    assert "repro_service_job_latency_seconds_bucket" in text
    assert "# TYPE repro_service_queue_depth gauge" in text


def test_config_override_runs_and_differs(client):
    job = client.submit_one("gather", "levioso", config={"rob_size": 96})
    final = client.wait([job["id"]], timeout=120)[job["id"]]
    small_rob = client.record_of(final)
    base = ExperimentRunner(scale="test")
    assert small_rob.cycles != base.run("gather", "levioso").cycles
    from repro.uarch import CoreConfig
    import dataclasses

    override = ExperimentRunner(scale="test")
    want = override.run(
        "gather", "levioso",
        config=dataclasses.replace(CoreConfig(), rob_size=96))
    assert small_rob.cycles == want.cycles


def test_queue_overflow_429_never_drops_accepted(client, service):
    """Backpressure: 429 on overflow; every accepted job still completes."""
    service.pause()  # nothing pops, so admissions deterministically pile up
    try:
        depth = service.service.queue.depth
        room = depth - len(service.service.queue)
        assert room > 0
        accepted = []
        # Fill the queue exactly with distinct (never-run-before) points.
        batch = [
            {"workload": "gather", "policy": "levioso",
             "config": {"rob_size": 100 + 2 * i}}
            for i in range(room)
        ]
        accepted.extend(client.submit(batch))
        # One more novel point must be rejected with Retry-After.
        with pytest.raises(ServiceQueueFull) as exc_info:
            client.submit([{"workload": "gather", "policy": "levioso",
                            "config": {"rob_size": 190}}])
        assert exc_info.value.retry_after >= 1.0
        # ... but a duplicate of a queued point coalesces: no capacity used.
        dup = client.submit([batch[0]])
        assert dup[0]["coalesced"]
        accepted.extend(dup)
        rejected = client.metrics()["repro_service_jobs_rejected_total"]
        assert rejected >= 1
    finally:
        service.resume()
    finals = client.wait([j["id"] for j in accepted], timeout=300)
    assert all(j["state"] == "done" for j in finals.values())


def test_jobs_index_lists_recent(client):
    index = client.jobs()
    assert index["total"] >= 1
    assert all("id" in j and "state" in j for j in index["jobs"])


def test_priority_orders_queued_work(service):
    """With the scheduler paused, a later high-priority job runs first."""
    local = ServiceClient(service.base_url)
    service.pause()
    try:
        slow = local.submit([{"workload": "sort", "policy": "none",
                              "priority": 50}])
        fast = local.submit([{"workload": "crc", "policy": "none",
                              "priority": 1}])
        flights = service.service.queue.flights()
        assert flights[0].request.workload == "crc"
    finally:
        service.resume()
    finals = local.wait([slow[0]["id"], fast[0]["id"]], timeout=120)
    assert all(j["state"] == "done" for j in finals.values())


def test_http_metrics_endpoint_content_type(service):
    with urllib.request.urlopen(service.base_url + "/metrics") as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("text/plain")


# ------------------------------------------------------------ drain + cache
def test_drain_completes_accepted_jobs_and_rejects_new(tmp_path):
    config = ServiceConfig(port=0, jobs=2, queue_depth=16,
                           cache_dir=str(tmp_path / "cache"), use_cache=True)
    server = ServiceThread(config).start()
    client = ServiceClient(server.base_url)
    jobs = client.submit([
        {"workload": "gather", "policy": "none"},
        {"workload": "crc", "policy": "levioso"},
    ])
    assert server.stop(timeout=120)  # drain: accepted jobs must resolve
    done = [server.service.store.get(j["id"]) for j in jobs]
    assert all(j is not None and j.state == "done" for j in done)
    # The persistent cache holds the results for the next daemon.
    cache = ResultCache(tmp_path / "cache")
    assert len(cache.entries()) >= 2
    # A restarted service serves them as cache hits without simulating.
    server2 = ServiceThread(ServiceConfig(
        port=0, jobs=1, cache_dir=str(tmp_path / "cache"),
        use_cache=True)).start()
    try:
        client2 = ServiceClient(server2.base_url)
        again = client2.submit([{"workload": "gather", "policy": "none"}])
        assert again[0]["cached"] and again[0]["state"] == "done"
        record = client2.record_of(client2.status(again[0]["id"]))
        serial = ExperimentRunner(scale="test").run("gather", "none")
        assert ResultCache.serialize(record) == ResultCache.serialize(serial)
    finally:
        server2.stop()


def test_stopped_service_rejects_new_submissions():
    server = ServiceThread(ServiceConfig(port=0, jobs=1)).start()
    client = ServiceClient(server.base_url)
    assert client.healthz()["status"] == "ok"
    server.stop()
    # The listener is closed after drain; new submissions cannot land.
    with pytest.raises(ServiceError):
        client.submit([{"workload": "gather", "policy": "none"}])


def test_a_draining_service_still_answers_over_http():
    """Until its flights resolve or the drain budget runs out, a draining
    daemon keeps its listener: ``/healthz`` reads ``draining``, a new
    submission gets 503, and a waiting client can still poll its job."""
    server = ServiceThread(ServiceConfig(
        port=0, jobs=1, drain_timeout=2)).start()
    client = ServiceClient(server.base_url,
                           retry_policy=RetryPolicy(max_attempts=1))
    server.pause()  # the one job stays queued for the whole drain
    (job,) = client.submit([{"workload": "gather", "policy": "none"}])
    stopper = threading.Thread(target=server.stop)
    stopper.start()  # drains; returns once the budget runs out
    try:
        deadline = time.monotonic() + 10
        while not server.call(lambda s: s.draining):
            assert time.monotonic() < deadline, "drain never started"
        assert client.healthz()["status"] == "draining"
        with pytest.raises(ServiceError) as exc_info:
            client.submit([{"workload": "crc", "policy": "none"}])
        assert exc_info.value.status == 503
        status = client.status(job["id"])
        assert (status["id"], status["state"]) == (job["id"], "queued")
    finally:
        stopper.join(30)
    assert not stopper.is_alive()
    assert server.drained is False  # the paused job never resolved
    with pytest.raises(ServiceError):
        client.healthz()


def test_concurrent_drains_share_a_timed_out_verdict():
    """A drain that times out answers False to every caller, and a
    submission routed while it runs is refused with 503."""

    async def scenario():
        service = SimulationService(ServiceConfig(
            port=0, jobs=1, drain_timeout=0.2))
        await service.start()
        service.scheduler.pause()  # the one job can never resolve
        service.submit([RunRequest(workload="gather", policy="none")])
        drains = asyncio.gather(service.drain_and_stop(),
                                service.drain_and_stop())
        await asyncio.sleep(0)
        body = json.dumps({"workload": "crc", "policy": "none"}).encode()
        with pytest.raises(HttpError) as exc_info:
            service.route("POST", "/v1/runs", body)
        return await drains, exc_info.value

    verdicts, refused = asyncio.run(scenario())
    assert verdicts == [False, False]
    assert (refused.status, refused.message) == (503, "service is draining")


def test_stop_after_an_earlier_drain_returns_its_verdict():
    """``ServiceThread.stop()`` after the service already drained by
    another route returns that drain's verdict instead of scheduling a
    second drain on the closed loop."""
    server = ServiceThread(ServiceConfig(port=0, jobs=1, drain_timeout=0.2))
    server.start()
    server.pause()  # the one job can never resolve: the drain times out
    server.call(lambda s: s.submit(
        [RunRequest(workload="gather", policy="none")]))
    first = asyncio.run_coroutine_threadsafe(
        server.service.drain_and_stop(), server._loop).result(30.0)
    assert first is False
    assert server.stop() is False
    assert server.drained is False
    assert not server._thread.is_alive()


# ------------------------------------------------------------------- chaos
def test_service_chaos_smoke_bit_identical(tmp_path):
    """Worker kill + cache corruption through HTTP: recovery must match."""
    from repro.service.chaos import service_chaos_smoke

    messages: list[str] = []
    ok = service_chaos_smoke(
        seed=7, jobs=2,
        workloads=("gather",), policies=("none", "levioso"),
        cache_dir=tmp_path / "chaos-cache", log=messages.append,
    )
    assert ok, "\n".join(messages)
    assert any("PASS" in m for m in messages)


FAULT_GRID = [("gather", "none"), ("gather", "levioso"),
              ("pchase", "none"), ("pchase", "levioso")]


@pytest.fixture(scope="module")
def fault_grid_reference():
    serial = ExperimentRunner(scale="test")
    return {(w, p): ResultCache.serialize(serial.run(w, p))
            for w, p in FAULT_GRID}


@pytest.mark.parametrize(
    "fault, timeout, max_pool_rebuilds, degraded",
    [
        (FaultSpec("worker", "hang", hang_seconds=6.0), 2.0, None, 0),
        (FaultSpec("worker", "kill"), None, None, 0),
        (FaultSpec("worker", "kill"), None, 0, 1),
    ],
    ids=["hang", "kill", "kill-degrades"],
)
def test_service_supervision_recovers_bit_identical(
        tmp_path, monkeypatch, fault_grid_reference,
        fault, timeout, max_pool_rebuilds, degraded):
    """A hung worker is abandoned, a killed one rebuilds the pool, and a
    death past the rebuild budget degrades to in-process execution; every
    job still completes with the clean serial record."""
    if max_pool_rebuilds is not None:
        monkeypatch.setattr(
            ServiceConfig, "retry_policy",
            lambda self: RetryPolicy(max_attempts=self.retries + 1,
                                     timeout=self.timeout,
                                     max_pool_rebuilds=max_pool_rebuilds))
    plan = FaultPlan([fault], state_dir=tmp_path).install()
    try:
        with ServiceThread(ServiceConfig(port=0, jobs=2,
                                         timeout=timeout)) as server:
            client = ServiceClient(server.base_url)
            results = client.run_grid(
                [{"workload": w, "policy": p} for w, p in FAULT_GRID],
                timeout=120.0)
            metrics = client.metrics()
    finally:
        uninstall()
    assert plan.fired() == 1
    for job, record in results:
        want = fault_grid_reference[job["request"]["workload"],
                                    job["request"]["policy"]]
        assert ResultCache.serialize(record) == want, job["request"]
    assert metrics["repro_service_worker_restarts_total"] >= 1
    assert metrics["repro_service_degraded"] == degraded


def test_worker_exception_is_charged_to_its_own_flight(tmp_path):
    """Flights queued together still run one supervised point each: a
    worker exception costs exactly its own flight one retry, however
    many same-workload flights were waiting beside it."""
    policies = ("none", "fence", "levioso")
    bad_key = ExperimentRunner(scale="test").run_key_for("gather", "levioso")
    plan = FaultPlan([FaultSpec("worker", "exception", match=bad_key)],
                     state_dir=tmp_path).install()
    try:
        with ServiceThread(ServiceConfig(port=0, jobs=1)) as server:
            client = ServiceClient(server.base_url)
            server.pause()   # queue all three before any of them pops
            try:
                jobs = client.submit([{"workload": "gather", "policy": p}
                                      for p in policies])
            finally:
                server.resume()
            finals = client.wait([j["id"] for j in jobs], timeout=120)
            metrics = client.metrics()
    finally:
        uninstall()
    assert plan.fired() == 1
    by_policy = {final["request"]["policy"]: final
                 for final in finals.values()}
    assert {p: f["attempts"] for p, f in by_policy.items()} == {
        "none": 1, "fence": 1, "levioso": 2}
    assert metrics["repro_service_retries_total"] == 1
    serial = ExperimentRunner(scale="test")
    for policy, final in by_policy.items():
        assert ResultCache.serialize(client.record_of(final)) == \
            ResultCache.serialize(serial.run("gather", policy))


# ------------------------------------------------------- concurrent clients
def test_many_threads_submitting_same_point_coalesce(service):
    """N racing clients of one point: one simulation, N identical answers."""
    local = ServiceClient(service.base_url)
    run = {"workload": "automaton", "policy": "nda"}
    results: list = []
    errors: list = []

    def one_client():
        try:
            mine = ServiceClient(service.base_url)
            jobs = mine.submit([run])
            final = mine.wait([jobs[0]["id"]], timeout=120)[jobs[0]["id"]]
            results.append(ResultCache.serialize(mine.record_of(final)))
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=one_client) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 6
    assert all(r == results[0] for r in results)
    serial = ExperimentRunner(scale="test").run("automaton", "nda")
    assert results[0] == ResultCache.serialize(serial)
