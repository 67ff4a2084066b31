"""Fleet scaling + cluster-wide dedup benchmark for the coordinator.

Two arms, each against a *fresh* fleet (no shared result stores, so the
second arm never rides the first one's warm caches):

* **scaling** — the same unique grid through a 1-worker fleet and then
  a 2-worker fleet; with enough cores the 2-worker fleet should finish
  the grid close to twice as fast (the ring spreads keys across shards
  and each shard simulates its own in parallel).
* **dedup** — a heavily duplicated grid through a 2-worker fleet; the
  coordinator's cluster-wide coalescing + result store must hold
  fleet-wide simulations to the unique-point count, so served jobs per
  simulation lands well above 1.

Numbers land in ``BENCH_cluster.json`` at the repo root following the
``BENCH_service.json`` convention (latest run at the top level, an
append-only ``history`` list underneath).  The >=1.7x scaling gate only
arms on machines with at least 4 CPUs — on a 1-core box two workers
time-slice one core and measuring "scaling" would be noise; the
recorded ``cpu_count`` makes that context part of the artifact.

Correctness is asserted, not assumed: every record served by every
fleet must be bit-identical to a serial in-process run.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.cluster.coordinator import CoordinatorConfig, CoordinatorThread
from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentRunner
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, ServiceThread

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_cluster.json"
HISTORY_CAP = 50

#: Unique grid for the scaling arms (distinct content keys throughout).
POINTS = (
    ("gather", "none"), ("gather", "levioso"),
    ("pchase", "none"), ("pchase", "levioso"),
    ("crc", "none"), ("crc", "levioso"),
    ("bsearch", "none"), ("bsearch", "levioso"),
)
DUP_FACTOR = 3       # dedup arm submits the grid this many times over
HEARTBEAT = 0.2
SCALING_GATE = 1.7   # required 2-worker speedup ... on real multi-core
GATE_MIN_CPUS = 4


def _load_history() -> list[dict]:
    if not OUTPUT.exists():
        return []
    try:
        previous = json.loads(OUTPUT.read_text())
    except (OSError, ValueError):
        return []
    history = previous.get("history")
    return history if isinstance(history, list) else []


def _run_fleet(n_workers: int, runs: list[dict],
               reference: dict) -> tuple[float, dict]:
    """Fresh coordinator + ``n_workers`` fresh workers; submit ``runs``,
    assert bit-identity, return (wall seconds, federated metrics)."""
    coord = CoordinatorThread(CoordinatorConfig(
        port=0, nodes=(), heartbeat_interval=HEARTBEAT,
        node_timeout=2.0, max_flights=max(len(runs), 64))).start()
    workers = []
    try:
        for i in range(n_workers):
            workers.append(ServiceThread(ServiceConfig(
                port=0, jobs=1, register_url=coord.base_url,
                node_id=f"bench-w{i + 1}",
                heartbeat_interval=HEARTBEAT)).start())
        client = ServiceClient(coord.base_url)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.healthz()["nodes"]["alive"] >= n_workers:
                break
            time.sleep(0.05)
        else:
            raise AssertionError(f"{n_workers} worker(s) never registered")

        started = time.perf_counter()
        results = client.run_grid(runs, timeout=600.0)
        elapsed = time.perf_counter() - started

        assert len(results) == len(runs)
        for job, record in results:
            point = (job["request"]["workload"], job["request"]["policy"])
            assert ResultCache.serialize(record) == reference[point], point
        metrics = client.metrics()
        return elapsed, metrics
    finally:
        for worker in workers:
            worker.stop()
        assert coord.stop(), "coordinator failed to drain after the run"


def test_cluster_load():
    serial = ExperimentRunner(scale="test")
    reference = {
        (w, p): ResultCache.serialize(serial.run(w, p))
        for w, p in POINTS
    }
    runs = [{"workload": w, "policy": p} for w, p in POINTS]
    cpu_count = os.cpu_count() or 1

    # Scaling arms: identical unique grid, fresh fleets of 1 then 2.
    wall_1w, metrics_1w = _run_fleet(1, runs, reference)
    wall_2w, metrics_2w = _run_fleet(2, runs, reference)
    speedup = wall_1w / wall_2w if wall_2w else 0.0

    # Both shards must actually have served flights in the 2-worker arm.
    forwards = {k: v for k, v in metrics_2w.items()
                if k.startswith("repro_cluster_forwards_total")}
    assert len(forwards) == 2 and all(v > 0 for v in forwards.values()), \
        forwards

    # Dedup arm: duplicated grid, fresh 2-worker fleet.
    dup_runs = runs * DUP_FACTOR
    wall_dup, metrics_dup = _run_fleet(2, dup_runs, reference)
    fleet_sims = int(metrics_dup.get("repro_service_simulations_total", 0))
    dedup_jobs = len(dup_runs)
    coalesced = int(
        metrics_dup.get("repro_cluster_cross_node_coalesced_total", 0))
    cache_hits = int(metrics_dup.get("repro_cluster_cache_hits_total", 0))
    # Every duplicate is answered without a second forward anywhere in
    # the fleet: the workers between them only ever saw the unique grid.
    assert fleet_sims == len(POINTS), (fleet_sims, metrics_dup)
    assert coalesced + cache_hits == dedup_jobs - len(POINTS)
    dedup_factor = dedup_jobs / fleet_sims

    assert dedup_factor > 1.0
    if cpu_count >= GATE_MIN_CPUS:
        assert speedup >= SCALING_GATE, (
            f"2-worker fleet speedup {speedup:.2f}x < {SCALING_GATE}x "
            f"on a {cpu_count}-CPU machine")

    entry = {
        "scale": "test",
        "cpu_count": cpu_count,
        "unique_points": len(POINTS),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_1_worker_s": round(wall_1w, 3),
        "wall_2_workers_s": round(wall_2w, 3),
        "speedup_2_workers": round(speedup, 2),
        "scaling_gate": SCALING_GATE,
        "scaling_gate_armed": cpu_count >= GATE_MIN_CPUS,
        "dedup_jobs": dedup_jobs,
        "dedup_wall_s": round(wall_dup, 3),
        "fleet_simulations": fleet_sims,
        "cross_node_coalesced": coalesced,
        "cluster_cache_hits": cache_hits,
        "dedup_factor": round(dedup_factor, 2),
    }
    history = _load_history()
    history.append(entry)
    del history[:-HISTORY_CAP]
    payload = dict(entry)
    payload["history"] = history
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"\ncluster load: 1w {wall_1w:.2f}s vs 2w {wall_2w:.2f}s "
        f"({speedup:.2f}x, gate {'armed' if entry['scaling_gate_armed'] else 'off'} "
        f"on {cpu_count} cpu(s)); dedup {dedup_jobs} jobs / "
        f"{fleet_sims} simulations = {dedup_factor:.1f}x -> {OUTPUT.name}"
    )
