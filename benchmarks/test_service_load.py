"""Closed-loop load benchmark for the simulation service.

Drives an in-process ``repro serve`` daemon (:class:`ServiceThread`,
real HTTP over a loopback socket) with several concurrent closed-loop
clients: each thread submits a batch over the same small grid, waits
for every job to resolve, and immediately submits again.  Because all
clients hammer the *same* grid points, the run exercises exactly the
machinery the service exists for — request coalescing, result-store
hits, admission control — under contention, and measures what it
buys: served-jobs throughput vs simulations actually executed.

Numbers land in ``BENCH_service.json`` at the repo root, following the
``BENCH_perf.json`` convention: the latest run's fields stay at the top
level, and every run appends to an append-only ``history`` list so the
file records a trajectory across PRs.

Correctness is asserted, not assumed: every job's record must be
bit-identical to a serial in-process run of the same point.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time

from repro.harness.cache import ResultCache
from repro.harness.runner import ExperimentRunner
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, ServiceThread

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"
HISTORY_CAP = 50

#: The contended grid every client loops over.
POINTS = (
    ("gather", "none"), ("gather", "levioso"),
    ("pchase", "none"), ("pchase", "levioso"),
    ("crc", "levioso"), ("bsearch", "fence"),
)
CLIENTS = 4          # concurrent closed-loop client threads
ROUNDS = 4           # batches each client submits
WORKERS = 2          # service worker processes
QUEUE_DEPTH = 32


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _load_history() -> list[dict]:
    if not OUTPUT.exists():
        return []
    try:
        previous = json.loads(OUTPUT.read_text())
    except (OSError, ValueError):
        return []
    history = previous.get("history")
    return history if isinstance(history, list) else []


def test_service_load():
    serial = ExperimentRunner(scale="test")
    reference = {
        (w, p): ResultCache.serialize(serial.run(w, p))
        for w, p in POINTS
    }

    config = ServiceConfig(port=0, jobs=WORKERS, queue_depth=QUEUE_DEPTH)
    latencies: list[float] = []
    mismatches: list[str] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    with ServiceThread(config) as server:
        base_url = server.base_url

        def closed_loop() -> None:
            client = ServiceClient(base_url)
            runs = [{"workload": w, "policy": p} for w, p in POINTS]
            try:
                for _ in range(ROUNDS):
                    # run_grid retries with the server's Retry-After hint
                    # on 429, so the loop obeys admission control.
                    for job, record in client.run_grid(runs, timeout=300):
                        point = (job["request"]["workload"],
                                 job["request"]["policy"])
                        got = ResultCache.serialize(record)
                        with lock:
                            latencies.append(job["latency"])
                            if got != reference[point]:
                                mismatches.append(f"{point}: {got}")
            except BaseException as exc:  # pragma: no cover - failure mode
                with lock:
                    errors.append(exc)

        started = time.perf_counter()
        threads = [threading.Thread(target=closed_loop)
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started

        metrics = ServiceClient(base_url).metrics()
        drained = server.stop(timeout=120)

    assert not errors, errors[0]
    assert not mismatches, mismatches[:3]
    assert drained, "service failed to drain cleanly after the load run"

    total_jobs = CLIENTS * ROUNDS * len(POINTS)
    assert len(latencies) == total_jobs
    simulations = int(metrics["repro_service_simulations_total"])
    coalesced = int(metrics["repro_service_jobs_coalesced_total"])
    cache_hits = int(metrics["repro_service_cache_hits_total"])
    # The whole point of the serving layer: far fewer simulations than
    # jobs served, with every deduplicated job answered by coalescing or
    # the result store.
    assert simulations >= len(POINTS)
    assert simulations < total_jobs
    assert coalesced > 0 and cache_hits > 0
    assert simulations + coalesced + cache_hits == total_jobs

    latencies.sort()
    entry = {
        "scale": "test",
        "clients": CLIENTS,
        "rounds": ROUNDS,
        "workers": WORKERS,
        "queue_depth": QUEUE_DEPTH,
        "unique_points": len(POINTS),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_seconds": round(elapsed, 3),
        "jobs_served": total_jobs,
        "jobs_per_sec": round(total_jobs / elapsed, 1) if elapsed else 0.0,
        "simulations": simulations,
        "coalesced": coalesced,
        "cache_hits": cache_hits,
        "dedup_factor": round(total_jobs / simulations, 2),
        "rejected_429": int(
            metrics.get("repro_service_jobs_rejected_total", 0)),
        "latency_p50_ms": round(_percentile(latencies, 0.50) * 1000, 1),
        "latency_p99_ms": round(_percentile(latencies, 0.99) * 1000, 1),
    }
    history = _load_history()
    history.append(entry)
    del history[:-HISTORY_CAP]
    payload = dict(entry)
    payload["history"] = history
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"\nservice load: {total_jobs} jobs in {elapsed:.2f}s "
        f"({entry['jobs_per_sec']:.0f} jobs/s), {simulations} simulations "
        f"(dedup {entry['dedup_factor']:.1f}x), "
        f"p50 {entry['latency_p50_ms']:.0f}ms / "
        f"p99 {entry['latency_p99_ms']:.0f}ms -> {OUTPUT.name}"
    )
