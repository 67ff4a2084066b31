"""End-to-end chaos drill through the HTTP service path.

PR 3's ``repro chaos`` proves the *batch* harness recovers from worker
kills and cache corruption; this module asserts the same guarantees
hold end-to-end through the serving layer: with a seeded fault plan
active, jobs submitted over HTTP — including duplicates, so coalescing
is exercised under fire — must all complete, results must be
bit-identical to a clean serial run, and the surviving persistent cache
must pass a full integrity scan.

The fault plan travels through ``$REPRO_FAULTS``, which the service's
pool workers inherit exactly like the batch harness's workers do, so a
``worker``-site kill fires inside a service worker process and a
``cache.put``-site corruption garbles a service-written cache entry.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable

from ..faults import FaultPlan, FaultSpec, uninstall
from ..harness.cache import ResultCache
from ..harness.resilience import serial_reference
from .client import ServiceClient
from .daemon import ServiceConfig, ServiceThread
from .jobs import RunKeyer, RunRequest


def service_chaos_plan(seed: int = 0) -> FaultPlan:
    """Worker kill + crash + cache corruption aimed at the service path."""
    return FaultPlan(
        seed=seed,
        specs=[
            FaultSpec(site="worker", kind="exception", times=2),
            FaultSpec(site="worker", kind="kill", times=1),
            FaultSpec(site="cache.put", kind="corrupt", times=1),
            FaultSpec(site="cache.get", kind="io_error", times=1),
        ],
    )


def service_chaos_smoke(
    seed: int = 0,
    scale: str = "test",
    jobs: int = 2,
    workloads: tuple[str, ...] = ("gather", "pchase"),
    policies: tuple[str, ...] = ("none", "levioso"),
    cache_dir: str | Path | None = None,
    log: Callable[[str], None] | None = print,
) -> bool:
    """Seeded service-path fault drill; True iff recovery was bit-identical.

    Sequence: compute the clean serial reference in-process, install the
    fault plan, start a real daemon (ephemeral port, persistent cache),
    submit every grid point **twice** over HTTP while faults fire, wait,
    and verify every returned record — coalesced or not — equals the
    reference, the daemon drains clean, and the cache verifies clean.
    """

    def say(message: str) -> None:
        if log is not None:
            log(message)

    pairs = [(w, p) for w in workloads for p in policies]

    matches = serial_reference(pairs, scale, say)

    own_dir = cache_dir is None
    cache_dir = Path(cache_dir) if cache_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-service-chaos-"))
    plan = service_chaos_plan(seed).install()
    ok = True
    try:
        config = ServiceConfig(
            port=0, jobs=jobs, queue_depth=max(len(pairs) * 2, 8),
            retries=4, timeout=5.0, cache_dir=str(cache_dir), use_cache=True,
        )
        with ServiceThread(config) as server:
            client = ServiceClient(server.base_url)
            runs = [
                {"workload": w, "policy": p, "scale": scale}
                for w, p in pairs
            ] * 2  # duplicates: coalescing must survive the chaos too
            results = client.run_grid(runs, timeout=120.0)
            say(f"service resolved {len(results)} job(s) under chaos; "
                f"faults fired: {plan.fired()}")
            for job, record in results:
                ok &= matches(job["request"]["workload"],
                              job["request"]["policy"], record, "service")
            metrics = client.metrics()
            coalesced = metrics.get(
                "repro_service_jobs_coalesced_total", 0.0)
            hits = metrics.get("repro_service_cache_hits_total", 0.0)
            if coalesced + hits <= 0:
                say("MISSING dedup: neither coalescing nor cache hits "
                    "observed for duplicate submissions")
                ok = False
            drained = server.stop()
        if not drained:
            say("DRAIN FAILED: accepted jobs left unresolved at shutdown")
            ok = False
        # Corrupt entries only quarantine when re-read (duplicates were
        # served from the in-memory store): warm re-read every key the
        # drill touched, then the surviving store must scan clean.
        uninstall()
        warm = ResultCache(cache_dir)
        keyer = RunKeyer()
        for w, p in pairs:
            warm.get(keyer.key_for(RunRequest(workload=w, policy=p,
                                              scale=scale)))
        if warm.stats.quarantined:
            say(f"quarantined {warm.stats.quarantined} corrupt cache "
                f"entr(ies) on warm re-read")
        verify = ResultCache(cache_dir).verify()
        if verify.corrupt:
            say(f"cache verify after drill: {verify.as_dict()}")
            ok = False
        say("service chaos: " + (
            "PASS — HTTP-served results bit-identical to the clean serial "
            "run" if ok else "FAIL"))
        return ok
    finally:
        uninstall()
        if own_dir:
            import shutil

            shutil.rmtree(cache_dir, ignore_errors=True)
