"""Cluster chaos drill: kill and partition workers mid-campaign.

``repro chaos --cluster`` is the fleet-level analog of the batch and
service drills: with a *seeded* fault plan installed, a real coordinator
routes a duplicated grid across real worker subprocesses while

* one worker is SIGKILLed by a ``node_kill`` fault as it admits its
  first flight (deterministically mid-campaign — the fault key is
  ``"{node_id}/job{n}"``), and
* another worker is partitioned by a ``heartbeat_loss`` fault on its
  first flight — its membership loop goes silent long enough to be
  declared dead while the process keeps running (orphaned jobs keep
  simulating; wasted, never wrong).

The fleet walks the whole degradation ladder — failover to the
surviving shard, then (both nodes unroutable) in-process serial
fallback at the coordinator — and the drill passes iff **every**
submitted job completes with results bit-identical to a clean serial
in-process run, the killed worker really died by SIGKILL, the
partitioned worker still drains cleanly on SIGTERM, and the coordinator
drains clean.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from ..faults import FaultPlan, FaultSpec, uninstall
from ..harness.resilience import serial_reference
from ..service.client import ServiceClient
from .coordinator import CoordinatorConfig, CoordinatorThread

#: Drill cadence: fast heartbeats so death detection fits in seconds.
HEARTBEAT = 0.5
NODE_TIMEOUT = 2.0


def cluster_chaos_plan(seed: int = 0,
                       state_dir: str | Path | None = None) -> FaultPlan:
    """Partition w2 and SIGKILL w1, each as it admits its first flight.

    Both faults are keyed on admitted work, so they land inside the
    campaign however fast the simulator is: w1 dies with a forward in
    flight (a failover is certain), and w2 goes silent while it holds
    work.  The partition outlives the campaign (``hang_seconds``) so the
    fleet really shrinks to zero and the local-fallback path runs.
    """
    return FaultPlan(
        seed=seed,
        state_dir=state_dir,
        specs=[
            FaultSpec(site="node", kind="heartbeat_loss", match="w2/job1",
                      times=1, hang_seconds=8.0),
            FaultSpec(site="node", kind="node_kill", match="w1/job1",
                      times=1),
        ],
    )


def _spawn_worker(node_id: str, coordinator_url: str, log_path: Path,
                  cache_dir: Path) -> subprocess.Popen:
    """Start a real ``repro serve`` worker subprocess joined to the
    coordinator; inherits $REPRO_FAULTS so node faults fire in it."""
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:   # the child keeps its own copy
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", "1", "--retries", "3",
                "--cache-dir", str(cache_dir / node_id),
                "--register", coordinator_url,
                "--node-id", node_id,
                "--heartbeat-interval", str(HEARTBEAT),
            ],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )


def cluster_chaos_smoke(
    seed: int = 0,
    scale: str = "test",
    workloads: tuple[str, ...] = ("gather", "pchase", "bsearch"),
    policies: tuple[str, ...] = ("none", "fence", "levioso"),
    log: Callable[[str], None] | None = print,
) -> bool:
    """Seeded fleet fault drill; True iff recovery was bit-identical."""

    def say(message: str) -> None:
        if log is not None:
            log(message)

    pairs = [(w, p) for w in workloads for p in policies]

    matches = serial_reference(pairs, scale, say)

    work_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-chaos-"))
    plan = cluster_chaos_plan(seed, state_dir=work_dir / "faults").install()
    workers: dict[str, subprocess.Popen] = {}
    ok = True
    try:
        config = CoordinatorConfig(
            port=0, heartbeat_interval=HEARTBEAT, node_timeout=NODE_TIMEOUT,
            max_flights=max(len(pairs) * 2, 16), drain_timeout=120.0)
        with CoordinatorThread(config) as coord:
            client = ServiceClient(coord.base_url)
            for node_id in ("w1", "w2"):
                workers[node_id] = _spawn_worker(
                    node_id, coord.base_url, work_dir / f"{node_id}.log",
                    work_dir / "caches")
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.healthz()["nodes"]["alive"] >= 2:
                    break
                time.sleep(0.1)
            else:
                say("FLEET NEVER FORMED: workers did not register in 30s")
                return False
            say(f"fleet formed: 2 workers registered at {coord.base_url}")

            runs = [
                {"workload": w, "policy": p, "scale": scale}
                for w, p in pairs
            ] * 2  # duplicates: cluster-wide coalescing under fire too
            results = client.run_grid(runs, timeout=240.0)
            say(f"cluster resolved {len(results)} job(s) under chaos; "
                f"faults fired: {plan.fired()}")
            for job, record in results:
                ok &= matches(job["request"]["workload"],
                              job["request"]["policy"], record, "cluster")

            metrics = client.metrics()
            failovers = metrics.get("repro_cluster_failovers_total", 0.0)
            coalesced = metrics.get(
                "repro_cluster_cross_node_coalesced_total", 0.0)
            say(f"failovers: {failovers:g}, cross-node coalesced: "
                f"{coalesced:g}, nodes alive: "
                f"{metrics.get('repro_cluster_nodes_alive', 0):g}")
            if failovers < 1:
                say("NO FAILOVER: the node kill never rerouted a flight "
                    "(campaign may have finished before the fault)")
                ok = False
            if coalesced < 1:
                say("NO CLUSTER COALESCING observed for duplicates")
                ok = False
            if plan.fired() < 2:
                say(f"FAULTS DID NOT ALL FIRE: {plan.fired()}/2")
                ok = False

            # The killed worker must be SIGKILL-dead; the partitioned
            # one must still drain clean on SIGTERM (exit 0).
            killed = workers["w1"].wait(timeout=30)
            if killed != -signal.SIGKILL:
                say(f"w1 exit {killed}, expected -SIGKILL")
                ok = False
            workers["w2"].send_signal(signal.SIGTERM)
            survivor = workers["w2"].wait(timeout=60)
            if survivor != 0:
                say(f"SURVIVOR DRAIN FAILED: w2 exit {survivor}")
                ok = False
            drained = coord.stop()
        if not drained:
            say("COORDINATOR DRAIN FAILED: flights left unresolved")
            ok = False
        say("cluster chaos: " + (
            "PASS — fleet-served results bit-identical to the clean "
            "serial run through a node kill and a partition" if ok
            else "FAIL"))
        if not ok:
            for node_id in ("w1", "w2"):
                log_path = work_dir / f"{node_id}.log"
                if log_path.exists():
                    say(f"--- {node_id} log ---\n{log_path.read_text()}")
        return ok
    finally:
        uninstall()
        for proc in workers.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        import shutil

        shutil.rmtree(work_dir, ignore_errors=True)
