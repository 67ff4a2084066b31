"""Restart durability: state that must survive a SIGKILL.

One persistence layer, the on-disk :class:`ResultCache`, makes
interrupted work cheap to finish:

* a killed-and-restarted ``repro serve`` with the same ``--cache-dir``
  answers previously completed keys as cache hits without re-simulating;
* a batch invocation killed mid-grid resumes by running it again over
  the same cache: only the points whose results never landed simulate,
  including when the kill interrupts a *lockstep batch* (a finished
  batch stores every member, so a half-done batch is simply absent and
  reruns).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import GridPoint, ParallelRunner
from repro.harness.runner import ExperimentRunner
from repro.service.client import ServiceClient

RUNS = [
    {"workload": "gather", "policy": "none", "scale": "test"},
    {"workload": "gather", "policy": "levioso", "scale": "test"},
]


def _repro_env() -> dict:
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_daemon(cache_dir: Path, log_path: Path) -> tuple:
    """Start ``repro serve --port 0`` and parse the bound URL from its
    startup line (written before the daemon accepts work)."""
    # The daemon keeps its own copy of the log descriptor for stderr, so
    # this handle is closed once the startup line is in.
    with open(log_path, "a") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=log, text=True, env=_repro_env(),
        )
        assert proc.stdout is not None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            log.write(line)
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                return proc, match.group(1)
    proc.kill()
    raise AssertionError(f"daemon never announced its port; see {log_path}")


def _children(pid: int) -> set[int]:
    """PIDs of the live children of every thread of ``pid``."""
    kids: set[int] = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text()
        kids.update(int(tok) for tok in text.split())
    return kids


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_daemon_restart_serves_completed_keys_from_disk(tmp_path):
    cache_dir = tmp_path / "cache"
    proc, url = _spawn_daemon(cache_dir, tmp_path / "serve1.log")
    workers: set[int] = set()
    try:
        client = ServiceClient(url)
        first = client.run_grid(RUNS, timeout=120.0)
        baseline = {
            (j["request"]["workload"], j["request"]["policy"]):
                ResultCache.serialize(r)
            for j, r in first
        }
        assert not any(j["cached"] for j, _ in first)
        workers = _children(proc.pid)
        assert workers, "the daemon simulated without a pool worker"
    finally:
        proc.kill()         # SIGKILL: no drain, no atexit, no flush
    assert proc.wait(timeout=30) == -signal.SIGKILL
    proc.stdout.close()
    # Orphaned pool workers must notice their owner died and exit.
    try:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.1)
        survivors = sorted(pid for pid in workers if _running(pid))
        assert not survivors, f"pool workers outlived the daemon: {survivors}"
    finally:
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)

    proc, url = _spawn_daemon(cache_dir, tmp_path / "serve2.log")
    try:
        client = ServiceClient(url)
        again = client.run_grid(RUNS, timeout=60.0)
        for job, record in again:
            # Served straight from the persistent result cache: the job
            # is answered at submit time, no flight, no simulation.
            assert job["cached"], job
            key = (job["request"]["workload"], job["request"]["policy"])
            assert ResultCache.serialize(record) == baseline[key]
        metrics = client.metrics()
        assert metrics["repro_service_cache_hits_total"] == len(RUNS)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0   # clean drain on the way out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()


# Two workloads x several policies -> two lockstep batches (points
# sharing a workload share a program image).
# gather's batch finishes fast; bsearch's batch runs long enough that a
# kill fired right after gather's cache entries land mid-batch.
RESUME_GRID = [
    ("gather", "none"), ("gather", "levioso"),
    ("bsearch", "none"), ("bsearch", "fence"), ("bsearch", "levioso"),
]

_CHILD_SCRIPT = """
import os
from repro.harness.cache import ResultCache
from repro.harness.parallel import GridPoint, ParallelRunner

cache = ResultCache(os.environ["DRILL_CACHE"])
runner = ParallelRunner(scale="test", jobs=1, cache=cache)
grid = [GridPoint(w, p) for w, p in [
    ("gather", "none"), ("gather", "levioso"),
    ("bsearch", "none"), ("bsearch", "fence"), ("bsearch", "levioso"),
]]
runner.prefetch(grid)
print("GRID DONE", flush=True)
"""


def test_cached_rerun_after_kill_mid_lockstep_batch(tmp_path):
    cache_dir = tmp_path / "cache"
    env = _repro_env()
    env["DRILL_CACHE"] = str(cache_dir)

    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    cache = ResultCache(cache_dir)
    try:
        # Every put is an atomic rename: the instant gather's batch
        # completes, its two entries are readable here — and bsearch's
        # three-point batch is still simulating.  Kill right then.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(cache.entries()) >= 2:
                break
            if proc.poll() is not None:
                raise AssertionError("child finished before the kill — "
                                     "grid too fast for this machine?")
            time.sleep(0.01)
        proc.kill()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)

    assert len(cache.entries()) >= 2, "first lockstep batch never stored"

    keyer = ParallelRunner(scale="test", jobs=1, cache=cache)
    keys = {
        (w, p): keyer.run_key_for(w, p, keyer.config, True)
        for w, p in RESUME_GRID
    }
    missing = [k for k in keys.values() if cache.get(k) is None]
    assert missing, "kill landed after the whole grid completed"

    resumed = ParallelRunner(scale="test", jobs=1, cache=cache)
    resumed.prefetch([GridPoint(w, p) for w, p in RESUME_GRID])
    # The rerun re-simulates exactly the points that never landed: the
    # interrupted batch's members, never the completed batch's.
    assert resumed.simulations == len(missing)

    serial = ExperimentRunner(scale="test")
    for (w, p), key in keys.items():
        assert ResultCache.serialize(resumed.run(w, p)) \
            == ResultCache.serialize(serial.run(w, p))
