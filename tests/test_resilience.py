"""Fault-tolerant execution: supervisor, journal, cache integrity, chaos.

Covers the resilience layer's contracts:

* retry/backoff/timeout policy math is deterministic and bounded;
* injected worker crashes/hangs/kills and cache corruption are survived
  without operator intervention, and the recovered results are
  bit-identical to a clean serial run;
* a run killed mid-grid leaves a journal + cache from which ``--resume``
  re-simulates only the unfinished points (run-count accounting);
* the persistent cache detects and quarantines damaged entries instead
  of crashing or silently serving them.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    CacheCorruptionError,
    HarnessError,
    InjectedFault,
    ReproError,
    SimulationTimeout,
    TimeoutError_,
)
from repro.faults import FAULT_ENV, FaultPlan, FaultSpec, maybe_fault, uninstall
from repro.harness import (
    GridPoint,
    ParallelRunner,
    ResultCache,
    RetryPolicy,
    RunJournal,
    resilience_summary,
    run_experiments,
)
from repro.harness.resilience import (
    HOLE,
    WorkItem,
    execute_supervised,
    failed_run_record,
    scrub_holes,
)

WORKLOADS = ("gather", "pchase")
POLICIES = ("none", "levioso")


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Every test starts and ends without an active fault plan."""
    uninstall()
    yield
    uninstall()


def _points():
    return [GridPoint(w, p) for w in WORKLOADS for p in POLICIES]


def _clean_reference():
    runner = ParallelRunner(scale="test", jobs=1)
    runner.prefetch(_points())
    return {
        (p.workload, p.policy): runner.run(p.workload, p.policy)
        for p in _points()
    }


def _assert_matches_reference(runner, reference):
    for point in _points():
        got = runner.run(point.workload, point.policy)
        want = reference[(point.workload, point.policy)]
        assert (got.cycles, got.committed, got.loads_gated) == (
            want.cycles, want.committed, want.loads_gated,
        ), f"{point.workload}/{point.policy} diverged after fault recovery"


# -------------------------------------------------------------- error names
def test_timeout_rename_keeps_alias():
    assert SimulationTimeout is TimeoutError_
    assert issubclass(SimulationTimeout, ReproError)
    assert issubclass(HarnessError, ReproError)
    assert issubclass(CacheCorruptionError, HarnessError)
    assert issubclass(InjectedFault, ReproError)


# ------------------------------------------------------------- policy math
def test_backoff_grows_and_caps():
    policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.5, jitter=0.0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)
    assert policy.delay(4) == pytest.approx(0.5)  # capped
    assert policy.delay(10) == pytest.approx(0.5)


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=1.0, jitter=0.5)
    for attempt in (1, 2, 3):
        base = 0.1 * 2.0 ** (attempt - 1)
        d1 = policy.delay(attempt, "some-key")
        d2 = policy.delay(attempt, "some-key")
        assert d1 == d2  # pure function of (attempt, key)
        assert base <= d1 <= base * 1.5
    # Different keys decorrelate.
    assert policy.delay(1, "key-a") != policy.delay(1, "key-b")


# ----------------------------------------------------------------- journal
def test_journal_roundtrip_and_torn_line(tmp_path):
    journal = RunJournal(tmp_path / "j.jsonl")
    journal.record("k1", "ok", workload="gather", policy="none")
    journal.record("k2", "retried", attempts=3)
    journal.record("k3", "failed")
    # Simulate a SIGKILL mid-append: a torn, non-JSON final line.
    with open(journal.path, "a") as f:
        f.write('{"key": "k4", "sta')
    assert journal.completed() == {"k1", "k2"}  # failed + torn excluded
    entries = journal.entries()
    assert [e["key"] for e in entries] == ["k1", "k2", "k3"]
    journal.clear()
    assert journal.completed() == set()


# -------------------------------------------------------------- fault plan
def test_fault_plan_env_roundtrip(tmp_path):
    plan = FaultPlan(
        [FaultSpec("worker", "exception", times=2)],
        seed=42, state_dir=tmp_path,
    )
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.seed == 42
    assert clone.specs == plan.specs
    assert clone.state_dir == plan.state_dir


def test_fault_budget_and_once_per_key(tmp_path):
    plan = FaultPlan(
        [FaultSpec("worker", "exception", times=2)],
        state_dir=tmp_path,
    )
    assert plan.check("worker", "key-a") is not None
    assert plan.check("worker", "key-a") is None  # once per key: retry passes
    assert plan.check("cache.get", "key-b") is None  # wrong site
    assert plan.check("worker", "key-b") is not None
    assert plan.check("worker", "key-c") is None  # budget of 2 exhausted
    assert plan.fired() == 2


def test_fault_selection_is_seeded(tmp_path):
    keys = [f"key-{i}" for i in range(64)]

    def selection(seed, subdir):
        plan = FaultPlan(
            [FaultSpec("worker", "exception", times=64, probability=0.3)],
            seed=seed, state_dir=tmp_path / subdir,
        )
        return {k for k in keys if plan.check("worker", k)}

    first = selection(7, "a")
    assert selection(7, "b") == first  # same seed, same selection
    assert 0 < len(first) < len(keys)  # probability actually filters
    assert selection(8, "c") != first  # seed changes the draw


def test_maybe_fault_raises_injected(tmp_path):
    plan = FaultPlan([FaultSpec("worker", "exception")], state_dir=tmp_path)
    plan.install()
    assert os.environ[FAULT_ENV]
    with pytest.raises(InjectedFault):
        maybe_fault("worker", "k")
    assert maybe_fault("worker", "k") is None  # fired once, spent
    uninstall()
    assert maybe_fault("worker", "k2") is None


# --------------------------------------------------------- cache integrity
def test_cache_checksum_detects_damage(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(scale="test", jobs=1, cache=cache)
    runner.run("gather", "none")
    key = runner.run_key_for("gather", "none")
    path = cache._path(key)

    # Damage the record *inside* valid JSON: still parses, checksum trips.
    data = json.loads(path.read_text())
    data["record"]["cycles"] = 1
    path.write_text(json.dumps(data))

    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None  # miss, not a wrong record and not a crash
    assert fresh.stats.corrupt == 1
    assert not path.exists()
    assert len(fresh.quarantined()) == 1  # evidence kept, not deleted


def test_cache_verify_and_repair(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(scale="test", jobs=1, cache=cache)
    runner.run("gather", "none")
    runner.run("gather", "levioso")
    runner.run("pchase", "none")
    paths = cache.entries()
    assert len(paths) == 3
    paths[0].write_text("{truncated")              # not JSON
    data = json.loads(paths[1].read_text())
    data["record"]["committed"] = 0                # checksum mismatch
    paths[1].write_text(json.dumps(data))

    scan = ResultCache(tmp_path).verify()
    assert scan.checked == 3
    assert scan.ok == 1
    assert len(scan.corrupt) == 2
    assert not scan.clean

    fixer = ResultCache(tmp_path)
    counts = fixer.repair()
    assert counts["quarantined"] == 2
    after = ResultCache(tmp_path)
    assert after.verify().clean
    assert len(after.quarantined()) == 2
    # Quarantined files are not served as entries.
    assert len(after.entries()) == 1


def test_cache_stale_salt_detected(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(scale="test", jobs=1, cache=cache)
    runner.run("gather", "none")
    path = cache.entries()[0]
    data = json.loads(path.read_text())
    data["salt"] = "other-version/sim0"
    path.write_text(json.dumps(data))
    scan = ResultCache(tmp_path).verify()
    assert len(scan.stale) == 1
    counts = ResultCache(tmp_path).repair()
    assert counts["purged_stale"] == 1
    assert ResultCache(tmp_path).verify().clean


def test_concurrent_put_same_key_no_tmp_collision(tmp_path):
    """Racing writers of one key must never corrupt the stored entry."""
    runner = ParallelRunner(scale="test", jobs=1)
    record = runner.run("gather", "none").slim()
    key = runner.run_key_for("gather", "none")

    errors = []

    def hammer():
        mine = ResultCache(tmp_path)
        try:
            for _ in range(25):
                mine.put(key, record)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert not list(tmp_path.rglob("*.tmp"))  # no temp litter left behind
    reread = ResultCache(tmp_path)
    got = reread.get(key)
    assert got is not None and got.cycles == record.cycles
    assert reread.stats.corrupt == 0


_CACHE_HAMMER = """
import json, sys
from repro.harness.cache import ResultCache

root, mode, key, record_path, rounds = sys.argv[1:6]
with open(record_path) as fh:
    record = ResultCache.deserialize(json.load(fh))
cache = ResultCache(root)
for _ in range(int(rounds)):
    if mode == "write":
        cache.put(key, record)
    else:
        got = cache.get(key)
        assert got is not None, "reader saw a missing entry mid-write"
        assert got.cycles == record.cycles, "reader saw a torn entry"
assert cache.stats.corrupt == 0
print("ok")
"""


def test_multiprocess_readers_writers_while_verify_runs(tmp_path):
    """Verify must stay clean while other *processes* rewrite and read a key.

    ``put`` is an atomic same-directory replace, so a concurrent
    ``cache verify`` (the operator's integrity scan) and any number of
    cross-process readers must only ever observe complete entries —
    never a torn or missing one.
    """
    runner = ParallelRunner(scale="test", jobs=1)
    record = runner.run("gather", "none").slim()
    key = runner.run_key_for("gather", "none")
    cache = ResultCache(tmp_path)
    cache.put(key, record)
    record_path = tmp_path / "record-fixture.json"
    record_path.write_text(json.dumps(ResultCache.serialize(record)))

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_ENV, None)
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CACHE_HAMMER, str(tmp_path), mode,
             key, str(record_path), "40"],
            env=env, cwd=repo_root,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for mode in ("write", "write", "read", "read")
    ]
    # The integrity scan races the workers from this process the whole time.
    scans = 0
    while any(p.poll() is None for p in procs):
        scan = ResultCache(tmp_path).verify()
        assert not scan.corrupt, f"verify saw a torn entry: {scan.corrupt}"
        scans += 1
    assert scans > 0
    for p in procs:
        out, err = p.communicate(timeout=60)
        assert p.returncode == 0, err
        assert "ok" in out
    # Quiescent state: one clean entry, no temp litter, contents intact.
    record_path.unlink()  # not a cache entry; remove before the final scan
    final = ResultCache(tmp_path)
    scan = final.verify()
    assert scan.clean and scan.checked == 1
    assert not list(tmp_path.rglob("*.tmp"))
    got = final.get(key)
    assert got is not None and got.cycles == record.cycles


# ------------------------------------------------- supervised execution
def test_supervisor_captures_exception_with_traceback():
    def worker(args):
        raise ValueError("boom %s" % args[0])

    items = [WorkItem(key="k", args=("x",), workload="w", policy="p")]
    report = execute_supervised(
        items, worker, jobs=1,
        policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        on_success=lambda item, record: None,
    )
    assert report.counts == {"failed": 1}
    outcome = report.outcomes[0]
    assert outcome.attempts == 2
    assert "ValueError" in outcome.error and "boom x" in outcome.error
    summary = resilience_summary(report)
    assert summary["ok"] is False
    assert summary["counts"] == {"failed": 1}


def test_pool_broken_at_submit_is_a_pool_death(monkeypatch):
    """A pool that broke between attempts fails ``submit`` itself: that is
    a pool death (rebuild, resubmit uncharged), not an error escaping the
    grid."""
    from concurrent.futures import ThreadPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.harness import resilience

    submits = []

    class BreaksOnSecondSubmit(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submits.append(fn)
            if len(submits) == 2:
                raise BrokenProcessPool("a worker died since the last wait")
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(resilience, "process_pool",
                        lambda workers: BreaksOnSecondSubmit(workers))
    items = [WorkItem(key=f"k{i}", args=(i,), workload="w", policy=str(i))
             for i in range(3)]
    results = []
    report = execute_supervised(
        items, lambda args: args[0] * 10, jobs=2,
        policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        on_success=lambda item, record: results.append(record),
    )
    assert sorted(results) == [0, 10, 20]
    assert len(report.outcomes) == 3
    assert {o.status for o in report.outcomes} <= {"ok", "retried"}
    assert report.pool_rebuilds >= 1


def test_worker_crashes_recover_and_match_serial(tmp_path, monkeypatch):
    # Pin the single-point dispatch path: this test counts one recovered
    # outcome per injected crash, which lockstep batching coalesces
    # (batch-level fault recovery is covered in test_lockstep.py).
    monkeypatch.setenv("REPRO_NO_LOCKSTEP", "1")
    reference = _clean_reference()
    FaultPlan(
        [FaultSpec("worker", "exception", times=3)],
        seed=1, state_dir=tmp_path,
    ).install()
    runner = ParallelRunner(
        scale="test", jobs=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
    )
    ran = runner.prefetch(_points())
    assert ran == len(_points())
    report = runner.report
    assert report.ok
    assert len(report.recovered) == 3  # every injected crash was retried
    assert all(o.attempts >= 2 for o in report.recovered)
    uninstall()
    _assert_matches_reference(runner, reference)


def test_worker_kill_breaks_pool_then_recovers(tmp_path):
    reference = _clean_reference()
    FaultPlan(
        [FaultSpec("worker", "kill", times=1)],
        state_dir=tmp_path,
    ).install()
    runner = ParallelRunner(
        scale="test", jobs=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
    )
    runner.prefetch(_points())
    assert runner.report.ok
    assert runner.report.pool_rebuilds >= 1
    uninstall()
    _assert_matches_reference(runner, reference)


def test_pool_death_budget_degrades_to_serial(tmp_path):
    reference = _clean_reference()
    FaultPlan(
        [FaultSpec("worker", "kill", times=1)],
        state_dir=tmp_path,
    ).install()
    runner = ParallelRunner(
        scale="test", jobs=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                                 max_pool_rebuilds=0),
    )
    runner.prefetch(_points())
    assert runner.report.degraded_to_serial
    assert runner.report.ok  # the grid still completed, in-process
    uninstall()
    _assert_matches_reference(runner, reference)


def test_worker_hang_times_out_and_recovers(tmp_path):
    reference = _clean_reference()
    FaultPlan(
        [FaultSpec("worker", "hang", times=1, hang_seconds=20.0)],
        state_dir=tmp_path,
    ).install()
    runner = ParallelRunner(
        scale="test", jobs=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01, timeout=1.5),
    )
    runner.prefetch(_points())
    assert runner.report.ok
    assert runner.report.pool_rebuilds >= 1  # hung worker was abandoned
    uninstall()
    _assert_matches_reference(runner, reference)



_HANG_DRIVER = """
import sys
from repro.faults import FaultPlan, FaultSpec
from repro.harness import GridPoint, ParallelRunner, RetryPolicy

FaultPlan([FaultSpec("worker", "hang", hang_seconds=60.0)],
          state_dir=sys.argv[1]).install()
runner = ParallelRunner(
    scale="test", jobs=2,
    retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01, timeout=1.5),
)
runner.prefetch([GridPoint("gather", "none"), GridPoint("gather", "levioso")])
assert runner.report.ok and runner.report.pool_rebuilds >= 1, runner.report
print("grid done")
"""


def test_abandoned_hung_worker_does_not_pin_exit(tmp_path):
    # A worker hung far past its deadline is abandoned mid-grid; the
    # process must then exit as soon as the grid is done, not when the
    # hang would have ended (the interpreter's exit hook joins live pool
    # workers).
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_ENV, None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _HANG_DRIVER, str(tmp_path)],
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, text=True, timeout=40,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert "grid done" in proc.stdout
    assert elapsed < 20.0, f"exit pinned for {elapsed:.1f}s by the hung worker"

def test_corrupt_cache_write_quarantined_on_reread(tmp_path):
    reference = _clean_reference()
    FaultPlan(
        [FaultSpec("cache.put", "corrupt", times=1)],
        state_dir=tmp_path / "faults",
    ).install()
    cold = ParallelRunner(scale="test", jobs=1,
                          cache=ResultCache(tmp_path / "cache"))
    cold.prefetch(_points())
    uninstall()

    warm_cache = ResultCache(tmp_path / "cache")
    warm = ParallelRunner(scale="test", jobs=1, cache=warm_cache)
    warm.prefetch(_points())
    assert warm_cache.stats.corrupt == 1       # the poisoned entry tripped
    assert len(warm_cache.quarantined()) == 1  # ... and was quarantined
    assert warm.simulations == 1               # only that point re-simulated
    _assert_matches_reference(warm, reference)
    # After re-simulation the cache is fully healthy again.
    assert ResultCache(tmp_path / "cache").verify().clean


def test_failed_grid_raises_summary_without_keep_going(tmp_path):
    FaultPlan(
        [FaultSpec("worker", "exception", times=99, persistent=True)],
        state_dir=tmp_path,
    ).install()
    runner = ParallelRunner(
        scale="test", jobs=1,
        retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
    )
    with pytest.raises(HarnessError, match="failed permanently"):
        runner.prefetch(_points())
    # The whole grid was still attempted — not aborted at the first error —
    # and every point (batches expand to their members) is accounted failed.
    assert len(runner.failed_points) == len(_points())


def test_keep_going_renders_holes(tmp_path):
    from repro.harness.experiments import fig2

    runner = ParallelRunner(scale="test", jobs=1, keep_going=True)
    bad_key = runner.run_key_for("pchase", "levioso")
    FaultPlan(
        [FaultSpec("worker", "exception", match=bad_key, times=99,
                   persistent=True)],
        state_dir=tmp_path,
    ).install()
    runner.retry_policy = RetryPolicy(max_attempts=2, base_delay=0.0)
    runner.prefetch([GridPoint(w, p) for w in WORKLOADS
                     for p in ("none", "levioso")])
    assert [o.status for o in runner.report.failed] == ["failed"]
    uninstall()

    result = fig2.run(runner=runner, workloads=WORKLOADS,
                      policies=("levioso",))
    holes = scrub_holes(result.rows)
    assert holes >= 1
    by_name = {row[0]: row for row in result.rows}
    assert by_name["pchase"][1] == HOLE       # the failed cell is a hole
    assert isinstance(by_name["gather"][1], (int, float))  # others intact
    assert by_name["geomean"][1] == HOLE      # aggregates over holes too
    assert HOLE in result.text()


def test_failed_run_record_is_all_nan():
    record = failed_run_record("w", "p")
    assert math.isnan(record.cycles)
    assert math.isnan(record.core_stats.committed)
    assert math.isnan(record.mem_stats["anything"])
    assert math.isnan(record.mem_stats.get("other"))


# --------------------------------------------------------- resume support
_KILL_DRIVER = """
import sys
from repro.faults import FaultPlan, FaultSpec
from repro.harness import GridPoint, ParallelRunner, ResultCache, RunJournal

cache_dir, journal_path, fault_dir = sys.argv[1:4]
points = [GridPoint(w, p) for w in ("gather", "pchase")
          for p in ("none", "levioso")]
runner = ParallelRunner(
    scale="test", jobs=1,
    cache=ResultCache(cache_dir), journal=RunJournal(journal_path),
)
# Aim the kill at the THIRD point's key: with jobs=1 the fault SIGKILLs
# this whole process mid-grid, exactly like an operator ^9.
kill_key = runner.run_key_for(points[2].workload, points[2].policy)
FaultPlan(
    [FaultSpec("worker", "kill", match=kill_key)], state_dir=fault_dir
).install()
runner.prefetch(points)
print("unreachable")
"""


def test_resume_after_sigkill_runs_only_unfinished_points(tmp_path):
    cache_dir = tmp_path / "cache"
    journal_path = tmp_path / "journal.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_DRIVER,
         str(cache_dir), str(journal_path), str(tmp_path / "faults")],
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL  # died mid-grid, no cleanup
    assert "unreachable" not in proc.stdout

    journal = RunJournal(journal_path)
    done_before = journal.completed()
    assert len(done_before) == 2  # exactly the points that finished

    resumed = ParallelRunner(
        scale="test", jobs=1, cache=ResultCache(cache_dir),
        journal=journal, resume=True,
    )
    points = [GridPoint(w, p) for w in WORKLOADS for p in POLICIES]
    ran = resumed.prefetch(points)
    assert ran == len(points) - 2       # only the unfinished points
    assert resumed.simulations == len(points) - 2
    assert journal.completed() >= {  # manifest now covers the whole grid
        resumed.run_key_for(p.workload, p.policy) for p in points
    }
    reference = _clean_reference()
    _assert_matches_reference(resumed, reference)


def test_run_experiments_resume_requires_cache():
    with pytest.raises(HarnessError, match="resume"):
        run_experiments(["fig1"], scale="test", resume=True)


# ------------------------------------------------------------- e2e + CLI
def test_chaos_grid_bit_identical_to_clean_run(tmp_path):
    """Acceptance: >=3 crashes + 1 hang + 1 corrupted entry, no operator."""
    reference = _clean_reference()
    FaultPlan(
        [
            FaultSpec("worker", "exception", times=3),
            FaultSpec("worker", "hang", times=1, hang_seconds=15.0),
            FaultSpec("cache.put", "corrupt", times=1),
        ],
        seed=3, state_dir=tmp_path / "faults",
    ).install()
    cache_dir = tmp_path / "cache"
    chaotic = ParallelRunner(
        scale="test", jobs=2, cache=ResultCache(cache_dir),
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.01, timeout=1.5),
    )
    chaotic.prefetch(_points())
    assert chaotic.report.ok
    # Every injected worker fault forced a retry attempt somewhere; with
    # lockstep batching the four points travel as two batch outcomes, so
    # count recovery *attempts*, not recovered outcomes.
    assert sum(o.attempts - 1 for o in chaotic.report.recovered) >= 3
    uninstall()
    _assert_matches_reference(chaotic, reference)

    # Warm regeneration over the (partly poisoned) cache also converges.
    warm = ParallelRunner(scale="test", jobs=1,
                          cache=ResultCache(cache_dir))
    warm.prefetch(_points())
    _assert_matches_reference(warm, reference)
    assert ResultCache(cache_dir).verify().clean


def test_cli_cache_verify_and_repair(tmp_path, capsys):
    from repro.cli import main

    cache = ResultCache(tmp_path)
    runner = ParallelRunner(scale="test", jobs=1, cache=cache)
    runner.run("gather", "none")
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
    cache.entries()[0].write_text("{broken")
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
    assert main(["cache", "repair", "--cache-dir", str(tmp_path)]) == 0
    assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert '"clean": true' in out


def test_cli_experiment_fault_plan_keep_going(tmp_path, capsys):
    from repro.cli import main

    plan = FaultPlan(
        [FaultSpec("worker", "exception", times=2)],
        seed=5, state_dir=tmp_path / "faults",
    )
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json())
    code = main([
        "experiment", "fig1", "--scale", "test", "--keep-going",
        "--retries", "3", "--fault-plan", f"@{plan_file}",
    ])
    uninstall()
    assert code == 0  # both injected crashes were retried to success
    out = capsys.readouterr().out
    assert "resilience:" in out
    assert "retried" in out
