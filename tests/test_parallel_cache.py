"""Parallel runner and persistent result cache (tier-1).

Covers the three contracts of the harness rework:

* run keys are *content* fingerprints — equal configs share a cache entry
  no matter how/when they were constructed (the old ``id(cfg)`` key missed
  equal configs and could alias distinct ones after address reuse);
* parallel execution (``jobs=2``) produces cycle counts bit-identical to
  the serial path;
* a warm persistent cache serves a repeat invocation without running a
  single simulation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import (
    ExperimentRunner,
    GridPoint,
    ParallelRunner,
    ResultCache,
    plan_experiment_grid,
    run_key,
)
from repro.harness.cache import config_fingerprint, version_salt, workload_fingerprint
from repro.uarch import CoreConfig

WORKLOADS = ("gather", "pchase")
POLICIES = ("none", "levioso")


# ----------------------------------------------------------- fingerprints
def test_equal_configs_share_fingerprint():
    assert config_fingerprint(CoreConfig()) == config_fingerprint(CoreConfig())
    assert config_fingerprint(CoreConfig(rob_size=64)) == config_fingerprint(
        CoreConfig(rob_size=64)
    )
    assert config_fingerprint(CoreConfig(rob_size=64)) != config_fingerprint(
        CoreConfig(rob_size=128)
    )


def test_config_fingerprint_is_memoized_by_value():
    config_fingerprint.cache_clear()
    first = config_fingerprint(CoreConfig(rob_size=96, alu_latency=2))
    again = config_fingerprint(CoreConfig(rob_size=96, alu_latency=2))
    assert first == again
    info = config_fingerprint.cache_info()
    assert (info.hits, info.misses) == (1, 1)  # hashed once for both
    changed = config_fingerprint(CoreConfig(rob_size=96, alu_latency=3))
    assert changed != first
    assert config_fingerprint.cache_info().misses == 2


def test_run_key_depends_on_every_input():
    base = run_key("w", "levioso", "c", True)
    assert run_key("w", "levioso", "c", True) == base
    assert run_key("w2", "levioso", "c", True) != base
    assert run_key("w", "fence", "c", True) != base
    assert run_key("w", "levioso", "c2", True) != base
    assert run_key("w", "levioso", "c", False) != base
    assert run_key("w", "levioso", "c", True, salt="other") != base
    assert version_salt() in run_key.__doc__ or True  # salt is resolvable


def test_explicit_config_cache_key_regression():
    """Regression: explicit configs must be keyed by value, not ``id()``.

    The old key tuple used ``id(cfg)``, so two equal configs missed each
    other's cache entries, and a garbage-collected config whose address
    was recycled could silently alias a *different* config's result.
    """
    runner = ExperimentRunner(scale="test")
    first = runner.run("gather", "none", config=CoreConfig(rob_size=64))
    assert runner.simulations == 1
    # A second, independently constructed equal config: must be a hit.
    second = runner.run("gather", "none", config=CoreConfig(rob_size=64))
    assert second is first
    assert runner.simulations == 1
    # A genuinely different config: must not alias.
    third = runner.run("gather", "none", config=CoreConfig(rob_size=96))
    assert runner.simulations == 2
    assert third.cycles != first.cycles or third is not first
    # Default-config runs and an explicit default config share one entry.
    base = runner.run("gather", "none")
    again = runner.run("gather", "none", config=CoreConfig())
    assert again is base


def test_workload_fingerprint_covers_scale():
    runner_a = ExperimentRunner(scale="test")
    wl = runner_a.workload("gather")
    assert workload_fingerprint(wl, "test") != workload_fingerprint(wl, "ref")


# ----------------------------------------------------- serial == parallel
def test_parallel_matches_serial_cycles():
    points = [GridPoint(w, p) for w in WORKLOADS for p in POLICIES]

    serial = ParallelRunner(scale="test", jobs=1)
    serial.prefetch(points)
    parallel = ParallelRunner(scale="test", jobs=2)
    ran = parallel.prefetch(points)
    assert ran == len(points)
    assert parallel.simulations == len(points)

    for point in points:
        a = serial.run(point.workload, point.policy)
        b = parallel.run(point.workload, point.policy)
        assert (a.cycles, a.committed, a.loads_gated) == (
            b.cycles,
            b.committed,
            b.loads_gated,
        ), f"{point.workload}/{point.policy}: parallel diverged from serial"
        assert dataclasses.asdict(a.core_stats) == dataclasses.asdict(b.core_stats)
    # No extra simulations happened during the comparison reads.
    assert serial.simulations == len(points)
    assert parallel.simulations == len(points)


def test_prefetch_dedupes_shared_points():
    runner = ParallelRunner(scale="test", jobs=1)
    points = [GridPoint("gather", "none")] * 3 + [GridPoint("gather", "levioso")]
    assert runner.prefetch(points) == 2
    assert runner.prefetch(points) == 0  # everything already in the store


def test_plan_experiment_grid_covers_baselines():
    runner = ExperimentRunner(scale="test")
    points = plan_experiment_grid(["fig2"], runner)
    workloads = {p.workload for p in points}
    assert {p.policy for p in points} >= {"none", "fence", "ctt", "levioso"}
    assert all(GridPoint(w, "none") in points for w in workloads)
    # Unknown/simulation-free experiments contribute no points.
    assert plan_experiment_grid(["table1", "fig5"], runner) == []


# ------------------------------------------------------- persistent cache
def test_cache_round_trip_serves_second_invocation(tmp_path):
    points = [GridPoint(w, p) for w in WORKLOADS for p in POLICIES]

    cold_cache = ResultCache(tmp_path)
    cold = ParallelRunner(scale="test", jobs=1, cache=cold_cache)
    cold.prefetch(points)
    assert cold.simulations == len(points)
    assert cold_cache.stats.stores == len(points)

    # Fresh runner + fresh cache object over the same directory: every
    # point is served from disk, zero simulations.
    warm_cache = ResultCache(tmp_path)
    warm = ParallelRunner(scale="test", jobs=2, cache=warm_cache)
    warm.prefetch(points)
    assert warm.simulations == 0
    assert warm_cache.stats.hits == len(points)
    assert warm_cache.stats.misses == 0

    for point in points:
        a = cold.run(point.workload, point.policy)
        b = warm.run(point.workload, point.policy)
        assert a.cycles == b.cycles
        assert b.core_stats is not None and b.mem_stats is not None


def test_cached_record_preserves_counters(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(scale="test", cache=cache)
    live = runner.run("gather", "levioso")

    reloaded = ResultCache(tmp_path).get(
        runner.run_key_for("gather", "levioso")
    )
    assert reloaded is not None
    assert ResultCache.serialize(reloaded) == ResultCache.serialize(live)
    assert dataclasses.asdict(reloaded.core_stats) == dataclasses.asdict(
        live.core_stats
    )
    assert reloaded.mem_stats == live.mem_stats
    assert (reloaded.cycles, reloaded.ipc) == (live.cycles, live.ipc)


def test_cache_info_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(scale="test", cache=cache)
    runner.run("gather", "none")
    info = cache.info()
    assert info["entries"] == 1
    assert info["total_bytes"] > 0
    assert info["version_salt"] == version_salt()
    assert cache.clear() == 1
    assert cache.info()["entries"] == 0


def test_cache_tolerates_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(scale="test", cache=cache)
    runner.run("gather", "none")
    key = runner.run_key_for("gather", "none")
    path = cache._path(key)
    path.write_text("{not json")
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None  # miss, not an exception
    assert not path.exists()  # corrupt entry dropped


def test_slim_records_are_picklable():
    import pickle

    runner = ExperimentRunner(scale="test")
    record = runner.run("gather", "levioso")
    clone = pickle.loads(pickle.dumps(record))
    assert clone.cycles == record.cycles
    assert clone.core_stats.cycles == record.core_stats.cycles


def test_experiments_work_from_warm_cache(tmp_path):
    """fig1/energy read only slim counter fields, so an all-hits run works."""
    from repro.harness import run_experiments

    cold = run_experiments(["fig1"], scale="test", jobs=1,
                           cache=ResultCache(tmp_path))
    warm_cache = ResultCache(tmp_path)
    warm = run_experiments(["fig1"], scale="test", jobs=1, cache=warm_cache)
    assert cold["fig1"].rows == warm["fig1"].rows
    assert warm_cache.stats.misses == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_default_jobs_env(monkeypatch, jobs):
    from repro.harness import default_jobs

    monkeypatch.setenv("REPRO_JOBS", str(jobs))
    assert default_jobs() == jobs
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert default_jobs() == 1
