"""Batch simulation: never-diverge property + batch plumbing.

A batch runs N independent cores one after another in one process,
sharing the assembled program and its decoded image; the contract is
that batching is *invisible* in the results — every member's record is
bit-identical to running that point alone — for any batch size and
composition.  Also covers the planner's grouping (a lone point is a
batch of one), mid-batch timeout attribution, and batch-level fault
recovery (the batched twin of the per-point recovery tests in
``test_resilience.py``).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationTimeout
from repro.faults import FaultPlan, FaultSpec, uninstall
from repro.harness import (
    ExperimentRunner,
    GridPoint,
    ParallelRunner,
    ResultCache,
    RetryPolicy,
    RunRecord,
)
from repro.harness.lockstep import LOCKSTEP_MAX, simulate_batch
from repro.secure import make_policy
from repro.uarch import CoreConfig, OooCore
from repro.workloads import build_workload

WORKLOADS = ("gather", "pchase")
POLICIES = ("none", "levioso", "fence")


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    uninstall()
    yield
    uninstall()


#: Memoized single-point reference records, keyed (workload, policy) —
#: every hypothesis example reuses them, so the property's cost is the
#: batched arm only.
_REF: dict = {}


def _single(workload: str, policy: str):
    record = _REF.get((workload, policy))
    if record is None:
        program = build_workload(workload, "test").assemble()
        result = OooCore(program, policy=make_policy(policy)).run()
        record = RunRecord.from_result(workload, policy, result)
        _REF[workload, policy] = record
    return record


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    composition=st.lists(
        st.tuples(st.sampled_from(WORKLOADS), st.sampled_from(POLICIES)),
        min_size=1,
        max_size=5,
    )
)
def test_lockstep_never_diverges(composition):
    """Property: a batch of random size and composition (duplicates and
    mixed workloads included) returns records bit-identical to running
    each member alone, so no state the members share (the decoded image,
    the build cache) carries over from one member's run into the next."""
    keys = tuple(
        f"m{i}:{w}/{p}" for i, (w, p) in enumerate(composition)
    )
    points = tuple(GridPoint(w, p) for w, p in composition)
    records = simulate_batch(("test", points, None, keys))
    assert set(records) == set(keys)
    for key, (workload, policy) in zip(keys, composition):
        assert records[key] == _single(workload, policy), key


def test_timeout_mid_batch_names_the_guilty_point():
    """A member that hits its cycle limit mid-batch raises with the
    member's run key in ``SimulationTimeout.point``."""
    tiny = dataclasses.replace(CoreConfig(), max_cycles=300)
    keys = ("innocent", "guilty")
    points = (
        GridPoint("gather", "none"),
        GridPoint("gather", "none", config=tiny),
    )
    with pytest.raises(SimulationTimeout) as exc_info:
        simulate_batch(("test", points, None, keys))
    assert exc_info.value.point == "guilty"
    assert exc_info.value.limit == 300


def test_planner_groups_by_workload_and_chunks():
    runner = ParallelRunner(scale="test", jobs=2)
    todo = [
        (f"k{i}:{w}/{p}", GridPoint(w, p))
        for w in WORKLOADS
        for i, p in enumerate(POLICIES)
    ]
    items, batch_members = runner._plan_work(todo)
    # Two workloads x three policies -> one batch per workload.
    assert len(items) == 2
    assert all(item.key.startswith("batch:") for item in items)
    for item in items:
        scale, points, config, keys = item.args
        members = batch_members[item.key]
        assert keys == tuple(k for k, _ in members)
        assert all(p.workload == item.workload for _, p in members)
    # Oversized groups are chunked at LOCKSTEP_MAX; the remainder is a
    # batch of one under its own key.
    big = [
        (f"b{i}", GridPoint("gather", "none"))
        for i in range(LOCKSTEP_MAX + 1)
    ]
    items, batch_members = runner._plan_work(big)
    sizes = sorted(len(batch_members[item.key]) for item in items)
    assert sizes == [1, LOCKSTEP_MAX]
    assert items[-1].key == f"b{LOCKSTEP_MAX}"


def test_lone_point_is_a_batch_of_one():
    """A lone grid point is one work item under its run key, labelled with
    its workload and policy, and its worker's record is byte-identical to
    the in-process runner's."""
    runner = ParallelRunner(scale="test", jobs=2)
    point = GridPoint("pchase", "fence")
    key = runner.run_key_for(point.workload, point.policy)
    (item,), members = runner._plan_work([(key, point)])
    assert (item.key, item.workload, item.policy) == (key, "pchase", "fence")
    assert item.args == ("test", (point,), runner.config, (key,))
    assert members == {key: [(key, point)]}
    records = simulate_batch(item.args)
    assert set(records) == {key} and not records.copied
    serial = ExperimentRunner(scale="test").run("pchase", "fence")
    assert (ResultCache.serialize(records[key])
            == ResultCache.serialize(serial))


def test_prefetch_with_batching_matches_unbatched():
    points = [GridPoint(w, p) for w in WORKLOADS for p in POLICIES]

    plain = ParallelRunner(scale="test", jobs=2)
    for point in points:  # one batch of one per point
        assert plain.prefetch([point]) == 1

    batched = ParallelRunner(scale="test", jobs=2)
    assert batched.prefetch(points) == len(points)

    for point in points:
        a = plain.run(point.workload, point.policy)
        b = batched.run(point.workload, point.policy)
        assert a.cycles == b.cycles, (point.workload, point.policy)
        assert a.core_stats == b.core_stats
        assert a.mem_stats == b.mem_stats


def test_batch_fault_recovery_bit_identical(tmp_path):
    """An injected worker fault fails the whole batch; the supervisor
    retries it as a unit and the recovered grid matches a clean run."""
    points = [GridPoint(w, p) for w in WORKLOADS for p in POLICIES]
    clean = ParallelRunner(scale="test", jobs=1)
    clean.prefetch(points)
    reference = {
        (p.workload, p.policy): clean.run(p.workload, p.policy)
        for p in points
    }

    FaultPlan(
        [FaultSpec("worker", "exception", times=1)],
        seed=7, state_dir=tmp_path,
    ).install()
    runner = ParallelRunner(
        scale="test", jobs=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
    )
    assert runner.prefetch(points) == len(points)
    assert runner.report.ok
    assert sum(o.attempts - 1 for o in runner.report.recovered) >= 1
    uninstall()
    for point in points:
        got = runner.run(point.workload, point.policy)
        want = reference[point.workload, point.policy]
        assert got.cycles == want.cycles
        assert got.core_stats == want.core_stats
        assert got.mem_stats == want.mem_stats
