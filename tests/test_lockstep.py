"""Lockstep grid vectorization: never-diverge property + batch plumbing.

A lockstep batch interleaves N independent cores in one process; the
contract is that batching is *invisible* in the results — every member's
record is bit-identical to running that point alone — for any batch size,
composition, and slice quantum.  Also covers the planner's grouping, the
``REPRO_NO_LOCKSTEP`` escape hatch, mid-batch timeout attribution, and
batch-level fault recovery (the batched twin of the per-point recovery
tests in ``test_resilience.py``).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationTimeout
from repro.faults import FaultPlan, FaultSpec, uninstall
from repro.harness import GridPoint, ParallelRunner, RetryPolicy
from repro.harness.lockstep import (
    LOCKSTEP_MAX,
    lockstep_enabled,
    run_lockstep,
    simulate_batch,
    simulate_work,
)
from repro.harness.resilience import simulate_point
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
        record = simulate_point(
            ("test", GridPoint(workload, policy), None)
        )
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
    each member alone."""
    keys = tuple(
        f"m{i}:{w}/{p}" for i, (w, p) in enumerate(composition)
    )
    points = tuple(GridPoint(w, p) for w, p in composition)
    records = simulate_batch(("test", points, None, keys))
    assert set(records) == set(keys)
    for key, (workload, policy) in zip(keys, composition):
        assert records[key] == _single(workload, policy), key


@pytest.mark.parametrize(
    "name,slice_cycles",
    [pytest.param("gather", q, id=str(q)) for q in (7, 64, 130, 1021, 10**9)]
    + [pytest.param("branchy", 7, id="branchy-7")],
)
def test_slice_quantum_is_invisible(name, slice_cycles):
    """The round-robin quantum is pure scheduling: any slice size yields
    the same stats/regs as an unsliced run.  The tiny odd quanta land
    pause points mid fetch packet and, on the branch-dense kernel, inside
    open control-dependence regions, so the resumable ``advance(limit,
    stop_cycle)`` path must not observe either boundary."""
    program = build_workload(name, "test").assemble()
    direct = OooCore(program, policy=make_policy("levioso")).run()
    core = OooCore(program, policy=make_policy("levioso"))
    limit = CoreConfig().max_cycles
    results = run_lockstep([("only", core, limit)], slice_cycles)
    assert results["only"].stats == direct.stats
    assert results["only"].regs == direct.regs
    assert results["only"].stats_dict() == direct.stats_dict()


def test_timeout_mid_batch_names_the_guilty_point():
    """A member that hits its cycle limit mid-lockstep raises with the
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


def test_simulate_work_dispatches_on_arity():
    point = GridPoint("gather", "none")
    single = simulate_work(("test", point, None))
    batched = simulate_work(("test", (point,), None, ("k",)))
    assert batched["k"] == single


def test_planner_groups_by_workload_and_chunks(monkeypatch):
    monkeypatch.delenv("REPRO_NO_LOCKSTEP", raising=False)
    assert lockstep_enabled()
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
    # Oversized groups are chunked at LOCKSTEP_MAX; the remainder of one
    # becomes a classic single-point item.
    big = [
        (f"b{i}", GridPoint("gather", "none"))
        for i in range(LOCKSTEP_MAX + 1)
    ]
    items, batch_members = runner._plan_work(big)
    sizes = sorted(
        len(batch_members.get(item.key, [None])) for item in items
    )
    assert sizes == [1, LOCKSTEP_MAX]


def test_env_override_disables_batching(monkeypatch):
    monkeypatch.setenv("REPRO_NO_LOCKSTEP", "1")
    assert not lockstep_enabled()
    runner = ParallelRunner(scale="test", jobs=2)
    todo = [
        (f"k:{w}/{p}", GridPoint(w, p))
        for w in WORKLOADS
        for p in POLICIES
    ]
    items, batch_members = runner._plan_work(todo)
    assert not batch_members
    assert len(items) == len(todo)
    assert all(len(item.args) == 3 for item in items)


def test_prefetch_with_batching_matches_unbatched(monkeypatch):
    points = [GridPoint(w, p) for w in WORKLOADS for p in POLICIES]

    monkeypatch.setenv("REPRO_NO_LOCKSTEP", "1")
    plain = ParallelRunner(scale="test", jobs=2)
    assert plain.prefetch(points) == len(points)

    monkeypatch.delenv("REPRO_NO_LOCKSTEP")
    batched = ParallelRunner(scale="test", jobs=2)
    assert batched.prefetch(points) == len(points)

    for point in points:
        a = plain.run(point.workload, point.policy)
        b = batched.run(point.workload, point.policy)
        assert a.cycles == b.cycles, (point.workload, point.policy)
        assert a.core_stats == b.core_stats
        assert a.mem_stats == b.mem_stats


def test_batch_fault_recovery_bit_identical(monkeypatch, tmp_path):
    """An injected worker fault fails the whole batch; the supervisor
    retries it as a unit and the recovered grid matches a clean run."""
    monkeypatch.delenv("REPRO_NO_LOCKSTEP", raising=False)
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
