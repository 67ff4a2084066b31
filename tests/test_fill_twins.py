"""Fill twins in the grid planner: the copies are exact (DESIGN.md §15).

A campaign grid holds each observed (program, policy) pair once per
secret fill.  The planner makes each such family one work item, and the
worker copies the first fill's record to the others when its run is
proven fill-independent.  These tests simulate every twin anyway and
require the copies to equal the real runs, over a corpus and all seven
policies.
"""

from __future__ import annotations

import pytest

from repro.adversarial import CampaignConfig, campaign_grid, synthesize_item
from repro.faults import FaultPlan, FaultSpec, uninstall
from repro.harness import ParallelRunner, RetryPolicy
from repro.harness.cache import ResultCache
from repro.harness.runner import RunRecord
from repro.secure import ALL_POLICY_NAMES, make_policy
from repro.uarch import OooCore
from repro.workloads import build_workload

FILLS = (0x41, 0xC3)
COUNT = 16


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    uninstall()
    yield
    uninstall()


def _config(seed: int, policies) -> CampaignConfig:
    return CampaignConfig.resolve(seed, count=COUNT, policies=tuple(policies),
                                  fills=FILLS)


def _simulate(name: str, policy: str):
    workload = build_workload(name, "test")
    core = OooCore(workload.assemble(), policy=make_policy(policy),
                   record_observations=True)
    result = core.run()
    record = RunRecord.from_result(name, policy, result)
    return core.fill_independent(workload.check_reg), record


_REFERENCE: dict = {}


def _reference(seed: int):
    """(item, policy) -> (proof on the first fill, real record per fill)."""
    if seed not in _REFERENCE:
        table = {}
        for index in range(COUNT):
            spec = synthesize_item(seed, index)
            for policy in ALL_POLICY_NAMES:
                runs = [_simulate(spec.workload_name(f), policy) for f in FILLS]
                table[spec.name, policy] = (runs[0][0], [r for _, r in runs])
        _REFERENCE[seed] = table
    return _REFERENCE[seed]


def test_copied_twins_equal_real_simulations():
    reference = _reference(7)
    config = _config(7, ALL_POLICY_NAMES)
    runner = ParallelRunner(scale="test", jobs=1)
    grid = campaign_grid(config)
    assert runner.prefetch(grid) == len(grid)

    proven = sum(p for p, _ in reference.values())
    assert 0 < proven < len(reference)
    assert runner.copies == proven
    assert runner.simulations == len(grid) - proven
    for (item, policy), (_, records) in reference.items():
        for fill, want in zip(FILLS, records):
            got = runner.run(f"{item}/f{fill:02x}", policy, observe=True)
            assert ResultCache.serialize(got) == ResultCache.serialize(want), (
                item, policy, fill)


def test_unproven_pairs_are_the_leaking_pairs():
    reference = _reference(192)
    for policy in ("none", "fence", "levioso"):
        for index in range(COUNT):
            item = synthesize_item(192, index).name
            proven, (first, second) = reference[item, policy]
            leaks = first.obs_digest != second.obs_digest
            assert proven is not leaks, (item, policy)
            if proven:
                a = ResultCache.serialize(first)
                b = ResultCache.serialize(second)
                del a["workload"], b["workload"]
                assert a == b, (item, policy)


def test_planner_never_splits_a_family():
    config = CampaignConfig.resolve(192, count=4, fills=FILLS)
    runner = ParallelRunner(scale="test", jobs=1)
    todo = [
        (runner.run_key_for(p.workload, p.policy, observe=True), p)
        for p in campaign_grid(config)
    ]
    items, batch_members = runner._plan_work(todo)
    placed = {}
    for item in items:
        for key, _ in batch_members[item.key]:
            placed[key] = item.key
    assert set(placed) == {key for key, _ in todo}
    for key, point in todo:
        for other, twin in todo:
            if (twin.policy == point.policy
                    and twin.workload.rsplit("/", 1)[0]
                    == point.workload.rsplit("/", 1)[0]):
                assert placed[key] == placed[other]
    # One item per program (3 policies x 2 fills).
    assert len(items) == len(todo) // (len(config.policies) * len(FILLS))


def test_worker_fault_fires_at_a_copied_twin(tmp_path):
    """The fault hook runs for every member key, copies included: a fault
    at the second fill's key fails its family's item, which recovers."""
    spec = synthesize_item(192, 5)  # clean under every policy: copied
    grid = [p for p in campaign_grid(_config(192, ("none",)))
            if p.workload.startswith(spec.name + "/")]
    runner = ParallelRunner(
        scale="test", jobs=1,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
    )
    twin = runner.run_key_for(grid[1].workload, "none", observe=True)
    FaultPlan([FaultSpec("worker", "exception", match=twin)],
              seed=7, state_dir=tmp_path).install()
    assert runner.prefetch(grid) == 2
    assert runner.copies == 1 and runner.simulations == 1
    (outcome,) = runner.report.outcomes
    assert outcome.status == "retried" and outcome.attempts == 2
