"""DynInst lifetime: one record per fetched instruction, bounded liveness.

Every fetched instruction gets its own :class:`DynInst`, and nothing ever
re-initializes a record for another instruction.  Analyses that keep
records of issued loads and branches past their commit (a release audit,
per-branch delay attribution) rely on that: a record handed to the policy
still describes the same dynamic instruction after the run.

A record that leaves the window (commit or squash) must not keep other
records alive either, or memory would grow with the length of a dependence
chain instead of with the window, and records tied into cycles would wait
for the garbage collector.
"""

from __future__ import annotations

import gc

import pytest

from repro.secure.levioso import LeviosoPolicy
from repro.uarch import OooCore
from repro.uarch.dyninst import DynInst
from repro.workloads import build_workload


class KeepingPolicy(LeviosoPolicy):
    """Levioso that keeps every record it gates with its (seq, pc) then."""

    def __init__(self) -> None:
        super().__init__()
        self.kept: list[tuple[DynInst, int, int]] = []

    def may_issue_load(self, dyn, core):
        self.kept.append((dyn, dyn.seq, dyn.pc))
        return super().may_issue_load(dyn, core)

    def may_issue_branch(self, dyn, core):
        self.kept.append((dyn, dyn.seq, dyn.pc))
        return super().may_issue_branch(dyn, core)


@pytest.mark.parametrize("name", ["branchy", "bsearch", "gather", "treewalk"])
def test_gated_records_keep_their_identity_after_the_run(name):
    program = build_workload(name, "test").assemble()
    policy = KeepingPolicy()
    result = OooCore(program, policy=policy).run()
    assert len(policy.kept) > result.stats.committed // 20
    changed = [
        (seen_seq, seen_pc, dyn.seq, dyn.pc)
        for dyn, seen_seq, seen_pc in policy.kept
        if (dyn.seq, dyn.pc) != (seen_seq, seen_pc)
    ]
    assert not changed, f"{len(changed)} records reused, first {changed[0]}"


def _live_dyninsts() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is DynInst)


@pytest.mark.parametrize("name", ["matmul", "bsearch", "treewalk"])
def test_records_are_freed_when_they_leave_the_window(name):
    """Sampled mid-run with the cycle collector off, the records still in
    memory stay within a small multiple of the window: retired and squashed
    records are freed by reference counting alone, however long the
    dependence chains (matmul's accumulators) or wrong paths (bsearch,
    treewalk) run."""
    program = build_workload(name, "test").assemble()
    core = OooCore(program, policy=LeviosoPolicy())
    window = core.config.rob_size + core.config.fetch_queue_size
    gc.collect()
    gc.disable()
    try:
        before = _live_dyninsts()
        peak = 0
        while not core._done:
            core.step()
            if core.cycle % 2_000 == 0:
                peak = max(peak, _live_dyninsts() - before)
    finally:
        gc.enable()
    assert core.stats.committed + core.stats.squashed_insts > 20 * window
    assert peak <= 2 * window
