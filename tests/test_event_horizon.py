"""Event-horizon cycle skipping: equivalence with the stepped reference.

Cycle skipping (:mod:`repro.uarch.horizon`) is the core's one
bit-invisible fast path: a run with it on must be *bit-identical* to the
stepped reference — same cycle count, same CoreStats, same architectural
registers, same memory-hierarchy counters — for every workload and every
policy.

Layers of defense here:

* the full SPEClite suite x every policy, cycle skip on vs the stepped
  reference (memoised per (workload, policy) by :func:`reference_run`,
  which ``tests/test_issue_pinned.py`` digests too);
* a hypothesis property over random programs *and* random core
  geometries, with an instrumented warp asserting the engine never skips
  past a scheduled completion; and
* timeout equivalence — both modes must raise the same enriched
  :class:`SimulationTimeout` at the same limit.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.uarch.core as core_mod
from repro.asm import assemble
from repro.errors import SimulationTimeout
from repro.secure import ALL_POLICY_NAMES, make_policy
from repro.testing import programs
from repro.uarch import CoreConfig, OooCore
from repro.workloads import WORKLOAD_NAMES, build_workload

POLICIES = tuple(sorted(ALL_POLICY_NAMES))
MAX_CYCLES = 5_000_000

#: Workloads whose test-scale runs are dominated by DRAM-latency waits, so
#: the engine must actually warp (not merely be allowed to).
MEMORY_BOUND = ("pchase", "gather", "treewalk", "listupd")


@lru_cache(maxsize=None)
def _program(name):
    workload = build_workload(name, "test")
    return workload, workload.assemble()


@lru_cache(maxsize=None)
def reference_run(name, policy_name):
    """(stats, regs, stats_dict) of the stepped run; checked once."""
    workload, program = _program(name)
    core = OooCore(program, policy=make_policy(policy_name), cycle_skip=False)
    result = core.run(max_cycles=MAX_CYCLES)
    # Reference mode must really be stepping.
    assert core.warp_stats.warps == 0
    assert workload.validate(result.regs), f"{name}/{policy_name}"
    return result.stats, result.regs, result.stats_dict()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_suite_equivalence_under_every_policy(name):
    """Cycle skip on is bit-identical to the stepped reference: stats,
    regs, memory counters."""
    _, program = _program(name)
    for policy_name in POLICIES:
        ref_stats, ref_regs, ref_dict = reference_run(name, policy_name)
        core = OooCore(program, policy=make_policy(policy_name),
                       cycle_skip=True)
        fast = core.run(max_cycles=MAX_CYCLES)
        label = f"{name}/{policy_name}"
        assert fast.stats == ref_stats, label
        assert fast.regs == ref_regs, label
        assert fast.stats_dict() == ref_dict, label
    # The warp counters are diagnostics, not simulated state: they must
    # never leak into CoreStats (that would break the equality above).
    assert not hasattr(fast.stats, "cycles_skipped")


@pytest.mark.parametrize("name", MEMORY_BOUND)
def test_memory_bound_workloads_actually_warp(name):
    """DRAM-latency-dominated kernels must skip a meaningful cycle share."""
    program = build_workload(name, "test").assemble()
    core = OooCore(program, policy=make_policy("levioso"))
    result = core.run()
    warp = core.warp_stats
    assert warp.warps > 0
    assert 0 < warp.cycles_skipped < result.stats.cycles
    assert sum(warp.reasons.values()) == warp.warps


def test_reference_mode_never_warps():
    program = build_workload("gather", "test").assemble()
    core = OooCore(program, policy=make_policy("levioso"), cycle_skip=False)
    core.run()
    assert core.warp_stats.warps == 0
    assert core.warp_stats.cycles_skipped == 0


@st.composite
def _small_configs(draw):
    """Random cramped-to-roomy core geometries; stress every stall path."""
    iq_size = draw(st.integers(4, 32))
    return CoreConfig(
        fetch_width=draw(st.integers(1, 4)),
        dispatch_width=draw(st.integers(1, 4)),
        issue_width=draw(st.integers(1, 4)),
        commit_width=draw(st.integers(1, 4)),
        rob_size=draw(st.integers(iq_size, 64)),
        iq_size=iq_size,
        lq_size=draw(st.integers(2, 16)),
        sq_size=draw(st.integers(2, 16)),
        fetch_queue_size=draw(st.integers(2, 16)),
        frontend_latency=draw(st.integers(1, 8)),
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    source=programs(),
    policy_name=st.sampled_from(POLICIES),
    config=_small_configs(),
)
def test_warp_never_skips_past_a_completion(source, policy_name, config):
    """Property: every warp lands at or before the next scheduled event,
    and the warped run stays bit-identical to the stepped run."""
    program = assemble(source, name="hypothesis")
    real_warp = core_mod.warp_to_horizon
    observed = []

    def checked_warp(core, limit):
        skipped = real_warp(core, limit)
        if skipped:
            observed.append(skipped)
            assert core.cycle <= limit
            completions = core.completions
            assert not completions or completions[0][0] >= core.cycle, (
                "warped past a scheduled completion"
            )
        return skipped

    core_mod.warp_to_horizon = checked_warp
    try:
        fast = OooCore(
            program, config=config, policy=make_policy(policy_name)
        ).run(max_cycles=2_000_000)
    finally:
        core_mod.warp_to_horizon = real_warp
    ref = OooCore(
        program,
        config=config,
        policy=make_policy(policy_name),
        cycle_skip=False,
    ).run(max_cycles=2_000_000)
    assert fast.stats == ref.stats
    assert fast.regs == ref.regs


def test_timeout_is_bit_identical_and_enriched():
    """Both modes hit the limit at the same point with the same message,
    and the exception carries committed count and current fetch PC;
    outside a batch the point attribution stays None."""
    program = build_workload("treewalk", "test").assemble()
    limit = 500
    errors = []
    for kwargs in ({}, {"cycle_skip": False}):
        core = OooCore(program, policy=make_policy("levioso"), **kwargs)
        with pytest.raises(SimulationTimeout) as exc_info:
            core.run(max_cycles=limit)
        errors.append(exc_info.value)
    fast_err, ref_err = errors
    assert str(fast_err) == str(ref_err)
    assert fast_err.limit == ref_err.limit == limit
    assert fast_err.committed == ref_err.committed
    assert fast_err.pc == ref_err.pc
    assert f"committed {fast_err.committed}" in str(fast_err)
    assert f"{fast_err.pc:#x}" in str(fast_err)
    assert fast_err.point is None and ref_err.point is None


def test_env_overrides_force_reference_paths(monkeypatch):
    program = build_workload("gather", "test").assemble()
    monkeypatch.setenv("REPRO_NO_CYCLE_SKIP", "1")
    core = OooCore(program, policy=make_policy("levioso"))
    assert not core._cycle_skip
    result = core.run()
    assert core.warp_stats.warps == 0
    monkeypatch.delenv("REPRO_NO_CYCLE_SKIP")
    fast = OooCore(program, policy=make_policy("levioso")).run()
    assert fast.stats == result.stats
    assert fast.regs == result.regs
