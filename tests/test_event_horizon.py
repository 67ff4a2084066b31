"""Fast-path equivalence harness + event-horizon safety.

The core's bit-invisible fast paths — event-horizon cycle skipping
(:mod:`repro.uarch.horizon`) and per-PC specialization
(:mod:`repro.uarch.specialize`) — share one contract: a run with them
on must be *bit-identical* to the all-off interpreted
reference — same cycle count, same CoreStats, same architectural
registers, same memory-hierarchy counters — for every workload and every
policy.

Layers of defense here:

* the full SPEClite suite x every policy, all fast paths on vs the
  all-off reference from the shared harness in ``tests/fastpath.py``
  (which ``tests/test_specialize.py`` reuses for its specialize-only arm);
* a hypothesis property over random programs *and* random core
  geometries, with an instrumented warp asserting the engine never skips
  past a scheduled completion; and
* timeout equivalence — both modes must raise the same enriched
  :class:`SimulationTimeout` at the same limit.

Specialization's own properties and plan-cache behaviour live in
``tests/test_specialize.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.uarch.core as core_mod
from repro.asm import assemble
from repro.errors import SimulationTimeout
from repro.secure import ALL_POLICY_NAMES, make_policy
from repro.testing import programs
from repro.uarch import CoreConfig, OooCore
from repro.workloads import WORKLOAD_NAMES, build_workload

from .fastpath import assert_arm_matches_reference

POLICIES = tuple(sorted(ALL_POLICY_NAMES))

#: Workloads whose test-scale runs are dominated by DRAM-latency waits, so
#: the engine must actually warp (not merely be allowed to).
MEMORY_BOUND = ("pchase", "gather", "treewalk", "listupd")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_suite_equivalence_under_every_policy(name):
    """All fast paths on is bit-identical to the interpreted reference:
    stats, regs, memory counters."""
    fast = assert_arm_matches_reference(name, "all-on")
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
    and the exception carries committed count and current fetch PC."""
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
