"""Region specialization: bit-identical equivalence + cache behaviour.

The exec-compiled per-PC ops in :mod:`repro.uarch.specialize` replace the
interpreted execute/address/extend paths, so the contract is the same as
the event-horizon engine's: a specialized run must be *bit-identical* to
the fully-interpreted reference run — same CoreStats, same architectural
registers, same memory-hierarchy counters — for every workload and every
policy (the specialize-only arm of the shared harness in
``tests/fastpath.py``, whose reference runs ``tests/test_event_horizon.py``
reuses), plus a hypothesis property over random programs and random core
geometries, timeout equivalence and the plan-cache tests.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asm import assemble
from repro.errors import SimulationTimeout
from repro.secure import ALL_POLICY_NAMES, make_policy
from repro.testing import programs
from repro.uarch import CoreConfig, OooCore
from repro.uarch import core as core_module
from repro.uarch.decoded import decode_program, decoded_image
from repro.uarch.specialize import spec_cache_info, specialized_image
from repro.workloads import WORKLOAD_NAMES, build_workload

from .fastpath import assert_arm_matches_reference

POLICIES = tuple(sorted(ALL_POLICY_NAMES))


def _reference(program, policy_name, config=None, max_cycles=5_000_000):
    return OooCore(
        program,
        config=config,
        policy=make_policy(policy_name),
        specialize=False,
        cycle_skip=False,
    ).run(max_cycles=max_cycles)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_suite_equivalence_under_every_policy(name):
    """Specialized per-PC ops alone (cycle skip off) are
    bit-identical to the interpreted reference across the suite x policy
    grid."""
    assert_arm_matches_reference(name, "specialize-only")


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
def test_specialized_never_diverges(source, policy_name, config):
    """Property: random program geometry, random core geometry, any
    policy — specialized and interpreted runs are bit-identical."""
    program = assemble(source, name="hypothesis")
    spec = OooCore(
        program, config=config, policy=make_policy(policy_name),
        specialize=True,
    ).run(max_cycles=2_000_000)
    ref = _reference(program, policy_name, config=config,
                     max_cycles=2_000_000)
    assert spec.stats == ref.stats
    assert spec.regs == ref.regs


def test_timeout_is_bit_identical_across_modes():
    """Both modes hit the limit at the same point with the same message;
    outside a lockstep batch the point attribution stays None."""
    program = build_workload("treewalk", "test").assemble()
    limit = 500
    errors = []
    for kwargs in (
        {"specialize": True},
        {"specialize": False, "cycle_skip": False},
    ):
        core = OooCore(program, policy=make_policy("levioso"), **kwargs)
        with pytest.raises(SimulationTimeout) as exc_info:
            core.run(max_cycles=limit)
        errors.append(exc_info.value)
    spec_err, ref_err = errors
    assert str(spec_err) == str(ref_err)
    assert spec_err.limit == ref_err.limit == limit
    assert spec_err.committed == ref_err.committed
    assert spec_err.pc == ref_err.pc
    assert spec_err.point is None and ref_err.point is None


def test_env_override_forces_interpreted_path(monkeypatch):
    program = build_workload("gather", "test").assemble()
    monkeypatch.setenv("REPRO_NO_SPECIALIZE", "1")
    core = OooCore(program, policy=make_policy("levioso"))
    assert not core._specialize
    ref = core.run()
    monkeypatch.delenv("REPRO_NO_SPECIALIZE")
    fast_core = OooCore(program, policy=make_policy("levioso"))
    assert fast_core._specialize
    fast = fast_core.run()
    assert fast.stats == ref.stats
    assert fast.regs == ref.regs


def test_plan_cache_hits_and_op_attachment():
    """Same (image, config, policy) -> cached plan; the shared decoded
    image carries the compiled ops exactly once."""
    program = build_workload("gather", "test").assemble()
    config = CoreConfig()
    image = decoded_image(program, config)
    policy = make_policy("levioso")
    before = spec_cache_info()
    plan1 = specialized_image(image, config, policy)
    plan2 = specialized_image(image, config, policy)
    assert plan1 is plan2
    after = spec_cache_info()
    assert after["hits"] >= before["hits"] + 1
    assert image.spec_token == image.fingerprint
    # Every ALU-class decoded instruction carries an execute op; every
    # memory op carries an address op; loads carry an extension.
    for dec in image.by_pc.values():
        opcode = dec.opcode
        if opcode.is_mem:
            assert dec.aop is not None
            if opcode.is_load and opcode.mnemonic != "cflush":
                assert dec.ext is not None
    # A sibling plan for another policy reuses the attached ops (no
    # second codegen pass for the same image).
    fn_count_before = spec_cache_info()["generated_functions"]
    specialized_image(image, config, make_policy("fence"))
    assert spec_cache_info()["generated_functions"] == fn_count_before


def test_fresh_image_reattaches_ops(monkeypatch):
    """A core given an identity-fresh image (``decode_program``, past the
    image cache) of already-specialized content must get the ops
    re-attached to it (plans stay content-addressed)."""
    program = build_workload("gather", "test").assemble()
    shared = decoded_image(program, CoreConfig())
    specialized_image(shared, CoreConfig(), make_policy("levioso"))
    monkeypatch.setattr(core_module, "decoded_image", decode_program)
    core = OooCore(program, policy=make_policy("levioso"), specialize=True)
    assert core._decoded is not shared
    spec = core.run()
    monkeypatch.undo()
    ref = _reference(program, "levioso")
    assert spec.stats == ref.stats
    assert spec.regs == ref.regs


def test_caches_stay_bounded_under_config_sweeps():
    """A sweep over more latency profiles than either LRU holds must not
    grow the plan or image caches past their caps, and the newest entries
    must survive (LRU evicts from the cold end)."""
    import dataclasses

    from repro.uarch.decoded import image_cache_info

    program = build_workload("gather", "test").assemble()
    policy = make_policy("none")
    spec_max = spec_cache_info()["max_entries"]
    image_max = image_cache_info()["max_entries"]
    sweep = max(spec_max, image_max) + 10
    for alu_latency in range(1, sweep + 1):
        config = dataclasses.replace(CoreConfig(), alu_latency=alu_latency)
        image = decoded_image(program, config)
        specialized_image(image, config, policy)
    spec_info = spec_cache_info()
    image_info = image_cache_info()
    assert spec_info["entries"] <= spec_max
    assert image_info["entries"] <= image_max
    # The caps were actually exercised (the sweep overflowed both).
    assert spec_info["entries"] == spec_max
    assert image_info["entries"] == image_max
    # The hottest (most recent) profile is still cached: re-requesting it
    # must not miss.
    misses_before = spec_cache_info()["misses"]
    config = dataclasses.replace(CoreConfig(), alu_latency=sweep)
    specialized_image(decoded_image(program, config), config, policy)
    assert spec_cache_info()["misses"] == misses_before


def test_defers_wakeup_skip_only_for_non_overriding_policies():
    """The per-completion defers_wakeup call may be elided only when the
    policy inherits the base (constant-False) implementation."""
    program = build_workload("gather", "test").assemble()
    nda = OooCore(program, policy=make_policy("nda"), specialize=True)
    assert nda._defers_wakeup is not None  # NDA overrides: must be called
    levioso = OooCore(program, policy=make_policy("levioso"), specialize=True)
    assert levioso._defers_wakeup is None  # base impl: safely skipped
