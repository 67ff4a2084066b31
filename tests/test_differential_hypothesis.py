"""Property-based differential testing: random programs, golden model vs
out-of-order core under every security policy.

The generator builds structured, always-terminating programs (straight-line
ALU blocks, scratch-buffer loads/stores, if/else diamonds, fixed-trip-count
loops — including pointer-like tainted addressing) and asserts that the OoO
core commits exactly the architectural state the functional simulator
produces, under each policy.  This is the strongest correctness net over
squash/rename/forwarding/gating interactions.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asm import assemble
from repro.functional import run_program
from repro.secure import ALL_POLICY_NAMES, make_policy
from repro.testing import programs
from repro.uarch import CoreConfig, OooCore


def _arch_state(source: str, policy_name: str, config: CoreConfig):
    program = assemble(source, name="hypothesis")
    core = OooCore(program, config=config, policy=make_policy(policy_name))
    result = core.run(max_cycles=2_000_000)
    return program, result


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source=programs(), policy_name=st.sampled_from(sorted(ALL_POLICY_NAMES)))
def test_ooo_matches_functional_under_any_policy(source, policy_name):
    program = assemble(source, name="hypothesis")
    functional = run_program(program, max_instructions=500_000)
    _, result = _arch_state(source, policy_name, CoreConfig())
    assert result.regs == functional.regs
    assert result.memory.equal_contents(functional.state.memory)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source=programs())
def test_tiny_core_matches_functional(source):
    """A deliberately cramped core (tiny ROB/IQ/LSQ) shakes out stall paths."""
    config = CoreConfig(
        rob_size=16, iq_size=8, lq_size=4, sq_size=4,
        fetch_width=2, dispatch_width=2, issue_width=2, commit_width=2,
        fetch_queue_size=4,
    )
    program = assemble(source, name="hypothesis")
    functional = run_program(program, max_instructions=500_000)
    _, result = _arch_state(source, "levioso", config)
    assert result.regs == functional.regs
    assert result.memory.equal_contents(functional.state.memory)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source=programs())
def test_policies_never_change_cycle_determinism(source):
    """Same program + same policy twice -> exactly the same cycle count."""
    program_a = assemble(source, name="a")
    program_b = assemble(source, name="b")
    r1 = OooCore(program_a, policy=make_policy("ctt")).run(max_cycles=2_000_000)
    r2 = OooCore(program_b, policy=make_policy("ctt")).run(max_cycles=2_000_000)
    assert r1.cycles == r2.cycles
    assert r1.regs == r2.regs
