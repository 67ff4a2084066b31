"""Security policies on the OoO core: timing-only, correctly ordered."""

import pytest

from repro.asm import assemble
from repro.functional import run_program
from repro.isa import Opcode
from repro.secure import make_policy
from repro.uarch import OooCore
from repro.workloads import build_workload

POLICY_SET = ("none", "fence", "dom", "stt", "ctt", "levioso")


def run_policy(workload, policy_name, **kwargs):
    program = workload.assemble()
    core = OooCore(program, policy=make_policy(policy_name), **kwargs)
    return core.run()


@pytest.fixture(scope="module")
def gather_results():
    workload = build_workload("gather", scale="test")
    return {name: run_policy(workload, name) for name in POLICY_SET}, workload


def test_policies_preserve_architecture(gather_results):
    results, workload = gather_results
    baseline = run_program(workload.assemble())
    for name, result in results.items():
        assert result.regs == baseline.regs, f"{name} changed architectural state"
        assert workload.validate(result.regs), f"{name} failed the self-check"


def test_overhead_ordering_on_gather(gather_results):
    """The paper's central claim, on its most favourable workload shape:

    unprotected <= levioso < ctt <= fence, with levioso well below ctt.
    """
    results, _ = gather_results
    cycles = {name: r.cycles for name, r in results.items()}
    assert cycles["none"] <= cycles["levioso"]
    assert cycles["levioso"] < cycles["ctt"]
    assert cycles["ctt"] <= cycles["fence"]
    # Levioso should recover a large part of the conservative gap.
    gap_ctt = cycles["ctt"] - cycles["none"]
    gap_lev = cycles["levioso"] - cycles["none"]
    assert gap_lev < 0.7 * gap_ctt, (
        f"levioso gap {gap_lev} vs ctt gap {gap_ctt}"
    )


def test_stt_cheaper_than_comprehensive(gather_results):
    results, _ = gather_results
    assert results["stt"].cycles <= results["ctt"].cycles


def test_fence_gates_more_loads_than_levioso(gather_results):
    results, _ = gather_results
    assert results["fence"].stats.loads_gated >= results["levioso"].stats.loads_gated
    assert (
        results["fence"].stats.load_gate_cycles
        > results["levioso"].stats.load_gate_cycles
    )


def test_none_policy_gates_nothing(gather_results):
    results, _ = gather_results
    assert results["none"].stats.loads_gated == 0


@pytest.mark.parametrize("policy", POLICY_SET)
@pytest.mark.parametrize("workload_name", ["pchase", "branchy", "sandbox", "crc"])
def test_architectural_equivalence_across_suite(workload_name, policy):
    workload = build_workload(workload_name, scale="test")
    program = workload.assemble()
    functional = run_program(program)
    result = OooCore(program, policy=make_policy(policy)).run()
    assert result.regs == functional.regs
    assert result.memory.equal_contents(functional.state.memory)


def test_levioso_without_compiler_info_behaves_conservatively():
    """Ablation: no reconvergence metadata -> every branch region extends to
    resolution, so Levioso degenerates toward the conservative baseline."""
    workload = build_workload("gather", scale="test")
    program = workload.assemble()
    informed = OooCore(program, policy=make_policy("levioso")).run()
    blind_core = OooCore(
        program, policy=make_policy("levioso"), use_compiler_info=False
    )
    blind = blind_core.run()
    assert informed.regs == blind.regs
    assert blind.cycles > informed.cycles


def test_stream_costs_stay_moderate():
    """Streaming with a data-dependent fixup branch: taint policies pay a
    moderate price; STT (expiring taint) and Levioso stay near free."""
    workload = build_workload("stream", scale="test")
    none_r = run_policy(workload, "none")
    ctt_overhead = run_policy(workload, "ctt").cycles / none_r.cycles - 1.0
    assert ctt_overhead < 0.35, f"ctt overhead {ctt_overhead:.2%} on stream"
    for name in ("stt", "levioso"):
        result = run_policy(workload, name)
        overhead = result.cycles / none_r.cycles - 1.0
        assert overhead < 0.10, f"{name} overhead {overhead:.2%} on stream"
        assert overhead <= ctt_overhead + 0.01


def test_policy_stats_are_consistent(gather_results):
    results, _ = gather_results
    for name, result in results.items():
        stats = result.stats
        assert stats.load_gate_cycles >= stats.loads_gated >= 0
        assert stats.committed > 0
        assert stats.cycles > 0


# f(1) recurses once: the caller's beq falls through into the call and the
# callee's beq jumps to `join`.  The callee's copy of `join` therefore runs
# only because the caller's branch fell through, so the caller's region
# must stay open across it even though it reaches the caller's
# reconvergence PC.
RECURSIVE_JOIN = """
.data
flag: .dword 1
val:  .dword 5
ptr:  .dword 0
.text
    la s0, flag
    la s1, ptr
    la t0, val
    sd t0, 0(s1)
    li s2, 40
    li a1, 0
loop:
    li a0, 1
    call f
    addi s2, s2, -1
    bnez s2, loop
    mv a0, a1
    halt
f:
    cflush 0(s0)
    ld t0, 0(s0)          # slow: the beq resolves late
    and t0, t0, a0
    beq t0, x0, join
    addi sp, sp, -16
    sd ra, 0(sp)
    addi a0, a0, -1
    jal ra, f
    ld ra, 0(sp)
    addi sp, sp, 16
join:
    ld t1, 0(s1)
    ld t2, 0(t1)          # memory-derived address: a transmitter
    add a1, a1, t2
    ret
"""


@pytest.mark.parametrize("policy", ("ctt", "levioso"))
def test_recursive_callee_loads_wait_for_the_callers_branch(policy):
    """No callee `ld t2` may issue before its caller's `beq` resolves."""
    program = assemble(RECURSIVE_JOIN)
    core = OooCore(program, policy=make_policy(policy), record_pipeline=True)
    result = core.run()
    assert result.regs == run_program(program).regs
    caller = None
    in_callee = False
    early = []
    callee_loads = 0
    for dyn in core.retired:
        if dyn.opcode is Opcode.BEQ:
            in_callee = bool(dyn.actual_taken)  # only the callee's is taken
            if not in_callee:
                caller = dyn
        elif dyn.opcode is Opcode.LD and dyn.inst.rd == 7 and in_callee:
            in_callee = False
            callee_loads += 1
            if dyn.issue_cycle < caller.complete_cycle:
                early.append(dyn.seq)
    assert callee_loads == 40
    assert early == []
