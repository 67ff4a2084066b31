"""Out-of-order core: basic architectural correctness."""

import gc
import weakref

import pytest

from repro.asm import assemble
from repro.functional import run_program
from repro.secure import make_policy
from repro.uarch import CoreConfig, OooCore

SUM_LOOP = """
.data
result: .dword 0
.text
    li a0, 0
    li a1, 1
    li a2, 101
loop:
    add a0, a0, a1
    addi a1, a1, 1
    bne a1, a2, loop
    la t0, result
    sd a0, 0(t0)
    halt
"""


def run_ooo(source, policy="none", **core_kwargs):
    program = assemble(source)
    core = OooCore(program, policy=make_policy(policy), **core_kwargs)
    return program, core.run()


def test_sum_loop_matches_functional():
    program = assemble(SUM_LOOP)
    functional = run_program(program)
    core = OooCore(program)
    result = core.run()
    assert result.regs == functional.regs
    addr = program.address_of("result")
    assert result.memory.read_int(addr, 8) == 5050


def test_ipc_is_positive_and_sane():
    _, result = run_ooo(SUM_LOOP)
    assert 0.1 < result.ipc <= 4.0
    assert result.stats.committed == 306


def test_committed_trace_matches_functional_path():
    program = assemble(SUM_LOOP)
    functional = run_program(program, trace=True)
    core = OooCore(program, record_trace=True)
    result = core.run()
    assert result.committed_pcs == [entry.pc for entry in functional.trace]


def test_store_load_forwarding():
    source = """
    .data
    buf: .dword 0
    .text
        la t0, buf
        li t1, 77
        li t3, 1000
        li t4, 7
        div t5, t3, t4      # long-latency op keeps the ROB head busy...
        sd t1, 0(t0)        # ...so this store cannot commit yet
        ld t2, 0(t0)        # and this load must forward from the SQ
        addi t2, t2, 1
        halt
    """
    _, result = run_ooo(source)
    assert result.regs[7] == 78  # t2
    assert result.stats.loads_forwarded >= 1


def test_partial_overlap_store_blocks_until_commit():
    source = """
    .data
    buf: .dword 0x1122334455667788
    .text
        la t0, buf
        li t1, 0xAB
        sb t1, 3(t0)        # 1-byte store
        ld t2, 0(t0)        # 8-byte load overlapping partially
        halt
    """
    program = assemble(source)
    functional = run_program(program)
    core = OooCore(program)
    result = core.run()
    assert result.regs == functional.regs


def test_branchy_program_with_mispredicts():
    source = """
    .text
        li a0, 0          # acc
        li a1, 0          # i
        li a2, 64
    loop:
        andi t0, a1, 3
        bnez t0, skip      # taken 3 of 4 times: some mispredicts early
        addi a0, a0, 5
    skip:
        addi a1, a1, 1
        bne a1, a2, loop
        halt
    """
    program = assemble(source)
    functional = run_program(program)
    core = OooCore(program)
    result = core.run()
    assert result.regs == functional.regs
    assert result.stats.branch_mispredicts > 0
    assert result.stats.squashed_insts > 0


def test_call_ret_through_ras():
    source = """
    .text
        li a0, 3
        li s0, 0
        li s1, 10
    loop:
        call work
        addi s0, s0, 1
        bne s0, s1, loop
        halt
    work:
        add a0, a0, a0
        and a0, a0, s1
        addi a0, a0, 1
        ret
    """
    program = assemble(source)
    functional = run_program(program)
    result = OooCore(program).run()
    assert result.regs == functional.regs
    # RAS should make returns cheap: very few jalr mispredicts.
    assert result.stats.jalr_mispredicts <= 2


def test_division_and_multiplication():
    source = """
    .text
        li a0, 1000
        li a1, 7
        div a2, a0, a1
        rem a3, a0, a1
        mul a4, a2, a1
        add a5, a4, a3
        halt
    """
    program = assemble(source)
    functional = run_program(program)
    result = OooCore(program).run()
    assert result.regs == functional.regs
    assert result.regs[15] == 1000  # a5 = q*7 + r


def test_rdcycle_monotonic_and_serializing():
    source = """
    .text
        rdcycle t0
        li a0, 0
        li a1, 100
    loop:
        addi a0, a0, 1
        bne a0, a1, loop
        rdcycle t1
        sub t2, t1, t0
        halt
    """
    _, result = run_ooo(source)
    elapsed = result.regs[7]  # t2
    assert 0 < elapsed < 10_000


def test_cflush_is_architectural_noop():
    source = """
    .data
    buf: .dword 42
    .text
        la t0, buf
        ld t1, 0(t0)
        cflush 0(t0)
        ld t2, 0(t0)
        halt
    """
    program = assemble(source)
    functional = run_program(program)
    result = OooCore(program).run()
    assert result.regs == functional.regs
    assert result.regs[6] == result.regs[7] == 42


@pytest.mark.parametrize("rob", [32, 192])
def test_larger_rob_is_not_slower(rob):
    program = assemble(SUM_LOOP)
    result = OooCore(program, config=CoreConfig(rob_size=rob, iq_size=min(rob, 64))).run()
    assert result.stats.committed == 306


def test_wrong_path_off_text_segment_recovers():
    # A branch mispredicted toward a path that runs off the end of .text
    # must not crash the simulator.
    source = """
    .text
        li a0, 1
        li a1, 1
        beq a0, a1, good   # always taken; predictor starts weakly not-taken
        addi a2, a2, 1
        addi a2, a2, 1
    good:
        halt
    """
    program = assemble(source)
    functional = run_program(program)
    result = OooCore(program).run()
    assert result.regs == functional.regs


@pytest.mark.parametrize("specialize", [True, False])
def test_finished_core_is_freed_without_the_cycle_collector(specialize):
    """A core holds no reference cycle: dropping the last reference frees
    it (and its memory image and caches) at once, not at the next full
    garbage collection."""
    core = OooCore(assemble(SUM_LOOP), policy=make_policy("levioso"),
                   specialize=specialize, record_observations=True)
    core.run()
    ref = weakref.ref(core)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del core
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
