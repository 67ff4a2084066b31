"""NDA propagation-blocking policy: mechanism, security, correctness."""

from repro.asm import assemble
from repro.attacks import run_attack
from repro.functional import run_program
from repro.secure import NdaPolicy, make_policy
from repro.uarch import OooCore
from repro.workloads import build_workload


def test_nda_architectural_equivalence():
    for name in ("branchy", "pchase", "sort"):
        workload = build_workload(name, scale="test")
        program = workload.assemble()
        functional = run_program(program)
        result = OooCore(program, policy=make_policy("nda")).run()
        assert result.regs == functional.regs, name
        assert result.memory.equal_contents(functional.state.memory), name


def test_nda_blocks_spectre_v1():
    outcome = run_attack("spectre_v1", "nda", secret=0x5A)
    assert not outcome.leaked


def test_nda_does_not_protect_nonspeculative_secrets():
    outcome = run_attack("spectre_v1_ct", "nda", secret=0xA7)
    assert outcome.leaked


def test_nda_delays_dependents_not_the_load():
    """A dependent of a speculative load waits; the load itself issues."""
    source = """
    .data
    cold: .dword 0          # value is an index
    table: .dword 11, 22, 33, 44
    .text
        la t0, cold
        la t1, table
        li a1, 0
        li a2, 64
    warm:                   # a loop so branches are in flight
        addi a1, a1, 1
        ld t2, 0(t0)        # load under an unresolved back-branch window
        slli t3, t2, 3
        add t3, t1, t3
        ld a0, 0(t3)        # dependent load
        bne a1, a2, warm
        halt
    """
    program = assemble(source)
    functional = run_program(program)
    none_r = OooCore(program, policy=make_policy("none")).run()
    nda_r = OooCore(program, policy=make_policy("nda")).run()
    assert nda_r.regs == functional.regs
    # NDA never gates load *issue*:
    assert nda_r.stats.loads_gated == 0
    # ...but costs cycles through withheld propagation.
    assert nda_r.cycles >= none_r.cycles


def test_nda_policy_flags():
    policy = NdaPolicy()
    assert policy.protects_speculative_secrets
    assert not policy.protects_nonspeculative_secrets
    assert not policy.comprehensive


def test_nda_cost_between_none_and_fence():
    workload = build_workload("gather", scale="test")
    program = workload.assemble()
    cycles = {}
    for name in ("none", "nda", "fence"):
        cycles[name] = OooCore(program, policy=make_policy(name)).run().cycles
    assert cycles["none"] <= cycles["nda"] <= cycles["fence"]
