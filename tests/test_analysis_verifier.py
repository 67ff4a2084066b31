"""Regression suite: metadata verifier + gadget scanner + dynamic crosscheck.

Unsoundness of the compiler metadata anywhere in the SPEClite suite is a
hard failure — it would mean the hardware can release an instruction the
branch actually controls.  The gadget scanner must flag every attack in
``repro.attacks`` and none of the benign kernels.
"""

import dataclasses

import pytest

from repro.analysis import (
    KIND_V1,
    KIND_V1_CT,
    KIND_V2,
    crosscheck_retired,
    run_with_crosscheck,
    scan_program,
    verify_metadata,
)
from repro.attacks import ATTACKS
from repro.compiler import ensure_analysis
from repro.errors import AnalysisError
from repro.secure import make_policy
from repro.uarch import OooCore
from repro.workloads import WORKLOAD_NAMES, build_workload

EXPECTED_KINDS = {
    "spectre_v1": KIND_V1,
    "spectre_v1_ct": KIND_V1_CT,
    "spectre_v2": KIND_V2,
}


@pytest.fixture(scope="module")
def workload_programs():
    return {
        name: build_workload(name, scale="test").assemble()
        for name in WORKLOAD_NAMES
    }


# ------------------------------------------------------------------ verifier
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_metadata_sound_on_workload(name, workload_programs):
    report = verify_metadata(workload_programs[name])
    assert report.sound, [v.to_dict() for v in report.violations]
    assert report.branches_checked > 0


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_metadata_sound_on_gadget(name):
    report = verify_metadata(ATTACKS[name]())
    assert report.sound, [v.to_dict() for v in report.violations]


def test_verifier_catches_seeded_missed_dependence():
    program = build_workload("bsearch", scale="test").assemble()
    info = ensure_analysis(program)
    branch_pc, region = next(
        (pc, pcs) for pc, pcs in info.control_dep_pcs.items() if pcs
    )
    tampered = dataclasses.replace(
        info,
        control_dep_pcs={
            **info.control_dep_pcs,
            branch_pc: frozenset(list(region)[:-1]),
        },
    )
    report = verify_metadata(program, tampered)
    assert not report.sound
    assert any(v.kind == "missed-dependence" for v in report.violations)


def test_verifier_catches_bogus_reconvergence():
    from repro.asm import assemble

    source = """
.text
    li t0, 1
    beqz t0, other
    addi t1, t1, 1
    j join
other:
    addi t1, t1, 2
join:
    halt
"""
    program = assemble(source, name="diamond")
    info = ensure_analysis(program)
    branch_pc = next(iter(info.reconv_pc))
    assert info.reconv_pc[branch_pc] == program.address_of("join")
    # Claim the branch reconverges inside one arm of the diamond — a block
    # the other arm bypasses, so it cannot post-dominate the branch.
    tampered = dataclasses.replace(
        info,
        reconv_pc={**info.reconv_pc, branch_pc: program.address_of("other")},
    )
    report = verify_metadata(program, tampered)
    assert any(v.kind == "bogus-reconvergence" for v in report.violations)


# ------------------------------------------------------------------- scanner
@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_scanner_flags_every_gadget(name):
    report = scan_program(ATTACKS[name]())
    assert not report.clean
    assert EXPECTED_KINDS[name] in report.counts_by_kind()
    assert report.flagged_transmitters >= 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_scanner_clean_on_benign_workload(name, workload_programs):
    report = scan_program(workload_programs[name])
    assert report.clean, [f.to_dict() for f in report.findings]


# ---------------------------------------------------------------- crosscheck
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_dynamic_deps_within_static_prediction(name, workload_programs):
    program = workload_programs[name]
    _, report = run_with_crosscheck(program, policy=make_policy("levioso"))
    assert report.ok
    assert report.dependences_checked > 0
    # test-scale workloads are single-function: every dependence should be
    # positively confirmed, not excused.
    assert report.confirmed == report.dependences_checked


def test_crosscheck_detects_tampered_metadata():
    program = build_workload("branchy", scale="test").assemble()
    core = OooCore(program, policy=make_policy("none"), record_pipeline=True)
    core.run()
    info = ensure_analysis(program)
    tampered = dataclasses.replace(
        info,
        control_dep_pcs={pc: frozenset() for pc in info.control_dep_pcs},
    )
    report = crosscheck_retired(program, core.retired, tampered)
    assert not report.ok
    assert report.violations


def test_run_with_crosscheck_passes_a_self_checked_run():
    """bsearch under levioso (policy by name) passes the cross-check, and
    the cross-checked run still passes the workload's self-check."""
    workload = build_workload("bsearch", scale="test")
    result, report = run_with_crosscheck(workload.assemble(), policy="levioso")
    assert report.ok and report.dependences_checked > 0
    assert result.stats.cycles > 0
    assert workload.validate(result.regs)


def test_run_with_crosscheck_raises_on_violation():
    program = build_workload("branchy", scale="test").assemble()
    ensure_analysis(program)
    program.analysis = dataclasses.replace(
        program.analysis,
        control_dep_pcs={
            pc: frozenset() for pc in program.analysis.control_dep_pcs
        },
    )
    with pytest.raises(AnalysisError):
        run_with_crosscheck(program, policy=make_policy("none"))
