"""Secure-compiler mitigation subsystem: passes, certification, plumbing."""

import pytest

from repro.adversarial.oracle import program_verdict
from repro.adversarial.repair import repair_program
from repro.analysis.scanner import scan_program
from repro.asm import assemble
from repro.compiler.mitigations import (
    MITIGATION_PASSES,
    PASS_VERSIONS,
    apply_mitigation,
    build_mitigated_workload,
    certify_mitigation,
    mitigation_tag,
    parse_mit_name,
)
from repro.compiler.mitigations.certify import architecturally_equivalent
from repro.compiler.rewriter import ProgramRewriter, image_fingerprint
from repro.errors import AnalysisError
from repro.functional import run_program
from repro.harness.cache import ResultCache, workload_fingerprint
from repro.harness.runner import ExperimentRunner
from repro.isa import Opcode
from repro.service.jobs import is_valid_workload
from repro.workloads import WORKLOAD_NAMES, build_workload

GADGETS = ("spectre_v1", "spectre_v1_ct", "spectre_v2")


def _gadget(name):
    from repro.attacks import ATTACKS

    return ATTACKS[name]()


# ------------------------------------------------------------------ rewriter
@pytest.mark.parametrize("target", ["spectre_v1", "spectre_v1_ct", "spectre_v2"])
def test_identity_rewrite_is_bit_identical(target):
    program = _gadget(target)
    rewritten = ProgramRewriter(program).rewrite()
    assert image_fingerprint(rewritten) == image_fingerprint(program)


@pytest.mark.parametrize("name", ["pchase", "bsearch", "sandbox"])
def test_identity_rewrite_on_workloads(name):
    program = build_workload(name, "test").assemble()
    rewritten = ProgramRewriter(program).rewrite()
    assert image_fingerprint(rewritten) == image_fingerprint(program)


def test_rewriter_requires_source():
    program = _gadget("spectre_v1")
    stripped = type(program)(
        instructions=program.instructions,
        data=program.data,
        symbols=program.symbols,
        name="nosource",
    )
    with pytest.raises(AnalysisError):
        ProgramRewriter(stripped)


def test_rewriter_pc_map_tracks_insertions():
    program = assemble(
        ".text\n"
        "start:\n"
        "    li a0, 1\n"
        "    li a1, 2\n"
        "    halt\n",
        name="tiny",
    )
    rw = ProgramRewriter(program)
    second = program.instructions[1].pc
    rw.insert_before(second, "addi a2, zero, 3")
    out = rw.rewrite()
    # First instruction unmoved; the second's continuation is the inserted
    # line (a return address would resume there); halt shifted by one slot.
    assert rw.pc_map[program.instructions[0].pc] == out.instructions[0].pc
    assert out.inst_at(rw.pc_map[second]).opcode is Opcode.ADDI
    assert out.inst_at(rw.pc_map[program.instructions[2].pc]).opcode is Opcode.HALT


# ------------------------------------------------------- gadget certification
@pytest.mark.parametrize("pass_name", MITIGATION_PASSES)
@pytest.mark.parametrize("target", sorted(GADGETS))
def test_every_pass_certifies_every_gadget(target, pass_name):
    result, cert = certify_mitigation(_gadget(target), pass_name)
    assert cert.equivalent, f"{pass_name} broke {target} architecturally"
    assert cert.oracle_verdict == "SECURE"
    assert cert.scanner_clean and cert.findings_left == 0
    assert cert.certified
    assert result.changed
    assert result.tag == mitigation_tag(pass_name)


@pytest.mark.parametrize("pass_name", MITIGATION_PASSES)
def test_passes_are_identity_or_idempotent_on_clean_code(pass_name):
    program = assemble(".text\n    li a0, 7\n    halt\n", name="clean")
    result = apply_mitigation(program, pass_name)
    # Scanner-led passes skip clean programs entirely.
    if pass_name in ("slh-lifted", "selective"):
        assert not result.changed
    assert run_program(result.program).regs == run_program(program).regs


def test_slh_emits_slhmask_and_scanner_honors_it():
    result = apply_mitigation(_gadget("spectre_v1"), "slh")
    assert result.program.slh_mask is not None
    assert ".slhmask" in result.program.source
    assert scan_program(result.program).clean
    # Round-trip through source keeps the contract.
    again = assemble(result.program.source, name="roundtrip")
    assert again.slh_mask == result.program.slh_mask
    assert scan_program(again).clean


# --------------------------------------------------- workload equivalence
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_passes_preserve_kernel_state_bit_identical(name):
    baseline = build_workload(name, "test").assemble()
    base = run_program(baseline)
    for pass_name in MITIGATION_PASSES:
        result = apply_mitigation(baseline, pass_name)
        mit = run_program(result.program)
        # Kernels hold no code pointers: strict bit-for-bit equality.
        assert mit.regs == base.regs, f"{pass_name} diverged on {name}"
        assert mit.state.memory.equal_contents(base.state.memory)


# ------------------------------------------------------- workload plumbing
def test_parse_mit_name():
    assert parse_mit_name("mit/fence/pchase") == ("fence", "pchase")
    assert parse_mit_name("mit/slh-lifted/fuzz/s1/i0/f41") == (
        "slh-lifted", "fuzz/s1/i0/f41",
    )
    assert parse_mit_name("pchase") is None
    with pytest.raises(AnalysisError):
        parse_mit_name("mit/bogus/pchase")


def test_mitigated_workload_builds_and_validates():
    workload = build_workload("mit/fence/pchase", "test")
    assert workload.mitigation == mitigation_tag("fence")
    assert "fence" in workload.source
    base = build_workload("pchase", "test")
    assert workload.check_reg == base.check_reg
    assert workload.check_value == base.check_value
    result = run_program(workload.assemble())
    assert workload.validate(result.regs)


def test_mitigated_fuzz_workload_builds():
    workload = build_mitigated_workload("mit/selective/fuzz/s7/i0/f41")
    assert workload.mitigation == mitigation_tag("selective")
    assert scan_program(workload.assemble()).clean


def test_mitigation_distinguishes_fingerprints():
    base = build_workload("pchase", "test")
    mitigated = build_workload("mit/fence/pchase", "test")
    assert workload_fingerprint(base, "test") != workload_fingerprint(
        mitigated, "test"
    )
    # The tag itself is load-bearing: same source, different tag -> distinct.
    import dataclasses

    retagged = dataclasses.replace(mitigated, mitigation="fence@v999")
    assert workload_fingerprint(mitigated, "test") != workload_fingerprint(
        retagged, "test"
    )


def test_run_record_carries_mitigation_through_cache(tmp_path):
    runner = ExperimentRunner(scale="test")
    record = runner.run("mit/selective/pchase", "none")
    assert record.mitigation == mitigation_tag("selective")
    plain = runner.run("pchase", "none")
    assert plain.mitigation is None
    cache = ResultCache(tmp_path)
    cache.put("k" * 16, record)
    loaded = cache.get("k" * 16)
    assert loaded is not None and loaded.mitigation == record.mitigation
    # Legacy records without the field deserialize with the default.
    payload = cache.serialize(plain)
    payload.pop("mitigation", None)
    legacy = cache.deserialize(payload)
    assert legacy.mitigation is None


def test_is_valid_workload_accepts_mit_names():
    assert is_valid_workload("mit/fence/pchase")
    assert is_valid_workload("mit/slh/fuzz/s3/i2/f41")
    assert not is_valid_workload("mit/bogus/pchase")
    assert not is_valid_workload("mit/fence/nosuch")
    assert not is_valid_workload("mit/fence/")


# ------------------------------------------------------------------- repair
@pytest.mark.parametrize("strategy", ["slh", "selective"])
def test_mitigation_repair_strategies(strategy):
    outcome = repair_program(_gadget("spectre_v1"), strategy=strategy)
    assert outcome.clean
    assert outcome.mitigation
    assert not program_verdict(outcome.program, "none").leaks


def test_cheapest_picks_non_fence_for_some_gadget():
    picked = set()
    for name in sorted(GADGETS):
        outcome = repair_program(_gadget(name), strategy="cheapest")
        assert outcome.clean
        picked.add(outcome.strategy)
    assert picked - {"load", "branch"}, (
        f"cheapest never chose a mitigation pass (picked {picked})"
    )


def test_pass_versions_registry_consistent():
    assert set(PASS_VERSIONS) == set(MITIGATION_PASSES)
    for name in MITIGATION_PASSES:
        assert mitigation_tag(name).startswith(f"{name}@v")


# ---------------------------------------------------------------------- CLI
def test_cli_mitigate_smoke(capsys):
    from repro.cli import main

    code = main(["mitigate", "spectre_v1", "--pass", "selective", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    import json

    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["pass"] == "selective"
    assert payload["oracle_verdict"] == "SECURE"


def test_cli_resolves_mit_targets(capsys):
    from repro.cli import main

    code = main(["analyze", "mit/fence/pchase", "--json"])
    assert code == 0


# ----------------------------------------------------------------- property
def test_passes_secure_synthesized_leaky_gadgets():
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from repro.adversarial.synth import synth_source, synthesize_item

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**16), index=st.integers(0, 11))
    def inner(seed, index):
        spec = synthesize_item(seed, index)
        program = assemble(
            synth_source(spec, 0x41), name=spec.workload_name(0x41)
        )
        for pass_name in ("fence", "slh"):
            result = apply_mitigation(program, pass_name)
            # Functional final state is preserved (up to code relocation).
            assert architecturally_equivalent(
                program, result.program, pc_map=result.pc_map
            ), f"{pass_name} broke {spec.name}"
            # And the hardened program never leaks, even when the input
            # was synthesized leaky.
            assert not program_verdict(result.program, "none").leaks

    inner()
