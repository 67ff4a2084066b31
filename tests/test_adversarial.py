"""Adversarial engine: synthesis, differential oracle, repair, campaign."""

import json

import pytest

from repro.adversarial import (
    CampaignConfig,
    build_fuzz_workload,
    parse_fuzz_name,
    program_verdict,
    repair_program,
    run_campaign,
    secret_filled,
    synth_source,
    synthesize_item,
)
from repro.analysis import scan_program
from repro.asm import assemble
from repro.attacks import spectre_v1, spectre_v1_ct, spectre_v2
from repro.cli import main
from repro.compiler import insert_fences
from repro.errors import HarnessError
from repro.harness import ParallelRunner

GADGETS = {
    "spectre_v1": spectre_v1,
    "spectre_v1_ct": spectre_v1_ct,
    "spectre_v2": spectre_v2,
}

#: Per-policy expected oracle verdicts on the hand-written gadgets — the
#: dynamic twin of the attack suite's Fig 5 matrix.  ``stt`` stops v1
#: (the secret enters speculatively and is tracked) but not v1-ct/v2
#: (non-speculatively loaded secrets are outside its taint source).
EXPECTED_LEAKS = {
    "none": {"spectre_v1": True, "spectre_v1_ct": True, "spectre_v2": True},
    "stt": {"spectre_v1": False, "spectre_v1_ct": True, "spectre_v2": True},
    "fence": {"spectre_v1": False, "spectre_v1_ct": False, "spectre_v2": False},
    "levioso": {"spectre_v1": False, "spectre_v1_ct": False, "spectre_v2": False},
}


def _gadget_program(name):
    return assemble(GADGETS[name]().source, name=name)


@pytest.mark.parametrize("policy", sorted(EXPECTED_LEAKS))
def test_oracle_matrix_matches_attack_suite(policy):
    for name, want_leak in EXPECTED_LEAKS[policy].items():
        verdict = program_verdict(_gadget_program(name), policy)
        assert verdict.leaks == want_leak, (name, policy, verdict)


#: ``program_verdict`` digests (first 16 hex digits, fills 0x41/0xC3) as
#: simulated fill by fill; a proven first fill must reproduce them.
PINNED_DIGESTS = {
    "spectre_v1/ctt": ("09fe20a00b343ad2", "09fe20a00b343ad2"),
    "spectre_v1/dom": ("d9d5d2d3992b625d", "d9d5d2d3992b625d"),
    "spectre_v1/fence": ("e191264ea3aea425", "e191264ea3aea425"),
    "spectre_v1/levioso": ("09fe20a00b343ad2", "09fe20a00b343ad2"),
    "spectre_v1/nda": ("ba754713d8e86021", "ba754713d8e86021"),
    "spectre_v1/none": ("1bd53140270aaac5", "e4f2fc6eeb7c3f66"),
    "spectre_v1/stt": ("30ff4c33630ad95c", "30ff4c33630ad95c"),
    "spectre_v1_ct/ctt": ("ce9f41003b94591d", "ce9f41003b94591d"),
    "spectre_v1_ct/dom": ("ce9f41003b94591d", "ce9f41003b94591d"),
    "spectre_v1_ct/fence": ("ce9f41003b94591d", "ce9f41003b94591d"),
    "spectre_v1_ct/levioso": ("ce9f41003b94591d", "ce9f41003b94591d"),
    "spectre_v1_ct/nda": ("978fb7160d9aeddd", "7ca6555c7aabd3c4"),
    "spectre_v1_ct/none": ("978fb7160d9aeddd", "7ca6555c7aabd3c4"),
    "spectre_v1_ct/stt": ("978fb7160d9aeddd", "7ca6555c7aabd3c4"),
    "spectre_v2/ctt": ("6c7f0fa07aa86347", "6c7f0fa07aa86347"),
    "spectre_v2/dom": ("ec036693cfe1c89d", "ec036693cfe1c89d"),
    "spectre_v2/fence": ("bd09e37efdb540a8", "bd09e37efdb540a8"),
    "spectre_v2/levioso": ("6c7f0fa07aa86347", "6c7f0fa07aa86347"),
    "spectre_v2/nda": ("12e034543657cf2b", "41fc3bf3b6f7540e"),
    "spectre_v2/none": ("12e034543657cf2b", "41fc3bf3b6f7540e"),
    "spectre_v2/stt": ("12e034543657cf2b", "41fc3bf3b6f7540e"),
}


def test_program_verdict_digests_are_pinned(monkeypatch):
    """The proof lets ``program_verdict`` skip the second fill; verdicts
    and digests stay those of simulating both, and proven pairs cost
    one simulation."""
    import repro.uarch

    runs = []

    class CountingCore(repro.uarch.OooCore):
        def run(self, *args, **kwargs):
            runs.append(self.policy.name)
            return super().run(*args, **kwargs)

    monkeypatch.setattr(repro.uarch, "OooCore", CountingCore)
    for case, pinned in sorted(PINNED_DIGESTS.items()):
        name, policy = case.split("/")
        verdict = program_verdict(_gadget_program(name), policy)
        assert tuple(d[:16] for d in verdict.digests) == pinned, case
        assert verdict.leaks == (pinned[0] != pinned[1]), case
    # fence and levioso hold every gadget's transmit: each pair is proven.
    assert runs.count("fence") == runs.count("levioso") == len(GADGETS)
    assert runs.count("none") == 2 * len(GADGETS)


def test_secret_filled_patches_only_secret_bytes():
    program = _gadget_program("spectre_v1")
    filled = secret_filled(program, 0x7F)
    assert filled.data != program.data
    for offset, (old, new) in enumerate(zip(program.data, filled.data)):
        address = program.data_base + offset
        if program.is_secret_address(address):
            assert new == 0x7F
        else:
            assert new == old
    assert filled.instructions is program.instructions


def test_oracle_requires_two_digests():
    from repro.adversarial import differential_verdict

    with pytest.raises(ValueError):
        differential_verdict("w", "none", ["abc"])
    with pytest.raises(ValueError):
        differential_verdict("w", "none", ["abc", None])


@pytest.mark.parametrize("gadget", sorted(GADGETS))
@pytest.mark.parametrize("strategy", ["load", "branch", "cheapest"])
def test_repair_certifies_every_gadget(gadget, strategy):
    program = _gadget_program(gadget)
    outcome = repair_program(program, strategy=strategy)
    assert outcome.clean
    # Some repair was applied: fences, or a whole mitigation pass
    # (``cheapest`` may find SLH cheaper than any fence placement).
    assert outcome.fences_inserted >= 1 or outcome.mitigation
    assert scan_program(outcome.program).clean
    # Dynamic certification: the repaired binary no longer leaks even on
    # the unprotected core.
    assert not program_verdict(outcome.program, "none").leaks


def test_repair_is_minimal_on_v1():
    # spectre_v1 carries two findings sharing one window; one-site-per-
    # iteration repair must converge with a single fence, not two.
    outcome = repair_program(_gadget_program("spectre_v1"), strategy="load")
    assert outcome.fences_inserted == 1


def test_repair_noop_on_clean_program():
    program = assemble(
        ".text\n    li a0, 7\n    halt\n", name="clean"
    )
    outcome = repair_program(program)
    assert outcome.clean and outcome.fences_inserted == 0
    assert outcome.program is program


def test_finding_ids_stable_and_serialized():
    program = _gadget_program("spectre_v1")
    first = scan_program(program).findings
    second = scan_program(_gadget_program("spectre_v1")).findings
    assert [f.id for f in first] == [f.id for f in second]
    for finding in first:
        payload = finding.to_dict()
        assert payload["id"] == finding.id and len(finding.id) == 12
        assert payload["branch_pc"] == min(finding.guards)
        assert payload["load_pc"] == (
            min(finding.secret_srcs) if finding.secret_srcs else None
        )


def test_insert_fences_splits_labelled_lines():
    program = assemble(
        ".text\n"
        "    li t0, 1\n"
        "target: addi t0, t0, 1\n"
        "    halt\n",
        name="labelled",
    )
    target_pc = program.address_of("target")
    fenced = insert_fences(program, [target_pc])
    # The fence lands after the label: jumps to `target` execute it.
    assert fenced.address_of("target") == target_pc
    assert fenced.inst_at(target_pc).opcode.mnemonic == "fence"


def test_fuzz_names_roundtrip():
    spec = synthesize_item(7, 3)
    name = spec.workload_name(0x41, repaired=True)
    assert parse_fuzz_name(name) == (7, 3, 0x41, True)
    for bad in ("fuzz/s7", "fuzz/s7/i0/f41/extra", "fuzz/s7/i0/fzz"):
        with pytest.raises(KeyError):
            parse_fuzz_name(bad)


def test_fuzz_workload_rebuilds_from_name_alone():
    spec = synthesize_item(11, 2)
    workload = build_fuzz_workload(spec.workload_name(0xC3))
    assert workload.source == synth_source(spec, 0xC3)
    assert workload.category == "adversarial"


def test_campaign_config_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_POLICIES", "fence,levioso")
    monkeypatch.setenv("REPRO_FUZZ_FILLS", "0x11,0x22,0x33")
    config = CampaignConfig.resolve(seed=1, count=4)
    assert config.policies == ("none", "fence", "levioso")  # baseline forced
    assert config.fills == (0x11, 0x22, 0x33)
    monkeypatch.setenv("REPRO_FUZZ_FILLS", "0x41,0x41")
    with pytest.raises(HarnessError):
        CampaignConfig.resolve()
    monkeypatch.setenv("REPRO_FUZZ_FILLS", "junk")
    with pytest.raises(HarnessError):
        CampaignConfig.resolve()


def test_campaign_end_to_end_and_deterministic():
    config = CampaignConfig.resolve(
        seed=7, count=4, policies=("none", "levioso"), repair=True
    )
    reports = [
        run_campaign(config, ParallelRunner(scale="test"))
        for _ in range(2)
    ]
    first, second = (
        json.dumps(r, sort_keys=True) for r in reports
    )
    assert first == second  # byte-identical across same-seed runs
    report = reports[0]
    assert report["gates"]["passed"]
    assert report["gates"]["scanner_recall_intended_leaky"] == 1.0
    assert report["scanner"]["vs_intent"]["overall"]["fp"] == 0
    assert report["repair"]["repaired_items"] == 3
    for row in report["items"]:
        leaky = row["spec"]["intent"] == "leaky"
        assert row["scanner"]["flagged"] == leaky
        assert (row["oracle"]["none"] == "LEAKS") == leaky
        assert row["oracle"]["levioso"] == "SECURE"
        if leaky:
            assert row["repair"]["oracle"]["none"] == "SECURE"
            assert row["repair"]["slowdown"]["none"] >= 1.0


def test_cli_fuzz_and_gates(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([
        "fuzz", "--seed", "7", "--count", "4", "--repair",
        "--policies", "levioso", "--out", str(out),
    ]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["gates"]["passed"]


def test_cli_repair_certifies(capsys):
    assert main(["repair", "spectre_v1", "--strategy", "cheapest"]) == 0
    assert "CERTIFIED SECURE" in capsys.readouterr().out
    assert main(["repair", "spectre_v2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] and payload["after"]["oracle"] == "SECURE"
    assert payload["slowdown"] >= 1.0


def test_cli_lint_counts_expectation(capsys):
    targets = ["spectre_v1", "spectre_v1_ct", "spectre_v2"]
    good = "counts:spectre-v1=2,spectre-v1-ct=1,spectre-v2=1"
    assert main(["lint", *targets, "--expect", good]) == 0
    capsys.readouterr()
    # Wrong total for a listed kind.
    assert main(["lint", *targets, "--expect", "counts:spectre-v1=3"]) == 1
    # Unlisted kinds must be absent: v1-ct/v2 findings fail this one.
    assert main(["lint", *targets, "--expect", "counts:spectre-v1=2"]) == 1
    capsys.readouterr()
    assert main(["lint", "spectre_v1", "--expect", "counts:nope"]) == 2
