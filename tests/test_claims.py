"""Each experiment's shape claims have teeth.

A hand-built result that meets the paper's shape passes ``check`` with no
failures; breaking one number makes ``check`` name the broken claim.  The
CLI turns any failed claim into exit 1.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.harness.experiments import EXPERIMENTS, ExperimentResult

ATTACKS = ("spectre_v1", "spectre_v2", "spectre_v1_ct")


def _result(experiment_id: str, rows=(), **extras) -> ExperimentResult:
    return ExperimentResult(experiment_id, "hand-built", [], list(rows), extras=extras)


def _leak_rates(**overrides) -> dict:
    leaky = {("spectre_v1", "none"), ("spectre_v2", "none"), ("spectre_v1_ct", "none"),
             ("spectre_v2", "stt"), ("spectre_v1_ct", "stt"),
             ("spectre_v2", "nda"), ("spectre_v1_ct", "nda")}
    rates = {(a, p): float((a, p) in leaky)
             for a in ATTACKS
             for p in ("none", "stt", "nda", "fence", "dom", "ctt", "levioso")}
    for key, rate in overrides.items():
        attack, policy = key.rsplit("__", 1)
        rates[(attack, policy)] = rate
    return rates


def _series(points: dict[str, list[float]], settings) -> dict:
    return {p: list(zip(settings, values)) for p, values in points.items()}


TABLE2_ROW = ["gather", 26, 2, 1.0, 9.0, 1.0, 0.615, 0]

#: experiment id -> (a result meeting every claim, {claim: a broken result}).
CASES = {
    "table1": (
        _result("table1", [["Pipeline width", ""], ["ROB / IQ / LQ / SQ", ""],
                           ["L1D", ""], ["DRAM", ""]]),
        {"lists pipeline width": _result("table1", [["Pipeline width", ""]])},
    ),
    "table2": (
        _result("table2", [TABLE2_ROW] * 14),
        {
            "one row per SPEClite kernel": _result("table2", [TABLE2_ROW] * 13),
            "reconv coverage 0.85 >= 0.9": _result(
                "table2", [TABLE2_ROW] * 13 + [["sort", 31, 4, 0.85, 8.0, 1.5, 0.6, 0]]),
            "within [0, 1]": _result(
                "table2", [TABLE2_ROW] * 13 + [["sort", 31, 4, 1.2, 8.0, 1.5, 0.6, 0]]),
        },
    ),
    "fig1": (
        _result("fig1", mean_conservative=0.454, mean_true=0.076),
        {
            "> 10 pp of headroom": _result("fig1", mean_conservative=0.30, mean_true=0.25),
            "true-dep mean < conservative mean": _result(
                "fig1", mean_conservative=0.2, mean_true=0.3),
        },
    ),
    "fig2": (
        _result("fig2", geomeans={"fence": 0.486, "ctt": 0.442, "levioso": 0.045}),
        {
            "levioso < ctt <= fence": _result(
                "fig2", geomeans={"fence": 0.486, "ctt": 0.442, "levioso": 0.45}),
            "fence > 10%": _result(
                "fig2", geomeans={"fence": 0.09, "ctt": 0.08, "levioso": 0.01}),
            "ctt > 5%": _result(
                "fig2", geomeans={"fence": 0.486, "ctt": 0.04, "levioso": 0.01}),
            "levioso < 0.65 x ctt": _result(
                "fig2", geomeans={"fence": 0.486, "ctt": 0.442, "levioso": 0.30}),
        },
    ),
    "fig3": (
        _result("fig3", totals={"fence": [160.6], "ctt": [152.8], "levioso": [25.2]}),
        {
            "levioso < ctt <= 1.5 x fence": _result(
                "fig3", totals={"fence": [100.0], "ctt": [160.0], "levioso": [25.2]}),
            "fence > levioso": _result(
                "fig3", totals={"fence": [20.0], "ctt": [26.0], "levioso": [25.0]}),
        },
    ),
    "fig4": (
        _result("fig4", series=_series(
            {"fence": [0.635, 0.897], "ctt": [0.607, 0.864], "levioso": [0.084, 0.083]},
            (64, 192))),
        {
            "levioso <= ctt <= 1.05 x fence at ROB 192": _result("fig4", series=_series(
                {"fence": [0.635, 0.5], "ctt": [0.607, 0.864], "levioso": [0.084, 0.083]},
                (64, 192))),
            "rows share ROB 64": _result("fig4", series={
                "fence": [(64, 0.6)], "ctt": [(128, 0.5)], "levioso": [(64, 0.1)]}),
        },
    ),
    "fig4b": (
        _result("fig4b", series=_series(
            {"fence": [0.857, 1.159], "ctt": [0.851, 1.06], "levioso": [0.078, 0.178]},
            (1, 4))),
        {
            "fence at latency 4 >= at latency 1": _result("fig4b", series=_series(
                {"fence": [0.857, 0.8], "ctt": [0.7, 0.75], "levioso": [0.078, 0.178]},
                (1, 4))),
            "levioso <= ctt <= 1.05 x fence at latency 1": _result("fig4b", series=_series(
                {"fence": [0.857, 1.159], "ctt": [0.851, 1.06], "levioso": [0.9, 0.178]},
                (1, 4))),
        },
    ),
    "fig5": (
        _result("fig5", leak_rates=_leak_rates()),
        {
            "spectre_v1 blocked under levioso": _result(
                "fig5", leak_rates=_leak_rates(spectre_v1__levioso=1.0)),
            "spectre_v2 leaks every trial under none": _result(
                "fig5", leak_rates=_leak_rates(spectre_v2__none=0.5)),
            "spectre_v1_ct leaks every trial under stt": _result(
                "fig5", leak_rates=_leak_rates(spectre_v1_ct__stt=0.0)),
        },
    ),
    "ablationA": (
        _result("ablationA", geomean_informed=0.055, geomean_blind=0.691, geomean_ctt=0.691),
        {
            "levioso < levioso without metadata": _result(
                "ablationA", geomean_informed=0.7, geomean_blind=0.691, geomean_ctt=0.691),
            "levioso without metadata >= 0.8 x ctt": _result(
                "ablationA", geomean_informed=0.055, geomean_blind=0.3, geomean_ctt=0.691),
        },
    ),
    "ablationB": (
        _result("ablationB", geomeans={"stt": 0.032, "ctt": 0.442, "levioso": 0.045}),
        {
            "stt <= ctt": _result(
                "ablationB", geomeans={"stt": 0.5, "ctt": 0.442, "levioso": 0.045}),
            "levioso < ctt": _result(
                "ablationB", geomeans={"stt": 0.032, "ctt": 0.442, "levioso": 0.442}),
        },
    ),
    "ablationC": (
        _result("ablationC", series=[("1", 0.083), ("4", 0.083), ("unbounded", 0.083)]),
        {
            "width 4 >= unbounded": _result(
                "ablationC", series=[("1", 0.09), ("4", 0.05), ("unbounded", 0.083)]),
            "width 1 >= width 4": _result(
                "ablationC", series=[("1", 0.05), ("4", 0.083), ("unbounded", 0.083)]),
            "width 4 <= 1.25 x unbounded + 2 pp": _result(
                "ablationC", series=[("1", 0.3), ("4", 0.2), ("unbounded", 0.083)]),
        },
    ),
    "energy": (
        _result("energy", geomeans={"fence": (0.106, 0.738), "ctt": (0.101, 0.702),
                                    "levioso": (0.025, 0.081)}),
        {
            "levioso EDP < ctt EDP <= 1.1 x fence EDP": _result(
                "energy", geomeans={"fence": (0.106, 0.5), "ctt": (0.101, 0.702),
                                    "levioso": (0.025, 0.081)}),
            "levioso energy <= ctt energy + 1 pp": _result(
                "energy", geomeans={"fence": (0.106, 0.738), "ctt": (0.101, 0.702),
                                    "levioso": (0.2, 0.081)}),
        },
    ),
    "swcmp": (
        _result("swcmp", geomeans={"sw:fence": 0.974, "sw:slh": 0.779, "hw:fence": 0.486,
                                   "hw:ctt": 0.442, "hw:levioso": 0.045}),
        {
            "sw:fence > sw:slh > hw:fence > hw:ctt > hw:levioso": _result(
                "swcmp", geomeans={"sw:fence": 0.4, "sw:slh": 0.779, "hw:fence": 0.486,
                                   "hw:ctt": 0.442, "hw:levioso": 0.045}),
        },
    ),
}


def test_every_registered_experiment_has_claim_cases():
    assert set(CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(CASES))
def test_shape_claims_hold_on_a_good_result(experiment_id):
    good, _ = CASES[experiment_id]
    assert EXPERIMENTS[experiment_id].check(good) == []


@pytest.mark.parametrize(
    "experiment_id,claim",
    [(e, claim) for e, (_, broken) in sorted(CASES.items()) for claim in broken],
)
def test_a_broken_result_names_its_claim(experiment_id, claim):
    failed = EXPERIMENTS[experiment_id].check(CASES[experiment_id][1][claim])
    assert failed, f"{experiment_id}: breaking {claim!r} went unnoticed"
    assert any(claim in message for message in failed), failed


def test_cli_experiment_exits_1_and_names_a_failed_claim(monkeypatch, capsys):
    table1 = EXPERIMENTS["table1"]
    monkeypatch.setattr(table1, "check", lambda result: ["the sky is green"])
    assert main(["experiment", "table1"]) == 1
    captured = capsys.readouterr()
    assert "ROB" in captured.out  # the table still prints
    assert "claim failed: table1: the sky is green" in captured.err


def test_cli_report_leaves_the_record_alone_when_a_claim_fails(
        monkeypatch, tmp_path, capsys):
    import repro.cli as cli
    from repro.harness.experiments import table1

    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("# header\n\n## Recorded numbers\n\nold\n")
    result = table1.run()
    result.failed_claims = ["the sky is green"]
    monkeypatch.setattr(cli, "run_experiments", lambda ids, scale: {"table1": result})
    assert main(["report", "--experiments", str(doc)]) == 1
    assert "claim failed: table1: the sky is green" in capsys.readouterr().err
    assert doc.read_text().endswith("old\n")

    result.failed_claims = []
    assert main(["report", "--experiments", str(doc)]) == 0
    assert "table1: Simulated processor configuration" in doc.read_text()
