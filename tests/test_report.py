"""EXPERIMENTS.md's record section, rendered from in-memory results."""

from repro.harness.experiments import ExperimentResult
from repro.harness.report import render_record, update_experiments_md


def _results():
    return [
        ExperimentResult("fig2", "overheads", ["benchmark", "levioso"], [["gather", 0.0]]),
        ExperimentResult("fig5", "security", ["attack", "levioso"], [["spectre_v1", "safe"]]),
    ]


def test_render_record_keeps_the_given_order():
    record = render_record(_results(), scale="ref")
    assert record.startswith("## Recorded numbers (ref scale)")
    assert "repro report --scale ref" in record
    assert record.index("fig2: overheads") < record.index("fig5: security")
    assert record.count("```") == 4


def test_update_experiments_md(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("# header\n\nprose\n\n## Recorded numbers\n\nold stuff\n")
    assert update_experiments_md(doc, _results(), scale="test")
    text = doc.read_text()
    assert "fig2: overheads" in text and "fig5: security" in text
    assert "old stuff" not in text
    assert text.startswith("# header")


def test_update_without_marker_is_noop(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("no marker here\n")
    assert not update_experiments_md(doc, _results())
    assert doc.read_text() == "no marker here\n"
