"""Fast experiment-module tests.

The simulation-heavy figures are regenerated, and their claims checked, by
``repro report`` and ``repro experiment``; their claims' own logic is
covered by ``test_claims.py``.
"""

from repro.harness.experiments import fig5, table1, table2


def test_table1_renders():
    result = table1.run()
    text = result.text()
    assert "Simulated processor configuration" in text
    assert "192" in text  # ROB size appears
    assert table1.check(result) == []


def test_table2_runs_at_test_scale():
    result = table2.run(scale="test")
    assert len(result.rows) == 14
    names = {row[0] for row in result.rows}
    assert "gather" in names and "cipher" in names
    assert table2.check(result) == []


def test_fig5_matrix_shape():
    result = fig5.run(policies=("none", "stt", "levioso"), secrets=(0x5A,))
    rates = result.extras["leak_rates"]
    assert rates[("spectre_v1", "none")] == 1.0
    assert rates[("spectre_v1", "levioso")] == 0.0
    assert rates[("spectre_v1_ct", "stt")] == 1.0
    # Rendered cells say LEAK/safe
    flat = result.text()
    assert "LEAK" in flat and "safe" in flat
