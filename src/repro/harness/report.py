"""Report helpers: resilience digests and EXPERIMENTS.md's record section.

``repro report`` regenerates every registered experiment in memory and
rewrites the "Recorded" section of EXPERIMENTS.md from the results, so the
measured record never drifts from what the harness actually produced.
"""

from __future__ import annotations

import pathlib


def resilience_summary(report) -> dict:
    """Machine-readable digest of a supervised grid execution.

    ``report`` is a :class:`~repro.harness.resilience.ResilienceReport`;
    the digest carries the per-status counts, every non-ok outcome (with
    its traceback text), and the supervisor-level events (pool rebuilds,
    serial degradation) — what a CI chaos job or dashboard ingests.
    """
    return {
        "counts": report.counts,
        "ok": report.ok,
        "pool_rebuilds": report.pool_rebuilds,
        "degraded_to_serial": report.degraded_to_serial,
        "recovered": [o.as_dict() for o in report.recovered],
        "failed": [o.as_dict() for o in report.failed],
    }


def render_resilience(report) -> str:
    """Human-readable resilience section for CLI / experiment output."""
    return report.text()


def analysis_summary(programs) -> dict[str, dict[str, int]]:
    """Static-analysis counters per program (Table 2's scanner column).

    Keyed by program name; each entry carries ``flagged_transmitters``
    plus per-kind finding counts from the Spectre-gadget scanner.
    """
    from ..analysis import scan_counters

    return {program.name: scan_counters(program) for program in programs}


MARKER = "## Recorded"


def render_record(results, scale: str = "test") -> str:
    """Markdown section embedding each result's table, in the given order."""
    lines = [
        f"## Recorded numbers ({scale} scale)",
        "",
        f"Regenerated by `python -m repro report --scale {scale}`, which also",
        "checks every experiment's claims; the blocks below are verbatim",
        "harness output.",
        "",
    ]
    for result in results:
        lines += ["```", result.text().rstrip(), "```", ""]
    return "\n".join(lines).rstrip() + "\n"


def update_experiments_md(
    experiments_path: str | pathlib.Path,
    results,
    scale: str = "test",
) -> bool:
    """Replace everything from the "## Recorded" marker onward.

    Returns True when the file was rewritten, False when it has no marker.
    """
    path = pathlib.Path(experiments_path)
    text = path.read_text()
    index = text.find(MARKER)
    if index < 0:
        return False
    path.write_text(text[:index] + render_record(results, scale))
    return True
