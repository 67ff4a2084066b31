"""Common experiment-result container and the claim helper.

Every experiment module pairs ``run()`` with ``check(result) -> list[str]``:
the paper's shape claims about that figure, evaluated on the regenerated
result.  ``run_experiments`` always calls it; an empty list means every
claim holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """One regenerated table/figure.

    ``rows`` carry the machine-readable data (used by ``check`` and tests);
    ``text()`` renders what the paper's table/figure reports.
    ``failed_claims`` is filled by ``run_experiments`` from the module's
    ``check``.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    extras: dict = field(default_factory=dict)
    failed_claims: list[str] = field(default_factory=list)

    def text(self) -> str:
        from ..tables import format_table

        out = format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        if self.notes:
            out += f"\n{self.notes}"
        return out


def unmet(claims: dict[str, bool], detail: str = "") -> list[str]:
    """Names of the claims that do not hold, each followed by ``detail``."""
    suffix = f" ({detail})" if detail else ""
    return [name + suffix for name, held in claims.items() if not held]


def percents(values: dict[str, float]) -> str:
    """``{"fence": 0.486, ...}`` -> ``"fence 48.6%, ..."`` for claim details."""
    return ", ".join(f"{key} {100 * value:.1f}%" for key, value in values.items())
