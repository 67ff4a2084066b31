"""Fig. 5 / security table: attack outcomes under every policy."""

from __future__ import annotations

from ...attacks import ATTACKS, leak_rate, security_matrix
from .base import ExperimentResult, unmet

POLICIES = ("none", "stt", "nda", "fence", "dom", "ctt", "levioso")


def run(
    policies: tuple[str, ...] = POLICIES,
    secrets: tuple[int, ...] = (0x5A, 0xA7, 0x11),
) -> ExperimentResult:
    matrix = security_matrix(policies, secrets=secrets)
    rows = []
    outcomes = {}
    for attack in ATTACKS:
        row = [attack]
        for policy in policies:
            rate = leak_rate(matrix[(attack, policy)])
            outcomes[(attack, policy)] = rate
            row.append("LEAK" if rate > 0 else "safe")
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig5",
        title="Security evaluation: secret recovery via the cache channel",
        headers=["attack", *policies],
        rows=rows,
        notes=(
            "spectre_v1 = speculatively accessed secret (sandbox model); "
            "spectre_v1_ct = non-speculatively accessed secret (constant-time "
            "model).  STT is expected to fail the latter."
        ),
        extras={"leak_rates": outcomes},
    )


def check(result: ExperimentResult) -> list[str]:
    rates = result.extras["leak_rates"]
    attacks = ("spectre_v1", "spectre_v2", "spectre_v1_ct")
    # Unprotected leaks every attack, every trial.
    claims = {f"{a} leaks every trial under none": rates[(a, "none")] == 1.0
              for a in attacks}
    # STT blocks the sandbox attack but not the non-speculative-secret ones;
    # NDA likewise protects speculative secrets only.
    claims["spectre_v1 blocked under stt"] = rates[("spectre_v1", "stt")] == 0.0
    claims["spectre_v1_ct leaks every trial under stt"] = rates[("spectre_v1_ct", "stt")] == 1.0
    claims["spectre_v2 leaks every trial under stt"] = rates[("spectre_v2", "stt")] == 1.0
    claims["spectre_v1 blocked under nda"] = rates[("spectre_v1", "nda")] == 0.0
    claims["spectre_v2 leaks every trial under nda"] = rates[("spectre_v2", "nda")] == 1.0
    # Every comprehensive policy blocks everything.
    for policy in ("fence", "dom", "ctt", "levioso"):
        for attack in attacks:
            claims[f"{attack} blocked under {policy}"] = rates[(attack, policy)] == 0.0
    return unmet(claims)
