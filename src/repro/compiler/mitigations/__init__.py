"""Secure-compiler mitigation passes: software baselines for the grid.

Four source-level program transforms, each certified two ways (see
:mod:`.certify`) and exposed as first-class ``mit/<pass>/<workload>``
grid-axis values so mitigated variants ride the run cache, the lockstep
vectorizer, and the simulation service exactly like any other workload:

========== ==========================================================
``fence``      fence at every speculation entry point (blunt baseline)
``slh``        conservative speculative load hardening — predicate
               threaded through every branch, every access masked
``slh-lifted`` index-masking SLH: only scanner-flagged transmitters
               and their guards ("Do You Even Lift?")
``selective``  fence only scanner-flagged transmitter windows
========== ==========================================================

Pass versions feed the run-cache fingerprint via ``mitigation_tag`` so
results from different pass generations are never conflated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ...asm.program import Program
from ...errors import AnalysisError
from .certify import MitigationCertificate, certify
from .fencing import full_fence, selective_fence
from .slh import conservative_slh, lifted_slh

#: Bump a pass's version whenever its emitted code changes: the version is
#: part of the mitigation tag, which is part of the workload fingerprint.
PASS_VERSIONS: dict[str, int] = {
    "fence": 1,
    "slh": 1,
    "slh-lifted": 1,
    "selective": 1,
}

MITIGATION_PASSES: tuple[str, ...] = tuple(PASS_VERSIONS)

_PASSES = {
    "fence": full_fence,
    "slh": conservative_slh,
    "slh-lifted": lifted_slh,
    "selective": selective_fence,
}

_MIT_NAME_RE = re.compile(r"^mit/(?P<pass>[a-z][a-z-]*)/(?P<base>.+)$")


def mitigation_tag(pass_name: str) -> str:
    """Cache-fingerprint tag for a pass, e.g. ``slh@v1``."""
    return f"{pass_name}@v{PASS_VERSIONS[pass_name]}"


@dataclass
class MitigationResult:
    """One pass application: the mitigated program plus bookkeeping."""

    program: Program
    pass_name: str
    version: int
    changed: bool
    stats: dict = field(default_factory=dict)
    # Original pc -> mitigated continuation pc (rewriter relocation map);
    # the equivalence checker uses it to relocate return addresses.
    pc_map: dict = field(default_factory=dict, repr=False)

    @property
    def tag(self) -> str:
        return f"{self.pass_name}@v{self.version}"


def apply_mitigation(
    program: Program, pass_name: str, name: str | None = None
) -> MitigationResult:
    """Run one mitigation pass over an in-memory program."""
    if pass_name not in _PASSES:
        raise AnalysisError(
            f"unknown mitigation pass {pass_name!r}; "
            f"know {sorted(_PASSES)}"
        )
    mitigated, stats = _PASSES[pass_name](program, name=name)
    pc_map = stats.pop("pc_map", {})
    return MitigationResult(
        program=mitigated,
        pass_name=pass_name,
        version=PASS_VERSIONS[pass_name],
        changed=mitigated is not program,
        stats=stats,
        pc_map=pc_map,
    )


def certify_mitigation(
    program: Program, pass_name: str, name: str | None = None
) -> tuple[MitigationResult, MitigationCertificate]:
    """Apply a pass and certify the result (equivalence + security)."""
    result = apply_mitigation(program, pass_name, name=name)
    certificate = certify(
        program, result.program, pass_name, result.version,
        stats=result.stats, pc_map=result.pc_map,
    )
    return result, certificate


def parse_mit_name(name: str) -> tuple[str, str] | None:
    """Split ``mit/<pass>/<base>`` into (pass, base); None if not mit-shaped."""
    match = _MIT_NAME_RE.match(name)
    if match is None:
        return None
    pass_name = match.group("pass")
    if pass_name not in _PASSES:
        raise AnalysisError(
            f"unknown mitigation pass in workload name {name!r}; "
            f"know {sorted(_PASSES)}"
        )
    return pass_name, match.group("base")


def build_mitigated_workload(name: str, scale: str = "ref"):
    """Build a ``mit/<pass>/<base>`` workload: mitigate base, keep checks.

    The mitigated source round-trips through plain assembly text (the
    ``.slhmask`` directive included), so any pool worker can rebuild the
    exact image from the name alone — the mitigation axis needs no corpus
    file, same as ``fuzz/`` names.
    """
    from ...workloads.spec import Workload
    from ...workloads.suite import build_workload

    parsed = parse_mit_name(name)
    if parsed is None:
        raise AnalysisError(f"not a mitigated-workload name: {name!r}")
    pass_name, base_name = parsed
    base = build_workload(base_name, scale)
    result = apply_mitigation(base.assemble(), pass_name, name=name)
    if result.program.source is None:  # pragma: no cover - rewriter guarantees
        raise AnalysisError(f"pass {pass_name!r} dropped source for {name!r}")
    return Workload(
        name=name,
        source=result.program.source,
        description=f"{base.description} [{result.tag}]",
        category=base.category,
        check_reg=base.check_reg,
        check_value=base.check_value,
        mitigation=result.tag,
    )


__all__ = [
    "MITIGATION_PASSES",
    "PASS_VERSIONS",
    "MitigationCertificate",
    "MitigationResult",
    "apply_mitigation",
    "build_mitigated_workload",
    "certify",
    "certify_mitigation",
    "conservative_slh",
    "full_fence",
    "lifted_slh",
    "mitigation_tag",
    "parse_mit_name",
    "selective_fence",
]
