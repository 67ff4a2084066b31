"""Differential leakage oracle (SPECTECTOR-style, on the real simulator).

A program leaks under a policy iff two runs that differ *only* in the
declared-secret bytes produce different microarchitectural observation
traces (:class:`~repro.uarch.trace.ObservationTrace`: committed and
transient load/flush addresses, store addresses, branch outcomes and
indirect-jump targets, each with its cycle).  The simulator is
deterministic, so a single pair of secret fills gives a sound *leak*
verdict: any divergence is causally downstream of the secret.  SECURE is
with respect to the observation model and the fill pair — the standard
differential-testing caveat — which is exactly what makes the oracle
usable as ground truth for the scanner's precision/recall.

The oracle consumes :class:`~repro.harness.runner.RunRecord` digests, so
campaign runs fan out through the ordinary parallel runner and run cache;
this module only compares.  :func:`explain_divergence` re-simulates one
pair in-process to name the first diverging event for diagnostics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..asm.program import Program

LEAKS = "LEAKS"
SECURE = "SECURE"

#: Two fills that differ in every nibble (and from the usual 0x00/0xFF
#: initialization patterns), so value-dependent address arithmetic and
#: branch conditions both see the difference.
DEFAULT_FILLS = (0x41, 0xC3)


@dataclass(frozen=True)
class OracleVerdict:
    """Per-(program, policy) differential verdict."""

    workload: str            # base fuzz name (no fill component)
    policy: str
    verdict: str             # LEAKS / SECURE
    digests: tuple[str, ...]  # per-fill observation digests, fill order

    @property
    def leaks(self) -> bool:
        return self.verdict == LEAKS

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "verdict": self.verdict,
            "digests": list(self.digests),
        }


def differential_verdict(
    workload: str, policy: str, digests: list[str]
) -> OracleVerdict:
    """Compare per-fill observation digests into one verdict."""
    if len(digests) < 2 or any(not d for d in digests):
        raise ValueError(
            f"{workload}/{policy}: need >=2 observation digests, "
            f"got {digests!r}"
        )
    verdict = SECURE if len(set(digests)) == 1 else LEAKS
    return OracleVerdict(
        workload=workload, policy=policy, verdict=verdict,
        digests=tuple(digests),
    )


def secret_filled(program: "Program", fill: int) -> "Program":
    """Copy of ``program`` with every declared-secret byte set to ``fill``.

    The generic fill mechanism for arbitrary targets (synthesized fuzz
    items instead embed the fill in their source, because their workload
    *name* must encode it); instructions and metadata are shared, only
    the data image is replaced.
    """
    if not 0 <= fill <= 255:
        raise ValueError(f"fill {fill:#x} is not a byte")
    data = bytearray(program.data)
    for rng in program.secret_ranges:
        lo = max(rng.start - program.data_base, 0)
        hi = min(rng.end - program.data_base, len(data))
        for i in range(lo, hi):
            data[i] = fill
    return dataclasses.replace(program, data=bytes(data))


def program_verdict(
    program: "Program",
    policy: str,
    fills: tuple[int, ...] = DEFAULT_FILLS,
) -> OracleVerdict:
    """Judge one in-memory program under one policy (serial, uncached).

    Campaigns go through the parallel runner instead; this is the
    entrypoint for ``repro repair``, ``repro mitigate`` and tests.  A
    program with no ``.secret`` ranges is trivially SECURE (identical
    images).  The first fill is simulated; when its core proves the run
    fill-independent (DESIGN.md §15), every other fill would repeat it
    exactly, so its digest stands for them too.
    """
    from ..secure import make_policy
    from ..uarch import OooCore

    def run(fill: int) -> OooCore:
        core = OooCore(
            secret_filled(program, fill),
            policy=make_policy(policy),
            record_observations=True,
        )
        core.run()
        return core

    first = run(fills[0])
    digests = [first.observations.digest()]
    if first.fill_independent():
        digests *= len(fills)
    else:
        digests += [run(fill).observations.digest() for fill in fills[1:]]
    return differential_verdict(program.name, policy, digests)


def explain_divergence(
    source_by_fill: dict[int, str], policy: str
) -> dict | None:
    """Re-simulate one fill pair in-process and name the first divergence.

    Diagnostic-only (campaigns compare cached digests); returns None when
    the traces are identical.
    """
    from ..asm import assemble
    from ..secure import make_policy
    from ..uarch import OooCore, first_divergence

    traces = []
    for fill, source in sorted(source_by_fill.items()):
        core = OooCore(
            assemble(source),
            policy=make_policy(policy),
            record_observations=True,
        )
        core.run()
        traces.append(core.observations)
    div = first_divergence(traces[0], traces[1])
    if div is None:
        return None
    index, a, b = div
    def fmt(event):
        if event is None:
            return None
        kind, pc, value, cycle, transient = event
        return {
            "kind": kind, "pc": pc, "value": value, "cycle": cycle,
            "transient": transient,
        }
    return {"index": index, "a": fmt(a), "b": fmt(b)}
