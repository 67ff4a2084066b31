"""Fuzz campaign driver: synthesize → scan → oracle → repair → report.

A campaign is just another experiment grid: every (item, policy, fill)
triple becomes a :class:`~repro.harness.parallel.GridPoint` with
``observe=True``, prefetched through the ordinary parallel runner — so
campaigns get lockstep batching, supervised retries and the persistent
run cache for free, and re-running a seed is mostly cache hits.  Fuzz
workload names are self-describing (``fuzz/s<seed>/i<index>/f<fill>``),
so workers rebuild their programs without a corpus file.  The two fills
of one (item, policy) are *fill twins* that the planner keeps in one work
item: the worker simulates the first fill, and when secret labels prove
that run fill-independent the second fill's record is a copy of it
(DESIGN.md §15).  A leaking pair is never proven, so it still simulates
both fills.

The report cross-validates the static scanner against the differential
oracle: per gadget class, a confusion matrix of scanner verdicts vs (a)
the synthesizer's ground-truth intent and (b) the oracle's verdict under
the unprotected baseline.  With ``repair=True``, every program either
tool calls leaky is driven through the fence-repair loop and re-judged —
the campaign's gates demand zero scanner false negatives on
intended-leaky items and zero oracle-confirmed leaks surviving repair.

The report is deterministic for a given (seed, count, policies, fills):
no timestamps, stable ordering — byte-identical JSON across runs is a CI
gate and a hypothesis property.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import HarnessError
from ..harness.parallel import GridPoint, ParallelRunner
from ..workloads.build_cache import BUILD_CACHE
from .oracle import DEFAULT_FILLS, OracleVerdict, differential_verdict
from .repair import RepairOutcome
from .synth import SynthSpec, secret_fill, synth_source, synthesize_item

#: Baseline + the cheap fence scheme + the paper's scheme.  The baseline
#: is mandatory (it is the oracle's ground truth and the overhead
#: denominator).  Override: ``REPRO_FUZZ_POLICIES=none,stt,levioso``.
DEFAULT_POLICIES = ("none", "fence", "levioso")


def _env_tuple(var: str, parse) -> tuple | None:
    raw = os.environ.get(var)
    if not raw:
        return None
    try:
        values = tuple(parse(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise HarnessError(f"malformed {var}={raw!r}: {exc}") from None
    if not values:
        return None
    return values


@dataclass(frozen=True)
class CampaignConfig:
    """Resolved parameters of one fuzz campaign."""

    seed: int
    count: int
    policies: tuple[str, ...]
    fills: tuple[int, ...]
    repair: bool

    @classmethod
    def resolve(
        cls,
        seed: int = 7,
        count: int = 32,
        policies: tuple[str, ...] | None = None,
        fills: tuple[int, ...] | None = None,
        repair: bool = False,
    ) -> "CampaignConfig":
        """Apply env overrides and invariants (baseline always present)."""
        if policies is None:
            policies = _env_tuple("REPRO_FUZZ_POLICIES", str) or DEFAULT_POLICIES
        if fills is None:
            fills = _env_tuple(
                "REPRO_FUZZ_FILLS", lambda s: int(s, 0)
            ) or DEFAULT_FILLS
        if "none" not in policies:
            policies = ("none", *policies)
        if len(set(fills)) < 2:
            raise HarnessError(
                f"a differential campaign needs >=2 distinct secret fills, "
                f"got {[hex(f) for f in fills]}"
            )
        for fill in fills:
            if not 1 <= fill <= 255:
                raise HarnessError(f"fill {fill:#x} outside 1..255")
        return cls(
            seed=seed, count=count, policies=tuple(policies),
            fills=tuple(fills), repair=repair,
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "policies": list(self.policies),
            "fills": [f"{f:#04x}" for f in self.fills],
            "repair": self.repair,
        }


def _confusion(pairs: list[tuple[bool, bool]]) -> dict:
    """(truth, predicted) pairs -> confusion counts + precision/recall."""
    tp = sum(1 for t, p in pairs if t and p)
    fp = sum(1 for t, p in pairs if not t and p)
    fn = sum(1 for t, p in pairs if t and not p)
    tn = sum(1 for t, p in pairs if not t and not p)
    return {
        "tp": tp, "fp": fp, "fn": fn, "tn": tn,
        "precision": tp / (tp + fp) if tp + fp else 1.0,
        "recall": tp / (tp + fn) if tp + fn else 1.0,
    }


def _by_class(
    items: list[SynthSpec], truth: dict[str, bool], predicted: dict[str, bool]
) -> dict:
    classes: dict[str, list[tuple[bool, bool]]] = {}
    for spec in items:
        classes.setdefault(spec.skeleton, []).append(
            (truth[spec.name], predicted[spec.name])
        )
    out = {cls: _confusion(pairs) for cls, pairs in sorted(classes.items())}
    out["overall"] = _confusion(
        [(truth[s.name], predicted[s.name]) for s in items]
    )
    return out


def campaign_grid(config: CampaignConfig) -> list[GridPoint]:
    """The prefetch grid: every (item, policy, fill), observed."""
    points = []
    for index in range(config.count):
        spec = synthesize_item(config.seed, index)
        for policy in config.policies:
            for fill in config.fills:
                points.append(
                    GridPoint(spec.workload_name(fill), policy, observe=True)
                )
    return points


def run_campaign(config: CampaignConfig, runner: ParallelRunner) -> dict:
    """Run one campaign end-to-end; returns the deterministic report."""
    items = [synthesize_item(config.seed, i) for i in range(config.count)]
    # Every program is built, scanned and repaired once, through the
    # build cache the runner's workloads draw from too.
    builds = {
        spec.name: (
            synth_source(spec, config.fills[0]),
            spec.name,
            secret_fill(spec, config.fills[0]),
        )
        for spec in items
    }

    # Static phase (in-driver; the scanner is fill-independent because
    # taint is seeded from .secret *ranges*, never from secret values).
    reports = {
        spec.name: BUILD_CACHE.scan(*builds[spec.name]) for spec in items
    }
    flagged = {name: not report.clean for name, report in reports.items()}

    # Dynamic phase: the whole corpus through the parallel runner.
    runner.prefetch(campaign_grid(config))
    verdicts: dict[str, dict[str, OracleVerdict]] = {}
    for spec in items:
        verdicts[spec.name] = {}
        for policy in config.policies:
            digests = [
                runner.run(
                    spec.workload_name(fill), policy, observe=True
                ).obs_digest
                for fill in config.fills
            ]
            verdicts[spec.name][policy] = differential_verdict(
                spec.name, policy, digests
            )
    oracle_leaky = {
        spec.name: verdicts[spec.name]["none"].leaks for spec in items
    }

    # Repair phase: anything either tool calls leaky goes through the
    # loop.  A scanner miss (oracle-leaky, zero findings) leaves the
    # repairer nothing to fence — it surfaces as a gate failure below,
    # never as a silent skip.
    repair_outcomes: dict[str, RepairOutcome] = {}
    repaired_verdicts: dict[str, dict[str, OracleVerdict]] = {}
    overhead: dict[str, dict[str, float]] = {}
    if config.repair:
        targets = [
            spec for spec in items
            if flagged[spec.name] or oracle_leaky[spec.name]
        ]
        for spec in targets:
            repair_outcomes[spec.name] = BUILD_CACHE.repair(
                *builds[spec.name]
            )
        runner.prefetch(
            GridPoint(spec.workload_name(fill, repaired=True), policy,
                      observe=True)
            for spec in targets
            for policy in config.policies
            for fill in config.fills
        )
        for spec in targets:
            repaired_verdicts[spec.name] = {}
            overhead[spec.name] = {}
            for policy in config.policies:
                records = [
                    runner.run(
                        spec.workload_name(fill, repaired=True), policy,
                        observe=True,
                    )
                    for fill in config.fills
                ]
                repaired_verdicts[spec.name][policy] = differential_verdict(
                    f"{spec.name}/repaired", policy,
                    [r.obs_digest for r in records],
                )
                baseline = runner.run(
                    spec.workload_name(config.fills[0]), policy, observe=True
                )
                overhead[spec.name][policy] = (
                    records[0].cycles / baseline.cycles
                )

    # Report assembly (sorted, timestamp-free: byte-identical per seed).
    intent = {spec.name: spec.intent == "leaky" for spec in items}
    item_rows = []
    for spec in items:
        row = {
            "name": spec.name,
            "spec": spec.to_dict(),
            "scanner": {
                "flagged": flagged[spec.name],
                "counts": reports[spec.name].counts_by_kind(),
                "findings": [
                    f.to_dict() for f in reports[spec.name].findings
                ],
            },
            "oracle": {
                policy: verdicts[spec.name][policy].verdict
                for policy in config.policies
            },
        }
        if spec.name in repair_outcomes:
            outcome = repair_outcomes[spec.name]
            row["repair"] = {
                "fences_inserted": outcome.fences_inserted,
                "iterations": outcome.iterations,
                "scanner_clean": outcome.clean,
                "steps": outcome.steps,
                "oracle": {
                    policy: repaired_verdicts[spec.name][policy].verdict
                    for policy in config.policies
                },
                "slowdown": {
                    policy: round(overhead[spec.name][policy], 4)
                    for policy in config.policies
                },
            }
        item_rows.append(row)

    repair_summary: dict = {"repaired_items": len(repair_outcomes)}
    if repair_outcomes:
        names = sorted(repair_outcomes)
        repair_summary["mean_fences"] = round(
            sum(o.fences_inserted for o in repair_outcomes.values())
            / len(repair_outcomes),
            4,
        )
        repair_summary["mean_slowdown"] = {
            policy: round(
                sum(overhead[n][policy] for n in names) / len(names), 4
            )
            for policy in config.policies
        }
        repair_summary["all_scanner_clean"] = all(
            o.clean for o in repair_outcomes.values()
        )

    leaks_after_repair = sum(
        1
        for per_policy in repaired_verdicts.values()
        for verdict in per_policy.values()
        if verdict.leaks
    )
    false_negatives = sum(
        1 for spec in items if intent[spec.name] and not flagged[spec.name]
    )
    vs_intent = _by_class(items, intent, flagged)
    gates = {
        "scanner_recall_intended_leaky": vs_intent["overall"]["recall"],
        "scanner_false_negatives": false_negatives,
        "oracle_leaks_after_repair": leaks_after_repair,
        "passed": false_negatives == 0
        and (not config.repair or leaks_after_repair == 0),
    }
    return {
        "campaign": config.to_dict(),
        "gates": gates,
        "scanner": {
            "vs_intent": vs_intent,
            "vs_oracle_none": _by_class(items, oracle_leaky, flagged),
        },
        "repair": repair_summary,
        "items": item_rows,
    }
