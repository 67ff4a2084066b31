"""Automatic repair: fence loops plus whole-pass mitigation strategies.

The classic fence strategies insert exactly one fence per iteration (the
lowest-pc finding first), because a batch insert is not minimal: a v1
gadget often carries two findings whose *load*-strategy sites collapse
once the first fence closes the shared window, so fencing them together
wastes a fence the rescan would have proven unnecessary.

Termination argument (DESIGN.md, adversarial engine): each iteration
fences a site whose refined open-window set is non-empty, and a fence
maps the forward window fact to ∅ at that point — so either the finding's
transmitter stops being window-covered (load strategy, guaranteed) or the
fallthrough window the guard opened is drained (branch strategy; when the
guard is an indirect jump or the site is already fenced, the step falls
back to the load site).  Findings are finite and fences are never
removed, so the scanner's finding set shrinks to ∅ or the iteration cap
flags the program as irreparable (no synthesized or hand-written gadget
needs more than ``len(findings)`` steps in practice).

Two mitigation-pass strategies ride the same interface: ``slh`` applies
lifted (index-masking) SLH — masks only scanner-flagged transmitters, so
independent work keeps pipelining where a fence would drain — and
``selective`` applies batched selective fencing.  ``cheapest`` runs every
strategy and keeps the one whose repaired program simulates in fewer
cycles under the baseline policy (tie → fewer fences, then the listed
order): the static count of fences is a poor cost proxy because a
fallthrough fence outside the hot loop can beat a per-iteration
transmitter fence inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.scanner import ScanReport, scan_program
from ..asm.program import Program
from ..compiler.pass_manager import insert_fences, repair_sites
from ..errors import AnalysisError

#: Iteration backstop; every known gadget class repairs in <= 2 steps.
MAX_ITERATIONS = 16

#: ``cheapest`` candidate order; position is the final tie-breaker.
STRATEGIES = ("load", "branch", "selective", "slh")


@dataclass
class RepairOutcome:
    """Result of one repair run (one strategy, driven to fixpoint)."""

    program: Program            # repaired program (== input when already clean)
    source: str                 # repaired assembly source
    strategy: str
    fences_inserted: int
    iterations: int
    clean: bool                 # scanner-clean at exit
    steps: list[dict] = field(default_factory=list)
    mitigation: str | None = None  # pass tag when a mitigation pass repaired it

    def to_dict(self) -> dict:
        return {
            "program": self.program.name,
            "strategy": self.strategy,
            "fences_inserted": self.fences_inserted,
            "iterations": self.iterations,
            "clean": self.clean,
            "steps": self.steps,
            "mitigation": self.mitigation,
        }


def _repair_with(
    program: Program, strategy: str, max_iterations: int,
    report: ScanReport | None = None,
) -> RepairOutcome:
    current = program
    steps: list[dict] = []
    fences = 0
    for iteration in range(max_iterations):
        if report is None:
            report = scan_program(current)
        if report.clean:
            return RepairOutcome(
                program=current,
                source=current.source or "",
                strategy=strategy,
                fences_inserted=fences,
                iterations=iteration,
                clean=True,
                steps=steps,
            )
        finding = min(report.findings, key=lambda f: (f.pc, f.kind))
        (site,) = repair_sites(current, [finding], strategy=strategy)
        steps.append(
            {
                "iteration": iteration,
                "finding": finding.id,
                "kind": finding.kind,
                "pc": finding.pc,
                "site": site,
            }
        )
        current = insert_fences(current, [site], name=program.name)
        fences += 1
        report = None
    report = scan_program(current)
    return RepairOutcome(
        program=current,
        source=current.source or "",
        strategy=strategy,
        fences_inserted=fences,
        iterations=max_iterations,
        clean=report.clean,
        steps=steps,
    )


def _repair_with_mitigation(
    program: Program, strategy: str, pass_name: str
) -> RepairOutcome:
    """Repair by applying a whole mitigation pass instead of a fence loop."""
    from ..compiler.mitigations import apply_mitigation, mitigation_tag

    try:
        result = apply_mitigation(program, pass_name, name=program.name)
    except AnalysisError:
        # Pass inapplicable (e.g. no free registers for SLH, or no
        # convergence): report an unclean outcome so ``cheapest`` falls
        # back to the fence strategies instead of dying.
        report = scan_program(program)
        return RepairOutcome(
            program=program,
            source=program.source or "",
            strategy=strategy,
            fences_inserted=0,
            iterations=0,
            clean=report.clean,
            steps=[],
        )
    report = scan_program(result.program)
    stats = result.stats
    steps = []
    if result.changed:
        steps.append(
            {
                "iteration": 0,
                "strategy": strategy,
                "pass": result.tag,
                "stats": dict(stats),
            }
        )
    return RepairOutcome(
        program=result.program,
        source=result.program.source or "",
        strategy=strategy,
        fences_inserted=int(stats.get("fences_inserted", 0)),
        iterations=int(stats.get("iterations", 0)),
        clean=report.clean,
        steps=steps,
        mitigation=mitigation_tag(pass_name) if result.changed else None,
    )


def _simulated_cycles(program: Program) -> int:
    """Baseline-policy cycle count of the repaired program (cost signal)."""
    from ..secure import make_policy
    from ..uarch import OooCore

    core = OooCore(program, policy=make_policy("none"))
    return core.run().cycles


def _run_strategy(
    program: Program, strategy: str, max_iterations: int,
    report: ScanReport | None = None,
) -> RepairOutcome:
    if strategy in ("load", "branch"):
        return _repair_with(program, strategy, max_iterations, report)
    if strategy == "slh":
        return _repair_with_mitigation(program, strategy, "slh-lifted")
    if strategy == "selective":
        return _repair_with_mitigation(program, strategy, "selective")
    raise AnalysisError(
        f"unknown repair strategy {strategy!r}; "
        f"know {', '.join(STRATEGIES)}, cheapest"
    )


def repair_program(
    program: Program,
    strategy: str = "load",
    max_iterations: int = MAX_ITERATIONS,
    report: ScanReport | None = None,
) -> RepairOutcome:
    """Drive ``program`` to scanner-clean.

    Strategies: ``load`` fences the transmitter, ``branch`` the guard's
    fallthrough, ``selective`` batch-fences all transmitters per round,
    ``slh`` applies lifted speculative load hardening, ``cheapest``
    all-then-pick (see module docstring).  ``report`` is the scan of
    ``program`` when the caller already has it.
    """
    if strategy != "cheapest":
        return _run_strategy(program, strategy, max_iterations, report)
    if report is None:
        report = scan_program(program)
    if report.clean:
        # Already clean: every strategy is the identity; report the default.
        return _repair_with(program, "load", max_iterations, report)
    candidates = [
        _run_strategy(program, name, max_iterations, report)
        for name in STRATEGIES
    ]
    clean = [c for c in candidates if c.clean]
    pool = clean or candidates
    costed = [
        (
            _simulated_cycles(outcome.program),
            outcome.fences_inserted,
            index,
        )
        for index, outcome in enumerate(pool)
    ]
    best = min(range(len(pool)), key=lambda i: costed[i])
    return pool[best]
