"""Simulator profiling harness: cProfile + per-stage cycle attribution.

Perf work on the simulator should be guided by measurements, not folklore.
:func:`profile_run` executes one (workload, policy) run under
:mod:`cProfile` and returns a machine-readable report combining two views:

* **wall-clock attribution** — the top functions by cumulative/total time,
  straight from the profiler (where does the *host* spend its time), and
* **simulated-cycle attribution** — the core's per-stage stall counters
  plus the event-horizon engine's warp diagnostics (where does the *guest*
  spend its cycles, and how many of them the engine never had to step).

Exposed on the CLI as ``repro profile`` (see :mod:`repro.cli`); CI runs it
with ``--json`` so the harness cannot bit-rot.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

from .secure import make_policy
from .uarch import CoreConfig, OooCore
from .uarch.decoded import image_cache_info
from .uarch.specialize import spec_cache_info

SORT_KEYS = ("cumtime", "tottime", "ncalls")

#: Core stage methods whose tottime the --compare mode attributes, in
#: pipeline order.  Both execute entrypoints are listed; whichever arm is
#: active contributes its time under the same "execute" label.
_STAGE_FUNCTIONS = {
    "_fetch": "fetch",
    "_dispatch": "dispatch",
    "_front_checkpoint": "checkpoint",
    "_issue": "issue",
    "_execute_alu": "execute",
    "_execute_alu_spec": "execute",
    "_try_issue_mem": "mem-issue",
    "_process_completions": "complete",
    "_propagate": "wakeup",
    "_commit": "commit",
    "_squash_after": "squash",
}


def profile_run(
    program,
    policy_name: str = "none",
    config: CoreConfig | None = None,
    *,
    sort: str = "cumtime",
    top: int = 25,
    max_cycles: int | None = None,
    cycle_skip: bool | None = None,
    specialize: bool | None = None,
) -> dict:
    """Profile one simulator run; returns the combined report as a dict."""
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    core = OooCore(
        program,
        config=config,
        policy=make_policy(policy_name),
        cycle_skip=cycle_skip,
        specialize=specialize,
    )
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = core.run(max_cycles=max_cycles)
    profiler.disable()
    wall = time.perf_counter() - start

    stats = pstats.Stats(profiler, stream=io.StringIO())
    top_functions = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, line, name = func
        top_functions.append(
            {
                "function": name,
                "file": filename,
                "line": line,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": tt,
                "cumtime": ct,
            }
        )
    top_functions.sort(key=lambda row: row[sort], reverse=True)
    del top_functions[top:]

    s = result.stats
    warp = core.warp_stats
    simulated = s.cycles
    stepped = simulated - warp.cycles_skipped
    report = {
        "workload": program.name,
        "policy": result.policy_name,
        "sort": sort,
        "run": {
            "cycles": simulated,
            "committed": s.committed,
            "ipc": s.ipc,
            "wall_seconds": wall,
            "inst_per_sec": s.committed / wall if wall > 0 else 0.0,
            "cycles_per_sec": simulated / wall if wall > 0 else 0.0,
        },
        "cycle_attribution": {
            # Guest-side view: which stall condition each cycle sat in.
            # Buckets overlap (a cycle can stall fetch and dispatch at
            # once), so they are attribution hints, not a partition.
            "simulated_cycles": simulated,
            "stepped_cycles": stepped,
            "fetch_stall_cycles": s.fetch_stall_cycles,
            "rob_full_stalls": s.rob_full_stalls,
            "iq_full_stalls": s.iq_full_stalls,
            "lsq_full_stalls": s.lsq_full_stalls,
            "load_gate_cycles": s.load_gate_cycles,
            "branch_gate_cycles": s.branch_gate_cycles,
            "memdep_blocked_cycles": s.memdep_blocked_cycles,
        },
        "event_horizon": {
            **warp.as_dict(),
            "skip_fraction": warp.cycles_skipped / simulated if simulated else 0.0,
        },
        "decode_cache": image_cache_info(),
        # Specialization cache hit/miss + codegen-time attribution: the
        # codegen cost must stay invisible next to simulation time, and
        # hits must dominate misses on any repeated-program workload.
        "specialization": {
            "enabled": core._specialize,
            **spec_cache_info(),
        },
        "top_functions": top_functions,
    }
    return report


def compare_specialization(
    program,
    policy_name: str = "none",
    config: CoreConfig | None = None,
    *,
    max_cycles: int | None = None,
) -> dict:
    """Run interpreted vs specialized back-to-back; per-stage delta table.

    Both runs profile the same (workload, policy, config); the only knob
    that differs is ``specialize``.  The report carries each arm's run
    summary plus a per-stage table of profiler tottime (interpreted,
    specialized, delta) keyed by pipeline-stage label, so a regression in
    one stage is visible even when the total wall time moves little.
    """
    arms = {}
    stage_times: dict[str, dict[str, float]] = {}
    for arm, specialize in (("interpreted", False), ("specialized", True)):
        report = profile_run(
            program, policy_name, config,
            sort="tottime", top=250,
            max_cycles=max_cycles, specialize=specialize,
        )
        arms[arm] = report
        for row in report["top_functions"]:
            stage = _STAGE_FUNCTIONS.get(row["function"])
            if stage is not None:
                bucket = stage_times.setdefault(stage, {})
                bucket[arm] = bucket.get(arm, 0.0) + row["tottime"]

    stages = []
    for name in dict.fromkeys(_STAGE_FUNCTIONS.values()):
        bucket = stage_times.get(name)
        if bucket is None:
            continue
        interp = bucket.get("interpreted", 0.0)
        spec = bucket.get("specialized", 0.0)
        stages.append({
            "stage": name,
            "interpreted_s": interp,
            "specialized_s": spec,
            "delta_s": spec - interp,
            "speedup": interp / spec if spec > 0 else 0.0,
        })

    interp_run = arms["interpreted"]["run"]
    spec_run = arms["specialized"]["run"]
    if interp_run["cycles"] != spec_run["cycles"]:  # pragma: no cover
        raise AssertionError(
            "specialized run diverged from interpreted run: "
            f"{spec_run['cycles']} != {interp_run['cycles']} cycles"
        )
    return {
        "workload": arms["interpreted"]["workload"],
        "policy": arms["interpreted"]["policy"],
        "interpreted": interp_run,
        "specialized": spec_run,
        "wall_speedup": (interp_run["wall_seconds"] / spec_run["wall_seconds"]
                         if spec_run["wall_seconds"] > 0 else 0.0),
        "stages": stages,
        "specialization": arms["specialized"]["specialization"],
    }


def render_compare(report: dict) -> str:
    """Human-readable rendering of a :func:`compare_specialization` report."""
    interp = report["interpreted"]
    spec = report["specialized"]
    lines = [
        f"workload {report['workload']}  policy {report['policy']}  "
        f"(identical {interp['cycles']} simulated cycles)",
        f"  interpreted: {interp['wall_seconds']:.3f}s "
        f"({interp['inst_per_sec']:,.0f} inst/s)",
        f"  specialized: {spec['wall_seconds']:.3f}s "
        f"({spec['inst_per_sec']:,.0f} inst/s)",
        f"  wall speedup: {report['wall_speedup']:.2f}x",
        "",
        f"  {'stage':<12} {'interp(s)':>10} {'spec(s)':>10} "
        f"{'delta(s)':>10} {'speedup':>8}",
    ]
    for row in report["stages"]:
        lines.append(
            f"  {row['stage']:<12} {row['interpreted_s']:>10.3f} "
            f"{row['specialized_s']:>10.3f} {row['delta_s']:>+10.3f} "
            f"{row['speedup']:>7.2f}x"
        )
    cache = report["specialization"]
    lines.append("")
    lines.append(
        f"  spec cache: {cache['entries']} plan(s), "
        f"{cache['hits']} hit(s) / {cache['misses']} miss(es), "
        f"{cache['generated_functions']} generated fn(s) in "
        f"{cache['codegen_ms']:.1f}ms"
    )
    return "\n".join(lines)


def render_profile(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_run` report."""
    run = report["run"]
    attr = report["cycle_attribution"]
    horizon = report["event_horizon"]
    lines = [
        f"workload {report['workload']}  policy {report['policy']}",
        f"  {run['cycles']} cycles, {run['committed']} committed "
        f"(IPC {run['ipc']:.3f}) in {run['wall_seconds']:.3f}s "
        f"-> {run['inst_per_sec']:,.0f} inst/s",
        f"  event horizon: {horizon['cycles_skipped']} of "
        f"{attr['simulated_cycles']} cycles skipped "
        f"({100 * horizon['skip_fraction']:.1f}%) in {horizon['warps']} warps"
        + (
            "  [" + ", ".join(
                f"{k}:{v}" for k, v in sorted(horizon["reasons"].items())
            ) + "]"
            if horizon["reasons"]
            else ""
        ),
        "  cycle attribution (overlapping buckets):",
    ]
    for key in (
        "fetch_stall_cycles",
        "rob_full_stalls",
        "iq_full_stalls",
        "lsq_full_stalls",
        "load_gate_cycles",
        "branch_gate_cycles",
        "memdep_blocked_cycles",
    ):
        value = attr[key]
        if value:
            lines.append(f"    {key:<24} {value}")
    lines.append("")
    lines.append(
        f"  top functions by {report['sort']} "
        f"(ncalls / tottime / cumtime):"
    )
    for row in report["top_functions"]:
        where = f"{row['file']}:{row['line']}" if row["line"] else row["file"]
        lines.append(
            f"    {row['ncalls']:>10}  {row['tottime']:8.3f}s "
            f"{row['cumtime']:8.3f}s  {row['function']}  ({where})"
        )
    return "\n".join(lines)
