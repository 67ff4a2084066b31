"""Benchmark runner for the Levioso reproduction's simulator stack.

Run from the repository root::

    python3 perfbench/run.py --workload fuzz|service|grid --seed N \
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the timed phase once untraced and once traced, checks the two agree,
and reports per-layer self times and counts from the traced run plus the
tracer's own cost.  On ``grid`` it also reruns a grid slice once per
fast-path kill switch (the ablation).  Every output is checked; the last
line of standard output is one JSON object, and the exit code is non-zero
when any check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from before ``import repro``

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Policies of the grid slice the ablation reruns per kill switch.
ABLATION_POLICIES = ("none", "levioso")

#: Fast-path kill switches the ablation flips one at a time.
KILL_SWITCHES = ("REPRO_NO_CYCLE_SKIP", "REPRO_NO_DYN_POOL",
                 "REPRO_NO_SPECIALIZE", "REPRO_NO_SUPERBLOCK",
                 "REPRO_NO_LOCKSTEP")

UNITS = {
    "setup_s": "s", "sim_kinst_per_s": "kinst/s", "ops_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p95_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "fuzz", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def end_to_end(phase, setup_s, rss_mb) -> dict[str, float]:
    from common import percentile

    lat = phase.latencies_ms
    return {
        "setup_s": setup_s,
        "sim_kinst_per_s": phase.kinst / phase.wall_s,
        "ops_per_s": phase.ops / phase.wall_s,
        "latency_p50_ms": percentile(lat, 0.5) if lat else 0.0,
        "latency_p95_ms": percentile(lat, 0.95) if lat else 0.0,
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer, run_id, phase, spec_misses):
    """Per-layer metrics of one traced phase (see README for the map)."""
    from common import percentile
    from tracing import span_cost_s
    from workloads import POLICIES, service_layers

    st = tracer.self_times(run_id)
    n = tracer.counts(run_id)
    inst = phase.kinst * 1e3
    http = tracer.durations(run_id, "service.http")
    extra = phase.extra
    overhead_s = sum(n.values()) * span_cost_s()
    out = {
        "uarch.core.run_s": st.get("uarch.core.advance", 0.0),
        "uarch.core.ns_per_inst": (
            1e9 * st.get("uarch.core.advance", 0.0) / inst
            if n.get("uarch.core.advance") and inst else 0.0),
        "uarch.core.sims": n.get("uarch.core.init", 0),
        "uarch.core.construct_s": st.get("uarch.core.init", 0.0),
        "uarch.horizon.skipped_frac": tracer.skipped_frac(run_id),
        "uarch.decoded.image_s": (st.get("uarch.decoded.image", 0.0)
                                  + st.get("uarch.decoded.decode", 0.0)),
        "uarch.decoded.misses": n.get("uarch.decoded.decode", 0),
        "uarch.specialize.codegen_s": st.get("uarch.specialize.image", 0.0),
        "uarch.specialize.misses": spec_misses,
        "mem.hierarchy_init_s": st.get("mem.hierarchy_init", 0.0),
        "mem.l1d_misses": sum(p["l1d_misses"] for p in phase.points.values()),
        "mem.l2_misses": sum(p["l2_misses"] for p in phase.points.values()),
        "asm.assemble_s": st.get("asm.assemble", 0.0),
        "asm.assemble_calls": n.get("asm.assemble", 0),
        "compiler.levioso_pass_s": st.get("compiler.levioso_pass", 0.0),
        "compiler.rewrite_s": (st.get("compiler.insert_fences", 0.0)
                               + st.get("compiler.rewrite", 0.0)),
        "analysis.scan_s": st.get("analysis.scan", 0.0),
        "analysis.scan_calls": n.get("analysis.scan", 0),
        "adversarial.synth_s": (st.get("adversarial.synth_item", 0.0)
                                + st.get("adversarial.synth_source", 0.0)),
        "adversarial.repair_s": st.get("adversarial.repair", 0.0),
        "adversarial.oracle_sims": extra.get("oracle_sims", 0),
        "adversarial.repair_certified_ratio": (
            extra["certified"] / extra["repaired"]
            if extra.get("repaired") else 0.0),
        "harness.run_key_s": st.get("harness.run_key", 0.0),
        "harness.prefetch_s": st.get("harness.prefetch", 0.0),
        "harness.lockstep_batches": n.get("harness.lockstep", 0),
        "service.http_ms_p50": 1e3 * percentile(http, 0.5) if http else 0.0,
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_s / max(phase.wall_s - overhead_s, 1e-9),
    }
    for policy in POLICIES:
        mine = [r for r in phase.records if r.policy == policy]
        out[f"secure.loads_gated.{policy}"] = sum(r.loads_gated for r in mine)
        out[f"secure.load_gate_cycles.{policy}"] = sum(
            r.load_gate_cycles for r in mine)
    out.update(service_layers(phase))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import model_digest, self_peak_rss_mb, tail_is_resolved
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    setup_s = time.perf_counter() - T0
    phase = workload.timed()
    untraced = phase
    layers = {}
    tracer = None
    if args.trace:
        from repro.uarch.specialize import spec_cache_info
        from tracing import Tracer

        if args.workload == "service":
            workload.teardown()
            workload.setup()
        tracer = Tracer().install()
        misses = spec_cache_info()["misses"]
        phase = workload.timed()
        misses = spec_cache_info()["misses"] - misses
        tracer.reset("check")
    rss_mb = max(self_peak_rss_mb(), workload.peak_rss_mb())
    workload.teardown()
    workload.check(phase)
    digest = model_digest(phase.points)
    lines = []
    if args.trace:
        if untraced.points and model_digest(untraced.points) != digest:
            phase.fail("model digest differs between untraced and traced runs")
        if untraced.checks != phase.checks:
            phase.fail("report digests differ between untraced and traced runs")
        layers = layer_metrics(tracer, "traced", phase, misses)
        lines.append(f"traced phase {phase.wall_s:.2f} s, untraced "
                     f"{untraced.wall_s:.2f} s (their difference includes host "
                     f"drift; trace.overhead_s is spans x per-span cost)")
        if args.workload == "grid":
            layers.update(ablation(tracer, phase, lines))
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.dump(path)
        tracer.uninstall()
        lines.append(f"trace: {len(tracer.spans)} spans written to "
                     f"{path.relative_to(HERE.parent)}")
    failed, attempted = phase.failed, phase.attempted
    if untraced is not phase:
        failed += untraced.failed
        attempted += untraced.attempted
        lines = [n for n in untraced.notes if n.startswith("FAILED")] + lines
    lines = phase.notes + lines
    n = len(phase.latencies_ms)
    lines.append(f"model digest {args.workload}: {digest} over "
                 f"{len(phase.points)} points (simulated counters; a "
                 f"speed-only change must leave it unchanged)")
    lines.append(f"latency samples: {n}; p95 has >= 10 samples beyond it: "
                 f"{tail_is_resolved(n, 0.95)}")
    lines.append(f"attempted {attempted}, failed {failed}, failed_frac "
                 f"{failed / max(attempted, 1):.4f}")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in end_to_end(phase, setup_s, rss_mb).items()}
    for line in lines:
        print(line)
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("ns_per_inst"):
        return "ns"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def ablation(tracer, phase, lines, grid=None) -> dict[str, float]:
    """Rerun a grid slice with each kill switch on its own; marginal ns/inst.

    The slice is every SPEClite workload under ``ABLATION_POLICIES`` (two
    policies, so lockstep batching still has pairs to batch).  Arms
    alternate with all-on passes, and each arm is compared with the mean of
    the all-on passes on either side of it, so slow drift in host speed
    cancels instead of landing on whichever arm ran at a slow moment.
    Every pass must reproduce ``phase``'s simulated counters on its points.
    """
    from workloads import Grid

    grid = grid or Grid(0, 1, policies=ABLATION_POLICIES)
    grid.setup()

    def measure(run_id, switch=None):
        if switch:
            os.environ[switch] = "1"
        try:
            tracer.reset(run_id)
            part = grid.timed()
        finally:
            if switch:
                del os.environ[switch]
        phase.attempted += part.attempted
        phase.failed += part.failed
        phase.notes += [n for n in part.notes if n.startswith("FAILED")]
        if any(phase.points.get(k) != v for k, v in part.points.items()):
            phase.fail(f"simulated counters changed in ablation arm {run_id}")
        run_s = tracer.self_times(run_id).get("uarch.core.advance", 0.0)
        return 1e9 * run_s / (part.kinst * 1e3), part.wall_s

    before = measure("all-on")
    out = {}
    lines.append(f"ablation over {len(grid.workloads)} workloads x "
                 f"{'/'.join(grid.policies)}: uarch.core ns/inst and wall time "
                 f"with one fast path off, vs the mean of the all-on passes "
                 f"around it")
    for switch in KILL_SWITCHES:
        (value, wall), after = measure(switch, switch), measure(f"after-{switch}")
        base, base_wall = ((a + b) / 2 for a, b in zip(before, after))
        key = switch.removeprefix("REPRO_NO_").lower()
        out[f"ablation.no_{key}.ns_per_inst"] = value
        out[f"ablation.no_{key}.all_on_ns_per_inst"] = base
        lines.append(f"  {switch}=1: {value:.0f} ns/inst vs {base:.0f} all on "
                     f"(off/on {value / base:.2f}x); wall {wall:.2f} s vs "
                     f"{base_wall:.2f} s ({wall / base_wall:.2f}x)")
        before = after
    lines.append(f"  simulated counters identical in every arm: "
                 f"{not any('ablation arm' in n for n in phase.notes)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
