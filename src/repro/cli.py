"""Command-line interface.

Subcommands::

    repro run FILE.s [--policy P] [--functional] [--trace]
    repro disasm FILE.s
    repro analyze TARGET [--json]        # compiler pass + gadget scan + verifier
    repro lint TARGET... [--expect E]    # scan many programs, gate on the result
    repro bench [--scale S] [--jobs N] [--policies ...] [--workloads ...]
    repro experiment ID... [--scale S] [--jobs N] [--cache]
                                         # exit 1 names each failed claim
    repro fuzz [--seed N] [--count N] [--repair] [--json] [--out F]
                                         # adversarial campaign: synthesize,
                                         # scan, oracle-judge, repair
    repro repair TARGET [--strategy S] [--emit F]
                                         # fence repair + oracle certification
    repro mitigate TARGET --pass P [--emit F]
                                         # software mitigation pass + dual
                                         # certification (equivalence, oracle)
    repro attack NAME [--policy P] [--secret N]
    repro pipeline FILE.s [--policy P]   # per-instruction timeline view
    repro profile TARGET [--policy P] [--sort cumtime] [--json]
                                         # cProfile + cycle attribution
    repro report [--scale S]             # rerun every experiment, check its claims,
                                         # rewrite EXPERIMENTS.md's record
    repro suite                          # list workloads
    repro cache {info,verify,repair,clear}   # persistent run-result cache
    repro chaos [--seed N] [--service]   # fault-injection smoke drill
    repro serve [--port P] [--jobs N]    # simulation-as-a-service daemon
    repro submit WORKLOAD... [--policies ...] [--wait] [--verify]

``--jobs N`` fans simulations out over N worker processes (default:
``$REPRO_JOBS`` or 1); ``--cache`` persists run results on disk (location:
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-levioso/runs``).

Grid execution is supervised: ``--retries``/``--timeout`` bound each
point's attempts and wall clock, ``--keep-going`` finishes the grid
around permanently failed points and renders partial tables with
explicit holes, and ``--fault-plan`` injects a seeded fault plan (JSON
text or ``@file``) for chaos testing.  An interrupted ``--cache`` run
resumes by running it again: finished points are cache hits.

Also usable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys

from .asm import assemble, disassemble
from .attacks import ATTACKS, run_attack
from .compiler import run_levioso_pass, static_stats
from .errors import ReproError
from .functional import run_program
from .harness import (
    ExperimentRunner,
    GridPoint,
    ParallelRunner,
    ResultCache,
    default_jobs,
    format_table,
    run_experiments,
)
from .harness.experiments import EXPERIMENTS
from .isa import register_name
from .secure import ALL_POLICY_NAMES, make_policy
from .uarch import OooCore
from .workloads import WORKLOAD_NAMES, build_workload


def _load_source(path: str):
    with open(path) as f:
        return assemble(f.read(), name=path)


def _resolve_program(target: str, scale: str = "test"):
    """A lint/analyze target: assembly file, workload name, or attack name."""
    import os

    if os.path.exists(target):
        return _load_source(target)
    if (target in WORKLOAD_NAMES or target.startswith("fuzz/")
            or target.startswith("mit/")):
        return build_workload(target, scale=scale).assemble()
    if target in ATTACKS:
        return ATTACKS[target]()
    raise ReproError(
        f"unknown target {target!r}: not a file, workload "
        f"({', '.join(WORKLOAD_NAMES)}), fuzz/s<seed>/i<index>/f<fill> name, "
        f"mit/<pass>/<base> variant, or attack ({', '.join(sorted(ATTACKS))})"
    )


def cmd_run(args) -> int:
    program = _load_source(args.file)
    if args.json and not args.functional:
        import json

        core = OooCore(program, policy=make_policy(args.policy))
        result = core.run()
        print(json.dumps(result.stats_dict(), indent=2))
        return 0
    if args.functional:
        result = run_program(program, trace=args.trace)
        print(f"instructions: {result.instructions}")
        regs = result.regs
    else:
        core = OooCore(program, policy=make_policy(args.policy))
        result = core.run()
        stats = result.stats
        print(f"policy:       {args.policy}")
        print(f"cycles:       {stats.cycles}")
        print(f"instructions: {stats.committed}")
        print(f"IPC:          {stats.ipc:.3f}")
        print(f"mispredicts:  {stats.branch_mispredicts + stats.jalr_mispredicts}")
        print(f"gated loads:  {stats.loads_gated} ({stats.load_gate_cycles} cycles)")
        regs = result.regs
    nonzero = [
        f"{register_name(i)}={v:#x}" for i, v in enumerate(regs) if v and i != 2
    ]
    print("registers:   ", " ".join(nonzero) or "(all zero)")
    return 0


def cmd_disasm(args) -> int:
    print(disassemble(_load_source(args.file)))
    return 0


def cmd_analyze(args) -> int:
    from .analysis import scan_program, verify_metadata

    program = _resolve_program(args.file)
    info = run_levioso_pass(program)
    stats = static_stats(program)
    scan = scan_program(program)
    verdict = verify_metadata(program, info)

    if args.json:
        import dataclasses
        import json

        print(
            json.dumps(
                {
                    "program": program.name,
                    "pass": dataclasses.asdict(stats),
                    "scan": scan.to_dict(),
                    "verifier": verdict.to_dict(),
                },
                indent=2,
            )
        )
        return 0 if scan.clean and verdict.sound else 1

    print(f"functions analysed:   {len(set(info.function_of_branch.values()))}")
    print(f"static instructions:  {stats.static_instructions}")
    print(f"conditional branches: {stats.static_branches}")
    print(f"reconvergence found:  {stats.reconvergence_coverage:.1%}")
    print(f"mean region size:     {stats.mean_region_size:.1f} instructions")
    print()
    rows = []
    for branch_pc, reconv in sorted(info.reconv_pc.items()):
        rows.append(
            [
                f"{branch_pc:#x}",
                f"{reconv:#x}" if reconv is not None else "(none)",
                len(info.control_dep_pcs.get(branch_pc, ())),
                info.function_of_branch.get(branch_pc, "?"),
            ]
        )
    print(format_table(["branch", "reconv", "region size", "function"], rows))

    print()
    print(
        f"metadata verifier:    "
        f"{'SOUND' if verdict.sound else 'UNSOUND'} "
        f"({verdict.branches_checked} branches, "
        f"{verdict.exact_regions} exact regions, "
        f"{verdict.excess_pcs} excess pcs)"
    )
    for violation in verdict.violations:
        print(f"  VIOLATION {violation.kind} at {violation.branch_pc:#x} "
              f"[{violation.function}]: {violation.detail}")

    print(
        f"gadget scanner:       "
        f"{'clean' if scan.clean else f'{len(scan.findings)} finding(s)'} "
        f"({scan.functions_scanned} functions, "
        f"{scan.orphan_instructions} orphan instructions, "
        f"{scan.secret_ranges} secret range(s))"
    )
    for finding in scan.findings:
        print(f"  [{finding.kind}] {finding.pc:#x} {finding.instruction} "
              f"— {finding.message}")
    return 0 if scan.clean and verdict.sound else 1


def _parse_expected_counts(spec: str) -> dict[str, int]:
    """Parse ``counts:<kind>=<n>[,<kind>=<n>...]`` into a dict."""
    want: dict[str, int] = {}
    body = spec[len("counts:"):]
    for part in body.split(","):
        kind, sep, num = part.strip().partition("=")
        if not kind or not sep or not num.isdigit():
            raise ReproError(
                f"malformed --expect {spec!r}: want "
                "counts:<kind>=<n>[,<kind>=<n>...] with integer counts"
            )
        want[kind] = int(num)
    return want


def _expect_spec(value: str) -> str:
    if value in ("clean", "findings") or value.startswith("counts:"):
        return value
    raise argparse.ArgumentTypeError(
        f"invalid expectation {value!r} "
        "(choose clean, findings, or counts:<kind>=<n>,...)"
    )


def cmd_lint(args) -> int:
    from .analysis import scan_program, verify_metadata

    results = []
    for target in args.targets:
        program = _resolve_program(target)
        scan = scan_program(program)
        verdict = verify_metadata(program)
        results.append((target, scan, verdict))

    if args.json:
        import json

        print(
            json.dumps(
                [
                    {
                        "target": target,
                        "scan": scan.to_dict(),
                        "verifier": verdict.to_dict(),
                    }
                    for target, scan, verdict in results
                ],
                indent=2,
            )
        )
    else:
        rows = []
        for target, scan, verdict in results:
            counts = scan.counts_by_kind()
            rows.append(
                [
                    target,
                    "clean" if scan.clean else f"{len(scan.findings)} finding(s)",
                    ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
                    or "-",
                    "sound" if verdict.sound else "UNSOUND",
                ]
            )
        print(format_table(["target", "scan", "kinds", "metadata"], rows))

    unsound = [t for t, _, v in results if not v.sound]
    flagged = [t for t, s, _ in results if not s.clean]
    if unsound:
        print(f"error: unsound metadata on: {', '.join(unsound)}", file=sys.stderr)
        return 1
    if args.expect == "clean":
        if flagged:
            print(
                f"error: expected clean, but findings on: {', '.join(flagged)}",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.expect == "findings":
        missed = [t for t, s, _ in results if s.clean]
        if missed:
            print(
                f"error: expected findings, but scanned clean: "
                f"{', '.join(missed)}",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.expect and args.expect.startswith("counts:"):
        # Exact per-kind totals across all targets; a kind not listed in
        # the expectation must not appear at all (count 0).
        want = _parse_expected_counts(args.expect)
        got: dict[str, int] = {}
        for _, scan, _ in results:
            for kind, count in scan.counts_by_kind().items():
                got[kind] = got.get(kind, 0) + count
        mismatches = [
            f"{kind}: want {want.get(kind, 0)}, got {got.get(kind, 0)}"
            for kind in sorted(set(want) | set(got))
            if want.get(kind, 0) != got.get(kind, 0)
        ]
        if mismatches:
            print(
                f"error: finding counts diverge from expectation — "
                f"{'; '.join(mismatches)}",
                file=sys.stderr,
            )
            return 1
        return 0
    return 1 if flagged else 0


def cmd_fuzz(args) -> int:
    import json

    from .adversarial import CampaignConfig, run_campaign

    cache = _make_cache(args)
    _install_fault_plan(args)
    config = CampaignConfig.resolve(
        seed=args.seed,
        count=args.count,
        policies=tuple(args.policies) if args.policies else None,
        repair=args.repair,
    )
    runner = ParallelRunner(
        scale="test", jobs=args.jobs, cache=cache,
        retry_policy=_make_retry_policy(args), keep_going=args.keep_going,
    )
    report = run_campaign(config, runner)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if args.json:
        print(text)
    else:
        gates = report["gates"]
        print(f"campaign: seed {config.seed}, {config.count} programs, "
              f"policies {', '.join(config.policies)}, "
              f"fills {', '.join(f'{f:#04x}' for f in config.fills)}")
        rows = []
        for cls, cm in report["scanner"]["vs_intent"].items():
            rows.append([
                cls, cm["tp"], cm["fp"], cm["fn"], cm["tn"],
                f"{cm['precision']:.3f}", f"{cm['recall']:.3f}",
            ])
        print()
        print(format_table(
            ["class", "TP", "FP", "FN", "TN", "precision", "recall"], rows
        ))
        print()
        summary = report["repair"]
        if summary["repaired_items"]:
            slowdowns = ", ".join(
                f"{policy} {value:.3f}x"
                for policy, value in summary["mean_slowdown"].items()
            )
            print(f"repair: {summary['repaired_items']} program(s), "
                  f"mean {summary['mean_fences']:.2f} fence(s), "
                  f"mean slowdown {slowdowns}")
        print(f"gates: scanner recall on intended-leaky "
              f"{gates['scanner_recall_intended_leaky']:.3f}, "
              f"{gates['scanner_false_negatives']} scanner false negative(s), "
              f"{gates['oracle_leaks_after_repair']} oracle leak(s) after "
              f"repair — {'PASS' if gates['passed'] else 'FAIL'}")
    if args.out and not args.json:
        print(f"report written to {args.out}")
    return 0 if report["gates"]["passed"] else 1


def cmd_repair(args) -> int:
    from .adversarial import program_verdict, repair_program
    from .analysis import scan_program

    program = _resolve_program(args.target)
    before = scan_program(program)
    verdict_before = program_verdict(program, args.policy)
    outcome = repair_program(program, strategy=args.strategy)
    verdict_after = program_verdict(outcome.program, args.policy)

    def cycles(prog) -> int:
        core = OooCore(prog, policy=make_policy(args.policy))
        return core.run().cycles

    changed = bool(outcome.fences_inserted or outcome.mitigation)
    base_cycles = cycles(program)
    repaired_cycles = cycles(outcome.program) if changed else base_cycles
    certified = outcome.clean and not verdict_after.leaks

    if args.json:
        import json

        print(json.dumps({
            "target": args.target,
            "policy": args.policy,
            "strategy": outcome.strategy,
            "before": {
                "findings": [f.to_dict() for f in before.findings],
                "oracle": verdict_before.verdict,
            },
            "after": {
                "scanner_clean": outcome.clean,
                "oracle": verdict_after.verdict,
            },
            "fences_inserted": outcome.fences_inserted,
            "mitigation": outcome.mitigation,
            "iterations": outcome.iterations,
            "steps": outcome.steps,
            "cycles": {"base": base_cycles, "repaired": repaired_cycles},
            "slowdown": round(repaired_cycles / base_cycles, 4),
            "certified": certified,
        }, indent=2))
    else:
        print(f"target:    {args.target} (policy {args.policy}, "
              f"strategy {outcome.strategy})")
        print(f"before:    {len(before.findings)} finding(s), "
              f"oracle {verdict_before.verdict}")
        for step in outcome.steps:
            if "site" in step:
                print(f"  fence at {step['site']:#x} "
                      f"(iteration {step['iteration']}, {step['kind']} "
                      f"transmitter at {step['pc']:#x})")
            else:
                print(f"  applied pass {step['pass']} "
                      f"({step.get('stats', {})})")
        print(f"after:     {'clean' if outcome.clean else 'STILL FLAGGED'}, "
              f"oracle {verdict_after.verdict}")
        cost = f"{outcome.fences_inserted} fence(s)"
        if outcome.mitigation:
            cost = f"pass {outcome.mitigation}, {cost}"
        print(f"cost:      {cost}, "
              f"{base_cycles} -> {repaired_cycles} cycles "
              f"({repaired_cycles / base_cycles:.3f}x)")
        print(f"verdict:   {'CERTIFIED SECURE' if certified else 'NOT CERTIFIED'}")
    if args.emit:
        with open(args.emit, "w") as f:
            f.write(outcome.source)
        print(f"repaired source written to {args.emit}")
    return 0 if certified else 1


def cmd_mitigate(args) -> int:
    from .compiler.mitigations import certify_mitigation

    program = _resolve_program(args.target, scale=args.scale)
    result, certificate = certify_mitigation(
        program, args.pass_name, name=f"{program.name}+{args.pass_name}"
    )
    if args.json:
        import json

        payload = certificate.to_dict()
        payload["target"] = args.target
        payload["changed"] = result.changed
        print(json.dumps(payload, indent=2))
    else:
        print(f"target:      {args.target} (pass {result.tag})")
        stats = ", ".join(f"{k}={v}" for k, v in sorted(result.stats.items()))
        print(f"transform:   {stats or 'no change needed'}")
        print(f"equivalent:  {'yes' if certificate.equivalent else 'NO'} "
              f"({certificate.baseline_instructions} -> "
              f"{certificate.mitigated_instructions} instructions, "
              f"{certificate.instruction_overhead:+.1%})")
        print(f"scanner:     {'clean' if certificate.scanner_clean else str(certificate.findings_left) + ' finding(s) left'}")
        print(f"oracle:      {certificate.oracle_verdict} (policy none)")
        print(f"verdict:     "
              f"{'CERTIFIED' if certificate.certified else 'NOT CERTIFIED'}")
    if args.emit:
        with open(args.emit, "w") as f:
            f.write(result.program.source or "")
        print(f"mitigated source written to {args.emit}")
    return 0 if certificate.certified else 1


def _make_cache(args) -> ResultCache | None:
    if not getattr(args, "cache", False):
        return None
    return ResultCache(getattr(args, "cache_dir", None))


def _make_retry_policy(args):
    from .harness import RetryPolicy

    return RetryPolicy(
        max_attempts=max(getattr(args, "retries", 2) + 1, 1),
        timeout=getattr(args, "timeout", None),
    )


def _install_fault_plan(args) -> None:
    """Activate ``--fault-plan`` (inline JSON or ``@path``), if given."""
    text = getattr(args, "fault_plan", None)
    if not text:
        return
    from .faults import FaultPlan

    if text.startswith("@"):
        with open(text[1:]) as f:
            text = f.read()
    FaultPlan.from_json(text).install()


def cmd_bench(args) -> int:
    cache = _make_cache(args)
    _install_fault_plan(args)
    runner = ParallelRunner(
        scale=args.scale, verbose=args.jobs <= 1, jobs=args.jobs, cache=cache,
        retry_policy=_make_retry_policy(args), keep_going=args.keep_going,
    )
    policies = args.policies or ["none", "fence", "ctt", "levioso"]
    workloads = args.workloads or list(WORKLOAD_NAMES)
    runner.prefetch(
        GridPoint(w, p) for w in workloads for p in ["none", *policies]
    )
    rows = []
    for name in workloads:
        base = runner.run(name, "none")
        row = [name, base.cycles]
        for policy in policies:
            if policy == "none":
                row.append("0.0%")
                continue
            overhead = runner.overhead(name, policy)
            row.append(f"{100 * overhead:.1f}%")
        rows.append(row)
    print()
    print(format_table(["benchmark", "base cycles", *policies], rows))
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, {cache.stats.misses} misses")
    return 0


def cmd_experiment(args) -> int:
    from .harness import render_resilience

    cache = _make_cache(args)
    _install_fault_plan(args)
    results, report = run_experiments(
        args.ids, scale=args.scale, jobs=args.jobs, cache=cache,
        retry_policy=_make_retry_policy(args),
        keep_going=args.keep_going, with_report=True,
    )
    for result in results.values():
        print(result.text())
        print()
    if report.outcomes or report.pool_rebuilds:
        print(render_resilience(report))
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, {cache.stats.misses} misses, "
              f"{cache.stats.stores} stored"
              + (f", {cache.stats.quarantined} quarantined"
                 if cache.stats.quarantined else ""))
    return 0 if _claims_hold(results) and report.ok else 1


def _claims_hold(results) -> bool:
    """Print every failed claim by experiment; True when none failed."""
    failed = [(r.experiment_id, c) for r in results.values() for c in r.failed_claims]
    for experiment_id, claim in failed:
        print(f"claim failed: {experiment_id}: {claim}", file=sys.stderr)
    return not failed


def cmd_cache(args) -> int:
    import json

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached run(s) from {cache.root}")
        return 0
    if args.action == "verify":
        result = cache.verify()
        print(json.dumps(result.as_dict(), indent=2))
        return 0 if result.clean else 1
    if args.action == "repair":
        counts = cache.repair()
        print(json.dumps(counts, indent=2))
        return 0
    print(json.dumps(cache.info(), indent=2))
    return 0


def cmd_chaos(args) -> int:
    if args.service:
        from .service.chaos import service_chaos_smoke

        ok = service_chaos_smoke(
            seed=args.seed,
            scale=args.scale,
            jobs=args.jobs,
            workloads=tuple(args.workloads or ("gather", "pchase")),
            policies=tuple(args.policies or ("none", "levioso")),
            cache_dir=args.cache_dir,
        )
        return 0 if ok else 1
    from .harness import chaos_smoke

    ok = chaos_smoke(
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
        workloads=tuple(args.workloads or ("gather", "pchase")),
        policies=tuple(args.policies or ("none", "levioso")),
        cache_dir=args.cache_dir,
    )
    return 0 if ok else 1


def cmd_serve(args) -> int:
    from .service.daemon import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        retries=args.retries,
        timeout=args.timeout,
        cache_dir=args.cache_dir,
        use_cache=args.cache or args.cache_dir is not None,
        drain_timeout=args.drain_timeout,
    )
    return serve(config)


def cmd_submit(args) -> int:
    from .service.client import JobFailed, ServiceClient, ServiceError, ServiceQueueFull
    from .service.jobs import is_valid_workload

    bad = [w for w in args.workloads if not is_valid_workload(w)]
    if bad:
        print(f"error: unknown workload(s): {', '.join(bad)} "
              f"(choices: {', '.join(WORKLOAD_NAMES)}, or "
              f"fuzz/s<seed>/i<index>/f<fill> adversarial names)",
              file=sys.stderr)
        return 2
    client = ServiceClient(args.url, timeout=args.http_timeout)
    policies = args.policies or ["none", "levioso"]
    runs = [
        {"workload": w, "policy": p, "scale": args.scale}
        for w in args.workloads
        for p in policies
    ]
    if args.duplicate:
        # Same batch twice over: the daemon must coalesce the in-batch
        # duplicates and serve the second round from its result store.
        runs = runs * 2
    try:
        return _submit_and_report(args, client, runs)
    except ServiceQueueFull as exc:
        print(f"error: {exc} (retry after {exc.retry_after:.0f}s)",
              file=sys.stderr)
        return 3
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"repro submit: {exc} — is a daemon up at {client.base_url}? "
              f"start one with 'repro serve' (or point --url/"
              f"$REPRO_SERVICE_URL at it)", file=sys.stderr)
        return 1


def _submit_and_report(args, client, runs) -> int:
    jobs = client.submit(runs, priority=args.priority)
    dedup = sum(1 for j in jobs if j["coalesced"] or j["cached"])
    print(f"submitted {len(jobs)} job(s) "
          f"({dedup} coalesced/cached) to {client.base_url}")
    if not (args.wait or args.verify or args.json):
        for job in jobs:
            print(f"  {job['id']}  {job['request']['workload']}"
                  f"/{job['request']['policy']}  {job['state']}")
        return 0

    finals = client.wait([j["id"] for j in jobs], timeout=args.wait_timeout)
    ordered = [finals[j["id"]] for j in jobs]
    if args.duplicate:
        # Round two: every point now has a stored result, so a fresh
        # submission must be answered entirely from the result store.
        rerun = client.submit(runs[: len(runs) // 2])
        refinals = client.wait([j["id"] for j in rerun],
                               timeout=args.wait_timeout)
        ordered += [refinals[j["id"]] for j in rerun]

    if args.json:
        import json

        print(json.dumps(ordered, indent=2))

    mismatches = 0
    if args.verify:
        import json as json_mod

        runner = ExperimentRunner(scale=args.scale)
        for job in ordered:
            request = job["request"]
            local = json_mod.loads(json_mod.dumps(ResultCache.serialize(
                runner.run(request["workload"], request["policy"]))))
            if job.get("result") != local:
                mismatches += 1
                print(f"MISMATCH {request['workload']}/{request['policy']}: "
                      f"service result differs from serial in-process run",
                      file=sys.stderr)

    if not args.json:
        rows = [
            [j["request"]["workload"], j["request"]["policy"],
             j["result"]["cycles"] if j.get("result") else "—",
             f"{j['result']['ipc']:.3f}" if j.get("result") else "—",
             ("cached" if j["cached"] else
              "coalesced" if j["coalesced"] else "simulated"),
             f"{j['latency']:.3f}s" if j.get("latency") is not None else "—"]
            for j in ordered
        ]
        print(format_table(
            ["workload", "policy", "cycles", "IPC", "served", "latency"],
            rows))
    if args.verify:
        print("verify: " + ("OK — service results bit-identical to the "
                            "serial in-process runner" if not mismatches
                            else f"{mismatches} MISMATCH(ES)"))
    return 1 if mismatches else 0


def cmd_attack(args) -> int:
    outcome = run_attack(args.name, args.policy, secret=args.secret)
    print(f"attack:    {outcome.attack}")
    print(f"policy:    {outcome.policy}")
    print(f"secret:    {outcome.secret:#04x}")
    recovered = outcome.reading.recovered_value
    print(f"recovered: {recovered:#04x}" if recovered is not None else "recovered: (nothing)")
    print(f"verdict:   {outcome.verdict}")
    return 0 if not outcome.leaked else 1


def cmd_pipeline(args) -> int:
    from .uarch import OooCore, gate_summary, render_timeline

    program = _load_source(args.file)
    core = OooCore(
        program, policy=make_policy(args.policy), record_pipeline=True
    )
    core.run()
    print(render_timeline(core.retired, start=args.start, count=args.count))
    print()
    print(gate_summary(core.retired))
    return 0


def cmd_profile(args) -> int:
    from .profiling import profile_run, render_profile

    program = _resolve_program(args.target, scale=args.scale)
    report = profile_run(
        program,
        policy_name=args.policy,
        sort=args.sort,
        top=args.top,
        max_cycles=args.limit,
        cycle_skip=False if args.no_cycle_skip else None,
    )
    if args.json:
        import json

        print(json.dumps(report, indent=2))
    else:
        print(render_profile(report))
    return 0


def cmd_report(args) -> int:
    from .harness.report import MARKER, update_experiments_md

    results = run_experiments(list(EXPERIMENTS), scale=args.scale)
    if not _claims_hold(results):
        print(f"{args.experiments} left unchanged", file=sys.stderr)
        return 1
    if not update_experiments_md(args.experiments, results.values(), scale=args.scale):
        print(f"error: no '{MARKER}' marker in {args.experiments}", file=sys.stderr)
        return 2
    print(f"updated {args.experiments}: {len(results)} experiments at "
          f"{args.scale} scale, every claim holds")
    return 0


def cmd_suite(args) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        workload = build_workload(name, scale="test")
        rows.append([name, workload.category, workload.description])
    print(format_table(["name", "category", "description"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Levioso (DAC'24) reproduction: simulators, compiler pass, "
        "attacks and experiment harness.",
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="assemble and execute a program")
    p.add_argument("file")
    p.add_argument("--policy", default="none", choices=ALL_POLICY_NAMES)
    p.add_argument("--functional", action="store_true", help="use the golden model")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true", help="machine-readable stats")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("disasm", help="disassemble a program")
    p.add_argument("file")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser(
        "analyze",
        help="compiler pass report + gadget scan + metadata verifier",
    )
    p.add_argument("file", metavar="TARGET",
                   help="assembly file, workload name, or attack name")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "lint",
        help="scan programs for Spectre gadgets and verify their metadata",
    )
    p.add_argument("targets", nargs="+", metavar="TARGET",
                   help="assembly files, workload names, or attack names")
    p.add_argument(
        "--expect", type=_expect_spec, default=None, metavar="EXPECTATION",
        help="gate the exit code on the expected outcome (CI use): "
        "clean, findings, or counts:<kind>=<n>,... for exact per-kind "
        "totals across all targets (unlisted kinds must be absent)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_lint)

    def add_parallel_flags(p):
        p.add_argument(
            "--jobs", type=int, default=default_jobs(), metavar="N",
            help="worker processes for simulations (default: $REPRO_JOBS or 1)",
        )
        p.add_argument(
            "--cache", action="store_true",
            help="persist run results in the on-disk cache",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="cache location (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-levioso/runs)",
        )
        p.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="retries per grid point after the first attempt (default: 2)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECS",
            help="per-point wall-clock budget; hung workers are abandoned "
            "and the point retried (parallel mode only)",
        )
        p.add_argument(
            "--keep-going", action="store_true",
            help="complete the grid around permanently failed points and "
            "render partial tables with explicit holes",
        )
        p.add_argument(
            "--fault-plan", default=None, metavar="JSON|@FILE",
            help="inject a seeded fault plan (chaos testing)",
        )

    p = sub.add_parser("bench", help="overhead table across the suite")
    p.add_argument("--scale", default="test", choices=("test", "ref"))
    p.add_argument("--policies", nargs="*", choices=ALL_POLICY_NAMES)
    p.add_argument("--workloads", nargs="*", choices=WORKLOAD_NAMES)
    add_parallel_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "experiment", help="regenerate tables/figures and check their claims"
    )
    p.add_argument("ids", nargs="+", choices=sorted(EXPERIMENTS),
                   metavar="ID")
    p.add_argument("--scale", default="test", choices=("test", "ref"))
    add_parallel_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "cache", help="inspect, verify, repair or clear the run-result cache"
    )
    p.add_argument("action", choices=("info", "verify", "repair", "clear"))
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection drill: inject worker crashes/hangs/"
        "kills + cache corruption, assert recovery is bit-identical",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed: it picks the keys a spec with probability "
        "< 1 fires on.  Every spec of the built-in batch and --service "
        "plans fires with probability 1, so for them the seed changes "
        "nothing; which point gets which fault is decided by timing",
    )
    p.add_argument("--scale", default="test", choices=("test", "ref"))
    p.add_argument("--jobs", type=int, default=2, metavar="N")
    p.add_argument("--workloads", nargs="*", choices=WORKLOAD_NAMES)
    p.add_argument("--policies", nargs="*", choices=ALL_POLICY_NAMES)
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="keep the drill's cache here (default: temp dir)")
    p.add_argument(
        "--service", action="store_true",
        help="drive the drill through the HTTP service path (worker kill "
        "+ cache corruption while jobs are queued) instead of the batch "
        "harness",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run the simulation service daemon (async job queue with "
        "request coalescing, backpressure and a /metrics endpoint)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="listen port (0 picks an ephemeral port)")
    p.add_argument("--jobs", type=int, default=default_jobs(), metavar="N",
                   help="worker processes (default: $REPRO_JOBS or 1)")
    p.add_argument("--queue-depth", type=int, default=64, metavar="N",
                   help="max queued simulations before 429s (default: 64)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries per job after the first attempt (default: 2)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECS",
                   help="per-job wall-clock budget; hung workers are "
                   "abandoned and the job retried")
    p.add_argument("--cache", action="store_true",
                   help="persist results in the on-disk run cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache location (implies --cache)")
    p.add_argument("--drain-timeout", type=float, default=60.0,
                   metavar="SECS",
                   help="grace period for in-flight jobs on SIGTERM "
                   "(default: 60)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit workload x policy runs to a running repro serve "
        "daemon and optionally wait/verify",
    )
    p.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                   help="suite workload name or a fuzz/s<seed>/i<i>/f<ff> "
                   "adversarial name")
    p.add_argument("--policies", nargs="*", choices=ALL_POLICY_NAMES,
                   help="policies per workload (default: none levioso)")
    p.add_argument("--scale", default="test", choices=("test", "ref"))
    p.add_argument("--url", default=None,
                   help="service base URL (default: $REPRO_SERVICE_URL or "
                   "http://127.0.0.1:8765)")
    p.add_argument("--priority", type=int, default=None,
                   help="batch priority (lower runs sooner)")
    p.add_argument("--wait", action="store_true",
                   help="block until every job resolves and print results")
    p.add_argument("--duplicate", action="store_true",
                   help="submit every point twice in-batch, then resubmit "
                   "after completion (exercises coalescing + cache hits)")
    p.add_argument("--verify", action="store_true",
                   help="after waiting, rerun each point serially in-process "
                   "and require bit-identical results (implies --wait)")
    p.add_argument("--json", action="store_true",
                   help="print the final job objects as JSON (implies --wait)")
    p.add_argument("--wait-timeout", type=float, default=600.0,
                   metavar="SECS")
    p.add_argument("--http-timeout", type=float, default=30.0,
                   metavar="SECS")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "fuzz",
        help="adversarial campaign: synthesize Spectre-shaped programs, "
        "cross-validate the scanner against the differential leakage "
        "oracle, optionally repair every leaky program to certified-clean",
    )
    p.add_argument("--seed", type=int, default=7,
                   help="corpus seed (default: 7)")
    p.add_argument("--count", type=int, default=32, metavar="N",
                   help="programs to synthesize (default: 32)")
    p.add_argument("--policies", nargs="*", choices=ALL_POLICY_NAMES,
                   help="policies to judge under (default: "
                   "$REPRO_FUZZ_POLICIES or none fence levioso; the "
                   "baseline 'none' is always included)")
    p.add_argument("--repair", action="store_true",
                   help="drive every leaky program through the fence-repair "
                   "loop and re-judge the repaired variants")
    p.add_argument("--json", action="store_true",
                   help="print the full campaign report as JSON")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the JSON report to FILE")
    add_parallel_flags(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "repair",
        help="scan one program, insert the cheapest sufficient fences, "
        "and certify the result with the differential oracle",
    )
    p.add_argument("target", metavar="TARGET",
                   help="assembly file, workload/fuzz name, or attack name")
    p.add_argument("--policy", default="none", choices=ALL_POLICY_NAMES,
                   help="policy to certify and cost under (default: none)")
    p.add_argument("--strategy", default="load",
                   choices=("load", "branch", "selective", "slh", "cheapest"),
                   help="fence placement: at the transmitter (load), the "
                   "guard's fallthrough (branch), batched transmitter "
                   "fencing (selective), lifted speculative load hardening "
                   "(slh), or simulate all and keep the fastest (cheapest)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--emit", default=None, metavar="FILE",
                   help="write the repaired assembly source to FILE")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser(
        "mitigate",
        help="apply a software mitigation pass and certify it both ways "
        "(architectural equivalence + differential oracle)",
    )
    p.add_argument("target", metavar="TARGET",
                   help="assembly file, workload/fuzz name, or attack name")
    from .compiler.mitigations import MITIGATION_PASSES as _MIT_PASSES

    p.add_argument("--pass", dest="pass_name", required=True,
                   choices=_MIT_PASSES,
                   help="mitigation pass to apply")
    p.add_argument("--scale", default="test", choices=("test", "ref"),
                   help="workload scale for named targets (default: test)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable certificate")
    p.add_argument("--emit", default=None, metavar="FILE",
                   help="write the mitigated assembly source to FILE")
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("attack", help="run a Spectre gadget under a policy")
    p.add_argument("name", choices=sorted(ATTACKS))
    p.add_argument("--policy", default="none", choices=ALL_POLICY_NAMES)
    p.add_argument("--secret", type=lambda s: int(s, 0), default=0x5A)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("pipeline", help="render a pipeline timeline for a program")
    p.add_argument("file")
    p.add_argument("--policy", default="none", choices=ALL_POLICY_NAMES)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, default=32)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser(
        "profile",
        help="profile one simulator run: cProfile hot paths + per-stage "
        "cycle attribution + event-horizon diagnostics",
    )
    p.add_argument("target", metavar="TARGET",
                   help="assembly file, workload name, or attack name")
    p.add_argument("--policy", default="none", choices=ALL_POLICY_NAMES)
    p.add_argument("--scale", default="test", choices=("test", "ref"))
    p.add_argument("--sort", default="cumtime",
                   choices=("cumtime", "tottime", "ncalls"))
    p.add_argument("--top", type=int, default=25, metavar="N",
                   help="number of functions to report (default: 25)")
    p.add_argument("--limit", type=int, default=None, metavar="CYCLES",
                   help="cycle budget for the profiled run")
    p.add_argument("--no-cycle-skip", action="store_true",
                   help="profile the reference stepped loop instead of the "
                   "event-horizon fast path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "report", help="rerun every experiment, check its claims and rewrite "
        "EXPERIMENTS.md's record"
    )
    p.add_argument("--experiments", default="EXPERIMENTS.md")
    p.add_argument("--scale", default="test", choices=("test", "ref"))
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("suite", help="list SPEClite workloads")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Conventional 128+SIGINT exit, without the traceback wall of text.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
