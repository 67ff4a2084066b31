"""The three benchmark workloads: ``grid``, ``fuzz`` and ``service``.

Each workload derives all of its inputs from ``(seed, seconds)`` alone (the
``*_plan`` functions, which import nothing from ``repro``), prepares them in
``setup()``, runs one timed phase in ``timed()`` and checks every output it
produced.  The timed phase runs in this process with no process pool;
``service`` alone adds the daemon's single worker process.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
import threading
import time

from common import percentile, point_counters, vm_hwm_mb

SCALE = "test"

#: The seven policies of the paper grid, baseline first (paper Fig. 2 order).
POLICIES = ("none", "fence", "dom", "nda", "stt", "ctt", "levioso")

#: Nominal host seconds of one work unit on the reference machine; the
#: number of units in a run is ``round(seconds / unit)``, at least one, so
#: the inputs (and the model digest) depend only on the arguments.
GRID_PASS_S = 27.0
FUZZ_CAMPAIGN_S = 11.0
SERVICE_STEP_S = 0.1       # one batch per client; the clients run side by side

#: Programs per fuzz campaign: 64 keeps seed-to-seed wall time within ~3%
#: and the campaign's image working set above the 64-entry decoded-image LRU.
FUZZ_COUNT = 64
FUZZ_POLICIES = ("none", "fence", "levioso")
FUZZ_FILLS = (0x41, 0xC3)

#: Service traffic: two closed-loop clients with disjoint key sets.
SERVICE_CLIENTS = 2
SERVICE_MIN_JOBS = 200
#: (fresh, in-batch duplicates, repeats of completed points) per batch.
SERVICE_CYCLE = ((2, 1, 1), (1, 0, 2), (3, 1, 1), (2, 1, 0))
SERVICE_POLL_S = 0.002     # client poll; far below any simulation's time
SERVICE_WARMUP = ("fuzz/s999/i0/f41", "none")  # forks the worker in set-up


@dataclasses.dataclass
class Phase:
    """What one timed phase did and how long it took."""

    wall_s: float = 0.0
    ops: int = 0                  # user-level operations completed
    attempted: int = 0
    failed: int = 0
    kinst: float = 0.0            # committed simulated kilo-instructions
    latencies_ms: list = dataclasses.field(default_factory=list)
    points: dict = dataclasses.field(default_factory=dict)  # digest input
    records: list = dataclasses.field(default_factory=list)
    notes: list = dataclasses.field(default_factory=list)   # printed lines
    checks: dict = dataclasses.field(default_factory=dict)  # compared in trace mode
    extra: dict = dataclasses.field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(f"FAILED: {message}")


def units(seconds: int, unit_s: float) -> int:
    return max(1, round(seconds / unit_s))


# ----------------------------------------------------------------- plans
def fuzz_plan(seed: int, seconds: int) -> list[int]:
    """Campaign seeds of one run: disjoint across benchmark seeds."""
    n = units(seconds, FUZZ_CAMPAIGN_S)
    return [seed * 64 + k for k in range(n)]


def service_plan(seed: int, seconds: int):
    """Per-client request batches plus the exact job split they must produce.

    Each batch mixes fresh points (new keys, one simulation each),
    duplicates of a fresh point inside the same batch (coalesced) and
    repeats of points the same client completed earlier (cache hits).
    How many of each a batch holds follows a fixed cycle, so every seed
    yields the same split; the seed picks the programs, policies, fills,
    which points repeat and the order inside each batch.  Clients draw
    from disjoint key sets (one fuzz seed each) and submit a batch only
    after the previous one resolved, so the split is exact.
    """
    rng = random.Random(f"perfbench-service:{seed}")
    steps = units(seconds, SERVICE_STEP_S)
    clients = []
    expected = {"simulations": 0, "coalesced": 0, "cache_hits": 0}
    for c in range(SERVICE_CLIENTS):
        fuzz_seed = 1000 + SERVICE_CLIENTS * seed + c
        done: list[tuple[str, str]] = []
        batches = []
        for step in range(steps):
            n_fresh, n_dup, n_repeat = SERVICE_CYCLE[step % len(SERVICE_CYCLE)]
            fresh = [(f"fuzz/s{fuzz_seed}/i{len(done) + i}/f{rng.choice(FUZZ_FILLS):02x}",
                      rng.choice(POLICIES)) for i in range(n_fresh)]
            dups = rng.sample(fresh, n_dup)
            repeats = rng.sample(done, min(len(done), n_repeat))
            # The first occurrence of a fresh key opens its flight; a later
            # one in the same batch coalesces onto it.
            batch = fresh + dups + repeats
            rng.shuffle(batch)
            batches.append(batch)
            expected["simulations"] += n_fresh
            expected["coalesced"] += n_dup
            expected["cache_hits"] += len(repeats)
            done.extend(fresh)
        clients.append(batches)
    return clients, expected


# ------------------------------------------------------------ workloads
class Workload:
    """Hooks a workload may override; the defaults do nothing."""

    def teardown(self) -> None:
        pass

    def check(self, phase: Phase) -> None:
        """Checks that run after the timed phase and outside its clock."""

    def peak_rss_mb(self) -> float:
        """Peak resident set of helper processes (the benchmark's own is read apart)."""
        return 0.0


class Grid(Workload):
    """The paper grid: 14 SPEClite workloads x 7 policies at ``test`` scale.

    ``workloads`` and ``policies`` narrow it to a slice (the ablation's).
    """

    name = "grid"

    def __init__(self, seed: int, seconds: int, workloads=None,
                 policies=POLICIES):
        self.passes = units(seconds, GRID_PASS_S)  # the seed is not used
        self.workloads = workloads
        self.policies = policies

    def setup(self) -> None:
        from repro.secure import make_policy
        from repro.uarch import CoreConfig, OooCore
        from repro.workloads import WORKLOAD_NAMES, build_workload

        self.workloads = self.workloads or WORKLOAD_NAMES
        config = CoreConfig()
        for name in self.workloads:
            program = build_workload(name, SCALE).assemble()
            for policy in self.policies:
                OooCore(program, config=config, policy=make_policy(policy))

    def timed(self) -> Phase:
        from repro.harness import GridPoint, ParallelRunner

        phase = Phase()
        records = []
        start = time.perf_counter()
        for _ in range(self.passes):
            runner = ParallelRunner(scale=SCALE, jobs=1, keep_going=True)
            t0 = time.perf_counter()
            runner.prefetch(GridPoint(w, p) for w in self.workloads
                            for p in self.policies)
            phase.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            records = [runner.run(w, p) for w in self.workloads
                       for p in self.policies]
            phase.attempted += len(records)
            if runner.failed_points:
                phase.fail(f"{len(runner.failed_points)} grid point(s): "
                           f"{sorted(runner.failed_points.values())}",
                           len(runner.failed_points))
            phase.ops += len(records) - len(runner.failed_points)
            phase.kinst += sum(r.committed for r in records) / 1e3
        phase.wall_s = time.perf_counter() - start
        phase.records = records
        phase.points = {f"{r.workload}|{r.policy}": point_counters(r)
                        for r in records}
        phase.notes += fig2_lines(records)
        return phase


def fig2_lines(records) -> list[str]:
    """Per-policy geomean overhead beside the paper's Fig. 2."""
    paper = {"fence": "51% (fence-class)", "ctt": "43% (CTT-class)",
             "levioso": "23%"}
    base = {r.workload: r.cycles for r in records if r.policy == "none"}
    lines = ["fig2 geomean overhead vs none, host model UNVALIDATED "
             "(no hardware reference here; the paper used SPEC CPU2017):"]
    for policy in POLICIES[1:]:
        product, n = 1.0, 0
        for r in records:
            if r.policy == policy and base.get(r.workload):
                product *= r.cycles / base[r.workload]
                n += 1
        if n:
            overhead = 100.0 * (product ** (1.0 / n) - 1.0)
            ref = paper.get(policy, "-")
            lines.append(f"  {policy:8s} {overhead:6.1f}%   paper {ref}")
    return lines


class Fuzz(Workload):
    """Seeded adversarial campaigns: synth, scan, 2-fill oracle, repair, recheck."""

    name = "fuzz"

    def __init__(self, seed: int, seconds: int):
        self.campaign_seeds = fuzz_plan(seed, seconds)

    def setup(self) -> None:
        from repro.adversarial import CampaignConfig

        self.configs = [
            CampaignConfig.resolve(s, count=FUZZ_COUNT, policies=FUZZ_POLICIES,
                                   fills=FUZZ_FILLS, repair=True)
            for s in self.campaign_seeds
        ]

    def timed(self) -> Phase:
        import hashlib

        from repro.adversarial import run_campaign
        from repro.harness import ParallelRunner

        phase = Phase()
        store: dict = {}
        repaired = certified = 0
        start = time.perf_counter()
        for config in self.configs:
            runner = ParallelRunner(scale=SCALE, jobs=1, keep_going=True,
                                    store=store)
            t0 = time.perf_counter()
            report = run_campaign(config, runner)
            phase.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            phase.attempted += config.count
            gates = report["gates"]
            bad = (gates["scanner_false_negatives"]
                   + gates["oracle_leaks_after_repair"] + len(runner.failed_points))
            if bad or not gates["passed"]:
                phase.fail(f"campaign seed {config.seed} gates {gates}, "
                           f"{len(runner.failed_points)} failed point(s)",
                           max(bad, 1))
            phase.ops += config.count - min(bad, config.count)
            text = json.dumps(report, sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            phase.checks[f"report_digest_s{config.seed}"] = digest
            phase.notes.append(f"campaign seed {config.seed}: report digest "
                               f"{digest}, gates passed={gates['passed']}")
            for item in report["items"]:
                if "repair" in item:
                    repaired += 1
                    certified += all(v == "SECURE"
                                     for v in item["repair"]["oracle"].values())
        phase.wall_s = time.perf_counter() - start
        phase.records = list(store.values())
        phase.kinst = sum(r.committed for r in phase.records) / 1e3
        phase.points = {f"{r.workload}|{r.policy}|{r.obs_digest}": point_counters(r)
                        for r in phase.records}
        phase.extra.update(oracle_sims=len(store), repaired=repaired,
                           certified=certified)
        return phase


class Service(Workload):
    """Closed-loop clients against an in-process ``repro serve`` daemon."""

    name = "service"

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.thread = None

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.daemon import ServiceConfig, ServiceThread

        self.clients, self.expected = service_plan(self.seed, self.seconds)
        self.thread = ServiceThread(ServiceConfig(port=0, jobs=1)).start()
        client = ServiceClient(self.thread.base_url)
        if client.healthz()["status"] != "ok":
            raise RuntimeError("service is not healthy after start")
        client.run_grid([{"workload": SERVICE_WARMUP[0],
                          "policy": SERVICE_WARMUP[1]}])
        self.baseline = self._counters(client)

    @staticmethod
    def _counters(client) -> dict[str, float]:
        metrics = client.metrics()
        return {
            "simulations": metrics.get("repro_service_simulations_total", 0.0),
            "coalesced": metrics.get("repro_service_jobs_coalesced_total", 0.0),
            "cache_hits": metrics.get("repro_service_cache_hits_total", 0.0),
            "rejected": metrics.get("repro_service_jobs_rejected_total", 0.0),
        }

    def _drive(self, batches, out: list) -> None:
        """One closed-loop client: submit a batch, wait for every job, repeat."""
        from repro.service.client import ServiceClient

        client = ServiceClient(self.thread.base_url)
        try:
            for batch in batches:
                t0 = time.perf_counter()
                jobs = client.submit(
                    [{"workload": w, "policy": p} for w, p in batch])
                pending = {job["id"]: req for job, req in zip(jobs, batch)}
                while pending:
                    for job_id in list(pending):
                        job = client.status(job_id)
                        if job["state"] in ("done", "failed"):
                            out.append((pending.pop(job_id), job,
                                        (time.perf_counter() - t0) * 1e3))
                    if pending:
                        time.sleep(SERVICE_POLL_S)
        except Exception as exc:  # reported as failed jobs, never raised
            out.append((None, {"state": "failed", "error": repr(exc)}, 0.0))

    def timed(self) -> Phase:
        from repro.service.client import ServiceClient

        phase = Phase()
        outs: list[list] = [[] for _ in self.clients]
        threads = [threading.Thread(target=self._drive, args=(b, o))
                   for b, o in zip(self.clients, outs)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(170.0)
        phase.wall_s = time.perf_counter() - start
        if any(t.is_alive() for t in threads):
            phase.fail("a client thread did not finish")
        results = [r for out in outs for r in out]
        planned = sum(len(b) for batches in self.clients for b in batches)
        phase.attempted = planned
        if len(results) < SERVICE_MIN_JOBS:
            phase.fail(f"only {len(results)} jobs resolved (need "
                       f">= {SERVICE_MIN_JOBS})", max(planned - len(results), 1))
        client = ServiceClient(self.thread.base_url)
        after = self._counters(client)
        split = {k: int(after[k] - self.baseline[k]) for k in after}
        want = dict(self.expected, rejected=0)
        if split != want:
            phase.fail(f"job split {split} != expected {want}")
        phase.extra.update(split=split, jobs=results)
        phase.latencies_ms = [ms for _, job, ms in results if job["state"] == "done"]
        phase.ops = len(phase.latencies_ms)
        phase.failed += sum(1 for _, job, _ in results if job["state"] != "done")
        # Worker-side simulations only: cached and coalesced jobs simulate nothing.
        simulated = [job for _, job, _ in results
                     if job["state"] == "done" and not job["cached"]
                     and not job["coalesced"]]
        phase.kinst = sum(job["result"]["committed"] for job in simulated) / 1e3
        phase.notes.append(
            f"service jobs {len(results)}: simulations {split['simulations']}, "
            f"coalesced {split['coalesced']}, cache hits {split['cache_hits']}, "
            f"rejected {split['rejected']} (expected {self.expected})")
        return phase

    def check(self, phase: Phase) -> None:
        """Every job record equals a serial in-process run of its request."""
        from repro.harness.cache import ResultCache
        from repro.harness.runner import ExperimentRunner

        runner = ExperimentRunner(scale=SCALE)
        refs: dict = {}
        records = {}
        for request, job, _ in phase.extra["jobs"]:
            if request is None or job["state"] != "done":
                continue
            if request not in refs:
                ref = runner.run(*request)
                refs[request] = json.loads(json.dumps(ResultCache.serialize(ref)))
                records[request] = ref
            if job["result"] != refs[request]:
                phase.fail(f"job {job['id']} ({request}) differs from the "
                           f"serial in-process run")
        phase.records = list(records.values())
        phase.points = {f"{w}|{p}": point_counters(r)
                        for (w, p), r in records.items()}

    def peak_rss_mb(self) -> float:
        return max((vm_hwm_mb(p.pid) for p in multiprocessing.active_children()),
                   default=0.0)

    def teardown(self) -> None:
        if self.thread is not None:
            if not self.thread.stop(60.0):
                raise RuntimeError("service did not drain cleanly")
            self.thread = None


SERVICE_LAYERS = (
    "service.queue_wait_ms_p50", "service.queue_wait_ms_p95",
    "service.run_ms_p50", "service.run_ms_p95", "service.simulations",
    "service.coalesced", "service.cache_hits", "service.rejected",
    "service.dedup_ratio",
)


def service_layers(phase: Phase) -> dict[str, float]:
    """Worker-side service figures from job timestamps and ``/metrics``."""
    if "split" not in phase.extra:
        return dict.fromkeys(SERVICE_LAYERS, 0.0)
    jobs = [job for _, job, _ in phase.extra["jobs"] if job.get("started")]
    queue = [1e3 * (j["started"] - j["created"]) for j in jobs]
    run = [1e3 * (j["finished"] - j["started"]) for j in jobs if j.get("finished")]
    split = phase.extra["split"]
    total = len(phase.extra["jobs"])
    return {
        "service.queue_wait_ms_p50": percentile(queue, 0.5) if queue else 0.0,
        "service.queue_wait_ms_p95": percentile(queue, 0.95) if queue else 0.0,
        "service.run_ms_p50": percentile(run, 0.5) if run else 0.0,
        "service.run_ms_p95": percentile(run, 0.95) if run else 0.0,
        "service.simulations": split["simulations"],
        "service.coalesced": split["coalesced"],
        "service.cache_hits": split["cache_hits"],
        "service.rejected": split["rejected"],
        "service.dedup_ratio": total / split["simulations"] if split["simulations"] else 0.0,
    }


WORKLOADS = {cls.name: cls for cls in (Grid, Fuzz, Service)}
