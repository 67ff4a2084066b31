"""Experiment runner: (workload, policy, config) -> measured run records.

Runs are memoized on a *content* key — fingerprints of the workload's
program/metadata, the policy name, the config's field values and the
simulator revision (see :mod:`repro.harness.cache`) — so a figure that
reuses the baseline runs of another figure does not pay for them twice, and
two equal configs constructed independently share one entry.  (Earlier
revisions keyed on ``id(cfg)``, which both missed equal configs and could
alias distinct ones after the allocator reused an address.)

Optionally, a :class:`~repro.harness.cache.ResultCache` persists slim
records across processes and invocations, and a shared ``store`` dict lets
several runners (e.g. the per-config runners of a ROB sweep) pool their
in-memory results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import AnalysisError, SimulationError
from ..faults import maybe_fault
from ..secure import make_policy
from ..uarch import CoreConfig, OooCore, SimResult
from ..uarch.stats import CoreStats
from ..workloads import Workload, build_suite
from .cache import ResultCache, config_fingerprint, run_key, workload_fingerprint


@dataclass
class RunRecord:
    """One measured simulation.

    ``core_stats``/``mem_stats`` carry every counter the experiments
    consume and survive caching and pickling; ``result`` additionally holds
    the full :class:`SimResult` (registers, memory hierarchy objects) for
    in-process callers, but is ``None`` on records that crossed a process
    or cache boundary — call sites must not rely on it.
    """

    workload: str
    policy: str
    cycles: int
    committed: int
    ipc: float
    loads_gated: int
    load_gate_cycles: int
    mean_gate_delay: float
    gated_loads_pki: float
    mpki: float
    core_stats: CoreStats | None = field(repr=False, default=None)
    mem_stats: dict | None = field(repr=False, default=None)
    # Observation-trace digest of an observed run (the leakage oracle's
    # unit of comparison); None on plain runs.  Slim and JSON-serializable,
    # so it survives the cache like every other counter.
    obs_digest: str | None = None
    # Software-mitigation tag (``<pass>@v<version>``) applied to the
    # workload, or None for plain runs; recorded so cached results are
    # never conflated across mitigation-pass versions.
    mitigation: str | None = None
    result: SimResult | None = field(repr=False, default=None)

    @classmethod
    def from_result(
        cls,
        workload: str,
        policy: str,
        result: SimResult,
        mitigation: str | None = None,
    ) -> "RunRecord":
        stats = result.stats
        observations = result.observations
        return cls(
            workload=workload,
            policy=policy,
            cycles=stats.cycles,
            committed=stats.committed,
            ipc=stats.ipc,
            loads_gated=stats.loads_gated,
            load_gate_cycles=stats.load_gate_cycles,
            mean_gate_delay=stats.mean_gate_delay,
            gated_loads_pki=stats.gated_loads_pki,
            mpki=stats.mpki,
            core_stats=stats,
            mem_stats=result.hierarchy.stats(),
            obs_digest=(
                observations.digest() if observations is not None else None
            ),
            mitigation=mitigation,
            result=result,
        )

    def slim(self) -> "RunRecord":
        """Copy without the heavyweight ``result`` payload.

        This is the form that enters the persistent cache and crosses
        process boundaries; the counters every experiment reads
        (``core_stats``/``mem_stats``) are retained.
        """
        if self.result is None:
            return self
        return replace(self, result=None)


class ExperimentRunner:
    """Runs workloads under policies/configs with content-keyed caching."""

    def __init__(self, scale: str = "ref", config: CoreConfig | None = None,
                 verbose: bool = False, cache: ResultCache | None = None,
                 store: dict[str, RunRecord] | None = None,
                 crosscheck: bool = False):
        self.scale = scale
        self.config = config or CoreConfig()
        self.verbose = verbose
        self.cache = cache
        # When set, every simulation records its pipeline and asserts, per
        # retired instruction, that the tracked dynamic dependency set is
        # covered by the static compiler metadata (soundness cross-check).
        # Cached results are bypassed: the point is to observe a real run.
        self.crosscheck = crosscheck
        self.simulations = 0  # actual OooCore runs (cache hits excluded)
        self._cache: dict[str, RunRecord] = store if store is not None else {}
        self._workloads: dict[str, Workload] = {}
        self._workload_fps: dict[str, str] = {}

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            from ..workloads import build_workload

            self._workloads[name] = build_workload(name, self.scale)
        return self._workloads[name]

    def suite(self, names: tuple[str, ...] | None = None) -> list[Workload]:
        workloads = build_suite(self.scale, names)
        for w in workloads:
            self._workloads[w.name] = w
        return workloads

    def run_key_for(
        self,
        workload_name: str,
        policy_name: str,
        config: CoreConfig | None = None,
        use_compiler_info: bool = True,
        observe: bool = False,
    ) -> str:
        """Content key of one run (stable across processes and sessions)."""
        cfg = config or self.config
        wfp = self._workload_fps.get(workload_name)
        if wfp is None:
            wfp = workload_fingerprint(self.workload(workload_name), self.scale)
            self._workload_fps[workload_name] = wfp
        return run_key(wfp, policy_name, config_fingerprint(cfg),
                       use_compiler_info, observe=observe)

    def run(
        self,
        workload_name: str,
        policy_name: str,
        config: CoreConfig | None = None,
        use_compiler_info: bool = True,
        observe: bool = False,
    ) -> RunRecord:
        """Run one (workload, policy) pair, self-checking the result."""
        cfg = config or self.config
        key = self.run_key_for(
            workload_name, policy_name, cfg, use_compiler_info, observe
        )
        if not self.crosscheck:
            record = self._cache.get(key)
            if record is not None and (not observe or record.obs_digest):
                return record
            if self.cache is not None:
                record = self.cache.get(key)
                # Defensive: an observed key must come back with a digest
                # (a legacy/foreign entry without one is re-simulated).
                if record is not None and (not observe or record.obs_digest):
                    self._cache[key] = record
                    return record
        # Chaos hook: with a fault plan active, a worker-site fault
        # (crash/hang/kill) fires here — exactly where a real one would.
        maybe_fault("worker", key)
        workload = self.workload(workload_name)
        program = workload.assemble()
        core = OooCore(
            program,
            config=cfg,
            policy=make_policy(policy_name),
            use_compiler_info=use_compiler_info,
            record_pipeline=self.crosscheck,
            record_observations=observe,
        )
        result = core.run()
        self.simulations += 1
        if self.crosscheck:
            from ..analysis import crosscheck_retired

            check = crosscheck_retired(program, core.retired)
            if not check.ok:
                first = check.violations[0]
                raise AnalysisError(
                    f"{workload_name} under {policy_name}: dynamic dependency "
                    f"escaped static metadata — retired pc {first.inst_pc:#x} "
                    f"depends on branch {first.branch_pc:#x} which does not "
                    f"list it ({len(check.violations)} violation(s))"
                )
        if not workload.validate(result.regs):
            raise SimulationError(
                f"{workload_name} under {policy_name}: self-check failed "
                f"(a0={result.regs[10]:#x}, want {workload.check_value:#x})"
            )
        record = RunRecord.from_result(
            workload_name, policy_name, result,
            mitigation=getattr(workload, "mitigation", None),
        )
        if self.verbose:
            print(
                f"  {workload_name:10s} {policy_name:8s} "
                f"{record.cycles:>9d} cycles  IPC {record.ipc:.2f}"
            )
        self._cache[key] = record
        if self.cache is not None:
            self.cache.put(key, record)
        return record

    def overhead(self, workload_name: str, policy_name: str, **kwargs) -> float:
        """Normalized execution-time overhead vs the unprotected core."""
        baseline = self.run(workload_name, "none", **kwargs)
        protected = self.run(workload_name, policy_name, **kwargs)
        return protected.cycles / baseline.cycles - 1.0


def geomean(values: list[float]) -> float:
    """Geometric mean of (1 + overhead) factors, returned as overhead."""
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= 1.0 + v
    return product ** (1.0 / len(values)) - 1.0
