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

from dataclasses import dataclass, field

from ..uarch import CoreConfig, SimResult
from ..uarch.stats import CoreStats
from ..workloads import Workload, build_suite
from .cache import ResultCache, config_fingerprint, run_key, workload_fingerprint
from .lockstep import BatchRecords, simulate_members


@dataclass(frozen=True)
class GridPoint:
    """One simulation in an experiment grid (picklable)."""

    workload: str
    policy: str
    use_compiler_info: bool = True
    config: CoreConfig | None = None  # None -> the runner's default config
    # Capture an observation-trace digest (differential leakage oracle).
    # Mixed into the run key only when True, so plain grids are unchanged.
    observe: bool = False


@dataclass
class RunRecord:
    """One measured simulation.

    ``core_stats``/``mem_stats`` carry every counter the experiments
    consume; the record is small, picklable and exactly what the
    persistent cache stores.
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
    # unit of comparison); None on plain runs.  JSON-serializable, so it
    # survives the cache like every other counter.
    obs_digest: str | None = None
    # Software-mitigation tag (``<pass>@v<version>``) applied to the
    # workload, or None for plain runs; recorded so cached results are
    # never conflated across mitigation-pass versions.
    mitigation: str | None = None

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
        )


class ExperimentRunner:
    """Runs workloads under policies/configs with content-keyed caching."""

    def __init__(self, scale: str = "ref", config: CoreConfig | None = None,
                 verbose: bool = False, cache: ResultCache | None = None,
                 store: dict[str, RunRecord] | None = None):
        self.scale = scale
        self.config = config or CoreConfig()
        self.verbose = verbose
        self.cache = cache
        self.simulations = 0  # actual OooCore runs (cache hits excluded)
        #: Fill-twin records copied from a proven first fill instead of
        #: simulated (DESIGN.md §15); ``simulations`` excludes them.
        self.copies = 0
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
        point = GridPoint(workload_name, policy_name, use_compiler_info,
                          cfg, observe)
        records = simulate_members((key,), (point,), self.workload, cfg)
        self._keep(records)
        record = records[key]
        if self.verbose:
            print(
                f"  {workload_name:10s} {policy_name:8s} "
                f"{record.cycles:>9d} cycles  IPC {record.ipc:.2f}"
            )
        return record

    def _keep(self, records: BatchRecords) -> None:
        """Count and keep a batch's records, in memory and in ``cache``."""
        for key, record in records.items():
            if key in records.copied:
                self.copies += 1
            else:
                self.simulations += 1
            self._cache[key] = record
            if self.cache is not None:
                self.cache.put(key, record)

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


def overhead_grid(workloads, policies) -> list[GridPoint]:
    """Every point ``overhead(w, p)`` reads: each baseline, then each policy."""
    points = [GridPoint(w, "none") for w in workloads]
    points += [GridPoint(w, p) for w in workloads for p in policies]
    return points
