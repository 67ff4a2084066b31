"""Deterministic, seedable fault injection for chaos-testing the harness.

The resilience layer (:mod:`repro.harness.resilience`) claims to survive
crashed workers, hung workers, killed worker processes, corrupted cache
entries and transient I/O errors.  This module makes those failures
*injectable on demand* so tests and the CI chaos job can prove the claim:
a :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries, each
naming an injection **site** (``worker``, ``cache.get``, ``cache.put``),
a fault **kind**, and a firing budget.

Design constraints, in priority order:

1. **Determinism** — the same plan over the same grid produces the same
   set of injected failures (per-key selection is a hash of the seed and
   the content key, never wall-clock or ``random``).
2. **Cross-process coherence** — grid points run in pool workers, so the
   firing ledger lives on disk (``state_dir``): each spec fires at most
   ``times`` times *across all processes*, claimed with ``O_EXCL`` token
   files, and at most **once per key**, so a retried point succeeds.
   That mirrors real transient faults and is what lets tests assert
   "injected failure, then recovery".
3. **Zero overhead when off** — the plan travels in the ``REPRO_FAULTS``
   environment variable (inherited by pool workers); when unset,
   :func:`maybe_fault` is a cached dict lookup and a ``None`` return.

Fault kinds:

``exception``   raise :class:`~repro.errors.InjectedFault` at the site
``io_error``    raise :class:`OSError` (transient-I/O shape) at the site
``hang``        sleep ``hang_seconds`` (trips the supervisor's timeout)
``kill``        ``SIGKILL`` the current process (breaks the worker pool)
``corrupt``     not raised: returned to the caller, which garbles the
                bytes it was about to write (cache-store site only)
``node_kill``   ``SIGKILL`` the current process at the ``node`` site — a
                whole worker *daemon* dies mid-campaign (the cluster
                coordinator must fail its in-flight jobs over)
``heartbeat_loss``  not raised: returned to the caller — the daemon's
                membership loop goes silent for ``hang_seconds``,
                modelling a network partition (the node keeps running
                but the coordinator declares it dead)

The ``node`` site is consulted by a ``repro serve`` daemon once per new
flight it admits, with the key ``"{node_id}/job{n}"``, and once per
heartbeat, with the key ``"{node_id}/hb{seq}"``.  Keying on admitted
work lets a drill target e.g. exactly the first simulation worker ``w1``
accepts (``match="w1/job1"``) — inside the campaign however fast the
simulator runs, where a heartbeat count is only a guess at wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import tempfile
import time
from fnmatch import fnmatch
from pathlib import Path

from .errors import HarnessError, InjectedFault

#: Environment variable carrying the serialized active plan (workers
#: inherit it from the coordinator through the process pool).
FAULT_ENV = "REPRO_FAULTS"

FAULT_KINDS = ("exception", "io_error", "hang", "kill", "corrupt",
               "node_kill", "heartbeat_loss")
FAULT_SITES = ("worker", "cache.get", "cache.put", "node")

#: Kinds that are *returned* by :func:`maybe_fault` instead of executed:
#: the caller owns the failure (garbling bytes, suppressing heartbeats).
PASSIVE_KINDS = ("corrupt", "heartbeat_loss")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injectable failure: where, what, how often."""

    site: str                 # injection point, one of FAULT_SITES
    kind: str                 # one of FAULT_KINDS
    match: str = "*"          # fnmatch pattern over the content key
    times: int = 1            # total firing budget across all processes
    probability: float = 1.0  # seeded per-key selection when < 1.0
    hang_seconds: float = 30.0
    #: Transient faults (the default) fire at most once per key, so a
    #: retry succeeds.  Persistent faults skip that veto and keep firing
    #: until the budget is spent — modelling a deterministic crash.
    persistent: bool = False

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise HarnessError(
                f"unknown fault site {self.site!r} (sites: {', '.join(FAULT_SITES)})"
            )
        if self.kind not in FAULT_KINDS:
            raise HarnessError(
                f"unknown fault kind {self.kind!r} (kinds: {', '.join(FAULT_KINDS)})"
            )


def _key_digest(seed: int, index: int, key: str) -> int:
    text = f"{seed}:{index}:{key}"
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


class FaultPlan:
    """A seeded set of fault specs with an on-disk firing ledger.

    ``state_dir`` holds one token file per firing (claimed atomically
    with ``O_EXCL``), which is what enforces the ``times`` budget and the
    once-per-key rule across worker processes.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...],
                 seed: int = 0, state_dir: str | Path | None = None):
        self.specs = tuple(specs)
        self.seed = seed
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-faults-")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ selection
    def check(self, site: str, key: str) -> FaultSpec | None:
        """The spec that should fire at ``site`` for ``key``, if any.

        Claims a slot in the firing ledger as a side effect, so asking is
        committing: callers must act on a non-``None`` answer.
        """
        for index, spec in enumerate(self.specs):
            if spec.site != site or not fnmatch(key, spec.match):
                continue
            if spec.probability < 1.0:
                frac = (_key_digest(self.seed, index, key) % 10**9) / 10**9
                if frac >= spec.probability:
                    continue
            if self._claim(index, spec.times, key, spec.persistent):
                return spec
        return None

    def _claim(self, index: int, budget: int, key: str,
               persistent: bool = False) -> bool:
        """Atomically claim one of ``budget`` firing slots for spec ``index``.

        A transient spec fires at most once per key — a retried point
        must succeed, like a real transient fault — so a slot already
        holding this key vetoes a second firing.
        """
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        slots = [self.state_dir / f"spec{index}.slot{n}" for n in range(budget)]
        if not persistent:
            for slot in slots:
                try:
                    claimed = slot.read_text()
                except OSError:
                    continue
                if claimed == digest:
                    return False  # already fired for this key once
        for slot in slots:
            try:
                fd = os.open(slot, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            with os.fdopen(fd, "w") as f:
                f.write(digest)
            return True
        return False  # budget exhausted

    def fired(self) -> int:
        """How many faults have fired so far (ledger size)."""
        return len(list(self.state_dir.glob("spec*.slot*")))

    # ---------------------------------------------------------------- firing
    def fire(self, spec: FaultSpec, site: str, key: str) -> None:
        """Execute an *active* fault kind (everything except ``corrupt``)."""
        what = f"injected {spec.kind} at {site} for key {key[:12]}…"
        if spec.kind == "exception":
            raise InjectedFault(what)
        if spec.kind == "io_error":
            raise OSError(f"{what} (transient I/O error)")
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
            return
        if spec.kind in ("kill", "node_kill"):
            os.kill(os.getpid(), signal.SIGKILL)

    # ----------------------------------------------------------- environment
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "state_dir": str(self.state_dir),
                "specs": [dataclasses.asdict(s) for s in self.specs],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
            specs = [FaultSpec(**s) for s in data["specs"]]
            return cls(specs, seed=data.get("seed", 0),
                       state_dir=data.get("state_dir"))
        except (ValueError, TypeError, KeyError) as exc:
            raise HarnessError(f"unreadable fault plan: {exc}") from exc

    def install(self) -> "FaultPlan":
        """Publish this plan in the environment (pool workers inherit it)."""
        os.environ[FAULT_ENV] = self.to_json()
        _PLAN_CACHE[0] = None  # force re-resolution in this process
        return self


def uninstall() -> None:
    """Remove any active plan from the environment."""
    os.environ.pop(FAULT_ENV, None)
    _PLAN_CACHE[0] = None


#: (env text, parsed plan) memo so maybe_fault() is cheap per call.
_PLAN_CACHE: list = [None]


def active_plan() -> FaultPlan | None:
    """The plan published in ``$REPRO_FAULTS``, or ``None``."""
    text = os.environ.get(FAULT_ENV)
    if not text:
        return None
    memo = _PLAN_CACHE[0]
    if memo is not None and memo[0] == text:
        return memo[1]
    plan = FaultPlan.from_json(text)
    _PLAN_CACHE[0] = (text, plan)
    return plan


def maybe_fault(site: str, key: str) -> FaultSpec | None:
    """Consult the active plan at an injection site.

    Active kinds (exception / io_error / hang / kill / node_kill) are
    executed here; passive kinds (``corrupt``, ``heartbeat_loss``) are
    returned so the caller — the cache store, the daemon's membership
    loop — can own the failure itself.
    """
    plan = active_plan()
    if plan is None:
        return None
    spec = plan.check(site, key)
    if spec is None:
        return None
    if spec.kind not in PASSIVE_KINDS:
        plan.fire(spec, site, key)
    return spec


def default_chaos_plan(seed: int, state_dir: str | Path | None = None) -> FaultPlan:
    """The plan the CI chaos job and ``repro chaos`` use.

    Exercises every recovery path the acceptance criteria name: one
    killed worker process, three worker crashes, one worker hang (short,
    so the smoke stays fast), one corrupted cache entry, and one
    transient cache-read error.  The kill comes first so it fires on a
    first attempt, before any point can reach the hang: a kill in the
    hung worker's generation would turn the hang into a pool death.
    """
    return FaultPlan(
        [
            FaultSpec("worker", "kill", times=1),
            FaultSpec("worker", "exception", times=3),
            FaultSpec("worker", "hang", times=1, hang_seconds=8.0),
            FaultSpec("cache.put", "corrupt", times=1),
            FaultSpec("cache.get", "io_error", times=1),
        ],
        seed=seed,
        state_dir=state_dir,
    )
