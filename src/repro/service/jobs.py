"""Job and flight model for the simulation service.

Terminology, mirroring request-coalescing inference servers:

* a **job** is one client submission — it always gets its own id and its
  own status object, even when it never causes a simulation;
* a **flight** is one *underlying simulation*, keyed by the run-cache
  content key (:func:`repro.harness.cache.run_key`).  Every job whose
  request hashes to the same key while that key is unresolved attaches
  to the same flight (**coalescing**); once a key has a result, later
  jobs are answered straight from the result store (**cache hit**) and
  never enqueue at all.

Simulations are pure functions of the content key, so coalescing can
never change a result — only how many times it is computed.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import time
import uuid
from typing import Any

from ..errors import ReproError
from ..harness.runner import ExperimentRunner, GridPoint, RunRecord
from ..secure import ALL_POLICY_NAMES
from ..uarch import CoreConfig
from ..workloads import WORKLOAD_NAMES

#: Job lifecycle states (terminal: done / failed).
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

SCALES = ("test", "ref")

#: Default priority; lower numbers run sooner.
DEFAULT_PRIORITY = 10


class BadRequest(ReproError):
    """A submission that can never be simulated (HTTP 400, not 429)."""


class BatchTooLarge(BadRequest):
    """More runs in one submission than the daemon accepts (HTTP 413)."""


#: Self-describing adversarial workload names (repro.adversarial.synth):
#: the name alone rebuilds the program, so any worker can simulate it.
_FUZZ_NAME_RE = re.compile(
    r"^fuzz/s\d+/i\d+/f[0-9a-f]{2}(/repaired)?$")

#: Software-mitigated variants (repro.compiler.mitigations): the base may
#: itself be any valid workload name, including a fuzz one.
_MIT_PREFIX_RE = re.compile(r"^mit/(fence|slh|slh-lifted|selective)/(?P<base>.+)$")


def is_valid_workload(name: Any) -> bool:
    if not isinstance(name, str):
        return False
    mit = _MIT_PREFIX_RE.match(name)
    if mit is not None:
        name = mit.group("base")
    return name in WORKLOAD_NAMES or bool(_FUZZ_NAME_RE.match(name))


def _validated_config(overrides: dict[str, Any]) -> CoreConfig:
    """A :class:`CoreConfig` with scalar field overrides applied."""
    valid = {
        f.name: f for f in dataclasses.fields(CoreConfig)
    }
    clean: dict[str, Any] = {}
    for name, value in overrides.items():
        if name not in valid:
            raise BadRequest(f"unknown config field {name!r}")
        if not isinstance(value, (int, float, str, bool)):
            raise BadRequest(
                f"config field {name!r}: only scalar overrides are "
                f"supported, got {type(value).__name__}"
            )
        clean[name] = value
    try:
        return dataclasses.replace(CoreConfig(), **clean)
    except (TypeError, ValueError, ReproError) as exc:
        raise BadRequest(f"invalid config overrides: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One validated (workload, policy, config, scale) simulation request."""

    workload: str
    policy: str
    scale: str = "test"
    use_compiler_info: bool = True
    config: CoreConfig | None = None
    priority: int = DEFAULT_PRIORITY

    @classmethod
    def from_dict(cls, payload: Any) -> "RunRequest":
        if not isinstance(payload, dict):
            raise BadRequest(f"run request must be an object, got "
                             f"{type(payload).__name__}")
        unknown = set(payload) - {
            "workload", "policy", "scale", "use_compiler_info", "config",
            "priority",
        }
        if unknown:
            raise BadRequest(f"unknown request field(s): "
                             f"{', '.join(sorted(unknown))}")
        workload = payload.get("workload")
        if not is_valid_workload(workload):
            raise BadRequest(
                f"unknown workload {workload!r} "
                f"(choices: {', '.join(WORKLOAD_NAMES)}, a "
                f"fuzz/s<seed>/i<index>/f<fill> adversarial name, or a "
                f"mit/<pass>/<base> software-mitigated variant)"
            )
        policy = payload.get("policy", "none")
        if policy not in ALL_POLICY_NAMES:
            raise BadRequest(
                f"unknown policy {policy!r} "
                f"(choices: {', '.join(ALL_POLICY_NAMES)})"
            )
        scale = payload.get("scale", "test")
        if scale not in SCALES:
            raise BadRequest(f"unknown scale {scale!r} (choices: test, ref)")
        use_compiler_info = payload.get("use_compiler_info", True)
        if not isinstance(use_compiler_info, bool):
            raise BadRequest("use_compiler_info must be a boolean")
        priority = payload.get("priority", DEFAULT_PRIORITY)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise BadRequest("priority must be an integer (lower runs sooner)")
        config = None
        overrides = payload.get("config")
        if overrides is not None:
            if not isinstance(overrides, dict):
                raise BadRequest("config must be an object of field overrides")
            if overrides:
                config = _validated_config(overrides)
        return cls(
            workload=workload, policy=policy, scale=scale,
            use_compiler_info=use_compiler_info, config=config,
            priority=priority,
        )

    def grid_point(self) -> GridPoint:
        return GridPoint(
            workload=self.workload,
            policy=self.policy,
            use_compiler_info=self.use_compiler_info,
            config=self.config,
        )

    def describe(self) -> dict:
        out: dict[str, Any] = {
            "workload": self.workload,
            "policy": self.policy,
            "scale": self.scale,
            "use_compiler_info": self.use_compiler_info,
            "priority": self.priority,
        }
        if self.config is not None:
            defaults = CoreConfig()
            out["config"] = {
                f.name: getattr(self.config, f.name)
                for f in dataclasses.fields(CoreConfig)
                if getattr(self.config, f.name) != getattr(defaults, f.name)
            }
        return out


def parse_submission(body: bytes, max_batch: int = 1024) -> list[RunRequest]:
    """Decode a POST /v1/runs body into validated requests.

    The parser behind ``repro serve``'s ``POST /v1/runs``
    (:class:`repro.service.daemon.SimulationService`).  Raises
    :class:`BadRequest` (HTTP 400 shape) or :class:`BatchTooLarge`
    (HTTP 413 shape).
    """
    try:
        payload = json.loads(body.decode() or "null")
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequest(f"body is not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "runs" in payload:
        runs = payload["runs"]
        if not isinstance(runs, list) or not runs:
            raise BadRequest('"runs" must be a non-empty array')
    elif isinstance(payload, dict):
        runs = [payload]
    else:
        raise BadRequest("body must be a run object or {\"runs\": [...]}")
    if len(runs) > max_batch:
        raise BatchTooLarge(f"batch too large (max {max_batch})")
    return [RunRequest.from_dict(r) for r in runs]


class RunKeyer:
    """Content keys for requests, sharing workload fingerprints per scale.

    A thin wrapper over :meth:`ExperimentRunner.run_key_for` — the runner
    memoizes workload assembly and fingerprints, so keying the thousandth
    request costs one dict lookup plus a config fingerprint.
    """

    def __init__(self):
        self._keyers: dict[str, ExperimentRunner] = {}

    def key_for(self, request: RunRequest) -> str:
        keyer = self._keyers.get(request.scale)
        if keyer is None:
            keyer = ExperimentRunner(scale=request.scale)
            self._keyers[request.scale] = keyer
        return keyer.run_key_for(
            request.workload, request.policy,
            request.config, request.use_compiler_info,
        )


_flight_seq = itertools.count()


@dataclasses.dataclass
class Flight:
    """One in-flight (or queued) simulation shared by coalesced jobs."""

    key: str
    request: RunRequest       # the first request that opened the flight
    priority: int
    seq: int = dataclasses.field(default_factory=lambda: next(_flight_seq))
    jobs: list["Job"] = dataclasses.field(default_factory=list)
    attempts: int = 0

    def worker_args(self) -> tuple:
        """Picklable args for :func:`repro.harness.lockstep.simulate_batch`:
        a batch of one point under the flight's run key."""
        return (self.request.scale, (self.request.grid_point(),), None,
                (self.key,))

    def attach(self, job: "Job") -> None:
        self.jobs.append(job)
        job.flight = self
        # A high-priority latecomer pulls the whole flight forward —
        # only raise, never lower, the effective priority.  The caller
        # must tell the queue (``AdmissionQueue.reprioritize``) when
        # this changes a still-queued flight.
        self.priority = min(self.priority, job.request.priority)


@dataclasses.dataclass
class Job:
    """One client submission and its lifecycle."""

    request: RunRequest
    key: str
    id: str = dataclasses.field(
        default_factory=lambda: uuid.uuid4().hex[:16])
    state: str = QUEUED
    coalesced: bool = False   # attached to an existing flight
    cached: bool = False      # answered from the result store, no flight
    attempts: int = 0
    error: str = ""
    created: float = dataclasses.field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    flight: Flight | None = None
    record: RunRecord | None = None

    @property
    def latency(self) -> float | None:
        if self.finished is None:
            return None
        return self.finished - self.created

    def describe(self, include_result: bool = True) -> dict:
        from ..harness.cache import ResultCache

        out = {
            "id": self.id,
            "state": self.state,
            "key": self.key,
            "request": self.request.describe(),
            "coalesced": self.coalesced,
            "cached": self.cached,
            "attempts": self.attempts,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "latency": self.latency,
            "error": self.error or None,
        }
        if include_result and self.record is not None:
            out["result"] = ResultCache.serialize(self.record)
        return out


class JobStore:
    """Id-addressed job table with a bounded completed-job history.

    Terminal jobs beyond ``history`` are evicted oldest-first so a
    long-lived daemon cannot grow without bound; active jobs are never
    evicted (an accepted job must always be resolvable by id until it
    completes and ages out).
    """

    def __init__(self, history: int = 4096):
        self.history = history
        self._jobs: dict[str, Job] = {}   # insertion-ordered
        self.evicted = 0

    def add(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._prune()

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def active(self) -> list[Job]:
        return [j for j in self._jobs.values() if j.state in (QUEUED, RUNNING)]

    def _prune(self) -> None:
        overflow = len(self._jobs) - self.history
        if overflow <= 0:
            return
        for job_id in [
            jid for jid, job in self._jobs.items()
            if job.state in (DONE, FAILED)
        ][:overflow]:
            del self._jobs[job_id]
            self.evicted += 1
