"""Persistent, content-addressed store for simulation results.

Every run of the cycle-level simulator is a pure function of

* the workload (assembly source + self-check expectations + scale),
* the policy name,
* the :class:`~repro.uarch.config.CoreConfig` field values, and
* the simulator revision (bumped whenever timing semantics change),

so results can be keyed by a fingerprint of those inputs and reused across
processes and invocations: regenerating one figure after editing another, or
re-running the benchmark suite, pays only for points that actually changed.
Keys are content hashes — never ``id()``s, which the allocator reuses — so
two equal configs constructed independently share one cache entry.

Records are *slim*: a :class:`RunRecord` never holds the heavyweight
:class:`SimResult` payload (backing memory, cache hierarchy objects,
committed-PC trace), only the measured counters
(:class:`~repro.uarch.stats.CoreStats` plus the memory-system counter dict),
which is what every experiment consumes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import CacheCorruptionError
from ..faults import maybe_fault
from ..uarch import CoreConfig
from ..uarch.stats import CoreStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..workloads import Workload
    from .runner import RunRecord

#: Bump when a change alters simulated timing (cycle counts) or the record
#: schema: old cache entries become unreachable (different keys) rather than
#: silently wrong.
SIM_REVISION = 1


def version_salt() -> str:
    """Salt mixed into every run key (package version + sim revision).

    Resolved lazily: ``repro/__init__`` defines ``__version__`` after it
    imports the harness, so a module-level import would be circular.
    """
    from .. import __version__

    return f"{__version__}/sim{SIM_REVISION}"


def _stable_hash(payload: object) -> str:
    """SHA-256 over a canonical JSON rendering of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=64)
def config_fingerprint(config: CoreConfig) -> str:
    """Fingerprint of a config's *field values* (nested dataclasses included).

    Equal configs — however and whenever constructed — produce equal
    fingerprints; this is the replacement for the old ``id(cfg)`` keying,
    which both missed equal configs and could collide after garbage
    collection reused an address.  Memoized by value (configs are frozen
    and hashable), so a fresh runner per point pays the hash once.
    """
    return _stable_hash(dataclasses.asdict(config))


def workload_fingerprint(workload: "Workload", scale: str) -> str:
    """Fingerprint of a workload's program bytes and metadata.

    The mitigation tag (``<pass>@v<version>``) is mixed in only when set,
    so every pre-existing plain-workload fingerprint is unchanged while a
    mitigation-pass version bump invalidates exactly its own variants.
    """
    payload = {
        "name": workload.name,
        "scale": scale,
        "source": workload.source,
        "check_reg": workload.check_reg,
        "check_value": workload.check_value,
    }
    mitigation = getattr(workload, "mitigation", None)
    if mitigation:
        payload["mitigation"] = mitigation
    return _stable_hash(payload)


def run_key(
    workload_fp: str,
    policy_name: str,
    config_fp: str,
    use_compiler_info: bool = True,
    salt: str | None = None,
    observe: bool = False,
) -> str:
    """Content key of one (workload, policy, config) simulation.

    ``observe`` marks runs that capture an observation-trace digest for
    the differential leakage oracle.  It is mixed in only when set, so
    every pre-existing key — and every plain experiment run — is
    unchanged; observed and unobserved runs of one point are distinct
    entries because only the former carries ``obs_digest``.
    """
    payload = {
        "workload": workload_fp,
        "policy": policy_name,
        "config": config_fp,
        "compiler_info": use_compiler_info,
        "salt": salt if salt is not None else version_salt(),
    }
    if observe:
        payload["observe"] = True
    return _stable_hash(payload)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-levioso/runs``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-levioso" / "runs"


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/byte counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    corrupt: int = 0       # entries that failed an integrity check
    quarantined: int = 0   # corrupt entries moved aside for inspection
    stale: int = 0         # entries written under a different version salt
    store_errors: int = 0  # put() attempts lost to I/O errors (non-fatal)

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class VerifyResult:
    """Outcome of a full-cache integrity scan (``repro cache verify``)."""

    checked: int = 0
    ok: int = 0
    legacy: int = 0                 # pre-envelope entries (no checksum)
    corrupt: list = dataclasses.field(default_factory=list)  # Paths
    stale: list = dataclasses.field(default_factory=list)    # Paths

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.stale

    def as_dict(self) -> dict:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "legacy": self.legacy,
            "corrupt": [str(p) for p in self.corrupt],
            "stale": [str(p) for p in self.stale],
            "clean": self.clean,
        }


class ResultCache:
    """On-disk content-addressed store of slim :class:`RunRecord` objects."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    # ----------------------------------------------------------- serialization
    @staticmethod
    def serialize(record: "RunRecord") -> dict:
        payload = {
            f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)
            if f.name != "core_stats"
        }
        payload["core_stats"] = (
            dataclasses.asdict(record.core_stats)
            if record.core_stats is not None
            else None
        )
        return payload

    @staticmethod
    def deserialize(payload: dict) -> "RunRecord":
        from .runner import RunRecord

        data = dict(payload)
        core_stats = data.pop("core_stats", None)
        data["core_stats"] = (
            CoreStats(**core_stats) if core_stats is not None else None
        )
        return RunRecord(**data)

    # --------------------------------------------------------------- envelope
    @staticmethod
    def _envelope(payload: dict) -> dict:
        """Wrap a record payload with its content checksum and salt.

        The checksum covers a canonical rendering of the payload, so any
        truncation or bit-flip of the stored record is detectable even
        when the damaged file still parses as JSON.
        """
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return {
            "v": 1,
            "salt": version_salt(),
            "sha256": hashlib.sha256(body.encode()).hexdigest(),
            "record": payload,
        }

    @classmethod
    def _open_envelope(cls, path: Path, text: str) -> dict:
        """Checked payload out of an entry's bytes.

        Raises :class:`CacheCorruptionError` on any integrity problem.
        Pre-envelope (legacy) entries — a bare payload dict — pass
        through unchecked for compatibility.
        """
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CacheCorruptionError(f"{path}: not JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise CacheCorruptionError(f"{path}: not a JSON object")
        if "record" not in data or "sha256" not in data:
            return data  # legacy bare payload (no checksum to verify)
        payload = data["record"]
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(body.encode()).hexdigest()
        if digest != data["sha256"]:
            raise CacheCorruptionError(
                f"{path}: checksum mismatch "
                f"(stored {str(data['sha256'])[:12]}…, computed {digest[:12]}…)"
            )
        return payload

    # ------------------------------------------------------------------ store
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    QUARANTINE_DIR = "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside (never delete evidence)."""
        dest_dir = self.root / self.QUARANTINE_DIR
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            path.replace(dest_dir / path.name)
            self.stats.quarantined += 1
        except OSError:
            path.unlink(missing_ok=True)

    def get(self, key: str) -> "RunRecord | None":
        """Fetch a record; **never raises** on a damaged or missing entry.

        Corrupt/truncated entries are quarantined and reported as misses,
        so one bad file re-simulates one point instead of poisoning or
        aborting a whole figure regeneration.
        """
        path = self._path(key)
        try:
            maybe_fault("cache.get", key)  # io_error kind raises OSError
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            payload = self._open_envelope(path, text)
            record = self.deserialize(payload)
        except CacheCorruptionError:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._quarantine(path)
            return None
        except (ValueError, TypeError, KeyError):
            # Stale-schema entry: quarantine it like corruption.
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(text)
        return record

    def put(self, key: str, record: "RunRecord") -> None:
        """Store a record atomically; I/O failures are non-fatal.

        The temp file gets a pid+uuid-unique name *in the same directory*
        (same filesystem, so ``replace`` stays atomic): two concurrent
        writers of one key can no longer collide on a shared ``.tmp``
        path — the losers' bytes are simply superseded.
        """
        path = self._path(key)
        text = json.dumps(self._envelope(self.serialize(record)))
        spec = maybe_fault("cache.put", key)  # io_error kind raises OSError
        if spec is not None and spec.kind == "corrupt":
            text = text[: max(len(text) // 2, 1)]  # truncated mid-record
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
            tmp.replace(path)  # atomic vs concurrent readers/writers
        except OSError:
            self.stats.store_errors += 1
            tmp.unlink(missing_ok=True)
            return
        self.stats.stores += 1
        self.stats.bytes_written += len(text)

    # ------------------------------------------------------------- maintenance
    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.glob("*/*.json")
            if p.parent.name != self.QUARANTINE_DIR
        )

    def quarantined(self) -> list[Path]:
        return sorted((self.root / self.QUARANTINE_DIR).glob("*.json"))

    def verify(self) -> VerifyResult:
        """Integrity-scan every entry without mutating the store."""
        result = VerifyResult()
        for path in self.entries():
            result.checked += 1
            try:
                text = path.read_text()
            except OSError:
                result.corrupt.append(path)
                continue
            try:
                data = json.loads(text)
                payload = self._open_envelope(path, text)
                self.deserialize(payload)
            except CacheCorruptionError:
                result.corrupt.append(path)
                continue
            except (ValueError, TypeError, KeyError):
                result.corrupt.append(path)
                continue
            if isinstance(data, dict) and "sha256" in data:
                if data.get("salt") != version_salt():
                    result.stale.append(path)
                    self.stats.stale += 1
                else:
                    result.ok += 1
            else:
                result.legacy += 1
        return result

    def repair(self, purge_stale: bool = True) -> dict[str, int]:
        """Quarantine corrupt entries (and optionally purge stale ones).

        Returns counters; after a repair, :meth:`verify` is clean.
        """
        scan = self.verify()
        for path in scan.corrupt:
            self._quarantine(path)
        purged = 0
        if purge_stale:
            for path in scan.stale:
                path.unlink(missing_ok=True)
                purged += 1
        return {
            "quarantined": len(scan.corrupt),
            "purged_stale": purged,
            "ok": scan.ok,
            "legacy": scan.legacy,
        }

    def info(self) -> dict:
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(p.stat().st_size for p in entries),
            "quarantined": len(self.quarantined()),
            "version_salt": version_salt(),
            "session": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed
