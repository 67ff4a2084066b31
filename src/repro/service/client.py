"""Thin stdlib HTTP client for the simulation service.

:class:`ServiceClient` wraps the daemon's JSON API (submit, poll, wait,
health, metrics) over ``urllib.request`` — blocking, dependency-free,
and safe to use from multiple threads (each request opens its own
connection, matching the daemon's one-request-per-connection HTTP).

Deserialized results come back as the same slim
:class:`~repro.harness.runner.RunRecord` objects the in-process harness
produces, so callers can compare service results to local runs field by
field (the acceptance bar for the whole serving layer).
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Any, Iterable

from ..errors import ReproError
from ..harness.cache import ResultCache
from ..harness.resilience import RetryPolicy
from ..harness.runner import RunRecord

#: Default daemon location; override per-call or via ``$REPRO_SERVICE_URL``.
DEFAULT_URL = "http://127.0.0.1:8765"

#: Default transport retry: a handful of attempts with exponential
#: backoff + deterministic jitter, enough to ride out a daemon restart
#: or a dropped connection without masking a daemon that is really down.
DEFAULT_RETRY = RetryPolicy(max_attempts=4, base_delay=0.1, backoff=2.0,
                            max_delay=2.0, jitter=0.5)


class ServiceError(ReproError):
    """The service answered with an error status (or not at all)."""

    def __init__(self, message: str, status: int | None = None,
                 retry_after: float | None = None):
        self.status = status
        self.retry_after = retry_after
        super().__init__(message)


class ServiceQueueFull(ServiceError):
    """HTTP 429: admission control rejected the submission."""


class JobFailed(ServiceError):
    """A waited-on job reached the ``failed`` terminal state."""


def default_url() -> str:
    return os.environ.get("REPRO_SERVICE_URL") or DEFAULT_URL


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text -> {sample name (with labels): value}.

    Good enough for tests and CI assertions; not a full parser (ignores
    HELP/TYPE lines, keeps label strings verbatim as part of the key).
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


class ServiceClient:
    """Blocking client for one ``repro serve`` daemon.

    Transient transport failures (connection refused/reset mid-restart,
    dropped sockets) are retried per ``retry_policy`` with exponential
    backoff and deterministic jitter keyed on the request path — safe
    because every API call here is idempotent: submits are coalesced by
    content key server-side, and polls are pure reads.  HTTP error
    *responses* are never retried at this layer; they are real answers.
    """

    def __init__(self, base_url: str | None = None, timeout: float = 30.0,
                 retry_policy: RetryPolicy | None = None):
        self.base_url = (base_url or default_url()).rstrip("/")
        self.timeout = timeout
        self.retry_policy = DEFAULT_RETRY if retry_policy is None \
            else retry_policy
        self.transport_retries = 0   # observability: total retried sends

    # ------------------------------------------------------------ transport
    def _request(self, method: str, path: str,
                 payload: Any | None = None) -> tuple[int, dict, bytes]:
        body = json.dumps(payload).encode() if payload is not None else None
        policy = self.retry_policy
        last: Exception | None = None
        for attempt in range(max(policy.max_attempts, 1)):
            if attempt:
                self.transport_retries += 1
                time.sleep(policy.delay(attempt, key=f"{method} {path}"))
            request = urllib.request.Request(
                self.base_url + path, data=body, method=method,
                headers={"Content-Type": "application/json"} if body else {},
            )
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as resp:
                    return resp.status, dict(resp.headers), resp.read()
            except urllib.error.HTTPError as exc:
                return exc.code, dict(exc.headers), exc.read()
            except (urllib.error.URLError, ConnectionResetError,
                    OSError) as exc:
                last = exc
        raise ServiceError(
            f"cannot reach service at {self.base_url} after "
            f"{max(policy.max_attempts, 1)} attempt(s): {last}") from last

    def _json(self, method: str, path: str,
              payload: Any | None = None) -> Any:
        status, headers, body = self._request(method, path, payload)
        try:
            data = json.loads(body.decode() or "null")
        except ValueError as exc:
            raise ServiceError(
                f"{method} {path}: non-JSON response (HTTP {status})",
                status=status) from exc
        if status == 429:
            retry_after = float(headers.get("Retry-After", "1") or "1")
            raise ServiceQueueFull(
                data.get("error", "queue full"), status=status,
                retry_after=retry_after)
        if status >= 400:
            raise ServiceError(
                data.get("error", f"HTTP {status}"), status=status)
        return data

    # ------------------------------------------------------------ endpoints
    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        status, _, body = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"/metrics returned HTTP {status}",
                               status=status)
        return body.decode()

    def metrics(self) -> dict[str, float]:
        return parse_metrics(self.metrics_text())

    def submit(self, runs: Iterable[dict], priority: int | None = None,
               ) -> list[dict]:
        """Submit a batch; returns the accepted job descriptors.

        Each run is a dict with ``workload``/``policy`` and optional
        ``scale``/``config``/``use_compiler_info``/``priority`` keys.
        Raises :class:`ServiceQueueFull` (with ``retry_after``) on 429.
        """
        batch = []
        for run in runs:
            run = dict(run)
            if priority is not None:
                run.setdefault("priority", priority)
            batch.append(run)
        if not batch:
            return []
        data = self._json("POST", "/v1/runs", {"runs": batch})
        return data["jobs"]

    def submit_one(self, workload: str, policy: str, **fields) -> dict:
        return self.submit([{"workload": workload, "policy": policy,
                             **fields}])[0]

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/runs/{job_id}")

    def jobs(self) -> dict:
        return self._json("GET", "/v1/runs")

    def wait(self, job_ids: Iterable[str], timeout: float = 300.0,
             poll: float = 0.05) -> dict[str, dict]:
        """Poll until every job is terminal; {id: final job dict}.

        Raises :class:`JobFailed` if any job failed, :class:`ServiceError`
        on timeout — callers that want partial results should poll
        :meth:`status` themselves.
        """
        deadline = time.monotonic() + timeout
        outstanding = list(dict.fromkeys(job_ids))
        done: dict[str, dict] = {}
        while outstanding:
            for job_id in list(outstanding):
                job = self.status(job_id)
                if job["state"] in ("done", "failed"):
                    done[job_id] = job
                    outstanding.remove(job_id)
            if not outstanding:
                break
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for {len(outstanding)} job(s) "
                    f"after {timeout}s: {', '.join(outstanding[:5])}")
            time.sleep(poll)
        failures = [j for j in done.values() if j["state"] == "failed"]
        if failures:
            first = failures[0]
            raise JobFailed(
                f"{len(failures)} job(s) failed; first: "
                f"{first['request']['workload']}/"
                f"{first['request']['policy']} — "
                f"{(first.get('error') or '').strip().splitlines()[-1:] or ['?']}"
            )
        return done

    def record_of(self, job: dict) -> RunRecord:
        """The slim :class:`RunRecord` embedded in a terminal job dict."""
        if job.get("result") is None:
            raise ServiceError(
                f"job {job.get('id')} has no result (state "
                f"{job.get('state')!r})")
        return ResultCache.deserialize(job["result"])

    def run_grid(self, runs: Iterable[dict], timeout: float = 300.0,
                 max_submit_retries: int = 10,
                 ) -> list[tuple[dict, RunRecord]]:
        """Submit + wait + deserialize: [(job dict, RunRecord)] in order.

        Retries the submission with the server's ``Retry-After`` hint on
        backpressure, so closed-loop callers (the load generator) obey
        admission control instead of hammering it.
        """
        attempts = 0
        while True:
            try:
                jobs = self.submit(runs)
                break
            except ServiceQueueFull as exc:
                attempts += 1
                if attempts > max_submit_retries:
                    raise
                time.sleep(min(exc.retry_after or 1.0, 5.0))
        finals = self.wait([j["id"] for j in jobs], timeout=timeout)
        return [(finals[j["id"]], self.record_of(finals[j["id"]]))
                for j in jobs]
