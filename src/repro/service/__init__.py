"""Simulation-as-a-service: job-queue daemon, client, metrics, chaos.

The serving layer over the experiment harness (see
:mod:`repro.service.daemon` for the architecture).  This package
``__init__`` is deliberately lazy (PEP 562): the harness feeds
:mod:`repro.service.metrics` from inside hot functions, and importing a
submodule executes this file first — pulling the asyncio daemon (and
back into the harness) eagerly here would be a cycle and a startup tax.
"""

from __future__ import annotations

_EXPORTS = {
    "MetricsRegistry": "metrics",
    "global_registry": "metrics",
    "record_grid_report": "metrics",
    "BadRequest": "jobs",
    "Job": "jobs",
    "RunRequest": "jobs",
    "AdmissionQueue": "queue",
    "QueueFull": "queue",
    "Scheduler": "scheduler",
    "WorkerPool": ".harness.resilience",  # the pool lives with the supervisor
    "ServiceConfig": "daemon",
    "ServiceThread": "daemon",
    "SimulationService": "daemon",
    "serve": "daemon",
    "JobFailed": "client",
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceQueueFull": "client",
    "parse_metrics": "client",
    "service_chaos_smoke": "chaos",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
