"""Stub of the retired per-PC specialization layer.

Nothing in ``src/`` calls these names.  The benchmark harness still binds
them: ``perfbench/tracing.py`` traces ``specialized_image`` and
``perfbench/run.py --trace 1`` reads ``spec_cache_info()["misses"]``.  The
stub goes when the benchmark drops both.
"""


def specialized_image(*args, **kwargs) -> None:
    """No specialization plan exists; always None."""
    return None


def spec_cache_info() -> dict[str, int]:
    """No plan cache exists; zero misses."""
    return {"misses": 0}
