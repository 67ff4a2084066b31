"""Shared fast-path equivalence harness for the suite x policy sweeps.

The core's bit-invisible fast paths — event-horizon cycle skipping and
per-PC specialization — must each leave a run *bit-identical* to the
all-off interpreted reference.  The reference is run once per
(workload, policy) and memoised, so every arm checked against it in one
pytest process reuses the same run:

* ``tests/test_event_horizon.py`` checks the ``all-on`` arm;
* ``tests/test_specialize.py`` checks the ``specialize-only`` arm
  (cycle skip off).
"""

from __future__ import annotations

from functools import lru_cache

from repro.secure import ALL_POLICY_NAMES, make_policy
from repro.uarch import OooCore
from repro.workloads import build_workload

POLICIES = tuple(sorted(ALL_POLICY_NAMES))
MAX_CYCLES = 5_000_000

#: Fast-path knob settings per sweep arm; the reference turns every one off.
REFERENCE = {"specialize": False, "cycle_skip": False}
ARMS = {
    "all-on": {"specialize": True, "cycle_skip": True},
    "specialize-only": {"specialize": True, "cycle_skip": False},
}


@lru_cache(maxsize=None)
def _program(name):
    workload = build_workload(name, "test")
    return workload, workload.assemble()


@lru_cache(maxsize=None)
def reference_run(name, policy_name):
    """(stats, regs, stats_dict) of the all-off run; checked once."""
    workload, program = _program(name)
    core = OooCore(program, policy=make_policy(policy_name), **REFERENCE)
    result = core.run(max_cycles=MAX_CYCLES)
    # Reference mode must really be stepping.
    assert core.warp_stats.warps == 0
    assert workload.validate(result.regs), f"{name}/{policy_name}"
    return result.stats, result.regs, result.stats_dict()


def assert_arm_matches_reference(name, arm):
    """Run ``arm`` under every policy; each run must equal the reference.

    Returns the last fast-arm result for further checks by the caller.
    """
    knobs = ARMS[arm]
    _, program = _program(name)
    fast = None
    for policy_name in POLICIES:
        ref_stats, ref_regs, ref_dict = reference_run(name, policy_name)
        core = OooCore(program, policy=make_policy(policy_name), **knobs)
        assert core._specialize == knobs["specialize"]
        fast = core.run(max_cycles=MAX_CYCLES)
        label = f"{name}/{policy_name}/{arm}"
        assert fast.stats == ref_stats, label
        assert fast.regs == ref_regs, label
        assert fast.stats_dict() == ref_dict, label
    return fast
