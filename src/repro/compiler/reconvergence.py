"""Branch reconvergence analysis.

The *reconvergence point* of a conditional branch is the first instruction
that executes regardless of the branch outcome — the entry of the branch
block's immediate post-dominator.  Instructions from the reconvergence point
onward are control-independent of the branch; this is the information
Levioso's compiler communicates to the hardware (NOREBA-style).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg.basic_block import EXIT_BLOCK, FunctionCFG
from ..cfg.dom import PostDominatorInfo


@dataclass(frozen=True)
class BranchReconvergence:
    """Reconvergence record for one static conditional branch.

    ``reconv_pc`` is None when the branch never reconverges inside its
    function (its join is the function exit): the hardware must then treat
    every younger instruction as dependent until the branch resolves, exactly
    like a conservative design.
    """

    branch_pc: int
    reconv_pc: int | None
    function: str


def analyze_reconvergence(cfg: FunctionCFG) -> dict[int, BranchReconvergence]:
    """Compute the reconvergence point of every conditional branch in ``cfg``."""
    pdom = PostDominatorInfo(cfg)
    result: dict[int, BranchReconvergence] = {}
    for branch in cfg.conditional_branches():
        bid = cfg.block_of_pc[branch.pc]
        ipdom = pdom.immediate_postdominator(bid)
        if ipdom is None or ipdom == EXIT_BLOCK:
            reconv_pc: int | None = None
        else:
            reconv_pc = cfg.blocks[ipdom].start_pc
        result[branch.pc] = BranchReconvergence(
            branch_pc=branch.pc, reconv_pc=reconv_pc, function=cfg.name
        )
    return result


def reconvergence_distance(
    record: BranchReconvergence, instruction_bytes: int = 4
) -> int | None:
    """Static distance (in instructions) from branch to reconvergence.

    A *negative* distance means the reconvergence point sits above the branch
    in the layout (common for loop back-branches whose join is the loop
    exit placed before them is rare, but loop headers joining backwards do
    occur); None when the branch never reconverges.
    """
    if record.reconv_pc is None:
        return None
    return (record.reconv_pc - record.branch_pc) // instruction_bytes
