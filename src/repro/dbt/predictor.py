"""Static branch prediction for speculative translation.

The paper calls speculation ordering "effectively the same problem as
constructing a branch predictor with no previous branch information"
and falls back to static heuristics (Ball & Larus): backward branches
are predicted taken (loops), forward branches fall through.  A return
predictor enqueues the address after a CALL on a *low* priority queue
— "the code inside of the function has a higher probability of being
needed than the return location".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dbt.block import TranslatedBlock


@dataclass(frozen=True)
class Prediction:
    """A successor worth translating, with a depth penalty.

    ``depth_bonus`` is added to the parent's speculation depth: 0 for
    the predicted direction, 1 for the unlikely direction, and the
    return-predictor penalty for call returns.  Slotted: every
    translated block keeps its predictions for its whole life.
    """

    __slots__ = ("target", "depth_bonus")

    target: int
    depth_bonus: int

    def __reduce__(self):
        # a frozen dataclass with hand-written slots has no __dict__ for
        # pickle's default state, and its setattr-based restore raises
        return Prediction, (self.target, self.depth_bonus)


#: Depth penalty for return-address predictions (low-priority queue).
RETURN_PREDICTION_PENALTY = 3


def predict_successors(block: TranslatedBlock) -> List[Prediction]:
    """Rank the statically known successors of ``block``.

    Ordering encodes the static heuristics:

    * unconditional jumps / calls: the one target, no penalty;
    * conditional branches: backward target (loop) predicted taken and
      explored first; a forward taken-target is the *unlikely* path;
    * the instruction after a call: low priority (return predictor).
    """
    predictions: List[Prediction] = []
    targets = block.direct_successors()

    if len(targets) == 1:
        predictions.append(Prediction(targets[0], 0))
    elif len(targets) >= 2:
        # codegen emits the fallthrough stub first, the taken stub second
        fallthrough, taken = targets[0], targets[1]
        backward_taken = taken <= block.guest_address
        if backward_taken:
            predictions.append(Prediction(taken, 0))
            predictions.append(Prediction(fallthrough, 1))
        else:
            predictions.append(Prediction(fallthrough, 0))
            predictions.append(Prediction(taken, 1))

    if block.call_return_address is not None:
        predictions.append(
            Prediction(block.call_return_address, RETURN_PREDICTION_PENALTY)
        )
    return predictions
