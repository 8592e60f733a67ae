"""Explicit-state model checking for the simulator's protocols.

A *model* is a small-scope, hand-written abstraction of one stateful
protocol in the simulator (SMC invalidation, the morph FSM, the
concurrent disk cache).  States are hashable values, actions are
labeled transitions, and safety invariants are named predicates over
states.  :func:`check_model` explores the full
reachable state space breadth-first — small-scope bounds keep each
model to a few thousand states — and returns the exact state and
transition counts plus, for every violated invariant, a shortest
counterexample trace (the BFS discovery order guarantees minimality in
action count).

Models report violations by *flagging the state itself* (an ``err``
field set by the action that broke the invariant) or by predicates
evaluated on every discovered state; both surface here as
:class:`Violation` records naming the invariant.  Deadlock freedom is
checked structurally: a reachable state with no outgoing actions that
the model does not declare quiescent is a deadlock counterexample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

#: Default cap on explored states; every shipped model's reachable
#: space is far below this, so hitting it means a model bug (the
#: result's ``truncated`` flag makes that loud instead of silent).
DEFAULT_MAX_STATES = 200_000

State = Hashable


@dataclass(frozen=True)
class Violation:
    """One invariant violation with its counterexample."""

    invariant: str
    state: str
    #: Action labels from an initial state to the violating state —
    #: a shortest such sequence, by BFS construction.
    trace: Tuple[str, ...]

    def __str__(self) -> str:
        steps = " -> ".join(self.trace) if self.trace else "(initial state)"
        return f"{self.invariant}: {steps}\n  state: {self.state}"


@dataclass
class ModelCheckResult:
    """Everything one exhaustive exploration produced."""

    model: str
    states: int
    transitions: int
    depth: int
    invariants: Tuple[str, ...]
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    @property
    def invariant_checks(self) -> int:
        """Total invariant evaluations (every invariant, every state)."""
        return self.states * len(self.invariants)

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "states": self.states,
            "transitions": self.transitions,
            "depth": self.depth,
            "invariants": list(self.invariants),
            "invariant_checks": self.invariant_checks,
            "violations": [
                {
                    "invariant": v.invariant,
                    "trace": list(v.trace),
                    "state": v.state,
                }
                for v in self.violations
            ],
            "truncated": self.truncated,
            "ok": self.ok,
        }

    def __str__(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        return (
            f"{self.model}: {self.states} states, {self.transitions} transitions, "
            f"depth {self.depth}, {self.invariant_checks} invariant checks "
            f"({len(self.invariants)} invariants), "
            f"{len(self.violations)} violations [{status}]"
        )


class Model:
    """Base class fixing the shape every protocol model implements.

    Subclasses define ``name``, ``invariants`` (the names reported in
    results), :meth:`initial_states`, :meth:`actions` and
    :meth:`violations`; optionally ``deadlock_invariant`` (a name to
    report stuck states under) together with :meth:`is_quiescent`.
    """

    name: str = "model"
    invariants: Tuple[str, ...] = ()
    #: When set, a reachable state with no outgoing actions that is not
    #: quiescent is reported as a violation of this invariant.
    deadlock_invariant: Optional[str] = None

    def initial_states(self) -> Iterable[State]:
        raise NotImplementedError

    def actions(self, state: State) -> Iterable[Tuple[str, State]]:
        raise NotImplementedError

    def violations(self, state: State) -> Iterable[str]:
        """Invariant names this state violates (usually via an err flag)."""
        return ()

    def is_quiescent(self, state: State) -> bool:
        """Whether a state with no outgoing actions is an OK terminal."""
        return True

    def describe(self, state: State) -> str:
        return repr(state)


def check_model(model: Model, max_states: int = DEFAULT_MAX_STATES) -> ModelCheckResult:
    """Exhaustive BFS over ``model``'s reachable states.

    Records the first (shortest) counterexample per invariant name and
    keeps exploring, so one broken invariant cannot mask another.
    States that already violate an invariant are not expanded further —
    they are counterexample sinks, and expanding them would only grow
    the buggy variants' state space without adding information.
    """
    parents: Dict[State, Optional[Tuple[State, str]]] = {}
    depth_of: Dict[State, int] = {}
    queue: deque = deque()
    transitions = 0
    max_depth = 0
    truncated = False
    seen_invariants: Dict[str, Violation] = {}

    def trace_to(state: State) -> Tuple[str, ...]:
        labels: List[str] = []
        cursor: Optional[State] = state
        while cursor is not None:
            parent = parents[cursor]
            if parent is None:
                break
            cursor, label = parent
            labels.append(label)
        return tuple(reversed(labels))

    def record(state: State, names: Iterable[str]) -> bool:
        """Register violations; returns True if the state violates."""
        bad = False
        for name in names:
            bad = True
            if name not in seen_invariants:
                seen_invariants[name] = Violation(
                    invariant=name,
                    state=model.describe(state),
                    trace=trace_to(state),
                )
        return bad

    for initial in model.initial_states():
        if initial in parents:
            continue
        parents[initial] = None
        depth_of[initial] = 0
        queue.append(initial)

    while queue:
        state = queue.popleft()
        depth = depth_of[state]
        max_depth = max(max_depth, depth)
        if record(state, model.violations(state)):
            continue  # counterexample sink: do not expand
        outgoing = 0
        for label, successor in model.actions(state):
            transitions += 1
            outgoing += 1
            if successor in parents:
                continue
            if len(parents) >= max_states:
                truncated = True
                continue
            parents[successor] = (state, label)
            depth_of[successor] = depth + 1
            queue.append(successor)
        if (
            outgoing == 0
            and model.deadlock_invariant is not None
            and not model.is_quiescent(state)
        ):
            record(state, (model.deadlock_invariant,))

    ordered = [seen_invariants[name] for name in sorted(seen_invariants)]
    return ModelCheckResult(
        model=model.name,
        states=len(parents),
        transitions=transitions,
        depth=max_depth,
        invariants=tuple(model.invariants),
        violations=ordered,
        truncated=truncated,
    )
