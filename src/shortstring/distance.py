"""Forward and backward shortest-distance tables over acyclic acceptors.

Both tables are computed in a single relaxation pass along the topological
order, over the package's one weight algebra (``-ln`` weights, see
:mod:`.semiring`); the tables hold ``-ln`` weights whatever the
automaton's encoding. The ``view`` argument selects the aggregation:
``"base"`` takes the log-sum-exp and merges all paths, while
``"companion"`` takes the ``min`` and keeps only the best path weight (the
tropical view of the same automaton). Summation order is fixed by the
topological order and the stored arc order, so results are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Automaton, topological_order
from .semiring import INF, ONE, ZERO, log_sum

VIEWS = ("base", "companion")


@dataclass(frozen=True)
class DistanceTable:
    direction: str  # "forward" | "backward"
    view: str       # "base" | "companion"
    values: tuple

    def __getitem__(self, state: int) -> float:
        return self.values[state]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _best(weights) -> float:
    return min(weights, default=INF)


def _aggregate(view: str):
    if view == "base":
        return log_sum
    if view == "companion":
        return _best
    raise ValueError(f"unknown view {view!r}; expected one of {VIEWS}")


def backward_distance(a: Automaton, view: str = "base") -> DistanceTable:
    """Per-state aggregated weight of all suffix paths into a final state,
    final weight included. States that reach no final state hold zero."""
    aggregate = _aggregate(view)
    finals = a.finals
    beta = [ZERO] * a.num_states
    for q in reversed(topological_order(a)):
        costs = [weight + beta[target] for _, weight, target in a.arcs(q)]
        if q in finals:
            costs.append(finals[q])
        beta[q] = aggregate(costs)
    return DistanceTable("backward", view, tuple(beta))


def forward_distance(a: Automaton, view: str = "base") -> DistanceTable:
    """Per-state aggregated weight of all paths from the initial state.
    The initial state holds one (the empty path); unreachable states hold
    zero."""
    aggregate = _aggregate(view)
    incoming = [[] for _ in range(a.num_states)]   # per state: path weights
    incoming[a.initial].append(ONE)
    alpha = [ZERO] * a.num_states
    for q in topological_order(a):
        mass = alpha[q] = aggregate(incoming[q])
        if mass == ZERO:
            continue  # nothing to propagate
        for _, weight, target in a.arcs(q):
            incoming[target].append(mass + weight)
    return DistanceTable("forward", view, tuple(alpha))


def total_distance(a: Automaton) -> float:
    """Aggregated ``-ln`` weight of every complete path; zero (``+inf``)
    for an empty language."""
    return backward_distance(a, "base")[a.initial]
