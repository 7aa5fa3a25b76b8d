"""Brute-force ground truth by exhaustive path enumeration.

Desk-scale only: every complete path is walked, so the paths are counted
first, and a path budget refuses exponential blowups before the walk.
Deliberately independent of the search stack; only the weight algebra
and the automaton model are shared, which makes these functions usable
as an oracle for differential tests of the determinizing search. Paths
are scored in ``-ln`` weights; the returned weights are converted to the
automaton's encoding.
"""

from __future__ import annotations

from .automaton import Automaton, topological_order
from .errors import BudgetExceededError, EmptyLanguageError
from .semiring import ONE, ZERO, log_sum

DEFAULT_PATH_BUDGET = 1_000_000


def _complete_paths(a: Automaton, path_budget: int):
    """Yield every complete path's label sequence and ``-ln`` weight, its
    final weight included. The paths are counted before any is walked,
    and more than ``path_budget`` of them are refused."""
    # paths from q: one ending at q when it is final, plus those through
    # each arc; Python ints hold the count however large it grows
    paths = [0] * a.num_states
    for q in reversed(topological_order(a)):
        paths[q] = (q in a.finals) + sum(paths[target]
                                         for _, _, target in a.arcs(q))
    if paths[a.initial] > path_budget:
        raise BudgetExceededError(f"path budget {path_budget} exceeded")
    # explicit-stack depth-first walk; arc-order traversal keeps the
    # aggregation order, and therefore the floats, reproducible
    stack = [(a.initial, (), ONE)]
    while stack:
        state, labels, weight = stack.pop()
        final = a.finals.get(state, ZERO)
        if final != ZERO:
            yield labels, weight + final
        for label, arc_weight, target in reversed(a.arcs(state)):
            stack.append((target, labels + (label,), weight + arc_weight))


def _string_weights(a: Automaton, path_budget: int) -> dict:
    """Every accepted label sequence and its merged ``-ln`` weight."""
    paths = {}   # label sequence -> weights of its complete paths
    for labels, weight in _complete_paths(a, path_budget):
        paths.setdefault(labels, []).append(weight)
    return {labels: log_sum(weights) for labels, weights in paths.items()}


def enumerate_strings(a: Automaton, *,
                      path_budget: int = DEFAULT_PATH_BUDGET) -> dict:
    """Map every accepted label sequence to its merged weight: the semiring
    sum, over all complete paths spelling the sequence, of the path weight
    times the final weight, in the automaton's encoding. The empty sequence
    appears when the initial state is final. Aggregation follows
    depth-first arc order, so results are reproducible."""
    from_log = a.encoding.from_log
    return {labels: from_log(weight)
            for labels, weight in _string_weights(a, path_budget).items()}


def oracle_shortest_string(a: Automaton, *,
                           path_budget: int = DEFAULT_PATH_BUDGET) -> tuple:
    """Best (label sequence, merged weight) under the semiring order; ties
    break by shorter sequence, then lexicographically smaller sequence,
    matching the search's tie-break rule."""
    sigma = _string_weights(a, path_budget)
    if not sigma:
        raise EmptyLanguageError("the automaton accepts no string")
    labels = min(sigma, key=lambda z: (sigma[z], len(z), z))
    return labels, a.encoding.from_log(sigma[labels])


def oracle_shortest_path(a: Automaton, *,
                         path_budget: int = DEFAULT_PATH_BUDGET) -> tuple:
    """Best single complete path: its label sequence and its unmerged path
    weight (final weight included). Over a non-idempotent semiring this can
    differ from :func:`oracle_shortest_string`, since merging several paths
    that share a string beats each one alone."""
    best = min(((weight, len(labels), labels)
                for labels, weight in _complete_paths(a, path_budget)),
               default=None)
    if best is None:
        raise EmptyLanguageError("the automaton accepts no string")
    return best[2], a.encoding.from_log(best[0])
