"""Forward and backward shortest-distance tables over acyclic acceptors.

Both tables are computed in a single relaxation pass along the
topological order, over the package's one weight algebra (``-ln``
weights, see :mod:`.semiring`); a table is a tuple indexed by state, of
``-ln`` weights whatever the automaton's encoding. The ``view`` argument
selects the aggregation: ``"base"`` takes the log-sum-exp and merges all
paths, while ``"companion"`` takes the ``min`` and keeps only the best
path weight (the tropical view of the same automaton). Summation order
is fixed by the topological order and the stored arc order, so results
are bit-reproducible.

The backward table has a third view, ``"string"``: a bound on the merged
weight of any one string, which the search uses as its heuristic,

    u(q) = min(rho(q), min over labels a of log_sum{w + u(t) : q -a-> t}),

so arcs that share a label are merged and the choice of label takes the
best. For every fixed string z, the merged weight of z from q is at least
u(q), i.e. z's probability from q is at most ``e^-u(q)``. By induction in
reverse topological order: z's weight from q is rho(q) for the empty z,
else the log-sum over the arcs ``q -z[0]-> t`` of w plus the weight of
``z[1:]`` from t; each of those weights is at least u(t), and the log-sum
is monotonic, so the total is at least the ``z[0]`` term of the min. For
a determinized subset S with residuals r, the heuristic is
``h(S) = log_sum{r + u(q)}``; the per-label inequality ``log_sum{w + u(t)}
>= u(q)``, summed over the members of S, gives ``d + h(S') >= h(S)``
across any determinized arc ``S -a/d-> S'``, and ``u(q) <= rho(q)`` bounds
the final hop, so the heuristic is admissible and consistent. ``u`` is
at least the ``"base"`` table beta, which also merges across labels, and
``u(q)`` is ``+inf`` exactly where beta(q) is.
"""

from __future__ import annotations

from math import exp, log1p

from .automaton import Automaton, topological_order
from .semiring import INF, ONE, ZERO, log_sum

VIEWS = ("base", "companion", "string")


def _best(weights) -> float:
    return min(weights, default=INF)


def _aggregate(view: str):
    if view == "base":
        return log_sum
    if view == "companion":
        return _best
    raise ValueError(f"unknown view {view!r}; expected one of {VIEWS} "
                     f"(string for backward tables only)")


def backward_distance(a: Automaton, view: str = "base") -> tuple:
    """Per-state aggregated weight of all suffix paths into a final state,
    final weight included; for the ``"string"`` view, the best-string
    bound described in the module docstring. States that reach no final
    state hold zero."""
    if view == "string":
        return _string_bound(a)
    aggregate = _aggregate(view)
    finals = a.finals
    beta = [ZERO] * a.num_states
    for q in reversed(topological_order(a)):
        costs = [weight + beta[target] for _, weight, target in a.arcs(q)]
        if q in finals:
            costs.append(finals[q])
        beta[q] = aggregate(costs)
    return tuple(beta)


def _string_bound(a: Automaton) -> tuple:
    finals = a.finals
    u = [ZERO] * a.num_states
    for q in reversed(topological_order(a)):
        best = finals.get(q, ZERO)
        # arcs are sorted by label: sum each label's run of arcs pairwise
        # (a single arc needs no log-add) and keep the best run
        run_label = None
        acc = ZERO
        for label, weight, target in a.arcs(q):
            cost = weight + u[target]
            if label != run_label:
                if acc < best:
                    best = acc
                run_label = label
                acc = cost
            elif cost < acc:   # acc may be +inf: exp(-inf) is 0
                acc = cost - log1p(exp(cost - acc))
            elif cost < INF:
                acc = acc - log1p(exp(acc - cost))
        if acc < best:
            best = acc
        u[q] = best
    return tuple(u)


def forward_distance(a: Automaton, view: str = "base") -> tuple:
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
    return tuple(alpha)


def total_distance(a: Automaton) -> float:
    """Aggregated ``-ln`` weight of every complete path; zero (``+inf``)
    for an empty language."""
    return backward_distance(a, "base")[a.initial]
