"""Acyclic weighted acceptors: data model and validation.

An :class:`Automaton` is a single-initial-state, epsilon-free acceptor whose
weights are ``-ln`` weights of the log semiring (see :mod:`.semiring`),
tagged with the encoding they are read and written in. States are dense
non-negative integers; label 0 is reserved for epsilon and never appears
on a stored arc. A state's arcs are plain ``(label, weight, target)``
tuples sorted by (label, target, weight), so that subset expansion and
weight summation are deterministic.

The acceptor contract is checked once, where an :class:`Automaton` is
built: the per-record rules on whole columns, then, through
:func:`validate`, what needs the whole graph, cycles and path sums. A
failed column check is worded by checking each record alone with the
same rules. Every automaton that exists is valid, and no decoder checks
again. Arcs and final weights of zero are dropped and counted.
:func:`topological_order` puts the smallest ready state first; for an
automaton whose arcs all go from a smaller to a larger state id, as in
lattices numbered forward, that order is ``0 .. num_states - 1``, known
without a pass. On cyclic input it names one arc on a cycle, found from
the states its pass leaves, without a second walk.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_left
from itertools import repeat
from operator import lt
from types import MappingProxyType
from typing import Iterable, Iterator

from .errors import CycleError
from .semiring import INF, ZERO, Encoding, members


# validate() bounds path sums by half the largest float in magnitude, so
# that their differences (residuals) are finite too
SUM_LIMIT = sys.float_info.max / 2


class Automaton:
    """Immutable weighted acceptor.

    ``arcs`` is an iterable of ``(source, label, weight, target)`` tuples and
    ``finals`` maps state to final weight; states and labels are ints and
    weights floats, stored as given. Weights are ``-ln`` weights
    whatever the ``encoding``, which only says how the automaton's weights
    are written and shown; build from probabilities with ``REAL.to_log``
    or :func:`.textformat.read_text`. Arcs and final entries whose weight
    equals the semiring zero (``+inf``) denote absence and are silently
    dropped; the drop counts are kept in ``pruned_arcs`` /
    ``pruned_finals``, and ``min_arc_weight`` is the smallest weight of
    a kept arc (``0.0`` when none is kept).

    Every arc must have those four fields, and every arc and final
    entry, dropped ones included, must have its states in
    ``0 .. num_states - 1``, a label of at least 1 and a ``-ln`` weight
    (a real or ``+inf``, as :func:`.semiring.members` judges), or
    :class:`ValueError` names the first record in input order, arcs
    first, that fails alone. The graph must then pass :func:`validate`.
    """

    def __init__(self, encoding: Encoding, num_states: int, initial: int,
                 arcs: Iterable[tuple], finals: dict):
        if num_states < 1:
            raise ValueError("an automaton needs at least one state")
        if not 0 <= initial < num_states:
            raise ValueError(f"initial state {initial} out of range")
        arcs = list(arcs)
        # One transpose of the (source, label, weight, target) arcs gives
        # the columns; an arc of another width fails it, or makes more or
        # fewer than four. Sorted as (source, label, target, weight)
        # rows, the columns group the arcs by source and order each
        # state's arcs. Rows already in that order, as write_text writes
        # them when state 0 is initial, are one run to the sort and keep
        # their columns without a second transpose.
        try:
            sources, labels, weights, targets = (
                tuple(zip(*arcs, strict=True)) if arcs else ((),) * 4)
            rows = list(zip(sources, labels, targets, weights))
            ordered = sorted(rows)
            if ordered != rows:
                rows = ordered
                sources, labels, targets, weights = zip(*rows)
            _check(num_states, sources, labels, weights, targets, finals)
        except ValueError:
            # the first record, arcs before finals, that fails alone is named
            try:
                for arc in arcs:
                    if len(arc) != 4:
                        raise ValueError(f"arc {arc!r} is not a (source, "
                                         f"label, weight, target) tuple")
                    _check(num_states, *zip(arc), {})
                for state, weight in finals.items():
                    _check(num_states, (), (), (), (), {state: weight})
            except ValueError as offence:
                raise offence from None
            raise
        # low and high bound _magnitude; high is +inf when an arc weighs zero
        low = min(weights, default=0.0)
        high = max(weights, default=0.0)
        if high == ZERO:
            rows = [row for row in rows if row[3] != ZERO]
            sources, labels, targets, weights = tuple(zip(*rows)) or ((),) * 4
            high = max(weights, default=0.0)
        flat = tuple(zip(labels, weights, targets))
        # sorted by source, state q's arcs start at its first row
        bounds = list(map(bisect_left, repeat(sources),
                          range(num_states + 1)))
        kept = dict(sorted(finals.items()))
        if ZERO in kept.values():
            kept = {q: w for q, w in kept.items() if w != ZERO}
        self.encoding = encoding
        self.num_states = num_states
        self.initial = initial
        self.pruned_arcs = len(arcs) - len(rows)
        self.pruned_finals = len(finals) - len(kept)
        self.min_arc_weight = low if rows else 0.0
        self._arcs = tuple(map(flat.__getitem__, map(slice, bounds, bounds[1:])))
        self._finals = kept
        self.finals = MappingProxyType(kept)
        # the largest weight magnitude, which bounds validate()'s path sums
        self._magnitude = max(high, -low, *map(abs, kept.values()))
        # memo of topological_order once it succeeded; an automaton whose
        # arcs all go from a smaller to a larger state id is ordered by id
        self._order = range(num_states) if all(map(lt, sources, targets)) else None
        validate(self)

    def arcs(self, state: int) -> tuple:
        return self._arcs[state]

    def all_arcs(self) -> Iterator[tuple]:
        for source, arcs in enumerate(self._arcs):
            for label, weight, target in arcs:
                yield source, label, weight, target

    def num_arcs(self) -> int:
        return sum(map(len, self._arcs))

    def __repr__(self):
        return (f"Automaton({self.encoding.name}, states={self.num_states}, "
                f"arcs={self.num_arcs()}, finals={len(self._finals)})")


def _check(num_states: int, sources, labels, weights, targets,
           finals: dict) -> None:
    # the rules on arc columns sorted by source, then on final entries,
    # worded from the failing column's first entry (a lone record's own)
    if sources and not (0 <= sources[0] and sources[-1] < num_states):
        raise ValueError(f"arc source {sources[0]} out of range")
    if not min(labels, default=1) > 0:
        if labels[0] == 0:
            raise ValueError(f"epsilon arc {sources[0]}->{targets[0]} "
                             f"(label 0 is reserved)")
        raise ValueError(f"negative label {labels[0]} on arc "
                         f"{sources[0]}->{targets[0]}")
    if not (min(targets, default=0) >= 0
            and max(targets, default=0) < num_states):
        raise ValueError(f"arc target {targets[0]} out of range on arc "
                         f"from {sources[0]}")
    if not members(weights):
        raise ValueError(f"arc weight {weights[0]!r} on "
                         f"{sources[0]}->{targets[0]} is not a member of "
                         f"the log semiring")
    if not (min(finals, default=0) >= 0
            and max(finals, default=0) < num_states):
        raise ValueError(f"final state {next(iter(finals))} out of range")
    if not members(finals.values()):
        state, weight = next(iter(finals.items()))
        raise ValueError(f"final weight {weight!r} of state {state} is not "
                         f"a member of the log semiring")


def validate(a: Automaton) -> None:
    """Check the part of the acceptor contract that needs the whole graph;
    :class:`Automaton` runs it as the last step of construction.

    :class:`Automaton` has already checked each arc and final entry. A
    valid automaton is also acyclic, or :class:`CycleError` names an arc
    on a cycle, and every path from a state the initial one reaches sums
    to at most ``SUM_LIMIT`` in magnitude, its final weight included or
    not, or :class:`ValueError` gives the range of the sums. So no sum the
    decoders form, nor a residual, overflows to a false ``+inf`` (no
    path) or ``-inf``.
    """
    order = topological_order(a)
    # a path sums at most num_states weights, which bounds most automata
    # without a pass
    if a.num_states * a._magnitude > SUM_LIMIT:
        low, high = _path_sum_range(a, order)
        if not -SUM_LIMIT <= low <= high <= SUM_LIMIT:
            raise ValueError(f"path weights sum to {low!r} .. {high!r}, "
                             f"beyond ±{SUM_LIMIT!r} (half the float range)")


def _path_sum_range(a: Automaton, order: list) -> tuple:
    # smallest and largest sums of the paths from reachable states, with
    # and without the final weight; low[q] .. high[q] spans those into q
    low = [INF] * a.num_states
    high = [-INF] * a.num_states
    low[a.initial] = high[a.initial] = 0.0
    for q in order:
        if low[q] <= high[q]:   # reachable
            lo = low[q] = min(low[q], 0.0)
            hi = high[q] = max(high[q], 0.0)
            for _, weight, target in a._arcs[q]:
                low[target] = min(low[target], lo + weight)
                high[target] = max(high[target], hi + weight)
    for q, weight in a._finals.items():
        if low[q] <= high[q]:
            low.append(low[q] + weight)
            high.append(high[q] + weight)
    return min(low), max(high)


def topological_order(a: Automaton) -> list:
    """States ordered so every arc goes forward; smallest-id-first among
    ready states, so the result is unique. Raises :class:`CycleError` on
    cyclic input, naming one arc on a cycle, found from the states the
    pass leaves. The order is computed once per automaton, by
    :func:`validate` as the automaton is built, and returned as a fresh
    list on every call. When every arc goes from a smaller to a larger
    state id, it is ``0 .. num_states - 1`` without a pass, since each
    state's predecessors all have smaller ids."""
    if a._order is not None:
        return list(a._order)
    indegree = [0] * a.num_states
    for _, _, _, target in a.all_arcs():
        indegree[target] += 1
    ready = [q for q in range(a.num_states) if indegree[q] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        q = heapq.heappop(ready)
        order.append(q)
        for _, _, target in a.arcs(q):
            indegree[target] -= 1
            if indegree[target] == 0:
                heapq.heappush(ready, target)
    if len(order) < a.num_states:
        # every state the pass left has a predecessor that it left too, so
        # walking predecessors from one of them repeats a state, and the
        # arc into that state lies on a cycle
        left = [q for q, count in enumerate(indegree) if count]
        pred = {target: q for q in left
                for _, _, target in a.arcs(q) if indegree[target]}
        q = left[0]
        seen = set()
        while q not in seen:
            seen.add(q)
            q = pred[q]
        raise CycleError(f"cycle detected: arc {pred[q]}->{q} closes a loop")
    a._order = tuple(order)
    return order
