"""Acyclic weighted acceptors: data model and validation.

An :class:`Automaton` is a single-initial-state, epsilon-free acceptor whose
weights are ``-ln`` weights of the log semiring (see :mod:`.semiring`),
tagged with the encoding they are read and written in. It is built
from four parallel arc columns, ``(sources, labels, weights, targets)``,
and a map of final weights, which it reads without keeping a copy past
their use. States are dense non-negative ints; label 0 is reserved for
epsilon and never appears on a stored arc. A state's arcs are plain
``(label, weight, target)`` tuples sorted by (label, target, weight), so
that subset expansion and weight summation are deterministic.

The acceptor contract is checked once, where an :class:`Automaton` is
built: the per-record rules on whole columns, among them that states and
labels are ints, then, through
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
from itertools import compress, islice, repeat
from operator import le, lt, ne
from types import MappingProxyType
from typing import Iterator

from .errors import CycleError
from .semiring import INF, ZERO, Encoding, members


# validate() bounds path sums by half the largest float in magnitude, so
# that their differences (residuals) are finite too
SUM_LIMIT = sys.float_info.max / 2


class Automaton:
    """Immutable weighted acceptor.

    ``arcs`` is four parallel sequences, ``(sources, labels, weights,
    targets)``, whose ``i``-th entries are one arc, and ``finals`` maps
    state to final weight; states and labels are ints and weights floats,
    stored as given. Weights are ``-ln`` weights whatever the
    ``encoding``, which only says how the automaton's weights are written
    and shown; build from probabilities with ``REAL.to_log`` or
    :func:`.textformat.read_text`. Arcs and final entries whose weight
    equals the semiring zero (``+inf``) denote absence and are silently
    dropped; the drop counts are kept in ``pruned_arcs`` /
    ``pruned_finals``, and ``min_arc_weight`` is the smallest weight of
    a kept arc (``0.0`` when none is kept). The columns are read, not
    kept: the automaton holds its own per-state arc tuples.

    The state count and initial state must be ints, the count at least 1
    and the initial state below it. There must be four arc columns of
    one length, and every arc and final entry, dropped ones included,
    must have int states in ``0 .. num_states - 1``, an int label of at
    least 1 and a ``-ln`` weight (a real or ``+inf``, as
    :func:`.semiring.members` judges), or :class:`ValueError` names the
    first record in input order, arcs first, that fails alone. Columns
    of unequal length are refused after the arcs they make and before
    the final entries. The graph must then pass :func:`validate`.
    """

    def __init__(self, encoding: Encoding, num_states: int, initial: int,
                 arcs, finals: dict):
        if not _ints((num_states,)):
            raise ValueError(f"state count {num_states!r} is not an int")
        if num_states < 1:
            raise ValueError("an automaton needs at least one state")
        if not _ints((initial,)):
            raise ValueError(f"initial state {initial!r} is not an int")
        if not 0 <= initial < num_states:
            raise ValueError(f"initial state {initial} out of range")
        try:
            columns = sources, labels, weights, targets = arcs
            lengths = tuple(map(len, columns))
            uneven = min(lengths) < max(lengths)
        except (TypeError, ValueError):
            raise ValueError("arcs must be four columns: sources, labels, "
                             "weights, targets") from None
        # As (source, label, target, weight) rows in order, the columns
        # group the arcs by source and order each state's arcs. Columns
        # already in that order, as materialize gives them and read_text
        # gives them for a file write_text wrote, are read as they are,
        # confirmed by one comparison per row; others, such as generate's
        # (each source's arcs in slot order, not label order), are sorted
        # as rows and transposed back, and the rows dropped.
        try:
            if uneven:
                raise ValueError("arc columns of unequal length")
            if not all(map(le, zip(sources, labels, targets, weights),
                           islice(zip(sources, labels, targets, weights),
                                  1, None))):
                rows = sorted(zip(sources, labels, targets, weights))
                sources, labels, targets, weights = zip(*rows)
                del rows
            _check(num_states, sources, labels, weights, targets, finals)
        except (TypeError, ValueError):
            # the first record, arcs before finals, that fails alone is
            # named; a value that is not an int can fail the sort instead
            try:
                for arc in zip(*columns):
                    _check(num_states, *zip(arc), {})
                if uneven:
                    raise ValueError(
                        "arc columns differ in length (sources {}, labels "
                        "{}, weights {}, targets {})".format(*lengths))
                for state, weight in finals.items():
                    _check(num_states, (), (), (), (), {state: weight})
            except ValueError as offence:
                raise offence from None
            raise
        # low and high bound _magnitude; high is +inf when an arc weighs zero
        low = min(weights, default=0.0)
        high = max(weights, default=0.0)
        if high == ZERO:
            present = list(map(ne, weights, repeat(ZERO)))
            sources, labels, weights, targets = (
                list(compress(column, present))
                for column in (sources, labels, weights, targets))
            high = max(weights, default=0.0)
        # sorted by source, state q's arcs start at its first row
        bounds = list(map(bisect_left, repeat(sources),
                          range(num_states + 1)))
        flat = tuple(zip(labels, weights, targets))
        kept = dict(sorted(finals.items()))
        if ZERO in kept.values():
            kept = {q: w for q, w in kept.items() if w != ZERO}
        self.encoding = encoding
        self.num_states = num_states
        self.initial = initial
        self.pruned_arcs = lengths[0] - len(sources)
        self.pruned_finals = len(finals) - len(kept)
        self.min_arc_weight = low if sources else 0.0
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
    if not _ints(sources):
        raise ValueError(f"arc source {sources[0]!r} is not an int")
    if sources and not (0 <= sources[0] and sources[-1] < num_states):
        raise ValueError(f"arc source {sources[0]} out of range")
    if not _ints(labels):
        raise ValueError(f"label {labels[0]!r} on arc "
                         f"{sources[0]}->{targets[0]} is not an int")
    if not min(labels, default=1) > 0:
        if labels[0] == 0:
            raise ValueError(f"epsilon arc {sources[0]}->{targets[0]} "
                             f"(label 0 is reserved)")
        raise ValueError(f"negative label {labels[0]} on arc "
                         f"{sources[0]}->{targets[0]}")
    if not _ints(targets):
        raise ValueError(f"arc target {targets[0]!r} on arc from "
                         f"{sources[0]} is not an int")
    if not (min(targets, default=0) >= 0
            and max(targets, default=0) < num_states):
        raise ValueError(f"arc target {targets[0]} out of range on arc "
                         f"from {sources[0]}")
    if not members(weights):
        raise ValueError(f"arc weight {weights[0]!r} on "
                         f"{sources[0]}->{targets[0]} is not a member of "
                         f"the log semiring")
    if not _ints(finals):
        raise ValueError(f"final state {next(iter(finals))!r} is not an int")
    if not (min(finals, default=0) >= 0
            and max(finals, default=0) < num_states):
        raise ValueError(f"final state {next(iter(finals))} out of range")
    if not members(finals.values()):
        state, weight = next(iter(finals.items()))
        raise ValueError(f"final weight {weight!r} of state {state} is not "
                         f"a member of the log semiring")


def _ints(values) -> bool:
    # whether every value is an int, in one pass: ints sum to an int,
    # while a float (NaN too) or another number makes the sum another
    # type, and a value that is no number cannot be added
    try:
        return type(sum(values)) is int
    except TypeError:
        return False


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
