"""Lazy weighted determinization by subset construction with residuals.

A determinized state is a canonical subset: a sorted tuple of
``(source state, residual weight)`` pairs. Expanding a subset by one label
gathers every matching arc of every member, sums contributions that land
on the same target, factors the total mass of the label onto the single
output arc (the common-divisor convention), and keeps the per-target
leftovers as the residuals of the successor subset. Residuals are thereby
normalized: their semiring sum is one at creation, so prefixes that carry
proportional masses into the same states can meet in one subset. All
weights are ``-ln`` weights (see :mod:`.semiring`): the sums are
log-sum-exps shifted by the best term, products are ``+``, and a
residual is the log ratio of its target's mass to the label's total.

One step, :func:`step`, serves both the lazy search, which calls it once
per subset it expands and keeps no arcs, and :meth:`DfaCache.expand`,
which memoizes arcs per handle only for replays of the explored machine
(:func:`materialize`, the exhaustive baseline, the heuristic audit).

Subsets are interned by their pairs: equal pairs share one handle, and
any other pairs, however close their residuals, get their own, so a
subset's weights are exactly those its expansion computed, and a replay
finds every successor the search met already interned. Handles are
dense integers in creation order, which makes runs reproducible.
"""

from __future__ import annotations

from math import exp, log1p

from .automaton import Automaton
from .errors import BudgetExceededError
from .semiring import ONE, ZERO, log_sum


class DfaCache:
    """On-demand determinization of one acyclic automaton.

    The lazy search steps subsets itself: it looks successors' pairs up
    in ``index`` (pairs to handle), adds new ones with :meth:`intern` and
    records each handle it steps in ``expanded``.

    A cache is owned by a single search: expansion mutates it, so
    concurrent expansion of one cache is not supported. Distinct caches
    over the same automaton are independent.
    """

    def __init__(self, automaton: Automaton, state_budget: int | None = None):
        if state_budget is not None and state_budget < 1:
            raise ValueError("state budget must be positive")
        self.automaton = automaton
        self.state_budget = state_budget
        self._subsets = []      # handle -> tuple[(state, residual), ...]
        self.index = {}         # pairs -> handle
        self.expanded = set()   # handles stepped by a search or expand()
        self._arcs = {}         # handle -> tuple[(label, weight, target handle), ...]
        self._rho = [ZERO] * automaton.num_states   # state -> final weight
        for state, weight in automaton.finals.items():
            self._rho[state] = weight
        self.intern(((automaton.initial, ONE),))

    def start(self) -> int:
        """Handle of the root subset {(initial, one)}; always 0."""
        return 0

    @property
    def num_states(self) -> int:
        return len(self._subsets)

    def subset(self, handle: int) -> tuple:
        return self._subsets[handle]

    def is_expanded(self, handle: int) -> bool:
        """Whether a search or :meth:`expand` has stepped the subset, so
        that every successor of it is interned."""
        return handle in self.expanded

    def expand(self, handle: int) -> tuple:
        """Outgoing determinized arcs of a subset, one per label, sorted by
        label: ``(label, weight, target handle)`` tuples, from :func:`step`.
        Memoized for replays (:func:`materialize`, :meth:`full_expand`,
        the audit); the lazy search steps each subset itself and stores no
        arcs."""
        memo = self._arcs.get(handle)
        if memo is not None:
            return memo
        index = self.index
        out = []
        for label, divisor, pairs in step(self.automaton.arcs,
                                          self._subsets[handle]):
            successor = index.get(pairs)
            if successor is None:
                successor = self.intern(pairs)
            out.append((label, divisor, successor))
        result = tuple(out)
        self._arcs[handle] = result
        self.expanded.add(handle)
        return result

    def final_weight(self, handle: int) -> float:
        """Final weight of a subset: the sum :meth:`heuristic` forms, taken
        against the members' final weights (zero for a state that is not
        final). Not memoized: the search asks once per expanded subset
        that has a final member."""
        return weigh(self._rho, self._subsets[handle])

    def heuristic(self, handle: int, backward: tuple) -> float:
        """Remaining-mass estimate of a subset: the semiring sum of residual
        times the member's value in a backward table (a tuple indexed by
        state) of the source automaton: :func:`weigh`, which the lazy
        search calls itself on each new subset's pairs.

        The estimate is admissible and consistent when each member's value
        is at most its final weight and, for each label, at most the
        log-sum of its arcs with that label into their targets' values:
        the ``"string"`` view the search uses, or the looser ``"base"``
        view (see :mod:`.distance`)."""
        return weigh(backward, self._subsets[handle])

    def full_expand(self) -> int:
        """Expand every reachable subset; returns the determinized state
        count. Raises :class:`BudgetExceededError` when the state budget
        would be passed."""
        handle = 0
        while handle < len(self._subsets):
            self.expand(handle)
            handle += 1
        return len(self._subsets)

    def intern(self, pairs: tuple) -> int:
        """Handle of a new subset, whose pairs are not in ``index`` yet.
        Raises :class:`BudgetExceededError` when the state budget would be
        passed."""
        if self.state_budget is not None and len(self._subsets) >= self.state_budget:
            raise BudgetExceededError(
                f"determinized state budget {self.state_budget} exceeded")
        handle = len(self._subsets)
        self._subsets.append(pairs)
        self.index[pairs] = handle
        return handle


def step(arcs_of, members: tuple) -> list:
    """One determinization step of a subset given as its pairs. Returns,
    per label that leaves a member and sorted by label, ``(label,
    divisor, successor pairs)``; ``arcs_of(state)`` gives a state's
    ``(label, weight, target)`` arcs. The successor's pairs are sorted by
    state, and a lone target's residual is one."""
    per_label: dict = {}   # label -> {target: merged mass}
    for state, residual in members:
        for label, weight, target in arcs_of(state):
            mass = residual + weight
            bucket = per_label.get(label)
            if bucket is None:
                per_label[label] = {target: mass}
            elif target in bucket:
                other = bucket[target]
                if mass < other:
                    bucket[target] = mass - log1p(exp(mass - other))
                else:
                    bucket[target] = other - log1p(exp(other - mass))
            else:
                bucket[target] = mass
    out = []
    for label in sorted(per_label):
        bucket = per_label[label]
        if len(bucket) == 1:
            ((target, divisor),) = bucket.items()
            pairs = ((target, ONE),)
        else:
            divisor = log_sum(bucket.values())
            pairs = tuple([(target, bucket[target] - divisor)
                           for target in sorted(bucket)])
        out.append((label, divisor, pairs))
    return out


def weigh(table, subset: tuple) -> float:
    """The semiring sum of residual times the member's value in a table
    indexed by state, over a subset's pairs; a lone member's needs no
    ``log_sum``."""
    if len(subset) == 1:
        state, residual = subset[0]
        return residual + table[state]
    return log_sum([residual + table[state] for state, residual in subset])


def materialize(cache: DfaCache) -> Automaton:
    """The explored part of the determinized automaton as a plain
    :class:`Automaton` whose state ids are the cache handles. Arcs come
    only from already-expanded handles; run ``full_expand`` first for the
    complete machine. Raises :class:`ValueError` when the machine's path
    sums pass ``SUM_LIMIT``, which the source's may not: a residual can be
    the difference of two source sums."""
    sources, labels, weights, targets = [], [], [], []
    finals = {}
    for handle in range(cache.num_states):
        if cache.is_expanded(handle):
            arcs = cache.expand(handle)
            sources += [handle] * len(arcs)
            labels += [label for label, _, _ in arcs]
            weights += [weight for _, weight, _ in arcs]
            targets += [target for _, _, target in arcs]
        weight = cache.final_weight(handle)
        if weight != ZERO:
            finals[handle] = weight
    return Automaton(cache.automaton.encoding, cache.num_states, cache.start(),
                     (sources, labels, weights, targets), finals)
