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

Subsets are interned by their pairs: equal pairs share one handle, and
any other pairs, however close their residuals, get their own, so a
subset's weights are exactly those its expansion computed. Expansion is
memoized per handle, so repeated exploration never recomputes work.
Handles are dense integers in creation order, which makes runs
reproducible.
"""

from __future__ import annotations

from math import exp, log1p

from .automaton import Automaton
from .errors import BudgetExceededError
from .semiring import ONE, ZERO, log_sum


class DfaCache:
    """On-demand determinization of one acyclic automaton.

    A cache is owned by a single search: expansion mutates the memo, so
    concurrent expansion of one cache is not supported. Distinct caches
    over the same automaton are independent.
    """

    def __init__(self, automaton: Automaton, state_budget: int | None = None):
        if state_budget is not None and state_budget < 1:
            raise ValueError("state budget must be positive")
        self.automaton = automaton
        self.state_budget = state_budget
        self._subsets = []      # handle -> tuple[(state, residual), ...]
        self._index = {}        # pairs -> handle
        self._arcs = {}         # handle -> tuple[(label, weight, target handle), ...]
        self._intern(((automaton.initial, ONE),))

    def start(self) -> int:
        """Handle of the root subset {(initial, one)}; always 0."""
        return 0

    @property
    def num_states(self) -> int:
        return len(self._subsets)

    def subset(self, handle: int) -> tuple:
        return self._subsets[handle]

    def is_expanded(self, handle: int) -> bool:
        return handle in self._arcs

    def expand(self, handle: int) -> tuple:
        """Outgoing determinized arcs of a subset, one per label, sorted by
        label: ``(label, weight, target handle)`` tuples. Memoized."""
        memo = self._arcs.get(handle)
        if memo is not None:
            return memo
        arcs_of = self.automaton.arcs
        per_label: dict = {}   # label -> {target: merged mass}
        for state, residual in self._subsets[handle]:
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
        index = self._index
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
            successor = index.get(pairs)
            if successor is None:
                successor = self._intern(pairs)
            out.append((label, divisor, successor))
        result = tuple(out)
        self._arcs[handle] = result
        return result

    def final_weight(self, handle: int) -> float:
        """Semiring sum of residual times member final weight; zero when no
        member is final. Not memoized: the search asks once per subset.

        Few subsets have a final member, so the common cases are cheap: a
        lone member costs one lookup, and a subset with no final member
        returns zero without forming a sum."""
        finals = self.automaton.finals
        subset = self._subsets[handle]
        if len(subset) == 1:
            state, residual = subset[0]
            return residual + finals.get(state, ZERO)
        for state, _ in subset:
            if state in finals:
                return log_sum([residual + finals[state]
                                for state, residual in subset
                                if state in finals])
        return ZERO

    def heuristic(self, handle: int, backward: tuple) -> float:
        """Remaining-mass estimate of a subset: the semiring sum of residual
        times the member's value in a backward table (a tuple indexed by
        state) of the source automaton. Not memoized: the search asks once
        per subset.

        The estimate is admissible and consistent when each member's value
        is at most its final weight and, for each label, at most the
        log-sum of its arcs with that label into their targets' values:
        the ``"string"`` view the search uses, or the looser ``"base"``
        view (see :mod:`.distance`)."""
        subset = self._subsets[handle]
        if len(subset) == 1:
            state, residual = subset[0]
            return residual + backward[state]
        return log_sum([residual + backward[state]
                        for state, residual in subset])

    def full_expand(self) -> int:
        """Expand every reachable subset; returns the determinized state
        count. Raises :class:`BudgetExceededError` when the state budget
        would be passed."""
        handle = 0
        while handle < len(self._subsets):
            self.expand(handle)
            handle += 1
        return len(self._subsets)

    def _intern(self, pairs: tuple) -> int:
        # a new subset: its pairs are not in _index yet
        if self.state_budget is not None and len(self._subsets) >= self.state_budget:
            raise BudgetExceededError(
                f"determinized state budget {self.state_budget} exceeded")
        handle = len(self._subsets)
        self._subsets.append(pairs)
        self._index[pairs] = handle
        return handle


def materialize(cache: DfaCache) -> Automaton:
    """The explored part of the determinized automaton as a plain
    :class:`Automaton` whose state ids are the cache handles. Arcs come
    only from already-expanded handles; run ``full_expand`` first for the
    complete machine."""
    arcs = []
    for handle in range(cache.num_states):
        if cache.is_expanded(handle):
            for label, weight, target in cache.expand(handle):
                arcs.append((handle, label, weight, target))
    finals = {}
    for handle in range(cache.num_states):
        weight = cache.final_weight(handle)
        if weight != ZERO:
            finals[handle] = weight
    return Automaton(cache.automaton.encoding, cache.num_states, cache.start(),
                     arcs, finals)
