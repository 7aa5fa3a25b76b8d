"""Lazy weighted determinization by subset construction with residuals.

A determinized state is a canonical subset, stored as its key: one flat
tuple ``(s0, r0, s1, r1, ...)`` of source states, strictly ascending,
each followed by its residual weight. One tuple per subset, and none
per member, keeps the bytes a stored subset costs low; the even slots
``key[0::2]`` are its member states and the odd slots ``key[1::2]``
their residuals. Expanding a subset by one label gathers every matching
arc of every member, sums contributions that land on the same target,
factors the total mass of the label onto the single output arc (the
common-divisor convention), and keeps the per-target leftovers as the
residuals of the successor subset. Residuals are thereby normalized:
their semiring sum is one at creation, so prefixes that carry
proportional masses into the same states can meet in one subset. All
weights are ``-ln`` weights (see :mod:`.semiring`): the sums are
log-sum-exps shifted by the best term, products are ``+``, and a
residual is the log ratio of its target's mass to the label's total.

One step, :func:`step`, serves both the lazy search, which calls it once
per subset it expands and keeps no arcs, and :meth:`DfaCache.expand`,
which memoizes arcs per handle only for replays of the explored machine
(:func:`materialize`, the exhaustive baseline, the heuristic audit).

Subsets are interned by their keys: equal keys share one handle, and
any other keys, however close their residuals, get their own, so a
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

    The lazy search steps subsets itself: it looks successors' keys up
    in ``index`` (key to handle), adds new ones with :meth:`intern` and
    marks each handle it steps in ``expanded``, a byte per handle.

    A cache is owned by a single search: expansion mutates it, so
    concurrent expansion of one cache is not supported. Distinct caches
    over the same automaton are independent.
    """

    def __init__(self, automaton: Automaton, state_budget: int | None = None):
        if state_budget is not None and state_budget < 1:
            raise ValueError("state budget must be positive")
        self.automaton = automaton
        self.state_budget = state_budget
        self._keys = []                 # handle -> (s0, r0, s1, r1, ...)
        self.index = {}                 # key -> handle
        self.expanded = bytearray()     # handle -> 1 once stepped, else 0
        self._arcs = {}         # handle -> tuple[(label, weight, target handle), ...]
        self._rho = [ZERO] * automaton.num_states   # state -> final weight
        for state, weight in automaton.finals.items():
            self._rho[state] = weight
        self.intern((automaton.initial, ONE))

    def start(self) -> int:
        """Handle of the root subset {(initial, one)}; always 0."""
        return 0

    @property
    def num_states(self) -> int:
        return len(self._keys)

    def key(self, handle: int) -> tuple:
        """A subset's key, ``(s0, r0, s1, r1, ...)``, as :func:`step`
        built it; :func:`weigh` reads it."""
        return self._keys[handle]

    def subset(self, handle: int) -> tuple:
        """A subset's members as ``(state, residual)`` pairs, states
        ascending; built from the key on each call."""
        key = self._keys[handle]
        return tuple(zip(key[0::2], key[1::2]))

    def is_expanded(self, handle: int) -> bool:
        """Whether a search or :meth:`expand` has stepped the subset, so
        that every successor of it is interned."""
        return self.expanded[handle] == 1

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
        for label, divisor, key in step(self.automaton.arcs,
                                        self._keys[handle]):
            successor = index.get(key)
            if successor is None:
                successor = self.intern(key)
            out.append((label, divisor, successor))
        result = tuple(out)
        self._arcs[handle] = result
        self.expanded[handle] = 1
        return result

    def final_weight(self, handle: int) -> float:
        """Final weight of a subset: the sum :meth:`heuristic` forms, taken
        against the members' final weights (zero for a state that is not
        final). Not memoized: the search asks once per expanded subset
        that has a final member."""
        return weigh(self._rho, self.key(handle))

    def heuristic(self, handle: int, backward: tuple) -> float:
        """Remaining-mass estimate of a subset: the semiring sum of residual
        times the member's value in a backward table (a tuple indexed by
        state) of the source automaton: :func:`weigh`, which the lazy
        search calls itself on each new subset's key.

        The estimate is admissible and consistent when each member's value
        is at most its final weight and, for each label, at most the
        log-sum of its arcs with that label into their targets' values:
        the ``"string"`` view the search uses, or the looser ``"base"``
        view (see :mod:`.distance`)."""
        return weigh(backward, self.key(handle))

    def full_expand(self) -> int:
        """Expand every reachable subset; returns the determinized state
        count. Raises :class:`BudgetExceededError` when the state budget
        would be passed."""
        handle = 0
        while handle < len(self._keys):
            self.expand(handle)
            handle += 1
        return len(self._keys)

    def intern(self, key: tuple) -> int:
        """Handle of a new subset, whose key, ``(s0, r0, s1, r1, ...)``
        with states strictly ascending, is not in ``index`` yet. Raises
        :class:`BudgetExceededError` when the state budget would be
        passed."""
        if self.state_budget is not None and len(self._keys) >= self.state_budget:
            raise BudgetExceededError(
                f"determinized state budget {self.state_budget} exceeded")
        handle = len(self._keys)
        self._keys.append(key)
        self.index[key] = handle
        self.expanded.append(0)
        return handle


def step(arcs_of, key: tuple) -> list:
    """One determinization step of a subset given as its key. Returns,
    per label that leaves a member and sorted by label, ``(label,
    divisor, successor key)``; ``arcs_of(state)`` gives a state's
    ``(label, weight, target)`` arcs. A lone target's residual is one."""
    per_label: dict = {}   # label -> {target: merged mass}
    if len(key) == 2:
        members = (key,)    # a lone member's key is its one pair
    else:
        slots = iter(key)
        members = zip(slots, slots)
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
            successor = (target, ONE)
        else:
            divisor = log_sum(bucket.values())
            if len(bucket) == 2:
                (first, mass), (second, other) = bucket.items()
                if second < first:
                    first, mass, second, other = second, other, first, mass
                successor = (first, mass - divisor, second, other - divisor)
            else:
                successor = []
                for target in sorted(bucket):
                    successor += (target, bucket[target] - divisor)
                successor = tuple(successor)
        out.append((label, divisor, successor))
    return out


def weigh(table, key: tuple) -> float:
    """The semiring sum of residual times the member's value in a table
    indexed by state, over a subset's key; a lone member's needs no
    ``log_sum``, and two members' take its two-term path."""
    if len(key) == 2:
        state, residual = key
        return residual + table[state]
    if len(key) == 4:
        first, residual, second, other = key
        return log_sum((residual + table[first], other + table[second]))
    slots = iter(key)
    return log_sum([residual + table[state]
                    for state, residual in zip(slots, slots)])


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
