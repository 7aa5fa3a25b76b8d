"""Best-string decoding: A* over the lazily determinized acceptor.

Over the log semiring (and so over probabilities) the best *path* and
the best *string* can disagree, because several paths may share one
string and their merged weight beats every single path. Determinizing
fixes this: in a deterministic machine each string has exactly one path,
whose weight is the string's merged weight. The search therefore runs
over determinized subsets, best-first on ``-ln`` weights (path weights
add, and smaller is better: the companion view ``min``), and uses each
residual-weighted sum of its members' best-string bounds as the
heuristic: the ``"string"`` backward view of :mod:`.distance`, which
merges arcs that share a label and takes the best label, so it bounds
the mass of any one string rather than all futures together. That
heuristic never overestimates the best completion and never
overestimates any single step, so the first goal popped is the best
string and every subset is settled at most once. The exhaustive
baseline runs the same search with the fully determinized machine's own
backward table as its heuristic. Either search refuses, before its
first pop, an automaton whose heuristic at the root is zero (``+inf``):
it accepts no string. It writes every count to one :class:`Stats` on
every exit, and the two errors carry that as ``stats``.

The search steps each subset it expands once, through
:func:`.determinize.step`, interns only new successors and weighs a new
subset's heuristic there, from its key. It sums a final weight only
when a member is final and keeps no arcs: :meth:`.DfaCache.expand`,
built on the same step, memoizes them only for replays.

A popped subset is skipped, counted in :attr:`Stats.dominated`, when an
already expanded subset over the same member states beats it on every
member. Popped with gscore g, a member ``(q, r_q)`` carries the forward
mass ``α_q = g + r_q``, and a completion z (a label string, its final
weight included) weighs ``log_sum_q(α_q + w_q(z))``, where ``w_q(z)`` is
the merged weight of z from q in the source automaton. That sum is
monotone in each ``α_q`` and moves with a common shift, so if the exact
masses of an expanded S′ and of S have ``α′_q + m < α_q`` on every member,
with m > 0, every ``S′·z`` is lighter than ``S·z``: no string through S
is best or ties the best, and skipping S keeps the answer, its weight
and the tie break.

The margin m covers the rounding of the masses the search computes.
Each step of a prefix rounds the gscore sum and at most four results
per member (residual plus arc weight, the merge of a target's masses,
the divisor, the new residual), each to within 2^-53 of its magnitude.
A prefix has fewer than N steps, N the automaton's state count. Only
negative arc weights take a sum below zero or below an earlier sum, and
by at most ``D = N·W``, W the magnitude of the most negative arc weight
(zero when none is negative), so no mass or gscore on either prefix
exceeds ``max(1, |α_q| + D)`` in magnitude, even where arcs of ±1e12
cancel on the way to a small α_q. The two computed masses of q are then
off by less than ``8·N·2^-53·max(1, |α_q| + D)`` together, and

    m = max(ORDER_SLACK, 8·N·2^-53)·max(1, |α_q| + D)

covers that (ORDER_SLACK is the larger term below 1.1e6 states).
:func:`rounding` returns this margin as a function of the weight, and
every check calls it: the dominance limits, and, since the heuristic
and backward sums are as long and round alike, the pop order, the audit
and ``decode --oracle``'s tolerance (the margin at the decoded weight).
The expanded masses are kept per member-state set and never dropped:
the lazy search's f = log_sum_q(α_q + u(q)) is monotone in the masses
too, and pops come in nondecreasing f, so a later pop never beats an
earlier one on every member. A subset with one member is never
compared: its residual is zero, so there is one subset per state.

Goals are handled with a virtual super-final hop: a final subset may
still have outgoing arcs whose continuations beat stopping there, so
popping the subset itself proves nothing; popping its super-final entry
does. Priority ties break by shorter string, then lexicographically
smaller label sequence, then insertion order, making results
reproducible and giving the brute-force oracle an exact contract.

The search works in ``-ln`` weights whatever the automaton's encoding;
only :attr:`SearchResult.weight` is converted back to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from operator import lt
from typing import Callable, Optional

from .automaton import Automaton
from .determinize import DfaCache, materialize, step, weigh
from .distance import backward_distance
from .errors import BudgetExceededError, EmptyLanguageError
from .semiring import INF, ONE, ZERO, format_weight

# The backward view of the source automaton that the heuristic is built
# from (see :mod:`.distance` for why it is admissible and consistent).
HEURISTIC_VIEW = "string"

# rounding()'s least slack: float drift in a sum grows with its terms, so
# weights are told apart by more than this fraction of their magnitude
ORDER_SLACK = 1e-9


@dataclass
class Stats:
    popped: int = 0          # expanded subsets, super-final pop included
    pushed: int = 0
    subsets_built: int = 0
    queue_peak: int = 0
    arcs_relaxed: int = 0
    order_violations: int = 0  # pops whose priority fell beyond rounding()
    dominated: int = 0       # popped subsets skipped by dominance

    def as_dict(self) -> dict:
        # the fields are ints, in declaration order: a shallow copy will do
        return dict(vars(self))


@dataclass(frozen=True)
class SearchResult:
    labels: tuple
    weight: float   # in the automaton's encoding
    stats: Stats


# on_pop callbacks receive (handle, gscore, heuristic, fscore, labels),
# scores as -ln weights; handle is None for the super-final pop.
TraceFn = Callable[[Optional[int], float, float, float, tuple], None]


def rounding(a: Automaton) -> Callable[[float], float]:
    """The margin ``m(x) = slack·max(1, |x| + drop)`` within which a
    search of ``a`` does not tell weights near x apart (``drop = N·W``)."""
    n = a.num_states
    slack = max(ORDER_SLACK, 8 * n * 2.0 ** -53)
    drop = n * max(0.0, -a.min_arc_weight)
    return lambda x: slack * max(1.0, abs(x) + drop)


def shortest_string(a: Automaton, *, on_pop: TraceFn | None = None,
                    cache: DfaCache | None = None) -> SearchResult:
    """Best label sequence of ``a`` and its merged weight.

    Determinization happens on the fly: only subsets the search actually
    reaches are ever built. Pass ``cache`` to set a subset budget,
    ``DfaCache(a, n)``, or to keep the explored machine around afterwards;
    it must wrap ``a``. Without one the search builds an unbudgeted cache.
    Raises :class:`ValueError` when ``cache`` wraps another automaton,
    :class:`EmptyLanguageError` when no complete path exists and
    :class:`BudgetExceededError` past the cache's subset budget; the last
    two carry the search's :class:`Stats` as ``stats``.
    """
    return _astar(a, cache, _string_heuristic, on_pop)


def shortest_string_via_full_determinization(
        a: Automaton, *, on_pop: TraceFn | None = None,
        cache: DfaCache | None = None) -> SearchResult:
    """Baseline variant: determinize exhaustively first, compute the
    determinized machine's own backward table, then run the same search
    with that table as the heuristic. Returns the same string and weight
    as :func:`shortest_string`, for at least as much determinization work.
    Raises what :func:`shortest_string` raises, and :class:`ValueError`
    when :func:`.materialize` refuses the determinized machine."""
    return _astar(a, cache, _dfa_heuristic, on_pop)


def _string_heuristic(cache: DfaCache) -> Callable[[tuple], float]:
    """The lazy search's heuristic, by a subset's key: the one that
    :func:`heuristic_audit` checks."""
    return partial(weigh, backward_distance(cache.automaton, HEURISTIC_VIEW))


def _dfa_heuristic(cache: DfaCache) -> Callable[[tuple], float]:
    """The baseline's heuristic, by a subset's key: the whole
    determinized machine's ``"base"`` backward table."""
    table = _dfa_table(cache, "base")
    index = cache.index
    return lambda key: table[index[key]]


def _dfa_table(cache: DfaCache, view: str) -> tuple:
    """Backward table, in ``view``, of the whole determinized machine,
    indexed by handle; expands every subset of ``cache`` first."""
    cache.full_expand()
    return backward_distance(materialize(cache), view)


class _Path:
    """A label sequence as its last label and a link to its prefix, so an
    expanded pop costs one node instead of a copy of the whole sequence;
    a heap entry holds its prefix node and last label, and stale or
    dominated entries never make one. The heap compares two prefixes
    only when their priorities and lengths tie, and then as their label
    sequences.

    Each node remembers the last path it was compared with and the
    outcome. Two paths that differ in a prefix compare as those prefixes
    do, so a walk back that meets a remembered pair stops there: paths
    that keep tying while they grow, which the heap compares again after
    every step, cost one step per comparison instead of their length.
    The memo holds a serial: the push count of the heap entry a path is
    made from, never reused within a search. So a path that has died is
    never a memo hit, and paths refer to each other only through
    ``prefix``: they form no cycle, and reference counting frees them."""

    __slots__ = ("label", "prefix", "serial", "other", "result")

    def __init__(self, label, prefix, serial):
        self.label = label
        self.prefix = prefix    # None for the empty path
        self.serial = serial    # from 1 up
        self.other = 0          # serial of the path last compared with
        self.result = 0         # and how this one compared with it

    def labels(self) -> tuple:
        out = []
        node = self
        while node.prefix is not None:   # a loop: no recursion limit
            out.append(node.label)
            node = node.prefix
        out.reverse()
        return tuple(out)

    def _compare(self, other) -> int:
        # -1, 0 or 1 as the label sequences compare, for two paths of one
        # search with equal lengths: both are walked back together to
        # their shared prefix or a remembered pair, and the last
        # difference met is the first one in string order unless the
        # remembered prefixes differ
        a, b = self, other
        result = 0
        while a is not b:
            if a.other == b.serial:
                result = a.result or result
                break
            if b.other == a.serial:
                result = -b.result or result
                break
            if a.label != b.label:
                result = -1 if a.label < b.label else 1
            a, b = a.prefix, b.prefix
        self.other, self.result = other.serial, result
        other.other, other.result = self.serial, -result
        return result

    def __eq__(self, other):
        return self._compare(other) == 0

    def __lt__(self, other):
        return self._compare(other) < 0


# best_g value of a handle never to be pushed again: settled, or a dead
# end (no completion exists from there); every gscore compares above it
_CLOSED = -INF


def _astar(a: Automaton, cache: DfaCache | None,
           heuristic_of: Callable[[DfaCache], Callable[[tuple], float]],
           on_pop: TraceFn | None) -> SearchResult:
    if cache is None:
        cache = DfaCache(a)
    elif cache.automaton is not a:
        raise ValueError("the cache wraps another automaton")
    key_of = cache.key
    final_weight = cache.final_weight
    final_states = a.finals.keys()
    arcs_of = a.arcs
    # the step is looked up here, once per search, so that a replaced
    # search.step is the one called
    advance = step
    lookup = cache.index.get
    intern = cache.intern
    expanded = cache.expanded
    margin = rounding(a)
    stats = Stats()
    # the counters stay in locals and reach stats on every exit
    popped = pushed = queue_peak = arcs_relaxed = dominated = 0
    order_violations = 0
    heap = []
    # heuristic_of runs inside the try: a budget passed while it builds
    # the baseline's table must hand over the stats too
    try:
        heuristic = heuristic_of(cache)
        # member states -> the forward masses (gscore + residual, per
        # member) of the expanded subsets over them
        fronts = {}
        root = cache.start()    # handle 0
        # per handle, the heuristic and the best gscore pushed, or
        # _CLOSED; a new subset's are set where the search interns it
        h = [heuristic(key_of(handle))
             for handle in range(cache.num_states)]
        best_g = [_CLOSED if h_old == ZERO else ZERO for h_old in h]
        best_g[root] = ONE
        # the heuristic never overestimates, so zero at the root: no string
        if h[root] == ZERO:
            raise EmptyLanguageError("the automaton accepts no string")
        # entry: (fscore, string length, prefix path, last label, push
        # count, handle | None, gscore). The path node is made only when
        # an entry is expanded or is the goal, and the root's (None, None)
        # makes the empty path. Equal lengths compare as (prefix, label),
        # the order of the whole label sequences; the unique push count
        # stops comparison before the handle and names the entry's path
        heap.append((ONE + h[root], 0, None, None, 1, root, ONE))
        pushed = queue_peak = 1
        # a pop priority below floor, the rounding() margin under the
        # highest one so far, breaks the order
        last_fkey = floor = -INF
        while heap:
            fkey, length, prefix, label, serial, handle, g = heappop(heap)
            if handle is None:
                popped += 1
                labels = _Path(label, prefix, serial).labels()
                if on_pop is not None:
                    on_pop(None, g, ONE, g, labels)
                return SearchResult(labels, a.encoding.from_log(g), stats)
            if best_g[handle] == _CLOSED:
                continue
            best_g[handle] = _CLOSED
            key = key_of(handle)
            if len(key) > 2:
                # a lone member's subset has one handle, so only larger
                # ones can meet another subset over the same states
                states = key[0::2]
                masses = tuple(map(g.__add__, key[1::2]))
                front = fronts.get(states)
                if front is None:
                    fronts[states] = [masses]
                else:
                    limits = [alpha - margin(alpha) for alpha in masses]
                    if any(all(map(lt, old, limits)) for old in front):
                        dominated += 1
                        continue
                    front.append(masses)
                has_final = not final_states.isdisjoint(states)
            else:
                has_final = key[0] in final_states
            popped += 1
            # consistent heuristic: pop priorities never decrease
            if fkey < floor:
                order_violations += 1
            elif fkey > last_fkey:
                last_fkey = fkey
                floor = fkey - margin(fkey)
            path = _Path(label, prefix, serial)
            if on_pop is not None:
                on_pop(handle, g, h[handle], g + h[handle], path.labels())
            if has_final:
                # the final weight is summed only when a member is final
                g_goal = g + final_weight(handle)
                pushed += 1
                heappush(heap, (g_goal, length, prefix, label, pushed, None,
                                g_goal))
            length += 1
            successors = advance(arcs_of, key)
            for label, weight, next_key in successors:
                g_next = g + weight
                target = lookup(next_key)
                if target is None:
                    # a new subset, weighed once, here
                    target = intern(next_key)
                    h_new = heuristic(next_key)
                    h.append(h_new)
                    if h_new == ZERO:
                        best_g.append(_CLOSED)   # a dead end
                        continue
                    best_g.append(g_next)
                elif g_next > best_g[target]:
                    continue  # strictly worse than the known path, or closed
                else:
                    # equal gscores go on: a later path may win the
                    # shorter-then-lexicographic tie break
                    best_g[target] = g_next
                pushed += 1
                heappush(heap, (g_next + h[target], length, path, label,
                                pushed, target, g_next))
            # once every successor is interned: a budget passed inside
            # the step leaves its arcs uncounted and the handle not
            # expanded, while the pushes made before it count in pushed
            # and, through the finally, in queue_peak
            arcs_relaxed += len(successors)
            expanded[handle] = 1
            if len(heap) > queue_peak:
                queue_peak = len(heap)
        raise EmptyLanguageError("no accepting path was found")
    except (EmptyLanguageError, BudgetExceededError) as error:
        error.stats = stats
        raise
    finally:
        stats.popped = popped
        stats.pushed = pushed
        stats.subsets_built = cache.num_states
        stats.queue_peak = max(queue_peak, len(heap))
        stats.arcs_relaxed = arcs_relaxed
        stats.order_violations = order_violations
        stats.dominated = dominated


@dataclass(frozen=True)
class AuditReport:
    states_checked: int
    arcs_checked: int
    admissibility_violations: tuple
    consistency_violations: tuple

    @property
    def ok(self) -> bool:
        return not (self.admissibility_violations or self.consistency_violations)

    def __str__(self):
        if self.ok:
            return (f"ok: {self.states_checked} states and "
                    f"{self.arcs_checked} arcs audited")
        return (f"{len(self.admissibility_violations)} admissibility and "
                f"{len(self.consistency_violations)} consistency violations")


def heuristic_audit(a: Automaton, *,
                    state_budget: int | None = None) -> AuditReport:
    """Exhaustively verify the search heuristic on one automaton.

    Fully determinizes ``a``, then checks per subset that the heuristic
    :func:`shortest_string` uses (the same builder, over the
    ``HEURISTIC_VIEW`` table) never overestimates the best single
    completion (admissibility, against the companion backward table of
    the determinized machine) and never overestimates across any single
    arc or the final hop (consistency).
    A heuristic over a bound x by more than the :func:`rounding` margin
    that the search's dominance and pop-order checks use is reported;
    small instances only. Raises :class:`ValueError` when
    :func:`.materialize` refuses the determinized machine.
    """
    cache = DfaCache(a, state_budget)
    margin = rounding(a)
    heuristic = _string_heuristic(cache)
    beta_hat = _dfa_table(cache, "companion")
    count = cache.num_states
    h = [heuristic(cache.key(handle)) for handle in range(count)]
    admissibility = []
    consistency = []
    arcs_checked = 0
    for handle, (h_here, best) in enumerate(zip(h, beta_hat)):
        if h_here - best > margin(best):
            admissibility.append(
                f"state {handle}: heuristic {format_weight(h_here)} exceeds "
                f"best completion {format_weight(best)}")
        for label, weight, target in cache.expand(handle):
            arcs_checked += 1
            bound = weight + h[target]
            if h_here - bound > margin(bound):
                consistency.append(
                    f"arc {handle}-{label}->{target}: heuristic "
                    f"{format_weight(h_here)} exceeds step bound "
                    f"{format_weight(bound)}")
        final = cache.final_weight(handle)
        if final != ZERO:
            arcs_checked += 1
            if h_here - final > margin(final):
                consistency.append(
                    f"state {handle}: heuristic {format_weight(h_here)} "
                    f"exceeds final weight {format_weight(final)}")
    return AuditReport(count, arcs_checked, tuple(admissibility),
                       tuple(consistency))
