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
string and every subset is settled at most once.

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

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

from .automaton import Automaton
from .determinize import DfaCache, materialize
from .distance import backward_distance
from .errors import EmptyLanguageError
from .semiring import ONE, ZERO, format_weight

# The backward view of the source automaton that the heuristic is built
# from (see :mod:`.distance` for why it is admissible and consistent).
HEURISTIC_VIEW = "string"

# A popped priority may fall below an earlier one by this fraction of the
# earlier one's magnitude (at least 1) before it counts as a violation of
# the monotonicity a consistent heuristic guarantees; float drift in the
# g + h sums grows with the weights.
ORDER_SLACK = 1e-9


@dataclass
class Stats:
    popped: int = 0          # settled subsets, super-final pop included
    pushed: int = 0
    subsets_built: int = 0
    queue_peak: int = 0
    arcs_relaxed: int = 0
    order_violations: int = 0  # pops whose priority fell beyond ORDER_SLACK

    def as_dict(self) -> dict:
        return {"popped": self.popped, "pushed": self.pushed,
                "subsets_built": self.subsets_built,
                "queue_peak": self.queue_peak,
                "arcs_relaxed": self.arcs_relaxed,
                "order_violations": self.order_violations}


@dataclass(frozen=True)
class SearchResult:
    labels: tuple
    weight: float   # in the automaton's encoding
    stats: Stats


# on_pop callbacks receive (handle, gscore, heuristic, fscore, labels),
# scores as -ln weights; handle is None for the super-final pop.
TraceFn = Callable[[Optional[int], float, float, float, tuple], None]


def shortest_string(a: Automaton, *, residual_tolerance: float = 1e-6,
                    state_budget: int | None = None,
                    on_pop: TraceFn | None = None,
                    cache: DfaCache | None = None) -> SearchResult:
    """Best label sequence of ``a`` and its merged weight.

    Determinization happens on the fly: only subsets the search actually
    reaches are ever built. Pass ``cache`` to keep the explored machine
    around afterwards (it must wrap ``a``; its own tolerance and budget
    then apply). Raises :class:`EmptyLanguageError` when no complete path
    exists and :class:`BudgetExceededError` past the subset budget.
    """
    bound = backward_distance(a, HEURISTIC_VIEW)
    if bound[a.initial] == ZERO:
        raise EmptyLanguageError("the automaton accepts no string")
    if cache is None:
        cache = DfaCache(a, residual_tolerance, state_budget)
    return _astar(cache, lambda handle: cache.heuristic(handle, bound), on_pop)


def shortest_string_via_full_determinization(
        a: Automaton, *, residual_tolerance: float = 1e-6,
        state_budget: int | None = None,
        on_pop: TraceFn | None = None,
        cache: DfaCache | None = None) -> SearchResult:
    """Baseline variant: determinize exhaustively first, compute the
    determinized machine's own backward table, then run the same search
    with that table as the heuristic. Returns the same string and weight
    as :func:`shortest_string` at strictly more determinization work."""
    if cache is None:
        cache = DfaCache(a, residual_tolerance, state_budget)
    cache.full_expand()
    dfa = materialize(cache)
    beta_d = backward_distance(dfa, "base")
    if beta_d[cache.start()] == ZERO:
        raise EmptyLanguageError("the automaton accepts no string")
    return _astar(cache, beta_d.__getitem__, on_pop)


class _Path:
    """A label sequence as its last label and a link to its prefix, so a
    push costs one node instead of a copy of the whole sequence. The heap
    compares two paths only when their priorities and lengths tie, and
    then as their label sequences."""

    __slots__ = ("label", "prefix")

    def __init__(self, label, prefix):
        self.label = label
        self.prefix = prefix    # None for the empty path

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
        # their shared prefix, and the last difference met is the first
        # one in string order
        a, b = self, other
        result = 0
        while a is not b:
            if a.label != b.label:
                result = -1 if a.label < b.label else 1
            a, b = a.prefix, b.prefix
        return result

    def __eq__(self, other):
        return self._compare(other) == 0

    def __lt__(self, other):
        return self._compare(other) < 0


def _astar(cache: DfaCache, heuristic: Callable[[int], float],
           on_pop: TraceFn | None) -> SearchResult:
    stats = Stats()
    counter = 0
    root = cache.start()
    # entry: (fscore, string length, path, counter, handle | None, gscore);
    # the unique counter stops comparison before the handle field
    heap = [(ONE + heuristic(root), 0, _Path(None, None), counter, root, ONE)]
    stats.pushed = 1
    stats.queue_peak = 1
    best_g = {root: ONE}
    settled = set()
    last_fkey = -float("inf")
    while heap:
        fkey, length, path, _, handle, g = heapq.heappop(heap)
        if handle is None:
            stats.popped += 1
            stats.subsets_built = cache.num_states
            labels = path.labels()
            if on_pop is not None:
                on_pop(None, g, ONE, g, labels)
            return SearchResult(labels, cache.automaton.encoding.from_log(g),
                                stats)
        if handle in settled:
            continue
        settled.add(handle)
        stats.popped += 1
        # consistent heuristic: pop priorities never decrease
        if fkey < last_fkey - ORDER_SLACK * max(1.0, abs(last_fkey)):
            stats.order_violations += 1
        elif fkey > last_fkey:
            last_fkey = fkey
        h_here = heuristic(handle)
        if on_pop is not None:
            on_pop(handle, g, h_here, g + h_here, path.labels())
        final = cache.final_weight(handle)
        if final != ZERO:
            g_goal = g + final
            counter += 1
            heapq.heappush(heap, (g_goal, length, path, counter, None, g_goal))
            stats.pushed += 1
        for label, weight, target in cache.expand(handle):
            stats.arcs_relaxed += 1
            if target in settled:
                continue
            h_next = heuristic(target)
            if h_next == ZERO:
                continue  # dead end: no completion exists from there
            g_next = g + weight
            old = best_g.get(target)
            if old is None or g_next < old:
                best_g[target] = g_next
            elif g_next != old:
                continue  # strictly worse than the known path
            # equal gscores fall through: a later path may win the
            # shorter-then-lexicographic tie break
            counter += 1
            heapq.heappush(heap, (g_next + h_next, length + 1,
                                  _Path(label, path), counter, target, g_next))
            stats.pushed += 1
        if len(heap) > stats.queue_peak:
            stats.queue_peak = len(heap)
    raise EmptyLanguageError("no accepting path was found")


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


def heuristic_audit(a: Automaton, *, tolerance: float = 1e-9,
                    residual_tolerance: float = 1e-6,
                    state_budget: int | None = None) -> AuditReport:
    """Exhaustively verify the search heuristic on one automaton.

    Fully determinizes ``a``, then checks per subset that the heuristic
    :func:`shortest_string` uses (built from the ``HEURISTIC_VIEW`` table)
    never overestimates the best single completion (admissibility, against
    the companion backward table of the determinized machine) and never
    overestimates across any single arc or the final hop (consistency).
    Violations beyond ``tolerance`` (in ``-ln`` units) are reported; small
    instances only.
    """
    table = backward_distance(a, HEURISTIC_VIEW)
    cache = DfaCache(a, residual_tolerance, state_budget)
    count = cache.full_expand()
    dfa = materialize(cache)
    beta_hat = backward_distance(dfa, "companion")
    admissibility = []
    consistency = []
    arcs_checked = 0
    for handle in range(count):
        h_here = cache.heuristic(handle, table)
        if h_here > beta_hat[handle] + tolerance:
            admissibility.append(
                f"state {handle}: heuristic {format_weight(h_here)} exceeds "
                f"best completion {format_weight(beta_hat[handle])}")
        for label, weight, target in cache.expand(handle):
            arcs_checked += 1
            bound = weight + cache.heuristic(target, table)
            if h_here > bound + tolerance:
                consistency.append(
                    f"arc {handle}-{label}->{target}: heuristic "
                    f"{format_weight(h_here)} exceeds step bound "
                    f"{format_weight(bound)}")
        final = cache.final_weight(handle)
        if final != ZERO:
            arcs_checked += 1
            if h_here > final + tolerance:
                consistency.append(
                    f"state {handle}: heuristic {format_weight(h_here)} "
                    f"exceeds final weight {format_weight(final)}")
    return AuditReport(count, arcs_checked, tuple(admissibility),
                       tuple(consistency))
