import itertools
import math
import random
import time
from collections import Counter

import pytest

from shortstring import (Automaton, BudgetExceededError, CycleError,
                         DfaCache, EmptyLanguageError, LOG, LatticeSpec, REAL,
                         approx_eq, backward_distance, enumerate_strings,
                         generate, heuristic_audit, oracle_shortest_path,
                         oracle_shortest_string, shortest_string,
                         shortest_string_via_full_determinization)
from shortstring import search as search_module
from shortstring.automaton import SUM_LIMIT
from shortstring.search import _Path

from conftest import (SIGMA_AB, arc_columns, random_dag, small_instance,
                      to_real)

INF = math.inf
NAN = math.nan


class TestE1:
    def test_result(self, e1):
        result = shortest_string(e1)
        assert result.labels == (1, 2)
        assert approx_eq(result.weight, SIGMA_AB, 1e-9)

    def test_stats(self, e1):
        result = shortest_string(e1)
        stats = result.stats
        assert stats.popped == 4  # three subsets plus the super-final pop
        assert stats.subsets_built == 3
        assert stats.popped <= stats.subsets_built + 1
        assert stats.queue_peak >= 2
        assert stats.arcs_relaxed == 3
        assert stats.as_dict()["pushed"] == stats.pushed

    def test_trace(self, e1):
        pops = []
        shortest_string(e1, on_pop=lambda *event: pops.append(event))
        handles = [event[0] for event in pops]
        assert handles == [0, 1, 2, None]
        fscores = [event[3] for event in pops]
        # the string bound is exact on E1: the root already scores "a b"
        assert approx_eq(fscores[0], SIGMA_AB)
        assert approx_eq(fscores[1], SIGMA_AB)
        assert approx_eq(fscores[2], SIGMA_AB)  # gscore improved from 0.9
        assert approx_eq(fscores[3], SIGMA_AB)
        # pop priorities never decrease
        for earlier, later in zip(fscores, fscores[1:]):
            assert earlier <= later + 1e-9
        labels = [event[4] for event in pops]
        assert labels == [(), (1,), (1, 2), (1, 2)]

    def test_full_variant_agrees(self, e1):
        lazy = shortest_string(e1)
        full = shortest_string_via_full_determinization(e1)
        assert full.labels == lazy.labels
        assert full.weight == lazy.weight
        assert full.stats.subsets_built == 3


class TestSmallCases:
    def test_single_path(self):
        a = Automaton(LOG, 2, 0, ([0], [7], [0.25], [1]), {1: 0.0})
        result = shortest_string(a)
        assert result.labels == (7,)
        assert result.weight == 0.25
        assert result.stats.popped == 3  # two subsets plus the super-final

    def test_empty_string_result(self):
        a = Automaton(LOG, 1, 0, ([], [], [], []), {0: 0.3})
        result = shortest_string(a)
        assert result.labels == ()
        assert result.weight == 0.3

    def test_empty_string_beats_worse_arc(self):
        a = Automaton(LOG, 2, 0, ([0], [1], [0.5], [1]), {0: 0.1, 1: 0.0})
        result = shortest_string(a)
        assert result.labels == ()
        assert result.weight == 0.1

    def test_empty_language(self):
        a = Automaton(LOG, 2, 0, ([0], [1], [0.5], [1]), {})
        with pytest.raises(EmptyLanguageError):
            shortest_string(a)
        with pytest.raises(EmptyLanguageError):
            shortest_string_via_full_determinization(a)

    def test_budget(self, e1):
        with pytest.raises(BudgetExceededError):
            shortest_string(e1, cache=DfaCache(e1, 1))

    @pytest.mark.parametrize("search", [
        shortest_string, shortest_string_via_full_determinization])
    def test_errors_carry_stats(self, e1, search, monkeypatch):
        # each error exit hands over the one Stats the search made, with
        # the subsets of the cache it searched, whether it made that cache
        # or was given one; a budget comes only with a given cache
        made, caches = [], []

        class RecordedStats(search_module.Stats):
            def __init__(self):
                super().__init__()
                made.append(self)

        class RecordedCache(DfaCache):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(self)

        monkeypatch.setattr(search_module, "Stats", RecordedStats)
        monkeypatch.setattr(search_module, "DfaCache", RecordedCache)

        def refusal(a, budget, given):
            made.clear()
            caches.clear()
            cache = DfaCache(a, budget) if given else None
            with pytest.raises((BudgetExceededError,
                                EmptyLanguageError)) as info:
                search(a, cache=cache)
            if given:
                assert caches == []
            else:
                (cache,) = caches
            assert len(made) == 1 and made[0] is info.value.stats
            assert info.value.stats.subsets_built == cache.num_states
            return info.value

        empty = Automaton(LOG, 2, 0, ([0], [1], [0.5], [1]), {})
        lazy = search is shortest_string
        # the budget passes mid-search for the lazy search, and inside
        # full_expand, before the first push, for the baseline
        error = refusal(e1, 2, True)
        assert isinstance(error, BudgetExceededError)
        assert error.stats.subsets_built == 2
        assert error.stats.popped == (1 if lazy else 0)
        assert (error.stats.pushed > 0) == lazy
        for given in (False, True):
            # the empty language is refused at the root, before any push
            error = refusal(empty, None, given)
            assert isinstance(error, EmptyLanguageError)
            assert error.stats.subsets_built >= 1
            assert error.stats.popped == 0
            assert error.stats.pushed == 0
        # a cache over another automaton is refused before any Stats
        made.clear()
        with pytest.raises(ValueError) as info:
            search(e1, cache=DfaCache(empty))
        assert type(info.value) is ValueError
        assert not hasattr(info.value, "stats")
        assert made == []

    @pytest.mark.parametrize("budget, expected", [
        (None, (1070, 1921, 1620, 158, 2897, 0, 468)),
        (100, (52, 111, 100, 51, 134, 0, 8)),
        (1000, (648, 1178, 1000, 158, 1747, 0, 271))])
    def test_every_exit_hands_over_all_counts(self, budget, expected):
        # a deep-shaped lattice, decoded whole or stopped by the budget
        # mid-search: every counter reaches the Stats either way. The
        # budget passes inside a step: at 100 two of its successors were
        # pushed before, which pushed and queue_peak count, and at 1000
        # none; arcs_relaxed leaves the step out
        a = generate(LatticeSpec(depth=300, width=4, vocab=4, skew=3.0,
                                 seed=0))
        if budget is None:
            stats = shortest_string(a).stats
        else:
            with pytest.raises(BudgetExceededError) as info:
                shortest_string(a, cache=DfaCache(a, budget))
            stats = info.value.stats
        assert stats.as_dict() == dict(zip(
            ("popped", "pushed", "subsets_built", "queue_peak",
             "arcs_relaxed", "order_violations", "dominated"), expected))

    @pytest.mark.parametrize("budget, expected", [
        (5, (3, 5, 5, 3, 4, 1, 0)),
        (12, (6, 12, 12, 6, 10, 4, 0))])
    def test_budget_hands_over_order_violations(self, budget, expected,
                                                monkeypatch):
        # the best-path bound overestimates where paths merge, so pops
        # come out of order before the budget passes; at 12 it passes
        # after one successor of the last step was pushed
        monkeypatch.setattr(search_module, "HEURISTIC_VIEW", "companion")
        a = generate(LatticeSpec(depth=6, width=3, vocab=2, merge_prob=0.4,
                                 seed=0))
        with pytest.raises(BudgetExceededError) as info:
            shortest_string(a, cache=DfaCache(a, budget))
        assert info.value.stats.as_dict() == dict(zip(
            ("popped", "pushed", "subsets_built", "queue_peak",
             "arcs_relaxed", "order_violations", "dominated"), expected))

    def test_real_semiring(self, e1):
        result = shortest_string(to_real(e1))
        assert result.labels == (1, 2)
        assert approx_eq(result.weight, math.exp(-SIGMA_AB), 1e-9)

    def test_huge_log_weights_stay_stable(self):
        # naive exp-based summation underflows to zero beyond ~745; the
        # merged two-path string must still beat the lone cheaper path
        arcs = [(0, 1, 1000.5, 1), (0, 1, 1000.5, 2), (1, 2, 0.7, 3),
                (2, 2, 0.9, 3), (0, 3, 1000.9, 3)]
        a = Automaton(LOG, 4, 0, arc_columns(arcs), {3: 0.0})
        result = shortest_string(a)
        assert result.labels == (1, 2)
        assert approx_eq(result.weight, 1000.0 + SIGMA_AB, 1e-9)
        labels, weight = oracle_shortest_string(a)
        assert labels == (1, 2)
        assert approx_eq(weight, result.weight, 1e-9)


class TestContract:
    """No decoder nor the oracle is handed what :func:`validate` rejects,
    as :class:`Automaton` refuses to build it, and every arc list ends in
    one documented way."""

    @pytest.mark.parametrize("entry", [
        shortest_string, shortest_string_via_full_determinization,
        heuristic_audit, DfaCache, enumerate_strings, oracle_shortest_string,
        oracle_shortest_path])
    def test_overflowing_path_sums_refused(self, entry):
        # string 1 3 weighs about 1e308, but the residual of state 2
        # overflowed: handed to them, the lazy search reported a false "no
        # accepting path", the full one a false "accepts no string", the
        # audit reported "ok", and the oracle answered ((1, 3), 1e308).
        # The automaton is refused where it is built; scaled into range,
        # the same shape reaches the entry point and is not refused
        def shape(big):
            return Automaton(LOG, 6, 0,
                             arc_columns([(0, 1, -big, 1), (0, 1, big, 2),
                                          (2, 3, 1.0, 4), (2, 3, 1.0, 5)]),
                             {4: 0.0, 5: 0.0})
        with pytest.raises(ValueError) as info:
            entry(shape(1e308))
        assert str(info.value) == (
            f"path weights sum to -1e+308 .. 1e+308, beyond ±{SUM_LIMIT!r} "
            f"(half the float range)")
        assert not isinstance(info.value, EmptyLanguageError)
        result = entry(shape(1e307))
        assert getattr(result, "ok", True)

    @pytest.mark.parametrize("entry", [
        shortest_string_via_full_determinization, heuristic_audit])
    def test_determinized_sums_past_the_limit_refused(self, entry):
        # the source's path sums reach -SUM_LIMIT and SUM_LIMIT, so it is
        # built, and the lazy search decodes it; but state 2's residual is
        # their difference, and materialize refuses the machine that the
        # baseline and the audit build
        a = Automaton(LOG, 6, 0,
                      arc_columns([(0, 1, -SUM_LIMIT, 1), (0, 1, SUM_LIMIT, 2),
                                   (2, 3, 1.0, 4), (2, 3, 1.0, 5)]),
                      {4: 0.0, 5: 0.0})
        assert shortest_string(a).labels == (1, 3)
        with pytest.raises(ValueError) as info:
            entry(a)
        assert str(info.value) == (
            f"path weights sum to {-SUM_LIMIT!r} .. {2 * SUM_LIMIT!r}, "
            f"beyond ±{SUM_LIMIT!r} (half the float range)")
        assert not isinstance(info.value, EmptyLanguageError)

    def test_cycle_refused(self):
        with pytest.raises(CycleError,
                           match="^cycle detected: arc 1->0 closes a loop$"):
            Automaton(LOG, 2, 0, arc_columns([(0, 1, 0.5, 1), (1, 1, 0.5, 0)]),
                      {1: 0.0})

    def test_random_arc_lists(self):
        # states and labels are ints, so a state field draws its extremes
        # from {0, -1, n}, a label from {0, -1}, and a weight from {NaN,
        # +-inf, +-1e308}; arcs mostly go forward, and some run back
        rng = random.Random(11)
        started = time.perf_counter()
        outcomes = Counter(_contract_outcome(rng) for _ in range(2000))
        assert time.perf_counter() - started <= 5.0
        assert set(outcomes) == {"arc", "graph", "match", "empty"}
        assert min(outcomes.values()) >= 100, outcomes


def _field(rng, valid, extremes):
    return rng.choice(extremes) if rng.random() < 0.04 else valid


def _contract_outcome(rng) -> str:
    n = rng.randint(1, 6)

    def weight():
        return _field(rng, rng.uniform(-3.0, 8.0),
                      (NAN, INF, -INF, 1e308, -1e308))

    def state(valid):
        return _field(rng, valid, (0, -1, n))

    arcs = []
    for _ in range(rng.randint(0, 8) if n > 1 else 0):
        source = rng.randrange(n - 1)
        target = rng.randrange(source + 1, n)
        if rng.random() < 0.04:
            source, target = target, source
        arcs.append((state(source), _field(rng, rng.randint(1, 3), (0, -1)),
                     weight(), state(target)))
    finals = {state(q): weight() for q in range(n) if rng.random() < 0.4}
    case = (n, arcs, finals)
    # the constructor refuses an arc or final entry, or else the graph:
    # a cycle, or path sums beyond the limit
    try:
        a = Automaton(LOG, n, 0, arc_columns(arcs), finals)
    except CycleError:
        return "graph"
    except ValueError as exc:
        return ("graph" if str(exc).startswith("path weights sum to ")
                else "arc")
    results = []
    for decode in (shortest_string, shortest_string_via_full_determinization,
                   oracle_shortest_string):
        try:
            results.append(decode(a))
        except EmptyLanguageError:
            results.append(None)
    if results == [None] * 3:
        return "empty"
    assert None not in results, (case, results)
    lazy, full, (labels, weight) = results
    for got in lazy, full:
        assert got.labels == labels, (case, results)
        assert abs(got.weight - weight) <= 1e-9 * max(1.0, abs(weight)), \
            (case, results)
    return "match"


class TestStringBound:
    def test_ambiguous_depth_25_fits_a_small_budget(self):
        # width 5, vocab 3, merge 0.2 at depth 25: the merged backward mass
        # as the heuristic needs about 91k subsets here, the string bound
        # at most 827
        for seed in range(5):
            a = generate(LatticeSpec(depth=25, width=5, vocab=3,
                                     merge_prob=0.2, seed=seed))
            result = shortest_string(a, cache=DfaCache(a, 5000))
            assert len(result.labels) == 25
            bound = backward_distance(a, "string")[a.initial]
            assert bound <= result.weight + 1e-9


class TestTieBreaks:
    def test_lexicographic_tie(self):
        # strings (2, 1) and (1, 2) with exactly equal weight 1.0
        arcs = [(0, 2, 0.5, 1), (0, 1, 0.5, 2), (1, 1, 0.5, 3), (2, 2, 0.5, 3)]
        a = Automaton(LOG, 4, 0, arc_columns(arcs), {3: 0.0})
        result = shortest_string(a)
        assert result.labels == (1, 2)
        assert result.weight == 1.0
        assert oracle_shortest_string(a)[0] == (1, 2)

    def test_shorter_string_wins_tie(self):
        # string (5,) and string (1, 2), both weight exactly 1.0
        arcs = [(0, 5, 1.0, 3), (0, 1, 0.5, 1), (1, 2, 0.5, 3)]
        a = Automaton(LOG, 4, 0, arc_columns(arcs), {3: 0.0})
        result = shortest_string(a)
        assert result.labels == (5,)
        assert oracle_shortest_string(a)[0] == (5,)

    def test_tie_winner_discovered_late(self):
        # strings (2, 1) and (1, 3) tie at exactly 1.0, reaching the same
        # subset. The extra (2, 9) completion makes the (2,...) branch's
        # priority strictly better, so the search reaches the shared subset
        # through the lex-larger string first; the lex-smaller one must
        # still win
        arcs = [(0, 2, 0.3, 1), (1, 1, 0.7, 3), (1, 9, 5.0, 4),
                (0, 1, 0.7, 2), (2, 3, 0.3, 3)]
        a = Automaton(LOG, 5, 0, arc_columns(arcs), {3: 0.0, 4: 0.0})
        result = shortest_string(a)
        assert result.labels == (1, 3)
        assert result.weight == 1.0
        assert oracle_shortest_string(a)[0] == (1, 3)

    def test_long_tie_breaks_lexicographically(self):
        # two strings of 2,001 labels and weight 500.75, exact in binary,
        # that differ at position 0: (1, 2, 2, ...) and (2, 1, 1, ...). The
        # larger one's last state also has two label-5 arcs whose merged
        # mass loosens the bound there, so its goal is pushed first and
        # insertion order alone would pick it; the paths are long enough
        # that a recursive comparison would pass the recursion limit
        n = 2000
        arcs = []
        small = list(range(1, n + 1))
        large = list(range(n + 1, 2 * n + 1))
        last_small, last_large, end = 2 * n + 1, 2 * n + 2, 2 * n + 3
        for states, first, rest, last in ((small, 1, 2, last_small),
                                          (large, 2, 1, last_large)):
            prev = 0
            for i, q in enumerate(states):
                arcs.append((prev, first if i == 0 else rest, 0.25, q))
                prev = q
            arcs.append((prev, rest, 0.25, last))
        arcs += [(last_large, 5, 0.3, end), (last_large, 5, 0.3, end + 1),
                 (end, 7, 0.3, end + 2), (end + 1, 8, 0.3, end + 2)]
        a = Automaton(LOG, end + 3, 0, arc_columns(arcs),
                      {last_small: 0.5, last_large: 0.5, end + 2: 0.0})
        assert backward_distance(a, "string")[last_large] < 0.5
        result = shortest_string(a)
        assert result.weight == 500.75
        assert result.labels == (1,) + (2,) * n


class TestDominance:
    # two prefixes reach the member states {1, 2} with different residuals,
    # so as two subsets; the string bound is loose on both (its members
    # go on with different labels), so both pop before the goal
    @staticmethod
    def two_prefixes(first, second):
        # label 2 reaches states 1 and 2 with forward masses ``first``,
        # label 1 with ``second``; state 1 goes on with label 3, state 2
        # with label 4
        (a1, a2), (b1, b2) = first, second
        arcs = [(0, 2, a1, 1), (0, 2, a2, 2), (0, 1, b1, 1), (0, 1, b2, 2),
                (1, 3, 0.5, 3), (2, 4, 0.5, 3)]
        a = Automaton(LOG, 4, 0, arc_columns(arcs), {3: 0.0})
        pops = []
        result = shortest_string(a, on_pop=lambda h, *rest: pops.append(h))
        assert result.stats.popped == len(pops)
        labels, weight = oracle_shortest_string(a)
        assert result.labels == labels
        assert approx_eq(result.weight, weight, 1e-12)
        return result

    def test_dominated_prefix_is_skipped(self):
        result = self.two_prefixes((1.0, 1.2), (1.2, 1.7))
        assert result.stats.dominated == 1
        assert result.labels == (2, 3)
        assert result.stats.popped == result.stats.subsets_built

    def test_equal_mass_is_not_pruned(self):
        # the label-1 subset ties on state 1 and loses on state 2, so the
        # strings (1, 3), (2, 3) and (2, 4) tie and the smallest one wins
        result = self.two_prefixes((1.0, 1.0), (1.0, 1.5))
        assert result.stats.dominated == 0
        assert result.labels == (1, 3)
        assert result.weight == 1.5

    @pytest.mark.parametrize("gap, dominated", [
        (4e-10, 0), (2e-9, 1), (1e-6, 1)])
    def test_margin(self, gap, dominated):
        # the margin is ORDER_SLACK (1e-9) times the mass, about 1, here
        result = self.two_prefixes((1.0, 1.0), (1.0 + gap, 1.5))
        assert result.stats.dominated == dominated
        assert result.labels == (2, 3)

    @staticmethod
    def cancelling():
        # label 1 and label 2 reach state 2 with one arc of weight v each,
        # and state 1 with arcs near -2^40 that a 2^40 arc cancels
        big = 2.0 ** 40
        v = 400.3 / 4096
        arcs = [(0, 2, -(big + 1000), 1), (0, 2, v, 2),
                (0, 1, -(big - 500), 1), (0, 1, v, 2),
                (1, 3, big + 1005, 3), (2, 4, 3 / 8192, 3)]
        return Automaton(LOG, 4, 0, arc_columns(arcs), {3: 0.0})

    def test_cancelling_weights_widen_the_margin(self):
        # (1, 4) and (2, 4) tie and (1, 4) is the answer. Their masses
        # at state 2 are computed through residuals near 2^40, with
        # gscores near -2^40 that cancel them, and so round differently:
        # 2^-13 apart, in favour of the label-2 subset, which is 1,500
        # lighter on state 1 and pops first. A margin relative to the
        # masses (1e-9 on state 2) let it prune the label-1 subset and
        # give (2, 4); the margin must cover the -2^40 arcs' reach
        a = self.cancelling()
        result = shortest_string(a)
        labels, weight = oracle_shortest_string(a)
        assert result.labels == labels == (1, 4)
        # the search's sums round at 2^-12 near 2^40, the oracle's do not
        assert abs(result.weight - weight) <= 2.0 ** -12
        assert result.stats.dominated == 0

    def test_deep_shape_fits_a_small_budget(self):
        # the deep benchmark shape at depth 100: without dominance these
        # need up to 1,590 subsets, with it at most 530
        for seed in range(5):
            a = generate(LatticeSpec(depth=100, width=4, vocab=4, skew=3.0,
                                     seed=seed))
            result = shortest_string(a, cache=DfaCache(a, 800))
            assert len(result.labels) == 100
            assert result.stats.dominated > 0

    def test_deep_shape_matches_oracle(self):
        for seed in range(10):
            a = generate(LatticeSpec(depth=7, width=4, vocab=4, skew=3.0,
                                     seed=seed))
            got = shortest_string(a)
            labels, weight = oracle_shortest_string(a)
            assert got.labels == labels
            assert approx_eq(got.weight, weight, 1e-9)
            full = shortest_string_via_full_determinization(a)
            assert full.labels == labels
            assert full.weight == got.weight


class TestRounding:
    class Large:
        # a stand-in for an automaton of 1.5 million states
        num_states = 1_500_000
        min_arc_weight = -0.25

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.6, -1.0, 1e6, 2.0 ** 40,
                                   -(2.0 ** 41), 1e12])
    def test_margin_is_the_documented_formula(self, e1, x):
        for a in (e1, TestDominance.cancelling(), self.Large()):
            n = a.num_states
            slack = max(search_module.ORDER_SLACK, 8 * n * 2.0 ** -53)
            drop = n * max(0.0, -a.min_arc_weight)
            assert search_module.rounding(a)(x) == (
                slack * max(1.0, abs(x) + drop))

    def test_which_term_applies(self, e1):
        assert search_module.rounding(e1)(0.0) == 1e-9
        assert search_module.rounding(e1)(-10.0) == 1e-8
        big = 2.0 ** 40
        assert search_module.rounding(TestDominance.cancelling())(0.0) == (
            1e-9 * (4 * (big + 1000)))
        # past about 1.1e6 states the 8·N·2^-53 term is the larger one
        slack = 8 * 1_500_000 * 2.0 ** -53
        assert slack > search_module.ORDER_SLACK
        assert search_module.rounding(self.Large())(0.0) == (
            slack * (1_500_000 * 0.25))


class TestPathOrder:
    def test_matches_label_tuples(self):
        # random trees of paths compared in random order, so that
        # remembered outcomes are met at every depth
        rng = random.Random(0)
        for _ in range(50):
            serials = itertools.count(1)
            layers = [[_Path(None, None, next(serials))]]
            for _ in range(rng.randint(1, 12)):
                layers.append([_Path(rng.randint(1, 3), rng.choice(layers[-1]),
                                     next(serials))
                               for _ in range(rng.randint(1, 4))])
                layer = layers[-1]
                for _ in range(10):
                    x, y = rng.choice(layer), rng.choice(layer)
                    want = x.labels() < y.labels()
                    assert (x < y) == want
                    assert (x == y) == (x.labels() == y.labels())

    def test_remembered_comparison_stops_the_walk(self):
        # two 2,000-label paths that differ at their first label, compared
        # once; a one-step extension of each then compares as its prefix
        # did, after one label comparison, not another walk of 2,001
        counted = []

        class Label:
            def __init__(self, value):
                self.value = value

            def __ne__(self, other):
                counted.append(self)
                return self.value != other.value

            def __lt__(self, other):
                counted.append(self)
                return self.value < other.value

        serials = itertools.count(1)
        small = large = _Path(None, None, next(serials))
        for i in range(2000):
            small = _Path(Label(1 if i == 0 else 2), small, next(serials))
            large = _Path(Label(2 if i == 0 else 1), large, next(serials))
        assert small < large
        assert len(counted) > 2000
        counted.clear()
        small = _Path(Label(3), small, next(serials))
        large = _Path(Label(3), large, next(serials))
        assert small < large
        assert len(counted) == 1


class TestDifferential:
    def test_matches_oracle(self):
        for seed in range(60):
            a = small_instance(seed)
            got = shortest_string(a)
            labels, weight = oracle_shortest_string(a)
            assert got.labels == labels
            assert approx_eq(got.weight, weight, 1e-9)

    def test_matches_oracle_real(self):
        for seed in range(20):
            a = to_real(small_instance(seed))
            got = shortest_string(a)
            labels, weight = oracle_shortest_string(a)
            assert got.labels == labels
            assert approx_eq(got.weight, weight, 1e-9)

    def test_lazy_equals_full(self):
        for seed in range(60):
            a = small_instance(seed)
            lazy = shortest_string(a)
            full = shortest_string_via_full_determinization(a)
            assert lazy.labels == full.labels
            assert approx_eq(lazy.weight, full.weight, 1e-12)
            assert lazy.stats.subsets_built <= full.stats.subsets_built

    def test_stats_invariants(self):
        for seed in range(30):
            a = small_instance(seed)
            full_count = DfaCache(a).full_expand()
            stats = shortest_string(a).stats
            assert stats.popped <= stats.subsets_built + 1
            assert stats.subsets_built <= full_count
            assert stats.popped <= full_count + 1
            assert stats.pushed >= stats.popped

    def test_each_handle_settled_once(self):
        for seed in range(20):
            a = small_instance(seed)
            handles = []
            shortest_string(a, on_pop=lambda h, *rest: handles.append(h))
            real_pops = [h for h in handles if h is not None]
            assert len(real_pops) == len(set(real_pops))

    def test_caller_supplied_cache(self, e1):
        cache = DfaCache(e1)
        result = shortest_string(e1, cache=cache)
        assert cache.num_states == result.stats.subsets_built
        # the same cache serves the exhaustive variant afterwards
        full = shortest_string_via_full_determinization(e1, cache=cache)
        assert full.labels == result.labels
        assert cache.num_states == 3

    @pytest.mark.parametrize("search", [
        shortest_string, shortest_string_via_full_determinization])
    def test_cache_over_another_automaton_refused(self, search):
        a = Automaton(LOG, 3, 0, arc_columns([(0, 1, 0.0, 1), (1, 2, 0.0, 2)]),
                      {2: 0.0})
        b = Automaton(LOG, 2, 0, ([0], [7], [0.0], [1]), {1: 0.0})
        with pytest.raises(ValueError, match="another automaton"):
            search(a, cache=DfaCache(b))

    @pytest.mark.parametrize("semiring", [LOG, REAL], ids=lambda s: s.name)
    def test_arbitrary_dags_match_oracle(self, semiring):
        decoded = 0
        for seed in range(400):
            a = random_dag(seed, semiring)
            try:
                got = shortest_string(a)
            except EmptyLanguageError:
                with pytest.raises(EmptyLanguageError):
                    oracle_shortest_string(a)
                continue
            labels, weight = oracle_shortest_string(a)
            assert got.labels == labels
            assert approx_eq(got.weight, weight, 1e-9)
            full = shortest_string_via_full_determinization(a)
            assert full.labels == got.labels
            assert got.stats.subsets_built <= full.stats.subsets_built
            decoded += 1
        assert decoded > 100  # the population is not degenerate


class TestHeuristicAudit:
    def test_e1_clean(self, e1):
        report = heuristic_audit(e1)
        assert report.ok
        assert report.states_checked == 3
        assert report.admissibility_violations == ()
        assert report.consistency_violations == ()
        assert "ok" in str(report)

    def test_random_instances_clean(self):
        for seed in range(60):
            assert heuristic_audit(small_instance(seed)).ok

    def test_real_instances_clean(self):
        for seed in range(20):
            assert heuristic_audit(to_real(small_instance(seed))).ok

    def test_near_tie_clean(self):
        arcs = [(0, 1, 1.0, 1), (0, 1, 1.0 + 1e-12, 2),
                (1, 2, 0.5, 3), (2, 2, 0.5, 3)]
        a = Automaton(LOG, 4, 0, arc_columns(arcs), {3: 0.0})
        report = heuristic_audit(a)
        assert report.ok

    def test_budget_propagates(self, e1):
        with pytest.raises(BudgetExceededError):
            heuristic_audit(e1, state_budget=1)

    def test_audit_checks_the_search_heuristic(self, e1, monkeypatch):
        # the search and the audit take every h from one builder, called
        # once by each: a heuristic raised by 1e-6 shows in the pops and
        # breaks the final hops the audit checks
        built = []

        def raised(cache, _real=search_module._string_heuristic):
            built.append(cache)
            heuristic = _real(cache)
            return lambda pairs: heuristic(pairs) + 1e-6

        def trace(pops):
            return lambda handle, g, h, f, labels: pops.append((handle, h))

        plain, shifted = [], []
        shortest_string(e1, on_pop=trace(plain))
        monkeypatch.setattr(search_module, "_string_heuristic", raised)
        shortest_string(e1, on_pop=trace(shifted))
        assert len(built) == 1
        # the super-final pop reports h = 0 whatever the heuristic
        assert shifted == [(handle, h if handle is None else h + 1e-6)
                           for handle, h in plain]
        report = heuristic_audit(e1)
        assert len(built) == 2
        assert not report.ok

    def test_wrong_view_reported(self, e1, monkeypatch):
        # the best-path bound is 0.9 at the root, over the merged "a b"
        monkeypatch.setattr(search_module, "HEURISTIC_VIEW", "companion")
        report = heuristic_audit(e1)
        assert not report.ok
        assert report.admissibility_violations == (
            "state 0: heuristic 0.9 exceeds best completion 0.601861131",)
        assert report.consistency_violations == (
            "arc 0-1->1: heuristic 0.9 exceeds step bound 0.601861131",)
        assert str(report) == ("1 admissibility and 1 consistency "
                               "violations")
        assert shortest_string(e1).stats.order_violations == 2

    def test_small_excess_reported(self, e1, monkeypatch):
        # 1e-6 added to every entry of the "string" table only: the
        # audit's own tables are exact, so the excess shows everywhere
        real = search_module.backward_distance

        def bumped(a, view):
            table = real(a, view)
            return tuple(x + 1e-6 for x in table) if view == "string" else table
        monkeypatch.setattr(search_module, "backward_distance", bumped)
        report = heuristic_audit(e1)
        assert report.admissibility_violations == (
            "state 0: heuristic 0.601862131 exceeds best completion "
            "0.601861131",
            "state 1: heuristic 0.795009311 exceeds best completion "
            "0.795008311",
            "state 2: heuristic 1e-06 exceeds best completion 0")
        assert report.consistency_violations == (
            "state 2: heuristic 1e-06 exceeds final weight 0",)

    @pytest.mark.parametrize("shift", ["+1e8", "+1e10", "+1e14", "-1e8",
                                       "cancelling"])
    def test_shifted_weights_clean(self, shift):
        # every arc weight shifted, or shifted by +2^40 out of even layers
        # and -2^40 out of odd ones, so that a path's shifts cancel: float
        # drift grows with the weights, and a fixed tolerance (1e-9 on the
        # audit, 1e-9 of |f| on the pop order) reported violations on
        # most of these correct heuristics
        width = 4

        def offset(q):
            if shift != "cancelling":
                return float(shift)
            layer = 0 if q == 0 else (q - 1) // width + 1
            return 2.0 ** 40 if layer % 2 == 0 else -(2.0 ** 40)
        for seed in range(20):
            base = generate(LatticeSpec(depth=6, width=width, vocab=2,
                                        merge_prob=0.5, seed=seed))
            arcs = [(q, label, weight + offset(q), target)
                    for q in range(base.num_states)
                    for label, weight, target in base.arcs(q)]
            a = Automaton(LOG, base.num_states, 0, arc_columns(arcs),
                          dict(base.finals))
            assert heuristic_audit(a).ok, seed
            assert shortest_string(a).stats.order_violations == 0, seed
