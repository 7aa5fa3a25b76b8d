import math

import pytest

from shortstring import (Automaton, BudgetExceededError, EmptyLanguageError,
                         LOG, approx_eq, enumerate_strings, log_sum,
                         oracle_shortest_path, oracle_shortest_string,
                         total_distance)

from conftest import SIGMA_AB, SIGMA_C, small_instance

INF = math.inf


class TestEnumerateStrings:
    def test_e1(self, e1):
        sigma = enumerate_strings(e1)
        assert set(sigma) == {(1, 2), (3,)}
        assert approx_eq(sigma[(1, 2)], SIGMA_AB, 1e-12)
        assert sigma[(3,)] == SIGMA_C

    def test_empty_language(self):
        a = Automaton(LOG, 2, 0, [(0, 1, 0.5, 1)], {})
        assert enumerate_strings(a) == {}

    def test_epsilon_only(self):
        a = Automaton(LOG, 1, 0, [], {0: 0.3})
        assert enumerate_strings(a) == {(): 0.3}

    def test_epsilon_alongside_arcs(self):
        a = Automaton(LOG, 2, 0, [(0, 4, 0.5, 1)], {0: 0.1, 1: 0.2})
        sigma = enumerate_strings(a)
        assert sigma[()] == 0.1
        assert sigma[(4,)] == 0.7

    def test_budget(self, e1):
        with pytest.raises(BudgetExceededError):
            enumerate_strings(e1, path_budget=1)


class TestShortestString:
    def test_e1(self, e1):
        labels, weight = oracle_shortest_string(e1)
        assert labels == (1, 2)
        assert approx_eq(weight, SIGMA_AB, 1e-12)

    def test_tie_breaks_shortlex(self):
        arcs = [(0, 2, 0.5, 1), (0, 1, 0.5, 2), (1, 1, 0.5, 3), (2, 2, 0.5, 3)]
        a = Automaton(LOG, 4, 0, arcs, {3: 0.0})
        assert oracle_shortest_string(a)[0] == (1, 2)

    def test_single_string(self):
        a = Automaton(LOG, 2, 0, [(0, 9, 0.4, 1)], {1: 0.1})
        labels, weight = oracle_shortest_string(a)
        assert labels == (9,)
        assert approx_eq(weight, total_distance(a), 1e-12)

    def test_empty_language(self):
        a = Automaton(LOG, 1, 0, [], {})
        with pytest.raises(EmptyLanguageError):
            oracle_shortest_string(a)


class TestShortestPath:
    def test_e1_diverges_from_shortest_string(self, e1):
        labels, weight = oracle_shortest_path(e1)
        assert labels == (3,)
        assert weight == 0.9
        assert oracle_shortest_string(e1)[0] != labels

    def test_deterministic_automaton_agrees(self):
        # one path per string, so best path and best string coincide
        arcs = [(0, 1, 0.3, 1), (0, 2, 0.6, 1), (1, 1, 0.2, 2)]
        a = Automaton(LOG, 3, 0, arcs, {2: 0.0})
        assert oracle_shortest_path(a)[0] == oracle_shortest_string(a)[0]

    def test_dominant_path_agrees(self):
        # one path dominates every merged sum outright
        arcs = [(0, 1, 0.1, 1), (0, 2, 5.0, 1)]
        a = Automaton(LOG, 2, 0, arcs, {1: 0.0})
        assert oracle_shortest_path(a)[0] == (1,)
        assert oracle_shortest_string(a)[0] == (1,)

    def test_empty_language(self):
        a = Automaton(LOG, 1, 0, [], {})
        with pytest.raises(EmptyLanguageError):
            oracle_shortest_path(a)


def parallel_layers(layers: int, finals=()) -> Automaton:
    """``layers`` layers of two parallel arcs, labels 1 and 2: 2^layers
    complete paths into the last state, and 2^q more into each state q
    of ``finals``."""
    arcs = [(q, label, weight, q + 1) for q in range(layers)
            for label, weight in ((1, 0.5), (2, 0.7))]
    return Automaton(LOG, layers + 1, 0, arcs,
                     {q: 0.0 for q in (*finals, layers)})


class TestPathBudget:
    ENTRY_POINTS = (enumerate_strings, oracle_shortest_string,
                    oracle_shortest_path)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_counted_before_walking(self, entry):
        # 2^60 paths: a walk would never end, the count refuses at once
        with pytest.raises(BudgetExceededError) as info:
            entry(parallel_layers(60))
        assert str(info.value) == "path budget 1000000 exceeded"

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_exactly_the_budget_fits(self, entry):
        # 8 paths into state 3 and 2 more that stop at final state 1
        a = parallel_layers(3, finals=(1,))
        entry(a, path_budget=10)
        with pytest.raises(BudgetExceededError) as info:
            entry(a, path_budget=9)
        assert str(info.value) == "path budget 9 exceeded"
        assert len(enumerate_strings(a, path_budget=10)) == 10


class TestCyclicInput:
    def test_rejected_up_front(self):
        # the walk would never end: the automaton is refused where it is
        # built, before an oracle could be asked of it
        from shortstring import CycleError
        with pytest.raises(CycleError,
                           match="^cycle detected: arc 1->0 closes a loop$"):
            Automaton(LOG, 2, 0, [(0, 1, 0.5, 1), (1, 1, 0.5, 0)], {1: 0.0})


class TestPartition:
    def test_string_masses_partition_total(self):
        for seed in range(40):
            a = small_instance(seed)
            acc = log_sum(list(enumerate_strings(a).values()))
            assert approx_eq(acc, total_distance(a), 1e-9)
