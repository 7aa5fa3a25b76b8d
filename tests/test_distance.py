import math

import pytest

from shortstring import (Automaton, CycleError, EmptyLanguageError, LOG, REAL,
                         approx_eq, backward_distance, enumerate_strings,
                         forward_distance, log_sum, oracle_shortest_string,
                         total_distance)

from conftest import (E1_ARCS, E1_TOTAL, SIGMA_AB, arc_columns, random_dag,
                      small_instance, to_real)

INF = math.inf


class TestE1Values:
    def test_backward_base(self, e1):
        beta = backward_distance(e1, "base")
        assert beta[3] == 0.0
        assert beta[1] == 0.7
        assert beta[2] == 0.9
        assert approx_eq(beta[0], E1_TOTAL)

    def test_backward_companion(self, e1):
        beta = backward_distance(e1, "companion")
        assert beta[0] == 0.9
        assert list(beta) == [0.9, 0.7, 0.9, 0.0]

    def test_backward_string(self, e1):
        # "a" merges its two arcs (0.5 + 0.7, 0.5 + 0.9) and beats "c" (0.9)
        u = backward_distance(e1, "string")
        assert list(u)[1:] == [0.7, 0.9, 0.0]
        assert approx_eq(u[0], SIGMA_AB)

    def test_forward_base(self, e1):
        alpha = forward_distance(e1, "base")
        assert alpha[0] == 0.0
        assert alpha[1] == 0.5
        assert alpha[2] == 0.5
        assert approx_eq(alpha[3], E1_TOTAL)

    def test_forward_companion(self, e1):
        alpha = forward_distance(e1, "companion")
        assert alpha[3] == 0.9

    def test_total(self, e1):
        assert approx_eq(total_distance(e1), E1_TOTAL)


class TestEdgeCases:
    def test_state_with_no_path_to_final(self):
        # state 2 dangles: backward distance is the semiring zero
        a = Automaton(LOG, 3, 0, arc_columns([(0, 1, 0.5, 1), (0, 2, 0.5, 2)]),
                      {1: 0.0})
        beta = backward_distance(a)
        assert beta[2] == INF

    def test_unreachable_state_forward(self):
        a = Automaton(LOG, 3, 0, arc_columns([(0, 1, 0.5, 1), (2, 1, 0.5, 1)]),
                      {1: 0.0})
        alpha = forward_distance(a)
        assert alpha[2] == INF

    def test_initial_always_one(self):
        for seed in range(20):
            a = small_instance(seed)
            assert forward_distance(a)[a.initial] == 0.0

    def test_no_final_reachable(self):
        a = Automaton(LOG, 2, 0, ([0], [1], [0.5], [1]), {})
        assert total_distance(a) == INF

    def test_single_final_state(self):
        a = Automaton(LOG, 1, 0, ([], [], [], []), {0: 0.3})
        assert total_distance(a) == 0.3

    def test_cyclic_rejected(self):
        # the tables need a topological order: a cyclic automaton is
        # refused where it is built, before any table is asked of it
        with pytest.raises(CycleError,
                           match="^cycle detected: arc 1->0 closes a loop$"):
            Automaton(LOG, 2, 0, arc_columns([(0, 1, 0.5, 1), (1, 1, 0.5, 0)]),
                      {1: 0.0})

    def test_path_sums_beyond_limit_rejected(self):
        # the forward sum into state 2 is -inf, and the backward tables
        # would hold nan: the automaton is refused where it is built. At a
        # quarter of the weights the same arcs are in range, with finite
        # tables
        arcs = [(0, 1, -1e308, 1), (1, 1, -1e308, 2), (0, 1, 5.0, 3)]
        with pytest.raises(ValueError,
                           match=r"^path weights sum to -inf \.\. 5\.0, beyond"):
            Automaton(LOG, 4, 0, arc_columns(arcs), {2: 0.0, 3: 0.0})
        half = Automaton(LOG, 4, 0,
                         arc_columns([(source, label, weight / 4, target)
                                      for source, label, weight, target
                                      in arcs]),
                         {2: 0.0, 3: 0.0})
        for table in (forward_distance, backward_distance,
                      lambda a: backward_distance(a, "string")):
            assert all(map(math.isfinite, table(half)))
        assert total_distance(half) == -5e307

    def test_unknown_view(self, e1):
        with pytest.raises(ValueError):
            backward_distance(e1, "tropical")
        with pytest.raises(ValueError):
            forward_distance(e1, "string")

    def test_string_view_cyclic_rejected(self):
        # a self-loop is a cycle too, and is refused before any table
        with pytest.raises(CycleError,
                           match="^cycle detected: arc 1->1 closes a loop$"):
            Automaton(LOG, 2, 0, arc_columns([(0, 1, 0.5, 1), (1, 2, 0.5, 1)]),
                      {1: 0.0})


class TestProperties:
    def test_duality(self):
        # mass into the finals equals mass out of the initial state
        for seed in range(40):
            a = small_instance(seed)
            alpha = forward_distance(a)
            acc = log_sum([alpha[state] + weight
                           for state, weight in a.finals.items()])
            assert approx_eq(acc, total_distance(a), 1e-9)

    def test_against_oracle(self):
        for seed in range(40):
            a = small_instance(seed)
            acc = log_sum(list(enumerate_strings(a).values()))
            assert approx_eq(acc, total_distance(a), 1e-9)

    def test_companion_bounds_base(self):
        for a in [small_instance(seed) for seed in range(20)] + [to_real(small_instance(3))]:
            base = backward_distance(a, "base")
            companion = backward_distance(a, "companion")
            for q in range(a.num_states):
                assert base[q] <= companion[q] + 1e-9

    def test_removing_an_arc_never_improves_backward(self):
        a = small_instance(7)
        arcs = list(a.all_arcs())
        base = backward_distance(a)
        for drop in range(len(arcs)):
            kept = arcs[:drop] + arcs[drop + 1:]
            b = Automaton(LOG, a.num_states, a.initial, arc_columns(kept),
                          dict(a.finals))
            smaller = backward_distance(b)
            for q in range(a.num_states):
                assert base[q] <= smaller[q] + 1e-9

    def test_real_semiring_distances(self, e1):
        # a file of probabilities decodes in the same -ln weights
        a = to_real(e1)
        assert approx_eq(total_distance(a), E1_TOTAL, 1e-12)
        assert approx_eq(a.encoding.from_log(total_distance(a)),
                         math.exp(-E1_TOTAL), 1e-12)
        beta = backward_distance(a, "companion")
        assert approx_eq(beta[0], 0.9, 1e-12)


def _string_bound_population():
    for seed in range(40):
        yield small_instance(seed)
    for seed in range(10):
        yield to_real(small_instance(seed))
    for encoding in (LOG, REAL):
        for seed in range(150):
            yield random_dag(seed, encoding)


class TestStringView:
    def test_bounds_base_from_above(self):
        # u >= beta everywhere, and both are +inf on the same states
        for a in _string_bound_population():
            base = backward_distance(a, "base")
            u = backward_distance(a, "string")
            for q in range(a.num_states):
                assert base[q] <= u[q] + 1e-9
                assert (base[q] == math.inf) == (u[q] == math.inf)

    def test_bounds_best_string_from_below(self):
        # u(initial) never exceeds the best merged string weight
        decoded = 0
        for a in _string_bound_population():
            u = backward_distance(a, "string")
            try:
                _, weight = oracle_shortest_string(a)
            except EmptyLanguageError:
                assert u[a.initial] == math.inf
                continue
            assert u[a.initial] <= a.encoding.to_log(weight) + 1e-9
            decoded += 1
        assert decoded > 100

    def test_exact_on_deterministic_input(self):
        # one arc per label everywhere: u is the best string's weight
        a = Automaton(LOG, 4, 0,
                      arc_columns([(0, 1, 0.3, 1), (0, 2, 0.2, 2),
                                   (1, 1, 0.4, 3), (2, 2, 0.9, 3)]),
                      {3: 0.1})
        _, weight = oracle_shortest_string(a)
        assert approx_eq(backward_distance(a, "string")[0], weight, 1e-12)
