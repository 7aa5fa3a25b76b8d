import math
import random

import pytest

from shortstring import (Automaton, BudgetExceededError, DfaCache, LOG, REAL,
                         LatticeSpec, approx_eq, backward_distance,
                         enumerate_strings, generate, log_sum, materialize,
                         read_text, shortest_string,
                         shortest_string_via_full_determinization, write_text)
from shortstring.determinize import weigh

from conftest import (D_A, D_B, E1_TOTAL, LN2, arc_columns, random_dag,
                      small_instance, to_real)

INF = math.inf


class TestE1Construction:
    def test_start_subset(self, e1):
        cache = DfaCache(e1)
        assert cache.start() == 0
        assert cache.start() == 0
        assert cache.subset(0) == ((0, 0.0),)
        assert cache.num_states == 1

    def test_expand_start(self, e1):
        cache = DfaCache(e1)
        arcs = cache.expand(0)
        assert [label for label, _, _ in arcs] == [1, 3]
        label_a, weight_a, target_a = arcs[0]
        assert approx_eq(weight_a, D_A, 1e-12)
        subset = cache.subset(target_a)
        assert [state for state, _ in subset] == [1, 2]
        for _, residual in subset:
            assert approx_eq(residual, LN2, 1e-12)
        label_c, weight_c, target_c = arcs[1]
        assert weight_c == 0.9
        assert cache.subset(target_c) == ((3, 0.0),)

    def test_expand_merged_subset(self, e1):
        cache = DfaCache(e1)
        _, _, s1 = cache.expand(0)[0]
        arcs = cache.expand(s1)
        assert len(arcs) == 1
        label, weight, target = arcs[0]
        assert label == 2
        assert approx_eq(weight, D_B, 1e-12)
        assert cache.subset(target) == ((3, 0.0),)
        # the determinized path weight reproduces the merged string weight
        assert approx_eq(D_A + D_B, 0.6018611306184081, 1e-12)

    def test_expansion_memoized(self, e1):
        cache = DfaCache(e1)
        assert cache.expand(0) is cache.expand(0)

    def test_no_outgoing_arcs(self, e1):
        cache = DfaCache(e1)
        _, _, s2 = cache.expand(0)[1]
        assert cache.expand(s2) == ()

    def test_final_weights(self, e1):
        cache = DfaCache(e1)
        cache.full_expand()
        assert cache.final_weight(0) == INF
        _, _, s2 = cache.expand(0)[1]
        assert cache.final_weight(s2) == 0.0

    def test_final_weight_lifting_formula(self):
        # subset {(1, 0.2), (3, 0.5)} with final weight 0.1 on state 3:
        # only the final member contributes, residual times final weight
        a = Automaton(LOG, 4, 0, ([0], [1], [1.0], [1]), {3: 0.1})
        cache = DfaCache(a)
        handle = cache.intern((1, 0.2, 3, 0.5))
        assert approx_eq(cache.final_weight(handle), 0.6, 1e-12)

    def test_heuristic_values(self, e1):
        cache = DfaCache(e1)
        beta = backward_distance(e1, "base")
        cache.full_expand()
        assert approx_eq(weigh(beta, cache.key(0)), E1_TOTAL)
        _, _, s1 = cache.expand(0)[0]
        _, _, s2 = cache.expand(0)[1]
        assert approx_eq(weigh(beta, cache.key(s1)), D_B)
        assert weigh(beta, cache.key(s2)) == 0.0

    def test_full_expand_e1(self, e1):
        assert DfaCache(e1).full_expand() == 3


class TestFullExpand:
    def test_deterministic_input_stays_same_size(self):
        # a deterministic chain determinizes to singleton subsets
        arcs = [(q, 1 + (q % 2), 0.5, q + 1) for q in range(5)]
        a = Automaton(LOG, 6, 0, arc_columns(arcs), {5: 0.0})
        assert DfaCache(a).full_expand() == 6

    def test_parallel_arcs_merge(self):
        a = Automaton(LOG, 2, 0, arc_columns([(0, 1, 0.5, 1), (0, 1, 0.9, 1)]),
                      {1: 0.0})
        cache = DfaCache(a)
        assert cache.full_expand() == 2
        assert len(cache.expand(0)) == 1

    def test_budget(self, e1):
        cache = DfaCache(e1, state_budget=2)
        with pytest.raises(BudgetExceededError):
            cache.full_expand()
        with pytest.raises(ValueError):
            DfaCache(e1, state_budget=0)

    def test_zero_tolerance_keys_exactly(self):
        # labels 1 and 3 carry equal masses into states {1, 2}, label 2
        # carries 1e-7 more into state 2: the subset is keyed by its pairs
        a = Automaton(LOG, 3, 0,
                      arc_columns([(0, 1, 0.0, 1), (0, 1, 0.5, 2),
                                   (0, 2, 0.0, 1), (0, 2, 0.5 + 1e-7, 2),
                                   (0, 3, 0.0, 1), (0, 3, 0.5, 2)]),
                      {1: 0.0, 2: 0.0})
        cache = DfaCache(a)
        (_, _, first), (_, _, near), (_, _, equal) = cache.expand(0)
        assert equal == first
        assert near != first
        assert cache.num_states == 3
        (s1, r1), (s2, r2) = cache.subset(first)
        (t1, q1), (t2, q2) = cache.subset(near)
        assert (s1, s2) == (t1, t2) == (1, 2)
        assert 0 < abs(q1 - r1) < 1e-6 and 0 < abs(q2 - r2) < 1e-6

    @pytest.mark.parametrize("shape", [
        dict(depth=300, width=4, vocab=4, skew=3.0),
        dict(depth=12, width=5, vocab=3, merge_prob=0.2),
        dict(depth=6, width=10, vocab=4, merge_prob=0.3)])
    def test_keys_are_flat_and_canonical(self, shape):
        # a stored key is (s0, r0, s1, r1, ...): int states, strictly
        # ascending, each followed by its float residual; a lone member's
        # residual is one. subset() answers the same members as pairs
        caches = []
        for seed in range(3):
            a = generate(LatticeSpec(seed=seed, **shape))
            caches.append(DfaCache(a))
            shortest_string(a, cache=caches[-1])
        for seed in range(20):
            for encoding in (LOG, REAL):
                caches.append(DfaCache(random_dag(seed, encoding)))
                caches[-1].full_expand()
        sizes = set()
        for cache in caches:
            assert type(cache.expanded) is bytearray
            assert len(cache.expanded) == cache.num_states
            for handle in range(cache.num_states):
                key = cache.key(handle)
                states, residuals = key[0::2], key[1::2]
                assert type(key) is tuple and len(key) % 2 == 0 and key
                assert all(type(state) is int for state in states)
                assert all(map(int.__lt__, states, states[1:]))
                assert all(type(residual) is float for residual in residuals)
                if len(states) == 1:
                    assert residuals == (0.0,)
                assert cache.subset(handle) == tuple(zip(states, residuals))
                assert cache.index[key] == handle
                assert cache.expanded[handle] in (0, 1)
                assert cache.is_expanded(handle) == cache.expanded[handle]
                sizes.add(min(len(states), 3))
        assert sizes == {1, 2, 3}

    def test_handle_numbering_deterministic(self):
        a = small_instance(11)
        first = DfaCache(a)
        second = DfaCache(a)
        assert first.full_expand() == second.full_expand()
        for handle in range(first.num_states):
            assert first.subset(handle) == second.subset(handle)
            assert first.expand(handle) == second.expand(handle)


def _dfa_string_weight(cache, labels):
    """Weight of one string read through the determinized machine, in the
    automaton's encoding."""
    handle = cache.start()
    weight = 0.0
    for label in labels:
        arcs = {arc_label: (arc_weight, target)
                for arc_label, arc_weight, target in cache.expand(handle)}
        assert len(arcs) == len(cache.expand(handle)), "duplicate label"
        arc_weight, handle = arcs[label]
        weight += arc_weight
    weight += cache.final_weight(handle)
    return cache.automaton.encoding.from_log(weight)


class TestPerStringPreservation:
    def test_e1(self, e1):
        cache = DfaCache(e1)
        sigma = enumerate_strings(e1)
        for labels, weight in sigma.items():
            assert approx_eq(_dfa_string_weight(cache, labels), weight, 1e-9)

    def test_random_instances(self):
        for seed in range(50):
            a = small_instance(seed)
            cache = DfaCache(a)
            for labels, weight in enumerate_strings(a).items():
                assert approx_eq(_dfa_string_weight(cache, labels), weight, 1e-9)

    def test_real_semiring_instance(self):
        a = to_real(small_instance(5))
        cache = DfaCache(a)
        for labels, weight in enumerate_strings(a).items():
            assert approx_eq(_dfa_string_weight(cache, labels), weight, 1e-9)


class TestDivisorNormalization:
    def test_arc_weight_times_residual_recovers_contribution(self):
        for seed in range(20):
            a = small_instance(seed)
            cache = DfaCache(a)
            cache.full_expand()
            for handle in range(cache.num_states):
                subset = cache.subset(handle)
                for label, divisor, target in cache.expand(handle):
                    # recompute raw contributions independently
                    raw = {}
                    for state, residual in subset:
                        for arc_label, arc_weight, arc_target in a.arcs(state):
                            if arc_label == label:
                                raw.setdefault(arc_target, []).append(
                                    residual + arc_weight)
                    for state, residual in cache.subset(target):
                        assert approx_eq(divisor + residual,
                                         log_sum(raw[state]), 1e-9)


class TestHeuristicAgainstMaterializedDfa:
    def test_heuristic_equals_direct_backward_distance(self):
        for seed in range(50):
            a = small_instance(seed)
            beta_n = backward_distance(a, "base")
            cache = DfaCache(a)
            count = cache.full_expand()
            direct = backward_distance(materialize(cache), "base")
            for handle in range(count):
                assert approx_eq(weigh(beta_n, cache.key(handle)),
                                 direct[handle], 1e-9)


class TestFinalWeightBits:
    def test_old_formula_bit_for_bit(self):
        # final_weight sums over every member against per-state final
        # weights, +inf where a state is not final; the sum over the final
        # members alone, as it was formed before, must keep its bits
        counts = [0] * 4    # subsets with 0, 1, 2 and 3 or more final members
        rng = random.Random(26)
        lattices = [random_dag(seed, encoding) for seed in range(40)
                    for encoding in (LOG, REAL)]
        lattices += [lattice for seed in range(20)
                     for lattice in (small_instance(seed),
                                     to_real(small_instance(seed)))]
        for a in lattices:
            cache = DfaCache(a, 2000)
            cache.full_expand()
            # subsets no expansion built, so that most states can be final
            # members at once
            for _ in range(5):
                states = rng.sample(range(a.num_states),
                                    rng.randint(1, a.num_states))
                cache.intern(tuple(slot for q in sorted(states)
                                   for slot in (q, rng.uniform(-2.0, 3.0))))
            expected = {}
            for handle in range(cache.num_states):
                terms = [residual + a.finals[state]
                         for state, residual in cache.subset(handle)
                         if state in a.finals]
                counts[min(len(terms), 3)] += 1
                weight = log_sum(terms)
                assert cache.final_weight(handle).hex() == weight.hex()
                if weight != INF:
                    expected[handle] = weight.hex()
            finals = materialize(cache).finals
            assert {q: w.hex() for q, w in finals.items()} == expected
        assert min(counts) > 50, counts


class TestMaterialize:
    def test_e1_dfa_shape(self, e1):
        cache = DfaCache(e1)
        cache.full_expand()
        dfa = materialize(cache)
        assert dfa.num_states == 3
        assert dfa.initial == 0
        assert dfa.num_arcs() == 3
        assert dfa.finals == {2: 0.0}

    @pytest.mark.parametrize("shape, stepped", [
        # the deep, ambig and wide benchmark shapes; seed 0's stepped
        # subset counts, of 1,620, 44 and 23 built
        (dict(depth=300, width=4, vocab=4, skew=3.0), 1069),
        (dict(depth=12, width=5, vocab=3, merge_prob=0.2), 18),
        (dict(depth=6, width=10, vocab=4, merge_prob=0.3), 7)])
    def test_replays_do_not_drift_from_the_search(self, shape, stepped):
        # the lazy search steps its subsets and stores no arcs, and
        # materialize re-derives them through expand: both must build
        # the same successors, so the replay interns no new subset, and
        # the exhaustive baseline, which expands every subset, finds the
        # same string
        for seed in range(3):
            a = generate(LatticeSpec(seed=seed, **shape))
            cache = DfaCache(a)
            result = shortest_string(a, cache=cache)
            built = cache.num_states
            expanded = [handle for handle in range(built)
                        if cache.is_expanded(handle)]
            # the goal pop and the dominated pops step nothing
            assert len(expanded) == result.stats.popped - 1
            if seed == 0:
                assert len(expanded) == stepped
            dfa = materialize(cache)
            assert cache.num_states == built
            assert dfa.num_arcs() == result.stats.arcs_relaxed
            full = shortest_string_via_full_determinization(a)
            assert full.labels == result.labels
            assert full.weight == result.weight

    def test_dump_text_parses_back(self, e1):
        cache = DfaCache(e1)
        cache.full_expand()
        text = write_text(materialize(cache))
        again = read_text(text, LOG)
        assert again.num_states == 3
        assert again.num_arcs() == 3
