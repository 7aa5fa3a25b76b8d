import heapq
import math
import random
import tracemalloc

import pytest

from shortstring import (Automaton, CycleError, LOG, LatticeSpec,
                         ParseError, REAL, SymbolTable, generate, read_text,
                         topological_order, validate, write_text)

from shortstring.automaton import SUM_LIMIT

from conftest import (E1_ARCS, E1_SYMBOLS_TEXT, E1_TEXT, arc_columns, make_e1,
                      random_dag, small_instance, to_real)

INF = math.inf
NAN = math.nan
# the characters other than "\n" and "\r" that str.splitlines() breaks at
OTHER_LINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                     "\u2029")


class TestConstruction:
    def test_basic_shape(self, e1):
        assert e1.num_states == 4
        assert e1.initial == 0
        assert e1.num_arcs() == 5
        assert 3 in e1.finals and 0 not in e1.finals
        assert e1.finals[3] == 0.0
        assert dict(e1.finals) == {3: 0.0}

    def test_arcs_sorted_by_label_then_target(self, e1):
        labels = [label for label, _, _ in e1.arcs(0)]
        assert labels == sorted(labels)
        targets = [target for label, _, target in e1.arcs(0) if label == 1]
        assert targets == sorted(targets)

    def test_zero_weight_arcs_and_finals_pruned(self):
        a = Automaton(LOG, 3, 0,
                      arc_columns([(0, 1, 0.5, 1), (0, 1, INF, 2),
                                   (1, 1, INF, 2)]),
                      {1: 0.0, 2: INF})
        assert a.num_arcs() == 1
        assert a.pruned_arcs == 2
        assert a.pruned_finals == 1
        assert 2 not in a.finals
        assert a.min_arc_weight == 0.5

    def test_min_arc_weight(self):
        finals = {1: -7.0}
        assert Automaton(LOG, 2, 0, ([0, 0], [1, 2], [-2.5, 3.0], [1, 1]),
                         finals).min_arc_weight == -2.5
        # no arc kept: no arc weighs anything below zero
        assert Automaton(LOG, 2, 0, ([], [], [], []),
                         finals).min_arc_weight == 0.0
        assert Automaton(LOG, 2, 0, ([0], [1], [INF], [1]),
                         finals).min_arc_weight == 0.0

    def test_finals_is_a_read_only_view_built_once(self, e1):
        assert e1.finals is e1.finals
        assert dict(e1.finals) == {3: 0.0}
        with pytest.raises(TypeError):
            e1.finals[0] = 0.0

    def test_parallel_arcs_kept(self):
        a = Automaton(LOG, 2, 0, arc_columns([(0, 1, 0.5, 1), (0, 1, 0.5, 1)]),
                      {1: 0.0})
        assert a.num_arcs() == 2
        # parallel arcs are stored lightest first, however they arrive
        descending = [(0, 1, 0.9, 1), (0, 1, 0.5, 1), (0, 1, INF, 1),
                      (0, 1, 0.2, 1)]
        for arcs in (descending, sorted(descending, key=lambda arc: arc[2])):
            a = Automaton(LOG, 2, 0, arc_columns(arcs), {1: 0.0})
            assert a.arcs(0) == ((1, 0.2, 1), (1, 0.5, 1), (1, 0.9, 1))
            assert (a.pruned_arcs, a.min_arc_weight) == (1, 0.2)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            Automaton(LOG, 0, 0, ([], [], [], []), {})
        with pytest.raises(ValueError):
            Automaton(LOG, 2, 5, ([], [], [], []), {})
        with pytest.raises(ValueError):
            Automaton(LOG, 2, 0, ([7], [1], [0.5], [1]), {})
        # the state count and the initial state are ints too
        with pytest.raises(ValueError) as info:
            Automaton(LOG, 2.0, 0, ([0], [1], [0.5], [1]), {1: 0.0})
        assert str(info.value) == "state count 2.0 is not an int"
        with pytest.raises(ValueError) as info:
            Automaton(LOG, 2, 0.0, ([0], [1], [0.5], [1]), {1: 0.0})
        assert str(info.value) == "initial state 0.0 is not an int"

    @pytest.mark.parametrize("arcs, finals, message", [
        (([0], [-2], [0.5], [1]), {}, "negative label -2 on arc 0->1"),
        (([0], [1], [0.5], [5]), {}, "arc target 5 out of range on arc from 0"),
        (([0], [1], [0.5], [-1]), {},
         "arc target -1 out of range on arc from 0"),
        (([0], [1], [NAN], [1]), {},
         "arc weight nan on 0->1 is not a member of the log semiring"),
        (([0], [1], [-INF], [1]), {},
         "arc weight -inf on 0->1 is not a member of the log semiring"),
        (([], [], [], []), {2: NAN},
         "final weight nan of state 2 is not a member of the log semiring"),
        (([], [], [], []), {7: 0.0}, "final state 7 out of range"),
        # a dropped arc or final entry is checked too
        (([0], [1], [INF], [3]), {}, "arc target 3 out of range on arc from 0"),
        (([], [], [], []), {-1: INF}, "final state -1 out of range"),
        # the first offender in input order, arcs before finals, is named;
        # within an arc, source, label, target and weight are checked in
        # that order
        (([0, 0, 1, 0], [1, 0, 1, -2], [0.5, NAN, -INF, NAN], [1, 5, 2, 5]),
         {2: NAN, 7: 0.0}, "epsilon arc 0->5 (label 0 is reserved)"),
        (([0, 1], [1, 2], [0.5, NAN], [1, 9]), {7: 0.0},
         "arc target 9 out of range on arc from 1"),
        (([1], [1], [-INF], [2]), {2: NAN, 7: 0.0},
         "arc weight -inf on 1->2 is not a member of the log semiring"),
        (([3], [0], [0.5], [1]), {}, "arc source 3 out of range"),
        # there are four columns of one length: a column more or fewer is
        # refused whole, and columns of unequal length after the arcs
        # they make, in input order
        (([0], [1], [0.5], [1], ["junk"]), {2: 0.0},
         "arcs must be four columns: sources, labels, weights, targets"),
        (([0], [1], [1]), {},
         "arcs must be four columns: sources, labels, weights, targets"),
        (([0, 1], [1, 2], [0.5, 0.25], [1]), {},
         "arc columns differ in length (sources 2, labels 2, weights 2, "
         "targets 1)"),
        (([0, 1, 0], [1, 2, 1], [0.5, 0.25], [1, 2, 2]), {7: 0.0},
         "arc columns differ in length (sources 3, labels 3, weights 2, "
         "targets 3)"),
        (([0, 0], [0, 1], [0.5, 0.5], [1]), {},
         "epsilon arc 0->1 (label 0 is reserved)"),
        # states and labels are ints: a float, NaN too, or a string is not
        (([0], [NAN], [0.5], [1]), {}, "label nan on arc 0->1 is not an int"),
        (([0], [1.5], [0.5], [1]), {}, "label 1.5 on arc 0->1 is not an int"),
        (([0], ["a"], [0.5], [1]), {}, "label 'a' on arc 0->1 is not an int"),
        (([0.0], [1], [0.5], [1]), {}, "arc source 0.0 is not an int"),
        (([0], [1], [0.5], [1.0]), {},
         "arc target 1.0 on arc from 0 is not an int"),
        (([], [], [], []), {"2": 0.0}, "final state '2' is not an int"),
        # a string among ints fails the sort before a rule; the record
        # is still named
        (([1, "0"], [1, 1], [0.5, 0.5], [2, 1]), {},
         "arc source '0' is not an int"),
        # a weight that does not compare with -inf is not a member
        (([0], [1], [None], [1]), {1: 0.0},
         "arc weight None on 0->1 is not a member of the log semiring"),
        (([0], [1], ["0.5"], [1]), {1: 0.0},
         "arc weight '0.5' on 0->1 is not a member of the log semiring"),
        (([0], [1], [0.5], [1]), {1: None},
         "final weight None of state 1 is not a member of the log "
         "semiring"),
    ])
    def test_first_offender_named(self, arcs, finals, message):
        with pytest.raises(ValueError) as info:
            Automaton(LOG, 3, 0, arcs, finals)
        assert str(info.value) == message
        # no chained error is shown with it
        assert info.value.__context__ is None or (
            info.value.__suppress_context__)

    def test_refusal_names_first_record_failing_alone(self):
        # a seeded corpus of arc columns and final lists, about one record
        # in five broken, in shuffled order, and now and then a column cut
        # short: the automaton is refused exactly when some record is
        # refused alone or the columns differ in length, and with the
        # first such message, arcs, then the lengths, then finals
        rng = random.Random(26)
        arc_faults = (
            lambda s, lab, w, t, n: (rng.choice((-1, n)), lab, w, t),
            lambda s, lab, w, t, n: (s, lab, w, rng.choice((-1, n, n + 3))),
            lambda s, lab, w, t, n: (s, rng.choice((0, -1, -7)), w, t),
            lambda s, lab, w, t, n: (s, lab, rng.choice((NAN, -INF)), t),
            lambda s, lab, w, t, n: (float(s), lab, w, t),
            lambda s, lab, w, t, n: (s, rng.choice((lab + 0.5, NAN)), w, t),
            lambda s, lab, w, t, n: (s, lab, w, float(t)),
        )
        refused = uneven = 0
        for _ in range(300):
            n = rng.randint(2, 6)
            arcs = []
            for _ in range(rng.randint(0, 8)):
                s = rng.randrange(n - 1)
                arc = (s, rng.randint(1, 3),
                       rng.choice((rng.uniform(-2.0, 5.0), INF)),
                       rng.randint(s + 1, n - 1))
                if rng.random() < 0.2:
                    arc = rng.choice(arc_faults)(*arc, n)
                arcs.append(arc)
            rng.shuffle(arcs)
            columns = arc_columns(arcs)
            if arcs and rng.random() < 0.1:
                rng.choice(columns).pop()
            finals = {}
            for _ in range(rng.randint(0, 3)):
                state, weight = rng.randrange(n), rng.uniform(-1.0, 3.0)
                if rng.random() < 0.2:
                    fault = rng.random()
                    if fault < 0.4:
                        state = rng.choice((-1, n, n + 2))
                    elif fault < 0.6:
                        state = state + 0.5
                    else:
                        weight = rng.choice((NAN, -INF))
                finals[state] = weight
            lengths = tuple(map(len, columns))
            refusals = [_refusal(n, arc_columns([arc]), {})
                        for arc in zip(*columns)]
            if min(lengths) < max(lengths):
                uneven += 1
                refusals.append("arc columns differ in length (sources {}, "
                                "labels {}, weights {}, targets {})"
                                .format(*lengths))
            refusals += [_refusal(n, ([], [], [], []), {q: w})
                         for q, w in finals.items()]
            expected = next(filter(None, refusals), None)
            if expected is None:
                Automaton(LOG, n, 0, columns, finals)
                continue
            refused += 1
            with pytest.raises(ValueError) as info:
                Automaton(LOG, n, 0, columns, finals)
            assert str(info.value) == expected, (columns, finals)
            # no chained context appears in a traceback
            assert (info.value.__context__ is None
                    or info.value.__suppress_context__)
        assert 50 < refused < 250 and uneven > 10


def _refusal(num_states, arcs, finals):
    # the message Automaton() refuses the arc columns and finals with, or
    # None
    try:
        Automaton(LOG, num_states, 0, arcs, finals)
    except ValueError as error:
        return str(error)
    return None


class TestTopologicalOrder:
    def test_e1(self, e1):
        order = topological_order(e1)
        assert order == [0, 1, 2, 3]
        position = {q: i for i, q in enumerate(order)}
        for src, _, _, dst in e1.all_arcs():
            assert position[src] < position[dst]

    def test_single_state(self):
        a = Automaton(LOG, 1, 0, ([], [], [], []), {0: 0.0})
        assert topological_order(a) == [0]

    def test_forced_order(self):
        a = Automaton(LOG, 2, 1, ([1], [1], [0.5], [0]), {0: 0.0})
        assert topological_order(a) == [1, 0]

    def test_smallest_id_first_among_ready(self):
        a = Automaton(LOG, 3, 0, arc_columns([(0, 1, 0.5, 2), (0, 2, 0.5, 1)]),
                      {1: 0.0, 2: 0.0})
        assert topological_order(a) == [0, 1, 2]

    def test_cycle_raises_and_names_an_arc(self):
        # the constructor runs the pass, so a cyclic automaton is never
        # built; failures are not memoized: every build reports the cycle
        for _ in range(2):
            with pytest.raises(CycleError) as info:
                Automaton(LOG, 4, 0, arc_columns(E1_ARCS + [(3, 1, 0.1, 0)]),
                          {3: 0.0})
            assert str(info.value) == "cycle detected: arc 3->0 closes a loop"

    def test_ids_not_topological(self):
        # arc 3 -> 1 goes from a larger to a smaller id
        a = read_text("0 3 1 0.5\n3 1 2 0.5\n0 2 1 0.5\n2 1 1 0.5\n1\n", LOG)
        assert topological_order(a) == [0, 2, 3, 1]
        assert topological_order(a) == kahn_order(a)

    def test_cycle_read_from_text(self):
        # read_text builds the automaton, so it refuses the cycle itself
        with pytest.raises(CycleError) as info:
            read_text("0 1 1 0.5\n1 2 1 0.5\n2 1 1 0.5\n2\n", LOG)
        assert str(info.value) == "cycle detected: arc 2->1 closes a loop"

    def test_named_arc_lies_on_a_cycle(self):
        # random graphs, most of them cyclic: the named u->v must be an
        # arc of the automaton, and v must reach u
        rng = random.Random(11)
        cyclic = 0
        while cyclic < 10_000:
            n = rng.randint(1, 8)
            arcs = [(rng.randrange(n), rng.randint(1, 3), 0.5, rng.randrange(n))
                    for _ in range(rng.randint(1, 12))]
            try:
                Automaton(LOG, n, 0, arc_columns(arcs), {})
                continue
            except CycleError as exc:
                named = str(exc)
            cyclic += 1
            u, v = map(int, named.split()[3].split("->"))
            assert named == f"cycle detected: arc {u}->{v} closes a loop"
            assert any(s == u and t == v for s, _, _, t in arcs)
            reached, frontier = {v}, [v]
            while frontier:
                q = frontier.pop()
                for s, _, _, t in arcs:
                    if s == q and t not in reached:
                        reached.add(t)
                        frontier.append(t)
            assert u in reached, (arcs, named)

    def test_matches_kahn_on_any_numbering(self):
        # forward-numbered lattices take the fast path; renumbered copies
        # of the same lattices go through the sort
        rng = random.Random(7)
        for seed in range(40):
            a = random_dag(seed, LOG)
            assert topological_order(a) == list(range(a.num_states))
            assert topological_order(a) == kahn_order(a)
            perm = list(range(a.num_states))
            rng.shuffle(perm)
            b = Automaton(LOG, a.num_states, perm[a.initial],
                          arc_columns([(perm[s], lab, w, perm[t])
                                       for s, lab, w, t in a.all_arcs()]),
                          {perm[q]: w for q, w in a.finals.items()})
            assert topological_order(b) == kahn_order(b)

    def test_memoized_order_is_not_shared(self, e1):
        first = topological_order(e1)
        first.reverse()
        assert topological_order(e1) == [0, 1, 2, 3]


def kahn_order(a):
    """Smallest-id-first Kahn order, computed arc by arc: the reference
    for :func:`topological_order`."""
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
    return order


def sorted_per_state(num_states, arcs):
    """Each state's arcs sorted on their own by (label, target, weight),
    built one tuple at a time: the reference for the stored arc order."""
    per_state = [[] for _ in range(num_states)]
    for source, label, weight, target in arcs:
        if weight != INF:
            per_state[source].append((label, weight, target))
    for arcs_of_state in per_state:
        arcs_of_state.sort(key=lambda arc: (arc[0], arc[2], arc[1]))
    return [tuple(arcs_of_state) for arcs_of_state in per_state]


class TestArcOrder:
    @pytest.mark.parametrize("encoding", [LOG, REAL])
    def test_generated_lattices(self, encoding):
        for seed in range(25):
            a = small_instance(seed)
            if encoding is REAL:
                a = to_real(a)
            a = read_text(write_text(a), encoding)
            expected = sorted_per_state(a.num_states, a.all_arcs())
            for q in range(a.num_states):
                arcs = a.arcs(q)
                assert arcs == expected[q]
                assert all(type(arc) is tuple for arc in arcs)
                assert [(label, weight.hex(), target)
                        for label, weight, target in arcs] == \
                    [(label, weight.hex(), target)
                     for label, weight, target in expected[q]]

    def test_text_longer_than_a_block(self):
        a = generate(LatticeSpec(depth=400, width=4, vocab=4, merge_prob=0.3,
                                 seed=5))
        text = write_text(to_real(a), None)
        assert len(text.splitlines()) > 6000
        b = read_text(text, REAL)
        assert write_text(b) == text
        assert [b.arcs(q) for q in range(b.num_states)] == \
            sorted_per_state(b.num_states, b.all_arcs())
        assert topological_order(b) == list(range(b.num_states))

    def test_shuffled_input(self):
        # arcs that arrive out of the canonical (source, label, target,
        # weight) order build what the same arcs build in that order
        def built(arcs):
            a = Automaton(LOG, 10, 0, arc_columns(arcs), {})
            assert [a.arcs(q) for q in range(10)] == sorted_per_state(10, arcs)
            return ([a.arcs(q) for q in range(10)], a.pruned_arcs,
                    a.min_arc_weight, topological_order(a))

        rng = random.Random(3)
        swaps = 0
        for seed in range(25):
            arcs = list(random_dag(seed, LOG).all_arcs())
            arcs += arcs[:3]           # parallel duplicates
            # parallel arcs whose weights descend, and zero-weight arcs
            arcs += [(s, label, w + d, t) for s, label, w, t in arcs[-2:]
                     for d in (2.0, 1.0)]
            arcs += [(s, label, INF, t) for s, label, _, t in arcs[::4]]
            canonical = sorted(arcs, key=lambda arc: (arc[:2], arc[3], arc[2]))
            swapped = canonical[:-2] + canonical[:-3:-1]
            swaps += swapped != canonical
            shuffled = rng.sample(arcs, len(arcs))
            expected = built(canonical)
            for given in (arcs, swapped, shuffled):
                assert built(given) == expected
        assert swaps >= 20



class TestValidate:
    # The whole contract is checked when the automaton is built: first
    # per arc (the epsilon, range and membership cases below), then, by
    # validate(), cycles and path sums.

    def test_e1_valid(self, e1):
        assert validate(e1) is None

    def test_cycle_detected(self):
        with pytest.raises(CycleError, match="^cycle detected"):
            Automaton(LOG, 4, 0, arc_columns(E1_ARCS + [(3, 1, 0.1, 0)]),
                      {3: 0.0})

    def test_epsilon_arc_detected(self):
        # built in code, this decoded to the epsilon string (0,)
        with pytest.raises(ValueError, match=r"^epsilon arc 0->1 \(label 0"):
            Automaton(LOG, 2, 0, ([0], [0], [0.5], [1]), {1: 0.0})

    def test_target_out_of_range(self):
        # built in code, this raised IndexError in the search
        with pytest.raises(ValueError,
                           match="^arc target 9 out of range on arc from 0$"):
            Automaton(LOG, 2, 0, ([0], [1], [0.5], [9]), {1: 0.0})

    def test_float_label_refused(self):
        # built in code, this decoded to the string (1.5,)
        with pytest.raises(ValueError) as info:
            Automaton(LOG, 2, 0, ([0], [1.5], [0.5], [1]), {1: 0.0})
        assert str(info.value) == "label 1.5 on arc 0->1 is not an int"

    def test_nan_label_refused_wherever_it_sorts(self):
        # built in code, a NaN label that did not sort first was accepted
        for labels in ([1, NAN], [NAN, 1], [2, NAN, 1]):
            count = len(labels)
            with pytest.raises(ValueError) as info:
                Automaton(LOG, 2, 0, ([0] * count, labels, [0.5] * count,
                                      [1] * count), {1: 0.0})
            assert str(info.value) == "label nan on arc 0->1 is not an int"

    def test_float_target_refused(self):
        # built in code, this was accepted, and shortest_string ended in a
        # TypeError from distance._string_bound's table lookup
        with pytest.raises(ValueError) as info:
            Automaton(LOG, 2, 0, ([0], [1], [0.5], [1.0]), {1: 0.0})
        assert str(info.value) == "arc target 1.0 on arc from 0 is not an int"

    def test_arc_tuples_are_not_read_as_columns(self):
        # four (source, label, weight, target) tuples unpack as four
        # "columns"; the int rule refuses them, since the third record's
        # source is the first arc's weight
        arcs = [(0, 1, 0.5, 1), (1, 1, 0.5, 2), (1, 2, 0.25, 2),
                (2, 1, 0.75, 3)]
        with pytest.raises(ValueError) as info:
            Automaton(LOG, 4, 0, arcs, {3: 0.0})
        assert str(info.value) == "arc source 0.5 is not an int"
        # as columns, the same arcs build
        a = Automaton(LOG, 4, 0, arc_columns(arcs), {3: 0.0})
        assert list(a.all_arcs()) == arcs

    def test_non_member_weight(self):
        # built in code, this decoded to a false "accepts no string"
        with pytest.raises(ValueError, match="^arc weight nan on 0->1 is not"):
            Automaton(LOG, 2, 0, ([0], [1], [NAN], [1]), {1: 1.0})
        with pytest.raises(ValueError,
                           match="^final weight nan of state 1 is not"):
            Automaton(LOG, 2, 0, ([0], [1], [0.5], [1]), {1: NAN})

    def test_negative_infinity_rejected(self):
        # -inf would be a probability of +inf; decoding it produced NaN
        # residuals and a traceback
        with pytest.raises(ValueError, match="^arc weight -inf on 0->1 is not"):
            Automaton(LOG, 2, 0, ([0], [1], [-INF], [1]), {1: -INF})
        with pytest.raises(ValueError,
                           match="^final weight -inf of state 1 is not"):
            Automaton(LOG, 2, 0, ([0], [1], [0.5], [1]), {1: -INF})
        with pytest.raises(ParseError) as info:
            read_text("0 1 1 -inf\n1\n", LOG)
        assert info.value.line == 1

    def test_final_out_of_range(self):
        with pytest.raises(ValueError, match="^final state 9 out of range$"):
            Automaton(LOG, 2, 0, ([0], [1], [0.5], [1]), {1: 0.0, 9: 0.0})

    def test_generated_instances_valid(self):
        for seed in range(25):
            validate(small_instance(seed))

    def test_path_sums_in_range(self):
        # sums that reach SUM_LIMIT exactly are kept, one past it is not:
        # over the arcs alone, with the final weight, and from a state
        # inside the lattice rather than from the initial one
        half = SUM_LIMIT / 2
        validate(Automaton(LOG, 3, 0,
                           arc_columns([(0, 1, half, 1), (1, 1, half, 2)]),
                           {2: 0.0}))
        for arcs, finals in [([(0, 1, half, 1), (1, 1, half * 1.5, 2)], {2: 0.0}),
                             ([(0, 1, half, 1), (1, 1, half, 2)], {2: 1e300}),
                             ([(0, 1, half, 1), (1, 1, -SUM_LIMIT, 2),
                               (2, 1, -half, 3)], {3: 0.0})]:
            with pytest.raises(ValueError,
                               match="^path weights sum to .* beyond"):
                Automaton(LOG, 4, 0, arc_columns(arcs), finals)

    def test_overflowing_text_refused(self):
        # read_text builds the automaton, so it refuses the path sums with
        # validate()'s message, and not as a bad record
        with pytest.raises(ValueError) as info:
            read_text("0 1 1 -1e308\n0 2 1 1e308\n1\n2\n", LOG)
        assert not isinstance(info.value, ParseError)
        assert str(info.value) == (
            f"path weights sum to -1e+308 .. 1e+308, beyond ±{SUM_LIMIT!r} "
            f"(half the float range)")

    def test_unreachable_path_sums_ignored(self):
        a = Automaton(LOG, 4, 0, arc_columns([(0, 1, 0.5, 1), (2, 1, 1e308, 3),
                                  (3, 1, 1e308, 1)]), {1: 0.0})
        validate(a)


class TestReadText:
    def test_minimal_arc_and_final(self):
        a = read_text("0 1 5 0.5\n1 0.0\n", LOG)
        assert a.num_states == 2
        assert a.initial == 0
        assert a.arcs(0) == ((5, 0.5, 1),)
        assert a.finals[1] == 0.0

    def test_read_peak_within_twice_the_automaton(self):
        # no copy of the data outlives its use: the split lines go before
        # the automaton is built, and the constructor keeps no copy of its
        # columns, so the read's peak, over what existed before it, is at
        # most twice the automaton it returns. A depth-2000 lattice spans
        # eight blocks of lines
        text = write_text(generate(LatticeSpec(depth=2000, width=4, vocab=4,
                                               skew=3.0, seed=0)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            a = read_text(text, LOG)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (text.count("\n"), a.num_arcs()) == (31_992, 31_988)
        assert peak - before <= 2 * (retained - before)

    def test_single_final_initial_state(self):
        a = read_text("0 0.0\n", LOG)
        assert a.num_states == 1
        assert a.initial == 0
        assert 0 in a.finals

    def test_missing_weights_default_to_one(self):
        for encoding in (LOG, REAL):
            a = read_text("0 1 5\n1\n", encoding)
            (_, weight, _), = a.arcs(0)
            assert weight == 0.0
            assert a.finals[1] == 0.0

    def test_comments_and_blank_lines(self):
        a = read_text("# header\n\n0 1 5 0.5\n# mid\n1 0.0\n", LOG)
        assert a.num_arcs() == 1

    @pytest.mark.parametrize("separator", OTHER_LINE_BREAKS, ids=ascii)
    def test_lines_end_at_newline_only(self, separator):
        # str.splitlines() would break the comment in two and read its
        # second half as a record
        text = f"0 1 1 0.5\n# page{separator}break 2 3\n1 0\n"
        a = read_text(text, LOG)
        assert list(a.all_arcs()) == [(0, 1, 0.5, 1)]
        assert dict(a.finals) == {1: 0.0}
        with pytest.raises(ParseError) as info:
            read_text(text.replace("1 0\n", "1 x\n"), LOG)
        assert info.value.line == 3
        # between fields, the separator is whitespace
        a = read_text(f"0 1 1{separator}0.5\n1 0\n", LOG)
        assert list(a.all_arcs()) == [(0, 1, 0.5, 1)]

    def test_carriage_return_is_whitespace(self):
        a = read_text("# crlf\r\n0 1 1 0.5\r\n\r\n1 0\r\n", LOG)
        assert list(a.all_arcs()) == [(0, 1, 0.5, 1)]
        assert dict(a.finals) == {1: 0.0}

    def test_initial_is_first_record_source(self):
        a = read_text("3 1 5 0.5\n1 0.0\n", LOG)
        assert a.initial == 3
        assert a.num_states == 4

    def test_symbols(self):
        symbols = SymbolTable.from_text(E1_SYMBOLS_TEXT)
        a = read_text(E1_TEXT, LOG, symbols)
        assert a.num_arcs() == 5
        assert sorted({label for _, label, _, _ in a.all_arcs()}) == [1, 2, 3]

    def test_unknown_token(self):
        symbols = SymbolTable.from_text("a 1\n")
        with pytest.raises(ParseError) as info:
            read_text("0 1 zzz 0.5\n1 0.0\n", LOG, symbols)
        assert "zzz" in str(info.value)
        assert info.value.line == 1

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as info:
            read_text("0 1 5 0.5\n1 0.0\n0 1 2 3 4 5\n", LOG)
        assert info.value.line == 3
        assert "line 3" in str(info.value)

    def test_bad_weight(self):
        with pytest.raises(ParseError):
            read_text("0 1 5 abc\n", LOG)

    def test_non_member_weight(self):
        with pytest.raises(ParseError) as info:
            read_text("0 1 5 -0.25\n1 1.0\n", REAL)
        assert "not a member" in str(info.value)

    def test_label_zero_rejected(self):
        with pytest.raises(ParseError) as info:
            read_text("0 1 0 0.5\n1 0.0\n", LOG)
        assert "epsilon" in str(info.value)

    def test_duplicate_final_rejected(self):
        with pytest.raises(ParseError):
            read_text("0 0.5\n0 0.7\n", LOG)

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            read_text("# nothing\n", LOG)

    def test_zero_weights_pruned_and_counted(self):
        for text, encoding in (("0 1 5 0.0\n0 2 5 0.5\n2 0\n1 1.0\n1 2 6\n", REAL),
                               ("0 1 5 inf\n0 2 5 0.5\n2 inf\n1 0.0\n1 2 6\n", LOG)):
            a = read_text(text, encoding)
            assert (a.pruned_arcs, a.pruned_finals) == (1, 1)
            assert [target for _, _, target in a.arcs(0)] == [2]
            assert a.arcs(1) == ((6, 0.0, 2),)
            assert dict(a.finals) == {1: 0.0}

    def test_written_real_zeros_still_pruned(self):
        # only a nonzero probability that float() rounds to 0.0 is refused
        a = read_text("0 1 5 0\n0 1 6 0.0\n0 1 7 -0.0\n0 1 8 0e5\n"
                      "0 1 9 0.5\n1 0.0\n1 2 4\n2\n", REAL)
        assert (a.pruned_arcs, a.pruned_finals) == (4, 1)
        assert [label for label, _, _ in a.arcs(0)] == [9]

    def test_log_weight_below_the_float_range_is_one(self):
        a = read_text("0 1 5 1e-400\n1 -1e-400\n", LOG)
        assert a.arcs(0) == ((5, 0.0, 1),)
        assert a.finals[1] == 0.0

    def test_real_underflow_without_exponent_refused(self):
        text = "0." + "0" * 400 + "1"
        with pytest.raises(ParseError) as info:
            read_text(f"0 1 5 0.5\n1 {text}\n", REAL)
        assert info.value.line == 2


# Every message and line number below is the one the line-by-line reader
# gave; the bulk reader must word each failure the same way.
BIG = "".join(f"{q} {q + 1} 1 0.5\n" for q in range(5000))
PARSE_ERRORS = [
    ("0 x 5 0.5\n", LOG, "line 1: bad target state 'x'", 1),
    ("x 1 3\n", LOG, "line 1: bad source state 'x'", 1),
    ("0 1 3 0.5\n1 3 0.5\n", LOG, "line 2: bad label '0.5'", 2),
    ("0 1 5 0.5\n-1 0.0\n", LOG, "line 2: negative state '-1'", 2),
    ("0 -1 3 0.5\n", LOG, "line 1: negative target state '-1'", 1),
    ("0 1 -3 0.5\n", LOG, "line 1: negative label '-3'", 1),
    ("0 1 0 0.5\n1\n", LOG, "line 1: label 0 is reserved for epsilon", 1),
    ("0 1 5 nan\n", LOG,
     "line 1: weight 'nan' is not a member of the log semiring", 1),
    ("0 1 5 -inf\n", LOG,
     "line 1: weight '-inf' is not a member of the log semiring", 1),
    ("0 1 5 -0.25\n", REAL,
     "line 1: weight '-0.25' is not a member of the real semiring", 1),
    ("0 1 5 inf\n", REAL,
     "line 1: weight 'inf' is not a member of the real semiring", 1),
    ("0 1 5\n1 0.5\n1 0.7\n", LOG,
     "line 3: duplicate final weight for state 1", 3),
    ("0 1 5 0.5 9\n", LOG, "line 1: expected 1-4 fields, got 5", 1),
    ("# c\n\n0 1 5 0.5 1\n", LOG, "line 3: expected 1-4 fields, got 5", 3),
    ("", LOG, "no records found", None),
    ("# only\n\n", LOG, "no records found", None),
    (BIG[:BIG.index("1000 1001")] + "1000 x\n", LOG,
     "line 1001: bad weight 'x'", 1001),
    (BIG + "5000 x\n", LOG, "line 5001: bad weight 'x'", 5001),
    # the weight column fails in the bulk path, the source column on a
    # later line: the first bad line is reported
    ("0 1 5 abc\n-1 2 5 0.5\n", LOG, "line 1: bad weight 'abc'", 1),
    # the first record of each column has no weight field
    ("0 1 5\n1 2 5 x\n2\n", LOG, "line 2: bad weight 'x'", 2),
    ("0 1 5\n1\n2 1 5\n2 -1\n", REAL,
     "line 4: weight '-1' is not a member of the real semiring", 4),
    # a final state of the first block of 4,096 lines repeated in the
    # second, alone and before a bad weight of its own block
    ("0 0.5\n" + BIG + "0\n", LOG,
     "line 5002: duplicate final weight for state 0", 5002),
    ("0 0.5\n" + BIG + "0\n5000 x\n", LOG,
     "line 5002: duplicate final weight for state 0", 5002),
    # a probability below the float range is not a written zero
    ("0 1 5 1e-400\n1\n", REAL, "line 1: weight '1e-400' is below the "
     "float range and would read as zero", 1),
    ("0 1 5 -1e-400\n1\n", REAL, "line 1: weight '-1e-400' is below the "
     "float range and would read as zero", 1),
    ("0 1 5 0\n1 2 5 0.5\n2 3E-999\n", REAL, "line 3: weight '3E-999' is "
     "below the float range and would read as zero", 3),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, encoding, message, line", PARSE_ERRORS)
    def test_message_and_line(self, text, encoding, message, line):
        with pytest.raises(ParseError) as info:
            read_text(text, encoding)
        assert str(info.value) == message
        assert info.value.line == line

    def test_unknown_token(self):
        symbols = SymbolTable.from_text("a 1\n")
        with pytest.raises(ParseError) as info:
            read_text("0 1 a 0.5\n1 2 zzz\n2\n", LOG, symbols)
        assert str(info.value) == "line 2: unknown token 'zzz'"
        assert info.value.line == 2


def _shuffled_text(lattice, real, rng) -> tuple:
    """A text of ``lattice``'s records in shuffled order, in the real
    encoding when ``real`` and else the log one, and the arcs (in file
    order) and finals it describes, in -ln weights. About one record in
    five leaves out its weight field (weight one) and one in twenty
    weighs zero; comment and blank lines are strewn among the records."""
    records = [((s, t, label), w) for s, label, w, t in lattice.all_arcs()]
    records += [((q,), w) for q, w in lattice.finals.items()]
    rng.shuffle(records)
    # the initial state is the source field of the first record
    first = next(i for i, (fields, _) in enumerate(records)
                 if fields[0] == lattice.initial)
    records.insert(0, records.pop(first))
    lines, arcs, finals = ["# a shuffled lattice"], [], {}
    for fields, weight in records:
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "   ", "# note", "  #x 1 2 3 4 5"]))
        draw = rng.random()
        line = " ".join(map(str, fields))
        if draw < 0.2:
            weight = 0.0
        else:
            if draw < 0.25:
                weight = INF
            if real:
                p = math.exp(-weight)
                line += f" {p!r}"
                weight = -math.log(p) if p > 0.0 else INF
            else:
                line += f" {weight!r}"
        lines.append(line)
        if len(fields) == 3:
            arcs.append((fields[0], fields[2], weight, fields[1]))
        else:
            finals[fields[0]] = weight
    return "\n".join(lines) + "\n", arcs, finals


def _exact(a) -> tuple:
    # what read_text builds, every weight compared bit for bit
    return (a.num_states, a.initial, a.pruned_arcs, a.pruned_finals,
            [[(label, weight.hex(), target) for label, weight, target
              in a.arcs(q)] for q in range(a.num_states)],
            [(q, weight.hex()) for q, weight in a.finals.items()])


class TestReadDifferential:
    def test_read_equals_direct_construction(self):
        # shuffled latgen lattices in both encodings, records with and
        # without a weight field mixed in one block, zero weights,
        # comments, blank lines, and texts of more than one block
        rng = random.Random(12)
        specs = [LatticeSpec(depth=rng.randint(1, 8), width=rng.randint(1, 6),
                             vocab=rng.randint(1, 4),
                             merge_prob=rng.choice([0.0, 0.3]), seed=seed)
                 for seed in range(30)]
        specs.append(LatticeSpec(depth=50, width=10, vocab=4,
                                 merge_prob=0.3, seed=30))
        longest = 0
        for spec in specs:
            lattice = generate(spec)
            for encoding in (LOG, REAL):
                text, arcs, finals = _shuffled_text(lattice, encoding is REAL,
                                                    rng)
                longest = max(longest, text.count("\n"))
                ids = [q for s, _, _, t in arcs for q in (s, t)] + [*finals]
                direct = Automaton(encoding, max(ids) + 1, lattice.initial,
                                   arc_columns(arcs), finals)
                assert _exact(read_text(text, encoding)) == _exact(direct)
        assert longest > 4096


class TestWriteText:
    def test_round_trip_e1(self, e1):
        text = write_text(e1)
        again = read_text(text, LOG)
        assert write_text(again) == text
        assert again.num_states == e1.num_states
        assert again.initial == e1.initial
        assert list(again.all_arcs()) == list(e1.all_arcs())
        assert dict(again.finals) == dict(e1.finals)

    def test_round_trip_with_symbols(self, e1):
        symbols = SymbolTable.from_text(E1_SYMBOLS_TEXT)
        text = write_text(e1, symbols)
        assert "a" in text.split()
        again = read_text(text, LOG, symbols)
        assert list(again.all_arcs()) == list(e1.all_arcs())

    def test_round_trip_preserves_weights_exactly(self):
        weird = 0.1 + 0.2  # 0.30000000000000004
        a = Automaton(LOG, 2, 0, ([0], [1], [weird], [1]), {1: 1e-17})
        again = read_text(write_text(a), LOG)
        (_, weight, _), = again.arcs(0)
        assert weight == weird
        assert again.finals[1] == 1e-17

    def test_initial_block_first(self):
        a = Automaton(LOG, 2, 1, ([1], [1], [0.5], [0]), {0: 0.0})
        text = write_text(a)
        assert text.splitlines()[0].startswith("1 ")
        assert read_text(text, LOG).initial == 1

    def test_round_trip_generated(self):
        for seed in range(10):
            a = small_instance(seed)
            text = write_text(a)
            assert write_text(read_text(text, LOG)) == text

    @pytest.mark.parametrize("arcs, finals, message", [
        ([(0, 1, 800.0, 1)], {1: 0.0},
         "record '0 1 1': weight 800.0 would be written as 0.0, which "
         "reads as no arc"),
        ([(0, 1, 0.5, 1)], {1: 745.2},
         "record '1': weight 745.2 would be written as 0.0, which reads "
         "as no arc"),
        ([(0, 1, -800.0, 1)], {1: 0.0},
         "record '0 1 1': weight -800.0 would be written as inf, which is "
         "not a member of the real semiring"),
        ([(0, 1, 0.5, 1)], {1: -710.0},
         "record '1': weight -710.0 would be written as inf, which is not "
         "a member of the real semiring")])
    def test_real_weight_written_as_zero_refused(self, arcs, finals,
                                                 message):
        # exp(-w) rounds to 0.0 above about 745.13, and 0.0 is no arc;
        # it overflows to inf below about -709.78, which read_text refuses
        with pytest.raises(ValueError) as info:
            write_text(Automaton(REAL, 2, 0, arc_columns(arcs), finals))
        assert str(info.value) == message

    def test_real_subnormal_weight_written(self):
        # a subnormal probability keeps fewer digits: it reads back as an
        # arc, but its weight moves by far more than an ulp
        a = Automaton(REAL, 2, 0, ([0], [1], [745.0], [1]), {1: 0.0})
        (_, weight, _), = read_text(write_text(a), REAL).arcs(0)
        assert 0.5 < 745.0 - weight < 0.6

    def test_unrepresentable_initial(self):
        a = Automaton(LOG, 2, 0, ([1], [1], [0.5], [0]), {0: INF})
        with pytest.raises(ValueError):
            write_text(a)


class TestSymbolTable:
    def test_round_trip(self):
        table = SymbolTable.from_text(E1_SYMBOLS_TEXT)
        assert table.label("a") == 1
        assert table.token(3) == "c"
        assert "a" in table and "zzz" not in table
        assert table.has_label(2) and not table.has_label(9)
        assert SymbolTable.from_text(table.to_text()).to_text() == table.to_text()

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            SymbolTable.from_text("a 1\na 2\n")
        with pytest.raises(ParseError):
            SymbolTable.from_text("a 1\nb 1\n")

    def test_bad_id(self):
        with pytest.raises(ParseError):
            SymbolTable.from_text("a one\n")

    def test_negative_id(self):
        with pytest.raises(ParseError) as info:
            SymbolTable.from_text("<eps> 0\na 1\nb -1\n")
        assert str(info.value) == "line 3: negative symbol id '-1'"
        assert info.value.line == 3

    def test_bad_field_count(self):
        with pytest.raises(ParseError):
            SymbolTable.from_text("a\n")

    @pytest.mark.parametrize("separator", OTHER_LINE_BREAKS, ids=ascii)
    def test_lines_end_at_newline_only(self, separator):
        table = SymbolTable.from_text(f"# tokens{separator}c 3\na 1\n")
        assert table.to_text() == "a 1\n"
        with pytest.raises(ParseError) as info:
            SymbolTable.from_text(f"# x{separator}c 3\na 1\nb\n")
        assert info.value.line == 3

    def test_comments_and_blank_lines_skipped(self):
        table = SymbolTable.from_text("# tokens\n\na 1\n   \n  # b 9\nb 2\n")
        assert table.to_text() == "a 1\nb 2\n"
        with pytest.raises(ParseError) as info:
            SymbolTable.from_text("# tokens\n\na 1\nb\n")
        assert info.value.line == 4
