import math

import pytest

from shortstring import (Automaton, CycleError, LOG, ParseError, REAL,
                         SymbolTable, read_text, topological_order, validate,
                         write_text)

from conftest import E1_ARCS, E1_SYMBOLS_TEXT, E1_TEXT, make_e1, small_instance

INF = math.inf


class TestConstruction:
    def test_basic_shape(self, e1):
        assert e1.num_states == 4
        assert e1.initial == 0
        assert e1.num_arcs() == 5
        assert e1.is_final(3) and not e1.is_final(0)
        assert e1.final_weight(3) == 0.0
        assert e1.final_weight(0) == INF

    def test_arcs_sorted_by_label_then_target(self, e1):
        labels = [arc.label for arc in e1.arcs(0)]
        assert labels == sorted(labels)
        targets = [arc.target for arc in e1.arcs(0) if arc.label == 1]
        assert targets == sorted(targets)

    def test_zero_weight_arcs_and_finals_pruned(self):
        a = Automaton(LOG, 3, 0,
                      [(0, 1, 0.5, 1), (0, 1, INF, 2), (1, 1, INF, 2)],
                      {1: 0.0, 2: INF})
        assert a.num_arcs() == 1
        assert a.pruned_arcs == 2
        assert a.pruned_finals == 1
        assert not a.is_final(2)

    def test_parallel_arcs_kept(self):
        a = Automaton(LOG, 2, 0, [(0, 1, 0.5, 1), (0, 1, 0.5, 1)], {1: 0.0})
        assert a.num_arcs() == 2

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            Automaton(LOG, 0, 0, [], {})
        with pytest.raises(ValueError):
            Automaton(LOG, 2, 5, [], {})
        with pytest.raises(ValueError):
            Automaton(LOG, 2, 0, [(7, 1, 0.5, 1)], {})


class TestTopologicalOrder:
    def test_e1(self, e1):
        order = topological_order(e1)
        assert order == [0, 1, 2, 3]
        position = {q: i for i, q in enumerate(order)}
        for src, _, _, dst in e1.all_arcs():
            assert position[src] < position[dst]

    def test_single_state(self):
        a = Automaton(LOG, 1, 0, [], {0: 0.0})
        assert topological_order(a) == [0]

    def test_forced_order(self):
        a = Automaton(LOG, 2, 1, [(1, 1, 0.5, 0)], {0: 0.0})
        assert topological_order(a) == [1, 0]

    def test_smallest_id_first_among_ready(self):
        a = Automaton(LOG, 3, 0, [(0, 1, 0.5, 2), (0, 2, 0.5, 1)], {1: 0.0, 2: 0.0})
        assert topological_order(a) == [0, 1, 2]

    def test_cycle_raises_and_names_an_arc(self, e1):
        a = Automaton(LOG, 4, 0, E1_ARCS + [(3, 1, 0.1, 0)], {3: 0.0})
        with pytest.raises(CycleError) as info:
            topological_order(a)
        assert "->" in str(info.value)
        # failures are not memoized: every call reports the cycle
        with pytest.raises(CycleError):
            topological_order(a)
        assert not validate(a).ok

    def test_memoized_order_is_not_shared(self, e1):
        first = topological_order(e1)
        first.reverse()
        assert topological_order(e1) == [0, 1, 2, 3]


class TestValidate:
    def test_e1_valid(self, e1):
        report = validate(e1)
        assert report.ok
        assert str(report) == "valid"

    def test_cycle_detected(self):
        a = Automaton(LOG, 4, 0, E1_ARCS + [(3, 1, 0.1, 0)], {3: 0.0})
        report = validate(a)
        assert not report.ok
        assert any("cycle" in v for v in report.violations)

    def test_epsilon_arc_detected(self):
        a = Automaton(LOG, 2, 0, [(0, 0, 0.5, 1)], {1: 0.0})
        report = validate(a)
        assert any("epsilon" in v for v in report.violations)

    def test_target_out_of_range(self):
        a = Automaton(LOG, 2, 0, [(0, 1, 0.5, 9)], {1: 0.0})
        report = validate(a)
        assert any("out of range" in v for v in report.violations)

    def test_non_member_weight(self):
        a = Automaton(LOG, 2, 0, [(0, 1, float("nan"), 1)], {1: 1.0})
        report = validate(a)
        assert any("not a member" in v for v in report.violations)

    def test_negative_infinity_rejected(self):
        # -inf would be a probability of +inf; decoding it produced NaN
        # residuals and a traceback
        a = Automaton(LOG, 2, 0, [(0, 1, -INF, 1)], {1: -INF})
        report = validate(a)
        assert len([v for v in report.violations if "not a member" in v]) == 2
        with pytest.raises(ParseError) as info:
            read_text("0 1 1 -inf\n1\n", LOG)
        assert info.value.line == 1

    def test_final_out_of_range(self):
        a = Automaton(LOG, 2, 0, [(0, 1, 0.5, 1)], {1: 0.0, 9: 0.0})
        report = validate(a)
        assert any("final state 9" in v for v in report.violations)

    def test_generated_instances_valid(self):
        for seed in range(25):
            assert validate(small_instance(seed)).ok


class TestReadText:
    def test_minimal_arc_and_final(self):
        a = read_text("0 1 5 0.5\n1 0.0\n", LOG)
        assert a.num_states == 2
        assert a.initial == 0
        assert a.arcs(0) == ((5, 0.5, 1),)
        assert a.final_weight(1) == 0.0

    def test_single_final_initial_state(self):
        a = read_text("0 0.0\n", LOG)
        assert a.num_states == 1
        assert a.initial == 0
        assert a.is_final(0)

    def test_missing_weights_default_to_one(self):
        for encoding in (LOG, REAL):
            a = read_text("0 1 5\n1\n", encoding)
            assert a.arcs(0)[0].weight == 0.0
            assert a.final_weight(1) == 0.0

    def test_comments_and_blank_lines(self):
        a = read_text("# header\n\n0 1 5 0.5\n# mid\n1 0.0\n", LOG)
        assert a.num_arcs() == 1

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
        a = Automaton(LOG, 2, 0, [(0, 1, weird, 1)], {1: 1e-17})
        again = read_text(write_text(a), LOG)
        assert again.arcs(0)[0].weight == weird
        assert again.final_weight(1) == 1e-17

    def test_initial_block_first(self):
        a = Automaton(LOG, 2, 1, [(1, 1, 0.5, 0)], {0: 0.0})
        text = write_text(a)
        assert text.splitlines()[0].startswith("1 ")
        assert read_text(text, LOG).initial == 1

    def test_round_trip_generated(self):
        for seed in range(10):
            a = small_instance(seed)
            text = write_text(a)
            assert write_text(read_text(text, LOG)) == text

    def test_unrepresentable_initial(self):
        a = Automaton(LOG, 2, 0, [(1, 1, 0.5, 0)], {0: INF})
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

    def test_bad_field_count(self):
        with pytest.raises(ParseError):
            SymbolTable.from_text("a\n")
