import math

import pytest

from shortstring import (DfaCache, LatticeSpec, bench_csv, bench_run,
                         generate, loglog_slope, measure_instance,
                         shortest_string, total_distance, validate,
                         write_text)
from shortstring import latgen
from shortstring.latgen import BenchRow

from conftest import make_e1, small_instance


class TestGenerate:
    def test_smallest_spec(self):
        a = generate(LatticeSpec(depth=1, width=1, vocab=1))
        assert a.num_states == 2
        assert a.num_arcs() == 1
        assert 1 in a.finals

    def test_shape(self):
        spec = LatticeSpec(depth=5, width=3, vocab=4, seed=9)
        a = generate(spec)
        assert a.num_states == 1 + 5 * 3
        assert sorted(a.finals) == list(range(13, 16))
        assert all(w == 0.0 for w in a.finals.values())
        # every non-last-layer state fans out exactly width arcs
        for q in range(1 + 4 * 3):
            assert len(a.arcs(q)) == 3

    def test_deterministic_per_seed(self):
        spec = LatticeSpec(depth=5, width=3, vocab=4, skew=1.0,
                           merge_prob=0.5, seed=42)
        assert write_text(generate(spec)) == write_text(generate(spec))

    def test_seeds_differ(self):
        first = LatticeSpec(depth=5, width=3, vocab=4, seed=0)
        second = LatticeSpec(depth=5, width=3, vocab=4, seed=1)
        assert write_text(generate(first)) != write_text(generate(second))

    def test_out_masses_sum_to_one(self):
        a = generate(LatticeSpec(depth=6, width=4, vocab=3,
                                 skew=2.0, merge_prob=0.3, seed=3))
        for q in range(a.num_states):
            arcs = a.arcs(q)
            if not arcs:
                continue
            total = math.fsum(math.exp(-w) for _, w, _ in arcs)
            assert abs(total - 1.0) <= 1e-9

    def test_valid_and_non_empty(self):
        for seed in range(20):
            a = small_instance(seed)
            validate(a)
            assert total_distance(a) != math.inf

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            generate(LatticeSpec(depth=0, width=1, vocab=1))
        with pytest.raises(ValueError):
            generate(LatticeSpec(depth=1, width=1, vocab=1, merge_prob=1.5))
        with pytest.raises(ValueError):
            generate(LatticeSpec(depth=1, width=1, vocab=1, skew=0.0))


class TestBench:
    def test_measure_injected_instance(self):
        # the reference lattice: 4 source states, 3 determinized states,
        # 4 visited (super-final included)
        e1 = make_e1()
        assert e1.num_states == 4
        assert measure_instance(e1) == (3, 4)

    def test_rows_and_invariant(self):
        specs = [LatticeSpec(depth=4, width=3, vocab=2, merge_prob=0.25, seed=s)
                 for s in range(3)]
        rows = bench_run(specs)
        assert len(rows) == 3
        for row, spec in zip(rows, specs):
            assert row.status == "ok"
            assert row.seed == spec.seed
            assert row.nfa_states == 1 + 4 * 3
            assert row.visited_states <= row.dfa_states + 1
            # cross-check the measured columns against direct runs
            a = generate(spec)
            assert row.dfa_states == DfaCache(a).full_expand()
            assert row.visited_states == shortest_string(a).stats.popped

    def test_one_cache_per_instance(self, monkeypatch):
        # the lazy decode and the exhaustive count share one cache, whose
        # remaining subsets give the same count as a fresh full expansion
        made = []

        class CountedCache(DfaCache):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(latgen, "DfaCache", CountedCache)
        for depth in (4, 6, 8, 10, 12, 14, 16):
            for seed in range(10):
                a = generate(LatticeSpec(depth=depth, width=4, vocab=3,
                                         merge_prob=0.25, seed=seed))
                made.clear()
                dfa_states, _ = measure_instance(a)
                assert len(made) == 1
                assert dfa_states == DfaCache(a).full_expand()

    def test_budget_rows_marked(self):
        specs = [LatticeSpec(depth=6, width=4, vocab=2, merge_prob=0.5, seed=0),
                 LatticeSpec(depth=1, width=1, vocab=1, seed=0)]
        rows = bench_run(specs, state_budget=3)
        assert rows[0].status == "budget"
        assert rows[0].dfa_states is None
        assert rows[1].status == "ok"  # the run continues past failures

    def test_csv_format(self):
        specs = [LatticeSpec(depth=4, width=2, vocab=2, seed=s) for s in range(2)]
        text = bench_csv(bench_run(specs))
        lines = text.strip().splitlines()
        assert lines[0].startswith("seed,depth,width,vocab,nfa_states")
        assert len(lines) == 4  # header + 2 rows + slope
        assert lines[-1].startswith("#slope=")
        assert lines[1].split(",")[-1] == "ok"

    def test_slope_on_exact_monomial(self):
        rows = [BenchRow(seed=0, depth=0, width=0, vocab=0,
                         nfa_states=n, dfa_states=n,
                         visited_states=n * n)
                for n in (2, 4, 8, 16)]
        assert abs(loglog_slope(rows) - 2.0) < 1e-12

    def test_slope_degenerate(self):
        assert math.isnan(loglog_slope([]))
        rows = [BenchRow(seed=0, depth=0, width=0, vocab=0, nfa_states=4,
                         dfa_states=4, visited_states=4)]
        assert math.isnan(loglog_slope(rows))
