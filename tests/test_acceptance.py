"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import random
import statistics
import time

from shortstring import (DfaCache, LOG, REAL, LatticeSpec, approx_eq,
                         bench_run, cli, enumerate_strings, heuristic_audit,
                         log_sum, loglog_slope, oracle_shortest_path,
                         oracle_shortest_string, shortest_string,
                         shortest_string_via_full_determinization,
                         total_distance)

from shortstring.search import ORDER_SLACK

from conftest import E1_SYMBOLS_TEXT, E1_TEXT, make_e1, small_instance

INF = math.inf


def _criterion(cid, ok, detail):
    print(f"{cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def test_c1_fixture_decode(tmp_path, capsys):
    target = -math.log(math.exp(-1.2) + math.exp(-1.4))
    e1 = make_e1()
    started = time.perf_counter()
    result = shortest_string(e1)
    elapsed = time.perf_counter() - started
    path_labels, path_weight = oracle_shortest_path(e1)

    lattice = tmp_path / "e1.lat"
    lattice.write_text(E1_TEXT)
    symbols = tmp_path / "e1.syms"
    symbols.write_text(E1_SYMBOLS_TEXT)
    code = cli.main(["decode", str(lattice), "--symbols", str(symbols)])
    out = capsys.readouterr().out

    ok = (result.labels == (1, 2)
          and abs(result.weight - target) <= 1e-6
          and code == 0
          and out == f"a b\t{target:.6f}\n"
          and path_labels == (3,)
          and path_weight == 0.9
          and elapsed < 0.010)
    _criterion("C1", ok,
               f"string 'a b' at {result.weight:.6f} vs best path 'c' at "
               f"{path_weight}, decode took {elapsed * 1e3:.2f} ms")


def test_c2_oracle_equivalence_1000():
    started = time.perf_counter()
    mismatches = 0
    for seed in range(1000):
        a = small_instance(seed)
        got = shortest_string(a)
        labels, weight = oracle_shortest_string(a)
        if got.labels != labels or not approx_eq(got.weight, weight, 1e-9):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _criterion("C2", ok,
               f"{1000 - mismatches}/1000 lattices match the oracle "
               f"in {elapsed:.1f} s")


def test_c3_heuristic_audit_500():
    assert ORDER_SLACK == 1e-9
    started = time.perf_counter()
    dirty = 0
    for seed in range(500):
        if not heuristic_audit(small_instance(seed)).ok:
            dirty += 1
    elapsed = time.perf_counter() - started
    ok = dirty == 0 and elapsed < 60.0
    _criterion("C3", ok,
               f"0 admissibility and 0 consistency violations on "
               f"{500 - dirty}/500 instances in {elapsed:.1f} s")


def test_c4_lazy_equals_naive_1000():
    disagreements = 0
    oversized = 0
    for seed in range(1000):
        a = small_instance(seed)
        lazy = shortest_string(a)
        full = shortest_string_via_full_determinization(a)
        if lazy.labels != full.labels or not approx_eq(lazy.weight, full.weight, 1e-12):
            disagreements += 1
        if lazy.stats.subsets_built > full.stats.subsets_built:
            oversized += 1
    ok = disagreements == 0 and oversized == 0
    _criterion("C4", ok,
               f"{1000 - disagreements}/1000 agree and lazy exploration "
               f"never exceeded the full machine ({oversized} violations)")


def test_c5_per_string_weight_preservation_200():
    bad = 0
    checked = 0
    for seed in range(200):
        a = small_instance(seed)
        cache = DfaCache(a)
        for labels, weight in enumerate_strings(a).items():
            handle = cache.start()
            mass = 0.0
            for label in labels:
                arc = {l: (w, t) for l, w, t in cache.expand(handle)}[label]
                mass += arc[0]
                handle = arc[1]
            mass += cache.final_weight(handle)
            checked += 1
            if not approx_eq(mass, weight, 1e-9):
                bad += 1
    ok = bad == 0
    _criterion("C5", ok,
               f"{checked} strings re-scored through the determinized "
               f"machine, {bad} off by more than 1e-9")


def test_c6_distance_partition_200():
    bad = 0
    for seed in range(200):
        a = small_instance(seed)
        acc = log_sum(list(enumerate_strings(a).values()))
        if not approx_eq(acc, total_distance(a), 1e-9):
            bad += 1
    ok = bad == 0
    _criterion("C6", ok,
               f"string-mass partition equals the total distance on "
               f"{200 - bad}/200 instances")


def test_c7_efficiency_report():
    started = time.perf_counter()
    specs = [LatticeSpec(depth=depth, width=4, vocab=3, skew=1.0,
                         merge_prob=0.25, seed=seed)
             for depth in (4, 6, 8, 10, 12, 14, 16)
             for seed in range(10)]
    rows = bench_run(specs)
    elapsed = time.perf_counter() - started
    all_ok = all(row.status == "ok" for row in rows)
    bounded = sum(1 for row in rows
                  if row.status == "ok"
                  and row.visited_states <= row.dfa_states + 1)
    ratios = [row.visited_states / row.dfa_states
              for row in rows if row.status == "ok"]
    median_ratio = statistics.median(ratios) if ratios else INF
    inflations = [row.dfa_states / row.nfa_states
                  for row in rows if row.status == "ok"]
    median_inflation = statistics.median(inflations) if inflations else INF
    slope = loglog_slope(rows)
    ok = (len(rows) == 70 and all_ok and bounded == 70
          and median_ratio < 1.0 and elapsed < 300.0)
    _criterion("C7", ok,
               f"visited <= dfa+1 on {bounded}/70 rows, median visited/dfa "
               f"= {median_ratio:.4f}, median dfa/nfa inflation = "
               f"{median_inflation:.2f}x, log-log slope = {slope:.3f} "
               f"(both reported, not asserted), {elapsed:.1f} s")


LAW_SAMPLES = 100_000
LAW_TOL = 1e-9


def _draw_log(rng):
    r = rng.random()
    if r < 0.03:
        return INF
    if r < 0.06:
        return 0.0
    return rng.uniform(-30.0, 30.0)


def _draw_real(rng):
    r = rng.random()
    if r < 0.03:
        return 0.0
    if r < 0.06:
        return 1.0
    return math.exp(rng.uniform(-10.0, 3.0))


def _eq(x, y):
    return x == y or abs(x - y) <= LAW_TOL


def _plus(a, b):
    return log_sum([a, b])


def _times(a, b):
    return a + b


def _law_suite(encoding, draw):
    """The laws of the one -ln algebra (plus is log_sum, times is +, the
    companion view is min, smaller is better) over the weights that the
    encoding's files produce."""
    rng = random.Random(0xACCE97)
    to_log = encoding.to_log
    triples = [(to_log(draw(rng)), to_log(draw(rng)), to_log(draw(rng)))
               for _ in range(LAW_SAMPLES)]
    plus, times, cplus = _plus, _times, min
    zero, one = INF, 0.0
    bad = {}

    bad["plus-assoc"] = sum(
        not _eq(plus(plus(a, b), c), plus(a, plus(b, c))) for a, b, c in triples)
    bad["plus-comm"] = sum(
        not _eq(plus(a, b), plus(b, a)) for a, b, _ in triples)
    bad["times-assoc"] = sum(
        not _eq(times(times(a, b), c), times(a, times(b, c))) for a, b, c in triples)
    bad["identities"] = sum(
        not (plus(a, zero) == a and times(a, one) == a and times(one, a) == a
             and times(a, zero) == zero and times(zero, a) == zero)
        for a, _, _ in triples)
    bad["distributivity"] = sum(
        not _eq(times(a, plus(b, c)), plus(times(a, b), times(a, c)))
        for a, b, c in triples)

    count = 0
    for x, y, c in triples:
        a, b = min(x, y), max(x, y)
        if not (plus(a, c) <= plus(b, c) + LAW_TOL
                and times(a, c) <= times(b, c) + LAW_TOL
                and times(c, a) <= times(c, b) + LAW_TOL):
            count += 1
    bad["monotonicity"] = count

    bad["negativity"] = sum(
        not (a <= zero and plus(a, b) <= b + LAW_TOL)
        for a, b, _ in triples)
    bad["path-property"] = sum(
        not ((cplus(a, b) == a or cplus(a, b) == b) and cplus(a, a) == a)
        for a, b, _ in triples)
    bad["plus-bound"] = sum(
        plus(a, b) > cplus(a, b) + LAW_TOL for a, b, _ in triples)
    bad["divide-inverts"] = sum(
        not _eq(times(b, a - b), a)
        for a, b, _ in triples if b != zero)

    return {law: count for law, count in bad.items() if count}


def test_c8_semiring_law_suite():
    started = time.perf_counter()
    failures = {}
    for encoding, draw in ((LOG, _draw_log), (REAL, _draw_real)):
        for law, count in _law_suite(encoding, draw).items():
            failures[f"{encoding.name}:{law}"] = count
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    _criterion("C8", ok,
               f"10 laws x 2 encodings x {LAW_SAMPLES} triples at 1e-9, "
               f"failures={failures or 'none'}, {elapsed:.1f} s")


def test_c9_cli_determinism(tmp_path, capsys):
    lattice = tmp_path / "e1.lat"
    lattice.write_text(E1_TEXT)
    symbols = tmp_path / "e1.syms"
    symbols.write_text(E1_SYMBOLS_TEXT)

    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    decode_args = ("decode", str(lattice), "--symbols", str(symbols),
                   "--oracle", "--full")
    gen_args = ("gen", "--depth", "5", "--width", "3", "--vocab", "4",
                "--merge-prob", "0.5", "--seed", "11")
    bench_args = ("bench", "--depths", "4,6", "--width", "3", "--vocab", "2",
                  "--seeds", "3")

    decode_same = run(*decode_args) == run(*decode_args)
    gen_same = run(*gen_args) == run(*gen_args)

    bench_same = run(*bench_args) == run(*bench_args)
    ok = decode_same and gen_same and bench_same
    _criterion("C9", ok,
               f"byte-identical reruns: decode={decode_same}, "
               f"gen={gen_same}, bench={bench_same}")
