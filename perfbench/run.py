"""Seeded decode benchmark for shortstring.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ambig --seed 0 --seconds 25 --trace 0

The benchmark generates the workload's lattices from ``--seed`` with
``latgen.generate``, writes them to files, and decodes each file in this
process through ``shortstring.cli.main(["decode", FILE, "--stats", ...])``,
the code path of ``shortstring decode`` without interpreter start-up. The
load is a closed loop: one client, one thread, each decode starting when
the previous one has returned, and every decode builds its own cache.

``--trace 0`` decodes the set in passes for ``--seconds`` (at least one
whole pass) and reports the end-to-end metrics; their times are wall
times scaled to a fixed reference speed of the host (see
``hostspeed.py``). ``--trace 1`` decodes the
set once untraced and once with span wrappers at the layer boundaries
(see ``layers.py``) and reports the per-layer metrics. Every output is
checked (see ``gates.py``); the last line of standard output is one JSON
object with the verdict and the metrics, and the exit code is 1 when an
answer was wrong. ``perfbench/README.md`` lists the workloads, the
metrics and the numbers measured at the seed commit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from gates import (DRIFT, NO_ANSWER, PRINT_SLACK, Reference, check_decode,
                   digest, parse_output)
from hostspeed import REFERENCE_S, HostSpeed
from layers import CacheCounts, Spans, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
ANSWERS = HERE / "answers.json"

# setup_s is the median of this many timed set-ups, made back to back
# before the decodes
SETUP_REPEATS = 5
# Lattice seed of instance i in a run with seed s; oracle samples use
# s * SEED_STRIDE + ORACLE_OFFSET + j.
SEED_STRIDE = 1_000_000
ORACLE_OFFSET = 900_000
# determinize.lazy_frac builds full machines only up to LAZY_CAP subsets
# each, and stops once LAZY_BUDGET subsets were built in total.
LAZY_CAP = 40_000
LAZY_BUDGET = 200_000
TAIL_BEYOND = 10
# small lattices per workload in the untimed oracle differential
ORACLE_COUNT = 8
# lattices decoded again after the first pass, while time is left
TAIL_REDECODE = 2 * (TAIL_BEYOND + 1)


@dataclass(frozen=True)
class Workload:
    width: int
    vocab: int
    skew: float
    merge_prob: float
    semiring: str            # the encoding the lattices are written in
    depths: tuple            # (depth, lattice count) pairs
    oracle_depth: int        # a depth the brute-force oracle can enumerate


# Each set has fixed depths, so only the lattices' contents vary with the
# seed. ambig and wide have one depth each: in these shapes decode cost
# grows 1.6-2.3 times per level of depth and varies by a factor of about
# 0.5 (coefficient of variation) at one depth, so with a mix of depths the
# tail (the 11th slowest lattice) and the peak memory were set by a few of
# the deepest lattices and swung by 0.2-0.25 from seed to seed. deep's
# median lattice is one of its many of depth 300; with 24 of them, rather
# than 40, the median moved by about 0.1 from seed to seed.
WORKLOADS = {
    "ambig": Workload(
        width=5, vocab=3, skew=1.0, merge_prob=0.2, semiring="log",
        depths=((12, 500),),
        oracle_depth=6),
    "wide": Workload(
        width=10, vocab=4, skew=1.0, merge_prob=0.3, semiring="real",
        depths=((6, 700),),
        oracle_depth=4),
    "deep": Workload(
        width=4, vocab=4, skew=3.0, merge_prob=0.0, semiring="log",
        depths=((300, 40), (400, 8), (600, 4), (900, 2), (1400, 1),
                (2000, 1)),
        oracle_depth=7),
}


def import_cli():
    """Import the package from this checkout's ``src``, never from
    elsewhere; exits with code 2 when the checkout has no source."""
    if not (SRC / "shortstring" / "__init__.py").is_file():
        print(f"error: no shortstring source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import shortstring
    from shortstring import cli
    if Path(shortstring.__file__).resolve().parent != SRC / "shortstring":
        print("error: shortstring was not imported from this checkout",
              file=sys.stderr)
        sys.exit(2)
    return cli


def encoded(lattice, real: bool):
    """Arcs and final weights of ``lattice`` in the encoding its file
    holds: negated logs, or probabilities p = e^-w when ``real``."""
    arcs = list(lattice.all_arcs())
    finals = dict(lattice.finals)
    if real:
        arcs = [(s, lab, math.exp(-w), t) for s, lab, w, t in arcs]
        finals = {q: math.exp(-w) for q, w in finals.items()}
        if any(arc[2] == 0.0 for arc in arcs):
            raise RuntimeError("an arc probability underflowed to 0")
    return arcs, finals


class Instance:
    """One generated lattice: its spec, its file and the decoder arguments.

    The lattice itself is not kept, so the benchmark's own copies add
    nothing to ``peak_rss_mb``; :meth:`reference` generates it again from
    the spec, which is deterministic."""

    def __init__(self, index, spec, path, semiring):
        from shortstring import generate
        self.index = index
        self.spec = spec
        self.path = path
        self.argv = ["decode", str(path), "--stats", "--semiring", semiring]
        self.real = semiring == "real"
        arcs, finals = encoded(generate(spec), self.real)
        self.num_arcs = len(arcs)
        # the initial state 0 is the source of the first arc line
        lines = [f"{s} {t} {lab} {w!r}" for s, lab, w, t in arcs]
        lines += [f"{q} {w!r}" for q, w in finals.items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def reference(self) -> Reference:
        from shortstring import generate
        lattice = generate(self.spec)
        arcs, finals = encoded(lattice, self.real)
        return Reference(lattice.num_states, lattice.initial, arcs, finals,
                         self.real)


def lattice_specs(workload: Workload, seed: int, depths, offset=0):
    from shortstring import LatticeSpec
    return [LatticeSpec(depth=depth, width=workload.width,
                        vocab=workload.vocab, skew=workload.skew,
                        merge_prob=workload.merge_prob,
                        seed=seed * SEED_STRIDE + offset + i)
            for i, depth in enumerate(depths)]


def load_answers(name: str, seed: int):
    """Recorded label digests of this workload and seed, or None."""
    with open(ANSWERS, encoding="utf-8") as handle:
        recorded = json.load(handle)["answers"].get(name, {}).get(str(seed))
    if recorded is None:
        return None
    return [recorded[i:i + 8] for i in range(0, len(recorded), 8)]


def setup(name: str, workload: Workload, seed: int, directory: Path):
    """Generate and write the lattices and load the answer checks."""
    directory.mkdir(parents=True, exist_ok=True)
    depths = [depth for depth, count in workload.depths for _ in range(count)]
    instances = [Instance(i, spec, directory / f"{i}.lat", workload.semiring)
                 for i, spec in enumerate(lattice_specs(workload, seed,
                                                        depths))]
    return instances, load_answers(name, seed)


class Decode:
    """Outcome of one in-process ``cli.main`` call."""

    __slots__ = ("code", "seconds", "scaled", "stdout", "stderr", "error")

    def __init__(self, code, seconds, scaled, stdout, stderr, error):
        self.code = code          # exit code, or None on an exception
        self.seconds = seconds    # wall time
        self.scaled = scaled      # wall time at the reference host speed
        self.stdout = stdout
        self.stderr = stderr
        self.error = error        # traceback of an uncaught exception

    def same_output(self, other) -> bool:
        return (self.code, self.stdout, self.stderr, self.error) == \
            (other.code, other.stdout, other.stderr, other.error)

    def stats(self) -> dict:
        return json.loads(self.stderr.splitlines()[-1])


def decode(cli, argv, speed, spans=None, main_id=None) -> Decode:
    """Decode through ``cli.main``, timed by ``speed`` (a HostSpeed)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with speed.timing() as timing:
            idx = spans.open(main_id) if spans is not None else None
            try:
                code = cli.main(argv)
            # a decode that raises is a recorded failure and the run goes
            # on; SystemExit covers argparse's own exits
            except (Exception, SystemExit):
                code = None
                error = traceback.format_exc()
            if idx is not None:
                spans.close(idx)
    return Decode(code, timing.seconds, timing.scaled, out.getvalue(),
                  err.getvalue(), error)


class Verdicts:
    """Gate results per lattice. A lattice fails when any decode of it
    fails, and then every decode of it counts as failed."""

    def __init__(self, answers):
        self.answers = answers
        self.reasons = {}         # lattice index -> failure reason
        self.wrong = set()        # lattices with a wrong answer or a crash
        self.recorded_checked = 0

    def judge(self, inst: Instance, decodes) -> None:
        first = decodes[0]
        if first.error is not None:
            last = first.error.strip().splitlines()[-1]
            self._fail(inst, f"uncaught exception: {last}", wrong=True)
            return
        labels, reason = check_decode(inst.reference(), first.code,
                                      first.stdout)
        if reason is not None:
            # exit 4 is the documented budget refusal; any other failure is
            # a wrong answer, as every generated lattice accepts a string
            self._fail(inst, reason, wrong=first.code != 4)
            return
        recorded = self.answers[inst.index] if self.answers else NO_ANSWER
        if recorded != NO_ANSWER:
            self.recorded_checked += 1
            if digest(labels) != recorded:
                self._fail(inst, "labels differ from the recorded answer",
                           wrong=True)
                return
        if any(not first.same_output(d) for d in decodes[1:]):
            self._fail(inst, "output differs between repeated decodes",
                       wrong=True)

    def _fail(self, inst, reason, wrong):
        self.reasons[inst.index] = reason
        if wrong:
            self.wrong.add(inst.index)

    def causes(self) -> Counter:
        return Counter(self.reasons.values())


def oracle_differential(cli, workload: Workload, seed: int, directory: Path,
                        speed):
    """Decode a few small lattices of the workload's shape and compare with
    brute-force enumeration; returns the list of mismatches."""
    from shortstring import get_semiring, read_text
    from shortstring.oracle import oracle_shortest_string
    mismatches = []
    specs = lattice_specs(workload, seed,
                          [workload.oracle_depth] * ORACLE_COUNT,
                          ORACLE_OFFSET)
    for j, spec in enumerate(specs):
        inst = Instance(j, spec, directory / f"oracle-{j}.lat",
                        workload.semiring)
        result = decode(cli, inst.argv, speed)
        parsed = parse_output(result.stdout) if result.code == 0 else None
        labels, weight = oracle_shortest_string(
            read_text(inst.path.read_text(encoding="utf-8"),
                      get_semiring(workload.semiring)))
        if parsed is None or parsed[0] != labels or \
                abs(parsed[1] - weight) > PRINT_SLACK + DRIFT * abs(weight):
            mismatches.append(f"sample {j}: decoder gave {result.code!r} "
                              f"{result.stdout.strip()!r}, oracle {labels} "
                              f"{weight!r}")
    return mismatches


def settle_heap():
    """Collect, then exempt everything alive from later collections, so
    that what the benchmark holds (modules, the generated set, an earlier
    set-up's set) does not lengthen the collections that run inside
    set-ups and decodes."""
    gc.collect()
    gc.freeze()


def timed_loop(cli, instances, order, seconds, speed):
    """Closed loop: one pass over the set, then, until ``seconds`` have
    passed, passes over the lattices that were slowest in the first pass.
    Those set the tail and most of the summed time, and decoding them
    again makes their times medians of several decodes. Returns each
    lattice's decodes, timed by ``speed``."""
    runs = [[] for _ in instances]
    settle_heap()
    started = time.perf_counter()
    for i in order:
        runs[i].append(decode(cli, instances[i].argv, speed))
    slowest = sorted(order, key=lambda i: runs[i][0].scaled,
                     reverse=True)[:TAIL_REDECODE]
    count = 0
    while time.perf_counter() - started < seconds:
        i = slowest[count % len(slowest)]
        runs[i].append(decode(cli, instances[i].argv, speed))
        count += 1
    return runs


def tail_of(values):
    """The highest percentile with TAIL_BEYOND values beyond it."""
    ranked = sorted(values)
    rank = max(1, len(ranked) - TAIL_BEYOND)
    return ranked[rank - 1], 100.0 * rank / len(ranked)


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(part, whole):
    """``part / whole``, or 0 when nothing was counted, as when no decode
    of the set succeeded."""
    return part / whole if whole else 0.0


def describe(workload: Workload) -> str:
    depths = "-".join(str(d) for d in sorted({workload.depths[0][0],
                                               workload.depths[-1][0]}))
    return (f"width {workload.width}, vocab {workload.vocab}, skew "
            f"{workload.skew:g}, merge {workload.merge_prob:g}, "
            f"{workload.semiring}, depths {depths}")


def report_checks(verdicts, n, mismatches):
    print(f"  gates: {n - len(verdicts.reasons)} of {n} lattices pass; "
          f"recorded answers compared on {verdicts.recorded_checked}; "
          f"oracle differential {ORACLE_COUNT - len(mismatches)} of "
          f"{ORACLE_COUNT}")
    for reason, count in sorted(verdicts.causes().items()):
        print(f"  failed x{count}: {reason}")
    for line in mismatches:
        print(f"  oracle mismatch: {line}")


def timed_setup(name, workload, seed, repeat, speed):
    """One set-up into a directory of its own, as in a fresh checkout, so
    that no repeat rewrites the files of an earlier one; returns the set,
    its answers and the set-up time scaled by ``speed``."""
    settle_heap()
    with speed.timing() as timing:
        instances, answers = setup(name, workload, seed,
                                   WORK / name / f"set-{repeat}")
    return instances, answers, timing.scaled


def prepare(cli, name, workload, seed, speed, repeats=1):
    """Set up ``repeats`` times, then run the oracle differential; returns
    the last set, its answers, the scaled set-up times, the oracle
    mismatches and the seeded decode order."""
    shutil.rmtree(WORK / name, ignore_errors=True)
    setup_times = []
    for repeat in range(repeats):
        instances, answers, seconds = timed_setup(name, workload, seed,
                                                  repeat, speed)
        setup_times.append(seconds)
    mismatches = oracle_differential(cli, workload, seed, WORK / name,
                                     speed)
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    return instances, answers, setup_times, mismatches, order


def end_to_end(cli, name, workload, seed, seconds):
    speed = HostSpeed()
    instances, answers, setup_times, mismatches, order = prepare(
        cli, name, workload, seed, speed, SETUP_REPEATS)
    runs = timed_loop(cli, instances, order, seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(WORK / name, ignore_errors=True)

    verdicts = Verdicts(answers)
    for inst in instances:
        verdicts.judge(inst, runs[inst.index])
    attempted = sum(len(r) for r in runs)
    failed = sum(len(runs[i]) for i in verdicts.reasons)
    good = [i for i in range(len(instances)) if i not in verdicts.reasons]

    # one time per lattice, the median of its scaled decode times; a
    # failed lattice ranks beyond every time
    times_ms = [statistics.median(d.scaled for d in r) * 1e3 for r in runs]
    ranked = [math.inf if i in verdicts.reasons else t
              for i, t in enumerate(times_ms)]
    tail, percentile = tail_of(ranked)
    wall_ms = [math.inf if i in verdicts.reasons else
               statistics.median(d.seconds for d in r) * 1e3
               for i, r in enumerate(runs)]
    stats = [runs[i][0].stats() for i in good]
    metrics = {
        "decode_ms.p50": metric(statistics.median(ranked), "ms"),
        "decode_ms.tail": metric(tail, "ms"),
        "lattices_per_s": metric(len(good) / (sum(times_ms) / 1e3), "1/s"),
        "subsets_built": metric(sum(s["subsets_built"] for s in stats),
                                "count"),
        "popped": metric(sum(s["popped"] for s in stats), "count"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    print(f"workload {name} seed {seed}: {len(instances)} lattices "
          f"({describe(workload)}); {attempted} decodes, one pass and "
          f"{attempted - len(instances)} more of the {TAIL_REDECODE} "
          f"slowest; a lattice's time is the median of its decodes")
    print(f"  decode_ms.tail is p{percentile:.2f} of {len(instances)} "
          f"lattices, {TAIL_BEYOND} beyond it")
    print(f"  times are scaled to the speed at which the probe loop takes "
          f"{REFERENCE_S * 1e3:g} ms; here it took "
          f"{statistics.median(speed.probes) * 1e3:.4f} ms (median of "
          f"{len(speed.probes)}), and unscaled decode_ms.p50 was "
          f"{statistics.median(wall_ms):.6g} ms, decode_ms.tail "
          f"{tail_of(wall_ms)[0]:.6g} ms")
    print(f"  fail_frac {failed / attempted:.6g} ratio ({failed} of "
          f"{attempted} decodes)")
    if stats:
        print(f"  largest decode built "
              f"{max(s['subsets_built'] for s in stats)} subsets")
    print("  setup_s runs: " + ", ".join(f"{t:.4f}" for t in setup_times))
    report_checks(verdicts, len(instances), mismatches)
    correct = not verdicts.wrong and not mismatches
    return correct, attempted, failed, metrics


def lazy_fraction(instances, order, subsets, failed, semiring_name):
    """The paper's measure, untimed: subsets the lazy search built against
    the size of the full determinized machine, over the lattices (in run
    order, until LAZY_BUDGET subsets were built) whose full machine fits
    LAZY_CAP subsets. Returns (lazy subsets, full subsets, lattices)."""
    from shortstring import DfaCache, get_semiring, read_text
    from shortstring.errors import BudgetExceededError
    semiring = get_semiring(semiring_name)
    lazy_built = full_built = covered = spent = 0
    for i in order:
        if spent >= LAZY_BUDGET:
            break
        if i in failed:
            continue
        a = read_text(instances[i].path.read_text(encoding="utf-8"), semiring)
        try:
            full = DfaCache(a, state_budget=LAZY_CAP).full_expand()
        except BudgetExceededError:
            spent += LAZY_CAP
            continue
        spent += full
        covered += 1
        lazy_built += subsets[i]
        full_built += full
    return lazy_built, full_built, covered


def per_layer(cli, name, workload, seed, seconds):
    """One untraced and one traced pass over the set; ``seconds`` is not
    used, as each pass decodes every lattice exactly once."""
    speed = HostSpeed()
    instances, answers, _, mismatches, order = prepare(
        cli, name, workload, seed, speed)
    # no probes inside the decodes of either pass, as they would land in
    # the traced pass's spans
    brackets = HostSpeed(interval=0)
    settle_heap()
    plain = [None] * len(instances)
    for i in order:
        plain[i] = decode(cli, instances[i].argv, brackets)

    spans, counts = Spans(), CacheCounts()
    main_id = spans.name_id("cli.main")
    traced_runs = [None] * len(instances)
    subsets = [0] * len(instances)
    settled = sizes_sum = size_max = 0
    with traced(spans, counts):
        for i in order:
            spans.decode_id = i
            traced_runs[i] = decode(cli, instances[i].argv, brackets, spans,
                                    main_id)
            for cache in counts.take():
                subsets[i] += cache.num_states
                for handle in range(cache.num_states):
                    size = len(cache.subset(handle))
                    sizes_sum += size
                    size_max = max(size_max, size)
                    settled += cache.is_expanded(handle)

    verdicts = Verdicts(answers)
    for inst in instances:
        verdicts.judge(inst, [plain[inst.index], traced_runs[inst.index]])

    lazy_built, full_built, covered = lazy_fraction(
        instances, order, subsets, verdicts.reasons, workload.semiring)
    shutil.rmtree(WORK / name, ignore_errors=True)

    spans_path = WORK / f"spans-{name}.bin"
    spans.write(spans_path)
    layer = spans.summary()

    def total(span):
        return layer.get(span, {}).get("total_s", 0.0)

    def self_s(span):
        return layer.get(span, {}).get("self_s", 0.0)

    def calls(span):
        return layer.get(span, {}).get("calls", 0)

    stats = [traced_runs[i].stats() for i in range(len(instances))
             if i not in verdicts.reasons]
    pushed = sum(s["pushed"] for s in stats)
    built = sum(subsets)
    arcs = sum(inst.num_arcs for inst in instances)
    parse_s = total("automaton.read_text") + total("automaton.validate")
    untraced_s = sum(d.scaled for d in plain)
    traced_s = sum(d.scaled for d in traced_runs)
    metrics = {
        "automaton.read_text_s": metric(total("automaton.read_text"), "s"),
        "automaton.validate_s": metric(total("automaton.validate"), "s"),
        "automaton.arcs_per_s": metric(ratio(arcs, parse_s), "1/s"),
        "distance.backward_s":
            metric(total("distance.backward_distance"), "s"),
        "determinize.expand_s": metric(total("determinize.expand"), "s"),
        "determinize.expand_calls":
            metric(calls("determinize.expand"), "count"),
        "determinize.heuristic_s":
            metric(total("determinize.heuristic"), "s"),
        "determinize.heuristic_calls":
            metric(calls("determinize.heuristic"), "count"),
        "determinize.final_weight_s":
            metric(total("determinize.final_weight"), "s"),
        "determinize.arcs_built": metric(counts.arcs_built, "count"),
        "determinize.intern_hit_frac": metric(
            1.0 - ratio(counts.new_subsets, counts.arcs_built), "ratio"),
        "determinize.settled_frac": metric(ratio(settled, built), "ratio"),
        "determinize.subset_size_mean":
            metric(ratio(sizes_sum, built), "count"),
        "determinize.subset_size_max": metric(size_max, "count"),
        "determinize.lazy_frac":
            metric(ratio(lazy_built, full_built), "ratio"),
        "search.self_s": metric(self_s("search.shortest_string"), "s"),
        "search.pushed": metric(pushed, "count"),
        "search.queue_peak":
            metric(max((s["queue_peak"] for s in stats), default=0),
                   "count"),
        "search.arcs_relaxed":
            metric(sum(s["arcs_relaxed"] for s in stats), "count"),
        "search.pop_push_ratio":
            metric(ratio(sum(s["popped"] for s in stats), pushed), "ratio"),
        "search.subsets_per_s":
            metric(ratio(built, total("search.shortest_string")), "1/s"),
        "cli.other_s": metric(self_s("cli.main"), "s"),
        "trace.overhead_frac": metric(traced_s / untraced_s - 1.0, "ratio"),
    }
    print(f"workload {name} seed {seed}: {len(instances)} lattices "
          f"({describe(workload)}); one untraced and one traced pass; "
          f"layer times are wall-time sums over the traced pass")
    print(f"  untraced {untraced_s:.4f} s, traced {traced_s:.4f} s (scaled "
          f"to the reference speed); "
          f"{len(spans)} spans written to {spans_path}")
    print(f"  lazy_frac over {covered} lattices whose full machine fits "
          f"{LAZY_CAP} subsets: {lazy_built} of {full_built} subsets")
    print(f"  {'span':30s} {'calls':>9s} {'total_s':>12s} {'self_s':>12s}")
    for span, row in sorted(layer.items()):
        print(f"  {span:30s} {row['calls']:9d} {row['total_s']:12.6f} "
              f"{row['self_s']:12.6f}")
    report_checks(verdicts, len(instances), mismatches)
    attempted = 2 * len(instances)
    failed = 2 * len(verdicts.reasons)
    correct = not verdicts.wrong and not mismatches
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    run = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics = run(
        cli, args.workload, WORKLOADS[args.workload], args.seed, args.seconds)
    for key, entry in metrics.items():
        print(f"{key} {entry['value']:.6g} {entry['unit']}")
    print(f"correct {'true' if correct else 'false'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    # a wrong answer fails the run for callers that read only the exit code
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
