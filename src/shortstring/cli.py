"""Command line: decode a lattice file, generate lattices, run benchmarks.

Exit codes for ``decode``: 0 success, 1 oracle mismatch, 2 empty
language, 3 invalid input, 4 budget exceeded. A usage error, such as an
unknown option, exits 3 for every command; ``-h`` exits 0. A reader
that closes standard output before every line is written makes any
command, ``-h`` included, exit 3, without a traceback; the rest of its
output is discarded.

``--semiring`` names the encoding of the lattice's weights (``log``:
``-ln p``; ``real``: probabilities). Decoding always runs in ``-ln``
weights; printed weights are converted back to the encoding.

``main(argv)`` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it after. ``decode`` runs
with the cyclic garbage collector paused, as a decode creates no
reference cycles and frees all it allocates by reference counting; the
collector's state is restored on every exit. The library functions never
touch the collector.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys

from .automaton import validate
from .determinize import DfaCache, materialize
from .distance import backward_distance, forward_distance
from .errors import BudgetExceededError, EmptyLanguageError, ParseError
from .latgen import LatticeSpec, bench_csv, bench_run, generate
from .oracle import oracle_shortest_string
from .search import (HEURISTIC_VIEW, rounding, shortest_string,
                     shortest_string_via_full_determinization)
from .semiring import LOG, SEMIRINGS, format_weight, get_semiring
from .textformat import SymbolTable, read_text, write_text

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_EMPTY = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    # argparse drops an OSError from writing help or usage; let it reach
    # main, so that -h into a closed stdout exits 3 like every command
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


# Built once per process, on first use. Reuse is safe while parse_args
# returns a fresh Namespace and no action keeps state between calls: no
# append or count actions, no mutable defaults.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shortstring",
        description="Shortest-string decoding of acyclic weighted lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    decode = sub.add_parser("decode", help="decode a lattice file")
    decode.add_argument("input", help="lattice file in the text acceptor format")
    decode.add_argument("--symbols", help="symbol table file (token id lines)")
    decode.add_argument("--semiring", choices=tuple(SEMIRINGS), default=LOG.name,
                        help="encoding of the weights: log (-ln p, the "
                             "default) or real (probabilities)")
    decode.add_argument("--oracle", action="store_true",
                        help="cross-check against brute-force enumeration")
    decode.add_argument("--stats", action="store_true",
                        help="print search statistics as JSON to stderr, "
                             "also on exits 2 and 4")
    decode.add_argument("--trace", action="store_true",
                        help="print one line per popped state to stderr")
    decode.add_argument("--full", action="store_true",
                        help="determinize exhaustively before searching")
    decode.add_argument("--budget", type=int, default=1_000_000,
                        help="state and path budget (default 1000000)")
    decode.add_argument("--print-distances", action="store_true",
                        help="print per-state forward and backward "
                             "distances and the search's bound to stderr")
    decode.add_argument("--dump-dfa", metavar="FILE",
                        help="write the explored determinized sub-automaton "
                             "to FILE")

    gen = sub.add_parser("gen", help="generate a synthetic lattice on stdout")
    gen.add_argument("--depth", type=int, required=True)
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--vocab", type=int, required=True)
    gen.add_argument("--skew", type=float, default=1.0)
    gen.add_argument("--merge-prob", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="benchmark sweep; CSV on stdout")
    bench.add_argument("--depths", required=True,
                       help="comma-separated depth list, e.g. 4,6,8")
    bench.add_argument("--width", type=int, required=True)
    bench.add_argument("--vocab", type=int, required=True)
    bench.add_argument("--seeds", type=int, default=1,
                       help="number of seeds per depth, 0..N-1 (default 1)")
    bench.add_argument("--skew", type=float, default=1.0)
    bench.add_argument("--merge-prob", type=float, default=0.0)
    bench.add_argument("--budget", type=int, default=1_000_000)
    return parser


def _render(labels, symbols) -> str:
    tokens = []
    for label in labels:
        if symbols is not None and symbols.has_label(label):
            tokens.append(symbols.token(label))
        else:
            tokens.append(str(label))
    return " ".join(tokens)


def _trace_writer(symbols, from_log):
    def on_pop(handle, gscore, heuristic, fscore, labels):
        name = "goal" if handle is None else str(handle)
        sys.stderr.write(f"pop\t{name}\t{from_log(gscore):.6f}\t"
                         f"{from_log(heuristic):.6f}\t{from_log(fscore):.6f}\t"
                         f"{_render(labels, symbols)}\n")
    return on_pop


def _cmd_decode(args) -> int:
    try:
        with open(args.input, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    symbols = None
    if args.symbols:
        try:
            with open(args.symbols, encoding="utf-8-sig") as handle:
                symbols = SymbolTable.from_text(handle.read())
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            print(f"error: bad symbol table: {exc}", file=sys.stderr)
            return EXIT_INVALID
    if args.budget < 1:
        print("error: budget must be positive", file=sys.stderr)
        return EXIT_INVALID
    encoding = get_semiring(args.semiring)
    # read_text builds an Automaton, which runs validate, so a refusal is
    # worded here before any output. The call below repeats the check
    # only because the benchmark's traced run patches cli.validate and
    # times it as its validate layer. ParseError and CycleError are
    # ValueErrors.
    try:
        automaton = read_text(text, encoding, symbols)
        validate(automaton)
    except ValueError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.print_distances:
        alpha = forward_distance(automaton)
        beta = backward_distance(automaton)
        bound = backward_distance(automaton, HEURISTIC_VIEW)
        for q in range(automaton.num_states):
            sys.stderr.write(
                f"distance\t{q}\t{format_weight(encoding.from_log(alpha[q]))}"
                f"\t{format_weight(encoding.from_log(beta[q]))}"
                f"\t{format_weight(encoding.from_log(bound[q]))}\n")
    on_pop = _trace_writer(symbols, encoding.from_log) if args.trace else None
    search = (shortest_string_via_full_determinization if args.full
              else shortest_string)
    cache = DfaCache(automaton, args.budget)
    try:
        result = search(automaton, on_pop=on_pop, cache=cache)
    except (EmptyLanguageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.stats:
            print(json.dumps(exc.stats.as_dict()), file=sys.stderr)
        return (EXIT_EMPTY if isinstance(exc, EmptyLanguageError)
                else EXIT_BUDGET)
    if args.dump_dfa:
        # write_text refuses a weight that would not read back as an arc
        try:
            text = write_text(materialize(cache), symbols)
            with open(args.dump_dfa, "w", encoding="utf-8") as handle:
                handle.write(text)
        except (OSError, ValueError) as exc:
            print(f"error: cannot write {args.dump_dfa}: {exc}", file=sys.stderr)
            return EXIT_INVALID
    print(f"{_render(result.labels, symbols)}\t{result.weight:.6f}")
    if args.stats:
        print(json.dumps(result.stats.as_dict()), file=sys.stderr)
    if args.oracle:
        try:
            labels, weight = oracle_shortest_string(automaton,
                                                    path_budget=args.budget)
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        print(f"oracle\t{_render(labels, symbols)}\t{weight:.6f}")
        searched = encoding.to_log(result.weight)
        close = math.isclose(encoding.to_log(weight), searched, rel_tol=0.0,
                             abs_tol=rounding(automaton)(searched))
        if labels != result.labels or not close:
            print("error: search and oracle disagree", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = LatticeSpec(depth=args.depth, width=args.width, vocab=args.vocab,
                       skew=args.skew, merge_prob=args.merge_prob,
                       seed=args.seed)
    try:
        lattice = generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(write_text(lattice))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        depths = [int(field) for field in args.depths.split(",") if field]
    except ValueError:
        print(f"error: bad depth list {args.depths!r}", file=sys.stderr)
        return EXIT_INVALID
    if not depths or args.seeds < 1:
        print("error: need at least one depth and one seed", file=sys.stderr)
        return EXIT_INVALID
    specs = [LatticeSpec(depth=depth, width=args.width, vocab=args.vocab,
                         skew=args.skew, merge_prob=args.merge_prob, seed=seed)
             for depth in depths for seed in range(args.seeds)]
    # a bad spec or budget raises ValueError, and so does a skew that
    # takes a mass to zero in generate(); bench_run writes nothing first
    try:
        rows = bench_run(specs, state_budget=args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(bench_csv(rows))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # output still buffered fails here, if the reader has gone
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so that the
        # interpreter's last flush of what is left is silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INVALID
    return code


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse's exit: 0 after -h, else usage
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    if args.command == "decode":
        # collections would only rescan the decode's live objects (see
        # the module docstring); the caller's setting comes back after
        enabled = gc.isenabled()
        gc.disable()
        try:
            return _cmd_decode(args)
        finally:
            if enabled:
                gc.enable()
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
