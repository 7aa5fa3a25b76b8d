"""Shortest-string decoding of acyclic weighted lattices.

Finds the label sequence whose merged weight over all of its paths is the
best one, which over the log semiring (or over probabilities, which are
decoded as ``-ln p``) is not in general the label sequence of the best
single path. The decoder determinizes the lattice lazily and runs a
best-first search whose heuristic bounds the mass of any one string of
the source lattice (the ``"string"`` backward view of :mod:`.distance`).
"""

from .automaton import Automaton, topological_order, validate
from .determinize import DfaCache, materialize
from .distance import backward_distance, forward_distance, total_distance
from .errors import (BudgetExceededError, CycleError, EmptyLanguageError,
                     ParseError)
from .latgen import (BenchRow, LatticeSpec, bench_csv, bench_run, generate,
                     loglog_slope, measure_instance)
from .oracle import enumerate_strings, oracle_shortest_path, oracle_shortest_string
from .search import (AuditReport, SearchResult, Stats, heuristic_audit,
                     shortest_string, shortest_string_via_full_determinization)
from .semiring import (LOG, REAL, Encoding, approx_eq, format_weight,
                       get_semiring, log_sum)
from .textformat import SymbolTable, read_text, write_text

__version__ = "0.1.0"

__all__ = [
    "Automaton", "SymbolTable", "read_text", "topological_order",
    "validate", "write_text",
    "DfaCache", "materialize",
    "backward_distance", "forward_distance", "total_distance",
    "BudgetExceededError", "CycleError", "EmptyLanguageError", "ParseError",
    "BenchRow", "LatticeSpec", "bench_csv", "bench_run", "generate",
    "loglog_slope", "measure_instance",
    "enumerate_strings", "oracle_shortest_path", "oracle_shortest_string",
    "AuditReport", "SearchResult", "Stats", "heuristic_audit",
    "shortest_string", "shortest_string_via_full_determinization",
    "LOG", "REAL", "Encoding", "approx_eq", "format_weight", "get_semiring",
    "log_sum",
]
