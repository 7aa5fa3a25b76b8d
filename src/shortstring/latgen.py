"""Synthetic lattice generation and the sweep that counts the subsets a
lazy decode visits against the subsets of the whole determinized machine.

Generated lattices mimic recognizer output: a layered, confusion-network
style graph where every position offers several scored alternatives, with
label collisions between alternatives forcing nondeterminism. Weights are
negated logs of per-position masses normalized to sum to one, so arcs
leaving any state carry a proper probability distribution. Everything is
a deterministic function of the seed.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import astuple, dataclass, fields

from .automaton import Automaton
from .determinize import DfaCache
from .errors import BudgetExceededError
from .search import shortest_string
from .semiring import LOG, ONE


@dataclass(frozen=True)
class LatticeSpec:
    """Shape of one synthetic lattice.

    ``depth`` positions, ``width`` alternatives per position, labels drawn
    from ``vocab`` symbols. ``skew`` exaggerates mass differences between
    alternatives, ``merge_prob`` is the chance an alternative is rerouted
    onto a shared target state.
    """

    depth: int
    width: int
    vocab: int
    skew: float = 1.0
    merge_prob: float = 0.0
    seed: int = 0

    def check(self) -> None:
        if self.depth < 1 or self.width < 1 or self.vocab < 1:
            raise ValueError("depth, width, and vocab must be at least 1")
        if not 0.0 <= self.merge_prob <= 1.0:
            raise ValueError("merge_prob must lie in [0, 1]")
        if not 0.0 < self.skew < math.inf:
            raise ValueError("skew must be positive and finite")


def generate(spec: LatticeSpec) -> Automaton:
    """Deterministically generate the lattice described by ``spec`` over the
    log semiring. State 0 is initial; layer ``i`` occupies states
    ``1 + (i-1)*width .. i*width``; every last-layer state is final with
    weight one."""
    spec.check()
    rng = random.Random(spec.seed)
    width = spec.width
    num_states = 1 + spec.depth * width
    sources, labels, weights, targets = [], [], [], []
    for layer in range(spec.depth):
        if layer == 0:
            layer_sources = [0]
        else:
            base = 1 + (layer - 1) * width
            layer_sources = range(base, base + width)
        target_base = 1 + layer * width
        # one label per position slot, shared by every source of the layer:
        # alternatives at a position are the same candidates whatever the
        # history, as in recognizer output, and equal slot labels (forced
        # when width exceeds vocab) are what make the lattice nondeterministic
        slot_labels = [rng.randint(1, spec.vocab) for _ in range(width)]
        for source in layer_sources:
            for slot in range(width):
                if rng.random() < spec.merge_prob:
                    targets.append(target_base + rng.randrange(width))
                else:
                    targets.append(target_base + slot)
            # 1 - random() is positive, but a large skew can underflow it
            masses = [(1.0 - rng.random()) ** spec.skew for _ in range(width)]
            if min(masses) == 0.0:
                raise ValueError(f"skew {spec.skew:g} underflows an arc "
                                 f"mass to zero")
            total = math.fsum(masses)
            sources += [source] * width
            labels += slot_labels
            weights += [-math.log(mass / total) for mass in masses]
    finals = {q: ONE for q in range(num_states - width, num_states)}
    return Automaton(LOG, num_states, 0, (sources, labels, weights, targets),
                     finals)


@dataclass
class BenchRow:
    seed: int
    depth: int
    width: int
    vocab: int
    nfa_states: int
    dfa_states: int | None = None
    visited_states: int | None = None
    status: str = "ok"


def measure_instance(a, *, state_budget: int | None = None) -> tuple:
    """Measure one automaton: exhaustive determinized state count and
    subsets visited by the lazy decode (super-final pop included). The
    lazy decode runs first; the exhaustive count expands the rest of its
    cache, and is None when it would pass ``state_budget``, which the lazy
    decode alone must fit."""
    cache = DfaCache(a, state_budget)
    visited = shortest_string(a, cache=cache).stats.popped
    try:
        dfa_states = cache.full_expand()
    except BudgetExceededError:
        dfa_states = None
    return dfa_states, visited


def bench_run(specs, *, state_budget: int | None = None) -> list:
    """Generate and measure every spec. A lazy decode that passes the
    budget marks the row's status and the run continues; a generated
    lattice is never empty, as every state reaches a final state."""
    rows = []
    for spec in specs:
        a = generate(spec)
        row = BenchRow(seed=spec.seed, depth=spec.depth, width=spec.width,
                       vocab=spec.vocab, nfa_states=a.num_states)
        try:
            row.dfa_states, row.visited_states = measure_instance(
                a, state_budget=state_budget)
        except BudgetExceededError:
            row.status = "budget"
        rows.append(row)
    return rows


def loglog_slope(rows) -> float:
    """Least-squares slope of log(visited) against log(source states) over
    the successful rows; nan when underdetermined."""
    points = [(math.log(row.nfa_states), math.log(row.visited_states))
              for row in rows
              if row.status == "ok" and row.nfa_states > 0
              and row.visited_states and row.visited_states > 0]
    try:
        return statistics.linear_regression([x for x, _ in points],
                                            [y for _, y in points]).slope
    except statistics.StatisticsError:
        return math.nan


def bench_csv(rows) -> str:
    """Render bench rows as CSV, one column per :class:`BenchRow` field
    in order and blank for ``None``, with a trailing ``#slope=`` summary
    line."""
    lines = [",".join(field.name for field in fields(BenchRow))]
    for row in rows:
        lines.append(",".join("" if value is None else str(value)
                              for value in astuple(row)))
    lines.append(f"#slope={loglog_slope(rows):.6f}")
    return "\n".join(lines) + "\n"
