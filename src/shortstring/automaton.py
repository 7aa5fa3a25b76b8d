"""Acyclic weighted acceptors: data model, validation, and text I/O.

An :class:`Automaton` is a single-initial-state, epsilon-free acceptor whose
weights are ``-ln`` weights of the log semiring (see :mod:`.semiring`),
tagged with the encoding they are read and written in. States are dense
non-negative integers; label 0 is reserved for epsilon and never appears
on a stored arc. Arcs are grouped by source state and sorted by (label,
target, weight) so that subset expansion and weight summation are
deterministic.

The text format is the usual one-record-per-line acceptor format:

    src dst label [weight]     # arc; missing weight means semiring one
    state [weight]             # final state; missing weight means one

Weights are written in the file's encoding: ``-ln p`` for ``log``,
probabilities for ``real``.

The initial state is the source field of the first record. Blank lines
and lines starting with ``#`` are ignored. Labels are integers unless a
symbol table maps tokens to integers. A symbol table file holds lines of
``token id``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import CycleError, ParseError
from .semiring import LOG, ONE, ZERO, Encoding


class Arc(NamedTuple):
    label: int
    weight: float
    target: int


class Automaton:
    """Immutable weighted acceptor.

    ``arcs`` is an iterable of ``(source, label, weight, target)`` tuples and
    ``finals`` maps state to final weight. Weights are ``-ln`` weights
    whatever the ``encoding``, which only says how the automaton's weights
    are written and shown; build from probabilities with ``REAL.to_log``
    or :func:`read_text`. Arcs and final entries whose weight equals the
    semiring zero (``+inf``) denote absence and are silently dropped; the
    drop counts are kept in ``pruned_arcs`` / ``pruned_finals``.
    """

    def __init__(self, encoding: Encoding, num_states: int, initial: int,
                 arcs: Iterable[tuple], finals: dict):
        if num_states < 1:
            raise ValueError("an automaton needs at least one state")
        if not 0 <= initial < num_states:
            raise ValueError(f"initial state {initial} out of range")
        per_state = [[] for _ in range(num_states)]
        pruned_arcs = 0
        for source, label, weight, target in arcs:
            if not 0 <= source < num_states:
                raise ValueError(f"arc source {source} out of range")
            weight = float(weight)
            if weight == ZERO:
                pruned_arcs += 1
                continue
            per_state[source].append(Arc(int(label), weight, int(target)))
        for lst in per_state:
            lst.sort(key=lambda arc: (arc.label, arc.target, arc.weight))
        kept = {}
        pruned_finals = 0
        for state, weight in sorted(finals.items()):
            weight = float(weight)
            if weight == ZERO:
                pruned_finals += 1
                continue
            kept[int(state)] = weight
        self.encoding = encoding
        self.num_states = num_states
        self.initial = initial
        self.pruned_arcs = pruned_arcs
        self.pruned_finals = pruned_finals
        self._arcs = tuple(tuple(lst) for lst in per_state)
        self._finals = kept
        self._order = None  # memo of topological_order, once it succeeded

    @property
    def finals(self):
        return MappingProxyType(self._finals)

    def arcs(self, state: int) -> tuple:
        return self._arcs[state]

    def all_arcs(self) -> Iterator[tuple]:
        for source, lst in enumerate(self._arcs):
            for arc in lst:
                yield source, arc.label, arc.weight, arc.target

    def num_arcs(self) -> int:
        return sum(len(lst) for lst in self._arcs)

    def final_weight(self, state: int) -> float:
        return self._finals.get(state, ZERO)

    def is_final(self, state: int) -> bool:
        return state in self._finals

    def __repr__(self):
        return (f"Automaton({self.encoding.name}, states={self.num_states}, "
                f"arcs={self.num_arcs()}, finals={len(self._finals)})")


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(self.violations)


def validate(a: Automaton) -> ValidationReport:
    """Check the full acceptor contract; reports every violation found.

    A valid automaton is acyclic and epsilon-free, every weight is a member
    of the log semiring (neither NaN nor ``-inf``), and every referenced
    state is in range.
    """
    violations = []
    targets_ok = True
    for source, label, weight, target in a.all_arcs():
        if label == 0:
            violations.append(f"epsilon arc {source}->{target} (label 0 is reserved)")
        elif label < 0:
            violations.append(f"negative label {label} on arc {source}->{target}")
        if not 0 <= target < a.num_states:
            violations.append(f"arc target {target} out of range on arc from {source}")
            targets_ok = False
        if not LOG.is_member(weight):
            violations.append(f"arc weight {weight!r} on {source}->{target} is not "
                              f"a member of the log semiring")
    for state, weight in a.finals.items():
        if not 0 <= state < a.num_states:
            violations.append(f"final state {state} out of range")
        if not LOG.is_member(weight):
            violations.append(f"final weight {weight!r} of state {state} is not "
                              f"a member of the log semiring")
    if targets_ok:
        try:
            topological_order(a)
        except CycleError as exc:
            violations.append(str(exc))
    return ValidationReport(tuple(violations))


def topological_order(a: Automaton) -> list:
    """States ordered so every arc goes forward; smallest-id-first among
    ready states, so the result is unique. Raises :class:`CycleError` on
    cyclic input, naming one back arc. The order is computed once per
    automaton and returned as a fresh list on every call."""
    if a._order is not None:
        return list(a._order)
    indegree = [0] * a.num_states
    for _, _, _, target in a.all_arcs():
        indegree[target] += 1
    ready = [q for q in range(a.num_states) if indegree[q] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        q = heapq.heappop(ready)
        order.append(q)
        for arc in a.arcs(q):
            indegree[arc.target] -= 1
            if indegree[arc.target] == 0:
                heapq.heappush(ready, arc.target)
    if len(order) < a.num_states:
        raise CycleError(f"cycle detected: arc {_find_back_arc(a)} closes a loop")
    a._order = tuple(order)
    return order


def _find_back_arc(a: Automaton) -> str:
    # DFS with an on-stack set; returns "u->v" for one arc inside a cycle.
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * a.num_states
    for root in range(a.num_states):
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        color[root] = GREY
        while stack:
            q, i = stack[-1]
            arcs = a.arcs(q)
            if i < len(arcs):
                stack[-1] = (q, i + 1)
                t = arcs[i].target
                if color[t] == GREY:
                    return f"{q}->{t}"
                if color[t] == WHITE:
                    color[t] = GREY
                    stack.append((t, 0))
            else:
                color[q] = BLACK
                stack.pop()
    return "?"


class SymbolTable:
    """Bijection between token strings and positive integer labels.

    Only the reserved epsilon token may map to 0; it never labels an arc.
    """

    def __init__(self, mapping: Optional[dict] = None):
        self._label_of = {}
        self._token_of = {}
        if mapping:
            for token, label in mapping.items():
                self.add(token, label)

    def add(self, token: str, label: int) -> None:
        if token in self._label_of or label in self._token_of:
            raise ValueError(f"symbol table entry {token!r}/{label} conflicts "
                             f"with an existing entry")
        self._label_of[token] = label
        self._token_of[label] = token

    def label(self, token: str) -> int:
        return self._label_of[token]

    def token(self, label: int) -> str:
        return self._token_of[label]

    def has_label(self, label: int) -> bool:
        return label in self._token_of

    def __contains__(self, token: str) -> bool:
        return token in self._label_of

    def __len__(self):
        return len(self._label_of)

    def items(self):
        return self._label_of.items()

    @classmethod
    def from_text(cls, text: str) -> "SymbolTable":
        table = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ParseError("expected 'token id'", lineno)
            try:
                label = int(fields[1])
            except ValueError:
                raise ParseError(f"bad symbol id {fields[1]!r}", lineno) from None
            try:
                table.add(fields[0], label)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        return table

    def to_text(self) -> str:
        lines = [f"{token} {label}" for token, label in
                 sorted(self._label_of.items(), key=lambda kv: kv[1])]
        return "\n".join(lines) + "\n" if lines else ""


def _parse_int(field: str, what: str, lineno: int) -> int:
    try:
        value = int(field)
    except ValueError:
        raise ParseError(f"bad {what} {field!r}", lineno) from None
    if value < 0:
        raise ParseError(f"negative {what} {field!r}", lineno)
    return value


def _parse_weight(field: str, encoding: Encoding, lineno: int) -> float:
    try:
        weight = float(field)
    except ValueError:
        raise ParseError(f"bad weight {field!r}", lineno) from None
    if not encoding.is_member(weight):
        raise ParseError(f"weight {field!r} is not a member of the "
                         f"{encoding.name} semiring", lineno)
    return encoding.to_log(weight)


def read_text(text: str, encoding: Encoding,
              symbols: Optional[SymbolTable] = None) -> Automaton:
    """Parse the acceptor text format into an :class:`Automaton`.

    Weights are checked against ``encoding`` and stored as ``-ln`` weights.
    The source state of the first record becomes the initial state. Labels
    are looked up in ``symbols`` when given, else parsed as integers; label
    0 is rejected. Omitted weights default to the semiring one.
    """
    arcs = []
    finals = {}
    initial = None
    max_state = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) in (1, 2):
            state = _parse_int(fields[0], "state", lineno)
            weight = (_parse_weight(fields[1], encoding, lineno)
                      if len(fields) == 2 else ONE)
            if state in finals:
                raise ParseError(f"duplicate final weight for state {state}", lineno)
            finals[state] = weight
            max_state = max(max_state, state)
            if initial is None:
                initial = state
        elif len(fields) in (3, 4):
            src = _parse_int(fields[0], "source state", lineno)
            dst = _parse_int(fields[1], "target state", lineno)
            if symbols is not None:
                try:
                    label = symbols.label(fields[2])
                except KeyError:
                    raise ParseError(f"unknown token {fields[2]!r}", lineno) from None
            else:
                label = _parse_int(fields[2], "label", lineno)
            if label == 0:
                raise ParseError("label 0 is reserved for epsilon", lineno)
            weight = (_parse_weight(fields[3], encoding, lineno)
                      if len(fields) == 4 else ONE)
            arcs.append((src, label, weight, dst))
            max_state = max(max_state, src, dst)
            if initial is None:
                initial = src
        else:
            raise ParseError(f"expected 1-4 fields, got {len(fields)}", lineno)
    if initial is None:
        raise ParseError("no records found")
    return Automaton(encoding, max_state + 1, initial, arcs, finals)


def write_text(a: Automaton, symbols: Optional[SymbolTable] = None) -> str:
    """Serialize to the acceptor text format; inverse of :func:`read_text`.

    The initial state's block comes first so it is re-read as initial.
    Weights are written in the automaton's encoding with full round-trip
    precision (``log`` weights are re-read bit for bit; ``real`` ones go
    through ``exp`` and ``ln`` and may move by an ulp). States that carry
    no arc, no final weight, and no incoming arc are not representable in
    the format and are dropped on a round trip.
    """
    if not a.arcs(a.initial) and not a.is_final(a.initial):
        raise ValueError("initial state has no arcs and no final weight; "
                         "the text format cannot represent it")
    from_log = a.encoding.from_log
    lines = []
    order = [a.initial] + [q for q in range(a.num_states) if q != a.initial]
    for q in order:
        for label, weight, target in a.arcs(q):
            token = symbols.token(label) if symbols is not None else str(label)
            lines.append(f"{q} {target} {token} {from_log(weight)!r}")
        if a.is_final(q):
            lines.append(f"{q} {from_log(a.final_weight(q))!r}")
    return "\n".join(lines) + "\n"
