"""The acceptor text format: symbol tables, and parsing records.

One record per line:

    src dst label [weight]     # arc; missing weight means semiring one
    state [weight]             # final state; missing weight means one

Weights are written in the file's encoding: ``-ln p`` for ``log``,
probabilities for ``real``. The initial state is the source field of the
first record. Blank lines and lines starting with ``#`` are ignored.
Labels are integers unless a symbol table maps tokens to integers. A
symbol table file holds lines of ``token id``, each id a non-negative
integer.

:func:`read_records` accepts a text only when every state id is a
non-negative integer, every label is positive (or a known token), every
weight is a member of the encoding and no state has two final weights;
the states are 0 up to the largest id. Otherwise it raises
:class:`ParseError` for the first bad record in file order, with its line
number. Records are converted and checked a column at a time; only when
a column fails are the lines walked one by one, with the same checks, to
find and word that record. :func:`.automaton.read_text` builds the
automaton from the records.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Optional

from .errors import ParseError
from .semiring import ONE, Encoding


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
            label = _parse_int(fields[1], "symbol id", lineno)
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


def _check_weight(field: str, encoding: Encoding, lineno: int) -> None:
    try:
        weight = float(field)
    except ValueError:
        raise ParseError(f"bad weight {field!r}", lineno) from None
    if not encoding.is_member(weight):
        raise ParseError(f"weight {field!r} is not a member of the "
                         f"{encoding.name} semiring", lineno)


class _Rejected(Exception):
    """A bulk check of :func:`read_records` failed; the lines are then
    walked one by one to find and word the first bad record."""


# lines split at a time: bounds the memory the split fields of a long
# text take, while a typical lattice file is one block
_BLOCK = 4096
_ARC_SIZES = frozenset((3, 4))
_FINAL_SIZES = frozenset((1, 2))


def read_records(text: str, encoding: Encoding,
                 symbols: Optional[SymbolTable] = None) -> tuple:
    """The records of an acceptor text as ``(num_states, initial, arcs,
    finals)``: ``arcs`` lists ``(source, label, weight, target)`` tuples
    in file order and ``finals`` maps states to final weights, with
    ``-ln`` weights. Raises :class:`ParseError` for the first bad
    record in file order, with its line number, and without one for a
    text that holds no record."""
    try:
        return _read_columns(text, encoding, symbols)
    except _Rejected:
        _raise_first_error(text.splitlines(), encoding, symbols)


def _read_columns(text: str, encoding: Encoding,
                  symbols: Optional[SymbolTable]) -> tuple:
    # Bulk path: split the lines a block at a time, group the records by
    # field count and convert and check whole columns. Every check here is
    # one that _raise_first_error also makes, so a rejected text always
    # has a bad line for it to find.
    lines = text.splitlines()
    has_comments = "#" in text
    first = next((fields for fields in map(str.split, lines)
                  if fields and fields[0][0] != "#"), None)
    if first is None:
        raise ParseError("no records found")
    arcs, states, weights = [], [], []
    max_state = 0
    for start in range(0, len(lines), _BLOCK):
        block = _read_block(lines[start:start + _BLOCK], has_comments,
                            encoding, symbols)
        arcs += block[0]
        states += block[1]
        weights += block[2]
        max_state = max(max_state, block[3])
    finals = dict(zip(states, weights))
    if len(finals) < len(states):
        raise _Rejected     # a state has two final weights
    return max_state + 1, int(first[0]), arcs, finals


def _read_block(lines, has_comments, encoding, symbols) -> tuple:
    """Arcs, final states, final weights and the largest state id of the
    records in ``lines``."""
    records = list(map(str.split, lines))
    if has_comments:
        records = [fields for fields in records
                   if fields and fields[0][0] != "#"]
    sizes = list(map(len, records))     # blank lines have no fields
    if max(sizes, default=0) > 4:
        raise _Rejected
    arc_records = list(compress(records, map(_ARC_SIZES.__contains__, sizes)))
    final_records = list(compress(records,
                                  map(_FINAL_SIZES.__contains__, sizes)))
    sources = _int_column(arc_records, 0)
    targets = _int_column(arc_records, 1)
    states = _int_column(final_records, 0)
    max_state = max(max(sources, default=0), max(targets, default=0),
                    max(states, default=0))
    return (list(zip(sources, _label_column(arc_records, symbols),
                     _weight_column(arc_records, 4, encoding), targets)),
            states, _weight_column(final_records, 2, encoding), max_state)


def _int_column(rows, field: int) -> list:
    # non-negative integers, as _parse_int requires
    try:
        values = list(map(int, map(itemgetter(field), rows)))
    except ValueError:
        raise _Rejected from None
    if min(values, default=0) < 0:
        raise _Rejected
    return values


def _label_column(rows, symbols: Optional[SymbolTable]) -> list:
    if symbols is None:
        labels = _int_column(rows, 2)
    else:
        try:
            labels = list(map(symbols.label, map(itemgetter(2), rows)))
        except KeyError:
            raise _Rejected from None
    if 0 in labels:
        raise _Rejected
    return labels


def _weight_column(rows, width: int, encoding: Encoding) -> list:
    # rows of `width` fields end in a weight; shorter ones weigh one
    weighted = list(map(width.__eq__, map(len, rows)))
    try:
        written = list(map(float, map(itemgetter(width - 1),
                                      compress(rows, weighted))))
    except ValueError:
        raise _Rejected from None
    if not encoding.all_members(written):
        raise _Rejected
    weights = encoding.to_log_all(written)
    if len(weights) < len(rows):
        given = iter(weights)
        weights = [next(given) if has else ONE for has in weighted]
    return weights


def _raise_first_error(lines, encoding: Encoding,
                       symbols: Optional[SymbolTable]):
    """Raise the :class:`ParseError` of the first bad record in ``lines``."""
    finals = set()
    for lineno, raw in enumerate(lines, 1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) in (1, 2):
            state = _parse_int(fields[0], "state", lineno)
            if len(fields) == 2:
                _check_weight(fields[1], encoding, lineno)
            if state in finals:
                raise ParseError(f"duplicate final weight for state {state}", lineno)
            finals.add(state)
        elif len(fields) in (3, 4):
            _parse_int(fields[0], "source state", lineno)
            _parse_int(fields[1], "target state", lineno)
            if symbols is not None:
                try:
                    label = symbols.label(fields[2])
                except KeyError:
                    raise ParseError(f"unknown token {fields[2]!r}", lineno) from None
            else:
                label = _parse_int(fields[2], "label", lineno)
            if label == 0:
                raise ParseError("label 0 is reserved for epsilon", lineno)
            if len(fields) == 4:
                _check_weight(fields[3], encoding, lineno)
        else:
            raise ParseError(f"expected 1-4 fields, got {len(fields)}", lineno)
    raise RuntimeError("a bulk check rejected a text whose every record parses")
