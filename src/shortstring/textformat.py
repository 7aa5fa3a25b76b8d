"""The acceptor text format: symbol tables, reading and writing.

One record per line:

    src dst label [weight]     # arc; missing weight means semiring one
    state [weight]             # final state; missing weight means one

Weights are written in the file's encoding: ``-ln p`` for ``log``,
probabilities for ``real``. The initial state is the source field of the
first record. Blank lines and lines starting with ``#`` are ignored.
Lines end at ``"\n"`` only; the other breaks of :meth:`str.splitlines`,
such as a form feed, are whitespace, so a comment that holds one is one.
Labels are integers unless a symbol table maps tokens to integers. A
symbol table file holds lines of ``token id``, each id a non-negative
integer.

:func:`read_text` accepts a text only when every state id is a
non-negative integer, every label is positive (or a known token), every
weight is a member of the encoding (it converts to a ``-ln`` weight, see
:func:`.semiring.members`), no weight is a nonzero value that
``float`` rounds to a zero the encoding reads as no arc (a ``real``
probability below the float range) and no state has two final weights;
the states are 0 up to the largest id. Otherwise it raises
:class:`ParseError` for the first bad record in file order, with its line
number. A block of lines at a time, the records are sorted stably by
field count; two bisections split off the final entries (1-2 fields) and
the arcs (3-4), each in file order, and each kind is transposed once
into columns, converted and checked whole. Sources, targets and final
states share one id space: each distinct id text of a block is converted
once. Each check is stated once, in the column readers: a failing
block's lines are read again one at a time through them, and the first
that fails on its own is the bad record. A failing id, judged by the one
id rule in ``_int_values``, is worded by reading its columns alone:
sources, targets, then final states. The first block's arc columns,
extended by the rest, go as they are to :class:`.automaton.Automaton`
once the split lines are dropped: no copy of the data outlives its use.
:func:`write_text` writes an :class:`.automaton.Automaton` back in the
format, and refuses a weight whose written value :func:`read_text` would
refuse or read as no arc.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import itemgetter
from typing import Optional
from unicodedata import decimal

from .automaton import Automaton
from .errors import ParseError
from .semiring import INF, ONE, Encoding, members


class SymbolTable:
    """Bijection between token strings and positive integer labels.

    Only the reserved epsilon token may map to 0; it never labels an arc.
    """

    def __init__(self):
        self._label_of = {}
        self._token_of = {}

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

    @classmethod
    def from_text(cls, text: str) -> "SymbolTable":
        table = cls()
        for lineno, raw in enumerate(text.split("\n"), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ParseError("expected 'token id'", lineno)
            try:
                (label,) = _int_column((fields[1],), "symbol id")
                table.add(fields[0], label)
            except ValueError as exc:   # ParseError is one too
                raise ParseError(str(exc), lineno) from None
        return table

    def to_text(self) -> str:
        lines = [f"{token} {label}" for token, label in
                 sorted(self._label_of.items(), key=lambda kv: kv[1])]
        return "\n".join(lines) + "\n" if lines else ""


# lines split at a time: bounds the memory the split fields of a long
# text take, while a typical lattice file is one block
_BLOCK = 4096


def read_text(text: str, encoding: Encoding,
              symbols: Optional[SymbolTable] = None) -> Automaton:
    """The automaton an acceptor text in ``encoding`` describes, its
    labels looked up in ``symbols`` when given, with ``-ln`` weights.
    Raises :class:`ParseError` for the first bad record in file order,
    with its line number, and without one for a text that holds no
    record."""
    lines = text.split("\n")
    has_comments = "#" in text
    columns = ()    # sources, labels, weights, targets, once a block is read
    finals = {}
    initial = None
    max_state = 0
    for start in range(0, len(lines), _BLOCK):
        block = lines[start:start + _BLOCK]
        try:
            block_columns, block_finals, block_max, first = _read_block(
                block, has_comments, encoding, symbols, finals)
        except ParseError:
            # reread the block a line at a time: the first line that fails
            # on its own, or repeats a final state, is the bad record
            for lineno, line in enumerate(block, start + 1):
                try:
                    finals.update(_read_block((line,), has_comments, encoding,
                                              symbols, finals)[1])
                except ParseError as exc:
                    raise ParseError(str(exc), lineno) from None
            raise   # each check is per record, so a line has failed above
        for column, part in zip(columns, block_columns):
            column += part
        columns = columns or block_columns  # the first block's, as they are
        finals.update(block_finals)
        max_state = max(max_state, block_max)
        if initial is None:
            initial = first
    # the split lines are not needed past here: drop them before the
    # automaton is built
    del lines, block
    if initial is None:
        raise ParseError("no records found")
    return Automaton(encoding, max_state + 1, initial, columns, finals)


def write_text(a: Automaton, symbols: Optional[SymbolTable] = None) -> str:
    """Serialize to the acceptor text format; inverse of :func:`read_text`.

    The initial state's block comes first so it is re-read as initial.
    Weights are written in the automaton's encoding with full round-trip
    precision: ``log`` weights are re-read bit for bit. ``real`` ones go
    through ``exp`` and ``ln``; they may move by an ulp while the
    probability is a normal float, and by more below about 2.2e-308,
    where it is subnormal and keeps fewer digits. Each written value is
    read back by the encoding, and one that :func:`read_text` would read
    as zero (no arc) or refuse raises :class:`ValueError` naming its
    record: in ``real``, a ``-ln`` weight above about 745.13, whose
    probability rounds to ``0.0``, or below about -709.78, whose
    probability overflows to ``inf``. States that carry no arc, no final
    weight, and no incoming arc are not representable in the format and
    are dropped on a round trip.
    """
    if not a.arcs(a.initial) and a.initial not in a.finals:
        raise ValueError("initial state has no arcs and no final weight; "
                         "the text format cannot represent it")
    encoding = a.encoding
    lines = []
    order = [a.initial] + [q for q in range(a.num_states) if q != a.initial]
    for q in order:
        records = []
        for label, weight, target in a.arcs(q):
            token = symbols.token(label) if symbols is not None else label
            records.append((f"{q} {target} {token}", weight))
        if q in a.finals:
            records.append((str(q), a.finals[q]))
        for record, weight in records:
            written = encoding.from_log(weight)
            read = encoding.to_log(written)
            if read == INF or not members((read,)):
                reason = ("reads as no arc" if read == INF else f"is not a "
                          f"member of the {encoding.name} semiring")
                raise ValueError(f"record '{record}': weight {weight!r} "
                                 f"would be written as {written!r}, which "
                                 f"{reason}")
            lines.append(f"{record} {written!r}")
    return "\n".join(lines) + "\n"


def _read_block(lines, has_comments, encoding, symbols, finals) -> tuple:
    """The arc columns ``(sources, labels, weights, targets)``, final
    weights, the largest state id and the first record's state id
    (``None`` when the block holds no record) of the records in
    ``lines``; a state that is final in ``finals`` may not be final
    again. A :class:`ParseError` is worded from the first record, by field
    count, that the failing check reads: the bad one in a block of one."""
    records = list(map(str.split, lines))
    if has_comments:
        records = [fields for fields in records
                   if fields and fields[0][0] != "#"]
    first = next(filter(None, records), None)
    records.sort(key=len)   # stable: each field count keeps file order
    if records and len(records[-1]) > 4:
        raise ParseError(f"expected 1-4 fields, got {len(records[-1])}")
    arcs_at = bisect_left(records, 3, key=len)
    final_records = records[bisect_left(records, 1, key=len):arcs_at]
    arc_records = records[arcs_at:]
    # the records' fields a column each; zip stops at the shortest
    # record, so the last column is the weights only when every record
    # carries one
    arc_columns = list(zip(*arc_records)) or [()] * 3
    final_columns = list(zip(*final_records)) or [()]
    sources, targets, label_texts = arc_columns[:3]
    states = final_columns[0]
    ids = _id_map((sources, "source state"), (targets, "target state"),
                  (states, "state"))
    id_of = ids.__getitem__
    arcs = (list(map(id_of, sources)), _label_column(label_texts, symbols),
            _weight_column(arc_records, arc_columns, 4, encoding),
            list(map(id_of, targets)))
    fresh = dict(zip(map(id_of, states),
                     _weight_column(final_records, final_columns, 2,
                                    encoding)))
    if len(fresh) < len(states) or not finals.keys().isdisjoint(fresh):
        raise ParseError(f"duplicate final weight for state "
                         f"{id_of(states[0])}")
    initial = None if first is None else id_of(first[0])
    return arcs, fresh, max(ids.values(), default=0), initial


def _id_map(*columns) -> dict:
    # sources, targets and final states share one id space, so each
    # distinct text of the (column, what) pairs is converted once; a
    # failure is worded by the first column that fails on its own
    try:
        return _int_values(set().union(*(fields for fields, _ in columns)),
                           "state")
    except ParseError:
        for fields, what in columns:
            _int_column(fields, what)
        raise


def _int_column(fields, what: str) -> list:
    # ids repeat, so each distinct text is converted once
    return list(map(_int_values(set(fields), what).__getitem__, fields))


def _int_values(texts, what: str) -> dict:
    # the set's texts mapped to their non-negative int values: the one id
    # rule, worded from a text of the set, so shown only for a set of one
    try:
        value_of = dict(zip(texts, map(int, texts)))
    except ValueError:
        raise ParseError(f"bad {what} {next(iter(texts))!r}") from None
    if min(value_of.values(), default=0) < 0:
        raise ParseError(f"negative {what} {next(iter(texts))!r}")
    return value_of


def _label_column(fields, symbols: Optional[SymbolTable]) -> list:
    if symbols is None:
        labels = _int_column(fields, "label")
    else:
        try:
            labels = list(map(symbols.label, fields))
        except KeyError:
            raise ParseError(f"unknown token {fields[0]!r}") from None
    if 0 in labels:
        raise ParseError("label 0 is reserved for epsilon")
    return labels


def _weight_column(rows, columns, width: int, encoding: Encoding) -> list:
    # rows of `width` fields end in a weight and the shorter ones weigh
    # one; `columns`, the rows transposed, ends in the weights when every
    # row has one
    weighted = None
    if len(columns) == width:
        fields = columns[-1]
    else:
        weighted = list(map(width.__eq__, map(len, rows)))
        fields = list(map(itemgetter(width - 1), compress(rows, weighted)))
    try:
        written = list(map(float, fields))
    except ValueError:
        raise ParseError(f"bad weight {fields[0]!r}") from None
    # a value the encoding may not write converts to no -ln weight
    weights = encoding.to_log_all(written)
    if not members(weights):
        raise ParseError(f"weight {fields[0]!r} is not a member of the "
                         f"{encoding.name} semiring")
    # a written zero is no arc; a nonzero value that float() rounds to
    # zero, a real probability below the float range, is refused instead
    if INF in weights:
        for text, value, weight in zip(fields, written, weights):
            if weight == INF and value == 0.0 and _nonzero(text):
                raise ParseError(f"weight {fields[0]!r} is below the float "
                                 f"range and would read as zero")
    if weighted is not None:
        given = iter(weights)
        weights = [next(given) if has else ONE for has in weighted]
    return weights


def _nonzero(text: str) -> bool:
    # whether a float literal has a nonzero digit before any exponent
    mantissa = text.lower().partition("e")[0]
    return any(decimal(char, 0) for char in mantissa)
