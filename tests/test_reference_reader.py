"""read_text against a reference reader that reads one line at a time.

The reference states each rule of the text format once per record, in
the order a record's fields are read: the field count, then the source,
target, label and weight of an arc, or the state and weight of a final
entry, then a repeated final state. It shares no code with read_text
but the encoding's conversion of one value and the Automaton
constructor. On a seeded corpus of mutated lattice texts in both
encodings, the two must build the same automaton or raise the same
error with the same line.
"""

import math
import random

from shortstring import (LOG, REAL, Automaton, LatticeSpec, ParseError,
                         SymbolTable, generate, read_text, write_text)

from conftest import arc_columns, to_real

INF = math.inf


def reference_read(text, encoding, symbols=None):
    """The automaton ``text`` describes, read a record at a time."""
    initial, arcs, finals = None, [], {}
    for lineno, line in enumerate(text.split("\n"), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            if len(fields) > 4:
                raise ParseError(f"expected 1-4 fields, got {len(fields)}")
            if len(fields) >= 3:
                state = _integer(fields[0], "source state")
                target = _integer(fields[1], "target state")
                label = _label(fields[2], symbols)
                weight = _weight(fields[3:], encoding)
                arcs.append((state, label, weight, target))
            else:
                state = _integer(fields[0], "state")
                weight = _weight(fields[1:], encoding)
                if state in finals:
                    raise ParseError(f"duplicate final weight for state "
                                     f"{state}")
                finals[state] = weight
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        if initial is None:
            initial = state
    if initial is None:
        raise ParseError("no records found")
    ids = [initial, *finals] + [q for s, _, _, t in arcs for q in (s, t)]
    return Automaton(encoding, max(ids) + 1, initial, arc_columns(arcs),
                     finals)


def _integer(text, what):
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}") from None
    if value < 0:
        raise ParseError(f"negative {what} {text!r}")
    return value


def _label(text, symbols):
    if symbols is None:
        label = _integer(text, "label")
    elif text in symbols:
        label = symbols.label(text)
    else:
        raise ParseError(f"unknown token {text!r}")
    if label == 0:
        raise ParseError("label 0 is reserved for epsilon")
    return label


def _weight(given, encoding):
    # a record without its weight field weighs one, -ln 1 = 0
    if not given:
        return 0.0
    text = given[0]
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad weight {text!r}") from None
    weight = encoding.to_log(value)
    if math.isnan(weight) or weight == -INF:
        raise ParseError(f"weight {text!r} is not a member of the "
                         f"{encoding.name} semiring")
    # only a written zero is no arc: a mantissa with a nonzero digit that
    # float() rounds to zero is below the float range
    mantissa = text.lower().partition("e")[0]
    if (weight == INF and value == 0.0
            and any(char.isdecimal() and int(char) for char in mantissa)):
        raise ParseError(f"weight {text!r} is below the float range and "
                         f"would read as zero")
    return weight


def _outcome(read, text, encoding, symbols=None):
    # every field of the automaton built, weights bit for bit, or the
    # type, message and line of the refusal
    try:
        a = read(text, encoding, symbols)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return ("ok", a.num_states, a.initial, a.pruned_arcs, a.pruned_finals,
            a.min_arc_weight.hex(),
            [[(label, weight.hex(), target) for label, weight, target
              in a.arcs(q)] for q in range(a.num_states)],
            [(q, weight.hex()) for q, weight in a.finals.items()])


ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _same_id(text):
    # spellings of an id that int() reads as the same id
    return [f"+{text}", f"000{text}", "_".join(text) if len(text) > 1
            else f"0_{text}", text.translate(ARABIC)]


WEIGHTS = ["+0.5", "1_0.5", "Infinity", "-0.0", "0e5", "0", "٠.٥",
           "1e-400", "-1e-400", "3E-999", "0." + "0" * 400 + "1", "2.5",
           "nan", "-inf", "inf", "-0.25"]
BAD = ["x", "-1", "0", "1.5", "1_000", "nan", "-inf", "inf", "-0.25",
       "_3", "0x1", "zzz", "#9"]


def _mutate(lines, rng, symbols):
    """One random edit of a record of ``lines``, in place."""
    records = [i for i, line in enumerate(lines)
               if line.split() and not line.startswith("#")]
    i = rng.choice(records)
    fields = lines[i].split()
    kind = rng.randrange(6)
    if kind == 0:       # an id or label spelled another way
        j = rng.randrange(min(len(fields), 3))
        if symbols is None or j < 2:
            fields[j] = rng.choice(_same_id(fields[j]))
    elif kind == 1 and len(fields) in (2, 4):
        fields[-1] = rng.choice(WEIGHTS)
    elif kind == 2:
        fields[rng.randrange(len(fields))] = rng.choice(BAD)
    elif kind == 3 and len(fields) in (2, 4):
        fields.pop()    # weighs one
    elif kind == 4:
        fields.append(rng.choice(["9", "0.5"]))
    elif kind == 5:
        lines.insert(i, rng.choice(["", "   ", "# note", "  #x 1 2 3 4 5"]))
        return
    lines[i] = " ".join(fields)


def _corpus(rng):
    """(text, encoding, symbols) triples: latgen lattices in both
    encodings, some with token labels, each edited one to three times."""
    symbols = SymbolTable.from_text("<eps> 0\na 1\nb 2\nc 3\nd 4\n")
    for seed in range(200):
        lattice = generate(LatticeSpec(depth=rng.randint(1, 5),
                                       width=rng.randint(1, 4),
                                       vocab=rng.randint(1, 4),
                                       merge_prob=rng.choice([0.0, 0.4]),
                                       seed=seed))
        for encoding in (LOG, REAL):
            a = lattice if encoding is LOG else to_real(lattice)
            table = symbols if seed % 5 == 0 else None
            lines = write_text(a, table).splitlines()
            for _ in range(rng.randint(1, 3)):
                _mutate(lines, rng, table)
            if rng.random() < 0.2:      # repeat a final state
                finals = [line for line in lines if len(line.split()) in (1, 2)]
                if finals:
                    lines.insert(rng.randrange(len(lines) + 1),
                                 rng.choice(finals))
            yield "\n".join(lines) + "\n", encoding, table


def _long_texts(rng):
    """Texts of more than one 4,096-line block, each with a bad record in
    the second block, a final state of the first block repeated in the
    second, or a lenient record there."""
    chain = [f"{q} {q + 1} {1 + q % 3} 0.5" for q in range(5000)]
    edits = ["4500 4501 1 x", "0 0.25", "٤٥٠٠ +4501 0002 1_0.5",
             "4500 4501 1", "4500 4501 0 0.5", "9"]
    for line in edits:
        for encoding in (LOG, REAL):
            lines = ["0 0.5", "# head"] + chain + ["5000 0.5"]
            lines.insert(rng.randint(4200, len(lines)), line)
            if rng.random() < 0.5:
                lines.insert(rng.randint(2, 4000), "9")
            yield "\n".join(lines) + "\n", encoding, None


# one block whose records are out of field-count order: arcs of 4 and 3
# fields, finals of 2 and 1, a blank line, a comment, then a 4-field arc
# whose weight is one in log and no arc in real
MIXED_ORDER = ("0 1 2 0.5\n0 2 1\n2 0.25\n1\n\n# note\n1 2 3 0\n")


class TestReferenceReader:
    def test_lenient_forms_read_alike(self):
        text = ("+0 0003 1 1_0.5\n0_0 ٢ 2 +0.25\n"
                "2 3 1_0\n0003 Infinity\n٢\n")
        for encoding in (LOG, REAL):
            for given in (text, MIXED_ORDER):
                ours = _outcome(read_text, given, encoding)
                assert ours == _outcome(reference_read, given, encoding)
        assert _outcome(read_text, MIXED_ORDER, LOG)[:4] == ("ok", 3, 0, 0)
        assert _outcome(read_text, MIXED_ORDER, REAL)[:4] == ("ok", 3, 0, 1)
        assert _outcome(read_text, text, LOG)[:3] == ("ok", 4, 0)
        assert _outcome(read_text, text, REAL)[1:] == (
            "line 4: weight 'Infinity' is not a member of the real semiring", 4)

    def test_mutated_corpus(self):
        rng = random.Random(25)
        seen = {"ok": 0, "error": 0, "second block": 0}
        for text, encoding, symbols in [*_corpus(rng), *_long_texts(rng)]:
            ours = _outcome(read_text, text, encoding, symbols)
            assert ours == _outcome(reference_read, text, encoding, symbols), \
                text[:400]
            seen["ok" if ours[0] == "ok" else "error"] += 1
            if ours[0] == "ParseError" and (ours[2] or 0) > 4096:
                seen["second block"] += 1
        assert seen["ok"] >= 60 and seen["error"] >= 60, seen
        assert seen["second block"] >= 4, seen
