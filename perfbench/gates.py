"""Correctness gates for decode outputs, computed apart from the decoder.

Every check here walks the source lattice with the benchmark's own
arithmetic: a forward pass restricted to one label string (the string's
merged weight over all of its paths) and a Viterbi pass (the best single
path). Only the generated arc list is shared with the program under test;
no semiring object, distance table or search code is used.
"""

from __future__ import annotations

import hashlib
import math
import operator

# The CLI prints weights with six decimals; a printed weight matches a
# recomputed one when they differ by at most half of the last digit, plus
# a little slack for float drift across two summation orders.
PRINT_SLACK = 5e-7
DRIFT = 1e-9
# the recorded digest of a lattice whose decode failed when recording
NO_ANSWER = "-" * 8


def _log_add(a: float, b: float) -> float:
    """-ln(e^-a + e^-b) without overflow; +inf is the empty sum."""
    if a == math.inf:
        return b
    if b == math.inf:
        return a
    return min(a, b) - math.log1p(math.exp(-abs(a - b)))


class Reference:
    """The benchmark's own view of one source lattice.

    ``arcs`` are ``(source, label, weight, target)`` in the encoding the
    decoder reads: negated logs when ``real`` is false, probabilities when
    it is true. Arcs must go from lower to higher state ids, which makes
    id order a topological order.
    """

    def __init__(self, num_states: int, initial: int, arcs, finals: dict,
                 real: bool):
        self.real = real
        self.initial = initial
        self.num_states = num_states
        self.finals = dict(finals)
        self.out = [[] for _ in range(num_states)]
        for source, label, weight, target in arcs:
            if not source < target:
                raise ValueError("reference lattices must be id-ordered")
            self.out[source].append((label, weight, target))
        if real:
            self.zero, self.one = 0.0, 1.0
            self.add = operator.add
            self.mul = operator.mul
            self.better = operator.gt
        else:
            self.zero, self.one = math.inf, 0.0
            self.add = _log_add
            self.mul = operator.add
            self.better = operator.lt

    def merged(self, labels) -> float:
        """Merged weight of ``labels``: the sum over every complete path
        spelling it; the semiring zero when no path does."""
        add, mul, zero = self.add, self.mul, self.zero
        alpha = {self.initial: self.one}
        for label in labels:
            step = {}
            for state, mass in alpha.items():
                for arc_label, weight, target in self.out[state]:
                    if arc_label == label:
                        step[target] = add(step.get(target, zero),
                                           mul(mass, weight))
            alpha = step
        total = zero
        for state, mass in alpha.items():
            if state in self.finals:
                total = add(total, mul(mass, self.finals[state]))
        return total

    def best_path_labels(self) -> tuple:
        """Labels of the best single complete path (Viterbi)."""
        mul, better = self.mul, self.better
        best = [None] * self.num_states
        best[self.initial] = (self.one, None, None)
        goal = None
        for state in range(self.num_states):
            if best[state] is None:
                continue
            mass = best[state][0]
            if state in self.finals:
                total = mul(mass, self.finals[state])
                if goal is None or better(total, goal[0]):
                    goal = (total, state)
            for label, weight, target in self.out[state]:
                cand = mul(mass, weight)
                if best[target] is None or better(cand, best[target][0]):
                    best[target] = (cand, state, label)
        if goal is None:
            raise ValueError("the reference lattice accepts no string")
        labels = []
        state = goal[1]
        while best[state][1] is not None:
            labels.append(best[state][2])
            state = best[state][1]
        return tuple(reversed(labels))

    def worse(self, a: float, b: float) -> bool:
        """True when ``a`` is worse than ``b`` beyond float drift."""
        slack = DRIFT * max(1.0, abs(a), abs(b))
        if self.real:
            return a < b - slack
        return a > b + slack


def parse_output(stdout: str):
    """Split the decoder's one output line into labels and weight; returns
    None when the output does not have that shape."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    text, sep, weight = lines[0].partition("\t")
    if not sep:
        return None
    try:
        return tuple(int(tok) for tok in text.split()), float(weight)
    except ValueError:
        return None


def digest(labels) -> str:
    """Eight hex digits identifying a label string; the recorded answers
    are stored in this form."""
    text = " ".join(map(str, labels)).encode()
    return hashlib.sha1(text).hexdigest()[:8]


def check_decode(ref: Reference, code: int, stdout: str):
    """Gate one decode. Returns ``(labels, None)`` on a pass and
    ``(labels or None, reason)`` on a failure."""
    if code != 0:
        return None, f"exit {code}"
    parsed = parse_output(stdout)
    if parsed is None:
        return None, "output is not one 'labels<TAB>weight' line"
    labels, printed = parsed
    weight = ref.merged(labels)
    if weight == ref.zero:
        return labels, "printed string is not accepted by the lattice"
    if abs(printed - weight) > PRINT_SLACK + DRIFT * abs(weight):
        return labels, (f"printed weight {printed} differs from the "
                        f"string's merged weight {weight!r}")
    path_string = ref.merged(ref.best_path_labels())
    if ref.worse(weight, path_string):
        return labels, (f"merged weight {weight!r} is worse than the best "
                        f"path's string {path_string!r}")
    return labels, None
