"""Shared fixtures: the four-state reference lattice and random instances.

The reference lattice ("E1") is a log-semiring acceptor with two paths
spelling "a b" (weights 1.2 and 1.4) plus a lone "c" path (0.9); its
merged "a b" weight beats "c" even though "c" is the best single path,
which is the behaviour the whole package exists to decode correctly.

Expected values below were frozen from an independent derivation:
direct high-precision log-sum-exp over the enumerated path weights,
computed before and apart from the library code.
"""

import random

import pytest

from shortstring import (Automaton, LatticeSpec, LOG, REAL, generate,
                         read_text, write_text)

A, B, C = 1, 2, 3

LN2 = 0.6931471805599453
# -ln(e^-1.2 + e^-1.4)
SIGMA_AB = 0.6018611306184081
SIGMA_C = 0.9
# -ln(e^-1.2 + e^-1.4 + e^-0.9)
E1_TOTAL = 0.046713444670750746
# 0.5 (+) 0.5 = 0.5 - ln 2
D_A = -0.1931471805599453
# (ln2 + 0.7) (+) (ln2 + 0.9)
D_B = 0.7950083111783535
# 1.0 (+) 1.0 = 1 - ln 2
PLUS_ONE_ONE = 0.3068528194400547

E1_ARCS = [
    (0, A, 0.5, 1),
    (0, A, 0.5, 2),
    (1, B, 0.7, 3),
    (2, B, 0.9, 3),
    (0, C, 0.9, 3),
]


def arc_columns(arcs):
    """The ``(sources, labels, weights, targets)`` columns that
    ``Automaton()`` takes, from ``(source, label, weight, target)`` arc
    tuples in their order."""
    return tuple(map(list, zip(*arcs))) or ([], [], [], [])


E1_TEXT = """\
0 1 a 0.5
0 2 a 0.5
0 3 c 0.9
1 3 b 0.7
2 3 b 0.9
3 0.0
"""

E1_SYMBOLS_TEXT = """\
<eps> 0
a 1
b 2
c 3
"""


def make_e1():
    return Automaton(LOG, 4, 0, arc_columns(E1_ARCS), {3: 0.0})


@pytest.fixture
def e1():
    return make_e1()


def small_instance(seed):
    """Deterministic random lattice with at most 12 states and vocab <= 4."""
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    depth = rng.randint(1, min(6, 11 // width))
    return generate(LatticeSpec(
        depth=depth, width=width, vocab=rng.randint(1, 4),
        skew=rng.choice([0.5, 1.0, 2.0]), merge_prob=rng.random(), seed=seed))


def to_real(a):
    """The same automaton as read from a file of probabilities e^-w: written
    and parsed back through the real encoding."""
    real = Automaton(REAL, a.num_states, a.initial, arc_columns(a.all_arcs()),
                     dict(a.finals))
    return read_text(write_text(real), REAL)


def random_dag(seed, semiring):
    """Arbitrary acyclic acceptor: parallel arcs, dead ends, unreachable
    states, and final states that still have outgoing arcs. Harsher than
    the layered lattices the generator produces. Weights are drawn in the
    encoding and stored through it."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    arcs = []
    for src in range(n - 1):
        for _ in range(rng.randint(0, 4)):
            dst = rng.randint(src + 1, n - 1)
            if semiring is LOG:
                weight = rng.uniform(-3.0, 8.0)
            else:
                weight = rng.uniform(1e-6, 2.0)
            arcs.append((src, rng.randint(1, 4), semiring.to_log(weight), dst))
    finals = {}
    for q in range(n):
        if rng.random() < 0.35:
            finals[q] = semiring.to_log(rng.uniform(0.0, 4.0) if semiring is LOG
                                        else rng.uniform(1e-6, 1.5))
    return Automaton(semiring, n, 0, arc_columns(arcs), finals)
