"""The weight algebra, and the encodings weights are written in.

Inside the package every weight is a bare float ``w = -ln p`` in the log
semiring: ``plus`` is the log-sum-exp ``-ln(e^-a + e^-b)``, ``times`` is
``+``, zero is ``+inf`` (no path), one is ``0.0`` (the empty path), and
smaller is better. The companion (best-of) view of ``plus`` is ``min``.
The algebra is monotonic and negative: summing alternatives never beats
every alternative, and extending a path never improves it. Its members
are the reals and ``+inf``; :func:`members` is the one check of that,
made where weights enter (``read_text`` and ``Automaton``).

The plus-times semiring over probabilities is isomorphic to it under
``p -> -ln p``, minus the underflow, so it is not computed in: ``real``
is only an :class:`Encoding`, the way weights are written in files and
shown to users. An encoding only converts: ``read_text`` converts each
weight column with ``to_log_all`` and then judges it with
:func:`members`; ``write_text``, search results, oracle results and the
CLI's printed distances convert back with ``from_log``, which gives
``inf`` for a probability beyond the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from math import exp, fsum, log, nan
from operator import lt, neg
from typing import Callable

INF = math.inf
ZERO = INF  # additive identity; absorbs under times; "no path"
ONE = 0.0   # multiplicative identity; weight of the empty path


def log_sum(weights) -> float:
    """The log semiring sum of a sequence of weights: ``-ln sum e^-w``;
    zero (``+inf``) for an empty sequence. Shifting by the best weight
    keeps every exponent in ``[-inf, 0]``, so nothing underflows to a
    false zero however large the weights are.

    The general sum is ``math.fsum``, rounded once from the exact sum,
    so it gives one float on every Python (the builtin ``sum`` is
    compensated from 3.12 on and plain before). Two terms ``a <= b``
    skip it: the best term adds exactly ``e^0 = 1.0``, and ``fsum`` of
    two terms rounds to ``fl(1.0 + e^(a-b))``, so
    ``a - log(1.0 + exp(a - b))`` is the same float."""
    if len(weights) == 2:
        a, b = weights
        if b < a:   # min() keeps the first of equal terms: so does this
            a, b = b, a
        if a == INF:
            return INF
        return a - log(1.0 + exp(a - b))
    best = min(weights, default=INF)
    if best == INF:
        return INF
    return best - log(fsum([exp(best - w) for w in weights]))


def members(weights) -> bool:
    """Whether every value is a ``-ln`` weight: a real or ``+inf``, not
    NaN, not ``-inf`` and not a value that does not compare with it,
    such as ``None`` or a string."""
    # the floats above -inf are exactly those: NaN compares false
    try:
        return all(map(lt, repeat(-INF), weights))
    except TypeError:
        return False


@dataclass(frozen=True, eq=False)
class Encoding:
    """How weights are written outside the package.

    ``to_log_all`` maps a column of written values to the package's
    ``-ln`` weights (for an identity encoding it may return the column
    itself), and ``from_log`` maps one weight back; the one-value
    :meth:`to_log` goes through ``to_log_all``. A value that is not one
    the encoding may write converts to NaN or ``-inf``, so a column is
    judged by :func:`members` after its conversion."""

    name: str
    to_log_all: Callable[[list], list]
    from_log: Callable[[float], float]

    def to_log(self, value: float) -> float:
        return self.to_log_all([value])[0]

    def __repr__(self):
        return f"<{self.name} encoding>"


def _neg_logs(values) -> list:
    # log raises at zero and below, and then the column goes one by one
    # (log(nan) is NaN either way). Zero is no path; a negative or NaN
    # probability converts to NaN and inf to -inf, which members() refuses
    try:
        return list(map(neg, map(log, values)))
    except ValueError:
        return [-log(p) if p > 0.0 else INF if p == 0.0 else nan
                for p in values]


def _identity(value):
    return value


def _probability(weight: float) -> float:
    # a probability beyond the float range, from a weight below about
    # -709.78, is shown as inf
    try:
        return math.exp(-weight)
    except OverflowError:
        return INF


LOG = Encoding("log", _identity, _identity)
REAL = Encoding("real", _neg_logs, _probability)

SEMIRINGS = {LOG.name: LOG, REAL.name: REAL}


def get_semiring(name: str) -> Encoding:
    """The encoding named by ``--semiring``: ``log`` or ``real``."""
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise ValueError(f"unknown semiring {name!r}; expected one of "
                         f"{sorted(SEMIRINGS)}") from None


def approx_eq(a: float, b: float, tol: float = 1e-9) -> bool:
    """Absolute-tolerance float equality; infinities equal only themselves."""
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    return a == b or abs(a - b) <= tol


def format_weight(a: float, digits: int = 9) -> str:
    """Render a weight for diagnostics with up to ``digits`` significant
    digits; infinities render as ``+inf`` / ``-inf``."""
    if a == INF:
        return "+inf"
    if a == -INF:
        return "-inf"
    return f"{a:.{digits}g}"
