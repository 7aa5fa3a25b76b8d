"""The weight algebra, and the encodings weights are written in.

Inside the package every weight is a bare float ``w = -ln p`` in the log
semiring: ``plus`` is the log-sum-exp ``-ln(e^-a + e^-b)``, ``times`` is
``+``, zero is ``+inf`` (no path), one is ``0.0`` (the empty path), and
smaller is better. The companion (best-of) view of ``plus`` is ``min``.
The algebra is monotonic and negative: summing alternatives never beats
every alternative, and extending a path never improves it. Members are
the reals and ``+inf``; NaN and ``-inf`` are rejected where weights enter
(``read_text`` and ``validate``).

The plus-times semiring over probabilities is isomorphic to it under
``p -> -ln p``, minus the underflow, so it is not computed in: ``real``
is only an :class:`Encoding`, the way weights are written in files and
shown to users. ``read_text`` checks each written weight against its
encoding and stores ``to_log`` of it; ``write_text``, search results,
oracle results and the CLI's printed distances convert back with
``from_log``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

INF = math.inf
ZERO = INF  # additive identity; absorbs under times; "no path"
ONE = 0.0   # multiplicative identity; weight of the empty path


def log_sum(weights) -> float:
    """The log semiring sum of a sequence of weights: ``-ln sum e^-w``;
    zero (``+inf``) for an empty sequence. Shifting by the best weight
    keeps every exponent in ``[-inf, 0]``, so nothing underflows to a
    false zero however large the weights are."""
    best = min(weights, default=INF)
    if best == INF:
        return INF
    return best - math.log(sum([math.exp(best - w) for w in weights]))


@dataclass(frozen=True, eq=False)
class Encoding:
    """How weights are written outside the package.

    ``is_member`` accepts the written values a file may hold; ``to_log``
    maps them to the package's ``-ln`` weights and ``from_log`` back."""

    name: str
    is_member: Callable[[float], bool]
    to_log: Callable[[float], float]
    from_log: Callable[[float], float]

    def __repr__(self):
        return f"<{self.name} encoding>"


def _neg_log(p: float) -> float:
    return -math.log(p) if p > 0.0 else INF


def _identity(w: float) -> float:
    return w


# written log weights: the reals and +inf; NaN and -inf are rejected
LOG = Encoding("log", lambda w: w > -INF, _identity, _identity)
# written probabilities: finite and non-negative
REAL = Encoding("real", lambda p: 0.0 <= p < INF, _neg_log,
                lambda w: math.exp(-w))

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
