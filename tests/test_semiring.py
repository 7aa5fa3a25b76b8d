import functools
import math
import operator
import random

import pytest

from shortstring import (LOG, REAL, Automaton, ParseError, approx_eq,
                         format_weight, get_semiring, log_sum, read_text,
                         write_text)
from shortstring.semiring import members

from conftest import PLUS_ONE_ONE

INF = math.inf


def plus(a, b):
    return log_sum([a, b])


def judged(encoding, value):
    # whether `value`, written in `encoding`, is accepted: it converts to
    # a -ln weight
    return members(encoding.to_log_all([value]))


class TestLogOps:
    def test_plus_identity(self):
        assert plus(0.0, INF) == 0.0
        assert plus(INF, 0.0) == 0.0
        assert plus(INF, INF) == INF
        assert log_sum([]) == INF
        assert log_sum([2.5]) == 2.5

    def test_plus_value(self):
        assert abs(plus(1.0, 1.0) - PLUS_ONE_ONE) < 1e-12
        assert abs(log_sum([1.0] * 4) - (1.0 - math.log(4))) < 1e-12

    def test_plus_no_underflow(self):
        # naive exp(-800) underflows to 0; the stable form must not
        assert abs(plus(800.0, 800.0) - (800.0 - math.log(2))) < 1e-9
        # a term e^-2000 times smaller leaves the sum at the better one
        assert plus(1.0, 2001.0) == 1.0

    def test_times(self):
        # times is +: it distributes over the sum, and zero absorbs it
        assert approx_eq(1.2 + plus(0.3, 0.7), plus(1.5, 1.9), 1e-12)
        assert 5.0 + INF == INF
        assert plus(5.0 + INF, 2.0) == 2.0

    def test_divide(self):
        # dividing out the sum (subtracting it) normalizes the parts
        parts = [0.5, 1.25, 7.0]
        total = log_sum(parts)
        assert approx_eq(log_sum([w - total for w in parts]), 0.0, 1e-12)
        for x in (0.0, 1.5, -7.25):
            assert x - x == 0.0

    def test_short_sums_round_as_the_general_formula(self):
        # log_sum takes a shortcut for two terms; every sum must give the
        # float the general formula gives, to the sign of a zero
        def general(weights):
            best = min(weights, default=INF)
            if best == INF:
                return INF
            return best - math.log(math.fsum([math.exp(best - w)
                                              for w in weights]))

        rng = random.Random(19)
        draws = (lambda: rng.uniform(-5.0, 5.0),
                 lambda: rng.uniform(-1e6, 1e6),
                 lambda: rng.choice((0.0, -0.0, 1.0, 750.0, -1e6, INF)),
                 lambda: rng.expovariate(1.0) * rng.choice((1.0, -1.0)))
        cases = [[rng.choice(draws)() for _ in range(n)]
                 for n in (2, 3) for _ in range(2000)]
        cases += [[INF, INF], [INF, 2.5], [2.5, INF], [INF, INF, INF],
                  [0.0, INF], [-0.0, INF], [INF, -0.0],
                  [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0],
                  [0.0, -0.0, 0.0], [3.25, 3.25], [-7.5, -7.5, -7.5],
                  [1e308, 1e308], [-1e308, -1e308], [1e308, -1e308],
                  [-1e308, 1e308], [5e-324, 5e-324], [5e-324, -5e-324],
                  [0.0, 5e-324], [5e-324, 1e308, -1e308],
                  [0.0, 745.5], [746.0, 0.0], [-1e6, 1.0], [1.0, -1e6],
                  [0.0, 744.0, 1e4], [-1e6, -1e6 + 1.0], [-1e6, -1e6, 0.0]]
        for weights in cases:
            expected = general(weights).hex()
            assert log_sum(weights).hex() == expected, weights
            assert log_sum(tuple(weights)).hex() == expected, weights
            assert log_sum(dict(enumerate(weights)).values()).hex() \
                == expected, weights

    def test_long_sums_round_once(self):
        # the terms are exactly 1, 1 - 3u twice (u = 2^-53) and the least
        # subnormal, so their sum lies just above a tie: fsum rounds it
        # up, while a left-to-right sum and the compensated builtin sum
        # of Python 3.12 on lose the subnormal and round down, and
        # log_sum must give fsum's result on every Python
        def compensated(terms):
            # Neumaier's sum, as the builtin sum of floats is from 3.12
            total = error = 0.0
            for x in terms:
                t = total + x
                if abs(total) >= abs(x):
                    error += (total - t) + x
                else:
                    error += (x - t) + total
                total = t
            return total + error

        u = 2.0 ** -53
        weights = [0.0, 3 * u, 3 * u, 744.44]
        terms = [math.exp(-w) for w in weights]
        assert terms == [1.0, 1.0 - 3 * u, 1.0 - 3 * u, 5e-324]
        expected = -math.log(math.fsum(terms))
        assert -math.log(functools.reduce(operator.add, terms)) != expected
        assert -math.log(compensated(terms)) != expected
        assert log_sum(weights) == expected

    def test_companion_plus(self):
        # the companion view is min: the sum never loses to it
        for a, b in ((0.9, 1.2), (1.2, 0.9), (0.7, 0.7), (0.3, INF)):
            assert plus(a, b) <= min(a, b)
        assert plus(0.3, INF) == min(0.3, INF)

    def test_membership(self):
        assert judged(LOG, INF) and judged(LOG, -30.0)
        assert not judged(LOG, -INF)
        assert not judged(LOG, float("nan"))
        for bad in ("-inf", "nan"):
            with pytest.raises(ParseError) as info:
                read_text(f"0 1 1 {bad}\n1\n", LOG)
            assert "not a member" in str(info.value)


class TestRealOps:
    """The plus-times operations on probabilities, carried out in the one
    -ln algebra through the real encoding."""

    def test_plus(self):
        total = log_sum([REAL.to_log(0.25), REAL.to_log(0.5)])
        assert approx_eq(REAL.from_log(total), 0.75, 1e-15)
        total = log_sum([REAL.to_log(0.25), REAL.to_log(0.0)])
        assert approx_eq(REAL.from_log(total), 0.25, 1e-15)

    def test_times(self):
        assert REAL.from_log(REAL.to_log(0.5) + REAL.to_log(0.0)) == 0.0
        assert approx_eq(REAL.from_log(REAL.to_log(0.5) + REAL.to_log(1.0)),
                         0.5, 1e-15)

    def test_divide(self):
        assert approx_eq(REAL.from_log(REAL.to_log(0.25) - REAL.to_log(0.5)),
                         0.5, 1e-15)
        # zero is the absorbing +inf, which is never divided out
        assert REAL.to_log(0.0) == INF
        assert REAL.from_log(INF) == 0.0

    def test_companion_plus_prefers_larger(self):
        best = min(REAL.to_log(0.25), REAL.to_log(0.5))
        assert approx_eq(REAL.from_log(best), 0.5, 1e-15)

    def test_leq(self):
        # -ln reverses the order: the larger probability is the better weight
        assert REAL.to_log(1.0) < REAL.to_log(0.0)
        assert not REAL.to_log(0.25) < REAL.to_log(0.5)

    def test_membership(self):
        assert judged(REAL, 0.0) and judged(REAL, 2.5)
        assert not judged(REAL, -0.5)
        assert not judged(REAL, INF)
        assert not judged(REAL, float("nan"))
        for bad in ("-0.5", "inf", "nan"):
            with pytest.raises(ParseError) as info:
                read_text(f"0 1 1 {bad}\n1\n", REAL)
            assert "not a member" in str(info.value)

    def test_non_members_convert_to_non_members(self):
        # zero is no path, but a negative or NaN probability is no member:
        # it must not turn into a dropped arc
        got = REAL.to_log_all([-0.5, math.nan, 0.0, 0.5])
        assert math.isnan(got[0]) and math.isnan(got[1])
        assert got[2:] == [INF, math.log(2)]
        assert REAL.to_log(INF) == -INF
        assert not members([REAL.to_log(-0.5)])

    def test_non_member_arc_refused_not_dropped(self):
        with pytest.raises(ValueError, match="arc weight nan on 0->1 is not "
                                             "a member of the log semiring"):
            Automaton(REAL, 2, 0, ([0], [1], [REAL.to_log(-0.5)], [1]),
                      {1: 0.0})


EDGE_VALUES = [0.0, -0.0, 5e-324, 0.25, 1.0, 2.5, 1e308, -1e-300, -0.5,
               -30.0, INF, -INF, math.nan]


@pytest.mark.parametrize("encoding", [LOG, REAL])
def test_columns_judged_as_their_values(encoding):
    # a column is a member exactly when each of its values is, wherever a
    # NaN sits in it (a check by min() would skip one not first), and a column
    # converts to the values' own conversions
    rng = random.Random(11)
    for _ in range(2000):
        column = [rng.choice(EDGE_VALUES) for _ in range(rng.randint(0, 5))]
        judgements = [judged(encoding, value) for value in column]
        assert members(encoding.to_log_all(column)) == all(judgements)
        kept = [value for value, ok in zip(column, judgements) if ok]
        got = encoding.to_log_all(list(kept))
        want = [encoding.to_log(value) for value in kept]
        assert [w.hex() for w in got] == [w.hex() for w in want]
    assert REAL.to_log_all([0.5, 0.0, 1.0]) == [math.log(2), INF, 0.0]


# each written weight, whether a log file and a real file accept it
MEMBERSHIP = [
    ("0.0", True, True),
    ("-0.0", True, True),
    ("5e-324", True, True),
    ("-5e-324", True, False),
    ("1e-320", True, True),
    ("-1e-300", True, False),
    ("0.25", True, True),
    ("1.0", True, True),
    ("2.5", True, True),
    ("-0.5", True, False),
    ("-30", True, False),
    ("745", True, True),
    ("-745", True, False),
    ("1e308", True, True),
    ("inf", True, False),
    ("-inf", False, False),
    ("nan", False, False),
]


@pytest.mark.parametrize("text, in_log, in_real", MEMBERSHIP,
                         ids=[text for text, _, _ in MEMBERSHIP])
# the record under test is one the initial state does not reach, so that
# a member as large as 1e308 is not refused for its path sums
@pytest.mark.parametrize("record", ["0 1 1\n1\n2 3 1 {}\n", "0 1 1\n1\n2 {}\n"],
                         ids=["arc", "final"])
def test_membership_truth_table(record, text, in_log, in_real):
    for encoding, accepted in ((LOG, in_log), (REAL, in_real)):
        if accepted:
            read_text(record.format(text), encoding)
        else:
            with pytest.raises(ParseError, match=(
                    f"weight '{text}' is not a member of the "
                    f"{encoding.name} semiring")):
                read_text(record.format(text), encoding)


def test_real_round_trip_property():
    # p -> -ln p on reading and back on writing, for probabilities from
    # subnormal to above one; a log file round-trips bit for bit
    rng = random.Random(7)
    probabilities = [1.0, 2.5, 5e-324, 1e-300] + \
        [math.exp(rng.uniform(-700.0, 5.0)) for _ in range(500)]
    for p in probabilities:
        a = read_text(f"0 1 1 {p!r}\n1 {p!r}\n", REAL)
        (_, weight, _), = a.arcs(0)
        assert weight == -math.log(p)
        assert a.finals[1] == -math.log(p)
        written = [float(line.split()[-1]) for line in write_text(a).splitlines()]
        for q in written:
            assert abs(q - p) <= 1e-13 * p
        logged = read_text(f"0 1 1 {-math.log(p)!r}\n1\n", LOG)
        assert read_text(write_text(logged), LOG).arcs(0) == logged.arcs(0)


def test_get_semiring():
    assert get_semiring("log") is LOG
    assert get_semiring("real") is REAL
    with pytest.raises(ValueError):
        get_semiring("tropical")


def test_approx_eq():
    assert approx_eq(0.5, 0.5 + 1e-9, 1e-6)
    assert approx_eq(INF, INF, 0)
    assert approx_eq(-INF, -INF, 0)
    assert not approx_eq(INF, -INF, 1e6)
    assert not approx_eq(INF, 1e300, 1e6)
    assert not approx_eq(0.5, 0.6, 1e-6)
    assert not approx_eq(float("nan"), float("nan"), 1.0)
    with pytest.raises(ValueError):
        approx_eq(0.0, 0.0, -1.0)


def test_format_weight():
    assert format_weight(INF) == "+inf"
    assert format_weight(-INF) == "-inf"
    assert format_weight(0.5) == "0.5"
    assert format_weight(1 / 3) == "0.333333333"
    assert format_weight(1 / 3, digits=3) == "0.333"


def _draw_log(rng):
    r = rng.random()
    if r < 0.04:
        return INF
    if r < 0.08:
        return 0.0
    return rng.uniform(-30.0, 30.0)


def _draw_real(rng):
    r = rng.random()
    if r < 0.04:
        return 0.0
    if r < 0.08:
        return 1.0
    return math.exp(rng.uniform(-10.0, 3.0))


DRAWS = {LOG.name: _draw_log, REAL.name: _draw_real}
N_RANDOM = 2000  # the full-size law suite lives in the acceptance module


# The semiring laws of the one -ln algebra (plus is log_sum, times is +,
# the companion view is min, smaller is better), over the weights that
# each encoding's files produce.
@pytest.fixture(params=[LOG, REAL], ids=lambda sr: sr.name)
def sr(request):
    return request.param


@pytest.fixture
def triples(sr):
    draw = DRAWS[sr.name]
    rng = random.Random(20240817)
    return [tuple(sr.to_log(draw(rng)) for _ in range(3))
            for _ in range(N_RANDOM)]


class TestAxioms:
    def test_plus_associative_commutative(self, triples):
        for a, b, c in triples:
            assert approx_eq(plus(plus(a, b), c), plus(a, plus(b, c)))
            assert approx_eq(plus(a, b), plus(b, a))

    def test_times_associative(self, triples):
        for a, b, c in triples:
            assert approx_eq((a + b) + c, a + (b + c))

    def test_identities_and_annihilation(self, triples):
        for a, _, _ in triples:
            assert plus(a, INF) == a
            assert plus(INF, a) == a
            assert a + 0.0 == a
            assert 0.0 + a == a
            assert a + INF == INF
            assert INF + a == INF

    def test_distributivity(self, triples):
        for a, b, c in triples:
            assert approx_eq(a + plus(b, c), plus(a + b, a + c))

    def test_monotonicity(self, triples):
        for x, y, c in triples:
            a, b = min(x, y), max(x, y)
            assert plus(a, c) <= plus(b, c) + 1e-9
            assert a + c <= b + c + 1e-9
            assert c + a <= c + b + 1e-9

    def test_negativity(self, triples):
        assert 0.0 <= INF
        for a, b, _ in triples:
            assert a <= INF
            assert plus(a, b) <= b + 1e-9

    def test_companion_path_property_and_idempotency(self, triples):
        for a, b, _ in triples:
            chosen = min(a, b)
            assert chosen == a or chosen == b
            assert min(a, a) == a

    def test_plus_bounded_by_companion_plus(self, triples):
        for a, b, _ in triples:
            assert plus(a, b) <= min(a, b) + 1e-9

    def test_divide_inverts_times(self, triples):
        # divisors must be cancellative: finite (zero absorbs)
        for a, b, _ in triples:
            if b == INF:
                continue
            assert approx_eq(b + (a - b), a, 1e-9)
