"""The int arithmetic of the fixed-q root finder against exact rationals."""

from fractions import Fraction
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from qheun.dyadic import Box, Dyadic, _iroot
from test_roots import _box_div, _fraction

F = Fraction
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _value(m, e):
    return F(m) * F(2) ** e


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 12 - 1), st.integers(1, 12), st.sampled_from([1, 2, 3, 6, 12]),
       st.integers(-400, 400), st.sampled_from([128, 536, 1048]))
def test_qpow_boxes_enclose_the_exact_power(m, k, D, a, P):
    # q = m / 10^k < 1 and mu = a/D: with q^|A| = u/v (v/u for A < 0),
    # lo^D' v <= u 2^(-e D') <= hi^D' v in integers, mu = A/D' in lowest
    # terms; the box is one unit wide at P bits
    m = m % 10 ** k or 1
    mu = F(a, D)
    A, Dd = mu.numerator, mu.denominator
    u, v = m ** abs(A), 10 ** (k * abs(A))
    if A < 0:
        u, v = v, u
    box = Box.qpow(F(m, 10 ** k), mu, P)
    lhs, rhs = (u << -box.e * Dd, v) if box.e <= 0 else (u, v << box.e * Dd)
    assert box.lo ** Dd * rhs <= lhs <= box.hi ** Dd * rhs
    assert box.hi - box.lo <= 1 and box.lo.bit_length() >= P - 1


def _assert_floor_root(X, D):
    y = _iroot(X, D)
    assert y >= 0 and y ** D <= X < (y + 1) ** D, (X, D, y)


def test_iroot_is_the_floor_root_below_2_and_around_perfect_powers():
    # every D = 1..12, the even ones through math.isqrt first: X = 0, 1,
    # and y^D - 1, y^D, y^D + 1 from one bit to past a float's range
    for D in range(1, 13):
        for X in (0, 1):
            assert _iroot(X, D) == X
        for y in (2, 3, 5, 2 ** 20 - 1, 2 ** 53 + 1, 3 ** 200, 2 ** 600 + 7):
            for X in (y ** D - 1, y ** D, y ** D + 1):
                _assert_floor_root(X, D)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 6000), st.integers(1, 12))
def test_iroot_is_the_floor_root(X, D):
    _assert_floor_root(X, D)


_box_parts = st.tuples(st.integers(-2 ** 80, 2 ** 80), st.integers(0, 2 ** 40), st.integers(-90, 90))


@settings(max_examples=300, deadline=None)
@given(_box_parts, _box_parts, st.sampled_from([8, 24, 64]), st.sampled_from(OPS))
def test_box_operations_round_outward_by_less_than_one_unit(a, b, P, op):
    # the result holds every value of the operation on the operand boxes,
    # and each end lies within one unit of its exact value
    x, y = (Box(lo, lo + w, e, P) for lo, w, e in (a, b))
    ends = [[_value(z.lo, z.e), _value(z.hi, z.e)] for z in (x, y)]
    for (lo, w, e), (z_lo, z_hi) in zip((a, b), ends):
        assert z_lo <= _value(lo, e) <= _value(lo + w, e) <= z_hi
    if op is operator.truediv and ends[1][0] <= 0 <= ends[1][1]:
        return
    exact = [op(s, t) for s in ends[0] for t in ends[1]]
    got = _box_div(x, y) if op is operator.truediv else op(x, y)
    unit = F(2) ** got.e
    assert min(exact) - unit < _value(got.lo, got.e) <= min(exact)
    assert max(exact) <= _value(got.hi, got.e) < max(exact) + unit


@settings(max_examples=100, deadline=None)
@given(_box_parts, st.integers(-3, 3), st.sampled_from([8, 64]))
def test_box_int_operands_are_exact_points(a, n, P):
    lo, w, e = a
    x = Box(lo, lo + w, e, P)
    ends = [_value(x.lo, x.e), _value(x.hi, x.e)]
    for got, want in ((n - x, [n - v for v in ends]), (x * n, [v * n for v in ends]),
                      (x + n, [v + n for v in ends])):
        assert _value(got.lo, got.e) <= min(want) and max(want) <= _value(got.hi, got.e)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 80, 2 ** 80), st.integers(-90, 90), st.integers(-2 ** 80, 2 ** 80),
       st.integers(-90, 90), st.sampled_from([8, 24, 64]), st.sampled_from(OPS))
def test_dyadic_operations_truncate_by_less_than_one_unit(m, e, n, f, P, op):
    if op is operator.truediv and not n:
        return
    x, y = Dyadic(m, e, P), Dyadic(n, f, P)
    exact = op(_value(x.m, x.e), _value(y.m, y.e))
    got = op(x, y)
    assert abs(got.m) <= 2 ** P
    assert exact - F(2) ** got.e < _value(got.m, got.e) <= exact


_dyadic_parts = st.tuples(st.integers(-2 ** 80, 2 ** 80), st.integers(-3000, 3000))


@settings(max_examples=300, deadline=None)
@given(_dyadic_parts, _dyadic_parts, st.sampled_from([8, 64, 536]))
def test_dyadic_comparison_and_fraction_are_exact(a, b, P):
    # exponents thousands of bits apart, as between the rows of a large N,
    # and values tied in differing representations
    x, y = Dyadic(*a, P), Dyadic(*b, P)
    fx, fy = _value(x.m, x.e), _value(y.m, y.e)
    assert (x < y, y < x, x < x) == (fx < fy, fy < fx, False)
    twin = Dyadic(x.m << 5, x.e - 5, P + 5)
    assert not (twin < x or x < twin)


def test_dyadic_comparison_orders_neighbours_and_far_exponents():
    # the least unit apart at 536 bits, and values 10^4 bits apart, sort as
    # their Fractions do
    P = 536
    xs = [Dyadic(2 ** P - 1, -10 ** 4, P), Dyadic(2 ** P, -10 ** 4, P + 1), Dyadic(1, -2 * 10 ** 4, P),
          Dyadic(-1, 10 ** 4, P), Dyadic(0, 7, P), Dyadic(-(2 ** P) + 1, -10 ** 4, P)]
    assert sorted(xs, key=_fraction) == sorted(xs)
