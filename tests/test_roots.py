import functools
import hashlib
import random
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qheun.roots as roots_mod
from qheun import acceptance
from qheun.errors import DomainError, MatchingError, PrecisionError
from qheun.roots import (
    estimate_exponents,
    find_real_roots,
    find_spectral_roots,
    match_predictions,
    real_roots_of_rational_poly,
    _real_roots,
    _sign_groups,
)
from qheun.qmono import EVAL_GUARD_BITS, AtQ, to_mpf
from qheun.sampling import sample_params
from qheun.dyadic import Box, Dyadic
from qheun.spectral import (
    _exact_rows,
    _scale_den,
    derive,
    fixed_q,
    recursion_rows,
    spectral_polynomial,
)
from qheun.ultra import PredictedRoot, classify, predict_roots

F = Fraction


def _fraction(x: Dyadic) -> Fraction:
    """The value of the Dyadic x as a Fraction, exactly."""
    return F(x.m) * F(2) ** x.e


def from_numerator(p, qp):
    """recursion_rows' q-power map a -> q^(a/D), a an int numerator over
    D = _scale_den(p), from a map ``qp`` of the exponent mu -> q^mu."""
    D = _scale_den(p)
    return lambda a: qp(F(a, D))


def _poly(coeffs, bits=256):
    with mpmath.workprec(bits):
        return tuple(mpmath.mpf(c.numerator) / c.denominator for c in coeffs)


def test_quadratic_roots():
    roots = find_real_roots(_poly([F(-1), F(0), F(1)]), 256)
    assert [float(r) for r in roots] == [-1.0, 1.0]


def test_constructed_cubic_with_zero_root():
    # E(E-q)(E-q^2) at q = 1/10
    q = F(1, 10)
    coeffs = [F(0), q ** 3, -(q + q * q), F(1)]
    roots = find_real_roots(_poly(coeffs), 256)
    assert [float(r) for r in roots] == [0.0, 0.01, 0.1]


def test_precision_error_on_complex_roots():
    with pytest.raises(PrecisionError):
        find_real_roots(_poly([F(1), F(0), F(1)]), 256)  # E^2 + 1


def test_a_double_root_ends_the_chain_at_the_gcd():
    # (E - 1)^2 (E + 2): the remainders stop at the gcd E - 1, so the
    # count finds the two distinct roots, short of the degree
    with pytest.raises(PrecisionError, match="found 2 distinct real roots for degree 3"):
        find_real_roots([F(2), F(-3), F(0), F(1)], 256)


def test_degree_below_one_and_a_vanished_leading_coefficient_raise():
    with pytest.raises(DomainError):
        find_real_roots([mpmath.mpf(3)], 64)
    with pytest.raises(PrecisionError, match="leading coefficient vanished"):
        find_real_roots([mpmath.mpf(-1), mpmath.mpf(1), mpmath.mpf(0)], 64)


def test_coefficients_convert_exactly():
    # a 300-bit mpf and a rational that is no dyadic rational reach the
    # exact core unrounded: a 64-bit round trip would move the root by 2^-66
    with mpmath.workprec(300):
        third = mpmath.mpf(1) / 3
        image = [-third, mpmath.mpf(1)]
    for coeffs in (image, [F(-1), 3], ["-1/3", 1]):
        (root,) = find_real_roots(coeffs, 256)
        with mpmath.workprec(300):
            assert abs(root - third) < mpmath.mpf(2) ** -250


def test_p3_roots_at_tiny_q(p3):
    roots, _ = find_spectral_roots(p3, F(1, 10 ** 6), 512)
    assert len(roots) == 2
    big, small = sorted(roots)  # both negative
    assert float(big) == pytest.approx(-1.0, rel=0.01)
    assert float(small) == pytest.approx(-1e-3, rel=0.01)


def test_synthetic_power_law_slope_calibration():
    # single root E(q) = -3 q^{-5/2}: slope recovered to < 1e-6 absolute
    q1, q2 = F(1, 1000), F(1, 10000)
    vals = []
    for q in (q1, q2):
        with mpmath.workprec(256):
            c0 = 3 * mpmath.exp(mpmath.mpf("-2.5") * mpmath.log(mpmath.mpf(1) / q.denominator))
        vals.append(find_real_roots((c0, mpmath.mpf(1)), 256)[0])
    with mpmath.workprec(256):
        slope = (mpmath.log(abs(vals[1])) - mpmath.log(abs(vals[0]))) / (
            mpmath.log(mpmath.mpf(1) / 10000) - mpmath.log(mpmath.mpf(1) / 1000)
        )
        assert abs(slope - mpmath.mpf("-2.5")) < 1e-6


def test_estimate_exponents_p1(p1):
    ests = estimate_exponents(p1, F(1, 1000), F(1, 10000), 512)
    slopes = sorted(float(e.est_exponent) for e in ests)
    for got, want in zip(slopes, [-4.5, -3.5, -2.5]):
        assert abs(got - want) <= 0.05
    assert all(e.value < 0 for e in ests)


def test_estimate_requires_ordered_qs(p1):
    with pytest.raises(Exception):
        estimate_exponents(p1, F(1, 10000), F(1, 1000), 256)


def test_match_predictions_pass(p1):
    ests = estimate_exponents(p1, F(1, 1000), F(1, 10000), 512)
    preds = predict_roots(p1, classify(p1))
    report = match_predictions(ests, preds, t1=p1.t1, t2=p1.t2)
    assert report.ok
    assert len(report.rows) == 3
    assert all(r.exponent_ok for r in report.rows)
    assert all(r.estimate is not None and r.prediction is not None for r in report.rows)


def test_match_predictions_detects_shuffled(p1):
    ests = estimate_exponents(p1, F(1, 1000), F(1, 10000), 512)
    wrong = [
        PredictedRoot(-1, F(-9, 2) + 1, "t1"),
        PredictedRoot(-1, F(-7, 2) + 1, "t1"),
        PredictedRoot(-1, F(-5, 2) + 1, "t1"),
    ]
    report = match_predictions(ests, wrong, t1=p1.t1, t2=p1.t2)
    assert not report.ok
    assert any(not r.exponent_ok for r in report.rows)


def test_match_predictions_reports_unmatched(p4):
    ests = estimate_exponents(p4, F(1, 1000), F(1, 10000), 512)
    # withhold the positive predictions: the positive estimates must show
    # up as failing rows rather than disappearing
    preds = [e for e in predict_roots(p4, classify(p4)) if e.sign < 0]
    report = match_predictions(ests, preds, t1=p4.t1, t2=p4.t2)
    assert not report.ok
    assert any(r.prediction is None for r in report.rows)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "R31-12", "R32-12", "R33-12"])
@pytest.mark.parametrize("P", [192, 536])
def test_predicted_roots_match_exp_log_at_twice_the_bits(name, P):
    # sign * prefactor * q^d from Box.qpow's integer roots, against the same
    # value from mpf exp and log at 2P bits: within a few units of 2^-P.
    # The seeds read the boxes of the fixed-q table's memos, the matching
    # its own Box.qpow boxes; both give the same point
    p = named_set(name)
    for q in (F(1, 1000), F(1, 10 ** 6)):
        fq = fixed_q(p, q, P)
        for e in predict_roots(p, classify(p)):
            x, mu = e.prefactor_power(p.t1, p.t2)
            got = roots_mod._predicted_root(e, Box.qpow(x, mu, P), Box.qpow(q, e.d, P))
            seed = roots_mod._predicted_root(e, fq.tp(x, mu), roots_mod._q_power(fq, e.d))
            assert (got.m, got.e, got.P) == (seed.m, seed.e, P)
            with mpmath.workprec(2 * P):
                want = e.sign * mpmath.exp(to_mpf(mu) * mpmath.log(to_mpf(x))
                                           + to_mpf(e.d) * mpmath.log(to_mpf(q)))
                assert abs(got.to_mpf() - want) <= mpmath.ldexp(abs(want), 3 - P), (name, q, e)


@pytest.mark.parametrize("name", ["P4", "R32-12"])
def test_the_seeds_and_the_matching_ratios_take_no_exp(name, monkeypatch):
    # the predicted roots at q come from Box.qpow's integer roots, as the
    # rows do: a seeded search and the matching of its roots build no AtQ
    # and call no exp, on a balanced pair (P4) and on t1 = 2, t2 = 3 (R32)
    def refused(*args, **kwargs):
        raise AssertionError("an exp evaluation at fixed q")

    monkeypatch.setattr(AtQ, "__init__", refused)
    monkeypatch.setattr(mpmath, "exp", refused)
    p = named_set(name)
    preds = predict_roots(p, classify(p))
    found, _ = find_spectral_roots(p, F(1, 7907), 512, predictions=preds)
    assert len(found) == p.N + 1
    ests = estimate_exponents(p, F(1, 1000), F(1, 10000), 512, predictions=preds)
    report = match_predictions(ests, preds, t1=p.t1, t2=p.t2)
    assert report.ok and len(report.rows) == p.N + 1
    assert all(r.prefactor_ratio > 0 for r in report.rows)


def test_sign_groups_reject_zero_root():
    with mpmath.workprec(64):
        with pytest.raises(MatchingError):
            _sign_groups([mpmath.mpf(0), mpmath.mpf(1)])


def test_roots_continuous_in_q(p1):
    ep = spectral_polynomial(p1)
    q = F(1, 1000)
    qq = q * (1 + F(1, 10 ** 6))
    r1, _ = find_spectral_roots(p1, q, 256, epoly=ep)
    r2, _ = find_spectral_roots(p1, qq, 256, epoly=ep)
    for a, b in zip(r1, r2):
        assert abs(float((a - b) / a)) < 1e-4


def test_sturm_count_equals_degree_for_spectral_polys(p1, p2, p3, p4):
    # the real-root property, asserted rather than assumed
    for p in (p1, p2, p3, p4):
        roots, _ = find_spectral_roots(p, F(1, 1000), 512)
        assert len(roots) == p.N + 1


def test_rational_poly_roots_exact():
    # s^4 - 3 s^2 + 1: roots at +-(sqrt(5)+-1)/2
    roots = real_roots_of_rational_poly([1, 0, -3, 0, 1], bits=192)
    with mpmath.workprec(192):
        assert abs(roots[-1] - (mpmath.sqrt(5) + 1) / 2) < mpmath.mpf(2) ** -80


# ---------------------------------------------------------------------------
# refinement: each root is the true root rounded to nearest at ``bits`` bits
# ---------------------------------------------------------------------------


def _rounded(x: Fraction, bits: int) -> Fraction:
    """x rounded to nearest at ``bits`` bits, ties to even, by mpmath."""
    libmp = mpmath.libmp
    return Fraction(*libmp.to_rational(libmp.from_rational(x.numerator, x.denominator, bits, "n")))


def _from_roots(lead, rs):
    c = [Fraction(lead)]
    for r in rs:  # multiply by (x - r)
        c = [-r * c[0]] + [c[i - 1] - r * c[i] for i in range(1, len(c))] + [c[-1]]
    return c


# dyadic roots can land exactly on a bisection midpoint of their bracket
_DYADIC = [Fraction(k, 2 ** j) for k in (-5, -3, -1, 1, 3, 7) for j in (0, 1, 3, 6)]
_roots = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.sampled_from(_DYADIC),
        st.fractions(min_value=-300, max_value=300, max_denominator=12),
    ),
    min_size=1,
    max_size=5,
    unique=True,
)
_leads = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)
# ties at 64 bits: half a spacing above 1, above 1 + 2^-63 and below 2
_TIES_64 = [1 + Fraction(1, 2 ** 64), -(1 + Fraction(3, 2 ** 64)), 2 - Fraction(1, 2 ** 64)]


@settings(max_examples=60, deadline=None)
@given(_roots, _leads, st.sampled_from([64, 128, 256]))
@example([Fraction(0), Fraction(-3, 7), Fraction(1, 2), Fraction(5)], Fraction(3, 7), 128)
@example([Fraction(-1, 8), Fraction(9, 8)], Fraction(1), 64)
# -E^3 + 4E: its first remainder takes one pseudo-division step by a
# negative leading coefficient, which scales by |lc| to keep the sign
@example([Fraction(-2), Fraction(0), Fraction(2)], Fraction(-1), 64)
def test_refined_roots_equal_the_fraction_oracle(rs, lead, bits):
    # the oracle is the exact rational roots, each rounded by mpmath
    coeffs = _from_roots(lead, rs)
    got = [F(m) * F(2) ** e for m, e in _real_roots(coeffs, bits)]
    assert got == sorted(_rounded(r, bits) for r in rs)


@pytest.mark.parametrize("bits", [64, 128])
def test_find_real_roots_returns_known_rational_roots_rounded(bits):
    # 0, a grid point, rationals off the grid, and the ties half a spacing
    # above 1, above 1 + 2^(1-bits) and below 2, which round to the even
    # neighbour: 1, -(1 + 2^(2-bits)) and 2
    u = Fraction(1, 2 ** bits)
    rs = [Fraction(0), Fraction(5, 2 ** 10), Fraction(-1, 3), Fraction(3, 7), 1 + u, -(1 + 3 * u), 2 - u]
    found = find_real_roots(_from_roots(Fraction(-3, 5), rs), bits)
    got = [roots_mod._mpf_to_fraction(r) for r in found]
    assert got == sorted(_rounded(r, bits) for r in rs)
    assert {Fraction(0), Fraction(5, 2 ** 10), Fraction(1), Fraction(2), -(1 + 4 * u)} <= set(got)


def _cell(y: Fraction, bits: int) -> tuple[Fraction, Fraction, Fraction]:
    """roots._cell of y as the Fractions (g, down, up)."""
    G, L, U, k = roots_mod._cell(y.numerator, y.denominator, bits)
    return tuple(F(X) * F(2) ** k for X in (G, L, U))


def _rounded_root(*args):
    """roots._rounded_root's (m, e) as the Fraction m 2^e, or None."""
    x = roots_mod._rounded_root(*args)
    return x if x is None else F(x[0]) * F(2) ** x[1]


_EDGES = st.builds(
    lambda bits, w, j, e, neg: (bits, (-1 if neg else 1) * Fraction((1 << (bits + w)) + j) * Fraction(2) ** e),
    st.integers(2, 600), st.integers(0, 3), st.integers(-3, 3), st.integers(-900, 300), st.booleans(),
)
_ANY = st.tuples(st.integers(2, 600), st.fractions(max_denominator=10 ** 9).filter(bool))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_EDGES, _ANY))
@example((64, Fraction(1)))
@example((64, 1 - Fraction(1, 2 ** 65)))
@example((64, -(1 + Fraction(3, 2 ** 64))))
@example((2, Fraction(7, 8)))
def test_cell_is_mpmath_rounding_and_its_cell(case):
    # g is mpmath's rounding of y; points just inside (down, up) round to
    # g and points just outside do not; the ends are ties, which round to
    # g exactly when g's mantissa is even.  Binade edges and ties come from
    # the mantissas 2^(bits + w) + j
    bits, y = case
    g, down, up = _cell(y, bits)
    assert g == _rounded(y, bits)
    assert down <= y <= up and down < g < up
    eps = (up - down) / 2 ** 10
    for inside, outside in ((down + eps, down - eps), (up - eps, up + eps)):
        assert _rounded(inside, bits) == g and _rounded(outside, bits) != g
    # mpmath strips a mantissa's trailing zeros: g's is even iff fewer than bits remain
    even = mpmath.libmp.from_rational(g.numerator, g.denominator, bits, "n")[3] < bits
    assert (_rounded(down, bits) == g) == even == (_rounded(up, bits) == g)


def _pairs(probes):
    """Fraction probes as the (M, W) pairs ``_rounded_root`` reads."""
    return [(y.numerator, y.denominator) for y in probes]


def _bracket_and_side(coeffs, positive=True):
    """The bracket (0, R) or (-R, 0) of the Cauchy bound R, as integers
    (A, B, V), and the side of the polynomial's one root in it against
    M/W by exact signs: +1 above, -1 below, 0 at."""
    n = roots_mod._integer_scaled(coeffs)
    R = roots_mod._cauchy_bound(coeffs)
    A, B, V = (0, R.numerator, R.denominator) if positive else (-R.numerator, 0, R.denominator)
    fa = roots_mod._sign_at(n, A, V)

    def side(M, W):
        s = roots_mod._sign_at(n, M, W)
        return s and (1 if s == fa else -1)

    return A, B, V, side


def test_roots_on_a_bisection_midpoint_are_returned_exactly():
    # grid points of the 64-bit rounding come back exactly (bisecting
    # (-8, 0) and (0, 8) probes -1/8 and 9/8), and ties between grid
    # points round to the even neighbour, with no probes, the root itself,
    # probes around it or probes on one side of it
    eps = Fraction(1, 2 ** 100)
    for root in [Fraction(-1, 8), Fraction(9, 8)] + _TIES_64:
        want = _rounded(root, 64)
        assert (want == root) == (root not in _TIES_64)
        A, B, V, side = _bracket_and_side(_from_roots(Fraction(1), [root]), root > 0)
        for probes in ((), (root,), (root - eps, root + eps), (root + eps,), (root - 2 * eps, root - eps)):
            assert _rounded_root(A, B, V, 64, side, _pairs(probes)) == want, (root, probes)


@pytest.mark.parametrize(
    "root,guess",
    [(Fraction(4, 3), -10), (1 + Fraction(1, 2 ** 70), -10), (Fraction(4, 3 * 2 ** 10), 0)],
    ids=["below", "below-grid-point", "above"],
)
def test_an_approximation_far_from_the_root_gives_the_bisection_point(root, guess):
    # the bisection on the sides returns the root rounded to 64 bits
    # (1 + 2^-70 rounds to 1) whatever the probes: 2^guess -+ 2, far from
    # the root but around it, probes 2^-29 around a point 2^-30 off, or none
    want = _rounded(root, 64)
    assert want != root
    A, B, V, side = _bracket_and_side(_from_roots(Fraction(1), [root]))
    near = Fraction(round(root * 2 ** 30), 2 ** 30)
    for probes in ((), (2 ** Fraction(guess) - 2, 2 ** Fraction(guess) + 2),
                   (near - Fraction(1, 2 ** 29), near + Fraction(1, 2 ** 29))):
        assert _rounded_root(A, B, V, 64, side, _pairs(probes)) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 ** 80), st.integers(-2000, 2000), st.integers(1, 2 ** 80),
       st.integers(-2000, 2000), st.sampled_from([8, 64, 536]), st.booleans())
def test_geometric_mean_is_the_truncated_square_root(m, e, n, f, P, negative):
    # |g| <= sqrt(lo hi) < |g| + 2^g.e, with the sign of the bracket
    sign = -1 if negative else 1
    lo, hi = Dyadic(sign * m, e, P), Dyadic(sign * n, f, P)
    g = roots_mod._geometric_mean(lo, hi)
    prod, r = _fraction(lo) * _fraction(hi), abs(_fraction(g))
    assert (g.m < 0) == negative and g.m.bit_length() == P
    assert r * r <= prod < (r + Fraction(2) ** g.e) ** 2


def test_an_approximation_whose_bound_misses_the_root_still_gives_the_rounded_root():
    # both probes 2^guess -+ 2^-100 lie below the root 4/3: they narrow the
    # bracket from below, and bisection goes on from there.  A bracket that
    # does not hold the root fails its end check and gives None, also one
    # with an end at 0, which the zero probe keeps from halving towards 0
    root = Fraction(4, 3)
    A, B, V, side = _bracket_and_side(_from_roots(Fraction(1), [root]))
    for guess in (-10, 0):
        probes = (2 ** Fraction(guess) - Fraction(1, 2 ** 100), 2 ** Fraction(guess) + Fraction(1, 2 ** 100))
        assert _rounded_root(A, B, V, 64, side, _pairs(probes)) == _rounded(root, 64)
    for A, B, probes in ((3, 4, ()), (3, 4, (Fraction(7, 4),)), (0, 2, (Fraction(3, 2),))):
        assert _rounded_root(A, B, 2, 64, side, _pairs(probes)) is None
    for root in (Fraction(0), Fraction(-1, 3)):
        def side(M, W, root=root):
            return (Fraction(M, W) < root) - (Fraction(M, W) > root)

        assert _rounded_root(0, 1, 1, 64, side) is None


@pytest.mark.parametrize(
    "wrong",
    [lambda ev, lo, hi, prec, start=None: (lo, Dyadic(0, 0, prec)),
     lambda ev, lo, hi, prec, start=None: None],
    ids=["left-endpoint", "none"],
)
def test_wrong_approximation_falls_back_to_exact_bisection(p1, p4, monkeypatch, wrong):
    # a Newton approximation at the bracket's left end, or none, gives no
    # probe inside the bracket: bisection on the certified counts returns
    # the same roots
    want = [find_spectral_roots(p, F(1, 1000), 512)[0] for p in (p1, p4)]
    monkeypatch.setattr(roots_mod, "_newton_in_bracket", wrong)
    got = [find_spectral_roots(p, F(1, 1000), 512)[0] for p in (p1, p4)]
    assert [[r._mpf_ for r in rs] for rs in got] == [[r._mpf_ for r in rs] for rs in want]


def test_verify_solves_take_no_fallback_and_few_exact_evaluations(p1, p2, p3, p4, monkeypatch):
    # a root costs a bounded number of recursion evaluations (plain counts,
    # Newton steps and certified counts; bisection on the counts alone
    # spends about 425 per root), and no count is escalated past the first
    # precision
    evaluations, per_root, escalated = [0], [], []
    for name in ("_count", "_certified_count", "_newton_eval"):
        def counting(*args, _f=getattr(roots_mod, name)):
            evaluations[0] += 1
            return _f(*args)

        monkeypatch.setattr(roots_mod, name, counting)
    spectral_root, table = roots_mod._spectral_root, roots_mod.fixed_q

    def counting_root(*args):
        before = evaluations[0]
        out = spectral_root(*args)
        per_root.append(evaluations[0] - before)
        return out

    def table_seen(p, q, prec):
        if prec != 512 + EVAL_GUARD_BITS:
            escalated.append((p, q, prec))
        return table(p, q, prec)

    monkeypatch.setattr(roots_mod, "_spectral_root", counting_root)
    monkeypatch.setattr(roots_mod, "fixed_q", table_seen)
    expected = 0
    for p in (p1, p2, p3, p4):
        preds = predict_roots(p, classify(p))
        for q in (F(1, 1000), F(1, 10000), F(1, 100000), F(1, 1000000)):
            found, _ = find_spectral_roots(p, q, 512, predictions=preds)
            assert len(found) == p.N + 1
            expected += p.N + 1
    assert not escalated
    assert len(per_root) == expected
    assert max(per_root) <= 20


# Calls per find_spectral_roots solve at 512 bits: (plain counts, Newton
# evaluations per root), with the predictions as seeds and then without,
# keyed by named_set and -log10 q.  Every root takes two certified counts.
# P1-P4 were recorded with the recursion loops on Dyadic and Box objects,
# the seed-12 N = 12 sets with the ratio-recursion kernel of the plain
# counts and Newton on the rows divided by A_n.  The seeded Newton counts of
# the N = 12 sets were re-recorded, and the N = 48 R31 and R33 sets
# recorded, when the seeds became the predicted roots at the search's
# precision from Box.qpow instead of 128-bit mpf values (_predicted_root).
# The seeded plain counts, and the seeded Newton counts whose brackets moved,
# were re-recorded when each sign's zero search began at a quarter of its
# smallest seed and each distinct isolation point was counted once.
_SEARCH_CALLS = {
    ("P1", 3): ((6, (5, 6, 7)), (9, (10, 12, 11))),
    ("P1", 4): ((6, (5, 5, 6)), (9, (10, 11, 11))),
    ("P1", 5): ((6, (4, 5, 6)), (10, (10, 14, 11))),
    ("P1", 6): ((6, (4, 5, 6)), (10, (9, 13, 11))),
    ("P2", 3): ((5, (6, 7)), (8, (10, 10))),
    ("P2", 4): ((5, (6, 6)), (8, (9, 10))),
    ("P2", 5): ((5, (5, 6)), (9, (8, 10))),
    ("P2", 6): ((5, (5, 6)), (9, (10, 10))),
    ("P3", 3): ((5, (7, 7)), (7, (10, 10))),
    ("P3", 4): ((5, (6, 7)), (8, (10, 10))),
    ("P3", 5): ((5, (6, 7)), (8, (10, 10))),
    ("P3", 6): ((5, (6, 6)), (8, (10, 10))),
    ("P4", 3): ((7, (11, 9, 9, 10)), (9, (10, 9, 9, 9))),
    ("P4", 4): ((7, (11, 9, 9, 10)), (9, (10, 9, 9, 9))),
    ("P4", 5): ((7, (11, 9, 8, 11)), (9, (10, 9, 8, 10))),
    ("P4", 6): ((7, (11, 8, 8, 11)), (9, (10, 8, 8, 10))),
    ("R31-12", 3): (
        (16, (3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6)),
        (19, (11, 12, 14, 15, 14, 14, 15, 17, 15, 14, 13, 13, 11))),
    ("R31-12", 6): (
        (16, (2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5)),
        (20, (10, 13, 17, 15, 14, 15, 15, 18, 16, 15, 14, 13, 11))),
    ("R32-12", 3): (
        (23, (4, 4, 4, 5, 6, 7, 13, 10, 8, 7, 8, 10, 14)),
        (28, (11, 13, 12, 11, 13, 13, 13, 9, 10, 9, 10, 11, 13))),
    ("R32-12", 6): (
        (25, (3, 3, 3, 4, 5, 6, 12, 10, 8, 9, 8, 10, 14)),
        (32, (12, 19, 18, 17, 17, 16, 13, 9, 10, 9, 10, 9, 13))),
    ("R33-12", 3): (
        (16, (4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 7)),
        (18, (9, 13, 13, 12, 14, 11, 14, 11, 13, 11, 13, 10, 11))),
    ("R33-12", 6): (
        (16, (3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 6)),
        (21, (10, 15, 16, 18, 13, 15, 14, 16, 13, 13, 14, 12, 11))),
    ("R31-48", 6): (
        (52, (1,) * 36 + (2,) * 6 + (3, 3, 3, 3, 4, 5, 5)),
        (57, (15, 15, 23, 20, 18, 15, 16, 17, 32, 30, 27, 25, 24, 21, 19, 17, 13,
              20, 18, 15, 21, 15, 17, 25, 24, 23, 20, 19, 19, 16, 14, 13, 17, 17,
              13, 17, 17, 20, 19, 18, 17, 17, 15, 14, 14, 12, 13, 13, 10))),
    ("R33-48", 6): (
        (52, (1,) * 22 + (2,) * 14 + (3,) * 6 + (4, 4, 4, 4, 5, 5, 6)),
        (63, (27, 16, 27, 12, 25, 20, 21, 18, 19, 14, 16, 17, 14, 15, 19, 18, 16,
              26, 15, 24, 15, 21, 14, 21, 15, 17, 23, 17, 20, 14, 21, 14, 17, 11,
              16, 15, 14, 13, 15, 13, 12, 13, 11, 14, 11, 13, 13, 14, 12))),
}


def test_the_search_makes_the_recorded_calls(monkeypatch):
    # the same counts and Newton steps as the object loops made: the
    # kernels moved no point of the search, not only no root
    calls = {name: 0 for name in ("_count", "_certified_count", "_newton_eval")}
    for name in calls:
        def counting(*args, _f=getattr(roots_mod, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(roots_mod, name, counting)
    spectral_root, per_root = roots_mod._spectral_root, []

    def counting_root(*args):
        before = dict(calls)
        out = spectral_root(*args)
        per_root.append((calls["_certified_count"] - before["_certified_count"],
                         calls["_newton_eval"] - before["_newton_eval"]))
        return out

    monkeypatch.setattr(roots_mod, "_spectral_root", counting_root)
    for (name, k), recorded in _SEARCH_CALLS.items():
        p = named_set(name)
        preds = predict_roots(p, classify(p))
        for seeds, (plain, newton) in zip((preds, None), recorded):
            calls.update(dict.fromkeys(calls, 0))
            per_root.clear()
            find_spectral_roots(p, F(1, 10 ** k), 512, predictions=seeds)
            assert (calls["_count"], per_root) == (plain, [(2, n) for n in newton]), (name, k, seeds)


def _recording_counts(monkeypatch) -> list:
    """The points of every plain count from here on, as Fractions."""
    points, count = [], roots_mod._count

    def recording(rows, x):
        points.append(_fraction(x))
        return count(rows, x)

    monkeypatch.setattr(roots_mod, "_count", recording)
    return points


def _seeds(p, q, preds) -> list[Dyadic]:
    return roots_mod._prediction_seeds(fixed_q(p, q, 512 + EVAL_GUARD_BITS), preds)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "R31-12", "R32-12", "R33-12"])
def test_the_seeded_zero_search_makes_one_plain_count_per_sign(name, monkeypatch):
    # each sign's zero search counts a quarter of its smallest seed, once,
    # and at most one point between that and 0 but the seeds' midpoints:
    # none where no root lies below the quarter, else the first
    # R 2^(-2^j) under it.  That is R32-12's negative side, whose root
    # nearest 0 lies at 0.21 (q = 1e-3) and 0.246 (q = 1e-6) of its seed,
    # a prefactor t1 = 2 that is not sharp
    p = named_set(name)
    preds = predict_roots(p, classify(p))
    points = _recording_counts(monkeypatch)
    for q in (F(1, 1000), F(1, 10 ** 6)):
        seeds = _seeds(p, q, preds)
        midpoints = {_fraction((a + b).ldexp(-1)) for a, b in zip(seeds, seeds[1:])}
        points.clear()
        find_spectral_roots(p, q, 512, predictions=preds)
        for sgn in (1, -1):
            of_sign = [abs(_fraction(s)) for s in seeds if s.m * sgn > 0]
            if of_sign:
                quarter = min(of_sign) / 4
                below = [x for x in points if 0 < sgn * x < quarter and x not in midpoints]
                assert points.count(sgn * quarter) == 1 and len(below) <= 1, (q, sgn, below)
                assert len(below) == (name == "R32-12" and sgn < 0), (q, sgn, below)


def test_no_isolation_point_is_counted_twice_on_a_balanced_pair(monkeypatch):
    # the R32 N = 6 set of the roots-certified benchmark: two of its seeds
    # are a +- pair, whose midpoint is the point 0
    p = derive(h1=-2, h2=-1, l1=F(67, 6), l2=F(33, 2), alpha1=0, alpha2=F(-41, 3), beta=-3, t1=2, t2=1)
    preds = predict_roots(p, classify(p))
    points = _recording_counts(monkeypatch)
    for q in (F(1, 1000), F(1, 10 ** 6)):
        seeds = {_fraction(s) for s in _seeds(p, q, preds)}
        assert any(-s in seeds for s in seeds if s > 0)
        points.clear()
        find_spectral_roots(p, q, 512, predictions=preds)
        assert len(points) == len(set(points)), q


def _newton_with_the_noise_at_every_step(ev, lo, hi, P, start=None):
    """_newton_in_bracket's loop as it ran when ``ev(x)`` gave the noise
    at every evaluation: the reference of the stops."""
    neg = hi.m < 0

    def wide(lo, hi):
        return lo < hi.ldexp(1) if neg else lo.ldexp(1) < hi

    if start is not None and lo < start < hi:
        x = start
    else:
        while wide(lo, hi):
            x = roots_mod._geometric_mean(lo, hi)
            if ev(x)[3]:
                lo = x
            else:
                hi = x
        x = (lo + hi).ldexp(-1)
    for _ in range(4 * P):
        p, dp, err, below = ev(x)
        if not err < abs(p):
            break
        if below:
            lo = x
        else:
            hi = x
        nx = x - p / dp if dp.m else hi
        if not lo < nx < hi:
            nx = roots_mod._geometric_mean(lo, hi) if wide(lo, hi) else (lo + hi).ldexp(-1)
        if not (nx - x).m:
            break
        x = nx
    else:
        p, dp, err, _ = ev(x)
    if not dp.m:
        return None
    return x, (abs(p) + err).ldexp(2) / abs(dp)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "R31-12", "R32-12", "R33-12",
                                  "R31-48", "R32-48", "R33-48"])
def test_newton_stops_where_the_noise_at_every_step_stops_it(name, monkeypatch):
    # every Newton run of the seeded and unseeded solves, reruns included,
    # returns the same (r, t) after the same number of evaluations as the
    # loop that computes the noise at every evaluation
    evaluations, runs = [0], [0]
    newton, newton_eval = roots_mod._newton_in_bracket, roots_mod._newton_eval

    def counting(*args):
        evaluations[0] += 1
        return newton_eval(*args)

    def pair(v):
        return v if v is None else [(d.m, d.e) for d in v]

    def replayed(ev, lo, hi, P, start=None):
        before = evaluations[0]
        got = newton(ev, lo, hi, P, start)
        spent, before = evaluations[0] - before, evaluations[0]
        want = _newton_with_the_noise_at_every_step(lambda x: ev(x, None), lo, hi, P, start)
        assert (pair(got), spent) == (pair(want), evaluations[0] - before)
        runs[0] += 1
        return got

    monkeypatch.setattr(roots_mod, "_newton_eval", counting)
    monkeypatch.setattr(roots_mod, "_newton_in_bracket", replayed)
    p = named_set(name)
    preds = predict_roots(p, classify(p))
    for q in (F(1, 1000), F(1, 10 ** 6)):
        for seeds in (preds, None):
            find_spectral_roots(p, q, 512, predictions=seeds)
    assert runs[0] >= 4 * (p.N + 1)


def test_newton_ends_on_a_null_step_with_the_noise_evaluated_after_it():
    # f(x) = 3x - 4 at 16 bits, noise only where asked at the first step:
    # Newton narrows the bracket to two neighbouring 16-bit points, whose
    # midpoint truncates to x, and evaluates the noise once more after the
    # loop
    P, asked = 16, []

    def ev(x, last):
        asked.append(last)
        noise = Dyadic(1, -40, P) if last is None else None
        return Dyadic(3, 0, P) * x - Dyadic(4, 0, P), Dyadic(3, 0, P), noise, _fraction(x) < F(4, 3)

    r, t = roots_mod._newton_in_bracket(ev, Dyadic(1, 0, P), Dyadic(3, -1, P), P)
    assert asked[0] is None and asked[-1] is None and None not in asked[1:-1]
    assert len(asked) < 4 * P
    assert abs(_fraction(r) - F(4, 3)) <= _fraction(t) < F(1, 2 ** 12)


def test_newton_gives_no_approximation_where_the_derivative_is_zero():
    P = 16

    def flat(x, last):  # f = 1 within noise 2, f' = 0
        return Dyadic(1, 0, P), Dyadic(0, 0, P), Dyadic(1, 1, P), True

    assert roots_mod._newton_in_bracket(flat, Dyadic(1, 0, P), Dyadic(3, -1, P), P) is None


# sha256 of repr([root._mpf_ ...]) of the two seeded solves below, recorded
# when every root still took a certified count per halving of Newton's
# error estimate (397 and 15,195 certified counts)
_RERUN_DIGESTS = {
    ("R32-48", F(1, 1000)): "1319a9ec65077951702a74404ec19bfb0217474cd9864606b2b5a3141b45bae0",
    ("R31-48", F(99, 100)): "58379da64eba64e46ac2896e327eefd6524d3392bd2ad04ec5decb210518a472",
}


@pytest.mark.parametrize("name,q", list(_RERUN_DIGESTS), ids=["R32-48-q1e-3", "R31-48-q99/100"])
def test_newton_reruns_at_the_precision_each_root_needs(name, q, monkeypatch):
    # R32's balanced cluster and every root near q = 1 lose bits, so Newton's
    # estimate at bits + 24 spans many rounding cells; Newton reruns once at
    # a multiple of 128 bits, and a root has that one precision: its two
    # certified counts run on the rerun's table, so no table is built at
    # 2 * 512 + 24 bits and no root takes more than 3 certified counts
    counts, per_root, reruns, tables = [], [], [], set()
    count, spectral_root, newton, table = (roots_mod._certified_count, roots_mod._spectral_root,
                                           roots_mod._newton_in_bracket, roots_mod.fixed_q)

    def counting(ratio, x):
        counts.append(x.P)
        return count(ratio, x)

    def counting_root(*args):
        before = len(counts), len(reruns)
        out = spectral_root(*args)
        per_root.append((counts[before[0]:], reruns[before[1]:]))
        return out

    def recording(ev, lo, hi, P, start=None):
        if P != 512 + EVAL_GUARD_BITS:
            reruns.append(P)
        return newton(ev, lo, hi, P, start)

    def table_seen(p, q, P):
        tables.add(P)
        return table(p, q, P)

    monkeypatch.setattr(roots_mod, "_certified_count", counting)
    monkeypatch.setattr(roots_mod, "_spectral_root", counting_root)
    monkeypatch.setattr(roots_mod, "_newton_in_bracket", recording)
    monkeypatch.setattr(roots_mod, "fixed_q", table_seen)
    p = named_set(name)
    found, _ = find_spectral_roots(p, q, 512, predictions=predict_roots(p, classify(p)))
    assert hashlib.sha256(repr([r._mpf_ for r in found]).encode()).hexdigest() == _RERUN_DIGESTS[name, q]
    assert len(per_root) == p.N + 1 and max(len(c) for c, _ in per_root) <= 3
    assert reruns and all(P % 128 == 0 and P > 512 + EVAL_GUARD_BITS for P in reruns)
    assert all(c == r * 2 for c, r in per_root if r), [(c, r) for c, r in per_root if r]
    assert 2 * 512 + EVAL_GUARD_BITS not in tables, sorted(tables)
    assert len(counts) == {"R32-48": 99, "R31-48": 98}[name]


# ---------------------------------------------------------------------------
# the roots from the recursion against independent oracles
# ---------------------------------------------------------------------------


def _within_width(got, want, bits, k=4):
    """Each root within k units of relative width 2^-bits of the other.  Two
    roots each certified to that width differ by at most 2 units; a root of
    the rounded image may move by a few more."""
    assert len(got) == len(want)
    with mpmath.workprec(bits + 64):
        for a, b in zip(got, want):
            assert abs(a - b) <= k * mpmath.mpf(2) ** -bits * abs(b), (a, b)


def _image_roots(p, q, bits):
    """The roots of the mpf image of the exact c_{N+1}, by Sturm isolation."""
    return find_real_roots(spectral_polynomial(p).coefficient_values(q, p.t1, p.t2, bits=bits), bits)


@pytest.mark.parametrize("q", [F(1, 10 ** k) for k in (3, 4, 5, 6)])
def test_roots_agree_with_the_image_pipeline(p1, p2, p3, p4, q):
    for p in (p1, p2, p3, p4):
        preds = predict_roots(p, classify(p))
        found, bits = find_spectral_roots(p, q, 512, predictions=preds)
        assert bits == 512
        _within_width(found, _image_roots(p, q, 512), 512, k=8)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["R31", "R32", "R33"]), st.integers(0, 10 ** 6),
       st.sampled_from([F(1, 1000), F(1, 10 ** 6)]), st.sampled_from([128, 512]))
def test_sampled_roots_agree_with_the_image_pipeline(regime, seed, q, bits):
    p = sample_params(regime, random.Random(seed), n_max=6)
    preds = predict_roots(p, classify(p))
    found, _ = find_spectral_roots(p, q, bits, predictions=preds)
    _within_width(found, _image_roots(p, q, bits), bits, k=8)
    # the seeds choose the isolation points, not the roots' accuracy
    _within_width(find_spectral_roots(p, q, bits)[0], found, bits)


def _solve_sets(name):
    """P1-P4 by name; a regime's seeds 0-5 at N <= 6; "R32-48" the seed-12
    R32 set at N = 48, whose balanced roots form a cluster."""
    if name.startswith("P"):
        return [getattr(acceptance, name)]
    if name == "R32-48":
        return [sample_params("R32", random.Random(12), N=48)]
    return [sample_params(name, random.Random(seed), n_max=6) for seed in range(6)]


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "R31", "R32", "R33"])
def test_seeded_and_unseeded_roots_are_bit_identical(name):
    # the seeds move the isolation points and Newton's start, not the roots
    qs = [F(1, 10 ** k) for k in ((3, 4, 5, 6) if name.startswith("P") else (3, 6))]
    for p in _solve_sets(name):
        preds = predict_roots(p, classify(p))
        for q in qs:
            seeded, _ = find_spectral_roots(p, q, 512, predictions=preds)
            unseeded, _ = find_spectral_roots(p, q, 512)
            assert [r._mpf_ for r in seeded] == [r._mpf_ for r in unseeded], (p, q)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "R31", "R32", "R33", "R32-48"])
def test_roots_are_the_2048_bit_roots_rounded_to_512_bits(name):
    # each root is the true root rounded to nearest: the roots at 512 bits
    # are the roots at 2048 bits rounded, also on the N = 48 cluster, where
    # Newton's error bound spans many rounding cells
    qs = [F(1, 1000)] if name == "R32-48" else [F(1, 1000), F(1, 10 ** 6)]
    for p in _solve_sets(name):
        preds = predict_roots(p, classify(p))
        for q in qs:
            found, _ = find_spectral_roots(p, q, 512, predictions=preds)
            fine, _ = find_spectral_roots(p, q, 2048, predictions=preds)
            with mpmath.workprec(512):
                assert [r._mpf_ for r in found] == [(+r)._mpf_ for r in fine], (p, q)


def test_roots_near_q_one_hold_their_width_against_more_bits():
    # at q = 99/100 the image's coefficients cancel heavily, and its roots
    # at 512 bits lie about 1e15 units of 2^-512 from the true ones; the
    # counts certify against the exact q
    p = sample_params("R33", random.Random(0), N=4)
    q = F(99, 100)
    found, _ = find_spectral_roots(p, q, 512)
    _within_width(found, find_spectral_roots(p, q, 2048)[0], 512, k=2)


@pytest.mark.parametrize("s", [F(2), F(3, 2)])
def test_scaling_t1_and_t2_scales_every_root(p1, p2, p3, p4, s):
    # homogeneity: E -> s E, t1 -> s t1, t2 -> s t2 leaves c_{N+1} = 0
    sampled = sample_params("R32", random.Random(5), N=5)
    for p in (p1, p2, p3, p4, sampled):
        scaled = derive(**{**p.raw(), "t1": s * p.t1, "t2": s * p.t2})
        for q in (F(1, 1000), F(1, 10 ** 6)):
            roots, _ = find_spectral_roots(p, q, 512)
            moved, _ = find_spectral_roots(scaled, q, 512)
            with mpmath.workprec(600):
                _within_width(moved, [to_mpf(s) * r for r in roots], 512)


def test_an_uncertified_count_is_redone_at_doubled_bits(p1, monkeypatch):
    # every count at the first precision fails; the redo at 1024 bits
    # certifies the same roots
    q = F(1, 1000)
    want, _ = find_spectral_roots(p1, q, 512)
    certified, seen = roots_mod._certified_count, []

    def blurred_at_512(ratio, x):
        seen.append(x.P)
        return None if x.P == 512 + EVAL_GUARD_BITS else certified(ratio, x)

    monkeypatch.setattr(roots_mod, "_certified_count", blurred_at_512)
    got, bits = find_spectral_roots(p1, q, 512)
    assert bits == 512 and [r._mpf_ for r in got] == [r._mpf_ for r in want]
    assert set(seen) == {512 + EVAL_GUARD_BITS, 1024 + EVAL_GUARD_BITS}


def test_a_rung_without_favard_boxes_is_skipped(p1, monkeypatch):
    # an A_1 box that is not positive leaves the first table no ratio rows:
    # every count runs on the next rung, 1024 bits, and certifies the same
    # roots
    q = F(1, 1000)
    want, _ = find_spectral_roots(p1, q, 512)
    fq = fixed_q(p1, q, 512 + EVAL_GUARD_BITS)
    assert fq.points and fq.favard_boxes  # the plain counts and Newton keep their rows
    (A, *rest), *later = fq.boxes
    monkeypatch.setitem(fq.__dict__, "boxes", ((Box(-1, A.hi, A.e, A.P), *rest), *later))
    monkeypatch.delitem(fq.__dict__, "favard_boxes")
    assert fq.favard_boxes is None
    certified, seen = roots_mod._certified_count, []

    def recording(ratio, x):
        seen.append(x.P)
        return certified(ratio, x)

    monkeypatch.setattr(roots_mod, "_certified_count", recording)
    got, _ = find_spectral_roots(p1, q, 512)
    assert [r._mpf_ for r in got] == [r._mpf_ for r in want]
    assert seen and set(seen) == {1024 + EVAL_GUARD_BITS}


def test_a_bracket_that_holds_no_root_is_not_certified(p1):
    # (r0 / 2, 2 r1) lies between P1's two most negative roots: every side
    # says the root is below it, and the end that no side moved fails
    q, prec = F(1, 1000), 512 + EVAL_GUARD_BITS
    r0, r1, _ = find_spectral_roots(p1, q, 512)[0]
    lo, hi = Dyadic.of_mpf(r0, prec).ldexp(-1), Dyadic.of_mpf(r1, prec).ldexp(1)
    with pytest.raises(PrecisionError, match=r"^the isolating bracket of root 3 of 3, counted "
                                             r"from the largest is not certified$"):
        roots_mod._spectral_root(fixed_q(p1, q, prec), lo, hi, 2, 512, None)


def test_an_exact_root_on_the_bisection_grid_is_returned_exactly():
    # N = 0 and q = 10^-6 make every q-power in c_1(E) = (B_1 E + C_1) / A_1
    # rational: its root -C_1/B_1 is an integer, a grid point that
    # bisection probes, where no count can be certified
    p = derive(-4, -1, F(7, 6), 2, 0, F(-17, 3), F(-1, 2), F(1, 2), 2)
    q = F(1, 10 ** 6)

    def exact(a):  # every 6 qexp is an integer, so q^qexp = 10^(-6 qexp)
        return sum(t.coeff * F(10) ** int(-6 * t.qexp) * p.t1 ** t.t1pow * p.t2 ** t.t2pow
                   for t in a.terms)

    _, B, C, _ = _exact_rows(p)[0]
    root = -exact(C) / exact(B)
    assert root.denominator == 1
    found, _ = find_spectral_roots(p, q, 512)
    assert [roots_mod._mpf_to_fraction(r) for r in found] == [root]


def test_a_count_uncertified_at_max_bits_names_its_point(p1, monkeypatch):
    # the count is tried at every doubled precision up to MAX_BITS first
    seen = []
    monkeypatch.setattr(roots_mod, "_certified_count", lambda ratio, x: seen.append(x.P))
    with pytest.raises(PrecisionError, match=r"root count at E = -?\d.* is not certified at 4096 bits"):
        find_spectral_roots(p1, F(1, 1000), 512)
    assert sorted(set(seen)) == [b + EVAL_GUARD_BITS for b in (512, 1024, 2048, 4096)]


def _assert_bound_above_roots(p, q):
    prec = 512 + EVAL_GUARD_BITS
    R = roots_mod._gershgorin_bound(fixed_q(p, q, prec).points, prec)
    assert (R.m, R.P) == (1, prec)  # 2^R.e
    bound = _fraction(R)
    roots = find_spectral_roots(p, q, 512)[0]
    assert all(abs(roots_mod._mpf_to_fraction(r)) < bound for r in roots), (p, q, bound)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["R31", "R32", "R33"]), st.integers(0, 10 ** 6), st.integers(1, 12),
       st.sampled_from([F(1, 1000), F(1, 10 ** 6), F(99, 100)]))
def test_the_gershgorin_bound_is_a_power_of_two_above_every_root(regime, seed, N, q):
    # the bound comes from Dyadic rows cut by truncation, not from rounded
    # mpf arithmetic; it still lies above every root the counts find
    _assert_bound_above_roots(sample_params(regime, random.Random(seed), N=N), q)


@pytest.mark.parametrize("name", [f"{r}-{N}" for N in (24, 48) for r in ("R31", "R32", "R33")])
def test_the_gershgorin_bound_is_above_every_root_of_the_large_sets(name):
    for q in (F(1, 1000), F(1, 10 ** 6)):
        _assert_bound_above_roots(named_set(name), q)


# ---------------------------------------------------------------------------
# the certified count against the mpmath.iv count it replaced
# ---------------------------------------------------------------------------


@contextmanager
def _iv_prec(prec):
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        yield
    finally:
        mpmath.iv.prec = old


def _favard_rows(rows):
    """The Favard rows (B_n, C_n, G_n = D_n A_{n-1}) of rows (A, B, C, D)
    in their own arithmetic, G_1 = D_1 * 0."""
    return [(B, C, D * A) for (A, _, _, _), (_, B, C, D) in zip([(0,) * 4, *rows], rows)]


def _iv_ratio(p, q, prec):
    """The count's rows (B_n, C_n, G_n) in mpmath.iv at prec, each q-power
    the interval exp(mu log q); None unless every A_n, B_n, D_n is positive."""
    def conv(x):
        x = Fraction(x)
        return mpmath.iv.mpf(x.numerator) / x.denominator

    with _iv_prec(prec):
        lq = mpmath.iv.log(conv(q))
        qp = functools.cache(lambda mu: mpmath.iv.exp(conv(mu) * lq))
        rows = recursion_rows(p, conv(q), conv(p.t1), conv(p.t2), from_numerator(p, qp))
        if not all(A.a > 0 and B.a > 0 and D.a > 0 for A, B, _, D in rows):
            return None
        return _favard_rows(rows)


def _iv_count(ratio, x: Fraction, prec):
    """The certified count of x in mpmath.iv, or None when an s_n interval
    contains 0."""
    with _iv_prec(prec):
        xv = mpmath.iv.mpf(x.numerator) / x.denominator
        above, s = 0, 1
        for B, C, G in ratio:
            s = B * xv + C - G / s
            if s.b < 0:
                above += 1
            elif not s.a > 0:
                return None
    return above


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["R31", "R32", "R33"]), st.integers(0, 10 ** 6), st.integers(1, 12),
       st.sampled_from([F(1, 1000), F(1, 10 ** 6), F(99, 100)]), st.sampled_from([128, 512]),
       st.randoms(use_true_random=False))
def test_certified_counts_certify_wherever_the_iv_reference_does(regime, seed, N, q, bits, rnd):
    # at the grid points of relative spacing 2^-bits next to each root,
    # where certification is hardest, and at random points near and between
    # the roots, the int count certifies wherever the iv count does, with
    # the same count
    p = sample_params(regime, random.Random(seed), N=N)
    prec = bits + EVAL_GUARD_BITS
    roots = [roots_mod._mpf_to_fraction(r) for r in find_spectral_roots(p, q, bits)[0]]
    reference = _iv_ratio(p, q, prec)
    ratio = fixed_q(p, q, prec).favard_boxes
    assert reference is None or ratio is not None
    points = []
    for r in roots:
        step = F(2) ** (abs(r).numerator.bit_length() - abs(r).denominator.bit_length() - 1 - bits)
        points += [r - step, r + step]
    for _ in range(2 * len(roots)):
        r = rnd.choice(roots)
        points.append(r * (1 + rnd.choice([-1, 1]) * F(1, 2 ** rnd.randint(1, bits))))
        points.append((r + rnd.choice(roots)) * F(rnd.randint(1, 2 ** 20), 2 ** 21))
    certified = 0
    for x in points:
        want = _iv_count(reference, x, prec) if reference else None
        if want is not None:
            certified += 1
            got = roots_mod._certified_count(ratio, Box.ratio(x.numerator, x.denominator, prec))
            assert got == want, x
    assert certified >= len(points) // 2


# ---------------------------------------------------------------------------
# the int kernels against loops on Dyadic and Box objects: the loops they
# replaced, and for the plain count the ratio recursion, which moves a zero
# s_n off zero where the kernel counts a zero w_n as positive
# ---------------------------------------------------------------------------


def _object_count(ratio, x: Dyadic) -> int:
    above, s = 0, Dyadic(1, 0, x.P)
    for B, C, G in ratio:
        bx = B * x
        s = bx + C - G / s
        if s.m < 0:
            above += 1
        elif not s.m:
            s = (abs(bx) + C).ldexp(-x.P)
    return above


def _box_div(x: Box, o) -> Box:
    """x / o on boxes, rounded outward: the division step of the certified
    count, which its kernel inlines; an int o is an exact point."""
    if not isinstance(o, Box):
        o = Box(o, o, 0, x.P)
    if o.hi < 0:
        return _box_div(-x, -o)
    if not o.lo > 0:
        raise ZeroDivisionError("division by a box that holds 0")
    # for a divisor above 0, the least quotient has the numerator's lo
    # over hi if lo >= 0, else over lo; the greatest likewise
    k = max(x.P + 1 + o.hi.bit_length() - min(x.lo.bit_length(), x.hi.bit_length()), 0)
    lo = (x.lo << k) // (o.hi if x.lo >= 0 else o.lo)
    hi = -(-(x.hi << k) // (o.lo if x.hi >= 0 else o.hi))
    return Box(lo, hi, x.e - o.e - k, x.P)


def _object_certified_count(ratio, x: Box):
    above, s = 0, 1
    for B, C, G in ratio:
        s = B * x + C - _box_div(G, s)
        if s.hi < 0:
            above += 1
        elif not s.lo > 0:
            return None
    return above


def _object_newton_eval(newton_rows, x: Dyadic):
    zero, one = Dyadic(0, 0, x.P), Dyadic(1, 0, x.P)
    c2, c1, d2, d1, m2, m1 = zero, one, zero, zero, zero, one
    for b, g, e in newton_rows:
        bx = b * x
        f = bx + g
        c1, c2 = f * c1 - e * c2, c1
        d1, d2 = b * c2 + f * d1 - e * d2, d1
        m1, m2 = (abs(bx) + g) * m1 + e * m2, m1
    return c1, d1, Dyadic(m1.m * len(newton_rows), m1.e + 4 - x.P, x.P)


def _point_rows(fq):
    """The lower ends of fq.boxes as Dyadic rows (A, B, C, D), and the
    products G_n = A_{n-1} D_n, G_1 = 0: the reference of fq.points, built
    beside it from the boxes, so that a column of the flat table that holds
    the wrong row fails the kernels' differential tests."""
    rows = [tuple(Dyadic(b.lo, b.e, b.P) for b in row) for row in fq.boxes]
    return rows, [Dyadic(0, 0, fq.P)] + [A * D for (A, _, _, _), (_, _, _, D) in zip(rows, rows[1:])]


def _object_rows(p, q, bits):
    """The rows find_spectral_roots gives the plain counts, Newton and the
    certified counts at ``bits``, as Dyadic and Box objects."""
    fq = fixed_q(p, q, bits + EVAL_GUARD_BITS)
    rows, G = _point_rows(fq)
    favard = [(B, C, g) for (_, B, C, _), g in zip(rows, G)]
    return favard, favard, _favard_rows(fq.boxes)


def _assert_kernels_equal_the_object_loops(p, q, bits, points):
    """At each Fraction point, as Dyadic and as Box, the three kernels on
    the fixed-q table's flat rows return what the object loops return on
    the objects."""
    prec = bits + EVAL_GUARD_BITS
    plain, newton, boxes = _object_rows(p, q, bits)
    fq = fixed_q(p, q, prec)
    flat_plain, flat_newton, flat_boxes = fq.points, fq.points, fq.favard_boxes
    for x in points:
        box = Box.ratio(x.numerator, x.denominator, prec)
        d = Dyadic(box.lo, box.e, prec)
        assert roots_mod._count(flat_plain, d) == _object_count(plain, d), x
        assert roots_mod._certified_count(flat_boxes, box) == _object_certified_count(boxes, box), x
        got, want = roots_mod._newton_eval(flat_newton, d), _object_newton_eval(newton, d)
        assert [(v.m, v.e, v.P) for v in got] == [(v.m, v.e, v.P) for v in want], x
    # a box that holds 0 takes the mixed-sign branch of the product
    for box in (Box(-1, 1, -prec, prec), Box(-3, 2 ** 20, -prec, prec)):
        assert roots_mod._certified_count(flat_boxes, box) == _object_certified_count(boxes, box)


#: P1-P4 and the seed-12 sets of each regime at N = 12, 24, 48
NAMED_SETS = ["P1", "P2", "P3", "P4"] + [f"{r}-{N}" for N in (12, 24, 48) for r in ("R31", "R32", "R33")]


def named_set(name):
    """P1-P4 by name, or the seed-12 set of a regime and N named "R31-12"."""
    if name.startswith("P"):
        return getattr(acceptance, name)
    return sample_params(name[:3], random.Random(12), N=int(name[4:]))


@functools.cache
def _kernel_case(name, q):
    p = named_set(name)
    roots = [roots_mod._mpf_to_fraction(r) for r in find_spectral_roots(p, q, 512)[0]]
    return p, roots


@pytest.mark.parametrize("bits", [512, 4096])
@pytest.mark.parametrize("q", [F(1, 1000), F(1, 10 ** 6)], ids=["q1e-3", "q1e-6"])
@pytest.mark.parametrize("name", NAMED_SETS)
def test_the_kernels_equal_the_object_loops(name, q, bits):
    # one grid step of 2^-bits either side of up to six roots spread over
    # all of them, random points near and between the roots, their
    # negatives and 0
    p, roots = _kernel_case(name, q)
    rnd = random.Random(bits)
    points = [F(0)]
    for r in roots[:: -(-len(roots) // 6)]:
        step = F(2) ** (abs(r).numerator.bit_length() - abs(r).denominator.bit_length() - 1 - bits)
        points += [r - step, r + step]
    for _ in range(4):
        r = rnd.choice(roots)
        near = r * (1 + rnd.choice([-1, 1]) * F(1, 2 ** rnd.randint(1, bits)))
        between = (r + rnd.choice(roots)) * F(rnd.randint(1, 2 ** 20), 2 ** 21)
        points += [near, between, -near, -between]
    _assert_kernels_equal_the_object_loops(p, q, bits, points)


def test_the_kernels_equal_the_object_loops_where_s_1_is_zero():
    # the N = 0 set of test_an_exact_root_on_the_bisection_grid_is_returned_exactly:
    # at the Dyadic next to -C_1/B_1 where B_1 x + C_1 truncates to exactly
    # 0, the plain count takes w_1 as positive and the ratio recursion moves
    # s_1 off zero; at the exact root the certified count is None
    p = derive(-4, -1, F(7, 6), 2, 0, F(-17, 3), F(-1, 2), F(1, 2), 2)
    q, prec = F(1, 10 ** 6), 512 + EVAL_GUARD_BITS
    (root,) = (roots_mod._mpf_to_fraction(r) for r in find_spectral_roots(p, q, 512)[0])
    ((B, C, _),), _, boxes = _object_rows(p, q, 512)
    E = Dyadic(-C.m, C.e, prec) / B
    zero = next(x for x in (Dyadic(E.m + k, E.e, prec) for k in range(-4, 5)) if not (B * x + C).m)
    _assert_kernels_equal_the_object_loops(p, q, 512, [_fraction(zero), root])
    assert _object_certified_count(boxes, Box.ratio(root.numerator, root.denominator, prec)) is None


# ---------------------------------------------------------------------------
# exact counts at q = r^D
#
# At q = r^D, D = _scale_den(p), every q-power of recursion_rows is the
# Fraction r^(mu D), so the Favard rows (B_n, C_n, G_n = D_n A_{n-1}) are
# exact.  At E = M/W, u_n = (B_n M + C_n W) u_{n-1} - G_n W^2 u_{n-2} is W^n
# times the numerator of c_n(E), and with B_n > 0 and G_n > 0 the sign
# changes of u_0 .. u_{N+1} count the roots of c_{N+1} above E; a zero takes
# no sign, so at a root they count the roots above it.  The check shares
# only recursion_rows with the search: no Box, rounding, certified count or
# Newton step.
# ---------------------------------------------------------------------------


def _exact_favard_rows(p, r: Fraction) -> list:
    D = _scale_den(p)

    def qp(mu):
        k = F(mu) * D
        assert k.denominator == 1, mu
        return r ** k.numerator

    rows, prev_A = [], 0
    for A, B, C, Dn in recursion_rows(p, qp(1), p.t1, p.t2, from_numerator(p, qp)):
        assert A > 0 and B > 0 and Dn > 0
        rows.append((B, C, Dn * prev_A))
        prev_A = A
    return rows


def _exact_count(rows, E: Fraction) -> tuple[int, bool]:
    """The number of roots of c_{N+1} above E, and whether E is one."""
    M, W = E.numerator, E.denominator
    u0, u1, positive, changes = 0, 1, True, 0
    for B, C, G in rows:
        u0, u1 = u1, (B * M + C * W) * u1 - G * W * W * u0
        if u1:
            changes += (u1 > 0) != positive
            positive = u1 > 0
    return changes, not u1


def _exact_roots(p, r: Fraction, bits: int) -> list[Fraction]:
    """find_spectral_roots at q = r^D, each root as its exact Fraction."""
    roots, _ = find_spectral_roots(p, r ** _scale_den(p), bits)
    return [F((-1) ** s * m) * F(2) ** e for s, m, e, _ in (x._mpf_ for x in roots)]


def _assert_exact_counts(p, r: Fraction, roots, bits: int) -> None:
    """Each root x of the ascending ``roots``, k of them above it, is a root
    of c_{N+1} at q = r^D rounded to nearest at ``bits`` bits: the exact
    count is k + 1 at the lower end of x's cell and k at the upper end.  A
    cell end that is itself a root is a tie, which rounds to the end's
    _cell, the neighbour with the even mantissa."""
    rows = _exact_favard_rows(p, r)
    for k, x in enumerate(reversed(roots)):
        g, down, up = _cell(x, bits)
        assert g == x, x
        (at_down, root_down), (above_up, root_up) = _exact_count(rows, down), _exact_count(rows, up)
        at_down += root_down and _cell(down, bits)[0] == x
        above_up += root_up and _cell(up, bits)[0] != x
        assert (at_down, above_up) == (k + 1, k), (x, k, at_down, above_up)


@pytest.mark.parametrize("r", [F(1, 2), F(1, 10)], ids=["r1/2", "r1/10"])
@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "R31", "R32", "R33"]
                         + [f"{r}-{N}" for N in (12, 24) for r in ("R31", "R32", "R33")])
def test_exact_counts_at_q_r_to_the_d_check_every_root(name, r):
    # P1-P4, each regime's seeds 0-5 at N <= 6 and the seed-12 sets at
    # N = 12 and 24
    for p in _solve_sets(name) if "-" not in name else [named_set(name)]:
        _assert_exact_counts(p, r, _exact_roots(p, r, 512), 512)


def test_exact_counts_check_the_roots_newton_reran_at_more_bits(monkeypatch):
    # at q = (99/100)^D Newton's estimates on the R32 N = 12 set are wider
    # than the 2^-512 grid, and it reruns at the precision each root needs
    p, r = named_set("R32-12"), F(99, 100)
    newton, reruns = roots_mod._newton_in_bracket, []

    def recording(ev, lo, hi, P, start=None):
        if P != 512 + EVAL_GUARD_BITS:
            reruns.append(P)
        return newton(ev, lo, hi, P, start)

    monkeypatch.setattr(roots_mod, "_newton_in_bracket", recording)
    roots = _exact_roots(p, r, 512)
    assert len(reruns) >= p.N
    _assert_exact_counts(p, r, roots, 512)


def test_exact_counts_catch_each_root_moved_one_unit_up():
    p, r = named_set("R32-12"), F(1, 2)
    roots = _exact_roots(p, r, 512)
    assert len(roots) == 13
    for i, x in enumerate(roots):
        up = _cell(x, 512)[2]
        with pytest.raises(AssertionError):
            _assert_exact_counts(p, r, roots[:i] + [2 * up - x] + roots[i + 1:], 512)


@pytest.mark.parametrize("t2,end", [(1, "down"), (3, "up")])
def test_exact_counts_give_a_tie_at_a_cell_end_to_the_even_mantissa(t2, end):
    # N = 0 and q = 1/4: c_1's root -C_1/B_1 is -85/2 (t2 = 1) or -95/2
    # (t2 = 3), halfway between two 6-bit numbers, so it is an end of both
    # their cells and u_1 = 0 there.  It rounds to -42 = -21 * 2 (its cell's
    # lower end) or to -48 = -3 * 2^4 (its upper end), not to the odd
    # neighbour -43 or -47
    p, r, bits = derive(-2, -1, -2, 1, 0, 0, 0, 1, t2), F(1, 2), 6
    rows = _exact_favard_rows(p, r)
    ((B, C, _),) = rows
    root = -C / B
    (x,) = _exact_roots(p, r, bits)
    _assert_exact_counts(p, r, [x], bits)
    _, down, up = _cell(x, bits)
    assert root == {"down": down, "up": up}[end] and _exact_count(rows, root)[1]
    with pytest.raises(AssertionError):
        _assert_exact_counts(p, r, [2 * root - x], bits)
