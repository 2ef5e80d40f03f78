from fractions import Fraction

import mpmath
import pytest

from qheun.errors import MatchingError, PrecisionError
from qheun.roots import (
    NumPoly,
    estimate_exponents,
    find_real_roots,
    find_spectral_roots,
    match_predictions,
    real_roots_of_rational_poly,
    _sign_groups,
)
from qheun.spectral import spectral_polynomial
from qheun.ultra import PredictedRoot, classify, predict_roots

F = Fraction


def _poly(coeffs, q=F(1, 10), bits=256):
    with mpmath.workprec(bits):
        vals = tuple(mpmath.mpf(c.numerator) / c.denominator for c in coeffs)
    return NumPoly(vals, q, F(1), F(1), bits)


def test_quadratic_roots():
    roots = find_real_roots(_poly([F(-1), F(0), F(1)]))
    assert [float(r) for r in roots] == [-1.0, 1.0]


def test_constructed_cubic_with_zero_root():
    # E(E-q)(E-q^2) at q = 1/10
    q = F(1, 10)
    coeffs = [F(0), q ** 3, -(q + q * q), F(1)]
    roots = find_real_roots(_poly(coeffs, q))
    assert [float(r) for r in roots] == [0.0, 0.01, 0.1]


def test_precision_error_on_complex_roots():
    with pytest.raises(PrecisionError):
        find_real_roots(_poly([F(1), F(0), F(1)]))  # E^2 + 1


def test_p3_roots_at_tiny_q(p3):
    roots, _ = find_spectral_roots(p3, F(1, 10 ** 6), 512)
    assert len(roots) == 2
    big, small = sorted(roots)  # both negative
    assert float(big) == pytest.approx(-1.0, rel=0.01)
    assert float(small) == pytest.approx(-1e-3, rel=0.01)


def test_seeded_isolation_agrees_with_unseeded(p1):
    ep = spectral_polynomial(p1)
    poly = NumPoly.from_epoly(ep, F(1, 1000), p1.t1, p1.t2, bits=512)
    plain = find_real_roots(poly)
    seeded = find_real_roots(poly, seeds=[-1e9, -3e10, -1e14, -1e18])
    # different isolation brackets may shift the refined midpoint within
    # the 2^-(bits//2) relative target, never beyond
    with mpmath.workprec(512):
        for a, b in zip(plain, seeded):
            assert abs((a - b) / a) < mpmath.mpf(2) ** -250


def test_synthetic_power_law_slope_calibration():
    # single root E(q) = -3 q^{-5/2}: slope recovered to < 1e-6 absolute
    q1, q2 = F(1, 1000), F(1, 10000)
    vals = []
    for q in (q1, q2):
        with mpmath.workprec(256):
            c0 = 3 * mpmath.exp(mpmath.mpf("-2.5") * mpmath.log(mpmath.mpf(1) / q.denominator))
            poly = NumPoly((c0, mpmath.mpf(1)), q, F(1), F(1), 256)
        vals.append(find_real_roots(poly)[0])
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
