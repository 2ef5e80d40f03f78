from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qheun.roots as roots_mod
from qheun.errors import MatchingError, PrecisionError
from qheun.roots import (
    NumPoly,
    estimate_exponents,
    find_real_roots,
    find_spectral_roots,
    match_predictions,
    real_roots_of_rational_poly,
    _real_roots_fractions,
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
    # the 2^-bits relative target, never beyond
    with mpmath.workprec(512):
        for a, b in zip(plain, seeded):
            assert abs((a - b) / a) < mpmath.mpf(2) ** -(poly.bits - 2)


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


# ---------------------------------------------------------------------------
# refinement and isolation against the exact-Fraction pipeline they replaced
# ---------------------------------------------------------------------------


def _f_eval(c, x):
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _f_sign(x):
    return (x > 0) - (x < 0)


def _f_variations(chain, x):
    signs = [s for s in (_f_sign(_f_eval(c, x)) for c in chain) if s]
    return sum(1 for i in range(1, len(signs)) if signs[i] != signs[i - 1])


def _f_sturm_chain(c):
    chain = [c, roots_mod._strip(roots_mod._deriv(c))]
    while len(chain[-1]) > 1:
        r = roots_mod._rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(roots_mod._rescale([-a for a in r]))
    return chain


def _f_nonroot(c, x, step):
    while _f_eval(c, x) == 0:
        x += step
    return x


def _f_isolate(chain, c, lo, hi, cuts):
    nudge = (hi - lo) / 2 ** 24
    points = [lo]
    for cut in sorted(set(cuts)):
        if lo < cut < hi:
            points.append(_f_nonroot(c, cut, nudge))
    points.append(hi)
    var = {pt: _f_variations(chain, pt) for pt in points}
    stack = [
        (points[i], points[i + 1], var[points[i]], var[points[i + 1]])
        for i in range(len(points) - 1)
    ]
    out = []
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = _f_nonroot(c, (a + b) / 2, (b - a) / 2 ** 24)
        vm = _f_variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out


def _f_refine(c, a, b, bits):
    fa = _f_sign(_f_eval(c, a))
    fb = _f_sign(_f_eval(c, b))
    assert fa and fb and fa != fb
    rel = Fraction(1, 2 ** bits)
    floor_w = Fraction(1, 2 ** (2 * bits))
    while True:
        w = b - a
        scale = max(abs(a), abs(b))
        if w <= scale * rel or w <= floor_w:
            return (a + b) / 2
        mid = Fraction(0) if a < 0 < b else (a + b) / 2
        s = _f_sign(_f_eval(c, mid))
        if s == 0:
            return mid
        if s == fa:
            a = mid
        else:
            b = mid


def _oracle_roots(coeffs, bits, cuts=()):
    """Exact-Fraction Sturm isolation and sign bisection, evaluated by
    Fraction Horner at every probe."""
    c = roots_mod._strip(list(coeffs))
    chain = _f_sturm_chain(c)
    R = roots_mod._cauchy_bound(c)
    assert _f_variations(chain, -R) - _f_variations(chain, R) == len(c) - 1
    return sorted(_f_refine(c, a, b, bits) for a, b in _f_isolate(chain, c, -R, R, cuts))


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
_cuts = st.lists(st.fractions(min_value=-300, max_value=300, max_denominator=64), max_size=3)


@settings(max_examples=60, deadline=None)
@given(_roots, _leads, _cuts, st.sampled_from([64, 128, 256]))
@example([Fraction(0), Fraction(-3, 7), Fraction(1, 2), Fraction(5)], Fraction(3, 7), [], 128)
@example([Fraction(-1, 8), Fraction(9, 8)], Fraction(1), [Fraction(1, 2)], 64)
def test_refined_roots_equal_the_fraction_oracle(rs, lead, cuts, bits):
    coeffs = _from_roots(lead, rs)
    got = _real_roots_fractions(coeffs, bits, cuts)
    assert got == _oracle_roots(coeffs, bits, cuts)
    # the zero probe makes a root at the origin exact
    assert (Fraction(0) in rs) == (Fraction(0) in got)


def test_roots_on_a_bisection_midpoint_are_returned_exactly(monkeypatch):
    # isolation gives (-8, 0) and (0, 8); bisecting them probes -1/8 and 9/8,
    # which are grid points of the final level: the approximation lands on
    # them and an exact sign of 0 returns them without a fallback
    rs = [Fraction(-1, 8), Fraction(9, 8)]
    coeffs = _from_roots(Fraction(1), rs)
    assert _oracle_roots(coeffs, 64) == rs
    fallbacks = []
    monkeypatch.setattr(roots_mod, "_bisect_exact", lambda *a: fallbacks.append(a))
    assert _real_roots_fractions(coeffs, 64) == rs
    assert not fallbacks


@pytest.mark.parametrize(
    "wrong",
    [lambda n, a, b, fa, bits: (mpmath.mpf(a.numerator) / a.denominator, mpmath.mpf(0)),
     lambda n, a, b, fa, bits: None],
    ids=["left-endpoint", "none"],
)
def test_wrong_approximation_falls_back_to_exact_bisection(monkeypatch, wrong):
    coeffs = _from_roots(Fraction(5, 3), [Fraction(-7, 3), Fraction(0), Fraction(1, 3), Fraction(11, 2)])
    want = _oracle_roots(coeffs, 128)
    fallbacks = []
    original = roots_mod._bisect_exact

    def counting(*args):
        fallbacks.append(args)
        return original(*args)

    monkeypatch.setattr(roots_mod, "_approximate", wrong)
    monkeypatch.setattr(roots_mod, "_bisect_exact", counting)
    assert _real_roots_fractions(coeffs, 128) == want
    assert fallbacks


@pytest.mark.parametrize(
    "root,guess",
    [(Fraction(4, 3), -10), (1 + Fraction(1, 2 ** 70), -10), (Fraction(4, 3 * 2 ** 10), 0)],
    ids=["below", "below-grid-point", "above"],
)
def test_an_approximation_far_from_the_root_gives_the_bisection_point(monkeypatch, root, guess):
    # the approximation 2^guess, with an error bound that covers the root,
    # reads a final level deeper (below) or shallower (above) than the one
    # where bisection to 2^-64 stops; 1 + 2^-70 even lies on the grid of
    # that deeper level, although bisection stops before it probes it
    coeffs = _from_roots(Fraction(1), [root])
    want = _oracle_roots(coeffs, 64)
    assert want != [root]
    far = (mpmath.mpf(2) ** guess, mpmath.mpf(2))
    monkeypatch.setattr(roots_mod, "_approximate", lambda n, a, b, fa, bits: far)
    assert _real_roots_fractions(coeffs, 64) == want


def test_verify_solves_take_no_fallback_and_few_exact_evaluations(p1, p2, p3, p4, monkeypatch):
    # the exact bisection spent about 425 exact evaluations per root
    evaluations, per_root, fallbacks = [0], [], []
    sign_at, refine = roots_mod._sign_at, roots_mod._refine

    def counting_sign(*args):
        evaluations[0] += 1
        return sign_at(*args)

    def counting_refine(*args):
        before = evaluations[0]
        out = refine(*args)
        per_root.append(evaluations[0] - before)
        return out

    monkeypatch.setattr(roots_mod, "_sign_at", counting_sign)
    monkeypatch.setattr(roots_mod, "_refine", counting_refine)
    monkeypatch.setattr(roots_mod, "_bisect_exact", lambda *a: fallbacks.append(a))
    expected = 0
    for p in (p1, p2, p3, p4):
        ep = spectral_polynomial(p)
        preds = predict_roots(p, classify(p))
        for q in (F(1, 1000), F(1, 10000), F(1, 100000), F(1, 1000000)):
            found, _ = find_spectral_roots(p, q, 512, epoly=ep, predictions=preds)
            assert len(found) == p.N + 1
            expected += p.N + 1
    assert not fallbacks
    assert len(per_root) == expected
    assert max(per_root) <= 6
