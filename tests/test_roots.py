import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qheun.roots as roots_mod
from qheun.errors import DomainError, MatchingError, PrecisionError
from qheun.roots import (
    estimate_exponents,
    find_real_roots,
    find_spectral_roots,
    match_predictions,
    real_roots_of_rational_poly,
    _real_roots_fractions,
    _sign_groups,
)
from qheun.qmono import EVAL_GUARD_BITS, to_mpf
from qheun.sampling import sample_params
from qheun.spectral import derive, recursion_coeff_rows, spectral_polynomial
from qheun.ultra import PredictedRoot, classify, predict_roots

F = Fraction


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


def test_seeded_isolation_agrees_with_unseeded(p1):
    vals = spectral_polynomial(p1).coefficient_values(F(1, 1000), p1.t1, p1.t2, bits=512)
    plain = find_real_roots(vals, 512)
    seeded = find_real_roots(vals, 512, seeds=[-1e9, -3e10, -1e14, -1e18])
    # different isolation brackets may shift the refined midpoint within
    # the 2^-bits relative target, never beyond
    with mpmath.workprec(512):
        for a, b in zip(plain, seeded):
            assert abs((a - b) / a) < mpmath.mpf(2) ** -(512 - 2)


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
    # bisecting (-8, 0) and (0, 8) probes -1/8 and 9/8, which are grid points
    # of the final level: an approximation near them and an exact side of 0
    # return them, not None
    rs = [Fraction(-1, 8), Fraction(9, 8)]
    coeffs = _from_roots(Fraction(1), rs)
    assert _oracle_roots(coeffs, 64) == rs
    for root in rs:
        A, B, V, side = _bracket_and_side(coeffs, root > 0)
        assert roots_mod._bisect_exact(A, B, V, 64, side) == root
        for r in (root, root + Fraction(1, 2 ** 100)):
            assert roots_mod._bisection_point(A, B, V, 64, r, Fraction(1, 2 ** 80), side) == root


@pytest.mark.parametrize(
    "root,guess",
    [(Fraction(4, 3), -10), (1 + Fraction(1, 2 ** 70), -10), (Fraction(4, 3 * 2 ** 10), 0)],
    ids=["below", "below-grid-point", "above"],
)
def test_an_approximation_far_from_the_root_gives_the_bisection_point(root, guess):
    # the approximation 2^guess, with an error bound that covers the root,
    # reads a final level deeper (below) or shallower (above) than the one
    # where bisection to 2^-64 stops; 1 + 2^-70 even lies on the grid of
    # that deeper level, although bisection stops before it probes it.  The
    # stop-rule check turns that into None, never into another point.  An
    # approximation 2^-30 off reads the right level, and signs at the grid
    # points between place the root
    coeffs = _from_roots(Fraction(1), [root])
    (want,) = _oracle_roots(coeffs, 64)
    assert want != root
    A, B, V, side = _bracket_and_side(coeffs)
    assert roots_mod._bisect_exact(A, B, V, 64, side) == want
    far = roots_mod._bisection_point(A, B, V, 64, Fraction(2) ** guess, Fraction(2), side)
    assert far is None or far == want
    near = Fraction(round(root * 2 ** 30), 2 ** 30)
    assert roots_mod._bisection_point(A, B, V, 64, near, Fraction(1, 2 ** 29), side) == want


def test_an_approximation_whose_bound_misses_the_root_gives_none():
    # both grid points next to 2^guess -+ 2^-100 lie below the root
    coeffs = _from_roots(Fraction(1), [Fraction(4, 3)])
    A, B, V, side = _bracket_and_side(coeffs)
    for guess in (-10, 0):
        assert roots_mod._bisection_point(A, B, V, 64, Fraction(2) ** guess, Fraction(1, 2 ** 100), side) is None


@pytest.mark.parametrize(
    "wrong",
    [lambda ev, lo, hi, prec, start=None: (lo, mpmath.mpf(0)),
     lambda ev, lo, hi, prec, start=None: None],
    ids=["left-endpoint", "none"],
)
def test_wrong_approximation_falls_back_to_exact_bisection(p1, p4, monkeypatch, wrong):
    # a Newton approximation at the bracket's left end, or none, leaves
    # bisection on the certified counts, which returns the same roots
    want = [find_spectral_roots(p, F(1, 1000), 512)[0] for p in (p1, p4)]
    fallbacks = []
    original = roots_mod._bisect_exact

    def counting(*args):
        fallbacks.append(args)
        return original(*args)

    monkeypatch.setattr(roots_mod, "_newton_in_bracket", wrong)
    monkeypatch.setattr(roots_mod, "_bisect_exact", counting)
    got = [find_spectral_roots(p, F(1, 1000), 512)[0] for p in (p1, p4)]
    assert [[r._mpf_ for r in rs] for rs in got] == [[r._mpf_ for r in rs] for rs in want]
    assert fallbacks


def test_verify_solves_take_no_fallback_and_few_exact_evaluations(p1, p2, p3, p4, monkeypatch):
    # a root costs a bounded number of recursion evaluations (plain counts,
    # Newton steps and certified counts; the exact bisection spent about
    # 425 exact evaluations per root), with no fallback to bisection on the
    # counts and no count escalated past the first precision
    evaluations, per_root, fallbacks, escalated = [0], [], [], []
    for name in ("_count", "_certified_count", "_newton_eval"):
        def counting(*args, _f=getattr(roots_mod, name)):
            evaluations[0] += 1
            return _f(*args)

        monkeypatch.setattr(roots_mod, name, counting)
    spectral_root, rows_at = roots_mod._spectral_root, roots_mod.recursion_rows_at

    def counting_root(*args):
        before = evaluations[0]
        out = spectral_root(*args)
        per_root.append(evaluations[0] - before)
        return out

    def rows_seen(p, q, prec, ctx=mpmath.mp):
        if ctx is mpmath.iv and prec != 512 + EVAL_GUARD_BITS:
            escalated.append((p, q, prec))
        return rows_at(p, q, prec, ctx)

    monkeypatch.setattr(roots_mod, "_spectral_root", counting_root)
    monkeypatch.setattr(roots_mod, "recursion_rows_at", rows_seen)
    monkeypatch.setattr(roots_mod, "_bisect_exact", lambda *a: fallbacks.append(a))
    expected = 0
    for p in (p1, p2, p3, p4):
        preds = predict_roots(p, classify(p))
        for q in (F(1, 1000), F(1, 10000), F(1, 100000), F(1, 1000000)):
            found, _ = find_spectral_roots(p, q, 512, predictions=preds)
            assert len(found) == p.N + 1
            expected += p.N + 1
    assert not fallbacks and not escalated
    assert len(per_root) == expected
    assert max(per_root) <= 20


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


def _image_roots(p, q, bits, preds=None):
    """The roots of the mpf image of the exact c_{N+1}, by Sturm isolation."""
    seeds = roots_mod._prediction_seeds(p, preds, q) if preds else None
    return find_real_roots(spectral_polynomial(p).coefficient_values(q, p.t1, p.t2, bits=bits), bits, seeds)


@pytest.mark.parametrize("q", [F(1, 10 ** k) for k in (3, 4, 5, 6)])
def test_roots_agree_with_the_image_pipeline(p1, p2, p3, p4, q):
    for p in (p1, p2, p3, p4):
        preds = predict_roots(p, classify(p))
        found, bits = find_spectral_roots(p, q, 512, predictions=preds)
        assert bits == 512
        _within_width(found, _image_roots(p, q, 512, preds), 512, k=8)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["R31", "R32", "R33"]), st.integers(0, 10 ** 6),
       st.sampled_from([F(1, 1000), F(1, 10 ** 6)]), st.sampled_from([128, 512]))
def test_sampled_roots_agree_with_the_image_pipeline(regime, seed, q, bits):
    p = sample_params(regime, random.Random(seed), n_max=6)
    preds = predict_roots(p, classify(p))
    found, _ = find_spectral_roots(p, q, bits, predictions=preds)
    _within_width(found, _image_roots(p, q, bits, preds), bits, k=8)
    # the seeds choose the isolation points, not the roots' accuracy
    _within_width(find_spectral_roots(p, q, bits)[0], found, bits)


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
        scaled = p.with_value("t1", s * p.t1).with_value("t2", s * p.t2)
        for q in (F(1, 1000), F(1, 10 ** 6)):
            roots, _ = find_spectral_roots(p, q, 512)
            moved, _ = find_spectral_roots(scaled, q, 512)
            with mpmath.workprec(600):
                _within_width(moved, [to_mpf(s) * r for r in roots], 512)


def test_an_uncertified_count_is_redone_at_doubled_bits(p1, monkeypatch):
    q = F(1, 1000)
    want, _ = find_spectral_roots(p1, q, 512)
    certified = roots_mod._certified_count

    def blurred_at_512(ratio, x):
        return None if mpmath.iv.prec == 512 + EVAL_GUARD_BITS else certified(ratio, x)

    monkeypatch.setattr(roots_mod, "_certified_count", blurred_at_512)
    got, bits = find_spectral_roots(p1, q, 512)
    assert bits == 512 and got == want


def test_an_exact_root_on_the_bisection_grid_is_returned_exactly():
    # N = 0 and q = 10^-6 make every q-power in c_1(E) = (B_1 E + C_1) / A_1
    # rational: its root -C_1/B_1 is an integer, a grid point that
    # bisection probes, where no count can be certified
    p = derive(-4, -1, F(7, 6), 2, 0, F(-17, 3), F(-1, 2), F(1, 2), 2)
    q = F(1, 10 ** 6)

    def exact(a):  # every 6 qexp is an integer, so q^qexp = 10^(-6 qexp)
        return sum(t.coeff * F(10) ** int(-6 * t.qexp) * p.t1 ** t.t1pow * p.t2 ** t.t2pow
                   for t in a.terms)

    _, B, C, _ = recursion_coeff_rows(p, 1)
    root = -exact(C) / exact(B)
    assert root.denominator == 1
    found, _ = find_spectral_roots(p, q, 512)
    assert [roots_mod._mpf_to_fraction(r) for r in found] == [root]


def test_a_count_uncertified_at_max_bits_names_its_point(p1, monkeypatch):
    monkeypatch.setattr(roots_mod, "_certified_count", lambda ratio, x: None)
    with pytest.raises(PrecisionError, match=r"root count at E = -?\d.* is not certified at 4096 bits"):
        find_spectral_roots(p1, F(1, 1000), 512)
