"""The acceptance criteria: the paper's claims as checks that raise on failure.

``CRITERIA`` lists them in order as ``(description, function)``; the
description is the function's docstring.  Each function takes no argument
and fixes its own seeds, q values, precision and tolerances.  ``qheun
selftest`` and ``tests/test_acceptance.py`` both run this list.  P1-P4 are
the parameter sets the criteria and the tests share.
"""

import random
from fractions import Fraction as F

import mpmath

from .qmono import SIGN_CONFLICT, equiv_approx, equiv_sim, ultradiscretize
from .roots import (estimate_exponents, find_real_roots, find_spectral_roots,
                    match_predictions)
from .sampling import sample_params
from .spectral import (coefficients_exact, coefficients_numeric, derive,
                       residual_check, spectral_polynomial)
from .ultra import (R31, R32, R33, classify, collision_check, leading_recursion,
                    multiplicity_prefactors, predict_roots, tilde_cN1)

__all__ = ["CRITERIA", "P1", "P2", "P3", "P4"]

# one-scale regime, case (i): exponents -5/2, -7/2, -9/2
P1 = derive(-5, 1, 0, 1, 0, F(1, 2), F(1, 2), 1, 1)
# mirrored one-scale regime, case (i): exponents -1, 0
P2 = derive(0, 1, 1, 4, 0, F(-1, 2), F(1, 2), 1, 1)
# switching regime, K = 1: exponents 0, 1/2
P3 = derive(0, 1, 1, 3, 0, F(1, 2), F(1, 2), 1, 1)
# balanced double pairs refining to the golden-ratio prefactors
P4 = derive(-1, 0, 8, 10, 1, 0, -10, 1, 1)


def criterion_1_golden_ratio_prefactors() -> None:
    """criterion 1: golden-ratio prefactors at q=1e-6 within 1%"""
    q = F(1, 10 ** 6)
    roots, _ = find_spectral_roots(P4, q, 512)
    assert len(roots) == 4
    signs = sorted(1 if r > 0 else -1 for r in roots)
    assert signs == [-1, -1, 1, 1]
    with mpmath.workprec(128):
        hi = (mpmath.sqrt(5) + 1) / 2
        lo = (mpmath.sqrt(5) - 1) / 2
        mags = sorted(abs(r) for r in roots)
        for got, want in zip(mags, sorted([hi, lo, hi, lo])):
            assert abs(got / want - 1) < 0.01
    # and the s-polynomial reproduces s^4 - 3 t1 t2 s^2 + t1^2 t2^2 = 0
    vals = multiplicity_prefactors(P4, classify(P4))
    assert sorted(1 if v > 0 else -1 for v in vals) == [-1, -1, 1, 1]
    with mpmath.workprec(128):
        for got, want in zip(sorted(abs(v) for v in vals), [lo, lo, hi, hi]):
            assert abs(got - want) < 1e-20


def criterion_2_r31_case_i_exponents() -> None:
    """criterion 2: one-scale exponents (-5/2,-7/2,-9/2) within 0.05"""
    ests = estimate_exponents(P1, F(1, 1000), F(1, 10000), 512)
    assert all(e.value < 0 for e in ests)
    slopes = sorted(float(e.est_exponent) for e in ests)
    for got, want in zip(slopes, [-4.5, -3.5, -2.5]):
        assert abs(got - want) <= 0.05


def criterion_3_r32_case_i_exponents() -> None:
    """criterion 3: mirrored exponents (-1,0) within 0.05"""
    ests = estimate_exponents(P2, F(1, 1000), F(1, 10000), 512)
    assert all(e.value < 0 for e in ests)
    slopes = sorted(float(e.est_exponent) for e in ests)
    for got, want in zip(slopes, [-1.0, 0.0]):
        assert abs(got - want) <= 0.05


def criterion_4_switching_regime_exactness() -> None:
    """criterion 4: switching-regime sim-exactness and -t1 q^0, -t1 q^(1/2) roots"""
    tag = classify(P3)
    exact = spectral_polynomial(P3)
    til = tilde_cN1(P3, tag)
    for j in range(P3.N + 2):
        assert equiv_sim(exact.reduced_coefficient(j), til.reduced_coefficient(j))
    preds = predict_roots(P3, tag)
    ests = estimate_exponents(P3, F(1, 10 ** 5), F(1, 10 ** 6), 512)
    report = match_predictions(ests, preds, tol_exponent=0.05, t1=P3.t1, t2=P3.t2)
    assert report.ok
    assert all(abs(r.prefactor_ratio - 1) <= 0.01 for r in report.rows if r.prediction.sharp)
    assert {str(r.prediction.d) for r in report.rows} == {"0", "1/2"}


def _ns_for_suite(rng):
    ns = [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 8]
    ns += [rng.randint(1, 5) for _ in range(2)]
    return ns  # 20 sets, ceiling N = 8


def criterion_5_theorem_oracle_suite() -> None:
    """criterion 5: limit-product oracle, 20 random sets per regime (N <= 8)"""
    rng = random.Random(777)
    for regime in (R31, R32, R33):
        for n in _ns_for_suite(rng):
            p = sample_params(regime, rng, N=n)
            tag = classify(p)
            exact = spectral_polynomial(p)
            til = tilde_cN1(p, tag)
            cmp = equiv_sim if regime == R33 else equiv_approx
            for j in range(p.N + 2):
                assert cmp(
                    exact.reduced_coefficient(j), til.reduced_coefficient(j)
                ), (p, j)
            leading_recursion(p, tag)  # raises CancellationError on failure
            if regime != R33:
                assert collision_check(p, p.N + 1, tag) == []


def criterion_6_non_cancellation_sufficiency() -> None:
    """criterion 6: exact recursion free of leading sign conflicts"""
    rng = random.Random(4242)
    for regime in (R31, R32):
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 4, 5]:
            p = sample_params(regime, rng, N=max(n, 0))
            polys, events = coefficients_exact(p)
            assert all(e.kind != SIGN_CONFLICT for e in events), (p, events)
            for m, ep in enumerate(polys):
                for j in range(m + 1):
                    # sign-definite leading slice == no leading-term cancellation
                    ultradiscretize(ep.reduced_coefficient(j))


def criterion_7_equation_residuals() -> None:
    """criterion 7: truncated series solves the equation to < 1e-30"""
    q = F(1, 1000)
    threshold = mpmath.mpf(10) ** -30
    for p in (P1, P2, P3):
        roots, _ = find_spectral_roots(p, q, 512)
        assert len(roots) == p.N + 1
        for r in roots:
            sol = coefficients_numeric(p, r, q, 512)
            res = residual_check(p, sol)
            assert res < threshold, (p, float(r), float(res))


def criterion_8_slope_calibration() -> None:
    """criterion 8: synthetic power-law slope exact to < 1e-6"""
    q1, q2 = F(1, 1000), F(1, 10000)
    roots = []
    for q in (q1, q2):
        with mpmath.workprec(256):
            qv = mpmath.mpf(1) / q.denominator
            c0 = 3 * mpmath.exp(mpmath.mpf("-2.5") * mpmath.log(qv))
        roots.append(find_real_roots((c0, mpmath.mpf(1)), 256)[0])
    with mpmath.workprec(256):
        slope = (mpmath.log(abs(roots[1])) - mpmath.log(abs(roots[0]))) / (
            mpmath.log(mpmath.mpf(1) / q2.denominator)
            - mpmath.log(mpmath.mpf(1) / q1.denominator)
        )
        assert abs(slope + mpmath.mpf("2.5")) < 1e-6


CRITERIA = [(criterion.__doc__, criterion) for criterion in (
    criterion_1_golden_ratio_prefactors, criterion_2_r31_case_i_exponents,
    criterion_3_r32_case_i_exponents, criterion_4_switching_regime_exactness,
    criterion_5_theorem_oracle_suite, criterion_6_non_cancellation_sufficiency,
    criterion_7_equation_residuals, criterion_8_slope_calibration,
)]
