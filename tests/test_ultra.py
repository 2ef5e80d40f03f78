import hashlib
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

import qheun.roots as roots_mod
import qheun.spectral as spectral_mod
import qheun.ultra as ultra_mod
from qheun.errors import (CancellationError, DegenerateSPolyError, ExcludedCaseError,
                          PrecisionError, RegimeError)
from qheun.qmono import QSum, equiv_approx, equiv_sim, leading_part, qpow
from qheun.sampling import sample_params
from qheun.spectral import EPoly, coefficients_exact, derive, spectral_polynomial, three_term
from qheun.ultra import (
    BALANCED,
    _s_polynomial,
    CaseTag,
    R31,
    R32,
    R33,
    EXCLUDED,
    UNCLASSIFIED,
    balanced_exponent,
    boundary_proximity,
    classify,
    collision_check,
    leading_recursion,
    multiplicity_prefactors,
    pn_root_pair,
    predict_roots,
    tilde_cN1,
)

F = Fraction
H = F(1, 2)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_p1(p1):
    tag = classify(p1)
    assert (tag.regime, tag.subcase) == (R31, "i")


def test_classify_p2(p2):
    tag = classify(p2)
    assert (tag.regime, tag.subcase) == (R32, "i")


def test_classify_p3(p3):
    tag = classify(p3)
    assert (tag.regime, tag.K) == (R33, 1)


def test_classify_p4(p4):
    tag = classify(p4)
    assert (tag.regime, tag.subcase) == (R31, "ii-1")


def test_classify_exclusion_set_boundary():
    # 2h2-l1-l2-beta = -2 exactly
    p = derive(-6, 1, 3, 4, 0, -3, -3, 1, 1)
    tag = classify(p)
    assert tag.regime == EXCLUDED
    assert "-2" in tag.detail


def _classify_grid():
    # N = 0..3, S1 = 1+h2-l2-beta and u = h2-l1 in steps of 1/4, so that
    # 2h2-l1-l2-beta = S1-1+u and l1-l2-beta = S1-1-u cross every boundary
    # and come within 1/4 of it; beta, l2 and alpha2 keep the set valid
    for N in range(4):
        for i in range(8 * N + 33):
            S1 = -2 * N - 4 + F(i, 4)
            for k in range(16 * N + 49):
                u = -2 * N - 6 + F(k, 4)
                b = min(1, 1 + u - S1) - H
                l2 = 1 + u - b - S1
                d = min(0, S1 + u + 2 * N + 1) - 1
                yield derive(l2 + d + b - 2 - u - 2 * N, u, 0, l2, 0, d, b, 1, 1)


# sha256 over repr of (classify(p), boundary_proximity(p, tag)) on
# _classify_grid's 13,780 sets, recorded before classify stated the R31 and
# R32 boundaries once, and re-recorded when N = 0 became subcase i with no
# warning at R31's -2: 400 N = 0 sets changed subcase, 32 their warnings
_CLASSIFY_DIGEST = "9a34e07c1ea7be5bbd15bd06cd111a2dad7ed0418629f77749fc5633afd948f2"


def test_classify_and_boundary_warnings_pinned():
    out = [(tag, boundary_proximity(p, tag)) for p in _classify_grid() for tag in [classify(p)]]
    assert len(out) == 13780
    details = {
        (name, kind)
        for tag, _ in out
        for name in ("2h2-l1-l2-beta", "l1-l2-beta")
        for kind in ("exclusion set", "trichotomy")
        if tag.detail.startswith(f"boundary case: {name} =") and kind in tag.detail
    }
    assert len(details) == 4, details  # R31's and R32's exclusion-set and trichotomy details
    assert sum(bool(w) for _, w in out) > 0
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _CLASSIFY_DIGEST


# the paper's R32 inequalities and both regimes' factor pairings, written
# out as stated: classify reads R32 as R31 from its last step, and these
# check that mirror past the digest grid's N = 3, where iii-2 has only m = 1
def _r31_factor_indices(N):
    return list(range(1, (N + 1) // 2 + 1))


def _r32_factor_indices(N):
    if N % 2 == 1:
        return list(range(2, N + 2, 2))
    return list(range(3, N + 2, 2))


def _r32_subcase(T, N):
    if T < -2 * N:
        return "i", None
    if N % 2 == 1 and T > -1:
        return "ii-1", None
    if N % 2 == 0 and T > -3:
        return "ii-2", None
    for m in range(0, (N - 1) // 2 + 1):
        if -2 * N + 4 * m < T < -2 * N + 4 * m + 1:
            return "iii-1", m
    for m in range(1, (N - 1) // 2 + 1):
        if -2 * N + 4 * m - 3 < T < -2 * N + 4 * m:
            return "iii-2", m
    raise AssertionError(f"R32 subcase resolution failed for T={T}, N={N}")


def _r32_set(N, T):
    """An R32 set with N, 1+h2-l2-beta = -2N-1/2 and l1-l2-beta = T < 1/2."""
    h2, beta = F(0), -H
    l2 = 1 + h2 - beta + 2 * N + H
    l1 = T + l2 + beta
    h1 = min(-2 * N - 1 - h2 + l1 + l2 + beta, h2) - 1
    return derive(h1, h2, l1, l2, 0, 2 * N + 2 + h1 + h2 - l1 - l2 - beta, beta, 1, 1)


def test_r32_subcases_and_both_pairings_match_the_literal_statements():
    seen = set()
    for N in range(1, 13):
        # T in steps of 1/4 offset by 1/12 from -2N-3 to 1/3: inside every
        # subcase interval, never on a boundary
        for j in range(8 * N + 14):
            T = -2 * N - 3 + F(j, 4) + F(1, 12)
            p = _r32_set(N, T)
            tag = classify(p)
            assert (tag.regime, tag.subcase, tag.m) == (R32, *_r32_subcase(T, N)), (N, T)
            seen.add((tag.subcase, tag.m))
        lone = [(N + 1,)] if N % 2 == 0 else []
        assert ultra_mod._factor_steps(p, CaseTag(R31)) == (
            [(2 * n - 1, 2 * n) for n in _r31_factor_indices(N)] + lone)
        assert ultra_mod._factor_steps(p, CaseTag(R32)) == (
            [(nu - 1, nu) for nu in _r32_factor_indices(N)] + [(1,)] * bool(lone))
    assert {"i", "ii-1", "ii-2", "iii-1", "iii-2"} == {sub for sub, _ in seen}
    assert ("iii-1", 0) in seen and ("iii-2", 5) in seen


def test_classify_unclassified_needs_switch_condition():
    # -2N < 1+h2-l2-beta < 0 but h2-l1+1 <= 0
    p = derive(0, 3, F(9, 2), F(14, 3), 0, F(-13, 6), 0, 1, 1)
    assert p.N == 1
    tag = classify(p)
    assert tag.regime == UNCLASSIFIED


def test_classify_regime_separator_is_excluded():
    # valid parameters sitting exactly on 1+h2-l2-beta = 0
    p = derive(F(-9, 2), 1, 0, F(3, 2), 0, F(-3, 2), H, 1, 1)
    assert p.N == 1
    assert classify(p).regime == EXCLUDED


def test_classify_odd_integer_family_collision_is_excluded():
    # 1+h2-l2-beta = -1 makes the two switching-regime families share the
    # exponent n+m = 3: the factored product has a double root, so the
    # simple per-root asymptotics are withheld
    p = derive(-5, 1, 0, F(5, 2), 0, -1, H, 1, 1)
    assert p.N == 2
    tag = classify(p)
    assert tag.regime == EXCLUDED
    assert "odd integer" in tag.detail
    # the sim-level product itself still matches the exact polynomial,
    # double root included
    til = tilde_cN1(p, CaseTag(R33, K=1))
    exact = spectral_polynomial(p)
    for j in range(p.N + 2):
        assert equiv_sim(exact.reduced_coefficient(j), til.reduced_coefficient(j))


# ---------------------------------------------------------------------------
# leading recursion
# ---------------------------------------------------------------------------


def test_leading_recursion_p3_branch_switch(p3):
    lead = leading_recursion(p3, classify(p3))
    # n=1 uses the q^{2n-1/2-l2-beta} branch: c_1 constant term t2^{-1} q^{-2}
    assert lead[1].coeffs[0] == QSum.term(1, t2pow=-1, qexp=-2)
    # n=2 switches to the q^{1/2-h2} branch: c_2 constant term t2^{-2} q^{-5/2}
    assert lead[2].coeffs[0] == QSum.term(1, t2pow=-2, qexp=F(-5, 2))


def test_leading_recursion_matches_exact(p1, p2, p3):
    for p in (p1, p2, p3):
        tag = classify(p)
        lead = leading_recursion(p, tag)
        exact, _ = coefficients_exact(p)
        for n in range(p.N + 2):
            for j in range(n + 1):
                a = exact[n].reduced_coefficient(j)
                b = lead[n].coeffs[j]
                if tag.regime == R33:
                    assert equiv_sim(a, b)
                else:
                    assert equiv_approx(a, b)


def test_leading_recursion_rejects_unclassified(p1):
    with pytest.raises(RegimeError):
        leading_recursion(p1, CaseTag(EXCLUDED))


def test_leading_recursion_names_a_mixed_sign_step():
    # forced into R32, c2[E^0] = pc_2 pc_1 - r_2 has t2^-2 q^-6 against
    # -t1^-1 t2^-1 q^-6: the leading slice is sign-indefinite
    p = derive(-1, -H, F(7, 2), 5, 2, F(-5, 2), H, 1, 1)
    with pytest.raises(CancellationError) as err:
        leading_recursion(p, CaseTag(R32, "i"))
    assert (err.value.step, err.value.site) == (2, "c2[E^0]")
    assert str(err.value) == (
        "mixed-sign leading slice at step 2 (c2[E^0]): "
        "sign-indefinite leading part at q^(-6)"
    )


# ---------------------------------------------------------------------------
# limit products
# ---------------------------------------------------------------------------


def test_tilde_p2_is_single_quadratic(p2):
    # N = 1 odd: the product is p_2 alone; build it by hand
    u = p2.lambda1 - p2.h1 - p2.h2
    ca = 2 * 2 - H - p2.l2 - p2.beta
    cb = 2 * 2 - 2 - H - p2.l2 - p2.beta
    e1, e0 = 2 - 1 + u, 2 - 2 + u
    hand = [
        qpow(ca + cb) - qpow(2 * 2 - 1 - p2.l1 - p2.l2 - p2.beta),
        qpow(e1 + cb) + qpow(e0 + ca),
        qpow(e1 + e0),
    ]
    til = tilde_cN1(p2, classify(p2))
    assert list(til.coeffs) == hand


def test_tilde_p1_structure(p1):
    til = tilde_cN1(p1, classify(p1))
    assert til.degree == 3
    # N even: one lone linear factor (E q^{N+lambda1-h1-h2} + q^{1/2-h2})
    # times p_1; the top coefficient is q^{(4*1-3)+2u+N+u}
    u = p1.lambda1 - p1.h1 - p1.h2
    assert til.coeffs[3] == qpow(1 + 2 * u + p1.N + u)


def test_tilde_p3_exact_slices(p3):
    # hand-computed sim-level slices for the switching product at K=1
    til = tilde_cN1(p3, classify(p3))
    lead = [leading_part(c).div_monomial(til.denom_monomial) for c in til.coeffs]
    assert lead == [QSum.term(1, 0, -2, F(-5, 2)), QSum.term(1, -1, -2, -3), QSum.term(1, -2, -2, -3)]


def test_theorem_equivalence_p1_to_p4(p1, p2, p3, p4):
    for p, want_sim in ((p1, False), (p2, False), (p3, True), (p4, False)):
        tag = classify(p)
        exact = spectral_polynomial(p)
        til = tilde_cN1(p, tag)
        assert til.degree == p.N + 1
        for j in range(p.N + 2):
            a = exact.reduced_coefficient(j)
            b = til.reduced_coefficient(j)
            assert equiv_approx(a, b)
            if want_sim:
                assert equiv_sim(a, b)


# ---------------------------------------------------------------------------
# factor root pairs
# ---------------------------------------------------------------------------


def test_pn_root_pair_one_scale(p1):
    tag = classify(p1)
    r1, r2 = pn_root_pair(p1, 1, tag)
    assert (r1.sign, r1.d, r1.prefactor) == (-1, F(-7, 2), "t1")
    assert (r2.sign, r2.d, r2.prefactor) == (-1, F(-5, 2), "t1")


def test_pn_root_pair_balanced(p4):
    tag = classify(p4)
    r1, r2 = pn_root_pair(p4, 1, tag)
    assert {r1.sign, r2.sign} == {1, -1}
    assert r1.d == r2.d == balanced_exponent(p4) == 0
    assert r1.prefactor == r2.prefactor == BALANCED


def test_pn_root_pair_split_r32():
    p = derive(0, 1, 3, 4, 0, F(-5, 2), H, 1, 1)
    tag = classify(p)
    assert (tag.regime, tag.subcase, tag.m) == (R32, "iii-1", 0)
    big, small = pn_root_pair(p, 2, tag)
    assert (big.sign, big.d, big.prefactor) == (-1, F(-1), "t1")
    assert (small.sign, small.d, small.prefactor) == (1, F(-1, 2), "t2")


def test_pn_root_pair_boundary_raises():
    for args, regime, n, message in (
        # 4n + S = 2: the two constant terms of p_n tie (S = -2 via l1)
        ((-6, 1, 3, 4, 0, -3, -3, 1, 1), R31, 1, "4n+2h2-l1-l2-beta = 2 for n = 1"),
        # 4n + S = 1: the Newton polygon of p_n is a straight line
        ((-H, 0, 3, 4, -1, -H, 0, 1, 1), R31, 2, "4n+2h2-l1-l2-beta = 1 for n = 2"),
        # 2n + T = 2 and 2n + T = 3: the same two boundaries of the mirrored factor
        ((F(-5, 2), -1, -1, H, -1, -H, H, 1, 1), R32, 2, "2n+l1-l2-beta = 2 for n = 2"),
        ((F(-5, 2), -2, F(5, 2), 4, 0, -H, -H, 1, 1), R32, 2, "2n+l1-l2-beta = 3 for n = 2"),
    ):
        with pytest.raises(ExcludedCaseError) as err:
            pn_root_pair(derive(*args), n, CaseTag(regime, "i"))
        assert str(err.value) == "boundary case: " + message


def _outcome(f, *args):
    """A printable record of f(*args): its value, or its error's type and message."""
    try:
        out = f(*args)
    except (ExcludedCaseError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, EPoly):
        return [c.terms for c in out.coeffs], out.denom_monomial, out.denom_factors
    return [(e.sign, e.d, e.prefactor, e.multiplicity, e.sharp) for e in out]


# sha256 over the outcomes of predict_roots, tilde_cN1 and pn_root_pair
# (n = 1..N+2) on sample_params(r, random.Random(s), N=N), r in R31/R32/R33,
# N = 0..12 (R33 from 1), s = 0..2, under the classify tag and under the
# forced tags R31 "i", R32 "i" and R33 with K = 1..N+1 (tilde_cN1 under the
# forced tags for N <= 6 only, where its products stay cheap); recorded
# before the predictions were read off the leading rows, so they must not
# move
_PREDICTION_DIGEST = "21f0a0d29dd629b69f6f0c69ea9127105fa695f21dd7330997e82d8f0833ed9a"


def test_predictions_and_limit_products_match_the_recorded_digest():
    record = []
    for regime in (R31, R32, R33):
        for N in range(1 if regime == R33 else 0, 13):
            for seed in range(3):
                p = sample_params(regime, random.Random(seed), N=N)
                tags = [classify(p), CaseTag(R31, "i"), CaseTag(R32, "i")]
                tags += [CaseTag(R33, K=K) for K in range(1, N + 2)]
                for tag in tags:
                    record.append(_outcome(predict_roots, p, tag))
                    if N <= 6 or tag is tags[0]:
                        record.append(_outcome(tilde_cN1, p, tag))
                    if tag.regime != R33:
                        record.append([_outcome(pn_root_pair, p, n, tag) for n in range(1, N + 3)])
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert digest == _PREDICTION_DIGEST


# ---------------------------------------------------------------------------
# full predictions
# ---------------------------------------------------------------------------


def test_predict_roots_p1(p1):
    preds = predict_roots(p1, classify(p1))
    assert [(e.sign, e.d, e.prefactor, e.multiplicity) for e in preds] == [
        (-1, F(-9, 2), "t1", 1),
        (-1, F(-7, 2), "t1", 1),
        (-1, F(-5, 2), "t1", 1),
    ]
    assert all(e.sharp for e in preds)


def test_predict_roots_p2(p2):
    preds = predict_roots(p2, classify(p2))
    assert [(e.sign, e.d) for e in preds] == [(-1, F(-1)), (-1, F(0))]


def test_predict_roots_p3(p3):
    preds = predict_roots(p3, classify(p3))
    assert [(e.sign, e.d, e.prefactor) for e in preds] == [
        (-1, F(0), "t1"),
        (-1, H, "t1"),
    ]
    assert all(e.sharp for e in preds)


def test_predict_roots_p4_multiplicities(p4):
    preds = predict_roots(p4, classify(p4))
    assert sorted((e.sign, e.multiplicity) for e in preds) == [(-1, 2), (1, 2)]
    assert all(e.d == 0 and e.prefactor == BALANCED for e in preds)


def test_prediction_count_is_n_plus_one():
    rng = random.Random(23)
    for regime in (R31, R32, R33):
        for _ in range(6):
            p = sample_params(regime, rng, n_max=6)
            preds = predict_roots(p, classify(p))
            assert sum(e.multiplicity for e in preds) == p.N + 1


# ---------------------------------------------------------------------------
# the paper's case lists, written out independently
# ---------------------------------------------------------------------------


def _expected_multiset(p, tag):
    """(sign, d) multiset straight from the case-list displays."""
    lam, N = p.lambda1, p.N
    g = balanced_exponent(p)
    out = Counter()

    def balanced(m):
        if m:
            out[(1, g)] += m
            out[(-1, g)] += m

    if tag.regime == R31:
        def d(j):
            return -j + F(3, 2) - lam + p.h1

        if tag.subcase == "i":
            for j in range(1, N + 2):
                out[(-1, d(j))] += 1
        elif tag.subcase == "ii-1":
            balanced((N + 1) // 2)
        elif tag.subcase == "ii-2":
            balanced(N // 2)
            out[(-1, d(N + 1))] += 1
        elif tag.subcase == "iii-1":
            m = tag.m
            balanced(m - 1)
            out[(1, 2 * m - F(3, 2) + lam + p.alpha1 + p.alpha2 + p.h2)] += 1
            for j in range(2 * m, N + 2):
                out[(-1, d(j))] += 1
        else:  # iii-2
            m = tag.m
            balanced(m)
            for j in range(2 * m + 1, N + 2):
                out[(-1, d(j))] += 1
    elif tag.regime == R32:
        def d(j):
            return j - F(3, 2) + lam + p.l1 + p.alpha1 + p.alpha2

        if tag.subcase == "i":
            for j in range(1, N + 2):
                out[(-1, d(j))] += 1
        elif tag.subcase == "ii-1":
            balanced((N + 1) // 2)
        elif tag.subcase == "ii-2":
            balanced(N // 2)
            out[(-1, d(1))] += 1
        elif tag.subcase == "iii-1":
            m = tag.m
            for j in range(1, N - 2 * m + 1):
                out[(-1, d(j))] += 1
            out[(1, -N + 2 * m + F(3, 2) - lam - p.l1 + p.h1 + p.h2)] += 1
            balanced(m)
        else:  # iii-2
            m = tag.m
            for j in range(1, N - 2 * m + 2):
                out[(-1, d(j))] += 1
            balanced(m)
    else:  # R33
        for j in range(1, tag.K + 1):
            out[(-1, j - F(3, 2) + lam + p.l1 + p.alpha1 + p.alpha2)] += 1
        for j in range(tag.K + 1, N + 2):
            out[(-1, -j + F(3, 2) + p.h1 - lam)] += 1
    return out


def test_predictions_match_case_lists_randomized():
    rng = random.Random(31)
    seen = set()
    for regime in (R31, R32, R33):
        for _ in range(25):
            p = sample_params(regime, rng, n_max=6)
            tag = classify(p)
            seen.add((regime, tag.subcase))
            got = Counter()
            for e in predict_roots(p, tag):
                got[(e.sign, e.d)] += e.multiplicity
            assert got == _expected_multiset(p, tag), (p, tag)
    # the sampler should exercise several subcases per regime
    assert len(seen) >= 6


# ---------------------------------------------------------------------------
# the step-two approx recursions behind the limit products
# ---------------------------------------------------------------------------


def _approx_poly(prod, target, degree):
    for j in range(degree + 1):
        assert equiv_approx(prod[j], target.reduced_coefficient(j)), j


def test_two_step_recursion_r31():
    # c_{2n} is approx c_{2n-2} times the quadratic factor, and c_{2n+1}
    # approx c_{2n} times the linear factor
    from qheun.ultra import _factor_poly, _leading_rows, _poly_mul

    rng = random.Random(41)
    for _ in range(5):
        p = sample_params(R31, rng, n_max=6)
        exact, _ = coefficients_exact(p)
        u = p.lambda1 - p.h1 - p.h2
        row = _leading_rows(p, CaseTag(R31))
        for n in range(1, (p.N + 1) // 2 + 1):
            if 2 * n < p.N + 1:
                base = [exact[2 * n - 2].reduced_coefficient(j) for j in range(2 * n - 1)]
                prod = _poly_mul(base, _factor_poly(row, (2 * n - 1, 2 * n)))
                _approx_poly(prod, exact[2 * n], 2 * n)
            if 2 * n < p.N:
                base = [exact[2 * n].reduced_coefficient(j) for j in range(2 * n + 1)]
                prod = _poly_mul(base, [qpow(H - p.h2), qpow(2 * n + u)])
                _approx_poly(prod, exact[2 * n + 1], 2 * n + 1)


def test_two_step_recursion_r32():
    # c_n is approx c_{n-2} times the mirrored quadratic, n = 2..N+1
    from qheun.ultra import _factor_poly, _leading_rows, _poly_mul

    rng = random.Random(43)
    for _ in range(5):
        p = sample_params(R32, rng, n_max=6)
        exact, _ = coefficients_exact(p)
        row = _leading_rows(p, CaseTag(R32))
        for n in range(2, p.N + 2):
            base = [exact[n - 2].reduced_coefficient(j) for j in range(n - 1)]
            prod = _poly_mul(base, _factor_poly(row, (n - 1, n)))
            _approx_poly(prod, exact[n], n)


# ---------------------------------------------------------------------------
# multiplicity refinement
# ---------------------------------------------------------------------------


def test_golden_ratio_prefactors(p4):
    tag = classify(p4)
    vals = multiplicity_prefactors(p4, tag)
    with mpmath.workprec(128):
        hi = (mpmath.sqrt(5) + 1) / 2
        lo = (mpmath.sqrt(5) - 1) / 2
        want = sorted([-hi, -lo, lo, hi])
        assert len(vals) == 4
        for v, w in zip(sorted(vals), want):
            assert abs(v - w) < mpmath.mpf(2) ** -100


def test_no_refinement_for_simple_predictions(p1):
    assert multiplicity_prefactors(p1, classify(p1)) == []


def test_prefactors_scale_with_sqrt_t1_t2(p4):
    # the quartic prefactor equation carries t1 t2: with t1 = t2 = 2 the
    # refined magnitudes become 2*(sqrt(5)+-1)/2 = sqrt(5)+-1
    p = derive(**{**p4.raw(), "t1": 2, "t2": 2})
    vals = multiplicity_prefactors(p, classify(p))
    with mpmath.workprec(128):
        mags = sorted({abs(v) for v in vals})
        assert abs(mags[0] - (mpmath.sqrt(5) - 1)) < mpmath.mpf(2) ** -100
        assert abs(mags[1] - (mpmath.sqrt(5) + 1)) < mpmath.mpf(2) ** -100


def _s_polynomial_full_scan(ep, p, g):
    """The s-polynomial from every Fraction term of every coefficient: the
    slice at the least total exponent qexp + j*g that does not cancel, from
    its lowest nonzero coefficient."""
    per_total = {}
    for j, c in enumerate(ep.coeffs):
        for t in c.terms:
            bucket = per_total.setdefault(t.qexp + j * g, {})
            bucket[j] = bucket.get(j, F(0)) + t.coeff * p.t1 ** t.t1pow * p.t2 ** t.t2pow
    cleaned = {tot: {j: v for j, v in b.items() if v} for tot, b in per_total.items()}
    cleaned = {tot: b for tot, b in cleaned.items() if b}
    if not cleaned:
        raise DegenerateSPolyError("all s-polynomial coefficients cancelled")
    bucket = cleaned[min(cleaned)]
    return [bucket.get(j, F(0)) for j in range(min(bucket), max(bucket) + 1)]


def _balanced_pair_sets():
    """p4 and the sampled R32 sets at N = 4, 6 with a balanced multiple pair."""
    out = []
    for N in (4, 6):
        for seed in range(8):
            p = sample_params("R32", random.Random(seed), N=N)
            preds = predict_roots(p, classify(p))
            if any(e.prefactor == BALANCED and e.multiplicity >= 2 for e in preds):
                out.append(p)
    return out


def _counting_runs(monkeypatch, last_level=None):
    """Count the three_term runs of _s_polynomial; ``last_level`` replaces
    the last level of the first run."""
    runs = []

    def run(p, rows, entry):
        levels = three_term(p, rows, entry)
        runs.append(levels)
        if last_level is not None and len(runs) == 1:
            return levels[:-1] + [last_level(levels[-1])]
        return levels

    monkeypatch.setattr(ultra_mod, "three_term", run)
    return runs


def test_s_polynomial_equals_the_full_scan_of_the_exact_build(p4, monkeypatch):
    runs = _counting_runs(monkeypatch)
    sets = [p4, derive(**{**p4.raw(), "t1": 2, "t2": 3}), *_balanced_pair_sets()]
    assert len(sets) >= 7
    for p in sets:
        g = balanced_exponent(p)
        got = _s_polynomial(p, g)
        assert got == _s_polynomial_full_scan(spectral_polynomial(p), p, g)
        assert all(type(c) is Fraction for c in got)
    assert len(runs) == len(sets)  # each slice lay at the cut


def _patch_rows(monkeypatch, rows):
    for module in (spectral_mod, ultra_mod):
        monkeypatch.setattr(module, "_three_term_rows", lambda p: rows)


def test_s_polynomial_skips_totals_that_cancel(p4, monkeypatch):
    # c_1 = q^-1/2 E + 1 and c_2 = (B E + C) c_1 + R at E = s q^1/2 have the
    # slices (1 - t1/t2) + 5 (t1 - t2) s at total 0, the cut, and 2 + 3 s at
    # total 1: with t1 = t2 the cut slice cancels only once t1 and t2 are
    # substituted, and the uncut rerun reads total 1
    T = QSum.term
    C = T(5, t1pow=1) - T(5, t2pow=1) + T(3, qexp=1) - T(7, qexp=2)
    R = T(1) - T(1, t1pow=1, t2pow=-1) + T(2, qexp=1) - C
    _patch_rows(monkeypatch, [(T(1, qexp=-H), T(1), QSum.zero()), (T(7, qexp=3 * H), C, R)])
    runs = _counting_runs(monkeypatch)
    p = derive(**{**p4.raw(), "t1": 2})
    assert p4.t1 == p4.t2
    for params, want, n_runs in ((p4, [2, 3], 2), (p, [-1, 5], 3)):
        assert _s_polynomial(params, H) == want
        assert _s_polynomial_full_scan(spectral_polynomial(params), params, H) == want
        assert len(runs) == n_runs
    _patch_rows(monkeypatch, [(QSum.zero(), T(1) - T(1, t1pow=1, t2pow=-1), QSum.zero())])
    with pytest.raises(DegenerateSPolyError, match="all s-polynomial coefficients cancelled"):
        _s_polynomial(p4, H)
    assert len(runs) == 5


# sha256 over repr of _s_polynomial on the seed-12 R32 sets at the balanced
# exponent, recorded with the term-dict recursion and uncut rows
_S_POLY_DIGESTS = {
    12: "3520192d074a3d57d252d0691058fc51a38beed6b2e5974f9c51e56e7b6d7768",
    24: "93987ea039eadfa9c9f8a3e5c0cbb7dcd83a0cdbd2a4e35fb495c4294d4d1ffa",
    48: "c5cb350920f129e2922b786b1ee6cd9a2a8066e0cfdbfb22e8ba8a8c9641aaf7",
}


@pytest.mark.parametrize("N", sorted(_S_POLY_DIGESTS))
def test_s_polynomial_pinned_past_n8(N, monkeypatch):
    runs = _counting_runs(monkeypatch)
    p = sample_params("R32", random.Random(12), N=N)
    got = _s_polynomial(p, balanced_exponent(p))
    assert hashlib.sha256(repr(got).encode()).hexdigest() == _S_POLY_DIGESTS[N]
    assert len(runs) == 1  # the slice lay at the cut


def test_s_polynomial_cut_rows_give_the_cut_run_of_the_full_rows(p4, monkeypatch):
    # the cut run's rows drop the terms all of whose products land above the
    # cut, on every set.  Level n of the cut run then holds terms at the one
    # exponent cut - gain[n] only: its row terms reach no higher from c_{n-1}
    # at cut - gain[n-1], and no path reaches lower.  So its last level is the
    # slice at the cut alone
    runs = []

    def run(p, rows, entry):
        levels = three_term(p, rows, entry)
        g = balanced_exponent(p)
        full = [(B * QSum.term(1, qexp=g), C, R) for B, C, R in spectral_mod._three_term_rows(p)]
        size = sum(len(x) for row in rows for x in row), sum(len(x) for row in full for x in row)
        runs.append((levels, size))
        return levels

    monkeypatch.setattr(ultra_mod, "three_term", run)
    dropped = []
    for p in (p4, *_balanced_pair_sets(), sample_params("R32", random.Random(12), N=12)):
        runs.clear()
        _s_polynomial(p, balanced_exponent(p))
        levels, (kept, total) = runs[0]
        assert len({t.qexp for c in levels[-1] for t in c.terms}) == 1, p
        dropped.append(total - kept)
    assert all(dropped) and len(dropped) >= 7


def test_s_polynomial_reads_no_slice_above_the_cut(p4, monkeypatch):
    # the rows of test_s_polynomial_skips_totals_that_cancel: at t1 = t2 the
    # slice at the cut, total 0, cancels, and the full rows' least slice is
    # 2 + 3 s at total 1.  A slice above the cut may miss the products of
    # the row terms the cut run drops, so only the rerun may read one.  The
    # row cut leaves no term above the cut (the test above), so the cut
    # run's last level is given one: 2 at total 1, without its 3 s
    T = QSum.term
    C = T(5, t1pow=1) - T(5, t2pow=1) + T(3, qexp=1) - T(7, qexp=2)
    R = T(1) - T(1, t1pow=1, t2pow=-1) + T(2, qexp=1) - C
    _patch_rows(monkeypatch, [(T(1, qexp=-H), T(1), QSum.zero()), (T(7, qexp=3 * H), C, R)])
    runs = _counting_runs(monkeypatch, last_level=lambda level: [level[0] + T(2, qexp=1), *level[1:]])
    assert _s_polynomial(p4, H) == _s_polynomial_full_scan(spectral_polynomial(p4), p4, H) == [2, 3]
    assert len(runs) == 2


def test_s_polynomial_reruns_without_the_cut_when_the_cut_slice_is_empty(p4, monkeypatch):
    runs = _counting_runs(monkeypatch, last_level=lambda level: [QSum.zero()] * len(level))
    for p in (p4, *_balanced_pair_sets()[:2]):
        runs.clear()
        g = balanced_exponent(p)
        assert _s_polynomial(p, g) == _s_polynomial_full_scan(spectral_polynomial(p), p, g)
        assert len(runs) == 2
        # the first run was cut: it kept fewer terms than the rerun
        assert sum(map(len, runs[0][-1])) < sum(map(len, runs[1][-1]))


@pytest.mark.parametrize("exc", [PrecisionError("2 of 4 roots"), ZeroDivisionError("bug")])
def test_only_a_sturm_shortfall_reads_as_a_degenerate_s_polynomial(p4, monkeypatch, exc):
    # a count short of the degree means non-simple or complex s-roots; any
    # other exception from the solve is a programming error and propagates
    def solve(coeffs, bits):
        raise exc

    monkeypatch.setattr(roots_mod, "real_roots_of_rational_poly", solve)
    expected = DegenerateSPolyError if isinstance(exc, PrecisionError) else ZeroDivisionError
    with pytest.raises(expected):
        multiplicity_prefactors(p4, classify(p4))


# ---------------------------------------------------------------------------
# collision check
# ---------------------------------------------------------------------------


def test_collision_check_empty_for_p1(p1):
    assert collision_check(p1, 3, classify(p1)) == []


def test_collision_check_detects_boundary():
    p = derive(-6, 1, 3, 4, 0, -3, -3, 1, 1)  # 2h2-l1-l2-beta = -2
    hits = collision_check(p, 2, CaseTag(R31, "i"))
    assert hits == [(0, 1, 0)]


def test_collision_check_m1_always_empty():
    rng = random.Random(5)
    for regime in (R31, R32):
        p = sample_params(regime, rng, n_max=5)
        assert collision_check(p, 1, classify(p)) == []


def test_collision_check_mirrors_exclusion_sets():
    rng = random.Random(17)
    for regime in (R31, R32):
        for _ in range(10):
            p = sample_params(regime, rng, n_max=5)
            tag = classify(p)
            for M in range(1, p.N + 2):
                assert collision_check(p, M, tag) == []


@pytest.mark.parametrize("regime,N", [(R31, -1), (R32, -2), (R33, 0), (R33, -1)])
def test_sample_params_rejects_an_impossible_n_before_drawing(regime, N):
    rng = random.Random(3)
    with pytest.raises(ValueError, match=f"no {regime} parameter set has N = {N}$"):
        sample_params(regime, rng, N=N)
    assert rng.random() == random.Random(3).random()
