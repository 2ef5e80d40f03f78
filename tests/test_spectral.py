import hashlib
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheun.errors import DomainError, ParameterError
from qheun.qmono import EVAL_GUARD_BITS, EXACT_ZERO, QSum, eval_numeric, qpow, to_mpf, ultradiscretize
from qheun.sampling import sample_params
from qheun.spectral import (
    _scaled,
    coefficients_exact,
    coefficients_numeric,
    derive,
    recursion_coeff_rows,
    recursion_rows_at,
    residual_check,
    series_coefficient_values,
    spectral_polynomial,
)
from qheun.roots import find_spectral_roots

F = Fraction
H = F(1, 2)


# ---------------------------------------------------------------------------
# parameter derivation
# ---------------------------------------------------------------------------


def test_derive_p1(p1):
    assert p1.lambda1 == -2
    assert p1.N == 2


def test_derive_p2(p2):
    assert p2.lambda1 == -1
    assert p2.N == 1


def test_derive_rejects_noninteger_n():
    with pytest.raises(ParameterError, match="not a nonnegative integer"):
        derive(0, 1, 0, 1, 0, 0, H, 1, 1)


def test_derive_rejects_beta_at_one():
    with pytest.raises(ParameterError, match="beta"):
        derive(-5, 1, 0, 1, 0, H, 1, 1, 1)


def test_derive_reports_all_violations():
    with pytest.raises(ParameterError) as err:
        derive(1, 0, 1, 0, 0, H, H, -1, 1)
    text = str(err.value)
    assert "h1" in text and "l1" in text and "t1" in text


def test_with_value_rederives(p1):
    q = p1.with_value("t1", F(2))
    assert q.t1 == 2 and q.N == p1.N


# ---------------------------------------------------------------------------
# recursion rows
# ---------------------------------------------------------------------------


def test_row_b_is_single_power(p2):
    _, B, _, _ = recursion_coeff_rows(p2, 1)
    assert B == qpow(-1)  # q^{n-1+lambda1} at n=1


def test_row_c_matches_hand_expansion(p1):
    # four summands written out by hand for P1, n=1
    _, _, C, _ = recursion_coeff_rows(p1, 1)
    expected = (
        QSum.term(1, t1pow=1, qexp=F(-9, 2))   # q^{1/2+h1}
        + QSum.term(1, t2pow=1, qexp=F(3, 2))  # q^{1/2+h2}
        + QSum.term(1, t1pow=1, qexp=F(-4))    # q^{l1+2(1+lambda1)+a1+a2-5/2}
        + QSum.term(1, t2pow=1, qexp=F(-3))
    )
    assert C == expected


def test_row_d_leading_exponent_at_n1(p1):
    # factors (1-q^{-1-N}) and (1-q^{-1-N+alpha2-alpha1}); the product's
    # leading term is +q^{1+(-1-N)+(-1-N+a2-a1)}
    _, _, _, D = recursion_coeff_rows(p1, 1)
    mu, sign = ultradiscretize(D)
    assert (mu, sign) == (1 + (-3) + (-3 + H), 1)


def test_row_index_range(p1):
    with pytest.raises(DomainError):
        recursion_coeff_rows(p1, 0)
    with pytest.raises(DomainError):
        recursion_coeff_rows(p1, p1.N + 2)


# ---------------------------------------------------------------------------
# exact coefficients
# ---------------------------------------------------------------------------


def test_c0_is_one(p1, p2, p3, p4):
    for p in (p1, p2, p3, p4):
        polys, _ = coefficients_exact(p, 0)
        assert polys[0].coeffs == (QSum.one(),)


def test_c1_leading_of_e_coefficient(p2):
    polys, _ = coefficients_exact(p2, 1)
    lead = polys[1].leading_coefficient_slice(1)
    assert lead == QSum.term(1, t1pow=-1, t2pow=-1, qexp=-2)


def test_spectral_degrees(p1, p2, p4):
    assert spectral_polynomial(p2).degree == 2
    assert spectral_polynomial(p1).degree == 3
    assert spectral_polynomial(p4).degree == 4


def test_degree_invariant_randomized():
    rng = random.Random(11)
    for regime in ("R31", "R32", "R33"):
        p = sample_params(regime, rng, n_max=4)
        polys, _ = coefficients_exact(p)
        for n, ep in enumerate(polys):
            assert ep.degree == n
            assert not ep.coeffs[n].is_zero()


def test_homogeneity_invariant(p1, p2, p3, p4):
    # every row is homogeneous in (t1, t2, E): B has degree 1 (through E),
    # C degree 1, D*A_{n-1} degree 2, so c_m is homogeneous of degree 0 over
    # the denominator monomial (t1 t2)^m
    rng = random.Random(64)
    sampled = [
        sample_params(regime, rng, N=n)
        for regime in ("R31", "R32", "R33")
        for n in range(1, 7)
    ]
    for p in [p1, p2, p3, p4] + sampled:
        polys, _ = coefficients_exact(p)
        for m, ep in enumerate(polys):
            assert (ep.denom_monomial.t1pow, ep.denom_monomial.t2pow) == (m, m)
            for j, c in enumerate(ep.coeffs):
                assert all(t.t1pow + t.t2pow + j == m for t in c.terms), (p, m, j)


# (site, qexp, kind) -> count of the cancellation events of the fixtures
_EVENT_PINS = {
    "p1": {("c3[E^1]", F(-4), EXACT_ZERO): 1},
    "p2": {
        ("c2[E^0]", F(-1, 2), EXACT_ZERO): 1,
        ("c2[E^0]", F(3, 2), EXACT_ZERO): 1,
        ("c2[E^0]", F(7, 2), EXACT_ZERO): 1,
    },
    "p3": {
        ("c2[E^0]", F(1, 2), EXACT_ZERO): 1,
        ("c2[E^0]", F(2), EXACT_ZERO): 1,
        ("c2[E^0]", F(7, 2), EXACT_ZERO): 1,
    },
    "p4": {
        ("c3[E^0]", F(-1, 2), EXACT_ZERO): 1,
        ("c3[E^0]", F(-3, 2), EXACT_ZERO): 1,
        ("c3[E^0]", F(-9, 2), EXACT_ZERO): 1,
        ("c3[E^0]", F(25, 2), EXACT_ZERO): 1,
        ("c3[E^0]", F(27, 2), EXACT_ZERO): 2,
        ("c4[E^0]", F(-2), EXACT_ZERO): 1,
        ("c4[E^0]", F(-5), EXACT_ZERO): 1,
        ("c4[E^0]", F(23), EXACT_ZERO): 2,
        ("c4[E^1]", F(-11, 2), EXACT_ZERO): 1,
        ("c4[E^1]", F(-15, 2), EXACT_ZERO): 1,
        ("c4[E^1]", F(-17, 2), EXACT_ZERO): 1,
        ("c4[E^1]", F(25, 2), EXACT_ZERO): 1,
        ("c4[E^1]", F(31, 2), EXACT_ZERO): 1,
        ("c4[E^1]", F(35, 2), EXACT_ZERO): 1,
        ("c4[E^2]", F(-5), EXACT_ZERO): 1,
        ("c4[E^2]", F(-6), EXACT_ZERO): 1,
        ("c4[E^2]", F(4), EXACT_ZERO): 1,
        ("c4[E^2]", F(5), EXACT_ZERO): 1,
    },
}


def test_cancellation_events_pinned(p1, p2, p3, p4):
    # event exponents are in q units, not in the recursion's scaled units
    for name, p in {"p1": p1, "p2": p2, "p3": p3, "p4": p4}.items():
        _, events = coefficients_exact(p)
        got = Counter((e.site, e.qexp, e.kind) for e in events)
        assert got == Counter(_EVENT_PINS[name]), name


@pytest.fixture(scope="module")
def n8_sets():
    return {r: sample_params(r, random.Random(8), N=8) for r in ("R31", "R32", "R33")}


def test_exact_coefficients_are_in_normal_form(p1, p2, p3, p4, n8_sets):
    # coefficients_exact builds its QSums without merging or sorting; they
    # must equal the normal form the merging constructor gives, with
    # Fraction exponents and coefficients (the recursion runs on ints)
    for p in [p1, p2, p3, p4, *n8_sets.values()]:
        polys, _ = coefficients_exact(p)
        for ep in polys:
            for c in ep.coeffs:
                assert c.terms == QSum(c.terms).terms, p
                assert all(
                    type(t.qexp) is Fraction and type(t.coeff) is Fraction
                    for t in c.terms
                ), p


# sha256 over repr of every level (denominator monomial, factors, terms) and
# of the event list of coefficients_exact, recorded before the recursion ran
# on integer coefficients; repr shows the value types as well as the values
_EXACT_DIGESTS = {
    "R31": "aa3b118ce2b04801907d39127aa2208df8ee25a0f00ad14bf81beda7628df416",
    "R32": "b5a2e3954a94af63355187af3fd7ca50e74b591e113065d6131d2ec66bec97e2",
    "R33": "e5dac9f3f56256d9eb49c164bd401021fc9da35c949411bb94edef1480e2bd76",
}


def test_scaled_rows_reject_non_integers():
    # the recursion runs on ints: a row term off the integer lattice must
    # stop it, never be truncated
    with pytest.raises(AssertionError, match="coefficient 1/2 is not an integer"):
        _scaled(QSum.term(H, qexp=1), 2)
    with pytest.raises(AssertionError, match="exponent 1/3"):
        _scaled(QSum.term(1, qexp=F(1, 3)), 2)


def test_exact_build_pinned(n8_sets):
    for regime, p in n8_sets.items():
        polys, events = coefficients_exact(p)
        levels = tuple(
            (ep.denom_monomial, ep.denom_factors, tuple(c.terms for c in ep.coeffs))
            for ep in polys
        )
        digest = hashlib.sha256(repr((levels, events)).encode()).hexdigest()
        assert digest == _EXACT_DIGESTS[regime], regime


# ---------------------------------------------------------------------------
# exact/numeric consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [192, 512])
def test_exact_matches_numeric_recursion(p1, p2, p3, bits):
    rng = random.Random(3)
    extra = sample_params("R31", rng, N=3)
    for p in (p1, p2, p3, extra):
        q = F(1, 100)
        E0 = F(7, 5)
        polys, _ = coefficients_exact(p)
        numeric = series_coefficient_values(p, E0, q, bits=bits, up_to=p.N + 1)
        for n, ep in enumerate(polys):
            vals = ep.coefficient_values(q, p.t1, p.t2, bits=bits)
            with mpmath.workprec(bits):
                exact_val = mpmath.mpf(0)
                for v in reversed(vals):
                    exact_val = exact_val * mpmath.mpf(E0.numerator) / E0.denominator + v
                err = abs(exact_val - numeric[n])
                assert err <= mpmath.mpf(2) ** (-bits + 64) * (abs(numeric[n]) + 1)


def _abs_recursion(rows, x):
    """c_0 .. c_{N+1} at x with every term taken by its absolute value: the
    scale of the rounding error of the recursion."""
    out, m2, m1 = [mpmath.mpf(1)], mpmath.mpf(0), mpmath.mpf(1)
    for A, B, C, D in rows:
        m2, m1 = m1, ((abs(B * x) + C) * m1 + D * m2) / A
        out.append(m1)
    return out


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["R31", "R32", "R33"]), st.integers(0, 10 ** 6), st.integers(1, 8),
       st.integers(1, 10), st.integers(2, 12), st.integers(-60, 60), st.integers(0, 40),
       st.sampled_from([128, 512]))
def test_numeric_rows_match_the_exact_image(regime, seed, N, m, k, e0, e0_exp, bits):
    # the shared rows, in mpf and as intervals, against the exact rows
    # evaluated at twice the precision; and c_0 .. c_{N+1} run on them
    # against the exact polynomials' image, over N <= 8, q in [1e-12, 1e-1].
    # A q-power exp(mu log q) carries the rounding of log q times |mu log q|
    # (below 2^11 here), so the rows hold bits + EVAL_GUARD_BITS - 11 bits
    p = sample_params(regime, random.Random(seed), N=N)
    q = F(m, 10 ** k)
    E0 = F(e0, 7) * 10 ** e0_exp
    rows = recursion_rows_at(p, q, bits + EVAL_GUARD_BITS)
    boxes = recursion_rows_at(p, q, bits + EVAL_GUARD_BITS, mpmath.iv)
    polys, _ = coefficients_exact(p)
    numeric = series_coefficient_values(p, E0, q, bits=bits, up_to=p.N + 1)
    with mpmath.workprec(2 * bits):
        for n in range(1, p.N + 2):
            exact = recursion_coeff_rows(p, n)
            for v, box, row in zip(rows[n - 1], boxes[n - 1], exact):
                ref = eval_numeric(row, q, p.t1, p.t2, bits=2 * bits)
                assert abs(v - ref) <= mpmath.mpf(2) ** -bits * abs(ref)
                slack = mpmath.mpf(2) ** -(2 * bits - 32) * abs(ref)
                lo, hi = (mpmath.mp.make_mpf(e) for e in box._mpi_)
                assert lo - slack <= ref <= hi + slack
        scale = _abs_recursion(rows, abs(to_mpf(E0)))
        for n, ep in enumerate(polys):
            image = mpmath.mpf(0)
            for c in reversed(ep.coefficient_values(q, p.t1, p.t2, bits=2 * bits)):
                image = image * to_mpf(E0) + c
            assert abs(image - numeric[n]) <= mpmath.mpf(2) ** -(bits - 32) * scale[n]


def _uncached_coefficient_values(ep, q, t1, t2, bits):
    """The image term by term, one exp call per term: no q-power is reused."""
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        qv, t1v, t2v = to_mpf(q), to_mpf(t1), to_mpf(t2)
        lq = mpmath.log(qv)
        m = ep.denom_monomial
        den = to_mpf(m.coeff) * mpmath.exp(to_mpf(m.qexp) * lq)
        if m.t1pow:
            den *= t1v ** m.t1pow
        if m.t2pow:
            den *= t2v ** m.t2pow
        for e in ep.denom_factors:
            den *= 1 - mpmath.exp(to_mpf(e) * lq)
        vals = []
        for c in ep.coeffs:
            terms = []
            for t in c.terms:
                v = to_mpf(t.coeff)
                if t.qexp:
                    v *= mpmath.exp(to_mpf(t.qexp) * lq)
                if t.t1pow:
                    v *= t1v ** t.t1pow
                if t.t2pow:
                    v *= t2v ** t.t2pow
                terms.append(v)
            vals.append((mpmath.fsum(terms) if terms else mpmath.mpf(0)) / den)
    with mpmath.workprec(bits):
        return [(+v)._mpf_ for v in vals]


@pytest.mark.parametrize("bits", [512, 1024])
def test_coefficient_values_equal_the_uncached_image(p1, p2, p3, p4, bits):
    r32_n6 = derive(-2, -1, F(67, 6), F(33, 2), 0, F(-41, 3), -3, 2, 1)
    assert r32_n6.N == 6
    for p in (p1, p2, p3, p4, r32_n6):
        ep = spectral_polynomial(p)
        for q in (F(1, 1000), F(1, 10 ** 6)):
            got = [v._mpf_ for v in ep.coefficient_values(q, p.t1, p.t2, bits=bits)]
            assert got == _uncached_coefficient_values(ep, q, p.t1, p.t2, bits)


# sha256 over repr of the coefficient_values _mpf_ tuples, recorded while
# the image still read the Fraction terms of each coefficient
_IMAGE_DIGESTS = {
    ("P1", 1000, 512): "560f17aa1eb16a51d2babc64a77bcdaf08606f9fd73631d3f41db8a5f18ef6d6",
    ("P1", 1000, 1024): "cf889a9de74f459ed416972c7a8ab0ad5783cbba3cd344edbfa2a04681919c66",
    ("P1", 1000000, 512): "17f4dde425431334b5a2b7849a9d261dc3cd0e00b1683e907c4e36dd430e4883",
    ("P1", 1000000, 1024): "bf59d522ab49d3b8edf926155afdfa8f10be3a288216e14a7867da0d4830766e",
    ("P2", 1000, 512): "755ab48ca441dd59450fe3cef469d37460190cddd82801a59dc6d7395a8c6729",
    ("P2", 1000, 1024): "5a342eed0cf0c9fe280e34df47aaa764d427f84e538dde674f57eeb0a8db8b59",
    ("P2", 1000000, 512): "db35ea619ba893cfb68d4a758d87f0ca91bb59c4a63984887ed736125b645263",
    ("P2", 1000000, 1024): "19fff51d157d34a4bcaf293fbb32417a01f5a245e663000960f6b0c783a5feb0",
    ("P3", 1000, 512): "504ec0befe881972b334d091ef9430eb012408036b943f906e27a9066f44b81b",
    ("P3", 1000, 1024): "151a63515f30cd32cfffbd641681d166dd05d274001f7983c8e53cee0be889bf",
    ("P3", 1000000, 512): "939883f59c7ef53adcccc6c3814873526cfe6063ae74437a19ee1cc4ec2d5721",
    ("P3", 1000000, 1024): "b0c8b8d85f34b0baec87161f31b5bff664f73a691df8948111006d7ee1604776",
    ("P4", 1000, 512): "426410f99563002087a10a89b22b972ad3b4dda803e5af15e664a39ab627b900",
    ("P4", 1000, 1024): "c86d0b05d54d347e5fe48ef98470518d3f60bfb2338d31f53ba9328bbd1ba9fe",
    ("P4", 1000000, 512): "860f8a6bfae262f25fdbc2cf1f143c4539d5cdec24f581ea024cd040865825c7",
    ("P4", 1000000, 1024): "68cf61f5d305ef6e65197e0ae9a823e92653a3ef5f7853d6877d941f03b9ee5b",
    ("R32_N6", 1000, 512): "12a12b275973dc7fbed4bcc966069be4568f0afc9b57e5694657b5ec41e7abc4",
    ("R32_N6", 1000, 1024): "3f9f811df139eb4eedc86b6b285b6ccc7ffc7138db078fa6f6c4a9f7317f7a00",
    ("R32_N6", 1000000, 512): "ea2565a66ed2b214c0dac331fc30ffa9839ef3b9b36d330d3b31cf8c068eac86",
    ("R32_N6", 1000000, 1024): "b40bc65aab264e1f400aa2b6aec1a76fb6e087b934f1c5d90e5d8e4a8b8d2e30",
}


def test_image_pinned(p1, p2, p3, p4):
    sets = {"P1": p1, "P2": p2, "P3": p3, "P4": p4,
            "R32_N6": sample_params("R32", random.Random(8), N=6)}
    for name, p in sets.items():
        ep = spectral_polynomial(p)
        for qden in (1000, 10 ** 6):
            for bits in (512, 1024):
                vals = [v._mpf_ for v in ep.coefficient_values(F(1, qden), p.t1, p.t2, bits=bits)]
                digest = hashlib.sha256(repr(vals).encode()).hexdigest()
                assert digest == _IMAGE_DIGESTS[(name, qden, bits)], (name, qden, bits)


def _uncached_series(p, E0, q, bits, up_to):
    """The numeric recursion with one exp call per q-power use."""
    lam = p.lambda1
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        qv, t1v, t2v, E0v = to_mpf(q), to_mpf(p.t1), to_mpf(p.t2), to_mpf(E0)
        lq = mpmath.log(qv)

        def qp(e):
            return mpmath.exp(to_mpf(e) * lq)

        cs = [mpmath.mpf(1)]
        cm2, cm1 = mpmath.mpf(0), mpmath.mpf(1)
        for n in range(1, up_to + 1):
            Av = t1v * t2v * qp(p.h1 + p.h2) * (1 - qp(n)) * (1 - qp(n - p.beta))
            Bv = qp(n - 1 + lam)
            ce = 2 * (n + lam) + p.alpha1 + p.alpha2 - F(5, 2)
            Cv = qp(H) * (qp(p.h1) * t1v + qp(p.h2) * t2v) + (
                qp(p.l1) * t1v + qp(p.l2) * t2v
            ) * qp(ce)
            Dv = qv * (1 - qp(n - 2 + lam + p.alpha1)) * (1 - qp(n - 2 + lam + p.alpha2))
            cn = ((Bv * E0v + Cv) * cm1 - Dv * cm2) / Av
            cs.append(cn)
            cm2, cm1 = cm1, cn
    with mpmath.workprec(bits):
        return [(+c)._mpf_ for c in cs]


def _uncached_residual(p, sol):
    """The operator residual with one exp call per q-power use."""
    lam = p.lambda1
    with mpmath.workprec(sol.bits + EVAL_GUARD_BITS):
        qv, t1v, t2v, E0v = to_mpf(sol.q), to_mpf(sol.t1), to_mpf(sol.t2), to_mpf(sol.E0)
        lq = mpmath.log(qv)

        def qp(e):
            return mpmath.exp(to_mpf(e) * lq)

        def f(cs, x):
            acc = mpmath.mpf(0)
            for c in reversed(cs):
                acc = acc * x + c
            return mpmath.exp(to_mpf(lam) * mpmath.log(x)) * acc

        cs = [to_mpf(c) for c in sol.coeffs]
        abs_cs = [abs(c) for c in cs]
        const = qp((p.h1 + p.h2 + p.l1 + p.l2 + p.alpha1 + p.alpha2) / 2) * (
            qp(p.beta / 2) + qp(-p.beta / 2)
        ) * t1v * t2v
        a1f, a2f = qp(p.h1 + H) * t1v, qp(p.h2 + H) * t2v
        b1f, b2f = qp(p.l1 - H) * t1v, qp(p.l2 - H) * t2v
        pref2 = qp(p.alpha1 + p.alpha2)
        quad = qp(p.alpha1) + qp(p.alpha2)
        worst = mpmath.mpf(0)
        for x in (t1v * qp(H), t1v, t1v * qp(-H)):
            term1 = (x - a1f) * (x - a2f) * f(cs, x / qv)
            term2 = pref2 * (x - b1f) * (x - b2f) * f(cs, x * qv)
            term3 = -(quad * x * x + E0v * x + const) * f(cs, x)
            scale = max(
                (x + a1f) * (x + a2f) * f(abs_cs, x / qv),
                pref2 * (x + b1f) * (x + b2f) * f(abs_cs, x * qv),
                (quad * x * x + abs(E0v) * x + const) * f(abs_cs, x),
            )
            worst = max(worst, abs(term1 + term2 + term3) / scale)
    with mpmath.workprec(sol.bits):
        return (+worst)._mpf_


@pytest.mark.parametrize("bits", [512, 1024])
def test_series_and_residual_equal_the_uncached_reference(p1, p2, p3, p4, bits):
    # at the roots, where the residual certifies them, and off them; in the
    # last set t1, t2 are not powers of two and neither alpha is 0, so the
    # order of more products shows in the rounding
    r32_n6 = derive(-2, -1, F(67, 6), F(33, 2), 0, F(-41, 3), -3, 2, 1)
    odd = sample_params("R32", random.Random(3), N=4)
    odd = odd.with_value("t1", F(5, 3)).with_value("t2", F(3, 7))
    q = F(1, 1000)
    for p in (p1, p2, p3, p4, r32_n6, odd):
        roots, _ = find_spectral_roots(p, q, bits)
        for E0 in roots + [F(7, 5)]:
            got = series_coefficient_values(p, E0, q, bits=bits, up_to=p.N + 1)
            assert [c._mpf_ for c in got] == _uncached_series(p, E0, q, bits, p.N + 1)
            sol = coefficients_numeric(p, E0, q, bits)
            assert residual_check(p, sol)._mpf_ == _uncached_residual(p, sol)


# ---------------------------------------------------------------------------
# residual oracle
# ---------------------------------------------------------------------------


def test_residual_small_at_roots(p3):
    roots, _ = find_spectral_roots(p3, F(1, 1000), 512)
    for r in roots:
        sol = coefficients_numeric(p3, r, F(1, 1000), 512)
        assert residual_check(p3, sol) < mpmath.mpf(10) ** -30


def test_residual_detects_non_root(p2):
    sol = coefficients_numeric(p2, 1, F(1, 1000), 512)
    assert residual_check(p2, sol) > mpmath.mpf(10) ** -6


@pytest.mark.parametrize("q", [F(1, 1000), F(1, 10 ** 6)])
def test_residual_gate_passes_roots_and_rejects_non_roots(p1, p2, p3, p4, q):
    # every root refined at 512 bits passes the 1e-30 gate of verify; a
    # root moved by 2^-40 of itself fails it, and so does the midpoint of
    # two neighbouring roots
    gate = mpmath.mpf(10) ** -30
    for p in (p1, p2, p3, p4):
        roots, _ = find_spectral_roots(p, q, 512)
        with mpmath.workprec(512):
            moved = [r * (1 + mpmath.mpf(2) ** -40) for r in roots]
            mids = [(a + b) / 2 for a, b in zip(roots, roots[1:])]
        res = [residual_check(p, coefficients_numeric(p, E, q, 512)) for E in roots + moved + mids]
        assert all(r <= gate for r in res[: len(roots)])
        assert all(r > gate for r in res[len(roots):])


def test_residual_n_zero_closed_form():
    # N = 0: the single condition c_1(E) = 0 is linear, and the solution
    # f(x) = x^{lambda1} alone must satisfy the equation
    p = derive(0, 1, 1, 3, 0, F(-3, 2), H, 1, 1)
    assert p.N == 0
    roots, _ = find_spectral_roots(p, F(1, 1000), 256)
    assert len(roots) == 1
    sol = coefficients_numeric(p, roots[0], F(1, 1000), 256)
    assert sol.coeffs == (mpmath.mpf(1),)
    assert residual_check(p, sol) < mpmath.mpf(10) ** -30


def test_eval_of_exact_epoly_consistent_with_eval_numeric(p2):
    # the reduced coefficient times the denominator must evaluate back to
    # the raw numerator (sanity for the structured-denominator bookkeeping)
    ep = spectral_polynomial(p2)
    q = F(1, 50)
    for j in range(ep.degree + 1):
        raw = eval_numeric(ep.coeffs[j], q, p2.t1, p2.t2, bits=128)
        red = eval_numeric(ep.reduced_coefficient(j), q, p2.t1, p2.t2, bits=128)
        mono = eval_numeric(
            QSum((ep.denom_monomial,)), q, p2.t1, p2.t2, bits=128
        )
        with mpmath.workprec(128):
            assert abs(raw - red * mono) <= mpmath.mpf(2) ** -96 * (abs(raw) + 1)
