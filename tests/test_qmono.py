from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheun.errors import DomainError, SignIndefiniteError, ZeroQSumError
from qheun.qmono import (
    EXACT_ZERO,
    SIGN_CONFLICT,
    EVAL_MARGIN_BITS,
    QMonomial,
    QSum,
    equiv_approx,
    equiv_sim,
    eval_numeric,
    leading_part,
    qpow,
    qsum_add,
    qsum_merge,
    qsum_mul,
    ultradiscretize,
)

F = Fraction


def term(c, t1=0, t2=0, q=0):
    return QSum.term(F(c), t1, t2, F(q))


# ---------------------------------------------------------------------------
# addition and diagnostics
# ---------------------------------------------------------------------------


def test_add_inverse_gives_zero_and_event():
    s, events = qsum_add(term(1), term(-1))
    assert s.is_zero()
    assert [e.kind for e in events] == [EXACT_ZERO]


def test_add_disjoint_keys_no_events():
    s, events = qsum_add(term(1, t1=1, q=F(1, 2)), term(1, t2=1, q=F(3, 2)))
    assert len(s) == 2
    assert s.leading_exponent == F(1, 2)
    assert events == []


def test_add_sign_conflict_at_colliding_exponents():
    # instantiate h2 = 0 and l1+l2+beta = 2, so the exponents 1-2*h2 and
    # 3-l1-l2-beta coincide at 1 with opposite signs and distinct t powers
    a = term(1, t2=-2, q=1)
    b = term(-1, t1=-1, t2=-1, q=1)
    s, events = qsum_add(a, b)
    assert len(s) == 2
    assert [e.kind for e in events] == [SIGN_CONFLICT]
    assert events[0].qexp == 1


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_exponents_add():
    assert qsum_mul(qpow(F(1, 2)), qpow(F(-1, 2))) == term(1)


def test_mul_by_zero_annihilates():
    a = term(1, t1=1, q=F(1, 3)) + term(1, t2=1, q=2)
    assert qsum_mul(a, QSum.zero()).is_zero()


def test_mul_hand_expansion():
    one_minus_q = term(1) - qpow(1)
    assert qsum_mul(one_minus_q, one_minus_q) == term(1) - 2 * qpow(1) + qpow(2)


# ---------------------------------------------------------------------------
# leading parts and equivalences
# ---------------------------------------------------------------------------


def test_leading_part_picks_minimal_exponent():
    a = term(1, t1=1, q=-2) + term(1)
    assert leading_part(a) == term(1, t1=1, q=-2)


def test_leading_part_keeps_ties():
    a = term(1, t1=1, q=F(1, 2)) + term(1, t2=1, q=F(1, 2)) + qpow(1)
    assert leading_part(a) == term(1, t1=1, q=F(1, 2)) + term(1, t2=1, q=F(1, 2))


def test_leading_part_of_zero_raises():
    with pytest.raises(ZeroQSumError):
        leading_part(QSum.zero())


def test_equiv_sim_examples():
    assert equiv_sim(term(1) + qpow(1), term(1) + 5 * qpow(2))
    assert not equiv_sim(2 * term(1), term(1))
    assert equiv_sim(term(1, t1=1, q=-1) + term(1), term(1, t1=1, q=-1))
    with pytest.raises(ZeroQSumError):
        equiv_sim(QSum.zero(), term(1))


def test_equiv_approx_examples():
    assert equiv_approx(3 * qpow(F(1, 2)), qpow(F(1, 2)))
    assert not equiv_approx(qpow(F(1, 2)), qpow(F(3, 2)))
    # C = t1/t2 > 0 for any admissible positive t1, t2
    assert equiv_approx(term(1, t1=1), term(1, t2=1))
    with pytest.raises(SignIndefiniteError):
        equiv_approx(term(1, t1=1) - term(1, t2=1), term(1))


def test_ultradiscretize_examples():
    assert ultradiscretize(term(-1, t1=1, q=F(-5, 2)) + term(1)) == (F(-5, 2), -1)
    assert ultradiscretize(term(1)) == (0, 1)
    with pytest.raises(SignIndefiniteError):
        ultradiscretize(term(1, t1=1) - term(1, t2=1))


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


def test_eval_constant():
    assert eval_numeric(term(1), F(1, 7), 1, 1, bits=64) == 1


def test_eval_symbolic_cancellation_is_exact_zero():
    a = qpow(1) - qpow(1)
    assert eval_numeric(a, F(1, 3), 1, 1, bits=64) == 0


def test_eval_hand_value():
    # (1-q)(1-q^{1/2}) at q = 1/4 is (3/4)*(1/2) = 0.375
    a = qsum_mul(term(1) - qpow(1), term(1) - qpow(F(1, 2)))
    v = eval_numeric(a, F(1, 4), 1, 1, bits=128)
    with mpmath.workprec(128):
        assert abs(v - mpmath.mpf(3) / 8) < mpmath.mpf(2) ** -100


def test_eval_rejects_bad_domain():
    with pytest.raises(DomainError):
        eval_numeric(term(1), F(3, 2), 1, 1, bits=128)
    with pytest.raises(DomainError):
        eval_numeric(term(1), F(1, 2), 1, 1, bits=32)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero_fracs = fracs.filter(lambda c: c != 0)
monomials = st.builds(
    QMonomial,
    qexp=fracs,
    t1pow=st.integers(-3, 3),
    t2pow=st.integers(-3, 3),
    coeff=nonzero_fracs,
)
qsums = st.lists(monomials, max_size=6).map(QSum)
nonzero_qsums = qsums.filter(lambda s: not s.is_zero())


@given(qsums, qsums, qsums)
@settings(max_examples=150)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert qsum_mul(a, b) == qsum_mul(b, a)
    assert qsum_mul(qsum_mul(a, b), c) == qsum_mul(a, qsum_mul(b, c))
    assert qsum_mul(a, b + c) == qsum_mul(a, b) + qsum_mul(a, c)


@given(st.lists(monomials, max_size=6), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_normalization_canonical_under_permutation(terms, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert QSum(terms) == QSum(shuffled)
    s = QSum(terms)
    assert QSum(s.terms) == s  # idempotent


@given(qsums, qsums, monomials, fracs)
@settings(max_examples=150)
def test_trusted_constructions_keep_the_normal_form(a, b, m, c):
    # these results are built without a merge or sort; each must equal the
    # normal form the merging constructor gives
    unit = replace(m, coeff=F(1))
    results = [a.div_monomial(m), a.div_monomial(unit), -a, a * c, c * a, a * 3,
               qsum_mul(a, b), qsum_merge([a, b, -a])[0]]
    if a:
        results.append(leading_part(a))
    for r in results:
        assert r.terms == QSum(r.terms).terms
        assert all(type(t.qexp) is Fraction and type(t.coeff) is Fraction for t in r.terms)
    assert qsum_mul(a.div_monomial(m), QSum((m,))) == a
    assert qsum_merge([a, b, -a])[0] == b


def _definite(s):
    try:
        return ultradiscretize(s)
    except (ZeroQSumError, SignIndefiniteError):
        return None


@given(nonzero_qsums, nonzero_qsums)
@settings(max_examples=150)
def test_leading_exponent_additive_and_signs_multiply(a, b):
    ua, ub = _definite(a), _definite(b)
    if ua is None or ub is None:
        return
    prod = qsum_mul(a, b)
    mu, sign = ultradiscretize(prod)
    assert mu == ua[0] + ub[0]
    assert sign == ua[1] * ub[1]


@given(nonzero_qsums, nonzero_qsums)
@settings(max_examples=150)
def test_sim_implies_approx_on_definite_inputs(a, b):
    if _definite(a) is None or _definite(b) is None:
        return
    if equiv_sim(a, b):
        assert equiv_approx(a, b)


@given(qsums, qsums)
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_homomorphism_within_margin(a, b):
    bits = 128
    q, t1, t2 = F(1, 10), F(3, 2), F(1, 2)
    va = eval_numeric(a, q, t1, t2, bits=bits)
    vb = eval_numeric(b, q, t1, t2, bits=bits)
    vs = eval_numeric(a + b, q, t1, t2, bits=bits)
    absum = QSum(
        QMonomial(t.qexp, t.t1pow, t.t2pow, abs(t.coeff))
        for t in list(a.terms) + list(b.terms)
    )
    scale = eval_numeric(absum, q, t1, t2, bits=bits)
    with mpmath.workprec(bits):
        bound = mpmath.mpf(2) ** (-bits + EVAL_MARGIN_BITS) * (scale + 1)
        assert abs(vs - (va + vb)) <= bound
