import math
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
    T_LIMIT,
    AtQ,
    CancellationEvent,
    Packed,
    QMonomial,
    QSum,
    equiv_approx,
    equiv_sim,
    eval_terms,
    leading_part,
    pack_key,
    qpow,
    terms_merge,
    terms_mul,
    ultradiscretize,
    unpack_key,
)
from qheun.spectral import _three_term_rows, coefficients_exact
from qheun.ultra import classify, leading_recursion, tilde_cN1

F = Fraction


def term(c, t1=0, t2=0, q=0):
    return QSum.term(F(c), t1, t2, F(q))


def merge(parts):
    """The sum of the QSums ``parts`` and terms_merge's events: terms_merge
    on their term dicts at a common scale."""
    den = math.lcm(*(a.den for a in parts))
    merged, events = terms_merge([dict(a.at_scale(den)) for a in parts], "", den)
    return QSum.from_term_dict(merged, den), events


# ---------------------------------------------------------------------------
# addition and diagnostics
# ---------------------------------------------------------------------------


def test_add_inverse_gives_zero_and_event():
    s, events = merge((term(1), term(-1)))
    assert s.is_zero()
    assert [e.kind for e in events] == [EXACT_ZERO]


def test_add_disjoint_keys_no_events():
    s, events = merge((term(1, t1=1, q=F(1, 2)), term(1, t2=1, q=F(3, 2))))
    assert len(s) == 2
    assert s.leading_exponent == F(1, 2)
    assert events == []


def test_add_sign_conflict_at_colliding_exponents():
    # instantiate h2 = 0 and l1+l2+beta = 2, so the exponents 1-2*h2 and
    # 3-l1-l2-beta coincide at 1 with opposite signs and distinct t powers
    a = term(1, t2=-2, q=1)
    b = term(-1, t1=-1, t2=-1, q=1)
    s, events = merge((a, b))
    assert len(s) == 2
    assert [e.kind for e in events] == [SIGN_CONFLICT]
    assert events[0].qexp == 1


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_exponents_add():
    assert qpow(F(1, 2)) * qpow(F(-1, 2)) == term(1)


def test_mul_by_zero_annihilates():
    a = term(1, t1=1, q=F(1, 3)) + term(1, t2=1, q=2)
    assert (a * QSum.zero()).is_zero()


def test_mul_hand_expansion():
    one_minus_q = term(1) - qpow(1)
    assert one_minus_q * one_minus_q == term(1) - 2 * qpow(1) + qpow(2)


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


def _value(a, q, t1, t2, bits):
    """The value of ``a`` at q, t1, t2, evaluated at ``bits`` bits."""
    with mpmath.workprec(bits):
        return eval_terms(a, AtQ(q, t1, t2))


def test_eval_constant():
    assert _value(term(1), F(1, 7), 1, 1, 64) == 1


def test_eval_symbolic_cancellation_is_exact_zero():
    a = qpow(1) - qpow(1)
    assert _value(a, F(1, 3), 1, 1, 64) == 0


def test_eval_hand_value():
    # (1-q)(1-q^{1/2}) at q = 1/4 is (3/4)*(1/2) = 0.375
    a = (term(1) - qpow(1)) * (term(1) - qpow(F(1, 2)))
    v = _value(a, F(1, 4), 1, 1, 128)
    with mpmath.workprec(128):
        assert abs(v - mpmath.mpf(3) / 8) < mpmath.mpf(2) ** -100


def test_eval_rejects_bad_domain():
    with pytest.raises(DomainError):
        AtQ(F(3, 2), 1, 1)
    with pytest.raises(DomainError):
        AtQ(F(1, 2), 0, 1)


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
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


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
               a * b, merge([a, b, -a])[0]]
    if a:
        results.append(leading_part(a))
    for r in results:
        assert r.terms == QSum(r.terms).terms
        assert all(type(t.qexp) is Fraction and type(t.coeff) is Fraction for t in r.terms)
    assert a.div_monomial(m) * QSum((m,)) == a
    assert merge([a, b, -a])[0] == b


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
    prod = a * b
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
    # the values at 128 bits agree within 2^16 units of 2^-128 of the sum of
    # the term magnitudes
    bits = 128
    q, t1, t2 = F(1, 10), F(3, 2), F(1, 2)
    va, vb, vs = (_value(x, q, t1, t2, bits) for x in (a, b, a + b))
    absum = QSum(
        QMonomial(t.qexp, t.t1pow, t.t2pow, abs(t.coeff))
        for t in list(a.terms) + list(b.terms)
    )
    scale = _value(absum, q, t1, t2, bits)
    with mpmath.workprec(bits):
        bound = mpmath.mpf(2) ** (16 - bits) * (scale + 1)
        assert abs(vs - (va + vb)) <= bound


# ---------------------------------------------------------------------------
# packed keys and the integer form
# ---------------------------------------------------------------------------

L = T_LIMIT


def test_pack_key_round_trips_at_the_edges_of_each_field():
    # the t-fields hold [-L, L); the exponent field is the top one and has
    # no edge, so any size round-trips
    for e in (0, 1, -1, 10 ** 30, -(10 ** 30)):
        for a in (-L, -1, 0, L - 1):
            for b in (-L, -1, 0, L - 1):
                assert unpack_key(pack_key(e, a, b)) == (e, a, b)
    for bad in (-L - 1, L):
        with pytest.raises(AssertionError, match="outside the packed range"):
            pack_key(0, bad, 0)
        with pytest.raises(AssertionError, match="outside the packed range"):
            pack_key(0, 0, bad)
        with pytest.raises(AssertionError, match="outside the packed range"):
            QSum.term(1, t1pow=bad)


@given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-L, L - 1),
                          st.integers(-L, L - 1)), min_size=2, max_size=2))
@settings(max_examples=200)
def test_packed_keys_add_and_order_like_the_tuples(keys):
    (ka, kb) = [pack_key(*k) for k in keys]
    assert (ka < kb) == (keys[0] < keys[1])
    total = tuple(x + y for x, y in zip(*keys))
    if all(-L <= f < L for f in total[1:]):
        assert unpack_key(ka + kb) == total


@pytest.mark.parametrize("field", [1, 2])
def test_products_and_divisions_never_wrap_a_t_field(field):
    def fields(e, t):  # (e, t, 0) or (e, 0, t)
        return (e, t, 0) if field == 1 else (e, 0, t)

    def key(e, t):
        return pack_key(*fields(e, t))

    def mono(t):  # t1^t or t2^t
        return QMonomial(F(0), *fields(0, t)[1:], F(1))

    def keys(s):
        return [unpack_key(k) for k, _ in s.items]

    up, down = {key(0, 1): 1}, {key(0, -1): 1}
    # a product reaches each edge of the range, and one step further raises
    assert [unpack_key(k) for k in terms_mul({key(3, L - 2): 1}, up)] == [fields(3, L - 1)]
    assert [unpack_key(k) for k in terms_mul({key(-3, -L + 1): 1}, down)] == [fields(-3, -L)]
    with pytest.raises(AssertionError, match="outside the packed range"):
        terms_mul({key(3, L - 1): 1}, up)
    with pytest.raises(AssertionError, match="outside the packed range"):
        terms_mul({key(-3, -L): 1}, down)
    # and so does the packed product
    pk = Packed(1, 1)
    for edge, step in (({key(3, L - 2): 1}, up), ({key(-3, -L + 1): 1}, down)):
        got = pk.mul(pk.row(step), encode(pk, edge))
        assert pk.items(got) == tuple(terms_mul(edge, step).items())
        with pytest.raises(AssertionError, match="outside the packed range"):
            pk.mul(pk.row(step), got)
    # division by a positive power gives negative t-powers down to -L
    s = QSum.term(3, qexp=F(1, 3)).div_monomial(mono(L - 1))
    assert keys(s) == [fields(1, -L + 1)]
    edge = s.div_monomial(mono(1))
    assert keys(edge) == [fields(1, -L)]
    with pytest.raises(AssertionError, match="outside the packed range"):
        edge.div_monomial(mono(1))
    # and division by a negative power gives t-powers up to L - 1
    top = QSum.term(3).div_monomial(mono(-(L - 1)))
    assert keys(top) == [fields(0, L - 1)]
    with pytest.raises(AssertionError, match="outside the packed range"):
        top.div_monomial(mono(-1))


def _agree(f, x, y):
    """f(x) == f(y), where raising the same error type counts as agreeing."""
    try:
        fx = f(x)
    except (ZeroQSumError, SignIndefiniteError) as exc:
        with pytest.raises(type(exc)):
            f(y)
        return
    assert fx == f(y)


term_dicts = st.dictionaries(
    st.tuples(st.integers(-12, 12), st.integers(-3, 3), st.integers(-3, 3)),
    st.one_of(st.integers(-5, 5), nonzero_fracs).filter(lambda c: c != 0),
    max_size=6,
)


@given(term_dicts, st.sampled_from([1, 2, 6, 12]), monomials, qsums)
@settings(max_examples=150, deadline=None)
def test_integer_form_agrees_with_its_terms(d, den, m, other):
    # x keeps the integer form it was built in, at a scale that need not be
    # minimal; y is rebuilt from its Fraction terms
    x = QSum.from_term_dict({pack_key(*k): c for k, c in d.items()}, den)
    y = QSum(x.terms)
    assert x == y and hash(x) == hash(y)
    assert len(x) == len(y) and bool(x) == bool(y) and x.is_zero() == y.is_zero()
    assert x.terms == y.terms
    for f in (leading_part, lambda s: s.div_monomial(m), lambda s: s.div_monomial(replace(m, coeff=F(1)))):
        try:
            fx = f(x)
        except ZeroQSumError:
            with pytest.raises(ZeroQSumError):
                f(y)
            continue
        assert fx == f(y) and fx.terms == f(y).terms
    _agree(ultradiscretize, x, y)
    _agree(lambda s: equiv_sim(s, other), x, y)
    _agree(lambda s: equiv_approx(s, other), x, y)
    for bits in (128, 512):
        with mpmath.workprec(bits):
            at = AtQ(F(1, 1000), F(3, 2), F(2, 7))
            got = eval_terms(x, at)._mpf_
            # the term-by-term sum of the Fraction monomials
            assert got == mpmath.fsum([at.term(t) for t in x.terms])._mpf_
            assert got == eval_terms(y, AtQ(F(1, 1000), F(3, 2), F(2, 7)))._mpf_


def test_exact_coefficients_agree_with_their_terms(p1, p2, p3, p4):
    for p in (p1, p2, p3, p4):
        polys, _ = coefficients_exact(p)
        for ep in polys:
            for x in ep.coeffs:
                y = QSum(x.terms)
                assert x == y and hash(x) == hash(y) and len(x) == len(y)
                if x:
                    assert leading_part(x).terms == leading_part(y).terms
                    assert x.div_monomial(ep.denom_monomial).terms == y.div_monomial(ep.denom_monomial).terms


# ---------------------------------------------------------------------------
# the normal form: an int for every integral coefficient
# ---------------------------------------------------------------------------


def assert_int_form(s):
    """s holds an int for every integral coefficient and a Fraction for the
    others; its terms hold Fractions only."""
    assert [type(c) for _, c in s.items] == [int if c.denominator == 1 else Fraction for _, c in s.items]
    assert all(type(t.coeff) is Fraction and type(t.qexp) is Fraction for t in s.terms)


@given(qsums, qsums, monomials, st.one_of(fracs, st.integers(-3, 3)))
@settings(max_examples=150)
def test_ring_built_sums_hold_ints_where_integral(a, b, m, c):
    unit = replace(m, coeff=F(1))
    for r in [a, a + b, a - b, -a, a * b, a * c, c * a, a.div_monomial(m), a.div_monomial(unit),
              merge([a, b])[0], 1 - a, sum([a, b])]:
        assert_int_form(r)
    if a:
        assert_int_form(leading_part(a))


def test_exact_results_hold_int_coefficients(p1, p3):
    for p in (p1, p3):
        tag = classify(p)
        sums = [x for row in _three_term_rows(p) for x in row]
        sums += tilde_cN1(p, tag).coeffs + coefficients_exact(p)[0][-1].coeffs
        sums += [c for ep in leading_recursion(p, tag) for c in ep.coeffs]
        assert all(type(c) is int for x in sums for _, c in x.items)
        for x in sums:
            assert_int_form(x)


@given(nonzero_fracs, st.integers(-3, 3), st.integers(-3, 3), fracs)
@settings(max_examples=150)
def test_term_is_the_one_monomial_sum(c, a, b, mu):
    want = QSum([QMonomial(mu, a, b, c)])
    for coeff in [c, int(c)] if c.denominator == 1 else [c]:
        got = QSum.term(coeff, a, b, mu)
        assert got.den == want.den and got.items == want.items
        assert [type(x) for _, x in got.items] == [type(x) for _, x in want.items]
        assert_int_form(got)
    assert qpow(mu) == QSum.term(1, qexp=mu) and qpow(mu).den == mu.denominator


# every exponent of these sums, their sums and their differences lies in (1/12)Z
ORACLE_DEN = 12
small_qsums = st.lists(monomials, max_size=3).map(QSum)
divisors = st.builds(QMonomial, qexp=fracs, t1pow=st.integers(-1, 1), t2pow=st.integers(-1, 1),
                     coeff=st.one_of(nonzero_fracs, st.sampled_from([2, -3, F(2), F(2, 3)])))
ops = st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*"]), small_qsums),
    st.tuples(st.just("scalar"), st.one_of(fracs, st.integers(-3, 3))),
    st.tuples(st.just("div"), divisors),
)


def oracle_dict(s):
    """The term dict of s at scale ORACLE_DEN with Fraction coefficients,
    merged from its terms one by one."""
    parts = [{pack_key(int(t.qexp * ORACLE_DEN), t.t1pow, t.t2pow): F(t.coeff)} for t in s.terms]
    return terms_merge(parts, den=ORACLE_DEN)[0]


@given(small_qsums, st.lists(ops, max_size=4))
@settings(max_examples=200, deadline=None)
def test_ring_operations_agree_with_a_fraction_oracle(x, steps):
    want = oracle_dict(x)
    for op, y in steps:
        if op == "+":
            x, want = x + y, terms_merge([want, oracle_dict(y)])[0]
        elif op == "-":
            x, want = x - y, terms_merge([want, {k: -c for k, c in oracle_dict(y).items()}])[0]
        elif op == "*":
            x, want = x * y, terms_mul(want, oracle_dict(y))
        elif op == "scalar":
            x, want = x * y, {k: c * y for k, c in want.items() if y}
        else:
            shift = pack_key(int(y.qexp * ORACLE_DEN), y.t1pow, y.t2pow)
            x, want = x.div_monomial(y), {k - shift: c / F(y.coeff) for k, c in want.items()}
        assert all(type(c) is Fraction for c in want.values())
        assert x.at_scale(ORACLE_DEN) == tuple(sorted(want.items()))
        assert_int_form(x)
        assert x.terms == tuple(QMonomial(F(e, ORACLE_DEN), a, b, c)
                                for (e, a, b), c in sorted((unpack_key(k), c) for k, c in want.items()))


# ---------------------------------------------------------------------------
# the Kronecker-packed kernel against the term-dict kernel
# ---------------------------------------------------------------------------


def encode(pk, d):
    """The entry dict of a term dict with int coefficients."""
    groups = {}
    for k, c in d.items():
        e, a, b = unpack_key(k)
        groups.setdefault(pack_key(0, a, b), {})[e] = c
    return {t: (min(g), sum(c << pk.w * (e - min(g)) for e, c in g.items())) for t, g in groups.items()}


def l1(*dicts):
    return sum(abs(c) for d in dicts for c in d.values())


def scaled(d, k):
    """d with its coefficients times 2^k + 1: k = 0, 29, 61 and 100 put the
    digits at 32, 64 and more than 64 bits."""
    return {key: c * ((1 << k) + 1) for key, c in d.items()}


def sorted_items(d):
    return tuple(sorted(d.items()))


# keys with negative t-fields; dense enough for collisions, and few enough
# values for cancellations, inside a product and across parts
packed_dicts = st.dictionaries(
    st.builds(pack_key, st.integers(-5, 5), st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(-2, 2).filter(bool),
    max_size=10,
)
scales = st.sampled_from([0, 29, 61, 100])


@given(packed_dicts, scales)
@settings(max_examples=200, deadline=None)
def test_packed_decode_inverts_encode(d, k):
    d = scaled(d, k)
    pk = Packed(l1(d), 1)
    assert pk.items(encode(pk, d)) == sorted_items(d)


@given(packed_dicts, packed_dicts, scales)
@settings(max_examples=300, deadline=None)
def test_packed_product_equals_terms_mul(r, d, k):
    d = scaled(d, k)
    pk = Packed(l1(r) * l1(d), 1)
    got = pk.mul(pk.row(r), encode(pk, d))
    assert pk.items(got) == sorted_items(terms_mul(r, d))
    assert all(V & pk.low for _, V in got.values())  # normal: a nonzero digit at e0


@given(st.lists(packed_dicts, max_size=3), scales, st.sampled_from([1, 2, 6]))
@settings(max_examples=300, deadline=None)
def test_packed_merge_equals_terms_merge(parts, k, den):
    # an empty part first, and last one that cancels every other term of
    # the part before it, but for the other parts
    cancel = {key: -c for key, c in list(parts[-1].items())[::2]} if parts else {}
    parts = [scaled(d, k) for d in [{}, *parts, cancel]]
    pk = Packed(l1(*parts), den)
    merged, events = pk.merge([encode(pk, d) for d in parts], "site")
    want, want_events = terms_merge(parts, "site", den)
    assert pk.items(merged) == sorted_items(want)
    assert events == want_events  # in order: EXACT_ZERO by key, then SIGN_CONFLICT
    assert pk.merge([encode(pk, d) for d in parts])[0] == merged


@given(packed_dicts, scales)
@settings(max_examples=200, deadline=None)
def test_packed_cut_and_leading_slice_equal_the_dict_filters(d, k):
    d = scaled(d, k)
    pk = Packed(l1(d), 1)
    if d:
        assert pk.items(pk.leading(encode(pk, d))) == leading_part(QSum.from_term_dict(d, 1)).items


@pytest.mark.parametrize("w", [32, 64, 96, 128])
def test_packed_digits_at_the_edge_of_the_width(w):
    # the width leaves two bits over the bound; the decode, the mask and
    # the leading slice are exact up to |c| = 2^(w-1) - 1
    assert Packed((1 << (w - 2)) - 1, 1).w == w and Packed(1 << (w - 2), 1).w == w + 32
    pk = Packed((1 << (w - 2)) - 1, 1)
    edge = (1 << (w - 1)) - 1
    d = {pack_key(e, a, -2): c for e, a, c in
         [(-3, 1, edge), (-2, 1, -edge), (0, 1, 1), (4, 1, -edge), (0, -2, -edge), (1, -2, edge), (2, -2, -1)]}
    enc = encode(pk, d)
    assert pk.items(enc) == sorted_items(d)
    assert pk.items(pk.leading(enc)) == ((pack_key(-3, 1, -2), edge),)
    assert [pk.digit(V) for _, V in enc.values()] == [edge, -edge]


def test_a_cancellation_inside_one_product_is_no_event():
    # (t1 + (q + q^2) t2)(q t2 - t1) has the t1 t2 terms q - q - q^2: the
    # slot q^1 cancels inside the product.  The other part shares the t-key
    # t1 t2, so the merge compares that t-key's slots, and q^1 is zero in
    # every part: no event
    r = {pack_key(0, 1, 0): 1, pack_key(1, 0, 1): 1, pack_key(2, 0, 1): 1}
    d = {pack_key(1, 0, 1): 1, pack_key(0, 1, 0): -1}
    pk = Packed(l1(r) * l1(d), 1)
    prod = pk.mul(pk.row(r), encode(pk, d))
    assert pk.items(prod) == sorted_items(terms_mul(r, d))
    assert prod[pack_key(0, 1, 1)] == (2, -1)  # normal again, from e0 = 1
    other = {pack_key(3, 1, 1): 1}
    events = pk.merge([prod, encode(pk, other)], "site")[1]
    assert events == terms_merge([terms_mul(r, d), other], "site")[1] == []
    # across parts, a slot cancelling is an event
    other = {pack_key(2, 1, 1): 1}
    events = pk.merge([prod, encode(pk, other)], "site")[1]
    assert events == terms_merge([terms_mul(r, d), other], "site")[1]
    assert events == [CancellationEvent("site", F(2), EXACT_ZERO)]


@pytest.mark.parametrize("k", [0, 29, 61, 100])
def test_packed_merge_events_of_three_parts_that_share_keys(k):
    # t1: the slots q^0 .. q^3 cancel, q^1 across all three parts, so the
    # t-key is gone; t2: q^0 cancels and q^1 is left; t2^2 is in one part.
    # The leading slice q^1 then holds t2 (+5) and t2^2 (-2)
    parts = [scaled({pack_key(e, a, b): c for e, a, b, c in d}, k) for d in [
        [(0, 1, 0, 1), (1, 1, 0, 2), (2, 1, 0, -1), (0, 0, 1, 3)],
        [(0, 1, 0, -1), (1, 1, 0, -1), (3, 1, 0, 1), (0, 0, 1, -3)],
        [(1, 1, 0, -1), (2, 1, 0, 1), (3, 1, 0, -1), (1, 0, 1, 5), (1, 0, 2, -2)],
    ]]
    pk = Packed(l1(*parts), 2)
    merged, events = pk.merge([encode(pk, d) for d in parts], "site")
    want, want_events = terms_merge(parts, "site", 2)
    assert pk.items(merged) == sorted_items(want) == sorted_items(scaled({pack_key(1, 0, 1): 5, pack_key(1, 0, 2): -2}, k))
    assert events == want_events == [
        *(CancellationEvent("site", x, EXACT_ZERO) for x in (F(0), F(0), F(1, 2), F(1), F(3, 2))),
        CancellationEvent("site", F(1, 2), SIGN_CONFLICT),
    ]


# ---------------------------------------------------------------------------
# sums that keep their packed entry until their items are read
# ---------------------------------------------------------------------------


class CountingPacked(Packed):
    """A Packed that counts its decodes."""

    decodes = 0

    def items(self, d):
        self.decodes += 1
        return super().items(d)


# unit t-powers keep every shift in the packed range; -T_LIMIT moves a
# t-power of 0 or 1 out of it
shift_monomials = st.builds(
    QMonomial,
    qexp=fracs,
    t1pow=st.sampled_from([-1, 0, 1, -T_LIMIT]),
    t2pow=st.sampled_from([-1, 0, 1, -T_LIMIT]),
    coeff=st.sampled_from([F(1), F(1), F(-1), F(2, 3)]),
)


@given(packed_dicts, scales, st.sampled_from([1, 2, 6]), shift_monomials)
@settings(max_examples=300, deadline=None)
def test_an_undecoded_sum_agrees_with_its_decoded_twin(d, k, den, m):
    d = scaled(d, k)
    pk = CountingPacked(l1(d), den)
    twin = QSum.from_term_dict(d, den)

    def fresh():
        return QSum.from_entry(pk, encode(pk, d))

    # the zero test and the leading exponent and slice answer from the entry
    assert fresh().is_zero() == twin.is_zero() and bool(fresh()) == bool(twin)
    _agree(lambda s: s.leading_exponent, fresh(), twin)
    _agree(lambda s: leading_part(s).items, fresh(), twin)
    _agree(ultradiscretize, fresh(), twin)
    assert pk.decodes == 0
    # so does a unit shift on the scale, guarded against leaving the packed
    # t-range; any other monomial decodes
    on_entry = m.coeff == 1 and den % m.qexp.denominator == 0
    try:
        want = twin.div_monomial(m)
    except AssertionError:
        with pytest.raises(AssertionError, match="outside the packed range"):
            fresh().div_monomial(m)
        assert pk.decodes == (0 if on_entry else 1)
    else:
        got = fresh().div_monomial(m)
        _agree(lambda s: s.leading_exponent, got, want)
        _agree(lambda s: leading_part(s).items, got, want)
        _agree(ultradiscretize, got, want)
        assert pk.decodes == (0 if on_entry else 1)
        assert got == want and got.terms == want.terms
    # everything else reads the items, decoded once per sum
    pk.decodes = 0
    x = fresh()
    assert len(x) == len(twin) and x == twin and hash(x) == hash(twin) and x.terms == twin.terms
    assert x.items == twin.items and pk.decodes == 1
