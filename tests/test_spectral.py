import dataclasses
import functools
import hashlib
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qheun.roots as roots_mod
import qheun.spectral as spectral_mod
import qheun.ultra as ultra_mod
from qheun.dyadic import Box, Dyadic
from qheun.errors import ParameterError, SignIndefiniteError, ZeroQSumError
from qheun.qmono import (EVAL_GUARD_BITS, EXACT_ZERO, AtQ, Packed, QSum, eval_terms, leading_part, pack_key,
                         qpow, terms_merge, terms_mul, to_mpf, ultradiscretize)
from qheun.sampling import sample_params
from qheun.spectral import (
    SeriesSolution,
    _pivot_run,
    _power_residuals,
    _scale_den,
    _scaled,
    _exact_rows,
    _three_term_rows,
    coefficients_exact,
    coefficients_numeric,
    derive,
    fixed_q,
    recursion_rows,
    residual_check,
    spectral_polynomial,
)
from qheun.roots import find_spectral_roots
from qheun.ultra import _s_polynomial, balanced_exponent
from test_roots import NAMED_SETS, _fraction, _point_rows, from_numerator, named_set

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


def test_equal_parameter_sets_hash_equal(p1, p4):
    # the hash, computed once per instance, is the hash of the fields, so
    # a set re-derived with one field moved and back is equal, hashes equal and hits
    # the memoised fixed-q table of the original
    q, prec = F(1, 1000), 512 + EVAL_GUARD_BITS
    for p in (p1, p4, sample_params("R32", random.Random(12), N=12)):
        moved = derive(**{**p.raw(), "t1": 2 * p.t1})
        back = derive(**{**moved.raw(), "t1": p.t1})
        assert back == p and back is not p and moved != p
        assert hash(back) == hash(p) == hash(tuple(getattr(p, f.name) for f in fields(p)))
        assert hash(moved) == hash(tuple(getattr(moved, f.name) for f in fields(moved)))
        assert fixed_q(back, q, prec) is fixed_q(p, q, prec)


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


def test_a_moved_field_rederives(p1):
    q = derive(**{**p1.raw(), "t1": F(2)})
    assert q.t1 == 2 and q.N == p1.N


# ---------------------------------------------------------------------------
# recursion rows
# ---------------------------------------------------------------------------


def test_row_b_is_single_power(p2):
    _, B, _, _ = _exact_rows(p2)[0]
    assert B == qpow(-1)  # q^{n-1+lambda1} at n=1


def test_row_c_matches_hand_expansion(p1):
    # four summands written out by hand for P1, n=1
    _, _, C, _ = _exact_rows(p1)[0]
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
    _, _, _, D = _exact_rows(p1)[0]
    mu, sign = ultradiscretize(D)
    assert (mu, sign) == (1 + (-3) + (-3 + H), 1)


# ---------------------------------------------------------------------------
# exact coefficients
# ---------------------------------------------------------------------------


def test_c0_is_one(p1, p2, p3, p4):
    for p in (p1, p2, p3, p4):
        polys, _ = coefficients_exact(p)
        assert polys[0].coeffs == (QSum.one(),)


def test_c1_leading_of_e_coefficient(p2):
    polys, _ = coefficients_exact(p2)
    lead = leading_part(polys[1].coeffs[1]).div_monomial(polys[1].denom_monomial)
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


def dict_three_term(p, rows, entry):
    """The oracle of three_term: its loop on term dicts, products by
    terms_mul, as it ran before the packed kernel.  ``entry(parts, n, site,
    D)`` gets the products as term dicts."""
    D = _scale_den(p)
    levels = [[{pack_key(0, 0, 0): 1}]]
    for n, row in enumerate(rows, 1):
        B, C, R = (_scaled(x, D) for x in row)
        prev = levels[n - 1]
        new = []
        for j in range(n + 1):
            parts = [terms_mul(B, prev[j - 1])] if j else []
            if j < n:
                parts.append(terms_mul(C, prev[j]))
            if R and j <= n - 2:
                parts.append(terms_mul(R, levels[n - 2][j]))
            new.append(entry(parts, n, f"c{n}[E^{j}]", D))
        levels.append(new)
    return [[QSum.from_term_dict(d, D) for d in level] for level in levels]


def dict_coefficients_exact(p):
    """coefficients_exact's levels and events from dict_three_term."""
    events = []

    def entry(parts, n, site, D):
        merged, found = terms_merge(parts, site, D)
        events.extend(found)
        return merged

    return dict_three_term(p, _three_term_rows(p), entry), events


def build_state(polys, events):
    """Every level's (den, items) and the events, the exact build's whole
    output in the integer form."""
    return [[(c.den, c.items) for c in ep.coeffs] for ep in polys], [(e.site, e.qexp, e.kind) for e in events]


def test_three_term_equals_the_dict_recursion(p1, p2, p3, p4):
    rng = random.Random(20)
    sampled = [sample_params(r, rng, N=n) for r in ("R31", "R32", "R33") for n in (2, 4, 6, 8)]
    for p in [p1, p2, p3, p4, *sampled]:
        levels, events = dict_coefficients_exact(p)
        polys, got_events = coefficients_exact(p)
        assert [[(c.den, c.items) for c in ep.coeffs] for ep in polys] == [
            [(c.den, c.items) for c in level] for level in levels], p
        assert got_events == events, p


# sha256 over repr of build_state of coefficients_exact on the seed-12
# N = 12 sets, whose digits are 64 bits wide, recorded with the term-dict
# recursion (dict_three_term)
_N12_DIGESTS = {
    "R31": "00e60e57a468b9e4e15db96deb896ff3cd62a5a91a7a4237a938f68134b60f46",
    "R32": "a0c9ef523bef1fd46eaa92159fe0c20fd32100ffd5d306f8b8ed8b559786288b",
    "R33": "b8e1fac7129b5a5618b59aeb1cd4cfeebe7bc84c99d87c94249d5362ff25dde6",
}


def test_exact_build_pinned_at_n12(monkeypatch):
    widths = []

    class Spy(Packed):
        def __init__(self, bound, den):
            super().__init__(bound, den)
            widths.append(self.w)

    monkeypatch.setattr(spectral_mod, "Packed", Spy)
    for regime, want in _N12_DIGESTS.items():
        polys, events = coefficients_exact(sample_params(regime, random.Random(12), N=12))
        assert hashlib.sha256(repr(build_state(polys, events)).encode()).hexdigest() == want, regime
    assert widths == [64, 64, 64]


def test_exact_build_is_the_same_at_any_digit_width(p1, p2, p3, p4, n8_sets, monkeypatch):
    # the width only has to exceed the bound: at 100 more bits (w = 128 or
    # more, the decode without a memoryview format) every output is the same
    class Wide(Packed):
        def __init__(self, bound, den):
            super().__init__(bound << 100, den)
            assert self.w > 64 and not self.fmt

    for p in [p1, p2, p3, p4, n8_sets["R32"]]:
        want = build_state(*coefficients_exact(p))
        monkeypatch.setattr(spectral_mod, "Packed", Wide)
        assert build_state(*coefficients_exact(p)) == want, p
        monkeypatch.undo()


def test_levels_decode_only_when_their_items_are_read(p1, p2, p3, p4, n8_sets, monkeypatch):
    # the exact build returns its levels undecoded; the reduction, the
    # leading slices and the ultradiscrete images read the packed entries
    decoded, items = [], Packed.items
    monkeypatch.setattr(Packed, "items", lambda pk, d: decoded.append(d) or items(pk, d))
    for p in [p1, p2, p3, p4, *n8_sets.values()]:
        polys, _ = coefficients_exact(p)
        assert decoded == [], p
        for ep in polys:
            for j in range(len(ep.coeffs)):
                try:
                    leading_part(ep.coeffs[j]).div_monomial(ep.denom_monomial)
                    ultradiscretize(ep.reduced_coefficient(j))
                except (SignIndefiniteError, ZeroQSumError):
                    pass
        assert decoded == [], p
    # the s-polynomial reads the terms of its last level only, once each
    runs = []

    def run(p, rows, entry):
        levels = spectral_mod.three_term(p, rows, entry)
        runs.append([c._entry[1] for c in levels[-1]])
        return levels

    monkeypatch.setattr(ultra_mod, "three_term", run)
    _s_polynomial(p4, balanced_exponent(p4))
    assert len(runs) == 1 and len(decoded) == len(runs[0]) == p4.N + 2
    assert all(a is b for a, b in zip(decoded, runs[0]))


# ---------------------------------------------------------------------------
# exact/numeric consistency
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def recursion_rows_at(p, q, prec):
    """The rows of recursion_rows at q in mpf at working precision ``prec``,
    with q, t1, t2 and every q-power exp(mu log q) from AtQ: the oracle of
    the Box-built row table, independent of Box.qpow.  Memoised."""
    with mpmath.workprec(prec):
        at = AtQ(q, p.t1, p.t2)
        return recursion_rows(p, at.q, at.t1, at.t2, from_numerator(p, at.qpow))


def _point(m, e, P):
    """The int pair (m, e) of a fixed_q table at P bits as a Dyadic point.
    Dyadic cuts m to P bits, so the table's own ints are checked first: a
    table wider than P bits fails here rather than passing cut."""
    assert m.bit_length() <= P, (m.bit_length(), P)
    return Dyadic(m, e, P)


def _dyadic(flat, P):
    """Flat (m, e, m, e, ...) ints, the rows fixed_q's kernels read, as
    Dyadic points at P bits."""
    return tuple(_point(m, e, P) for m, e in zip(flat[::2], flat[1::2]))


def _table_rows(p, q, P):
    """fixed_q's ``points`` as Dyadic rows (A, B, C, D); each G_n is
    checked by _point and dropped."""
    return [(A, B, C, D) for B, C, _, A, D in (_dyadic(r, P) for r in fixed_q(p, q, P).points)]


def _residual_table(p, q, bits):
    """fixed_q's ``residual`` as Dyadic: per n the three tuples of factors,
    stored as _flat's (m, e) pairs."""
    P, out = bits + EVAL_GUARD_BITS, []
    for f in fixed_q(p, q, P).residual:
        d = _dyadic(f, P)
        out.append((d[:3], d[3:5], d[5:]))
    return out


def _factor_rows(p, qp, t1v, t2v, qv, qinv):
    """Per n = 0 .. N, the three tuples of FixedQ.residual's factors in the
    arithmetic of the q-power map qp and of t1v, t2v, with q^(+-(lambda1+n))
    by steps of qv and qinv."""
    a1, a2 = qp(p.h1 + H) * t1v, qp(p.h2 + H) * t2v
    b1, b2 = qp(p.l1 - H) * t1v, qp(p.l2 - H) * t2v
    P = qp(p.alpha1 + p.alpha2)
    Q = qp(p.alpha1) + qp(p.alpha2)
    K = qp((p.h1 + p.h2 + p.l1 + p.l2 + p.alpha1 + p.alpha2) / 2) * (
        qp(p.beta / 2) + qp(-p.beta / 2)
    ) * t1v * t2v
    up, dn = qp(p.lambda1), qp(-p.lambda1)
    table = []
    for _ in range(p.N + 1):
        table.append((
            (a1 * a2 * dn, P * b1 * b2 * up, -K),
            (-(a1 + a2) * dn, -P * (b1 + b2) * up),
            (dn, P * up, -Q),
        ))
        up, dn = up * qv, dn * qinv
    return table


def _residual_factors(p, q, bits):
    """The residual's factors as Dyadic, the lower ends of boxes formed
    from fixed_q's q-power memo: the reference of its ``residual``."""
    fq = fixed_q(p, q, bits + EVAL_GUARD_BITS)
    qp = functools.partial(roots_mod._q_power, fq)
    return [tuple(tuple(Dyadic(b.lo, b.e, b.P) for b in f) for f in n)
            for n in _factor_rows(p, qp, fq.t1, fq.t2, qp(1), qp(-1))]


def _mpf_residual_factors(p, q, bits):
    """The factors of FixedQ.residual in mpf at bits + EVAL_GUARD_BITS,
    every q-power from AtQ and q^(+-(lambda1+n)) by steps of q and 1/q: its
    oracle, independent of Box.qpow."""
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        at = AtQ(q, p.t1, p.t2)
        return _factor_rows(p, at.qpow, at.t1, at.t2, at.q, 1 / at.q)


@pytest.mark.parametrize("prec", [512 + EVAL_GUARD_BITS, 1024 + EVAL_GUARD_BITS])
@pytest.mark.parametrize("q", [F(1, 1000), F(1, 10 ** 6)], ids=["q1e-3", "q1e-6"])
@pytest.mark.parametrize("name", NAMED_SETS)
def test_point_rows_and_residual_constants_match_the_mpf_oracles(name, q, prec):
    # every point row, off-diagonal product and residual factor holds at
    # most prec bits (_point checks the table's ints before any Dyadic is
    # built), and each row and factor, the lower end of a box built from
    # Box.qpow, lies within 2^-(prec-8) of itself of its
    # exp/log-built oracle.  exp(mu log q) carries the rounding of log q
    # times |mu log q|, up to 2^11 units here, so the oracles run with
    # EVAL_GUARD_BITS more bits; the boxes' steps by q and 1/q in the
    # residual factors drift by up to 2^7 units at N = 48
    p = named_set(name)
    bits = prec - EVAL_GUARD_BITS
    pairs = [(got, want) for got_row, want_row in zip(
        _table_rows(p, q, prec), recursion_rows_at(p, q, prec + EVAL_GUARD_BITS))
        for got, want in zip(got_row, want_row)]
    for got_n, want_n in zip(_residual_table(p, q, bits), _mpf_residual_factors(p, q, prec)):
        for got_f, want_f in zip(got_n, want_n):
            pairs += zip(got_f, want_f)
    assert len(pairs) == 4 * (p.N + 1) + 8 * (p.N + 1)
    with mpmath.workprec(2 * prec):
        for got, want in pairs:
            assert abs(got.to_mpf() - want) <= mpmath.ldexp(abs(want), 8 - prec), (got, want)


def test_p4_roots_series_and_residual_take_no_exp_or_log(p4, monkeypatch):
    # the fixed-q tables come from Box.qpow's integer roots: finding the
    # roots without predictions and checking each by its series and
    # residual builds no AtQ and calls neither exp nor log, at a q no other
    # test uses, so that no table is memoised already
    def refused(*args, **kwargs):
        raise AssertionError("an exp/log evaluation at fixed q")

    gate = mpmath.mpf(10) ** -30
    monkeypatch.setattr(AtQ, "__init__", refused)
    monkeypatch.setattr(mpmath, "exp", refused)
    monkeypatch.setattr(mpmath, "log", refused)
    q = F(1, 7919)
    roots, _ = find_spectral_roots(p4, q, 512)
    assert len(roots) == p4.N + 1
    for E0 in roots:
        assert residual_check(p4, coefficients_numeric(p4, E0, q, 512)) <= gate


def test_the_search_takes_no_mpf_sqrt_ldexp_or_mag(monkeypatch):
    # the Gershgorin bound, the zero search and the splits run on Dyadic
    # points: the unseeded search calls none of these, and finds the roots
    # it finds with them in place
    names = ["P1", "P2", "P3", "P4", "R31-12", "R32-12", "R33-12"]
    qs = (F(1, 1000), F(1, 10 ** 6))
    want = [find_spectral_roots(named_set(n), q, 512)[0] for n in names for q in qs]

    def refused(*args, **kwargs):
        raise AssertionError("mpf arithmetic in the root search")

    for name in ("sqrt", "ldexp", "mag"):
        monkeypatch.setattr(mpmath, name, refused)
    got = [find_spectral_roots(named_set(n), q, 512)[0] for n in names for q in qs]
    assert [[r._mpf_ for r in rs] for rs in got] == [[r._mpf_ for r in rs] for rs in want]


@pytest.mark.parametrize("name", ["P4", "R32-12"])
def test_a_warm_solve_builds_nothing(name, monkeypatch):
    # a second seeded search, series and per-power residual on the same
    # (p, q, bits) read the memoised fixed-q table: no Box.qpow call, the
    # seeds' q^d and prefactors among them (a balanced pair on P4, t1 = 2,
    # t2 = 3 on R32), no row built and no table added, and the same results
    p, q = named_set(name), F(1, 7901)
    preds = ultra_mod.predict_roots(p, ultra_mod.classify(p))

    def solve():
        roots, _ = find_spectral_roots(p, q, 512, predictions=preds)
        out = [[r._mpf_ for r in roots]]
        for E0 in roots:
            sol = coefficients_numeric(p, E0, q, 512)
            out += [[c._mpf_ for c in sol.coeffs], [r._mpf_ for r in _power_residuals(p, sol)]]
        return out

    want = solve()
    built, qpow, rows = [], Box.qpow, spectral_mod.recursion_rows
    monkeypatch.setattr(Box, "qpow", staticmethod(lambda *a: built.append(a) or qpow(*a)))
    monkeypatch.setattr(spectral_mod, "recursion_rows", lambda *a: built.append(a) or rows(*a))
    tables = fixed_q.cache_info().misses
    assert solve() == want
    assert built == [] and fixed_q.cache_info().misses == tables


def test_the_rows_and_the_residual_factors_share_one_q_power_memo(p4, monkeypatch):
    # reading every part of one table calls Box.qpow once per distinct
    # power, q's keyed by their int numerators: the residual
    # factors take their q-powers from the memo the rows filled, q itself
    # among them, and build only the q-powers they add
    calls, qpow = [], Box.qpow
    monkeypatch.setattr(Box, "qpow", staticmethod(lambda x, mu, P: calls.append((x, mu)) or qpow(x, mu, P)))
    for p in (p4, named_set("R32-12")):
        calls.clear()
        q = F(1, 1000)
        fq = spectral_mod.FixedQ(p, q, 512 + EVAL_GUARD_BITS)
        fq.boxes
        n, size = len(calls), len(fq._pows)
        exponent = from_numerator(p, F)  # q's powers are keyed by their int numerators
        assert 1 in {exponent(a) for a in fq._pows if type(a) is int}
        fq.residual
        assert all(x == q for x, _ in calls[n:]) and len(calls) - n == len(fq._pows) - size
        for part in ("favard_boxes", "points"):
            getattr(fq, part)
        assert len(calls) == len(set(calls)) == len(fq._pows)


# ---------------------------------------------------------------------------
# the rows and the residual's factors on int exponents: the literal
# Fraction-exponent formulas they replaced, and a digest of the tables
# ---------------------------------------------------------------------------


def fraction_rows(p, qv, t1v, t2v, qp):
    """recursion_rows as it was written on Fraction exponents, with the
    q-power map ``qp``: mu -> q^mu and every factor formed on every row:
    the reference that the int-exponent rows equal."""
    lam = p.lambda1
    rows = []
    for n in range(1, p.N + 2):
        Av = t1v * t2v * qp(p.h1 + p.h2) * (1 - qp(n)) * (1 - qp(n - p.beta))
        Bv = qp(n - 1 + lam)
        ce = 2 * (n + lam) + p.alpha1 + p.alpha2 - F(5, 2)
        Cv = qp(H) * (qp(p.h1) * t1v + qp(p.h2) * t2v) + (
            qp(p.l1) * t1v + qp(p.l2) * t2v
        ) * qp(ce)
        Dv = qv * (1 - qp(n - 2 + lam + p.alpha1)) * (1 - qp(n - 2 + lam + p.alpha2))
        rows.append((Av, Bv, Cv, Dv))
    return tuple(rows)


ROW_SETS = ["P1", "P2", "P3", "P4"] + [f"{r}-{N}" for N in (4, 12, 24) for r in ("R31", "R32", "R33")]
ROW_QS = (F(1, 1000), F(1, 10 ** 6), F(99, 100))


def _box_parts(x):
    return (x.lo, x.hi, x.e, x.P)


@pytest.mark.parametrize("name", ROW_SETS)
def test_int_exponent_rows_equal_the_fraction_formula(name):
    # on QSums, item for item at the same scale, and on boxes, end for end,
    # with each Fraction-exponent q-power a Box.qpow of its own; and the
    # residual's factors, formed once per table, equal _factor_rows' on
    # those boxes, which forms them on every row
    p = named_set(name)
    want = fraction_rows(p, qpow(1), QSum.term(1, t1pow=1), QSum.term(1, t2pow=1), functools.cache(qpow))
    got = _exact_rows(p)
    assert [[(x.den, x.items) for x in row] for row in got] == [[(x.den, x.items) for x in row] for row in want]
    P = 512 + EVAL_GUARD_BITS
    for q in ROW_QS:
        fq = spectral_mod.FixedQ(p, q, P)
        qp = functools.cache(lambda mu: Box.qpow(q, mu, P))
        t1, t2 = Box.qpow(p.t1, 1, P), Box.qpow(p.t2, 1, P)
        want = fraction_rows(p, qp(1), t1, t2, qp)
        assert [list(map(_box_parts, row)) for row in fq.boxes] == [list(map(_box_parts, row)) for row in want]
        factors = [spectral_mod._flat(Dyadic(b.lo, b.e, P) for f in n for b in f)
                   for n in _factor_rows(p, qp, t1, t2, qp(1), qp(-1))]
        assert list(fq.residual) == factors


def _table_digest(names, qs):
    """sha256 over repr of _three_term_rows' items (scale and items of each
    QSum) and of the points, favard_boxes and residual of a fresh FixedQ
    at each q and 512 + EVAL_GUARD_BITS bits, per named set."""
    h = hashlib.sha256()
    for name in names:
        p = named_set(name)
        h.update(repr([(x.den, x.items) for row in _three_term_rows(p) for x in row]).encode())
        for q in qs:
            fq = spectral_mod.FixedQ(p, q, 512 + EVAL_GUARD_BITS)
            h.update(repr((fq.points, fq.favard_boxes, fq.residual)).encode())
    return h.hexdigest()


def test_fixed_q_tables_and_exact_rows_pinned():
    # recorded while the rows and the residual's factors took Fraction
    # exponents, q's memo was keyed by them and every factor was formed
    # on every row
    assert _table_digest(ROW_SETS, ROW_QS) == "c5bf492e4cdcbb787af46d23bf8d4d1f1d9a775dd828ff55a8c33724e02ae245"


def test_a_seed_power_off_the_scale_takes_a_key_of_its_own(p4):
    # q^d with d D an int reads the rows' int key; with d D not an int it
    # is memoised under (q, d), beside the int keys, and both are the
    # Box.qpow box of q^d
    P = 512 + EVAL_GUARD_BITS
    q = F(1, 1000)
    fq = spectral_mod.FixedQ(p4, q, P)
    on, off = F(3, 2), F(1, 7 * fq.D)
    for d, key in ((on, 3 * fq.D // 2), (off, (q, off))):
        box = roots_mod._q_power(fq, d)
        assert fq._pows[key] is box and _box_parts(box) == _box_parts(Box.qpow(q, d, P))


def series_coefficient_values(p, E0, q, bits=512):
    """c_0(E0) .. c_{N+1}(E0) by the forward recursion on recursion_rows_at's
    rows in fixed precision: the reference of the rows and of the twisted
    solve.  A_n > 0 throughout (q in (0,1), n >= 1, beta < 1), so the
    division is always defined."""
    rows = recursion_rows_at(p, q, bits + EVAL_GUARD_BITS)
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        E0v = to_mpf(E0)
        cs = [mpmath.mpf(1)]
        cm2, cm1 = mpmath.mpf(0), mpmath.mpf(1)
        for Av, Bv, Cv, Dv in rows:
            assert Av != 0, "A row vanished; outside the validated domain"
            cn = ((Bv * E0v + Cv) * cm1 - Dv * cm2) / Av
            cs.append(cn)
            cm2, cm1 = cm1, cn
    with mpmath.workprec(bits):
        return [+c for c in cs]


@pytest.mark.parametrize("bits", [192, 512])
def test_exact_matches_numeric_recursion(p1, p2, p3, bits):
    rng = random.Random(3)
    extra = sample_params("R31", rng, N=3)
    for p in (p1, p2, p3, extra):
        q = F(1, 100)
        E0 = F(7, 5)
        polys, _ = coefficients_exact(p)
        numeric = series_coefficient_values(p, E0, q, bits=bits)
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
    # src's rows, as boxes and as the points the numerics read (the boxes'
    # lower ends), and the tests' mpf oracle rows, against the exact rows
    # evaluated at twice the precision; and c_0 .. c_{N+1} run on the
    # oracle rows against the exact polynomials' image, over N <= 8, q in
    # [1e-12, 1e-1].  A q-power exp(mu log q) carries the rounding of log q
    # times |mu log q| (below 2^11 here), so the oracle rows hold
    # bits + EVAL_GUARD_BITS - 11 bits; a box encloses its exact row and is
    # narrower than 2^-bits of it
    p = sample_params(regime, random.Random(seed), N=N)
    q = F(m, 10 ** k)
    E0 = F(e0, 7) * 10 ** e0_exp
    rows = recursion_rows_at(p, q, bits + EVAL_GUARD_BITS)
    boxes = fixed_q(p, q, bits + EVAL_GUARD_BITS).boxes
    points = _table_rows(p, q, bits + EVAL_GUARD_BITS)
    polys, _ = coefficients_exact(p)
    numeric = series_coefficient_values(p, E0, q, bits=bits)
    with mpmath.workprec(2 * bits):
        at = AtQ(q, p.t1, p.t2)
        for n in range(1, p.N + 2):
            exact = _exact_rows(p)[n - 1]
            for v, point, box, row in zip(rows[n - 1], points[n - 1], boxes[n - 1], exact):
                ref = eval_terms(row, at)
                assert abs(v - ref) <= mpmath.mpf(2) ** -bits * abs(ref)
                assert abs(point.to_mpf() - ref) <= mpmath.mpf(2) ** -bits * abs(ref)
                slack = mpmath.mpf(2) ** -(2 * bits - 32) * abs(ref)
                lo, hi = (mpmath.ldexp(m, box.e) for m in (box.lo, box.hi))
                assert lo - slack <= ref <= hi + slack
                assert hi - lo <= mpmath.mpf(2) ** -bits * abs(ref)
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


def _uncached_series(p, E0, q, bits):
    """c_0 .. c_{N+1} by the numeric recursion with one exp call per q-power use."""
    lam = p.lambda1
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        qv, t1v, t2v, E0v = to_mpf(q), to_mpf(p.t1), to_mpf(p.t2), to_mpf(E0)
        lq = mpmath.log(qv)

        def qp(e):
            return mpmath.exp(to_mpf(e) * lq)

        cs = [mpmath.mpf(1)]
        cm2, cm1 = mpmath.mpf(0), mpmath.mpf(1)
        for n in range(1, p.N + 2):
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


@pytest.mark.parametrize("bits", [512, 1024])
def test_series_and_residual_equal_the_uncached_reference(p1, p2, p3, p4, bits):
    # at the roots, where the residual certifies them, and off them; in the
    # last set t1, t2 are not powers of two and neither alpha is 0, so the
    # order of more products shows in the rounding
    r32_n6 = derive(-2, -1, F(67, 6), F(33, 2), 0, F(-41, 3), -3, 2, 1)
    odd = sample_params("R32", random.Random(3), N=4)
    odd = derive(**{**odd.raw(), "t1": F(5, 3), "t2": F(3, 7)})
    q = F(1, 1000)
    for p in (p1, p2, p3, p4, r32_n6, odd):
        roots, _ = find_spectral_roots(p, q, bits)
        for E0 in roots + [F(7, 5)]:
            got = series_coefficient_values(p, E0, q, bits=bits)
            assert [c._mpf_ for c in got] == _uncached_series(p, E0, q, bits)


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


def test_residual_gate_passes_roots_and_rejects_non_roots_at_n12():
    # the R32 N = 12 set at q = 1e-4: c_N spans hundreds of orders of
    # magnitude, yet every 512-bit root passes and every non-root fails
    gate = mpmath.mpf(10) ** -30
    p = sample_params("R32", random.Random(12), N=12)
    q = F(1, 10 ** 4)
    roots, _ = find_spectral_roots(p, q, 512)
    roots = sorted(roots)
    with mpmath.workprec(512):
        moved = [r * (1 + mpmath.mpf(2) ** -40) for r in roots]
        mids = [(a + b) / 2 for a, b in zip(roots, roots[1:])]
    far = F(-7 * 10 ** 20)
    res = [residual_check(p, coefficients_numeric(p, E, q, 512)) for E in roots + moved + mids + [far]]
    assert all(r <= gate for r in res[: len(roots)])
    assert all(r > gate for r in res[len(roots):])


def test_twist_row_is_chosen_relative_to_its_scale_at_n40():
    # the rows of the R33 N = 40 set span thousands of orders of magnitude;
    # the least absolute |gamma_k| picks rows whose twisted vectors grow
    # instead of decaying, and 11 of the 41 roots then have residual near 1
    p = sample_params("R33", random.Random(12), N=40)
    q = F(1, 10 ** 6)
    roots, _ = find_spectral_roots(p, q, 512)
    assert len(roots) == 41
    gate = mpmath.mpf(10) ** -30
    assert all(residual_check(p, coefficients_numeric(p, E, q, 512)) <= gate for E in roots)


@pytest.mark.parametrize("q", [F(1, 1000), F(1, 10 ** 6), F(99, 100)])
def test_indicial_and_termination_rows_cancel_at_any_e(q):
    # m = 0 is the indicial equation of lambda1 and m = N+2 the termination
    # N = -lambda1 - alpha1: both vanish for every E and every series, so
    # they check derive against the operator's own factors
    rng = random.Random(8)
    for regime in ("R31", "R32", "R33"):
        for N in (1, 4, 12):
            p = sample_params(regime, rng, N=N)
            for E0 in (F(0), F(7, 5), F(-10 ** 9), F(3, 10 ** 9)):
                per_m = _power_residuals(p, coefficients_numeric(p, E0, q, 512))
                assert len(per_m) == N + 3
                assert per_m[0] <= mpmath.mpf(2) ** -480
                assert per_m[-1] <= mpmath.mpf(2) ** -480


@pytest.mark.parametrize("q", [F(1, 1000), F(1, 10 ** 6)])
def test_twisted_vector_is_the_eigenvector_to_working_precision(p1, p2, p3, p4, q):
    # at a 512-bit root the twisted vector matches, component by component,
    # the forward recursion run at 2048 bits on the root found at 2048
    # bits; the forward recursion on the 512-bit root itself amplifies the
    # root's rounding, by up to 2^500 on these sets
    rng = random.Random(5)
    extra = [sample_params(r, rng, N=N) for r, N in (("R31", 6), ("R32", 5), ("R33", 6))]
    for p in (p1, p2, p3, p4, *extra):
        roots, _ = find_spectral_roots(p, q, 512)
        exact, _ = find_spectral_roots(p, q, 2048)
        for E0, E in zip(sorted(roots), sorted(exact)):
            got = coefficients_numeric(p, E0, q, 512).coeffs
            want = series_coefficient_values(p, E, q, bits=2048)
            assert got[0] == 1
            with mpmath.workprec(2048):
                assert all(abs(g - w) <= mpmath.mpf(2) ** -448 * abs(w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# the twisted solve and the residual on Dyadic objects: the bit-for-bit
# reference of spectral's kernels, written as they ran before on
# qheun.dyadic.Dyadic, one object per operation
# ---------------------------------------------------------------------------


def _object_pivots(a, off, P):
    """Pivots of the tridiagonal LDU factorisation run in the order of
    ``a``: d_0 = a_0, d_i = a_i - off_{i-1} / d_{i-1}.  A pivot that
    truncates to zero is replaced by 2^-P |a_i|."""
    out = []
    for i, ai in enumerate(a):
        d = ai - off[i - 1] / out[-1] if i else ai
        out.append(d if d.m else abs(ai).ldexp(-P) if ai.m else Dyadic(1, -P, P))
    return out


def _object_coefficients_numeric(p, E0, q, bits, pivots=_object_pivots):
    P = bits + EVAL_GUARD_BITS
    q = F(q)
    rows, G = _point_rows(fixed_q(p, q, P))
    off, N = G[1:], p.N
    with mpmath.workprec(P):
        E = Dyadic.of_mpf(to_mpf(E0), P)
    be = [B * E for _, B, _, _ in rows]
    a = [x + C for x, (_, _, C, _) in zip(be, rows)]
    fwd = pivots(a, off, P)
    bwd = pivots(a[::-1], off[::-1], P)[::-1]
    k = min(range(N + 1), key=lambda i: abs(fwd[i] + bwd[i] - a[i]) / (abs(be[i]) + rows[i][2]))
    z = [Dyadic(1, 0, P)] * (N + 1)
    for i in range(k - 1, -1, -1):
        z[i] = rows[i][0] * z[i + 1] / fwd[i]
    for i in range(k + 1, N + 1):
        z[i] = rows[i][3] * z[i - 1] / bwd[i]
    with mpmath.workprec(bits):
        e0 = +to_mpf(E0)
        vals = (mpmath.mpf(1),) + tuple(+(zi / z[0]).to_mpf() for zi in z[1:])
    return SeriesSolution(vals, e0, q, bits)


def _object_power_residuals(p, sol):
    prec = sol.bits + EVAL_GUARD_BITS
    with mpmath.workprec(prec):
        mE = Dyadic.of_mpf(-to_mpf(sol.E0), prec)
    terms = [[] for _ in range(p.N + 3)]
    for n, (c, (f0, f1, f2)) in enumerate(zip(sol.coeffs, _residual_factors(p, sol.q, sol.bits))):
        c = Dyadic.of_mpf(c, prec)
        for j, f in enumerate((f0, f1 + (mE,), f2)):
            terms[n + j] += [(c.m * u.m, c.e + u.e) for u in f]
    out = []
    for ts in terms:
        e = min(x for _, x in ts)
        s = sum(m << x - e for m, x in ts)
        a = sum(abs(m) << x - e for m, x in ts)
        out.append(Dyadic(abs(s), 0, prec) / Dyadic(a, 0, prec) if a else Dyadic(0, 0, prec))
    with mpmath.workprec(sol.bits):
        return [+r.to_mpf() for r in out]


_KERNEL_SETS = ["P1", "P2", "P3", "P4"] + [
    f"{r}-{N}" for r in ("R31", "R32", "R33") for N in (0, 1, 4, 6, 12, 24) if (r, N) != ("R33", 0)]


@pytest.mark.parametrize("q", [F(1, 1000), F(1, 10 ** 6), F(99, 100)], ids=["q1e-3", "q1e-6", "q99/100"])
def test_the_kernels_equal_the_object_solve_and_residual(q):
    # the inline kernels of coefficients_numeric and _power_residuals return
    # what the Dyadic-object solve and sums return, bit for bit: E0, every
    # coefficient and every per-power residual, at roots, roots moved by
    # 2^-40 of themselves, midpoints of neighbouring roots, a far point,
    # Fraction and int points, and mpf points wider than the working
    # precision, which both cut by a floor shift; on P1-P4 and the seed-12
    # sets of each regime.  A series solved at twice the bits and read at
    # bits brings coefficients wider than the residual's precision too
    for name in _KERNEL_SETS:
        p = named_set(name)
        for bits in (256, 512):
            roots, _ = find_spectral_roots(p, q, bits)
            with mpmath.workprec(bits):
                moved = [r * (1 + mpmath.mpf(2) ** -40) for r in roots]
                mids = [(a + b) / 2 for a, b in zip(roots, roots[1:])]
            with mpmath.workprec(2 * bits + 64):
                wide = [mpmath.mpf(-10) ** 9 / 7, mpmath.mpf(3) / 7]
            for E0 in roots + moved + mids + wide + [F(-7 * 10 ** 20), F(7, 5), F(3, 10 ** 9), 0, -3]:
                got = coefficients_numeric(p, E0, q, bits)
                want = _object_coefficients_numeric(p, E0, q, bits)
                assert got.E0._mpf_ == want.E0._mpf_, (name, bits, E0)
                assert [c._mpf_ for c in got.coeffs] == [c._mpf_ for c in want.coeffs], (name, bits, E0)
                assert ([r._mpf_ for r in _power_residuals(p, got)]
                        == [r._mpf_ for r in _object_power_residuals(p, want)]), (name, bits, E0)
            sol = dataclasses.replace(coefficients_numeric(p, wide[0], q, 2 * bits), bits=bits)
            assert ([r._mpf_ for r in _power_residuals(p, sol)]
                    == [r._mpf_ for r in _object_power_residuals(p, sol)]), (name, bits)


def test_twisted_solve_survives_a_zero_pivot(p1):
    # at the E0 next to -C_1 / B_1 where the first forward pivot
    # B_1 E0 + C_1 truncates to exactly 0 on the rows the solve reads, the
    # solve stays finite, and E0 is no root.  The zero is seen by the
    # Dyadic reference's pivots, which the kernel equals bit for bit there
    q, P = F(1, 1000), 512 + EVAL_GUARD_BITS
    _, B, C, _ = _point_rows(fixed_q(p1, q, P))[0][0]
    E = Dyadic(-C.m, C.e, P) / B
    E0 = next(x for x in (Dyadic(E.m + k, E.e, P) for k in range(-4, 5)) if not (B * x + C).m)
    seen = []

    def pivots(a, off, P):
        seen.append(a[0])
        return _object_pivots(a, off, P)

    want = _object_coefficients_numeric(p1, _fraction(E0), q, 512, pivots)
    assert seen and not seen[0].m  # the forward run's first pivot is that zero
    sol = coefficients_numeric(p1, _fraction(E0), q, 512)
    assert [c._mpf_ for c in sol.coeffs] == [c._mpf_ for c in want.coeffs]
    assert all(mpmath.isfinite(c) for c in sol.coeffs)
    assert residual_check(p1, sol) > mpmath.mpf(10) ** -30


def test_a_zero_pivot_is_replaced_by_2_to_the_minus_p_times_its_diagonal():
    # d_1 = a_1 - off_0 / d_0 is exactly 0 in each run: the kernel replaces
    # it by 2^-P |a_1|, or by 2^-P where a_1 = 0, as the Dyadic reference does
    P = 64
    for a, off, want in (
        ([(1, 0), (1, 0)], [(1, 0)], [(1, 0), (1, -P)]),
        ([(-3, 5), (-3, 5)], [(9, 10)], [(-3, 5), (3, 5 - P)]),
        ([(1, 0), (0, 0)], [(0, 0)], [(1, 0), (1, -P)]),
    ):
        assert _pivot_run(a, off, P) == want
        ref = _object_pivots([Dyadic(m, e, P) for m, e in a], [Dyadic(m, e, P) for m, e in off], P)
        assert [(d.m, d.e) for d in ref] == want


# ---------------------------------------------------------------------------
# the twisted solve and the residual in mpf: differential oracles of the
# kernels in spectral, written as they ran before on mpmath numbers
# ---------------------------------------------------------------------------


def _mpf_pivots(a, off):
    out = []
    for i, ai in enumerate(a):
        d = ai - off[i - 1] / out[-1] if i else ai
        out.append(d or mpmath.ldexp(abs(ai) or 1, -mpmath.mp.prec))
    return out


def _mpf_coefficients_numeric(p, E0, q, bits):
    rows = recursion_rows_at(p, q, bits + EVAL_GUARD_BITS)
    N = p.N
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        E0v = to_mpf(E0)
        be = [Bv * E0v for _, Bv, _, _ in rows]
        a = [x + Cv for x, (_, _, Cv, _) in zip(be, rows)]
        off = [rows[i][0] * rows[i + 1][3] for i in range(N)]
        fwd = _mpf_pivots(a, off)
        bwd = _mpf_pivots(a[::-1], off[::-1])[::-1]
        k = min(range(N + 1), key=lambda i: abs(fwd[i] + bwd[i] - a[i]) / (abs(be[i]) + rows[i][2]))
        z = [mpmath.mpf(0)] * (N + 1)
        z[k] = mpmath.mpf(1)
        for i in range(k - 1, -1, -1):
            z[i] = rows[i][0] * z[i + 1] / fwd[i]
        for i in range(k + 1, N + 1):
            z[i] = rows[i][3] * z[i - 1] / bwd[i]
        cs = [mpmath.mpf(1)] + [zi / z[0] for zi in z[1:]]
    with mpmath.workprec(bits):
        return [+c for c in cs]


def _mpf_power_residuals(p, coeffs, E0, q, bits):
    table = _mpf_residual_factors(p, q, bits)
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        mE = -to_mpf(E0)
        terms = [[] for _ in range(p.N + 3)]
        for n, (c, (f0, f1, f2)) in enumerate(zip(coeffs, table)):
            for j, f in enumerate((f0, f1 + (mE,), f2)):
                terms[n + j] += [c * u for u in f]
        out = []
        for ts in terms:
            scale = mpmath.fsum(ts, absolute=True)
            out.append(abs(mpmath.fsum(ts)) / scale if scale else mpmath.mpf(0))
    with mpmath.workprec(bits):
        return [+r for r in out]


_N12_SETS = [sample_params(r, random.Random(12), N=12) for r in ("R31", "R32", "R33")]


@pytest.mark.parametrize("q", [F(1, 1000), F(1, 10 ** 6)])
def test_series_and_residual_match_the_mpf_oracle_at_roots(p1, p2, p3, p4, q):
    # the same twisted solve and per-power sums on mpf: every coefficient
    # agrees to 2^-(bits-16) of itself, and both residuals certify each root
    bits = 512
    for p in (p1, p2, p3, p4, *_N12_SETS):
        for E0 in find_spectral_roots(p, q, bits)[0]:
            sol = coefficients_numeric(p, E0, q, bits)
            want = _mpf_coefficients_numeric(p, E0, q, bits)
            with mpmath.workprec(bits):
                assert all(abs(g - w) <= mpmath.ldexp(abs(w), 16 - bits) for g, w in zip(sol.coeffs, want))
            oracle = max(_mpf_power_residuals(p, want, E0, q, bits))
            assert residual_check(p, sol) < mpmath.mpf(10) ** -140
            assert oracle < mpmath.mpf(10) ** -140


def test_residual_matches_the_mpf_oracle_at_non_roots():
    # the non-roots of the n12 gate test: both residuals agree to 10
    # significant digits, and both fail the 1e-30 gate
    p, q, bits = _N12_SETS[1], F(1, 10 ** 4), 512
    roots = sorted(find_spectral_roots(p, q, bits)[0])
    with mpmath.workprec(bits):
        moved = [r * (1 + mpmath.mpf(2) ** -40) for r in roots]
        mids = [(a + b) / 2 for a, b in zip(roots, roots[1:])]
    for E0 in moved + mids + [F(-7 * 10 ** 20)]:
        got = residual_check(p, coefficients_numeric(p, E0, q, bits))
        want = max(_mpf_power_residuals(p, _mpf_coefficients_numeric(p, E0, q, bits), E0, q, bits))
        assert min(got, want) > mpmath.mpf(10) ** -30
        assert abs(got - want) <= mpmath.mpf(10) ** -10 * want


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
    with mpmath.workprec(128):
        at = AtQ(F(1, 50), p2.t1, p2.t2)
        mono = eval_terms(QSum((ep.denom_monomial,)), at)
        for j in range(ep.degree + 1):
            raw = eval_terms(ep.coeffs[j], at)
            red = eval_terms(ep.reduced_coefficient(j), at)
            assert abs(raw - red * mono) <= mpmath.mpf(2) ** -96 * (abs(raw) + 1)
