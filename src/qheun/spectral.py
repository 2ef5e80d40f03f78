"""q-Heun parameters, the exact three-term recursion and its oracles.

The q-Heun operator used throughout is

    (x - q^{h1+1/2} t1)(x - q^{h2+1/2} t2) g(x/q)
    + q^{a1+a2} (x - q^{l1-1/2} t1)(x - q^{l2-1/2} t2) g(qx)
    - [ (q^{a1}+q^{a2}) x^2 + E x
        + q^{(h1+h2+l1+l2+a1+a2)/2} (q^{b/2}+q^{-b/2}) t1 t2 ] g(x) = 0 ,

with accessory parameter E.  Writing g(x) = x^lambda1 * sum c_n(E) x^n with
lambda1 = (h1+h2-l1-l2-a1-a2-b+2)/2 turns the equation into a three-term
recursion

    A_n c_n = (B_n E + C_n) c_{n-1} - D_n c_{n-2},      c_0 = 1, c_{-1} = 0,

    A_n = t1 t2 q^{h1+h2} (1-q^n)(1-q^{n-b})
    B_n = q^{n-1+lambda1}
    C_n = q^{1/2}(q^{h1} t1 + q^{h2} t2)
          + (q^{l1} t1 + q^{l2} t2) q^{2(n+lambda1)+a1+a2-5/2}
    D_n = q (1-q^{n-2+lambda1+a1})(1-q^{n-2+lambda1+a2}) .

With N := -lambda1 - a1 a nonnegative integer, c_{N+1}(E) is the spectral
polynomial: at each of its roots the series terminates at degree N and the
truncated series solves the equation exactly.

The rows are written once, in recursion_rows, and evaluated on QSums
(_exact_rows) and on boxes around the rows of the exact q, in the one
fixed-q table (fixed_q, memoised), which also holds every other
row the numerics at q read: the certified counts' on the boxes, one flat
point table of their lower ends (points) that the root search and the
twisted solve share, and the residual's factors.  The exact
recursion and ultra's leading-term and s-polynomial runs share one loop,
three_term.  Numerically the series at a root comes from a twisted solve of
the recursion's tridiagonal system (coefficients_numeric), which keeps full
precision where the forward recursion amplifies the root's rounding, and
residual_check verifies it power by power of x against the operator's own
factors, formed on boxes as well.  Both are the certificate of a root, and
both are inline kernels on int locals (coefficients_numeric,
_power_residuals) that repeat the dyadic.Dyadic operations bit for bit on
fixed_q's flat rows; mpf enters as E0 and leaves as the coefficients and
residuals.

Division by A_n is not closed in the q-monomial ring, so exact coefficients
are carried as EPoly: a numerator polynomial over a structured denominator
(monomial times a product of (1-q^e) factors, every e > 0).  Each factor
tends to 1 as q -> +0, hence all leading-term analysis reads the numerator
and the monomial only.  The numerators keep the recursion's integer form
(qmono.pack_key); Fraction terms are built only when ``.terms`` is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import mpmath
from mpmath.libmp import normalize, round_nearest

from .dyadic import Box, Dyadic
from .errors import DomainError, ParameterError
from .qmono import (
    EVAL_GUARD_BITS,
    AtQ,
    CancellationEvent,
    Packed,
    QMonomial,
    QSum,
    TermDict,
    UNIT_MONOMIAL,
    as_fraction,
    eval_terms,
    pack_key,
    qpow,
    to_mpf,
)

__all__ = [
    "HeunParams",
    "EPoly",
    "SeriesSolution",
    "derive",
    "three_term",
    "coefficients_exact",
    "spectral_polynomial",
    "recursion_rows",
    "fixed_q",
    "coefficients_numeric",
    "residual_check",
]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeunParams:
    """Validated q-Heun parameter set with the derived lambda1 and N."""

    h1: Fraction
    h2: Fraction
    l1: Fraction
    l2: Fraction
    alpha1: Fraction
    alpha2: Fraction
    beta: Fraction
    t1: Fraction
    t2: Fraction
    lambda1: Fraction
    N: int

    _FIELD_NAMES = ("h1", "h2", "l1", "l2", "alpha1", "alpha2", "beta", "t1", "t2")

    def raw(self) -> dict[str, Fraction]:
        """The nine defining fields, keyed by name."""
        return {k: getattr(self, k) for k in self._FIELD_NAMES}

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The dataclass's hash of the fields, computed once per instance:
        every memoised function keyed by a parameter set hashes it, and its
        ten Fraction fields take about 10 us to hash."""
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    @functools.cached_property
    def scaled(self) -> tuple[int, ...]:
        """(D, D h1, D h2, D l1, D l2, D alpha1, D alpha2, D beta, D lambda1)
        at the scale D = _scale_den(self), computed once per instance: every
        product is an even int, so every exponent of the rows and of the
        residual's factors is an int numerator over D."""
        D = _scale_den(self)
        return (D, *(int(x * D) for x in (
            self.h1, self.h2, self.l1, self.l2, self.alpha1, self.alpha2, self.beta, self.lambda1)))


def derive(h1, h2, l1, l2, alpha1, alpha2, beta, t1, t2) -> HeunParams:
    """Validate the nine parameters and compute lambda1 and N.

    Every violated condition is reported by name in a single ParameterError.
    """
    h1, h2, l1, l2 = map(as_fraction, (h1, h2, l1, l2))
    a1, a2, beta = map(as_fraction, (alpha1, alpha2, beta))
    t1, t2 = as_fraction(t1), as_fraction(t2)

    lam = (h1 + h2 - l1 - l2 - a1 - a2 - beta + 2) / 2
    nf = -lam - a1

    violations = []
    n_ok = nf.denominator == 1 and nf >= 0
    if not n_ok:
        violations.append(
            f"N = {nf} is not a nonnegative integer (N := -lambda1 - alpha1)"
        )
    if t1 <= 0:
        violations.append(f"t1 = {t1} must be positive")
    if t2 <= 0:
        violations.append(f"t2 = {t2} must be positive")
    if beta >= 1:
        violations.append(f"beta = {beta} violates beta < 1")
    if a2 - a1 >= 1:
        violations.append(f"alpha2 - alpha1 = {a2 - a1} violates alpha2 - alpha1 < 1")
    if h1 >= h2:
        violations.append(f"h1 = {h1}, h2 = {h2} violate h1 < h2")
    if l1 >= l2:
        violations.append(f"l1 = {l1}, l2 = {l2} violate l1 < l2")
    if n_ok and beta.denominator == 1 and 1 <= beta <= nf + 1:
        violations.append(f"beta = {beta} lies in the excluded set {{1..N+1}}")
    if violations:
        raise ParameterError(violations)
    return HeunParams(h1, h2, l1, l2, a1, a2, beta, t1, t2, lam, int(nf))


# ---------------------------------------------------------------------------
# recursion rows
# ---------------------------------------------------------------------------


def recursion_rows(p: HeunParams, qv, t1v, t2v, qp) -> tuple:
    """The rows (A_n, B_n, C_n, D_n) of steps n = 1 .. N+1 from the values
    qv, t1v, t2v of q, t1, t2 and the q-power map ``qp``: a -> q^(a/D),
    the int numerator a over D = _scale_den(p) (HeunParams.scaled).

    The one formula of the rows, evaluated literally: _exact_rows runs it
    on QSums and FixedQ.boxes in boxes around the rows of the exact q.  The
    factors that do not depend on n, t1 t2 q^(h1+h2), q^(1/2)(q^h1 t1 +
    q^h2 t2) and q^l1 t1 + q^l2 t2, are formed once."""
    D, h1, h2, l1, l2, a1, a2, beta, lam = p.scaled
    half = D // 2
    At = t1v * t2v * qp(h1 + h2)
    Ch = qp(half) * (qp(h1) * t1v + qp(h2) * t2v)
    Cl = qp(l1) * t1v + qp(l2) * t2v
    rows = []
    for n in range(D, (p.N + 2) * D, D):  # n D
        Av = At * (1 - qp(n)) * (1 - qp(n - beta))
        Bv = qp(n - D + lam)
        Cv = Ch + Cl * qp(2 * (n + lam) + a1 + a2 - 5 * half)
        Dv = qv * (1 - qp(n - 2 * D + lam + a1)) * (1 - qp(n - 2 * D + lam + a2))
        rows.append((Av, Bv, Cv, Dv))
    return tuple(rows)


def _exact_rows(p: HeunParams) -> tuple:
    """The exact rows (A, B, C, D) of steps 1 .. N+1: recursion_rows over
    QSums, with q, t1 and t2 the monomials q, t1, t2 and qp(a) the
    monomial qpow(a/D), memoised.

    A_n = t1 t2 q^(h1+h2) (1-q^n)(1-q^(n-beta)) never vanishes for q in
    (0,1): n >= 1 and beta < 1 make both factor exponents positive."""
    D = p.scaled[0]
    qp = functools.cache(lambda a: qpow(Fraction(a, D)))
    return recursion_rows(p, qp(D), QSum.term(1, t1pow=1), QSum.term(1, t2pow=1), qp)


# ---------------------------------------------------------------------------
# EPoly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EPoly:
    """Polynomial in E with QSum coefficients over a structured denominator.

    Represented value:  sum_j coeffs[j] E^j / (denom_monomial * prod_e (1-q^e))
    with every e in denom_factors positive.  Because each (1-q^e) -> 1 as
    q -> +0 and 1/prod(1-q^e) = 1 + (strictly positive powers of q), the
    leading slice of the true E^j coefficient equals the leading slice of
    coeffs[j] / denom_monomial.
    """

    coeffs: tuple[QSum, ...]
    denom_monomial: QMonomial = UNIT_MONOMIAL
    denom_factors: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("EPoly needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1].is_zero():
            raise ValueError("EPoly top coefficient must be nonzero")
        if any(e <= 0 for e in self.denom_factors):
            raise ValueError("denominator factors (1-q^e) require e > 0")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def reduced_coefficient(self, j: int) -> QSum:
        """coeffs[j] / denom_monomial.

        This equals the true E^j coefficient times prod(1-q^e); leading
        parts, equiv_sim and equiv_approx are unaffected by that factor.
        """
        return self.coeffs[j].div_monomial(self.denom_monomial)

    def coefficient_values(self, q, t1, t2, bits: int = 512) -> list:
        """True numeric E^j coefficient values at fixed q in (0,1): the
        polynomial image, a plain oracle of the roots in the tests beside
        the exact counts at q = r^D (ROADMAP item 7).  API for perfbench: its
        ``spectral.image`` span wraps it and selftest.py calls it."""
        with mpmath.workprec(bits + EVAL_GUARD_BITS):
            at = AtQ(q, t1, t2)
            den = at.term(self.denom_monomial)
            for e in self.denom_factors:
                den *= 1 - at.qpow(e)
            vals = [eval_terms(c, at) / den for c in self.coeffs]
        with mpmath.workprec(bits):
            return [+v for v in vals]


# ---------------------------------------------------------------------------
# exact coefficient pipeline
#
# The recursion runs at one scale D = 2*lcm(parameter denominators), which
# clears every exponent the rows can produce, with integer coefficients, on
# qmono.Packed entry dicts: per t-monomial, the polynomial in q^(1/D) as
# one int of w-bit digits.  The levels come back as QSums that keep their
# entry dicts until their items are read; most levels are only reduced,
# compared and ultradiscretized, which read the entry.  A decoded QSum
# keeps the integer form (qmono.pack_key): no Fraction term is built unless
# .terms is read.
# ---------------------------------------------------------------------------


def _scale_den(p: HeunParams) -> int:
    return 2 * math.lcm(
        p.h1.denominator,
        p.h2.denominator,
        p.l1.denominator,
        p.l2.denominator,
        p.alpha1.denominator,
        p.alpha2.denominator,
        p.beta.denominator,
    )


def _scaled(a: QSum, D: int) -> TermDict:
    out: TermDict = {}
    for k, c in a.at_scale(D):
        if c.denominator != 1:
            raise AssertionError(f"coefficient {c} is not an integer")
        out[k] = c.numerator
    return out


def three_term(p: HeunParams, rows, entry) -> list[list[QSum]]:
    """The one loop of the exact recursion: the levels c_0 = 1, c_1, ... of

        c_n[E^j] = B c_{n-1}[E^(j-1)] + C c_{n-1}[E^j] + R c_{n-2}[E^j]

    on qmono.Packed entry dicts at the scale D of ``p``.  ``rows`` yields
    the QSum rows (B, C, R) of n = 1, 2, ... (R = 0 drops its term), and
    ``entry(parts, n, site, packed)`` turns the nonzero products, in that
    order, into the entry dict of c_n[E^j], site "c{n}[E^{j}]".  The levels
    are returned undecoded, as QSum.from_entry.  The digit
    width comes from M_n = (|B_n| + |C_n|) M_{n-1} + |R_n| M_{n-2}, |x| the
    sum of x's absolute coefficients: M_n bounds every coefficient of every
    product and partial sum of level n."""
    D = _scale_den(p)
    rows = [[_scaled(x, D) for x in row] for row in rows]
    M = [0, 1]
    for B, C, R in rows:
        M.append(sum(map(abs, [*B.values(), *C.values()])) * M[-1] + sum(map(abs, R.values())) * M[-2])
    pk = Packed(max(M), D)
    levels: list[list[dict]] = [[{pack_key(0, 0, 0): (0, 1)}]]
    for n, row in enumerate(rows, 1):
        B, C, R = map(pk.row, row)
        prev = levels[n - 1]
        new: list[dict] = []
        for j in range(n + 1):
            parts = [pk.mul(B, prev[j - 1])] if j else []
            if j < n:
                parts.append(pk.mul(C, prev[j]))
            if R and j <= n - 2:
                parts.append(pk.mul(R, levels[n - 2][j]))
            new.append(entry(parts, n, f"c{n}[E^{j}]", pk))
        levels.append(new)
    return [[QSum.from_entry(pk, d) for d in level] for level in levels]


def _three_term_rows(p: HeunParams) -> list[tuple[QSum, QSum, QSum]]:
    """three_term's rows (B_n, C_n, R_n = -(D_n A_{n-1})), n = 1 .. N+1."""
    rows = _exact_rows(p)
    return [(B, C, -(Dn * rows[n - 2][0]) if n >= 2 else QSum.zero())
            for n, (_, B, C, Dn) in enumerate(rows, 1)]


def coefficients_exact(p: HeunParams) -> tuple[list[EPoly], list[CancellationEvent]]:
    """Exact c_0 .. c_{N+1} with cancellation diagnostics.

    The numerators run three_term on _three_term_rows; each entry is one
    Packed.merge, whose events are the right-hand-side cancellation
    diagnostics the leading-term propositions are about.  The exact result
    itself is always correct, events or not.  c_n's denominator is
    A_1 ... A_n with the factors kept structured: the monomial
    (t1 t2 q^(h1+h2))^n times prod_{k<=n} (1-q^k)(1-q^(k-beta)).
    """
    events: list[CancellationEvent] = []

    def entry(parts, n, site, pk):
        merged, found = pk.merge(parts, site)
        events.extend(found)
        return merged

    levels = three_term(p, _three_term_rows(p), entry)
    polys, factors = [], []
    for n, coeffs in enumerate(levels):
        if n:
            factors += (Fraction(n), n - p.beta)
        den = QMonomial(n * (p.h1 + p.h2), n, n, Fraction(1))
        polys.append(EPoly(tuple(coeffs), den, tuple(sorted(factors))))
    return polys, events


def spectral_polynomial(p: HeunParams) -> EPoly:
    """The degree-(N+1) polynomial whose roots admit terminating series."""
    return coefficients_exact(p)[0][-1]


# ---------------------------------------------------------------------------
# numeric pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated series data x^lambda1 * sum_{n=0}^{N} coeffs[n] x^n at E0 (lambda1 is p's)."""

    coeffs: tuple
    E0: object
    q: Fraction
    bits: int


def _flat(row) -> tuple:
    """Dyadic points as the flat (m, e, m, e, ...) ints the kernels read."""
    return tuple(i for d in row for i in (d.m, d.e))


class FixedQ:
    """The fixed-q table of one parameter set, q and precision P.  Each
    part is built on its first read from the boxes ``t1``, ``t2`` and the
    q-powers ``qp(a)`` = q^(a/D), a an int numerator over D =
    _scale_den(p), as recursion_rows takes them.  Both are Box.qpow boxes in
    one memo: q's powers keyed by the int a, so no Fraction is hashed or
    built at a lookup and one is formed only on a miss, to hand Box.qpow
    a/D in lowest terms, whose integer root then has the least degree;
    every other power, by ``tp(x, mu)``, keyed by the pair (x, mu): t1, t2
    and the predicted roots' prefactors, and a q^d whose d D is not an
    int.  The key spaces are apart, since no tuple equals an int.  Every
    operation rounds outward, so each box encloses its value at the exact
    q, and each point is a box's lower end as a Dyadic.

    ``boxes``: recursion_rows' (A, B, C, D) as boxes.  ``favard_boxes``:
    the Favard rows (B_n, C_n, G_n = D_n A_{n-1}) on them as flat
    (lo, hi, e) ints, the certified counts' rows, or None unless every A_n,
    B_n, D_n box is positive.  ``points``: per step n, the row
    (B_n, C_n, G_n, A_n, D_n) on the boxes' lower ends, G_1 = 0, as
    _flat's (m, e) pairs.  Its first six ints are the Favard rows of the
    plain counts, Newton and the Gershgorin bound; the twisted solve reads
    all ten, its off-diagonal products A_{n-1} D_n being G_2 .. G_{N+1}.
    ``residual``: _power_residuals' factors, flat as well.
    """

    def __init__(self, p: HeunParams, q: Fraction, P: int):
        self.p, self.q, self.P, self.D, self._pows = p, q, P, p.scaled[0], {}
        self.t1, self.t2 = self.tp(p.t1, 1), self.tp(p.t2, 1)

    def qp(self, a: int) -> Box:
        if (b := self._pows.get(a)) is None:
            b = self._pows[a] = Box.qpow(self.q, Fraction(a, self.D), self.P)
        return b

    def tp(self, x, mu) -> Box:
        if (b := self._pows.get(key := (x, mu))) is None:
            b = self._pows[key] = Box.qpow(x, mu, self.P)
        return b

    @functools.cached_property
    def boxes(self) -> tuple:
        return recursion_rows(self.p, self.qp(self.D), self.t1, self.t2, self.qp)

    @functools.cached_property
    def favard_boxes(self) -> tuple | None:
        if not all(A.lo > 0 and B.lo > 0 and D.lo > 0 for A, B, _, D in self.boxes):
            return None
        out, prev_A = [], 0
        for A, B, C, D in self.boxes:
            out.append(tuple(i for b in (B, C, D * prev_A) for i in (b.lo, b.hi, b.e)))
            prev_A = A
        return tuple(out)

    @functools.cached_property
    def points(self) -> tuple:
        rows = [tuple(Dyadic(b.lo, b.e, b.P) for b in row) for row in self.boxes]
        G = [Dyadic(0, 0, self.P)] + [A * D for (A, *_), (*_, D) in zip(rows, rows[1:])]
        return tuple(_flat((B, C, g, A, D)) for (A, B, C, D), g in zip(rows, G))

    @functools.cached_property
    def residual(self) -> tuple:
        """Per n = 0 .. N, the E-free factors of c_n in the powers n, n+1
        and n+2 of _power_residuals:
            (a1 a2 q^-(lambda1+n), P b1 b2 q^(lambda1+n), -K),
            (-(a1+a2) q^-(lambda1+n), -P (b1+b2) q^(lambda1+n)),
            (q^-(lambda1+n), P q^(lambda1+n), -Q),
        with q^(+-(lambda1+n)) by steps of q from one power each, formed on
        boxes like the rows, as _flat's (m, e) pairs of their lower ends,
        in that order.  The factors that do not depend on n, a1 a2,
        P b1 b2, -(a1+a2), -P (b1+b2), -K and -Q, are formed once."""
        qp, t1v, t2v = self.qp, self.t1, self.t2
        D, h1, h2, l1, l2, al1, al2, beta, lam = self.p.scaled
        half = D // 2
        a1, a2 = qp(h1 + half) * t1v, qp(h2 + half) * t2v
        b1, b2 = qp(l1 - half) * t1v, qp(l2 - half) * t2v
        P = qp(al1 + al2)
        Q = qp(al1) + qp(al2)
        K = qp((h1 + h2 + l1 + l2 + al1 + al2) // 2) * (
            qp(beta // 2) + qp(-(beta // 2))
        ) * t1v * t2v
        aa, Pbb, ma, mPb, mK, mQ = a1 * a2, P * b1 * b2, -(a1 + a2), -P * (b1 + b2), -K, -Q
        up, dn, qv, qinv = qp(lam), qp(-lam), qp(D), qp(-D)
        table = []
        for _ in range(self.p.N + 1):
            table.append(_flat(Dyadic(b.lo, b.e, b.P) for b in (
                aa * dn, Pbb * up, mK, ma * dn, mPb * up, dn, P * up, mQ,
            )))
            up, dn = up * qv, dn * qinv
        return tuple(table)


@functools.lru_cache(maxsize=64)
def fixed_q(p: HeunParams, q: Fraction, P: int) -> FixedQ:
    """The FixedQ table of ``p`` at q and P bits, memoised."""
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0,1), got {q}")
    return FixedQ(p, q, P)


def _mpf(m: int, e: int, bits: int):
    """m 2^e rounded to nearest at ``bits`` bits, as +Dyadic.to_mpf() at
    that working precision."""
    sign = 1 if m < 0 else 0
    if sign: m = -m
    return mpmath.mp.make_mpf(normalize(sign, m, e, m.bit_length(), bits, round_nearest))


# The twisted solve and the per-power residual below are inline kernels, as
# the recursion loops of roots: a Dyadic is a pair of int locals (m, e), and
# each step repeats the alignment, operation and cut of the dyadic operation
# it stands for, so they return what the solve and the sums on Dyadic
# objects return, bit for bit, with no object built and no function called
# per operation.  Every cut reads
#     k = m.bit_length() - P
#     if k > 0: m, e = m >> k, e + k
# and every quotient n / d of Dyadic.__truediv__
#     k = P + 1 + d.bit_length() - n.bit_length()
#     m, e = (n << k) // d, n_e - d_e - k
# before its cut.


def _pivot_run(a, off, P: int) -> list:
    """Pivots of the tridiagonal LDU factorisation run in the order of
    ``a``, (m, e) pairs: d_0 = a_0, d_i = a_i - off_{i-1} / d_{i-1}, with
    off_{i-1} the product of the two off-diagonal entries that couple i-1
    and i.  A pivot that truncates to zero is replaced by 2^-P |a_i|, so
    that the next division stays defined."""
    out, dm, de = [], 0, 0
    for i, (am, ae) in enumerate(a):
        if i:
            om, oe = off[i - 1]  # t = off_{i-1} / d_{i-1}
            k = P + 1 + dm.bit_length() - om.bit_length()
            tm, te = (om << k) // dm, oe - de - k
            k = tm.bit_length() - P
            if k > 0: tm, te = tm >> k, te + k
            k = te - ae  # d = a_i - t
            if k >= 0: dm, de = am - (tm << k), ae
            else: dm, de = (am << -k) - tm, te
            k = dm.bit_length() - P
            if k > 0: dm, de = dm >> k, de + k
        else:
            dm, de = am, ae
        if not dm:  # |a_i| needs no cut
            dm, de = (-am if am < 0 else am, ae - P) if am else (1, -P)
        out.append((dm, de))
    return out


def coefficients_numeric(p: HeunParams, E0, q, bits: int = 512) -> SeriesSolution:
    """Series coefficients c_0..c_N of the (candidate) terminating solution,
    from a twisted solve of the recursion's tridiagonal system at E0.

    Equations n = 1..N+1 with c_{N+1} = 0 read T c = 0, row i = n-1 having
    diagonal a_i = B_n E0 + C_n, superdiagonal -A_n and subdiagonal -D_n.
    The forward and backward pivots d+_i, d-_i give the twist
    gamma_k = d+_k + d-_k - a_k.  The rows differ in scale by thousands of
    orders, so k minimises |gamma_k| / (|B_{k+1} E0| + C_{k+1}), relative
    to the diagonal's terms in its own row (C > 0); the vector with z_k = 1
    solves every row but k, runs outward from k through the pivots, and is
    normalised to c_0 = 1 (Fernando, SIAM J. Matrix Anal. Appl. 18 (1997);
    Dhillon & Parlett, Linear Algebra Appl. 387 (2004)).  Unlike
    the forward recursion, the tests' reference, it does not amplify the
    error of a rounded root.  The solve is an inline kernel on int locals
    that repeats each Dyadic operation at P = bits + EVAL_GUARD_BITS, on
    fixed_q's flat ``points`` rows; mpf enters only as E0, at P bits
    and cut as Dyadic.of_mpf cuts, and leaves as E0 and the coefficients
    rounded to ``bits``."""
    P = bits + EVAL_GUARD_BITS
    q = as_fraction(q)
    rows = fixed_q(p, q, P).points
    off = [(row[4], row[5]) for row in rows[1:]]  # G_2 .. G_{N+1}
    N = p.N
    with mpmath.workprec(P):
        E = Dyadic.of_mpf(to_mpf(E0), P)
    Em, Ee = E.m, E.e
    u, a = [], []  # u_i = B E, a_i = u_i + C
    for Bm, Be, Cm, Ce, _, _, _, _, _, _ in rows:
        um, ue = Bm * Em, Be + Ee
        k = um.bit_length() - P
        if k > 0: um, ue = um >> k, ue + k
        u.append((um, ue))
        k = Ce - ue
        if k >= 0: am, ae = um + (Cm << k), ue
        else: am, ae = (um << -k) + Cm, Ce
        k = am.bit_length() - P
        if k > 0: am, ae = am >> k, ae + k
        a.append((am, ae))
    fwd = _pivot_run(a, off, P)
    bwd = _pivot_run(a[::-1], off[::-1], P)[::-1]
    # the twist: the first i of least |fwd_i + bwd_i - a_i| / (|u_i| + C_i)
    twist, rm, re = 0, 0, 0
    for i, ((fm, fe), (gm, ge), (am, ae), (um, ue), row) in enumerate(zip(fwd, bwd, a, u, rows)):
        k = ge - fe  # g = fwd_i + bwd_i
        if k >= 0: gm, ge = fm + (gm << k), fe
        else: gm, ge = (fm << -k) + gm, ge
        k = gm.bit_length() - P
        if k > 0: gm, ge = gm >> k, ge + k
        k = ae - ge  # g = g - a_i
        if k >= 0: gm -= am << k
        else: gm, ge = (gm << -k) - am, ae
        k = gm.bit_length() - P
        if k > 0: gm, ge = gm >> k, ge + k
        if gm < 0: gm = -gm  # |g| and |u| need no cut
        if um < 0: um = -um
        Cm, Ce = row[2], row[3]  # s = |u| + C
        k = Ce - ue
        if k >= 0: sm, se = um + (Cm << k), ue
        else: sm, se = (um << -k) + Cm, Ce
        k = sm.bit_length() - P
        if k > 0: sm, se = sm >> k, se + k
        k = P + 1 + sm.bit_length() - gm.bit_length()  # g / s
        gm, ge = (gm << k) // sm, ge - se - k
        k = gm.bit_length() - P
        if k > 0: gm, ge = gm >> k, ge + k
        k = re - ge  # exactly g / s < the least so far
        if not i or (gm < rm << k if k >= 0 else gm << -k < rm):
            twist, rm, re = i, gm, ge
    # z_i = A_i z_{i+1} / fwd_i below the twist, D_i z_{i-1} / bwd_i above
    steps = [(i, i + 1, fwd[i], row[6], row[7]) for i, row in enumerate(rows[:twist])][::-1]
    steps += [(i, i - 1, bwd[i], row[8], row[9]) for i, row in enumerate(rows) if i > twist]
    z = [(1, 0)] * (N + 1)
    for i, j, (dm, de), xm, xe in steps:
        zm, ze = z[j]
        zm, ze = xm * zm, xe + ze
        k = zm.bit_length() - P
        if k > 0: zm, ze = zm >> k, ze + k
        k = P + 1 + dm.bit_length() - zm.bit_length()
        zm, ze = (zm << k) // dm, ze - de - k
        k = zm.bit_length() - P
        if k > 0: zm, ze = zm >> k, ze + k
        z[i] = (zm, ze)
    (dm, de), vals = z[0], [mpmath.mpf(1)]
    for zm, ze in z[1:]:  # z_i / z_0
        k = P + 1 + dm.bit_length() - zm.bit_length()
        zm, ze = (zm << k) // dm, ze - de - k
        k = zm.bit_length() - P
        if k > 0: zm, ze = zm >> k, ze + k
        vals.append(_mpf(zm, ze, bits))
    with mpmath.workprec(bits):
        e0 = +to_mpf(E0)
    return SeriesSolution(tuple(vals), e0, q, bits)


def _power_residuals(p: HeunParams, sol: SeriesSolution) -> list:
    """Relative residual of the x^(lambda1+m) coefficient of the q-Heun
    operator applied to the series, for m = 0 .. N+2.

    c_n enters the coefficient of x^(lambda1+n+j), j = 0, 1, 2, times
        j = 0:  a1 a2 q^-(lambda1+n) + P b1 b2 q^(lambda1+n) - K
        j = 1:  -(a1+a2) q^-(lambda1+n) - P (b1+b2) q^(lambda1+n) - E
        j = 2:  q^-(lambda1+n) + P q^(lambda1+n) - Q
    with the operator's own factors a_i = q^(h_i+1/2) t_i,
    b_i = q^(l_i-1/2) t_i, P = q^(a1+a2), Q = q^a1 + q^a2 and K its
    constant term, not the recursion rows (FixedQ.residual).  Each
    coefficient, the sum of its (at most nine) exact products, is divided
    by the sum of their absolute values; both sums are exact, on ints at
    the least exponent, and the quotient is Dyadic's, truncated at
    bits + EVAL_GUARD_BITS.  An inline kernel on fixed_q's flat
    ``residual`` factors; E and the coefficients enter as their mpf, cut to that
    precision, and the residuals leave rounded to ``bits``.  m = 0 and
    m = N+2 are the indicial and termination identities, zero for any E."""
    P = sol.bits + EVAL_GUARD_BITS
    with mpmath.workprec(P):
        E = Dyadic.of_mpf(-to_mpf(sol.E0), P)
    Em, Ee = E.m, E.e
    ms = [[] for _ in range(p.N + 3)]  # the products' mantissas and
    xs = [[] for _ in range(p.N + 3)]  # exponents, per power
    for n, (c, f) in enumerate(zip(sol.coeffs, fixed_q(p, sol.q, P).residual)):
        u0, x0, u1, x1, u2, x2, v0, y0, v1, y1, w0, z0, w1, z1, w2, z2 = f
        c = Dyadic.of_mpf(c, P)
        cm, ce = c.m, c.e
        ms[n] += (cm * u0, cm * u1, cm * u2)
        xs[n] += (ce + x0, ce + x1, ce + x2)
        ms[n + 1] += (cm * v0, cm * v1, cm * Em)
        xs[n + 1] += (ce + y0, ce + y1, ce + Ee)
        ms[n + 2] += (cm * w0, cm * w1, cm * w2)
        xs[n + 2] += (ce + z0, ce + z1, ce + z2)
    out = []
    for mj, xj in zip(ms, xs):
        e, pos, neg = min(xj), 0, 0  # s = pos - neg, a = pos + neg
        for m, x in zip(mj, xj):
            if m > 0: pos += m << x - e
            else: neg -= m << x - e
        s, a = pos - neg, pos + neg
        if not a:
            out.append(mpmath.mp.zero)
            continue
        sm, se, am, ae = abs(s), 0, a, 0  # |s| / a
        k = sm.bit_length() - P
        if k > 0: sm, se = sm >> k, se + k
        k = am.bit_length() - P
        if k > 0: am, ae = am >> k, ae + k
        k = P + 1 + am.bit_length() - sm.bit_length()
        sm, se = (sm << k) // am, se - ae - k
        k = sm.bit_length() - P
        if k > 0: sm, se = sm >> k, se + k
        out.append(_mpf(sm, se, sol.bits))
    return out


def residual_check(p: HeunParams, sol: SeriesSolution):
    """Largest per-power relative residual of the q-Heun operator applied
    to the series (see _power_residuals, an inline kernel on ints that
    returns mpf at sol.bits): independent of x and of scale, and it sees
    every power of x, so a non-root cannot hide between sample points."""
    return max(_power_residuals(p, sol))

