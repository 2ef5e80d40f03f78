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
truncated series solves the equation exactly, which is what residual_check
verifies numerically.

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
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError, ParameterError
from .qmono import (
    EVAL_GUARD_BITS,
    AtQ,
    CancellationEvent,
    QMonomial,
    QSum,
    TermDict,
    UNIT_MONOMIAL,
    as_fraction,
    eval_terms,
    leading_part,
    pack_key,
    terms_merge,
    terms_mul,
    to_mpf,
)

__all__ = [
    "HeunParams",
    "EPoly",
    "SeriesSolution",
    "derive",
    "recursion_coeff_rows",
    "coefficients_exact",
    "spectral_polynomial",
    "recursion_rows_at",
    "coefficients_numeric",
    "series_coefficient_values",
    "residual_check",
]

_HALF = Fraction(1, 2)


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

    def with_value(self, name: str, value) -> "HeunParams":
        """Re-derive with one field replaced (re-runs all validation)."""
        raw = self.raw()
        if name not in raw:
            raise ParameterError([f"unknown parameter '{name}'"])
        raw[name] = as_fraction(value)
        return derive(**raw)


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


def a_row_structured(p: HeunParams, n: int) -> tuple[QMonomial, tuple[Fraction, Fraction]]:
    """A_n as monomial t1 t2 q^{h1+h2} times factors (1-q^n)(1-q^{n-beta}).

    Both factor exponents are positive under the standing assumptions
    (n >= 1, beta < 1), so A_n never vanishes for q in (0,1).
    """
    if not 1 <= n <= p.N + 1:
        raise DomainError(f"recursion index n = {n} outside 1..N+1 = 1..{p.N + 1}")
    return (
        QMonomial(p.h1 + p.h2, 1, 1, Fraction(1)),
        (Fraction(n), n - p.beta),
    )


def recursion_coeff_rows(p: HeunParams, n: int) -> tuple[QSum, QSum, QSum, QSum]:
    """The exact rows (A, B, C, D) of step n, each expanded as a QSum.

    This is the one exact definition of the rows; coefficients_exact runs
    on them."""
    lam = p.lambda1
    mono, (e1, e2) = a_row_structured(p, n)
    A = QSum((mono,)) * (
        QSum.term(1)
        - QSum.term(1, qexp=e1)
        - QSum.term(1, qexp=e2)
        + QSum.term(1, qexp=e1 + e2)
    )
    B = QSum.term(1, qexp=n - 1 + lam)
    ce = 2 * (n + lam) + p.alpha1 + p.alpha2 - Fraction(5, 2)
    C = (
        QSum.term(1, t1pow=1, qexp=_HALF + p.h1)
        + QSum.term(1, t2pow=1, qexp=_HALF + p.h2)
        + QSum.term(1, t1pow=1, qexp=p.l1 + ce)
        + QSum.term(1, t2pow=1, qexp=p.l2 + ce)
    )
    d1 = n - 2 + lam + p.alpha1
    d2 = n - 2 + lam + p.alpha2
    D = (
        QSum.term(1, qexp=1)
        - QSum.term(1, qexp=1 + d1)
        - QSum.term(1, qexp=1 + d2)
        + QSum.term(1, qexp=1 + d1 + d2)
    )
    return A, B, C, D


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

    def leading_coefficient_slice(self, j: int) -> QSum:
        """Leading slice of the true E^j coefficient (exact, with t powers)."""
        return leading_part(self.coeffs[j]).div_monomial(self.denom_monomial)

    def coefficient_values(self, q, t1, t2, bits: int = 512) -> list:
        """True numeric E^j coefficient values at fixed q in (0,1)."""
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
# The recursion runs on term dicts keyed by packed integer keys at one scale
# D = 2*lcm(parameter denominators), which clears every exponent the rows
# can produce, with integer coefficients; see qmono.pack_key.  Its QSums
# keep that integer form: no Fraction term is built unless .terms is read.
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


def coefficients_exact(
    p: HeunParams, up_to: int | None = None
) -> tuple[list[EPoly], list[CancellationEvent]]:
    """Exact c_0 .. c_up_to with cancellation diagnostics.

    The rows come from recursion_coeff_rows.  Per step n and E-degree j,
    the three contributions B*c_{n-1}[j-1], C*c_{n-1}[j] and R*c_{n-2}[j],
    with R = -(D*A_{n-1}), are merged in a single pass; the recorded events
    are the right-hand-side cancellation diagnostics the leading-term
    propositions are about.  The exact result itself is always correct,
    events or not.
    """
    if up_to is None:
        up_to = p.N + 1
    if not 0 <= up_to <= p.N + 1:
        raise DomainError(f"up_to = {up_to} outside 0..N+1 = 0..{p.N + 1}")
    D = _scale_den(p)
    events: list[CancellationEvent] = []
    levels: list[list[TermDict]] = [[{pack_key(0, 0, 0): 1}]]
    prev_A: QSum | None = None
    for n in range(1, up_to + 1):
        A, B, C, Dn = recursion_coeff_rows(p, n)
        B, C = _scaled(B, D), _scaled(C, D)
        R = _scaled(-(Dn * prev_A), D) if n >= 2 else None
        prev = levels[n - 1]
        prev2 = levels[n - 2] if n >= 2 else None
        new: list[TermDict] = []
        for j in range(n + 1):
            parts = []
            if j >= 1:
                parts.append(terms_mul(B, prev[j - 1]))
            if j < len(prev):
                parts.append(terms_mul(C, prev[j]))
            if prev2 is not None and j < len(prev2):
                parts.append(terms_mul(R, prev2[j]))
            merged, found = terms_merge(parts, f"c{n}[E^{j}]", D)
            events.extend(found)
            new.append(merged)
        if not new[n]:
            raise AssertionError(f"degree invariant failed: c_{n} has degree < {n}")
        levels.append(new)
        prev_A = A
    # c_n's denominator is A_1 ... A_n with the factors kept structured
    polys = []
    den, factors = QSum.one(), []
    for n, dicts in enumerate(levels):
        if n:
            mono, row_factors = a_row_structured(p, n)
            den = den * QSum((mono,))
            factors.extend(row_factors)
        coeffs = tuple(QSum.from_term_dict(d, D) for d in dicts)
        polys.append(EPoly(coeffs, den.terms[0], tuple(sorted(factors))))
    return polys, events


def spectral_polynomial(p: HeunParams) -> EPoly:
    """The degree-(N+1) polynomial whose roots admit terminating series."""
    polys, _ = coefficients_exact(p, p.N + 1)
    return polys[-1]


# ---------------------------------------------------------------------------
# numeric pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated series data x^lambda1 * sum_{n=0}^{N} coeffs[n] x^n at E0."""

    lambda1: Fraction
    coeffs: tuple
    E0: object
    q: Fraction
    t1: Fraction
    t2: Fraction
    bits: int


@contextmanager
def ctx_workprec(ctx, prec: int):
    """Working precision ``prec`` in the mpmath context ``ctx`` (mpmath.iv
    has no workprec of its own)."""
    old = ctx.prec
    ctx.prec = prec
    try:
        yield
    finally:
        ctx.prec = old


@functools.lru_cache(maxsize=64)
def recursion_rows_at(p: HeunParams, q, prec: int, ctx=mpmath.mp) -> tuple:
    """The rows (A_n, B_n, C_n, D_n) of steps n = 1 .. N+1 at q, computed at
    working precision ``prec`` in ``ctx``: mpmath.mp, or mpmath.iv for
    intervals that enclose the rows of the exact q.

    The one numeric definition of the rows; the series, the root counts and
    Newton all read it.  Each row is evaluated literally at q, every q-power
    as exp(mu log q); in mpmath.mp these are the values AtQ gives.
    Memoised per argument tuple."""
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0,1), got {q}")
    if ctx is mpmath.mp:
        conv = to_mpf
    else:
        def conv(x):
            x = as_fraction(x)
            return ctx.mpf(x.numerator) / x.denominator
    lam = p.lambda1
    rows = []
    with ctx_workprec(ctx, prec):
        qv, t1v, t2v = conv(q), conv(p.t1), conv(p.t2)
        lq = ctx.log(qv)
        qp = functools.cache(lambda mu: ctx.exp(conv(mu) * lq))
        for n in range(1, p.N + 2):
            Av = t1v * t2v * qp(p.h1 + p.h2) * (1 - qp(n)) * (1 - qp(n - p.beta))
            Bv = qp(n - 1 + lam)
            ce = 2 * (n + lam) + p.alpha1 + p.alpha2 - Fraction(5, 2)
            Cv = qp(_HALF) * (qp(p.h1) * t1v + qp(p.h2) * t2v) + (
                qp(p.l1) * t1v + qp(p.l2) * t2v
            ) * qp(ce)
            Dv = qv * (1 - qp(n - 2 + lam + p.alpha1)) * (1 - qp(n - 2 + lam + p.alpha2))
            rows.append((Av, Bv, Cv, Dv))
    return tuple(rows)


def series_coefficient_values(p: HeunParams, E0, q, bits: int = 512, up_to: int | None = None):
    """c_0(E0) .. c_up_to(E0) by running the recursion in fixed precision.

    The rows are recursion_rows_at's; A_n > 0 throughout (q in (0,1),
    n >= 1, beta < 1), so the division is always defined.
    """
    if up_to is None:
        up_to = p.N
    if not 0 <= up_to <= p.N + 1:
        raise DomainError(f"up_to = {up_to} outside 0..N+1 = 0..{p.N + 1}")
    rows = recursion_rows_at(p, q, bits + EVAL_GUARD_BITS)
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        E0v = to_mpf(E0)
        cs = [mpmath.mpf(1)]
        cm2, cm1 = mpmath.mpf(0), mpmath.mpf(1)
        for Av, Bv, Cv, Dv in rows[:up_to]:
            assert Av != 0, "A row vanished; outside the validated domain"
            cn = ((Bv * E0v + Cv) * cm1 - Dv * cm2) / Av
            cs.append(cn)
            cm2, cm1 = cm1, cn
    with mpmath.workprec(bits):
        return [+c for c in cs]


def coefficients_numeric(p: HeunParams, E0, q, bits: int = 512) -> SeriesSolution:
    """Series coefficients c_0..c_N of the (candidate) terminating solution."""
    vals = series_coefficient_values(p, E0, q, bits=bits, up_to=p.N)
    with mpmath.workprec(bits):
        e0 = +to_mpf(E0)
    return SeriesSolution(
        p.lambda1, tuple(vals), e0, as_fraction(q), p.t1, p.t2, bits
    )


def residual_check(p: HeunParams, sol: SeriesSolution):
    """Largest relative residual of the q-Heun operator applied to the series.

    Evaluates the operator's three groups at each sample x and divides the
    absolute sum by the largest group magnitude.  The samples
    {t1 q^{1/2}, t1, t1 q^{-1/2}} spread across the relevant scales.
    """
    lam = p.lambda1
    with mpmath.workprec(sol.bits + EVAL_GUARD_BITS):
        at = AtQ(sol.q, sol.t1, sol.t2)
        qv, qp, t1v, t2v = at.q, at.qpow, at.t1, at.t2
        E0v = to_mpf(sol.E0)
        coeffs = [to_mpf(c) for c in sol.coeffs]
        abs_coeffs = [abs(c) for c in coeffs]

        def _horner(cs, x):
            acc = mpmath.mpf(0)
            for c in reversed(cs):
                acc = acc * x + c
            return acc

        lamv = to_mpf(lam)

        def f(x):
            """The series and its absolute-coefficient bound at x, both
            times x^lambda1 (computed once)."""
            xl = mpmath.exp(lamv * mpmath.log(x))
            return xl * _horner(coeffs, x), xl * _horner(abs_coeffs, x)

        xs = [t1v * qp(_HALF), t1v, t1v * qp(-_HALF)]
        const = qp((p.h1 + p.h2 + p.l1 + p.l2 + p.alpha1 + p.alpha2) / 2) * (
            qp(p.beta / 2) + qp(-p.beta / 2)
        ) * t1v * t2v
        a1f, a2f = qp(p.h1 + _HALF) * t1v, qp(p.h2 + _HALF) * t2v
        b1f, b2f = qp(p.l1 - _HALF) * t1v, qp(p.l2 - _HALF) * t2v
        pref2 = qp(p.alpha1 + p.alpha2)
        quad = qp(p.alpha1) + qp(p.alpha2)
        worst = mpmath.mpf(0)
        for x in xs:
            g_up, m_up = f(x / qv)
            g_dn, m_dn = f(x * qv)
            g_0, m_0 = f(x)
            term1 = (x - a1f) * (x - a2f) * g_up
            term2 = pref2 * (x - b1f) * (x - b2f) * g_dn
            term3 = -(quad * x * x + E0v * x + const) * g_0
            # scale by the pre-cancellation magnitudes: a sample x may sit at
            # a zero of a factor group or of the series itself, where the
            # grouped values say nothing about the working magnitude
            scale = max(
                (x + a1f) * (x + a2f) * m_up,
                pref2 * (x + b1f) * (x + b2f) * m_dn,
                (quad * x * x + abs(E0v) * x + const) * m_0,
            )
            rel = abs(term1 + term2 + term3) / scale
            worst = max(worst, rel)
    with mpmath.workprec(sol.bits):
        return +worst
