"""Real-root isolation at extreme dynamic range, and root/prediction matching.

Spectral polynomials at small q carry coefficients spanning hundreds of
orders of magnitude, which defeats floating eigenvalue methods.  Instead the
mpf coefficients (exact dyadic rationals) are converted to Fractions, and
every sign decision is exact:

* each polynomial, and each member of its Sturm chain, is scaled once by a
  positive integer to integer coefficients; the one exact evaluator
  (``_sign_at``) gives the sign at x = u/v as the sign of
  sum n_i u^i v^(d-i), with no gcd;
* the Sturm chain over the (power-of-two) Cauchy bound interval counts the
  distinct real roots -- the count must equal the degree, otherwise the
  polynomial image itself was computed too coarsely and PrecisionError asks
  for a retry at doubled bits;
* interval splitting (optionally pre-cut between predicted root locations)
  isolates single roots;
* each root is refined to the point exact sign bisection to relative width
  2^-bits would return, without running it: the final level of the
  bisection is read off a floating approximation (geometric bisection,
  then Newton inside the bracket), two exact signs at the grid points just
  outside its error bound certify that the root lies between them, and
  exact signs at the grid points between, usually none, place it.  A
  failed check falls back to exact bisection.

On top of that sit the two-q exponent estimator (log-log slope per matched
root) and the prediction matcher used by the verification pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from .errors import DomainError, MatchingError, PrecisionError
from .qmono import AtQ, as_fraction, to_mpf
from .spectral import EPoly, HeunParams, spectral_polynomial
from .ultra import PredictedRoot

__all__ = [
    "NumPoly",
    "RootEstimate",
    "MatchRow",
    "MatchReport",
    "find_real_roots",
    "find_spectral_roots",
    "estimate_exponents",
    "match_predictions",
    "real_roots_of_rational_poly",
]

_FPoly = list  # list[Fraction], degree-ascending
_IPoly = list  # list[int], degree-ascending

#: Extra bits of the floating root approximation beyond the target bits.
_APPROX_GUARD_BITS = 32
#: The precision find_spectral_roots doubles up to before it gives up.
MAX_BITS = 4096


# ---------------------------------------------------------------------------
# exact polynomial core
# ---------------------------------------------------------------------------


def _strip(c: _FPoly) -> _FPoly:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _integer_scaled(c: _FPoly) -> _IPoly:
    """c times the lcm of its denominators: a positive multiple, so its sign
    at every point is the sign of c."""
    m = math.lcm(*(a.denominator for a in c))
    return [a.numerator * (m // a.denominator) for a in c]


def _sign_at(n: _IPoly, u: int, v: int) -> int:
    """Sign of the polynomial n at x = u/v, v > 0: the sign of
    sum n_i u^i v^(d-i), which is n(x) times v^d.  The one exact evaluator."""
    acc = n[-1]
    w = 1
    for a in reversed(n[:-1]):
        w *= v
        acc = acc * u + a * w
    return (acc > 0) - (acc < 0)


def _deriv(c: _FPoly) -> _FPoly:
    return [i * a for i, a in enumerate(c)][1:]


def _rem(a: _FPoly, b: _FPoly) -> _FPoly:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        la = a[-1]
        if la:
            f = la / lb
            shift = len(a) - 1 - db
            for i in range(db):
                a[shift + i] -= f * b[i]
        a.pop()
    return _strip(a)


def _rescale(c: _FPoly) -> _FPoly:
    # positive rescaling keeps every sign; it only tames coefficient growth
    m = max(abs(a) for a in c)
    return [a / m for a in c]


def _sturm_chain(c: _FPoly) -> list[_IPoly]:
    """The Sturm chain of c, each member scaled to integer coefficients."""
    chain = [c, _strip(_deriv(c))]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break  # chain ends at a gcd; variation counts stay valid
        chain.append(_rescale([-a for a in r]))
    return [_integer_scaled(m) for m in chain]


def _variations(chain: list[_IPoly], x: Fraction) -> int:
    signs = []
    for n in chain:
        s = _sign_at(n, x.numerator, x.denominator)
        if s:
            signs.append(s)
    return sum(1 for i in range(1, len(signs)) if signs[i] != signs[i - 1])


def _pow2_at_least(x: Fraction) -> Fraction:
    k = x.numerator.bit_length() - x.denominator.bit_length() + 2
    return Fraction(2) ** k


def _cauchy_bound(c: _FPoly) -> Fraction:
    lead = abs(c[-1])
    body = max(abs(a) for a in c[:-1]) if len(c) > 1 else Fraction(0)
    return _pow2_at_least(1 + body / lead)


def _nonroot(n: _IPoly, x: Fraction, step: Fraction) -> Fraction:
    while _sign_at(n, x.numerator, x.denominator) == 0:
        x += step
    return x


def _isolate(
    chain: list[_IPoly], lo: Fraction, hi: Fraction, cuts: Sequence[Fraction]
) -> list[tuple[Fraction, Fraction]]:
    """Split (lo, hi) into open intervals holding exactly one distinct root
    of chain[0] each; lo, hi and every split point are non-roots."""
    n = chain[0]
    nudge = (hi - lo) / 2 ** 24
    points = [lo]
    for cut in sorted(set(cuts)):
        if lo < cut < hi:
            points.append(_nonroot(n, cut, nudge))
    points.append(hi)
    var = {pt: _variations(chain, pt) for pt in points}
    stack = [
        (points[i], points[i + 1], var[points[i]], var[points[i + 1]])
        for i in range(len(points) - 1)
    ]
    out = []
    while stack:
        a, b, va, vb = stack.pop()
        k = va - vb
        if k <= 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        mid = _nonroot(n, (a + b) / 2, (b - a) / 2 ** 24)
        vm = _variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# refinement: the point exact bisection returns, computed from a floating
# approximation and certified by exact signs
# ---------------------------------------------------------------------------


def _stops(A: int, B: int, V: int, bits: int) -> bool:
    """The stop rule of bisection on (A/V, B/V): relative width 2^-bits,
    absolute floor 2^-(2*bits) near zero."""
    w = B - A
    return w << bits <= max(abs(A), abs(B)) or w << (2 * bits) <= V


def _bisect_exact(A: int, B: int, V: int, bits: int, side) -> Fraction:
    """Bisect the one-signed bracket (A/V, B/V) until it stops, and return
    the midpoint of the final bracket, or the midpoint hit that ended the
    bisection.  ``side(M, W)`` says where the root lies against M/W: +1
    above, -1 below, 0 exactly at it."""
    while not _stops(A, B, V, bits):
        M = A + B
        if M & 1:
            A, B, V = A << 1, B << 1, V << 1
        else:
            M >>= 1
        s = side(M, V)
        if s == 0:
            return Fraction(M, V)
        if s > 0:
            A = M
        else:
            B = M
    return Fraction(A + B, 2 * V)


def _bisection_point(
    A: int, B: int, V: int, bits: int, r: Fraction, t: Fraction, side
) -> Fraction | None:
    """The point ``_bisect_exact`` returns, computed directly from an
    approximation r of the root with error estimate t; None when a check
    fails.

    Bisecting the one-signed bracket (a, b) = (A/V, B/V) k times leaves the
    level-k bracket i, between the grid points (A 2^k + i W) / (V 2^k) and
    the next, W = B - A.  Along a chain of nested brackets the stop rule,
    once met, stays met (the width halves, max(|a|, |b|) at most halves),
    so bisection stops at the first level K whose bracket holding the root
    x meets it and returns its midpoint, or returns x itself if x is a grid
    point of a level up to K.  K is read off r; exact signs at the level-K
    grid points next to r - t and r + t certify that x lies between them,
    and exact signs at the grid points between, if any, place x.
    """
    if _stops(A, B, V, bits):
        return Fraction(A + B, 2 * V)
    W = B - A

    def stops(k: int, i: int) -> bool:
        lo = (A << k) + i * W
        return _stops(lo, lo + W, V << k, bits)

    D = max(r.denominator, t.denominator)  # both are powers of two
    R, T = r.numerator * (D // r.denominator), t.numerator * (D // t.denominator)
    den = D * W

    def offset(X: int) -> int:  # (X/D - a) / (b - a), times den
        return X * V - A * D

    # K: the first level at which the bracket holding r stops; the absolute
    # floor holds for every bracket at level hi
    lo, hi = 1, max(1, (W << 2 * bits).bit_length() - V.bit_length() + 1)
    while lo < hi:
        k = (lo + hi) // 2
        i = min(max((offset(R) << k) // den, 0), (1 << k) - 1)
        if stops(k, i):
            hi = k
        else:
            lo = k + 1
    K = lo

    def at(i: int) -> int:  # side of x against level-K grid point i
        return side((A << K) + i * W, V << K)

    def hit(i: int) -> Fraction | None:
        # x is grid point i: bisection probes it if a level-(K-1) bracket
        # next to it has not stopped
        if all(stops(K - 1, m >> 1) for m in (i - 1, i)):
            return None
        return Fraction((A << K) + i * W, V << K)

    # the last grid point below r - t and the first above r + t hold x
    # between them if the approximation holds; their exact signs certify
    # that, and exact bisection between them places x
    lo = min(max(-(-(offset(R - T) << K) // den) - 1, 0), (1 << K) - 1)
    hi = max(min((offset(R + T) << K) // den + 1, 1 << K), lo + 1)
    s_lo, s_hi = at(lo), at(hi)
    if s_lo == 0:
        return hit(lo)
    if s_hi == 0:
        return hit(hi)
    if not s_lo > 0 > s_hi:
        return None
    while hi - lo > 1:
        m = (lo + hi) // 2
        s = at(m)
        if s == 0:
            return hit(m)
        if s > 0:
            lo = m
        else:
            hi = m
    if stops(K, lo) and not stops(K - 1, lo >> 1):
        return Fraction(2 * ((A << K) + lo * W) + W, V << (K + 1))
    return None


def _approximate(n: _IPoly, a: Fraction, b: Fraction, fa: int, bits: int):
    """A floating approximation of the one root of n in (a, b), as mpf
    ``(root, tol)`` with tol an estimate of its error, or None.

    (a, b) is one-signed.  Works at bits + _APPROX_GUARD_BITS: geometric
    bisection while the bracket spans more than 2x, then Newton kept inside
    the bracket.  ``fa`` is the exact sign of n at a.
    """
    prec = bits + _APPROX_GUARD_BITS
    with mpmath.workprec(prec):
        cs = [mpmath.mpf(c) for c in n]
        noise = 2 * len(cs) * mpmath.mpf(2) ** -prec

        def ev(x):
            # p(x), p'(x) and the rounding noise of p(x)
            p = dp = size = mpmath.mpf(0)
            ax = abs(x)
            for c in reversed(cs):
                dp = dp * x + p
                p = p * x + c
                size = size * ax + abs(c)
            return p, dp, size * noise

        def below_root(p):
            return (p > 0) - (p < 0) == fa

        lo, hi = to_mpf(a), to_mpf(b)
        if not lo or not hi:
            # no nonzero root is nearer to 0 than |c_0| / (|c_0| + max |c_i|)
            c0 = abs(cs[0])
            bound = c0 / (c0 + max(abs(c) for c in cs[1:])) / 2
            lo, hi = (bound, hi) if hi > 0 else (lo, -bound)
        sgn = 1 if hi > 0 else -1
        while max(abs(lo), abs(hi)) > 2 * min(abs(lo), abs(hi)):
            x = sgn * mpmath.sqrt(lo * hi)
            if below_root(ev(x)[0]):
                lo = x
            else:
                hi = x
        x = (lo + hi) / 2
        for _ in range(4 * prec):  # bisection alone would need about prec
            p, dp, err = ev(x)
            if abs(p) <= err:
                break  # x is a root within the rounding noise of p
            if below_root(p):
                lo = x
            else:
                hi = x
            nx = x - p / dp if dp else hi
            if not lo < nx < hi:
                nx = (lo + hi) / 2
            if nx == x:
                break
            x = nx
        p, dp, err = ev(x)
        if not dp:
            return None
        return x, 4 * (abs(p) + err) / abs(dp)


def _refine(n: _IPoly, a: Fraction, b: Fraction, bits: int) -> Fraction:
    """The point where exact bisection of the single simple root inside
    (a, b) stops: relative width 2^-bits, absolute floor 2^-(2*bits).

    A bracket straddling zero is first split there by one exact sign.  The
    final bracket is then computed from a floating approximation of the
    root (``_bisection_point``), with two exact signs that certify it in
    the usual case.  Any failed check falls back to exact bisection.
    """
    V = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (V // a.denominator), b.numerator * (V // b.denominator)
    fa = _sign_at(n, A, V)
    assert fa, "bracket endpoints must be non-roots"

    def side(M: int, W: int) -> int:
        s = _sign_at(n, M, W)
        return s and (1 if s == fa else -1)

    if _stops(A, B, V, bits):
        return Fraction(A + B, 2 * V)
    if A < 0 < B:
        # probing zero first makes a root at the origin exact in the output
        # and splits a sign-straddling bracket well regardless
        s = side(0, V)
        if s == 0:
            return Fraction(0)
        A, B = (0, B) if s > 0 else (A, 0)
    guess = _approximate(n, Fraction(A, V), Fraction(B, V), fa, bits)
    if guess is not None:
        r, t = (_mpf_to_fraction(v) for v in guess)
        x = _bisection_point(A, B, V, bits, r, t, side)
        if x is not None:
            return x
    return _bisect_exact(A, B, V, bits, side)


def _real_roots_fractions(
    coeffs: Sequence[Fraction], bits: int, cuts: Sequence[Fraction] = ()
) -> list[Fraction]:
    c = _strip(list(coeffs))
    if len(c) <= 1:
        raise DomainError("root isolation requires degree >= 1")
    deg = len(c) - 1
    chain = _sturm_chain(c)
    R = _cauchy_bound(c)
    total = _variations(chain, -R) - _variations(chain, R)
    if total != deg:
        raise PrecisionError(
            f"Sturm isolation found {total} distinct real roots for degree "
            f"{deg}; precision insufficient (or roots not real/simple)"
        )
    roots = [_refine(chain[0], a, b, bits) for a, b in _isolate(chain, -R, R, cuts)]
    return sorted(roots)


# ---------------------------------------------------------------------------
# mpf bridge
# ---------------------------------------------------------------------------


def _mpf_to_fraction(x) -> Fraction:
    if not isinstance(x, mpmath.mpf):
        with mpmath.workprec(max(mpmath.mp.prec, 64)):
            x = mpmath.mpf(x)
    if not mpmath.isfinite(x):
        raise DomainError(f"cannot convert non-finite value {x}")
    sign, man, exp, _ = x._mpf_
    man = int(man)
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumPoly:
    """Numeric image of a spectral polynomial at fixed q (degree-ascending
    mpf coefficients; q, t and the working precision are kept for reports)."""

    coeffs: tuple
    q: Fraction
    t1: Fraction
    t2: Fraction
    bits: int

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise DomainError("NumPoly requires degree >= 1")
        if self.coeffs[-1] == 0:
            raise PrecisionError("leading coefficient vanished at working precision")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_epoly(cls, ep: EPoly, q, t1, t2, bits: int = 512) -> "NumPoly":
        vals = ep.coefficient_values(q, t1, t2, bits=bits)
        return cls(tuple(vals), as_fraction(q), as_fraction(t1), as_fraction(t2), bits)


@dataclass(frozen=True)
class RootEstimate:
    """One numerically isolated root with its empirical log-q exponent."""

    value: object
    q: Fraction
    est_exponent: object


def find_real_roots(poly: NumPoly, seeds: Sequence | None = None) -> list:
    """All real roots of ``poly``, sorted ascending.

    ``seeds`` (approximate root values, e.g. predicted magnitudes) pre-cut
    the isolation interval between consecutive seeds.  Raises PrecisionError
    when the Sturm count over the Cauchy interval is not the full degree;
    the caller should retry with the polynomial evaluated at more bits.
    """
    fracs = [_mpf_to_fraction(v) for v in poly.coeffs]
    cuts: list[Fraction] = []
    if seeds:
        svals = sorted(_mpf_to_fraction(to_mpf(s)) for s in seeds)
        cuts = [
            (svals[i] + svals[i + 1]) / 2
            for i in range(len(svals) - 1)
            if svals[i] != svals[i + 1]
        ]
    roots = _real_roots_fractions(fracs, poly.bits, cuts)
    with mpmath.workprec(poly.bits):
        return [to_mpf(r) for r in roots]


def _prediction_seeds(p: HeunParams, predictions, q) -> list:
    with mpmath.workprec(128):
        at = AtQ(q, p.t1, p.t2)
        return [e.sign * e.prefactor_value(p.t1, p.t2) * at.qpow(e.d) for e in predictions]


def find_spectral_roots(
    p: HeunParams,
    q,
    bits: int = 512,
    *,
    epoly: EPoly | None = None,
    predictions: Sequence[PredictedRoot] | None = None,
) -> tuple[list, int]:
    """Roots of c_{N+1} at fixed q, doubling precision until isolation
    certifies degree-many distinct real roots.  Returns (roots, bits used).
    """
    ep = epoly if epoly is not None else spectral_polynomial(p)
    seeds = _prediction_seeds(p, predictions, q) if predictions else None
    b = bits
    while True:
        poly = NumPoly.from_epoly(ep, q, p.t1, p.t2, bits=b)
        try:
            return find_real_roots(poly, seeds), b
        except PrecisionError:
            if 2 * b > MAX_BITS:
                raise
            b *= 2


def _sign_groups(roots) -> tuple[list, list]:
    neg = sorted([r for r in roots if r < 0])  # most negative first
    pos = sorted([r for r in roots if r > 0], reverse=True)
    if len(neg) + len(pos) != len(roots):
        raise MatchingError("zero root cannot be sign-matched")
    return neg, pos


def estimate_exponents(
    p: HeunParams,
    q1,
    q2,
    bits: int = 512,
    *,
    epoly: EPoly | None = None,
    predictions: Sequence[PredictedRoot] | None = None,
) -> list[RootEstimate]:
    """Pair the roots at q1 and q2 by sign and magnitude rank and estimate
    each exponent as the two-point log-log slope.

    Returned estimates carry the q2 (smaller q) root value; order is
    negatives then positives, each by descending magnitude.
    """
    q1, q2 = as_fraction(q1), as_fraction(q2)
    if not 0 < q2 < q1 < 1:
        raise DomainError(f"need 0 < q2 < q1 < 1, got q1={q1}, q2={q2}")
    ep = epoly if epoly is not None else spectral_polynomial(p)
    roots1, b1 = find_spectral_roots(p, q1, bits, epoly=ep, predictions=predictions)
    roots2, b2 = find_spectral_roots(p, q2, bits, epoly=ep, predictions=predictions)
    n1, p1 = _sign_groups(roots1)
    n2, p2 = _sign_groups(roots2)
    if len(n1) != len(n2):
        raise MatchingError(
            f"matching ambiguous: sign pattern differs between q1 and q2 "
            f"root lists\n  q1={q1}: {roots1}\n  q2={q2}: {roots2}"
        )
    out = []
    with mpmath.workprec(max(b1, b2)):
        dlq = AtQ(q2, p.t1, p.t2).lq - AtQ(q1, p.t1, p.t2).lq
        for v1, v2 in zip(n1 + p1, n2 + p2):
            slope = (mpmath.log(abs(v2)) - mpmath.log(abs(v1))) / dlq
            out.append(RootEstimate(value=v2, q=q2, est_exponent=slope))
    return out


@dataclass
class MatchRow:
    estimate: Optional[RootEstimate]
    prediction: Optional[PredictedRoot]
    d_error: Optional[float]
    prefactor_ratio: object
    exponent_ok: bool
    prefactor_ok: Optional[bool]  # None when the prefactor is advisory only


@dataclass
class MatchReport:
    rows: list[MatchRow]
    ok: bool
    tol_exponent: float
    tol_prefactor: float


def _expand(predictions: Sequence[PredictedRoot]) -> list[PredictedRoot]:
    out = []
    for e in predictions:
        out.extend(
            [PredictedRoot(e.sign, e.d, e.prefactor, 1, e.sharp)] * e.multiplicity
        )
    return out


def _pref_mag(e: PredictedRoot) -> float:
    return 0.0 if isinstance(e.prefactor, str) else float(e.prefactor)


def match_predictions(
    estimates: Sequence[RootEstimate],
    predictions: Sequence[PredictedRoot],
    tol_exponent: float = 0.05,
    tol_prefactor: float = 0.01,
    *,
    t1=1,
    t2=1,
    enforce: str = "explicit",
) -> MatchReport:
    """Assign estimates to predictions by sign and exponent order.

    Every row reports the exponent error and the prefactor ratio
    value / (sign * prefactor * q^d).  The exponent tolerance always gates;
    the prefactor tolerance gates per ``enforce``: "explicit" (default)
    checks refined numeric prefactors only, "sharp" additionally checks the
    t1-backed limit constants (meaningful for small q, where subleading
    corrections sit below the tolerance), "none" reports ratios without
    gating.  Unmatched roots on either side produce failing rows, never
    silence.
    """
    if enforce not in ("explicit", "sharp", "none"):
        raise DomainError(f"unknown enforce mode {enforce!r}")
    expanded = _expand(predictions)
    pred_neg = sorted(
        (e for e in expanded if e.sign < 0), key=lambda e: (e.d, -_pref_mag(e))
    )
    pred_pos = sorted(
        (e for e in expanded if e.sign > 0), key=lambda e: (e.d, -_pref_mag(e))
    )
    est_neg = [e for e in estimates if e.value < 0]
    est_pos = [e for e in estimates if e.value > 0]
    est_neg.sort(key=lambda e: abs(e.value), reverse=True)
    est_pos.sort(key=lambda e: abs(e.value), reverse=True)

    rows: list[MatchRow] = []
    ok = True
    for ests, preds in ((est_neg, pred_neg), (est_pos, pred_pos)):
        for i in range(max(len(ests), len(preds))):
            est = ests[i] if i < len(ests) else None
            pred = preds[i] if i < len(preds) else None
            if est is None or pred is None:
                rows.append(MatchRow(est, pred, None, None, False, None))
                ok = False
                continue
            derr = abs(float(est.est_exponent) - float(pred.d))
            with mpmath.workprec(192):
                at = AtQ(est.q, t1, t2)
                scale = pred.sign * pred.prefactor_value(t1, t2) * at.qpow(pred.d)
                ratio = to_mpf(est.value) / scale
            exponent_ok = derr <= tol_exponent
            gate = (enforce == "sharp" and pred.sharp) or (
                enforce == "explicit" and not isinstance(pred.prefactor, str)
            )
            prefactor_ok = abs(ratio - 1) <= tol_prefactor if gate else None
            if not exponent_ok or prefactor_ok is False:
                ok = False
            rows.append(MatchRow(est, pred, derr, ratio, exponent_ok, prefactor_ok))
    return MatchReport(rows, ok, tol_exponent, tol_prefactor)


def real_roots_of_rational_poly(coeffs: Sequence, bits: int = 256) -> list:
    """Exact real roots of a rational-coefficient polynomial (all roots must
    be real and simple, else PrecisionError)."""
    fracs = [as_fraction(c) for c in coeffs]
    roots = _real_roots_fractions(fracs, bits)
    with mpmath.workprec(bits):
        return [to_mpf(r) for r in roots]
