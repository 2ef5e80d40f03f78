"""Real roots at extreme dynamic range, and root/prediction matching.

The roots of the spectral polynomial c_{N+1} at a fixed q come from its
three-term recursion (``find_spectral_roots``): plain counts of the roots
above a point isolate them, Newton on the recursion approximates them, and
counts run in interval arithmetic on the rows of the exact q certify them.
The polynomial itself is never formed.  Each root is the point sign
bisection to relative width 2^-bits would return, computed without running
it (``_bisection_point``): the final level of the bisection is read off the
Newton approximation, certified counts at the grid points just outside its
error bound certify that the root lies between them, and counts at the grid
points between, usually none, place it.  A failed check falls back to
bisection on the counts.

A polynomial given by its coefficients (``find_real_roots``, also bound as
``real_roots_of_rational_poly``) is solved exactly by Sturm isolation and
sign bisection: its coefficients (mpf, which are dyadic rationals, or
rationals) become Fractions, each member of its Sturm chain is scaled once
to integer coefficients, and the one exact evaluator (``_sign_at``) gives
the sign at x = u/v as the sign of sum n_i u^i v^(d-i).  A Sturm count
short of the degree raises PrecisionError.

Both isolators split brackets in one loop (``_split_brackets``): at the
midpoint, nudged off roots, for Sturm variations, and at the geometric mean
for the counts.

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
from .qmono import EVAL_GUARD_BITS, AtQ, as_fraction, to_mpf
from .spectral import (  # noqa: F401 -- perfbench/tracing.py wraps spectral_polynomial here
    EPoly,
    HeunParams,
    ctx_workprec,
    recursion_rows_at,
    spectral_polynomial,
)
from .ultra import PredictedRoot

__all__ = [
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

#: The precision a certified count doubles up to before it gives up.
MAX_BITS = 4096
#: Steps of the search R 2^(-2^j) for a point between 0 and the roots.
_ZERO_SEARCH_STEPS = 32


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


def _split_brackets(counts: dict, count, split) -> list[tuple]:
    """Brackets (a, b, counts[b]) between consecutive points, each holding
    one root, sorted.

    ``counts`` maps each point x to ``count(x)``, the number of roots above
    x up to a constant; a bracket holding more than one root is split at
    ``split(a, b)``, whose count joins ``counts``, until each holds one."""
    xs = sorted(counts)
    stack = list(zip(xs, xs[1:]))
    out = []
    while stack:
        a, b = stack.pop()
        k = counts[a] - counts[b]
        if k == 1:
            out.append((a, b, counts[b]))
        elif k > 1:
            x = split(a, b)
            if not a < x < b:
                raise PrecisionError(f"{k} roots in an unsplittable bracket")
            counts[x] = count(x)
            stack += [(a, x), (x, b)]
    return sorted(out)


def _isolate(
    chain: list[_IPoly], lo: Fraction, hi: Fraction, cuts: Sequence[Fraction]
) -> list[tuple]:
    """Split (lo, hi) into open intervals (a, b, m) holding exactly one
    distinct root of chain[0] each; lo, hi and every split point are
    non-roots, a split at the midpoint nudged off roots."""
    n = chain[0]
    nudge = (hi - lo) / 2 ** 24
    points = [lo, hi] + [_nonroot(n, cut, nudge) for cut in set(cuts) if lo < cut < hi]

    def variations(x: Fraction) -> int:
        return _variations(chain, x)

    def split(a: Fraction, b: Fraction) -> Fraction:
        return _nonroot(n, (a + b) / 2, (b - a) / 2 ** 24)

    return _split_brackets({x: variations(x) for x in points}, variations, split)


# ---------------------------------------------------------------------------
# refinement: the point exact bisection returns, by bisection or computed
# from a floating approximation and certified by exact sides
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


def _newton_in_bracket(ev, lo, hi, prec: int, start=None):
    """A floating approximation of the one root in the one-signed bracket
    (lo, hi), lo and hi nonzero mpf, as mpf ``(root, tol)`` with tol an
    estimate of its error, or None: the input of ``_bisection_point`` for
    a root of c_{N+1} (``_spectral_root``).

    ``ev(x)`` gives f(x), f'(x), the rounding noise of f(x) and whether x
    lies below the root.  Newton kept inside the bracket, from ``start``
    if it lies inside, else from the midpoint once geometric bisection has
    narrowed the bracket to within 2x, until f(x) is within its rounding
    noise.  A step that leaves the bracket is replaced by its geometric
    mean while it spans more than 2x, else by its midpoint.
    """
    sgn = 1 if hi > 0 else -1

    def wide(lo, hi):
        return max(abs(lo), abs(hi)) > 2 * min(abs(lo), abs(hi))

    if start is not None and lo < start < hi:
        x = start
    else:
        while wide(lo, hi):
            x = sgn * mpmath.sqrt(lo * hi)
            if ev(x)[3]:
                lo = x
            else:
                hi = x
        x = (lo + hi) / 2
    for _ in range(4 * prec):  # bisection alone would need about prec
        p, dp, err, below = ev(x)
        if abs(p) <= err:
            break  # x is a root within the rounding noise of p
        if below:
            lo = x
        else:
            hi = x
        nx = x - p / dp if dp else hi
        if not lo < nx < hi:
            nx = sgn * mpmath.sqrt(lo * hi) if wide(lo, hi) else (lo + hi) / 2
        if nx == x:
            break
        x = nx
    else:
        p, dp, err, _ = ev(x)
    if not dp:
        return None
    return x, 4 * (abs(p) + err) / abs(dp)


def _refine(n: _IPoly, a: Fraction, b: Fraction, bits: int) -> Fraction:
    """The point where exact bisection of the single simple root inside
    (a, b) stops: relative width 2^-bits, absolute floor 2^-(2*bits).  A
    bracket straddling zero is first split there by one exact sign."""
    V = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (V // a.denominator), b.numerator * (V // b.denominator)
    fa = _sign_at(n, A, V)
    assert fa, "bracket endpoints must be non-roots"

    def side(M: int, W: int) -> int:
        s = _sign_at(n, M, W)
        return s and (1 if s == fa else -1)

    if A < 0 < B and not _stops(A, B, V, bits):
        # probing zero first makes a root at the origin exact in the output
        # and splits a sign-straddling bracket well regardless
        s = side(0, V)
        if s == 0:
            return Fraction(0)
        A, B = (0, B) if s > 0 else (A, 0)
    return _bisect_exact(A, B, V, bits, side)


def _real_roots_fractions(
    coeffs: Sequence[Fraction], bits: int, cuts: Sequence[Fraction] = ()
) -> list[Fraction]:
    """The roots of ``coeffs`` (a nonzero leading coefficient, degree >= 1)
    refined to relative width 2^-bits, sorted ascending."""
    deg = len(coeffs) - 1
    chain = _sturm_chain(list(coeffs))
    R = _cauchy_bound(coeffs)
    total = _variations(chain, -R) - _variations(chain, R)
    if total != deg:
        raise PrecisionError(
            f"Sturm isolation found {total} distinct real roots for degree "
            f"{deg}; precision insufficient (or roots not real/simple)"
        )
    roots = [_refine(chain[0], a, b, bits) for a, b, _ in _isolate(chain, -R, R, cuts)]
    return sorted(roots)


# ---------------------------------------------------------------------------
# mpf bridge
# ---------------------------------------------------------------------------


def _mpf_to_fraction(x) -> Fraction:
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
class RootEstimate:
    """One numerically isolated root with its empirical log-q exponent."""

    value: object
    q: Fraction
    est_exponent: object


def find_real_roots(coeffs: Sequence, bits: int, seeds: Sequence | None = None) -> list:
    """All real roots of the polynomial with degree-ascending ``coeffs``,
    refined to relative width 2^-bits and sorted ascending, as mpf.

    The coefficients are mpf (an image at fixed q) or rationals, both
    converted exactly.  ``seeds`` (approximate root values, e.g. predicted
    magnitudes) pre-cut the isolation interval between consecutive seeds.
    Raises DomainError below degree 1, and PrecisionError when the leading
    coefficient is zero or the Sturm count over the Cauchy interval is not
    the full degree; for an image, the caller should retry with the
    polynomial evaluated at more bits.
    """
    if len(coeffs) < 2:
        raise DomainError("root isolation requires degree >= 1")
    fracs = [_mpf_to_fraction(c) if isinstance(c, mpmath.mpf) else as_fraction(c) for c in coeffs]
    if not fracs[-1]:
        raise PrecisionError("leading coefficient vanished at working precision")
    cuts: list[Fraction] = []
    if seeds:
        svals = sorted(_mpf_to_fraction(to_mpf(s)) for s in seeds)
        cuts = [
            (svals[i] + svals[i + 1]) / 2
            for i in range(len(svals) - 1)
            if svals[i] != svals[i + 1]
        ]
    roots = _real_roots_fractions(fracs, bits, cuts)
    with mpmath.workprec(bits):
        return [to_mpf(r) for r in roots]


# multiplicity_prefactors solves its s-polynomial by this name, so that
# perfbench/tracing.py times it apart from find_real_roots
real_roots_of_rational_poly = find_real_roots


def _prediction_seeds(p: HeunParams, predictions, q) -> list:
    with mpmath.workprec(128):
        at = AtQ(q, p.t1, p.t2)
        return [e.sign * e.prefactor_value(p.t1, p.t2) * at.qpow(e.d) for e in predictions]


# ---------------------------------------------------------------------------
# spectral roots from the three-term recursion
#
# derive enforces t1, t2 > 0, beta < 1 and alpha2 - alpha1 < 1, so A_n, B_n
# and D_n are positive for every q in (0, 1) and the recursion
# A_n c_n = (B_n E + C_n) c_{n-1} - D_n c_{n-2} is a Favard recurrence:
# c_{N+1} has N+1 simple real roots, and the number of negative ratios
# c_n / c_{n-1} is the number of roots above E (Barth, Martin & Wilkinson,
# Numer. Math. 9 (1967)).  With s_n = A_n c_n / c_{n-1} that count runs
#     s_n = B_n E + C_n - G_n / s_{n-1},   G_n = D_n A_{n-1},  G_1 = 0.
# ---------------------------------------------------------------------------


def _ratio_rows(rows) -> list:
    """(B_n, C_n, G_n) of the count, in the precision current."""
    out, prev_A = [], 0
    for A, B, C, D in rows:
        out.append((B, C, D * prev_A))
        prev_A = A
    return out


def _count(ratio, x) -> int:
    """The number of roots above x by the ratio recursion in mpf.  A zero
    s_n is moved off zero by one unit of its terms: the count only guides
    the search; certified counts decide."""
    above, s = 0, 1
    for B, C, G in ratio:
        bx = B * x
        s = bx + C - G / s
        if s < 0:
            above += 1
        elif not s:
            s = mpmath.ldexp(abs(bx) + C, -mpmath.mp.prec)
    return above


def _certified_count(ratio, x) -> int | None:
    """The count of ``_count`` in interval arithmetic, or None when an s_n
    interval contains 0."""
    above, s = 0, 1
    for B, C, G in ratio:
        s = B * x + C - G / s
        if s.b < 0:
            above += 1
        elif not s.a > 0:
            return None
    return above


def _newton_rows(rows) -> list:
    """(B_n/A_n, C_n/A_n, D_n/A_n) of Newton, in the precision current."""
    return [(B / A, C / A, D / A) for A, B, C, D in rows]


def _newton_eval(newton_rows, x):
    """c_{N+1}(x), its derivative, and a bound on the rounding noise of
    c_{N+1}(x): the recursion run on absolute values."""
    zero, one = mpmath.mpf(0), mpmath.mpf(1)
    c2, c1, d2, d1, m2, m1 = zero, one, zero, zero, zero, one
    for b, g, e in newton_rows:
        bx = b * x
        f = bx + g
        c1, c2 = f * c1 - e * c2, c1
        d1, d2 = b * c2 + f * d1 - e * d2, d1
        m1, m2 = (abs(bx) + g) * m1 + e * m2, m1
    return c1, d1, mpmath.ldexp(m1 * len(newton_rows), 4 - mpmath.mp.prec)


def _certified_counter(p: HeunParams, q: Fraction, bits: int):
    """``count(M, W)``: the certified number of roots above E = M/W, or None
    when E is a root.

    The ratio recursion runs in mpmath.iv on rows enclosing those of the
    exact q, at bits + EVAL_GUARD_BITS.  A count is certified when every
    A_n, B_n, D_n interval is positive and no s_n interval contains 0;
    otherwise that point is redone at doubled bits, up to MAX_BITS.  A point
    where only s_{N+1} still holds 0 there is a root to within that
    precision (an exact one when q-powers are rational), and count returns
    None; any other uncertified point raises PrecisionError."""
    levels = [bits]
    while 2 * levels[-1] <= MAX_BITS:
        levels.append(2 * levels[-1])
    ratios: dict = {}

    def ratio_at(b: int):
        if b not in ratios:
            rows = recursion_rows_at(p, q, b + EVAL_GUARD_BITS, mpmath.iv)
            positive = all(A.a > 0 and B.a > 0 and D.a > 0 for A, B, _, D in rows)
            with ctx_workprec(mpmath.iv, b + EVAL_GUARD_BITS):
                ratios[b] = _ratio_rows(rows) if positive else None
        return ratios[b]

    def count(M: int, W: int) -> int | None:
        for b in levels:
            ratio = ratio_at(b)
            if ratio is None:
                continue
            with ctx_workprec(mpmath.iv, b + EVAL_GUARD_BITS):
                x = mpmath.iv.mpf(M) / W
                n = _certified_count(ratio, x)
                if n is not None:
                    return n
                if b == levels[-1] and _certified_count(ratio[:-1], x) is not None:
                    return None  # only s_{N+1} holds 0: E is the root
        with mpmath.workprec(64):
            where = mpmath.nstr(mpmath.mpf(M) / W, 20)
        raise PrecisionError(
            f"the root count at E = {where}, q = {q} is not certified at "
            f"{levels[-1]} bits"
        )

    return count


def _gershgorin_bound(ratio):
    """A power of two above twice the Gershgorin bound of the symmetrised
    Jacobi matrix: diagonal -C_n/B_n, off-diagonal sqrt(G_{n+1}/(B_n B_{n+1}))."""
    off = [mpmath.mpf(0)]
    for (B0, _, _), (B1, _, G) in zip(ratio, ratio[1:]):
        off.append(mpmath.sqrt(G / (B0 * B1)))
    off.append(mpmath.mpf(0))
    bound = max(C / B + off[i] + off[i + 1] for i, (B, C, _) in enumerate(ratio))
    return mpmath.ldexp(1, mpmath.mag(bound) + 1)


def _isolate_by_counts(ratio, seeds) -> list[tuple]:
    """Brackets (a, b, m), a < b of one sign, each holding one root of
    c_{N+1}, m the number of roots above b, sorted; by plain counts.

    The points are +-R (Gershgorin), 0, the largest R 2^(-2^j) of each sign
    with no root between it and 0, and the midpoints between consecutive
    distinct seeds; a bracket holding more than one root is split at its
    geometric mean until each holds one."""
    n = len(ratio)
    R = _gershgorin_bound(ratio)
    zero = mpmath.mpf(0)
    counts = {x: _count(ratio, x) for x in (-R, zero, R)}
    if (counts[-R], counts[R]) != (n, 0):
        raise PrecisionError(f"counts {counts[-R]}, {counts[R]} at -R, R for degree {n}")
    c0 = counts[zero]
    for sgn, none_of_sign in ((1, c0 == 0), (-1, c0 == n)):
        if none_of_sign:
            continue
        for j in range(_ZERO_SEARCH_STEPS):
            x = sgn * mpmath.ldexp(R, -(2 ** j))
            counts[x] = _count(ratio, x)
            if counts[x] == c0:
                break
        else:
            raise PrecisionError(f"a root of sign {sgn} is not separated from 0")
    seeds = sorted(seeds)
    for a, b in zip(seeds, seeds[1:]):
        x = (a + b) / 2
        if a != b and -R < x < R:
            counts[x] = _count(ratio, x)
    out = _split_brackets(
        counts,
        lambda x: _count(ratio, x),
        lambda a, b: mpmath.sqrt(a * b) * (1 if b > 0 else -1),
    )
    if len(out) != n:
        raise PrecisionError(f"count isolation found {len(out)} roots for degree {n}")
    return out


def _spectral_root(newton_rows, count, a, b, m: int, bits: int, start) -> Fraction:
    """The point where bisection of (a, b) for the root with m roots above
    it stops at relative width 2^-bits, every side decided by a certified
    count.  Computed by ``_bisection_point`` from a Newton approximation
    (from ``start``, if given); exact bisection on the counts if a check
    fails."""
    fa, fb = _mpf_to_fraction(a), _mpf_to_fraction(b)
    V = math.lcm(fa.denominator, fb.denominator)
    A, B = fa.numerator * (V // fa.denominator), fb.numerator * (V // fb.denominator)

    def side(M: int, W: int) -> int:
        n = count(M, W)
        return 0 if n is None else 1 if n > m else -1

    def ev(x):
        # below the root, c_{N+1} has the sign (-1)^(m+1) of its m+1 roots above
        c, dc, err = _newton_eval(newton_rows, x)
        return c, dc, err, (c < 0) if m % 2 == 0 else (c > 0)

    if not _stops(A, B, V, bits):
        guess = _newton_in_bracket(ev, a, b, mpmath.mp.prec, start)
        if guess is not None:
            r, t = (_mpf_to_fraction(v) for v in guess)
            x = _bisection_point(A, B, V, bits, r, t, side)
            if x is not None:
                return x
    if side(A, V) <= 0 or side(B, V) >= 0:
        raise PrecisionError(f"the isolating bracket of root {m + 1} is not certified")
    return _bisect_exact(A, B, V, bits, side)


def find_spectral_roots(
    p: HeunParams,
    q,
    bits: int = 512,
    *,
    epoly: EPoly | None = None,
    predictions: Sequence[PredictedRoot] | None = None,
) -> tuple[list, int]:
    """Roots of c_{N+1} at fixed q, sorted ascending, from the three-term
    recursion.  Returns (roots, bits).

    Each root is the point where bisection of its isolating bracket to
    relative width 2^-bits stops, with every side certified by an
    interval count of the true c_{N+1} at q; a count that stays
    uncertified at MAX_BITS raises PrecisionError.  ``predictions``, when
    given, seed the isolation.  ``epoly`` is not read: the polynomial
    itself is not needed.
    """
    q = as_fraction(q)
    prec = bits + EVAL_GUARD_BITS
    rows = recursion_rows_at(p, q, prec)
    count = _certified_counter(p, q, bits)
    seeds = _prediction_seeds(p, predictions, q) if predictions else ()
    with mpmath.workprec(prec):
        newton_rows = _newton_rows(rows)
        roots = []
        for a, b, m in _isolate_by_counts(_ratio_rows(rows), seeds):
            inside = {s for s in seeds if a < s < b}
            start = inside.pop() if len(inside) == 1 else None
            roots.append(_spectral_root(newton_rows, count, a, b, m, bits, start))
    with mpmath.workprec(bits):
        return [to_mpf(r) for r in roots], bits


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
    roots1, _ = find_spectral_roots(p, q1, bits, predictions=predictions)
    roots2, _ = find_spectral_roots(p, q2, bits, predictions=predictions)
    n1, p1 = _sign_groups(roots1)
    n2, p2 = _sign_groups(roots2)
    if len(n1) != len(n2):
        raise MatchingError(
            f"matching ambiguous: sign pattern differs between q1 and q2 "
            f"root lists\n  q1={q1}: {roots1}\n  q2={q2}: {roots2}"
        )
    out = []
    with mpmath.workprec(bits):
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
