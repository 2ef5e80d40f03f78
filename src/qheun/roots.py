"""Real roots at extreme dynamic range, and root/prediction matching.

The roots of the spectral polynomial c_{N+1} at a fixed q come from its
three-term recursion (``find_spectral_roots``): plain counts of the roots
above a point isolate them, Newton on the recursion approximates them, and
certified counts on boxes around the rows of the exact q certify them.
The polynomial itself is never formed.  One table serves all three, the
memoised spectral.fixed_q(p, q, P) of each parameter set, q and precision,
built from integer enclosures of each q-power: its Favard rows on the
recursion's boxes (``favard_boxes``) for the certified counts' ratio
recursion, and on their lower ends (``points``, the one point table, which
the twisted solve reads too) for the plain counts and Newton, which run
one point recursion (``_point_recursion``).  Both loops are inline kernels
on CPython int locals, on the table's flat int rows, and each step repeats
the qheun.dyadic operation it stands for: the point recursion that of
Dyadic points truncated to the working precision, which only guide the
search, and the certified counts that of Box intervals rounded outward.
The rest of the search (the Gershgorin bound on ``points``' Favard rows,
the isolation's points and splits, the seeds, Newton's bracket loop) runs
on Dyadic objects at the rows' precision.  The seeds are the predicted roots
sign * prefactor * q^d at that precision, from the table's memoised
Box.qpow boxes (``_predicted_root``, which also gives the matching its
ratios at 192 bits from boxes of its own); mpf enters only as the returned
roots, each built from its (m, e) by from_man_exp.

A seeded root pays only for what decides it: one Newton run and two
certified counts.  The isolation looks for each sign's point near 0 at a
quarter of its smallest seed first and counts each distinct point once
(``_isolate_by_counts``); Newton computes its rounding noise only where
its stop test can pass (``_newton_eval``); and where Newton's error
estimate is wider than the 2^-bits grid, as in R32's balanced clusters
and at every root near q = 1, Newton runs once more at the precision the
root needs (``_spectral_root``), and that precision is the root's one: its
certified counts start on the table Newton reran on, so a root that reran
takes two counts too.

Each returned root is the true root rounded to nearest at ``bits`` bits,
ties to even, whatever the isolation points and seeds.  One routine,
``_rounded_root``, serves both solvers: sides narrow the isolating
bracket, at probes and then by halving, until one rounding cell holds it,
all on ints, each cell (``_cell``) ints times one power of two.  Here the
sides are certified counts and the probes r -+ t of a Newton
approximation r with error estimate t: usually two counts per root.

A polynomial given by its coefficients (``find_real_roots``, also bound as
``real_roots_of_rational_poly``) is solved exactly by Sturm isolation and
the same rounding, every side an exact sign: its coefficients (mpf, which
are dyadic rationals, or rationals) are scaled once to integers, its Sturm
chain is their primitive remainder sequence (``_sturm_chain``), and the
one exact evaluator (``_sign_at``) gives the sign at x = u/v as the sign
of sum n_i u^i v^(d-i).  A Sturm count short of the degree raises
PrecisionError.

Both isolators split brackets in one loop (``_split_brackets``): at the
midpoint, nudged off roots, for Sturm variations, and at the geometric mean
(``_geometric_mean``, an integer square root) for the counts.

On top of that sit the two-q exponent estimator (log-log slope per matched
root) and the prediction matcher used by the verification pipeline.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

import mpmath
from mpmath.libmp import from_man_exp

from .dyadic import Box, Dyadic
from .errors import DomainError, MatchingError, PrecisionError
from .qmono import EVAL_GUARD_BITS, as_fraction, to_mpf
# perfbench/tracing.py wraps spectral_polynomial here; perfbench/selftest.py checks it
from .spectral import (  # noqa: F401
    EPoly,
    FixedQ,
    HeunParams,
    fixed_q,
    spectral_polynomial,
)

if TYPE_CHECKING:  # ultra imports this module
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


def _sturm_chain(n: _IPoly) -> list[_IPoly]:
    """The Sturm chain of n on integers, the primitive remainder sequence:
    each member after n is Euclid's times a positive factor, so it has the
    same signs.  Pseudo-division scales the dividend by |lc| of the divisor
    before each step; the derivative and each negated remainder are divided
    by their content.  The chain ends at a constant, or at the gcd of a
    repeated root, where variation counts stay valid."""
    chain, r, sign = [n], [i * a for i, a in enumerate(n)][1:], 1
    while r:
        g = sign * math.gcd(*r)
        chain.append([a // g for a in r])
        r, b, sign = chain[-2][:], chain[-1], -1
        db, lb = len(b) - 1, b[-1]
        m, s = abs(lb), (lb > 0) - (lb < 0)
        while r and (len(r) > db or not r[-1]):  # below b's degree, stripped
            f = r.pop() * s
            if f:
                shift = len(r) - db
                r = [m * a for a in r]
                for i in range(db):
                    r[shift + i] -= f * b[i]
    return chain


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


def _isolate(chain: list[_IPoly], lo: Fraction, hi: Fraction) -> list[tuple]:
    """Split (lo, hi) into open intervals (a, b, m) holding exactly one
    distinct root of chain[0] each; lo, hi and every split point are
    non-roots, a split at the midpoint nudged off roots."""
    n = chain[0]

    def variations(x: Fraction) -> int:
        return _variations(chain, x)

    def split(a: Fraction, b: Fraction) -> Fraction:
        return _nonroot(n, (a + b) / 2, (b - a) / 2 ** 24)

    return _split_brackets({x: variations(x) for x in (lo, hi)}, variations, split)


# ---------------------------------------------------------------------------
# refinement: the root rounded to nearest at ``bits`` bits, by sides that
# narrow its bracket until one rounding cell holds it
# ---------------------------------------------------------------------------


def _cell(n: int, d: int, bits: int) -> tuple[int, int, int, int]:
    """(G, L, U, k) for y = n/d, d > 0: y rounded to nearest at ``bits``
    bits, ties to even, is G 2^k, and L 2^k <= G 2^k <= U 2^k are the ends
    of the cell that rounds to it, ties that round to it when its mantissa
    is even.  An end sits half a spacing from the rounded y; at the bottom
    of a binade, where the spacing below halves, the end below it sits a
    quarter spacing away.  The ends are dyadic whatever y is, so the cell
    is ints times one power of two.  0's cell is 0."""
    a = abs(n)
    if not a:
        return 0, 0, 0, 0
    e = a.bit_length() - d.bit_length()
    e -= (a << max(-e, 0)) < (d << max(e, 0))  # 2^e <= a/d < 2^(e+1)
    s = e + 1 - bits  # the spacing 2^s of the binade [2^e, 2^(e+1))
    num, den = (a << -s, d) if s < 0 else (a, d << s)
    m, r = divmod(num, den)
    m += 2 * r > den or 2 * r == den and m & 1  # to nearest, ties to even
    if m >> bits:  # rounded up to 2^(e+1), the bottom of the next binade
        m, s = m >> 1, s + 1
    G = m << 2  # in units of 2^(s-2)
    L = G - (1 if m == 1 << (bits - 1) else 2)
    return (G, L, G + 2, s - 2) if n > 0 else (-G, -G - 2, -L, s - 2)


def _rounded_root(A: int, B: int, V: int, bits: int, side, probes=()) -> tuple[int, int] | None:
    """The one root x in (A/V, B/V) rounded to nearest at ``bits`` bits,
    ties to even (what ``+x`` gives at workprec(bits)), as (m, e) for
    m 2^e, or None when an end of the bracket that no side replaced fails
    its check at the end.

    ``side(M, W)`` says where x lies against M/W: +1 above, -1 below, 0 at
    it.  Each side narrows the bracket: at the ``probes`` (M, W) inside
    it; once at 0 if the bracket reaches it, which keeps a root at 0 exact
    and stops halving towards an end at 0 that does not hold x; at its
    midpoint while it is wider than a rounding cell; then at the end of
    its midpoint's cell (``_cell``) inside it, until one cell holds it.
    The loop runs on ints alone.  A poor probe costs sides, never another
    path."""
    A0, B0, V0 = A, B, V
    moved = 0  # bit 1: a side replaced A, bit 2: B
    todo = list(probes)[::-1]
    zero = True
    while True:
        if todo:
            M, W = todo.pop()
            if not A * W < M * V < B * W:
                continue
        elif zero and A <= 0 <= B:
            M, W, zero = 0, V, False
        elif (B - A) << (bits - 1) > (A if A >= 0 else -B):
            M = A + B
            if M & 1:
                A, B, V = A << 1, B << 1, V << 1
            else:
                M >>= 1
            W = V
        else:
            G, lo, up, k = _cell(A + B, V << 1, bits)
            u, w = max(k, 0), max(-k, 0)  # is (lo 2^u, up 2^u) / 2^w around (A, B) / V?
            lo_in = (lo * V) << u <= A << w
            if lo_in and B << w <= (up * V) << u:
                x = G, k
                break
            M, W = (up if lo_in else lo) << u, 1 << w
        s = side(M, W)
        if not s:
            G, _, _, k = _cell(M, W, bits)
            x = G, k
            break
        if W != V:
            L = math.lcm(V, W)
            A, B, M, V = A * (L // V), B * (L // V), M * (L // W), L
        if s > 0:
            A, moved = M, moved | 1
        else:
            B, moved = M, moved | 2
    if not moved & 1 and side(A0, V0) <= 0 or not moved & 2 and side(B0, V0) >= 0:
        return None
    return x


def _geometric_mean(lo: Dyadic, hi: Dyadic) -> Dyadic:
    """sqrt(lo hi) truncated to P bits, with the sign that lo and hi
    share: the integer square root of their product, shifted to 2P - 1 or
    2P bits at an even exponent."""
    m, e, P = lo.m * hi.m, lo.e + hi.e, lo.P
    s = 2 * P - m.bit_length()
    s -= (e - s) & 1
    r = math.isqrt(m << s if s >= 0 else m >> -s)
    return Dyadic(-r if hi.m < 0 else r, (e - s) // 2, P)


def _newton_in_bracket(ev, lo: Dyadic, hi: Dyadic, P: int, start=None):
    """A floating approximation of the one root in the one-signed bracket
    (lo, hi), lo and hi nonzero Dyadic at P bits, as Dyadic ``(root, tol)``
    with tol an estimate of its error, or None: r -+ tol are the probes of
    ``_rounded_root`` for a root of c_{N+1} (``_spectral_root``, which
    reruns it at more bits where tol is wider than the rounding grid).

    ``ev(x, last)`` gives f(x), f'(x), the rounding noise of f(x) as
    ``_newton_eval`` asks for it with ``last`` (else None) and whether x
    lies below the root.  Newton kept inside the bracket, from ``start``
    if it lies inside, else from the midpoint once geometric bisection,
    which reads no noise, has narrowed the bracket to within 2x, until
    f(x) is within its rounding noise.  The noise is asked for at the
    first step and then by the last noise computed, wherever it can stop
    the loop, so the loop stops where noise at every step would stop it.
    A step that leaves the bracket is replaced by its geometric mean while
    it spans more than 2x, else by its midpoint.
    """
    neg = hi.m < 0

    def wide(lo, hi):  # max(|lo|, |hi|) > 2 min(|lo|, |hi|)
        return lo < hi.ldexp(1) if neg else lo.ldexp(1) < hi

    if start is not None and lo < start < hi:
        x = start
    else:
        while wide(lo, hi):
            x = _geometric_mean(lo, hi)
            if ev(x, False)[3]:
                lo = x
            else:
                hi = x
        x = (lo + hi).ldexp(-1)
    last = None
    for _ in range(4 * P):  # bisection alone would need about P
        p, dp, err, below = ev(x, last)
        if err is not None:
            if not err < abs(p):
                break  # x is a root within the rounding noise of p
            last = err, x
        if below:
            lo = x
        else:
            hi = x
        nx = x - p / dp if dp.m else hi
        if not lo < nx < hi:
            nx = _geometric_mean(lo, hi) if wide(lo, hi) else (lo + hi).ldexp(-1)
        if not (nx - x).m:
            break
        x, err = nx, None
    if err is None:  # a new x after 4P steps, or a null step where no noise was asked
        p, dp, err, _ = ev(x, None)
    if not dp.m:
        return None
    return x, (abs(p) + err).ldexp(2) / abs(dp)


def _refine(n: _IPoly, a: Fraction, b: Fraction, bits: int) -> tuple[int, int]:
    """The single simple root of n inside (a, b), a Sturm bracket, rounded
    to nearest at ``bits`` bits (``_rounded_root``), as (m, e) for m 2^e,
    every side an exact sign."""
    V = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (V // a.denominator), b.numerator * (V // b.denominator)
    fa = _sign_at(n, A, V)
    assert fa, "bracket endpoints must be non-roots"

    def side(M: int, W: int) -> int:
        s = _sign_at(n, M, W)
        return s and (1 if s == fa else -1)

    x = _rounded_root(A, B, V, bits, side)
    assert x is not None, "a Sturm bracket holds its root"
    return x


def _real_roots(coeffs: Sequence[Fraction], bits: int) -> list[tuple[int, int]]:
    """The roots of ``coeffs`` (a nonzero leading coefficient, degree >= 1)
    rounded to nearest at ``bits`` bits, sorted ascending, each as (m, e)
    for m 2^e."""
    deg = len(coeffs) - 1
    chain = _sturm_chain(_integer_scaled(coeffs))
    R = _cauchy_bound(coeffs)
    total = _variations(chain, -R) - _variations(chain, R)
    if total != deg:
        raise PrecisionError(
            f"Sturm isolation found {total} distinct real roots for degree "
            f"{deg}; precision insufficient (or roots not real/simple)"
        )
    return [_refine(chain[0], a, b, bits) for a, b, _ in _isolate(chain, -R, R)]


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


def find_real_roots(coeffs: Sequence, bits: int) -> list:
    """All real roots of the polynomial with degree-ascending ``coeffs``,
    each the true root rounded to nearest at ``bits`` bits, ties to even,
    sorted ascending, as mpf.

    The coefficients are mpf (an image at fixed q) or rationals, both
    converted exactly.  Raises DomainError below degree 1, and
    PrecisionError when the leading coefficient is zero or the Sturm count
    over the Cauchy interval is not the full degree; for an image, the
    caller should retry with the polynomial evaluated at more bits.
    """
    if len(coeffs) < 2:
        raise DomainError("root isolation requires degree >= 1")
    fracs = [_mpf_to_fraction(c) if isinstance(c, mpmath.mpf) else as_fraction(c) for c in coeffs]
    if not fracs[-1]:
        raise PrecisionError("leading coefficient vanished at working precision")
    return [mpmath.mp.make_mpf(from_man_exp(m, e)) for m, e in _real_roots(fracs, bits)]


# multiplicity_prefactors solves its s-polynomial by this name, so that
# perfbench/tracing.py times it apart from find_real_roots
real_roots_of_rational_poly = find_real_roots


def _predicted_root(e: PredictedRoot, prefactor: Box, qd: Box) -> Dyadic:
    """The predicted root sign * prefactor * q^d from Box.qpow boxes around
    the prefactor and q^d: the lower end of their product, signed."""
    b = prefactor * qd
    return Dyadic(e.sign * b.lo, b.e, b.P)


def _q_power(fq: FixedQ, d: Fraction) -> Box:
    """q^d from fq's memo: under the int key d D of the rows' powers when
    d D is an int, else under the pair (q, d)."""
    a = d * fq.D
    return fq.qp(a.numerator) if a.denominator == 1 else fq.tp(fq.q, d)


def _prediction_seeds(fq: FixedQ, predictions) -> list[Dyadic]:
    """The distinct predicted roots at fq's q and precision, sorted: each
    ``_predicted_root`` of the boxes that fq's memo holds."""
    t1, t2 = fq.p.t1, fq.p.t2
    seeds = sorted(_predicted_root(e, fq.tp(*e.prefactor_power(t1, t2)), _q_power(fq, e.d))
                   for e in predictions)
    return seeds[:1] + [b for a, b in zip(seeds, seeds[1:]) if a < b]


# ---------------------------------------------------------------------------
# spectral roots from the three-term recursion
#
# derive enforces t1, t2 > 0, beta < 1 and alpha2 - alpha1 < 1, so A_n, B_n
# and D_n are positive for every q in (0, 1) and the recursion
# A_n c_n = (B_n E + C_n) c_{n-1} - D_n c_{n-2} is a Favard recurrence:
# c_{N+1} has N+1 simple real roots.  Its multiple w_n = A_1 ... A_n c_n runs
#     w_n = (B_n E + C_n) w_{n-1} - G_n w_{n-2},   G_n = D_n A_{n-1},  G_1 = 0,
# and the roots above E are the sign changes of w_0 .. w_{N+1}, the negative
# s_n = w_n / w_{n-1} = B_n E + C_n - G_n / s_{n-1} (Barth, Martin &
# Wilkinson, Numer. Math. 9 (1967)).  As A_1 ... A_{N+1} > 0 does not depend
# on E, Newton on w_{N+1} is Newton on c_{N+1}.
# ---------------------------------------------------------------------------


# The two recursion loops below are inline kernels: a Dyadic is a pair of
# int locals (m, e), a Box a triple (lo, hi, e), and each step repeats the
# alignment, operation and cut of the dyadic operation it stands for, so
# they return what the loops on those objects return, bit for bit, with no
# object built and no function called per operation.  Every Dyadic cut reads
#     k = m.bit_length() - P
#     if k > 0: m, e = m >> k, e + k
# and every Box cut the same with an outward (floor, ceiling) shift.


def _point_recursion(rows, x: Dyadic, mode: int):
    """The Favard recursion at x on the flat Dyadic rows (B_n, C_n, G_n)
    that begin FixedQ.points' rows, truncating.  Mode 0 gives the number
    of sign changes of w_0 .. w_{N+1}, a w_n that truncates to 0 counting
    as positive; mode 1 w_{N+1} and its derivative; mode 2 the rounding
    noise of w_{N+1}, a_{N+1} (N+1) 2^(4-P) of the recursion on absolute
    values a_n = (|B x| + C) a_{n-1} + G a_{n-2}.  As B, C, G >= 0, a_{N+1}
    is a polynomial in |x| with nonnegative coefficients, so a_{N+1}(x) <=
    a_{N+1}(y) max(1, |x/y|)^(N+1), to within the cuts' relative 2^(1-P)
    a step."""
    P, xm, xe, changes = x.P, x.m, x.e, 0
    cm, ce, pm, pe = 1, 0, 0, 0  # w_{n-1}, w_{n-2}; a_{n-1}, a_{n-2} in mode 2
    dm, de, qm, qe = 0, 0, 0, 0  # their derivatives
    for Bm, Be, Cm, Ce, Gm, Ge, _, _, _, _ in rows:
        um, ue = Bm * xm, Be + xe  # u = B x
        k = um.bit_length() - P
        if k > 0: um, ue = um >> k, ue + k
        if mode == 2:  # a_n = (|u| + C) a_{n-1} + G a_{n-2}; |u| needs no cut
            um = -um if um < 0 else um
            k = Ce - ue
            if k >= 0: tm, te = um + (Cm << k), ue
            else: tm, te = (um << -k) + Cm, Ce
            k = tm.bit_length() - P
            if k > 0: tm, te = tm >> k, te + k
            tm, te = tm * cm, te + ce
            k = tm.bit_length() - P
            if k > 0: tm, te = tm >> k, te + k
            vm, ve = Gm * pm, Ge + pe
            k = vm.bit_length() - P
            if k > 0: vm, ve = vm >> k, ve + k
            k = ve - te
            if k >= 0: tm += vm << k
            else: tm, te = (tm << -k) + vm, ve
            k = tm.bit_length() - P
            if k > 0: tm, te = tm >> k, te + k
            pm, pe, cm, ce = cm, ce, tm, te
            continue
        k = Ce - ue  # f = u + C
        if k >= 0: fm, fe = um + (Cm << k), ue
        else: fm, fe = (um << -k) + Cm, Ce
        k = fm.bit_length() - P
        if k > 0: fm, fe = fm >> k, fe + k
        # w_n = f w_{n-1} - G w_{n-2}
        tm, te = fm * cm, fe + ce
        k = tm.bit_length() - P
        if k > 0: tm, te = tm >> k, te + k
        vm, ve = Gm * pm, Ge + pe
        k = vm.bit_length() - P
        if k > 0: vm, ve = vm >> k, ve + k
        k = ve - te
        if k >= 0: tm -= vm << k
        else: tm, te = (tm << -k) - vm, ve
        k = tm.bit_length() - P
        if k > 0: tm, te = tm >> k, te + k
        changes += (tm < 0) != (cm < 0)
        pm, pe, cm, ce = cm, ce, tm, te
        if not mode: continue
        # w'_n = B w_{n-1} + f w'_{n-1} - G w'_{n-2}
        tm, te = Bm * pm, Be + pe
        k = tm.bit_length() - P
        if k > 0: tm, te = tm >> k, te + k
        vm, ve = fm * dm, fe + de
        k = vm.bit_length() - P
        if k > 0: vm, ve = vm >> k, ve + k
        k = ve - te
        if k >= 0: tm += vm << k
        else: tm, te = (tm << -k) + vm, ve
        k = tm.bit_length() - P
        if k > 0: tm, te = tm >> k, te + k
        vm, ve = Gm * qm, Ge + qe
        k = vm.bit_length() - P
        if k > 0: vm, ve = vm >> k, ve + k
        k = ve - te
        if k >= 0: tm -= vm << k
        else: tm, te = (tm << -k) - vm, ve
        k = tm.bit_length() - P
        if k > 0: tm, te = tm >> k, te + k
        qm, qe, dm, de = dm, de, tm, te
    if mode == 1:
        return Dyadic(cm, ce, P), Dyadic(dm, de, P)
    return changes if not mode else Dyadic(cm * len(rows), ce + 4 - P, P)


def _count(rows, x: Dyadic) -> int:
    """The number of roots above x by ``_point_recursion``, which only
    guides the search: certified counts decide."""
    return _point_recursion(rows, x, 0)


def _certified_count(rows, x: Box) -> int | None:
    """The number of roots above x by the ratio recursion on the flat Box
    rows (B_n, C_n, G_n), or None when an s_n box contains 0."""
    P, xlo, xhi, xe = x.P, x.lo, x.hi, x.e
    above, slo, shi, se = 0, 1, 1, 0
    for Blo, Bhi, Be, Clo, Chi, Ce, Glo, Ghi, Ge in rows:
        if Blo >= 0 and xlo >= 0:  # t = B x
            lo, hi = Blo * xlo, Bhi * xhi
        else:
            ps = (Blo * xlo, Blo * xhi, Bhi * xlo, Bhi * xhi)
            lo, hi = min(ps), max(ps)
        e = Be + xe
        k = ((hi if hi > -lo else -lo) - 1).bit_length() - P
        if k > 0: lo, hi, e = lo >> k, -(-hi >> k), e + k
        k = Ce - e  # t = t + C
        if k >= 0: lo, hi = lo + (Clo << k), hi + (Chi << k)
        else: lo, hi, e = (lo << -k) + Clo, (hi << -k) + Chi, Ce
        k = ((hi if hi > -lo else -lo) - 1).bit_length() - P
        if k > 0: lo, hi, e = lo >> k, -(-hi >> k), e + k
        # g = G / s; s < 0 divides -G by -s, a negation that needs no cut
        if shi < 0: nlo, nhi, dlo, dhi = -Ghi, -Glo, -shi, -slo
        else: nlo, nhi, dlo, dhi = Glo, Ghi, slo, shi
        a, b = nlo.bit_length(), nhi.bit_length()
        k = P + 1 + dhi.bit_length() - (a if a < b else b)
        if k < 0: k = 0
        glo = (nlo << k) // (dhi if nlo >= 0 else dlo)
        ghi = -(-(nhi << k) // (dlo if nhi >= 0 else dhi))
        ge = Ge - se - k
        k = ((ghi if ghi > -glo else -glo) - 1).bit_length() - P
        if k > 0: glo, ghi, ge = glo >> k, -(-ghi >> k), ge + k
        k = ge - e  # s = t - g
        if k >= 0: slo, shi, se = lo - (ghi << k), hi - (glo << k), e
        else: slo, shi, se = (lo << -k) - ghi, (hi << -k) - glo, ge
        k = ((shi if shi > -slo else -slo) - 1).bit_length() - P
        if k > 0: slo, shi, se = slo >> k, -(-shi >> k), se + k
        if shi < 0:
            above += 1
        elif not slo > 0:
            return None
    return above


def _log2(x: Dyadic) -> float:
    return math.log2(abs(x.m)) + x.e if x.m else -math.inf


def _newton_eval(rows, x: Dyadic, last=None):
    """w_{N+1}(x), its derivative and the rounding noise of w_{N+1}(x), as
    Dyadic, by ``_point_recursion``; the noise is None where it is not
    asked for.  ``last`` False asks never, None always, and the noise
    ``(err, y)`` computed at a point y asks where |w_{N+1}(x)| is within
    twice err max(1, |x/y|)^(N+1), the noise's bound at x, so wherever the
    noise can reach |w_{N+1}(x)|."""
    c, dc = _point_recursion(rows, x, 1)
    if last is False or last and _log2(c) > (
            _log2(last[0]) + len(rows) * max(_log2(x) - _log2(last[1]), 0.0) + 1):
        return c, dc, None
    return c, dc, _point_recursion(rows, x, 2)


def _gershgorin_bound(rows, P: int) -> Dyadic:
    """A power of two above twice the Gershgorin bound of the symmetrised
    Jacobi matrix: diagonal -C_n/B_n, off-diagonal sqrt(G_{n+1}/(B_n B_{n+1})),
    on the Favard rows of the flat ``rows`` of FixedQ.points as Dyadic at P
    bits, each square root a geometric mean with 1."""
    ratio = [(Dyadic(Bm, Be, P), Dyadic(Cm, Ce, P), Dyadic(Gm, Ge, P))
             for Bm, Be, Cm, Ce, Gm, Ge, _, _, _, _ in rows]
    one, zero = Dyadic(1, 0, P), Dyadic(0, 0, P)
    off = [zero] + [_geometric_mean(G / (B0 * B1), one)
                    for (B0, _, _), (B1, _, G) in zip(ratio, ratio[1:])] + [zero]
    bound = max(C / B + off[i] + off[i + 1] for i, (B, C, _) in enumerate(ratio))
    return Dyadic(1, bound.m.bit_length() + bound.e + 1, P)


def _isolate_by_counts(flat, P: int, seeds) -> list[tuple]:
    """Brackets (a, b, m), a < b Dyadic of one sign, each holding one root
    of c_{N+1}, m the number of roots above b, sorted; by plain counts on
    ``flat``, the rows of FixedQ.points at P bits.

    The points are +-R (Gershgorin), 0, a point of each sign with no root
    between it and 0, and the midpoints between consecutive seeds
    (distinct, sorted Dyadic points), each distinct value counted once; a
    bracket holding more than one root is split at its geometric mean
    until each holds one.  A sign's point near 0 is a quarter of its
    smallest seed if no root lies below that, else the largest
    R 2^(-2^j) under it with no root below."""
    n = len(flat)
    R = _gershgorin_bound(flat, P)
    lo = Dyadic(-1, R.e, P)
    seen = {}  # (odd mantissa, exponent) of each point's value -> (point, count)

    def at(x: Dyadic) -> int:
        m = x.m
        t = (m & -m).bit_length() - 1
        key = (m >> t, x.e + t) if m else 0
        if key not in seen:
            seen[key] = x, _count(flat, x)
        return seen[key][1]

    c0, top, bottom = at(Dyadic(0, 0, P)), at(R), at(lo)
    if (bottom, top) != (n, 0):
        raise PrecisionError(f"counts {bottom}, {top} at -R, R for degree {n}")
    for sgn, none_of_sign in ((1, c0 == 0), (-1, c0 == n)):
        if none_of_sign:
            continue
        near = [s for s in seeds if s.m * sgn > 0]
        if near:
            quarter = (near[0] if sgn > 0 else near[-1]).ldexp(-2)
            if at(quarter) == c0:
                continue
        for j in range(_ZERO_SEARCH_STEPS):
            x = Dyadic(sgn, R.e - 2 ** j, P)
            if near and not (x < quarter if sgn > 0 else quarter < x):
                continue
            if at(x) == c0:
                break
        else:
            raise PrecisionError(f"a root of sign {sgn} is not separated from 0")
    for a, b in zip(seeds, seeds[1:]):
        x = (a + b).ldexp(-1)
        if lo < x < R:
            at(x)
    out = _split_brackets(dict(seen.values()), lambda x: _count(flat, x), _geometric_mean)
    if len(out) != n:
        raise PrecisionError(f"count isolation found {len(out)} roots for degree {n}")
    return out


def _spectral_root(fq: FixedQ, lo: Dyadic, hi: Dyadic, m: int, bits: int, start) -> tuple[int, int]:
    """The root of c_{N+1} with m roots above it, isolated in (lo, hi),
    Dyadic points at fq's precision P, rounded to nearest at ``bits`` bits
    by ``_rounded_root``, as (m, e) for m 2^e, every side decided by a
    certified count.  The probes are r -+ t of a Newton approximation r
    with error estimate t (from the Dyadic ``start``, if given) on
    fq.points.  Where t is wider than the 2^-bits grid, by the shortfall
    k = log2(t 2^bits / |r|) > 0, Newton runs once more from r on the
    points of fixed_q at P' = P + k + 32 rounded up to a multiple of 128,
    which roots share, and its r -+ t are the probes.

    The root has one precision: its certified counts start on the table
    its r came from, fq or the P'-bit one.  The ratio recursion runs on
    that table's ``favard_boxes``, dyadic.Box intervals around the rows of
    the exact q, each operation rounded outward on CPython ints (floor and
    ceiling shifts and divisions), so every s_n box encloses the exact
    s_n.  A count is certified when every A_n, B_n, D_n box is positive
    and no s_n box contains 0; otherwise that point is redone on the rungs
    bits 2^i + EVAL_GUARD_BITS above it, up to MAX_BITS.  A point where
    only s_{N+1} still holds 0 on the last rung is the root to within that
    precision (an exact one when q-powers are rational).  PrecisionError
    when any other point stays uncertified, or an end of (lo, hi) fails
    its certification, naming the root."""
    rows = fq.points
    where = f"root {m + 1} of {len(rows)}, counted from the largest"

    def ev(x: Dyadic, last):
        # below the root, w_{N+1} has the sign (-1)^(m+1) of its m+1 roots above
        c, dc, err = _newton_eval(rows, x, last)
        return c, dc, err, (c.m < 0) if m % 2 == 0 else (c.m > 0)

    # with no approximation both probes sit at lo, outside (lo, hi)
    r, t = _newton_in_bracket(ev, lo, hi, lo.P, start) or (lo, Dyadic(0, 0, lo.P))
    k = t.m.bit_length() + t.e + bits - r.m.bit_length() - r.e  # log2(t 2^bits / |r|), to 1
    if t.m and k > 0:
        P = -(-(lo.P + k + 32) // 128) * 128
        # ev reads ``rows`` and side ``fq``, so the rerun and the counts use the P-bit table
        fq = fixed_q(fq.p, fq.q, P)
        rows, (lo, hi, start) = fq.points, (Dyadic(x.m, x.e, P) for x in (lo, hi, r))
        r, t = _newton_in_bracket(ev, lo, hi, P, start) or (r, t)
    rungs, b = [fq.P], bits
    while 2 * b <= MAX_BITS:
        b *= 2
        if b + EVAL_GUARD_BITS > fq.P:
            rungs.append(b + EVAL_GUARD_BITS)

    def side(M: int, W: int) -> int:
        for P in rungs:
            ratio = (fq if P == fq.P else fixed_q(fq.p, fq.q, P)).favard_boxes
            if ratio is None:
                continue
            x = Box.ratio(M, W, P)
            n = _certified_count(ratio, x)
            if n is not None:
                return 1 if n > m else -1
            if P == rungs[-1] and _certified_count(ratio[:-1], x) is not None:
                return 0  # only s_{N+1} holds 0: E is the root
        with mpmath.workprec(64):
            at = mpmath.nstr(mpmath.mpf(M) / W, 20)
        raise PrecisionError(f"the root count at E = {at}, q = {fq.q} is not certified at "
                             f"{rungs[-1] - EVAL_GUARD_BITS} bits, for {where}")

    e = min(lo.e, hi.e, r.e, t.e, 0)
    A, B, R, T = (x.m << (x.e - e) for x in (lo, hi, r, t))
    V = 1 << -e
    x = _rounded_root(A, B, V, bits, side, ((R - T, V), (R + T, V)))
    if x is None:
        raise PrecisionError(f"the isolating bracket of {where} is not certified")
    return x


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

    Each root is the true root rounded to nearest at ``bits`` bits, ties
    to even, with every side that decides it certified by an interval
    count of the true c_{N+1} at q; a count that stays uncertified at
    MAX_BITS raises PrecisionError.  ``predictions``, when given, seed the
    isolation and Newton; the roots do not depend on them.  ``epoly`` is
    not read: the polynomial itself is not needed.
    """
    fq = fixed_q(p, as_fraction(q), bits + EVAL_GUARD_BITS)
    seeds = _prediction_seeds(fq, predictions) if predictions else []
    roots = []
    for a, b, m in _isolate_by_counts(fq.points, fq.P, seeds):
        inside = [s for s in seeds if a < s < b]
        start = inside[0] if len(inside) == 1 else None
        roots.append(_spectral_root(fq, a, b, m, bits, start))
    return [mpmath.mp.make_mpf(from_man_exp(m, e)) for m, e in roots], bits


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
        dlq = mpmath.log(to_mpf(q2)) - mpmath.log(to_mpf(q1))
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


@dataclass
class MatchReport:
    rows: list[MatchRow]
    ok: bool


def _expand(predictions: Sequence[PredictedRoot]) -> list[PredictedRoot]:
    return [dataclasses.replace(e, multiplicity=1) for e in predictions for _ in range(e.multiplicity)]


def match_predictions(
    estimates: Sequence[RootEstimate],
    predictions: Sequence[PredictedRoot],
    tol_exponent: float = 0.05,
    *,
    t1,
    t2,
) -> MatchReport:
    """Assign estimates to predictions by sign and exponent order.

    Every row reports the exponent error and the prefactor ratio
    value / (sign * prefactor * q^d).  Only the exponent tolerance gates:
    a caller that holds a prefactor to its limit constant checks the ratio
    itself (criterion 4 the sharp ones, ``verify`` the balanced pairs
    against the s-roots).  Unmatched roots on either side produce failing
    rows, never silence.  t1 and t2 are the parameter set's; they have no
    default, since every prefactor ratio scales with them.
    """
    expanded = _expand(predictions)
    pred_neg = sorted((e for e in expanded if e.sign < 0), key=lambda e: e.d)
    pred_pos = sorted((e for e in expanded if e.sign > 0), key=lambda e: e.d)
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
                rows.append(MatchRow(est, pred, None, None, False))
                ok = False
                continue
            derr = abs(float(est.est_exponent) - float(pred.d))
            with mpmath.workprec(192):
                at_q = _predicted_root(pred, Box.qpow(*pred.prefactor_power(t1, t2), 192),
                                       Box.qpow(est.q, pred.d, 192))
                ratio = to_mpf(est.value) / at_q.to_mpf()
            exponent_ok = derr <= tol_exponent
            ok = ok and exponent_ok
            rows.append(MatchRow(est, pred, derr, ratio, exponent_ok))
    return MatchReport(rows, ok)
