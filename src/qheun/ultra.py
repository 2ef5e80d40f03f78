"""Ultradiscrete (q -> +0) analysis of the spectral polynomial.

Three parameter regimes are handled, split by S1 := 1 + h2 - l2 - beta:

* R31 (S1 > 0):          the q^{1/2-h2} branch of the middle row dominates
                         at every step;
* R32 (S1 < -2N):        the q^{2n-1/2-l2-beta} branch dominates throughout;
* R33 (-2N < S1 < 0):    the branch switches at step K, where
                         -2K < S1 < -2K+2; here the two-term remainder drops
                         out entirely and the limit polynomial factors
                         exactly (a sim statement, constants included).

For R31/R32 the limit is a product of quadratics

    p_n(E) = (E q^{e(n)} + q^{c}) (E q^{e(n-1)} + q^{c'}) - q^{r(n)}

whose root pattern follows a trichotomy (two one-scale roots, a split pair,
or the balanced pair +-q^{(a1+a2+h1+h2)/2}); the spectral polynomial is
approx-equivalent to that product coefficient by coefficient, provided the
non-cancellation exclusion sets are avoided.  Boundary equalities are never
extrapolated: they classify as Excluded.

Balanced pairs of multiplicity m >= 2 are refined by substituting
E = s q^{(a1+a2+h1+h2)/2} into the exact spectral polynomial, keeping the
globally minimal q-power, and solving the resulting polynomial in s; its
nonzero real roots are the distinct prefactors that replace the multiple
root (degree 4 yields the golden-ratio pair (sqrt(5)+-1)/2 when t1 t2 = 1).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence

import mpmath

from .errors import (
    CancellationError,
    DegenerateSPolyError,
    DomainError,
    ExcludedCaseError,
    RegimeError,
    SignIndefiniteError,
)
from .qmono import (
    QMonomial,
    QSum,
    leading_part,
    qpow,
    to_mpf,
    ultradiscretize,
    unpack_key,
)
from .spectral import EPoly, HeunParams, spectral_polynomial

__all__ = [
    "R31",
    "R32",
    "R33",
    "EXCLUDED",
    "UNCLASSIFIED",
    "CaseTag",
    "PredictedRoot",
    "classify",
    "boundary_proximity",
    "leading_recursion",
    "tilde_cN1",
    "pn_root_pair",
    "predict_roots",
    "multiplicity_prefactors",
    "refined_predictions",
    "collision_check",
]

R31 = "R31"
R32 = "R32"
R33 = "R33"
EXCLUDED = "Excluded"
UNCLASSIFIED = "Unclassified"

BALANCED = "sqrt(t1*t2)"

#: Distance from a regime boundary within which analyze warns.
BOUNDARY_WARNING_DISTANCE = Fraction(1, 4)
#: Working precision of the s-polynomial roots (the refined prefactors).
S_ROOT_BITS = 256

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CaseTag:
    """Regime classification with subcase data.

    subcase is one of i, ii-1, ii-2, iii-1, iii-2 for R31/R32 (with m set
    for the iii subcases); K is set for R33.  detail records the inequality
    evidence, or the offending condition when Excluded/Unclassified.
    """

    regime: str
    subcase: Optional[str] = None
    m: Optional[int] = None
    K: Optional[int] = None
    detail: str = ""

    def classified(self) -> bool:
        return self.regime in (R31, R32, R33)

    def describe(self) -> str:
        out = f"regime={self.regime}"
        if self.subcase:
            out += f" subcase={self.subcase}"
        if self.m is not None:
            out += f" m={self.m}"
        if self.K is not None:
            out += f" K={self.K}"
        return out


@dataclass(frozen=True)
class PredictedRoot:
    """One predicted root family E ~ sign * prefactor * q^d.

    prefactor is "t1", "t2", "sqrt(t1*t2)" or an explicit positive value
    (after refinement).  The exponent d is exact; the prefactor constant is
    advisory for matching, except where sharp=True marks a genuine
    limit-constant claim (the one-scale cases backed by sharp asymptotics,
    the switching regime, and refined explicit values).
    """

    sign: int
    d: Fraction
    prefactor: object
    multiplicity: int = 1
    sharp: bool = False

    def prefactor_value(self, t1, t2):
        """Numeric prefactor magnitude in the current mpmath context."""
        if self.prefactor == "t1":
            return to_mpf(t1)
        if self.prefactor == "t2":
            return to_mpf(t2)
        if self.prefactor == BALANCED:
            return mpmath.sqrt(to_mpf(t1) * to_mpf(t2))
        return to_mpf(self.prefactor)

    def describe(self) -> str:
        pf = self.prefactor if isinstance(self.prefactor, str) else mpmath.nstr(
            mpmath.mpf(self.prefactor), 12
        )
        s = "+" if self.sign > 0 else "-"
        out = f"{s}{pf}*q^({self.d})"
        if self.multiplicity > 1:
            out += f" (x{self.multiplicity})"
        return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _s_value(p: HeunParams) -> Fraction:
    return 2 * p.h2 - p.l1 - p.l2 - p.beta


def _t_value(p: HeunParams) -> Fraction:
    return p.l1 - p.l2 - p.beta


def _s1_value(p: HeunParams) -> Fraction:
    return 1 + p.h2 - p.l2 - p.beta


def balanced_exponent(p: HeunParams) -> Fraction:
    """Exponent of the balanced pair +-q^{(a1+a2+h1+h2)/2}."""
    return (p.alpha1 + p.alpha2 + p.h1 + p.h2) / 2


def _r31_factor_indices(N: int) -> list[int]:
    return list(range(1, (N + 1) // 2 + 1))


def _r32_factor_indices(N: int) -> list[int]:
    if N % 2 == 1:
        return list(range(2, N + 2, 2))
    return list(range(3, N + 2, 2))


def _exclusion_set(N: int) -> set[Fraction]:
    """Even values {-2, -4, ..., -2N} ruled out by the non-cancellation
    propositions (empty for N = 0)."""
    return {Fraction(-2 * k) for k in range(1, N + 1)}


def _r31_subcase(S: Fraction, N: int) -> tuple[str, Optional[int]]:
    if S > -2:
        return "i", None
    if N % 2 == 1 and S < -2 * N - 1:
        return "ii-1", None
    if N % 2 == 0 and S < -2 * N + 1:
        return "ii-2", None
    for m in range(1, (N + 1) // 2 + 1):
        if -4 * m + 1 < S < -4 * m + 2:
            return "iii-1", m
    for m in range(1, (N - 1) // 2 + 1):
        if -4 * m - 2 < S < -4 * m + 1:
            return "iii-2", m
    raise AssertionError(f"R31 subcase resolution failed for S={S}, N={N}")


def _r32_subcase(T: Fraction, N: int) -> tuple[str, Optional[int]]:
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


def classify(p: HeunParams) -> CaseTag:
    """Assign the parameter set to a regime, or Excluded/Unclassified.

    Every boundary equality (regime separators, non-cancellation exclusion
    sets, factor trichotomy boundaries) returns Excluded with the offending
    condition named; the theorems make no claim there.
    """
    N = p.N
    S1 = _s1_value(p)
    if S1 == 0:
        return CaseTag(EXCLUDED, detail="boundary case: 1+h2-l2-beta = 0")
    if S1 == -2 * N:
        return CaseTag(EXCLUDED, detail=f"boundary case: 1+h2-l2-beta = -2N = {-2 * N}")

    if S1 > 0:
        S = _s_value(p)
        if S in _exclusion_set(N):
            return CaseTag(
                EXCLUDED,
                detail=f"boundary case: 2h2-l1-l2-beta = {S} lies in the "
                f"exclusion set {{-2,...,-2N}}",
            )
        tri = {Fraction(1 - 4 * n) for n in _r31_factor_indices(N)}
        if S in tri:
            return CaseTag(
                EXCLUDED,
                detail=f"boundary case: 2h2-l1-l2-beta = {S} sits on a "
                f"quadratic-factor trichotomy boundary (odd value 1-4n)",
            )
        subcase, m = _r31_subcase(S, N)
        return CaseTag(
            R31, subcase, m=m, detail=f"1+h2-l2-beta = {S1} > 0; 2h2-l1-l2-beta = {S}"
        )

    if S1 < -2 * N:
        T = _t_value(p)
        if T in _exclusion_set(N):
            return CaseTag(
                EXCLUDED,
                detail=f"boundary case: l1-l2-beta = {T} lies in the "
                f"exclusion set {{-2,...,-2N}}",
            )
        tri = {Fraction(3 - 2 * nu) for nu in _r32_factor_indices(N)}
        if T in tri:
            return CaseTag(
                EXCLUDED,
                detail=f"boundary case: l1-l2-beta = {T} sits on a "
                f"quadratic-factor trichotomy boundary (value 3-2n)",
            )
        subcase, m = _r32_subcase(T, N)
        return CaseTag(
            R32,
            subcase,
            m=m,
            detail=f"2N+1+h2-l2-beta = {2 * N + S1} < 0; l1-l2-beta = {T}",
        )

    # intermediate: -2N < S1 < 0
    if S1.denominator == 1 and S1.numerator % 2 == 0:
        return CaseTag(
            EXCLUDED,
            detail=f"boundary case: 1+h2-l2-beta = {S1} is an even integer "
            f"inside (-2N, 0)",
        )
    if S1.denominator == 1:
        # odd integer: the two root families of the switching regime share
        # an exponent (n + m = 2 - S1 has integer solutions), so the
        # per-root asymptotics are not simple there
        return CaseTag(
            EXCLUDED,
            detail=f"boundary case: 1+h2-l2-beta = {S1} is an odd integer; "
            f"the two switching-regime root families collide",
        )
    K = math.floor(-S1 / 2) + 1
    hl = p.h2 - p.l1 + 1
    if hl <= 0:
        return CaseTag(
            UNCLASSIFIED,
            detail=f"-2N < 1+h2-l2-beta = {S1} < 0 but h2-l1+1 = {hl} <= 0; "
            f"the switching-regime analysis requires h2-l1+1 > 0",
        )
    return CaseTag(R33, K=K, detail=f"-2K < 1+h2-l2-beta = {S1} < -2K+2 with K={K}")


def boundary_proximity(p: HeunParams, tag: CaseTag) -> list[str]:
    """Warnings for classified parameters sitting close to a boundary."""
    warnings = []
    N = p.N
    S1 = _s1_value(p)

    def _near(value, boundaries, name):
        for b in sorted(boundaries):
            if value != b and abs(value - b) <= BOUNDARY_WARNING_DISTANCE:
                warnings.append(
                    f"{name} = {value} is within {BOUNDARY_WARNING_DISTANCE} of boundary {b}"
                )

    _near(S1, {Fraction(0), Fraction(-2 * N)}, "1+h2-l2-beta")
    if tag.regime == R31:
        S = _s_value(p)
        bset = _exclusion_set(N) | {Fraction(1 - 4 * n) for n in _r31_factor_indices(N)}
        bset.add(Fraction(-2))
        _near(S, bset, "2h2-l1-l2-beta")
    elif tag.regime == R32:
        T = _t_value(p)
        bset = _exclusion_set(N) | {Fraction(3 - 2 * nu) for nu in _r32_factor_indices(N)}
        _near(T, bset, "l1-l2-beta")
    elif tag.regime == R33:
        # every integer inside [-2N, 0] is a boundary: even ones separate
        # the K intervals, odd ones collide the two root families
        ints = {Fraction(-k) for k in range(0, 2 * N + 1)}
        _near(S1, ints, "1+h2-l2-beta")
    return warnings


# ---------------------------------------------------------------------------
# leading-term recursion
# ---------------------------------------------------------------------------


def _leading_rows(p: HeunParams, tag: CaseTag, n: int):
    """Leading forms (pE, pc, r) of step n in the tagged regime; r is None
    in R33 where the remainder term is droppable throughout."""
    lam = p.lambda1
    u = lam - p.h1 - p.h2
    pE = QSum.term(1, t1pow=-1, t2pow=-1, qexp=n - 1 + u)
    if tag.regime == R31:
        pc_exp = _HALF - p.h2
    elif tag.regime == R32:
        pc_exp = 2 * n - _HALF - p.l2 - p.beta
    elif tag.regime == R33:
        pc_exp = (2 * n - _HALF - p.l2 - p.beta) if n <= tag.K else (_HALF - p.h2)
    else:
        raise RegimeError(f"leading recursion undefined for {tag.regime}")
    pc = QSum.term(1, t2pow=-1, qexp=pc_exp)
    if tag.regime == R33:
        r = None
    else:
        r = QSum.term(1, t1pow=-1, t2pow=-1, qexp=2 * n - 1 - p.l1 - p.l2 - p.beta)
    return pE, pc, r


def leading_recursion(p: HeunParams, tag: CaseTag) -> list[EPoly]:
    """Run the regime's simplified recursion keeping only leading slices.

    Raises CancellationError as soon as a step annihilates a leading slice
    or leaves it sign-indefinite; under the classification's sufficient
    conditions this never happens.
    """
    if not tag.classified():
        raise RegimeError(f"leading recursion needs a classified tag, got {tag.regime}")
    levels: list[list[QSum]] = [[QSum.one()]]
    for n in range(1, p.N + 2):
        pE, pc, r = _leading_rows(p, tag, n)
        prev = levels[n - 1]
        prev2 = levels[n - 2] if n >= 2 else None
        new: list[QSum] = []
        for j in range(n + 1):
            parts = []
            if j >= 1:
                parts.append(pE * prev[j - 1])
            if j < len(prev):
                parts.append(pc * prev[j])
            if r is not None and prev2 is not None and j < len(prev2):
                parts.append(-(r * prev2[j]))
            site = f"c{n}[E^{j}]"
            expected = min(x.leading_exponent for x in parts)
            total = QSum()
            for x in parts:
                total = total + x
            if total.is_zero() or total.leading_exponent != expected:
                raise CancellationError(
                    n, site, f"leading-slice cancellation at step {n} ({site})"
                )
            try:
                ultradiscretize(total)
            except SignIndefiniteError as exc:
                raise CancellationError(
                    n, site, f"mixed-sign leading slice at step {n} ({site}): {exc}"
                ) from exc
            new.append(leading_part(total))
        levels.append(new)
    return [EPoly(tuple(level)) for level in levels]


# ---------------------------------------------------------------------------
# limit products
# ---------------------------------------------------------------------------


def _poly_mul(A: list[QSum], B: list[QSum]) -> list[QSum]:
    out = [QSum.zero() for _ in range(len(A) + len(B) - 1)]
    for i, a in enumerate(A):
        if a.is_zero():
            continue
        for j, b in enumerate(B):
            out[i + j] = out[i + j] + a * b
    return out


def _r31_pn(p: HeunParams, n: int) -> list[QSum]:
    """p_n(E) of the S1 > 0 regime, degree-ascending coefficients."""
    u = p.lambda1 - p.h1 - p.h2
    c = _HALF - p.h2
    c0 = qpow(2 * c) - qpow(4 * n - 1 - p.l1 - p.l2 - p.beta)
    c1 = qpow((2 * n - 1 + u) + c) + qpow((2 * n - 2 + u) + c)
    c2 = qpow(4 * n - 3 + 2 * u)
    return [c0, c1, c2]


def _r32_pn(p: HeunParams, n: int) -> list[QSum]:
    """p_n(E) of the S1 < -2N regime."""
    u = p.lambda1 - p.h1 - p.h2
    ca = 2 * n - _HALF - p.l2 - p.beta
    cb = 2 * n - 2 - _HALF - p.l2 - p.beta
    c0 = qpow(ca + cb) - qpow(2 * n - 1 - p.l1 - p.l2 - p.beta)
    c1 = qpow((n - 1 + u) + cb) + qpow((n - 2 + u) + ca)
    c2 = qpow((n - 1 + u) + (n - 2 + u))
    return [c0, c1, c2]


def tilde_cN1(p: HeunParams, tag: CaseTag) -> EPoly:
    """The explicit limit product the spectral polynomial is equivalent to.

    R31/R32 return the t-free product of the approx-level theorems; R33
    returns the fully factored sim-level product including the
    (t1 t2)^{-(N+1)} prefactor, carried as an EPoly denominator monomial.
    """
    N = p.N
    u = p.lambda1 - p.h1 - p.h2
    if tag.regime == R31:
        poly = [QSum.one()]
        for n in _r31_factor_indices(N):
            poly = _poly_mul(poly, _r31_pn(p, n))
        if N % 2 == 0:
            poly = _poly_mul(poly, [qpow(_HALF - p.h2), qpow(N + u)])
        return EPoly(tuple(poly))
    if tag.regime == R32:
        if N % 2 == 1:
            poly = [QSum.one()]
        else:
            poly = [qpow(Fraction(3, 2) - p.l2 - p.beta), qpow(u)]
        for nu in _r32_factor_indices(N):
            poly = _poly_mul(poly, _r32_pn(p, nu))
        return EPoly(tuple(poly))
    if tag.regime == R33:
        poly = [QSum.one()]
        for n in range(1, N + 2):
            if n <= tag.K:
                const = QSum.term(1, t1pow=1, qexp=2 * n - _HALF - p.l2 - p.beta)
            else:
                const = QSum.term(1, t1pow=1, qexp=_HALF - p.h2)
            poly = _poly_mul(poly, [const, qpow(n - 1 + u)])
        mono = QMonomial(Fraction(0), N + 1, N + 1, Fraction(1))
        return EPoly(tuple(poly), denom_monomial=mono)
    raise RegimeError(f"no limit product for regime {tag.regime}")


# ---------------------------------------------------------------------------
# root predictions
# ---------------------------------------------------------------------------


def pn_root_pair(p: HeunParams, n: int, tag: CaseTag) -> tuple[PredictedRoot, PredictedRoot]:
    """The q -> +0 roots of the n-th quadratic factor.

    Trichotomy on the factor's balance: two one-scale roots, a split pair
    (one-scale root plus an opposite-sign partner), or the balanced pair
    +-q^{(a1+a2+h1+h2)/2} sqrt(t1 t2).  Exact boundary hits raise
    ExcludedCaseError.
    """
    if n < 1:
        raise DomainError(f"factor index must be >= 1, got {n}")
    lam = p.lambda1
    g = balanced_exponent(p)
    if tag.regime == R31:
        u4 = 4 * n + _s_value(p)
        if u4 == 2 or u4 == 1:
            raise ExcludedCaseError(
                f"boundary case: 4n+2h2-l1-l2-beta = {u4} for n = {n}"
            )
        if u4 > 2:
            return (
                PredictedRoot(-1, -2 * n + Fraction(3, 2) - lam + p.h1, "t1"),
                PredictedRoot(-1, -2 * n + Fraction(5, 2) - lam + p.h1, "t1"),
            )
        if u4 > 1:
            return (
                PredictedRoot(-1, -2 * n + Fraction(3, 2) - lam + p.h1, "t1"),
                PredictedRoot(
                    +1,
                    2 * n - Fraction(3, 2) + lam + p.alpha1 + p.alpha2 + p.h2,
                    "t2",
                ),
            )
        return (
            PredictedRoot(+1, g, BALANCED),
            PredictedRoot(-1, g, BALANCED),
        )
    if tag.regime == R32:
        v = _t_value(p) + 2 * n
        if v == 2 or v == 3:
            raise ExcludedCaseError(f"boundary case: 2n+l1-l2-beta = {v} for n = {n}")
        base = lam + p.l1 + p.alpha1 + p.alpha2
        if v < 2:
            return (
                PredictedRoot(-1, n - Fraction(5, 2) + base, "t1"),
                PredictedRoot(-1, n - Fraction(3, 2) + base, "t1"),
            )
        if v < 3:
            return (
                PredictedRoot(-1, n - Fraction(5, 2) + base, "t1"),
                PredictedRoot(
                    +1, -n + Fraction(5, 2) - lam - p.l1 + p.h1 + p.h2, "t2"
                ),
            )
        return (
            PredictedRoot(+1, g, BALANCED),
            PredictedRoot(-1, g, BALANCED),
        )
    raise RegimeError(f"pn_root_pair applies to R31/R32 only, got {tag.regime}")


def _pred_sort_key(e: PredictedRoot):
    v = 0.0 if isinstance(e.prefactor, str) else float(e.prefactor)
    return (e.d, -e.sign, -v)


def predict_roots(p: HeunParams, tag: CaseTag) -> list[PredictedRoot]:
    """The full multiset of N+1 predicted roots for a classified tag.

    Balanced pairs are aggregated into multiplicity entries; sharp marks
    predictions whose t1 prefactor is a genuine limit constant (the
    one-scale regimes' case (i) and the whole switching regime).
    """
    if not tag.classified():
        raise RegimeError(f"cannot predict roots for regime {tag.regime}")
    lam = p.lambda1
    entries: list[PredictedRoot] = []
    if tag.regime == R31:
        for n in _r31_factor_indices(p.N):
            entries.extend(pn_root_pair(p, n, tag))
        if p.N % 2 == 0:
            entries.append(
                PredictedRoot(-1, -p.N + _HALF - lam + p.h1, "t1")
            )
    elif tag.regime == R32:
        for nu in _r32_factor_indices(p.N):
            entries.extend(pn_root_pair(p, nu, tag))
        if p.N % 2 == 0:
            entries.append(
                PredictedRoot(-1, -_HALF + lam + p.l1 + p.alpha1 + p.alpha2, "t1")
            )
    else:  # R33
        for j in range(1, tag.K + 1):
            entries.append(
                PredictedRoot(
                    -1,
                    j - Fraction(3, 2) + lam + p.l1 + p.alpha1 + p.alpha2,
                    "t1",
                    sharp=True,
                )
            )
        for j in range(tag.K + 1, p.N + 2):
            entries.append(
                PredictedRoot(-1, -j + Fraction(3, 2) + p.h1 - lam, "t1", sharp=True)
            )
    if tag.regime in (R31, R32) and tag.subcase == "i":
        entries = [
            PredictedRoot(e.sign, e.d, e.prefactor, e.multiplicity, sharp=True)
            for e in entries
        ]
    # aggregate repeated (sign, d, prefactor) into multiplicities
    counts: dict[tuple, int] = {}
    proto: dict[tuple, PredictedRoot] = {}
    for e in entries:
        k = (e.sign, e.d, str(e.prefactor), e.sharp)
        counts[k] = counts.get(k, 0) + 1
        proto[k] = e
    out = [
        PredictedRoot(proto[k].sign, proto[k].d, proto[k].prefactor, c, proto[k].sharp)
        for k, c in counts.items()
    ]
    out.sort(key=_pred_sort_key)
    total = sum(e.multiplicity for e in out)
    assert total == p.N + 1, f"prediction count {total} != N+1 = {p.N + 1}"
    if tag.regime == R33:
        # the classifier excludes the family-collision boundary, so every
        # switching-regime exponent is simple
        assert all(e.multiplicity == 1 for e in out)
    return out


# ---------------------------------------------------------------------------
# multiplicity refinement (the s-polynomial)
# ---------------------------------------------------------------------------


def _s_polynomial(ep: EPoly, p: HeunParams, g: Fraction) -> list[Fraction]:
    """Coefficients (degree-ascending) of the minimal-q-power slice of
    c_{N+1}(s q^g) with t1, t2 substituted at their rational values.

    The structured denominator scales all terms by one positive factor and
    shifts the exponents uniformly, so it cannot change the slice.  The runs
    of one total qexp + j*g are merged in increasing order of the total from
    the sorted integer forms, up to the first total that does not cancel."""
    den = math.lcm(g.denominator, *(c.den for c in ep.coeffs))

    def runs(j: int, c: QSum):
        scale, shift = den // c.den, int(j * g * den)
        terms = ((unpack_key(k), v) for k, v in c.items)
        for e, run in groupby(terms, key=lambda t: t[0][0]):
            yield e * scale + shift, j, [(a, b, v) for (_, a, b), v in run]

    t1, t2 = p.t1, p.t2
    merged = heapq.merge(*(runs(j, c) for j, c in enumerate(ep.coeffs)))
    for _, group in groupby(merged, key=itemgetter(0)):
        bucket = {}
        for _, j, run in group:
            v = sum(c * t1 ** a * t2 ** b for a, b, c in run)
            if v:
                bucket[j] = v
        if bucket:
            return [bucket.get(j, Fraction(0)) for j in range(max(bucket) + 1)]
    raise DegenerateSPolyError("all s-polynomial coefficients cancelled")


def multiplicity_prefactors(
    p: HeunParams,
    tag: CaseTag,
    *,
    predictions: Sequence[PredictedRoot] | None = None,
) -> list:
    """Distinct signed prefactors refining a multiplicity >= 2 balanced pair.

    Empty when the prediction multiset has no such pair; otherwise
    non-empty, or DegenerateSPolyError.  Solves the s-polynomial exactly
    (its coefficients are rational once t1, t2 are substituted) and returns
    the nonzero real roots, sorted ascending.  c_{N+1} is built only when
    there is such a pair.  ``predictions`` is ``predict_roots(p, tag)``,
    when the caller has it already.
    """
    from .roots import real_roots_of_rational_poly

    preds = predictions if predictions is not None else predict_roots(p, tag)
    if not any(e.prefactor == BALANCED and e.multiplicity >= 2 for e in preds):
        return []
    coeffs = _s_polynomial(spectral_polynomial(p), p, balanced_exponent(p))
    low = 0
    while low < len(coeffs) and not coeffs[low]:
        low += 1
    reduced = coeffs[low:]
    if len(reduced) <= 1:
        raise DegenerateSPolyError("s-polynomial has no nonzero roots")
    try:
        roots = real_roots_of_rational_poly(reduced, S_ROOT_BITS)
    except Exception as exc:  # count shortfall means non-simple/complex roots
        raise DegenerateSPolyError(f"s-polynomial root isolation failed: {exc}") from exc
    if len(roots) != len(reduced) - 1:
        raise DegenerateSPolyError(
            f"expected {len(reduced) - 1} simple real s-roots, found {len(roots)}"
        )
    return sorted(roots)


def refined_predictions(p: HeunParams, tag: CaseTag) -> list[PredictedRoot]:
    """Predictions with every multiplicity >= 2 balanced pair replaced by
    explicit-prefactor entries from the s-polynomial."""
    preds = predict_roots(p, tag)
    vals = multiplicity_prefactors(p, tag, predictions=preds)
    if not vals:
        return preds
    pos = sorted((v for v in vals if v > 0), reverse=True)
    with mpmath.workprec(S_ROOT_BITS):  # unary minus rounds to the working precision
        neg = sorted((-v for v in vals if v < 0), reverse=True)
    out: list[PredictedRoot] = []
    for e in preds:
        if e.prefactor == BALANCED and e.multiplicity >= 2:
            mags = pos if e.sign > 0 else neg
            if len(mags) != e.multiplicity:
                raise DegenerateSPolyError(
                    f"s-polynomial produced {len(mags)} prefactors for a "
                    f"multiplicity-{e.multiplicity} pair"
                )
            out.extend(
                PredictedRoot(e.sign, e.d, mag, 1, sharp=True) for mag in mags
            )
        else:
            out.append(e)
    out.sort(key=_pred_sort_key)
    return out


# ---------------------------------------------------------------------------
# collision check (non-cancellation oracle)
# ---------------------------------------------------------------------------


def collision_check(p: HeunParams, M: int, tag: CaseTag) -> list[tuple[int, int, int]]:
    """Brute-force enumeration of exponent collisions d(k,l) = d(k',l).

    d(k,l) is the q-exponent of the strongest E^l contribution using k
    remainder factors in the first M steps; a collision is exactly the
    leading-term cancellation the sufficient conditions exclude.  Returns
    the colliding (k, k', l) triples (empty iff no cancellation can occur).
    """
    if tag.regime not in (R31, R32):
        raise RegimeError(f"collision_check applies to R31/R32 only, got {tag.regime}")
    if not 1 <= M <= p.N + 1:
        raise DomainError(f"M = {M} outside 1..N+1 = 1..{p.N + 1}")
    lam = p.lambda1

    def pexp(n: int) -> Fraction:
        return n - 1 + lam - p.h1 - p.h2

    def rexp(n: int) -> Fraction:
        return 2 * n - 1 - p.l1 - p.l2 - p.beta

    if tag.regime == R31:

        def qexp(n: int) -> Fraction:
            return _HALF - p.h2

        def d(k: int, l: int) -> Fraction:
            return (
                sum((rexp(2 * i) for i in range(1, k + 1)), Fraction(0))
                + sum((pexp(j) for j in range(2 * k + 1, 2 * k + l + 1)), Fraction(0))
                + sum((qexp(j) for j in range(2 * k + l + 1, M + 1)), Fraction(0))
            )

    else:

        def qexp(n: int) -> Fraction:
            return 2 * n - _HALF - p.l2 - p.beta

        def d(k: int, l: int) -> Fraction:
            a = M - 2 * k - l
            return (
                sum((qexp(j) for j in range(1, a + 1)), Fraction(0))
                + sum((pexp(j) for j in range(a + 1, M - 2 * k + 1)), Fraction(0))
                + sum((rexp(M - 2 * k + 2 * i) for i in range(1, k + 1)), Fraction(0))
            )

    hits = []
    for l in range(0, M + 1):
        kmax = (M - l) // 2
        for k in range(0, kmax + 1):
            for k2 in range(k + 1, kmax + 1):
                if d(k, l) == d(k2, l):
                    hits.append((k, k2, l))
    return hits
