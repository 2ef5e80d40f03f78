"""Ultradiscrete (q -> +0) analysis of the spectral polynomial.

Three parameter regimes are handled, split by S1 := 1 + h2 - l2 - beta:

* R31 (S1 > 0):          the q^{1/2-h2} branch of the middle row dominates
                         at every step;
* R32 (S1 < -2N):        the q^{2n-1/2-l2-beta} branch dominates throughout;
* R33 (-2N < S1 < 0):    the branch switches at step K, where
                         -2K < S1 < -2K+2; here the two-term remainder drops
                         out entirely and the limit polynomial factors
                         exactly (a sim statement, constants included).

Each regime's leading terms are stated once, as the q-exponents of step
n's leading forms pE_n, pc_n and r_n (_leading_rows); the leading
recursion, the limit product, the root predictions and the collision
oracle all read them.  The limit product is a product of factors: a step k
alone gives pE_k E + pc_k, and two steps (k-1, k) give the quadratic

    p(E) = (pE_k E + pc_k) (pE_{k-1} E + pc_{k-1}) - r_k.

R32 is R31 read from its last step (R32's step k is R31's step N+2-k):
R31 pairs the steps from step 1 up, R32 from step N+1 down, and R32
classifies as R31 at S = 2h2-l1-l2-beta = -2N-2-(l1-l2-beta).  R33 keeps
each step alone.  Each factor's roots are read off the Newton polygon of its
coefficients' leading exponents: a quadratic gives two one-scale roots, a
split pair, or the balanced pair +-q^{(a1+a2+h1+h2)/2}.  The spectral
polynomial is approx-equivalent to the product coefficient by coefficient,
provided the non-cancellation exclusion sets are avoided.  Boundary
equalities are never extrapolated: they classify as Excluded.

Balanced pairs of multiplicity m >= 2 are refined by the s-polynomial: the
least nonzero q-slice of c_{N+1}(s q^{(a1+a2+h1+h2)/2}), one Newton-Puiseux
step, read from a run of the exact recursion truncated at that slice.  Its
nonzero real roots are the distinct prefactors that replace the multiple
root (degree 4 yields the golden-ratio pair (sqrt(5)+-1)/2 when t1 t2 = 1).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CancellationError,
    DegenerateSPolyError,
    DomainError,
    ExcludedCaseError,
    PrecisionError,
    RegimeError,
    SignIndefiniteError,
)
from .qmono import (
    QMonomial,
    QSum,
    ultradiscretize,
)
from . import roots as root_search  # the module: a rebound real_roots_of_rational_poly is the one called
from .spectral import EPoly, HeunParams, _three_term_rows, three_term
from .spectral import spectral_polynomial  # noqa: F401 -- perfbench/tracing.py wraps it here; selftest.py checks it

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

    prefactor is "t1", "t2" or "sqrt(t1*t2)".  The exponent d is exact;
    the prefactor constant is advisory for matching, except where
    sharp=True marks a genuine limit-constant claim (the one-scale cases
    backed by sharp asymptotics, and the switching regime).  The refined
    constants of a balanced pair are multiplicity_prefactors'.
    """

    sign: int
    d: Fraction
    prefactor: str
    multiplicity: int = 1
    sharp: bool = False

    def prefactor_power(self, t1, t2) -> tuple:
        """The prefactor magnitude as (x, mu), x^mu with rational x > 0:
        (t1, 1), (t2, 1) or (t1 t2, 1/2), as dyadic.Box.qpow takes it."""
        if self.prefactor == "t1":
            return t1, 1
        if self.prefactor == "t2":
            return t2, 1
        return t1 * t2, _HALF

    def describe(self) -> str:
        s = "+" if self.sign > 0 else "-"
        out = f"{s}{self.prefactor}*q^({self.d})"
        if self.multiplicity > 1:
            out += f" (x{self.multiplicity})"
        return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _s1_value(p: HeunParams) -> Fraction:
    return 1 + p.h2 - p.l2 - p.beta


def balanced_exponent(p: HeunParams) -> Fraction:
    """Exponent of the balanced pair +-q^{(a1+a2+h1+h2)/2}."""
    return (p.alpha1 + p.alpha2 + p.h1 + p.h2) / 2


def _exclusion_set(N: int) -> set[Fraction]:
    """Even values {-2, -4, ..., -2N} ruled out by the non-cancellation
    propositions (empty for N = 0)."""
    return {Fraction(-2 * k) for k in range(1, N + 1)}


def _trichotomy_set(N: int) -> set[Fraction]:
    """R31's quadratic-factor trichotomy values 1-4n of S, n = 1 .. (N+1)//2."""
    return {Fraction(1 - 4 * n) for n in range(1, (N + 1) // 2 + 1)}


def _subcase(S: Fraction, N: int) -> tuple[str, Optional[int]]:
    """R31's subcase at S = 2h2-l1-l2-beta, and R32's at its mirror.  At
    N = 0 it is i: c_1's one root -C_1/B_1 leads with a single t1 term."""
    if S > -2 or N == 0:
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


def _one_scale(p: HeunParams, regime: str) -> tuple:
    """R31 (S1 > 0) or R32 (S1 < -2N), stated once for classify,
    boundary_proximity and _factor_roots: the name and value X of the
    regime's second quantity, X's map to R31's S (the mirror S = -2N-2-X
    in R32, its own inverse), the label of the trichotomy values in X's
    terms, and the detail."""
    N, S1 = p.N, _s1_value(p)
    if regime == R31:
        return ("2h2-l1-l2-beta", 2 * p.h2 - p.l1 - p.l2 - p.beta, lambda X: X,
                "odd value 1-4n", f"1+h2-l2-beta = {S1} > 0")
    return ("l1-l2-beta", p.l1 - p.l2 - p.beta, lambda X: -2 * N - 2 - X,
            "value 3-2n", f"2N+1+h2-l2-beta = {2 * N + S1} < 0")


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

    if S1 > 0 or S1 < -2 * N:
        regime = R31 if S1 > 0 else R32
        name, X, to_s, label, detail = _one_scale(p, regime)
        S = to_s(X)
        if S in _exclusion_set(N):
            return CaseTag(
                EXCLUDED, detail=f"boundary case: {name} = {X} lies in the exclusion set {{-2,...,-2N}}"
            )
        if S in _trichotomy_set(N):
            return CaseTag(
                EXCLUDED,
                detail=f"boundary case: {name} = {X} sits on a quadratic-factor trichotomy "
                f"boundary ({label})",
            )
        sub, m = _subcase(S, N)
        if regime == R32 and sub == "iii-1":
            m -= 1  # R32 numbers its iii-1 factors from m = 0
        return CaseTag(regime, sub, m=m, detail=f"{detail}; {name} = {X}")

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

    # in R33 every integer inside [-2N, 0] is a boundary: even ones separate
    # the K intervals, odd ones collide the two root families
    ends = range(-2 * N, 1) if tag.regime == R33 else (0, -2 * N)
    _near(S1, {Fraction(b) for b in ends}, "1+h2-l2-beta")
    if tag.regime in (R31, R32):
        name, X, to_s, *_ = _one_scale(p, tag.regime)
        _near(X, {to_s(S) for S in _exclusion_set(N) | _trichotomy_set(N)}, name)
    return warnings


# ---------------------------------------------------------------------------
# leading-term recursion
# ---------------------------------------------------------------------------


def _leading_rows(p: HeunParams, tag: CaseTag):
    """Step n's leading forms in the tagged regime, as a function of n
    returning the exponents (e, c, r) of pE = t1^-1 t2^-1 q^e,
    pc = t2^-1 q^c and r = t1^-1 t2^-1 q^r; r is None in R33, where the
    remainder term is droppable throughout.  The one statement of the
    regimes' leading terms: the leading recursion, the limit products, the
    root predictions and collision_check all read it."""
    e0 = p.lambda1 - p.h1 - p.h2 - 1
    low = _HALF - p.h2  # the q^{1/2-h2} branch
    high = -_HALF - p.l2 - p.beta  # the q^{2n-1/2-l2-beta} branch, less 2n
    r0 = -1 - p.l1 - p.l2 - p.beta
    if tag.regime == R31:
        return lambda n: (n + e0, low, 2 * n + r0)
    if tag.regime == R32:
        return lambda n: (n + e0, 2 * n + high, 2 * n + r0)
    if tag.regime == R33:
        return lambda n: (n + e0, 2 * n + high if n <= tag.K else low, None)
    raise RegimeError(f"leading recursion undefined for {tag.regime}")


def leading_recursion(p: HeunParams, tag: CaseTag) -> list[EPoly]:
    """Run the regime's simplified recursion keeping only leading slices:
    three_term on the rows pE, pc and -r of _leading_rows.

    Raises CancellationError as soon as a step annihilates a leading slice
    or leaves it sign-indefinite; under the classification's sufficient
    conditions this never happens.
    """
    if not tag.classified():
        raise RegimeError(f"leading recursion needs a classified tag, got {tag.regime}")

    def entry(parts, n, site, pk):
        expected = min(e0 for part in parts for e0, _ in part.values())
        merged, _ = pk.merge(parts)
        lead = pk.leading(merged) if merged else {}
        if not lead or next(iter(lead.values()))[0] != expected:
            raise CancellationError(n, site, f"leading-slice cancellation at step {n} ({site})")
        try:
            ultradiscretize(QSum.from_entry(pk, lead))
        except SignIndefiniteError as exc:
            raise CancellationError(
                n, site, f"mixed-sign leading slice at step {n} ({site}): {exc}"
            ) from exc
        return lead

    def qsum_rows(e, c, r):
        minus_r = QSum.zero() if r is None else QSum.term(-1, -1, -1, r)
        return QSum.term(1, -1, -1, e), QSum.term(1, 0, -1, c), minus_r

    row = _leading_rows(p, tag)
    levels = three_term(p, (qsum_rows(*row(n)) for n in range(1, p.N + 2)), entry)
    return [EPoly(tuple(level)) for level in levels]


# ---------------------------------------------------------------------------
# limit products
# ---------------------------------------------------------------------------


def _factor_steps(p: HeunParams, tag: CaseTag) -> list[tuple[int, ...]]:
    """The steps of each factor of a classified tag's limit product, in
    the order the roots are predicted: the pairs (k, k+1) of the quadratic
    factors, ascending, then the lone linear factor when N is even; in R33
    each step alone.  R31 pairs from step 1 and leaves step N+1 alone; R32,
    R31 read from its last step, pairs down from step N+1 and leaves step 1
    alone."""
    N = p.N
    if tag.regime == R33:
        return [(n,) for n in range(1, N + 2)]
    first = 2 if tag.regime == R32 and N % 2 == 0 else 1
    steps = [(k, k + 1) for k in range(first, N + 1, 2)]
    if N % 2 == 0:
        steps.append((N + 1,) if first == 1 else (1,))
    return steps


def _factor(row, steps) -> list[list[tuple[int, Fraction]]]:
    """One factor of the limit product from the leading rows of its steps,
    degree-ascending, each coefficient a list of (sign, q-exponent) terms
    with the t-powers left out: a step k alone gives pE_k E + pc_k, and the
    steps (k-1, k) give (pE_k E + pc_k)(pE_{k-1} E + pc_{k-1}) - r_k."""
    if len(steps) == 1:
        e, c, _ = row(steps[0])
        return [[(1, c)], [(1, e)]]
    (e0, c0, _), (e1, c1, r) = map(row, steps)
    return [[(1, c1 + c0), (-1, r)], [(1, e1 + c0), (1, e0 + c1)], [(1, e1 + e0)]]


def _factor_poly(row, steps, t1pow: int = 0) -> list[QSum]:
    """_factor as QSums, with t1^t1pow on the constant term."""
    return [
        QSum(QMonomial(x, t1pow if j == 0 else 0, 0, Fraction(s)) for s, x in terms)
        for j, terms in enumerate(_factor(row, steps))
    ]


def _poly_mul(A: list[QSum], B: list[QSum]) -> list[QSum]:
    out = [QSum.zero() for _ in range(len(A) + len(B) - 1)]
    for i, a in enumerate(A):
        if a.is_zero():
            continue
        for j, b in enumerate(B):
            out[i + j] = out[i + j] + a * b
    return out


def tilde_cN1(p: HeunParams, tag: CaseTag) -> EPoly:
    """The explicit limit product the spectral polynomial is equivalent to:
    the product of the factors of _factor_steps.

    R31/R32 return the t-free product of the approx-level theorems; R33
    returns the fully factored sim-level product, t1 times each constant
    term, over the (t1 t2)^{N+1} denominator monomial.
    """
    if not tag.classified():
        raise RegimeError(f"no limit product for regime {tag.regime}")
    row, t1pow = _leading_rows(p, tag), int(tag.regime == R33)
    poly = [QSum.one()]
    # in step order, which multiplies R32's lone linear factor first: less work
    for steps in sorted(_factor_steps(p, tag)):
        poly = _poly_mul(poly, _factor_poly(row, steps, t1pow))
    if tag.regime == R33:
        mono = QMonomial(Fraction(0), p.N + 1, p.N + 1, Fraction(1))
        return EPoly(tuple(poly), denom_monomial=mono)
    return EPoly(tuple(poly))


# ---------------------------------------------------------------------------
# root predictions
# ---------------------------------------------------------------------------


def _factor_roots(p: HeunParams, tag: CaseTag, row, steps) -> list[tuple]:
    """The q -> +0 roots (sign, d, prefactor) of one factor, read off the
    Newton polygon of the leading exponents x0, x1, x2 of its coefficients.

    With the t-powers put back (pE ~ t1^-1 t2^-1, pc ~ t2^-1, r ~ t1^-1
    t2^-1): a linear factor has the root -t1 q^{x0-x1}.  A quadratic whose
    polygon bends at x1 (2 x1 < x0 + x2) has a one-scale root -t1 q^{x1-x2}
    and a partner -t1 q^{x0-x1} when pc_k pc_{k-1} leads x0, or +t2 q^{x0-x1}
    when -r_k does (a split pair); one edge (2 x1 > x0 + x2) gives the
    balanced pair +-sqrt(t1 t2) q^{(x0-x2)/2}.  A tie of x0's two terms, or
    a straight polygon, raises ExcludedCaseError."""
    coeffs = _factor(row, steps)
    x = [min(e for _, e in terms) for terms in coeffs]
    if len(x) == 2:
        return [(-1, x[0] - x[1], "t1")]
    (_, cc), (_, r) = coeffs[0]
    bend = 2 * x[1] - x[0] - x[2]
    if cc == r or not bend:
        name, X, *_ = _one_scale(p, tag.regime)
        c, n = (4, steps[1] // 2) if tag.regime == R31 else (2, steps[1])
        raise ExcludedCaseError(f"boundary case: {c}n+{name} = {c * n + X} for n = {n}")
    if bend > 0:
        g = (x[0] - x[2]) / 2
        return [(+1, g, BALANCED), (-1, g, BALANCED)]
    return [(-1, x[1] - x[2], "t1"), (-1, x[0] - x[1], "t1") if cc < r else (+1, x[0] - x[1], "t2")]


def pn_root_pair(p: HeunParams, n: int, tag: CaseTag) -> tuple[PredictedRoot, PredictedRoot]:
    """The q -> +0 roots of the n-th quadratic factor, steps (2n-1, 2n) in
    R31 and (n-1, n) in R32 (see _factor_roots): two one-scale roots, a
    split pair, or the balanced pair +-q^{(a1+a2+h1+h2)/2} sqrt(t1 t2).
    Exact boundary hits raise ExcludedCaseError.
    """
    if n < 1:
        raise DomainError(f"factor index must be >= 1, got {n}")
    if tag.regime not in (R31, R32):
        raise RegimeError(f"pn_root_pair applies to R31/R32 only, got {tag.regime}")
    k = 2 * n if tag.regime == R31 else n
    roots = _factor_roots(p, tag, _leading_rows(p, tag), (k - 1, k))
    return tuple(PredictedRoot(*r) for r in roots)


def predict_roots(p: HeunParams, tag: CaseTag) -> list[PredictedRoot]:
    """The full multiset of N+1 predicted roots for a classified tag: the
    roots of each factor of tilde_cN1.

    Balanced pairs are aggregated into multiplicity entries; sharp marks
    predictions whose t1 prefactor is a genuine limit constant (the
    one-scale regimes' case (i) and the whole switching regime).
    """
    if not tag.classified():
        raise RegimeError(f"cannot predict roots for regime {tag.regime}")
    row = _leading_rows(p, tag)
    counts = Counter(
        root for steps in _factor_steps(p, tag) for root in _factor_roots(p, tag, row, steps)
    )
    sharp = tag.regime == R33 or tag.subcase == "i"
    out = [PredictedRoot(s, d, pf, m, sharp) for (s, d, pf), m in counts.items()]
    out.sort(key=lambda e: (e.d, -e.sign))
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


def _s_polynomial(p: HeunParams, g: Fraction) -> list[Fraction]:
    """The s-polynomial: the coefficients, degree-ascending from the lowest
    nonzero one, of the least nonzero q-slice of c_{N+1}(s q^g)'s numerator
    with t1, t2 substituted (the denominator cannot change the slice).

    three_term runs on the exact rows with q^g folded into B, so that every
    s^j term carries its total exponent.  gain[n], the least exponent steps
    n+1 .. N+1 can still add, is one B/C step plus gain[n+1] or one R step
    plus gain[n+2], and the cut is gain[0].  The cut run keeps the B and C
    terms of step n up to gain[n-1] - gain[n], and its R terms up to
    gain[n-2] - gain[n] (R_1 = 0).  By induction level n then holds only
    the exponent cut - gain[n], and holds all of it: a dropped B or C term
    times any term of c_{n-1}, which sits at cut - gain[n-1] or above,
    lands above cut - gain[n], and so does a dropped R term times c_{n-2}.
    So the slices at or below the cut are exact, and only they are read; a
    slice above it would miss the dropped products.  When they all cancel,
    the run is repeated once on the full rows."""
    rows = [(B * QSum.term(1, qexp=g), C, R) for B, C, R in _three_term_rows(p)]
    gain = [Fraction(0)] * (len(rows) + 1)
    for n in range(len(rows) - 1, -1, -1):
        gain[n] = min([x.leading_exponent + gain[n + 1] for x in rows[n][:2] if x]
                      + [R.leading_exponent + gain[n + 2] for _, _, R in rows[n + 1:n + 2] if R])

    def upto(x, top):
        return QSum(t for t in x.terms if t.qexp <= top)

    cut_rows = [(upto(B, gain[n - 1] - gain[n]), upto(C, gain[n - 1] - gain[n]),
                 upto(R, gain[n - 2] - gain[n]) if n >= 2 else R) for n, (B, C, R) in enumerate(rows, 1)]

    for cut, run in ((gain[0], cut_rows), (None, rows)):
        slices = defaultdict(Counter)
        for j, c in enumerate(three_term(p, run, lambda parts, n, site, pk: pk.merge(parts)[0])[-1]):
            for t in c.terms:
                slices[t.qexp][j] += t.coeff * p.t1 ** t.t1pow * p.t2 ** t.t2pow
        for x in sorted(x for x in slices if cut is None or x <= cut):
            if coeffs := {j: v for j, v in slices[x].items() if v}:
                return [coeffs.get(j, Fraction(0)) for j in range(min(coeffs), max(coeffs) + 1)]
    raise DegenerateSPolyError("all s-polynomial coefficients cancelled")


def multiplicity_prefactors(
    p: HeunParams, tag: CaseTag, *, predictions: Sequence[PredictedRoot] | None = None
) -> list:
    """Distinct signed prefactors refining a multiplicity >= 2 balanced pair.

    Empty when the prediction multiset has no such pair; otherwise
    non-empty, or DegenerateSPolyError.  Solves the s-polynomial (rational
    once t1, t2 are substituted, and read from a truncated run of the
    recursion: c_{N+1} is never built) exactly and returns its nonzero real
    roots, sorted ascending.  ``predictions`` is predict_roots(p, tag) or None.
    """
    preds = predictions if predictions is not None else predict_roots(p, tag)
    if not any(e.prefactor == BALANCED and e.multiplicity >= 2 for e in preds):
        return []
    reduced = _s_polynomial(p, balanced_exponent(p))
    if len(reduced) <= 1:
        raise DegenerateSPolyError("s-polynomial has no nonzero roots")
    try:
        roots = root_search.real_roots_of_rational_poly(reduced, S_ROOT_BITS)
    except PrecisionError as exc:  # count shortfall means non-simple/complex roots
        raise DegenerateSPolyError(f"s-polynomial root isolation failed: {exc}") from exc
    return sorted(roots)


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
    # pexp[n], qexp[n], rexp[n]: the exponents of the rows pE, pc, r of step n
    pexp, qexp, rexp = zip((None,) * 3, *map(_leading_rows(p, tag), range(1, M + 1)))

    if tag.regime == R31:

        def d(k: int, l: int) -> Fraction:
            return (
                sum((rexp[2 * i] for i in range(1, k + 1)), Fraction(0))
                + sum((pexp[j] for j in range(2 * k + 1, 2 * k + l + 1)), Fraction(0))
                + sum((qexp[j] for j in range(2 * k + l + 1, M + 1)), Fraction(0))
            )

    else:

        def d(k: int, l: int) -> Fraction:
            a = M - 2 * k - l
            return (
                sum((qexp[j] for j in range(1, a + 1)), Fraction(0))
                + sum((pexp[j] for j in range(a + 1, M - 2 * k + 1)), Fraction(0))
                + sum((rexp[M - 2 * k + 2 * i] for i in range(1, k + 1)), Fraction(0))
            )

    hits = []
    for l in range(0, M + 1):
        kmax = (M - l) // 2
        for k in range(0, kmax + 1):
            for k2 in range(k + 1, kmax + 1):
                if d(k, l) == d(k2, l):
                    hits.append((k, k2, l))
    return hits
