"""Exact arithmetic over finite sums of q-monomials.

A term is ``r * t1^a * t2^b * q^mu`` with nonzero rational ``r``, integer
``a, b`` and rational ``mu``.  The symbols ``t1, t2`` stay formal (they stand
for fixed but arbitrary positive reals), which makes cancellation questions
decidable: two terms cancel exactly only when they share the full key
``(mu, a, b)``, while same-``mu`` terms of opposite sign but different
t-monomials are flagged as a potential value-dependent cancellation instead
of being resolved silently.

The q -> +0 comparison machinery lives here as well:

* ``leading_part``    -- the minimal-q-exponent slice, dominant as q -> +0;
* ``equiv_sim``       -- ratio tends to 1 (equal leading slices);
* ``equiv_approx``    -- ratio tends to a positive constant (equal leading
                         exponents, same definite sign);
* ``ultradiscretize`` -- (exponent, sign) of the leading slice.

All symbolic operations are exact; floating point enters only through
``AtQ``, the one evaluator at fixed q, t1, t2.  It validates them once, and
every q-power of the numeric layers comes from it: the image of the
spectral polynomial, the numeric recursion, the residual, the root seeds
and the matching ratios.  ``eval_terms`` evaluates one sum with it, and
``eval_numeric`` is the extended-precision value of one sum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import mpmath

from .errors import DomainError, SignIndefiniteError, ZeroQSumError

__all__ = [
    "QMonomial",
    "QSum",
    "CancellationEvent",
    "EXACT_ZERO",
    "SIGN_CONFLICT",
    "as_fraction",
    "qpow",
    "qsum_add",
    "qsum_merge",
    "qsum_mul",
    "TermDict",
    "terms_merge",
    "terms_mul",
    "leading_part",
    "equiv_sim",
    "equiv_approx",
    "ultradiscretize",
    "AtQ",
    "eval_terms",
    "eval_numeric",
    "EVAL_GUARD_BITS",
    "EVAL_MARGIN_BITS",
    "EVAL_MIN_BITS",
]

RationalLike = Union[Fraction, int, str]

#: Extra working bits used internally by eval_numeric.  With them, the
#: documented round-off envelope of the evaluation homomorphism is
#: ``2**(-bits + EVAL_MARGIN_BITS) * scale`` where ``scale`` is the sum of
#: the absolute values of the evaluated terms.
EVAL_GUARD_BITS = 24
EVAL_MARGIN_BITS = 16
#: The least precision eval_numeric and the command line accept.
EVAL_MIN_BITS = 64

#: CancellationEvent kinds.
EXACT_ZERO = "exact-zero"
SIGN_CONFLICT = "sign-conflict-at-leading-exponent"

_ZERO = Fraction(0)

#: (qexp, t1pow, t2pow) -> nonzero coefficient; qexp of any type that adds
#: and orders (Fractions in QSum, integer-scaled in the exact recursion).
TermDict = dict


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings like '3/4' or '1e-3' to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, order=True)
class QMonomial:
    """A single term coeff * t1^t1pow * t2^t2pow * q^qexp.

    Field order makes the natural sort key (qexp, t1pow, t2pow).  A
    normalized monomial has coeff != 0; QSum enforces this.
    """

    qexp: Fraction
    t1pow: int
    t2pow: int
    coeff: Fraction

    def key(self) -> tuple[Fraction, int, int]:
        return (self.qexp, self.t1pow, self.t2pow)


#: Multiplicative unit monomial, also the default EPoly denominator.
UNIT_MONOMIAL = QMonomial(_ZERO, 0, 0, Fraction(1))


@dataclass(frozen=True)
class CancellationEvent:
    """Diagnostic record attached to additions.

    kind == EXACT_ZERO: contributions on one key summed to zero.
    kind == SIGN_CONFLICT: the result's minimal-exponent slice carries both
    signs, so for specific positive t1, t2 the leading coefficient may vanish.
    """

    site: str
    qexp: Fraction
    kind: str


class QSum:
    """A normalized finite sum of q-monomials; the empty sum is zero.

    Construction merges terms with equal (qexp, t1pow, t2pow), drops zero
    coefficients and sorts the rest, so two QSums compare equal iff they are
    the same element of the ring.  Operations whose result is already in
    that normal form build it with ``_sorted``, which does neither again.
    Instances are immutable and hashable; every operation returns a fresh
    value, which makes them safe to share across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[QMonomial] = ()):
        acc: dict[tuple[Fraction, int, int], Fraction] = {}
        for t in terms:
            k = (t.qexp, t.t1pow, t.t2pow)
            acc[k] = acc.get(k, _ZERO) + t.coeff
        self.terms: tuple[QMonomial, ...] = tuple(
            QMonomial(k[0], k[1], k[2], c)
            for k, c in sorted(acc.items())
            if c
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def _sorted(cls, terms: tuple[QMonomial, ...]) -> "QSum":
        """Trusted constructor: ``terms`` must already be the normal form,
        sorted by (qexp, t1pow, t2pow) with distinct keys and nonzero
        coefficients.  They are stored as given."""
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls) -> "QSum":
        return _QSUM_ZERO

    @classmethod
    def one(cls) -> "QSum":
        return _QSUM_ONE

    @classmethod
    def term(
        cls,
        coeff: RationalLike,
        t1pow: int = 0,
        t2pow: int = 0,
        qexp: RationalLike = 0,
    ) -> "QSum":
        c = as_fraction(coeff)
        if not c:
            return cls()
        return cls((QMonomial(as_fraction(qexp), t1pow, t2pow, c),))

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    @property
    def leading_exponent(self) -> Fraction:
        """Minimal q-exponent; undefined for zero."""
        if not self.terms:
            raise ZeroQSumError("zero has no leading exponent")
        return self.terms[0].qexp

    # -- ring structure ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QSum):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "QSum") -> "QSum":
        if not isinstance(other, QSum):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return QSum(self.terms + other.terms)

    def __radd__(self, other):
        if other == 0:  # allows sum(...)
            return self
        return NotImplemented

    def __neg__(self) -> "QSum":
        return QSum._sorted(tuple(
            QMonomial(t.qexp, t.t1pow, t.t2pow, -t.coeff) for t in self.terms
        ))

    def __sub__(self, other: "QSum") -> "QSum":
        return self + (-other)

    def __mul__(self, other) -> "QSum":
        if isinstance(other, QSum):
            return qsum_mul(self, other)
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                return QSum()
            return QSum._sorted(tuple(
                QMonomial(t.qexp, t.t1pow, t.t2pow, t.coeff * c)
                for t in self.terms
            ))
        return NotImplemented

    __rmul__ = __mul__

    def div_monomial(self, m: QMonomial) -> "QSum":
        """Exact division by a single monomial: a uniform shift of the keys,
        so the order of the terms is kept.  Terms sharing one exponent
        object (as the exact recursion builds them) share its shift."""
        e, a, b, c = m.qexp, m.t1pow, m.t2pow, m.coeff
        unit = c == 1
        terms = []
        mu = shifted = None
        for t in self.terms:
            if t.qexp is not mu:
                mu, shifted = t.qexp, t.qexp - e
            terms.append(QMonomial(
                shifted,
                t.t1pow - a,
                t.t2pow - b,
                t.coeff if unit else t.coeff / c,
            ))
        return QSum._sorted(tuple(terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "QSum(0)"
        bits = []
        for t in self.terms:
            part = f"{t.coeff}"
            if t.t1pow:
                part += f"*t1^{t.t1pow}"
            if t.t2pow:
                part += f"*t2^{t.t2pow}"
            if t.qexp:
                part += f"*q^({t.qexp})"
            bits.append(part)
        return "QSum(" + " + ".join(bits) + ")"


_QSUM_ZERO = QSum()
_QSUM_ONE = QSum.term(1)


def qpow(mu: RationalLike) -> QSum:
    """The monomial q^mu."""
    return QSum.term(1, qexp=mu)


# ---------------------------------------------------------------------------
# additive operations with cancellation diagnostics
# ---------------------------------------------------------------------------


def _slice_sign(coeffs: Sequence) -> int | None:
    """+1 / -1 when every coefficient shares that sign, else None."""
    pos = any(c > 0 for c in coeffs)
    neg = any(c < 0 for c in coeffs)
    if pos and neg:
        return None
    return 1 if pos else -1


def terms_mul(a: TermDict, b: TermDict) -> TermDict:
    """Exact product of two term dicts (no diagnostics: products create no
    cancellations of their own, only the subsequent merge can)."""
    out: TermDict = {}
    get = out.get
    for (ka0, ka1, ka2), ca in a.items():
        for (kb0, kb1, kb2), cb in b.items():
            k = (ka0 + kb0, ka1 + kb1, ka2 + kb2)
            prev = get(k)
            out[k] = ca * cb if prev is None else prev + ca * cb
    return {k: c for k, c in out.items() if c}


def terms_merge(
    parts: Sequence[TermDict], site: str = ""
) -> tuple[TermDict, list[CancellationEvent]]:
    """Sum several term dicts, recording cancellation diagnostics.

    Events: one EXACT_ZERO per key whose contributions annihilated, and one
    SIGN_CONFLICT when the result's leading-exponent slice is mixed-sign.
    Event exponents are the key exponents as given; EXACT_ZERO events come
    in key order.
    """
    acc: TermDict = {}
    multi = set()
    for part in parts:
        for k, c in part.items():
            if k in acc:
                multi.add(k)
                acc[k] += c
            else:
                acc[k] = c
    events = [
        CancellationEvent(site, k[0], EXACT_ZERO)
        for k in sorted(k for k in multi if not acc[k])
    ]
    cleaned = {k: c for k, c in acc.items() if c}
    if cleaned:
        lead = min(k[0] for k in cleaned)
        if _slice_sign([c for k, c in cleaned.items() if k[0] == lead]) is None:
            events.append(CancellationEvent(site, lead, SIGN_CONFLICT))
    return cleaned, events


def _as_terms(a: QSum) -> TermDict:
    return {t.key(): t.coeff for t in a.terms}


def _from_terms(d: TermDict) -> QSum:
    """The QSum of a term dict with nonzero coefficients (as terms_mul and
    terms_merge return them): dict keys are distinct, so sorting suffices."""
    return QSum._sorted(tuple(
        QMonomial(k[0], k[1], k[2], c) for k, c in sorted(d.items())
    ))


def qsum_merge(
    parts: Sequence[QSum], site: str = ""
) -> tuple[QSum, list[CancellationEvent]]:
    """Sum several QSums, recording cancellation diagnostics; see
    terms_merge."""
    merged, events = terms_merge([_as_terms(a) for a in parts], site)
    return _from_terms(merged), events


def qsum_add(
    a: QSum, b: QSum, site: str = ""
) -> tuple[QSum, list[CancellationEvent]]:
    """Exact sum with diagnostics; see qsum_merge."""
    return qsum_merge((a, b), site)


def qsum_mul(a: QSum, b: QSum) -> QSum:
    """Exact product; see terms_mul."""
    return _from_terms(terms_mul(_as_terms(a), _as_terms(b)))


# ---------------------------------------------------------------------------
# q -> +0 comparison machinery
# ---------------------------------------------------------------------------


def leading_part(a: QSum) -> QSum:
    """All terms of ``a`` at the minimal q-exponent; they dominate as q -> +0."""
    if not a.terms:
        raise ZeroQSumError("zero has no leading part")
    lead = a.terms[0].qexp
    n = 1
    while n < len(a.terms) and a.terms[n].qexp == lead:
        n += 1
    return QSum._sorted(a.terms[:n])


def equiv_sim(a: QSum, b: QSum) -> bool:
    """True iff a(q)/b(q) -> 1 as q -> +0.

    With t1, t2 formal positive symbols this holds exactly when the leading
    slices agree term by term.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroQSumError("equiv_sim is undefined for the zero sum")
    return leading_part(a) == leading_part(b)


def equiv_approx(a: QSum, b: QSum) -> bool:
    """True iff a(q)/b(q) -> C for some constant C > 0 as q -> +0.

    Requires both leading slices to be sign-definite (for fixed positive
    t1, t2 the limit is then a positive constant iff the exponents agree and
    the signs match); a mixed-sign slice raises SignIndefiniteError.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroQSumError("equiv_approx is undefined for the zero sum")
    ea, sa = ultradiscretize(a)
    eb, sb = ultradiscretize(b)
    return ea == eb and sa == sb


def ultradiscretize(a: QSum) -> tuple[Fraction, int]:
    """Ultradiscrete image of ``a``: (leading exponent, sign of the slice).

    Raises SignIndefiniteError when the leading slice carries both signs.
    """
    lead = leading_part(a)
    sign = _slice_sign([t.coeff for t in lead.terms])
    if sign is None:
        raise SignIndefiniteError(
            f"sign-indefinite leading part at q^({lead.terms[0].qexp})"
        )
    return lead.terms[0].qexp, sign


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


def _fraction_to_mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def to_mpf(x):
    """Convert Fractions, ints, strings and floats to mpf in the current
    working precision.  mpf inputs pass through unrounded (re-creating an
    mpf would silently truncate it to the caller's precision)."""
    if isinstance(x, mpmath.mpf):
        return x
    if isinstance(x, Fraction):
        return _fraction_to_mpf(x)
    if isinstance(x, (int, float)):
        return mpmath.mpf(x)
    if isinstance(x, str):
        return _fraction_to_mpf(Fraction(x))
    raise TypeError(f"cannot convert {type(x).__name__} to mpf")


class AtQ:
    """Evaluation at a fixed q in (0,1) and positive t1, t2.

    Build and use it inside one mpmath precision: each distinct q^mu, t1^a,
    t2^b and coefficient is computed once, at the precision current when it
    is first asked for, and a memoised value is the very value a fresh
    computation returns.  ``qpow(mu)`` is q^mu, computed as exp(mu * log q),
    which keeps the accuracy uniform in |mu|.
    """

    def __init__(self, q, t1, t2):
        self.q = to_mpf(q)
        if not (0 < self.q < 1):
            raise DomainError(f"q must lie in (0,1), got {q}")
        self.t1, self.t2 = to_mpf(t1), to_mpf(t2)
        if not (self.t1 > 0 and self.t2 > 0):
            raise DomainError("t1 and t2 must be positive")
        self.lq = lq = mpmath.log(self.q)
        self.qpow = functools.cache(lambda mu: mpmath.exp(to_mpf(mu) * lq))
        self._t1pow = functools.cache(self.t1.__pow__)
        self._t2pow = functools.cache(self.t2.__pow__)
        self._coeff = functools.cache(to_mpf)

    def term(self, t: QMonomial):
        """coeff * q^qexp * t1^t1pow * t2^t2pow, multiplied in that order."""
        v = self._coeff(t.coeff)
        if t.qexp:
            v *= self.qpow(t.qexp)
        if t.t1pow:
            v *= self._t1pow(t.t1pow)
        if t.t2pow:
            v *= self._t2pow(t.t2pow)
        return v


def eval_terms(a: QSum, at: AtQ):
    """Value of ``a`` at ``at``, in the precision ``at`` is used in."""
    return mpmath.fsum([at.term(t) for t in a.terms])


def eval_numeric(a: QSum, q, t1, t2, bits: int = 512):
    """Value of ``a`` at numeric q in (0,1) and positive rational t1, t2.

    Computed at bits + EVAL_GUARD_BITS working precision and rounded back to
    ``bits``; the result is exact to within 2**(-bits + EVAL_MARGIN_BITS)
    relative to the sum of the term magnitudes.
    """
    if bits < EVAL_MIN_BITS:
        raise DomainError(f"bits must be at least {EVAL_MIN_BITS}, got {bits}")
    with mpmath.workprec(bits + EVAL_GUARD_BITS):
        total = eval_terms(a, AtQ(q, t1, t2))
    with mpmath.workprec(bits):
        return +total
