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

Every sum is kept in integer form: one scale ``D`` (exponents are
multiples of 1/D) and the terms as (packed key, coefficient) pairs, sorted
by key; see ``pack_key``.  A coefficient is an int whenever it is an
integer and a Fraction only otherwise, so the ring's products and sums
run on ints.  The Fraction ``QMonomial`` tuple ``QSum.terms`` is built
only when it is read.  ``terms_mul`` is the product of the sums, on term
dicts keyed by packed keys; ``terms_merge``, their merge with
cancellation events, is the tests' oracle of Packed.merge.  The exact
recursion runs on ``Packed``, Kronecker substitution on CPython
ints: each t-monomial's polynomial in q^(1/D) is one int with a w-bit digit
per exponent, a row product is a sum of shifted copies, and a merge gives
terms_merge's events.  Its results become sums that keep the packed entry
until their items are first read; the zero test, the leading exponent, the
leading slice and a shift by a unit monomial answer from the entry.

All symbolic operations are exact.  Every fixed-q number of the pipeline
(the recursion rows, the residual's factors, the root seeds and the
matching ratios) takes its q-powers from integer roots
(``dyadic.Box.qpow``).  ``AtQ``, the mpf evaluator at fixed q, t1, t2,
serves only the image of the spectral polynomial
(``spectral.EPoly.coefficient_values``): it validates them and takes log
q once, and computes every power when it is asked for.  ``eval_terms``
evaluates one sum with it, term by term.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
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
    "TermDict",
    "pack_key",
    "unpack_key",
    "terms_merge",
    "terms_mul",
    "Packed",
    "leading_part",
    "equiv_sim",
    "equiv_approx",
    "ultradiscretize",
    "AtQ",
    "eval_terms",
    "EVAL_GUARD_BITS",
    "EVAL_MIN_BITS",
]

RationalLike = Union[Fraction, int, str]

#: The bits a fixed-q computation at ``bits`` works with beyond them: the
#: image (EPoly.coefficient_values), the fixed-q table and the root search
#: run at bits + EVAL_GUARD_BITS.
EVAL_GUARD_BITS = 24
#: The least precision the command line accepts.
EVAL_MIN_BITS = 64

#: CancellationEvent kinds.
EXACT_ZERO = "exact-zero"
SIGN_CONFLICT = "sign-conflict-at-leading-exponent"

# ---------------------------------------------------------------------------
# integer keys
#
# The key (e, a, b) of a term coeff * t1^a * t2^b * q^(e/D) is packed into
# the one int e*2^(2W) + a*2^W + b.  The packing is linear, so the sum of two
# keys is the key of the product and a difference is a division; and while
# a and b lie in the packed range [-L, L), L = 2^(W-2), int order is
# (e, a, b) order.  e is the top field and unbounded.  A t-field is twice as
# wide as its range, so a sum of two packed keys never carries into the next
# field before it is checked: pack_key, terms_mul and div_monomial raise
# AssertionError for a t-power outside the range, and nothing ever wraps.
# ---------------------------------------------------------------------------

_W = 32
_W2 = 2 * _W
_MASK = (1 << _W) - 1
T_LIMIT = 1 << (_W - 2)
_BIAS = (T_LIMIT << _W) | T_LIMIT
# with _BIAS added, a t-field in the range has its bit 2L clear
_GUARD = (2 * T_LIMIT << _W) | (2 * T_LIMIT)

#: packed key -> nonzero int or Fraction coefficient, at one scale D.
TermDict = dict


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings like '3/4' or '1e-3' to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _integral(c):
    """c, with an integral Fraction as an int."""
    return c.numerator if c.denominator == 1 else c


def _int_form(items: list) -> tuple:
    """(key, coefficient) pairs with every integral coefficient an int: the
    normal form.  Only pairs that hold a Fraction need the pass."""
    if Fraction in set(map(type, map(operator.itemgetter(1), items))):
        return tuple((k, _integral(c)) for k, c in items)
    return tuple(items)


def pack_key(e: int, a: int, b: int) -> int:
    """The packed key of q^(e/D) t1^a t2^b at scale D."""
    if not (-T_LIMIT <= a < T_LIMIT and -T_LIMIT <= b < T_LIMIT):
        raise AssertionError(f"t-powers ({a}, {b}) outside the packed range [-{T_LIMIT}, {T_LIMIT})")
    return (e << _W2) + (a << _W) + b


def unpack_key(k: int) -> tuple[int, int, int]:
    """(e, t1pow, t2pow) of a packed key."""
    z = k + _BIAS
    return z >> _W2, ((z >> _W) & _MASK) - T_LIMIT, (z & _MASK) - T_LIMIT


def _check_t_range(keys) -> None:
    """Raise unless every key has its t-powers in the packed range.  Exact
    for sums and differences of two keys in the range: their t-fields lie in
    [-2L, 2L), where a field outside [-L, L) sets its guard bit."""
    if functools.reduce(operator.or_, map(_BIAS.__add__, keys), 0) & _GUARD:
        raise AssertionError(f"a t-power outside the packed range [-{T_LIMIT}, {T_LIMIT})")


@dataclass(frozen=True, order=True, slots=True)
class QMonomial:
    """A single term coeff * t1^t1pow * t2^t2pow * q^qexp.

    Field order makes the natural sort key (qexp, t1pow, t2pow).  A
    normalized monomial has coeff != 0; QSum enforces this.  Slotted: a
    QSum's terms hold one per term.
    """

    qexp: Fraction
    t1pow: int
    t2pow: int
    coeff: Fraction


#: Multiplicative unit monomial, also the default EPoly denominator.
UNIT_MONOMIAL = QMonomial(Fraction(0), 0, 0, Fraction(1))

#: e, den -> Fraction(e, den) and c -> Fraction(c), shared across sums by
#: QSum.terms (and the exponents of Packed.merge's events).
_exponent = functools.lru_cache(maxsize=4096)(Fraction)
_coefficient = functools.lru_cache(maxsize=4096)(Fraction)
#: The slot setters of QMonomial's fields, which QSum.terms calls directly.
_MONOMIAL_SETTERS = tuple(getattr(QMonomial, f).__set__ for f in QMonomial.__slots__)


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

    Held in integer form: ``den`` is the scale D, and ``items`` the
    (packed key, nonzero coefficient) pairs at that scale, with distinct
    keys, sorted; a coefficient is an int when it is integral and a
    Fraction only when it is not.  Equal keys are merged and zero
    coefficients dropped, so two QSums compare equal iff they are the same
    element of the ring, whatever their scales.  ``terms``, the QMonomial
    tuple with Fraction exponents and coefficients, is built on its first
    read.  A sum made by ``from_entry`` holds a ``Packed`` entry dict
    instead of ``items``: its first read of ``items`` decodes the entry
    through ``Packed.items`` and drops it.  ``is_zero``, ``bool``,
    ``leading_exponent``, ``leading_part`` and ``div_monomial`` by a unit
    monomial on the scale answer from the entry without the decode; every
    other operation reads ``items``.  Instances are immutable and hashable;
    every operation returns a fresh value, which makes them safe to share
    across threads (a race on ``items`` or ``terms`` only computes the same
    value twice).
    """

    # ``items`` is left unset until a sum from from_entry is decoded, so that
    # its first read falls through to __getattr__
    __slots__ = ("den", "items", "_terms", "_entry")

    def __init__(self, terms: Iterable[QMonomial] = ()):
        terms = tuple(terms)
        den = math.lcm(*(t.qexp.denominator for t in terms))
        acc: TermDict = {}
        for t in terms:
            k = pack_key(t.qexp.numerator * (den // t.qexp.denominator), t.t1pow, t.t2pow)
            acc[k] = acc.get(k, 0) + t.coeff
        self.den, self.items, self._terms = den, tuple(sorted((k, _integral(c)) for k, c in acc.items() if c)), None
        self._entry = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _packed(cls, den: int, items: tuple) -> "QSum":
        """Trusted constructor: ``items`` are stored as given, the normal form at scale ``den``."""
        self = object.__new__(cls)
        self.den, self.items, self._terms, self._entry = den, items, None, None
        return self

    @classmethod
    def from_entry(cls, pk: "Packed", entry: dict) -> "QSum":
        """The QSum of a normal entry dict of ``pk``, at scale ``pk.den``;
        decoded on the first read of ``items``.  ``_entry`` holds the pair
        (pk, entry) until then."""
        self = object.__new__(cls)
        self.den, self._terms, self._entry = pk.den, None, (pk, entry)
        return self

    def __getattr__(self, name):
        """Decodes ``items`` of a sum from from_entry on its first read."""
        if name != "items":
            raise AttributeError(name)
        packed = self._entry
        if packed is not None:
            self.items = packed[0].items(packed[1])
            self._entry = None
        return self.items

    @classmethod
    def from_term_dict(cls, d: TermDict, den: int) -> "QSum":
        """The QSum of a term dict at scale ``den`` with nonzero coefficients,
        as terms_mul and terms_merge return them: sorting suffices, and an
        integral Fraction becomes an int."""
        return cls._packed(den, _int_form(sorted(d.items())))

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
        c = coeff if type(coeff) is int else _integral(as_fraction(coeff))
        if not c:
            return cls()
        e = as_fraction(qexp)
        return cls._packed(e.denominator, ((pack_key(e.numerator, t1pow, t2pow), c),))

    # -- predicates and views ----------------------------------------------

    @property
    def terms(self) -> tuple[QMonomial, ...]:
        """The sorted QMonomials, with Fraction exponents and coefficients.
        Each is built by its slot setters, without the dataclass __init__."""
        terms = self._terms
        if terms is None:
            den, out, last, new = self.den, [], None, object.__new__
            set_mu, set_a, set_b, set_c = _MONOMIAL_SETTERS
            for k, c in self.items:
                z = k + _BIAS
                if (e := z >> _W2) != last:
                    last, mu = e, _exponent(e, den)
                if type(c) is not Fraction:
                    c = _coefficient(c)
                m = new(QMonomial)
                set_mu(m, mu)
                set_a(m, ((z >> _W) & _MASK) - T_LIMIT)
                set_b(m, (z & _MASK) - T_LIMIT)
                set_c(m, c)
                out.append(m)
            terms = self._terms = tuple(out)
        return terms

    def at_scale(self, den: int) -> tuple:
        """``items`` with the keys at scale ``den``; AssertionError when an
        exponent is not a multiple of 1/den."""
        if den == self.den:
            return self.items
        out = []
        for k, c in self.items:
            e = (k + _BIAS) >> _W2
            e2, r = divmod(e * den, self.den)
            if r:
                raise AssertionError(f"exponent {Fraction(e, self.den)} not in (1/{den})Z")
            out.append((k + ((e2 - e) << _W2), c))
        return tuple(out)

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        packed = self._entry
        return bool(self.items if packed is None else packed[1])

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.terms)

    @property
    def leading_exponent(self) -> Fraction:
        """Minimal q-exponent; undefined for zero."""
        if not self:
            raise ZeroQSumError("zero has no leading exponent")
        packed = self._entry
        if packed is None:
            return Fraction((self.items[0][0] + _BIAS) >> _W2, self.den)
        return Fraction(min(e0 for e0, _ in packed[1].values()), self.den)

    # -- ring structure ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSum):
            return NotImplemented
        if self.den == other.den:
            return self.items == other.items
        den = math.lcm(self.den, other.den)
        return len(self) == len(other) and self.at_scale(den) == other.at_scale(den)

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "QSum") -> "QSum":
        if not isinstance(other, QSum):
            return NotImplemented
        if not other.items:
            return self
        if not self.items:
            return other
        den = math.lcm(self.den, other.den)
        acc = dict(self.at_scale(den))
        for k, c in other.at_scale(den):
            acc[k] = acc.get(k, 0) + c
        return QSum.from_term_dict({k: c for k, c in acc.items() if c}, den)

    def __radd__(self, other):
        if other == 0:  # allows sum(...)
            return self
        return NotImplemented

    def __neg__(self) -> "QSum":
        return QSum._packed(self.den, tuple((k, -c) for k, c in self.items))

    def __sub__(self, other: "QSum") -> "QSum":
        return self + (-other)

    def __rsub__(self, other) -> "QSum":
        if isinstance(other, (int, Fraction)):  # allows 1 - q^mu
            return QSum.term(other) - self
        return NotImplemented

    def __mul__(self, other) -> "QSum":
        """Exact product; see terms_mul."""
        if isinstance(other, QSum):
            den = math.lcm(self.den, other.den)
            prod = terms_mul(dict(self.at_scale(den)), dict(other.at_scale(den)))
            return QSum.from_term_dict(prod, den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return QSum()
            return QSum._packed(self.den, _int_form([(k, c * other) for k, c in self.items]))
        return NotImplemented

    __rmul__ = __mul__

    def div_monomial(self, m: QMonomial) -> "QSum":
        """Exact division by a single monomial: a uniform shift of the keys,
        so the order of the terms is kept.  On an undecoded sum, a unit
        monomial whose exponent lies on the scale shifts the entry's t-keys
        and e0s instead."""
        packed = self._entry
        if packed is not None and m.coeff == 1 and not self.den % m.qexp.denominator:
            (pk, entry), de = packed, m.qexp.numerator * (self.den // m.qexp.denominator)
            dt = pack_key(0, m.t1pow, m.t2pow)
            keys = [t - dt for t in entry]
            _check_t_range(keys)
            return QSum.from_entry(pk, dict(zip(keys, [(e0 - de, V) for e0, V in entry.values()])))
        den = math.lcm(self.den, m.qexp.denominator)
        items = self.at_scale(den)
        shift = -pack_key(m.qexp.numerator * (den // m.qexp.denominator), m.t1pow, m.t2pow)
        keys = list(map(shift.__add__, map(operator.itemgetter(0), items)))
        _check_t_range(keys)
        vals = map(operator.itemgetter(1), items)
        if m.coeff != 1:  # a Fraction divisor: int / int would be a float
            vals = map(operator.truediv, vals, repeat(as_fraction(m.coeff)))
            return QSum._packed(den, _int_form(list(zip(keys, vals))))
        return QSum._packed(den, tuple(zip(keys, vals)))

    def __repr__(self) -> str:
        if not self.items:
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
    """Exact product of two term dicts at one scale (no diagnostics:
    products create no cancellations of their own, only the subsequent
    merge can)."""
    if len(a) < len(b):
        a, b = b, a
    out: TermDict = {}
    for kb, cb in b.items():
        if not out:
            out = {ka + kb: ca * cb for ka, ca in a.items()}
            continue
        get = out.get
        for ka, ca in a.items():
            k = ka + kb
            prev = get(k)
            out[k] = ca * cb if prev is None else prev + ca * cb
    _check_t_range(out)
    if 0 in out.values():
        return {k: c for k, c in out.items() if c}
    return out


def terms_merge(
    parts: Sequence[TermDict], site: str = "", den: int = 1
) -> tuple[TermDict, list[CancellationEvent]]:
    """Sum several term dicts at scale ``den``, recording cancellation
    diagnostics.

    Events: one EXACT_ZERO per key whose contributions annihilated (the
    parts have nonzero coefficients, so these are the keys that sum to 0),
    and one SIGN_CONFLICT when the result's leading-exponent slice is
    mixed-sign.  Event exponents are Fractions, the key exponents over
    ``den``; EXACT_ZERO events come in key order.
    """
    acc: TermDict = dict(parts[0]) if parts else {}
    get = acc.get
    for part in parts[1:]:
        for k, c in part.items():
            prev = get(k)
            acc[k] = c if prev is None else prev + c
    events = [
        CancellationEvent(site, Fraction((k + _BIAS) >> _W2, den), EXACT_ZERO)
        for k in sorted(k for k, c in acc.items() if not c)
    ]
    cleaned = {k: c for k, c in acc.items() if c} if events else acc
    if cleaned:
        lead = (min(cleaned) + _BIAS) >> _W2
        end = ((lead + 1) << _W2) - _BIAS
        if _slice_sign([c for k, c in cleaned.items() if k < end]) is None:
            events.append(CancellationEvent(site, Fraction(lead, den), SIGN_CONFLICT))
    return cleaned, events


# ---------------------------------------------------------------------------
# Kronecker-packed polynomials
#
# The exact recursion holds a sum at scale D as an entry dict: t-key
# pack_key(0, a, b) -> (e0, V), the terms t1^a t2^b q^(e/D), e >= e0, as one
# int V = sum c_e 2^(w (e - e0)) whose signed w-bit digits are the
# coefficients of consecutive exponents (q^(1/D) -> 2^w).  Every digit the
# recursion forms has |c| < 2^(w-1), so with H = 2^(w-1) in each digit,
# V + H has the digits c + 2^(w-1) in [1, 2^w): none borrows from the next.
# An entry is normal: its digit at e0 is nonzero.
# ---------------------------------------------------------------------------


class Packed:
    """Entry dicts at one digit width ``w``: row products, merges with
    terms_merge's events, leading slices and the decode to QSum items.
    QSum.from_entry wraps an entry dict as a sum."""

    def __init__(self, bound: int, den: int):
        """w is the least multiple of 32 with 2^(w-2) > bound, the greatest
        |digit|; events take their exponents at scale den."""
        self.w = w = -(-(bound.bit_length() + 2) // 32) * 32
        self.den, self.half, self.low = den, 1 << (w - 1), (1 << w) - 1
        self.fmt = {32: "i", 64: "q"}.get(w) if sys.byteorder == "little" else None
        self._H, self._steps = 0, []

    def _h(self, nd: int) -> int:
        """H over nd digits, cut from one grown by doubling.  self._H is read
        once: the sums of one run share this Packed and may decode in
        several threads."""
        H = self._H
        if nd * self.w > H.bit_length():
            H = self._H = ((1 << 2 * nd * self.w) - 1) // self.low * self.half
        return H & ((1 << nd * self.w) - 1)

    def _digits(self, V: int, nd: int) -> tuple[int, int]:
        """(z, m) for V over nd digits: z has each digit c as w-bit two's
        complement, m the top bit of each nonzero one (SWAR: as |c| <
        2^(w-1), c != 0 iff its low w-1 bits in z are not all 0)."""
        H = self._h(nd)
        z = (V + H) ^ H
        lo = H - (H >> (self.w - 1))
        return z, ((z & lo) + lo) & H

    def digit(self, V: int) -> int:
        """The lowest digit of V."""
        return ((V + self.half) & self.low) - self.half

    def _sum(self, vals: list):
        """The normal (e0, V) of the sum of (e0, V) values; None for 0."""
        e = min(e0 for e0, _ in vals)
        return self._normal(e, sum(V << self.w * (e0 - e) for e0, V in vals))

    def _normal(self, e: int, S: int):
        """The normal (e0, V) of the digits S from exponent e; None for 0."""
        if S & self.low:
            return e, S
        if not S:
            return None
        z = ((S & -S).bit_length() - 1) // self.w  # the zero low digits
        return e + z, S >> self.w * z

    def row(self, d: TermDict) -> list:
        """A term dict as (t-key, e0, [(bit shift, coefficient)]) per t-key."""
        groups: dict = {}
        for k, c in d.items():
            e = (k + _BIAS) >> _W2
            groups.setdefault(k - (e << _W2), []).append((e, c))
        return [(t, min(ts)[0], [(self.w * (e - min(ts)[0]), c) for e, c in ts]) for t, ts in groups.items()]

    def mul(self, row: list, entry: dict) -> dict:
        """row * entry: per pair of t-keys, a sum of shifted copies of V.
        Like terms_mul, a slot that cancels inside the product is dropped."""
        out: dict = {}
        for tr, er, terms in row:
            for tv, (ev, V) in entry.items():
                P = 0
                for s, c in terms:
                    if c == 1:
                        P += V << s
                    elif c == -1:
                        P -= V << s
                    else:
                        P += (V << s) * c
                k, item = tr + tv, (er + ev, P)
                if k in out and (item := self._sum([out[k], item])) is None:
                    del out[k]
                else:
                    out[k] = item
        _check_t_range(out)
        return out

    def merge(self, parts: Sequence[dict], site: str | None = None) -> tuple[dict, list]:
        """Sum of entry dicts.  With a ``site``, terms_merge's events:
        EXACT_ZERO per slot nonzero in some part and zero in the sum, in key
        order, then SIGN_CONFLICT for a mixed-sign leading slice, read from
        each t-key's digit at e0."""
        out, shared, lost, w = dict(parts[0]), {}, [], self.w
        for part in parts[1:]:
            for k, v in part.items():
                if k in out:
                    shared.setdefault(k, [out[k]]).append(v)
                else:
                    out[k] = v
        for k, vals in shared.items():
            e = min(e0 for e0, _ in vals)
            at_e = [V << w * (e0 - e) for e0, V in vals]
            S = sum(at_e)
            if site is not None:
                nd = max(abs(x).bit_length() for x in at_e) // w + 1
                gone = functools.reduce(operator.or_, (self._digits(x, nd)[1] for x in at_e))
                gone &= ~self._digits(S, nd)[1]
                while gone:
                    bit = gone & -gone
                    lost.append((e + bit.bit_length() // w - 1, k))
                    gone ^= bit
            if (total := self._normal(e, S)) is None:
                del out[k]
            else:
                out[k] = total
        if site is None:
            return out, []
        events = [CancellationEvent(site, _exponent(e, self.den), EXACT_ZERO) for e, _ in sorted(lost)]
        if out:
            lead = min(e0 for e0, _ in out.values())
            if len({self.digit(V) > 0 for e0, V in out.values() if e0 == lead}) == 2:
                events.append(CancellationEvent(site, Fraction(lead, self.den), SIGN_CONFLICT))
        return out, events

    def leading(self, d: dict) -> dict:
        """The leading slice of a nonzero entry dict: each t-key's digit at
        the least e0."""
        lead = min(e0 for e0, _ in d.values())
        return {k: (e0, self.digit(V)) for k, (e0, V) in d.items() if e0 == lead}

    def items(self, d: dict) -> tuple:
        """The sorted (packed key, coefficient) items of an entry dict.  The
        mask picks the nonzero digits: no Python loop visits a zero one."""
        w, wb, out, steps = self.w, self.w // 8, [], self._steps
        for t, (e0, V) in d.items():
            nd = abs(V).bit_length() // w + 1
            if nd > len(steps):  # the key steps i << _W2
                steps = self._steps = [i << _W2 for i in range(2 * nd)]
            z, m = self._digits(V, nd)
            idx = compress(range(nd), (m >> (w - 1)).to_bytes(nd * wb, "little")[::wb])
            z, base = z.to_bytes(nd * wb, "little"), (e0 << _W2) + t
            if self.fmt:
                z = memoryview(z).cast(self.fmt)
                out += [(base + steps[i], z[i]) for i in idx]
            else:
                out += [(base + steps[i], int.from_bytes(z[i * wb:(i + 1) * wb], "little", signed=True)) for i in idx]
        out.sort()
        return tuple(out)


# ---------------------------------------------------------------------------
# q -> +0 comparison machinery
# ---------------------------------------------------------------------------


def leading_part(a: QSum) -> QSum:
    """All terms of ``a`` at the minimal q-exponent; they dominate as q -> +0.
    Read from Packed.leading on an undecoded sum, whose digits there are the
    coefficients."""
    if not a:
        raise ZeroQSumError("zero has no leading part")
    packed = a._entry
    if packed is not None:
        lead = packed[0].leading(packed[1])
        return QSum._packed(a.den, tuple(sorted(((e0 << _W2) + t, c) for t, (e0, c) in lead.items())))
    end = ((((a.items[0][0] + _BIAS) >> _W2) + 1) << _W2) - _BIAS
    return QSum._packed(a.den, a.items[:bisect_left(a.items, end, key=operator.itemgetter(0))])


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
    sign = _slice_sign([c for _, c in lead.items])
    if sign is None:
        raise SignIndefiniteError(
            f"sign-indefinite leading part at q^({lead.leading_exponent})"
        )
    return lead.leading_exponent, sign


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


def to_mpf(x):
    """Convert Fractions, ints and floats to mpf in the current working
    precision.  mpf inputs pass through unrounded (re-creating an mpf would
    silently truncate it to the caller's precision)."""
    if isinstance(x, mpmath.mpf):
        return x
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    if isinstance(x, (int, float)):
        return mpmath.mpf(x)
    raise TypeError(f"cannot convert {type(x).__name__} to mpf")


class AtQ:
    """Evaluation at a fixed q in (0,1) and positive t1, t2.

    Build and use it inside one mpmath precision: q, t1, t2 and log q are
    taken at the precision current when it is built, and every power is
    computed when it is asked for.  ``qpow(mu)`` is q^mu, computed as
    exp(mu * log q), which keeps the accuracy uniform in |mu|.
    """

    def __init__(self, q, t1, t2):
        self.q = to_mpf(q)
        if not (0 < self.q < 1):
            raise DomainError(f"q must lie in (0,1), got {q}")
        self.t1, self.t2 = to_mpf(t1), to_mpf(t2)
        if not (self.t1 > 0 and self.t2 > 0):
            raise DomainError("t1 and t2 must be positive")
        self.lq = mpmath.log(self.q)

    def qpow(self, mu):
        return mpmath.exp(to_mpf(mu) * self.lq)

    def term(self, t: QMonomial):
        """coeff * q^qexp * t1^t1pow * t2^t2pow, multiplied in that order."""
        v = to_mpf(t.coeff)
        if t.qexp:
            v *= self.qpow(t.qexp)
        if t.t1pow:
            v *= self.t1 ** t.t1pow
        if t.t2pow:
            v *= self.t2 ** t.t2pow
        return v


def eval_terms(a: QSum, at: AtQ):
    """Value of ``a`` at ``at``, in the precision ``at`` is used in: the
    sum of AtQ.term over its monomials.  The term sum of the polynomial image
    (EPoly.coefficient_values); API for perfbench's ``qmono.eval_terms`` span."""
    return mpmath.fsum(at.term(t) for t in a.terms)

