"""Dyadic arithmetic on CPython ints for the fixed-q numerics.

A value m 2^e is an int mantissa m and an int exponent e, and every
operation cuts |m| back to at most 2^P, P the precision its operands
carry.  The per-root series and residual of ``spectral`` and the root
search of ``roots`` run on this arithmetic instead of mpmath objects,
whose per-operation overhead dominates loops of N + 1 steps.  Four loops
are inline kernels on int locals that repeat these operations step by
step, so they return the values the classes would, bit for bit, without
an object per operation: in ``roots``, the point recursion of the plain
counts and Newton (``_point_recursion``) and the certified counts
(``_certified_count``); in ``spectral``, the twisted solve
(``coefficients_numeric`` with ``_pivot_run``) and the per-power residual
(``_power_residuals``).  A change to an operation here must be made
there too.

* ``Dyadic`` is a point, cut by truncation (a floor shift, a floor
  division), and compared exactly.  The root search uses it from the row
  table to the rounded root (the Gershgorin bound, the isolation points,
  the seeds, the plain counts and Newton), since it only guides the
  search, and so do the twisted solve and the residual of the series at a
  root, whose rounding need only be small against their 2^-P; all run
  as kernels on the flat ints of spectral's fixed-q table, one point
  table (``points``) for the search and the solve.
* ``Box`` is an interval [lo 2^e, hi 2^e], cut outward: lo by floor
  shifts, hi by ceiling ones.  Every operation returns a box around every
  value it takes on its operand boxes, so an expression evaluated on boxes
  around its exact inputs encloses its exact value.  The fixed-q rows are
  Box values (``spectral.fixed_q``'s ``boxes``), and so are the
  residual's factors: the certified counts read the boxes, and every
  Dyadic use reads their lower ends.  No src path divides boxes; the
  certified count's kernel inlines its one division.
* ``Box.qpow(x, mu, P)`` is a box around x^mu for rational x > 0 from an
  integer D-th root, D the denominator of mu in lowest terms, so the
  recursion rows evaluated on it enclose the rows of the exact q, with no
  exp or log.  ``_iroot`` takes the factors 2 of D by ``math.isqrt`` and
  only the odd part by Newton.
"""

from __future__ import annotations

import math

import mpmath
from mpmath.libmp import from_man_exp

__all__ = ["Dyadic", "Box"]


class Dyadic:
    """m 2^e with |m| <= 2^P, truncated after every operation."""

    __slots__ = ("m", "e", "P")

    def __init__(self, m: int, e: int, P: int):
        s = m.bit_length() - P
        if s > 0:
            m >>= s
            e += s
        self.m, self.e, self.P = m, e, P

    @classmethod
    def of_mpf(cls, x, P: int) -> "Dyadic":
        sign, man, exp, _ = x._mpf_
        return cls(-man if sign else man, exp, P)

    def to_mpf(self):
        """The value as an mpf, exactly."""
        return mpmath.mp.make_mpf(from_man_exp(self.m, self.e))

    def ldexp(self, k: int) -> "Dyadic":
        return Dyadic(self.m, self.e + k, self.P)

    def __add__(self, o: "Dyadic") -> "Dyadic":
        d = o.e - self.e
        if d >= 0:
            return Dyadic(self.m + (o.m << d), self.e, self.P)
        return Dyadic((self.m << -d) + o.m, o.e, self.P)

    def __sub__(self, o: "Dyadic") -> "Dyadic":
        d = o.e - self.e
        if d >= 0:
            return Dyadic(self.m - (o.m << d), self.e, self.P)
        return Dyadic((self.m << -d) - o.m, o.e, self.P)

    def __mul__(self, o: "Dyadic") -> "Dyadic":
        return Dyadic(self.m * o.m, self.e + o.e, self.P)

    def __truediv__(self, o: "Dyadic") -> "Dyadic":
        # |self.m| <= 2^P, so k > 0 and the quotient holds at least P bits
        k = self.P + 1 + o.m.bit_length() - self.m.bit_length()
        return Dyadic((self.m << k) // o.m, self.e - o.e - k, self.P)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.m), self.e, self.P)

    def __lt__(self, o: "Dyadic") -> bool:
        """Exact, at the common exponent."""
        d = o.e - self.e
        return self.m < o.m << d if d >= 0 else self.m << -d < o.m


class Box:
    """The interval [lo 2^e, hi 2^e], |lo|, |hi| <= 2^P, rounded outward
    after every operation.  Int operands are exact points."""

    __slots__ = ("lo", "hi", "e", "P")

    def __init__(self, lo: int, hi: int, e: int, P: int):
        # a ceiling may reach 2^P; measuring max(|lo|, |hi|) - 1 keeps such
        # a box from being cut, and widened, again
        s = (max(hi, -lo) - 1).bit_length() - P
        if s > 0:
            lo >>= s
            hi = -(-hi >> s)
            e += s
        self.lo, self.hi, self.e, self.P = lo, hi, e, P

    @classmethod
    def ratio(cls, n: int, d: int, P: int) -> "Box":
        """A box around n/d, d > 0: exact when d is a power of two."""
        k = max(P + 1 + d.bit_length() - n.bit_length(), 0)
        return cls((n << k) // d, -(-(n << k) // d), -k, P)

    @classmethod
    def qpow(cls, x, mu, P: int) -> "Box":
        """A box around x^mu for rational x > 0 and mu = a/D at P bits.

        With (u/v) = x^|a| (x^-|a| for a < 0) and k chosen so that
        L = floor((floor(u 2^(kD) / v))^(1/D)) is at least 2^P, L <= x^mu 2^k
        < L + 1, and L is exact when no floor rounds."""
        a, D = mu.numerator, mu.denominator
        u, v = (x.numerator, x.denominator) if a >= 0 else (x.denominator, x.numerator)
        u, v = u ** abs(a), v ** abs(a)
        if D == 1:
            return cls.ratio(u, v, P)
        # u/v > 2^t, so x^mu 2^k > 2^(t/D + k) >= 2^P
        k = P - (u.bit_length() - v.bit_length() - 1) // D
        X, r = divmod(u << k * D, v) if k >= 0 else divmod(u, v << -k * D)
        L = _iroot(X, D)
        return cls(L, L + (r != 0 or L ** D != X), -k, P)

    def _box(self, o) -> "Box":
        return o if isinstance(o, Box) else Box(o, o, 0, self.P)

    def _aligned(self, o: "Box") -> tuple[int, int, int, int, int]:
        """(self.lo, self.hi, o.lo, o.hi, e) at the common exponent e."""
        d = o.e - self.e
        if d >= 0:
            return self.lo, self.hi, o.lo << d, o.hi << d, self.e
        return self.lo << -d, self.hi << -d, o.lo, o.hi, o.e

    def __add__(self, o) -> "Box":
        a, b, c, d, e = self._aligned(self._box(o))
        return Box(a + c, b + d, e, self.P)

    def __sub__(self, o) -> "Box":
        a, b, c, d, e = self._aligned(self._box(o))
        return Box(a - d, b - c, e, self.P)

    def __rsub__(self, o) -> "Box":
        return self._box(o) - self

    def __neg__(self) -> "Box":
        return Box(-self.hi, -self.lo, self.e, self.P)

    def __mul__(self, o) -> "Box":
        o = self._box(o)
        if self.lo >= 0 and o.lo >= 0:
            lo, hi = self.lo * o.lo, self.hi * o.hi
        else:
            ps = [a * b for a in (self.lo, self.hi) for b in (o.lo, o.hi)]
            lo, hi = min(ps), max(ps)
        return Box(lo, hi, self.e + o.e, self.P)


def _iroot(X: int, D: int) -> int:
    """floor(X^(1/D)) for X >= 0.  Each factor 2 of D is one math.isqrt,
    as floor(floor(X^(1/2))^(2/D)) = floor(X^(1/D)); the odd part of D is
    integer Newton from a float estimate above the root, which decreases
    to it."""
    while not D & 1 and X > 1:
        X, D = math.isqrt(X), D >> 1
    if D == 1 or X < 2:
        return X
    s = max(X.bit_length() - 64, 0) // D * D
    y = (int(float(X >> s) ** (1 / D) * (1 + 2.0 ** -30)) + 2) << s // D
    while True:
        z = ((D - 1) * y + X // y ** (D - 1)) // D
        if z >= y:
            return y
        y = z
