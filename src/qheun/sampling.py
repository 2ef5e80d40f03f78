"""Randomized parameter sets landing inside each regime's sufficient
conditions (test and selftest support).

The construction works backwards from the classification inequalities:
pick h2, beta and the l's so that S1 = 1+h2-l2-beta falls in the wanted
range, give the secondary quantity (2h2-l1-l2-beta or l1-l2-beta) a
denominator-3 offset so it can never hit the integer boundary sets, then
choose h1 low enough that alpha2 = alpha1 + (2N+2+h1+h2-l1-l2-beta) keeps
alpha2 - alpha1 < 1 for the wanted N.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ParameterError
from .spectral import HeunParams, derive
from .ultra import R31, R32, R33, classify

__all__ = ["sample_params"]


def _frac(rng: random.Random, lo: int, hi: int, den: int = 2) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def _jitter_third(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, 2)), 3)


def _finish(rng, N, h2, l1, l2, beta, t1, t2) -> HeunParams:
    # alpha2 - alpha1 is pinned by N once the h/l/beta block is fixed;
    # push h1 low enough to keep it below 1 (and below h2).
    bound = -2 * N - 1 - h2 + l1 + l2 + beta
    h1 = min(bound, h2) - _frac(rng, 1, 3)
    delta = 2 * N + 2 + h1 + h2 - l1 - l2 - beta
    alpha1 = _frac(rng, -2, 2)
    alpha2 = alpha1 + delta
    return derive(h1, h2, l1, l2, alpha1, alpha2, beta, t1, t2)


def sample_params(
    regime: str, rng: random.Random, N: int | None = None, n_max: int = 8
) -> HeunParams:
    """One validated parameter set classified in ``regime`` (R31/R32/R33).

    ValueError when no such set has the requested N: N < 0, or N = 0 in
    R33, which needs a switch step K in 1..N."""
    if N is not None and N < (1 if regime == R33 else 0):
        raise ValueError(f"no {regime} parameter set has N = {N}")
    for _ in range(200):
        n = N if N is not None else rng.randint(1 if regime == R33 else 0, n_max)
        h2 = _frac(rng, -2, 2)
        beta = _frac(rng, -3, 0)
        t1 = Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 2)))
        t2 = Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 2)))
        if regime == R31:
            gap = _frac(rng, 1, 3)  # S1 = gap > 0
            l2 = 1 + h2 - beta - gap
            # aim S = 2h2-l1-l2-beta at a non-integer: k + 1/3
            k = rng.randint(-2 * n - 3, 1)
            S = k + _jitter_third(rng)
            l1 = 2 * h2 - l2 - beta - S
        elif regime == R32:
            gap = _frac(rng, 1, 3)  # S1 = -2N - gap < -2N
            l2 = 1 + h2 - beta + 2 * n + gap
            k = rng.randint(-2 * n - 4, -1)
            T = k + _jitter_third(rng)
            l1 = T + l2 + beta
        elif regime == R33:
            if n < 1:
                continue
            K = rng.randint(1, n)
            S1 = -2 * K + 1 + rng.choice((1, -1)) * _jitter_third(rng)
            l2 = 1 + h2 - beta - S1
            l1 = min(h2 + 1, l2) - _frac(rng, 1, 3)
        else:
            raise ValueError(f"unknown regime {regime}")
        if l1 >= l2:
            continue
        try:
            p = _finish(rng, n, h2, l1, l2, beta, t1, t2)
        except ParameterError:
            continue
        tag = classify(p)
        if tag.regime == regime and p.N == n:
            return p
    raise RuntimeError(f"failed to sample a {regime} parameter set")
