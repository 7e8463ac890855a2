"""Exact and special-function arithmetic.

Bernoulli numbers over exact rationals, Bernoulli polynomials and the
periodic Bernoulli functions in floats, and a log-gamma implementation
for positive arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

__all__ = [
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "periodic_bernoulli",
    "log_gamma",
]


def bernoulli_numbers(K: int) -> Tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_K (convention B_1 = -1/2) as exact Fractions.

    Uses the binomial recurrence: B_0 = 1, B_1 = -1/2, and for kappa >= 2
    the vanishing of sum_{j=1}^{kappa} C(kappa, j) B_{kappa-j} determines
    each new entry.  Odd entries beyond B_1 come out exactly zero.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    values: List[Fraction] = [Fraction(1)]
    if K >= 1:
        values.append(Fraction(-1, 2))
    for kappa in range(2, K + 1):
        # Solve sum_{j=1}^{kappa+1} C(kappa+1, j) B_{kappa+1-j} = 0 for B_kappa.
        m = kappa + 1
        acc = Fraction(0)
        for j in range(2, m + 1):
            acc += math.comb(m, j) * values[m - j]
        values.append(-acc / m)
    return tuple(values)


def bernoulli_polynomial(kappa: int, x: float) -> float:
    """B_kappa(x) = sum_j C(kappa, j) B_{kappa-j} x^j, evaluated in floats."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    table = bernoulli_numbers(kappa)
    # Horner order over ascending powers keeps the small-|x| case stable.
    acc = 0.0
    for j in range(kappa, -1, -1):
        acc = acc * x + math.comb(kappa, j) * float(table[kappa - j])
    return acc


def periodic_bernoulli(kappa: int, x: float) -> float:
    """B_kappa({x}) with {x} = x - floor(x); periodic with period 1."""
    frac = x - math.floor(x)
    if frac >= 1.0:  # guards the float edge x = -eps where x - floor(x) rounds to 1
        frac = 0.0
    return bernoulli_polynomial(kappa, frac)


# Lanczos approximation, g = 7, 9 terms.  Relative error below 1e-14 on the
# positive real axis once the small-argument recurrence is applied.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Shift into the region where the Lanczos series is most accurate.
        return log_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)
