"""Exact and special-function arithmetic.

Bernoulli numbers and polynomials over exact rationals, the periodic
Bernoulli functions, a log-gamma implementation for positive arguments,
and the partition machinery for derivatives of composite functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

__all__ = [
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "periodic_bernoulli",
    "log_gamma",
    "FaaDiBrunoTerm",
    "faa_di_bruno_terms",
    "compose_nth_derivative",
]


@functools.cache
def bernoulli_numbers(K: int) -> Tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_K (convention B_1 = -1/2) as exact Fractions.

    Uses the binomial recurrence: B_0 = 1, B_1 = -1/2, and for kappa >= 2
    the vanishing of sum_{j=1}^{kappa} C(kappa, j) B_{kappa-j} determines
    each new entry.  Odd entries beyond B_1 come out exactly zero.  The
    tuple is computed on first use and kept per K: the Euler-Maclaurin
    remainder reads it at every quadrature point.
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


@dataclass(frozen=True)
class FaaDiBrunoTerm:
    """One partition term of the N-th derivative of a composition.

    multiplicities (m_1, ..., m_N) satisfy m_1 + 2 m_2 + ... + N m_N = N;
    coefficient is the exact multinomial weight
    N! / (m_1! ... m_N!) * prod_j (1/j!)^{m_j}.
    The outer derivative order used with this term is m_1 + ... + m_N.
    """

    multiplicities: tuple
    coefficient: Fraction

    @property
    def outer_order(self) -> int:
        return sum(self.multiplicities)


def faa_di_bruno_terms(N: int) -> List[FaaDiBrunoTerm]:
    """All multiplicity vectors (m_1..m_N) with sum j*m_j = N, with weights.

    Enumeration is recursive and emitted in lexicographic order of the
    multiplicity vector, so output is deterministic.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n_fact = math.factorial(N)
    terms: List[FaaDiBrunoTerm] = []

    def recurse(j: int, remaining: int, prefix: List[int]) -> None:
        if j == N:
            # m_N is forced by the remaining weight.
            if remaining % N == 0:
                m_last = remaining // N
                build(prefix + [m_last])
            return
        for m in range(remaining // j + 1):
            recurse(j + 1, remaining - j * m, prefix + [m])

    def build(ms: List[int]) -> None:
        coeff = Fraction(n_fact)
        for j, m in enumerate(ms, start=1):
            if m:
                coeff /= math.factorial(m) * math.factorial(j) ** m
        terms.append(FaaDiBrunoTerm(tuple(ms), coeff))

    recurse(1, N, [])
    return terms


def compose_nth_derivative(
    f_derivs: Sequence[Callable[[float], float]],
    g_derivs: Sequence[Callable[[float], float]],
    N: int,
) -> Callable[[float], float]:
    """N-th derivative of x -> f(g(x)) assembled from the partition terms.

    f_derivs[m] must evaluate f^(m); g_derivs[j] must evaluate g^(j).
    Requires f_derivs through order N and g_derivs through order N.
    """
    terms = faa_di_bruno_terms(N)
    needed_outer = max(t.outer_order for t in terms)
    if len(f_derivs) <= needed_outer:
        raise ValueError(f"need f derivatives through order {needed_outer}")
    if len(g_derivs) <= N:
        raise ValueError(f"need g derivatives through order {N}")
    prepared = [(float(t.coefficient), t.multiplicities, t.outer_order) for t in terms]

    def derivative(x: float) -> float:
        gx = g_derivs[0](x)
        total = 0.0
        for coeff, ms, outer in prepared:
            prod = coeff * f_derivs[outer](gx)
            for j, m in enumerate(ms, start=1):
                if m and prod != 0.0:
                    prod *= g_derivs[j](x) ** m
            total += prod
        return total

    return derivative
