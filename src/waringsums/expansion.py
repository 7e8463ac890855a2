"""Multi-term asymptotic expansion coefficients for k-th power counts.

The count of representations by s positive k-th powers expands as
n^(s/k-1) * (c_0 + c_1 n^(-1/k) + ... + c_J n^(-J/k)).  For even k every
c_j is an alternating half-power of the classical truncated series with
exponent s-j; for odd k the j-th coefficient uses the order-j modified
series instead.  Coefficients here always carry the series truncated at
an explicit level Q: the infinite series is not finitely computable, so
the Q-dependence is surfaced rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .arith import log_gamma
from .series import TruncationSpec, _check_int64, truncated_series

__all__ = [
    "ExpansionCoefficients",
    "gamma_factor",
    "series_order",
    "coefficient_prefactors",
    "coefficients_even",
    "coefficients_odd",
    "expansion_partial_sums",
]


@dataclass(frozen=True)
class ExpansionCoefficients:
    parity: Literal["even", "odd"]
    coefficients: tuple
    binomials: tuple
    gamma_factors: tuple
    series_values: tuple


def gamma_factor(s: int, j: int, k: int) -> float:
    """Gamma(1 + 1/k)^(s-j) / Gamma((s-j)/k), evaluated in the log domain.

    This is the closed form of the singular integral scale factor for
    exponent u = s - j.
    """
    u = s - j
    if u < 1:
        raise ValueError(f"requires s - j >= 1, got {u}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return math.exp(u * log_gamma(1.0 + 1.0 / k) - log_gamma(u / k))


def series_order(k: int, s: int, j: int) -> tuple[int, int]:
    """(exponent, modification order) of the truncated series behind c_j.

    Even k uses the classical series with exponent s-j; odd k uses the
    order-j modified series with exponent s.
    """
    return (s - j, 0) if k % 2 == 0 else (s, j)


def coefficient_prefactors(s: int, J: int, k: int) -> list[float]:
    """Per-order scalar prefactors multiplying the truncated series value.

    Order j carries C(s, j) * gamma_factor(s, j, k), with an extra
    (-1/2)^j for even k.  Binomials are computed exactly before the
    float conversion, and one past the largest float is refused.
    Validates every structural requirement on (s, J, k), so callers
    assembling coefficients elsewhere inherit the same guards.
    """
    if k < 2:  # first: the checks below divide by k
        raise ValueError(f"k must be >= 2, got {k}")
    _check_int64("k", k)  # and the gamma factors divide by k and s as floats
    _check_int64("s", s)
    if J < 0:
        raise ValueError("J must be >= 0")
    if s - J < 1:
        raise ValueError(f"need s - J >= 1, got s={s}, J={J}")
    if k % 2 == 1 and J > k:
        raise ValueError(f"odd-k coefficients need 0 <= J <= k, got J={J}")
    # When k divides s and J exceeds s/k - 1, the expansion picks up extra
    # terms of a form with no closed formula here; refuse rather than guess.
    if s % k == 0 and J > s // k - 1:
        raise ValueError(
            f"J={J} with s={s} divisible by k={k} exceeds the supported "
            f"order s/k - 1 = {s // k - 1}; coefficients beyond that order "
            "are not represented by this expansion"
        )
    out = []
    for j in range(J + 1):
        try:
            binomial = float(math.comb(s, j))
        except OverflowError:
            raise ValueError(f"C(s, {j}) at s={s} passes the largest float: "
                             f"J={J} is too large for this s") from None
        factor = binomial * gamma_factor(s, j, k)
        if k % 2 == 0:
            factor *= (-0.5) ** j
        out.append(factor)
    return out


def _coefficients(s: int, J: int, n: int, k: int, Q: int) -> ExpansionCoefficients:
    if n < 1:
        raise ValueError("n must be >= 1")
    if Q < 1:
        raise ValueError("Q must be >= 1")
    prefactors = coefficient_prefactors(s, J, k)
    orders = [series_order(k, s, j) for j in range(J + 1)]
    values = truncated_series([TruncationSpec(k, u, n, j=o, Q=Q) for u, o in orders])
    series_vals = [v.value for v in values]
    return ExpansionCoefficients(
        "even" if k % 2 == 0 else "odd",
        tuple(p * v for p, v in zip(prefactors, series_vals)),
        tuple(math.comb(s, j) for j in range(J + 1)),
        tuple(gamma_factor(s, j, k) for j in range(J + 1)),
        tuple(series_vals),
    )


def coefficients_even(s: int, J: int, n: int, k: int, Q: int) -> ExpansionCoefficients:
    """c_j = (-1/2)^j C(s,j) gamma_factor(s,j,k) * classical series(s-j; n, Q)."""
    if k % 2 != 0:
        raise ValueError("coefficients_even requires even k")
    return _coefficients(s, J, n, k, Q)


def coefficients_odd(s: int, J: int, n: int, k: int, Q: int) -> ExpansionCoefficients:
    """c_j = C(s,j) gamma_factor(s,j,k) * modified series(s, j; n, Q)."""
    if k % 2 == 0:
        raise ValueError("coefficients_odd requires odd k")
    return _coefficients(s, J, n, k, Q)


def expansion_partial_sums(ns, s: int, k: int, c) -> np.ndarray:
    """Row j: n^(s/k-1) * sum_{i<=j} c_i n^(-i/k) at every n of ns.

    c is (J+1,) for coefficients shared by every n, or (J+1, len(ns)) for
    coefficients that depend on n; the result is (J+1, len(ns)).
    """
    nf = np.asarray(ns, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    terms = np.empty((len(c), nf.size))
    for j in range(len(c)):
        terms[j] = c[j] * nf ** ((s - j) / k - 1.0)
    return np.cumsum(terms, axis=0)
