"""Truncated singular series over rationals a/q, and derived experiments.

The classical series weights each reduced fraction a/q by (S(q,a)/q)^u;
the modified series swaps j of those factors for the weighted sum T(q,a).
Both are real up to rounding because the a <-> q-a terms pair into
conjugates.

Two evaluation paths are provided.  The scalar path accumulates every
term with exactly-rounded summation (math.fsum) in increasing q, so a
given truncation always reproduces bit-identical values.  The bulk path
evaluates one truncation for a whole range of n at once: for each q the
map n -> partial sum depends only on n mod q, so a single length-q DFT
of the coefficient row serves every n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expsums import batch_values, batch_weighted_values, coprime_residues

__all__ = [
    "TruncationSpec",
    "SeriesValue",
    "singular_series_truncated",
    "modified_series_truncated",
    "series_over_range",
    "power_moment_sum",
    "negation_identity_residual",
    "factorial_multiple_discrepancy",
    "nonvanishing_census",
]


def integer_kth_root(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 1, exact at any size (integer arithmetic only)."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if k == 2:
        return math.isqrt(n)
    # Newton's iteration decreases monotonically from any start above the
    # root and stops at the floor; 2^ceil(bits/k) is such a start.
    r = 1 << -(-n.bit_length() // k)
    while True:
        t = ((k - 1) * r + n // r ** (k - 1)) // k
        if t >= r:
            return r
        r = t


@dataclass(frozen=True)
class TruncationSpec:
    """Parameters of one truncated series evaluation.

    s is the series exponent, j the modification order (0 = classical),
    n the represented integer (negative allowed), Q the truncation level.
    Q defaults to floor(n**(1/k)) when n is positive.
    """

    k: int
    s: int
    n: int
    j: int = 0
    Q: Optional[int] = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not 0 <= self.j <= self.s:
            raise ValueError(f"need 0 <= j <= s, got j={self.j}, s={self.s}")
        if self.Q is None:
            if self.n < 1:
                raise ValueError("default Q = floor(n^(1/k)) needs n >= 1")
            object.__setattr__(self, "Q", integer_kth_root(self.n, self.k))
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")

    @property
    def delta_k(self) -> int:
        """1 when k = 2, else 0."""
        return 1 if self.k == 2 else 0


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    spec: TruncationSpec
    term_count: int
    tail_estimate: float = 0.0

    @property
    def real(self) -> float:
        return self.value.real


def _phase_indices(n: int, a: np.ndarray, q: int) -> np.ndarray:
    # e(-n a / q) = e(m a / q) with m = (-n) mod q; all index math exact.
    m = (-int(n)) % q
    return (m * a) % q


def _coefficient_row(q: int, k: int, s: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Coprime residues a mod q, in increasing order, and the coefficient
    row w(a) = (S(q,a)/q)^(s-j) T(q,a)^j at each of them."""
    a = coprime_residues(q)
    w = (batch_values(q, k)[a] / q) ** (s - j)
    if j:
        w = w * batch_weighted_values(q, k)[a] ** j
    return a, w


def modified_series_truncated(spec: TruncationSpec) -> SeriesValue:
    """sum_{q<=Q} sum_{(a,q)=1} (S(q,a)/q)^(s-j) T(q,a)^j e(-na/q)."""
    res, ims = [], []
    term_count = 0
    tail = 0.0
    for q in range(1, spec.Q + 1):
        a, w = _coefficient_row(q, spec.k, spec.s, spec.j)
        idx = _phase_indices(spec.n, a, q)
        terms = w * np.exp(1j * (2.0 * math.pi * (idx / q)))
        res.append(terms.real)
        ims.append(terms.imag)
        term_count += terms.size
        if q == spec.Q:
            tail = float(np.abs(terms).sum())
    value = complex(
        math.fsum(np.concatenate(res)), math.fsum(np.concatenate(ims))
    )
    return SeriesValue(value, spec, term_count, tail)


def singular_series_truncated(spec: TruncationSpec) -> SeriesValue:
    """The classical truncated series; spec must have j = 0."""
    if spec.j != 0:
        raise ValueError("classical series requires j = 0")
    return modified_series_truncated(spec)


def series_over_range(
    k: int, s: int, j: int, ns: np.ndarray, Q: int
) -> np.ndarray:
    """Truncated series values for every n in ns, at truncation Q.

    For each modulus the coefficient row w(a) = (S/q)^(s-j) T^j (zero off
    the coprime residues) satisfies value_q(n) = DFT(w)[n mod q], so the
    whole range costs one DFT plus one gather per q.  Rows are applied in
    increasing q; agreement with the scalar path is at rounding level.
    """
    ns = np.asarray(ns)
    out = np.zeros(ns.shape, dtype=np.complex128)
    for q in range(1, Q + 1):
        a, w = _coefficient_row(q, k, s, j)
        row = np.zeros(q, dtype=np.complex128)
        row[a] = w
        g = np.fft.fft(row)  # g[m] = sum_a w(a) e(-ma/q)
        out += g[ns % q]
    return out


def power_moment_sum(
    lo: float,
    hi: float,
    u: int,
    theta: float,
    k: int,
    rel_tol: float = 1e-12,
) -> float:
    """sum over lo <= q < hi of q^theta * sum_{(a,q)=1} |S(q,a)/q|^u.

    hi = math.inf extends the sum in doubling blocks [B, 2B) until a
    block contributes less than rel_tol of the running total; that needs
    u > k(1+theta) + 1 + delta_k, which is enforced.  The default
    rel_tol matches the library's accuracy contract but can make slowly
    decaying parameter sets very expensive; experiments should pass the
    tolerance they actually need.
    """
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if u < 1:
        raise ValueError("u must be a positive integer")

    def row(q: int) -> float:
        a = coprime_residues(q)
        mags = np.abs(batch_values(q, k)[a]) / q
        return q**theta * float(np.sum(mags**u))

    def block(b0: int, b1: int) -> float:
        return math.fsum(row(q) for q in range(b0, b1))

    if math.isfinite(hi):
        return block(math.ceil(lo), math.ceil(hi))

    delta_k = 1 if k == 2 else 0
    if not u > k * (1.0 + theta) + 1 + delta_k:
        raise ValueError(
            f"infinite tail needs u > k(1+theta)+1+delta_k = "
            f"{k * (1.0 + theta) + 1 + delta_k}, got u={u}"
        )
    total = 0.0
    b = math.ceil(lo)
    while True:
        contribution = block(b, 2 * b)
        total += contribution
        b *= 2
        if total > 0.0 and contribution < rel_tol * total:
            return total


def negation_identity_residual(s: int, n: int, Q: int, k: int) -> float:
    """|M(n) + M(-n) + C(n)| at truncation Q, with M the first-order
    modified series (exponent s) and C the classical series (exponent
    s-1).  For odd k the three cancel modulus by modulus, so the value
    is floating-point noise.
    """
    if k % 2 == 0:
        raise ValueError("identity requires odd k")
    if s < 3:
        raise ValueError("s must be >= 3")
    m_pos = modified_series_truncated(TruncationSpec(k, s, n, j=1, Q=Q))
    m_neg = modified_series_truncated(TruncationSpec(k, s, -n, j=1, Q=Q))
    classical = singular_series_truncated(TruncationSpec(k, s - 1, n, j=0, Q=Q))
    return abs(m_pos.value + m_neg.value + classical.value)


def factorial_multiple_discrepancy(
    s: int, k: int, Q: int, m: int, Q_trunc: int
) -> float:
    """M(n; Q_trunc) + (1/2) C(n; Q_trunc) at n = Q! * m.

    M is the first-order modified series with exponent s, C the classical
    series with exponent s-1.  Requires odd k and 2s >= 3k + 6.  Every
    phase e(-na/q) with q <= Q is exactly 1 because q divides n; that is
    asserted, not assumed.
    """
    if k % 2 == 0:
        raise ValueError("requires odd k")
    if 2 * s < 3 * k + 6:
        raise ValueError(f"requires s >= 3k/2 + 3 = {(3 * k + 6) / 2}")
    if Q < 1 or m < 1:
        raise ValueError("Q and m must be positive")
    n = math.factorial(Q) * m
    for q in range(1, min(Q, Q_trunc) + 1):
        assert n % q == 0, "n must absorb every modulus up to Q"
    mod = modified_series_truncated(TruncationSpec(k, s, n, j=1, Q=Q_trunc))
    cla = singular_series_truncated(TruncationSpec(k, s - 1, n, j=0, Q=Q_trunc))
    return mod.value.real + 0.5 * cla.value.real


def nonvanishing_census(
    s: int, j: int, k: int, x: int, Q: int, C: float
) -> tuple[int, float]:
    """Count n in [1, x] whose modified-series magnitude at truncation Q
    is at least C.  Returns (count, count/x)."""
    if j < 0 or x < 1:
        raise ValueError("need j >= 0 and x >= 1")
    if 2 * s < (j + 4) * (k + 2):
        raise ValueError(
            f"requires s >= (j+4)(k+2)/2 = {(j + 4) * (k + 2) / 2}"
        )
    ns = np.arange(1, x + 1, dtype=np.int64)
    mags = np.abs(series_over_range(k, s, j, ns, Q))
    count = int(np.count_nonzero(mags >= C))
    return count, count / x
