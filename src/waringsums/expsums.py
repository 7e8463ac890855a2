"""Complete and weighted exponential sums over residues of k-th powers.

The three point evaluators reduce every exponent a*r^k mod q in exact
integer arithmetic before any trigonometric call, so the phase carries no
accumulated power error even for moduli near 1e5.  The batch evaluator
bins residues into a histogram and applies one length-q discrete Fourier
transform, giving all residues a in O(q log q).

Nothing is memoized, and every array returned is the caller's own: the
walks in `series` visit each modulus once per evaluation, so no (q, k)
recurs for a cache to serve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpSumValue",
    "complete_sum",
    "weighted_sum",
    "weighted_sum_augmented",
    "coprime_residues",
]

TWO_PI = 2.0 * math.pi

# The largest modulus with exact int64 residues: both factors of res * r in
# power_residues are at most q - 1, and (q - 1)^2 < 2^63 exactly up to here.
MAX_MODULUS = 3_037_000_500


@dataclass(frozen=True)
class ExpSumValue:
    """One exponential-sum value at modulus q, numerator a, power k."""

    value: complex
    q: int
    a: int
    k: int

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def imag(self) -> float:
        return self.value.imag


def _validate(q: int, k: int) -> None:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")


def power_residues(q: int, k: int) -> np.ndarray:
    """r^k mod q for r = 1..q, as int64, via exact repeated multiply-mod."""
    # Compared directly: squaring an int64 q could itself wrap.
    if q > MAX_MODULUS:
        raise ValueError(f"q = {q} is too large for exact int64 residues")
    r = np.arange(1, q + 1, dtype=np.int64) % q
    res = np.ones(q, dtype=np.int64)
    for _ in range(k):
        res = (res * r) % q
    return res


def coprime_residues(q: int) -> np.ndarray:
    """Indices a mod q with 1 <= a <= q and gcd(a, q) = 1 (q=1 gives [0]),
    by sieving out the multiples of every divisor d <= sqrt(q) of q and of
    q/d, which between them include every prime factor of q."""
    if q == 1:
        return np.array([0], dtype=np.int64)
    keep = np.ones(q, dtype=bool)
    keep[0] = False
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            keep[::d] = keep[:: q // d] = False
    return np.flatnonzero(keep)


def _phases(q: int, exponents: np.ndarray) -> np.ndarray:
    return np.exp(1j * (TWO_PI * (exponents / q)))


def _fsum_complex(values: np.ndarray) -> complex:
    return complex(math.fsum(values.real), math.fsum(values.imag))


def complete_sum(q: int, a: int, k: int) -> ExpSumValue:
    """S = sum_{r=1}^{q} e(a r^k / q), e(z) = exp(2 pi i z)."""
    _validate(q, k)
    residues = (int(a) % q) * power_residues(q, k) % q
    return ExpSumValue(_fsum_complex(_phases(q, residues)), q, a, k)


def _weights(q: int) -> np.ndarray:
    """The weights 1/2 - r/q of T, for r = 1..q."""
    return 0.5 - np.arange(1, q + 1, dtype=np.float64) / q


def weighted_sum(q: int, a: int, k: int) -> ExpSumValue:
    """T = sum_{r=1}^{q} (1/2 - r/q) e(a r^k / q).

    Identically -1/2 for even k: the substitution r -> q - r flips the
    weight's sign while fixing the phase, forcing T = -1 - T.
    """
    _validate(q, k)
    residues = (int(a) % q) * power_residues(q, k) % q
    return ExpSumValue(_fsum_complex(_weights(q) * _phases(q, residues)), q, a, k)


def weighted_sum_augmented(q: int, a: int, k: int) -> ExpSumValue:
    """The weighted sum extended over r = 0..q, equal to T + 1/2.

    Purely imaginary when k is odd (the r -> q - r pairing conjugates and
    negates it), which is why even k is rejected.
    """
    if k % 2 == 0:
        raise ValueError("augmented weighted sum requires odd k")
    t = weighted_sum(q, a, k)
    return ExpSumValue(t.value + 0.5, q, a, k)


def _binned_dft(residues: np.ndarray, q: int, weights=None) -> np.ndarray:
    """conj(FFT) of the length-q histogram of residues, optionally weighted:
    sum_r w(r) e(a r^k / q) for every a when residues[r-1] = r^k mod q."""
    binned = np.bincount(residues, weights=weights, minlength=q).astype(np.float64)
    return np.conj(np.fft.fft(binned))


def batch_values(q: int, k: int) -> np.ndarray:
    """S(q, a) for all a = 0..q-1 as one complex array.

    Computed as the conjugated DFT of the residue histogram
    c(m) = #{1 <= r <= q : r^k = m mod q}:
    S(q, a) = sum_m c(m) e(a m / q) = conj(FFT(c))[a].
    """
    _validate(q, k)
    return _binned_dft(power_residues(q, k), q)


def batch_weighted_values(q: int, k: int) -> np.ndarray:
    """T(q, a) for all a = 0..q-1, by binning the weights 1/2 - r/q."""
    _validate(q, k)
    return _binned_dft(power_residues(q, k), q, _weights(q))


def batch_value_pair(q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(batch_values(q, k), batch_weighted_values(q, k)), bit for bit, from
    one residue array."""
    _validate(q, k)
    residues = power_residues(q, k)
    return _binned_dft(residues, q), _binned_dft(residues, q, _weights(q))


def coset_sums(p: int, k: int) -> np.ndarray:
    """S(p, c) for one c in each coset of the nonzero k-th powers H mod a
    prime p, in O(p) time with no DFT.

    The substitution r -> tr gives S(p, a) = S(p, a t^k), so S(p, a)
    depends only on the coset aH, and there are d = gcd(k, p-1) cosets.
    Every h in H is hit by exactly d values of r, so
    S(p, c) = 1 + d sum_{h in H} e(ch/p).  When d = 1, x -> x^k permutes
    F_p and S(p, a) = sum_x e(ax/p) = 0 exactly, which is returned as the
    one value.  p must be prime; that is not checked.
    """
    _validate(p, k)
    d = math.gcd(k, p - 1)
    if d == 1:
        return np.zeros(1, dtype=np.complex128)
    powers = np.flatnonzero(np.bincount(power_residues(p, k), minlength=p)[1:]) + 1
    marked = np.zeros(p, dtype=bool)
    marked[0] = True
    values = []
    for _ in range(d):
        c = int(np.argmin(marked))  # the least residue in no coset seen yet
        exponents = c * powers % p
        marked[exponents] = True
        values.append(1.0 + d * complex(_phases(p, exponents).sum()))
    return np.array(values)
