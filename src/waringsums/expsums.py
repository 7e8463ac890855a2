"""Complete and weighted exponential sums over residues of k-th powers.

The three point evaluators reduce every exponent a*r^k mod q in exact
integer arithmetic before any trigonometric call, so the phase carries no
accumulated power error even for moduli near 1e5.  The batch evaluator
bins residues into a histogram and applies one length-q discrete Fourier
transform, giving all residues a in O(q log q).

ExactSum is the package's exact reduction of numpy terms that arrive in
pieces: it bins values by exponent as they arrive and rounds the exact
total once, bit for bit as math.fsum of the same terms would.  A sum of
one array already held in full is math.fsum of its .tolist().

Nothing is memoized, and every array returned is the caller's own: the
walks in `series` visit each modulus once per evaluation, so no (q, k)
recurs for a cache to serve.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "complete_sum",
    "weighted_sum",
    "prime_power_parts",
    "power_residues",
    "coprime_residues",
    "binned_dft",
    "batch_values",
    "batch_weighted_values",
    "coset_sums",
    "phases",
    "ExactSum",
    "MAX_MODULUS",
]

TWO_PI = 2.0 * math.pi

# The largest modulus with exact int64 residues: both factors of every product
# in power_residues are at most q - 1, and (q - 1)^2 < 2^63 exactly up to here.
MAX_MODULUS = 3_037_000_500

_LOW_BITS = np.uint64((1 << 26) - 1)  # mantissa bits moved into the remainder
_BATCH = 1 << 25  # values per pass of the bins; up to this many every bin sum is exact
_HOLD = 4096  # small inputs are held until this many can be binned in one pass
_BLOCK = 4096  # moduli factored at once by prime_power_parts


class ExactSum:
    """A streaming exact sum of float64 arrays: value() is math.fsum of
    every value added, bit for bit, without keeping the values.

    Values are held until _HOLD of them can be binned at once.  Binning
    splits each value v by its bits into hi, v with the low 26 mantissa
    bits cleared, and the exact remainder v - hi, and adds both into bins
    indexed by v's 11-bit exponent field (the binning of Neal,
    arXiv:1505.05571).  In the bin of ulp u every hi is a multiple of
    2^26 u below 2^53 u and every remainder a multiple of u below 2^26 u,
    so up to 2^25 of them sum exactly in any order; the bins are set
    aside every _BATCH values.  value() is math.fsum over the bins and
    the held values, the correctly rounded exact total.  A value, or a
    total, that is not finite raises OverflowError there, as fsum's
    intermediate overflow does.
    """

    def __init__(self):
        self._held, self._held_size = [], 0
        self._bins = np.zeros(4096)  # hi parts by exponent, then remainders
        self._room = _BATCH
        self._full = []

    def add(self, values) -> ExactSum:
        # a copy: the caller may reuse its array while the values are held
        self._held.append(np.array(values, dtype=np.float64).ravel())
        self._held_size += self._held[-1].size
        if self._held_size >= _HOLD:
            self._bin(np.concatenate(self._held))
            self._held, self._held_size = [], 0
        return self

    def _bin(self, v: np.ndarray) -> None:
        while v.size:
            if not self._room:
                self._full.append(self._bins[self._bins != 0])
                self._bins, self._room = np.zeros(4096), _BATCH
            part, v = v[: self._room], v[self._room :]
            self._room -= part.size
            bits = part.view(np.uint64)
            hi = (bits & ~_LOW_BITS).view(np.float64)
            exponent = (bits >> np.uint64(52)).astype(np.intp) & 0x7FF
            # a value that is not finite, or a bin that overflows, leaves a
            # bin that is not finite, and value() refuses it
            with np.errstate(over="ignore", invalid="ignore"):
                np.add.at(self._bins, exponent, hi)
                np.add.at(self._bins, exponent + 2048, part - hi)

    def value(self) -> float:
        parts = np.concatenate([*self._full, self._bins[self._bins != 0], *self._held])
        if not np.isfinite(parts).all():
            raise OverflowError("exact sum is not finite")
        return math.fsum(parts.tolist())


def _validate(q: int, k: int) -> None:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")


def power_residues(q: int, k: int) -> np.ndarray:
    """r^k mod q for r = 1..q, as int64, by exact square-and-multiply: about
    2 log2(k) multiply-mods, each of two residues below q."""
    # Compared directly: squaring an int64 q could itself wrap.
    if q > MAX_MODULUS:
        raise ValueError(f"q = {q} is too large for exact int64 residues")
    base = np.arange(1, q + 1, dtype=np.int64) % q
    res = np.ones(q, dtype=np.int64)
    while k > 0:
        if k & 1:
            res = res * base % q
        k >>= 1
        if k:
            base = base * base % q
    return res


def prime_power_parts(lo: int, hi: int):
    """Yield for each q in [lo, hi) its pairs (p, p^e), p^e exactly dividing q, p increasing.
    Blocks of _BLOCK q are sieved: each d up to the root of a block's last q divides out of
    its multiples, smallest first, so only primes divide and what is left is 1 or a prime."""
    if lo < 1:
        raise ValueError(f"need lo >= 1, got {lo}")
    for start in range(lo, hi, _BLOCK):
        rest = np.arange(start, min(start + _BLOCK, hi), dtype=np.int64)
        parts = [[] for _ in rest]
        for d in range(2, math.isqrt(int(rest[-1])) + 1):
            hit = np.arange(-start % d, rest.size, d)
            hit = live = hit[rest[hit] % d == 0]
            before = rest[hit]
            while live.size:
                rest[live] //= d
                live = live[rest[live] % d == 0]
            for i, pe in zip(hit.tolist(), (before // rest[hit]).tolist()):
                parts[i].append((d, pe))
        yield from (ps + [(r, r)] if r > 1 else ps for ps, r in zip(parts, rest.tolist()))


def _units(q: int, parts) -> np.ndarray:
    """The a mod q coprime to q: the multiples of each p of its parts sieved out."""
    keep = np.ones(q, dtype=bool)
    for p, _ in parts:
        keep[::p] = False
    return np.flatnonzero(keep)


def coprime_residues(q: int) -> np.ndarray:
    """Indices a mod q with 1 <= a <= q and gcd(a, q) = 1 (q=1 gives [0])."""
    return _units(q, next(prime_power_parts(q, q + 1)))


def phases(q: int, exponents: np.ndarray) -> np.ndarray:
    """e(m/q) for each exponent m, reduced mod q in exact integers by the caller."""
    return np.exp(1j * (TWO_PI * (exponents / q)))


def _point_value(q: int, a: int, k: int, weighted: bool) -> complex:
    """sum_{r=1}^{q} w(r) e(a r^k / q), with w = 1 or the weights of T;
    the real and imaginary parts are each summed exactly."""
    _validate(q, k)
    terms = phases(q, (int(a) % q) * power_residues(q, k) % q)
    if weighted:
        terms = _weights(q) * terms
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def complete_sum(q: int, a: int, k: int) -> complex:
    """S = sum_{r=1}^{q} e(a r^k / q), e(z) = exp(2 pi i z)."""
    return _point_value(q, a, k, weighted=False)


def _weights(q: int) -> np.ndarray:
    """The weights 1/2 - r/q of T, for r = 1..q."""
    return 0.5 - np.arange(1, q + 1, dtype=np.float64) / q


def weighted_sum(q: int, a: int, k: int) -> complex:
    """T = sum_{r=1}^{q} (1/2 - r/q) e(a r^k / q).

    Identically -1/2 for even k: the substitution r -> q - r flips the
    weight's sign while fixing the phase, forcing T = -1 - T.  For odd k
    the same pairing conjugates and negates T + 1/2, which is therefore
    purely imaginary.
    """
    return _point_value(q, a, k, weighted=True)


def binned_dft(residues: np.ndarray, weighted: bool = False) -> np.ndarray:
    """conj(FFT) of the length-q histogram of residues, q = residues.size,
    each r weighted by 1/2 - r/q when weighted: sum_r w(r) e(a r^k / q) for
    every a when residues[r-1] = r^k mod q, that is S(q, .) or T(q, .)."""
    q = residues.size
    weights = _weights(q) if weighted else None
    binned = np.bincount(residues, weights=weights, minlength=q).astype(np.float64)
    return np.conj(np.fft.fft(binned))


def batch_values(q: int, k: int) -> np.ndarray:
    """S(q, a) for all a = 0..q-1 as one complex array, by binned_dft."""
    _validate(q, k)
    return binned_dft(power_residues(q, k))


def batch_weighted_values(q: int, k: int) -> np.ndarray:
    """T(q, a) for all a = 0..q-1, by binning the weights 1/2 - r/q."""
    _validate(q, k)
    return binned_dft(power_residues(q, k), weighted=True)


def coset_sums(p: int, k: int) -> np.ndarray:
    """S(p, c) for one c in each coset of the nonzero k-th powers H mod a
    prime p, in O(p) time with no DFT, and in O(1) when d <= 2.

    The substitution r -> tr gives S(p, a) = S(p, a t^k), so S(p, a)
    depends only on the coset aH, and there are d = gcd(k, p-1) cosets,
    taken in order of their least element, so the coset of 1 comes first.
    Every h in H is hit by exactly d values of r, so
    S(p, c) = 1 + d sum_{h in H} e(ch/p).  Two values of d need no sum:
    when d = 1, x -> x^k permutes F_p and S(p, a) = sum_x e(ax/p) = 0
    exactly, returned as the one value; when d = 2, H is the squares and
    S(p, a) = sum_x e(ax^2/p) = (a/p) g is a quadratic Gauss sum, with
    g = sqrt(p) for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4 (Gauss), so
    the values are [g, -g] in O(1).  p must be prime; that is not checked.
    """
    _validate(p, k)
    d = math.gcd(k, p - 1)
    if d == 1:
        return np.zeros(1, dtype=np.complex128)
    if d == 2:
        g = math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)
        return np.array([g, -g], dtype=np.complex128)
    powers = np.flatnonzero(np.bincount(power_residues(p, k), minlength=p)[1:]) + 1
    marked = np.zeros(p, dtype=bool)
    marked[0] = True
    values = []
    for _ in range(d):
        c = int(np.argmin(marked))  # the least residue in no coset seen yet
        exponents = c * powers % p
        marked[exponents] = True
        values.append(1.0 + d * complex(phases(p, exponents).sum()))
    return np.array(values)
