"""Shared brute-force oracles for the test suite.

Everything here recomputes values from definitions with plain Python
loops (or one vectorized gather), deliberately independent of the
library's FFT/int64 fast paths.  The exception is the full-row moment
reference, which uses one whole `batch_values` DFT row per modulus: the
path that the multiplicative moment evaluation replaces.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from waringsums.expsums import batch_values


def direct_S(q: int, a: int, k: int) -> complex:
    return sum(
        cmath.exp(2j * math.pi * ((a * pow(r, k, q)) % q) / q)
        for r in range(1, q + 1)
    )


def direct_T(q: int, a: int, k: int) -> complex:
    return sum(
        (0.5 - r / q) * cmath.exp(2j * math.pi * ((a * pow(r, k, q)) % q) / q)
        for r in range(1, q + 1)
    )


def direct_batch_S(q: int, k: int) -> np.ndarray:
    """S(q, a) for all a, via exact integer exponents and a phase table."""
    rk = np.array([pow(r, k, q) for r in range(1, q + 1)], dtype=np.int64)
    table = np.exp(2j * np.pi * np.arange(q) / q)
    out = np.empty(q, dtype=np.complex128)
    chunk = max(1, 2_000_000 // max(q, 1))
    for lo in range(0, q, chunk):
        a = np.arange(lo, min(lo + chunk, q), dtype=np.int64)
        idx = (a[:, None] * rk[None, :]) % q
        out[lo : lo + chunk] = table[idx].sum(axis=1)
    return out


def orbit_batch_S(q: int, k: int) -> np.ndarray:
    """S(q, a) for all a, from one direct sum per orbit of units, by two
    identities: S(q, a) = g S(q/g, a/g) with g = gcd(a, q), and
    S(d, c t^k) = S(d, c) for units c, t mod d (substitute r -> t r).

    For each divisor d of q the units mod d fall into orbits c H under the
    k-th powers H of units; each orbit costs one O(d) sum with exact integer
    exponents c r^k mod d, and no DFT.  direct_batch_S is its brute-force
    check."""
    out = np.empty(q, dtype=np.complex128)
    for d in (d for d in range(1, q + 1) if q % d == 0):
        g = q // d
        rk = np.array([pow(r, k, d) for r in range(1, d + 1)], dtype=np.int64)
        c = np.arange(d, dtype=np.int64)
        units = c[np.gcd(c, d) == 1] if d > 1 else c
        powers = np.unique(rk[units - 1]) if d > 1 else c  # H; r = d is no unit
        done = np.zeros(d, dtype=bool)
        for unit in units.tolist():
            if done[unit]:
                continue
            value = np.exp(2j * np.pi * ((unit * rk) % d) / d).sum()
            orbit = (unit * powers) % d
            done[orbit] = True
            out[orbit * g] = g * value
    return out


def direct_modified_series(k: int, s: int, j: int, n: int, Q: int) -> complex:
    """Double-loop truncated series straight from the definition."""
    total = 0.0 + 0.0j
    for q in range(1, Q + 1):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            phase = cmath.exp(-2j * math.pi * ((n * a) % q) / q)
            term = (direct_S(q, a, k) / q) ** (s - j)
            if j:
                term *= direct_T(q, a, k) ** j
            total += term * phase
    return total


def direct_power_moment(lo: int, hi: int, u: int, theta: float, k: int) -> float:
    """Double-loop moment sum over lo <= q < hi."""
    total = 0.0
    for q in range(lo, hi):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                total += q**theta * abs(direct_S(q, a, k) / q) ** u
    return total


def full_row_moment(q: int, k: int, u: int) -> float:
    """f(q) = sum_{(a,q)=1} |S(q,a)/q|^u from the whole length-q DFT row."""
    a = np.arange(q, dtype=np.int64)
    a = a[np.gcd(a, q) == 1] if q > 1 else a
    return math.fsum((np.abs(batch_values(q, k)[a]) / q) ** u)


def full_row_power_moment(lo: int, hi: int, u: int, theta: float, k: int) -> float:
    """The moment sum over lo <= q < hi with one full DFT row per modulus."""
    return math.fsum(q**theta * full_row_moment(q, k, u) for q in range(lo, hi))


def rule_power(b: float, theta: float) -> float:
    """b ** theta by the lattice sums' documented term rule, on Python
    floats: b * sqrt(b) at theta = 3/2, and pow at every other theta."""
    if theta == 1.5:
        return b * math.sqrt(b)
    return b**theta


def direct_progression_power_sum(spec, variant: str) -> float:
    """The one-dimensional lattice sum as a plain loop over Python ints:
    h runs over the closed [-(X+r)/q, (X-r)/q] two-sided and over the
    half-open (-r/q, (X-r)/q] positive, where x = qh + r."""
    q, r, X = spec.q, spec.r, Fraction(spec.X)
    hmax = math.floor((X - r) / q)
    if variant == "two_sided":
        hmin = math.ceil(-(X + r) / q)
    else:
        hmin = math.floor(Fraction(-r, q)) + 1
    Xk = int(X) ** spec.k if X.denominator == 1 else X**spec.k
    return math.fsum(
        rule_power(max(float(Xk - (q * h + r) ** spec.k), 0.0), spec.theta)
        for h in range(hmin, hmax + 1)
    )


def direct_lattice_power_sum(spec, variant: str) -> float:
    """The l-dimensional lattice sum as a plain nested loop over Python
    ints (or Fractions): every point of the window, negative bases
    skipped.  The library never calls this; it is the reference for its
    one blocked leaf, in int64 and in exact (object) blocks."""
    X = Fraction(spec.X)
    P = math.floor(X)
    Xk = int(X) ** spec.k if X.denominator == 1 else X**spec.k
    lo, q = (1 if variant == "positive" else -P), spec.q
    windows = [[q * h + r for h in range(-((r - lo) // q), (P - r) // q + 1)]
               for r in spec.residues]
    terms = []
    for xs in itertools.product(*windows):
        base = Xk - sum(x**spec.k for x in xs)
        if base >= 0:
            terms.append(rule_power(float(base), spec.theta))
    return math.fsum(terms)


def python_int_counts(k: int, s: int, N: int, signed: bool = False) -> list:
    """Exact representation counts for n <= N by a plain Python-int
    shift-add: s convolutions of the indicator of 0 with the weighted
    k-th powers (weight 1 each unsigned; 2 each plus 1 at 0 signed).  The
    library never calls this; it is the reference for its int64 limb engine.
    """
    items = [(0, 1)] if signed else []
    y = 1
    while y**k <= N:
        items.append((y**k, 2 if signed else 1))
        y += 1
    acc = [1] + [0] * N
    for _ in range(s):
        nxt = [0] * (N + 1)
        for n, c in enumerate(acc):
            for value, weight in items:
                if n + value > N:
                    break
                nxt[n + value] += c * weight
        acc = nxt
    return acc


def gauss_legendre(f, a: float, b: float) -> float:
    """integral_a^b f(x) dx by the 64-point Gauss-Legendre rule; f takes
    an array of nodes.  Exact for polynomials of degree below 128 and
    near machine precision for smooth integrands."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (b - a)
    return half * math.fsum((weights * f(half * nodes + 0.5 * (a + b))).tolist())


def loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=np.float64))
    ys = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


def totient_sum(Q: int) -> int:
    """Number of reduced fractions a/q with q <= Q."""
    return sum(
        1
        for q in range(1, Q + 1)
        for a in range(1, q + 1)
        if math.gcd(a, q) == 1
    )
