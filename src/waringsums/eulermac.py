"""Lattice power sums over arithmetic progressions and their asymptotics.

lattice_power_sum is the one direct evaluator: it sums
(X^k - x_1^k - ... - x_l^k)^theta over lattice points x_i = r_i mod q,
either two-sided (|x_i| <= X) or positive (0 < x_i <= X), skipping every
point whose base is negative; progression_power_sum is its l = 1 case.
Window endpoints and signs are decided in exact arithmetic: ints,
Fractions, and binary floats are all exact rationals, so no boundary
depends on a float comparison.

The asymptotic evaluators return the corresponding main terms, the
boundary correction Psi that appears in the positive variant when k is
odd, and the scale of the error term, so scaling experiments can check
|direct - prediction| / error_scale directly.  Their Euler-Maclaurin
boundary terms are written in closed form through the periodic
Bernoulli functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from .arith import log_gamma, periodic_bernoulli
from .expsums import ExactSum
from .series import integer_kth_root

__all__ = [
    "LatticeSumSpec",
    "progression_power_sum",
    "progression_power_sum_asymptotic",
    "lattice_power_sum",
    "lattice_power_sum_asymptotic",
    "symmetric_bernoulli",
]

VARIANTS = ("two_sided", "positive")
_CHUNK = 4096  # points of the last coordinate per block in lattice_power_sum


@dataclass(frozen=True)
class LatticeSumSpec:
    """Parameters of one lattice power sum.

    r is a single residue for the one-dimensional sums or a tuple of
    residues for the multidimensional ones; N is the asymptotic order
    parameter controlling the error scale.
    """

    q: int
    r: Union[int, Tuple[int, ...]]
    X: Union[int, float, Fraction]
    theta: float
    k: int
    N: int = 1

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.X > 0:
            raise ValueError("X must be positive")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.r == ():
            raise ValueError("r must hold at least one residue")

    @property
    def residues(self) -> Tuple[int, ...]:
        return self.r if isinstance(self.r, tuple) else (self.r,)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _scalar_residue(spec: LatticeSumSpec) -> int:
    if isinstance(spec.r, tuple):
        if len(spec.r) != 1:
            raise ValueError("one-dimensional sum needs a scalar residue")
        return spec.r[0]
    return spec.r


def progression_power_sum(spec: LatticeSumSpec, variant: str = "two_sided") -> float:
    """sum over x = r mod q in the variant's window of (X^k - x^k)^theta:
    the l = 1 lattice sum."""
    _scalar_residue(spec)
    return lattice_power_sum(spec, variant)


def _gamma_ratio(theta: float, k: int, dims: int = 1) -> float:
    """Gamma(1+theta) Gamma(1+1/k)^dims / Gamma(1+theta+dims/k)."""
    return math.exp(
        log_gamma(1.0 + theta)
        + dims * log_gamma(1.0 + 1.0 / k)
        - log_gamma(1.0 + theta + dims / k)
    )


def _check_order(N: int, theta: float, cap: float = math.inf) -> None:
    # The expansions hold for 1 <= N <= ceil(theta) (and <= k+1 for the
    # multidimensional positive variant); N = 1 is always accepted since
    # the corresponding error scale X^{k theta} is trivially valid.
    limit = max(1, min(math.ceil(theta), cap))
    if not 1 <= N <= limit:
        raise ValueError(f"order N={N} outside the valid range [1, {limit}]")


def progression_power_sum_asymptotic(
    spec: LatticeSumSpec, variant: str = "two_sided"
) -> Tuple[float, float, float]:
    """(main, psi, error_scale) for the one-dimensional sum.

    two_sided: main = (2X/q) X^{k theta} * gamma ratio, psi = 0.
    positive (odd k only): main covers half the range, and psi collects
    the boundary terms
        X^{k theta} * sum_{0 <= nu <= (N-1)/k}
            theta falling-factorial(nu) / (nu! (nu k + 1))
            * B_{nu k + 1}({-r/q}) * (q/X)^{k nu}.
    The true error is O(error_scale) = O(X^{k theta} (q/X)^{N-1}).
    """
    _check_variant(variant)
    r, q, k, theta, N = _scalar_residue(spec), spec.q, spec.k, spec.theta, spec.N
    X = float(spec.X)
    xkt = X ** (k * theta)
    ratio = _gamma_ratio(theta, k)
    error_scale = xkt * (q / X) ** (N - 1)
    if variant == "two_sided":
        _check_order(N, theta)
        return (2.0 * X / q) * xkt * ratio, 0.0, error_scale
    if k % 2 == 0:
        raise ValueError("positive-variant asymptotics require odd k")
    _check_order(N, theta)
    main = xkt * X / q * ratio
    psi = 0.0
    for nu in range((N - 1) // k + 1):
        psi += (
            math.prod(theta - i for i in range(nu))
            / (math.factorial(nu) * (nu * k + 1))
            * periodic_bernoulli(nu * k + 1, -r / q)
            * (q / X) ** (k * nu)
        )
    return main, xkt * psi, error_scale


def _powers(fb: np.ndarray, theta: float) -> np.ndarray:
    """fb ** theta for bases fb >= 0, by the term rule: theta = 3/2 gives
    fb * sqrt(fb), from correctly rounded IEEE operations alone, so the
    bits do not depend on the CPU (those of np.power do) and lie within
    1 ulp of pow's; every other theta is Python's pow, term by term."""
    if theta == 1.5:
        with np.errstate(over="ignore"):  # ExactSum refuses an infinite term
            return fb * np.sqrt(fb)
    return np.array([b**theta for b in fb.tolist()], dtype=np.float64)


def lattice_power_sum(spec: LatticeSumSpec, variant: str = "two_sided") -> float:
    """sum of (X^k - x_1^k - ... - x_l^k)^theta over x_i = r_i mod q in
    the variant's window, subject to sum x_i^k <= X^k.

    Where x^k grows with |x| (even k, or the positive variant) each
    coordinate's window stops at the exact k-th root of its budget, so
    no base formed is negative; odd-k two-sided sums scan the whole
    window and skip a negative base by an exact comparison.  The last
    coordinate runs in blocks of _CHUNK points, in int64 when the bound
    below holds and over Python ints otherwise; the int64 -> float64 cast
    rounds like float(int), so both leaves give the same float64 bases.
    Each block's terms come from one rule (_powers: fb * sqrt(fb) at
    theta = 3/2, Python's pow at every other theta) and go into one
    ExactSum, so the value is math.fsum of the terms, bit for
    bit, with one block held at a time.  Cost grows as (X/q)^l; meant for
    desk-scale l <= 3.
    """
    _check_variant(variant)
    rs = spec.residues
    q, k, theta, l = spec.q, spec.k, spec.theta, len(rs)
    Xf = Fraction(spec.X)
    P = math.floor(Xf)
    exact_int = Xf.denominator == 1
    Xk = int(Xf) ** k if exact_int else Xf**k
    lower = 1 if variant == "positive" else -P
    can_prune = k % 2 == 0 or variant == "positive"
    # Every |x| <= P and every block ends below P + q, while every x^i,
    # partial budget and leaf base lies within +-(X^k + l P^k).
    fits = exact_int and max(P + q, Xk + l * P**k) < 2**63

    total = ExactSum()

    def leaf(remaining, xs: range) -> None:
        for i in range(0, len(xs), _CHUNK):
            block = xs[i : i + _CHUNK]
            if fits:
                x = np.arange(block.start, block.stop, q, dtype=np.int64)
                xk = x.copy()
                for _ in range(k - 1):
                    xk *= x
                bases = remaining - xk
                fb = bases[bases >= 0].astype(np.float64)
            else:
                fb = np.array([float(b) for b in (remaining - x**k for x in block)
                               if b >= 0], dtype=np.float64)
            total.add(_powers(fb, theta))

    def walk(depth: int, remaining) -> None:
        lo, hi = lower, P
        if can_prune:
            # x^k grows with |x| here, so only |x| <= floor(remaining)^(1/k)
            # keeps a base >= 0; at depth 0 that root is P itself.
            budget = math.floor(remaining)
            root = integer_kth_root(budget, k) if budget >= 1 else 0
            lo, hi = max(lower, -root), min(P, root)
        xs = range(lo + (rs[depth] - lo) % q, hi + 1, q)
        if depth == l - 1:
            leaf(remaining, xs)
            return
        for x in xs:
            walk(depth + 1, remaining - x**k)

    walk(0, Xk)
    return total.value()


def lattice_power_sum_asymptotic(
    spec: LatticeSumSpec, variant: str = "two_sided"
) -> Tuple[Tuple[float, ...], float]:
    """(terms, error_scale) for the l-dimensional sum.

    two_sided: the single term (2X/q)^l X^{k theta} * gamma ratio.
    positive (odd k): terms m = 0..l, the m-th carrying the symmetric
    Bernoulli value of order m and a factor (X/q)^(l-m).
    """
    _check_variant(variant)
    rs = spec.residues
    q, k, theta, N, l = spec.q, spec.k, spec.theta, spec.N, len(rs)
    X = float(spec.X)
    xkt = X ** (k * theta)
    error_scale = xkt * (q / X) ** (N - 1) * (1.0 + X / q) ** (l - 1)
    if variant == "two_sided":
        _check_order(N, theta)
        return ((2.0 * X / q) ** l * xkt * _gamma_ratio(theta, k, l),), error_scale
    if k % 2 == 0:
        raise ValueError("positive-variant asymptotics require odd k")
    _check_order(N, theta, cap=k + 1)
    terms = []
    for m in range(l + 1):
        b_m = symmetric_bernoulli(q, rs, m)
        terms.append(
            xkt * _gamma_ratio(theta, k, l - m) * b_m * (X / q) ** (l - m)
        )
    return tuple(terms), error_scale


def symmetric_bernoulli(q: int, rs: Sequence[int], m: int) -> float:
    """Elementary symmetric polynomial sigma_m of (B_1({-r_1/q}), ...,
    B_1({-r_l/q})); order -1 is 0 and order 0 is 1 by convention.

    Evaluated by the stable ascending recurrence for elementary symmetric
    polynomials rather than root expansion.
    """
    l = len(rs)
    if not -1 <= m <= l:
        raise ValueError(f"need -1 <= m <= {l}, got {m}")
    if m == -1:
        return 0.0
    ys = [periodic_bernoulli(1, -ri / q) for ri in rs]
    esp = [1.0] + [0.0] * m
    for i, y in enumerate(ys):
        for j in range(min(i + 1, m), 0, -1):
            esp[j] += y * esp[j - 1]
    return esp[m]
