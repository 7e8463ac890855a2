"""Lattice power sums over arithmetic progressions and their asymptotics.

lattice_power_sum is the one direct evaluator: it sums
(X^k - x_1^k - ... - x_l^k)^theta over lattice points x_i = r_i mod q,
either two-sided (|x_i| <= X) or positive (0 < x_i <= X), skipping every
point whose base is negative; progression_power_sum is its l = 1 case.
Its one leaf forms the bases in numpy blocks: int64 where they fit, and
otherwise object blocks of exact Python ints (or Fractions).  Window
endpoints and signs are decided in exact arithmetic: ints, Fractions,
and binary floats are all exact rationals, so no boundary depends on a
float comparison.  _lattice_parts prices and refuses the sums before any.

The asymptotic evaluators return the corresponding main terms, the
boundary correction Psi that appears in the positive variant when k is
odd, and the scale of the error term, so scaling experiments can check
|direct - prediction| / error_scale directly.  Their Euler-Maclaurin
boundary terms are written in closed form through the periodic
Bernoulli functions, once _asymptotic_floats has checked their float range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

from .arith import log_gamma, periodic_bernoulli
from .budget import Part, check
from .expsums import ExactSum
from .series import _check_orders, integer_kth_root

__all__ = [
    "LatticeSumSpec",
    "progression_power_sum",
    "progression_power_sum_asymptotic",
    "lattice_power_sum",
    "lattice_power_sum_asymptotic",
    "symmetric_bernoulli",
    "VARIANTS",
]

VARIANTS = ("two_sided", "positive")
_CHUNK = 4096  # points of the last coordinate per block in lattice_power_sum
_LOG_MAX = math.log(sys.float_info.max)


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
        _check_orders(self.k, ())  # numpy raises an int64 block to the power k
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
    """Gamma(1+theta) Gamma(1+1/k)^dims / Gamma(1+theta+dims/k), from the
    difference of two log-gammas near theta log theta.  Each is rounded
    to about an ulp of its size, and the ratio's relative error is the
    difference's absolute error, so a theta at which that passes 1e-9
    (theta above about 2e5, or inf - inf near 1e308) is refused."""
    lo, hi = log_gamma(1.0 + theta), log_gamma(1.0 + theta + dims / k)
    if not math.ulp(1.0) * (abs(lo) + abs(hi)) <= 1e-9:
        raise ValueError(f"theta {theta} is too large: the gamma ratio of the main "
                         "term would be accurate to less than 1e-9")
    return math.exp(lo + dims * log_gamma(1.0 + 1.0 / k) - hi)


def _is_float(x) -> bool:
    """Whether the rational x rounds to a finite float: |x| < 2^1024 - 2^970."""
    x = Fraction(x)
    return abs(x.numerator) < x.denominator * (2**1024 - 2**970)


def _log(x) -> float:  # of a rational x > 0 of any size
    x = Fraction(x)
    return math.log(x.numerator) - math.log(x.denominator)


def _asymptotic_floats(spec: LatticeSumSpec, variant: str,
                       cap: float = math.inf) -> Tuple[float, float]:
    """X and X^(k theta) as floats, once the variant holds at k, N is in
    [1, ceil(theta)] (and <= cap; N = 1 always) and no float the asymptotics
    form can pass the largest: 2X, q, each r/q of the positive variant,
    X^(k theta) (2X/q + 1)^l, which bounds each main term, the error scale
    X^(k theta) (q/X)^(N-1) (1 + X/q)^(l-1) and its factor (q/X)^(N-1)."""
    q, k, theta, N, Xf = spec.q, spec.k, spec.theta, spec.N, Fraction(spec.X)
    _check_variant(variant)
    if variant == "positive" and k % 2 == 0:
        raise ValueError("positive-variant asymptotics require odd k")
    limit = max(1, min(math.ceil(theta), cap))
    if not 1 <= N <= limit:
        raise ValueError(f"order N={N} outside the valid range [1, {limit}]")
    rs = spec.residues if variant == "positive" else ()
    if not all(map(_is_float, [2 * Xf, q, *(Fraction(r, q) for r in rs)])):
        raise ValueError(f"X={spec.X}, q={q} or r={spec.r} gives 2X, q or r/q past the "
                         "largest float")
    lx, lq, l = _log(Xf), math.log(q), len(spec.residues)
    power, shrink = k * (theta * lx), (N - 1) * (lq - lx)  # logs of X^(k theta), (q/X)^(N-1)
    if max(power + l * (_log(2 * Xf + q) - lq), shrink,
           power + shrink + (l - 1) * (_log(Xf + q) - lq)) >= _LOG_MAX:
        raise ValueError(f"theta={theta} and N={N} at k={k}, q={q} and X={spec.X} give main "
                         "terms or an error scale past the largest float")
    X = float(Xf)
    return X, X ** (k * theta)


def progression_power_sum_asymptotic(
    spec: LatticeSumSpec, variant: str = "two_sided"
) -> Tuple[float, float, float]:
    """(main, psi, error_scale) for the one-dimensional sum.

    two_sided: the single term and error scale of
    lattice_power_sum_asymptotic at l = 1, psi = 0.
    positive (odd k only): main covers half the range, and psi collects
    the boundary terms
        X^{k theta} * sum_{0 <= nu <= (N-1)/k}
            theta falling-factorial(nu) / (nu! (nu k + 1))
            * B_{nu k + 1}({-r/q}) * (q/X)^{k nu}.
    The true error is O(error_scale) = O(X^{k theta} (q/X)^{N-1}).
    """
    r, q, k, theta, N = _scalar_residue(spec), spec.q, spec.k, spec.theta, spec.N
    if variant == "two_sided":
        (main,), error_scale = lattice_power_sum_asymptotic(spec, variant)
        return main, 0.0, error_scale
    X, xkt = _asymptotic_floats(spec, variant)
    ratio = _gamma_ratio(theta, k)  # refuses a large theta before N sets the loop's length
    psi = 0.0
    for nu in range((N - 1) // k + 1):
        psi += (
            math.prod(theta - i for i in range(nu))
            / (math.factorial(nu) * (nu * k + 1))
            * periodic_bernoulli(nu * k + 1, -r / q)
            * (q / X) ** (k * nu)
        )
    return xkt * X / q * ratio, xkt * psi, xkt * (q / X) ** (N - 1)


def _powers(fb: np.ndarray, theta: float) -> np.ndarray:
    """fb ** theta for bases fb >= 0, by the term rule: theta = 3/2 gives
    fb * sqrt(fb), from correctly rounded IEEE operations alone, so the
    bits do not depend on the CPU (those of np.power do) and lie within
    1 ulp of pow's; every other theta is Python's pow, term by term."""
    if theta == 1.5:
        with np.errstate(over="ignore"):  # ExactSum refuses an infinite term
            return fb * np.sqrt(fb)
    return np.array([b**theta for b in fb.tolist()], dtype=np.float64)


def _window(lo: int, hi: int, r: int, q: int) -> range:
    """The x = r mod q with lo <= x <= hi: the one start rule of every window."""
    return range(lo + (r - lo) % q, hi + 1, q)


def _lattice_parts(specs: Sequence[LatticeSumSpec], variant: str) -> list:
    """The budget parts of the sums of specs: the product of the coordinates'
    first windows (a bound where later ones shrink), priced by _powers' rule.
    Refuses a largest base X^k - sum x_i^k, or (2X/q + 1)^l terms of it to
    the theta, past the largest float."""
    _check_variant(variant)
    points = {}
    for spec in specs:
        q, k, Xf, P = spec.q, spec.k, Fraction(spec.X), math.floor(spec.X)
        windows = [_window(1 if variant == "positive" else -P, P, r, q) for r in spec.residues]
        # x^k is least at a window's first x, and below 0 only for odd k
        if k * (P.bit_length() - 1) >= 1024 or not _is_float(
                base := Xf**k + sum(max(-w.start, 0) ** k for w in windows if k % 2)):
            raise ValueError(f"X={spec.X} at k={k} gives a base X^k - sum x_i^k past the "
                             "largest float")
        if spec.theta * _log(base) + len(windows) * (_log(2 * Xf + q) - math.log(q)) >= _LOG_MAX:
            raise ValueError(f"theta={spec.theta} is too large for k={k} at X={spec.X}: the "
                             "direct sum could pass the largest float")
        name = "lattice points at theta 3/2" if spec.theta == 1.5 else "lattice points"
        points[name] = points.get(name, 0) + math.prod((w.stop - w.start + q - 1) // q
                                                       for w in windows)
    return [Part(name, n, f"{_named('X', [s.X for s in specs])} at "
                          f"{_named('q', [s.q for s in specs])}: {n} lattice points")
            for name, n in points.items()]


def _named(name: str, vs: list) -> str:
    many = f"{len(vs)} values of {name} up to {max(vs)}"
    return f"{name}={vs[0]}" if len(set(vs)) == 1 else many


def lattice_power_sum(spec: LatticeSumSpec, variant: str = "two_sided") -> float:
    """sum of (X^k - x_1^k - ... - x_l^k)^theta over x_i = r_i mod q in
    the variant's window, subject to sum x_i^k <= X^k.

    Where x^k grows with |x| (even k, or the positive variant) each
    coordinate's window stops at the exact k-th root of its budget, so
    no base formed is negative; odd-k two-sided sums scan the whole
    window and skip a negative base by an exact comparison.  The last
    coordinate runs in blocks of _CHUNK points through one leaf: the
    block is int64 when the bound below holds and a numpy object array of
    Python ints (or Fractions) otherwise, and either cast to float64
    rounds like float(), so both dtypes give the same float64 bases.
    Each block's terms come from one rule (_powers: fb * sqrt(fb) at
    theta = 3/2, Python's pow at every other theta) and go into one
    ExactSum, so the value is math.fsum of the terms, bit for
    bit, with one block held at a time.  Cost grows as (X/q)^l; meant for
    desk-scale l <= 3.
    """
    check(*_lattice_parts([spec], variant))
    rs = spec.residues
    q, k, theta, l = spec.q, spec.k, spec.theta, len(rs)
    Xf = Fraction(spec.X)
    P = math.floor(Xf)
    exact_int = Xf.denominator == 1
    Xk = int(Xf) ** k if exact_int else Xf**k
    lower = 1 if variant == "positive" else -P
    can_prune = k % 2 == 0 or variant == "positive"
    # Every |x| <= P and the step is q, while every x^i, partial budget
    # and leaf base lies within +-(X^k + l P^k).
    fits = exact_int and max(P + q, Xk + l * P**k) < 2**63
    dtype = np.int64 if fits else object

    total = ExactSum()

    def leaf(remaining, xs: range) -> None:
        for start in range(xs.start, xs.stop, _CHUNK * q):
            x = np.arange(start, min(start + _CHUNK * q, xs.stop), q, dtype=dtype)
            bases = remaining - x**k
            total.add(_powers(bases[bases >= 0].astype(np.float64), theta))

    def walk(depth: int, remaining) -> None:
        lo, hi = lower, P
        if can_prune:
            # x^k grows with |x| here, so only |x| <= floor(remaining)^(1/k)
            # keeps a base >= 0; at depth 0 that root is P itself.
            budget = math.floor(remaining)
            root = integer_kth_root(budget, k) if budget >= 1 else 0
            lo, hi = max(lower, -root), min(P, root)
        xs = _window(lo, hi, rs[depth], q)
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
    rs = spec.residues
    q, k, theta, N, l = spec.q, spec.k, spec.theta, spec.N, len(rs)
    X, xkt = _asymptotic_floats(spec, variant, k + 1 if variant == "positive" else math.inf)
    error_scale = xkt * (q / X) ** (N - 1) * (1.0 + X / q) ** (l - 1)
    if variant == "two_sided":
        return ((2.0 * X / q) ** l * xkt * _gamma_ratio(theta, k, l),), error_scale
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
