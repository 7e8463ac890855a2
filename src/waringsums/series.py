"""Truncated singular series over rationals a/q, and derived experiments.

The classical series weights each reduced fraction a/q by (S(q,a)/q)^u;
the modified series swaps j of those factors for the weighted sum T(q,a).
Both are real: S and T at -a are the conjugates of S and T at a, so the
terms at a and q-a are conjugates, and both paths sum real parts only.

Both evaluation paths walk the moduli q <= Q once per evaluation (_walk)
and build every coefficient row they need from one S row (and one T row
if some j > 0) per q, skipping each q whose rows vanish identically, as
an exact test at the prime powers finds.  The scalar path takes specs
sharing k and Q, forms each phase vector e(-na/q) once per distinct
-n mod q, and adds each modulus's real parts to an expsums.ExactSum as
it goes, keeping none of them: the value is math.fsum of all of them,
bit for bit, however specs are grouped.  The range path serves a run of
consecutive n: for each q the map n -> partial sum depends only on n mod
q, so one length-q DFT of each row serves all, added a period at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .budget import Part, check
from .expsums import (ExactSum, _units, batch_values, binned_dft, coset_sums, phases,
                      power_residues, prime_power_parts)

__all__ = [
    "integer_kth_root",
    "TruncationSpec",
    "SeriesValue",
    "truncated_series",
    "modified_series_truncated",
    "series_over_range",
    "series_over_range_orders",
    "power_moment_sum",
    "negation_identity_residual",
    "factorial_multiple_discrepancy",
    "census_magnitudes",
    "nonvanishing_census",
]

def integer_kth_root(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 1, exact at any size (integer arithmetic only)."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if k == 2:
        return math.isqrt(n)
    if k >= n.bit_length():  # then n < 2^k, so the root is 1: no power formed
        return 1
    # Newton's iteration decreases monotonically from any start above the
    # root and stops at the floor; 2^ceil(bits/k) is such a start.
    r = 1 << -(-n.bit_length() // k)
    while True:
        t = ((k - 1) * r + n // r ** (k - 1)) // k
        if t >= r:
            return r
        r = t


def _check_int64(name: str, value: int) -> None:
    """Refuse a k or s past the int64 range, where numpy's powers of the
    rows and float division overflow; j <= s is checked with s."""
    if value >= 2**63:
        raise ValueError(f"{name} must be below 2^63, got {value}")


def _check_orders(k: int, orders) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _check_int64("k", k)
    for s, j in orders:
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        if not 0 <= j <= s:
            raise ValueError(f"need 0 <= j <= s, got j={j}, s={s}")
        _check_int64("s", s)


def _walk_parts(k: int, orders, Qs: Sequence[int], rows: int = 0, specs: int = 0) -> list:
    """The parts of the budget a walk to each Q in Qs charges, after its
    k, orders and Qs are checked: one DFT row per order per modulus, and
    rows values of n for a range walk or specs series for a scalar one."""
    _check_orders(k, orders)
    if min(Qs, default=0) < 1:
        raise ValueError("need at least one truncation Q, each Q >= 1, got "
                         f"Q={min(Qs, default='none')}")
    top, n, stops = max(Qs), len(orders), len(set(Qs))
    residues, walk, values = top * (top + 1) // 2, f"to Q={top}", f"{rows} values of n at"
    return [Part("walk moduli", n * top, f"{n} order(s) {walk}"),
            Part("walk residues", n * residues, f"{n} order(s) {walk}"),
            Part("range additions", rows * n * top, f"{values} {n} order(s) {walk}"),
            Part("range values", rows * n * stops,
                 f"{values} {n} order(s) and {stops} truncation(s)"),
            Part("scalar moduli", specs * top, f"{specs} series {walk}"),
            Part("scalar terms", specs * residues, f"{specs} series {walk}"),
            Part("scalar series", specs, f"{specs} series {walk}")]


def _bounds(ns) -> tuple[int, int]:
    """(first, count) of consecutive integers ns: a range of step 1 (never
    measured by len(), which fails past sys.maxsize) or a sequence."""
    if not (isinstance(ns, range) and ns.step == 1):
        ns = np.asarray(ns)
        if ns.ndim != 1 or (np.diff(ns) != 1).any():
            raise ValueError("need consecutive n")
        ns = range(int(ns[0]), int(ns[0]) + ns.size) if ns.size else range(0)
    return ns.start, max(ns.stop - ns.start, 0)


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
        _check_orders(self.k, [(self.s, self.j)])
        if self.Q is None:
            if self.n < 1:
                raise ValueError("default Q = floor(n^(1/k)) needs n >= 1")
            object.__setattr__(self, "Q", integer_kth_root(self.n, self.k))
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")


@dataclass(frozen=True)
class SeriesValue:
    """value is a float, the sum of real parts; tail_estimate is sum_a |w(a)|
    over the last modulus q = Q: the size of that row, not a bound on the
    truncation error, and exactly 0 where _walk skips that row as vanishing."""

    value: float
    term_count: int
    tail_estimate: float


def _units_vanish(residues: np.ndarray, p: int) -> bool:
    """Whether S(q, a) = 0 at every unit a mod q = p^e, given
    residues[r-1] = r^k mod q for r = 1..q.

    S(q, a) = sum_m c(m) e(am/q) with c(m) = #{r : r^k = m mod q}.  Shifting
    c by h = q/p multiplies that transform by e(-a/p), which is 1 exactly
    when p | a, so c is invariant under m -> m + h exactly when S(q, .)
    vanishes on the units.  The test compares integer counts."""
    c = np.bincount(residues, minlength=residues.size).reshape(p, -1)
    return bool((c == c[0]).all())


def _walk(k: int, orders, Q: int):
    """Yield (q, phi(q), a, rows) for q = 1..Q in increasing order: a holds
    the coprime residues mod q and rows maps each (s, j) in orders to
    w(a) = (S(q,a)/q)^(s-j) T(q,a)^j, both built from one power_residues
    array; a and rows are None where every row vanishes identically.

    On the units, S(q, .) is a product of S(p^e, .) over the p^e exactly
    dividing q, so if one of those vanishes, so does every row with
    s - j >= 1.  The walk reaches q = p^e before its multiples and tests it
    there exactly (_units_vanish); each later q with such a p^e among the
    prime powers that one sieve over [1, Q] gives (for phi(q) and the units
    too) is skipped with no residues, DFT or powers.  An order with j = s
    has the row T^s, which never vanishes, so a walk with one skips nothing.
    """
    skip = all(s > j for s, j in orders)
    weighted = any(j for _, j in orders)
    vanishing = set()  # the prime powers p^e < q with S(p^e, .) = 0 on the units
    for q, parts in enumerate(prime_power_parts(1, Q + 1), 1):
        phi = math.prod(pe - pe // p for p, pe in parts)
        if any(pe in vanishing for _, pe in parts):
            yield q, phi, None, None
            continue
        residues = power_residues(q, k)
        if skip and len(parts) == 1 and _units_vanish(residues, parts[0][0]):
            vanishing.add(q)
            yield q, phi, None, None
            continue
        a = _units(q, parts)
        S = binned_dft(residues)[a] / q
        T = binned_dft(residues, weighted=True)[a] if weighted else None
        yield q, phi, a, {(s, j): S ** (s - j) * T**j if j else S ** (s - j)
                          for s, j in orders}


def truncated_series(specs: Sequence[TruncationSpec]) -> list[SeriesValue]:
    """The value of every spec, from one walk over q <= Q; the specs must
    share k and Q.  Each is sum_{q<=Q} sum_{(a,q)=1} w(a) e(-na/q)."""
    if len({(spec.k, spec.Q) for spec in specs}) != 1:
        raise ValueError("need at least one spec, all with the same k and Q")
    k, Q = specs[0].k, specs[0].Q
    orders = {(spec.s, spec.j) for spec in specs}
    check(*_walk_parts(k, orders, [Q], specs=len(specs)))
    sums = [ExactSum() for _ in specs]
    count = 0
    for q, phi, a, rows in _walk(k, orders, Q):
        count += phi
        last = None  # each spec's terms at q, while q's rows do not vanish
        if rows is None:
            continue
        # e(-n a / q) = e(m a / q) with m = (-n) mod q; all index math exact.
        # One vector per m: specs whose n agree mod q share it.
        ms = [-int(spec.n) % q for spec in specs]
        phase = {m: phases(q, m * a % q) for m in set(ms)}
        last = [rows[spec.s, spec.j] * phase[m] for spec, m in zip(specs, ms)]
        for total, terms in zip(sums, last):
            total.add(terms.real)
    tails = [float(np.abs(terms).sum()) for terms in last] if last else [0.0] * len(specs)
    return [SeriesValue(total.value(), count, tail) for total, tail in zip(sums, tails)]


def modified_series_truncated(spec: TruncationSpec) -> SeriesValue:
    """sum_{q<=Q} sum_{(a,q)=1} (S(q,a)/q)^(s-j) T(q,a)^j e(-na/q)."""
    return truncated_series([spec])[0]


def series_over_range_orders(k: int, orders, ns, Qs: Sequence[int]) -> list[np.ndarray]:
    """For each truncation Q in Qs, a float array whose row i holds the
    series of orders[i] = (s, j) at every n in ns, consecutive integers
    of any size (see _bounds), all from one walk over q <= max(Qs); the
    running sum is copied as it passes each Q below the last.

    For each modulus the row w (zero off the coprime residues) satisfies
    value_q(n) = DFT(w)[n mod q], so each order costs one DFT per q, whose
    real part is added to the table a period at a time: the first partial
    period from ns[0] mod q (exact), every whole one through one view, and
    the partial one left.  Rows are applied in increasing q; agreement
    with the scalar path is at rounding level."""
    start, size = _bounds(ns)
    check(*_walk_parts(k, orders, Qs, size))
    out = np.zeros((len(orders), size))
    stops, snapshots, top = set(Qs), {}, max(Qs)
    for q, _, a, rows in _walk(k, orders, top):
        if rows is not None:
            # n = start + i is first + i mod q for i < head; whole periods
            # of q follow from n = 0 mod q, and then a partial one
            first, head = start % q, min(-start % q, size)
            whole = head + (size - head) // q * q
            for total, order in zip(out, orders):
                row = np.zeros(q, dtype=np.complex128)
                row[a] = rows[order]
                dft = np.fft.fft(row).real  # dft[m] = sum_a w(a) e(-ma/q)
                total[:head] += dft[first : first + head]
                periods = total[head:whole].reshape(-1, q)  # a view of total
                periods += dft
                total[whole:] += dft[: size - whole]
        if q in stops:
            snapshots[q] = out.copy() if q < top else out
    return [snapshots[Q] for Q in Qs]


def series_over_range(k: int, s: int, j: int, ns, Q: int) -> np.ndarray:
    """Truncated series values for every n in ns, consecutive, at truncation Q."""
    return series_over_range_orders(k, [(s, j)], ns, [Q])[0][0]


def _local_moment(p: int, pe: int, k: int, u: int) -> float:
    """f(p^e) = sum_{(a,p)=1} |S(p^e,a)/p^e|^u, given p and pe = p^e.  A
    prime uses one sum per coset of the k-th powers, each counted (p-1)/d
    times; a higher power of p uses its full DFT row."""
    if pe == p:
        values = coset_sums(p, k)
        return (p - 1) // values.size * math.fsum((np.abs(values / p) ** u).tolist())
    mags = np.abs(batch_values(pe, k)[_units(pe, [(p, pe)])]) / pe
    return math.fsum((mags**u).tolist())


def power_moment_sum(lo: float, hi: float, u: int, theta: float, k: int) -> float:
    """sum over lo <= q < hi of q^theta * sum_{(a,q)=1} |S(q,a)/q|^u.

    The inner sum f(q) is multiplicative in q, so each q is evaluated as
    the product of f(p^e) over the prime powers p^e exactly dividing it.
    Those local factors are built once per call: a prime p costs O(1)
    when d = gcd(k, p-1) <= 2 (f(p) = 0 exactly when d = 1, Gauss sums
    of modulus sqrt(p) when d = 2) and O(p) from the d coset sums when
    d >= 3, a higher prime power one DFT row.  The range must be finite.
    """
    if not 1 <= lo < hi < math.inf:
        raise ValueError("need 1 <= lo < hi < inf")
    if u < 1:
        raise ValueError("u must be a positive integer")
    local = {}  # f(p^e) by p^e, built once per call

    def factor(p: int, pe: int) -> float:
        if pe not in local:
            local[pe] = _local_moment(p, pe, k, u)
        return local[pe]

    first = math.ceil(lo)  # one sieve factors every q of the range
    return math.fsum(q**theta * math.prod(factor(p, pe) for p, pe in parts)
                     for q, parts in enumerate(prime_power_parts(first, math.ceil(hi)), first))


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
    m_pos, m_neg, classical = truncated_series([
        TruncationSpec(k, s, n, j=1, Q=Q),
        TruncationSpec(k, s, -n, j=1, Q=Q),
        TruncationSpec(k, s - 1, n, j=0, Q=Q),
    ])
    return abs(m_pos.value + m_neg.value + classical.value)


def factorial_multiple_discrepancy(s: int, k: int, Qs: Sequence[int], m: int,
                                   Q_trunc: int) -> list[float]:
    """M(n; Q_trunc) + (1/2) C(n; Q_trunc) at n = Q! * m for each Q in Qs,
    all from one walk over q <= Q_trunc.

    M is the first-order modified series with exponent s, C the classical
    series with exponent s-1.  Requires odd k and 2s >= 3k + 6.  Every
    phase e(-na/q) with q <= Q is exactly 1 because q divides Q!.
    """
    if k % 2 == 0:
        raise ValueError("requires odd k")
    if 2 * s < 3 * k + 6:
        raise ValueError(f"requires 2s >= 3k + 6 = {3 * k + 6}")
    if any(Q < 1 for Q in Qs) or m < 1:
        raise ValueError("Q and m must be positive")
    specs = []
    for Q in Qs:
        n = math.factorial(Q) * m
        specs += [TruncationSpec(k, s, n, j=1, Q=Q_trunc),
                  TruncationSpec(k, s - 1, n, j=0, Q=Q_trunc)]
    values = truncated_series(specs)
    return [mod.value + 0.5 * cla.value for mod, cla in zip(values[::2], values[1::2])]


def census_magnitudes(s: int, j: int, k: int, x: int, Qs: Sequence[int]) -> list[np.ndarray]:
    """|modified series| at n = 1..x for each truncation in Qs, from one
    walk over q <= max(Qs)."""
    _check_orders(k, [(s, j)])
    if x < 1:
        raise ValueError("need x >= 1")
    if 2 * s < (j + 4) * (k + 2):
        raise ValueError(f"requires 2s >= (j+4)(k+2) = {(j + 4) * (k + 2)}")
    tables = series_over_range_orders(k, [(s, j)], range(1, x + 1), Qs)
    return [np.abs(rows[0]) for rows in tables]


def nonvanishing_census(
    s: int, j: int, k: int, x: int, Q: int, C: float
) -> tuple[int, float]:
    """Count n in [1, x] whose modified-series magnitude at truncation Q
    is at least C.  Returns (count, count/x)."""
    mags, = census_magnitudes(s, j, k, x, [Q])
    count = int(np.count_nonzero(mags >= C))
    return count, count / x
