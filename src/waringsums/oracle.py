"""Exact counting of representations by sums of k-th powers.

Tables are built by iterated convolution of the k-th-power indicator
sequence, in exact integer arithmetic throughout.  Each step is a
handful of shifted additions of numpy int64 arrays.  Before every step
an exact run-time guard checks that the largest entry times (w*P + 1)
stays below 2**63, where P is the number of k-th powers up to N and w
the weight of each (2 signed, 1 unsigned).  All terms are non-negative,
so this bounds every partial sum and int64 never wraps.  When the guard
fails, the remaining steps run on the packed engine, which holds the
whole table in one Python big integer with a fixed byte width per entry
(the declared width_bits, an a-priori bound on every count), so counts
stay exact at any size.  A brute-force enumerator is kept alongside as
the independent oracle.

Counts are ordered-tuple counts.  The unsigned table counts solutions in
positive integers; the signed table (even k only) counts solutions in
all integers, built from the weight 2 per nonzero k-th power plus 1 at 0.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import expansion as _expansion
from . import series as _series

__all__ = [
    "RepCountTable",
    "WidthOverflowError",
    "count_representations",
    "count_representations_signed",
    "count_by_enumeration",
    "InversionResult",
    "verify_inversion",
    "ResidualRecord",
    "ResidualTable",
    "residual_table",
    "write_binary",
    "read_binary",
    "write_csv",
]

MAGIC = b"WRC1"
_HEADER = struct.Struct("<4sIIQIB")
MIN_WIDTH_BITS = 128


class WidthOverflowError(OverflowError):
    """A count does not fit the table's declared entry width."""


@dataclass(frozen=True)
class RepCountTable:
    """Exact counts indexed 0..N; immutable and safe to share."""

    k: int
    s: int
    N: int
    signed: bool
    width_bits: int
    counts: tuple

    def __post_init__(self):
        if len(self.counts) != self.N + 1:
            raise ValueError("counts must cover 0..N")

    def __getitem__(self, n: int) -> int:
        return self.counts[n]


def kth_powers(k: int, N: int) -> List[int]:
    """All y^k <= N with y >= 1."""
    return [y**k for y in range(1, _series.integer_kth_root(N, k) + 1)]


def _width_bits_for(k: int, s: int, N: int, signed: bool) -> int:
    # Every entry is at most the total number of admissible tuples, itself
    # at most (#values per slot)^s; round up to whole bytes, floor 128.
    per_slot = (2 if signed else 1) * len(kth_powers(k, N)) + 1
    bound_bits = (per_slot**s).bit_length() + 1
    return max(MIN_WIDTH_BITS, 8 * ((bound_bits + 7) // 8))


def _encode(counts: Sequence[int], wbytes: int) -> bytes:
    """The WRC1 entries, for the packed engine and the file: each count in
    order as a little-endian unsigned integer of wbytes bytes."""
    top = max(counts, default=0)
    if top.bit_length() > 8 * wbytes:
        raise WidthOverflowError("count exceeds declared entry width")
    if top < 2**64:  # one word per entry, the higher ones zero
        entries = np.zeros((len(counts), wbytes), dtype=np.uint8)
        entries[:, :8] = np.array(counts, dtype="<u8").view(np.uint8).reshape(-1, 8)
        return entries.tobytes()
    return b"".join(int(c).to_bytes(wbytes, "little") for c in counts)


def _decode(raw: bytes, wbytes: int) -> List[int]:
    """The counts of an _encode layout."""
    entries = np.frombuffer(raw, dtype=np.uint8).reshape(-1, wbytes)
    if not entries[:, 8:].any():
        return np.ascontiguousarray(entries[:, :8]).view("<u8").ravel().tolist()
    return [int.from_bytes(raw[i : i + wbytes], "little")
            for i in range(0, len(raw), wbytes)]


def _convolve_packed(acc: int, powers: Sequence[int], N: int, wbytes: int,
                     signed: bool) -> int:
    mask = (1 << (8 * wbytes * (N + 1))) - 1
    shifted = 0
    for yk in powers:
        shifted += acc << (8 * wbytes * yk)
    if signed:
        acc = acc + 2 * shifted
    else:
        acc = shifted
    return acc & mask


def _convolve_int64(acc: np.ndarray, powers: Sequence[int], N: int,
                    signed: bool) -> np.ndarray:
    # Exact only while no entry reaches 2**63; _build_table checks that
    # before every step.
    shifted = np.zeros_like(acc)
    for yk in powers:
        shifted[yk:] += acc[: N + 1 - yk]
    if signed:
        shifted *= 2
        shifted += acc
    return shifted


def _packed_steps(counts: Sequence[int], powers: Sequence[int], N: int,
                  steps: int, wbytes: int, signed: bool) -> List[int]:
    acc = int.from_bytes(_encode(counts, wbytes), "little")
    for _ in range(steps):
        acc = _convolve_packed(acc, powers, N, wbytes, signed)
    return _decode(acc.to_bytes((N + 1) * wbytes, "little"), wbytes)


def _base_sequence(powers: Sequence[int], N: int, signed: bool) -> np.ndarray:
    base = np.zeros(N + 1, dtype=np.int64)
    if signed:
        base[0] = 1
    base[powers] = 2 if signed else 1
    return base


def _build_table(k: int, s: int, N: int, signed: bool) -> RepCountTable:
    if s < 1:
        raise ValueError("s must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    powers = kth_powers(k, N)
    width_bits = _width_bits_for(k, s, N, signed)
    # One step multiplies the largest entry by less than this factor.
    growth = (2 if signed else 1) * len(powers) + 1
    acc = _base_sequence(powers, N, signed)
    steps = s - 1
    while steps and int(acc.max()) * growth < 2**63:
        acc = _convolve_int64(acc, powers, N, signed)
        steps -= 1
    counts = acc.tolist()
    if steps:
        counts = _packed_steps(counts, powers, N, steps, width_bits // 8, signed)
    if max(counts).bit_length() > width_bits:
        raise WidthOverflowError("count exceeds declared entry width")
    return RepCountTable(k, s, N, signed, width_bits, tuple(counts))


def _count_packed(k: int, s: int, N: int, signed: bool = False) -> List[int]:
    """The counts of _build_table, on the packed engine alone."""
    powers = kth_powers(k, N)
    base = _base_sequence(powers, N, signed).tolist()
    wbytes = _width_bits_for(k, s, N, signed) // 8
    return _packed_steps(base, powers, N, s - 1, wbytes, signed)


def count_representations(k: int, s: int, N: int) -> RepCountTable:
    """counts[n] = #{(x_1..x_s), x_i >= 1 : sum x_i^k = n} for n <= N."""
    return _build_table(k, s, N, signed=False)


def count_representations_signed(k: int, s: int, N: int) -> RepCountTable:
    """counts[n] = #{(x_1..x_s), x_i in Z : sum x_i^k = n} for n <= N.

    Only for even k, where |x_i| <= n^(1/k) holds automatically; for odd
    k the analogous count needs an explicit window and is not a plain
    convolution, so it is rejected.
    """
    if k % 2 != 0:
        raise ValueError("signed counting requires even k")
    return _build_table(k, s, N, signed=True)


def count_by_enumeration(k: int, s: int, N: int, signed: bool = False) -> RepCountTable:
    """Brute-force nested enumeration of ordered tuples; the slow oracle.

    Signed slots are folded as weights (0 contributes once, each nonzero
    magnitude twice), which counts ordered sign choices exactly.
    """
    if signed and k % 2 != 0:
        raise ValueError("signed counting requires even k")
    if s < 1 or N < 1:
        raise ValueError("s and N must be >= 1")
    powers = kth_powers(k, N)
    items = ([(0, 1)] if signed else []) + [(yk, 2 if signed else 1) for yk in powers]
    counts = [0] * (N + 1)

    def recurse(depth: int, total: int, weight: int) -> None:
        if depth == s:
            counts[total] += weight
            return
        for value, w in items:
            if total + value > N:
                break
            recurse(depth + 1, total + value, weight * w)

    recurse(0, 0, 1)
    width_bits = max(MIN_WIDTH_BITS, 8 * ((max(counts).bit_length() + 8) // 8))
    return RepCountTable(k, s, N, signed, width_bits, tuple(counts))


@dataclass(frozen=True)
class InversionResult:
    """Outcome of the signed/unsigned inversion check; truthy iff it held."""

    ok: bool
    checked_up_to: int
    first_failure: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_inversion(k: int, s: int, N: int) -> InversionResult:
    """Exactly check, for all n <= N, the pair of identities

        signed_s(n)        = sum_r 2^(s-r) C(s,r) unsigned_{s-r}(n)
        2^s unsigned_s(n)  = sum_r (-1)^r C(s,r) signed_{s-r}(n)

    with the order-0 tables equal to the indicator of n = 0.
    """
    if k % 2 != 0:
        raise ValueError("inversion check requires even k")
    unsigned = {0: [1] + [0] * N}
    signed = {0: [1] + [0] * N}
    for t in range(1, s + 1):
        unsigned[t] = list(count_representations(k, t, N).counts)
        signed[t] = list(count_representations_signed(k, t, N).counts)
    for n in range(N + 1):
        lhs = signed[s][n]
        rhs = sum(2 ** (s - r) * math.comb(s, r) * unsigned[s - r][n] for r in range(s + 1))
        if lhs != rhs:
            return InversionResult(False, N, (n, "signed-from-unsigned", lhs, rhs))
        lhs2 = 2**s * unsigned[s][n]
        rhs2 = sum((-1) ** r * math.comb(s, r) * signed[s - r][n] for r in range(s + 1))
        if lhs2 != rhs2:
            return InversionResult(False, N, (n, "unsigned-from-signed", lhs2, rhs2))
    return InversionResult(True, N)


@dataclass(frozen=True)
class ResidualRecord:
    n: int
    exact: int
    predicted: tuple
    residuals: tuple


@dataclass(frozen=True, eq=False)
class ResidualTable:
    """The columns of residual_table: ns, the exact counts as ints, and
    (J+1, len(ns)) float arrays predicted and residuals.  Iterating gives
    one ResidualRecord per n."""

    ns: np.ndarray
    exact: list
    predicted: np.ndarray
    residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.exact)

    def __iter__(self):
        for n, c, p, r in zip(self.ns.tolist(), self.exact, self.predicted.T.tolist(),
                              self.residuals.T.tolist()):
            yield ResidualRecord(n, c, tuple(p), tuple(r))


def residual_table(k: int, s: int, J: int, n_min: int, n_max: int, Q: int,
                   counts: Optional[RepCountTable] = None) -> ResidualTable:
    """Exact counts against cumulative expansion predictions.

    predicted_j(n) sums the expansion through order j with coefficients
    truncated at level Q; residuals are exact - predicted_j, computed as
    float(exact) - predicted_j, which is what int - float gives.  A
    precomputed unsigned table may be passed to skip the convolution.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if counts is None:
        counts = count_representations(k, s, n_max)
    if counts.N < n_max or counts.k != k or counts.s != s or counts.signed:
        raise ValueError("supplied table does not match the experiment")
    prefactors = _expansion.coefficient_prefactors(s, J, k)
    ns = np.arange(n_min, n_max + 1, dtype=np.int64)
    nf = ns.astype(np.float64)
    orders = [_expansion.series_order(k, s, j) for j in range(J + 1)]
    vals = _series.series_over_range_orders(k, orders, ns, Q).real
    term = np.zeros((J + 1, ns.size))
    for j in range(J + 1):
        term[j] = prefactors[j] * vals[j] * nf ** ((s - j) / k - 1.0)
    predicted = np.cumsum(term, axis=0)
    exact = list(counts.counts[n_min : n_max + 1])
    residuals = np.array([float(c) for c in exact]) - predicted
    return ResidualTable(ns, exact, predicted, residuals)


def write_binary(table: RepCountTable, path: str) -> None:
    """Flat binary layout: magic, k, s, N, entry width in bits, signed
    flag (header little-endian), then N+1 raw little-endian entries."""
    header = _HEADER.pack(MAGIC, table.k, table.s, table.N, table.width_bits,
                          1 if table.signed else 0)
    body = _encode(table.counts, table.width_bits // 8)  # checked before the file opens
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_binary(path: str) -> RepCountTable:
    """Read a table written by write_binary; malformed files raise ValueError."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated count-table header")
        magic, k, s, N, width_bits, signed = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"not a count-table file: bad magic {magic!r}")
        if width_bits < MIN_WIDTH_BITS or width_bits % 8:
            raise ValueError(f"bad entry width {width_bits} bits")
        if signed not in (0, 1):
            raise ValueError(f"bad signed flag {signed}")
        wbytes = width_bits // 8
        expected = _HEADER.size + (N + 1) * wbytes
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            kind = "truncated" if size < expected else "trailing bytes in"
            raise ValueError(f"{kind} count-table file: {size} bytes, "
                             f"header implies {expected}")
        raw = fh.read()
    return RepCountTable(k, s, N, bool(signed), width_bits, tuple(_decode(raw, wbytes)))


def write_csv(table: RepCountTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# k={table.k} s={table.s} N={table.N} signed={int(table.signed)}\n")
        fh.write("n,count\n")
        fh.writelines(f"{n},{c}\n" for n, c in enumerate(table.counts))
