"""Exact counting of representations by sums of k-th powers.

Tables are built by iterated convolution of the k-th-power indicator
sequence, in exact integer arithmetic throughout.  The table is a
(limbs, N+1) numpy int64 array, entry n being sum_l acc[l, n] * 2**(w*l);
each step is a handful of shifted additions of it.  Before every step an
exact run-time guard checks that the largest limb times (v*P + 1) stays
below 2**63, where P is the number of k-th powers up to N and v the
weight of each (2 signed, 1 unsigned).  All terms are non-negative, so
this bounds every partial sum and int64 never wraps.  While the guard
fails, a carry pass moves each limb's bits above w into the next limb,
adding a top limb when needed; w = 63 - bit_length(v*P + 1) makes the
guard hold again.  Until the guard first fails the table is one limb,
and each step is a plain int64 shift-add.  The limbs are combined into
Python ints once, at the end, and checked against the declared
width_bits, an a-priori bound on every count.  A brute-force enumerator
is kept alongside as the independent oracle.

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
    "verify_inversion",
    "ResidualTable",
    "residual_prefactors",
    "residual_table",
    "write_binary",
    "read_binary",
]

MAGIC = b"WRC1"
_HEADER = struct.Struct("<4sIIQIB")
MIN_WIDTH_BITS = 128
MAX_WIDTH_BITS = 2**32 - 1  # the largest width_bits in _HEADER's uint32 field
# The largest N a table is built for: building one peaks near 190 bytes per
# entry (189.6 MiB at k = 4, s = 20, N = 10^6), so about 1.9 GB at this N.
MAX_N = 10**7


class WidthOverflowError(OverflowError):
    """A count does not fit the table's declared entry width."""


@dataclass(frozen=True)
class RepCountTable:
    """Exact counts indexed 0..N; immutable and safe to share."""

    k: int
    s: int
    signed: bool
    width_bits: int
    counts: tuple

    @property
    def N(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        return self.counts[n]


def _kth_powers(k: int, N: int) -> List[int]:
    """All y^k <= N with y >= 1."""
    return [y**k for y in range(1, _series.integer_kth_root(N, k) + 1)]


def _width_bits_for(k: int, s: int, N: int, signed: bool) -> int:
    """The entry width every table builder declares, after checking its
    arguments; an N above MAX_N is refused before any power is formed.
    Every entry is at most the number of admissible tuples, itself at most
    (#values per slot)^s; round up to whole bytes, floor 128.

    The WRC1 header holds the width as a uint32, which it fits exactly
    while per_slot^s, of floor(s log2(per_slot)) + 1 bits, has at most
    2^32 - 9 of them.  A larger s is refused before the power is formed;
    the test is in floating point, and s > 2^32 fails it at any per_slot."""
    if signed and k % 2 != 0:
        raise ValueError("signed counting requires even k")
    if s < 1:
        raise ValueError("s must be >= 1")
    if not 1 <= N <= MAX_N:
        raise ValueError(f"need 1 <= N <= {MAX_N}, got N={N}: building a count table "
                         "takes about 190 bytes per entry")
    if k < 2:
        raise ValueError("k must be >= 2")
    per_slot = (2 if signed else 1) * _series.integer_kth_root(N, k) + 1
    if s > MAX_WIDTH_BITS or s * math.log2(per_slot) >= MAX_WIDTH_BITS - 8:
        raise ValueError(f"s = {s} is too large: its entry width would exceed the "
                         f"{MAX_WIDTH_BITS} bits a count-table header can hold")
    bound_bits = (per_slot**s).bit_length() + 1
    return max(MIN_WIDTH_BITS, 8 * ((bound_bits + 7) // 8))


def _encode(counts: Sequence[int], wbytes: int) -> bytearray:
    """The WRC1 entries: each count in order as a little-endian unsigned
    integer of wbytes bytes."""
    out = bytearray()
    try:
        for c in counts:
            out += c.to_bytes(wbytes, "little")
    except OverflowError:
        raise WidthOverflowError("count exceeds declared entry width") from None
    return out


def _decode(raw: bytes, wbytes: int) -> List[int]:
    """The counts of an _encode layout (wbytes >= 8): each entry's whole
    8-byte words are read in place as uint64 and its last wbytes % 8 bytes
    one by one, and each column holding a nonzero value is shifted in."""
    entries = np.frombuffer(raw, dtype=np.uint8).reshape(-1, wbytes)
    whole = wbytes // 8 * 8
    words = entries[:, :whole].view("<u8")
    columns = [(64 * i, words[:, i]) for i in range(whole // 8)]
    columns += [(8 * b, entries[:, b]) for b in range(whole, wbytes)]
    counts = columns[0][1].tolist()
    for shift, column in columns[1:]:
        if column.any():
            counts = [c | w << shift for c, w in zip(counts, column.tolist())]
    return counts


def _carry(acc: np.ndarray, w: int) -> np.ndarray:
    """Move the bits of every limb above bit w into the next limb up,
    adding a top limb when the top one carries; the value of each entry
    is unchanged.  A new limb is a masked limb below 2**w plus a carry
    below 2**(63-w), so nothing wraps, and while the largest limb is
    above 2**w (as it is whenever the guard fails) a pass lowers it."""
    high = acc >> w
    acc &= (1 << w) - 1
    if high[-1].any():
        acc = np.vstack([acc, np.zeros_like(acc[:1])])
    acc[1:] += high[: len(acc) - 1]
    return acc


def _build_table(k: int, s: int, N: int, signed: bool, width_bits: int) -> RepCountTable:
    powers = _kth_powers(k, N)
    # One step multiplies the largest limb by less than this factor, so
    # limbs of w bits stay below 2**63 through the next step.
    growth = (2 if signed else 1) * len(powers) + 1
    w = 63 - growth.bit_length()
    acc = np.zeros((1, N + 1), dtype=np.int64)  # (limbs, N+1), lowest limb first
    if signed:
        acc[0, 0] = 1
    acc[0, powers] = 2 if signed else 1
    for _ in range(s - 1):
        while int(acc.max()) * growth >= 2**63:
            acc = _carry(acc, w)
        shifted = np.zeros_like(acc)
        for yk in powers:
            shifted[:, yk:] += acc[:, : N + 1 - yk]
        if signed:
            shifted *= 2
            shifted += acc
        acc = shifted
    counts = acc[-1].tolist()
    for limb in acc[-2::-1]:
        counts = [(c << w) + d for c, d in zip(counts, limb.tolist())]
    if max(counts).bit_length() > width_bits:
        raise WidthOverflowError("count exceeds declared entry width")
    return RepCountTable(k, s, signed, width_bits, tuple(counts))


def count_representations(k: int, s: int, N: int) -> RepCountTable:
    """counts[n] = #{(x_1..x_s), x_i >= 1 : sum x_i^k = n} for n <= N."""
    return _build_table(k, s, N, False, _width_bits_for(k, s, N, signed=False))


def count_representations_signed(k: int, s: int, N: int) -> RepCountTable:
    """counts[n] = #{(x_1..x_s), x_i in Z : sum x_i^k = n} for n <= N.

    Only for even k, where |x_i| <= n^(1/k) holds automatically; for odd
    k the analogous count needs an explicit window and is not a plain
    convolution, so it is rejected.
    """
    return _build_table(k, s, N, True, _width_bits_for(k, s, N, signed=True))


def count_by_enumeration(k: int, s: int, N: int, signed: bool = False) -> RepCountTable:
    """Brute-force nested enumeration of ordered tuples; the slow oracle.

    Signed slots are folded as weights (0 contributes once, each nonzero
    magnitude twice), which counts ordered sign choices exactly.
    """
    width_bits = _width_bits_for(k, s, N, signed)
    powers = _kth_powers(k, N)
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
    return RepCountTable(k, s, signed, width_bits, tuple(counts))


def verify_inversion(k: int, s: int, N: int) -> Optional[tuple]:
    """Exactly check, for all n <= N, the pair of identities

        signed_s(n)        = sum_r 2^(s-r) C(s,r) unsigned_{s-r}(n)
        2^s unsigned_s(n)  = sum_r (-1)^r C(s,r) signed_{s-r}(n)

    with the order-0 tables equal to the indicator of n = 0.  Returns None
    when both hold, else the first failure (n, identity, lhs, rhs).
    """
    if k % 2 != 0:
        raise ValueError("inversion check requires even k")
    order0 = (1,) + (0,) * N
    unsigned = [order0] + [count_representations(k, t, N).counts for t in range(1, s + 1)]
    signed = [order0] + [count_representations_signed(k, t, N).counts for t in range(1, s + 1)]
    for n in range(N + 1):
        lhs = signed[s][n]
        rhs = sum(2 ** (s - r) * math.comb(s, r) * unsigned[s - r][n] for r in range(s + 1))
        if lhs != rhs:
            return n, "signed-from-unsigned", lhs, rhs
        lhs2 = 2**s * unsigned[s][n]
        rhs2 = sum((-1) ** r * math.comb(s, r) * signed[s - r][n] for r in range(s + 1))
        if lhs2 != rhs2:
            return n, "unsigned-from-signed", lhs2, rhs2
    return None


@dataclass(frozen=True, eq=False)
class ResidualTable:
    """The rows of residual_table.  It holds ns, the count table and the
    (J+1, len(ns)) coefficients c_j(n), and nothing else as long as ns:
    rows(lo, hi) forms the exact counts (as ints) and the (J+1, hi-lo)
    float arrays predicted and residuals of a slice of rows."""

    ns: np.ndarray
    table: RepCountTable
    coefficients: np.ndarray

    def __len__(self) -> int:
        return len(self.ns)

    def rows(self, lo: int, hi: int) -> tuple[list, np.ndarray, np.ndarray]:
        """(exact, predicted, residuals) of the rows lo..hi-1; each row's
        values are the same bits whatever slice it is formed in."""
        ns = self.ns[lo:hi]
        first = int(self.ns[0]) + lo
        exact = list(self.table.counts[first : first + len(ns)])
        predicted = _expansion.expansion_partial_sums(ns, self.table.s, self.table.k,
                                                      self.coefficients[:, lo:hi])
        return exact, predicted, np.array([float(c) for c in exact]) - predicted


def residual_prefactors(k: int, s: int, J: int, n_min: int, n_max: int,
                        Q: int) -> list[float]:
    """coefficient_prefactors(s, J, k), once (k, s, J), the n range, the
    count table to n_max, the walk to Q and the size of its table pass
    every check of residual_table that needs no table, so that a caller
    can make them before it counts."""
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    _width_bits_for(k, s, n_max, False)  # what counting the table would refuse
    prefactors = _expansion.coefficient_prefactors(s, J, k)
    orders = [_expansion.series_order(k, s, j) for j in range(J + 1)]
    _series._check_walk(k, orders, [Q], n_max - n_min + 1)
    return prefactors


def residual_table(counts: RepCountTable, J: int, n_min: int, n_max: int,
                   Q: int) -> ResidualTable:
    """Exact counts of an unsigned table against its cumulative expansion predictions.

    predicted_j(n) sums the expansion through order j with coefficients
    truncated at level Q; residuals are exact - predicted_j, computed as
    float(exact) - predicted_j, which is what int - float gives.  Only the
    coefficients are computed here, in place over the series values; the
    rest is formed by the table's rows().
    """
    if counts.signed or n_max > counts.N:
        raise ValueError(f"need an unsigned table covering n <= {n_max}")
    k, s = counts.k, counts.s
    prefactors = residual_prefactors(k, s, J, n_min, n_max, Q)
    orders = [_expansion.series_order(k, s, j) for j in range(J + 1)]
    coeffs = _series.series_over_range_orders(k, orders, range(n_min, n_max + 1), [Q])[0]
    coeffs *= np.array(prefactors)[:, None]
    return ResidualTable(np.arange(n_min, n_max + 1, dtype=np.int64), counts, coeffs)


def write_binary(table: RepCountTable, path: str) -> None:
    """Flat binary layout: magic, k, s, N, entry width in bits, signed
    flag (header little-endian), then N+1 raw little-endian entries."""
    if table.k >= 2**32:  # a valid table (one value per slot), but k is a uint32 here
        raise ValueError(f"k = {table.k} does not fit a count-table header (below 2^32)")
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
    return RepCountTable(k, s, bool(signed), width_bits, tuple(_decode(raw, wbytes)))

