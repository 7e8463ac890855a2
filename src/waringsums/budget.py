"""The one work budget: a command's cost, predicted before any work.

Each layer states its work as Parts: units of one kind of work, counted in
exact integers from the inputs that set them.  check() prices them by
RATES and refuses a total past SECONDS or BYTES.  Limits of a
representation (int64 residues, the count-table header, the float range)
are stated where they arise.
"""

import math
from collections import namedtuple

__all__ = ["SECONDS", "BYTES", "RATES", "Part", "check"]

SECONDS = 60  # the most predicted seconds one command may take
BYTES = 2**31  # and the most predicted bytes it may hold

# (picoseconds, bytes) per unit, measured with time.process_time and tracemalloc
# on one core of a 2-CPU Xeon box (Python 3.11, numpy 2.4); a unit that becomes
# output includes its printing.  A walk's cost per order grows with q; an odd k
# skips more moduli than an even one, so the walk's rates lie between the two.
RATES = {
    "walk moduli": (20_000_000, 0),  # one order at one modulus q <= Q
    "walk residues": (45_000, 0),  # one order at one r <= q, for each q <= Q
    "range additions": (500, 0),  # one value of n, one order, one modulus
    "range values": (1_000_000, 8),  # one float64 of the table, at each distinct Q
    "scalar moduli": (2_000_000, 0),  # one series at one modulus q <= Q
    "scalar terms": (20_000, 0),  # one series at one r <= q, for each q <= Q
    "scalar series": (0, 38 << 10),  # the exact sum one series keeps
    "count additions": (500, 0),  # 128 bits of every entry, one k-th power, one step
    "count entries": (200_000, 128),  # 128 bits of one entry, as limbs and as an int
    "lattice points at theta 3/2": (25_000, 0),  # fb * sqrt(fb), in numpy
    "lattice points": (160_000, 0),  # Python's pow
    "expsum residues": (2_800_000, 72),  # S and T at every a mod q, by DFT: a row each
    "expsum point residues": (500_000, 48),  # S and T at one a, summed over r
    "list values": (50_000_000, 64),  # one --X or --Q value: an em-verify row is 34 us
}

Part = namedtuple("Part", "name units inputs")  # units of RATES[name], set by inputs


def _show(value: int, scale: int = 1) -> str:
    """value / scale to three digits; past the float range, from its log."""
    if value < scale * 10**300:
        return f"{value / scale:.3g}"
    power = math.log10(value) - math.log10(scale)
    return f"{10 ** (power % 1):.3g}e+{int(power)}"


def check(*parts: Part) -> tuple:
    """The parts, if their total is within SECONDS and BYTES; otherwise a
    ValueError that gives the total and the largest part, with its inputs."""
    costs = [(p.units * RATES[p.name][0], p.units * RATES[p.name][1]) for p in parts]
    ps, size, limit = sum(t for t, _ in costs), sum(b for _, b in costs), SECONDS * 10**12
    if ps <= limit and size <= BYTES:
        return parts
    # the largest part has the largest share of either limit: t/limit or b/BYTES
    (t, b), part = max(zip(costs, parts), key=lambda c: max(c[0][0] * BYTES, c[0][1] * limit))
    raise ValueError(f"predicted {_show(ps, 10**12)} s and {_show(size)} bytes, past the "
                     f"budget of {SECONDS} s and {BYTES} bytes; the largest part is "
                     f"{_show(part.units)} {part.name} ({_show(t, 10**12)} s, "
                     f"{_show(b)} bytes) for {part.inputs}")
