"""Output checks for every benchmark command.

Each check parses one command's output and compares it with a reference
that does not come from the code path that produced it:

* exact columns (``count``, ``exact``, ``term_count``, ``binomial``, the
  census ``count``) must match exactly.  Count tables are rebuilt here by
  an independent numpy int64 shift-add with an overflow guard;
* float columns must agree within ``RTOL`` of the reference's scale.
  Range-path outputs are checked against the scalar path at sampled n,
  scalar-path outputs against the range path, closed forms against
  ``math.lgamma``, direct sums against a numpy recomputation, and the
  rest against values stored in ``reference.json`` (recorded from
  waringsums 0.1.0; see README.md).

A failed check raises ``CheckError``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from waringsums import series

RTOL = 1e-9

STORED = json.loads((Path(__file__).parent / "reference.json").read_text())


class CheckError(Exception):
    """An output did not match its reference."""


def verify(check, text: str, ctx: "Checker"):
    """Run one check; return why it failed, or None.  Output that cannot be
    parsed (a bad number, a short row, a missing reference output) fails."""
    try:
        check(text, ctx)
    except (CheckError, ValueError, IndexError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def close(got: float, want: float, scale: float, what: str) -> None:
    if not abs(got - want) <= RTOL * scale:
        raise CheckError(f"{what}: {got!r} differs from reference {want!r} "
                         f"by more than {RTOL:g} x {scale:.6g}")


def equal(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: {got!r} != reference {want!r}")


def table(text: str, columns) -> list:
    """Rows of a CSV output, after checking its comment header and columns."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# waringsums ") or not lines[1].startswith("# "):
        raise CheckError("missing the '# waringsums' comment header")
    equal(lines[2].split(","), list(columns), "columns")
    rows = [line.split(",") for line in lines[3:]]
    for row in rows:
        equal(len(row), len(columns), "row width")
    return rows


class Checker:
    """References shared by the checks of one run, each computed once."""

    def __init__(self):
        self._memo = {}
        self.outputs = {}  # label -> validated first output of that command

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def counts(self, k: int, s: int, N: int, signed: bool) -> list:
        return self._cached(("counts", k, s, N, signed),
                            lambda: count_table(k, s, N, signed))

    def scalar(self, k, s, j, n, Q) -> complex:
        spec = series.TruncationSpec(k, s, n, j=j, Q=Q)
        return self._cached(("scalar", k, s, j, n, Q),
                            lambda: series.modified_series_truncated(spec).value)

    def range_value(self, k, s, j, n, Q) -> complex:
        return self._cached(
            ("range", k, s, j, n, Q),
            lambda: complex(series.series_over_range(k, s, j, np.array([n]), Q)[0]))


def count_table(k: int, s: int, N: int, signed: bool) -> list:
    """Representation counts 0..N by int64 shift-add, guarded against overflow."""
    powers = [y**k for y in range(1, int(round(N ** (1.0 / k))) + 2) if y**k <= N]
    weight = 2 if signed else 1
    base = np.zeros(N + 1, dtype=np.int64)
    base[powers] = weight
    if signed:
        base[0] = 1
    acc = base
    for _ in range(s - 1):
        if int(acc.max()) * (weight * len(powers) + 1) >= 2**63:
            raise OverflowError("reference counts exceed int64")
        nxt = acc.copy() if signed else np.zeros_like(acc)
        for p in powers:
            nxt[p:] += weight * acc[: N + 1 - p]
        acc = nxt
    return acc.tolist()


def prefactor(s: int, j: int, k: int) -> float:
    """C(s, j) Gamma(1+1/k)^(s-j) / Gamma((s-j)/k), times (-1/2)^j for even k."""
    g = math.exp((s - j) * math.lgamma(1.0 + 1.0 / k) - math.lgamma((s - j) / k))
    factor = math.comb(s, j) * g
    return factor * (-0.5) ** j if k % 2 == 0 else factor


def order_series(k: int, s: int, j: int) -> tuple:
    """(exponent, modification order) of the series behind expansion order j."""
    return (s - j, 0) if k % 2 == 0 else (s, j)


def totient_sum(Q: int) -> int:
    phi = list(range(Q + 1))
    for p in range(2, Q + 1):
        if phi[p] == p:
            for m in range(p, Q + 1, p):
                phi[m] -= phi[m] // p
    return sum(phi[1:])


def last_row_magnitude(k: int, s: int, j: int, Q: int) -> float:
    """sum over a coprime to Q of |S(Q,a)/Q|^(s-j) |T(Q,a)|^j, by direct sums."""
    a = np.array([x for x in range(1, Q + 1) if math.gcd(x, Q) == 1], dtype=np.int64)
    r = np.arange(1, Q + 1, dtype=np.int64)
    rk = np.array([pow(int(x), k, Q) for x in r], dtype=np.int64)
    phases = np.exp(2j * np.pi * ((a[:, None] * rk[None, :]) % Q) / Q)
    S = phases.sum(axis=1)
    T = (phases * (0.5 - r / Q)[None, :]).sum(axis=1)
    return float(np.sum(np.abs(S / Q) ** (s - j) * np.abs(T) ** j))


# ----------------------------- the checks ---------------------------------

def version(text: str, ctx: Checker) -> None:
    if not re.fullmatch(r"waringsums \S+\n", text):
        raise CheckError(f"unexpected version output {text!r}")


def counts(text: str, ctx: Checker, *, k, s, n_max, signed) -> None:
    rows = table(text, ["n", "count"])
    ref = ctx.counts(k, s, n_max, signed)
    equal(len(rows), n_max + 1, "row count")
    for n, (col_n, col_count) in enumerate(rows):
        equal(int(col_n), n, "n column")
        equal(int(col_count), ref[n], f"count at n={n}")


def same_as(text: str, ctx: Checker, *, of) -> None:
    """Byte-for-byte equality with the validated output of command ``of``."""
    if text != ctx.outputs[of]:
        raise CheckError(f"output differs from that of {of!r}")


def residuals(text: str, ctx: Checker, *, k, s, J, n_min, n_max, Q, samples) -> None:
    columns = (["n", "exact"] + [f"pred{j}" for j in range(J + 1)]
               + [f"E{j}" for j in range(J + 1)])
    rows = table(text, columns)
    ref = ctx.counts(k, s, n_max, False)
    equal(len(rows), n_max - n_min + 1, "row count")
    for i, row in enumerate(rows):
        n = n_min + i
        equal(int(row[0]), n, "n column")
        equal(int(row[1]), ref[n], f"exact at n={n}")
        preds = [float(v) for v in row[2 : J + 3]]
        for j, (pred, err) in enumerate(zip(preds, map(float, row[J + 3 :]))):
            close(err, ref[n] - pred, max(abs(pred), ref[n], 1.0), f"E{j} at n={n}")
        if n in samples:
            cumulative, scale = 0.0, 0.0
            for j in range(J + 1):
                u, order = order_series(k, s, j)
                term = (prefactor(s, j, k) * ctx.scalar(k, u, order, n, Q).real
                        * float(n) ** ((s - j) / k - 1.0))
                cumulative += term
                scale += abs(term)
                close(preds[j], cumulative, scale, f"pred{j} at n={n}")


def series_point(text: str, ctx: Checker, *, k, s, j, n, Q) -> None:
    rows = table(text, ["n", "value_re", "value_im", "term_count", "tail_estimate"])
    equal(len(rows), 1, "row count")
    col_n, re_, im_, terms, tail = rows[0]
    equal(int(col_n), n, "n column")
    ref = ctx.range_value(k, s, j, n, Q)
    close(float(re_), ref.real, abs(ref), "value_re")
    close(float(im_), ref.imag, abs(ref), "value_im")
    equal(int(terms), totient_sum(Q), "term_count")
    tail_ref = last_row_magnitude(k, s, j, Q)
    close(float(tail), tail_ref, tail_ref, "tail_estimate")


def series_range(text: str, ctx: Checker, *, k, s, j, n_min, n_max, Q, samples) -> None:
    rows = table(text, ["n", "value_re", "value_im"])
    equal(len(rows), n_max - n_min + 1, "row count")
    for i, (col_n, re_, im_) in enumerate(rows):
        n = n_min + i
        equal(int(col_n), n, "n column")
        if n in samples:
            ref = ctx.scalar(k, s, j, n, Q)
            close(float(re_), ref.real, abs(ref), f"value_re at n={n}")
            close(float(im_), ref.imag, abs(ref), f"value_im at n={n}")


def expansion(text: str, ctx: Checker, *, k, s, J, n, Q) -> None:
    rows = table(text, ["j", "binomial", "gamma_factor", "series_value", "c_j"])
    equal(len(rows), J + 1, "row count")
    for j, (col_j, binomial, gamma, value, coeff) in enumerate(rows):
        equal(int(col_j), j, "j column")
        equal(int(binomial), math.comb(s, j), f"binomial at j={j}")
        gamma_ref = math.exp((s - j) * math.lgamma(1.0 + 1.0 / k) - math.lgamma((s - j) / k))
        close(float(gamma), gamma_ref, gamma_ref, f"gamma_factor at j={j}")
        u, order = order_series(k, s, j)
        ref = ctx.range_value(k, u, order, n, Q)
        close(float(value), ref.real, abs(ref), f"series_value at j={j}")
        pre = prefactor(s, j, k)
        close(float(coeff), pre * ref.real, abs(pre * ref), f"c_j at j={j}")


def discrepancy(text: str, ctx: Checker, *, k, s, Qs, m, trunc) -> None:
    rows = table(text, ["Q", "n", "discrepancy"])
    equal([int(r[0]) for r in rows], list(Qs), "Q column")
    for (_, col_n, disc), Q in zip(rows, Qs):
        n = math.factorial(Q) * m
        equal(int(col_n), n, f"n at Q={Q}")
        mod = ctx.range_value(k, s, 1, n, trunc).real
        cla = ctx.range_value(k, s - 1, 0, n, trunc).real
        close(float(disc), mod + 0.5 * cla, abs(mod) + 0.5 * abs(cla), f"discrepancy at Q={Q}")


def stored_rows(text: str, ctx: Checker, *, key, exact) -> None:
    """Rows against values stored in reference.json; ``exact`` names the
    columns that must match exactly, the others are floats."""
    ref = STORED[key]
    rows = table(text, ref["columns"])
    equal(len(rows), len(ref["rows"]), "row count")
    for row, ref_row in zip(rows, ref["rows"]):
        for name, got, want in zip(ref["columns"], row, ref_row):
            if name in exact:
                equal(int(got), want, f"{name} at row {ref_row[0]}")
            else:
                close(float(got), want, abs(want), f"{name} at row {ref_row[0]}")


def stored_value(text: str, ctx: Checker, *, key) -> None:
    want = STORED[key]
    close(float(text.strip()), want, abs(want), key)


def lattice(text: str, ctx: Checker, *, k, theta, q, r, Xs) -> None:
    """Two-sided em-verify rows against a numpy direct sum and the closed form."""
    rows = table(text, ["X", "direct", "main", "psi", "scaled_error"])
    equal([int(row[0]) for row in rows], list(Xs), "X column")
    ratio = math.exp(math.lgamma(1.0 + theta) + math.lgamma(1.0 + 1.0 / k)
                     - math.lgamma(1.0 + theta + 1.0 / k))
    for (_, direct, main, psi, scaled), X in zip(rows, Xs):
        if X**k >= 2**53:
            raise ValueError("the numpy direct sum is exact only for X**k < 2**53")
        h = np.arange(math.ceil(-(X + r) / q), (X - r) // q + 1, dtype=np.int64)
        base = X**k - (q * h + r) ** k
        direct_ref = math.fsum(np.maximum(base, 0).astype(np.float64) ** theta)
        scale = float(X) ** (k * theta)
        main_ref = 2.0 * X / q * scale * ratio
        close(float(direct), direct_ref, direct_ref, f"direct at X={X}")
        close(float(main), main_ref, main_ref, f"main at X={X}")
        close(float(psi), 0.0, main_ref, f"psi at X={X}")
        close(float(scaled), (direct_ref - main_ref) / scale,
              (direct_ref + main_ref) / scale, f"scaled_error at X={X}")
