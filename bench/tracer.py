"""Outside-in tracing of one benchmark command, and the per-layer summary.

Run as a child process, in a fresh interpreter:

    python3 bench/tracer.py [--off] SPANS OUTPUT -- -m waringsums.cli ARGS...
    python3 bench/tracer.py [--off] SPANS OUTPUT -- -c CODE

It runs the command in-process with its standard output sent to OUTPUT,
and writes the in-process wall time and the recorded spans to SPANS as
JSON.  Tracing wraps the public functions of each waringsums module in
every module namespace that bound them (``series`` imports
``batch_values`` by name, so patching ``expsums`` alone would miss those
calls).  A span is ``[name, start_ns, end_ns, parent_index, attrs]``;
spans stay in memory until the command ends.  ``--off`` runs the same
command untraced, which gives the tracing overhead.

The program itself has no spans yet; everything here is measured from
outside, at the boundary of each public call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "oracle", "series", "expsums", "expansion", "eulermac")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("oracle.count.busy_s", "s"),
    ("oracle.count.calls", "count"),
    ("oracle.count.entries", "count"),
    ("oracle.count.slot_ops", "count"),
    ("oracle.count.width_bits", "bits"),
    ("oracle.write.busy_s", "s"),
    ("oracle.write.bytes", "bytes"),
    ("oracle.read.busy_s", "s"),
    ("oracle.read.bytes", "bytes"),
    ("oracle.residual_table.busy_s", "s"),
    ("oracle.residual_table.rows", "count"),
    ("series.range.busy_s", "s"),
    ("series.range.calls", "count"),
    ("series.range.cells", "count"),
    ("series.scalar.busy_s", "s"),
    ("series.scalar.calls", "count"),
    ("series.scalar.terms", "count"),
    ("series.moment.busy_s", "s"),
    ("series.moment.rows", "count"),
    ("expsums.batch_values.calls", "count"),
    ("expsums.batch_values.busy_s", "s"),
    ("expsums.batch_values.repeat_ratio", "1"),
    ("expsums.batch_values.repeat_us", "us"),
    ("expsums.batch_values.first_us", "us"),
    ("expsums.batch_weighted_values.calls", "count"),
    ("expsums.batch_weighted_values.busy_s", "s"),
    ("expsums.coprime_residues.calls", "count"),
    ("expsums.coprime_residues.busy_s", "s"),
    ("expsums.max_q", "count"),
    ("expansion.busy_s", "s"),
    ("eulermac.direct.busy_s", "s"),
    ("eulermac.direct.terms", "count"),
    ("eulermac.asymptotic.busy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.busy_s", "s"),
    ("trace.overhead_ratio", "1"),
) + tuple((f"{layer}.share", "1") for layer in LAYERS)


class Tracer:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(result, *args, **kwargs)
            return result

        return traced


def _kth_root(n: int, k: int) -> int:
    r = 0
    while (r + 1) ** k <= n:
        r += 1
    return r


def _count_attrs(table, k, s, N, *_, **__):
    powers = _kth_root(N, k)
    return {"entries": N + 1, "slot_ops": (s - 1) * powers * (N + 1),
            "width_bits": table.width_bits}


def _direct_terms(_, spec, variant="two_sided"):
    # Lattice points h with x = qh + r admissible, from the inputs alone.
    r, q, X = spec.r, spec.q, Fraction(spec.X)
    hmax = math.floor((X - r) / q)
    if variant == "two_sided":
        hmin = math.ceil(-(X + r) / q)
    else:
        hmin = math.floor(Fraction(-r, q)) + 1
    return max(0, hmax - hmin + 1)


def _targets():
    """(module, function, span name, attrs) for every traced boundary."""
    q_k = lambda _, q, k: (q, k)  # noqa: E731
    return (
        ("cli", "run", "cli.run", None),
        ("oracle", "count_representations", "oracle.count", _count_attrs),
        ("oracle", "count_representations_signed", "oracle.count", _count_attrs),
        ("oracle", "write_binary", "oracle.write",
         lambda _, table, path: os.path.getsize(path)),
        ("oracle", "read_binary", "oracle.read", lambda _, path: os.path.getsize(path)),
        ("oracle", "residual_table", "oracle.residual_table", lambda rows, *a, **k: len(rows)),
        ("series", "series_over_range", "series.range",
         lambda _, k, s, j, ns, Q: Q * len(ns)),
        ("series", "modified_series_truncated", "series.scalar",
         lambda value, spec: value.term_count),
        ("series", "power_moment_sum", "series.moment", None),
        ("series", "factorial_multiple_discrepancy", "series.discrepancy", None),
        ("series", "nonvanishing_census", "series.census", None),
        ("expsums", "batch_values", "expsums.batch_values", q_k),
        ("expsums", "batch_weighted_values", "expsums.batch_weighted_values", q_k),
        ("expsums", "coprime_residues", "expsums.coprime_residues", None),
        ("expansion", "coefficients_even", "expansion", None),
        ("expansion", "coefficients_odd", "expansion", None),
        ("eulermac", "progression_power_sum", "eulermac.direct", _direct_terms),
        ("eulermac", "progression_power_sum_asymptotic", "eulermac.asymptotic", None),
    )


def install(tracer: Tracer) -> None:
    """Replace each target in every waringsums module that holds it."""
    import waringsums.cli  # noqa: F401  (loads every module)

    modules = [m for name, m in sys.modules.items()
               if name == "waringsums" or name.startswith("waringsums.")]
    for module_name, fn_name, span, attrs in _targets():
        original = getattr(sys.modules[f"waringsums.{module_name}"], fn_name)
        wrapped = tracer.wrap(span, original, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def _run(args) -> int:
    """Run interpreter arguments ``-m waringsums.cli ...`` or ``-c CODE``."""
    if args[:2] == ["-m", "waringsums.cli"]:
        import waringsums.cli

        return waringsums.cli.run(args[2:])
    if args[0] == "-c" and len(args) == 2:
        exec(compile(args[1], "<command>", "exec"), {"__name__": "__main__"})
        return 0
    raise SystemExit(f"tracer: unsupported command {args!r}")


def main(argv) -> int:
    traced = argv[0] != "--off"
    if not traced:
        argv = argv[1:]
    spans_path, output_path, sep, *args = argv
    if sep != "--" or not args:
        raise SystemExit(__doc__)
    import waringsums.cli  # noqa: F401  (import cost stays out of the timing)

    tracer = Tracer()
    if traced:
        install(tracer)
    with open(output_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter_ns()
        code = _run(args)
        wall_ns = time.perf_counter_ns() - start
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_ns": wall_ns, "spans": tracer.spans}, fh)
    return code


# ----------------------------- summary ------------------------------------

def summarize(records, untraced_ns: int, cli_bytes: int) -> dict:
    """Per-layer metrics from the span records of one workload's commands.

    ``records`` holds one ``{"wall_ns", "spans"}`` dict per traced command.
    Busy time is self time: a span's duration minus its children's.
    """
    busy, calls, totals = {}, {}, {}
    first_ns, repeat_ns = [], []
    max_q = 0
    traced_ns = 0

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for record in records:
        traced_ns += record["wall_ns"]
        spans = record["spans"]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        seen = set()
        for (name, _, _, parent, attrs), self_ns in zip(spans, own):
            busy[name] = busy.get(name, 0) + self_ns
            calls[name] = calls.get(name, 0) + 1
            if name == "oracle.count":
                add("entries", attrs["entries"])
                add("slot_ops", attrs["slot_ops"])
                totals["width_bits"] = max(totals.get("width_bits", 0), attrs["width_bits"])
            elif name in ("oracle.write", "oracle.read"):
                add(name + ".bytes", attrs)
            elif name == "oracle.residual_table":
                add("residual_rows", attrs)
            elif name == "series.range":
                add("cells", attrs)
            elif name == "series.scalar":
                add("terms", attrs)
            elif name.startswith("expsums.batch"):
                max_q = max(max_q, attrs[0])
                if name == "expsums.batch_values":
                    key = tuple(attrs)
                    (repeat_ns if key in seen else first_ns).append(self_ns)
                    seen.add(key)
                    if parent >= 0 and spans[parent][0] == "series.moment":
                        add("moment_rows", 1)
            elif name == "eulermac.direct":
                add("lattice_terms", attrs)

    def s(name):
        return busy.get(name, 0) / 1e9

    total = sum(busy.values())
    bv_calls = calls.get("expsums.batch_values", 0)
    metrics = {
        "oracle.count.busy_s": s("oracle.count"),
        "oracle.count.calls": calls.get("oracle.count", 0),
        "oracle.count.entries": totals.get("entries", 0),
        "oracle.count.slot_ops": totals.get("slot_ops", 0),
        "oracle.count.width_bits": totals.get("width_bits", 0),
        "oracle.write.busy_s": s("oracle.write"),
        "oracle.write.bytes": totals.get("oracle.write.bytes", 0),
        "oracle.read.busy_s": s("oracle.read"),
        "oracle.read.bytes": totals.get("oracle.read.bytes", 0),
        "oracle.residual_table.busy_s": s("oracle.residual_table"),
        "oracle.residual_table.rows": totals.get("residual_rows", 0),
        "series.range.busy_s": s("series.range"),
        "series.range.calls": calls.get("series.range", 0),
        "series.range.cells": totals.get("cells", 0),
        "series.scalar.busy_s": s("series.scalar"),
        "series.scalar.calls": calls.get("series.scalar", 0),
        "series.scalar.terms": totals.get("terms", 0),
        "series.moment.busy_s": s("series.moment"),
        "series.moment.rows": totals.get("moment_rows", 0),
        "expsums.batch_values.calls": bv_calls,
        "expsums.batch_values.busy_s": s("expsums.batch_values"),
        "expsums.batch_values.repeat_ratio": len(repeat_ns) / bv_calls if bv_calls else 0.0,
        "expsums.batch_values.repeat_us": _mean_us(repeat_ns),
        "expsums.batch_values.first_us": _mean_us(first_ns),
        "expsums.batch_weighted_values.calls": calls.get("expsums.batch_weighted_values", 0),
        "expsums.batch_weighted_values.busy_s": s("expsums.batch_weighted_values"),
        "expsums.coprime_residues.calls": calls.get("expsums.coprime_residues", 0),
        "expsums.coprime_residues.busy_s": s("expsums.coprime_residues"),
        "expsums.max_q": max_q,
        "expansion.busy_s": s("expansion"),
        "eulermac.direct.busy_s": s("eulermac.direct"),
        "eulermac.direct.terms": totals.get("lattice_terms", 0),
        "eulermac.asymptotic.busy_s": s("eulermac.asymptotic"),
        "cli.self_s": s("cli.run"),
        "cli.bytes_out": cli_bytes,
        "trace.busy_s": total / 1e9,
        "trace.overhead_ratio": traced_ns / untraced_ns - 1.0 if untraced_ns else 0.0,
    }
    for layer in LAYERS:
        layer_ns = sum(v for k, v in busy.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.share"] = layer_ns / total if total else 0.0
    return metrics


def _mean_us(values_ns) -> float:
    return sum(values_ns) / len(values_ns) / 1e3 if values_ns else 0.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
