"""Tests of the benchmark itself: corrupted outputs must be rejected.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from waringsums import cli  # noqa: E402


def output(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run([str(a) for a in argv]) == 0
    return buf.getvalue()


def corrupt(text: str, n: int, edit) -> str:
    """The output with ``edit`` applied to the cells of the row for n."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.rstrip("\n").split(",")
        if cells[0] == str(n):
            edit(cells)
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError(f"no row {n}")


def bump_count(cells):
    cells[1] = str(int(cells[1]) + 1)


def scale_pred0(factor):
    """Move pred0 by ``factor`` and E0 with it, so the row stays self-consistent."""
    def edit(cells):
        pred, err = float(cells[2]), float(cells[4])
        moved = pred * factor
        cells[2], cells[4] = repr(moved), repr(err - (moved - pred))
    return edit


def move_e1(cells):
    scale = max(abs(float(cells[3])), int(cells[1]))
    cells[5] = repr(float(cells[5]) + 20 * checks.RTOL * scale)


def test_count_off_by_one_is_rejected():
    params = dict(k=2, s=4, n_max=300, signed=True)
    text = output("oracle", "--k", 2, "--s", 4, "--n-max", 300, "--signed")
    checks.counts(text, checks.Checker(), **params)
    bad = corrupt(text, 130, bump_count)
    with pytest.raises(checks.CheckError, match="count at n=130"):
        checks.counts(bad, checks.Checker(), **params)


RESIDUALS = dict(k=3, s=13, J=1, n_min=100, n_max=2000, Q=40, samples=frozenset({777}))


def residuals_output() -> str:
    p = RESIDUALS
    return output("residuals", "--k", p["k"], "--s", p["s"], "--J", p["J"],
                  "--n-min", p["n_min"], "--n-max", p["n_max"], "--Q", p["Q"])


@pytest.mark.parametrize("n, edit, message", [
    (1500, bump_count, "exact at n=1500"),
    (777, scale_pred0(1 + 20 * checks.RTOL), "pred0 at n=777"),
    (1500, move_e1, "E1 at n=1500"),
])
def test_residual_corruption_is_rejected(n, edit, message):
    text = residuals_output()
    checks.residuals(text, checks.Checker(), **RESIDUALS)
    with pytest.raises(checks.CheckError, match=message):
        checks.residuals(corrupt(text, n, edit), checks.Checker(), **RESIDUALS)


def test_float_inside_tolerance_is_accepted():
    nudged = corrupt(residuals_output(), 777, scale_pred0(1 + checks.RTOL / 20))
    checks.residuals(nudged, checks.Checker(), **RESIDUALS)


def test_self_time_excludes_children():
    # root [0, 100) holds children [10, 40) and [50, 60); the first holds [20, 25).
    spans = [
        ["cli.run", 0, 100, -1, None],
        ["series.range", 10, 40, 0, 30],
        ["expsums.batch_values", 20, 25, 1, [7, 3]],
        ["expsums.batch_values", 50, 60, 0, [7, 3]],
    ]
    m = tracer.summarize([{"wall_ns": 100, "spans": spans}], 80, 0)
    assert m["cli.self_s"] == 60e-9
    assert m["series.range.busy_s"] == 25e-9
    assert m["expsums.batch_values.busy_s"] == 15e-9
    assert m["expsums.batch_values.repeat_ratio"] == 0.5
    assert m["trace.busy_s"] == 100e-9
    assert m["trace.overhead_ratio"] == pytest.approx(0.25)
    assert set(m) == {name for name, _ in tracer.PER_LAYER}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)


def test_warm_output_must_equal_cold_output():
    ctx = checks.Checker()
    ctx.outputs["cold"] = "n,count\n0,1\n"
    checks.same_as("n,count\n0,1\n", ctx, of="cold")
    with pytest.raises(checks.CheckError, match="differs"):
        checks.same_as("n,count\n0,2\n", ctx, of="cold")


HEADER = "# waringsums 0.1.0\n# k=2\nn,count\n"


@pytest.mark.parametrize("text", ["", HEADER + "0,x\n", HEADER + "0\n"])
def test_unparsable_output_fails_the_check(text):
    check = workloads.cli("t", ["oracle"], checks.counts, k=2, s=4, n_max=0, signed=True).check
    assert checks.verify(check, text, checks.Checker()) is not None
