import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from waringsums import budget, cli, eulermac, expansion, expsums, oracle, series
from waringsums.series import TruncationSpec


def run_to_file(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = cli.run(args + ["-o", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestParsing:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli.run(["expsum", "--k", "3", "--q", "5", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        assert cli.run(["transmogrify"]) == 2

    def test_missing_required_exits_2(self):
        assert cli.run(["expsum", "--k", "3"]) == 2

    def test_validation_error_exits_2(self, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, ["thm14", "--k", "2", "--s", "8",
                                         "--Q", "2..3", "--trunc", "50"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,bad", [
        (["expsum", "--k", "3", "--q", "5", "-o", "{dir}"], "{dir}"),
        (["oracle", "--k", "2", "--s", "2", "--n-max", "20", "--binary-out", "{dir}"], "{dir}"),
        (["expsum", "--k", "3", "--q", "5", "--config", "{dir}"], "{dir}"),
        (["expsum", "--k", "3", "--q", "5", "-o", "{file}/x"], "{file}/x"),
        (["oracle", "--k", "2", "--s", "2", "--n-max", "20", "--cache-dir", "{file}"], "{file}"),
        (["oracle", "--k", "2", "--s", "2", "--n-max", "20", "--signed", "--cache-dir",
          "{file}"], "{file}"),
    ], ids=["-o dir", "--binary-out dir", "--config dir", "-o file/x", "--cache-dir file",
            "--signed --cache-dir file"])
    def test_path_naming_the_wrong_kind_of_entry_exits_2(self, tmp_path, capsys, argv, bad):
        paths = {"dir": tmp_path / "d", "file": tmp_path / "f"}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        assert cli.run([a.format(**paths) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and bad.format(**paths) in err

    @pytest.mark.parametrize("argv, bad", [
        ("series --k 3 --s 9 --j 1 --n-min 1 --n-max 20000 --Q 1500 -o {dir}", "{dir}"),
        ("expansion --k 3 --s 13 --J 2 --n 77777 --Q 300 -o {file}/x", "{file}/x"),
        ("oracle --k 2 --s 9 --n-max 200000 --binary-out {dir}", "{dir}"),
        ("oracle --k 2 --s 9 --n-max 200000 --binary-out {file}/x", "{file}/x"),
        ("oracle --k 2 --s 9 --n-max 200000 --cache-dir {file}", "{file}"),
        ("oracle --k 2 --s 9 --n-max 200000 --signed --cache-dir {file}", "{file}"),
        ("residuals --k 3 --s 13 --J 2 --n-max 3000 --Q 60 --cache-dir {file}", "{file}"),
        ("residuals --k 3 --s 13 --J 2 --n-max 3000 --Q 60 -o {dir}", "{dir}"),
    ])
    def test_path_flags_are_checked_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                    argv, bad):
        def work(*args):
            raise AssertionError("counting or walking began")

        monkeypatch.setattr(oracle, "_build_table", work)
        monkeypatch.setattr(series, "_walk", work)
        paths = {"dir": tmp_path / "d", "file": tmp_path / "f"}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        assert cli.run(argv.format(**paths).split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and bad.format(**paths) in err

    def test_int_list_forms(self):
        assert cli._parse_int_list("--Q", "2..5") == [2, 3, 4, 5]
        assert cli._parse_int_list("--Q", "10,20,30") == [10, 20, 30]
        with pytest.raises(ValueError):
            cli._parse_int_list("--Q", "5..2")

    def test_int_list_up_to_its_ceiling(self, monkeypatch):
        # at a second a value, the budget holds SECONDS values
        monkeypatch.setitem(budget.RATES, "list values", (10**12, 0))
        top = budget.SECONDS
        assert len(cli._parse_int_list("--X", f"{-top}..-1")) == top
        with pytest.raises(ValueError, match=f"for --X 1..{top + 1} lists {top + 1} values$"):
            cli._parse_int_list("--X", f"1..{top + 1}")
        with pytest.raises(ValueError, match="--Q"):
            cli._parse_int_list("--Q", ",".join(["7"] * (top + 1)))
        # a range past sys.maxsize is measured, never listed or passed to len()
        with pytest.raises(ValueError, match=f"for --Q 1..{2**64} lists {2**64} values$"):
            cli._parse_int_list("--Q", f"1..{2**64}")


class TestExpsumCommand:
    def test_single_row(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["expsum", "--k", "2", "--q", "4", "--a", "1"]
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0].startswith("# waringsums ")
        assert lines[2] == "q,a,S_re,S_im,T_re,T_im"
        fields = lines[3].split(",")
        assert fields[:2] == ["4", "1"]
        assert float(fields[2]) == pytest.approx(2.0)
        assert float(fields[3]) == pytest.approx(2.0)

    def test_batch_rows(self, tmp_path):
        code, text = run_to_file(tmp_path, ["expsum", "--k", "3", "--q", "7"])
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 7
        assert rows[0].split(",")[1] == "0"

    def test_determinism_across_runs(self, tmp_path):
        code_a, first = run_to_file(tmp_path, ["expsum", "--k", "3", "--q", "31"], "a.csv")
        code_b, second = run_to_file(tmp_path, ["expsum", "--k", "3", "--q", "31"], "b.csv")
        assert code_a == code_b == 0
        assert first and first == second


    def test_huge_k_is_raised_by_squaring(self, capsys):
        # 10^11 = 4 mod 6, so r^k = r^4 mod 7 for every r
        start = time.process_time()
        assert cli.run("expsum --k 100000000000 --q 7".split()) == 0
        assert time.process_time() - start < 2.0
        huge = capsys.readouterr().out.splitlines()
        assert cli.run("expsum --k 4 --q 7".split()) == 0
        assert huge[3:] == capsys.readouterr().out.splitlines()[3:] and len(huge) == 10

    def test_oversized_batch_is_refused_before_allocating(self, monkeypatch, capsys):
        arange = np.arange

        def small_arange(*args, **kw):
            if any(abs(a) > 10**6 for a in args if isinstance(a, int)):
                raise MemoryError("np.arange asked for a large array")
            return arange(*args, **kw)

        monkeypatch.setattr(np, "arange", small_arange)
        assert cli.run(["expsum", "--k", "3", "--q", "4000000000"]) == 2
        assert "error" in capsys.readouterr().err


class TestSeriesCommand:
    def test_single_point(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["series", "--k", "3", "--s", "9", "--j", "1", "--n", "6", "--Q", "30"],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "n,value_re,value_im,term_count,tail_estimate"
        got = float(rows[1].split(",")[1])
        want = series.modified_series_truncated(
            TruncationSpec(3, 9, 6, j=1, Q=30)
        ).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_default_truncation_recorded(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["series", "--k", "2", "--s", "5", "--n", "25"]
        )
        assert code == 0
        assert "Q=5" in text.splitlines()[1]

    def test_range_mode(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["series", "--k", "2", "--s", "9", "--n-min", "10", "--n-max", "14",
             "--Q", "20"],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 5


class TestWalkValidation:
    @pytest.mark.parametrize("argv", [
        "series --k 3 --s 9 --n-min 1 --n-max 3 --Q 0",
        "series --k 3 --s 9 --n-min 1 --n-max 3 --Q 3037000501",
        "series --k 3 --s 9 --j 12 --n-min 1 --n-max 3 --Q 10",
        "series --k 3 --s 9 --j -1 --n-min 1 --n-max 3 --Q 10",
        "series --k 1 --s 9 --n-min 1 --n-max 3 --Q 10",
        "series --k 3 --s 0 --n-min 1 --n-max 3 --Q 10",
        "thm15 --k 3 --s 13 --j 1 --x 10 --Q 0",
        "thm15 --k 3 --s 13 --j 1 --x 10 --Q 0 --C 0.4",
        "thm15 --k 3 --s 13 --j 1 --x 10 --Q 10,0",
        "thm15 --k 3 --s 13 --j 1 --x 10 --Q ,",
        "thm14 --k 3 --s 8 --Q , --trunc 40",
        "em-verify --k 2 --theta 1.5 --q 11 --r 3 --X ,",
        "series --k 3 --s 9 --n-min 10 --n-max 5 --Q 10",
        # the default Q = floor(n^(1/3)) has 134 digits
        pytest.param(f"series --k 3 --s 9 --n {10**400}", id="series --n 10**400"),
        # 1559! has 4301 digits, more than the default int-to-str limit
        "thm14 --k 3 --s 8 --Q 1559 --trunc 10",
        # too large for lgamma and for factorial
        pytest.param(f"thm14 --k 3 --s 8 --Q {10**400} --trunc 10", id="thm14 --Q 10**400"),
        "thm15 --k 3 --s 13 --j 1 --x 10 --Q 5 --C nan",
        "thm15 --k 3 --s 13 --j 1 --x 10 --Q 5 --C inf",
        # C(2^62, j) passes the largest float at j = 18
        f"expansion --k 2 --s {2**62} --J 20 --n 5 --Q 10",
        f"expansion --k 2 --s {2**62} --J 40 --n 5 --Q 10",
    ])
    def test_rejected_before_the_walk(self, capsys, argv):
        assert cli.run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error" in err

    @pytest.mark.parametrize("lo, hi", [
        (9223372036854775800, 9223372036854775810),
        (9223372036854775808, 9223372036854775810),
        (-9223372036854775812, -9223372036854775800),
    ])
    def test_range_past_int64_agrees_with_point_mode(self, capsys, lo, hi):
        assert cli.run(f"series --k 3 --s 9 --n-min {lo} --n-max {hi} --Q 5".split()) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[3:]]
        assert [int(row[0]) for row in rows] == list(range(lo, hi + 1))
        for i in (0, len(rows) // 2, len(rows) - 1):
            assert cli.run(f"series --k 3 --s 9 --n {rows[i][0]} --Q 5".split()) == 0
            point = capsys.readouterr().out.splitlines()[3].split(",")
            assert point[0] == rows[i][0]
            assert float(rows[i][1]) == pytest.approx(float(point[1]), abs=1e-13)

    @pytest.mark.parametrize("argv, named", [
        ("expansion --k 0 --s 13 --J 2 --n 5 --Q 10", "error: k must be >= 2, got 0"),
        ("em-verify --k 2 --theta 1e308 --q 11 --r 1 --X 100", "error: --theta 1e+308 "),
        pytest.param(f"series --k 3 --s {10**400} --n 5 --Q 10",
                     "error: s must be below 2^63", id="series --s 10**400"),
        pytest.param(f"expansion --k 3 --s {2**63} --J 2 --n 5 --Q 10",
                     "error: s must be below 2^63", id="expansion --s 2**63"),
        pytest.param(f"expansion --k {10**400 + 1} --s 13 --J 2 --n 5 --Q 10",
                     "error: k must be below 2^63", id="expansion --k 10**400+1"),
        pytest.param(f"thm15 --k {2**63 + 1} --s 13 --j 1 --x 10 --Q 5",
                     "error: k must be below 2^63", id="thm15 --k 2**63+1"),
        # the refusal of a small s formats no float of a huge k
        pytest.param(f"thm15 --k {2**63 - 1} --s 13 --j 1 --x 10 --Q 5",
                     "error: requires 2s >= ", id="thm15 --k 2**63-1"),
        pytest.param(f"thm14 --k {10**400 + 1} --s 8 --Q 3 --trunc 10",
                     "error: requires 2s >= ", id="thm14 --k 10**400+1"),
        # past the work budget: range tables, list flags, walks to a large Q,
        # and main terms whose gamma ratio is nan
        ("series --k 3 --s 9 --n-min 0 --n-max 10000000000 --Q 5",
         "range values (1e+04 s, 8e+10 bytes) for 10000000001 values of n at 1 order(s) and "
         "1 truncation(s)"),
        ("thm15 --k 3 --s 13 --j 1 --x 10000000000 --Q 5",
         "for 10000000000 values of n at 1 order(s) and 1 truncation(s)"),
        ("thm15 --k 3 --s 13 --j 1 --x 9223372036854775807 --Q 5",
         "for 9223372036854775807 values of n at 1 order(s)"),
        ("series --k 3 --s 9 --n-min -9223372036854775809 --n-max 0 --Q 5",
         "for 9223372036854775810 values of n at 1 order(s)"),
        ("em-verify --k 2 --theta 1.5 --q 11 --r 1 --X 1..1000000000",
         "list values (5e+04 s, 6.4e+10 bytes) for --X 1..1000000000 lists 1000000000 values"),
        ("thm14 --k 3 --s 8 --Q 1..100000000 --trunc 10",
         "for --Q 1..100000000 lists 100000000 values"),
        ("thm15 --k 3 --s 13 --j 1 --x 100 --Q 1..1000000000",
         "for --Q 1..1000000000 lists 1000000000 values"),
        ("series --k 3 --s 9 --n 1 --Q 3037000500",
         "walk residues (2.08e+11 s, 0 bytes) for 1 order(s) to Q=3037000500"),
        ("em-verify --k 2 --theta 1e308 --q 2 --r 0 --N 100 --X 1",
         "error: theta 1e+308 is too large: the gamma ratio"),
        ("thm14 --k 3 --s 8 --Q 1..1500 --trunc 32768",
         "scalar terms (3.22e+04 s, 0 bytes) for 3000 series to Q=32768"),
        ("series --k 3 --s 9 --j 0 --n-min 0 --n-max 67108863 --Q 32768",
         "range additions (1.1e+03 s, 0 bytes) for 67108864 values of n at 1 order(s) to "
         "Q=32768"),
        # main terms whose gamma ratio keeps less than 1e-9 relative accuracy
        ("em-verify --k 2 --theta 1e14 --q 2 --r 0 --X 1",
         "error: theta 100000000000000.0 is too large: the gamma ratio"),
        ("em-verify --k 2 --theta 1e16 --q 2 --r 0 --X 1",
         "error: theta 1e+16 is too large: the gamma ratio"),
        # under every ceiling the budget replaced: batch or point sums of about
        # 2e11 bytes, 1e9 lattice points at Python's pow, 2.5e11 count additions,
        # a walk of 1001 orders to Q = 32768 and 2^17 exact sums
        ("expsum --k 3 --q 3000000000", "expsum residues (8.4e+03 s, 2.16e+11 bytes) for "
                                        "--q 3000000000"),
        ("expsum --k 3 --q 3000000000 --a 1", "for --q 3000000000"),
        ("em-verify --k 2 --theta 0.5 --q 1 --r 0 --X 500000000",
         "for --X 500000000 at --q 1: 1000000001 lattice points"),
        ("oracle --k 2 --s 9 --n-max 10000000", "count additions (126 s, 0 bytes) for k=2, "
                                                "s=9, N=10000000"),
        ("residuals --k 2 --s 1001 --J 1000 --n-max 10 --Q 32768",
         "walk residues (2.42e+04 s, 0 bytes) for 1001 order(s) to Q=32768"),
        pytest.param("thm14 --k 3 --s 8 --trunc 40 --Q " + ",".join(["7"] * 2**16),
                     "scalar series (0 s, 5.1e+09 bytes) for 131072 series to Q=40",
                     id="thm14 --Q 7 listed 2**16 times"),
        # counts or predictions past the largest float: n_max^(s/k-1) = 10^316,
        # and counts of more than 1024 bits
        ("residuals --k 2 --s 160 --J 0 --n-min 9990 --n-max 10000 --Q 10",
         "error: n_max=10000 at k=2, s=160 gives counts or predictions n^(s/k-1) that pass "
         "the largest float"),
        ("residuals --k 2 --s 300 --J 0 --n-min 9990 --n-max 10000 --Q 10",
         "error: n_max=10000 at k=2, s=300 gives counts"),
    ])
    def test_refused_before_any_work_naming_its_flag(self, monkeypatch, capsys, argv, named):
        def work(*args, **kwargs):
            raise AssertionError("the work began")

        monkeypatch.setattr(series, "_walk", work)
        monkeypatch.setattr(oracle, "_build_table", work)
        monkeypatch.setattr(eulermac, "progression_power_sum", work)
        monkeypatch.setattr(eulermac, "lattice_power_sum", work)
        monkeypatch.setattr(np, "zeros", work)  # the range walk's table
        monkeypatch.setattr(expsums, "power_residues", work)
        assert cli.run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("flags", [
        "--k 3 --s 13 --J -1",
        "--k 3 --s 4 --J 4",
        "--k 3 --s 13 --J 4",
        "--k 2 --s 4 --J 2",
        "--k 3 --s 13 --J 2 --n-min 0",
        "--k 3 --s 13 --J 2 --n-min 60",
        "--k 3 --s 13 --J 2 --Q 0",
        "--k 3 --s 13 --J 2 --Q 3037000501",
        f"--k 2 --s {2**62} --J 40 --n-max 10",
    ])
    def test_residuals_refused_before_counting(self, tmp_path, monkeypatch, capsys, flags):
        def work(*args):
            raise AssertionError("the count table was built or read")

        monkeypatch.setattr(oracle, "count_representations", work)
        monkeypatch.setattr(oracle, "read_binary", work)
        argv = f"residuals --n-max 50 --Q 10 {flags} --cache-dir {tmp_path}".split()
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error" in err

    def test_int64_range_up_to_its_last_stop(self, capsys):
        top, bottom = 2**63 - 2, -(2**63)
        for lo, hi in ((top - 2, top), (bottom, bottom + 2)):
            assert cli.run(f"series --k 3 --s 9 --n-min {lo} --n-max {hi} --Q 5".split()) == 0
            rows = capsys.readouterr().out.splitlines()[3:]
            assert [int(row.split(",")[0]) for row in rows] == list(range(lo, hi + 1))

    def test_thm14_n_up_to_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            argv = "thm14 --k 3 --s 8 --Q 1557,1558 --m 1 --trunc 10".split()
            assert cli.run(argv) == 0
            rows = capsys.readouterr().out.splitlines()[3:]
            assert [len(row.split(",")[1]) for row in rows] == [4297, 4300]
            assert cli.run(argv[:-4] + ["--m", "7", "--trunc", "10"]) == 2
            assert "Q=1558, m=7" in capsys.readouterr().err
        finally:
            sys.set_int_max_str_digits(limit)

    def test_thm14_names_Q_and_m_when_refusing_a_negative_Q(self, capsys):
        assert cli.run("thm14 --k 3 --s 8 --Q -1 --trunc 10".split()) == 2
        assert "Q and m must be positive" in capsys.readouterr().err

    def test_thm14_refuses_a_huge_Q_before_building_its_factorial(self, monkeypatch,
                                                                   capsys):
        factorial = math.factorial

        def bounded(x):
            if x > 10**4:
                raise AssertionError(f"factorial({x}) was built")
            return factorial(x)

        monkeypatch.setattr(math, "factorial", bounded)
        assert cli.run("thm14 --k 3 --s 8 --Q 5,300000 --trunc 10".split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Q=300000" in err

    def test_thm14_refuses_a_Q_above_maxsize_with_no_digit_limit(self, monkeypatch,
                                                                   capsys):
        # as on interpreters without sys.get_int_max_str_digits
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert cli.run(f"thm14 --k 3 --s 8 --Q {10**400} --trunc 10".split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Q=" in err

    def test_config_C_must_be_finite(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("C = nan\n")
        argv = "thm15 --k 3 --s 13 --j 1 --x 10 --Q 5 --config".split() + [str(cfg)]
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "C must be finite" in err


# Every action of every sub-parser of cli.build_parser(), set in turn on
# each base command of its sub-command to each value of its kind: each case
# finishes or is refused (exit 2) before the walk, the count or the direct
# lattice sum, never exit 1, such as an OverflowError from a 401-digit
# order, or a MemoryError from forming r**(k-1) or per_slot**s or from
# allocating a count table past the budget.  em-verify runs at q = 1, where
# a large --X holds more lattice points than the budget allows.
BOUNDARY_BASES = [
    "series --k 3 --s 9 --j 1 --n 1000 --Q 50",
    "series --k 3 --s 9 --j 1 --n-min 10 --n-max 20 --Q 50",
    "expansion --k 3 --s 13 --J 2 --n 1000 --Q 50",
    "thm14 --k 3 --s 8 --Q 3 --trunc 50 --m 2",
    "thm15 --k 3 --s 13 --j 1 --x 50 --Q 20",
    "oracle --k 3 --s 3 --n-max 10",
    "residuals --k 3 --s 13 --J 1 --n-min 10 --n-max 40 --Q 20",
    "em-verify --k 3 --theta 1.5 --q 1 --r 0 --N 2 --X 100",
    "expsum --k 3 --q 7 --a 2",
    "expsum --k 3 --q 7",
    "selftest --seed 1",
]
BOUNDARY_INTS = [0, -1, 2**63 - 1, 2**63, 10**400]
# For the list flags an empty, a reversed and a wide list, and lists that
# hold boundary values; for the paths a new one, a directory, a file, and a
# file used as a directory, each under the test's own directory.
BOUNDARY_LISTS = [",", "5..1", f"1..{2**63}", f"1..{10**400}", "0,1", "3,-1",
                  f"3,{2**63 - 1}", f"3,{10**400}", "2..4", "4,2,4"]
BOUNDARY_PATHS = ["{tmp}/new", "{tmp}", "{tmp}/file", "{tmp}/file/x"]
BOUNDARY_STRINGS = {"X": BOUNDARY_LISTS, "Q": BOUNDARY_LISTS, "output": BOUNDARY_PATHS,
                    "config": BOUNDARY_PATHS, "binary_out": BOUNDARY_PATHS,
                    "cache_dir": BOUNDARY_PATHS}


def _boundary_values(action: argparse.Action) -> Optional[list]:
    """The values an action is set to, by its kind; None for a kind not
    known here, which test_every_parser_action_has_a_boundary_case refuses."""
    if action.nargs == 0:
        return [None]  # an on/off flag: given alone
    if action.choices:
        return list(action.choices)
    if action.type in (int, float):
        return BOUNDARY_INTS + (["nan", "inf"] if action.type is float else [])
    return BOUNDARY_STRINGS.get(action.dest) if action.type is None else None


def _sub_parsers() -> dict:
    (subs,) = (a for a in cli.build_parser()._actions if a.dest == "subcommand")
    return {name: [a for a in sub._actions if a.dest != "help"]
            for name, sub in subs.choices.items()}


def _set_flag(argv: str, flag: str, value) -> list:
    words = argv.split()
    if flag not in words:
        return words + [flag] + ([] if value is None else [str(value)])
    i = words.index(flag)
    return words if value is None else words[: i + 1] + [str(value)] + words[i + 2 :]


BOUNDARY_CASES = [
    pytest.param(_set_flag(base, action.option_strings[-1], value),
                 id=f"{base} {action.option_strings[-1]} {str(value)[:30]}")
    for base in BOUNDARY_BASES
    for action in _sub_parsers()[base.split()[0]]
    for value in _boundary_values(action) or []
]


def test_every_parser_action_has_a_boundary_case():
    commands = {base.split()[0] for base in BOUNDARY_BASES}
    assert [(name, action.dest) for name, actions in _sub_parsers().items()
            for action in actions
            if name not in commands or not _boundary_values(action)] == []


@pytest.mark.parametrize("argv", BOUNDARY_CASES)
def test_boundary_value_finishes_or_is_refused_before_the_walk(monkeypatch, capsys, tmp_path,
                                                              argv):
    walks = []
    for module, name in ((series, "_walk"), (oracle, "_build_table"),
                         (eulermac, "lattice_power_sum")):
        def counted(*args, _work=getattr(module, name)):
            walks.append(args)
            return _work(*args)

        monkeypatch.setattr(module, name, counted)
    # the flags are under test here, not the checks: selftest runs only its first
    checks = cli._selftest_checks
    monkeypatch.setattr(cli, "_selftest_checks", lambda seed: checks(seed)[:1])
    (tmp_path / "file").write_text("")
    code = cli.run([word.replace("{tmp}", str(tmp_path)) for word in argv])
    out, err = capsys.readouterr()
    assert code in (0, 2), err
    if code == 2:
        assert not walks and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "series --k 3 --s 9 --j 1 --n 1000 --Q 50",
    "series --k 3 --s 9 --j 1 --n-min 10 --n-max 20 --Q 50",
    "expansion --k 3 --s 13 --J 2 --n 1000 --Q 50",
    "residuals --k 3 --s 13 --J 2 --n-max 200 --Q 30",
    "thm14 --k 3 --s 8 --Q 2..5 --trunc 50",
    "thm15 --k 3 --s 13 --j 1 --x 50 --Q 20,40",
    "thm15 --k 3 --s 13 --j 1 --x 50 --Q 20,40 --C 0.4",
])
def test_each_command_walks_the_moduli_once(monkeypatch, capsys, argv):
    walks, walk = [], series._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(series, "_walk", counted)
    assert cli.run(argv.split()) == 0
    assert len(walks) == 1


class TestExpansionCommand:
    def test_columns_and_values(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["expansion", "--k", "2", "--s", "9", "--J", "1", "--n", "500",
             "--Q", "40"],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "j,binomial,gamma_factor,series_value,c_j"
        coeffs = expansion.coefficients_even(9, 1, 500, 2, 40)
        got_c1 = float(rows[2].split(",")[4])
        assert got_c1 == pytest.approx(coeffs.coefficients[1], rel=1e-12)
        assert rows[2].split(",")[1] == "9"


# sha256 of the standard output of waringsums 0.1.0 for the three oracle
# commands; the others were recorded as later changes added or moved them,
# and any digest change must be explained in CHANGES.md.  Every series
# command prints value_im as exactly 0: the series is real.
GOLDEN = [
    ("oracle --k 2 --s 9 --n-max 3000".split(),
     "db045f2b5bc7eba967a8ab540bbb56703f916dec14fa437a9bf61ab79046bc7e"),
    ("oracle --k 2 --s 4 --n-max 3000 --signed".split(),
     "1e7a4e85564e08296f0b97ca39b1d4a6d732c2383f611bd693cd980f589c12f6"),
    ("oracle --k 3 --s 13 --n-max 3000".split(),
     "6573e1eb15e85c1aa5390215d580c6a8fa0928b1d476ebc31d9217633b310d28"),
    ("expsum --k 3 --q 31".split(),
     "b35f306fb8cb28128d5f57c0314e3589c58711edca25bf75e184bb23e4a79c1b"),
    ("expsum --k 3 --q 31 --json".split(),
     "8e03932eb0a3a11aad2d7eb9b663c24267803a22ecb171a6ed8ca51083630ba1"),
    ("expsum --k 2 --q 4 --a 1".split(),
     "9a037eab4e2e335abe366bf3fe1f80e9c08306438011df5440b6ac1b937892f4"),
    # the q = 300 row vanishes (3 || 300, and r -> r^3 permutes the residues
    # mod 3, so S(3, .) is 0 on the units): tail_estimate is 0
    ("series --k 3 --s 9 --j 1 --n 123457 --Q 300".split(),
     "d4dc72f7a7aafbdd68e0005a143df144f307e272f384a8b0e2990f73d378fee6"),
    ("series --k 2 --s 5 --n 25 --Q 50".split(),
     "2522548e7b535afab01346793ec3053811f592c3ec8d2ec36cfe69d6de959a4c"),
    ("series --k 3 --s 9 --j 0 --n-min 1000 --n-max 1400 --Q 300".split(),
     "1314f6ead5d6dbd523ea160ff994bd94c21a60d9857e58df202cdad2534af2f4"),
    ("series --k 3 --s 13 --j 2 --n-min 500 --n-max 700 --Q 200".split(),
     "c2cbbcc648600420f4f39b37c0a7db710d4e167ffd425a9a54865a2ba8096ff5"),
    ("expansion --k 2 --s 5 --J 1 --n 40000 --Q 300".split(),
     "79134748a0466e4b60ebb63763426734310f0078ba0df6de740ec443936f0779"),
    ("expansion --k 3 --s 13 --J 2 --n 77777 --Q 300".split(),
     "a6709b0e74c0ed3a67e6476f2453b98ec6f853df1545ded9774e985336a1625e"),
    ("expansion --k 4 --s 17 --J 2 --n 9999 --Q 100".split(),
     "1788e6ee1ffcf377f0cff0dbb3a50ece7fc4323a06c6276f62527547f20b08e2"),
    ("residuals --k 3 --s 13 --J 2 --n-min 1000 --n-max 3000 --Q 100".split(),
     "fa5bf65a3ac27c7c79b01352f3a6fab1fc4d95ee2b759824f04508dc0f404456"),
    ("residuals --k 2 --s 4 --J 1 --n-min 100 --n-max 2000 --Q 60".split(),
     "76ff375e74764314ce517ac754c30d6dae3144c8737e73c5e6333206e9287f12"),
    ("thm14 --k 3 --s 8 --Q 2..5 --trunc 200 --m 3".split(),
     "d60c84697f156d853010340dba49dee1b17fd14a3598f3af8a968c15801b140f"),
    ("thm15 --k 3 --s 13 --j 1 --x 300 --Q 50,100".split(),
     "ea447f41ca0bf2817b090e988cf6e82b6f3eff4ea87563872769ebbf623d9bb4"),
    ("em-verify --k 2 --theta 1.5 --q 11 --r 3 --X 10000,20000".split(),
     "52f640839b903e4841f824c255c02d4e3fa3d19d9b62f25286b0cf92c506c022"),
    ("selftest".split(),
     "a414783113b62103f77c5d6cabe29d81f4a454495d4e51fce4629eada167aafd"),
    # truncations at Q = 600, the longest walks over the moduli here
    ("residuals --k 3 --s 13 --J 2 --n-min 1000 --n-max 1600 --Q 600".split(),
     "acccd6ed939657fc9191c6c06879d0140716b44815b5a8b36fc4cf1fe2a4476a"),
    ("expansion --k 3 --s 13 --J 3 --n 77777 --Q 600".split(),
     "7dea3ca9004f335d038fd32ff6468cae100c11a75fac49538bb5e0a9f1ac77ce"),
    ("thm14 --k 3 --s 8 --Q 2..4 --trunc 600 --m 3".split(),
     "7ea3f2c60d810338678ceaad7376793fb4aaf83aa22faf258bceed138ff8489e"),
    ("thm15 --k 3 --s 13 --j 1 --x 300 --Q 100,600 --C 0.48".split(),
     "12239cd3571c5fe80df6a881c5934c41b92bb90dd8127bd1f01224433f34d1e6"),
    # recorded with the row-wise emitter, before output became column-wise:
    # JSON mirrors of every subcommand, and counts above 2^53 and 2^64
    ("residuals --k 3 --s 13 --J 2 --n-min 1000 --n-max 1400 --Q 100 --json".split(),
     "5f69bd7cf6cc748ac2d5ed5897611ff928afbe3aa15a90e4787353b2069478c0"),
    ("residuals --k 2 --s 20 --J 1 --n-min 400 --n-max 800 --Q 40".split(),
     "2a06ba85d2204861bc1afe195be14aed8de1650e0be5e045b9770162c8877a4a"),
    ("oracle --k 2 --s 4 --n-max 500 --signed --json".split(),
     "c24214e29c288a8666070e0c4633cbddd4ed1e225ac194b309abdf1201caf511"),
    ("oracle --k 2 --s 24 --n-max 1000".split(),
     "e45ee213e07b68783aba16fe4c663009a7815f2d20607289b308cef4d42ed16c"),
    ("oracle --k 2 --s 24 --n-max 1000 --json".split(),
     "032e2bce349786fa7c470042909cc4c8f2ebe479c7e5ac36b2a5a964ab9eb386"),
    ("series --k 3 --s 13 --j 2 --n-min 500 --n-max 600 --Q 200 --json".split(),
     "0d6b56a64ea30afee8df03c113e73dbdbeedddd92030e8e220ca0f68e9b02445"),
    ("series --k 3 --s 9 --j 1 --n 123457 --Q 300 --json".split(),
     "64e0719e09c2f74447159aab72ab9acbdc45877646eb071a7e87fd7c7e97886f"),
    ("expsum --k 2 --q 4 --a 1 --json".split(),
     "fd7ace2fba0da41d9006ab7b8251f40a405a57870ce700365b82123bdfe68518"),
    ("expansion --k 3 --s 13 --J 2 --n 77777 --Q 300 --json".split(),
     "135c4d102e5d6cb3bd24e6a2f50e88790ee360599cbd750b94c58909fbf76802"),
    ("em-verify --k 2 --theta 1.5 --q 11 --r 3 --X 10000,20000 --json".split(),
     "41eb5f0063acef4f5a2aab5493305d75a4b0517f2e4da29f2a542a513dbba00a"),
    ("thm14 --k 3 --s 8 --Q 2..5 --trunc 200 --m 3 --json".split(),
     "faf0f07e351eacf5ffc44d4cfb4ce36d59dee5af91a08e70252b9828621c1209"),
    ("thm15 --k 3 --s 13 --j 1 --x 300 --Q 50,100 --json".split(),
     "b1049e210e94b5d838726600e1c385afbc6ac71740958beeae22292048c1dd72"),
    ("selftest --json".split(),
     "90eb2dc53b481c11a2f4954f4130a47d739c5b6ed1b0b3ca261f5ca8f421dbfc"),
    # recorded before the progression sum became the l = 1 lattice sum:
    # the positive variant at odd k, and k = 4
    ("em-verify --k 3 --theta 2.5 --q 4 --r 1 --N 2 --variant positive "
     "--X 1000,10000,100000".split(),
     "021a775338a0cd84dfeb50ba350bb4605499113db2e4ad8e4c79093dfcfbf2fc"),
    ("em-verify --k 4 --theta 0.5 --q 7 --r 3 --X 1000,12345,99999".split(),
     "4fa86fd4a7991ee43e48c4ea8d795e0ebabe4fe48307ea7f47cb04fca9ed27f8"),
]


class _Stopped(Exception):
    """Raised where a command's or a call's work would begin."""


# The Baselines rows of ROADMAP.md, as commands and as library calls
BASELINES = [pytest.param(argv.split(), id=argv) for argv in (
    "residuals --k 3 --s 13 --J 2 --n-min 1500 --n-max 299950 --Q 300",
    "residuals --k 3 --s 13 --J 2 --n-min 1500 --n-max 101499 --Q 300 --json",
)] + [pytest.param(call, id=name) for name, call in (
    ("truncated_series (3, 9, 1, 523457, 1999)",
     lambda: series.truncated_series([TruncationSpec(3, 9, 523457, j=1, Q=1999)])),
    ("truncated_series (3, 9, 0, 523457, 1999)",
     lambda: series.truncated_series([TruncationSpec(3, 9, 523457, j=0, Q=1999)])),
    ("series_over_range_orders", lambda: series.series_over_range_orders(
        3, [(9, 0)], range(1000), [1000])),
    ("coefficients_even", lambda: expansion.coefficients_even(5, 1, 54321, 2, 1000)),
    ("coefficients_odd", lambda: expansion.coefficients_odd(13, 2, 77777, 3, 1000)),
    ("count (3, 13, 30000)", lambda: oracle.count_representations(3, 13, 30000)),
    ("count (3, 13, 299950)", lambda: oracle.count_representations(3, 13, 299950)),
    ("count (2, 9, 10**6)", lambda: oracle.count_representations(2, 9, 10**6)),
    ("factorial_multiple_discrepancy", lambda: series.factorial_multiple_discrepancy(
        8, 3, [7], 11, 1000)),
    ("census_magnitudes", lambda: series.census_magnitudes(13, 1, 3, 1000, [500, 1000])),
    ("residual_table k=3", lambda: oracle.residual_prefactors(3, 13, 2, 1500, 29950, 300)),
    ("residual_table k=2", lambda: oracle.residual_prefactors(2, 4, 1, 1500, 29950, 300)),
)]


@pytest.mark.parametrize("call", [pytest.param(argv, id=" ".join(argv)) for argv, _ in GOLDEN]
                         + BASELINES)
def test_golden_and_baseline_work_is_within_the_budget(monkeypatch, capsys, call):
    # predicted only: the work stops where it would begin, after the budget
    def stop(*args, **kwargs):
        raise _Stopped

    for module, name in ((series, "_walk"), (oracle, "_build_table"), (oracle, "read_binary"),
                         (eulermac, "lattice_power_sum"), (expsums, "power_residues")):
        monkeypatch.setattr(module, name, stop)
    if callable(call):
        with contextlib.suppress(_Stopped):
            call()
    else:
        assert cli.run(call) != 2, capsys.readouterr().err


class TestOracleCommand:
    def test_counts_and_binary_export(self, tmp_path):
        bin_path = tmp_path / "table.bin"
        code, text = run_to_file(
            tmp_path,
            ["oracle", "--k", "2", "--s", "2", "--n-max", "25",
             "--binary-out", str(bin_path)],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert rows[25] == "25,2"
        table = oracle.read_binary(str(bin_path))
        assert table[25] == 2

    def test_cache_dir_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["oracle", "--k", "2", "--s", "3", "--n-max", "50",
                "--cache-dir", str(cache)]
        _, first = run_to_file(tmp_path, args, "a.csv")
        assert any(p.suffix == ".bin" for p in cache.iterdir())
        _, second = run_to_file(tmp_path, args, "b.csv")
        assert first == second

    def test_signed_cache_round_trip(self, tmp_path, monkeypatch, capsys):
        argv = "oracle --k 2 --s 3 --n-max 50 --signed".split()
        assert cli.run(argv) == 0
        uncached = capsys.readouterr().out
        cached = argv + ["--cache-dir", str(tmp_path / "cache")]
        assert cli.run(cached) == 0
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["wrc_k2_s3_N50_signed.bin"]

        def count(*args):
            raise AssertionError("the table was counted")

        monkeypatch.setattr(oracle, "count_representations", count)
        monkeypatch.setattr(oracle, "count_representations_signed", count)
        capsys.readouterr()
        assert cli.run(cached) == 0
        assert capsys.readouterr().out == uncached

    def test_cached_table_of_the_other_sign_is_counted_again(self, tmp_path, capsys):
        base = "oracle --k 2 --s 3 --n-max 50".split()
        outputs = []
        for signed in ([], ["--signed"]):
            assert cli.run(base + signed) == 0
            outputs.append(capsys.readouterr().out)
        cache = tmp_path / "cache"
        assert cli.run(base + ["--cache-dir", str(cache)]) == 0
        unsigned = cache / "wrc_k2_s3_N50_unsigned.bin"
        unsigned.rename(cache / "wrc_k2_s3_N50_signed.bin")  # a table under the wrong sign
        for signed, want in zip(([], ["--signed"]), outputs):
            capsys.readouterr()
            assert cli.run(base + signed + ["--cache-dir", str(cache)]) == 0
            assert capsys.readouterr().out == want
        assert oracle.read_binary(str(cache / "wrc_k2_s3_N50_signed.bin")).signed

    @pytest.mark.parametrize("flags", [
        "--k 1 --s 4 --n-max 10",
        "--k 2 --s 0 --n-max 10",
        "--k 2 --s 4 --n-max 0",
        "--k 3 --s 4 --n-max 10 --signed",
    ])
    def test_refused_table_makes_no_cache_directory(self, tmp_path, capsys, flags):
        new = tmp_path / "new"
        assert cli.run(f"oracle {flags} --cache-dir {new / 'sub'}".split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and not new.exists()

    def test_corrupt_cache_is_recomputed(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["oracle", "--k", "2", "--s", "3", "--n-max", "50",
                "--cache-dir", str(cache)]
        _, first = run_to_file(tmp_path, args, "a.csv")
        (cached,) = cache.iterdir()
        cached.write_bytes(cached.read_bytes()[:-7])
        code, second = run_to_file(tmp_path, args, "b.csv")
        assert code == 0
        assert second == first
        assert "recomputing" in capsys.readouterr().err
        # the rewritten file is whole, and no temporary file is left behind
        assert list(cache.iterdir()) == [cached]
        assert oracle.read_binary(str(cached)).counts == oracle.count_representations(
            2, 3, 50).counts

    @pytest.mark.parametrize("argv", [
        "oracle --k 3 --s 3 --n-max 100000000000",
        pytest.param(f"oracle --k 3 --s 3 --n-max {10**400}", id="oracle --n-max 10**400"),
        "oracle --k 2 --s 3 --n-max 100000000 --signed",
        "residuals --k 3 --s 3 --J 0 --n-max 3000000000 --Q 10",
    ])
    def test_table_past_the_ceiling_is_refused_before_allocation(self, monkeypatch, capsys,
                                                                   argv):
        def work(*args):
            raise AssertionError("the count began")

        monkeypatch.setattr(oracle, "_kth_powers", work)
        monkeypatch.setattr(oracle, "_build_table", work)
        assert cli.run(argv.split()) == 2
        out, err = capsys.readouterr()
        N = argv.split()[argv.split().index("--n-max") + 1]
        assert out == "" and err.startswith("error: predicted ") and f", N={N}\n" in err

    @pytest.mark.parametrize("argv, digest", GOLDEN)
    def test_golden_output(self, capsys, argv, digest):
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestExperimentCommands:
    def test_residuals_columns(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["residuals", "--k", "2", "--s", "9", "--J", "1", "--n-min", "100",
             "--n-max", "110", "--Q", "20"],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "n,exact,pred0,pred1,E0,E1"
        assert len(rows) == 12

    def test_em_verify_columns(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["em-verify", "--k", "2", "--theta", "2.5", "--q", "3", "--r", "1",
             "--N", "2", "--X", "100,200"],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "X,direct,main,psi,scaled_error"
        assert len(rows) == 3

    @pytest.mark.parametrize("argv", [
        "em-verify --k 3 --theta 1.5 --q 1 --r 0 --N 5 --X 40000000",
        "em-verify --k 2 --theta 1.5 --q 1 --r 0 --variant positive --X 40000000",
        # -r/q, which the positive variant forms, passes the largest float
        f"em-verify --k 3 --theta 1.5 --q 7 --r {10**400} --variant positive --X 100",
        # X^3 is a float, but the base X^3 - (-X)^3 = 2 X^3 is not
        "em-verify --k 3 --theta 0 --q {X} --r 0 --X {X}".format(
            X=series.integer_kth_root(int(sys.float_info.max), 3)),
        # the error scale X^(k theta) (q/X)^(N-1) = 10^400 passes the largest float
        pytest.param(f"em-verify --k 2 --theta 3 --q {10**200} --r 0 --N 3 --X 1",
                     id="em-verify --q 10**200 --N 3"),
    ])
    def test_em_verify_refuses_before_the_direct_sum(self, monkeypatch, capsys, argv):
        def direct_sum(*args):
            raise AssertionError("the direct sum ran")

        monkeypatch.setattr(eulermac, "progression_power_sum", direct_sum)
        assert cli.run(argv.split()) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, points", [
        ("em-verify --k 2 --theta 1.5 --q 11 --r 1 --X 1000000000000", 181818181819),
        ("em-verify --k 3 --theta 1.5 --q 1 --r 0 --variant positive "
         "--X 9223372036854775807", 2**63 - 1),
        # each X alone is within the budget, the two together are not
        (f"em-verify --k 2 --theta 1.5 --q 1 --r 0 --X {2**30},{2**30 + 1}", 2**32 + 4),
    ])
    def test_em_verify_refuses_more_points_than_its_ceiling(self, monkeypatch, capsys,
                                                            argv, points):
        def direct_sum(*args):
            raise AssertionError("the direct sum ran")

        monkeypatch.setattr(eulermac, "lattice_power_sum", direct_sum)
        assert cli.run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: predicted ")
        assert f" {points} lattice points\n" in err

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_em_verify_refuses_a_non_finite_theta(self, monkeypatch, capsys, theta):
        def direct_sum(*args):
            raise AssertionError("the direct sum ran")

        monkeypatch.setattr(eulermac, "progression_power_sum", direct_sum)
        argv = f"em-verify --k 2 --theta {theta} --q 11 --r 3 --X 1000".split()
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "theta" in err

    def test_thm14_rows(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["thm14", "--k", "3", "--s", "8", "--Q", "2..3", "--trunc", "40"],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "Q,n,discrepancy"
        assert rows[1].split(",")[:2] == ["2", "2"]
        assert rows[2].split(",")[:2] == ["3", "6"]

    def test_thm15_rows(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["thm15", "--k", "3", "--s", "13", "--j", "1", "--x", "60",
             "--Q", "10,20"],
        )
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "Q,C,count,fraction"
        assert len(rows) == 3
        # the pilot threshold is shared between the two truncations
        assert rows[1].split(",")[1] == rows[2].split(",")[1]


class TestOutputModes:
    def test_json_mirror(self, tmp_path):
        out = tmp_path / "out.json"
        code = cli.run(
            ["expsum", "--k", "2", "--q", "4", "--a", "1", "--json", "-o", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["q", "a", "S_re", "S_im", "T_re", "T_im"]
        assert payload["rows"][0][2] == pytest.approx(2.0)
        assert payload["meta"]["subcommand"] == "expsum"

    def test_fifteen_significant_digits(self, tmp_path):
        _, text = run_to_file(
            tmp_path, ["series", "--k", "2", "--s", "5", "--n", "25", "--Q", "50"]
        )
        value_field = [l for l in text.splitlines() if not l.startswith("#")][1].split(",")[1]
        mantissa = value_field.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa.split("e")[0]) == 15

    def test_negative_zero_prints_as_zero(self, tmp_path):
        for json_out in (False, True):
            out = tmp_path / "z.txt"
            args = argparse.Namespace(output=str(out), json=json_out)
            cli._emit(args, {"x": -0.0}, {"a": np.array([-0.0, 1.5, -2.0]),
                                         "b": [-0.0, 0.0, -1e-300], "c": [0, 1, 2]})
            text = out.read_text()
            if json_out:
                payload = json.loads(text)
                assert payload["rows"] == [[0.0, 0.0, 0], [1.5, 0.0, 1], [-2.0, -1e-300, 2]]
                assert [math.copysign(1.0, v) for v in payload["rows"][0][:2]] == [1.0, 1.0]
            else:
                assert text.splitlines()[1:] == ["# x=0", "a,b,c", "0,0,0", "1.5,0,1",
                                                 "-2,-1e-300,2"]

    @pytest.mark.parametrize("argv", [
        "residuals --k 3 --s 13 --J 2 --n-min 1000 --n-max 1300 --Q 60",
        "residuals --k 2 --s 20 --J 1 --n-min 400 --n-max 600 --Q 30",
        "oracle --k 2 --s 24 --n-max 700",
        "oracle --k 2 --s 4 --n-max 300 --signed",
    ])
    def test_json_mirror_equals_csv(self, tmp_path, argv):
        _, csv_text = run_to_file(tmp_path, argv.split(), "t.csv")
        _, json_text = run_to_file(tmp_path, argv.split() + ["--json"], "t.json")
        payload = json.loads(json_text)
        lines = csv_text.splitlines()
        assert lines[2].split(",") == payload["columns"]
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == len(payload["rows"]) > 100
        for row, mirror in zip(rows, payload["rows"]):
            for cell, value in zip(row, mirror):
                if isinstance(value, int):
                    assert cell == str(value)
                else:
                    assert float(cell) == value

    def test_rows_written_in_blocks_equal_one_block(self, tmp_path, monkeypatch):
        argv = "residuals --k 2 --s 9 --J 1 --n-min 100 --n-max 160 --Q 20".split()
        _, whole = run_to_file(tmp_path, argv, "a.csv")
        for rows in (1, 7, 61, 62):
            monkeypatch.setattr(cli, "ROWS_PER_WRITE", rows)
            _, blocks = run_to_file(tmp_path, argv, f"b{rows}.csv")
            assert blocks == whole
        assert len(whole.splitlines()) == 3 + 61

    @staticmethod
    def residuals_bytes_per_row(monkeypatch, n_maxes, flags=()) -> float:
        """The growth of the traced peak of residuals -o /dev/null per row."""
        table = oracle.count_representations(3, 13, max(n_maxes))
        monkeypatch.setattr(cli, "_cached_table", lambda *args: table)
        peaks = []
        for n_max in n_maxes:
            tracemalloc.start()
            try:
                assert cli.run(f"residuals --k 3 --s 13 --J 2 --n-min 1001 --n-max {n_max} "
                               "--Q 60 -o /dev/null".split() + list(flags)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return (peaks[1] - peaks[0]) / (n_maxes[1] - n_maxes[0])

    def test_residuals_hold_few_bytes_per_row(self, monkeypatch):
        # only ns and the (J+1) coefficients are held per row (32 B here); the
        # predictions, residuals and text are formed a block at a time
        assert self.residuals_bytes_per_row(monkeypatch, (6000, 26000)) < 64

    def test_json_residuals_hold_few_bytes_per_row(self, monkeypatch):
        # JSON too writes a block at a time; its per-block constant is larger,
        # so the growth is measured from 26000 rows on
        assert self.residuals_bytes_per_row(monkeypatch, (26000, 46000), ["--json"]) < 64

    def test_config_file_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 9\na = 1\n")
        out = tmp_path / "o.csv"
        code = cli.run(["expsum", "--k", "3", "--q", "7", "--config", str(cfg),
                        "-o", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        # q from the flag (7) wins; a from the config applies
        assert rows[0].split(",")[0] == "7"
        assert len(rows) == 1 and rows[0].split(",")[1] == "1"
        # a short flag wins too: -o beats the config's output
        cfg.write_text(f"output = {tmp_path / 'from_config.csv'}\n")
        flag = tmp_path / "flag.csv"
        code = cli.run(["expsum", "--k", "3", "--q", "5", "--a", "1", "-o", str(flag),
                        "--config", str(cfg)])
        assert code == 0
        assert flag.exists() and not (tmp_path / "from_config.csv").exists()

    def test_seed_only_on_selftest(self, tmp_path):
        assert cli.run(["series", "--k", "3", "--s", "9", "--n", "6", "--Q", "5",
                        "--seed", "4"]) == 2
        assert cli.run(["selftest", "--seed", "4", "-o", str(tmp_path / "s.csv")]) == 0

    def test_config_on_off_value_must_be_spelled_out(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        argv = ["oracle", "--k", "2", "--s", "2", "--n-max", "10", "--config", str(cfg)]
        cfg.write_text("signed = ture\n")
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "signed" in err and "'ture'" in err
        for value, shown in (("off", "signed=0"), ("OFF", "signed=0"), ("On", "signed=1")):
            cfg.write_text(f"signed = {value}\n")
            assert cli.run(argv) == 0
            assert shown in capsys.readouterr().out

    def test_config_key_must_be_a_declared_option(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("handler = 3\n")
        assert cli.run(["expsum", "--k", "3", "--q", "5", "--config", str(cfg)]) == 2
        assert "unknown key(s) handler" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, tmp_path, capsys):
        out = tmp_path / "self.csv"
        code = cli.run(["selftest", "-o", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert all(row.split(",")[1] == "PASS" for row in rows)
        err = capsys.readouterr().err
        assert "# PASS" in err


def test_tracer_targets_resolve():
    # bench/tracer.py wraps these library names; a missing one breaks --trace 1
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    attrs = {}
    for module, name, _, attr in tracer._targets():
        assert callable(getattr(importlib.import_module(f"waringsums.{module}"), name))
        attrs[module, name] = attr
    # the span attributes are computed from real return values
    args = (oracle.count_representations(2, 9, 130), 1, 100, 130, 20)
    assert attrs["oracle", "residual_table"](oracle.residual_table(*args), *args) == 31


def _fresh_interpreter(code: str) -> str:
    """stdout of `python -c code` in a new process, where no test has
    imported or called anything yet."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_computes_no_bernoulli_number():
    # the functions each profile called; the second is a positive control
    out = _fresh_interpreter(
        "import cProfile, pstats\n"
        "def called(code):\n"
        "    profile = cProfile.Profile()\n"
        "    profile.runctx(code, globals(), globals())\n"
        "    print(sorted(f for p, _, f in pstats.Stats(profile).stats if p.endswith('arith.py')))\n"
        "called('import waringsums.cli')\n"
        "called('waringsums.arith.periodic_bernoulli(2, 0.25)')\n")
    on_import, on_call = out.splitlines()
    assert "bernoulli_numbers" not in on_import
    assert "'bernoulli_numbers'" in on_call and "'periodic_bernoulli'" in on_call


def test_importing_series_loads_only_what_it_uses():
    out = _fresh_interpreter("import sys, waringsums.series; "
                             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'waringsums'))")
    assert out.split() == ["waringsums", "waringsums.budget", "waringsums.expsums",
                           "waringsums.series"]


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(importlib.import_module("waringsums").__path__)))
def test_every_name_in_all_resolves(module):
    namespace = {}
    exec(f"from waringsums.{module} import *", namespace)
    loaded = importlib.import_module(f"waringsums.{module}")
    assert loaded.__all__ and set(loaded.__all__) <= set(namespace)
    # and every public function or class the module defines is listed
    defined = {name for name, value in vars(loaded).items()
               if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == loaded.__name__}
    assert sorted(defined - set(loaded.__all__)) == []
