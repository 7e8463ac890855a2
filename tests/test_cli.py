import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from waringsums import cli, eulermac, expansion, oracle, series
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

    def test_int_list_forms(self):
        assert cli._parse_int_list("2..5") == [2, 3, 4, 5]
        assert cli._parse_int_list("10,20,30") == [10, 20, 30]
        with pytest.raises(ValueError):
            cli._parse_int_list("5..2")


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
        ).value.real
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
    ])
    def test_rejected_before_the_walk(self, capsys, argv):
        assert cli.run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error" in err

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
# commands; the others were recorded before the coefficient-row refactor or
# before the memo cache was removed, and any digest change must be explained
# in CHANGES.md.
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
    ("series --k 3 --s 9 --j 1 --n 123457 --Q 300".split(),
     "d8b6e271c34050ba0b14c8326ad01d44296ed67da88ca5762fd534c02d4de890"),
    ("series --k 2 --s 5 --n 25 --Q 50".split(),
     "9a8d3fed719976b43e1421b905e3ba8e0337db6c2d555bc424ddcdef8a4e9daf"),
    ("series --k 3 --s 9 --j 0 --n-min 1000 --n-max 1400 --Q 300".split(),
     "f808d30b6ee6b63bce0ee38f307f9af5494f25e75ec33f485153921dc7326717"),
    ("series --k 3 --s 13 --j 2 --n-min 500 --n-max 700 --Q 200".split(),
     "16c16790b7bbe9a40bdea6249f737b9ad53dfcc14a8e307f887c18d5943f5d2e"),
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
    # Q above 512, where every walk over the moduli revisits none of them
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
     "f4c7041c7b1e64196282e36c19e6f3aa3552803c8e451b49226e7b358b6fc8ab"),
    ("series --k 3 --s 9 --j 1 --n 123457 --Q 300 --json".split(),
     "59bf9414456c3052fb5d5e28ca9108bede7831c20340f0d63033a14aec988c48"),
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
    ])
    def test_em_verify_refuses_before_the_direct_sum(self, monkeypatch, capsys, argv):
        def direct_sum(*args):
            raise AssertionError("the direct sum ran")

        monkeypatch.setattr(eulermac, "progression_power_sum", direct_sum)
        assert cli.run(argv.split()) == 2
        assert "error" in capsys.readouterr().err

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
    assert out.split() == ["waringsums", "waringsums.expsums", "waringsums.series"]


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(importlib.import_module("waringsums").__path__)))
def test_every_name_in_all_resolves(module):
    namespace = {}
    exec(f"from waringsums.{module} import *", namespace)
    listed = importlib.import_module(f"waringsums.{module}").__all__
    assert listed and set(listed) <= set(namespace)
