"""Command-line front end: experiment orchestration and CSV/JSON output.

Every subcommand passes its table to one emitter, column by column or,
for residuals, in blocks of rows formed as they are written: CSV by
default (comma separated, `.` decimal, `#`-prefixed comment header
carrying the tool version and the full parameter set) or a JSON mirror
behind --json.  Floats print with 15 significant digits, -0 as 0.
Reductions are deterministic: identical configuration, identical bytes.
A --config file supplies option defaults; flags on the command line win.

Exit codes: 0 success, 2 parameter/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, arith, eulermac, expansion, expsums, oracle, series
from .budget import Part, check

__all__ = ["build_parser", "run", "main"]

ROWS_PER_WRITE = 4096  # rows formatted per write, which bounds the emitter's memory
_FLOAT = "%.15g"  # the format of every float cell


# ----------------------------- plumbing -----------------------------------

def _cells(values) -> Tuple[str, list]:
    """A column's format spec and the values it formats, the one rule for
    the CSV body, the header and the JSON mirror: _FLOAT for floats, with
    0.0 added so that -0 prints as 0, and '%s' for anything else."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return _FLOAT, (values + 0.0).tolist()
        return "%s", values.tolist()
    values = list(values)
    if all(isinstance(v, float) for v in values):
        return _FLOAT, [v + 0.0 for v in values]
    return "%s", values


def _emit(args, meta: dict, columns, blocks: Optional[Iterable[Sequence]] = None) -> None:
    """Write one table as CSV or its JSON mirror.  columns maps each name
    to its values; or it lists the names, and blocks yields the table a
    few rows at a time, each block one sequence of values per column.
    Either form is written ROWS_PER_WRITE rows at a time: CSV by one %
    format, JSON by one json.dumps of the rows, set into the payload's
    "rows" list."""
    if blocks is None:
        columns, blocks = list(columns), [list(columns.values())]
    with (contextlib.nullcontext(sys.stdout) if args.output in (None, "-")
          else open(args.output, "w", encoding="utf-8")) as fh:
        if args.json:
            payload = {"tool": "waringsums", "version": __version__, "meta": meta,
                       "columns": list(columns), "rows": []}
            head, tail = json.dumps(payload, indent=2, sort_keys=True).rsplit("[]", 1)
            fh.write(head + "[")
        else:
            settings = []
            for key, value in sorted(meta.items()):
                spec, (cell,) = _cells([int(value) if isinstance(value, bool) else value])
                settings.append(f"{key}={spec % cell}")
            fh.write(f"# waringsums {__version__}\n# {' '.join(settings)}\n"
                     f"{','.join(columns)}\n")
        written = 0
        for block in blocks:
            for lo in range(0, len(block[0]), ROWS_PER_WRITE):
                specs, cells = zip(*(_cells(v[lo : lo + ROWS_PER_WRITE]) for v in block))
                if args.json:
                    # a float is written as the value its CSV text reads back as
                    values = [[float(spec % v) for v in column] if spec == _FLOAT else column
                              for spec, column in zip(specs, cells)]
                    # json.dumps sets the rows at the top level: drop its brackets
                    # and move each line two spaces in, into the payload's list
                    rows = json.dumps(list(zip(*values)), indent=2)[1:-2]
                    fh.write(("," if written else "") + rows.replace("\n", "\n  "))
                else:
                    row = ",".join(specs) + "\n"
                    fh.write(row * len(cells[0]) % tuple(itertools.chain.from_iterable(zip(*cells))))
                written += len(cells[0])
        if args.json:
            fh.write(("\n  ]" if written else "]") + tail + "\n")


def _parse_int_list(flag: str, text: str) -> List[int]:
    """Accepts '2..5' (inclusive range) or '2,3,4' (comma list) of at
    least one value, each charged to the budget before the list is built."""
    text = text.strip()
    if ".." in text:
        lo, hi = (int(t) for t in text.split("..", 1))
        values, count = range(lo, hi + 1), hi - lo + 1  # len() fails past sys.maxsize
    else:
        values = [t for t in text.split(",") if t]
        count = len(values)
    if count < 1:
        raise ValueError(f"{flag} {text!r} lists no values")
    check(Part("list values", count, f"{flag} {text} lists {count} values"))
    return [int(t) for t in values]


def _load_config(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: Sequence[str]) -> argparse.Namespace:
    """Re-parse argv with the config file's values as the sub-command's
    defaults, so an option given on the command line, in any spelling,
    always wins.  Keys must name options the sub-command declares."""
    if not args.config:
        return args
    (subs,) = (a for a in parser._actions if a.dest == "subcommand")
    sub = subs.choices[args.subcommand]
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    values = _load_config(args.config)
    unknown = sorted(set(values) - set(options))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)} in config file "
                         f"{args.config}; allowed: {', '.join(sorted(options))}")
    for key, raw in values.items():
        if options[key].nargs == 0:  # an on/off flag such as --json
            if raw.lower() not in _ON + _OFF:
                raise ValueError(f"config key {key} needs one of "
                                 f"{'/'.join(_ON + _OFF)}, got {raw!r}")
            values[key] = raw.lower() in _ON
    # argparse converts a string default with the option's type when the
    # option is absent, exactly as if the value had been given on the line.
    sub.set_defaults(**values)
    return parser.parse_args(argv)


def _cached_table(k: int, s: int, N: int, signed: bool,
                  cache_dir: Optional[str]) -> oracle.RepCountTable:
    count = oracle.count_representations_signed if signed else oracle.count_representations
    if not cache_dir:
        return count(k, s, N)
    oracle._width_bits_for(k, s, N, signed)  # what counting refuses, before any directory
    path = Path(cache_dir) / f"wrc_k{k}_s{s}_N{N}_{'signed' if signed else 'unsigned'}.bin"
    path.parent.mkdir(parents=True, exist_ok=True)  # a bad directory fails before any count
    if path.exists():
        try:
            table = oracle.read_binary(str(path))
        except ValueError as exc:
            print(f"note: cache file {path} is unreadable ({exc}); recomputing",
                  file=sys.stderr)
        else:
            if (table.k, table.s, table.N, table.signed) == (k, s, N, signed):
                return table
    table = count(k, s, N)
    # A temporary file renamed into place: readers never see a partial table.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        oracle.write_binary(table, str(tmp))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return table


# ----------------------------- subcommands --------------------------------

def _cmd_expsum(args) -> int:
    meta = {"subcommand": "expsum", "k": args.k, "q": args.q, "a": args.a}
    check(Part("expsum residues" if args.a is None else "expsum point residues", args.q,
               f"--q {args.q}"))
    if args.a is not None:
        a = [args.a]
        svals = np.array([expsums.complete_sum(args.q, args.a, args.k)])
        tvals = np.array([expsums.weighted_sum(args.q, args.a, args.k)])
    else:
        svals = expsums.batch_values(args.q, args.k)
        tvals = expsums.batch_weighted_values(args.q, args.k)
        a = np.arange(args.q)
    _emit(args, meta, {"q": [args.q] * len(a), "a": a, "S_re": svals.real,
                       "S_im": svals.imag, "T_re": tvals.real, "T_im": tvals.imag})
    return 0


def _cmd_series(args) -> int:
    meta = {"subcommand": "series", "k": args.k, "s": args.s, "j": args.j,
            "Q": args.Q}
    if args.n is not None and (args.n_min, args.n_max) != (None, None):
        raise ValueError("--n (point mode) and --n-min/--n-max (range mode) exclude each other")
    if args.n is not None:
        spec = series.TruncationSpec(args.k, args.s, args.n, j=args.j, Q=args.Q)
        val = series.modified_series_truncated(spec)
        meta["Q"] = spec.Q
        _emit(args, meta, {"n": [args.n], "value_re": [val.value], "value_im": [0.0],
                           "term_count": [val.term_count], "tail_estimate": [val.tail_estimate]})
        return 0
    if args.n_min is None or args.n_max is None or args.Q is None:
        raise ValueError("range mode needs --n-min, --n-max and --Q")
    if args.n_max < args.n_min:
        raise ValueError(f"empty range --n-min {args.n_min} --n-max {args.n_max}")
    ns = range(args.n_min, args.n_max + 1)
    vals = series.series_over_range(args.k, args.s, args.j, ns, args.Q)
    meta.update(n_min=args.n_min, n_max=args.n_max)
    _emit(args, meta, {"n": ns, "value_re": vals, "value_im": np.zeros(vals.size)})
    return 0


def _cmd_expansion(args) -> int:
    if args.k % 2 == 0:
        coeffs = expansion.coefficients_even(args.s, args.J, args.n, args.k, args.Q)
    else:
        coeffs = expansion.coefficients_odd(args.s, args.J, args.n, args.k, args.Q)
    meta = {"subcommand": "expansion", "k": args.k, "s": args.s, "J": args.J,
            "n": args.n, "Q": args.Q, "parity": coeffs.parity}
    _emit(args, meta, {"j": range(args.J + 1), "binomial": coeffs.binomials,
                       "gamma_factor": coeffs.gamma_factors,
                       "series_value": coeffs.series_values, "c_j": coeffs.coefficients})
    return 0


def _cmd_oracle(args) -> int:
    table = _cached_table(args.k, args.s, args.n_max, args.signed, args.cache_dir)
    if args.binary_out:
        oracle.write_binary(table, args.binary_out)
    meta = {"subcommand": "oracle", "k": args.k, "s": args.s, "n_max": args.n_max,
            "signed": args.signed, "width_bits": table.width_bits}
    _emit(args, meta, {"n": np.arange(table.N + 1), "count": table.counts})
    return 0


def _cmd_residuals(args) -> int:
    # refuse what residual_table would refuse before the table is counted
    oracle.residual_prefactors(args.k, args.s, args.J, args.n_min, args.n_max, args.Q)
    table = _cached_table(args.k, args.s, args.n_max, False, args.cache_dir)
    res = oracle.residual_table(table, args.J, args.n_min, args.n_max, args.Q)
    meta = {"subcommand": "residuals", "k": args.k, "s": args.s, "J": args.J,
            "n_min": args.n_min, "n_max": args.n_max, "Q": args.Q}
    orders = range(args.J + 1)

    def blocks():  # the rows are formed a block at a time, as they are written
        for lo in range(0, len(res), ROWS_PER_WRITE):
            exact, predicted, residuals = res.rows(lo, lo + ROWS_PER_WRITE)
            yield [res.ns[lo : lo + ROWS_PER_WRITE], exact, *predicted, *residuals]

    _emit(args, meta, ["n", "exact", *(f"pred{j}" for j in orders),
                       *(f"E{j}" for j in orders)], blocks())
    return 0


def _cmd_em_verify(args) -> int:
    xs = _parse_int_list("--X", args.X)
    specs = [eulermac.LatticeSumSpec(args.q, args.r, x, args.theta, args.k, args.N)
             for x in xs]  # refuses a k of 2^63 or more
    check(*eulermac._lattice_parts(specs, args.variant))
    # the asymptotics refuse the positive variant at even k, so they run first
    asymptotics = [eulermac.progression_power_sum_asymptotic(spec, args.variant)
                   for spec in specs]

    def one(spec, asymptotic):
        main, psi, scale = asymptotic
        direct = eulermac.progression_power_sum(spec, args.variant)
        return direct, main, psi, (direct - main - psi) / scale

    direct, main, psi, error = zip(*map(one, specs, asymptotics))
    meta = {"subcommand": "em-verify", "k": args.k, "theta": args.theta,
            "q": args.q, "r": args.r, "N": args.N, "variant": args.variant}
    _emit(args, meta, {"X": xs, "direct": direct, "main": main, "psi": psi,
                       "scaled_error": error})
    return 0


def _cmd_thm14(args) -> int:
    qs = _parse_int_list("--Q", args.Q)
    if min(qs) < 1 or args.m < 1:
        raise ValueError("Q and m must be positive")
    if max(qs) > sys.maxsize:  # math.factorial refuses it, with a limit or without
        raise ValueError(f"Q={max(qs)} is above sys.maxsize={sys.maxsize}; Q! cannot be built")
    # n is printed in full, in time quadratic in its digits: before any Q! is
    # built, lgamma's count of them is charged and held to the interpreter's limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    logs = [math.lgamma(Q + 1) / math.log(10) + math.log10(args.m) for Q in qs]

    def too_long(Q: int) -> ValueError:
        return ValueError(f"n = Q!*m at Q={Q}, m={args.m} has more than {limit} "
                          "digits, the interpreter's limit for printing an integer")

    for Q, log in zip(qs, logs):
        if limit and log > limit + 1:
            raise too_long(Q)
    check(Part("digit pairs", sum((int(log) + 1) ** 2 for log in logs),
               f"n = Q!*m at --Q {args.Q}, --m {args.m}"))
    ns = [math.factorial(Q) * args.m for Q in qs]
    for Q, n in zip(qs, ns):
        if limit and n >= 10**limit:  # the least n of more than limit digits
            raise too_long(Q)
    disc = series.factorial_multiple_discrepancy(args.s, args.k, qs, args.m, args.trunc)
    meta = {"subcommand": "thm14", "k": args.k, "s": args.s, "m": args.m,
            "trunc": args.trunc}
    _emit(args, meta, {"Q": qs, "n": ns, "discrepancy": disc})
    return 0


def _cmd_thm15(args) -> int:
    if args.C is not None and not math.isfinite(args.C):
        raise ValueError(f"C must be finite, got {args.C}")
    qs = _parse_int_list("--Q", args.Q)
    mags = series.census_magnitudes(args.s, args.j, args.k, args.x, qs)
    threshold = float(np.median(mags[0])) / 2.0 if args.C is None else args.C
    counts = [int(np.count_nonzero(m >= threshold)) for m in mags]
    meta = {"subcommand": "thm15", "k": args.k, "s": args.s, "j": args.j,
            "x": args.x}
    _emit(args, meta, {"Q": qs, "C": [threshold] * len(qs), "count": counts,
                       "fraction": [c / args.x for c in counts]})
    return 0


def _selftest_checks(seed: int):
    rng = np.random.default_rng(seed)

    def bernoulli_recurrence():
        table = arith.bernoulli_numbers(40)
        for kappa in range(2, 41):
            residual = sum(
                math.comb(kappa + 1, j) * table[kappa + 1 - j]
                for j in range(1, kappa + 2)
            )
            if residual != 0:
                return f"recurrence residual {residual} at index {kappa}"
        return None

    def even_collapse():
        worst = 0.0
        for k in (2, 4):
            for q in range(1, 121):
                a = expsums.coprime_residues(q)
                tv = expsums.batch_weighted_values(q, k)[a]
                worst = max(worst, float(np.max(np.abs(tv + 0.5))))
        return None if worst <= 1e-9 else f"max |T+1/2| = {worst:g}"

    def odd_structure():
        for k in (3, 5):
            for q in range(1, 121):
                a = expsums.coprime_residues(q)
                sv = expsums.batch_values(q, k)[a]
                if float(np.max(np.abs(sv.imag))) > 1e-9 * q:
                    return f"Im S too large at q={q}, k={k}"
                tv = expsums.batch_weighted_values(q, k)[a] + 0.5
                if float(np.max(np.abs(tv.real))) > 1e-9 * q:
                    return f"Re T-augmented too large at q={q}, k={k}"
        return None

    def reflection_identity():
        for k, s, n, Q in ((3, 9, 5, 40), (3, 9, 17, 40), (5, 12, 100, 25)):
            terms = sum(expsums.coprime_residues(q).size for q in range(1, Q + 1))
            residual = series.negation_identity_residual(s, n, Q, k)
            if residual > 1e-8 * terms:
                return f"residual {residual:g} at (k={k}, s={s}, n={n}, Q={Q})"
        return None

    def batch_vs_direct():
        qs = [1, 2, 4, 7] + sorted(int(q) for q in rng.integers(8, 801, size=8))
        for q in qs:
            batch = expsums.batch_values(q, 3)
            for a in range(0, q, max(1, q // 17)):
                direct = expsums.complete_sum(q, a, 3)
                if abs(batch[a] - direct) > 1e-9 * q:
                    return f"batch mismatch at (q={q}, a={a})"
        return None

    def inversion():
        for s in (2, 3, 4):
            failure = oracle.verify_inversion(2, s, 400)
            if failure is not None:
                return f"inversion failed: {failure}"
        return None

    def convolution_vs_enumeration():
        for k in (2, 3):
            for s in (2, 3):
                conv = oracle.count_representations(k, s, 300)
                enum = oracle.count_by_enumeration(k, s, 300)
                if conv.counts != enum.counts:
                    return f"mismatch at (k={k}, s={s})"
        signed_conv = oracle.count_representations_signed(2, 2, 200)
        signed_enum = oracle.count_by_enumeration(2, 2, 200, signed=True)
        if signed_conv.counts != signed_enum.counts:
            return "signed mismatch at (k=2, s=2)"
        return None

    def limbs_vs_inversion():
        # the signed tables of orders 13 and 14 (63 and 68 bits) carry into a
        # second limb; the unsigned ones stay on one
        failure = oracle.verify_inversion(2, 14, 2000)
        if failure is not None:
            return f"inversion failed: {failure}"
        if oracle.count_representations(3, 4, 500).counts != \
                oracle.count_by_enumeration(3, 4, 500).counts:
            return "mismatch with enumeration at (k=3, s=4, N=500)"
        return None

    return [
        ("bernoulli-recurrence", bernoulli_recurrence),
        ("even-k-collapse", even_collapse),
        ("odd-k-structure", odd_structure),
        ("reflection-identity", reflection_identity),
        ("batch-vs-direct", batch_vs_direct),
        ("inversion-identities", inversion),
        ("convolution-vs-enumeration", convolution_vs_enumeration),
        ("limbs-vs-inversion", limbs_vs_inversion),
    ]


def _cmd_selftest(args) -> int:
    names, statuses, details = [], [], []
    for name, check in _selftest_checks(args.seed):
        detail = check()
        status = "PASS" if detail is None else "FAIL"
        print(f"# {status} {name}" + (f" ({detail})" if detail else ""),
              file=sys.stderr)
        names.append(name)
        statuses.append(status)
        details.append(detail or "")
    meta = {"subcommand": "selftest", "seed": args.seed, "failed": statuses.count("FAIL")}
    _emit(args, meta, {"check": names, "status": statuses, "detail": details})
    return 0 if meta["failed"] == 0 else 1


# ----------------------------- parser --------------------------------------

def _command(subs, name: str, help: str, handler, ints: Sequence[str] = ()):
    """A sub-command's parser: the int flags ints, required, then -o, --json, --config."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    for flag in ints:
        sub.add_argument(flag, type=int, required=True)
    sub.add_argument("-o", "--output", default="-",
                     help="output path, '-' for stdout (default)")
    sub.add_argument("--json", action="store_true",
                     help="emit a JSON mirror instead of CSV")
    sub.add_argument("--config", default=None,
                     help="key=value file supplying defaults; flags win")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waringsums",
        description="Exponential sums, singular series, expansions, and "
                    "exact counting experiments for sums of k-th powers.",
    )
    parser.add_argument("--version", action="version",
                        version=f"waringsums {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = _command(subs, "expsum", "complete/weighted exponential sums", _cmd_expsum,
                 ["--k", "--q"])
    p.add_argument("--a", type=int, default=None,
                   help="single numerator; all residues when omitted")

    p = _command(subs, "series", "truncated (modified) singular series", _cmd_series,
                 ["--k", "--s"])
    p.add_argument("--j", type=int, default=0)
    for flag in ("--n", "--n-min", "--n-max"):
        p.add_argument(flag, type=int, default=None)
    p.add_argument("--Q", type=int, default=None,
                   help="truncation level; defaults to floor(n^(1/k))")

    _command(subs, "expansion", "asymptotic expansion coefficients", _cmd_expansion,
             ["--k", "--s", "--J", "--n", "--Q"])

    p = _command(subs, "oracle", "exact representation-count tables", _cmd_oracle,
                 ["--k", "--s", "--n-max"])
    p.add_argument("--signed", action="store_true")
    p.add_argument("--binary-out", default=None,
                   help="also write the table in the flat binary format")
    p.add_argument("--cache-dir", default=None)

    p = _command(subs, "residuals", "exact counts minus cumulative expansion predictions",
                 _cmd_residuals, ["--k", "--s", "--J", "--n-max", "--Q"])
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--cache-dir", default=None)

    p = _command(subs, "em-verify", "lattice power sums against their asymptotics",
                 _cmd_em_verify, ["--k", "--q", "--r"])
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--variant", choices=eulermac.VARIANTS, default="two_sided")
    p.add_argument("--X", required=True, help="comma list or lo..hi range of X values")

    p = _command(subs, "thm14", "half-series discrepancy at factorial multiples", _cmd_thm14,
                 ["--k", "--s", "--trunc"])
    p.add_argument("--Q", required=True, help="comma list or lo..hi range")
    p.add_argument("--m", type=int, default=1)

    p = _command(subs, "thm15", "non-vanishing census of the modified series", _cmd_thm15,
                 ["--k", "--s", "--j", "--x"])
    p.add_argument("--Q", required=True, help="comma list or lo..hi range")
    p.add_argument("--C", type=float, default=None,
                   help="census threshold; default half the pilot median")

    p = _command(subs, "selftest", "run the exact-identity suite", _cmd_selftest)
    p.add_argument("--seed", type=int, default=12345, help="seed for the sampled checks")
    return parser


def _check_file_flags(args) -> None:
    """Refuse, before any work, an -o or --binary-out file that cannot be
    opened for writing because it is a directory or its parent is none."""
    paths = {"-o": None if args.output == "-" else args.output,
             "--binary-out": getattr(args, "binary_out", None)}
    for flag, path in paths.items():
        if path is None:
            continue
        if Path(path).is_dir():
            raise IsADirectoryError(f"{flag} {path} is a directory")
        if not Path(path).parent.is_dir():
            raise NotADirectoryError(f"{flag} {path}: {Path(path).parent} is not a directory")


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, parser.parse_args(argv), argv)
        _check_file_flags(args)
        return args.handler(args)
    except SystemExit as exc:  # argparse has printed usage and the error
        return int(exc.code or 0)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
