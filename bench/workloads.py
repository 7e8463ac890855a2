"""The four benchmark workloads, built from a seed.

The seed chooses only values whose cost does not depend on them (n, the
offsets of n ranges, residues and multipliers); sizes are fixed.  Why each
workload exists, and which layer it loads, is in README.md.

Every command is a list of interpreter arguments, run as
``python3 <args>`` in the run's work directory, so ``cache`` below is a
directory there.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Tuple

import checks

CLI = ("-m", "waringsums.cli")
COUNT_N = 30_000        # count tables in `counts`
RESIDUAL_N = 30_000     # n range and count tables in `residuals-warm`
RESIDUAL_Q = 300
MOMENT = (3072, 5120)   # q range of the moment tail; half of it above CACHE_LIMIT = 4096
FLOAT_SAMPLES = 2       # sampled n per range output checked against the scalar path


@dataclass(frozen=True)
class Command:
    label: str
    args: Tuple[str, ...]
    check: Callable[[str, checks.Checker], None]

    @property
    def is_cli(self) -> bool:
        return self.args[:2] == CLI


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[Command, ...]
    setup: Tuple[Command, ...] = ()   # prepares inputs; timed as set-up
    cold_cache: bool = False          # empty the cache directory before each command


def cli(label, argv, check, **params) -> Command:
    args = CLI + tuple(str(a) for a in argv)
    return Command(label, args, functools.partial(check, **params))


def stored(label, args, check, **params) -> Command:
    """A command checked against reference.json, keyed by its arguments."""
    return Command(label, args, functools.partial(check, key=" ".join(args), **params))


VERSION = cli("version", ["--version"], checks.version)


def _oracle(label, k, s, n_max, signed=False):
    extra = ["--signed"] if signed else ["--cache-dir", "cache"]
    return cli(label, ["oracle", "--k", k, "--s", s, "--n-max", n_max, *extra],
               checks.counts, k=k, s=s, n_max=n_max, signed=signed)


def counts(rng: random.Random) -> Workload:
    n_max = COUNT_N - rng.randrange(100)
    return Workload("counts", (
        _oracle("oracle k=2 s=9", 2, 9, n_max),
        _oracle("oracle k=2 s=4 signed", 2, 4, n_max, signed=True),
        _oracle("oracle k=3 s=13", 3, 13, n_max),
    ), cold_cache=True)


def residuals_warm(rng: random.Random) -> Workload:
    n_max = RESIDUAL_N - rng.randrange(100)
    n_min = 1000 + rng.randrange(1000)
    samples = frozenset(rng.sample(range(n_min, n_max + 1), FLOAT_SAMPLES))

    def residuals(k, s, J):
        return cli(f"residuals k={k} s={s} J={J}",
                   ["residuals", "--k", k, "--s", s, "--J", J, "--n-min", n_min,
                    "--n-max", n_max, "--Q", RESIDUAL_Q, "--cache-dir", "cache"],
                   checks.residuals, k=k, s=s, J=J, n_min=n_min, n_max=n_max,
                   Q=RESIDUAL_Q, samples=samples)

    cold = _oracle("cold oracle k=3 s=13", 3, 13, n_max)
    warm = cli("warm oracle k=3 s=13", cold.args[2:], checks.same_as, of=cold.label)
    return Workload("residuals-warm", (
        residuals(3, 13, 2),
        residuals(2, 4, 1),
        warm,
    ), setup=(cold, _oracle("cold oracle k=2 s=4", 2, 4, n_max)))


def series_sweeps(rng: random.Random) -> Workload:
    n_point = rng.randrange(100_000, 1_000_000)
    lo = rng.randrange(1000, 100_000)
    hi = lo + 999
    samples = frozenset(rng.sample(range(lo, hi + 1), FLOAT_SAMPLES))
    n_even, n_odd = rng.randrange(10_000, 100_000), rng.randrange(10_000, 100_000)
    m = rng.randrange(1, 50)
    return Workload("series-sweeps", (
        cli("series scalar j=1 Q=1999",
            ["series", "--k", 3, "--s", 9, "--j", 1, "--n", n_point, "--Q", 1999],
            checks.series_point, k=3, s=9, j=1, n=n_point, Q=1999),
        cli("series range j=0 Q=1000",
            ["series", "--k", 3, "--s", 9, "--j", 0, "--n-min", lo, "--n-max", hi,
             "--Q", 1000],
            checks.series_range, k=3, s=9, j=0, n_min=lo, n_max=hi, Q=1000,
            samples=samples),
        cli("expansion k=2",
            ["expansion", "--k", 2, "--s", 5, "--J", 1, "--n", n_even, "--Q", 1000],
            checks.expansion, k=2, s=5, J=1, n=n_even, Q=1000),
        cli("expansion k=3",
            ["expansion", "--k", 3, "--s", 13, "--J", 2, "--n", n_odd, "--Q", 1000],
            checks.expansion, k=3, s=13, J=2, n=n_odd, Q=1000),
        cli("thm14",
            ["thm14", "--k", 3, "--s", 8, "--Q", 7, "--trunc", 1000, "--m", m],
            checks.discrepancy, k=3, s=8, Qs=(7,), m=m, trunc=1000),
        stored("thm15",
               CLI + ("thm15", "--k", "3", "--s", "13", "--j", "1", "--x", "1000",
                      "--Q", "500,1000", "--C", "0.48"),
               checks.stored_rows, exact=("Q", "count")),
    ))


MOMENT_CODE = ("from waringsums.series import power_moment_sum; "
               f"print(repr(power_moment_sum({MOMENT[0]}, {MOMENT[1]}, 8, 0.0, 2)))")


def tails(rng: random.Random) -> Workload:
    q = 11
    r = rng.randrange(q)
    Xs = (4_000_000, 8_000_000)
    return Workload("tails", (
        stored("power_moment_sum", ("-c", MOMENT_CODE), checks.stored_value),
        cli("em-verify",
            ["em-verify", "--k", 2, "--theta", 1.5, "--q", q, "--r", r,
             "--X", ",".join(map(str, Xs))],
            checks.lattice, k=2, theta=1.5, q=q, r=r, Xs=Xs),
    ))


BUILDERS = {
    "counts": counts,
    "residuals-warm": residuals_warm,
    "series-sweeps": series_sweeps,
    "tails": tails,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
