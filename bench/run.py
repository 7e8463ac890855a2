"""Benchmark driver for the waringsums CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of counts, residuals-warm, series-sweeps, tails, or ``all``.
Run from anywhere inside a checkout; the program is taken from ``src/``.

With ``--trace 0`` every command runs as a user runs it, in a fresh
interpreter, timed from outside; the command list repeats for S seconds
and the end-to-end metrics are medians.  With ``--trace 1`` each command
runs once untraced and once traced in-process (see tracer.py), and the
per-layer metrics come from the spans.  Every output is checked (see
checks.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  README.md has the
workloads, the metrics and why they were chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

VERSION_RUNS = 9      # set-up: interpreter start-up plus `import waringsums.cli`
CACHE_BUILDS = 3      # set-up: count-table cache builds, for a median
CHILD_TIMEOUT_S = 150

END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


@dataclass
class ChildRun:
    seconds: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WARINGSUMS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    # waringsums makes no BLAS calls, but numpy's OpenBLAS starts a thread
    # pool at import whose spinning adds about 0.13 s of CPU time to every
    # process, on the other CPU, with its own noise.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args, workdir: Path, stdout: Path) -> ChildRun:
    """Run ``python3 <args>`` alone in ``workdir``; time it and take its own peak RSS."""
    with open(stdout, "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=workdir, env=child_env(),
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would be
            # a running maximum over every child of the driver.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"exit {proc.returncode}: python3 {' '.join(args)}\n{tail}", file=sys.stderr)
    return ChildRun(seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode)


class Ledger:
    """Every command run, with its output digest.

    The first output of each command is kept and checked in full once the
    timed part is over; every later run of that command must reproduce it
    byte for byte.  A run fails on a nonzero exit or a mismatch.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.first = {}   # label -> (command, path, digest)
        self.runs = []    # (label, exit code, digest)

    def run(self, cmd) -> ChildRun:
        stdout = self.workdir / "stdout.txt"
        result = run_child(cmd.args, self.workdir, stdout)
        self.record(cmd, stdout, result.exit_code)
        return result

    def record(self, cmd, stdout: Path, exit_code: int) -> None:
        digest = hashlib.sha256(stdout.read_bytes()).hexdigest()
        if cmd.label not in self.first:
            kept = self.workdir / f"first-{len(self.first)}.txt"
            stdout.replace(kept)
            self.first[cmd.label] = (cmd, kept, digest)
        self.runs.append((cmd.label, exit_code, digest))

    def verdict(self, checker) -> tuple:
        """(attempted, failed), after checking each command's first output."""
        valid = {}
        for label, (cmd, path, _) in self.first.items():
            text = path.read_bytes().decode("utf-8", errors="replace")
            problem = checks.verify(cmd.check, text, checker)
            valid[label] = problem is None
            if problem:
                print(f"check failed: {label}: {problem}", file=sys.stderr)
            else:
                checker.outputs[label] = text
        failed = sum(1 for label, code, digest in self.runs
                     if code != 0 or not valid[label] or digest != self.first[label][2])
        return len(self.runs), failed


def clear_cache(workdir: Path) -> None:
    shutil.rmtree(workdir / "cache", ignore_errors=True)


def setup(workload, ledger: Ledger) -> float:
    """Median start-up CPU time, plus the median CPU time to prepare the inputs."""
    seconds = statistics.median(ledger.run(workloads.VERSION).cpu_s
                                for _ in range(VERSION_RUNS))
    if workload.setup:
        times = []
        for _ in range(CACHE_BUILDS):
            clear_cache(ledger.workdir)
            times.append(sum(ledger.run(cmd).cpu_s for cmd in workload.setup))
        seconds += statistics.median(times)
    return seconds


def measure(workload, ledger: Ledger, budget_s: float) -> dict:
    """End-to-end metrics: repeat the command list while the budget allows.

    Times are CPU seconds (user plus system) of the child processes.  Wall
    time is printed too, but it also counts time the hypervisor steals from
    the machine, which made its run-to-run spread too wide to bound.
    """
    setup_s = setup(workload, ledger)
    wall = {cmd.label: [] for cmd in workload.commands}
    cpu = {cmd.label: [] for cmd in workload.commands}
    peaks = []
    start = time.perf_counter()
    while True:
        peak = 0.0
        for cmd in workload.commands:
            if workload.cold_cache:
                clear_cache(ledger.workdir)
            result = ledger.run(cmd)
            wall[cmd.label].append(result.seconds)
            cpu[cmd.label].append(result.cpu_s)
            peak = max(peak, result.peak_rss_mb)
        peaks.append(peak)
        elapsed = time.perf_counter() - start
        if elapsed * (len(peaks) + 1) / len(peaks) > budget_s:
            break
    print(f"samples wall_s: {json.dumps(wall)}")
    print(f"samples cpu_s: {json.dumps(cpu)}")
    # The command list once: each command's median over the repetitions.
    print(f"{workload.name} wall_s = {sum(map(statistics.median, wall.values()))} s "
          "(unbounded)")
    return {
        "cpu_s": sum(map(statistics.median, cpu.values())),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(peaks),
    }


def trace(workload, ledger: Ledger) -> dict:
    """Per-layer metrics from one untraced and one traced in-process run."""
    for cmd in workload.setup:
        ledger.run(cmd)
    records, untraced_ns, cli_bytes = [], 0, 0
    spans = ledger.workdir / "spans.json"
    for cmd in workload.commands:
        for mode in (["--off"], []):
            if workload.cold_cache:
                clear_cache(ledger.workdir)
            output = ledger.workdir / "output.txt"
            args = [str(BENCH / "tracer.py"), *mode, str(spans), str(output), "--", *cmd.args]
            result = run_child(args, ledger.workdir, ledger.workdir / "stdout.txt")
            ledger.record(cmd, output, result.exit_code)
            if result.exit_code != 0:
                continue
            record = json.loads(spans.read_text())
            if mode:
                untraced_ns += record["wall_ns"]
            else:
                records.append(record)
        if cmd.is_cli:
            cli_bytes += ledger.first[cmd.label][1].stat().st_size
    return tracer.summarize(records, untraced_ns, cli_bytes)


def steal_s() -> float:
    """CPU time the hypervisor took from this machine since boot, all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
    except OSError:
        return float("nan")
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else float("nan")


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.build(name, seed)
    info = machine()
    steal_before = steal_s()
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ledger = Ledger(workdir)
        values = trace(workload, ledger) if traced else measure(workload, ledger, seconds)
        attempted, failed = ledger.verdict(checks.Checker())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    info["loadavg_after"] = os.getloadavg()
    info["steal_s"] = steal_s() - steal_before
    print(f"machine: {json.dumps(info)}")
    units = dict(tracer.PER_LAYER if traced else END_TO_END)
    for metric, value in values.items():
        print(f"{name} {metric} = {value} {units[metric]}")
    print(f"{name} fail_ratio = {failed / attempted} (base: {attempted} commands attempted, "
          f"{failed} failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        # Both modes on every workload; metrics are prefixed by the workload.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in workloads.BUILDERS:
            for traced in (False, True):
                one = run_workload(name, args.seed, args.seconds, traced)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update(
                    {f"{name}/{m}": v for m, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "waringsums" / "cli.py").is_file():
        sys.exit(f"bench/run.py: no waringsums sources under {SRC}")
    sys.path[:0] = [str(SRC)]
    import numpy

    import checks
    import tracer
    import workloads

    sys.exit(main())
