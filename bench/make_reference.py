"""Record reference.json: outputs of the commands checked against stored values.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 bench/make_reference.py

Only commands without an independent cheap reference are stored (see
checks.py).  Their inputs do not depend on the workload seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    env.pop("WARINGSUMS_THREADS", None)
    stored = {}
    for name in workloads.BUILDERS:
        for cmd in workloads.build(name, 0).commands:
            check = cmd.check.func
            if check not in (checks.stored_rows, checks.stored_value):
                continue
            text = subprocess.run([sys.executable, *cmd.args], env=env, check=True,
                                  capture_output=True, text=True).stdout
            key = cmd.check.keywords["key"]
            if check is checks.stored_value:
                stored[key] = float(text)
                continue
            lines = text.splitlines()
            columns = lines[2].split(",")
            exact = cmd.check.keywords["exact"]
            stored[key] = {"columns": columns, "rows": [
                [int(v) if c in exact else float(v) for c, v in zip(columns, line.split(","))]
                for line in lines[3:]
            ]}
    (BENCH / "reference.json").write_text(json.dumps(stored, indent=1) + "\n")


if __name__ == "__main__":
    main()
