"""Self-test of the benchmark on the tiny census, in about a minute.

    python3 perfbench/selftest.py

Runs every workload untraced and traced and expects no failure, then plants
one fault per check and expects each to raise the failed count:
a flipped byte in a table, a rejection that exits 0, a missing ECDF file
and a trace that lacks a wrapped layer.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

CLEAN = [(workload, trace) for workload in ("paper2010", "wide-census", "reject-late")
         for trace in (0, 1)]
FAULTS = [("paper2010", 0, "flip-table-byte"), ("reject-late", 0, "reject-exit-0"),
          ("paper2010", 0, "drop-ecdf"), ("paper2010", 1, "skip-layer")]


def bench(workload: str, trace: int, fault: str | None = None) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--scale", "tiny",
           "--seconds", "1", "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload, trace in CLEAN:
        result = bench(workload, trace)
        good = result["correct"] and result["failed"] == 0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}: "
              f"{result['failed']}/{result['attempted']} failed")
    for workload, trace, fault in FAULTS:
        result = bench(workload, trace, fault)
        caught = not result["correct"] and result["failed"] > 0
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {workload} trace={trace} fault={fault}: "
              f"{result['failed']}/{result['attempted']} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
