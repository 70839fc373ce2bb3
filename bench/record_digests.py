"""Record the output digests of the default seed's first pass.

    python3 bench/record_digests.py

Runs the default seed's first pass of every workload in this process,
checks its outputs, and writes ``expected_digests.json``: for each
workload, one ``{csv name: sha256}`` map per operation.  ``run.py``
compares every run's default-seed pass against this file.  Record only
from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spectrum_contracts as sc  # noqa: E402

import workloads  # noqa: E402
from worker import _configs, run_pass  # noqa: E402


def main() -> int:
    out = ROOT / ".bench_out" / "record"
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.pass_ops(workload, workloads.DEFAULT_SEED, 0)
            result = run_pass(sc, ops, _configs(sc, ops), out / workload)
            for op in result["ops"]:
                if op["failed"]:
                    print(f"{workload}: {op['problems']}", file=sys.stderr)
                    return 1
            expected[workload] = [op["digests"] for op in result["ops"]]
            print(f"{workload}: {len(ops)} operations in {result['wall_s']:.2f} s")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    path = BENCH / "expected_digests.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
