"""One workload process: set up, warm up on another seed, then time passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; it prints one JSON object on stdout and nothing else.  Modes:

* ``setup``: time ``import spectrum_contracts`` plus ``loads_config`` and
  ``config_hash`` of the first pass's configs, then exit.
* ``measure``: setup as above, a warm-up pass on another seed, then
  untraced timed passes on fresh inputs until ``--seconds`` have gone.
* ``trace``: warm-up, one untraced pass, then one traced pass on the
  first pass's inputs (config loading of the setup is traced too).

The package is imported only inside the setup timer, so nothing before
it may import numpy or yaml.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads

# Never start a pass that could end after this many seconds of measuring.
MEASURE_BUDGET_S = 120.0
MIN_PASSES = 3


def _configs(sc, ops):
    return [sc.loads_config(op.config) if op.config is not None else None for op in ops]


def _first_pass(sc, workload: str, seed: int):
    """Load and hash the first pass's configs: the set-up of a run."""
    ops = workloads.pass_ops(workload, seed, 0)
    configs = _configs(sc, ops)
    for config in configs:
        if config is not None:
            sc.config_hash(config)
    return ops, configs


def _call(sc, op, config, out_dir: Path):
    if op.kind == "solve":
        return sc.run_solve(config, out_dir=str(out_dir), threads=1)
    if op.kind == "sweep":
        return sc.run_sweep(config, out_dir=str(out_dir), threads=1)
    return sc.run_oracle_check(instances=op.instances, seed=op.seed, out_dir=str(out_dir))


def run_pass(sc, ops, configs, out_dir: Path) -> dict:
    """Time one pass, then check its outputs.

    The timer runs from the first runner call to the last CSV written;
    every pass writes into its own new directory, and nothing is
    deleted while the timer runs.
    """
    errors = []
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    for index, (op, config) in enumerate(zip(ops, configs)):
        try:
            _call(sc, op, config, out_dir / f"op{index}")
        except Exception:  # a failing call is a failed operation, not a crash
            errors.append((index, traceback.format_exc(limit=3)))
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start

    failed_calls = dict(errors)
    result = {"wall_s": wall, "cpu_s": cpu, "ops": []}
    for index, op in enumerate(ops):
        op_dir = out_dir / f"op{index}"
        weight = 2 * op.instances if op.kind == "oracle" else 1
        if index in failed_calls:
            problems = [failed_calls[index]]
            failed = weight
        else:
            problems = checks.check_op(op.kind, op_dir, op.meta, op.instances)
            failed = min(weight, len(problems))
        result["ops"].append(
            {
                "kind": op.kind,
                "attempted": weight,
                "failed": failed,
                "problems": problems[:5],
                "digests": checks.digests(op_dir) if op_dir.is_dir() else {},
            }
        )
    return result


def _versions() -> dict:
    import numpy
    import yaml

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    if args.mode == "trace":
        import spectrum_contracts as sc
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        ops, configs = _first_pass(sc, args.workload, args.seed)
        tracer.uninstall()
        setup_s = None
    else:
        start = time.perf_counter()
        import spectrum_contracts as sc

        ops, configs = _first_pass(sc, args.workload, args.seed)
        setup_s = time.perf_counter() - start
    report = {"setup_s": setup_s, "passes": []}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    def load(seed, pass_index):
        pass_ops = workloads.pass_ops(args.workload, seed, pass_index)
        return pass_ops, _configs(sc, pass_ops)

    warm_seed = workloads.warmup_seed(args.seed)
    report["warmup"] = dict(run_pass(sc, *load(warm_seed, 0), args.out / "warmup"), seed=warm_seed)

    if args.mode == "trace":
        report["untraced"] = run_pass(sc, *load(args.seed, 1), args.out / "untraced")
        tracer.install()
        report["traced"] = run_pass(sc, ops, configs, args.out / "traced")
        tracer.uninstall()
        report["layers"] = tracer.metrics()
        report["missing"] = tracer.missing
    else:
        started = time.perf_counter()
        pass_index = 0
        while True:
            # Start a pass only if, at the mean pass time so far, it ends
            # within --seconds (or the budget while MIN_PASSES is unmet).
            elapsed = time.perf_counter() - started
            expected_end = elapsed * (pass_index + 1) / pass_index if pass_index else 0.0
            if expected_end > (args.seconds if pass_index >= MIN_PASSES else MEASURE_BUDGET_S):
                break
            if pass_index:
                ops, configs = load(args.seed, pass_index)
            report["passes"].append(
                run_pass(sc, ops, configs, args.out / f"pass{pass_index}")
            )
            pass_index += 1

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = _versions()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
