"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each run starts fresh worker
processes (``worker.py``) on the checkout's ``src``: one thread each,
calling the public runner functions in sequence (a closed loop with one
client).  The last line of stdout is the result as JSON; the lines
before it record the environment, the SHA-256 of every output CSV of
every pass, and the raw value of every pass.

``--trace 0`` reports the end-to-end metrics: medians over the timed
passes of one worker, and the median set-up time over several fresh
processes.  ``--trace 1`` reports the per-layer metrics of traced
passes, one per fresh worker, until ``--seconds`` have gone (at least
two, whose counts must agree exactly), and the tracing overhead.

Outputs go to ``.bench_out/`` in the checkout and are deleted when the
run ends, after every timer has stopped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# Fresh processes that only set up; the first one is discarded because
# it may have to compile the package's bytecode.
SETUP_PROBES = 5
MIN_TRACED_WORKERS = 2
# Every worker must end before this many seconds into the run.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, args, started: float, out_dir: Path | None = None) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if out_dir is not None:
        cmd += ["--out", str(out_dir)]
    timeout = DEADLINE_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise BenchError("no time left to start another worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self, workload: str):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = json.loads((BENCH / "expected_digests.json").read_text())[workload]

    def add(self, label: str, result: dict, recorded: bool) -> None:
        """Count one pass; ``recorded`` passes ran the default seed's inputs."""
        if recorded and len(result["ops"]) != len(self.expected):
            raise BenchError(f"{label}: {len(result['ops'])} operations, recorded {len(self.expected)}")
        for index, op in enumerate(result["ops"]):
            failed = op["failed"]
            problems = list(op["problems"])
            if recorded and op["digests"] != self.expected[index]:
                failed = op["attempted"]
                problems.append("output digests differ from the recorded default-seed outputs")
            self.attempted += op["attempted"]
            self.failed += failed
            self.problems += [f"{label} op{index}: {p}" for p in problems]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _print_digests(label: str, seed: int, pass_index: int, result: dict) -> None:
    for index, op in enumerate(result["ops"]):
        for name, sha in op["digests"].items():
            print(f"digest {label} seed={seed} pass={pass_index} op={index} {name} {sha}")


def measure_run(args, run_dir: Path, started: float, tally: Tally, record: dict) -> dict:
    setups = [
        _worker("setup", args, started)["setup_s"] for _ in range(SETUP_PROBES + 1)
    ][1:]
    report = _worker("measure", args, started, run_dir)
    setups.append(report["setup_s"])

    warm = report["warmup"]
    tally.add("warmup", warm, warm["seed"] == workloads.DEFAULT_SEED)
    _print_digests("warmup", warm["seed"], 0, warm)
    for index, result in enumerate(report["passes"]):
        tally.add(f"pass{index}", result, args.seed == workloads.DEFAULT_SEED and index == 0)
        _print_digests(f"pass{index}", args.seed, index, result)

    walls = [p["wall_s"] for p in report["passes"]]
    cpus = [p["cpu_s"] for p in report["passes"]]
    record.update(
        versions=report["versions"],
        raw={"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "peak_rss_mb": report["peak_rss_mb"]},
    )
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def trace_run(args, run_dir: Path, started: float, tally: Tally, record: dict) -> dict:
    reports = []
    while len(reports) < MIN_TRACED_WORKERS or time.perf_counter() - started < args.seconds:
        report = _worker("trace", args, started, run_dir / f"worker{len(reports)}")
        label = f"worker{len(reports)}"
        warm = report["warmup"]
        tally.add(f"{label} warmup", warm, warm["seed"] == workloads.DEFAULT_SEED)
        tally.add(f"{label} untraced", report["untraced"], False)
        tally.add(f"{label} traced", report["traced"], args.seed == workloads.DEFAULT_SEED)
        _print_digests(f"{label}-traced", args.seed, 0, report["traced"])
        reports.append(report)

    first = reports[0]
    for missing in first["missing"]:
        print(f"note: {missing} not found in the package; its metrics read 0")
    for label, report in enumerate(reports[1:], start=1):
        for name, value in first["layers"].items():
            if not name.endswith("_s") and report["layers"][name] != value:
                tally.failed += 1
                tally.problems.append(
                    f"worker{label}: count {name}={report['layers'][name]} differs from {value}"
                )
        if [op["digests"] for op in report["traced"]["ops"]] != [
            op["digests"] for op in first["traced"]["ops"]
        ]:
            tally.failed += 1
            tally.problems.append(f"worker{label}: traced outputs differ between workers")

    traced = [r["traced"]["wall_s"] for r in reports]
    untraced = [r["untraced"]["wall_s"] for r in reports]
    metrics = {}
    for name, value in first["layers"].items():
        if name.endswith("_s"):
            value = statistics.median(r["layers"][name] for r in reports)
        metrics[name] = (value, _unit(name))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    record.update(
        versions=first["versions"],
        raw={
            "traced_wall_s": traced,
            "untraced_wall_s": untraced,
            "layers": [r["layers"] for r in reports],
        },
    )
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "B" if name.endswith("_bytes") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="Time one benchmark workload.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # On SIGTERM, exit through the handlers that kill and reap a running
    # worker and delete the outputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "spectrum_contracts" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'spectrum_contracts'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": os.getloadavg(),
    }
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        tally = Tally(args.workload)
        run = trace_run if args.trace else measure_run
        metrics = run(args, run_dir, started, tally, record)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    record["loadavg_end"] = os.getloadavg()
    print("record " + json.dumps(record))
    for problem in tally.problems[:20]:
        print(f"problem {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {tally.error_rate!r} fraction ({tally.failed} of {tally.attempted} operations failed)")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
