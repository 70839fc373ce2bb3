"""Correctness checks on the CSVs one operation wrote.

The checks read only the written files and the sizes the generator
recorded in ``Op.meta``; they use no code of the package, so a wrong
result cannot vouch for itself.  What they test holds for every seed:

* solve: each objective's contract is monotone and within budget,
  surpluses are non-negative (individual rationality), the trace covers
  every budget 0..M, and the summary's objective value equals the best
  value of the trace.
* load sweep: one row per load, and revenue and welfare never rise as
  the base-station load rises (selling channels only gets dearer).
* height sweep: one row per height, kept plus excluded UAVs add up to
  the fleet, and the owned area fits in the window.
* oracle: the report has a row per instance and objective, all matched.

On the default seed's inputs the digests must also equal the values
recorded in ``expected_digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

REL_TOL = 1e-9

# (file stem, summary name, objective value column) per objective.
OBJECTIVES = (("mbs", "mbs-revenue", "revenue"), ("social", "social-welfare", "welfare"))


def strip_timestamp(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# timestamp:")
    )


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every timestamp-stripped CSV under ``out_dir``."""
    return {
        path.name: hashlib.sha256(
            strip_timestamp(path.read_text(encoding="utf-8")).encode("utf-8")
        ).hexdigest()
        for path in sorted(out_dir.glob("*.csv"))
    }


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _check_solve(out_dir: Path, meta: dict) -> list[str]:
    problems = []
    types, channels, counts = meta["types"], meta["channels"], meta["counts"]
    summary = {row["objective"]: row for row in _rows(out_dir / "summary.csv")}
    for stem, objective, column in OBJECTIVES:
        contract = _rows(out_dir / f"contract_{stem}.csv")
        trace = _rows(out_dir / f"trace_{stem}.csv")
        row = summary[objective]
        w = [int(r["w_t"]) for r in contract]
        prices = [float(r["p_t"]) for r in contract]
        sold = sum(c * v for c, v in zip(counts, w))
        if len(contract) != types:
            problems.append(f"{stem}: {len(contract)} contract rows for {types} types")
        if any(b < a for a, b in zip(w, w[1:])):
            problems.append(f"{stem}: assignment {w} is not monotone")
        if sold != int(row["sold"]) or sold > channels:
            problems.append(f"{stem}: sold {row['sold']}, contract hands out {sold} of {channels}")
        if any(float(r["surplus"]) < -REL_TOL for r in contract):
            problems.append(f"{stem}: a type has negative surplus")
        paid = sum(c * p for c, p in zip(counts, prices))
        if not _close(paid, float(row["prices_total"])):
            problems.append(f"{stem}: prices_total {row['prices_total']} but prices sum to {paid!r}")
        if [int(r["capacity"]) for r in trace] != list(range(channels + 1)):
            problems.append(f"{stem}: trace does not cover budgets 0..{channels}")
            continue
        best = max(float(r["objective_value"]) for r in trace)
        if not _close(best, float(row[column])):
            problems.append(f"{stem}: {column} {row[column]} but the trace peaks at {best!r}")
    return problems


def _check_sweep(out_dir: Path, meta: dict) -> list[str]:
    rows = _rows(out_dir / "sweep.csv")
    if len(rows) != meta["values"]:
        return [f"sweep has {len(rows)} rows for {meta['values']} values"]
    problems = []
    if meta.get("load"):
        for stem, _, column in OBJECTIVES:
            series = [float(r[f"{stem}_{column}"]) for r in rows]
            for lo, hi in zip(series, series[1:]):
                if hi > lo and not _close(lo, hi):
                    problems.append(f"{stem}_{column} rises with load: {lo!r} -> {hi!r}")
                    break
    else:
        for r in rows:
            if int(r["n_types"]) + int(r["n_excluded"]) != meta["uavs"]:
                problems.append(f"height {r['height']}: types and exclusions miss UAVs")
            if float(r["total_area_m2"]) > meta["window_m2"]:
                problems.append(f"height {r['height']}: owned area exceeds the window")
    return problems


def _check_oracle(out_dir: Path, instances: int) -> list[str]:
    """One problem per instance and objective that is missing or unmatched."""
    rows = _rows(out_dir / "oracle_report.csv")
    problems = [
        f"instance {r['instance']} ({r['objective']}): dp {r['dp_value']} vs brute force {r['bf_value']}"
        for r in rows
        if r["matched"] != "1"
    ]
    missing = 2 * instances - len(rows)
    problems += [f"oracle report lacks {missing} rows"] * max(missing, 0)
    return problems


def check_op(kind: str, out_dir: Path, meta: dict, instances: int = 0) -> list[str]:
    """Problems found in one operation's outputs; empty when correct.

    Each problem of an oracle operation is one failed instance and
    objective.
    """
    try:
        if kind == "solve":
            return _check_solve(out_dir, meta)
        if kind == "sweep":
            return _check_sweep(out_dir, meta)
        return _check_oracle(out_dir, instances)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
