"""Per-layer tracing from outside the package.

The tracer replaces public functions of each layer with wrappers while
it is installed.  A name imported with ``from .stochastic import
cost_table`` is a second binding in the importing module, so every
module of the package that holds the same function object is patched,
not only the module that defines it.

A span records its name, start, end (``perf_counter_ns``) and parent
span.  Spans are kept in flat in-memory arrays while the traced pass
runs and reduced when it ends: a span's self time is its duration minus
the durations of its child spans, which nest inside it because the run
is single threaded.  Counters are exact counts of work, gathered by
looking at each wrapped call's arguments and result.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "spectrum_contracts"

# (module, function, metric receiving the span's self time).
SPANS = (
    ("config", "loads_config", "config.load_s"),
    ("config", "config_hash", "config.hash_s"),
    ("geometry", "partition_regions", "geometry.partition_s"),
    ("geometry", "derive_types", "geometry.derive_s"),
    ("stochastic", "utility_table", "stochastic.utility_table_s"),
    ("stochastic", "cost_table", "stochastic.cost_table_s"),
    ("stochastic", "mbs_cost", "stochastic.mbs_cost_s"),
    ("contract", "gain", "contract.gain_s"),
    ("contract", "optimal_prices", "contract.pricing_s"),
    ("contract", "revenue", "contract.evaluate_s"),
    ("contract", "social_welfare", "contract.evaluate_s"),
    ("solver", "build_tables", "solver.build_tables_s"),
    ("solver", "solve", "solver.solve_s"),
    ("solver", "saturation_cap", "solver.saturation_cap_s"),
    ("solver", "brute_force_solve", "solver.bruteforce_s"),
    ("runner", "run_solve", "runner.self_s"),
    ("runner", "run_sweep", "runner.self_s"),
    ("runner", "run_oracle_check", "runner.self_s"),
    # The runner's only file writer; private, but every CSV goes through it.
    ("runner", "_write", "runner.csv_write_s"),
)

# Calls of these spans are reported as counts.
CALL_COUNTS = {
    "geometry.partition_regions": "geometry.partition_calls",
    "stochastic.utility_table": "stochastic.utility_table_calls",
    "contract.gain": "contract.gain_calls",
    "solver.build_tables": "solver.tables_built",
}

# Functions counted without a span: too many calls for a span each, or
# already inside a span that times them.  The last field says whether a
# call adds its result (the number of assignments enumerated) or one.
COUNTED = (
    ("stochastic", "poisson_tail", "stochastic.poisson_tail_calls", False),
    ("solver", "count_monotone_assignments", "solver.bruteforce_assignments", True),
)

# Values the wrappers gather from arguments and results: sums, except
# for table_bytes, the largest DP table pair built.
COUNT_METRICS = (
    "geometry.cells_scored",
    "stochastic.utility_entries",
    "stochastic.poisson_tail_calls",
    "solver.dp_cells",
    "solver.bruteforce_assignments",
    "solver.table_bytes",
    "runner.csv_bytes",
    "runner.files_written",
)


def _observe_partition(counts, args, kwargs, grid):
    cells = int(grid.owner.size)
    uavs = len(grid.areas)
    counts["geometry.cells_scored"] += cells * (1 + uavs)
    counts["geometry.uav_cell_evaluations"] += cells * uavs
    counts["geometry.uav_owned_cells"] += int((grid.owner >= 0).sum())


def _observe_utility_table(counts, args, kwargs, table):
    counts["stochastic.utility_entries"] += len(table)


def _observe_build_tables(counts, args, kwargs, tables):
    counts["solver.dp_cells"] += int(tables.opt.size)
    size = int(tables.opt.nbytes + tables.decision.nbytes)
    counts["solver.table_bytes"] = max(counts["solver.table_bytes"], size)


def _observe_write(counts, args, kwargs, path):
    counts["runner.csv_bytes"] += os.path.getsize(path)
    counts["runner.files_written"] += 1


OBSERVERS = {
    "geometry.partition_regions": _observe_partition,
    "stochastic.utility_table": _observe_utility_table,
    "solver.build_tables": _observe_build_tables,
    "runner._write": _observe_write,
}


class Tracer:
    """Span and counter recorder; install it around the code to trace."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids = array("H")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, observe):
        ident = len(self.span_names)
        self.span_names.append(name)
        name_ids, starts, ends, parents = self._name_ids, self._starts, self._ends, self._parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(ident)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, metric: str, fn, by_result: bool):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[metric] += result if by_result else 1
            return result

        return wrapper

    def _patch(self, module_name: str, func: str, make):
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(module, func, None)
        if original is None:
            if f"{module_name}.{func}" not in self.missing:
                self.missing.append(f"{module_name}.{func}")
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function in every module that binds it."""
        for module_name, func, _ in SPANS:
            key = f"{module_name}.{func}"
            self._patch(
                module_name,
                func,
                lambda fn, key=key: self._span(key, fn, OBSERVERS.get(key)),
            )
        for module_name, func, metric, by_result in COUNTED:
            self._patch(
                module_name,
                func,
                lambda fn, metric=metric, by_result=by_result: self._counter(metric, fn, by_result),
            )

    def uninstall(self) -> None:
        """Put every original binding back."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: self seconds per metric, counts, ratios."""
        n = len(self._starts)
        starts, ends, parents = self._starts, self._ends, self._parents
        child = [0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        self_ns = [0] * len(self.span_names)
        calls = [0] * len(self.span_names)
        for i, ident in enumerate(self._name_ids):
            self_ns[ident] += ends[i] - starts[i] - child[i]
            calls[ident] += 1

        out: dict[str, float] = {metric: 0.0 for _, _, metric in SPANS}
        out.update({metric: self.counts[metric] for metric in COUNT_METRICS})
        out.update({metric: 0 for metric in CALL_COUNTS.values()})
        span_metric = {f"{m}.{f}": metric for m, f, metric in SPANS}
        for ident, name in enumerate(self.span_names):
            out[span_metric[name]] += self_ns[ident] / 1e9
            if name in CALL_COUNTS:
                out[CALL_COUNTS[name]] += calls[ident]
        evaluations = self.counts["geometry.uav_cell_evaluations"]
        out["geometry.owned_ratio"] = (
            self.counts["geometry.uav_owned_cells"] / evaluations if evaluations else 0.0
        )
        out["trace.spans"] = n
        return out
