"""In-memory span recorder that wraps sparsemh functions where their callers look them up.

A span is (name, start, end, parent span, op id). Spans are appended to flat
arrays while a traced phase runs and are turned into self times and
per-layer counters only after timing ends. A layer's self time is its span
duration minus the time covered by its child spans; the calls are
synchronous, so children never overlap.

Several functions are reached through something other than their home
module's attribute (``report`` and ``cli`` import names from the other
modules, ``simulation`` imports the variance kernels, and
``estimate_indicator`` dispatches through two dicts), so each layer name
lists every place its function is looked up. A target the program no longer
has is recorded as missing instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters run after a span's end time is taken; each is O(1) or a single
# numpy reduction so the parent span absorbs almost nothing.
def _parse_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 0, "text"))}


def _filter_counts(args, kwargs, result):
    return {"kept": len(result), "seen": len(_arg(args, kwargs, 0, "ds"))}


def _str_bytes(args, kwargs, result):
    # JSON output is ASCII (ensure_ascii), so characters are bytes
    return {"bytes": len(result)}


def _kernel_bytes_in(args, kwargs, result):
    return {"bytes_in": sum(getattr(x, "nbytes", 8) for x in args)}


def _draw_counts(args, kwargs, result):
    a, b = result
    return {"draws": a.size + b.size, "bytes_out": a.nbytes + b.nbytes}


def _defined_counts(args, kwargs, result):
    defined = result[1]
    return {"defined": int(defined.sum()), "replicates": defined.size}


def _written_bytes(args, kwargs, result):
    return {"bytes": sum(os.stat(p).st_size for p in result)}


# layer name -> (lookup targets, counter). A target is (module, attribute)
# or (module, dict attribute, function name or "*") for dispatch tables.
LAYERS = {
    "cli.main": ([("sparsemh.cli", "main")], None),
    "tables.parse_csv": ([("sparsemh.cli", "parse_csv")], _parse_bytes),
    "tables.filter_informative": ([("sparsemh.report", "filter_informative")], _filter_counts),
    "estimators.stratum_ratios": (
        [("sparsemh.report", "stratum_ratios"), ("sparsemh.estimators", "stratum_ratios")],
        None,
    ),
    "estimators.world_comparison_row": ([("sparsemh.report", "world_comparison_row")], None),
    "estimators.stratum_weights": ([("sparsemh.report", "stratum_weights")], None),
    "estimators.indicator": ([("sparsemh.estimators", "INDICATOR_FN", "*")], None),
    "estimators.transpose": ([("sparsemh.variance", "transpose")], None),
    "variance.var_gr_log_mhrr": (
        [("sparsemh.variance", "_VARIANCE_FN", "var_gr_log_mhrr"), ("sparsemh.variance", "var_gr_log_mhrr")],
        None,
    ),
    "variance.var_gr_log_mhcr": ([("sparsemh.variance", "_VARIANCE_FN", "var_gr_log_mhcr")], None),
    "variance.var_rbg_log_mhor": ([("sparsemh.variance", "_VARIANCE_FN", "var_rbg_log_mhor")], None),
    "variance.var_skm_log_mhq": ([("sparsemh.variance", "_VARIANCE_FN", "var_skm_log_mhq")], None),
    "variance.confidence_interval": ([("sparsemh.variance", "confidence_interval")], None),
    "variance._skm_log_variance": ([("sparsemh.simulation", "_skm_log_variance")], _kernel_bytes_in),
    "variance._rbg_log_variance": ([("sparsemh.simulation", "_rbg_log_variance")], _kernel_bytes_in),
    "variance.var_skm_log_mhq_true": ([("sparsemh.simulation", "var_skm_log_mhq_true")], None),
    "variance.var_bh_log_mhq_true": ([("sparsemh.simulation", "var_bh_log_mhq_true")], None),
    "report.build_report": ([("sparsemh.cli", "build_report")], None),
    "report.render_json": ([("sparsemh.cli", "render_json")], _str_bytes),
    "simulation._rep_p1s": ([("sparsemh.simulation", "_rep_p1s")], None),
    "simulation._draw_count_matrices_streamed": (
        [("sparsemh.simulation", "_draw_count_matrices_streamed")],
        _draw_counts,
    ),
    "simulation._ln_mhq_from_counts": ([("sparsemh.simulation", "_ln_mhq_from_counts")], _defined_counts),
    "simulation._coverage_rep": ([("sparsemh.simulation", "_coverage_rep")], None),
    "simulation._bias_rep": ([("sparsemh.simulation", "_bias_rep")], None),
    "simulation._run_reps": ([("sparsemh.simulation", "_run_reps")], None),
    "simulation.StudySummary.write": ([("sparsemh.simulation", "StudySummary.write")], _written_bytes),
}


class Tracer:
    """Records spans for ``layers`` (default: all of :data:`LAYERS`) while installed."""

    def __init__(self, layers=tuple(LAYERS)) -> None:
        self.names = list(layers)
        self.name_ids = array("H")
        self.parents = array("l")
        self.op_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[tuple[str, str], float] = {}
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _wrapper(self, name_id, fn, counter):
        name = self.names[name_id]
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        starts, ends, stack, counters = self.starts, self.ends, self._stack, self.counters
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[name, key] = counters.get((name, key), 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.missing = []
        for name_id, name in enumerate(self.names):
            targets, counter = LAYERS[name]
            for target in targets:
                if not self._install_one(name_id, target, counter):
                    self.missing.append(f"{name} <- {':'.join(target)}")

    def _install_one(self, name_id, target, counter) -> bool:
        try:
            module = importlib.import_module(target[0])
        except ImportError:
            return False
        if len(target) == 3:
            table = getattr(module, target[1], None)
            if not isinstance(table, dict):
                return False
            keys = [k for k, fn in table.items() if target[2] in ("*", getattr(fn, "__name__", None))]
            for key in keys:
                original = table[key]
                table[key] = self._wrapper(name_id, original, counter)
                self._restore.append(functools.partial(table.__setitem__, key, original))
            return bool(keys)
        owner = module
        *path, attr = target[1].split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        setattr(owner, attr, self._wrapper(name_id, original, counter))
        self._restore.append(functools.partial(setattr, owner, attr, original))
        return True

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def summary(self) -> dict[str, tuple[float, float, int]]:
        """(self seconds, total seconds, calls) per layer name over every recorded span."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        out = {name: [0.0, 0.0, 0] for name in self.names}
        for i, name_id in enumerate(self.name_ids):
            entry = out[self.names[name_id]]
            entry[0] += durations[i] - child[i]
            entry[1] += durations[i]
            entry[2] += 1
        return {name: tuple(entry) for name, entry in out.items()}

    def write(self, path) -> None:
        """Write every span as CSV: op,span,parent,name,start_s,end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{self.op_ids[i]},{i},{self.parents[i]},{self.names[self.name_ids[i]]},"
                    f"{self.starts[i]!r},{self.ends[i]!r}\n"
                )
