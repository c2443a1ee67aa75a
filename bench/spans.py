"""Spans recorded around witnesslab's public functions, from outside the package.

The tracer wraps every public function of the layer modules (``cli``,
``scan``, ``oracle``, ``states``, ``witness``, ``linalg``).  Because the
package uses ``from .x import y``, one function is bound in several
modules (``evaluate`` in ``witness``, ``cli``, ``scan``, ``oracle``, ...),
so the wrapper replaces every module attribute that binds it.  Calls to
private helpers are not spans; their time is self time of the public
function that made them.

A span is (name, start, end, parent span, job id).  Spans stay in memory,
in flat arrays, until the run ends.  A span's self time is its duration
minus the time its direct children cover; a name's busy time is the
total duration of its spans that have no ancestor of the same name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "scan", "oracle", "states", "witness", "linalg")


def _terms_built(state) -> int:
    pures = getattr(state, "pures", None)
    return sum(len(p.terms) for p in pures) if pures is not None else len(state.terms)


def _psd_power_counts(result) -> dict:
    dim = result.shape[0]
    return {"linalg.psd_power.ops_computed": dim**3, "linalg.psd_power.max_dim": dim}


#: Counts taken from a wrapped call's arguments and result, per span name.
COUNTERS = {
    "scan.find_threshold": lambda args, result: {
        "scan.find_threshold.evaluations": result.evaluations
    },
    "scan.sweep_to_csv": lambda args, result: {"scan.sweep_to_csv.bytes": len(result.encode())},
    "states.build_state": lambda args, result: {"states.terms": _terms_built(result)},
    "linalg.psd_power": lambda args, result: _psd_power_counts(result),
    "linalg.kron_embed": lambda args, result: {"linalg.kron_embed.bytes_computed": result.nbytes},
}

#: Counters combined by maximum rather than by sum.
MAX_COUNTERS = ("linalg.psd_power.max_dim",)


def merge_counts(totals: dict, values: dict) -> None:
    for key, value in values.items():
        if key in MAX_COUNTERS:
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value


def public_functions():
    """(span name, function) for every public function defined in a layer module."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"witnesslab.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == module.__name__
            ):
                found.append((f"{layer}.{name}", obj))
    return found


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    starts, ends, parents = np.asarray(starts), np.asarray(ends), np.asarray(parents)
    durations = ends - starts
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=durations[nested], minlength=len(starts))
    return durations - covered


class Tracer:
    """In-memory span recorder that can be installed into and removed from witnesslab."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.jobs = array("i")
        self.outer = array("b")  # no open ancestor of the same name
        self.counts: dict[int, dict[str, int]] = {}  # job id -> counter totals
        self.sites: dict[int, int] = {}  # rhs_condition2 span -> number of sites
        self.job = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._wrappers: dict = {}  # original function -> recording wrapper
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        counter = COUNTERS.get(name)
        is_rhs2 = name == "witness.rhs_condition2"

        def traced(*args, **kwargs):
            index = len(self.ends)
            self.name_col.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.jobs.append(self.job)
            self.outer.append(self._depth[name_id] == 0)
            self.ends.append(0.0)
            self._stack.append(index)
            self._depth[name_id] += 1
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._depth[name_id] -= 1
                self._stack.pop()
            if counter is not None:
                merge_counts(self.counts.setdefault(self.job, {}), counter(args, result))
            if is_rhs2:
                self.sites[index] = len((args[0] if args else kwargs["state"]).dims)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Bind a recording wrapper in place of every public layer function."""
        if not self._wrappers:
            self._wrappers = {fn: self._wrap(name, fn) for name, fn in public_functions()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "witnesslab" and not module_name.startswith("witnesslab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._installed.append((module, attr, value))

    def remove(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def arrays(self) -> dict:
        """Column copies of every span recorded so far, with self times."""
        cols = {
            "name": np.array(self.name_col, dtype=np.int32),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "parent": np.array(self.parents, dtype=np.int32),
            "job": np.array(self.jobs, dtype=np.int32),
            "outer": np.array(self.outer, dtype=bool),
        }
        cols["self"] = self_times(cols["start"], cols["end"], cols["parent"])
        return cols


class SpanTable:
    """Per-name sums over the spans of some jobs (one pass, or all of them)."""

    def __init__(self, tracer: Tracer, cols: dict, jobs):
        keep = np.isin(cols["job"], np.asarray(list(jobs), dtype=np.int32))
        self.names = tracer.names
        self.sites = tracer.sites
        self.all_names = cols["name"]
        self.name = cols["name"][keep]
        self.duration = (cols["end"] - cols["start"])[keep]
        self.self_time = cols["self"][keep]
        self.outer = cols["outer"][keep]
        self.parent = cols["parent"][keep]
        self.counters: dict[str, int] = {}
        for job in jobs:
            merge_counts(self.counters, tracer.counts.get(job, {}))

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def busy(self, name: str) -> float:
        return float(self.duration[self._mask(name) & self.outer].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def dense_rhs2(self) -> tuple[int, int, int, int]:
        """(rhs2 spans, rhs2 spans with a kron_embed child, kron_embed
        calls under those, sum of sites over those)."""
        kron = self._mask("linalg.kron_embed") & (self.parent >= 0)
        parents = self.parent[kron]
        under_rhs2 = parents[self.all_names[parents] == self.names.index("witness.rhs_condition2")]
        dense = np.unique(under_rhs2)
        return (
            self.calls("witness.rhs_condition2"),
            len(dense),
            len(under_rhs2),
            sum(self.sites[int(i)] for i in dense),
        )

    def signature(self) -> tuple:
        """Call counts per name and counter totals: the deterministic part."""
        calls = np.bincount(self.name, minlength=len(self.names))
        return tuple(int(c) for c in calls), tuple(sorted(self.counters.items()))
