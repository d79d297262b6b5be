"""Span tracing of ptladder's layers, installed from outside the package.

``Tracer.install()`` replaces the public entry points of each layer (and
the two pool-task boundaries ``_grid_eigvals`` and ``_map_column``) with
recording wrappers.  A name is replaced in every ptladder module that
holds it, because callers look names up in their own globals: ``spectral``
reaches ``build_real_space_hamiltonian`` and ``eigendecompose`` through its
own namespace, and ``cli`` imports ``transmission_map``,
``zero_energy_trace`` and ``sweep_spectrum`` into its namespace.

Spans live in memory.  Process-pool workers are forked while a traced
call is open, so they inherit the wrappers; each worker appends its spans
to a spool file when its outermost span closes (a pool task), and
``drain()`` folds the spool files back into the parent's list.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time
from pathlib import Path

# (module, attribute, layer).  Layer names are the package modules.
TARGETS = (
    ("ptladder.lattice", "build_real_space_hamiltonian", "lattice"),
    ("ptladder.lattice", "build_bloch_hamiltonian", "lattice"),
    ("ptladder.spectral", "eigendecompose", "spectral"),
    ("ptladder.spectral", "sweep_spectrum", "spectral"),
    ("ptladder.spectral", "locate_exceptional_points", "spectral"),
    ("ptladder.spectral", "locate_zero_energy_eps", "spectral"),
    ("ptladder.spectral", "_match_step", "spectral"),
    ("ptladder.spectral", "_grid_eigvals", "spectral"),
    ("ptladder.rotation", "mode_weights", "rotation"),
    ("ptladder.transport", "transmission_map", "transport"),
    ("ptladder.transport", "zero_energy_trace", "transport"),
    ("ptladder.transport", "_map_column", "transport"),
    ("ptladder.transport", "solve_scattering", "transport"),
    ("ptladder.cli", "main", "cli"),
    ("ptladder.cli", "emit_csv", "cli"),
    ("ptladder.cli", "emit_json", "cli"),
)

PACKAGE_MODULES = (
    "ptladder",
    "ptladder.lattice",
    "ptladder.spectral",
    "ptladder.rotation",
    "ptladder.transport",
    "ptladder.cli",
)

LAYERS = ("lattice", "spectral", "rotation", "transport", "cli")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _eig_attrs(args, kwargs, result):
    return {
        "n": int(_arg(args, kwargs, 0, "matrix").shape[0]),
        "vectors": bool(_arg(args, kwargs, 1, "want_vectors", False)),
    }


def _points_attrs(args, kwargs, result):
    return {"points": len(result)}


def _grid_attrs(args, kwargs, result):
    return {"workers": int(_arg(args, kwargs, 2, "workers", 1))}


def _map_attrs(args, kwargs, result):
    return {
        "workers": int(kwargs.get("workers", 1)),
        "cells": int(result.t_values.size),
        "nan": int(result.n_failed),
    }


def _trace_attrs(args, kwargs, result):
    return {"points": len(result), "nan": sum(1 for _, t in result if not math.isfinite(t))}


def _column_attrs(args, kwargs, result):
    spec, _, energies, _, _ = args[0]
    return {"lanes": int(len(energies)), "cells": int(spec.n_cells)}


def _csv_attrs(args, kwargs, result):
    path, rows = _arg(args, kwargs, 0, "path"), _arg(args, kwargs, 2, "rows")
    return {"bytes": os.path.getsize(path), "rows": len(rows)}


def _json_attrs(args, kwargs, result):
    path, rows = _arg(args, kwargs, 0, "path"), _arg(args, kwargs, 3, "rows")
    return {"bytes": os.path.getsize(path), "rows": len(rows)}


ATTRS = {
    "eigendecompose": _eig_attrs,
    "locate_exceptional_points": _points_attrs,
    "locate_zero_energy_eps": _points_attrs,
    "_grid_eigvals": _grid_attrs,
    "transmission_map": _map_attrs,
    "zero_energy_trace": _trace_attrs,
    "_map_column": _column_attrs,
    "emit_csv": _csv_attrs,
    "emit_json": _json_attrs,
}


def _resolve(module: str, attr: str):
    """Unpickling hook: a forked pool worker finds the wrapper it inherited."""
    return getattr(importlib.import_module(module), attr)


class _Traced:
    """Recording stand-in for one package function; pickles by name."""

    def __init__(self, tracer: "Tracer", module: str, attr: str, layer: str, fn):
        self._tracer = tracer
        self._module = module
        self._attr = attr
        self._layer = layer
        self._fn = fn

    def __call__(self, *args, **kwargs):
        tracer = self._tracer
        span = tracer.open(f"{self._layer}.{self._attr}", self._layer)
        try:
            result = self._fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            tracer.close(span)
            raise
        attrs = ATTRS.get(self._attr)
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, result)
        tracer.close(span)
        return result

    def __reduce__(self):
        return (_resolve, (self._module, self._attr))


_active: "Tracer | None" = None


def _after_fork_in_child() -> None:
    if _active is not None:
        _active._become_worker()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """Collects spans (name, layer, start, end, parent, pid, attrs)."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.in_worker = False
        self.fork_parent: str | None = None
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self._count = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> dict:
        self._count += 1
        parent = self.stack[-1]["id"] if self.stack else self.fork_parent
        span = {
            "id": f"{self.pid}:{self._count}",
            "parent": parent,
            "name": name,
            "layer": layer,
            "pid": self.pid,
            "worker": self.in_worker,
            "start": time.perf_counter(),
        }
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)
        if self.in_worker and not self.stack:
            # One pool task finished: hand its spans to the parent.
            with open(self.spool_dir / f"spans-{self.pid}.jsonl", "a") as fh:
                for s in self.spans:
                    fh.write(json.dumps(s) + "\n")
            self.spans.clear()

    def _become_worker(self) -> None:
        self.fork_parent = self.stack[-1]["id"] if self.stack else None
        self.pid = os.getpid()
        self.in_worker = True
        self.spans = []
        self.stack = []
        self._count = 0

    def drain(self) -> list[dict]:
        """All finished spans since the last drain, workers' included."""
        out, self.spans = self.spans, []
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                out.extend(json.loads(line) for line in fh)
            path.unlink()
        return out

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for module_name, attr, layer in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = _Traced(self, module_name, attr, layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
        _active = self

    def uninstall(self) -> None:
        global _active
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()
        _active = None


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one round.


def _short(span: dict) -> str:
    return span["name"].split(".", 1)[1]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times of one traced round.

    Self times come from the parent process only, so they are slices of
    the round's wall time on its blocking path; work done inside pool
    workers is reported as ``<layer>.worker_busy_s``.  Spans of calls that
    raised count towards self time only: they carry no attributes, so the
    per-call counts and ratios leave them out.
    """
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time: dict[str, float] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[parent["id"]] = child_time.get(parent["id"], 0.0) + dur[s["id"]]

    def self_time(s):
        return dur[s["id"]] - child_time.get(s["id"], 0.0)

    def ancestors(s):
        seen = by_id.get(s["parent"])
        while seen is not None:
            yield seen
            seen = by_id.get(seen["parent"])

    def under(s, short_names):
        return any(_short(a) in short_names for a in ancestors(s))

    named: dict[str, list[dict]] = {}
    for s in spans:
        if "error" not in s:
            named.setdefault(_short(s), []).append(s)

    def total(name):
        return sum(dur[s["id"]] for s in named.get(name, ()))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_time(s) for s in spans if s["layer"] == layer and not s["worker"])
        m[f"{layer}.worker_busy_s"] = sum(
            dur[s["id"]]
            for s in spans
            if s["layer"] == layer and s["worker"] and by_id.get(s["parent"], {}).get("pid") != s["pid"]
        )

    builds = named.get("build_real_space_hamiltonian", []) + named.get("build_bloch_hamiltonian", [])
    m["lattice.builds"] = len(builds)
    m["lattice.build_s"] = sum(dur[s["id"]] for s in builds)

    eig = named.get("eigendecompose", [])
    m["spectral.eigensolves"] = len(eig)
    m["spectral.eigvec_solves"] = sum(1 for s in eig if s["attrs"]["vectors"])
    m["spectral.eigensolve_s"] = total("eigendecompose")
    for n in sorted({s["attrs"]["n"] for s in eig if not s["attrs"]["vectors"]}):
        times = [dur[s["id"]] for s in eig if s["attrs"]["n"] == n and not s["attrs"]["vectors"]]
        m[f"spectral.eigensolve_ms.n{n}"] = 1e3 * statistics.median(times)
    searches = ("locate_exceptional_points", "locate_zero_energy_eps")
    found = sum(s["attrs"]["points"] for name in searches for s in named.get(name, ()))
    in_search = sum(1 for s in eig if under(s, searches))
    m["spectral.eigensolves_per_ep"] = in_search / found if found else 0.0
    m["spectral.match_s"] = total("_match_step")
    m["spectral.pool_wait_s"] = sum(
        self_time(s) for s in named.get("_grid_eigvals", ()) if s["attrs"]["workers"] > 1
    )

    m["rotation.mode_weight_calls"] = len(named.get("mode_weights", ()))
    m["rotation.mode_weights_s"] = total("mode_weights")

    maps = [s for s in named.get("transmission_map", ()) if not under(s, ("zero_energy_trace",))]
    traces = named.get("zero_energy_trace", [])
    m["transport.cells"] = sum(s["attrs"]["cells"] for s in maps)
    m["transport.trace_points"] = sum(s["attrs"]["points"] for s in traces)
    columns = named.get("_map_column", [])
    for kind, pick in (("map", False), ("trace", True)):
        chosen = [s for s in columns if under(s, ("zero_energy_trace",)) == pick]
        work = sum(s["attrs"]["lanes"] * s["attrs"]["cells"] for s in chosen)
        busy = sum(dur[s["id"]] for s in chosen)
        m[f"transport.{kind}_us_per_lane_cell"] = 1e6 * busy / work if work else 0.0
    m["transport.resolves"] = sum(
        1 for s in named.get("solve_scattering", ()) if _short(by_id.get(s["parent"], s)) == "_map_column"
    )
    m["transport.nan_cells"] = sum(s["attrs"]["nan"] for s in maps) + sum(s["attrs"]["nan"] for s in traces)
    m["transport.pool_wait_s"] = sum(self_time(s) for s in maps if s["attrs"]["workers"] > 1)

    mains = named.get("main", [])
    main_ids = {s["id"] for s in mains}
    compute = sum(dur[s["id"]] for s in spans if s["parent"] in main_ids and s["layer"] != "cli")
    emit = total("emit_csv") + total("emit_json")
    m["cli.compute_s"] = compute
    m["cli.emit_s"] = emit
    for fmt in ("csv", "json"):
        calls = named.get(f"emit_{fmt}", [])
        nbytes = sum(s["attrs"]["bytes"] for s in calls)
        busy = sum(dur[s["id"]] for s in calls)
        m[f"cli.{fmt}_mb_per_s"] = nbytes / 1e6 / busy if busy else 0.0
    emits = named.get("emit_csv", []) + named.get("emit_json", [])
    m["cli.emit_rows_per_s"] = sum(s["attrs"]["rows"] for s in emits) / emit if emit else 0.0
    m["cli.output_mb"] = sum(s["attrs"]["bytes"] for s in emits) / 1e6
    m["cli.other_s"] = sum(dur[s["id"]] for s in mains) - compute - emit
    m["trace.spans"] = len(spans)
    return m
