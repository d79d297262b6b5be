"""Command line driver: parameter sweeps written to CSV/JSON with a manifest.

Usage:

    ptladder <experiment|preset> [--config FILE] [--set key=value ...]
             [--out PATH] [--format csv|json] [--workers W]

Configuration is a flat ``key = value`` (or ``key: value``) document;
keys may be grouped under ``[lattice]``, ``[leads]``, ``[grid]``,
``[output]`` and ``[run]`` headers.  Keys before any header belong to
``[run]``, where each key is resolved by its (unique) name.  Keys are
case-insensitive, and ``#`` or ``;`` starts a comment at the start of a
line or after whitespace.  An unknown section, a line that is not
``key = value`` and a key set twice (under its own section or under
``[run]``) are errors that name their line.  Precedence: defaults, then
preset, then config file, then ``--set`` pairs, then explicit flags; the
merged config is validated once.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .lattice import BoundaryTopology, LatticeSpec
from .rotation import SingularAngleError, complex_rotation_angle, rotation_matrix, _weight_columns
from .spectral import (
    EigensolverError,
    locate_exceptional_points,
    sweep_spectrum,
    _weighted_sweep,
)
from .transport import (
    LeadSpec,
    OutOfBandError,
    SingularSystemError,
    detangled_transport_check,
    transmission_map,
)

__all__ = [
    "ConfigError",
    "GridSpec",
    "ExperimentConfig",
    "RunManifest",
    "EXPERIMENTS",
    "PRESETS",
    "parse_config",
    "config_to_text",
    "run_experiment",
    "emit_csv",
    "main",
]

EXPERIMENTS = (
    "spectrum_sweep",
    "ep_search",
    "transmission_map",
    "zero_energy_trace",
    "detangle_check",
)


class ConfigError(Exception):
    """Invalid configuration document or override."""


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class ExperimentConfig:
    lattice: LatticeSpec
    leads: LeadSpec
    experiment: str = "spectrum_sweep"
    gamma_grid: GridSpec = GridSpec(0.0, 3.0, 601)
    e_grid: GridSpec = GridSpec(-4.0, 4.0, 801)
    out_path: str | None = None
    out_format: str = "csv"
    with_weights: bool = False
    with_zero_trace: bool = False
    workers: int = 0  # 0 = use available parallelism
    coarse_steps: int = 400

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        # the CPUs this process may run on, where the OS can tell
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)


def default_config() -> ExperimentConfig:
    return ExperimentConfig(lattice=LatticeSpec(n_cells=100), leads=LeadSpec())


# Every config key, in canonical-text order: key -> (section, dotted
# attribute path in ExperimentConfig, type).  The [run] keys come first
# and are written without a section header.
_KEY_TABLE: dict[str, tuple[str, str, object]] = {
    "experiment": ("run", "experiment", str),
    "workers": ("run", "workers", int),
    "coarse_steps": ("run", "coarse_steps", int),
    "n_cells": ("lattice", "lattice.n_cells", int),
    "intra_hop": ("lattice", "lattice.intra_hop", float),
    "inter_hop": ("lattice", "lattice.inter_hop", float),
    "delta": ("lattice", "lattice.delta", float),
    "topology": ("lattice", "lattice.topology", BoundaryTopology),
    "v0": ("leads", "leads.v0", float),
    "coupling_upper_in": ("leads", "leads.upper_in", float),
    "coupling_lower_in": ("leads", "leads.lower_in", float),
    "coupling_upper_out": ("leads", "leads.upper_out", float),
    "coupling_lower_out": ("leads", "leads.lower_out", float),
    "gamma_min": ("grid", "gamma_grid.lo", float),
    "gamma_max": ("grid", "gamma_grid.hi", float),
    "gamma_count": ("grid", "gamma_grid.count", int),
    "e_min": ("grid", "e_grid.lo", float),
    "e_max": ("grid", "e_grid.hi", float),
    "e_count": ("grid", "e_grid.count", int),
    "path": ("output", "out_path", str | None),
    "format": ("output", "out_format", str),
    "with_weights": ("output", "with_weights", bool),
    "with_zero_trace": ("output", "with_zero_trace", bool),
}

_SECTIONS = {section for section, _, _ in _KEY_TABLE.values()}

PRESETS: dict[str, dict[str, str]] = {
    "fig2-cll": {
        "experiment": "spectrum_sweep",
        "topology": "circular",
        "n_cells": "100",
        "gamma_min": "0",
        "gamma_max": "3",
        "gamma_count": "601",
    },
    "fig2-mll": {
        "experiment": "spectrum_sweep",
        "topology": "moebius",
        "n_cells": "100",
        "gamma_min": "0",
        "gamma_max": "3",
        "gamma_count": "601",
    },
    "fig3": {
        "experiment": "spectrum_sweep",
        "topology": "circular",
        "n_cells": "100",
        "gamma_min": "0",
        "gamma_max": "3",
        "gamma_count": "601",
        "with_weights": "true",
    },
    "fig4": {
        "experiment": "spectrum_sweep",
        "topology": "moebius",
        "n_cells": "100",
        "gamma_min": "0",
        "gamma_max": "3",
        "gamma_count": "601",
        "with_weights": "true",
    },
    "fig6-ladder": {
        "experiment": "transmission_map",
        "topology": "open",
        "n_cells": "100",
        "e_min": "-4",
        "e_max": "4",
        "e_count": "801",
        "gamma_min": "0",
        "gamma_max": "3",
        "gamma_count": "601",
        "with_zero_trace": "true",
    },
    "fig6-twisted": {
        "experiment": "transmission_map",
        "topology": "twisted",
        "n_cells": "100",
        "e_min": "-4",
        "e_max": "4",
        "e_count": "801",
        "gamma_min": "0",
        "gamma_max": "3",
        "gamma_count": "601",
        "with_zero_trace": "true",
    },
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# type -> (parse the stripped text, canonical text of a value).  Booleans
# accept true/false/1/0/yes/no/on/off; an empty path is unset.
_CODECS = {
    int: (int, str),
    float: (float, repr),
    str: (str, str),
    str | None: (lambda text: text or None, str),
    bool: (_parse_bool, lambda value: str(value).lower()),
    BoundaryTopology: (BoundaryTopology.from_name, lambda value: value.value),
}


# A comment starts with # or ; at the start of a line or after whitespace.
_COMMENT = re.compile(r"(?:^|\s)[#;].*")


def _document_pairs(text: str) -> list[tuple[str, str, str, str]]:
    """The (section, key, raw value, "line N") tuples of a config
    document, in order; keys before any header belong to [run].  Each
    key has one home section in ``_KEY_TABLE``, so a key set twice is an
    error whether it was written under that section or under [run]."""
    pairs = []
    first: dict[str, int] = {}
    section = "run"
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", line).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section {line}")
            continue
        parts = re.split("[=:]", line, maxsplit=1)
        key = parts[0].strip().lower()
        if len(parts) < 2 or not key:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if key in first:
            raise ConfigError(f"line {lineno}: {key} is already set on line {first[key]}")
        first[key] = lineno
        pairs.append((section, key, parts[1], f"line {lineno}"))
    return pairs


def _apply_pairs(config: ExperimentConfig, pairs: list[tuple[str, str, str, str]]) -> ExperimentConfig:
    """Apply (section, key, raw value, diagnostic) tuples onto a config.

    Every value is coerced first; each nested spec is then rebuilt once
    from all of its updates, so it is validated only in its final state.
    """
    updates: dict[str, dict[str, object]] = {}
    for section, key, raw, where in pairs:
        if key not in _KEY_TABLE:
            raise ConfigError(f"{where}: unknown key {key!r}")
        home, attr, typ = _KEY_TABLE[key]
        if section not in ("run", home):
            raise ConfigError(
                f"{where}: key {key!r} belongs to section [{home}], found in [{section}]"
            )
        try:
            value = _CODECS[typ][0](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: cannot parse {key} = {raw!r} as {typ.__name__} ({exc})")
        owner, _, name = attr.rpartition(".")
        updates.setdefault(owner, {})[name] = value

    top = updates.pop("", {})
    try:
        for owner, changes in updates.items():
            top[owner] = dataclasses.replace(getattr(config, owner), **changes)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return dataclasses.replace(config, **top)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {config.experiment!r} (expected one of: "
            + ", ".join(EXPERIMENTS)
            + ")"
        )
    if config.out_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {config.out_format!r}")
    for name, grid in (("gamma", config.gamma_grid), ("e", config.e_grid)):
        if grid.count < 1:
            raise ConfigError(f"{name}_count must be >= 1, got {grid.count}")
        if grid.lo > grid.hi:
            raise ConfigError(f"{name}_min must be <= {name}_max")
        if grid.count == 1 and grid.lo != grid.hi:
            raise ConfigError(f"a single-point {name} grid needs {name}_min == {name}_max")
        if grid.count > 1 and grid.lo == grid.hi:
            raise ConfigError(f"a {grid.count}-point {name} grid needs {name}_min < {name}_max")
    if config.experiment == "ep_search":
        if not config.gamma_grid.lo < config.gamma_grid.hi:
            raise ConfigError("ep_search needs gamma_min < gamma_max")
        if config.lattice.delta != 0.0:
            raise ConfigError("ep_search is defined at delta = 0, where the lattice is PT-symmetric")
    if config.workers < 0:
        raise ConfigError("workers must be >= 0")
    if config.coarse_steps < 1:
        raise ConfigError("coarse_steps must be >= 1")
    needs_leads = config.experiment in (
        "transmission_map",
        "zero_energy_trace",
        "detangle_check",
    )
    if needs_leads and config.lattice.topology not in (
        BoundaryTopology.OPEN,
        BoundaryTopology.TWISTED_OPEN,
    ):
        raise ConfigError(
            f"experiment {config.experiment} needs an open or twisted topology, "
            f"got {config.lattice.topology.value}"
        )
    if config.experiment == "detangle_check":
        if config.lattice.topology is not BoundaryTopology.OPEN:
            raise ConfigError("detangle_check needs topology = open")
        if config.lattice.delta != 0.0:
            raise ConfigError("detangle_check is defined at delta = 0")
        if config.e_grid.count < 16:
            raise ConfigError("detangle_check needs e_count >= 16")
    return config


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a flat key = value document into a validated config."""
    return validate_config(_apply_pairs(base or default_config(), _document_pairs(text)))


def _override_pairs(overrides: list[str]) -> list[tuple[str, str, str, str]]:
    """The (section, key, raw value, diagnostic) tuples of ``--set`` items."""
    pairs = []
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        pairs.append(("run", key.strip().lower(), raw.strip(), f"--set {item!r}"))
    return pairs


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical flat document; parse_config round-trips it exactly."""
    lines = []
    section = "run"
    for key, (home, attr, typ) in _KEY_TABLE.items():
        if home != section:
            section = home
            lines += ["", f"[{section}]"]
        value = attrgetter(attr)(config)
        if value is not None:
            lines.append(f"{key} = {_CODECS[typ][1](value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment execution and output.
#
# A table is written through one row template: each column gets the %-code
# of its kind (float, int or str), worked out once from the types in the
# column, and every row is one ``template % row``.  A column no %-code
# writes as the format asks (non-finite JSON floats, JSON strings, values
# of mixed or other types) is converted value by value to text for ``%s``.


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


# How each output format writes a value of each kind: a %-code, or a
# function to the text of the value.
_WRITERS = {
    "csv": {float: "%.15g", int: "%d", str: "%s"},
    "json": {float: _json_float, int: "%d", str: json.dumps},
}


def _kind(t: type):
    """float, int or str for a type its kind's writer takes as it is, else None."""
    if t is float or t is np.float64:
        return float
    if t is int or t is bool or issubclass(t, np.integer):
        return int
    return str if t is str else None


def _cell(writers: dict, value) -> str:
    """One value of a column no %-code writes, as the text of its kind:
    ints, numpy integers and bools as int, strings as str, anything else
    through ``float``."""
    if isinstance(value, str):
        value = str.__str__(value)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
    else:
        value = float(value)
    write = writers[type(value)]
    return write % value if isinstance(write, str) else write(value)


def _column_codes(fmt: str, rows: list[tuple]) -> tuple[list[str], zip | list[tuple]]:
    """The %-code of each column of a table, and the rows, as tuples, that
    a template of those codes formats."""
    writers = _WRITERS[fmt]
    codes, cells = [], []
    for i in range(len(rows[0]) if rows else 0):
        column = list(map(itemgetter(i), rows))
        types = set(map(type, column))
        kinds = set(map(_kind, types))
        kind = kinds.pop() if len(kinds) == 1 else None
        write = writers.get(kind)
        if isinstance(write, str):
            codes.append(write)
            cells.append(column)
        elif kind is float and types == {float} and all(map(math.isfinite, column)):
            codes.append("%r")  # float.__repr__, as json.dump writes a finite float
            cells.append(column)
        else:
            codes.append("%s")
            cells.append(map(write or partial(_cell, writers), column))
    return codes, zip(*cells) if cells else rows


def emit_csv(path: Path, columns: list[str], rows: list[tuple]) -> None:
    """Write a table as CSV: a header of the column names, then one line
    per row, cells joined by commas.  Floats are written ``%.15g``
    (``nan``, ``inf``, ``-inf`` and ``-0`` included), ints, numpy integers
    and bools ``%d``, strings as they are; any other value through
    ``float``.  No cell is quoted."""
    codes, cells = _column_codes("csv", rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(map((",".join(codes) + "\n").__mod__, cells))


def emit_json(path: Path, schema: str, columns: list[str], rows: list[tuple]) -> None:
    """Write a table as the JSON object ``{"schema", "columns", "rows"}``,
    laid out as ``json.dump(..., indent=1)`` lays it out, with a closing
    newline.  Each row is a list.  Finite floats are written by
    ``float.__repr__`` and non-finite ones as ``null``; ints, numpy
    integers and bools as ints; strings JSON-encoded (ASCII, escaped);
    any other value through ``float``."""
    codes, cells = _column_codes("json", rows)
    row = "  [\n   " + ",\n   ".join(codes) + "\n  ]" if codes else "  []"
    cells = iter(cells)
    with open(path, "w", newline="") as fh:
        fh.write(
            '{\n "schema": %s,\n "columns": %s,\n "rows": '
            % (json.dumps(schema), json.dumps(columns, indent=1).replace("\n", "\n "))
        )
        first = next(cells, None)
        if first is None:
            fh.write("[]\n}\n")
            return
        fh.write("[\n" + row % first)
        fh.writelines(map((",\n" + row).__mod__, cells))
        fh.write("\n ]\n}\n")


@dataclass
class RunManifest:
    experiment: str
    version: str
    created: str
    duration_s: float
    n_failed: int
    outputs: list[str]
    checksums: dict[str, str]
    config_text: str
    summary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=1, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _sweep_rows(config: ExperimentConfig):
    spec = config.lattice
    grid = config.gamma_grid.points()
    workers = config.resolved_workers()
    columns = ["gamma", "branch", "re_e", "im_e"]
    if config.with_weights:
        columns += ["alpha_sq", "alpha_theta_sq"]
        sweep, weights = _weighted_sweep(spec, grid, partial(_point_weights, spec), workers=workers)
    else:
        sweep = sweep_spectrum(spec, grid, workers=workers)
    n_branches, n_points = sweep.branches.shape
    values = sweep.branches.T.ravel()  # gamma-major, branch-minor
    cells = [
        np.repeat(grid, n_branches).tolist(),
        list(range(n_branches)) * n_points,
        values.real.tolist(),
        values.imag.tolist(),
    ]
    if config.with_weights:
        cells += weights.transpose(1, 0, 2).reshape(-1, 2).T.tolist()
    rows = list(zip(*cells))
    summary = {
        "continuation_residual": sweep.continuation_residual,
        "ambiguous_steps": len(sweep.ambiguous_steps),
    }
    return columns, rows, summary, 0


def _point_weights(spec: LatticeSpec, vectors: np.ndarray, gamma: float) -> np.ndarray:
    """``alpha_sq`` and ``alpha_theta_sq`` of every eigenvector column at
    gamma; NaN where no rotation exists (at or within rounding of 2d)."""
    try:
        u = rotation_matrix(complex_rotation_angle(spec.intra_hop, spec.delta, gamma))
    except ValueError:  # SingularAngleError included
        return np.full((vectors.shape[1], 2), math.nan)
    return _weight_columns(vectors, u)[:, [0, 2]]


def _ep_rows(config: ExperimentConfig):
    points = locate_exceptional_points(
        config.lattice,
        (config.gamma_grid.lo, config.gamma_grid.hi),
        coarse_steps=config.coarse_steps,
    )
    columns = ["gamma_star", "re_e", "im_e", "kind", "pair_lo", "pair_hi", "self_orth"]
    rows = [
        (
            p.gamma_star,
            p.energy_star.real,
            p.energy_star.imag,
            p.kind.value,
            p.branch_pair[0],
            p.branch_pair[1],
            p.self_orthogonality,
        )
        for p in points
    ]
    return columns, rows, {"n_points": len(points)}, 0


def _map_rows(config: ExperimentConfig):
    m = transmission_map(
        config.lattice,
        config.leads,
        config.e_grid.points(),
        config.gamma_grid.points(),
        workers=config.resolved_workers(),
    )
    columns = ["e", "gamma", "t", "r"]
    n_e, n_gamma = m.t_values.shape
    rows = list(
        zip(
            np.repeat(m.e_grid, n_gamma).tolist(),
            m.gamma_grid.tolist() * n_e,
            m.t_values.ravel().tolist(),
            m.r_values.ravel().tolist(),
        )
    )
    total = m.t_values.size
    summary = {"n_failed": m.n_failed, "n_resolved": m.n_resolved, "failure_rate": m.n_failed / total}
    return columns, rows, summary, m.n_failed


def _trace_rows(config: ExperimentConfig):
    # the E = 0 row of a serial map is zero_energy_trace bit for bit, and it
    # also counts the dense re-solves
    m = transmission_map(config.lattice, config.leads, [0.0], config.gamma_grid.points())
    rows = list(zip(m.gamma_grid.tolist(), m.t_values[0].tolist()))
    return ["gamma", "t"], rows, {"n_failed": m.n_failed, "n_resolved": m.n_resolved}, m.n_failed


def _detangle_rows(config: ExperimentConfig):
    report = detangled_transport_check(config.lattice, config.leads, config.e_grid.points())
    columns = ["e", "t"]
    rows = list(zip(report.e_grid.tolist(), report.transmission.tolist()))
    summary = {
        "contact_pattern": report.contact_pattern,
        "antiresonance_present": report.antiresonance_present,
        "max_dip_offset": float(np.max(report.dip_offsets)) if report.dip_offsets.size else None,
        "grid_step": report.grid_step,
    }
    return columns, rows, summary, 0


_RUNNERS = {
    "spectrum_sweep": _sweep_rows,
    "ep_search": _ep_rows,
    "transmission_map": _map_rows,
    "zero_energy_trace": _trace_rows,
    "detangle_check": _detangle_rows,
}


def run_experiment(config: ExperimentConfig, preset: str | None = None) -> RunManifest:
    """Run the configured experiment and write data plus manifest files."""
    validate_config(config)
    started = time.perf_counter()
    columns, rows, summary, n_failed = _RUNNERS[config.experiment](config)

    out = Path(config.out_path or f"{preset or config.experiment}.{config.out_format}")
    tables = [(out, config.experiment, columns, rows)]
    if config.experiment == "transmission_map" and config.with_zero_trace:
        trace_cols, trace_rows, trace_summary, trace_failed = _trace_rows(config)
        trace_path = out.with_name(out.stem + ".trace" + out.suffix)
        tables.append((trace_path, "zero_energy_trace", trace_cols, trace_rows))
        summary = dict(summary, zero_trace=trace_summary)
        n_failed += trace_failed
    computed = time.perf_counter()
    for path, schema, table_columns, table_rows in tables:
        if config.out_format == "csv":
            emit_csv(path, table_columns, table_rows)
        else:
            emit_json(path, schema, table_columns, table_rows)
    emitted = time.perf_counter()
    outputs = [path for path, *_ in tables]
    summary = dict(
        summary,
        compute_s=round(computed - started, 6),
        emit_s=round(emitted - computed, 6),
        workers=config.resolved_workers(),
    )

    manifest = RunManifest(
        experiment=config.experiment,
        version=__version__,
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        duration_s=round(time.perf_counter() - started, 6),
        n_failed=n_failed,
        outputs=[str(p) for p in outputs],
        checksums={str(p): _sha256(p) for p in outputs},
        config_text=config_to_text(config),
        summary=summary,
    )
    manifest_path = out.with_name(out.stem + ".manifest.json")
    manifest_path.write_text(manifest.to_json())
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptladder",
        description="PT-symmetric ladder lattice sweeps: spectra, exceptional "
        "points, and two-terminal transport.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name (%s) or preset (%s)"
        % (", ".join(EXPERIMENTS), ", ".join(sorted(PRESETS))),
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--workers", type=int, help="worker count (0 = auto)")
    args = parser.parse_args(argv)

    try:
        preset = None
        if args.experiment in PRESETS:
            preset = args.experiment
            pairs = [("run", k, v, f"preset {preset}") for k, v in PRESETS[preset].items()]
        elif args.experiment in EXPERIMENTS:
            pairs = [("run", "experiment", args.experiment, "experiment argument")]
        else:
            raise ConfigError(
                f"unknown experiment or preset {args.experiment!r}; known experiments: "
                + ", ".join(EXPERIMENTS)
                + "; presets: "
                + ", ".join(sorted(PRESETS))
            )
        if args.config:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                print(f"ptladder: cannot read config: {exc}", file=sys.stderr)
                return 3
            pairs += _document_pairs(text)
        pairs += _override_pairs(args.overrides)
        flags = (
            ("path", args.out, "--out"),
            ("format", args.format, "--format"),
            ("workers", args.workers, "--workers"),
        )
        pairs += [("run", key, str(value), flag) for key, value, flag in flags if value is not None]
        # validated once, in its final state: a later source may mend what
        # an earlier one left inconsistent across keys
        config = validate_config(_apply_pairs(default_config(), pairs))
    except ConfigError as exc:
        print(f"ptladder: config error: {exc}", file=sys.stderr)
        return 1

    try:
        manifest = run_experiment(config, preset=preset)
    except (
        EigensolverError,
        SingularSystemError,
        SingularAngleError,
        OutOfBandError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"ptladder: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ptladder: I/O failure: {exc}", file=sys.stderr)
        return 3

    for path in manifest.outputs:
        print(f"wrote {path}")
    print(
        f"experiment {manifest.experiment} finished in {manifest.duration_s:.3f}s "
        f"({manifest.n_failed} failed cells)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
