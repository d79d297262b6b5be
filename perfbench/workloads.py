"""The benchmark's three workloads.

A workload builds its inputs from the seed and hands the runner a fixed
list of operations, one round.  Each operation is one call into ptladder
and returns ``(output, attempted, failed)``.  The runner times the calls;
the workload checks the first round's outputs against the independent
computations in ``checks``, and later rounds must reproduce them exactly,
since every ptladder computation is deterministic.

A round is closed-loop and serial at the top: one call starts when the
previous one returned.  ``transmission_map`` and the CLI's spectrum sweep
fan out to a process pool of ``workers`` processes inside the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import ptladder
from ptladder import cli, spectral, transport
from ptladder.lattice import BoundaryTopology, LatticeSpec
from ptladder.transport import LeadSpec


@dataclass(frozen=True)
class Op:
    """One call of a round; ``stage`` 1 or 2 says which stage metric it feeds."""

    name: str
    stage: int
    run: Callable[[], tuple[object, int, int]]


def _jitter(rng: np.random.Generator, width: float) -> float:
    return float(rng.uniform(-width, width))


# ---------------------------------------------------------------------------


class EpSearch:
    """Count-change EP searches (ring, two Moebius sizes) and zero-energy EPs.

    Stage 1 is ``locate_exceptional_points``, stage 2
    ``locate_zero_energy_eps``.  Range ends move with the seed by at most
    a quarter of a coarse step (the ring and twisted ends by the amounts
    below), which leaves every EP of these lattices inside its range and
    away from the ends.
    """

    name = "ep-search"
    figures = ("ep_search_s", "zero_ep_s")

    def __init__(self, seed: int, toy: bool, workers: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        n_ring, n_twist = (8, 10) if toy else (20, 20)
        self.ring = (n_ring, (0.0, 3.0 + _jitter(rng, 0.0018)), 400)
        self.moebius = []
        for n, lo, hi, steps in ((20, 0.02, 0.8, 60 if toy else 120), (40, 0.01, 0.33, 40 if toy else 100)):
            q = 0.25 * (hi - lo) / steps
            self.moebius.append((n, (lo + _jitter(rng, q), hi + _jitter(rng, q)), steps))
        self.twisted = (n_twist, (0.0, 2.0 - float(rng.uniform(0.0, 0.02))), 200 if toy else 601)

    def prepare(self) -> list[Op]:
        ring = LatticeSpec(n_cells=self.ring[0])
        twisted = LatticeSpec(n_cells=self.twisted[0], topology=BoundaryTopology.TWISTED_OPEN)
        moebius = [LatticeSpec(n_cells=n, topology=BoundaryTopology.MOEBIUS) for n, _, _ in self.moebius]
        for spec in [ring, twisted] + moebius:
            spectral.eigendecompose(ptladder.build_real_space_hamiltonian(spec.with_gamma(0.5)))

        def search(fn_name, spec, gamma_range, steps):
            def run():
                # Looked up at call time, so a traced run sees the wrapper.
                try:
                    return getattr(spectral, fn_name)(spec, gamma_range, steps), 1, 0
                except spectral.EigensolverError:
                    return None, 1, 1

            return run

        ops = [Op("ring", 1, search("locate_exceptional_points", ring, *self.ring[1:]))]
        for spec, (n, gamma_range, steps) in zip(moebius, self.moebius):
            ops.append(Op(f"moebius{n}", 1, search("locate_exceptional_points", spec, gamma_range, steps)))
        ops.append(Op("twisted", 2, search("locate_zero_energy_eps", twisted, *self.twisted[1:])))
        return ops

    def check(self, got: dict) -> list[str]:
        out = []
        if got["ring"] is not None:
            out += checks.check_ring_eps([p.gamma_star for p in got["ring"]], self.ring[0])
        widths = []
        for n, _, _ in self.moebius:
            points = got[f"moebius{n}"]
            if points is None:
                continue
            out += checks.check_ep_brackets([(p.bracket_lo, p.bracket_hi) for p in points], n, "moebius")
            closed = [w for w in ptladder.broken_windows(points) if not w.open_ended]
            lowest = min(closed, key=lambda w: w.gamma_lo) if closed else None
            widths.append((n, lowest.width if lowest else math.nan))
        out += checks.check_windows_narrow(widths)
        if got["twisted"] is not None:
            n, gamma_range, _ = self.twisted
            stars = [p.gamma_star for p in got["twisted"]]
            out += checks.check_zero_ep_det_flips(stars, n)
            out += checks.check_zero_ep_count(len(stars), n, gamma_range)
        return out

    @staticmethod
    def same(a, b) -> bool:
        def key(points):
            return None if points is None else [(p.gamma_star, p.energy_star, p.kind) for p in points]

        return key(a) == key(b)


# ---------------------------------------------------------------------------


class TransportMap:
    """Two-terminal maps and zero-energy traces on the open and twisted ladders.

    Stage 1 is ``transmission_map`` (801 energies over a gamma subset,
    pooled), stage 2 ``zero_energy_trace`` (one lane per gamma, serial).
    The gamma subset always holds gamma = 0 and one point in each of
    seven equal slices of (0.05, 2.95); the seed places the points inside
    their slices, offsets the trace grid and picks the spot-checked cells.
    """

    name = "transport-map"
    figures = ("map_cells_per_s", "trace_points_per_s")

    def __init__(self, seed: int, toy: bool, workers: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.workers = workers
        self.n_cells = 20 if toy else 100
        self.energies = np.linspace(-4.0, 4.0, 41 if toy else 801)
        slices = 3 if toy else 7
        width = 2.9 / slices
        inner = 0.05 + width * (np.arange(slices) + rng.uniform(0.1, 0.9, slices))
        self.gammas = np.concatenate(([0.0], inner))
        n_trace = 21 if toy else 101
        step = 2.0 / n_trace
        self.trace_grid = step * (np.arange(n_trace) + float(rng.uniform(0.0, 1.0)))
        self.sample_cells = [
            (int(rng.integers(self.energies.size)), int(rng.integers(self.gammas.size))) for _ in range(6)
        ]
        self.sample_trace = [int(i) for i in rng.choice(n_trace, size=4, replace=False)]
        self.column = int(rng.integers(self.gammas.size))
        self.leads = LeadSpec()
        self.specs = {
            topo.value: LatticeSpec(n_cells=self.n_cells, topology=topo)
            for topo in (BoundaryTopology.OPEN, BoundaryTopology.TWISTED_OPEN)
        }

    def prepare(self) -> list[Op]:
        for spec in self.specs.values():
            transport.transmission_map(spec, self.leads, self.energies[:8], [0.5])

        def map_op(spec):
            def run():
                cells = self.energies.size * self.gammas.size
                try:
                    m = transport.transmission_map(
                        spec, self.leads, self.energies, self.gammas, workers=self.workers
                    )
                except (transport.SingularSystemError, ValueError):
                    return None, cells, cells
                return m, cells, m.n_failed

            return run

        def trace_op(spec):
            def run():
                points = self.trace_grid.size
                try:
                    trace = transport.zero_energy_trace(spec, self.leads, self.trace_grid)
                except (transport.SingularSystemError, ValueError):
                    return None, points, points
                return trace, points, sum(1 for _, t in trace if not math.isfinite(t))

            return run

        return [Op(f"map-{name}", 1, map_op(spec)) for name, spec in self.specs.items()] + [
            Op(f"trace-{name}", 2, trace_op(spec)) for name, spec in self.specs.items()
        ]

    def _dense(self, spec: LatticeSpec, energy: float, gamma: float):
        system = transport.assemble_scattering_system(spec.with_gamma(gamma), self.leads, energy)
        return transport.solve_scattering(system, method="dense")

    def check(self, got: dict) -> list[str]:
        out = []
        for name, spec in self.specs.items():
            m = got[f"map-{name}"]
            if m is not None:
                out += checks.check_flux(m.t_values[:, 0], m.r_values[:, 0])
                have, want = [], []
                for i, j in self.sample_cells:
                    if math.isfinite(m.t_values[i, j]):
                        res = self._dense(spec, float(self.energies[i]), float(self.gammas[j]))
                        have += [m.t_values[i, j], m.r_values[i, j]]
                        want += [res.transmission_prob, res.reflection_prob]
                out += checks.check_against_reference(f"{name} map sample cells", have, want)
                column = [self.gammas[self.column]]
                serial = transport.transmission_map(spec, self.leads, self.energies, column)
                label = f"{name} column {self.column} with workers=1"
                out += checks.check_identical(label, serial.t_values[:, 0], m.t_values[:, self.column])
                out += checks.check_identical(label, serial.r_values[:, 0], m.r_values[:, self.column])
            trace = got[f"trace-{name}"]
            if trace is not None:
                have, want = [], []
                for k in self.sample_trace:
                    g, t = trace[k]
                    if math.isfinite(t):
                        have.append(t)
                        want.append(self._dense(spec, 0.0, g).transmission_prob)
                out += checks.check_against_reference(f"{name} trace sample points", have, want)
        return out

    @staticmethod
    def same(a, b) -> bool:
        if a is None or b is None:
            return a is b
        if isinstance(a, transport.TransmissionMap):
            return np.array_equal(a.t_values, b.t_values, equal_nan=True) and np.array_equal(
                a.r_values, b.r_values, equal_nan=True
            )
        return np.array_equal(np.array(a), np.array(b), equal_nan=True)


# ---------------------------------------------------------------------------


class CliPresets:
    """``ptladder.cli.main`` on the fig4 and fig6-twisted presets, shrunk with --set.

    Stage 1 is the fig4 invocation (Moebius sweep with mode weights,
    JSON), stage 2 fig6-twisted (map plus zero-energy trace, CSV).  Each
    invocation writes into a fresh directory.  The seed moves gamma_max by
    at most 0.005, which keeps gamma = 2d (where the rotation angle is
    singular) off the grid, and picks the spot-checked sweep rows.
    """

    name = "cli-presets"
    figures = ("cli_sweep_s", "cli_map_s")

    def __init__(self, seed: int, toy: bool, workers: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.workers = workers
        self.fig4 = {
            "n_cells": 6 if toy else 20,
            "gamma_max": 3.0 + _jitter(rng, 0.005),
            "gamma_count": 21 if toy else 151,
        }
        self.fig6 = {
            "n_cells": 10 if toy else 60,
            "e_count": 41 if toy else 201,
            "gamma_max": 3.0 + _jitter(rng, 0.005),
            "gamma_count": 9 if toy else 41,
        }
        self.sample_rows = sorted(int(i) for i in rng.choice(self.fig4["gamma_count"], size=4, replace=False))
        self._calls = 0
        self._kept: set[str] = set()

    def _invoke(self, preset: str, sets: dict, fmt: str, keep: bool = False) -> dict:
        self._calls += 1
        out_dir = self.work_dir / f"{preset}-{self._calls}"
        out_dir.mkdir(parents=True)
        stem = out_dir / ("fig4" if preset == "fig4" else "fig6")
        argv = [preset]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
        argv += ["--format", fmt, "--workers", str(self.workers), "--out", f"{stem}.{fmt}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        data = sorted(p for p in out_dir.iterdir() if not p.name.endswith(".manifest.json"))
        result = {"dir": out_dir, "rc": rc, "sha": [(p.name, checks.sha256(p)) for p in data]}
        if not keep:
            shutil.rmtree(out_dir)
        return result

    def prepare(self) -> list[Op]:
        self._invoke("fig4", {"n_cells": 4, "gamma_count": 5}, "json")

        def op(preset, sets, fmt):
            def run():
                # The first call's files stay for the checks.
                keep = preset not in self._kept
                self._kept.add(preset)
                result = self._invoke(preset, sets, fmt, keep)
                return result, 1, int(result["rc"] != 0)

            return run

        return [
            Op("fig4", 1, op("fig4", self.fig4, "json")),
            Op("fig6-twisted", 2, op("fig6-twisted", self.fig6, "csv")),
        ]

    def _check_config(self, manifest: dict, preset: str, sets: dict, fmt: str) -> list[str]:
        text = manifest["config_text"]
        parsed = cli.parse_config(text)
        out = []
        if cli.config_to_text(parsed) != text:
            out.append(f"{preset}: config_text does not parse back to the same config")
        have = {
            "n_cells": parsed.lattice.n_cells,
            "gamma_count": parsed.gamma_grid.count,
            "gamma_max": parsed.gamma_grid.hi,
            "e_count": parsed.e_grid.count,
        }
        for key, value in sets.items():
            if have[key] != value:
                out.append(f"{preset}: config_text has {key} = {have[key]}, the run asked for {value}")
        if parsed.out_format != fmt or parsed.workers != self.workers:
            out.append(f"{preset}: config_text lost --format or --workers")
        return out

    def check(self, got: dict) -> list[str]:
        out = []
        fig4, fig6 = got["fig4"], got["fig6-twisted"]
        if fig4["rc"] != 0:
            out.append(f"fig4 exited with {fig4['rc']}")
        else:
            d = fig4["dir"]
            manifest = json.loads((d / "fig4.manifest.json").read_text())
            out += checks.check_checksums(manifest)
            out += self._check_config(manifest, "fig4", self.fig4, "json")
            rows = json.loads((d / "fig4.json").read_text())["rows"]
            n = self.fig4["n_cells"]
            if len(rows) != self.fig4["gamma_count"] * 2 * n:
                out.append(f"fig4: {len(rows)} rows, grid gives {self.fig4['gamma_count'] * 2 * n}")
            else:
                sampled = {}
                for j in self.sample_rows:
                    block = rows[j * 2 * n : (j + 1) * 2 * n]
                    sampled[block[0][0]] = np.array([complex(r[2], r[3]) for r in block])
                out += checks.check_sweep_rows(sampled, n, "moebius")
        if fig6["rc"] != 0:
            out.append(f"fig6-twisted exited with {fig6['rc']}")
        else:
            d = fig6["dir"]
            manifest = json.loads((d / "fig6.manifest.json").read_text())
            out += checks.check_checksums(manifest)
            out += self._check_config(manifest, "fig6-twisted", self.fig6, "csv")
            for path, want in (
                (d / "fig6.csv", self.fig6["e_count"] * self.fig6["gamma_count"]),
                (d / "fig6.trace.csv", self.fig6["gamma_count"]),
            ):
                with open(path) as fh:
                    rows = sum(1 for _ in fh) - 1
                if rows != want:
                    out.append(f"{path.name}: {rows} rows, grid gives {want}")
        return out

    @staticmethod
    def same(a, b) -> bool:
        return a["rc"] == b["rc"] and a["sha"] == b["sha"]


WORKLOADS = {w.name: w for w in (EpSearch, TransportMap, CliPresets)}
