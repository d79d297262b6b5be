"""The benchmark's own tests: toy-size runs and checks that reject wrong values.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's default pytest
collection; they take about 40 s on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from ptladder import (  # noqa: E402
    BoundaryTopology,
    LatticeSpec,
    LeadSpec,
    assemble_scattering_system,
    build_real_space_hamiltonian,
    locate_exceptional_points,
    locate_zero_energy_eps,
    solve_scattering,
    transmission_map,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    env = json.loads(proc.stdout.strip().splitlines()[-2])["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["seed"] == 3


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "ep-search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("topology", [t.value for t in BoundaryTopology])
def test_independent_hamiltonian_matches_package(topology):
    spec = LatticeSpec(n_cells=6, gamma=0.7, topology=BoundaryTopology.from_name(topology))
    assert np.array_equal(checks.ladder_hamiltonian(6, 0.7, topology), build_real_space_hamiltonian(spec))


def test_ring_check_rejects_shifted_ep():
    stars = [p.gamma_star for p in locate_exceptional_points(LatticeSpec(n_cells=8), (0.0, 3.0))]
    assert checks.check_ring_eps(stars, 8) == []
    assert checks.check_ring_eps([stars[0] + 1e-3] + stars[1:], 8)
    assert checks.check_ring_eps(stars[1:], 8)


def test_moebius_checks_reject_shifted_bracket_and_growing_window():
    spec = LatticeSpec(n_cells=20, topology=BoundaryTopology.MOEBIUS)
    points = locate_exceptional_points(spec, (0.02, 0.8), coarse_steps=60)
    brackets = [(p.bracket_lo, p.bracket_hi) for p in points]
    assert checks.check_ep_brackets(brackets, 20, "moebius") == []
    lo, hi = brackets[0]
    assert checks.check_ep_brackets([(lo + 1e-3, hi + 1e-3)], 20, "moebius")
    assert checks.check_windows_narrow([(20, 0.45), (40, 0.23)]) == []
    assert checks.check_windows_narrow([(20, 0.23), (40, 0.45)])


def test_zero_energy_checks_reject_shifted_ep():
    spec = LatticeSpec(n_cells=10, topology=BoundaryTopology.TWISTED_OPEN)
    stars = [p.gamma_star for p in locate_zero_energy_eps(spec, (0.0, 2.0), 200)]
    assert stars
    assert checks.check_zero_ep_det_flips(stars, 10) == []
    assert checks.check_zero_ep_det_flips([stars[0] + 1e-3], 10)
    assert checks.check_zero_ep_count(len(stars), 10, (0.0, 2.0)) == []
    assert checks.check_zero_ep_count(len(stars) - 1, 10, (0.0, 2.0))


def test_map_checks_reject_perturbed_cell():
    spec = LatticeSpec(n_cells=10, topology=BoundaryTopology.TWISTED_OPEN)
    leads = LeadSpec()
    energies = np.linspace(-3.0, 3.0, 31)
    m = transmission_map(spec, leads, energies, [0.0, 0.8], workers=2)
    assert checks.check_flux(m.t_values[:, 0], m.r_values[:, 0]) == []
    i, j = 7, 1
    dense = solve_scattering(
        assemble_scattering_system(spec.with_gamma(0.8), leads, float(energies[i])), method="dense"
    )
    assert checks.check_against_reference("cell", [m.t_values[i, j]], [dense.transmission_prob]) == []
    bumped = m.t_values.copy()
    bumped[i, j] += 1e-6
    assert checks.check_against_reference("cell", [bumped[i, j]], [dense.transmission_prob])
    assert checks.check_identical("column", bumped[:, j], m.t_values[:, j])
    bumped[i, 0] += 1e-8
    assert checks.check_flux(bumped[:, 0], m.r_values[:, 0])


def test_checksum_check_rejects_altered_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("e,t\n0,1\n")
    manifest = {"outputs": [str(path)], "checksums": {str(path): checks.sha256(path)}}
    assert checks.check_checksums(manifest) == []
    path.write_text("e,t\n0,0.5\n")
    assert checks.check_checksums(manifest)


def test_sweep_rows_check_rejects_wrong_eigenvalue():
    values = np.linalg.eigvals(checks.ladder_hamiltonian(6, 0.4, "moebius"))
    assert checks.check_sweep_rows({0.4: values}, 6, "moebius") == []
    wrong = values.copy()
    wrong[3] += 1e-6
    assert checks.check_sweep_rows({0.4: wrong}, 6, "moebius")
