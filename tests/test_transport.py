"""Two-terminal scattering tests: assembly oracle, solvers, maps, detangling."""

import dataclasses
import functools
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest

from ptladder import (
    BoundaryTopology,
    LatticeSpec,
    LeadSpec,
    OutOfBandError,
    SingularSystemError,
    assemble_scattering_system,
    build_real_space_hamiltonian,
    detangled_transport_check,
    find_trace_peaks,
    lead_momentum,
    solve_scattering,
    transmission_map,
    unit_cell_blocks,
    zero_energy_trace,
)
from ptladder.lattice import _bond_blocks, _half_bond_blocks
from ptladder import _pool, spectral, transport
from ptladder.transport import LANES_PER_TASK, _eliminate, _pivot_inverse

OPEN = BoundaryTopology.OPEN
TWISTED = BoundaryTopology.TWISTED_OPEN


def test_lead_momentum_frozen_values():
    plus, minus = lead_momentum(0.0, 10.0)
    assert plus == 1j and minus == -1j
    plus, minus = lead_momentum(5.0, 10.0)
    assert plus == pytest.approx(-0.5 + 1j * math.sqrt(0.75), abs=1e-15)
    assert minus == pytest.approx(-0.5 - 1j * math.sqrt(0.75), abs=1e-15)
    assert plus * minus == pytest.approx(1.0, abs=1e-15)  # unimodular pair


def test_lead_momentum_band_edges():
    for bad in (10.0, -10.0, 15.0):
        with pytest.raises(OutOfBandError):
            lead_momentum(bad, 10.0)
    with pytest.raises(ValueError):
        lead_momentum(0.0, 0.0)


def test_lead_spec_contacts():
    leads = LeadSpec()
    np.testing.assert_array_equal(leads.g_in, [-1, -1])
    assert leads.symmetric
    asym = LeadSpec(upper_in=0.3, lower_in=1.0, upper_out=0.7, lower_out=0.2)
    assert not asym.symmetric
    back = asym.swapped()
    assert back.upper_in == 0.7 and back.lower_in == 0.2
    assert back.upper_out == 0.3 and back.lower_out == 1.0
    assert back.swapped() == asym
    with pytest.raises(ValueError):
        LeadSpec(v0=-1.0)


def test_single_cell_system_matches_hand_assembly():
    # one rung between two leads at band centre: small enough to write out
    spec = LatticeSpec(n_cells=1, topology=OPEN)
    system = assemble_scattering_system(spec, LeadSpec(), energy=0.0)
    expected = np.array(
        [
            [5, -1, -1, 0],
            [-1j, 0, -1, -1j],
            [-1j, -1, 0, -1j],
            [0, -1, -1, 5],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(system.matrix, expected)
    np.testing.assert_array_equal(system.rhs, np.array([-5, -1j, -1j, 0]))
    assert system.dimension == 4
    assert system.momentum == 1j

    result = solve_scattering(system, method="dense")
    assert abs(result.flux_residual) < 1e-14
    assert result.internal.shape == (2,)
    assert abs(result.r) ** 2 == pytest.approx(result.reflection_prob)


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize(
    "topology, n_cells",
    [(OPEN, 1), (OPEN, 2), (OPEN, 7), (TWISTED, 2), (TWISTED, 4), (TWISTED, 6), (TWISTED, 100)],
)
def test_transport_and_lattice_describe_one_ladder(topology, n_cells, delta):
    spec = LatticeSpec(n_cells=n_cells, topology=topology, delta=delta, gamma=0.4)
    energy = -1.3
    system = assemble_scattering_system(spec, LeadSpec(upper_in=0.5, lower_out=2.0), energy)
    expected = build_real_space_hamiltonian(spec) - energy * np.eye(2 * n_cells)
    assert np.array_equal(system.matrix[1:-1, 1:-1], expected)

    # the twisted ladder crosses the bond between cells N/2 and N/2 + 1, and only that one
    blocks = unit_cell_blocks(spec)
    hops = _bond_blocks(spec, blocks)
    assert len(hops) == n_cells - 1
    crossed = [c for c, hop in enumerate(hops) if np.array_equal(hop, blocks.h1_twist)]
    assert crossed == ([n_cells // 2 - 1] if topology is TWISTED else [])
    assert all(np.array_equal(hop, blocks.h1) for c, hop in enumerate(hops) if c not in crossed)


def test_assembly_rejects_rings():
    with pytest.raises(ValueError):
        assemble_scattering_system(LatticeSpec(n_cells=4), LeadSpec(), 0.0)


def test_flux_conservation_hermitian_case():
    energies = np.linspace(-3.5, 3.5, 21)
    for topology in (OPEN, TWISTED):
        spec = LatticeSpec(n_cells=30, topology=topology)
        for e in energies:
            res = solve_scattering(assemble_scattering_system(spec, LeadSpec(), e))
            assert abs(res.flux_residual) < 1e-10


def test_banded_matches_dense_on_generic_instances():
    rng = np.random.default_rng(11)
    drawn = set()
    for _ in range(200):
        n = int(rng.integers(1, 41))
        topology = TWISTED if (rng.random() < 0.5 and n % 2 == 0) else OPEN
        drawn.add((topology, n))
        spec = LatticeSpec(n_cells=n, gamma=float(rng.uniform(0, 3)), topology=topology)
        e = float(rng.uniform(-4, 4))
        system = assemble_scattering_system(spec, LeadSpec(), e)
        banded = solve_scattering(system, method="banded")
        dense = solve_scattering(system, method="dense")
        assert abs(banded.t - dense.t) < 1e-9
        assert abs(banded.r - dense.r) < 1e-9
        assert np.max(np.abs(banded.internal - dense.internal)) < 1e-9
    # the single cell carries both self-energies and keeps the full sweep; the
    # mirror fold closes N = 2 at its first cell and odd N at the centre cell
    assert {(OPEN, 1), (OPEN, 2), (TWISTED, 2)} <= drawn
    assert any(topology is OPEN and n % 2 and n >= 3 for topology, n in drawn)


def test_banded_fails_loudly_on_interior_resonance():
    # at gamma = 0 the dark antisymmetric chain makes a pivot exactly
    # singular: the second one at E = 0 for N = 100, the only one at E = d
    # for N = 1 (no fold), and the mirror-even closing pivot C_1 + H_mid at
    # E = 0 for N = 2.  Unpivoted elimination must refuse and name the
    # pivot while auto falls back to dense
    for n, energy, cell in ((100, 0.0, 2), (1, 1.0, 1), (2, 0.0, 1)):
        spec = LatticeSpec(n_cells=n, topology=OPEN)
        system = assemble_scattering_system(spec, LeadSpec(), energy)
        with pytest.raises(SingularSystemError, match=f"pivot at cell {cell} of {n}"):
            solve_scattering(system, method="banded")
        auto = solve_scattering(system, method="auto")
        dense = solve_scattering(system, method="dense")
        assert abs(auto.flux_residual) < 1e-10
        assert auto.t == dense.t and auto.r == dense.r


def _symmetric_entries(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]


def _four_entry_guard(blocks: np.ndarray) -> np.ndarray:
    """The 4-entry pivot guard the symmetric one replaced, kept as its reference."""
    a, b, c, d = blocks.reshape(-1, 4).T
    ma, mb, mc, md = np.abs(a), np.abs(b), np.abs(c), np.abs(d)
    with np.errstate(all="ignore"):
        det = a * d - b * c
        size = np.abs(det)
        cond = np.maximum(ma + mc, mb + md) * np.maximum(ma + mb, mc + md) / size
    return ~(np.isfinite(det) & (size >= 1e-300) & (cond <= transport.COND_LIMIT))


def test_pivot_inverse_matches_linalg():
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
    blocks = blocks + blocks.transpose(0, 2, 1)  # complex symmetric, like every pivot
    (p, q, v), bad = _pivot_inverse(*_symmetric_entries(blocks))
    ref = np.linalg.inv(blocks)
    assert not bad.any()
    inv = np.stack((p, -q, -q, v), axis=1).reshape(500, 2, 2)
    err = np.abs(inv - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.abs(ref).max(axis=(1, 2)))


def test_pivot_inverse_flags():
    blocks = np.array(
        [
            [[1.0, 2.0], [2.0, 4.0]],  # exactly singular
            [[1.0, 0.0], [0.0, 1e-301]],  # det below 1e-300
            [[1.0, 1.0], [1.0, 1.0 + 1e-13]],  # 1-norm condition above 1e12
            [[np.nan, 0.0], [0.0, 1.0]],
            [[2.0, 0.5j], [0.5j, 3.0]],
        ],
        dtype=complex,
    )
    _, bad = _pivot_inverse(*_symmetric_entries(blocks))
    assert bad.tolist() == [True, True, True, True, False]


def test_pivot_inverse_flags_a_det_that_overflows_or_is_nan():
    # finite, well-conditioned entries whose det overflows, infinite
    # entries, and NaNs: the guard has no finite-det clause, and the
    # condition clause and the size clause flag every one of them
    blocks = np.array(
        [
            [[1e200, 0.0], [0.0, 1e200]],  # det = +inf
            [[1e160, 1e160], [1e160, -1e160]],  # det = -inf, condition 2
            [[1e200, 0.0], [0.0, 1e200j]],  # det = inf * i
            [[1e200, 1e200], [1e200, 1e200]],  # det = inf - inf = NaN
            [[np.inf, 0.0], [0.0, 1.0]],
            [[0.0, np.inf], [np.inf, 0.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.nan, 0.0], [0.0, np.nan]],
        ],
        dtype=complex,
    )
    a, b, d = _symmetric_entries(blocks)
    with np.errstate(all="ignore"):
        assert not np.isfinite(a * d - b * b).any()
    _, bad = _pivot_inverse(a, b, d)
    assert bad.all()


def test_symmetric_guard_decides_as_the_four_entry_guard():
    # [[1, 1], [1, 1 + eps]] has condition (2 + eps)^2 / eps, which crosses
    # COND_LIMIT near eps = 4e-12; the phases, the scales and the tiny,
    # singular and non-finite blocks reach every clause of the guard
    rng = np.random.default_rng(7)
    eps = np.linspace(3.9e-12, 4.1e-12, 4001)
    near = np.ones((eps.size, 2, 2), dtype=complex)
    near[:, 1, 1] += eps
    near *= np.exp(1j * rng.uniform(0, 2 * np.pi, eps.size))[:, None, None]
    generic = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
    generic = generic + generic.transpose(0, 2, 1)
    generic *= 10.0 ** rng.uniform(-160, 160, 2000)[:, None, None]
    edge = np.array(
        [
            [[1.0, 2.0], [2.0, 4.0]],
            [[1e-151, 0.0], [0.0, 1e-151]],
            [[1e-149, 0.0], [0.0, 1e-149]],
            [[1e200, 0.0], [0.0, 1e200]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
        ],
        dtype=complex,
    )
    blocks = np.concatenate((near, generic, edge))
    _, bad = _pivot_inverse(*_symmetric_entries(blocks))
    assert np.array_equal(bad, _four_entry_guard(blocks))
    assert 0 < bad[: eps.size].sum() < eps.size  # the limit falls inside the eps range
    assert bad[eps.size : -edge.shape[0]].any() and not bad[eps.size : -edge.shape[0]].all()


def test_kernel_needs_a_symmetric_on_site_block(monkeypatch):
    def skewed(spec):
        blocks = unit_cell_blocks(spec)
        return dataclasses.replace(blocks, h0=blocks.h0 + np.array([[0.0, 0.1], [0.0, 0.0]]))

    monkeypatch.setattr(transport, "unit_cell_blocks", skewed)
    with pytest.raises(ValueError, match="symmetric on-site block"):
        _eliminate(LatticeSpec(n_cells=4, topology=OPEN), LeadSpec(), [0.5, 1.0], 0.3)


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize(
    "topology, n_cells",
    [
        (OPEN, 1),
        (OPEN, 2),
        (OPEN, 3),
        (OPEN, 21),
        (OPEN, 100),
        (TWISTED, 2),
        (TWISTED, 4),
        (TWISTED, 20),
        (TWISTED, 100),
    ],
)
@pytest.mark.parametrize(
    "leads",
    [LeadSpec(), LeadSpec(upper_in=0.7, lower_out=1.3), LeadSpec(upper_in=0.0, upper_out=0.0)],
    ids=["symmetric", "asymmetric", "upper-off"],
)
def test_kernel_lanes_match_dense_solves(topology, n_cells, leads, delta):
    # many random (E, gamma) lanes in one call: the bonds enter as
    # scalars, the crossed one included, every contact pattern reaches
    # the first and last pivot, and a detuned on-site block stays symmetric
    rng = np.random.default_rng(100 + n_cells)
    energies = rng.uniform(-4.5, 4.5, 40)
    gammas = rng.uniform(0.0, 3.0, 40)
    spec = LatticeSpec(n_cells=n_cells, topology=topology, delta=delta)
    r, t, psi, pivot = _eliminate(spec, leads, energies, gammas)
    assert psi is None
    kept = np.flatnonzero(pivot < 0)
    assert kept.size >= 36
    for lane in kept:
        system = assemble_scattering_system(spec.with_gamma(gammas[lane]), leads, energies[lane])
        dense = solve_scattering(system, method="dense")
        assert abs(r[lane] - dense.r) <= 1e-10
        assert abs(t[lane] - dense.t) <= 1e-10


@pytest.mark.parametrize(
    "topology, n_cells",
    [(OPEN, 2), (OPEN, 3), (OPEN, 20), (OPEN, 21), (TWISTED, 2), (TWISTED, 20), (TWISTED, 100)],
)
def test_mirrored_leads_fold_to_the_full_sweep(topology, n_cells, monkeypatch):
    # an out-coupling one ulp above the in-coupling is not mirrored, so it
    # takes the full sweep, and only mirrored leads fold at the middle.
    # Where the two part by more than 1e-9, the fold is the one that holds
    # the dense solve: the full sweep drifts near gamma = 2d on twisted N = 100
    halves = []

    def recording(*args):
        halves.append(args)
        return _half_bond_blocks(*args)

    monkeypatch.setattr(transport, "_half_bond_blocks", recording)
    energies, gammas = np.linspace(-4.0, 4.0, 801), np.array([0.0, 0.7, 1.5, 1.995, 2.6])
    spec = LatticeSpec(n_cells=n_cells, topology=topology)
    r, t, _, pivot = _eliminate(spec, LeadSpec(), energies[:, None], gammas)
    assert len(halves) == 1
    skewed = LeadSpec(upper_out=np.nextafter(1.0, 2.0))
    r_full, t_full, _, pivot_full = _eliminate(spec, skewed, energies[:, None], gammas)
    assert len(halves) == 1
    kept = (pivot < 0) & (pivot_full < 0)
    assert np.count_nonzero(kept) >= r.size - 3
    apart = kept & (np.maximum(np.abs(r - r_full), np.abs(t - t_full)) > 1e-9)
    for lane in np.flatnonzero(apart):
        i, j = divmod(lane, gammas.size)
        system = assemble_scattering_system(spec.with_gamma(gammas[j]), LeadSpec(), energies[i])
        dense = solve_scattering(system, method="dense")
        assert abs(r[lane] - dense.r) <= 1e-10 and abs(t[lane] - dense.t) <= 1e-10


def test_fold_holds_the_dense_solve_near_gamma_2d():
    # lanes of the full twisted N = 100 map next to the collective EP at
    # gamma = 2d where the unfolded sweep was off the dense solve by
    # 3.8e-9 to 7.9e-7, mostly in R; the fold's kernel, with no dense
    # re-solve, stays within 1e-10
    energies, gammas = np.linspace(-4.0, 4.0, 801), np.linspace(0.0, 3.0, 601)
    lanes = [(297, 399), (503, 399), (293, 399), (507, 399), (272, 399), (528, 399), (395, 393), (494, 394)]
    i, j = np.array(lanes).T
    spec, leads = LatticeSpec(n_cells=100, topology=TWISTED), LeadSpec()
    t_lanes, r_lanes, failed, resolved = transport._lane_probabilities(spec, leads, energies[i], gammas[j])
    assert (failed, resolved) == (0, 0)
    for lane, (e, g) in enumerate(zip(energies[i], gammas[j])):
        dense = solve_scattering(assemble_scattering_system(spec.with_gamma(g), leads, e), method="dense")
        assert abs(t_lanes[lane] - dense.transmission_prob) <= 1e-10
        assert abs(r_lanes[lane] - dense.reflection_prob) <= 1e-10


@pytest.mark.parametrize(
    "topology, n_cells",
    [(OPEN, 1), (OPEN, 2), (OPEN, 3), (OPEN, 20), (OPEN, 21), (TWISTED, 2), (TWISTED, 20), (TWISTED, 100)],
)
def test_mirrored_hermitian_maps_conserve_flux(topology, n_cells):
    # at gamma = 0 the ladder is Hermitian, so R + T = 1 on every lane of
    # the folded map, the densely re-solved dark-state lanes included
    m = transmission_map(LatticeSpec(n_cells=n_cells, topology=topology), LeadSpec(), np.linspace(-4, 4, 801), [0.0])
    assert m.n_failed == 0
    assert np.abs(m.r_values + m.t_values - 1.0).max() <= 1e-10


def test_lanes_do_not_depend_on_their_neighbours():
    # elementwise arithmetic: a column's r and t are the same bits alone,
    # inside a broadcast (E, gamma) call, and shifted to another lane offset
    spec = LatticeSpec(n_cells=100, topology=TWISTED)
    leads = LeadSpec(upper_in=0.7, lower_out=1.3)
    energies = np.linspace(-4, 4, 201)
    gammas = np.array([0.0, 0.4, 1.1, 1.9, 2.0, 2.6])
    r_all, t_all, _, pivot_all = _eliminate(spec, leads, energies[:, None], gammas)
    for j, gamma in enumerate(gammas):
        r, t, psi, pivot = _eliminate(spec, leads, energies, gamma)
        assert psi is None
        assert r.tobytes() == r_all.reshape(energies.size, -1)[:, j].tobytes()
        assert t.tobytes() == t_all.reshape(energies.size, -1)[:, j].tobytes()
        assert np.array_equal(pivot, pivot_all.reshape(energies.size, -1)[:, j])
        r5, t5, _, _ = _eliminate(spec, leads, energies[5:], gamma)
        assert r5.tobytes() == r[5:].tobytes() and t5.tobytes() == t[5:].tobytes()


def test_solve_rejects_unknown_method():
    spec = LatticeSpec(n_cells=2, topology=OPEN)
    system = assemble_scattering_system(spec, LeadSpec(), 0.5)
    with pytest.raises(ValueError):
        solve_scattering(system, method="magic")


def test_reciprocity_under_contact_swap():
    # transpose symmetry of the Hamiltonian makes |t|^2 direction-blind
    # even with gain and loss and uneven contacts
    leads = LeadSpec(upper_in=1.0, lower_in=0.5, upper_out=0.8, lower_out=1.2)
    spec = LatticeSpec(n_cells=8, gamma=0.7, topology=TWISTED)
    for e in (-2.3, -0.4, 0.9, 3.1):
        fwd = solve_scattering(assemble_scattering_system(spec, leads, e))
        bwd = solve_scattering(assemble_scattering_system(spec, leads.swapped(), e))
        assert abs(fwd.transmission_prob - bwd.transmission_prob) < 1e-10


def test_map_matches_scalar_solves():
    spec = LatticeSpec(n_cells=6, gamma=0.0, topology=TWISTED)
    leads = LeadSpec()
    energies = np.linspace(-3, 3, 11)
    gammas = np.linspace(0.0, 1.2, 7)
    m = transmission_map(spec, leads, energies, gammas)
    assert m.t_values.shape == (11, 7)
    assert m.n_failed == 0
    for i, e in enumerate(energies):
        for j, g in enumerate(gammas):
            res = solve_scattering(
                assemble_scattering_system(spec.with_gamma(g), leads, e)
            )
            assert m.t_values[i, j] == pytest.approx(res.transmission_prob, abs=1e-12)
            assert m.r_values[i, j] == pytest.approx(res.reflection_prob, abs=1e-12)


def _chunked_grid():
    # 97 x 43 = 4171 lanes: more than one task's worth, and a multiple of
    # neither 2 nor 3 chunks
    energies = np.linspace(-4.5, 4.5, 97)
    gammas = np.linspace(0.0, 3.0, 43)
    assert LANES_PER_TASK < energies.size * gammas.size
    return energies, gammas


def gamma_moduli(vectors: np.ndarray, gamma: float) -> np.ndarray:
    """A picklable ``weigh`` for a weighted sweep: one row per eigenvector column."""
    return np.abs(vectors).T * gamma


def _map_bytes(m) -> tuple:
    return m.t_values.tobytes(), m.r_values.tobytes(), m.n_failed, m.n_resolved


@pytest.mark.pool
@pytest.mark.parametrize(
    "calls", [(2, 3), (2, 3, 2), (2, "weighted sweep", 2)], ids=["2-3", "2-3-2", "2-sweep-2"]
)
def test_map_workers_do_not_change_values(calls):
    # one pool serves every call of a process: it is rebuilt for a new
    # worker count and shared with sweeps, and no map depends on either
    spec = LatticeSpec(n_cells=6, topology=OPEN)
    leads = LeadSpec()
    energies, gammas = _chunked_grid()
    serial = transmission_map(spec, leads, energies, gammas, workers=1)
    ring = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    grid = np.linspace(0.0, 2.0, 41)
    for call in calls:
        if call == "weighted sweep":
            want, want_rows = spectral._weighted_sweep(ring, grid, gamma_moduli, workers=1)
            got, got_rows = spectral._weighted_sweep(ring, grid, gamma_moduli, workers=2)
            assert got.branches.tobytes() == want.branches.tobytes()
            assert got_rows.tobytes() == want_rows.tobytes()
        else:
            pooled = transmission_map(spec, leads, energies, gammas, workers=call)
            assert _map_bytes(pooled) == _map_bytes(serial)
    assert serial.n_failed == 0
    for j, gamma in enumerate(gammas):
        column = transmission_map(spec, leads, energies, [gamma])
        assert column.t_values[:, 0].tobytes() == serial.t_values[:, j].tobytes()
        assert column.r_values[:, 0].tobytes() == serial.r_values[:, j].tobytes()


@pytest.mark.pool
def test_pool_workers_run_a_rebound_task_function(monkeypatch, tmp_path):
    # Pool workers are forked, so they hold the task function of their
    # fork: rebinding it must start a new pool.  ``wraps`` keeps the name,
    # so the wrapper pickles by reference, and a worker forked before the
    # rebinding would run the original and leave no marks.
    spec, leads = LatticeSpec(n_cells=6, topology=OPEN), LeadSpec()
    energies, gammas = _chunked_grid()
    before = transmission_map(spec, leads, energies, gammas, workers=2)
    column = transport._map_column

    @functools.wraps(column)
    def marked(args):
        (tmp_path / f"{os.getpid()}-{args[3]}").touch()
        return column(args)

    monkeypatch.setattr(transport, "_map_column", marked)
    after = transmission_map(spec, leads, energies, gammas, workers=2)
    assert _map_bytes(after) == _map_bytes(before)
    marks = [path.name.split("-") for path in tmp_path.iterdir()]
    assert sorted(int(start) for _, start in marks) == [0, energies.size * gammas.size // 2]
    assert os.getpid() not in {int(pid) for pid, _ in marks}


@pytest.mark.pool
def test_a_pool_with_a_killed_worker_is_replaced():
    spec, leads = LatticeSpec(n_cells=6, topology=TWISTED), LeadSpec()
    energies, gammas = _chunked_grid()
    serial = transmission_map(spec, leads, energies, gammas, workers=1)
    transmission_map(spec, leads, energies, gammas, workers=2)
    pool = _pool._executor
    worker = next(iter(pool._processes.values()))
    os.kill(worker.pid, signal.SIGKILL)
    assert wait([worker.sentinel], timeout=60)
    try:
        transmission_map(spec, leads, energies, gammas, workers=2)  # may find the pool broken
    except BrokenProcessPool:
        pass
    again = transmission_map(spec, leads, energies, gammas, workers=2)
    assert _pool._executor is not pool
    assert _map_bytes(again) == _map_bytes(serial)


@pytest.mark.pool
def test_pool_workers_end_with_the_interpreter():
    # The pool outlives every call but not the process: an interpreter
    # that made pooled maps and sweeps exits cleanly and leaves no worker
    # running.  The filter turns a fork() made while another thread runs
    # (Python 3.12 warns of it) into an error.
    script = textwrap.dedent(
        """
        import numpy as np
        from ptladder import BoundaryTopology, LatticeSpec, LeadSpec, _pool, sweep_spectrum, transmission_map

        ladder = LatticeSpec(n_cells=4, topology=BoundaryTopology.OPEN)
        transmission_map(ladder, LeadSpec(), np.linspace(-3, 3, 97), np.linspace(0, 3, 43), workers=2)
        pids = list(_pool._executor._processes)
        sweep_spectrum(LatticeSpec(n_cells=4), np.linspace(0, 2, 21), workers=3)
        print(*pids, *_pool._executor._processes)
        """
    )
    src = os.path.dirname(os.path.dirname(transport.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error:This process:DeprecationWarning", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 5

    def running(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    deadline = time.monotonic() + 10
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, pids))


def test_map_tasks_are_capped_chunks_covering_each_cell_once(monkeypatch):
    spec = LatticeSpec(n_cells=2, topology=TWISTED)
    energies, gammas = _chunked_grid()
    tasks = []
    column = transport._map_column

    def recording(args):
        _, _, lane_e, start, lane_g = args
        tasks.append((start, lane_e, lane_g))
        return column(args)

    monkeypatch.setattr(transport, "_map_column", recording)
    transmission_map(spec, LeadSpec(), energies, gammas)
    sizes = [e.size for _, e, _ in tasks]
    assert max(sizes) <= LANES_PER_TASK and max(sizes) - min(sizes) <= 1
    hits = np.zeros((energies.size, gammas.size), dtype=int)
    for start, lane_e, lane_g in tasks:
        i, j = np.divmod(start + np.arange(lane_e.size), gammas.size)
        assert np.array_equal(lane_e, energies[i]) and np.array_equal(lane_g, gammas[j])
        hits[i, j] += 1
    assert np.all(hits == 1)


@pytest.mark.parametrize("topology", [OPEN, TWISTED])
def test_pt_conservation_law_over_the_plane(topology):
    # Ge, Chong & Stone: |T - 1| = sqrt(R_L R_R) holds wherever the contacts
    # respect the leg exchange, in both PT phases; an uneven input contact breaks it
    spec = LatticeSpec(n_cells=20, topology=topology)
    rng = np.random.default_rng(29)
    energies, gammas = rng.uniform(-4, 4, 20), rng.uniform(0, 3, 10)

    def gap(leads):
        left = transmission_map(spec, leads, energies, gammas)
        right = transmission_map(spec, leads.swapped(), energies, gammas)
        assert left.n_failed == right.n_failed == 0
        return np.abs(np.abs(left.t_values - 1) - np.sqrt(left.r_values * right.r_values)).max()

    assert gap(LeadSpec()) < 1e-9
    assert gap(LeadSpec(upper_in=0.7, lower_in=0.7, upper_out=1.3, lower_out=1.3)) < 1e-9
    assert gap(LeadSpec(upper_in=0.9)) > 0.05


def test_map_rejects_empty_grids():
    spec = LatticeSpec(n_cells=4, topology=OPEN)
    with pytest.raises(ValueError):
        transmission_map(spec, LeadSpec(), [], [0.0])
    with pytest.raises(ValueError):
        transmission_map(spec, LeadSpec(), [0.0], [])


def test_zero_energy_trace_is_map_row():
    # the open N = 100 lane at gamma = 0 hits an exactly singular interior
    # pivot and is re-solved densely inside the trace
    leads = LeadSpec()
    cases = (
        (LatticeSpec(n_cells=6, topology=TWISTED), np.linspace(0.0, 1.5, 16)),
        (LatticeSpec(n_cells=100, topology=OPEN), np.array([0.0, 0.3])),
    )
    for spec, gammas in cases:
        trace = zero_energy_trace(spec, leads, gammas)
        m = transmission_map(spec, leads, [0.0], gammas)
        assert len(trace) == gammas.size
        for (g, t), g_ref, t_ref in zip(trace, gammas, m.t_values[0]):
            assert g == g_ref and t == t_ref
    dense = solve_scattering(assemble_scattering_system(spec, leads, 0.0), method="dense")
    assert trace[0][1] == dense.transmission_prob
    assert trace[0][1] == pytest.approx(0.390243902, abs=1e-9)


def test_map_counts_dense_resolves_apart_from_failures():
    # the E = 0, gamma = 0 lane of the open N = 100 ladder hits an exactly
    # singular interior pivot; its dense re-solve succeeds
    m = transmission_map(LatticeSpec(n_cells=100, topology=OPEN), LeadSpec(), [0.0], [0.0, 0.3])
    assert (m.n_resolved, m.n_failed) == (1, 0)
    assert np.all(np.isfinite(m.t_values))


def test_dense_singular_system_gives_the_minimum_norm_solution():
    # open N = 1 at E = d, gamma = 0: the antisymmetric (dark) state is a
    # null vector of the bordered matrix.  r and t are fixed, and the
    # internal amplitudes must not carry an arbitrary multiple of it
    system = assemble_scattering_system(LatticeSpec(n_cells=1, topology=OPEN), LeadSpec(), 1.0)
    assert np.linalg.cond(system.matrix) > 1e15
    for method in ("dense", "auto"):
        res = solve_scattering(system, method=method)
        upper, lower = res.internal
        assert abs(upper - lower) < 1e-12
        assert res.transmission_prob == pytest.approx(11 / 75, abs=1e-12)
        assert res.reflection_prob == pytest.approx(64 / 75, abs=1e-12)


def test_find_trace_peaks_rules():
    trace = [(0.0, 0.1), (0.5, 0.9), (1.0, 0.2), (1.5, 0.95), (2.0, 0.1)]
    assert find_trace_peaks(trace) == [(0.5, 0.9), (1.5, 0.95)]
    assert find_trace_peaks(trace, min_height=0.92) == [(1.5, 0.95)]
    # plateaus and NaN cells are not strict maxima
    flat = [(0.0, 0.5), (0.5, 0.5), (1.0, 0.5)]
    assert find_trace_peaks(flat) == []
    holed = [(0.0, 0.1), (0.5, float("nan")), (1.0, 0.1)]
    assert find_trace_peaks(holed) == []
    assert find_trace_peaks([]) == []


def test_detangle_check_symmetric_contacts():
    # equal contacts drive only the leg-symmetric chain: its levels give
    # resonance peaks (lead-shifted by a few hundredths) while the
    # decoupled antisymmetric chain is invisible, so no deep dips appear
    spec = LatticeSpec(n_cells=10, topology=OPEN)
    report = detangled_transport_check(spec, LeadSpec(), np.linspace(-3.5, 3.5, 1401))
    assert report.contact_pattern == "symmetric"
    assert report.dip_offsets.size == 10
    assert np.all(report.peak_offsets <= 0.03)
    assert not report.antiresonance_present
    assert np.all(report.dip_depths > 0.05)
    in_band = np.abs(report.f_energies) < 0.9
    assert np.all(report.dip_offsets[in_band] > 10 * report.grid_step)
    expected_f = 1.0 - 2.0 * np.cos(np.arange(1, 11) * math.pi / 11)
    np.testing.assert_allclose(np.sort(expected_f), report.f_energies, atol=1e-12)


def test_detangle_check_upper_contact_off():
    # a one-leg contact opens both detangled chains; two-path Fano
    # interference then produces deep minima near the chain levels
    spec = LatticeSpec(n_cells=10, topology=OPEN)
    leads = LeadSpec(upper_in=0.0, upper_out=0.0, lower_in=1.0, lower_out=1.0)
    report = detangled_transport_check(spec, leads, np.linspace(-3.5, 3.5, 1401))
    assert report.contact_pattern == "upper-off"
    assert report.antiresonance_present
    assert np.min(report.dip_depths) < 1e-3


def test_detangle_check_preconditions():
    grid = np.linspace(-3, 3, 101)
    with pytest.raises(ValueError):
        detangled_transport_check(LatticeSpec(n_cells=6), LeadSpec(), grid)
    with pytest.raises(ValueError):
        detangled_transport_check(
            LatticeSpec(n_cells=6, gamma=0.5, topology=OPEN), LeadSpec(), grid
        )
    with pytest.raises(ValueError):
        detangled_transport_check(
            LatticeSpec(n_cells=6, topology=OPEN),
            LeadSpec(upper_in=0.4, lower_in=1.0, upper_out=0.4, lower_out=1.0),
            grid,
        )
    with pytest.raises(ValueError):
        detangled_transport_check(
            LatticeSpec(n_cells=6, topology=OPEN), LeadSpec(), np.linspace(-3, 3, 8)
        )
