"""Spectral machinery tests: eigensolver oracle, sweeps, phases, EPs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ptladder as pt
from ptladder import (
    BoundaryTopology,
    BrokenWindow,
    EpKind,
    ExceptionalPoint,
    LatticeSpec,
    Phase,
    bloch_eigenvalues,
    broken_windows,
    build_real_space_hamiltonian,
    classify_pt_phase,
    eigendecompose,
    locate_exceptional_points,
    locate_zero_energy_eps,
    sweep_matrix_family,
    sweep_spectrum,
)
from ptladder.spectral import _family_for


def char_poly_eigs(h):
    """Independent eigenvalue route: trace recursion for the characteristic
    polynomial coefficients, then companion-matrix roots."""
    n = h.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ m) / k
    return np.roots(coeffs)


def pairing_distance(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def pt_dimer(gamma, d=1.0):
    # two-state gain/loss block; eigenvalues +-sqrt(d^2 - gamma^2/4)
    return np.array([[0.5j * gamma, -d], [-d, -0.5j * gamma]], dtype=complex)


def test_eigendecompose_matches_characteristic_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(4):
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = (a + a.T) / 2
        mine = eigendecompose(h).eigenvalues
        assert pairing_distance(mine, char_poly_eigs(h)) < 1e-9


def test_eigendecompose_sort_and_shapes():
    vals = np.array([1 + 1j, -2, 1 - 1j, 0.5])
    spec = eigendecompose(np.diag(vals))
    expected = sorted(vals, key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(spec.eigenvalues, expected, atol=1e-12)
    assert spec.right_eigenvectors is None


def test_eigendecompose_vectors_satisfy_eigen_equation():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    h = (a + a.T) / 2
    spec = eigendecompose(h, want_vectors=True, gamma=1.5)
    assert spec.gamma == 1.5
    resid = np.linalg.norm(h @ spec.right_eigenvectors - spec.right_eigenvectors * spec.eigenvalues, axis=0)
    assert resid.max() < 1e-8 * np.linalg.norm(h)


def test_eigendecompose_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((3, 4)))


def test_sweep_branches_are_permutations_of_fresh_spectra():
    spec = LatticeSpec(n_cells=6)
    grid = np.linspace(0.0, 3.0, 61)
    sweep = sweep_spectrum(spec, grid)
    assert sweep.n_branches == 12
    for j, g in enumerate(grid):
        fresh = eigendecompose(build_real_space_hamiltonian(spec.with_gamma(g))).eigenvalues
        np.testing.assert_array_equal(np.sort_complex(sweep.branches[:, j]), fresh)


@pytest.mark.parametrize("topology", list(BoundaryTopology))
def test_family_matches_fresh_builds(topology):
    spec = LatticeSpec(n_cells=6, delta=0.3, gamma=0.8, topology=topology)
    build = _family_for(spec, None)
    for g in (-1.7, -0.25, 0.0, 0.4, 2.3):
        np.testing.assert_array_equal(build(g), build_real_space_hamiltonian(spec.with_gamma(g)))


def test_sweep_continuity_residual_is_bounded_by_ep_kink():
    # the sqrt-type fork at the collective EP dominates the largest step
    spec = LatticeSpec(n_cells=6)
    sweep = sweep_spectrum(spec, np.linspace(0.0, 3.0, 301))
    assert sweep.continuation_residual < 0.2


def test_sweep_workers_do_not_change_results():
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    grid = np.linspace(0.0, 2.0, 41)
    one = sweep_spectrum(spec, grid, workers=1)
    two = sweep_spectrum(spec, grid, workers=2)
    np.testing.assert_array_equal(one.branches, two.branches)
    assert one.ambiguous_steps == two.ambiguous_steps


def test_sweep_rejects_bad_grids():
    spec = LatticeSpec(n_cells=4)
    with pytest.raises(ValueError):
        sweep_spectrum(spec, [])
    with pytest.raises(ValueError):
        sweep_spectrum(spec, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        sweep_spectrum(spec, [0.0, 1.0, 0.5])


def test_sweep_flags_genuine_fork_not_persistent_degeneracy():
    # an exact crossing out of a degenerate point cannot be disambiguated
    fork = lambda g: np.diag([g, -g]).astype(complex)
    sweep = sweep_matrix_family(fork, [-1.0, 0.0, 1.0])
    assert sweep.ambiguous_steps == [1]

    # a ring carries exact +-k degeneracies everywhere; they must stay silent
    spec = LatticeSpec(n_cells=10)
    sweep = sweep_spectrum(spec, np.linspace(0.5, 1.5, 21))
    assert sweep.ambiguous_steps == []


def test_bloch_sweep_tracks_two_branches():
    spec = LatticeSpec(n_cells=4)
    grid = np.linspace(0.0, 1.5, 16)
    sweep = sweep_spectrum(spec, grid, k=0.9)
    assert sweep.n_branches == 2
    plus, minus = bloch_eigenvalues(spec.with_gamma(1.5), 0.9)
    assert pairing_distance(sweep.branches[:, -1], [plus, minus]) < 1e-12


def test_classify_phase_counts_across_transition():
    spec = LatticeSpec(n_cells=10)
    below = classify_pt_phase(
        eigendecompose(build_real_space_hamiltonian(spec.with_gamma(1.99))), tol=1e-9
    )
    above = classify_pt_phase(
        eigendecompose(build_real_space_hamiltonian(spec.with_gamma(2.01))), tol=1e-9
    )
    assert below.n_broken == 0 and below.n_unbroken == 20
    assert above.n_broken == 20 and above.n_unbroken == 0
    assert all(l.phase is Phase.BROKEN for l in above.labels)


def test_classify_phase_accepts_plain_arrays():
    report = classify_pt_phase(np.array([1.0, 1 + 5e-10j, 1 + 2e-6j]), tol=1e-9)
    assert report.n_broken == 1 and report.n_unbroken == 2
    with pytest.raises(ValueError):
        classify_pt_phase(np.array([1.0]), tol=-1.0)


@given(gamma=st.floats(0.0, 3.0, allow_nan=False), n=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_spectrum_conjugate_closure_and_trace(gamma, n):
    # closure holds to sqrt(eps) at the collective EP gamma = 2, where the
    # eigenvalues are defective and scatter accordingly
    spec = LatticeSpec(n_cells=n, gamma=gamma)
    vals = eigendecompose(build_real_space_hamiltonian(spec)).eigenvalues
    assert pairing_distance(vals, np.conj(vals)) < 5e-7
    assert abs(vals.sum()) < 1e-8 * n


def test_collective_ep_location_on_ring():
    # all momentum pairs of the ring coalesce together at gamma = 2d
    points = locate_exceptional_points(LatticeSpec(n_cells=6), (1.5, 2.5), coarse_steps=40)
    assert len(points) == 6
    for p in points:
        assert p.kind is EpKind.MERGE
        assert abs(p.gamma_star - 2.0) < 1e-9
        assert p.bracket_hi - p.bracket_lo <= 2e-10
        assert p.n_broken_change == 12
        assert p.self_orthogonality < 1e-3
    energies = sorted(p.energy_star.real for p in points)
    np.testing.assert_allclose(energies, [-2, -1, -1, 1, 1, 2], atol=1e-4)

    windows = broken_windows(points)
    assert len(windows) == 1
    assert windows[0].open_ended and math.isinf(windows[0].gamma_hi)
    assert abs(windows[0].gamma_lo - 2.0) < 1e-9


def test_bloch_ep_at_band_center_momentum():
    spec = LatticeSpec(n_cells=4)
    points = locate_exceptional_points(spec, (1.5, 2.5), coarse_steps=20, k=math.pi / 2)
    assert len(points) == 1
    assert abs(points[0].gamma_star - 2.0) < 1e-9
    assert abs(points[0].energy_star) < 1e-4


def test_gap_exponent_is_square_root():
    # gap(gamma) ~ |gamma - gamma*|^0.5 over two decades below the EP
    spec = LatticeSpec(n_cells=4)
    offsets = np.logspace(-3, -1, 9)
    gaps = []
    for off in offsets:
        plus, minus = bloch_eigenvalues(spec.with_gamma(2.0 - off), math.pi / 2)
        gaps.append(abs(plus - minus))
    slope = np.polyfit(np.log(offsets), np.log(gaps), 1)[0]
    assert abs(slope - 0.5) < 0.05


def test_synthetic_window_yields_merge_split_pair():
    # eigenvalues +-sqrt((g-1)(g-2)): broken exactly inside (1, 2)
    family = lambda g: np.array([[0.0, 1.0], [(g - 1.0) * (g - 2.0), 0.0]], dtype=complex)
    points = locate_exceptional_points(family, (0.5, 2.5), coarse_steps=50)
    assert [p.kind for p in points] == [EpKind.MERGE, EpKind.SPLIT]
    assert abs(points[0].gamma_star - 1.0) < 1e-9
    assert abs(points[1].gamma_star - 2.0) < 1e-9
    assert points[0].n_broken_change == 2 and points[1].n_broken_change == -2

    windows = broken_windows(points)
    assert len(windows) == 1
    w = windows[0]
    assert not w.open_ended
    assert abs(w.gamma_lo - 1.0) < 1e-9 and abs(w.gamma_hi - 2.0) < 1e-9
    assert abs(w.width - 1.0) < 1e-8


def test_avoided_crossing_reported_as_diagnostic_not_ep():
    family = lambda g: np.array([[g - 1.0, 0.05], [0.05, 1.0 - g]], dtype=complex)
    points, diagnostics = locate_exceptional_points(
        family, (0.0, 2.0), coarse_steps=100, return_diagnostics=True
    )
    assert points == []
    assert len(diagnostics) == 1
    assert abs(diagnostics[0].gamma - 1.0) < 1e-3
    assert abs(diagnostics[0].min_gap - 0.1) < 1e-6


def test_locate_rejects_bad_ranges():
    spec = LatticeSpec(n_cells=4)
    with pytest.raises(ValueError):
        locate_exceptional_points(spec, (2.0, 1.0))
    with pytest.raises(ValueError):
        locate_exceptional_points(spec, (0.0, 1.0), coarse_steps=0)


def _point(gamma, kind, energy=0.0):
    return ExceptionalPoint(
        gamma_star=gamma,
        energy_star=complex(energy),
        kind=kind,
        branch_pair=(0, 1),
        pair_gap=0.0,
        self_orthogonality=0.0,
        bracket_lo=gamma - 1e-10,
        bracket_hi=gamma + 1e-10,
        n_broken_change=2 if kind is EpKind.MERGE else -2,
    )


def test_broken_windows_pairing_rules():
    assert broken_windows([]) == []

    # merge + split close in energy form one window; stray split opens at -inf
    pts = [
        _point(0.3, EpKind.SPLIT, energy=5.0),
        _point(0.5, EpKind.MERGE, energy=1.0),
        _point(0.9, EpKind.SPLIT, energy=1.0),
        _point(1.2, EpKind.MERGE, energy=-1.0),
    ]
    wins = broken_windows(pts)
    assert len(wins) == 3
    leading = [w for w in wins if math.isinf(w.gamma_lo)][0]
    assert leading.gamma_hi == 0.3 and leading.open_ended
    closed = [w for w in wins if not w.open_ended][0]
    assert (closed.gamma_lo, closed.gamma_hi) == (0.5, 0.9)
    assert closed.width == pytest.approx(0.4)
    trailing = [w for w in wins if math.isinf(w.gamma_hi)][0]
    assert trailing.gamma_lo == 1.2 and trailing.open_ended


def test_broken_windows_split_matches_nearest_energy_merge():
    pts = [
        _point(0.4, EpKind.MERGE, energy=1.0),
        _point(0.5, EpKind.MERGE, energy=-1.0),
        _point(0.8, EpKind.SPLIT, energy=-1.001),
        _point(0.9, EpKind.SPLIT, energy=0.999),
    ]
    wins = broken_windows(pts)
    by_energy = {round(w.energy.real): w for w in wins}
    assert by_energy[-1].gamma_lo == 0.5 and by_energy[-1].gamma_hi == 0.8
    assert by_energy[1].gamma_lo == 0.4 and by_energy[1].gamma_hi == 0.9


def test_broken_windows_deduplicates_simultaneous_cluster():
    pts = [_point(2.0, EpKind.MERGE, energy=1.0) for _ in range(5)]
    wins = broken_windows(pts)
    assert len(wins) == 1 and wins[0].open_ended


def numpy_twisted_ladder(n_cells, gamma):
    """Twisted ladder with d = t = 1 from numpy alone: +-i*gamma/2 on the
    legs, rungs in every cell, and crossed legs between cells N/2 and
    N/2 + 1 (1-based)."""
    h = np.diag(np.tile([0.5j * gamma, -0.5j * gamma], n_cells))
    for c in range(n_cells):
        h[2 * c, 2 * c + 1] = h[2 * c + 1, 2 * c] = -1.0
    for c in range(n_cells - 1):
        a, b = 2 * c, 2 * c + 1
        if c == n_cells // 2 - 1:
            bonds = ((a, b + 2), (b, a + 2))
        else:
            bonds = ((a, a + 2), (b, b + 2))
        for i, j in bonds:
            h[i, j] = h[j, i] = -1.0
    return h


def twisted_det_signs(n_cells, gammas):
    return np.array(
        [np.sign(np.linalg.slogdet(numpy_twisted_ladder(n_cells, g))[0].real) for g in gammas]
    )


def test_zero_energy_ep_on_dimer_family():
    points = locate_zero_energy_eps(pt_dimer, (1.5, 2.5), scan_steps=60)
    assert len(points) == 1
    p = points[0]
    assert p.kind is EpKind.MERGE
    assert abs(p.gamma_star - 2.0) < 1e-8
    assert abs(p.energy_star) < 1e-8
    assert p.self_orthogonality < 1e-4


def test_zero_energy_scan_ignores_plain_band_crossing():
    family = lambda g: np.diag([g - 1.0, 5.0]).astype(complex)
    assert locate_zero_energy_eps(family, (0.5, 1.5), scan_steps=60) == []


def test_zero_energy_eps_twisted_versus_straight_ladder():
    twisted = LatticeSpec(n_cells=20, topology=BoundaryTopology.TWISTED_OPEN)
    straight = LatticeSpec(n_cells=20, topology=BoundaryTopology.OPEN)
    found = locate_zero_energy_eps(twisted, (0.05, 1.95), scan_steps=200)
    assert len(found) >= 2
    assert {p.kind for p in found} == {EpKind.MERGE, EpKind.SPLIT}
    for p in found:
        assert 0.05 < p.gamma_star < 1.95
        assert abs(p.energy_star) < 1e-6
        below, above = twisted_det_signs(20, [p.gamma_star - 1e-7, p.gamma_star + 1e-7])
        assert below * above < 0
    signs = twisted_det_signs(20, np.linspace(0.05, 1.95, 20001))
    signs = signs[signs != 0]
    assert len(found) == np.count_nonzero(signs[1:] != signs[:-1])
    assert locate_zero_energy_eps(straight, (0.05, 1.95), scan_steps=200) == []


def test_zero_energy_scan_needs_a_zero_not_just_a_real_part_sign_change():
    family = lambda g: np.diag([np.exp(1j * g), 1.0])
    assert np.cos(1.0) > 0 > np.cos(2.0)  # Re det H = cos(g) flips at pi/2
    assert locate_zero_energy_eps(family, (1.0, 2.0), scan_steps=60) == []


def test_zero_energy_scan_rejects_a_coalescence_away_from_zero():
    # a PT dimer shifted to E = 0.5 merges at g = 2, where the phase of a
    # third level turns Re det H through zero while |det H| = 0.25
    def family(g):
        h = np.zeros((3, 3), dtype=complex)
        h[:2, :2] = pt_dimer(g) + 0.5 * np.eye(2)
        h[2, 2] = 1j * np.exp(1j * (g - 2.0))
        return h

    assert locate_zero_energy_eps(family, (1.9, 2.1), scan_steps=21) == []


def test_zero_energy_scan_skips_the_zero_mode_at_gamma_zero():
    twisted = LatticeSpec(n_cells=20, topology=BoundaryTopology.TWISTED_OPEN)
    assert np.linalg.slogdet(numpy_twisted_ladder(20, 0.0))[0] == 0
    from_zero = locate_zero_energy_eps(twisted, (0.0, 1.95), scan_steps=200)
    inside = locate_zero_energy_eps(twisted, (0.05, 1.95), scan_steps=200)
    assert len(from_zero) == len(inside)
    assert all(p.gamma_star > 0.05 for p in from_zero)
