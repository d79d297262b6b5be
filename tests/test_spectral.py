"""Spectral machinery tests: eigensolver oracle, sweeps, phases, EPs."""

import functools
import math
import os
import signal
import time

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
    analytic_oll_spectrum,
    bloch_eigenvalues,
    broken_windows,
    build_bloch_hamiltonian,
    build_real_space_hamiltonian,
    chiral_swap,
    classify_pt_phase,
    eigendecompose,
    locate_exceptional_points,
    locate_zero_energy_eps,
    sector_blocks,
    sweep_matrix_family,
    sweep_spectrum,
)
from ptladder import _pool, spectral
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


def test_eigendecompose_of_a_real_matrix_is_complex_and_exact():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(25, 25))
    spec = eigendecompose(h, want_vectors=True)
    vals = spec.eigenvalues
    assert vals.dtype == np.complex128 and spec.right_eigenvectors.dtype == np.complex128
    np.testing.assert_array_equal(vals, vals[np.lexsort((vals.imag, vals.real))])
    real = np.abs(vals.imag) < 1e-9
    assert real.any() and (~real).any()
    assert np.all(vals.imag[real] == 0.0)
    # the sort puts each conjugate pair next to each other, negative part first
    upper = vals[~real][1::2]
    np.testing.assert_array_equal(vals[~real][0::2], np.conj(upper))
    assert np.all(upper.imag > 0)
    assert pairing_distance(vals, np.linalg.eigvals(h.astype(complex))) < 1e-12 * np.linalg.norm(h)


def test_broken_count_does_not_depend_on_im_tol(monkeypatch):
    # real blocks give real eigenvalues an imaginary part of exactly 0.0
    spec = LatticeSpec(n_cells=20, topology=BoundaryTopology.MOEBIUS)
    default = locate_exceptional_points(spec, (0.02, 0.8), 120)
    monkeypatch.setattr(spectral, "IM_TOL", 0.0)
    exact = locate_exceptional_points(spec, (0.02, 0.8), 120)
    assert len(default) > 0
    assert exact == default


def test_sweep_branches_are_permutations_of_fresh_spectra():
    spec = LatticeSpec(n_cells=6)
    grid = np.linspace(0.0, 3.0, 61)
    sweep = sweep_spectrum(spec, grid)
    assert sweep.n_branches == 12
    for j, g in enumerate(grid):
        blocks = sector_blocks(spec.with_gamma(g))
        fresh = np.sort_complex(np.concatenate([eigendecompose(b).eigenvalues for b in blocks]))
        np.testing.assert_array_equal(np.sort_complex(sweep.branches[:, j]), fresh)
        if abs(g - 2.0) > 1e-9:  # the collective EP scatters eigenvalues by sqrt(eps)
            ham = build_real_space_hamiltonian(spec.with_gamma(g))
            dense = np.linalg.eigvals(ham)
            assert pairing_distance(sweep.branches[:, j], dense) < 1e-12 * np.linalg.norm(ham)


@pytest.mark.parametrize("topology", list(BoundaryTopology))
def test_family_matches_fresh_builds(topology):
    # odd N puts a centre cell in the even block; delta = 0 puts -0.0 in
    # the lower on-site value, and comparing bytes checks signed zeros too
    sizes = (1, 2, 5, 6) if topology is BoundaryTopology.OPEN else (2, 3, 6)
    for n_cells in sizes:
        if n_cells % 2 and topology in (BoundaryTopology.MOEBIUS, BoundaryTopology.TWISTED_OPEN):
            continue
        for delta in (0.0, 0.3):
            spec = LatticeSpec(n_cells=n_cells, delta=delta, gamma=0.8, topology=topology)
            blocks, _ = _family_for(spec)
            # the EP searches build the even block alone where it maps onto the odd one
            scanned = spectral._search_grid(spec, (0.0, 1.0), 1, 1, "steps")[2]
            kept = 1 if chiral_swap(spec) is not None else 2
            gammas = (-1.7, -0.25, 0.0, 0.4, 2.3)
            stacks = blocks(np.array(gammas))  # one chunk, as the scans and sweeps build it
            for i, g in enumerate(gammas):
                fresh = sector_blocks(spec.with_gamma(g))
                got = blocks(g)
                assert isinstance(got, tuple) and len(got) == len(fresh)
                assert [b.tobytes() for b in got] == [b.tobytes() for b in fresh]
                assert [s[i].tobytes() for s in stacks] == [b.tobytes() for b in fresh]
                assert [b.tobytes() for b in scanned(g)] == [b.tobytes() for b in fresh[:kept]]


# Every topology at odd and even N (Moebius and twisted need even N), at
# delta = 0 (real blocks) and 0.3 (complex blocks).
STACK_SPECS = [
    LatticeSpec(n_cells=n_cells, delta=delta, topology=topology)
    for topology in BoundaryTopology
    for n_cells in (6, 7)
    if not (n_cells % 2 and topology in (BoundaryTopology.MOEBIUS, BoundaryTopology.TWISTED_OPEN))
    for delta in (0.0, 0.3)
]


def stacks_of_four(monkeypatch, spec) -> None:
    """Chunks of four grid points after the first, which is one point."""
    monkeypatch.setattr(spectral, "STACK_BYTES", 4 * max(b.nbytes for b in sector_blocks(spec)))


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=repr)
def test_stacked_scans_match_per_point_solves(spec, extra, monkeypatch):
    # grids one point shorter than a chunk, exactly one chunk, and one
    # point longer; no label changes, so the scan is all that runs
    stacks_of_four(monkeypatch, spec)
    grid = np.linspace(0.1, 2.9, 5 + extra)
    scanned = spectral._search_grid(spec, (0.0, 1.0), 1, 1, "steps")[2]
    chunks = [chunk.size for chunk, _ in spectral._stacked(scanned, grid)]
    assert chunks == {-1: [1, 3], 0: [1, 4], 1: [1, 4, 1]}[extra]
    same = lambda result: 0
    values, _ = spectral._scan_and_refine(
        scanned, grid, spectral._stack_eigvals, spectral._block_eigvals, same, None, 0.0
    )
    dets, _ = spectral._scan_and_refine(scanned, grid, spectral._slogdets, spectral._slogdet, same, None, 0.0)
    kept = 1 if chiral_swap(spec) is not None else 2
    assert len(values) == len(dets) == kept
    for g in grid:
        for k, block in enumerate(sector_blocks(spec.with_gamma(g))[:kept]):
            assert values[k][g].tobytes() == eigendecompose(block).eigenvalues.tobytes()
            sign, logabs = np.linalg.slogdet(block)
            assert repr(dets[k][g]) == repr((float(sign.real), float(logabs)))


def column_moduli(vectors: np.ndarray, gamma: float) -> np.ndarray:
    """A picklable ``weigh``: one row per eigenvector column."""
    return np.abs(vectors).T * gamma


@pytest.fixture
def fresh_pool():
    """Pool workers hold the module state of their fork: start the test
    with no pool, so that its first pooled call forks workers that see
    its patches, and leave none of those workers behind."""
    _pool.shutdown()
    yield
    _pool.shutdown()


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.pool)])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=repr)
def test_stacked_sweeps_match_per_point_solves(spec, workers, monkeypatch, fresh_pool):
    # 23 points: the pool splits them into 8 parts of 2 or 3 points, and
    # a serial sweep into chunks of 1, 4, 4, 4, 4, 4 and 2
    stacks_of_four(monkeypatch, spec)
    grid = np.linspace(0.0, 3.0, 23)
    fresh = lambda g: sector_blocks(spec.with_gamma(g))
    spectra = [spectral._merged([eigendecompose(b).eigenvalues for b in fresh(g)]) for g in grid]
    want = spectral._continue_branches(grid, spectra)[0]
    got = sweep_spectrum(spec, grid, workers=workers)
    assert got.branches.tobytes() == want.branches.tobytes()
    assert (got.ambiguous_steps, got.continuation_residual) == (want.ambiguous_steps, want.continuation_residual)

    bases = _family_for(spec)[1]
    pairs = [spectral._eigenpairs(fresh, bases, g) for g in grid]
    rows = [column_moduli(p.right_eigenvectors, g) for p, g in zip(pairs, grid)]
    want, want_rows = spectral._continue_branches(grid, [p.eigenvalues for p in pairs], rows)
    got, got_rows = spectral._weighted_sweep(spec, grid, column_moduli, workers=workers)
    assert got.branches.tobytes() == want.branches.tobytes()
    assert got_rows.tobytes() == want_rows.tobytes()


def test_a_nan_grid_point_raises_from_searches_and_sweeps():
    grid = np.linspace(1.5, 2.5, 61)
    family = lambda g: np.full((2, 2), np.nan) if g == grid[7] else pt_dimer(g)
    for search in (locate_exceptional_points, locate_zero_energy_eps):
        with pytest.raises(spectral.EigensolverError, match="2x2"):
            search(family, (1.5, 2.5), 60)
    with pytest.raises(spectral.EigensolverError, match="2x2"):
        sweep_matrix_family(family, grid)


def test_searches_refuse_a_detuned_spec():
    # delta != 0 breaks PT symmetry, which both searches rest on
    spec = LatticeSpec(n_cells=20, delta=0.3)
    for search in (locate_exceptional_points, locate_zero_energy_eps):
        with pytest.raises(ValueError, match="delta = 0"):
            search(spec, (0.0, 3.0))


@pytest.mark.parametrize(
    "n_cells, topology, gamma_range, steps",
    [
        (20, BoundaryTopology.CIRCULAR, (0.0, 3.0), 400),
        (20, BoundaryTopology.MOEBIUS, (0.02, 0.8), 250),
        (40, BoundaryTopology.MOEBIUS, (0.01, 0.45), 250),
        # the zero-mode pair breaks from gamma = 0, so its count flips in the first step
        (20, BoundaryTopology.TWISTED_OPEN, (0.0, 3.0), 400),
    ],
)
def test_sector_ep_search_matches_the_dense_callable(n_cells, topology, gamma_range, steps):
    spec = LatticeSpec(n_cells=n_cells, topology=topology)
    dense = lambda g: build_real_space_hamiltonian(spec.with_gamma(g))
    bracket_tol = spectral.BRACKET_TOL
    sectors = locate_exceptional_points(spec, gamma_range, steps)
    reference = locate_exceptional_points(dense, gamma_range, steps)
    assert len(sectors) == len(reference) > 0
    assert [p.kind for p in sectors] == [p.kind for p in reference]
    for got, want in zip(sectors, reference):
        # a bracket ends on its width alone
        for p in (got, want):
            assert p.bracket_hi - p.bracket_lo <= bracket_tol
            assert p.bracket_lo <= p.gamma_star <= p.bracket_hi
        assert abs(got.gamma_star - want.gamma_star) <= bracket_tol
        # the ring's collective EP scatters its cluster by about sqrt(eps)
        assert abs(got.energy_star - want.energy_star) <= 1e-5
        assert abs(got.self_orthogonality - want.self_orthogonality) <= 1e-5


@pytest.mark.parametrize("n_cells, steps", [(20, 200), (40, 400)])
def test_sector_zero_energy_search_matches_the_dense_callable(n_cells, steps):
    spec = LatticeSpec(n_cells=n_cells, topology=BoundaryTopology.TWISTED_OPEN)
    dense = lambda g: build_real_space_hamiltonian(spec.with_gamma(g))
    sectors = locate_zero_energy_eps(spec, (0.05, 1.95), steps)
    reference = locate_zero_energy_eps(dense, (0.05, 1.95), steps)
    assert len(sectors) == len(reference) > 0
    assert [p.kind for p in sectors] == [p.kind for p in reference]
    for got, want in zip(sectors, reference):
        assert abs(got.gamma_star - want.gamma_star) <= 1e-12
        assert abs(got.energy_star - want.energy_star) <= 1e-9


def test_sweep_continuity_residual_is_bounded_by_ep_kink():
    # the sqrt-type fork at the collective EP dominates the largest step
    spec = LatticeSpec(n_cells=6)
    sweep = sweep_spectrum(spec, np.linspace(0.0, 3.0, 301))
    assert sweep.continuation_residual < 0.2


@pytest.mark.pool
@pytest.mark.parametrize("counts", [(2,), (2, 3, 2)], ids=["2", "2-3-2"])
def test_sweep_workers_do_not_change_results(counts):
    # one pool serves every call of a process, rebuilt for a new worker
    # count; plain and weighted sweeps stay bit-identical to serial ones
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    grid = np.linspace(0.0, 2.0, 41)
    one = sweep_spectrum(spec, grid, workers=1)
    one_weighted, one_rows = spectral._weighted_sweep(spec, grid, column_moduli, workers=1)
    for workers in counts:
        pooled = sweep_spectrum(spec, grid, workers=workers)
        assert pooled.branches.tobytes() == one.branches.tobytes()
        assert pooled.ambiguous_steps == one.ambiguous_steps
        weighted, rows = spectral._weighted_sweep(spec, grid, column_moduli, workers=workers)
        assert weighted.branches.tobytes() == one_weighted.branches.tobytes()
        assert rows.tobytes() == one_rows.tobytes()


@pytest.mark.pool
def test_pool_workers_run_a_rebound_solve(monkeypatch, tmp_path):
    # the sweep's task function is part of what a kept pool must match,
    # as the map's is (test_transport): workers forked before it was
    # rebound would run the original and leave no marks
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    grid = np.linspace(0.0, 2.0, 41)
    before = sweep_spectrum(spec, grid, workers=2)
    solve = spectral._solve_points

    @functools.wraps(solve)
    def marked(build, bases, weigh, gammas):
        (tmp_path / f"{os.getpid()}-{float(gammas[0])!r}").touch()
        return solve(build, bases, weigh, gammas)

    monkeypatch.setattr(spectral, "_solve_points", marked)
    after = sweep_spectrum(spec, grid, workers=2)
    assert after.branches.tobytes() == before.branches.tobytes()
    marks = [path.name.split("-", 1) for path in tmp_path.iterdir()]
    assert sorted(float(g) for _, g in marks) == [part[0] for part in np.array_split(grid, 8)]
    assert os.getpid() not in {int(pid) for pid, _ in marks}


@pytest.mark.pool
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_gets_its_own_pool():
    # The fork below is made with the parent's pool running on purpose,
    # hence the filter.  The child may neither use nor shut down its
    # parent's pool, whose workers answer the parent alone.
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    grid = np.linspace(0.0, 2.0, 41)
    serial = sweep_spectrum(spec, grid, workers=1)
    sweep_spectrum(spec, grid, workers=2)
    pool = _pool._executor
    workers = set(pool._processes)
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            child = sweep_spectrum(spec, grid, workers=2)
            ok = child.branches.tobytes() == serial.branches.tobytes()
            ok = ok and _pool._executor is not pool and not workers & set(_pool._executor._processes)
            _pool.shutdown()
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while not (ended := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.05)
    if not ended[0]:  # a child sending work to its parent's pool waits forever
        os.kill(pid, signal.SIGKILL)
        ended = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(ended[1]) == 0
    again = sweep_spectrum(spec, grid, workers=2)
    assert again.branches.tobytes() == serial.branches.tobytes()
    assert _pool._executor is pool and set(pool._processes) == workers


@pytest.mark.pool
def test_pooled_sweep_builds_no_grid_blocks_in_the_parent(monkeypatch):
    # A serial sweep builds each grid point once and nothing else, a
    # chunk of them per call.  Pool workers are forked, so their builds
    # land in their own copies of ``built``, and the parent builds
    # nothing.  ``wraps`` keeps the name, so the patched function pickles
    # by reference.
    built = []
    affine = spectral._affine_blocks

    @functools.wraps(affine)
    def counted(b0, slope, g):
        built.extend(np.atleast_1d(g).tolist())
        return affine(b0, slope, g)

    monkeypatch.setattr(spectral, "_affine_blocks", counted)
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    grid = np.linspace(0.0, 2.0, 41)
    serial = sweep_spectrum(spec, grid, workers=1)
    assert built == list(grid)
    assert serial.ambiguous_steps  # this grid has forks

    built.clear()
    pooled = sweep_spectrum(spec, grid, workers=2)
    np.testing.assert_array_equal(pooled.branches, serial.branches)
    assert built == []


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
    sweep = sweep_matrix_family(lambda g: build_bloch_hamiltonian(spec.with_gamma(g), 0.9), grid)
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


@pytest.mark.parametrize("n_cells", [20, 21])
def test_ring_ep_records_match_the_closed_form(n_cells):
    # at gamma = 2d every momentum pair coalesces at E = -2t cos(2 pi m / N);
    # the +-k partners sit in opposite mirror blocks, so this also checks
    # that the blocks' brackets join into one transition of the whole H
    spec = LatticeSpec(n_cells=n_cells)
    points = locate_exceptional_points(spec, (0.0, 3.0))
    assert len(points) == n_cells
    for p in points:
        assert abs(p.gamma_star - 2.0 * spec.intra_hop) < 1e-9
        assert p.n_broken_change == 2 * n_cells
    energies = np.sort_complex(np.array([p.energy_star for p in points]))
    closed = np.sort_complex(-2.0 * spec.inter_hop * np.cos(2 * np.pi * np.arange(n_cells) / n_cells) + 0j)
    np.testing.assert_allclose(energies, closed, rtol=0, atol=1e-12)


def test_open_ladder_ep_records_match_the_closed_form():
    # at gamma = 2d every standing wave coalesces at E = -2t cos(m pi / (N+1)),
    # where analytic_oll_spectrum's two branches meet; the search solves the
    # even block alone and mirrors the odd block's eigenvalues
    spec = LatticeSpec(n_cells=20, topology=BoundaryTopology.OPEN)
    points = locate_exceptional_points(spec, (0.0, 3.0))
    assert len(points) == 20
    for p in points:
        assert p.kind is EpKind.MERGE
        assert abs(p.gamma_star - 2.0 * spec.intra_hop) < 1e-9
        assert p.n_broken_change == 40
    at_ep = analytic_oll_spectrum(spec.with_gamma(2.0 * spec.intra_hop))
    closed = np.sort_complex(np.array([e for e, label in at_ep if label == "odd"]))
    energies = np.sort_complex(np.array([p.energy_star for p in points]))
    np.testing.assert_allclose(energies, closed, rtol=0, atol=1e-12)


def dense_broken_count(spec, gamma):
    values = np.linalg.eigvals(build_real_space_hamiltonian(spec.with_gamma(gamma)))
    return np.count_nonzero(np.abs(values.imag) > 1e-9)


def test_transitions_hidden_from_the_whole_spectrum_count_are_found():
    # Between the grid points 1.006 and 1.255 both mirror blocks change
    # their broken count ([0, 4] -> [6, 10]).  Bisecting the count of the
    # whole spectrum puts this split and merge into one bracket, where
    # they cancel; each block's own count keeps them apart.
    spec = LatticeSpec(n_cells=20, topology=BoundaryTopology.MOEBIUS)
    points = locate_exceptional_points(spec, (0.01, 2.5), coarse_steps=10)
    for gamma, kind, change in ((1.1424794, EpKind.SPLIT, -2), (1.1757714, EpKind.MERGE, 2)):
        near = [p for p in points if abs(p.gamma_star - gamma) < 1e-6]
        assert [(p.kind, p.n_broken_change) for p in near] == [(kind, change)]
        below, above = (dense_broken_count(spec, near[0].gamma_star + off) for off in (-1e-6, 1e-6))
        assert above - below == change


def test_bloch_ep_at_band_center_momentum():
    spec = LatticeSpec(n_cells=4)
    bloch = lambda g: build_bloch_hamiltonian(spec.with_gamma(g), math.pi / 2)
    points = locate_exceptional_points(bloch, (1.5, 2.5), coarse_steps=20)
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


def counted_solves(monkeypatch, vectors: bool) -> list:
    """One entry per matrix that ``spectral`` solves, each matrix of a
    stack included: values-only solves, and vector solves too when
    ``vectors``."""
    calls = []
    solve = spectral._solve_stack

    def counted(stack, want_vectors=False):
        if vectors or not want_vectors:
            calls.extend([1] * len(stack))
        return solve(stack, want_vectors)

    monkeypatch.setattr(spectral, "_solve_stack", counted)
    return calls


def counted_block_solves(monkeypatch) -> list:
    return counted_solves(monkeypatch, vectors=False)


def counted_eigensolves(monkeypatch) -> list:
    return counted_solves(monkeypatch, vectors=True)


def counted_slogdets(monkeypatch) -> list:
    """One entry per matrix that ``np.linalg.slogdet`` factorises."""
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(
        np.linalg, "slogdet", lambda a: calls.extend([1] * math.prod(np.shape(a)[:-2])) or slogdet(a)
    )
    return calls


def test_even_ring_search_solves_one_mirror_block(monkeypatch):
    # The chiral swap mirrors the odd block, so the scan and the refine
    # solve 20-row even blocks alone: 401 grid points, the probes of one
    # bracket, and one vector solve of both blocks at gamma*.  Solving both
    # blocks everywhere takes 858 eigensolves.
    calls = counted_eigensolves(monkeypatch)
    points = locate_exceptional_points(LatticeSpec(n_cells=20), (0.0, 3.0), 400)
    assert len(points) == 20
    assert len(calls) <= 430


def test_even_ring_zero_energy_scan_solves_one_mirror_block(monkeypatch):
    # det(odd) = det(even) for the N x N blocks of an even N, so the scan
    # and the refine factor the even block alone; both blocks take 1214
    calls = counted_slogdets(monkeypatch)
    points = locate_zero_energy_eps(LatticeSpec(n_cells=20), (0.0, 3.0), 601)
    assert points and all(abs(p.gamma_star - 2.0) < 1e-9 for p in points)
    assert len(calls) <= 1214 // 2


def test_refine_cost_on_a_closed_form_family(monkeypatch):
    # eigenvalues +-sqrt(1 - g^2): real below the EP at g = 1, imaginary
    # above it, so D = (E1 - E2)^2 = 4 (1 - g^2).  The scan solves 8 grid
    # points; bisecting the step (0.9, 1.1) down to bracket_tol takes 31
    # more solves, false position on D a handful.
    calls = counted_block_solves(monkeypatch)
    bracket_tol = spectral.BRACKET_TOL
    family = lambda g: np.array([[1.0, g], [-g, -1.0]])
    points = locate_exceptional_points(family, (0.3, 1.7), 7)
    assert [p.kind for p in points] == [EpKind.MERGE]
    p = points[0]
    assert p.bracket_hi - p.bracket_lo <= bracket_tol
    assert p.bracket_lo <= 1.0 <= p.bracket_hi
    assert len(calls) <= 16


def two_pair_block(x_lower, x_upper):
    """One 4x4 block holding the pairs -1 +- sqrt(x_lower(g)) and
    1 +- sqrt(x_upper(g)); each is real where its x > 0 and broken where
    x < 0."""

    def block(g):
        return np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [x_lower(g), -1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, x_upper(g), 1.0],
            ]
        )

    return block


def test_refine_separates_two_eps_inside_one_coarse_step():
    # both pairs break inside the step (0.9, 1.1), 1e-4 apart, so the
    # block's count changes by 4 across it: bisection splits the step
    # until each part holds one of them
    family = two_pair_block(lambda g: 1.00003 - g, lambda g: 1.00013 - g)
    bracket_tol = spectral.BRACKET_TOL
    points = locate_exceptional_points(family, (0.3, 1.7), 7)
    assert [(p.kind, p.n_broken_change) for p in points] == [(EpKind.MERGE, 2)] * 2
    for p, gamma in zip(points, (1.00003, 1.00013)):
        assert p.bracket_hi - p.bracket_lo <= bracket_tol
        assert p.bracket_lo <= gamma <= p.bracket_hi


def test_refine_splits_a_bracket_at_a_probe_that_matches_neither_end():
    # Across the step (0.9, 1.1) the upper pair breaks at 0.95 and heals
    # at 1.09, and the lower pair breaks at 0.98.  The count goes
    # 0 -> 2 -> 4 -> 2, so the ends read 0 and 2.  The lower pair's x is
    # 0.88 at 0.9 and -0.12 at 1.1, so the line through its D crosses zero
    # at 1.076, and a probe there (or at the midpoint) reads 4.
    lower = lambda g: (0.98 - g) * np.exp(12.0 * (1.1 - g))
    family = two_pair_block(lower, lambda g: (g - 0.95) * (g - 1.09))
    bracket_tol = spectral.BRACKET_TOL
    points = locate_exceptional_points(family, (0.3, 1.7), 7)
    want = [(0.95, EpKind.MERGE), (0.98, EpKind.MERGE), (1.09, EpKind.SPLIT)]
    assert [p.kind for p in points] == [kind for _, kind in want]
    for p, (gamma, _) in zip(points, want):
        assert p.bracket_hi - p.bracket_lo <= bracket_tol
        assert abs(p.gamma_star - gamma) < 1e-9


def test_refine_bisects_where_false_position_stalls(monkeypatch):
    # eigenvalues +-sqrt((1 - g)^7): D vanishes to seventh order at the
    # EP, so the line through its values at the bracket ends lands near
    # the end it is smaller at, probe after probe; the broken count flips
    # where |1 - g|^7 reaches IM_TOL^2, at g = 1 + 2.7e-3.  Bisection
    # takes over after SLOW_STEPS such probes, which bounds the search
    # by a few times the cost of bisection alone (8 + 31 solves).
    calls = counted_block_solves(monkeypatch)
    bracket_tol = spectral.BRACKET_TOL
    family = lambda g: np.array([[0.0, 1.0], [(1.0 - g) ** 7, 0.0]])
    points = locate_exceptional_points(family, (0.3, 1.7), 7)
    assert [p.kind for p in points] == [EpKind.MERGE]
    p = points[0]
    assert p.bracket_hi - p.bracket_lo <= bracket_tol
    assert abs(p.gamma_star - (1.0 + 1e-18 ** (1 / 7))) < 1e-9
    assert len(calls) <= 8 + 3 * 31


def test_avoided_crossing_is_not_an_ep():
    family = lambda g: np.array([[g - 1.0, 0.05], [0.05, 1.0 - g]], dtype=complex)
    assert locate_exceptional_points(family, (0.0, 2.0), coarse_steps=100) == []


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


def test_zero_energy_ep_on_dimer_family(monkeypatch):
    calls = counted_slogdets(monkeypatch)
    points = locate_zero_energy_eps(pt_dimer, (1.5, 2.5), scan_steps=60)
    assert len(points) == 1
    p = points[0]
    assert p.kind is EpKind.MERGE
    assert abs(p.gamma_star - 2.0) < 1e-8
    assert abs(p.energy_star) < 1e-8
    assert p.self_orthogonality < 1e-4
    # 61 scan points, then false position on Re det = gamma^2 / 4 - 1
    # down to adjacent doubles; bisection takes about 45 probes for that
    assert len(calls) <= 61 + 8


def transfer_det_at_zero_energy(n_cells, gamma):
    """det H(E = 0) of the twisted ladder with d = t = 1, up to a factor
    that does not depend on gamma, from 4x4 transfer matrices.

    Cell n obeys ``B_{n-1}^T psi_{n-1} + h0 psi_n + B_n psi_{n+1} = 0``
    with the leg bond ``B_n = -1`` (``-sigma_x`` across the twist), so
    ``(psi_{n+1}, psi_n) = T_n (psi_n, psi_{n-1})``.  From psi_0 = 0 the
    product maps psi_1 to psi_{N+1} through its upper-left 2x2 block, and
    H psi = 0 has a solution exactly where that block is singular.  For
    gamma <= 2d the eigenvalues of h0 are real and at most 2t in size, so
    every T_n has unimodular eigenvalues and the product stays well
    scaled; beyond 2d it grows exponentially.
    """
    h0 = np.array([[0.5j * gamma, -1.0], [-1.0, -0.5j * gamma]])
    straight, crossed = -np.eye(2), -np.array([[0.0, 1.0], [1.0, 0.0]])
    product = np.eye(4, dtype=complex)
    back = np.zeros((2, 2))
    for n in range(1, n_cells + 1):
        bond = crossed if n == n_cells // 2 else straight
        forward = np.linalg.inv(bond) if n < n_cells else np.eye(2)
        step = np.block([[-forward @ h0, -forward @ back], [np.eye(2), np.zeros((2, 2))]])
        product = step @ product
        back = bond.T
    return np.linalg.det(product[:2, :2]).real


@pytest.mark.parametrize("n_cells", [20, 40])
def test_zero_energy_eps_match_a_transfer_matrix_oracle(n_cells):
    twisted = LatticeSpec(n_cells=n_cells, topology=BoundaryTopology.TWISTED_OPEN)
    steps = 601
    found = locate_zero_energy_eps(twisted, (0.0, 2.0), steps)
    assert len(found) > 0
    for p in found:
        assert p.gamma_star < 2.0 * twisted.intra_hop
        below, above = (transfer_det_at_zero_energy(n_cells, g) for g in (p.bracket_lo, p.bracket_hi))
        assert below * above < 0
    oracle = np.array([transfer_det_at_zero_energy(n_cells, g) for g in np.linspace(0.0, 2.0, steps + 1)])
    signs = np.sign(oracle[oracle != 0])
    assert np.count_nonzero(signs[1:] != signs[:-1]) == len(found)


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


def test_zero_energy_sign_changes_that_cancel_in_det_h_are_found():
    # Near gamma = 2 the two mirror blocks of the twisted N = 100 ladder
    # each change their det sign inside one scan step, so det H keeps its
    # sign there.  A 20 001-point grid shows 33 sign changes of det H.
    twisted = LatticeSpec(n_cells=100, topology=BoundaryTopology.TWISTED_OPEN)
    found = locate_zero_energy_eps(twisted, (0.0, 2.0))
    assert len(found) == 33
    stars = np.array([p.gamma_star for p in found])
    for p in found:
        below, above = twisted_det_signs(100, [p.gamma_star - 1e-7, p.gamma_star + 1e-7])
        assert below * above < 0
    for gamma in (1.98352, 1.98479, 1.99605, 1.99635):
        assert np.min(np.abs(stars - gamma)) < 1e-5


def test_zero_energy_scan_needs_a_zero_not_just_a_real_part_sign_change():
    family = lambda g: np.diag([np.exp(1j * g), 1.0])
    assert np.cos(1.0) > 0 > np.cos(2.0)  # Re det H = cos(g) flips at pi/2
    assert locate_zero_energy_eps(family, (1.0, 2.0), scan_steps=60) == []


def test_zero_energy_scan_rejects_a_coalescence_away_from_zero(monkeypatch):
    # a PT dimer shifted to E = 0.5 merges at g = 2, where the phase of a
    # third level turns Re det H through zero while |det H| = 0.25
    def family(g):
        h = np.zeros((3, 3), dtype=complex)
        h[:2, :2] = pt_dimer(g) + 0.5 * np.eye(2)
        h[2, 2] = 1j * np.exp(1j * (g - 2.0))
        return h

    records = []
    build = spectral._pair_record
    monkeypatch.setattr(spectral, "_pair_record", lambda *a, **k: records.append(1) or build(*a, **k))
    assert locate_zero_energy_eps(family, (1.9, 2.1), scan_steps=21) == []
    assert records == []  # rejected on its eigenvalues, before any record is built


def test_zero_energy_scan_skips_the_zero_mode_at_gamma_zero():
    twisted = LatticeSpec(n_cells=20, topology=BoundaryTopology.TWISTED_OPEN)
    assert np.linalg.slogdet(numpy_twisted_ladder(20, 0.0))[0] == 0
    from_zero = locate_zero_energy_eps(twisted, (0.0, 1.95), scan_steps=200)
    inside = locate_zero_energy_eps(twisted, (0.05, 1.95), scan_steps=200)
    assert len(from_zero) == len(inside)
    assert all(p.gamma_star > 0.05 for p in from_zero)


def test_zero_energy_eps_agree_with_the_count_search():
    # both searches decide "broken" by one rule, so the zero-energy
    # records are the count search's records at E = 0, from two
    # independent scans (det signs against broken counts)
    twisted = LatticeSpec(n_cells=20, topology=BoundaryTopology.TWISTED_OPEN)
    counted = locate_exceptional_points(twisted, (0.05, 1.95), 400)
    zero = locate_zero_energy_eps(twisted, (0.05, 1.95), 200)
    at_zero = [p for p in counted if abs(p.energy_star) < 1e-6]
    assert len(zero) == len(at_zero) > 0
    for got, want in zip(zero, at_zero):
        assert (got.kind, got.branch_pair, got.n_broken_change) == (
            want.kind,
            want.branch_pair,
            want.n_broken_change,
        )
        assert abs(got.gamma_star - want.gamma_star) <= 1e-8
