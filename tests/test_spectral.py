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
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

import ptladder as pt
from ptladder import (
    BoundaryTopology,
    BrokenWindow,
    EpKind,
    ExceptionalPoint,
    LatticeSpec,
    Phase,
    analytic_cll_spectrum,
    analytic_oll_spectrum,
    bloch_eigenvalues,
    broken_windows,
    build_bloch_hamiltonian,
    build_real_space_hamiltonian,
    chiral_halves,
    classify_pt_phase,
    eigendecompose,
    kronecker_cell,
    locate_exceptional_points,
    locate_zero_energy_eps,
    sector_bases,
    sector_blocks,
    sweep_spectrum,
)
from ptladder import _pool, spectral
from ptladder.spectral import _family_for
from test_lattice import chain_blocks


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


def pair_of(build):
    """The pair ``(h0, slope)`` of a matrix family affine in gamma, from
    its matrices at gamma = 0 and 1."""
    h0 = build(0.0)
    return h0, build(1.0) - h0


def bloch_pair(spec, k):
    return pair_of(lambda g: build_bloch_hamiltonian(spec.with_gamma(g), k))


def dense_pair(spec):
    return pair_of(lambda g: build_real_space_hamiltonian(spec.with_gamma(g)))


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
            # the EP searches build the 2 x 2 cell block of an orientable
            # ladder, and each block's A B where Gamma splits it
            blocks, _, scanned = _family_for(spec)
            cell = kronecker_cell(spec)
            split = chiral_halves(spec, sector_blocks(spec)) is not None
            assert (scanned.func is spectral._squared_blocks) == split
            gammas = (-1.7, -0.25, 0.0, 0.4, 2.3)
            stacks = blocks(np.array(gammas))  # one chunk, as the scans and sweeps build it
            scanned_stacks = scanned(np.array(gammas))
            for i, g in enumerate(gammas):
                fresh = sector_blocks(spec.with_gamma(g))
                got = blocks(g)
                assert isinstance(got, tuple) and len(got) == len(fresh)
                assert [b.tobytes() for b in got] == [b.tobytes() for b in fresh]
                assert [s[i].tobytes() for s in stacks] == [b.tobytes() for b in fresh]
                assert [s[i].tobytes() for s in scanned_stacks] == [b.tobytes() for b in scanned(g)]
                if cell is not None:
                    assert [b.tobytes() for b in scanned(g)] == [(cell[0] + g * cell[1]).tobytes()]
                    continue
                if not split:
                    assert [b.tobytes() for b in scanned(g)] == [b.tobytes() for b in fresh]
                    continue
                # the split of b0 and slope is exact, but A(g) = a0 + g a1 rounds
                # once where the split of a fresh block at g may round twice
                squares = [a @ b for a, b in chiral_halves(spec, fresh)]
                assert len(scanned(g)) == len(squares)
                for got_square, want in zip(scanned(g), squares):
                    np.testing.assert_allclose(got_square, want, rtol=0, atol=1e-14)


# Every topology at odd and even N (Moebius and twisted need even N), at
# delta = 0 (real blocks) and 0.3 (complex blocks).
STACK_SPECS = [
    LatticeSpec(n_cells=n_cells, delta=delta, topology=topology)
    for topology in BoundaryTopology
    for n_cells in (6, 7)
    if not (n_cells % 2 and topology in (BoundaryTopology.MOEBIUS, BoundaryTopology.TWISTED_OPEN))
    for delta in (0.0, 0.3)
]


def stacks_of_four(monkeypatch, blocks) -> None:
    """Chunks of four grid points of ``blocks`` after the first, which is one point."""
    monkeypatch.setattr(spectral, "STACK_BYTES", 4 * max(b.nbytes for b in blocks))


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("spec", STACK_SPECS, ids=repr)
def test_stacked_scans_match_per_point_solves(spec, extra, monkeypatch):
    # grids one point shorter than a chunk, exactly one chunk, and one
    # point longer; no count changes, so the scan is all that runs
    scanned = _family_for(spec)[2]
    stacks_of_four(monkeypatch, scanned(0.0))
    grid = np.linspace(0.1, 2.9, 5 + extra)
    chunks = [chunk.size for chunk, _ in spectral._stacked(scanned, grid)]
    assert chunks == {-1: [1, 3], 0: [1, 4], 1: [1, 4, 1]}[extra]
    monkeypatch.setattr(spectral, "IM_TOL", math.inf)  # nothing is broken
    direct = _family_for(spec)[0] if scanned.func is spectral._squared_blocks else None
    values, brackets = spectral._scan_and_refine(scanned, grid, direct)
    kept = 1 if kronecker_cell(spec) is not None else 2  # the cell block, or both blocks
    assert len(values) == kept and brackets == []
    for g in grid:
        # the family's blocks are its fresh sector blocks (test_family_matches_fresh_builds)
        for k, block in enumerate(scanned(g)):
            assert values[k][g].tobytes() == eigendecompose(block).eigenvalues.tobytes()


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
    stacks_of_four(monkeypatch, sector_blocks(spec))
    grid = np.linspace(0.0, 3.0, 23)
    fresh = lambda g: sector_blocks(spec.with_gamma(g))
    spectra = [spectral._merged([eigendecompose(b).eigenvalues for b in fresh(g)]) for g in grid]
    want = spectral._continue_branches(grid, spectra)[0]
    got = sweep_spectrum(spec, grid, workers=workers)
    assert got.branches.tobytes() == want.branches.tobytes()
    assert (got.ambiguous_steps, got.continuation_residual) == (want.ambiguous_steps, want.continuation_residual)

    bases = sector_bases(spec)
    pairs = [spectral._lifted([eigendecompose(b, want_vectors=True) for b in fresh(g)], bases, g) for g in grid]
    rows = [column_moduli(p.right_eigenvectors, g) for p, g in zip(pairs, grid)]
    want, want_rows = spectral._continue_branches(grid, [p.eigenvalues for p in pairs], rows)
    got, got_rows = spectral._weighted_sweep(spec, grid, column_moduli, workers=workers)
    assert got.branches.tobytes() == want.branches.tobytes()
    assert got_rows.tobytes() == want_rows.tobytes()


def test_a_nan_grid_point_raises_from_searches_and_sweeps():
    # a NaN in h0 puts one at every grid point
    h0, slope = pair_of(pt_dimer)
    h0[1, 0] = np.nan
    for search in (locate_exceptional_points, locate_zero_energy_eps):
        with pytest.raises(spectral.EigensolverError, match="2x2"):
            search((h0, slope), (1.5, 2.5), 60)
    with pytest.raises(spectral.EigensolverError, match="2x2"):
        sweep_spectrum((h0, slope), np.linspace(1.5, 2.5, 61))


# The public functions that take a family, each called on a small grid.
FAMILY_CALLS = (
    lambda family: sweep_spectrum(family, [0.0, 1.0]),
    lambda family: locate_exceptional_points(family, (0.0, 1.0), 4),
    lambda family: locate_zero_energy_eps(family, (0.0, 1.0), 4),
)


@pytest.mark.parametrize("call", FAMILY_CALLS)
def test_a_callable_or_other_non_pair_family_is_refused(call):
    dense = lambda g: build_real_space_hamiltonian(LatticeSpec(n_cells=4, gamma=g))
    square = np.eye(2)
    for family in (pt_dimer, dense, (square,), (square, square, square), 3.0):
        with pytest.raises(TypeError, match=r"pair \(h0, slope\)"):
            call(family)


@pytest.mark.parametrize("call", FAMILY_CALLS)
def test_a_pair_of_unequal_or_nonsquare_matrices_is_refused(call):
    for family in ((np.ones((2, 3)), np.ones((2, 3))), (np.eye(2), np.eye(3)), (np.ones(2), np.ones(2))):
        with pytest.raises(ValueError, match=r"pair \(h0, slope\)"):
            call(family)


def test_searches_refuse_a_detuned_spec():
    # delta != 0 breaks PT symmetry, which both searches rest on
    spec = LatticeSpec(n_cells=20, delta=0.3)
    for search in (locate_exceptional_points, locate_zero_energy_eps):
        with pytest.raises(ValueError, match="delta = 0"):
            search(spec, (0.0, 3.0))


@pytest.mark.parametrize(
    "n_cells, topology, gamma_range, steps",
    [
        # circular and open ladders scan their 2 x 2 cell block
        (20, BoundaryTopology.CIRCULAR, (0.0, 3.0), 400),
        (21, BoundaryTopology.CIRCULAR, (0.0, 3.0), 400),
        (20, BoundaryTopology.OPEN, (0.0, 3.0), 400),
        (21, BoundaryTopology.OPEN, (0.0, 3.0), 400),
        (20, BoundaryTopology.MOEBIUS, (0.02, 0.8), 250),
        (40, BoundaryTopology.MOEBIUS, (0.01, 0.45), 250),
        # the zero-mode pair breaks from gamma = 0, so its count flips in the first step
        (20, BoundaryTopology.TWISTED_OPEN, (0.0, 3.0), 400),
    ],
)
def test_sector_ep_search_matches_the_dense_pair(n_cells, topology, gamma_range, steps):
    spec = LatticeSpec(n_cells=n_cells, topology=topology)
    dense = dense_pair(spec)
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
        # self-orthogonality grows like sqrt(|gamma - gamma_EP|), by about 1e-5
        # across 1e-11, so the dense pair's is taken at got's own gamma*
        assert abs(got.self_orthogonality - self_orthogonality(dense, got.gamma_star, got.energy_star)) <= 1e-5


def self_orthogonality(pair, gamma, energy):
    """``|v^T v| / ||v||^2`` of the lower-index eigenvector of the pair's
    two eigenvalues nearest ``energy`` at ``gamma``, as a record takes it."""
    h0, slope = pair
    mid = eigendecompose(h0 + gamma * slope, want_vectors=True)
    v = mid.right_eigenvectors[:, min(np.argsort(np.abs(mid.eigenvalues - energy))[:2])]
    return abs(v @ v) / np.vdot(v, v).real


@pytest.mark.parametrize("n_cells, steps", [(20, 200), (40, 400)])
def test_sector_zero_energy_search_matches_the_dense_pair(n_cells, steps):
    spec = LatticeSpec(n_cells=n_cells, topology=BoundaryTopology.TWISTED_OPEN)
    dense = dense_pair(spec)
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
def test_pooled_pair_sweep_matches_the_serial_one():
    # a pair's builder pickles as a spec's does, so its sweep pools too
    pair = dense_pair(LatticeSpec(n_cells=8, topology=BoundaryTopology.MOEBIUS))
    grid = np.linspace(0.0, 2.0, 41)
    serial = sweep_spectrum(pair, grid, workers=1)
    pooled = sweep_spectrum(pair, grid, workers=2)
    assert pooled.branches.tobytes() == serial.branches.tobytes()
    assert pooled.ambiguous_steps == serial.ambiguous_steps


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
    fork = (np.zeros((2, 2), dtype=complex), np.diag([1.0, -1.0]).astype(complex))  # diag(g, -g)
    sweep = sweep_spectrum(fork, [-1.0, 0.0, 1.0])
    assert sweep.ambiguous_steps == [1]

    # a ring carries exact +-k degeneracies everywhere; they must stay silent
    spec = LatticeSpec(n_cells=10)
    sweep = sweep_spectrum(spec, np.linspace(0.5, 1.5, 21))
    assert sweep.ambiguous_steps == []


def test_bloch_sweep_tracks_two_branches():
    spec = LatticeSpec(n_cells=4)
    grid = np.linspace(0.0, 1.5, 16)
    sweep = sweep_spectrum(bloch_pair(spec, 0.9), grid)
    assert sweep.n_branches == 2
    plus, minus = bloch_eigenvalues(spec.with_gamma(1.5), 0.9)
    assert pairing_distance(sweep.branches[:, -1], [plus, minus]) < 1e-12


def test_classify_phase_counts_across_transition():
    spec = LatticeSpec(n_cells=10)
    below = classify_pt_phase(eigendecompose(build_real_space_hamiltonian(spec.with_gamma(1.99))))
    above = classify_pt_phase(eigendecompose(build_real_space_hamiltonian(spec.with_gamma(2.01))))
    assert below.n_broken == 0 and below.n_unbroken == 20
    assert above.n_broken == 20 and above.n_unbroken == 0
    assert all(l.phase is Phase.BROKEN for l in above.labels)


def test_classify_phase_accepts_plain_arrays():
    # broken by the searches' rule: an imaginary part beyond IM_TOL = 1e-9
    report = classify_pt_phase(np.array([1.0, 1 + 5e-10j, 1 + 2e-6j]))
    assert report.n_broken == 1 and report.n_unbroken == 2


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
    # All momentum pairs of the ring coalesce together at gamma = 2d.
    # gamma = 2 is the 21st grid point, where the cell block is
    # [[-1, -1], [1, 1]], exactly defective: its count reads 0, so the
    # cell's bracket ends on the EP, where H is defective too and a solve
    # scatters its pairs by about sqrt(eps).  That end moves out by the
    # bracket's width, which centres the bracket on the EP.
    points = locate_exceptional_points(LatticeSpec(n_cells=6), (1.5, 2.5), coarse_steps=40)
    assert len(points) == 6
    for p in points:
        assert p.kind is EpKind.MERGE
        assert abs(p.gamma_star - 2.0) < 1e-15
        assert p.bracket_lo < 2.0 < p.bracket_hi
        assert p.bracket_hi - p.bracket_lo <= 2e-10
        assert p.n_broken_change == 12
        assert p.self_orthogonality < 1e-3
    energies = sorted(p.energy_star.real for p in points)
    np.testing.assert_allclose(energies, [-2, -1, -1, 1, 1, 2], atol=1e-4)

    windows = broken_windows(points)
    assert len(windows) == 1
    assert windows[0].open_ended and math.isinf(windows[0].gamma_hi)
    assert abs(windows[0].gamma_lo - 2.0) < 1e-9


ORIENTABLE_CASES = [(BoundaryTopology.CIRCULAR, n) for n in (2, 3, 20, 21)] + [
    (BoundaryTopology.OPEN, n) for n in (1, 2, 3, 20, 21)
]


@pytest.mark.parametrize("topology, n_cells", ORIENTABLE_CASES)
def test_orientable_ep_records_match_the_closed_form(topology, n_cells):
    # every level pair of a circular or open ladder is a copy of the cell
    # block's, -2t cos k +- sqrt(d^2 - gamma^2 / 4) (analytic_cll_spectrum,
    # analytic_oll_spectrum), so all N pairs coalesce together at gamma = 2d,
    # at E = -2t cos k, and all 2N levels break there; the +-k partners of
    # a ring sit in opposite mirror blocks, and every block is resolved
    spec = LatticeSpec(n_cells=n_cells, topology=topology)
    points = locate_exceptional_points(spec, (0.0, 3.0))
    assert len(points) == n_cells
    for p in points:
        assert p.kind is EpKind.MERGE
        assert abs(p.gamma_star - 2.0 * spec.intra_hop) <= spectral.BRACKET_TOL
        assert p.n_broken_change == 2 * n_cells
    closed_form = analytic_cll_spectrum if topology is BoundaryTopology.CIRCULAR else analytic_oll_spectrum
    below, above = (closed_form(spec.with_gamma(2.0 * spec.intra_hop + off)) for off in (-1e-6, 1e-6))
    assert not any(abs(e.imag) > spectral.IM_TOL for e, _ in below)
    assert all(abs(e.imag) > spectral.IM_TOL for e, _ in above)
    at_ep = closed_form(spec.with_gamma(2.0 * spec.intra_hop))
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
    points = locate_exceptional_points(bloch_pair(spec, math.pi / 2), (1.5, 2.5), coarse_steps=20)
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
    # [[g - 1.5, 0.5i], [0.5i, 1.5 - g]] has eigenvalues +-sqrt((g - 1.5)^2 - 1/4)
    # = +-sqrt((g - 1)(g - 2)): broken exactly inside (1, 2)
    family = (np.array([[-1.5, 0.5j], [0.5j, 1.5]]), np.diag([1.0, -1.0]).astype(complex))
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


def counted_pencils(monkeypatch) -> list:
    """The size of every block whose pencil ``spectral`` solves, one
    eigensolve each."""
    calls = []
    roots = spectral._pencil_roots
    monkeypatch.setattr(spectral, "_pencil_roots", lambda h0, *rest: calls.append(len(h0)) or roots(h0, *rest))
    return calls


def test_ring_count_search_scans_the_cell_block(monkeypatch):
    # Every mirror block of the ring is T_b (x) I + I (x) h: the scan and
    # the refine solve the 2 x 2 cell block h alone, 401 grid points and
    # the probes of one bracket.  Of the two 20-row blocks, each is solved
    # for its eigenvalues at the bracket's two ends and once with
    # eigenvectors at gamma*, as both hold pairs of the records.
    sizes = []
    solve = spectral._solve_stack

    def counted(stack, want_vectors=False):
        sizes.extend([stack.shape[-1]] * len(stack))
        return solve(stack, want_vectors)

    monkeypatch.setattr(spectral, "_solve_stack", counted)
    points = locate_exceptional_points(LatticeSpec(n_cells=20), (0.0, 3.0), 400)
    assert len(points) == 20
    n_cell = sizes.count(2)
    assert 401 < n_cell <= 430 and sizes[:n_cell] == [2] * n_cell  # the scan and the refine come first
    assert sizes[n_cell:] == [20] * len(sizes[n_cell:]) and len(sizes[n_cell:]) <= 6


def test_orientable_zero_energy_search_solves_only_its_records_blocks(monkeypatch):
    # every block of a circular or open ladder is T_b (x) I + I (x) h, so
    # the search solves no pencil and counts nothing: at gamma* = 2d it
    # solves the blocks that hold its records, once each, with vectors.
    # Both 20-row blocks of the ring N = 20 hold one; the open N = 21
    # ladder's middle standing wave is mirror-even, in its 22-row block.
    # A twisted ladder solves the pencils of both blocks' halves A and B,
    # since det [[0, A], [B, 0]] = +-det A det B.
    pencils = counted_pencils(monkeypatch)
    solves = []
    solve = spectral._solve_stack

    def counted(stack, want_vectors=False):
        solves.extend([(stack.shape[-1], want_vectors)] * len(stack))
        return solve(stack, want_vectors)

    monkeypatch.setattr(spectral, "_solve_stack", counted)
    ring = locate_zero_energy_eps(LatticeSpec(n_cells=20), (0.0, 3.0), 601)
    assert [(p.gamma_star, p.n_broken_change) for p in ring] == [(2.0, 20), (2.0, 20)]
    assert solves == [(20, True), (20, True)]
    solves.clear()
    ladder = locate_zero_energy_eps(LatticeSpec(n_cells=21, topology=BoundaryTopology.OPEN), (0.0, 3.0))
    assert [(p.gamma_star, p.n_broken_change) for p in ladder] == [(2.0, 22)]
    assert solves == [(22, True)]
    solves.clear()
    assert locate_zero_energy_eps(LatticeSpec(n_cells=22), (0.0, 3.0)) == [] and solves == []
    assert pencils == []
    assert locate_zero_energy_eps(LatticeSpec(n_cells=20, topology=BoundaryTopology.TWISTED_OPEN), (0.0, 2.0))
    assert pencils == [10, 10, 10, 10]


def test_refine_cost_on_a_closed_form_family(monkeypatch):
    # eigenvalues +-sqrt(1 - g^2): real below the EP at g = 1, imaginary
    # above it, so D = (E1 - E2)^2 = 4 (1 - g^2).  The scan solves 8 grid
    # points; bisecting the step (0.9, 1.1) down to bracket_tol takes 31
    # more solves, false position on D a handful.
    calls = counted_block_solves(monkeypatch)
    bracket_tol = spectral.BRACKET_TOL
    family = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]]))  # [[1, g], [-g, -1]]
    points = locate_exceptional_points(family, (0.3, 1.7), 7)
    assert [p.kind for p in points] == [EpKind.MERGE]
    p = points[0]
    assert p.bracket_hi - p.bracket_lo <= bracket_tol
    assert p.bracket_lo <= 1.0 <= p.bracket_hi
    assert len(calls) <= 16


def root_pair(centre, x0):
    """The pair of ``[[centre, 1], [x0 - g, centre]]``, whose eigenvalues
    centre +- sqrt(x0 - g) are real below g = x0 and broken above it."""
    return np.array([[centre, 1.0], [x0, centre]]), np.array([[0.0, 0.0], [-1.0, 0.0]])


def two_pair_block(lower, upper):
    """One 4x4 block holding the 2x2 pairs ``lower`` and ``upper``."""
    return block_diag(lower[0], upper[0]), block_diag(lower[1], upper[1])


def test_refine_separates_two_eps_inside_one_coarse_step():
    # both pairs break inside the step (0.9, 1.1), 1e-4 apart, so the
    # block's count changes by 4 across it: bisection splits the step
    # until each part holds one of them
    family = two_pair_block(root_pair(-1.0, 1.00003), root_pair(1.0, 1.00013))
    bracket_tol = spectral.BRACKET_TOL
    points = locate_exceptional_points(family, (0.3, 1.7), 7)
    assert [(p.kind, p.n_broken_change) for p in points] == [(EpKind.MERGE, 2)] * 2
    for p, gamma in zip(points, (1.00003, 1.00013)):
        assert p.bracket_hi - p.bracket_lo <= bracket_tol
        assert p.bracket_lo <= gamma <= p.bracket_hi


def test_refine_splits_a_bracket_at_a_probe_that_matches_neither_end():
    # Across the step (0.9, 1.1) the upper pair 1 +- sqrt((g - 1.02)^2 - 0.07^2)
    # breaks at 0.95 and heals at 1.09, and the lower pair -1 +- sqrt(0.98 - g)
    # breaks at 0.98.  The count goes 0 -> 2 -> 4 -> 2, so the ends read 0
    # and 2.  Only the lower pair flips across the step, and its D = 4 (0.98 - g)
    # is linear, so the false-position probe lands just past 0.98 and reads 4.
    upper = (np.array([[-0.02, 0.07j], [0.07j, 2.02]]), np.diag([1.0, -1.0]))  # g - 0.02 and 2.02 - g
    family = two_pair_block(root_pair(-1.0, 0.98), upper)
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
    # by a few times the cost of bisection alone (8 + 31 solves).  No
    # affine family has such an EP, so this drives the count search's
    # scan and refine directly, on the grid and bracket (0.9, 1.1) of a
    # 7-step search of (0.3, 1.7).
    def family(g):
        blocks = np.zeros(np.shape(g) + (2, 2))
        blocks[..., 0, 1], blocks[..., 1, 0] = 1.0, (1.0 - np.asarray(g)) ** 7
        return (blocks,)

    calls = counted_block_solves(monkeypatch)
    bracket_tol = spectral.BRACKET_TOL
    solved, brackets = spectral._scan_and_refine(family, np.linspace(0.3, 1.7, 8))
    [(k, a, b, change)] = brackets
    assert 0.9 <= a < b <= 1.1 and b - a <= bracket_tol
    assert spectral._broken_count(solved[k][b]) - spectral._broken_count(solved[k][a]) == change == 2  # a merge
    assert abs(0.5 * (a + b) - (1.0 + 1e-18 ** (1 / 7))) < 1e-9
    assert len(calls) <= 8 + 3 * 31


def loop_conjugate_pairs(values, flipped):
    """The pairing loop that ``spectral._conjugate_pairs`` replaced, kept
    as its reference: each flipped i with Im > 0, in order, takes the
    first nearest unused flipped j with Im < 0 within 1e-6 + 1e-3 |E| of
    its conjugate."""
    pairs, used = [], set()
    for i in flipped:
        if i in used or values[i].imag <= 0:
            continue
        target = values[i].conjugate()
        partners = [
            j
            for j in flipped
            if j not in used and j != i and values[j].imag < 0 and abs(values[j] - target) < 1e-6 + 1e-3 * abs(values[i])
        ]
        if partners:
            j = min(partners, key=lambda j: abs(values[j] - target))
            pairs.append((i, j))
            used.update((i, j))
    return pairs


def test_conjugate_pairs_match_the_pairing_loop(monkeypatch):
    # values on a coarse grid make exact ties, and offsets near the
    # tolerance put partners on both sides of it
    rng = np.random.default_rng(31)
    for _ in range(400):
        n = int(rng.integers(1, 25))
        values = (rng.integers(-3, 4, n) + 1j * rng.integers(-2, 3, n)) * rng.choice([1.0, 1e-4])
        values += rng.choice([0.0, 1.0], n) * rng.choice([1e-7, 1e-6, 1e-3], n) * np.exp(2j * np.pi * rng.random(n))
        flipped = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        for order in (flipped, np.sort(flipped)):
            assert spectral._conjugate_pairs(values, order) == loop_conjugate_pairs(values, order)
    # and on the broken sides of real searches, many pairs at once on the ring
    calls = []
    pairs = spectral._conjugate_pairs

    def checked(values, flipped):
        got = pairs(values, flipped)
        assert got == loop_conjugate_pairs(values, flipped)
        calls.append(len(got))
        return got

    monkeypatch.setattr(spectral, "_conjugate_pairs", checked)
    assert len(locate_exceptional_points(LatticeSpec(n_cells=100), (0.0, 3.0), 400)) == 100
    assert locate_exceptional_points(LatticeSpec(n_cells=20, topology=BoundaryTopology.MOEBIUS), (0.0, 3.0), 400)
    assert calls[0] == 100 and len(calls) > 10


def test_avoided_crossing_is_not_an_ep():
    # [[g - 1, 0.05], [0.05, 1 - g]]
    family = (np.array([[-1.0, 0.05], [0.05, 1.0]], dtype=complex), np.diag([1.0, -1.0]))
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
    calls = counted_pencils(monkeypatch)
    points = locate_zero_energy_eps(pair_of(pt_dimer), (1.5, 2.5), scan_steps=60)
    assert len(points) == 1
    p = points[0]
    assert p.kind is EpKind.MERGE
    assert abs(p.gamma_star - 2.0) < 1e-8
    assert abs(p.energy_star) < 1e-8
    assert p.self_orthogonality < 1e-4
    # the roots of det = gamma^2 / 4 - 1 from one pencil eigensolve
    assert calls == [2]


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
    family = (np.diag([-1.0, 5.0]).astype(complex), np.diag([1.0, 0.0]))  # diag(g - 1, 5)
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
    family = (np.diag([1.5 + 1j, 1.0]), np.diag([-1.0, 0.0]))  # diag(1.5 - g + i, 1)
    # Re det H = 1.5 - g flips at 1.5, where |det H| >= 1
    assert locate_zero_energy_eps(family, (1.0, 2.0), scan_steps=60) == []


def test_zero_energy_scan_rejects_a_coalescence_away_from_zero(monkeypatch):
    # a PT dimer shifted to E = 0.5 merges at g = 2, where a third level
    # 2 - g + i turns Re det H through zero while |det H| = 0.25
    def family(g):
        h = np.zeros((3, 3), dtype=complex)
        h[:2, :2] = pt_dimer(g) + 0.5 * np.eye(2)
        h[2, 2] = 2.0 - g + 1j
        return h

    family = pair_of(family)
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


def transfer_det_signs(n_cells, gammas):
    """Sign of ``transfer_det_at_zero_energy`` at every gamma of an array:
    the same products of 4x4 transfer matrices, taken for all gammas at
    once.  It is det H(E = 0) up to a factor that does not depend on
    gamma, so its sign changes are those of det H."""
    gammas = np.asarray(gammas, dtype=float)
    h0 = np.zeros((gammas.size, 2, 2), dtype=complex)
    h0[:, 0, 0], h0[:, 1, 1] = 0.5j * gammas, -0.5j * gammas
    h0[:, 0, 1] = h0[:, 1, 0] = -1.0
    straight, crossed = -np.eye(2), -np.array([[0.0, 1.0], [1.0, 0.0]])
    product = np.broadcast_to(np.eye(4, dtype=complex), (gammas.size, 4, 4))
    back = np.zeros((2, 2))
    for n in range(1, n_cells + 1):
        bond = crossed if n == n_cells // 2 else straight
        forward = np.linalg.inv(bond) if n < n_cells else np.eye(2)
        step = np.zeros((gammas.size, 4, 4), dtype=complex)
        step[:, :2, :2] = -forward @ h0
        step[:, :2, 2:] = -forward @ back
        step[:, 2:, :2] = np.eye(2)
        product = step @ product
        back = bond.T
    return np.sign(np.linalg.det(product[:, :2, :2]).real)


@pytest.mark.parametrize("n_cells", [20, 40, 100])
def test_zero_energy_eps_are_the_sign_changes_of_a_fine_det_scan(n_cells):
    # one record in every step of a 20001-point grid where det H changes
    # sign, and none elsewhere: the tolerance that decides which pencil
    # roots are real drops no transition.  The real blocks of a spec give
    # real roots an imaginary part of exactly 0.  The complex dense pair
    # gives them one near rounding, and keeps them all too; with its first
    # row tripled (the same roots, a slope no longer a multiple of a
    # unitary matrix) it goes through the shifted pencil.
    twisted = LatticeSpec(n_cells=n_cells, topology=BoundaryTopology.TWISTED_OPEN)
    grid = np.linspace(0.0, 2.0, 20001)
    sample = grid[::500]
    np.testing.assert_array_equal(
        transfer_det_signs(n_cells, sample), [np.sign(transfer_det_at_zero_energy(n_cells, g)) for g in sample]
    )
    signs = transfer_det_signs(n_cells, grid)
    kept = np.nonzero(signs)[0]
    changes = kept[1:][signs[kept[1:]] != signs[kept[:-1]]]
    stars = [p.gamma_star for p in locate_zero_energy_eps(twisted, (0.0, 2.0))]
    assert len(stars) == changes.size > 0
    # each star lies in the step that ends at its sign change
    np.testing.assert_array_equal(np.searchsorted(grid, stars), changes)
    h0, slope = dense_pair(twisted)
    tripled = np.diag([3.0] + [1.0] * (len(h0) - 1))
    for pair in ((h0, slope), (tripled @ h0, tripled @ slope)):
        roots = spectral._pencil_roots(*pair, 0.0, 2.0)
        assert set(changes) <= set(np.searchsorted(grid, roots))


def test_zero_energy_records_do_not_depend_on_scan_steps():
    twisted = LatticeSpec(n_cells=100, topology=BoundaryTopology.TWISTED_OPEN)
    coarse = locate_zero_energy_eps(twisted, (0.0, 2.0), 2)
    assert len(coarse) == 33
    assert repr(coarse) == repr(locate_zero_energy_eps(twisted, (0.0, 2.0), 601))


@pytest.mark.parametrize(
    "n_cells, topology",
    [(20, BoundaryTopology.TWISTED_OPEN)] + [(n, BoundaryTopology.MOEBIUS) for n in (20, 100)],
)
def test_pencil_roots_without_a_record_fail_a_filter(n_cells, topology):
    # band crossings of E = 0 are real roots of det H that are no EP: the
    # broken count of their block, or the midpoint of its two eigenvalues
    # nearest zero, rules each of them out, as it rules out the root that
    # rounding puts just above gamma = 0 for the twisted N = 20 ladder's
    # zero mode, which breaks on both sides (every pencil root of the
    # twisted N = 100 ladder is a record)
    # (a twisted ladder splits its blocks into halves, whose pencils hold
    # the roots; both filters are checked here on the blocks themselves)
    spec = LatticeSpec(n_cells=n_cells, topology=topology)
    stars = {p.gamma_star for p in locate_zero_energy_eps(spec, (0.0, 3.0))}
    blocks, _, scanned = _family_for(spec)
    rejected = 0
    for k, pencils in enumerate(zip(*scanned.args)):
        roots = np.concatenate([spectral._pencil_roots(h0, s, 0.0, 3.0) for h0, s in zip(pencils[::2], pencils[1::2])])
        for gamma in roots:
            if gamma in stars:
                continue
            rejected += 1
            before, after = (
                spectral._broken_count(eigendecompose(blocks(g)[k]).eigenvalues) for g in (gamma - 1e-7, gamma + 1e-7)
            )
            values = eigendecompose(blocks(gamma)[k]).eigenvalues
            midpoint = abs(values[np.argsort(np.abs(values))[:2]].mean())
            assert before == after or midpoint > spectral.ZERO_ENERGY_TOL, gamma
    assert rejected > 0


@pytest.mark.parametrize(
    "n_cells, topology",
    [(n, BoundaryTopology.TWISTED_OPEN) for n in (20, 40, 100)],
)
def test_half_pencil_candidates_are_the_full_pencils(n_cells, topology):
    # det [[0, A], [B, 0]] = +-det A det B: the roots of A's and B's pencils,
    # counted by mu at gamma* -+ 1e-7, keep the same candidates as the whole
    # block's pencil counted on the block itself
    spec = LatticeSpec(n_cells=n_cells, topology=topology)
    blocks, _, scanned = _family_for(spec)
    assert scanned.func is spectral._squared_blocks
    for k, (a0, a1, b0, b1) in enumerate(zip(*scanned.args)):
        full = spectral._pencil_roots(blocks.args[0][k], blocks.args[1][k], 0.0, 3.0)
        half = np.sort(np.concatenate([spectral._pencil_roots(a0, a1, 0.0, 3.0), spectral._pencil_roots(b0, b1, 0.0, 3.0)]))

        def kept(roots, family, direct):
            probes = np.column_stack((roots - 1e-7, roots + 1e-7)).ravel()
            counts = spectral._counts(spectral._stack_eigvals(family(probes)[k]), probes, k, direct)
            return roots[np.array(counts[::2]) != np.array(counts[1::2])]

        want = kept(full, blocks, None)
        got = kept(half, scanned, blocks)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=5e-14)


def pencil_zero_energy_rule(spec, lo, hi):
    """``(gamma*, n_broken_change)`` of the zero-energy EPs that the rule of
    the non-orientable ladders finds on every block of ``spec``: each real
    root of the block's pencil whose block changes its broken count across
    it and has the midpoint of its two eigenvalues nearest 0 at 0."""
    found = []
    for k, (h0, slope) in enumerate(zip(*_family_for(spec)[0].args)):
        for gamma in spectral._pencil_roots(h0, slope, lo, hi):
            before, after = (
                spectral._broken_count(eigendecompose(h0 + g * slope).eigenvalues) for g in (gamma - 1e-7, gamma + 1e-7)
            )
            values = eigendecompose(h0 + gamma * slope).eigenvalues
            if before != after and abs(values[np.argsort(np.abs(values))[:2]].mean()) <= spectral.ZERO_ENERGY_TOL:
                found.append((gamma, k, after - before))
    return [(gamma, change) for gamma, _, change in sorted(found)]


KRONECKER_ZERO_CASES = [(BoundaryTopology.CIRCULAR, n) for n in [*range(2, 41), 100]] + [
    (BoundaryTopology.OPEN, n) for n in [*range(1, 42), 101]
]


@pytest.mark.parametrize("topology, n_cells", KRONECKER_ZERO_CASES)
def test_orientable_zero_energy_eps_sit_on_the_zero_chain_levels(topology, n_cells):
    # a block T_b (x) I + I (x) h has a zero-energy EP at gamma = +-2d
    # exactly where its chain block T_b has a zero eigenvalue (chain_blocks,
    # built without the package: in both blocks of a ring whose N is
    # divisible by 4, in one block of an odd open ladder), and all its
    # levels break there; the pencils of the whole blocks, with both
    # filters, find the same EPs, within rounding of 2d
    ring = topology is BoundaryTopology.CIRCULAR
    for d, t in ((1.0, 1.0), (0.7, 1.3)):
        spec = LatticeSpec(n_cells=n_cells, intra_hop=d, inter_hop=t, topology=topology)
        chains = chain_blocks(n_cells, t, ring)
        for block, chain in zip(sector_blocks(spec), chains):
            np.testing.assert_array_equal((block[::2, ::2] + block[1::2, 1::2]) / 2, chain)
        rows = [2 * len(chain) for k, chain in enumerate(chains) if np.abs(np.linalg.eigvalsh(chain)).min() < 1e-9]
        assert len(rows) == (n_cells % 4 == 0 and 2 if ring else n_cells % 2)
        for lo, hi in ((0.0, 3.0), (-3.0, 3.0)):
            points = locate_zero_energy_eps(spec, (lo, hi))
            want = [(g, int(np.sign(g)) * r) for g in (-2.0 * d, 2.0 * d) if lo < g < hi for r in rows]
            assert [(p.gamma_star, p.n_broken_change) for p in points] == want
            assert all(p.kind is (EpKind.MERGE if p.gamma_star > 0 else EpKind.SPLIT) for p in points)
            assert all(p.bracket_lo < p.gamma_star < p.bracket_hi and abs(p.energy_star) < 1e-6 for p in points)
            reference = pencil_zero_energy_rule(spec, lo, hi)
            assert [change for _, change in reference] == [p.n_broken_change for p in points]
            np.testing.assert_allclose([g for g, _ in reference], [p.gamma_star for p in points], rtol=0, atol=1e-12)


def test_a_pencil_singular_at_every_gamma_is_refused():
    # the second row of h0 + g * slope is zero for every g
    h0 = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.5, 1.0, 3.0]])
    slope = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(spectral.EigensolverError, match="3x3"):
        locate_zero_energy_eps((h0, slope), (0.0, 1.0))
