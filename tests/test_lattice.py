"""Lattice construction tests against hand-built matrices and ring spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ptladder import (
    BoundaryTopology,
    LatticeSpec,
    analytic_cll_spectrum,
    analytic_mll_spectrum,
    analytic_oll_spectrum,
    bloch_eigenvalues,
    build_bloch_hamiltonian,
    build_real_space_hamiltonian,
    chiral_halves,
    kronecker_cell,
    sector_bases,
    sector_blocks,
    unit_cell_blocks,
)
from ptladder.lattice import _half_bond_blocks

TOL = 1e-10

SQRT2 = math.sqrt(2.0)


def sorted_eigs(h):
    return np.sort_complex(np.linalg.eigvals(h))


def test_unit_cell_blocks_values():
    spec = LatticeSpec(n_cells=4, intra_hop=1.5, inter_hop=0.5, delta=0.2, gamma=0.8)
    blocks = unit_cell_blocks(spec)
    eps_u = 0.1 + 0.4j
    eps_d = -0.1 - 0.4j
    np.testing.assert_allclose(blocks.h0, [[eps_u, -1.5], [-1.5, eps_d]], atol=0)
    np.testing.assert_allclose(blocks.h1, [[-0.5, 0.0], [0.0, -0.5]], atol=0)
    np.testing.assert_allclose(blocks.h1_twist, [[0.0, -0.5], [-0.5, 0.0]], atol=0)


def test_open_ladder_matrix_matches_hand_construction():
    # Two rungs, sites ordered (a1, b1, a2, b2), d = t = 1.
    spec = LatticeSpec(n_cells=2, topology=BoundaryTopology.OPEN)
    expected = np.array(
        [
            [0, -1, -1, 0],
            [-1, 0, 0, -1],
            [-1, 0, 0, -1],
            [0, -1, -1, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(build_real_space_hamiltonian(spec), expected)


def test_gain_loss_enters_diagonal_only():
    spec = LatticeSpec(n_cells=3, gamma=0.6, delta=0.2, topology=BoundaryTopology.OPEN)
    h = build_real_space_hamiltonian(spec)
    diag = np.diag(h)
    np.testing.assert_allclose(diag[0::2], 0.1 + 0.3j, atol=0)
    np.testing.assert_allclose(diag[1::2], -0.1 - 0.3j, atol=0)
    off = h - np.diag(diag)
    assert np.all(off.imag == 0.0)


def test_twisted_bond_position_and_shape():
    # N=4: the crossed bond replaces the parallel one between cells 2 and 3.
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.TWISTED_OPEN)
    h = build_real_space_hamiltonian(spec)
    assert h[2, 5] == -1 and h[3, 4] == -1
    assert h[2, 4] == 0 and h[3, 5] == 0
    # all other bonds stay parallel
    assert h[0, 2] == -1 and h[1, 3] == -1
    assert h[4, 6] == -1 and h[5, 7] == -1


def test_moebius_corner_block_is_crossed():
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    h = build_real_space_hamiltonian(spec)
    assert h[6, 1] == -1 and h[7, 0] == -1
    assert h[6, 0] == 0 and h[7, 1] == 0
    circ = build_real_space_hamiltonian(spec.with_topology(BoundaryTopology.CIRCULAR))
    assert circ[6, 0] == -1 and circ[7, 1] == -1


def test_hamiltonian_is_complex_symmetric_exactly():
    for topo in BoundaryTopology:
        n = 4 if topo in (BoundaryTopology.MOEBIUS, BoundaryTopology.TWISTED_OPEN) else 5
        spec = LatticeSpec(n_cells=n, gamma=0.7, delta=0.3, topology=topo)
        h = build_real_space_hamiltonian(spec)
        np.testing.assert_array_equal(h, h.T)


def test_pt_symmetry_leg_swap_conjugation():
    # P = sigma_x per cell; P conj(H) P must equal H when delta = 0.
    for topo in BoundaryTopology:
        spec = LatticeSpec(n_cells=4, gamma=1.3, topology=topo)
        h = build_real_space_hamiltonian(spec)
        p = np.kron(np.eye(4), np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(p @ h.conj() @ p, h, atol=1e-14)


def test_circular_two_cell_ring_doubles_the_bond():
    # N=2 ring: bond and closure coincide, legs carry hopping -2t.
    spec = LatticeSpec(n_cells=2)
    vals = sorted_eigs(build_real_space_hamiltonian(spec))
    np.testing.assert_allclose(vals.real, [-3, -1, 1, 3], atol=TOL)
    np.testing.assert_allclose(vals.imag, 0, atol=TOL)


def test_circular_four_cell_spectrum_frozen():
    spec = LatticeSpec(n_cells=4)
    vals = sorted_eigs(build_real_space_hamiltonian(spec))
    np.testing.assert_allclose(vals.real, [-3, -1, -1, -1, 1, 1, 1, 3], atol=TOL)
    np.testing.assert_allclose(vals.imag, 0, atol=TOL)


def test_moebius_two_cell_equals_complete_graph():
    # N=2 Moebius ring is K4 with uniform -1 couplings: spectrum {-3, 1, 1, 1}.
    spec = LatticeSpec(n_cells=2, topology=BoundaryTopology.MOEBIUS)
    vals = sorted_eigs(build_real_space_hamiltonian(spec))
    np.testing.assert_allclose(vals.real, [-3, 1, 1, 1], atol=TOL)


def test_moebius_four_cell_spectrum_frozen():
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    vals = sorted_eigs(build_real_space_hamiltonian(spec)).real
    expected = sorted([-3, -1, -1, 1, 1 - SQRT2, 1 - SQRT2, 1 + SQRT2, 1 + SQRT2])
    np.testing.assert_allclose(vals, expected, atol=TOL)


def test_moebius_even_odd_closed_form_labels():
    spec = LatticeSpec(n_cells=4, topology=BoundaryTopology.MOEBIUS)
    entries = analytic_mll_spectrum(spec)
    even = sorted(e.real for e, label in entries if label == "even")
    odd = sorted(e.real for e, label in entries if label == "odd")
    np.testing.assert_allclose(even, [-3, -1, -1, 1], atol=TOL)
    np.testing.assert_allclose(odd, sorted([1 - SQRT2, 1 + SQRT2, 1 + SQRT2, 1 - SQRT2]), atol=TOL)


def test_moebius_without_rungs_equals_double_ring():
    # d = 0 joins the two legs into a single ring of 2N sites.
    spec = LatticeSpec(n_cells=6, intra_hop=0.0, topology=BoundaryTopology.MOEBIUS)
    vals = sorted_eigs(build_real_space_hamiltonian(spec)).real
    ring = sorted(-2.0 * math.cos(2.0 * math.pi * m / 12.0) for m in range(12))
    np.testing.assert_allclose(vals, ring, atol=TOL)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_circular_closed_form_matches_dense(n):
    spec = LatticeSpec(n_cells=n, gamma=0.8, delta=0.1)
    dense = sorted_eigs(build_real_space_hamiltonian(spec))
    analytic = np.sort_complex(np.array([e for e, _ in analytic_cll_spectrum(spec)]))
    np.testing.assert_allclose(dense, analytic, atol=TOL)


def test_circular_closed_form_branch_count():
    spec = LatticeSpec(n_cells=5, gamma=0.5)
    entries = analytic_cll_spectrum(spec)
    assert len(entries) == 10
    assert sum(1 for _, label in entries if label == "even") == 5
    assert sum(1 for _, label in entries if label == "odd") == 5


def test_moebius_closed_form_rejects_gain_loss():
    spec = LatticeSpec(n_cells=4, gamma=0.5, topology=BoundaryTopology.MOEBIUS)
    with pytest.raises(ValueError):
        analytic_mll_spectrum(spec)


def pairing_distance(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.mark.parametrize("n", [1, 7, 8, 9, 20])
@pytest.mark.parametrize("gamma", [1.3, 2.6])
@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_open_closed_form_matches_dense(n, gamma, delta):
    # gamma = 1.3 lies below the collective EP at 2d, 2.6 above it
    spec = LatticeSpec(n_cells=n, inter_hop=0.8, delta=delta, gamma=gamma, topology=BoundaryTopology.OPEN)
    entries = analytic_oll_spectrum(spec)
    assert len(entries) == 2 * n
    assert sorted(label for _, label in entries) == ["even"] * n + ["odd"] * n
    dense = np.linalg.eigvals(build_real_space_hamiltonian(spec))
    assert pairing_distance([e for e, _ in entries], dense) < 1e-13


def test_closed_forms_require_matching_topology():
    with pytest.raises(ValueError):
        analytic_cll_spectrum(LatticeSpec(n_cells=4, topology=BoundaryTopology.OPEN))
    with pytest.raises(ValueError):
        analytic_oll_spectrum(LatticeSpec(n_cells=4))
    with pytest.raises(ValueError):
        analytic_mll_spectrum(LatticeSpec(n_cells=4))


def test_bloch_matrix_matches_block_sum():
    spec = LatticeSpec(n_cells=6, gamma=0.9, delta=0.2)
    blocks = unit_cell_blocks(spec)
    for k in (0.0, 0.7, math.pi):
        expected = (
            blocks.h0
            + np.exp(1j * k) * blocks.h1
            + np.exp(-1j * k) * blocks.h1.T
        )
        np.testing.assert_allclose(build_bloch_hamiltonian(spec, k), expected, atol=1e-14)


def test_bloch_eigenvalues_match_circular_ring_momenta():
    spec = LatticeSpec(n_cells=8, gamma=0.6)
    from_rings = np.sort_complex(np.array([e for e, _ in analytic_cll_spectrum(spec)]))
    from_bloch = []
    for n in range(1, 9):
        plus, minus = bloch_eigenvalues(spec, 2.0 * math.pi * n / 8.0)
        from_bloch += [plus, minus]
    np.testing.assert_allclose(np.sort_complex(np.array(from_bloch)), from_rings, atol=TOL)


def test_bloch_eigenvalues_solve_characteristic_polynomial():
    spec = LatticeSpec(n_cells=4, gamma=1.4, delta=0.3)
    k = 1.1
    h = build_bloch_hamiltonian(spec, k)
    for e in bloch_eigenvalues(spec, k):
        det = (h[0, 0] - e) * (h[1, 1] - e) - h[0, 1] * h[1, 0]
        assert abs(det) < 1e-12


def test_spec_validation_rejects_bad_sizes():
    with pytest.raises(ValueError):
        LatticeSpec(n_cells=1)  # rings need two cells
    with pytest.raises(ValueError):
        LatticeSpec(n_cells=0, topology=BoundaryTopology.OPEN)
    with pytest.raises(ValueError):
        LatticeSpec(n_cells=3, topology=BoundaryTopology.MOEBIUS)
    with pytest.raises(ValueError):
        LatticeSpec(n_cells=5, topology=BoundaryTopology.TWISTED_OPEN)
    LatticeSpec(n_cells=1, topology=BoundaryTopology.OPEN)  # single rung is fine


def test_topology_names_round_trip():
    for topo in BoundaryTopology:
        assert BoundaryTopology.from_name(topo.value) is topo
    with pytest.raises(ValueError):
        BoundaryTopology.from_name("klein_bottle")


@given(
    n=st.integers(min_value=1, max_value=40),
    gamma=st.floats(-3, 3, allow_nan=False),
    delta=st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_open_ladder_always_symmetric_with_balanced_diagonal(n, gamma, delta):
    spec = LatticeSpec(n_cells=n, gamma=gamma, delta=delta, topology=BoundaryTopology.OPEN)
    h = build_real_space_hamiltonian(spec)
    assert h.shape == (2 * n, 2 * n)
    np.testing.assert_array_equal(h, h.T)
    assert abs(np.trace(h)) < 1e-12 * max(1, n)


@given(gamma=st.floats(-5, 5, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_with_gamma_only_changes_gamma(gamma):
    spec = LatticeSpec(n_cells=6, delta=0.4)
    other = spec.with_gamma(gamma)
    assert other.gamma == gamma
    assert (other.n_cells, other.delta, other.topology) == (6, 0.4, spec.topology)


SECTOR_CASES = (
    [(BoundaryTopology.OPEN, n) for n in (1, 3, 20, 21)]
    + [(BoundaryTopology.CIRCULAR, n) for n in (2, 3, 20, 21)]
    + [(topo, n) for topo in (BoundaryTopology.MOEBIUS, BoundaryTopology.TWISTED_OPEN) for n in (2, 4, 20)]
)


def mirror_permutation(n_cells):
    """Site index of the mirror image n -> N+1-n of every site, leg kept."""
    sites = np.arange(2 * n_cells)
    return 2 * (n_cells - 1 - sites // 2) + sites % 2


def mirror_basis(n_cells):
    """Orthogonal columns (|n> + |N+1-n>)/sqrt2 (and the centre cell), then
    (|n> - |N+1-n>)/sqrt2, ordered like the rows of sector_blocks."""
    even, odd = [], []
    for site in range(2 * (n_cells // 2)):
        image = mirror_permutation(n_cells)[site]
        plus, minus = np.zeros(2 * n_cells), np.zeros(2 * n_cells)
        plus[site] = plus[image] = 1 / SQRT2
        minus[site], minus[image] = 1 / SQRT2, -1 / SQRT2
        even.append(plus)
        odd.append(minus)
    if n_cells % 2:
        for site in (n_cells - 1, n_cells):
            even.append(np.eye(2 * n_cells)[site])
    return np.array(even + odd).T


@pytest.mark.parametrize("topology, n", SECTOR_CASES)
@pytest.mark.parametrize("gamma", [0.0, 0.45, 1.3, 3.1])
def test_sector_blocks_reproduce_the_dense_spectrum(topology, n, gamma):
    spec = LatticeSpec(n_cells=n, delta=0.3, gamma=gamma, topology=topology)
    h = build_real_space_hamiltonian(spec)
    perm = mirror_permutation(n)
    np.testing.assert_array_equal(h[np.ix_(perm, perm)], h)

    blocks = sector_blocks(spec)
    assert sum(b.shape[0] for b in blocks) == 2 * n
    assert len(blocks) == (1 if n == 1 else 2)
    for b in blocks:
        np.testing.assert_array_equal(b, b.T)

    u = mirror_basis(n)
    rotated = u.T @ h @ u
    start = 0
    for b in blocks:
        stop = start + b.shape[0]
        np.testing.assert_allclose(rotated[start:stop, start:stop], b, rtol=0, atol=1e-14)
        assert np.abs(rotated[start:stop, stop:]).max(initial=0.0) < 1e-14
        start = stop

    got = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    want = np.linalg.eigvals(h)
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-12 * np.linalg.norm(h)


@pytest.mark.parametrize(
    "topology, n",
    [
        (BoundaryTopology.OPEN, 2),
        (BoundaryTopology.OPEN, 3),
        (BoundaryTopology.OPEN, 7),
        (BoundaryTopology.OPEN, 8),
        (BoundaryTopology.TWISTED_OPEN, 2),
        (BoundaryTopology.TWISTED_OPEN, 4),
        (BoundaryTopology.TWISTED_OPEN, 10),
    ],
)
def test_half_bonds_chain_the_mirror_sector_blocks(topology, n):
    # the half-ladders the transport kernel folds onto are, cell by cell,
    # the even and odd blocks of sector_blocks (in the site basis at delta != 0)
    spec = LatticeSpec(n_cells=n, delta=0.3, gamma=0.8, topology=topology)
    cells = unit_cell_blocks(spec)
    half, middle = _half_bond_blocks(spec, cells)

    def chain(bonds, last=0.0):
        m = np.kron(np.eye(len(bonds) + 1), cells.h0)
        for c, hop in enumerate(bonds):
            m[2 * c : 2 * c + 2, 2 * c + 2 : 2 * c + 4] = hop
            m[2 * c + 2 : 2 * c + 4, 2 * c : 2 * c + 2] = hop.T
        m[-2:, -2:] += last
        return m

    even, odd = sector_blocks(spec)
    if n % 2:
        assert middle is None and len(half) == n // 2
        np.testing.assert_array_equal(even, chain(half))
        np.testing.assert_array_equal(odd, chain(half[:-1]))
    else:
        assert len(half) == n // 2 - 1
        np.testing.assert_array_equal(even, chain(half, middle))
        np.testing.assert_array_equal(odd, chain(half, -middle))


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_two_cell_ring_sectors_carry_the_doubled_bond(delta):
    spec = LatticeSpec(n_cells=2, inter_hop=0.7, delta=delta, gamma=0.4)
    even, odd = sector_blocks(spec)
    # at delta = 0 the cell sits in the real basis, h0 = [[-d, -gamma/2], [gamma/2, d]]
    h0 = np.array([[-1.0, -0.2], [0.2, 1.0]]) if delta == 0 else unit_cell_blocks(spec).h0
    np.testing.assert_array_equal(even, h0 - 1.4 * np.eye(2))
    np.testing.assert_array_equal(odd, h0 + 1.4 * np.eye(2))


def real_basis(n_cells):
    """Unitary columns: the mirror basis with every cell rotated by
    V = [[1, i], [1, -i]]/sqrt2, ordered like the rows of sector_blocks."""
    v = np.array([[1, 1j], [1, -1j]]) / SQRT2
    return np.kron(np.eye(n_cells), v) @ mirror_basis(n_cells)


@pytest.mark.parametrize("topology, n", SECTOR_CASES)
@pytest.mark.parametrize("gamma", [0.0, 0.7, 2.0, 2.5])
def test_sector_blocks_are_real_at_zero_detuning(topology, n, gamma):
    # gamma = 2.0 is 2d, the collective EP of the open and circular ladders;
    # 2.5 lies in their broken phase
    spec = LatticeSpec(n_cells=n, gamma=gamma, topology=topology)
    h = build_real_space_hamiltonian(spec)
    blocks = sector_blocks(spec)
    assert all(b.dtype == np.float64 for b in blocks)
    assert sum(b.shape[0] for b in blocks) == 2 * n

    w = real_basis(n)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2 * n), rtol=0, atol=1e-14)
    rotated = w.conj().T @ h @ w
    start = 0
    for b in blocks:
        stop = start + b.shape[0]
        np.testing.assert_allclose(rotated[start:stop, start:stop], b, rtol=0, atol=1e-14)
        assert np.abs(rotated[start:stop, stop:]).max(initial=0.0) < 1e-14
        assert np.abs(rotated[stop:, start:stop]).max(initial=0.0) < 1e-14
        start = stop

    # at gamma = 2d every cell block h0 of the open and circular ladders is
    # a Jordan block, H is defective, and any solve scatters its
    # eigenvalues by about sqrt(eps)
    defective = gamma == 2.0 and topology in (BoundaryTopology.OPEN, BoundaryTopology.CIRCULAR)
    got = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    want = np.linalg.eigvals(h)
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < (1e-7 if defective else 1e-12) * np.linalg.norm(h)

    detuned = sector_blocks(LatticeSpec(n_cells=n, delta=0.3, gamma=gamma, topology=topology))
    assert all(b.dtype == np.complex128 for b in detuned)

    # sector_bases lifts block eigenvectors: the columns of w, split like
    # the blocks, and for delta != 0 the real mirror basis
    for delta, want in ((0.0, w), (0.3, mirror_basis(n))):
        bases = sector_bases(LatticeSpec(n_cells=n, delta=delta, gamma=gamma, topology=topology))
        assert [b.shape[1] for b in bases] == [b.shape[0] for b in blocks]
        got = np.hstack(bases)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.conj().T @ got, np.eye(2 * n), rtol=0, atol=1e-15)


def chiral_operator(spec):
    """Gamma = (+) s_n sigma_y over the cells, with s_n = +-1 alternating
    from cell to cell except across the twist, where it repeats."""
    signs = (-1.0) ** np.arange(spec.n_cells)
    if spec.topology is BoundaryTopology.TWISTED_OPEN:
        signs[spec.n_cells // 2 :] *= -1
    return np.kron(np.diag(signs), np.array([[0.0, -1j], [1j, 0.0]]))


CHIRAL_CASES = (
    [(BoundaryTopology.CIRCULAR, n) for n in (2, 20)]
    + [(BoundaryTopology.OPEN, n) for n in (1, 2, 7, 20)]
    + [(BoundaryTopology.TWISTED_OPEN, 20)]
)


@pytest.mark.parametrize("topology, n", CHIRAL_CASES)
@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_chiral_operator_anticommutes_with_bipartite_ladders(topology, n, delta):
    for gamma in (0.7, 2.6):
        spec = LatticeSpec(n_cells=n, delta=delta, gamma=gamma, topology=topology)
        h = build_real_space_hamiltonian(spec)
        chiral = chiral_operator(spec)
        assert np.array_equal(chiral @ h + h @ chiral, np.zeros_like(h))


@pytest.mark.parametrize("topology, n", [(BoundaryTopology.MOEBIUS, 20), (BoundaryTopology.CIRCULAR, 21)])
def test_moebius_and_odd_rings_have_no_chiral_symmetry(topology, n):
    # the crossed closing bond, or an odd ring, joins two sites of one
    # sublattice, so the spectrum is not closed under E -> -E
    spec = LatticeSpec(n_cells=n, gamma=0.7, topology=topology)
    values = np.linalg.eigvals(build_real_space_hamiltonian(spec))
    assert pairing_distance(values, -values) > 0.1


def chiral_split_bases(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``P+`` and ``P-``: the +1 and -1 eigenvectors ``(1, -s_c)``
    and ``(1, s_c)`` of Gamma in block cell c, with ``s_c = (-1)**c``."""
    s = (-1.0) ** np.arange(m)
    plus, minus = np.zeros((2 * m, m)), np.zeros((2 * m, m))
    plus[0::2], plus[1::2] = np.eye(m), np.diag(-s)
    minus[0::2], minus[1::2] = np.eye(m), np.diag(s)
    return plus, minus


HALVES_CASES = [(BoundaryTopology.TWISTED_OPEN, n) for n in (2, 20, 100)]


@pytest.mark.parametrize("topology, n", HALVES_CASES)
def test_chiral_halves_reproduce_the_self_mapped_blocks(topology, n):
    # the blocks at gamma = 0 and their slope, which the EP searches split,
    # and the blocks at a gamma that is a short binary fraction
    spec = LatticeSpec(n_cells=n, topology=topology)
    b0 = sector_blocks(spec)
    slope = tuple(b1 - b for b1, b in zip(sector_blocks(spec.with_gamma(1.0)), b0))
    for blocks in (b0, slope, sector_blocks(spec.with_gamma(0.75))):
        halves = chiral_halves(spec, blocks)
        at_gamma = blocks is not b0 and blocks is not slope
        assert len(halves) == len(blocks)
        for block, (a, b) in zip(blocks, halves):
            m = block.shape[0] // 2
            assert a.shape == b.shape == (m, m)
            plus, minus = chiral_split_bases(m)
            # Gamma anticommutes with the block: no entry within one eigenspace
            assert not (plus.T @ block @ plus).any() and not (minus.T @ block @ minus).any()
            rebuilt = 0.5 * (plus @ a @ minus.T + minus @ b @ plus.T)
            assert (rebuilt + 0.0).tobytes() == (block + 0.0).tobytes()
            # the split of b0 and slope holds only entries the block already has
            assert at_gamma or set(np.abs(a).ravel()) | set(np.abs(b).ravel()) <= set(np.abs(block).ravel()) | {0.0}


@pytest.mark.parametrize("topology, n", HALVES_CASES)
def test_chiral_halves_square_to_the_block_spectrum(topology, n):
    # +-sqrt(eig(A B)) is the block's spectrum, away from E = 0 and from EPs
    for gamma in (0.3, 1.1, 2.7):
        spec = LatticeSpec(n_cells=n, gamma=gamma, topology=topology)
        blocks = sector_blocks(spec)
        for block, (a, b) in zip(blocks, chiral_halves(spec, blocks)):
            direct = np.linalg.eigvals(block)
            roots = np.sqrt(np.linalg.eigvals(a @ b).astype(complex))
            squared = np.concatenate([roots, -roots])
            clear = np.abs(direct) > 1e-3
            if len(direct) > 1:
                gaps = np.abs(direct[:, None] - direct[None, :]) + np.eye(len(direct))
                clear &= gaps.min(axis=1) > 1e-3
            assert clear.sum() >= len(direct) // 2
            nearest = np.abs(direct[clear, None] - squared[None, :]).min(axis=1)
            assert nearest.max() <= 1e-10


@pytest.mark.parametrize(
    "topology, n",
    [(BoundaryTopology.CIRCULAR, n) for n in (2, 3, 20, 21)]
    + [(BoundaryTopology.MOEBIUS, n) for n in (2, 20)]
    + [(BoundaryTopology.OPEN, n) for n in (1, 2, 3, 20, 21)],
)
def test_chiral_halves_are_none_off_the_self_mapped_ladders(topology, n):
    # circular and open ladders are searched in their Kronecker form, odd
    # rings have no Gamma and Moebius has none
    for delta in (0.0, 0.3):
        spec = LatticeSpec(n_cells=n, delta=delta, topology=topology)
        assert chiral_halves(spec, sector_blocks(spec)) is None
    # a detuned self-mapped ladder keeps complex blocks in the site basis
    spec = LatticeSpec(n_cells=20, delta=0.3, topology=BoundaryTopology.TWISTED_OPEN)
    assert chiral_halves(spec, sector_blocks(spec)) is None


def chain_blocks(n_cells: int, inter_hop: float, ring: bool) -> tuple[np.ndarray, ...]:
    """Mirror blocks ``T_b`` of a chain's N x N hopping matrix: ``-t`` on
    neighbouring cells, with the ring's closing bond (doubled at N = 2),
    split like the cells of ``sector_blocks``: ``A_LL +- A_LR`` over the
    left cells and their partners, and an odd N's centre cell in the even
    block, joined by sqrt2 times its hopping."""
    hop = np.zeros((n_cells, n_cells))
    for c in range(n_cells - 1 + ring):
        e = (c + 1) % n_cells
        hop[c, e] -= inter_hop
        hop[e, c] -= inter_hop
    left = np.arange(n_cells // 2)
    right = n_cells - 1 - left
    even = hop[np.ix_(left, left)] + hop[np.ix_(left, right)]
    odd = hop[np.ix_(left, left)] - hop[np.ix_(left, right)]
    if n_cells % 2:
        centre = [n_cells // 2]
        even = np.block(
            [
                [even, SQRT2 * hop[np.ix_(left, centre)]],
                [SQRT2 * hop[np.ix_(centre, left)], hop[np.ix_(centre, centre)]],
            ]
        )
    return tuple(b for b in (even, odd) if b.size)


def kronecker_sums(spec: LatticeSpec, ring: bool) -> list[np.ndarray]:
    """``T_b (x) I + I (x) h(gamma)`` for each chain block, with the real
    cell block ``h(gamma) = [[-d, -gamma/2], [gamma/2, d]]``."""
    d, half = spec.intra_hop, 0.5 * spec.gamma
    cell = np.array([[-d, -half], [half, d]])
    return [
        np.kron(chain, np.eye(2)) + np.kron(np.eye(len(chain)), cell)
        for chain in chain_blocks(spec.n_cells, spec.inter_hop, ring)
    ]


KRONECKER_CASES = [(BoundaryTopology.CIRCULAR, n) for n in (2, 3, 20, 21, 100)] + [
    (BoundaryTopology.OPEN, n) for n in (1, 2, 3, 20, 21, 100)
]


@pytest.mark.parametrize("topology, n", KRONECKER_CASES)
@pytest.mark.parametrize("hops", [(1.0, 1.0), (0.7, 1.3)])
def test_orientable_blocks_are_kronecker_sums_with_the_cell_block(topology, n, hops):
    d, t = hops
    spec = LatticeSpec(n_cells=n, intra_hop=d, inter_hop=t, topology=topology)
    h0, slope = kronecker_cell(spec)
    assert h0.dtype == slope.dtype == np.float64 and h0.shape == slope.shape == (2, 2)
    for gamma in (0.0, 0.75, 1.3, 2.0 * d, 2.6):
        at = spec.with_gamma(gamma)
        np.testing.assert_array_equal(h0 + gamma * slope, [[-d, -0.5 * gamma], [0.5 * gamma, d]])
        blocks = sector_blocks(at)
        sums = kronecker_sums(at, topology is BoundaryTopology.CIRCULAR)
        assert len(blocks) == len(sums)
        for block, kron in zip(blocks, sums):
            # bit for bit; only the sign of a zero may differ (adding 0.0 drops it)
            assert (block + 0.0).tobytes() == (kron + 0.0).tobytes()


@pytest.mark.parametrize(
    "topology, n",
    [(topo, n) for topo in (BoundaryTopology.MOEBIUS, BoundaryTopology.TWISTED_OPEN) for n in (2, 20, 100)],
)
def test_non_orientable_blocks_differ_from_the_kronecker_sum_in_one_entry(topology, n):
    # the crossed bond pair is -t diag(1, -1) in the real basis where an
    # orientable ladder has -t I: the Moebius ring differs from the
    # circular one, and the twisted ladder from the open one, by 2t in
    # one diagonal entry of each block, a rank-one term (t is a short
    # binary fraction, so the difference is exact)
    t = 1.25
    for gamma in (0.0, 0.75, 2.6):
        spec = LatticeSpec(n_cells=n, inter_hop=t, gamma=gamma, topology=topology)
        assert kronecker_cell(spec) is None
        sums = kronecker_sums(spec, topology is BoundaryTopology.MOEBIUS)
        for block, kron in zip(sector_blocks(spec), sums):
            [(i, j)] = np.argwhere(block != kron)
            assert i == j and abs(block[i, j] - kron[i, j]) == 2 * t


@pytest.mark.parametrize("topology", list(BoundaryTopology))
def test_kronecker_cell_is_none_off_delta_zero(topology):
    assert kronecker_cell(LatticeSpec(n_cells=20, delta=0.3, topology=topology)) is None
