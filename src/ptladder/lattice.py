"""Two-leg tight-binding ladders with balanced gain and loss.

A lattice is a chain of N unit cells, each holding one site on the upper
leg (gain, on-site ``+delta/2 + i*gamma/2``) and one on the lower leg
(loss, on-site ``-delta/2 - i*gamma/2``).  Legs are coupled inside a cell
by the rung hopping ``-intra_hop`` and between neighbouring cells by the
leg hopping ``-inter_hop``.  Four boundary closures are supported: a
circular ring, a Moebius ring (the closing bond pair is crossed), an open
ladder, and an open ladder with one crossed bond pair in the middle.
``_bond_blocks`` is the one place that puts that twist between cells N/2
and N/2 + 1; the dense Hamiltonian, its sector blocks and the transport
kernel all take their bonds from it, the kernel's mirror fold through
``_half_bond_blocks``.

All Hamiltonians produced here are complex symmetric (``M == M.T``
exactly).  At ``delta == 0``, and only there, they are also PT-symmetric,
``conj(H) = P H P``, with parity P the leg swap in every cell and time
reversal complex conjugation.  A detuning breaks this: ``conj(H)``
keeps ``+delta/2`` on the upper leg, while ``P H P`` moves it to the
lower one.  For every topology and any gamma and delta H commutes with
the cell mirror ``n -> N+1-n``, which ``sector_blocks`` uses to split H
into two diagonal blocks of about half the size, and at ``delta == 0``
it writes them in a basis where they are real.  ``sector_bases`` gives
the site-basis columns of that basis, to lift block eigenvectors to H.
The twisted ladder is bipartite, and its chiral operator maps each block
onto itself: ``chiral_halves`` writes each block as ``[[0, A], [B, 0]]``.

Circular and open ladders are orientable: every bond is ``-t I``.  At
``delta == 0`` each of their sector blocks is then the Kronecker sum
``T_b (x) I + I (x) h(gamma)`` of the mirror block ``T_b`` of the chain's
hopping and the real cell block ``h(gamma) = [[-d, -gamma/2], [gamma/2,
d]]``, bit for bit, so its eigenvalues are ``tau + e`` for every
eigenvalue tau of ``T_b`` and e of h (Horn & Johnson, *Topics in Matrix
Analysis*, 1991, sec. 4.4).  Every level pair of H is a copy of h's,
and all of them coalesce at gamma = +-2d, at E = tau: the eigenvalues
of each block's ``T_b`` (``_kronecker_chains``) are the energies of every
EP of these ladders.  A zero-energy EP is a zero tau, which rings with N
divisible by 4 and open ladders of odd N have.  The
Moebius closure and the twist cross one bond pair, ``-t diag(1, -1)`` in
the real basis, which differs from ``-t I`` in one entry: the blocks of
these non-orientable ladders are that Kronecker sum plus a rank-one term,
which couples the levels and makes their transitions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryTopology",
    "LatticeSpec",
    "UnitCellBlocks",
    "unit_cell_blocks",
    "build_bloch_hamiltonian",
    "bloch_eigenvalues",
    "build_real_space_hamiltonian",
    "sector_blocks",
    "sector_bases",
    "chiral_halves",
    "analytic_cll_spectrum",
    "analytic_oll_spectrum",
    "analytic_mll_spectrum",
]


class BoundaryTopology(Enum):
    """Boundary closure of the ladder."""

    CIRCULAR = "circular"
    MOEBIUS = "moebius"
    OPEN = "open"
    TWISTED_OPEN = "twisted"

    @classmethod
    def from_name(cls, name: str) -> "BoundaryTopology":
        for member in cls:
            if member.value == name:
                return member
        known = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown topology {name!r} (expected one of: {known})")


_RING_TOPOLOGIES = (BoundaryTopology.CIRCULAR, BoundaryTopology.MOEBIUS)
_EVEN_N_TOPOLOGIES = (BoundaryTopology.MOEBIUS, BoundaryTopology.TWISTED_OPEN)


@dataclass(frozen=True)
class LatticeSpec:
    """Immutable description of one ladder lattice.

    Parameters
    ----------
    n_cells : int
        Number of unit cells N (two sites per cell).  Open ladders allow
        N >= 1, rings need N >= 2, and the Moebius and twisted
        topologies need an even N so the crossed bond pair sits at a
        well defined position.
    intra_hop : float
        Rung hopping amplitude d (matrix element is ``-d``).
    inter_hop : float
        Leg hopping amplitude t (matrix element is ``-t``).
    delta : float
        Real on-site detuning; upper leg gets ``+delta/2``.
    gamma : float
        Gain/loss rate; upper leg gets ``+i*gamma/2``, lower ``-i*gamma/2``.
    topology : BoundaryTopology
        Boundary closure.
    """

    n_cells: int
    intra_hop: float = 1.0
    inter_hop: float = 1.0
    delta: float = 0.0
    gamma: float = 0.0
    topology: BoundaryTopology = BoundaryTopology.CIRCULAR

    def __post_init__(self) -> None:
        floor = 1 if self.topology is BoundaryTopology.OPEN else 2
        if int(self.n_cells) != self.n_cells or self.n_cells < floor:
            raise ValueError(
                f"n_cells must be an integer >= {floor} for a "
                f"{self.topology.value} lattice, got {self.n_cells}"
            )
        if self.topology in _EVEN_N_TOPOLOGIES and self.n_cells % 2 != 0:
            raise ValueError(
                f"{self.topology.value} topology needs an even cell count, got {self.n_cells}"
            )

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells

    @property
    def onsite_upper(self) -> complex:
        return 0.5 * self.delta + 0.5j * self.gamma

    @property
    def onsite_lower(self) -> complex:
        return -0.5 * self.delta - 0.5j * self.gamma

    def with_gamma(self, gamma: float) -> "LatticeSpec":
        """Copy of this spec at a different gain/loss rate."""
        return replace(self, gamma=float(gamma))

    def with_topology(self, topology: BoundaryTopology) -> "LatticeSpec":
        return replace(self, topology=topology)


@dataclass(frozen=True)
class UnitCellBlocks:
    """2x2 blocks of the real-space Hamiltonian in the cell basis (a_n, b_n).

    ``h0`` is the on-cell block, ``h1`` the parallel inter-cell block and
    ``h1_twist`` the crossed inter-cell block used at Moebius closures and
    at the twisted bond.  All three are complex symmetric in the site
    basis; rotated to the real basis of ``sector_blocks`` they are real.
    """

    h0: np.ndarray
    h1: np.ndarray
    h1_twist: np.ndarray


def unit_cell_blocks(spec: LatticeSpec) -> UnitCellBlocks:
    d = spec.intra_hop
    t = spec.inter_hop
    h0 = np.array(
        [[spec.onsite_upper, -d], [-d, spec.onsite_lower]], dtype=complex
    )
    h1 = np.array([[-t, 0.0], [0.0, -t]], dtype=complex)
    h1_twist = np.array([[0.0, -t], [-t, 0.0]], dtype=complex)
    return UnitCellBlocks(h0=h0, h1=h1, h1_twist=h1_twist)


def build_bloch_hamiltonian(spec: LatticeSpec, k: float) -> np.ndarray:
    """2x2 Bloch Hamiltonian of the circular ladder at momentum ``k``.

    The identity part ``-2*t*cos(k)`` carries a factor 2 because each cell
    touches two neighbours in the real-space hopping.
    """
    h0_scalar = -2.0 * spec.inter_hop * math.cos(k)
    hx, hz = -spec.intra_hop, spec.onsite_upper
    return np.array(
        [[h0_scalar + hz, hx], [hx, h0_scalar - hz]], dtype=complex
    )


def bloch_eigenvalues(spec: LatticeSpec, k: float) -> tuple[complex, complex]:
    """Closed-form Bloch eigenvalue pair (plus branch first).

    Returns ``-2*t*cos(k) +/- sqrt(d**2 + ((delta + i*gamma)/2)**2)`` using
    the principal square root.
    """
    base = -2.0 * spec.inter_hop * math.cos(k)
    root = cmath.sqrt(
        spec.intra_hop**2 + (0.5 * (spec.delta + 1j * spec.gamma)) ** 2
    )
    return (base + root, base - root)


def build_real_space_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Dense 2N x 2N Hamiltonian in the cell-major site basis.

    Site ordering is (a_1, b_1, a_2, b_2, ..., a_N, b_N).  Bond blocks are
    accumulated additively, so the N = 2 ring correctly carries a doubled
    inter-cell bond (the neighbour on the left is also the neighbour on
    the right).
    """
    return _assemble(spec, unit_cell_blocks(spec))


def _assemble(spec: LatticeSpec, blocks: UnitCellBlocks) -> np.ndarray:
    # A lower bond block is the transpose of its upper one: H is symmetric
    # in the site basis, and in the real basis the bond blocks are diagonal.
    # ham[c, :, e, :] is the block from cell c to cell e; bonds are added,
    # not set, so that the N = 2 ring keeps its doubled bond.
    n = spec.n_cells
    ham = np.zeros((n, 2, n, 2), dtype=blocks.h0.dtype)
    cells = np.arange(n)
    ham[cells, :, cells, :] = blocks.h0
    hops = np.array(_bond_blocks(spec, blocks)).reshape(-1, 2, 2)
    ham[cells[:-1], :, cells[1:], :] += hops
    ham[cells[1:], :, cells[:-1], :] += hops.transpose(0, 2, 1)

    if spec.topology in _RING_TOPOLOGIES:
        closing = (
            blocks.h1
            if spec.topology is BoundaryTopology.CIRCULAR
            else blocks.h1_twist
        )
        ham[n - 1, :, 0, :] += closing
        ham[0, :, n - 1, :] += closing.T

    return ham.reshape(2 * n, 2 * n)


def _bond_blocks(spec: LatticeSpec, cells: UnitCellBlocks) -> list[np.ndarray]:
    """The N - 1 bond blocks between neighbouring cells, in the basis of ``cells``.

    Entry c is the upper block from cell c to cell c + 1 (0-based); the
    lower block is its transpose.  The twisted topology crosses entry
    N/2 - 1, the bond between cells N/2 and N/2 + 1 (1-based).  This is
    the one place the twist sits; ring closures are added by ``_assemble``.
    """
    hops = [cells.h1] * (spec.n_cells - 1)
    if spec.topology is BoundaryTopology.TWISTED_OPEN:
        hops[spec.n_cells // 2 - 1] = cells.h1_twist
    return hops


def _half_bond_blocks(
    spec: LatticeSpec, cells: UnitCellBlocks
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The bonds of the left mirror half and the middle bond, for N >= 2.

    A state that is even or odd under the cell mirror ``n -> N+1-n`` is
    fixed by the left cells 1..h, h = floor(N/2), of ``_mirror_sites``.
    For even N = 2h the half is the h - 1 bonds among them, and the middle
    bond ``H_h`` (cells h and h + 1, the crossed one on the twisted
    ladder) meets cell h as ``+H_h`` or ``-H_h``, since
    ``psi_{h+1} = +-psi_h``.  For odd N = 2h + 1 an odd state vanishes on
    the centre cell, and an even one reaches it through the join
    ``sqrt2 H_h``, appended to the half: with the centre holding
    ``psi_centre / sqrt2``, as in ``sector_blocks``, the join stays one
    block and its transpose.  The middle bond is then None.
    """
    bonds = _bond_blocks(spec, cells)
    half = spec.n_cells // 2
    if spec.n_cells % 2 == 0:
        return bonds[: half - 1], bonds[half - 1]
    return [*bonds[: half - 1], math.sqrt(2.0) * bonds[half - 1]], None


def _mirror_sites(n_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Site indices of the left cells, their mirror partners and the middle cell.

    Left cells are 1..floor(N/2) (1-based) and the partner of cell n is
    N+1-n, so ``right[i]`` is the mirror image of site ``left[i]`` on the
    same leg.  ``middle`` holds the two sites of the self-mirrored centre
    cell of an odd N and is empty for even N.
    """
    half = n_cells // 2
    left = np.arange(2 * half)
    right = 2 * (n_cells - 1 - left // 2) + left % 2
    middle = np.arange(2 * half, 2 * (n_cells - half))
    return left, right, middle


def _split_mirror_sectors(ham: np.ndarray, n_cells: int) -> tuple[np.ndarray, ...]:
    left, right, middle = _mirror_sites(n_cells)
    ll = ham[np.ix_(left, left)]
    lr = ham[np.ix_(left, right)]
    even = ll + lr
    odd = ll - lr
    if middle.size:
        # <(n + n')/sqrt2| H |m> = sqrt2 H_nm, because H_n'm = H_nm
        lm = math.sqrt(2.0) * ham[np.ix_(left, middle)]
        ml = math.sqrt(2.0) * ham[np.ix_(middle, left)]
        even = np.block([[even, lm], [ml, ham[np.ix_(middle, middle)]]])
    return tuple(block for block in (even, odd) if block.size)


def _sector_cells(spec: LatticeSpec) -> UnitCellBlocks:
    """Cell blocks in the basis that ``sector_blocks`` writes.

    At delta = 0 every cell is rotated by ``V = [[1, i], [1, -i]]/sqrt2``.
    Since ``P conj(V) = V`` for the leg swap P and ``conj(H) = P H P``,
    ``V^dagger h V`` is real: h0 becomes ``[[-d, -gamma/2], [gamma/2, d]]``,
    h1 stays ``-t I`` and h1_twist becomes ``-t diag(1, -1)``.  Otherwise
    the site-basis blocks are returned.
    """
    if spec.delta != 0:
        return unit_cell_blocks(spec)
    d, t, half = spec.intra_hop, spec.inter_hop, 0.5 * spec.gamma
    return UnitCellBlocks(
        h0=np.array([[-d, -half], [half, d]], dtype=float),
        h1=np.array([[-t, 0.0], [0.0, -t]], dtype=float),
        h1_twist=np.array([[-t, 0.0], [0.0, t]], dtype=float),
    )


def sector_blocks(spec: LatticeSpec) -> tuple[np.ndarray, ...]:
    """Diagonal blocks of H in the basis of cell-mirror eigenstates.

    The mirror ``n -> N+1-n`` (each site keeps its leg) commutes with H
    for all four topologies at any gamma and delta, so H is block
    diagonal in the basis ``(|n> +- |N+1-n>)/sqrt2``.  With ``L`` the left
    half of the cells and ``R`` their mirror partners, the mirror-even
    block is ``H_LL + H_LR`` and the mirror-odd block ``H_LL - H_LR``.
    For odd N (circular and open ladders) the centre cell is its own
    image: it joins the even block, with its couplings to ``L`` scaled
    by sqrt2.  Empty blocks are dropped, so the open N = 1 ladder gives
    one block.  The eigenvalues of the blocks together are those of H.

    At delta = 0 each cell of that basis is further rotated by the
    unitary ``V = [[1, i], [1, -i]]/sqrt2``, which acts inside a cell and
    so commutes with the mirror.  H is PT-symmetric there, and the
    blocks in the mirror x V basis are real float64 matrices (no longer
    symmetric; gamma sits on the in-cell off-diagonals ``-+gamma/2``).
    For delta != 0 the blocks are complex symmetric, in the mirror basis
    of the sites.
    """
    return _split_mirror_sectors(_assemble(spec, _sector_cells(spec)), spec.n_cells)


def sector_bases(spec: LatticeSpec) -> tuple[np.ndarray, ...]:
    """Site-basis columns ``W_b`` of each block of ``sector_blocks``.

    ``sector_blocks(spec)[b]`` equals ``W_b^dagger H W_b``, and together
    the columns form a unitary matrix, so ``W_b u`` is the eigenvector of
    H for an eigenvector u of block b, with the same norm.  The columns
    are the mirror combinations ``(|n> +- |N+1-n>)/sqrt2`` (and the
    centre cell of an odd N), real for delta != 0; at delta = 0 every
    cell is then rotated by ``V = [[1, i], [1, -i]]/sqrt2``.  Unlike the
    blocks, the bases do not depend on gamma.  ``_sector_basis`` builds
    one of them.
    """
    return tuple(_sector_basis(spec, b) for b in range(1 if spec.n_cells == 1 else 2))


def _sector_basis(spec: LatticeSpec, block: int) -> np.ndarray:
    """``sector_bases(spec)[block]`` alone: block 0 is mirror-even, 1 odd."""
    left, right, middle = _mirror_sites(spec.n_cells)
    pairs = np.arange(left.size)
    w = np.zeros((spec.n_sites, left.size + (middle.size if block == 0 else 0)))
    w[left, pairs] = 1 / math.sqrt(2.0)
    w[right, pairs] = (1.0 if block == 0 else -1.0) / math.sqrt(2.0)
    if block == 0:
        w[middle, left.size + np.arange(middle.size)] = 1.0
    if spec.delta == 0:
        v = np.array([[1, 1j], [1, -1j]]) / math.sqrt(2.0)
        w = (v @ w.reshape(spec.n_cells, 2, -1)).reshape(w.shape)
    return w


def chiral_halves(
    spec: LatticeSpec, blocks: tuple[np.ndarray, ...]
) -> tuple[tuple[np.ndarray, np.ndarray], ...] | None:
    """Halves ``(A, B)`` of each block of a twisted ladder, or None.

    ``blocks`` are matrices in the basis of ``sector_blocks(spec)`` at
    delta = 0: the blocks at some gamma, or their slope in gamma.  The
    twisted ladder is bipartite: its chiral operator
    ``Gamma = (+) s_n sigma_y`` over the cells, with ``s_n = +-1``
    alternating from cell to cell except across the twist, where it
    repeats, anticommutes with H at any gamma: sigma_y anticommutes with
    the rung ``-d sigma_x``, the on-site ``i*gamma/2 sigma_z`` and the
    crossed bond ``-t sigma_x``, and the signs flip every straight bond
    ``-t I``.  It commutes with the cell mirror, so it maps
    each sector onto itself; in the real basis it acts on left cell c as
    ``-s_c sigma_x`` with ``s_c = (-1)**c``.  Its +1 and -1
    eigenvectors in cell c are ``(1, -s_c)`` and ``(1, s_c)``; as the
    columns of ``P = [P+, P-]`` they are orthogonal with squared norm 2,
    so ``P^-1 = P^T / 2``, and since Gamma anticommutes with H every block
    becomes ``P^-1 b P = [[0, A], [B, 0]]`` with ``A = P+^T b P- / 2`` and
    ``B = P-^T b P+ / 2``.  Each entry of A or B is half a signed sum of
    the four entries of one 2x2 cell block.  The blocks at gamma = 0 and
    their slope hold only +-d, +-t, their sums and +-1/2, and in each cell
    block two of the four cancel or are zero, so on the default ladders
    (d = t = 1) their split is exact:
    ``b = (P+ A P-^T + P- B P+^T) / 2`` bit for bit.
    The eigenvalues of ``[[0, A], [B, 0]]`` are ``+-sqrt(mu)`` for the
    eigenvalues mu of ``A B``.

    Returns None on every other ladder and at delta != 0, where the
    blocks are not written in the real basis.  Circular and open ladders
    are searched in their Kronecker form (``_kronecker_chains``) instead, and
    the Moebius ring has no chiral operator.
    """
    if spec.delta != 0 or spec.topology is not BoundaryTopology.TWISTED_OPEN:
        return None
    halves = []
    for block in blocks:
        m = block.shape[0] // 2
        s = (-1.0) ** np.arange(m)
        # x[i, j][c, d] is entry (i, j) of the 2x2 block from cell c to cell d;
        # A = (x00 - S x11 S + x01 S - S x10) / 2 for S = diag(s), and B
        # takes the second pair of terms with the opposite sign
        x = block.reshape(m, 2, m, 2).transpose(1, 3, 0, 2)
        even = x[0, 0] - s[:, None] * x[1, 1] * s
        odd = x[0, 1] * s - s[:, None] * x[1, 0]
        halves.append((0.5 * (even + odd), 0.5 * (even - odd)))
    return tuple(halves)


def _kronecker_chains(spec: LatticeSpec, blocks: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...] | None:
    """The chain block ``T_b`` of each mirror block of an orientable ladder, or None.

    On circular and open ladders every bond block is ``-t I``, so the
    mirror blocks of ``sector_blocks`` at delta = 0 are the Kronecker sum
    ``T_b (x) I + I (x) h(gamma)`` with ``h(gamma) = [[-d, -gamma/2],
    [gamma/2, d]]``, the cell block in the real basis, and ``T_b`` the
    mirror block of the chain's N x N hopping matrix (the N = 2 ring's
    doubled bond and an odd N's sqrt2 join included), bit for bit.  The
    two diagonals of h are -d and d at any gamma, so ``T_b`` is the mean
    of a block's two leg sublattices, ``(b[::2, ::2] + b[1::2, 1::2]) /
    2``, exactly.  The eigenvalues of each block are ``tau + e`` for the
    eigenvalues tau of ``T_b`` (real, since ``T_b`` is symmetric) and e of
    ``h(gamma)``, ``+-sqrt(d**2 - gamma**2 / 4)``: levels of two pairs only
    cross, and every pair coalesces at gamma = +-2d, all together, at E =
    tau.

    ``blocks`` are the blocks of ``sector_blocks`` at any gamma.  Returns
    None where that form breaks: the Moebius closure and the twist cross
    one bond pair, ``-t diag(1, -1)`` in the real basis, which adds a
    rank-one term to one block entry, and at delta != 0 the blocks are
    not written in the real basis.
    """
    if spec.delta != 0 or spec.topology not in (BoundaryTopology.CIRCULAR, BoundaryTopology.OPEN):
        return None
    return tuple((b[::2, ::2] + b[1::2, 1::2]) / 2 for b in blocks)


def analytic_cll_spectrum(spec: LatticeSpec) -> list[tuple[complex, str]]:
    """Closed-form circular-ladder spectrum with branch parity labels.

    Yields ``-2*t*cos(2*pi*n/N) +/- sqrt(d**2 + ((delta + i*gamma)/2)**2)``
    for n = 1..N.  The plus branch is labelled ``"odd"`` (leg-antisymmetric
    at gamma = delta = 0) and the minus branch ``"even"``.  The labels
    describe exact cell parity only in the Hermitian limit; away from it
    they tag the square-root branch.
    """
    if spec.topology is not BoundaryTopology.CIRCULAR:
        raise ValueError("closed-form circular spectrum needs circular topology")
    root = cmath.sqrt(
        spec.intra_hop**2 + (0.5 * (spec.delta + 1j * spec.gamma)) ** 2
    )
    out: list[tuple[complex, str]] = []
    for n in range(1, spec.n_cells + 1):
        base = -2.0 * spec.inter_hop * math.cos(2.0 * math.pi * n / spec.n_cells)
        out.append((base + root, "odd"))
        out.append((base - root, "even"))
    return out


def analytic_oll_spectrum(spec: LatticeSpec) -> list[tuple[complex, str]]:
    """Closed-form open-ladder spectrum with branch parity labels.

    Yields ``-2*t*cos(m*pi/(N+1)) +/- sqrt(d**2 + ((delta + i*gamma)/2)**2)``
    for m = 1..N: every bond block of the open ladder is ``-t I``, so its
    legs' standing waves ``sin(m*pi*n/(N+1))`` carry the Bloch pair of
    ``bloch_eigenvalues`` at ``k = m*pi/(N+1)``.  Labels are those of
    ``analytic_cll_spectrum``.
    """
    if spec.topology is not BoundaryTopology.OPEN:
        raise ValueError("closed-form open spectrum needs open topology")
    out: list[tuple[complex, str]] = []
    for m in range(1, spec.n_cells + 1):
        plus, minus = bloch_eigenvalues(spec, math.pi * m / (spec.n_cells + 1))
        out.append((plus, "odd"))
        out.append((minus, "even"))
    return out


def analytic_mll_spectrum(spec: LatticeSpec) -> list[tuple[complex, str]]:
    """Closed-form Moebius-ladder spectrum, valid only at gamma = delta = 0.

    Even-parity levels sit at ``-2*t*cos(2*pi*n/N) - d`` and odd-parity
    levels at ``-2*t*cos((2*n - 1)*pi/N) + d`` for n = 1..N; the crossed
    closure shifts the odd sector onto the half-integer momentum grid.
    """
    if spec.topology is not BoundaryTopology.MOEBIUS:
        raise ValueError("closed-form Moebius spectrum needs moebius topology")
    if spec.gamma != 0.0 or spec.delta != 0.0:
        raise ValueError(
            "closed-form Moebius spectrum is only valid at gamma = delta = 0"
        )
    d = spec.intra_hop
    t = spec.inter_hop
    n_cells = spec.n_cells
    out: list[tuple[complex, str]] = []
    for n in range(1, n_cells + 1):
        even = -2.0 * t * math.cos(2.0 * math.pi * n / n_cells) - d
        odd = -2.0 * t * math.cos((2.0 * n - 1.0) * math.pi / n_cells) + d
        out.append((complex(even), "even"))
        out.append((complex(odd), "odd"))
    return out
