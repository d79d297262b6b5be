"""Eigenspectra versus gain/loss: sweeps, PT phases, exceptional points.

The sweep machinery treats the gain/loss rate gamma as the control
parameter.  Eigenvalue branches are continued through the sweep by
minimum-total-distance matching between consecutive grid points, PT
phases are read off the imaginary parts, and exceptional points (EPs)
are located by bracketing changes of the broken-state count of each
diagonal block and refining the bracket, on that block alone, down to
the requested width.  The refine is false position on the discriminant
``D = (E1 - E2)**2`` of the flipping pair, which is linear in gamma at
an EP, with the count deciding which part of the bracket stays; a
bracket whose count changes by more than one pair is bisected until one
pair flips.

A gap minimum without a count change is not an EP and is not
reported.  Broken windows narrower than the coarse grid step cannot
flip the count at any grid point and are therefore invisible at that
resolution; pass a finer ``coarse_steps`` to resolve them.

For a :class:`LatticeSpec` every solve runs on the two cell-mirror
sector blocks of H (``lattice.sector_blocks``) rather than on the full
2N x 2N matrix: the mirror commutes with H for all four
topologies, so the merged, sorted block eigenvalues are the spectrum of
H.  At delta = 0, where H is PT-symmetric, the blocks come in a basis
that makes them real, so LAPACK runs real dgeev on them.  A real
eigenvalue then has an imaginary part of exactly 0.0, and away from EPs
the broken count does not depend on ``IM_TOL``.  Measured on one core
(Moebius and circular N = 20 to 160, best of 7): the two complex N x N
solves take 1.4 to 3.7 times less time than one 2N x 2N solve, and the
two real ones another 2.1 to 3.5 times less.  A detuned spec (delta != 0)
keeps complex blocks.
Eigenvectors are solved per block and lifted to the site basis of H by
``lattice.sector_bases``, and det H is the product of the block
determinants, so no solve builds H itself.  ``branch_pair`` indexes the
merged, sorted block spectrum, which is the spectrum of H.  An EP record
reads one eigenvector: at its gamma* the blocks that hold pairs are
solved with eigenvectors, every other block for its eigenvalues alone
(geev returns the same eigenvalues either way), and only the column the
record reads is lifted, with the basis of its own block.

gamma enters every ladder only through the on-site +-i*gamma/2, so every
family is affine in it, and a family is one of two kinds.  A spec is
built from its blocks at gamma = 0 and 1 as ``b0 + g * slope``, bit for
bit a fresh build.  A pair ``(h0, slope)`` of square matrices of one
shape is the single block ``h0 + g * slope``, solved as given with no
lift: the Bloch block of a spec at momentum k is the pair
``(B(0), B(1) - B(0))`` for
``B(g) = build_bloch_hamiltonian(spec.with_gamma(g), k)``, and the dense
H of a spec is ``(H(0), H(1) - H(0))``.  Both kinds pickle, so both
sweep in the pool.

Circular and open ladders are orientable, and at delta = 0 each of their
blocks is the Kronecker sum ``T_b (x) I + I (x) h`` of a chain block and
the 2 x 2 cell block h of ``lattice.kronecker_cell``.  Every level pair
of H is a copy of h's, ``tau_j +- sqrt(d**2 - gamma**2 / 4)``, so the
broken count of H is N times h's, and its only change is the collective
EP at gamma = 2d, where every pair coalesces at E = tau_j.  The count
search scans and refines h alone there, and solves the blocks only at
the ends of its bracket and at gamma*.  The zero-energy search solves no
pencil there: a block has a zero-energy EP at gamma = +-2d exactly where
its chain block ``T_b`` has an eigenvalue tau = 0, which rings with N
divisible by 4 (in both blocks) and open ladders of odd N (in one) have.
The Moebius closure and the twist add a rank-one term to one block
entry, which couples the levels: those ladders are searched on their
blocks.

The twisted ladder is bipartite, and its chiral operator maps each block
onto itself: ``lattice.chiral_halves`` writes each block as
``[[0, A], [B, 0]]``, exactly.  Its eigenvalues are ``E = +-sqrt(mu)``
for the eigenvalues mu of ``A B``, which has half the block's rows.
Both EP searches solve these halves there: the count search scans and
refines mu, counting each broken mu as its two broken E (``_broken``),
so that an E pair and its -E partner coalesce as one mu pair and false
position works on it; the zero-energy search takes its roots from the
pencils of A and B, since ``det = +-det A det B``, and its broken counts
from mu.  mu is good to about eps times its largest value, so
``+-sqrt(mu)`` cannot tell a real E from a broken one where a mu is
within rounding of 0, as on the twisted ladder's zero mode at gamma = 0;
such a point is counted on the block itself.  Bracket ends and records
are solved on the blocks themselves.  The Moebius ring, which has no
chiral operator and no Kronecker form, solves both blocks everywhere, as
does a pair ``(h0, slope)``.

Every gamma grid is solved in stacks: the scan of the count search, the
broken counts of the zero-energy search and the sweeps build each block
at a chunk of gammas at once and solve it with one ``eigvals`` or
``eig`` call, with at most ``STACK_BYTES`` of matrices in each call.
numpy loops over a stack within that one call, so each matrix's result
is bit-identical to a solve of that matrix alone (``eigendecompose``,
which is a stack of one), and only numpy's per-call overhead goes.  The
refine probes and the eigenvector solves of EP records stay one matrix
per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np

from ._pool import pool_map
from .lattice import (
    LatticeSpec,
    _sector_basis,
    chiral_halves,
    kronecker_cell,
    sector_bases,
    sector_blocks,
)

__all__ = [
    "EigensolverError",
    "Spectrum",
    "SweepResult",
    "Phase",
    "PhaseLabel",
    "PhaseReport",
    "EpKind",
    "ExceptionalPoint",
    "BrokenWindow",
    "eigendecompose",
    "sweep_spectrum",
    "classify_pt_phase",
    "locate_exceptional_points",
    "locate_zero_energy_eps",
    "broken_windows",
]

RESIDUAL_BOUND = 1e-8
# An eigenvalue is broken (PT-broken) when its imaginary part exceeds this.
IM_TOL = 1e-9
# An EP bracket of the count search ends once it is at most this wide.
BRACKET_TOL = 1e-10
# A branch whose two nearest candidates are closer than this in distance,
# but further apart in value, makes a matching step ambiguous.
MATCHING_TOL = 1e-9


class EigensolverError(RuntimeError):
    """Dense eigensolver failed to converge or missed its residual bound."""


@dataclass
class Spectrum:
    """Eigenvalues (and optionally right eigenvectors) at one gamma.

    Eigenvalues are sorted by (real, imaginary) part; when eigenvectors
    are requested, column j of ``right_eigenvectors`` belongs to
    ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray | None
    gamma: float


def eigendecompose(matrix: np.ndarray, want_vectors: bool = False, gamma: float = 0.0) -> Spectrum:
    """Dense non-Hermitian eigendecomposition with a residual guarantee.

    Delegates to LAPACK's shifted-QR solver via numpy: dgeev for a
    float64 matrix, zgeev for anything else (cast to complex128).  The
    eigenvalues are complex128 either way; from dgeev a real eigenvalue
    has an imaginary part of exactly 0.0 and a complex one comes with
    its exact conjugate.  When vectors are requested the residual
    ``||H v - lam v||`` of every pair is checked against ``1e-8 * ||H||``.
    This is ``_solve_stack`` on a stack of one matrix.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    values, vectors = _solve_stack(matrix[None], want_vectors)
    return Spectrum(
        eigenvalues=values[0],
        right_eigenvectors=None if vectors is None else vectors[0],
        gamma=float(gamma),
    )


def _solve_stack(stack: np.ndarray, want_vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``eigendecompose`` of every matrix of a stack, in one LAPACK call.

    Returns ``values[i]``, the sorted eigenvalues of ``stack[i]``, and
    with ``want_vectors`` ``vectors[i]``, its right eigenvectors as
    columns in the same order, each pair held to the residual bound of
    its own matrix.  numpy's linalg loops over the stack inside one call,
    so every row is bit-identical to a solve of its matrix alone.
    """
    if stack.dtype != np.float64:
        stack = stack.astype(complex)
    n = stack.shape[-1]
    try:
        if want_vectors:
            values, vectors = np.linalg.eig(stack)
        else:
            values = np.linalg.eigvals(stack)
            vectors = None
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"QR iteration did not converge for {n}x{n} matrix "
            f"(LAPACK shift budget of 30*n sweeps exhausted): {exc}"
        ) from exc

    # each matrix's order; plain fancy indexing costs less per call than
    # np.take_along_axis, which matters to one-matrix refine solves
    order = np.lexsort((values.imag, values.real), axis=-1)
    at = np.arange(len(stack))[:, None]
    values = values[at, order].astype(complex)
    if vectors is not None:
        vectors = vectors[at[:, :, None], np.arange(n)[:, None], order[:, None, :]].astype(complex)
        scale = np.linalg.norm(stack, axis=(-2, -1))
        residual = np.linalg.norm(stack @ vectors - vectors * values[:, None, :], axis=-2)
        worst = residual.max(axis=-1, initial=0.0)
        bad = (scale > 0) & (worst > RESIDUAL_BOUND * scale)
        if bad.any():
            raise EigensolverError(
                f"eigenpair residual {worst[bad].max():.3e} exceeds {RESIDUAL_BOUND:.0e} * ||H|| "
                f"for {n}x{n} matrix"
            )
    return values, vectors


@dataclass
class SweepResult:
    """Continued eigenvalue branches over a gamma grid.

    ``branches[b, j]`` is branch b at ``gamma_grid[j]``.  The matching
    between consecutive grid points minimises the total complex-plane
    displacement; ``continuation_residual`` records the largest matched
    displacement seen anywhere in the sweep and ``ambiguous_steps`` the
    grid intervals where a near-tie made the assignment uncertain.
    """

    gamma_grid: np.ndarray
    branches: np.ndarray
    continuation_residual: float
    ambiguous_steps: list[int] = field(default_factory=list)

    @property
    def n_branches(self) -> int:
        return self.branches.shape[0]


def _block_eigvals(block: np.ndarray) -> np.ndarray:
    return eigendecompose(block).eigenvalues


def _stack_eigvals(stack: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of every matrix of a stack, one row each."""
    return _solve_stack(stack)[0]


def _merged(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The sorted union of the blocks' eigenvalues: the spectrum."""
    values = np.concatenate(parts)
    return values[np.lexsort((values.imag, values.real))]


# Bytes of one block's stack of matrices in one LAPACK call.  A real
# block of 20 rows goes 81 grid points to a call, one of 100 rows 3 and
# one of 160 rows 1: stacks of large blocks that outgrow the cache solve
# slower than their matrices one by one.
STACK_BYTES = 1 << 18


def _stacked(family: Callable, gammas: np.ndarray):
    """Yield ``(chunk, stacks)`` for consecutive chunks of ``gammas``:
    ``stacks[k][i]`` is block k of ``family`` at ``chunk[i]``.

    The first chunk is one point, which gives the size of the blocks;
    later chunks hold as many points as keep every stack within
    ``STACK_BYTES``.  Each gamma is built once.
    """
    start, size = 0, 1
    while start < gammas.size:
        chunk = gammas[start : start + size]
        stacks = family(chunk)
        yield chunk, stacks
        start += chunk.size
        size = max(1, STACK_BYTES // max(s[0].nbytes for s in stacks))


def _assignment(prev: np.ndarray, cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation that assigns current eigenvalues to previous
    branches with the least total distance, and the distances.

    scipy is imported here, at the first match, so importing the package
    (and runs that never match branches) does not load it.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(prev[:, None] - cur[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty_like(cols)
    perm[rows] = cols
    return perm, cost


def _match_step(prev: np.ndarray, cur: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Assign current eigenvalues to previous branches (``_assignment``).

    Returns (permutation, max matched distance, ambiguity flag).  A step
    is ambiguous when some branch sees two nearly equidistant candidates
    whose values actually differ: ties between numerically identical
    candidates (persistent symmetry degeneracies, e.g. the plus/minus
    momentum pairs of a ring) are harmless relabelings and stay silent.
    """
    perm, cost = _assignment(prev, cur)
    matched = cost[np.arange(perm.size), perm]
    ambiguous = False
    if cost.shape[1] > 1:
        order = np.argsort(cost, axis=1)
        j0, j1 = order[:, 0], order[:, 1]
        idx = np.arange(cost.shape[0])
        tie = cost[idx, j1] - cost[idx, j0] < MATCHING_TOL
        distinct = np.abs(cur[j1] - cur[j0]) > MATCHING_TOL
        ambiguous = bool(np.any(tie & distinct))
    return perm, float(matched.max()) if matched.size else 0.0, ambiguous


def _checked_grid(gamma_grid: Sequence[float]) -> np.ndarray:
    grid = np.asarray(list(gamma_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("gamma_grid must contain at least one point")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("gamma_grid must be strictly increasing")
    return grid


def _continue_branches(
    grid: np.ndarray,
    spectra: list[np.ndarray],
    carried: list[np.ndarray] | None = None,
) -> tuple[SweepResult, np.ndarray | None]:
    """Continue branches through the sorted spectra of every grid point.

    Each step keeps its ``_match_step`` assignment; an ambiguous one is
    recorded in ``ambiguous_steps``.  ``carried[j]`` (optional) holds one
    row per eigenvalue of ``spectra[j]``; its rows are permuted with the
    values, and returned stacked as ``out[b, j]`` for branch b.
    """
    n = spectra[0].size
    branches = np.empty((n, grid.size), dtype=complex)
    branches[:, 0] = spectra[0]
    out = None
    if carried is not None:
        out = np.empty((n, grid.size) + carried[0].shape[1:], dtype=carried[0].dtype)
        out[:, 0] = carried[0]
    residual = 0.0
    ambiguous_steps: list[int] = []
    for j in range(1, grid.size):
        cur = spectra[j]
        if cur.size != n:
            raise ValueError("matrix family changed dimension during sweep")
        perm, dist, ambiguous = _match_step(branches[:, j - 1], cur)
        if ambiguous:
            ambiguous_steps.append(j - 1)
        branches[:, j] = cur[perm]
        if out is not None:
            out[:, j] = carried[j][perm]
        residual = max(residual, dist)
    sweep = SweepResult(
        gamma_grid=grid,
        branches=branches,
        continuation_residual=residual,
        ambiguous_steps=ambiguous_steps,
    )
    return sweep, out


def _grid_eigvals(build, grid: np.ndarray, workers: int, weigh=None, bases=None) -> list:
    """Sorted eigenvalues at every grid point (``_solve_points``), solved
    in the process-wide pool of ``_pool`` when ``workers`` > 1 and the
    grid has 8 or more points.

    With ``weigh``, each point is solved once with eigenvectors instead,
    lifted with ``bases`` (``sector_bases``), and gives
    ``(values, weigh(vectors, gamma))``.
    Pool workers get chunks of gammas, with the builder (a picklable
    ``_family_for`` builder), ``bases`` and ``weigh`` sent once per
    chunk, and build their own blocks: the parent builds none, and no
    vectors come back.
    """
    solve = partial(_solve_points, build, bases, weigh)
    if workers <= 1 or grid.size < 8:
        return solve(grid)
    chunks = pool_map(solve, np.array_split(grid, min(grid.size, 4 * workers)), workers)
    return [point for chunk in chunks for point in chunk]


def _solve_points(build: Callable, bases, weigh: Callable | None, gammas: np.ndarray) -> list:
    """The points of ``_grid_eigvals`` at ``gammas``, each block solved as
    stacks of ``_stacked`` chunks, one LAPACK call per block and chunk.

    Every row is bit-identical to a solve of its block alone, and with
    ``weigh`` every point's vectors are lifted (``_lifted``) and weighed
    on their own.
    """
    points = []
    for chunk, stacks in _stacked(build, gammas):
        if weigh is None:
            rows = [_stack_eigvals(s) for s in stacks]
            points += [_merged(parts) for parts in zip(*rows)]
            continue
        solved = [_solve_stack(s, want_vectors=True) for s in stacks]
        for i, g in enumerate(chunk):
            pairs = _lifted([Spectrum(v[i], w[i], g) for v, w in solved], bases, g)
            points.append((pairs.eigenvalues, weigh(pairs.right_eigenvectors, g)))
    return points


def _family_for(family: LatticeSpec | tuple) -> tuple[Callable, Callable | None, Callable]:
    """Builder of a family's blocks at gamma, of their bases, and of the
    blocks a scan solves.

    A spec's blocks are its mirror-sector blocks (``sector_blocks``),
    real at delta = 0 and complex otherwise; their eigenvalues together
    are those of H, and block k's basis ``basis(k)`` (``sector_bases``)
    lifts its eigenvectors to the site basis.  Each basis is built at its
    first call, once per family, since the searches lift vectors only at
    their records.  gamma enters every block linearly, so each call is
    ``b0 + g * s`` from the blocks at gamma = 0 and 1, bit-identical to a
    fresh build; at an array of gammas it gives each block's stack over
    them.  The scanned builder is the one place that picks what both EP
    searches solve.  On circular and open ladders it builds the 2 x 2
    cell block h of ``lattice.kronecker_cell``, since every block is the
    Kronecker sum ``T_b (x) I + I (x) h``.  On twisted ladders, where
    ``lattice.chiral_halves`` splits every block into ``[[0, A], [B, 0]]``,
    it builds ``_squared_blocks``, each block's ``A B`` at half its size,
    from the split of the blocks at gamma = 0 and of their slope.
    Otherwise it builds every block.  A pair ``(h0, slope)`` is the one
    block ``h0 + g * slope``, without a basis.  The block builder
    pickles, so pool workers can build blocks themselves.
    """
    if not isinstance(family, LatticeSpec):
        blocks = partial(_affine_blocks, *_checked_pair(family))
        return blocks, None, blocks
    b0 = sector_blocks(family.with_gamma(0.0))
    slope = tuple(b1 - b for b1, b in zip(sector_blocks(family.with_gamma(1.0)), b0))
    blocks = partial(_affine_blocks, b0, slope)
    cell, halves = kronecker_cell(family), chiral_halves(family, b0)
    if cell is not None:
        scanned = partial(_affine_blocks, *zip(cell))
    elif halves is not None:
        (a0, c0), (a1, c1) = zip(*halves), zip(*chiral_halves(family, slope))
        scanned = partial(_squared_blocks, a0, a1, c0, c1)
    else:
        scanned = blocks
    return blocks, cache(partial(_sector_basis, family)), scanned


def _checked_pair(pair) -> tuple[tuple[np.ndarray], tuple[np.ndarray]]:
    """``((h0,), (slope,))`` of a pair ``(h0, slope)`` of square matrices
    of one shape; anything else raises ``TypeError`` or ``ValueError``."""
    form = "a family is a LatticeSpec or a pair (h0, slope) of matrices, the block h0 + g * slope"
    try:
        h0, slope = (np.asarray(m) for m in pair)
    except (TypeError, ValueError):
        raise TypeError(f"{form}, got a {type(pair).__name__}") from None
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1] or slope.shape != h0.shape:
        raise ValueError(f"{form}; h0 and slope must be square, of one shape, got {h0.shape}, {slope.shape}")
    return (h0,), (slope,)


def _affine_blocks(b0: tuple, slope: tuple, g) -> tuple[np.ndarray, ...]:
    return tuple(b + np.multiply.outer(g, s) for b, s in zip(b0, slope))


def _squared_blocks(a0: tuple, a1: tuple, b0: tuple, b1: tuple, g) -> tuple[np.ndarray, ...]:
    """``A(g) B(g)`` of every block ``[[0, A(g)], [B(g), 0]]``, with
    ``A(g) = a0 + g * a1`` and ``B(g) = b0 + g * b1``: its eigenvalues
    are mu = E**2 for the block's eigenvalues E = +-sqrt(mu)."""
    return tuple(a @ b for a, b in zip(_affine_blocks(a0, a1, g), _affine_blocks(b0, b1, g)))


def _lifted(parts: list[Spectrum], bases: tuple[np.ndarray, ...] | None, gamma: float) -> Spectrum:
    """The spectrum of H, with vectors, from each block's own.

    With ``bases`` (``sector_bases``) each block's unit eigenvectors are
    lifted to H with its basis; the one block of a pair ``(h0, slope)``
    needs no lift.
    """
    values = np.concatenate([p.eigenvalues for p in parts])
    vectors = [p.right_eigenvectors for p in parts]
    if bases is not None:
        vectors = [w @ v for w, v in zip(bases, vectors)]
    order = np.lexsort((values.imag, values.real))
    vectors = np.hstack(vectors)[:, order]
    return Spectrum(eigenvalues=values[order], right_eigenvectors=vectors, gamma=float(gamma))


def sweep_spectrum(
    spec: LatticeSpec | tuple[np.ndarray, np.ndarray],
    gamma_grid: Sequence[float],
    *,
    workers: int = 1,
) -> SweepResult:
    """Eigenvalue branches of a lattice, or of a pair, over a gamma grid.

    For a spec each grid point solves the two mirror-sector blocks of the
    real-space Hamiltonian (real blocks at delta = 0).  A pair
    ``(h0, slope)`` of square matrices is the one block ``h0 + g * slope``,
    such as the Bloch block at momentum k, ``(B(0), B(1) - B(0))`` with
    ``B(g) = build_bloch_hamiltonian(spec.with_gamma(g), k)``.  With
    ``workers`` > 1 the grid is solved in a process pool whose workers
    build their own blocks; the result does not depend on ``workers``.
    """
    grid = _checked_grid(gamma_grid)
    return _continue_branches(grid, _grid_eigvals(_family_for(spec)[0], grid, workers))[0]


def _weighted_sweep(
    spec: LatticeSpec,
    gamma_grid: Sequence[float],
    weigh: Callable[[np.ndarray, float], np.ndarray],
    *,
    workers: int = 1,
) -> tuple[SweepResult, np.ndarray]:
    """``sweep_spectrum`` that also reduces every point's eigenvectors.

    Each grid point is solved once, with eigenvectors lifted to the site
    basis of H.  ``weigh(vectors, gamma)`` maps them (column j belongs to
    the j-th sorted eigenvalue) to one row per eigenvalue, in the pool
    when there is one, so it must pickle.  Returns the sweep and
    ``rows[b, j]``, the row of branch b at ``gamma_grid[j]``.
    """
    grid = _checked_grid(gamma_grid)
    points = _grid_eigvals(_family_for(spec)[0], grid, workers, weigh=weigh, bases=sector_bases(spec))
    values = [v for v, _ in points]
    rows = [r for _, r in points]
    return _continue_branches(grid, values, rows)


class Phase(Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"


@dataclass(frozen=True)
class PhaseLabel:
    phase: Phase
    eigenvalue: complex
    im_magnitude: float


@dataclass
class PhaseReport:
    labels: list[PhaseLabel]
    n_unbroken: int
    n_broken: int


def classify_pt_phase(spectrum: Spectrum | np.ndarray) -> PhaseReport:
    """Label each eigenvalue broken or unbroken by ``_broken``, the rule
    of both EP searches: broken where its imaginary part exceeds ``IM_TOL``."""
    values = np.atleast_1d(spectrum.eigenvalues if isinstance(spectrum, Spectrum) else np.asarray(spectrum))
    labels = [
        PhaseLabel(phase=Phase.BROKEN if broken else Phase.UNBROKEN, eigenvalue=v, im_magnitude=abs(v.imag))
        for v, broken in zip(map(complex, values), _broken(values))
    ]
    n_broken = _broken_count(values)
    return PhaseReport(labels=labels, n_unbroken=len(labels) - n_broken, n_broken=n_broken)


class EpKind(Enum):
    MERGE = "MergePoint"
    SPLIT = "SplitPoint"


@dataclass(frozen=True)
class ExceptionalPoint:
    """One located branch coalescence.

    ``gamma_star`` is the midpoint of the final bracket (``bracket_lo``,
    ``bracket_hi``); ``pair_gap`` is the distance of the coalescing
    eigenvalues evaluated at ``gamma_star``.  Because the gap grows like
    the square root of the distance to the true EP, the bracket width
    (not the gap) is the accuracy statement for ``gamma_star``.
    ``self_orthogonality`` is ``|v^T v| / ||v||^2`` of the coalescing
    right eigenvector, which tends to zero at the EP.
    """

    gamma_star: float
    energy_star: complex
    kind: EpKind
    branch_pair: tuple[int, int]
    pair_gap: float
    self_orthogonality: float
    bracket_lo: float
    bracket_hi: float
    n_broken_change: int


def _broken(values: np.ndarray, squared: bool = False) -> np.ndarray:
    """Which eigenvalues are broken: the one rule both EP searches use.

    With ``squared`` the values are mu = E**2 of ``_squared_blocks``, and
    each stands for the pair E = +-sqrt(mu), broken together where
    sqrt(mu) is: a real mu crossing 0 breaks its pair, and two negative
    mu that collide and leave the real axis break nothing new.
    """
    if squared:
        values = np.sqrt(values)
    return np.abs(values.imag) > IM_TOL


def _broken_count(values: np.ndarray, squared: bool = False):
    """The number of broken E along the last axis of ``values``
    (``_broken``): an int for one spectrum, an array for a stack of them.
    Each broken mu counts as its two E."""
    counts = np.count_nonzero(_broken(values, squared), axis=-1) * (2 if squared else 1)
    return counts if counts.ndim else int(counts)


def _matched_flips(at_a: np.ndarray, at_b: np.ndarray, squared: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``at_b`` matched to ``at_a`` (``_assignment``), and the indices of
    the values that flip between real and broken across the two."""
    at_b = at_b[_assignment(at_a, at_b)[0]]
    return at_b, np.nonzero(_broken(at_a, squared) != _broken(at_b, squared))[0]


def _pair_discriminants(at_a: np.ndarray, at_b: np.ndarray, squared: bool = False) -> tuple[float, float] | None:
    """``D = (E1 - E2)**2`` of the one pair that flips across a bracket,
    at both ends, or None unless exactly one pair flips.

    D is ``|E1 - E2|**2`` where the pair is real and ``-|E1 - E2|**2``
    where it is broken, so its sign follows the count even where
    rounding scatters the pair near its EP.  The pair splits like
    ``sqrt(gamma - gamma*)``, so D is linear in gamma near the EP.  With
    ``squared`` the values are mu = E**2: D is taken of the pair of mu
    that flips, and where one mu flips alone, crossing 0 as its E pair
    meets at zero energy, its real part takes D's place, linear there too.
    """
    at_b, flips = _matched_flips(at_a, at_b, squared)
    if squared and flips.size == 1:
        return at_a[flips[0]].real, at_b[flips[0]].real
    if flips.size != 2:
        return None
    ends = []
    for pair in (at_a[flips], at_b[flips]):
        broken = _broken(pair, squared)
        if broken[0] != broken[1]:
            return None
        gap = abs(pair[0] - pair[1]) ** 2
        ends.append(-gap if broken[0] else gap)
    return ends[0], ends[1]


# A mu within this of 0, relative to the largest |mu| of its spectrum, is
# within rounding of 0 (eig(A B) is good to about eps * |A| |B| in mu),
# and +-sqrt(mu) cannot tell a real E from a broken one there.
MU_ROUNDING = 1e-13


def _counts(values: np.ndarray, gammas, k: int, direct: Callable | None) -> list[int]:
    """Broken counts (``_broken_count``) of a stack of block k's spectra
    at ``gammas``, one int each.

    Without ``direct`` the values are eigenvalues E.  With it they are
    mu = E**2 of ``_squared_blocks``, counted by the mu rule, except
    where some mu is within ``MU_ROUNDING`` of 0: rounding there moves
    sqrt(mu) by far more than ``IM_TOL``, as on the twisted ladder's zero
    mode at gamma = 0, whose mu = -(c gamma)**2 stays below the rounding
    of mu for |gamma| up to about 1e-6.  Such spectra are counted on the
    block itself, ``direct(g)[k]``, in one stack.
    """
    if direct is None:
        return _broken_count(values).tolist()
    counts = _broken_count(values, squared=True)
    size = np.abs(values)
    near = size.min(axis=-1) <= MU_ROUNDING * size.max(axis=-1)
    if near.any():
        counts[near] = _broken_count(_stack_eigvals(direct(np.asarray(gammas)[near])[k]))
    return counts.tolist()


# False-position probes in a row that may leave a bracket more than half
# as wide as before them; the next probe bisects.
SLOW_STEPS = 3


def _scan_and_refine(
    family: Callable, grid: np.ndarray, direct: Callable | None = None
) -> tuple[list[dict], list[tuple[int, float, float, int]]]:
    """Bracket every change of each block's broken count, on that block alone.

    ``family(g)`` gives the blocks at gamma g, and at an array of gammas
    each block's stack over them.  With ``direct``, the builder of the
    blocks themselves, the family is ``_squared_blocks``: its blocks are
    ``A B`` at half the size, their eigenvalues mu are counted by the mu
    rule of ``_broken``, and ``direct`` counts a point where a mu is
    within rounding of 0 (``_counts``).  The scan solves every block once
    per grid point, in ``_stacked`` chunks of one LAPACK call each, every
    row bit-identical to a solve of its matrix alone, and counts each
    chunk's values in one call.  Each interval between
    consecutive grid points of one block whose broken counts differ is
    refined with one solve of that block per probe, keeping every part
    whose end counts differ, until it is at most ``BRACKET_TOL`` wide or
    a and b are adjacent doubles.

    Counts alone decide which part stays.  The discriminants of the one
    pair that flips across the bracket (``_pair_discriminants``, or of
    the one mu that crosses 0) only place the next probe: where they
    have opposite signs the probe goes
    where the line through them crosses zero (Illinois false position:
    an end kept twice in a row has its value halved), moved a quarter of
    ``BRACKET_TOL`` toward the farther end.  The probe bisects instead
    where no single pair flips, where the line's zero does not fall
    strictly inside the bracket, and once ``SLOW_STEPS`` false-position
    probes in a row have not halved the bracket.  A probe whose count
    matches neither end splits the bracket in two, and each part starts
    afresh.

    Returns ``(solved, brackets)``: ``solved[k]`` maps every gamma at
    which block k was solved to its sorted eigenvalues (mu with
    ``direct``), and each bracket is ``(k, a, b, change)``, with
    ``change`` the count at b minus the count at a.
    """
    squared = direct is not None
    solved = counted = None
    for chunk, stacks in _stacked(family, grid):
        solved = solved or [{} for _ in stacks]
        counted = counted or [{} for _ in stacks]
        for k, stack in enumerate(stacks):
            values = _stack_eigvals(stack)
            solved[k].update(zip(chunk, values))
            counted[k].update(zip(chunk, _counts(values, chunk, k, direct)))
    work = [(k, a, b) for k, count in enumerate(counted) for a, b in zip(grid, grid[1:]) if count[a] != count[b]]

    brackets = []
    while work:
        k, a, b = work.pop()
        at, count = solved[k], counted[k]
        weight_a = weight_b = 1.0
        kept = 0  # -1 when a stayed at the last probe, +1 when b did
        slow, start = 0, b - a
        while True:
            mid = 0.5 * (a + b)
            if b - a <= BRACKET_TOL or not a < mid < b:
                brackets.append((k, a, b, count[b] - count[a]))
                break
            m = mid
            ends = _pair_discriminants(at[a], at[b], squared) if slow < SLOW_STEPS else None
            if ends is not None:
                fa, fb = weight_a * ends[0], weight_b * ends[1]
                if fa * fb < 0:
                    # a quarter width past the estimate, toward the farther
                    # end: once the estimate is close, the bracket closes
                    # with both ends clear of the EP, where rounding can
                    # set the count either way
                    x = a + (b - a) * (fa / (fa - fb))
                    x += 0.25 * BRACKET_TOL if x - a < b - x else -0.25 * BRACKET_TOL
                    if a < x < b:
                        m = x
            at[m] = _block_eigvals(family(m)[k])
            [count[m]] = _counts(at[m][None], [m], k, direct)
            below, above = count[m] != count[a], count[m] != count[b]
            if below and above:
                work.append((k, m, b))
            if below:  # b moves to m, a stays
                if kept == -1:
                    weight_a *= 0.5
                b, weight_b, kept = m, 1.0, -1
            else:
                if kept == 1:
                    weight_b *= 0.5
                a, weight_a, kept = m, 1.0, 1
            if m == mid or below and above:
                # after a bisection or a split, false position starts afresh
                weight_a = weight_b = 1.0
                kept, slow, start = 0, 0, b - a
            elif 2.0 * (b - a) <= start:
                slow, start = 0, b - a
            else:
                slow += 1
    return solved, brackets


def _search_family(family, gamma_range) -> tuple:
    """The block builder, basis builder and scanned builder
    (``_family_for``) of an EP search, and the ends of its range.

    Both searches rest on PT symmetry, which a spec with delta != 0 does
    not have.
    """
    if isinstance(family, LatticeSpec) and family.delta != 0.0:
        raise ValueError(f"EP searches need a PT-symmetric lattice (delta = 0), got delta = {family.delta}")
    lo, hi = float(gamma_range[0]), float(gamma_range[1])
    if not lo < hi:
        raise ValueError(f"empty gamma range ({lo}, {hi})")
    return (*_family_for(family), lo, hi)


def locate_exceptional_points(
    spec: LatticeSpec | tuple[np.ndarray, np.ndarray],
    gamma_range: tuple[float, float],
    coarse_steps: int = 400,
) -> list[ExceptionalPoint]:
    """Locate exceptional points of a lattice over a gamma range.

    ``spec`` may also be a pair ``(h0, slope)`` of square matrices, for
    families that are not lattice Hamiltonians, such as the Bloch block
    at momentum k, ``(B(0), B(1) - B(0))`` with
    ``B(g) = build_bloch_hamiltonian(spec.with_gamma(g), k)``; it is
    searched as the one block ``h0 + g * slope``.  For a spec,
    eigenvalues and the EP eigenvectors come from its mirror-sector
    blocks, the vectors lifted to the site basis of H.  On a circular or
    open ladder every block is the Kronecker sum ``T_b (x) I + I (x) h``
    of a chain block and the 2 x 2 cell block h (``lattice.kronecker_cell``),
    so every block's broken count changes exactly where h's does: the
    scan and the refine solve h alone, and every block is solved at the
    ends of each bracket of h.  On a twisted ladder
    (``lattice.chiral_halves``) they solve each block's ``A B``, at half
    its size, and count its eigenvalues mu = E**2 (see the module
    docstring); the blocks themselves are solved at the ends of each
    bracket of mu, for the blocks that bracketed it.  The Moebius ring
    solves both blocks throughout.

    Scans ``coarse_steps`` intervals for changes of each block's
    broken-eigenvalue count: an eigenvalue is broken where its imaginary
    part exceeds ``IM_TOL``.  A transition is found when its own block's
    count differs across a coarse interval, even where another block's
    change cancels it in the count of the whole spectrum.  Each such
    interval is refined on that block alone, one block solve per probe,
    until the bracket narrows to ``BRACKET_TOL``: near an EP the pair gap
    grows like the square root of the distance to it, so the bracket
    width, not the gap, bounds the error of ``gamma_star``.  Where one
    pair flips across the bracket (its two ends' spectra are matched),
    probes go by Illinois false position on that pair's discriminant
    ``D = (E1 - E2)**2``, positive while the pair is real, negative once
    it is broken and linear in gamma at the EP; the count at each probe
    decides which part stays.  That takes about 5 solves per bracket
    where bisection takes about 26.  Where the count changes by more
    than one pair (two EPs in one interval), probes bisect until one
    pair flips, so multiple transitions of one block inside one coarse
    interval are separated as long as they are further than
    ``BRACKET_TOL`` apart.  Transitions whose broken window lies
    strictly between two grid points are invisible at the chosen
    resolution, unless a probe happens to land in it.

    Brackets of any blocks that overlap or touch and change the count in
    the same direction are joined: a transition shared by both blocks is
    one bracket, and so is a transition split into two brackets by a
    grid point or probe that lands exactly on it (up to
    ``2 * BRACKET_TOL`` wide).  Each joined bracket is resolved on the
    whole spectrum at its two ends (on the halves, on the blocks whose
    brackets it joined, as the other blocks keep their counts across
    it), so ``n_broken_change``, ``energy_star`` and ``branch_pair``
    refer to H.  Each record's pair is found at gamma* in the blocks
    solved for their eigenvalues, and only a block that holds pairs is
    solved with eigenvectors (``_pair_record``).

    Returns a list of :class:`ExceptionalPoint` sorted by gamma (several
    entries may share one gamma when a cluster of pairs coalesces
    together, as all pairs of a circular or open ladder do at
    gamma = 2d).  Gap minima without a count change, such as avoided
    crossings, are not EPs and are not reported.  A detuned spec
    (delta != 0) is not PT-symmetric and raises ``ValueError``, and so
    does a pair that is not two square matrices of one shape; any other
    family, a callable included, raises ``TypeError``.
    """
    if coarse_steps < 1:
        raise ValueError("coarse_steps must be at least 1")
    blocks, basis, scanned, lo, hi = _search_family(spec, gamma_range)
    squared = scanned.func is _squared_blocks
    cell = scanned is not blocks and not squared  # the Kronecker cell of an orientable ladder
    solved, brackets = _scan_and_refine(scanned, np.linspace(lo, hi, coarse_steps + 1), blocks if squared else None)

    def spectrum(g: float, own) -> np.ndarray:
        if scanned is blocks:
            # a bracket end is solved for its own block; the others are solved here
            for k, at in enumerate(solved):
                if g not in at:
                    at[g] = _block_eigvals(scanned(g)[k])
            return _merged([at[g] for at in solved])
        at = blocks(g)  # mu located the bracket on its own blocks, the cell on all of them
        return _merged([_block_eigvals(at[k]) for k in own])

    points = []
    for a, b, own in _join_brackets(brackets):
        # every pair of a Kronecker sum is a copy of the cell's, in every
        # block, so H has N times the cell's count; an end where it does
        # not is within rounding of the EP, where H is defective, and moves
        # out by the bracket's width, which centres the bracket on the EP
        own = range(len(blocks.args[0])) if cell else sorted(own)
        ends = []
        for g, out in ((a, a - b), (b, b - a)):
            values = spectrum(g, own)
            if cell and _broken_count(values) != values.size // 2 * _broken_count(solved[0][g]):
                g += out
                values = spectrum(g, own)
            ends += [g, values]
        points.extend(_resolve_transition(blocks, basis, own, *ends))
    points.sort(key=lambda p: (p.gamma_star, p.energy_star.real))
    return points


def _join_brackets(brackets: list[tuple[int, float, float, int]]) -> list[tuple[float, float, set[int]]]:
    """Join brackets, of any blocks, that overlap or touch and change the
    count in the same direction; each joined bracket comes with the set
    of blocks whose brackets it joined.

    Brackets of two blocks that overlap are resolved as one transition
    of H, on the spectra of both.  And a grid point or probe that lands
    exactly on an EP gets a count set by rounding: a real solve returns
    each defective pair there as a real pair or as a conjugate pair,
    split by about sqrt(eps).  One transition is then refined into two
    brackets that meet at that point.
    """
    joined: list[tuple[float, float, int, set[int]]] = []
    for k, a, b, change in sorted(brackets, key=lambda t: t[1]):
        if joined and a <= joined[-1][1] and change * joined[-1][2] > 0:
            lo, hi, _, own = joined[-1]
            joined[-1] = (lo, max(b, hi), change, own | {k})
        else:
            joined.append((a, b, change, {k}))
    return [(a, b, own) for a, b, _, own in joined]


def _resolve_transition(blocks, basis, own, a: float, vals_a: np.ndarray, b: float, vals_b: np.ndarray):
    """Turn one refined bracket into ExceptionalPoint records.

    The spectra at the two bracket ends are matched pairwise; indices
    whose real/complex character flips across the bracket identify the
    coalescing pairs.  The broken-side members are grouped into conjugate
    pairs (``_conjugate_pairs``), one record per pair (``_pair_record``).
    At gamma* the blocks ``own``, which hold the flipping pairs, are
    solved with eigenvectors, and every other block for its eigenvalues
    alone.
    """
    gamma_star = 0.5 * (a + b)
    ca, cb = _broken_count(vals_a), _broken_count(vals_b)
    vals_b_matched, flipped = _matched_flips(vals_a, vals_b)
    kind = EpKind.MERGE if cb > ca else EpKind.SPLIT
    broken_side = vals_b_matched if kind is EpKind.MERGE else vals_a

    pairs = _conjugate_pairs(broken_side, flipped)
    if not pairs:
        return []

    at = blocks(gamma_star)
    parts = [eigendecompose(m, want_vectors=k in own, gamma=gamma_star) for k, m in enumerate(at)]
    return [
        _pair_record(
            at,
            parts,
            basis,
            0.5 * (broken_side[i] + broken_side[j]),
            gamma_star=gamma_star,
            kind=kind,
            bracket_lo=a,
            bracket_hi=b,
            n_broken_change=cb - ca,
        )
        for i, j in pairs
    ]


# A flipped eigenvalue E and a flipped partner form a conjugate pair when
# the partner is within PAIR_MATCH_TOL[0] + PAIR_MATCH_TOL[1] * |E| of
# conj(E).
PAIR_MATCH_TOL = (1e-6, 1e-3)


def _conjugate_pairs(values: np.ndarray, flipped: np.ndarray) -> list[tuple[int, int]]:
    """The indices ``flipped`` of ``values`` grouped into conjugate pairs
    ``(i, j)``, Im > 0 at i and < 0 at j.  Each i, in the order of
    ``flipped``, takes the unused j nearest conj(values[i]), the first of
    equals, where one is within ``PAIR_MATCH_TOL``."""
    side = values[flipped]
    distance = np.abs(side[None, :] - side[:, None].conj())
    atol, rtol = PAIR_MATCH_TOL
    match = (side.imag < 0)[None, :] & (distance < (atol + rtol * np.abs(side))[:, None])
    pairs = []
    for i in np.nonzero(side.imag > 0)[0]:
        if match[i].any():
            j = np.argmin(np.where(match[i], distance[i], np.inf))
            pairs.append((flipped[i], flipped[j]))
            match[:, j] = False
    return pairs


def _pair_record(at: tuple, parts: list[Spectrum], basis: Callable | None, target: complex, **fields) -> ExceptionalPoint:
    """ExceptionalPoint for the two eigenvalues of H nearest ``target``.

    ``parts[k]`` is block k of ``at``, the blocks at gamma*, solved with
    eigenvectors or for its eigenvalues alone; merged and sorted, their
    eigenvalues are the spectrum of H.  The pair gives ``branch_pair``
    (ascending indices into it), ``energy_star`` (its midpoint),
    ``pair_gap`` and the ``self_orthogonality`` of the lower index's
    eigenvector, lifted to H with its block's ``basis(k)`` alone (the one
    block of a pair ``(h0, slope)`` needs no lift).  Where that block was
    solved without eigenvectors, it is solved again with them, in place
    in ``parts``, and the pair is taken afresh; geev returns the same
    eigenvalues either way.  ``fields`` supply the rest.
    """
    while True:
        values = np.concatenate([p.eigenvalues for p in parts])
        order = np.lexsort((values.imag, values.real))
        lo, hi = sorted(int(x) for x in np.argsort(np.abs(values[order] - target))[:2])
        sizes = [p.eigenvalues.size for p in parts]
        k = int(np.searchsorted(np.cumsum(sizes), order[lo], side="right"))  # the block of lo
        if parts[k].right_eigenvectors is not None:
            break
        parts[k] = eigendecompose(at[k], want_vectors=True, gamma=parts[k].gamma)
    e_lo, e_hi = values[order[lo]], values[order[hi]]
    v = parts[k].right_eigenvectors[:, order[lo] - sum(sizes[:k])]
    if basis is not None:
        v = basis(k) @ v
    return ExceptionalPoint(
        energy_star=complex(0.5 * (e_lo + e_hi)),
        branch_pair=(lo, hi),
        pair_gap=float(abs(e_lo - e_hi)),
        self_orthogonality=float(abs(v @ v) / np.vdot(v, v).real),
        **fields,
    )


# A zero of a block's determinant is a zero-energy EP only if the midpoint
# of its block's two eigenvalues nearest 0 is within this of 0; a block of
# an orientable ladder has one only if its chain block has an eigenvalue
# within this of 0.
ZERO_ENERGY_TOL = 1e-6
# A root gamma of a block's pencil is real when its imaginary part is at
# most this times the size of the range's ends.  A simple real root comes
# out within about 1e-14 of the real axis, or on it, and a double root
# that rounding splits into a conjugate pair about 1e-8 off it.
REAL_ROOT_TOL = 1e-10


def locate_zero_energy_eps(
    spec: LatticeSpec | tuple[np.ndarray, np.ndarray],
    gamma_range: tuple[float, float],
    scan_steps: int = 601,
) -> list[ExceptionalPoint]:
    """Exceptional points pinned at E = 0: a real +-E pair merging at zero.

    Spectra with the E -> -conj(E) symmetry (bipartite ladders with
    balanced gain/loss) coalesce symmetric real pairs exactly at E = 0,
    where det H vanishes.  det H is the product of the determinants of
    the diagonal blocks (the mirror sectors of a spec, real at delta = 0;
    a pair ``(h0, slope)``, such as the Bloch block
    ``(B(0), B(1) - B(0))``, is the one block ``h0 + g * slope``), so a
    zero-energy coalescence is a real root of one block's determinant.
    Each block is affine in gamma, ``b(g) = A + g * B``, so its roots are
    the eigenvalues of one pencil, all found by one eigensolve per block
    (``_pencil_roots``).  Near a zero-energy EP, ``E = +-c sqrt(gamma* -
    gamma)``, so det b is linear in ``gamma* - gamma`` and gamma* is a
    simple, well-conditioned root.  On a twisted ladder each block is
    ``[[0, A], [B, 0]]`` (``lattice.chiral_halves``), whose determinant is
    ``+-det A det B``: the pencils of A and B, at half the block's size,
    give its roots.

    Every real root strictly inside ``gamma_range`` then passes two
    filters.  The block's broken count, by the rule of
    ``locate_exceptional_points`` (``IM_TOL``), must differ between
    gamma* - 1e-7 and gamma* + 1e-7, the record's ``bracket_lo`` and
    ``bracket_hi``; the difference is its ``n_broken_change`` and its sign
    the kind.  These counts come from one stack per block over all its
    roots, in ``_stacked`` chunks, of the block or, for halves, of its
    ``A B`` (``_counts``).  That discards an ordinary band
    crossing (a real eigenvalue passing through zero and staying real)
    and the twisted ladder's zero mode at gamma = 0, which breaks on both
    sides.  And the midpoint of the block's two eigenvalues nearest zero
    at gamma* must be within ``ZERO_ENERGY_TOL`` of 0, which discards a
    coalescence elsewhere that meets such a root.  That block is solved
    once at gamma*, with eigenvectors, and the record reuses the solve;
    the other blocks are solved for their eigenvalues alone, and only for
    a kept record (``_pair_record``).  The record's eigenvector is lifted
    to the site basis of H.

    Circular and open ladders solve no pencil and count nothing.  Each of
    their blocks is the Kronecker sum ``T_b (x) I + I (x) h`` of a chain
    block and the cell block h (``lattice.kronecker_cell``), whose level
    pairs ``tau_j +- sqrt(d**2 - gamma**2 / 4)`` coalesce only at
    gamma = +-2d, at E = tau_j.  So a block has a zero-energy EP exactly
    where ``T_b = (b[::2, ::2] + b[1::2, 1::2]) / 2`` of its gamma = 0
    block b has an eigenvalue within ``ZERO_ENERGY_TOL`` of 0: at gamma*
    = 2d a MergePoint and at -2d a SplitPoint, each where it lies inside
    the range, whose ``n_broken_change`` is plus or minus the block's row
    count, as all its pairs break together.  That holds on rings with N
    divisible by 4, in both blocks (tau = 0 at the momenta N/4 and 3N/4),
    and on open ladders of odd N, in one block (the middle standing
    wave); no other circular or open ladder has a zero-energy EP.  Only
    the blocks that hold records are solved, once at each gamma*, with
    eigenvectors; every level pair of another block is its tau there,
    twice.  A ring's two records stand for its two blocks' E = 0 pairs,
    but each reads the two eigenvalues of H nearest 0 (``_pair_record``),
    so both read the same pair of H.

    No grid is scanned: the pencil sees every root, including pairs of
    sign changes closer than any grid step.  ``scan_steps`` is kept for
    callers that pass it and changes no result.  No branch matching
    runs, so scipy is not loaded.  A detuned spec (delta != 0) is not
    PT-symmetric and raises ``ValueError``, other families that are not
    a spec or a pair raise as in ``locate_exceptional_points``, and a
    non-finite matrix or a block whose determinant vanishes for every
    gamma raises ``EigensolverError``.
    """
    blocks, basis, scanned, lo, hi = _search_family(spec, gamma_range)
    squared = scanned.func is _squared_blocks
    if scanned is not blocks and not squared:  # the Kronecker cell of an orientable ladder
        return _kronecker_zero_energy_eps(spec, blocks, basis, lo, hi)
    # halves count their spectra by mu, and on the blocks where a mu is about 0
    direct = blocks if squared else None

    found = []
    for k, pencils in enumerate(zip(*scanned.args)):
        # (h0, slope) of a block, or (a0, a1, b0, b1) of its halves: det of
        # [[0, A], [B, 0]] is +-det A det B, so its roots are A's and B's
        roots = np.sort(np.concatenate([_pencil_roots(h0, s, lo, hi) for h0, s in zip(pencils[::2], pencils[1::2])]))
        block = partial(scanned.func, *((m,) for m in pencils))
        # the broken counts at gamma* -+ 1e-7, from one stack per chunk
        probes = np.column_stack((roots - 1e-7, roots + 1e-7)).ravel()
        counts = [c for chunk, (stack,) in _stacked(block, probes) for c in _counts(_stack_eigvals(stack), chunk, k, direct)]
        found += [(g, k, before, after) for g, before, after in zip(roots, counts[::2], counts[1::2])]

    points = []
    for gamma_star, k, before, after in sorted(found):
        if before == after:
            continue  # plain zero crossing, not a coalescence
        at = blocks(gamma_star)
        own = eigendecompose(at[k], want_vectors=True, gamma=gamma_star)
        values = own.eigenvalues
        if abs(values[np.argsort(np.abs(values))[:2]].mean()) > ZERO_ENERGY_TOL:
            continue  # a coalescence away from zero: no other block is solved for it
        parts = [own if j == k else eigendecompose(m, gamma=gamma_star) for j, m in enumerate(at)]
        points.append(_zero_energy_record(at, parts, basis, gamma_star, after - before))
    return points


def _kronecker_zero_energy_eps(spec: LatticeSpec, blocks, basis, lo: float, hi: float) -> list[ExceptionalPoint]:
    """The zero-energy EPs of a circular or open ladder, from the
    eigenvalues tau of its chain blocks (see ``locate_zero_energy_eps``).
    At gamma = +-2d every level pair of a block is its tau, twice, so only
    the blocks that hold records are solved."""
    taus = [np.linalg.eigvalsh((b[::2, ::2] + b[1::2, 1::2]) / 2) for b in blocks.args[0]]
    own = [k for k, tau in enumerate(taus) if np.abs(tau).min() <= ZERO_ENERGY_TOL]
    d = abs(spec.intra_hop)
    points = []
    for gamma_star, sign in ((-2.0 * d, -1), (2.0 * d, 1)):
        # at d = 0 the cell's pair is broken on both sides of gamma = 0
        if own and d and lo < gamma_star < hi:
            at = blocks(gamma_star)
            parts = [
                eigendecompose(at[k], want_vectors=True, gamma=gamma_star)
                if k in own
                else Spectrum(np.repeat(tau, 2).astype(complex), None, gamma_star)
                for k, tau in enumerate(taus)
            ]
            points += [_zero_energy_record(at, parts, basis, gamma_star, sign * len(at[k])) for k in own]
    return points


def _zero_energy_record(at: tuple, parts: list[Spectrum], basis, gamma_star: float, change: int) -> ExceptionalPoint:
    """The record (``_pair_record``) of a zero-energy EP at ``gamma_star``
    whose block's broken count changes by ``change``."""
    kind = EpKind.MERGE if change > 0 else EpKind.SPLIT
    lo, hi = gamma_star - 1e-7, gamma_star + 1e-7
    return _pair_record(
        at, parts, basis, 0.0, gamma_star=gamma_star, kind=kind, bracket_lo=lo, bracket_hi=hi, n_broken_change=change
    )


def _pencil_roots(h0: np.ndarray, slope: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The real gamma strictly inside (lo, hi) where det(h0 + gamma * slope)
    vanishes, ascending, from one eigensolve.

    Where ``slope`` is a multiple of a unitary matrix, as every ladder's
    is (the on-site +-i/2), the roots are the eigenvalues of
    ``-solve(slope, h0)``, and that solve loses no accuracy.  The slope of
    a spec's real block is 1/2 times a signed permutation, so the solve is
    exact and real dgeev gives real roots an imaginary part of exactly 0,
    bit for bit the same for any number of BLAS threads (an LU solve of a
    dense matrix and complex zgeev are not, at 100 rows).  Any other slope,
    a singular one included (``diag(g - 1, 5)`` has one), goes through the
    pencil shifted to ``sigma = mid + i * width / 2`` of the range:
    ``det(h0 + g * slope) = 0`` exactly where ``lam = -1 / (g - sigma)`` is
    an eigenvalue of ``solve(h0 + sigma * slope, slope)``, so the roots are
    ``sigma - 1 / lam`` for every ``lam != 0`` (``lam = 0`` is a root at
    infinity).  ``h0 + sigma * slope`` is singular only at a root at the
    complex sigma, as it is for a pencil whose determinant vanishes for
    every gamma; that raises ``EigensolverError``, and so does a
    non-finite matrix.  A root is real where its imaginary part is at most
    ``REAL_ROOT_TOL`` times the larger of ``|lo|`` and ``|hi|``.  The
    eigensolve is ``eigendecompose``'s, so it raises as that does, and
    numpy alone solves it: scipy is not loaded.
    """
    n = h0.shape[0]
    if not (np.isfinite(h0).all() and np.isfinite(slope).all()):
        raise EigensolverError(f"{n}x{n} pencil h0 + g * slope has non-finite entries")
    gram = slope @ slope.conj().T
    scale = gram[0, 0].real
    if scale > 0 and np.abs(gram - scale * np.eye(n)).max() <= 1e-12 * scale:
        roots = eigendecompose(-np.linalg.solve(slope, h0)).eigenvalues
    else:
        sigma = 0.5 * (lo + hi) + 0.5j * (hi - lo)
        try:
            shifted = np.linalg.solve(h0 + sigma * slope, slope)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"{n}x{n} pencil h0 + g * slope is singular at the shift g = {sigma}, "
                f"as it is where its determinant vanishes for every g: {exc}"
            ) from exc
        lam = eigendecompose(shifted).eigenvalues
        roots = sigma - 1.0 / lam[lam != 0]
    real = np.abs(roots.imag) <= REAL_ROOT_TOL * max(abs(lo), abs(hi))
    return np.sort(roots.real[real & (lo < roots.real) & (roots.real < hi)])


@dataclass(frozen=True)
class BrokenWindow:
    """Gamma interval between a MergePoint and its SplitPoint partner.

    ``gamma_hi`` is ``inf`` (and ``open_ended`` True) when the merge
    never splits inside the searched range.
    """

    gamma_lo: float
    gamma_hi: float
    width: float
    energy: complex
    open_ended: bool


def broken_windows(points: Sequence[ExceptionalPoint]) -> list[BrokenWindow]:
    """Pair merge/split points into broken-phase windows.

    Points are consumed in gamma order; each SplitPoint closes the open
    MergePoint with the nearest coalescence energy.  Windows produced by
    a simultaneous cluster (identical brackets and energies) are
    deduplicated.  Unpaired points yield open-ended windows.
    """

    def window(lo: float, hi: float, energy: complex) -> BrokenWindow:
        open_ended = math.isinf(lo) or math.isinf(hi)
        return BrokenWindow(lo, hi, math.inf if open_ended else hi - lo, energy, open_ended)

    open_merges: list[ExceptionalPoint] = []
    windows: list[BrokenWindow] = []
    for p in sorted(points, key=lambda p: p.gamma_star):
        if p.kind is EpKind.MERGE:
            open_merges.append(p)
        elif not open_merges:
            windows.append(window(-math.inf, p.gamma_star, p.energy_star))
        else:
            m = min(open_merges, key=lambda m: abs(m.energy_star - p.energy_star))
            open_merges.remove(m)
            windows.append(window(m.gamma_star, p.gamma_star, 0.5 * (m.energy_star + p.energy_star)))
    windows += [window(m.gamma_star, math.inf, m.energy_star) for m in open_merges]
    windows.sort(key=lambda w: (w.gamma_lo, w.gamma_hi, w.energy.real))
    deduped: list[BrokenWindow] = []
    for w in windows:
        if deduped and _same_window(deduped[-1], w):
            continue
        deduped.append(w)
    return deduped


def _same_window(a: BrokenWindow, b: BrokenWindow, tol: float = 1e-9) -> bool:
    lo_close = abs(a.gamma_lo - b.gamma_lo) <= tol or (
        math.isinf(a.gamma_lo) and math.isinf(b.gamma_lo)
    )
    hi_close = abs(a.gamma_hi - b.gamma_hi) <= tol or (
        math.isinf(a.gamma_hi) and math.isinf(b.gamma_hi)
    )
    return lo_close and hi_close
