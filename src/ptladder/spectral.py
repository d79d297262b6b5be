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
keeps complex blocks, and a callable family is solved as given, as a
family of one block.
Eigenvectors are solved per block and lifted to the site basis of H by
``lattice.sector_bases``, and det H is the product of the block
determinants, so no solve builds H itself.  ``branch_pair`` indexes the
merged, sorted block spectrum, which is the spectrum of H.

Rings and open ladders of even N are bipartite, and their chiral
operator swaps the two blocks: the odd block is ``-S even S^dagger`` for
the signed permutation S of ``lattice.chiral_swap``.  Its eigenvalues
are minus the even block's, so its broken count is the even block's,
and for N x N blocks with N even its determinant is the even block's.
Both EP searches therefore build and solve the even block alone on such
a spec and take the odd block's eigenvalues as ``-values``; this halves
their scan and refine solves.  The eigenvector solve of a record at
gamma* and the sweeps still solve both blocks.  The twisted ladder and
odd N, whose chiral operator maps each block onto itself, and the
Moebius ring, which has none, solve both blocks everywhere.

Every gamma grid is solved in stacks: the scan of both EP searches and
the sweeps build each block at a chunk of gammas at once and solve it
with one ``eigvals``, ``eig`` or ``slogdet`` call, with at most
``STACK_BYTES`` of matrices in each call.  numpy loops over a stack
within that one call, so each matrix's result is bit-identical to a
solve of that matrix alone (``eigendecompose``, which is a stack of
one), and only numpy's per-call overhead goes.  The refine probes and
the eigenvector solves of EP records stay one matrix per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._pool import pool_map
from .lattice import LatticeSpec, chiral_swap, sector_bases, sector_blocks

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
    "sweep_matrix_family",
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


def _one_block(build: Callable[[float], np.ndarray], g) -> tuple[np.ndarray]:
    """A function of gamma giving one matrix, as a family of one block
    (bound with ``partial``): the block ``build(g)``, or at an array of
    gammas the stack of its matrices there, in the dtype numpy gives them
    together."""
    if np.ndim(g):
        return (np.stack([np.asarray(build(x)) for x in g]),)
    return (build(g),)


def _match_step(prev: np.ndarray, cur: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Assign current eigenvalues to previous branches.

    Returns (permutation, max matched distance, ambiguity flag).  A step
    is ambiguous when some branch sees two nearly equidistant candidates
    whose values actually differ: ties between numerically identical
    candidates (persistent symmetry degeneracies, e.g. the plus/minus
    momentum pairs of a ring) are harmless relabelings and stay silent.

    scipy is imported here, at the first match, so importing the package
    (and runs that never match branches) does not load it.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(prev[:, None] - cur[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty_like(cols)
    perm[rows] = cols
    matched = cost[rows, cols]
    ambiguous = False
    if cost.shape[1] > 1:
        order = np.argsort(cost, axis=1)
        j0, j1 = order[:, 0], order[:, 1]
        idx = np.arange(cost.shape[0])
        tie = cost[idx, j1] - cost[idx, j0] < MATCHING_TOL
        distinct = np.abs(cur[j1] - cur[j0]) > MATCHING_TOL
        ambiguous = bool(np.any(tie & distinct))
    return perm, float(matched.max()) if matched.size else 0.0, ambiguous


def sweep_matrix_family(
    build: Callable[[float], np.ndarray],
    gamma_grid: Sequence[float],
) -> SweepResult:
    """Sweep any gamma-parametrised matrix family with branch continuation.

    ``build`` returns the matrix at gamma, which is solved as one block;
    the matrices of a chunk of grid points are stacked and solved in one
    call.  The sweep is serial, so ``build`` may be any callable, a lambda
    included; pooled sweeps of a lattice belong to ``sweep_spectrum``.
    """
    grid = _checked_grid(gamma_grid)
    return _continue_branches(grid, _grid_eigvals(partial(_one_block, build), grid, 1))[0]


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
    lifted with ``bases``, and gives ``(values, weigh(vectors, gamma))``.
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
    ``weigh`` every point's vectors are lifted and weighed on their own,
    as ``_eigenpairs`` does.
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


def _family_for(spec: LatticeSpec) -> tuple[Callable, tuple[np.ndarray, ...]]:
    """Builder of the mirror-sector blocks of H at gamma, and their bases.

    The blocks (``sector_blocks``) are real at delta = 0 and complex
    otherwise; their eigenvalues together are those of H, and
    ``sector_bases`` lifts their eigenvectors to the site basis.  gamma
    enters every block linearly, so each call is ``b0 + g * s`` from the
    blocks at gamma = 0 and 1, bit-identical to a fresh build; at an
    array of gammas it gives each block's stack over them.  The family
    pickles, so pool workers can build blocks themselves.
    """
    b0 = sector_blocks(spec.with_gamma(0.0))
    slope = tuple(b1 - b for b1, b in zip(sector_blocks(spec.with_gamma(1.0)), b0))
    return partial(_affine_blocks, b0, slope), sector_bases(spec)


def _affine_blocks(b0: tuple, slope: tuple, g) -> tuple[np.ndarray, ...]:
    return tuple(b + np.multiply.outer(g, s) for b, s in zip(b0, slope))


def _eigenpairs(blocks: Callable, bases: tuple[np.ndarray, ...] | None, gamma: float) -> Spectrum:
    """Sorted eigenvalues and site-basis right eigenvectors at gamma.

    Each block is solved on its own, and ``_lifted`` joins them.
    """
    return _lifted([eigendecompose(b, want_vectors=True) for b in blocks(gamma)], bases, gamma)


def _lifted(parts: list[Spectrum], bases: tuple[np.ndarray, ...] | None, gamma: float) -> Spectrum:
    """The spectrum of H, with vectors, from each block's own.

    With ``bases`` (the sector blocks of ``_family_for``) each block's
    unit eigenvectors are lifted to H with its basis; a callable's one
    block needs no lift.
    """
    values = np.concatenate([p.eigenvalues for p in parts])
    vectors = [p.right_eigenvectors for p in parts]
    if bases is not None:
        vectors = [w @ v for w, v in zip(bases, vectors)]
    order = np.lexsort((values.imag, values.real))
    vectors = np.hstack(vectors)[:, order]
    return Spectrum(eigenvalues=values[order], right_eigenvectors=vectors, gamma=float(gamma))


def sweep_spectrum(
    spec: LatticeSpec,
    gamma_grid: Sequence[float],
    *,
    workers: int = 1,
) -> SweepResult:
    """Eigenvalue branches of a lattice over a gamma grid.

    Each grid point solves the two mirror-sector blocks of the
    real-space Hamiltonian (real blocks at delta = 0).  For the Bloch
    block at one momentum, sweep the callable
    ``lambda g: build_bloch_hamiltonian(spec.with_gamma(g), k)`` with
    ``sweep_matrix_family``.  With ``workers`` > 1 the grid is solved in
    a process pool whose workers build their own blocks; the result does
    not depend on ``workers``.
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
    blocks, bases = _family_for(spec)
    points = _grid_eigvals(blocks, grid, workers, weigh=weigh, bases=bases)
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
    tol: float


def classify_pt_phase(spectrum: Spectrum | np.ndarray, tol: float = IM_TOL) -> PhaseReport:
    """Label each eigenvalue unbroken (real within tol) or broken."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    values = spectrum.eigenvalues if isinstance(spectrum, Spectrum) else np.asarray(spectrum)
    labels = []
    for v in np.atleast_1d(values):
        v = complex(v)
        broken = abs(v.imag) > tol
        labels.append(
            PhaseLabel(
                phase=Phase.BROKEN if broken else Phase.UNBROKEN,
                eigenvalue=v,
                im_magnitude=abs(v.imag),
            )
        )
    n_broken = sum(1 for l in labels if l.phase is Phase.BROKEN)
    return PhaseReport(
        labels=labels, n_unbroken=len(labels) - n_broken, n_broken=n_broken, tol=tol
    )


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


def _broken(values: np.ndarray) -> np.ndarray:
    """Which eigenvalues are broken: the one rule both EP searches use."""
    return np.abs(values.imag) > IM_TOL


def _broken_count(values: np.ndarray) -> int:
    return int(np.count_nonzero(_broken(values)))


def _matched_flips(at_a: np.ndarray, at_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``at_b`` matched to ``at_a`` (``_match_step``), and the indices of
    the eigenvalues that flip between real and broken across the two."""
    at_b = at_b[_match_step(at_a, at_b)[0]]
    return at_b, np.nonzero(_broken(at_a) != _broken(at_b))[0]


def _pair_discriminants(at_a: np.ndarray, at_b: np.ndarray) -> tuple[float, float] | None:
    """``D = (E1 - E2)**2`` of the one pair that flips across a bracket,
    at both ends, or None unless exactly one pair flips.

    D is ``|E1 - E2|**2`` where the pair is real and ``-|E1 - E2|**2``
    where it is broken, so its sign follows the count even where
    rounding scatters the pair near its EP.  The pair splits like
    ``sqrt(gamma - gamma*)``, so D is linear in gamma near the EP.
    """
    at_b, flips = _matched_flips(at_a, at_b)
    if flips.size != 2:
        return None
    ends = []
    for pair in (at_a[flips], at_b[flips]):
        broken = _broken(pair)
        if broken[0] != broken[1]:
            return None
        gap = abs(pair[0] - pair[1]) ** 2
        ends.append(-gap if broken[0] else gap)
    return ends[0], ends[1]


# False-position probes in a row that may leave a bracket more than half
# as wide as before them; the next probe bisects.
SLOW_STEPS = 3


def _scan_and_refine(
    family: Callable,
    grid: np.ndarray,
    scan: Callable[[np.ndarray], Sequence],
    solve: Callable[[np.ndarray], object],
    label: Callable[[object], object],
    signed: Callable[[object, object], tuple[float, float] | None],
    width: float,
) -> tuple[list[dict], list[tuple[int, float, float]]]:
    """Bracket every change of each block's label, on that block alone.

    ``family(g)`` gives the blocks at gamma g, and at an array of gammas
    each block's stack over them.  The scan solves every block once per
    grid point, in ``_stacked`` chunks: ``scan(stack)`` gives one result
    per matrix of a stack, in one LAPACK call, each the result that
    ``solve`` gives for its matrix alone.  ``label`` maps a result to
    the block's label there, or to None where it carries none, and such
    grid points are skipped.  Each
    interval between consecutive labelled grid points of one block whose
    labels differ is refined with one ``solve`` of that block per probe,
    keeping every part whose end labels differ, until it is at most
    ``width`` wide or a and b are adjacent doubles.  A probe m without a
    label ends its bracket as (m, m).

    Labels alone decide which part stays.  ``signed(result_a, result_b)``
    only places the next probe: it gives a smooth function at the two
    ends, or None where there is none, and where its values have
    opposite signs the probe goes where the line through them crosses
    zero (Illinois false position: an end kept twice in a row has its
    value halved), moved a quarter of ``width`` toward the farther end.
    The probe bisects instead where ``signed`` gives no opposite signs,
    where the line's zero does not fall strictly inside the bracket, and
    once ``SLOW_STEPS`` false-position probes in a row have not halved
    the bracket.  A probe whose label matches neither end splits the
    bracket in two, and each part starts afresh.

    Returns ``(solved, brackets)``: ``solved[k]`` maps every gamma at
    which block k was solved to its result, and each bracket is
    ``(k, a, b)``.
    """
    solved = None
    for chunk, stacks in _stacked(family, grid):
        solved = solved or [{} for _ in stacks]
        for at, stack in zip(solved, stacks):
            at.update(zip(chunk, scan(stack)))
    work = []
    for k, results in enumerate(solved):
        labelled = [(g, lab) for g, r in results.items() if (lab := label(r)) is not None]
        work += [(k, a, b) for (a, la), (b, lb) in zip(labelled, labelled[1:]) if la != lb]

    brackets = []
    while work:
        k, a, b = work.pop()
        at = solved[k]
        weight_a = weight_b = 1.0
        kept = 0  # -1 when a stayed at the last probe, +1 when b did
        slow, start = 0, b - a
        while True:
            mid = 0.5 * (a + b)
            if b - a <= width or not a < mid < b:
                brackets.append((k, a, b))
                break
            m = mid
            ends = signed(at[a], at[b]) if slow < SLOW_STEPS else None
            if ends is not None:
                fa, fb = weight_a * ends[0], weight_b * ends[1]
                if fa * fb < 0:
                    # a quarter width past the estimate, toward the farther
                    # end: once the estimate is close, the bracket closes
                    # with both ends clear of the EP, where rounding can
                    # set the count either way
                    x = a + (b - a) * (fa / (fa - fb))
                    x += 0.25 * width if x - a < b - x else -0.25 * width
                    if a < x < b:
                        m = x
            at[m] = solve(family(m)[k])
            label_m = label(at[m])
            if label_m is None:
                brackets.append((k, m, m))
                break
            below, above = label_m != label(at[a]), label_m != label(at[b])
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


def _search_grid(spec, gamma_range, steps: int, least: int, name: str) -> tuple:
    """The block family, eigenvector bases, scanned family and grid of an
    EP search.

    A spec is searched on its mirror-sector blocks, a callable as a
    family of one block.  The scan solves the blocks of ``scanned``,
    which are those of ``blocks`` except where ``lattice.chiral_swap``
    maps the even block onto the odd one (rings and open ladders of even
    N): there ``scanned`` builds the even block alone, since the odd
    block's eigenvalues are minus its own and its determinant is its own.
    The grid splits ``gamma_range`` into ``steps`` intervals; ``name`` is
    the caller's parameter for ``steps``, which must be at least
    ``least``.
    """
    lo, hi = float(gamma_range[0]), float(gamma_range[1])
    if not lo < hi:
        raise ValueError(f"empty gamma range ({lo}, {hi})")
    if steps < least:
        raise ValueError(f"{name} must be at least {least}")
    grid = np.linspace(lo, hi, steps + 1)
    if callable(spec):
        blocks = partial(_one_block, spec)
        return blocks, None, blocks, grid
    blocks, bases = _family_for(spec)
    scanned = blocks
    if chiral_swap(spec) is not None:
        b0, slope = blocks.args
        scanned = partial(_affine_blocks, b0[:1], slope[:1])
    return blocks, bases, scanned, grid


def _refuse_detuned(spec) -> None:
    """Both EP searches rest on PT symmetry, which a spec with delta != 0
    does not have."""
    if not callable(spec) and spec.delta != 0.0:
        raise ValueError(f"EP searches need a PT-symmetric lattice (delta = 0), got delta = {spec.delta}")


def locate_exceptional_points(
    spec: LatticeSpec | Callable[[float], np.ndarray],
    gamma_range: tuple[float, float],
    coarse_steps: int = 400,
) -> list[ExceptionalPoint]:
    """Locate exceptional points of a lattice over a gamma range.

    ``spec`` may also be a callable mapping gamma to a matrix, for
    families that are not lattice Hamiltonians (such as the Bloch block
    ``lambda g: build_bloch_hamiltonian(spec.with_gamma(g), k)``); it is
    searched as a family of one block.  For a spec, eigenvalues and the
    EP eigenvectors come from its mirror-sector blocks, the vectors
    lifted to the site basis of H.  On a ring or open ladder of even N
    (``lattice.chiral_swap``) the scan and the refine solve the even
    block alone: the odd block's eigenvalues are minus its own, so its
    broken count and its brackets are the even block's, and at the
    bracket ends its values are taken as ``-values``.

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
    than one pair (two EPs in one interval, the ring's collective EP),
    probes bisect until one pair flips, so multiple transitions of one
    block inside one coarse interval are separated as long as they are
    further than ``BRACKET_TOL`` apart.  Transitions whose broken window
    lies strictly between two grid points are invisible at the chosen
    resolution, unless a probe happens to land in it.

    Brackets of any blocks that overlap or touch and change the count in
    the same direction are joined: a transition shared by both blocks
    (the ring's collective EP) is one bracket, and so is a transition
    split into two brackets by a grid point or probe that lands exactly
    on it (up to ``2 * BRACKET_TOL`` wide).  Each joined bracket
    is resolved on the whole spectrum at its two ends, so
    ``n_broken_change``, ``energy_star`` and ``branch_pair`` refer to H.

    Returns a list of :class:`ExceptionalPoint` sorted by gamma (several
    entries may share one gamma when a cluster of pairs coalesces
    together).  Gap minima without a count change, such as avoided
    crossings, are not EPs and are not reported.  A detuned spec
    (delta != 0) is not PT-symmetric and raises ``ValueError``.
    """
    _refuse_detuned(spec)
    blocks, bases, scanned, grid = _search_grid(spec, gamma_range, coarse_steps, 1, "coarse_steps")
    solved, brackets = _scan_and_refine(
        scanned, grid, _stack_eigvals, _block_eigvals, _broken_count, _pair_discriminants, BRACKET_TOL
    )

    def spectrum(g: float) -> np.ndarray:
        # a bracket end is solved for its own block; the others are solved here
        for k, at in enumerate(solved):
            if g not in at:
                at[g] = _block_eigvals(scanned(g)[k])
        parts = [at[g] for at in solved]
        if scanned is not blocks:
            parts.append(-parts[0])  # the odd block, -S even S^dagger
        return _merged(parts)

    points = []
    for a, b in _join_brackets(brackets, solved):
        points.extend(_resolve_transition(blocks, bases, a, spectrum(a), b, spectrum(b)))
    points.sort(key=lambda p: (p.gamma_star, p.energy_star.real))
    return points


def _join_brackets(
    brackets: list[tuple[int, float, float]], solved: list[dict]
) -> list[tuple[float, float]]:
    """Join brackets, of any blocks, that overlap or touch and change the
    count in the same direction.

    Both blocks bracket a transition they share, such as the ring's
    collective EP.  And a grid point or probe that lands exactly on an
    EP gets a count set by rounding: a real solve returns each
    defective pair there as a real pair or as a conjugate pair, split by
    about sqrt(eps).  One transition is then refined into two brackets
    that meet at that point.
    """
    joined: list[tuple[float, float, int]] = []
    for k, a, b in sorted(brackets, key=lambda t: t[1]):
        change = _broken_count(solved[k][b]) - _broken_count(solved[k][a])
        if joined and a <= joined[-1][1] and change * joined[-1][2] > 0:
            joined[-1] = (joined[-1][0], max(b, joined[-1][1]), change)
        else:
            joined.append((a, b, change))
    return [(a, b) for a, b, _ in joined]


def _resolve_transition(blocks, bases, a: float, vals_a: np.ndarray, b: float, vals_b: np.ndarray):
    """Turn one refined bracket into ExceptionalPoint records.

    The spectra at the two bracket ends are matched pairwise; indices
    whose real/complex character flips across the bracket identify the
    coalescing pairs.  The broken-side members are grouped into conjugate
    pairs, one record per pair, with eigenvectors from
    ``_eigenpairs(blocks, bases, gamma*)``.
    """
    gamma_star = 0.5 * (a + b)
    ca, cb = _broken_count(vals_a), _broken_count(vals_b)
    vals_b_matched, flipped = _matched_flips(vals_a, vals_b)
    kind = EpKind.MERGE if cb > ca else EpKind.SPLIT
    broken_side = vals_b_matched if kind is EpKind.MERGE else vals_a

    # Group flipped indices into conjugate pairs on the broken side.
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for i in flipped:
        if i in used or broken_side[i].imag <= 0:
            continue
        partners = [
            j
            for j in flipped
            if j not in used
            and j != i
            and broken_side[j].imag < 0
            and abs(broken_side[j] - broken_side[i].conjugate()) < 1e-6 + 1e-3 * abs(broken_side[i])
        ]
        if partners:
            j = min(partners, key=lambda j: abs(broken_side[j] - broken_side[i].conjugate()))
            pairs.append((i, j))
            used.update((i, j))

    mid = _eigenpairs(blocks, bases, gamma_star)
    return [
        _pair_record(
            mid,
            0.5 * (broken_side[i] + broken_side[j]),
            gamma_star=gamma_star,
            kind=kind,
            bracket_lo=a,
            bracket_hi=b,
            n_broken_change=cb - ca,
        )
        for i, j in pairs
    ]


def _pair_record(mid: Spectrum, target: complex, **fields) -> ExceptionalPoint:
    """ExceptionalPoint for the two eigenvalues of ``mid`` nearest ``target``.

    The pair gives ``branch_pair`` (ascending indices), ``energy_star``
    (its midpoint), ``pair_gap`` and the ``self_orthogonality`` of the
    lower index's eigenvector; ``fields`` supply the rest.
    """
    lo, hi = sorted(int(x) for x in np.argsort(np.abs(mid.eigenvalues - target))[:2])
    e_lo, e_hi = mid.eigenvalues[lo], mid.eigenvalues[hi]
    v = mid.right_eigenvectors[:, lo]
    return ExceptionalPoint(
        energy_star=complex(0.5 * (e_lo + e_hi)),
        branch_pair=(lo, hi),
        pair_gap=float(abs(e_lo - e_hi)),
        self_orthogonality=float(abs(v @ v) / np.vdot(v, v).real),
        **fields,
    )


# A det sign change is a zero-energy EP only if the midpoint of its
# block's two eigenvalues nearest 0 is within this of 0.
ZERO_ENERGY_TOL = 1e-6


def locate_zero_energy_eps(
    spec: LatticeSpec | Callable[[float], np.ndarray],
    gamma_range: tuple[float, float],
    scan_steps: int = 601,
) -> list[ExceptionalPoint]:
    """Exceptional points pinned at E = 0: a real +-E pair merging at zero.

    Spectra with the E -> -conj(E) symmetry (bipartite ladders with
    balanced gain/loss) coalesce symmetric real pairs exactly at E = 0.
    At delta = 0 these ladders are PT-symmetric, so the spectrum is also
    closed under conjugation and det H, the product of the eigenvalues,
    is real.  A real pair (E, -E) contributes -E**2 < 0 to it and the
    pair (iy, -iy) it turns into contributes +y**2 > 0, so a zero-energy
    coalescence is a sign change of det H.

    det H is the product of the determinants of the diagonal blocks (the
    mirror sectors of a spec, real at delta = 0; a callable is one
    block), and a zero-energy coalescence is a zero of one of them.  On a
    ring or open ladder of even N (``lattice.chiral_swap``) the odd block
    is ``-S even S^dagger`` with N rows, so its determinant is the even
    block's: only the even block is scanned and refined, and each of its
    records stands for both blocks, as two equal records.  This scans the
    sign of ``Re det`` of each block on ``scan_steps`` intervals (one
    ``slogdet`` call per block on each chunk of grid points, which LU
    factorises every matrix of the stack) and refines every sign change
    on that block alone, one ``slogdet`` per probe, down to adjacent
    doubles.  Probes go by
    Illinois false position on ``Re det`` of the block, which the
    ``slogdet`` gives as its sign times ``exp(log |det|)``; the sign at
    each probe decides which part stays.  That takes about 12 probes
    per sign change where bisection takes about 44.  A coalescence is
    found when its own block's det sign differs across a coarse interval,
    even where another block's sign change in the same interval leaves
    the sign of det H unchanged.  Grid points where a block's
    determinant vanishes exactly carry no sign for that block and are
    skipped.

    Two filters then remain.  The block's broken count, by the rule of
    ``locate_exceptional_points`` (``IM_TOL``), must differ between
    gamma* - 1e-7 and gamma* + 1e-7 (one stack of the two matrices);
    the difference is the record's
    ``n_broken_change`` and its sign the kind.  That discards an ordinary
    band crossing (a real eigenvalue passing through zero and staying
    real), and the real part of a complex determinant changing sign with
    no coalescence at all (``diag(exp(i*g), 1)`` at g = pi/2, for a
    family without the E -> -conj(E) symmetry).  And the midpoint of
    the block's two eigenvalues nearest zero at gamma* must be within
    ``ZERO_ENERGY_TOL`` of 0, which discards a coalescence elsewhere
    that meets such a sign change.  That block is solved once at gamma*,
    with eigenvectors, and the record reuses the solve; the other
    blocks' eigenvectors are solved only for a kept record.
    Zeros that do not change a block's sign, and pairs of sign changes of
    one block inside one scan step, are invisible at the chosen
    resolution; pass a finer ``scan_steps`` to resolve them.  The
    record's eigenvectors are lifted to the site basis of H.  No branch
    matching runs, so scipy is not loaded.  A detuned spec (delta != 0)
    is not PT-symmetric and raises ``ValueError``, and a non-finite
    matrix raises ``EigensolverError``.
    """
    _refuse_detuned(spec)
    blocks, bases, scanned, grid = _search_grid(spec, gamma_range, scan_steps, 2, "scan_steps")
    # an exact zero of a block's determinant carries no sign
    label = lambda det: float(np.sign(det[0])) or None
    _, brackets = _scan_and_refine(scanned, grid, _slogdets, _slogdet, label, _scaled_dets, 0.0)
    # the odd block of a chiral swap brackets the even block's sign changes
    copies = 1 if scanned is blocks else 2

    points = []
    for gamma_star, k in sorted((0.5 * (a + b), k) for k, a, b in brackets):
        # gamma_star is refined to adjacent doubles, so a 1e-7 probe lands
        # cleanly on either side of the coalescence
        lo, hi = gamma_star - 1e-7, gamma_star + 1e-7
        before, after = map(_broken_count, _stack_eigvals(scanned(np.array([lo, hi]))[k]))
        if before == after:
            continue  # plain zero crossing, not a coalescence
        own = eigendecompose(scanned(gamma_star)[k], want_vectors=True)
        values = own.eigenvalues
        if abs(values[np.argsort(np.abs(values))[:2]].mean()) > ZERO_ENERGY_TOL:
            continue  # a coalescence away from zero: no other block is solved for it
        parts = [
            own if j == k else eigendecompose(b, want_vectors=True)
            for j, b in enumerate(blocks(gamma_star))
        ]
        record = _pair_record(
            _lifted(parts, bases, gamma_star),
            0.0,
            gamma_star=gamma_star,
            kind=EpKind.MERGE if after > before else EpKind.SPLIT,
            bracket_lo=lo,
            bracket_hi=hi,
            n_broken_change=after - before,
        )
        points += [record] * copies
    return points


def _slogdets(stack: np.ndarray) -> list[tuple[float, float]]:
    """Re det of every matrix of a stack as ``(Re sign, log |det|)``: the
    sign of its phase, and its size on a log scale that cannot overflow.

    One LAPACK call, each pair bit-identical to its matrix's alone.
    numpy's ``slogdet`` does not check its input, so a matrix with a
    non-finite entry raises ``EigensolverError`` here, as in ``eigvals``.
    """
    if not np.isfinite(stack).all():
        n = stack.shape[-1]
        raise EigensolverError(f"{n}x{n} matrix has non-finite entries; no determinant sign")
    sign, logabs = np.linalg.slogdet(stack)
    return list(zip(sign.real.tolist(), logabs.tolist()))


def _slogdet(block: np.ndarray) -> tuple[float, float]:
    return _slogdets(block[None])[0]


def _scaled_dets(at_a: tuple[float, float], at_b: tuple[float, float]) -> tuple[float, float]:
    """Re det at two bracket ends, both divided by the larger ``|det|``."""
    top = max(at_a[1], at_b[1])
    return at_a[0] * math.exp(at_a[1] - top), at_b[0] * math.exp(at_b[1] - top)


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
