"""Eigenspectra versus gain/loss: sweeps, PT phases, exceptional points.

The sweep machinery treats the gain/loss rate gamma as the control
parameter.  Eigenvalue branches are continued through the sweep by
minimum-total-distance matching between consecutive grid points, PT
phases are read off the imaginary parts, and exceptional points (EPs)
are located by bracketing changes of the broken-state count and
bisecting the bracket down to the requested width.

Count-change bracketing deliberately combines the two available
signals: a genuine EP both closes a pairwise gap and flips eigenvalues
between real and complex-conjugate character.  Gap minima without a
count change (level crossings in the unbroken phase, avoided crossings)
are reported as near-degeneracy diagnostics instead of EPs.  Broken
windows narrower than the coarse grid step cannot flip the count at any
grid point and are therefore invisible at that resolution; pass a finer
``coarse_steps`` to resolve them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .lattice import LatticeSpec, build_bloch_hamiltonian, build_real_space_hamiltonian

__all__ = [
    "EigensolverError",
    "Spectrum",
    "SweepResult",
    "Phase",
    "PhaseLabel",
    "PhaseReport",
    "EpKind",
    "ExceptionalPoint",
    "NearDegeneracy",
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

    Delegates to LAPACK's shifted-QR solver (zgeev via numpy).  When
    vectors are requested the residual ``||H v - lam v||`` of every pair
    is checked against ``1e-8 * ||H||``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    try:
        if want_vectors:
            values, vectors = np.linalg.eig(matrix)
        else:
            values = np.linalg.eigvals(matrix)
            vectors = None
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"QR iteration did not converge for {n}x{n} matrix "
            f"(LAPACK shift budget of 30*n sweeps exhausted): {exc}"
        ) from exc

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    if vectors is not None:
        vectors = vectors[:, order]
        scale = np.linalg.norm(matrix)
        residual = np.linalg.norm(matrix @ vectors - vectors * values, axis=0)
        worst = float(residual.max()) if n else 0.0
        if scale > 0 and worst > RESIDUAL_BOUND * scale:
            raise EigensolverError(
                f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_BOUND:.0e} * ||H|| "
                f"for {n}x{n} matrix"
            )
    return Spectrum(eigenvalues=values, right_eigenvectors=vectors, gamma=float(gamma))


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


def _eigvals_sorted(matrix: np.ndarray) -> np.ndarray:
    return eigendecompose(matrix).eigenvalues


def _match_step(prev: np.ndarray, cur: np.ndarray, matching_tol: float) -> tuple[np.ndarray, float, bool]:
    """Assign current eigenvalues to previous branches.

    Returns (permutation, max matched distance, ambiguity flag).  A step
    is ambiguous when some branch sees two nearly equidistant candidates
    whose values actually differ: ties between numerically identical
    candidates (persistent symmetry degeneracies, e.g. the plus/minus
    momentum pairs of a ring) are harmless relabelings and stay silent.
    """
    cost = np.abs(prev[:, None] - cur[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty_like(cols)
    perm[rows] = cols
    matched = cost[rows, cols]
    ambiguous = False
    if cost.shape[1] > 1 and matching_tol > 0:
        order = np.argsort(cost, axis=1)
        j0, j1 = order[:, 0], order[:, 1]
        idx = np.arange(cost.shape[0])
        tie = cost[idx, j1] - cost[idx, j0] < matching_tol
        distinct = np.abs(cur[j1] - cur[j0]) > matching_tol
        ambiguous = bool(np.any(tie & distinct))
    return perm, float(matched.max()) if matched.size else 0.0, ambiguous


def sweep_matrix_family(
    build: Callable[[float], np.ndarray],
    gamma_grid: Sequence[float],
    *,
    matching_tol: float = 1e-9,
    workers: int = 1,
) -> SweepResult:
    """Sweep any gamma-parametrised matrix family with branch continuation.

    On an ambiguous step the interval is re-solved once at its midpoint
    (step halving); if the tie persists the step index is recorded in
    ``ambiguous_steps`` and the assignment kept.
    """
    grid = np.asarray(list(gamma_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("gamma_grid must contain at least one point")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("gamma_grid must be strictly increasing")

    spectra = _grid_eigvals(build, grid, workers)

    n = spectra[0].size
    branches = np.empty((n, grid.size), dtype=complex)
    branches[:, 0] = spectra[0]
    residual = 0.0
    ambiguous_steps: list[int] = []
    for j in range(1, grid.size):
        prev = branches[:, j - 1]
        cur = spectra[j]
        if cur.size != n:
            raise ValueError("matrix family changed dimension during sweep")
        perm, dist, ambiguous = _match_step(prev, cur, matching_tol)
        if ambiguous:
            # Step halving: route the match through the interval midpoint.
            mid = _eigvals_sorted(build(0.5 * (grid[j - 1] + grid[j])))
            perm_a, dist_a, amb_a = _match_step(prev, mid, matching_tol)
            perm_b, dist_b, amb_b = _match_step(mid[perm_a], cur, matching_tol)
            if not (amb_a or amb_b):
                # perm_b is computed against the already-permuted midpoint,
                # so it is the composed assignment.
                perm = perm_b
                dist = max(dist_a, dist_b)
                ambiguous = False
            else:
                ambiguous_steps.append(j - 1)
        branches[:, j] = cur[perm]
        residual = max(residual, dist)
    return SweepResult(
        gamma_grid=grid,
        branches=branches,
        continuation_residual=residual,
        ambiguous_steps=ambiguous_steps,
    )


def _grid_eigvals(build, grid: np.ndarray, workers: int) -> list[np.ndarray]:
    if workers <= 1 or grid.size < 8:
        return [_eigvals_sorted(build(g)) for g in grid]
    mats = [build(g) for g in grid]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_eigvals_sorted, mats, chunksize=max(1, grid.size // (4 * workers))))


def _family_for(spec: LatticeSpec, k: float | None) -> Callable[[float], np.ndarray]:
    if k is not None:
        return lambda g: build_bloch_hamiltonian(spec.with_gamma(g), k)
    # gamma enters the on-site diagonal only, so the matrix is built once
    # and each call writes the upper/lower on-site values of spec at g
    # (the same complex scalars the builder writes, so the result is
    # bit-identical to a fresh build).
    base = build_real_space_hamiltonian(spec)
    n = base.shape[0]

    def build(g: float) -> np.ndarray:
        at_g = spec.with_gamma(g)
        ham = base.copy()
        ham.flat[:: 2 * (n + 1)] = at_g.onsite_upper
        ham.flat[n + 1 :: 2 * (n + 1)] = at_g.onsite_lower
        return ham

    return build


def sweep_spectrum(
    spec: LatticeSpec,
    gamma_grid: Sequence[float],
    *,
    k: float | None = None,
    matching_tol: float = 1e-9,
    workers: int = 1,
) -> SweepResult:
    """Eigenvalue branches of a lattice over a gamma grid.

    With ``k`` given, sweeps the 2x2 Bloch block at that momentum instead
    of the full real-space Hamiltonian.
    """
    return sweep_matrix_family(
        _family_for(spec, k), gamma_grid, matching_tol=matching_tol, workers=workers
    )


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


def classify_pt_phase(spectrum: Spectrum | np.ndarray, tol: float = 1e-9) -> PhaseReport:
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

    ``gamma_star`` is the midpoint of the final bisection bracket
    (``bracket_lo``, ``bracket_hi``); ``pair_gap`` is the distance of the
    coalescing eigenvalues evaluated at ``gamma_star``.  Because the gap
    grows like the square root of the distance to the true EP, the
    bracket width (not the gap) is the accuracy statement for
    ``gamma_star``.  ``self_orthogonality`` is ``|v^T v| / ||v||^2`` of
    the coalescing right eigenvector, which tends to zero at the EP.
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


@dataclass(frozen=True)
class NearDegeneracy:
    """Gap minimum that never flipped the broken count (not an EP)."""

    gamma: float
    min_gap: float


def _broken_count(values: np.ndarray, im_tol: float) -> int:
    return int(np.count_nonzero(np.abs(values.imag) > im_tol))


def locate_exceptional_points(
    spec: LatticeSpec | Callable[[float], np.ndarray],
    gamma_range: tuple[float, float],
    coarse_steps: int = 400,
    ep_tol: float = 1e-8,
    *,
    k: float | None = None,
    im_tol: float = 1e-9,
    bracket_tol: float = 1e-10,
    return_diagnostics: bool = False,
):
    """Locate exceptional points of a lattice over a gamma range.

    ``spec`` may also be a callable mapping gamma to a matrix, for
    families that are not lattice Hamiltonians.

    Scans ``coarse_steps`` intervals for changes of the broken-eigenvalue
    count, then bisects every bracketing interval until the pair gap
    drops below ``ep_tol`` or the bracket narrows to ``bracket_tol``.
    Multiple transitions inside one coarse interval are separated by the
    bisection as long as they are further than ``bracket_tol`` apart;
    transitions whose broken window lies strictly between two grid points
    are invisible at the chosen resolution.

    Returns a list of :class:`ExceptionalPoint` sorted by gamma (several
    entries may share one gamma when a cluster of pairs coalesces
    together).  With ``return_diagnostics=True`` returns
    ``(points, near_degeneracies)``.
    """
    lo, hi = float(gamma_range[0]), float(gamma_range[1])
    if not lo < hi:
        raise ValueError(f"empty gamma range ({lo}, {hi})")
    if coarse_steps < 1:
        raise ValueError("coarse_steps must be positive")

    build = spec if callable(spec) else _family_for(spec, k)
    grid = np.linspace(lo, hi, coarse_steps + 1)
    values = [_eigvals_sorted(build(g)) for g in grid]
    counts = [_broken_count(v, im_tol) for v in values]

    # Bisect every interval whose broken count changes.
    work = []
    for j in range(coarse_steps):
        if counts[j] != counts[j + 1]:
            work.append(
                (grid[j], counts[j], values[j], grid[j + 1], counts[j + 1], values[j + 1])
            )

    transitions = []
    while work:
        a, ca, va, b, cb, vb = work.pop()
        if ca == cb:
            continue
        if b - a <= bracket_tol or _flipped_pair_gap(va, vb, im_tol) <= ep_tol:
            transitions.append((a, ca, va, b, cb, vb))
            continue
        m = 0.5 * (a + b)
        vm = _eigvals_sorted(build(m))
        cm = _broken_count(vm, im_tol)
        if cm != ca:
            work.append((a, ca, va, m, cm, vm))
        if cm != cb:
            work.append((m, cm, vm, b, cb, vb))

    points = []
    for transition in transitions:
        points.extend(_resolve_transition(build, *transition, im_tol))
    points.sort(key=lambda p: (p.gamma_star, p.energy_star.real))

    if not return_diagnostics:
        return points

    diagnostics = _near_degeneracies(build, grid, values, counts, ep_tol)
    return points, diagnostics


def _flipped_pair_gap(vals_a: np.ndarray, vals_b: np.ndarray, im_tol: float) -> float:
    """Distance from coalescence of the eigenvalues changing character.

    Matches the two endpoint spectra, restricts to indices whose broken
    character flips across the bracket, and returns the larger of the
    two endpoint gaps (each the worst nearest-partner distance inside
    the flipped subset).  Exact degeneracies elsewhere in the spectrum,
    such as the plus/minus momentum pairs of a ring, do not enter.
    """
    perm, _, _ = _match_step(vals_a, vals_b, 0.0)
    vb = vals_b[perm]
    flip = np.nonzero((np.abs(vals_a.imag) > im_tol) != (np.abs(vb.imag) > im_tol))[0]
    if flip.size < 2:
        return math.inf
    worst = 0.0
    for side in (vals_a[flip], vb[flip]):
        diff = np.abs(side[:, None] - side[None, :])
        np.fill_diagonal(diff, np.inf)
        worst = max(worst, float(diff.min(axis=1).max()))
    return worst


# Gaps below this are treated as exact symmetry degeneracies and skipped
# when scanning for avoided-crossing dips.
DEGENERACY_FLOOR = 1e-12


def _min_distinct_gap(values: np.ndarray) -> float:
    if values.size < 2:
        return math.inf
    diff = np.abs(values[:, None] - values[None, :])
    iu = np.triu_indices(values.size, k=1)
    gaps = diff[iu]
    gaps = gaps[gaps > DEGENERACY_FLOOR]
    return float(gaps.min()) if gaps.size else math.inf


def _resolve_transition(
    build,
    a: float,
    ca: int,
    vals_a: np.ndarray,
    b: float,
    cb: int,
    vals_b: np.ndarray,
    im_tol: float,
):
    """Turn one refined bracket into ExceptionalPoint records.

    Eigenvalues at the two bracket ends (as the bisection computed them)
    are matched pairwise; indices whose real/complex character flips
    across the bracket identify the coalescing pairs.  The broken-side
    members are grouped into conjugate pairs, one record per pair.
    """
    gamma_star = 0.5 * (a + b)
    perm, _, _ = _match_step(vals_a, vals_b, 0.0)
    vals_b_matched = vals_b[perm]

    broken_a = np.abs(vals_a.imag) > im_tol
    broken_b = np.abs(vals_b_matched.imag) > im_tol
    flipped = np.nonzero(broken_a != broken_b)[0]
    kind = EpKind.MERGE if cb > ca else EpKind.SPLIT
    broken_side = vals_b_matched if kind is EpKind.MERGE else vals_a
    flipped = [int(i) for i in flipped]

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

    mid = eigendecompose(build(gamma_star), want_vectors=True, gamma=gamma_star)
    records = []
    for i, j in pairs:
        target = 0.5 * (broken_side[i] + broken_side[j])
        idx = np.argsort(np.abs(mid.eigenvalues - target))[:2]
        idx = sorted(int(x) for x in idx)
        gap = float(abs(mid.eigenvalues[idx[0]] - mid.eigenvalues[idx[1]]))
        energy = complex(0.5 * (mid.eigenvalues[idx[0]] + mid.eigenvalues[idx[1]]))
        v = mid.right_eigenvectors[:, idx[0]]
        self_orth = float(abs(v @ v) / (np.vdot(v, v).real))
        records.append(
            ExceptionalPoint(
                gamma_star=gamma_star,
                energy_star=energy,
                kind=kind,
                branch_pair=(idx[0], idx[1]),
                pair_gap=gap,
                self_orthogonality=self_orth,
                bracket_lo=a,
                bracket_hi=b,
                n_broken_change=cb - ca,
            )
        )
    return records


def _near_degeneracies(build, grid, values, counts, ep_tol) -> list[NearDegeneracy]:
    """Local minima of the minimum distinct-pair gap away from count changes."""
    min_gaps = np.array([_min_distinct_gap(v) for v in values])
    out = []
    for j in range(1, len(grid) - 1):
        if counts[j - 1] != counts[j] or counts[j] != counts[j + 1]:
            continue
        if min_gaps[j] < min_gaps[j - 1] and min_gaps[j] < min_gaps[j + 1]:
            g, gap = _refine_gap_minimum(build, grid[j - 1], grid[j + 1])
            if gap > ep_tol:
                out.append(NearDegeneracy(gamma=g, min_gap=gap))
    return out


def _refine_gap_minimum(build, a: float, b: float, iters: int = 40) -> tuple[float, float]:
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    f = lambda g: _min_distinct_gap(_eigvals_sorted(build(g)))
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    g = 0.5 * (a + b)
    return g, f(g)


def locate_zero_energy_eps(
    spec: LatticeSpec | Callable[[float], np.ndarray],
    gamma_range: tuple[float, float],
    scan_steps: int = 601,
    *,
    energy_tol: float = 1e-6,
    im_tol: float = 1e-9,
) -> list[ExceptionalPoint]:
    """Exceptional points pinned at E = 0: a real +-E pair merging at zero.

    Spectra with the E -> -conj(E) symmetry (bipartite ladders with
    balanced gain/loss) coalesce symmetric real pairs exactly at E = 0.
    At delta = 0 these ladders are PT-symmetric, so the spectrum is also
    closed under conjugation and det H, the product of the eigenvalues,
    is real.  A real pair (E, -E) contributes -E**2 < 0 to it and the
    pair (iy, -iy) it turns into contributes +y**2 > 0, so a zero-energy
    coalescence is a sign change of det H.  This scans the sign of
    ``Re det H`` on ``scan_steps`` intervals (one LU factorisation per
    grid point via ``slogdet``) and bisects every sign change on that
    sign down to adjacent doubles.  Grid points where det H vanishes
    exactly carry no sign and are skipped.

    Two filters then remain.  ``min |E|`` at gamma* must reach
    ``energy_tol``: for families without the E -> -conj(E) symmetry
    det H is complex, and its real part can change sign far from any
    zero (``diag(exp(i*g), 1)`` at g = pi/2), which this rejects.  And
    the eigenvalue closest to zero must flip between real and complex
    character across gamma* +- 1e-7, so an ordinary band crossing (a
    real eigenvalue passing through zero and staying real) is discarded.
    Zeros of det H that do not change its sign, and pairs of sign
    changes inside one scan step, are invisible at the chosen
    resolution; pass a finer ``scan_steps`` to resolve them.
    """
    lo, hi = float(gamma_range[0]), float(gamma_range[1])
    if not lo < hi:
        raise ValueError(f"empty gamma range ({lo}, {hi})")
    if scan_steps < 2:
        raise ValueError("scan_steps must be at least 2")
    build = spec if callable(spec) else _family_for(spec, None)

    grid = np.linspace(lo, hi, scan_steps + 1)
    signs = [_det_sign(build(g)) for g in grid]
    nonzero = [j for j, sign in enumerate(signs) if sign != 0]

    points = []
    for i, j in zip(nonzero, nonzero[1:]):
        if signs[i] == signs[j]:
            continue
        gamma_star = _bisect_det_sign(build, grid[i], signs[i], grid[j])
        if abs(_minimal_eigenvalue(build, gamma_star)) > energy_tol:
            continue
        # gamma_star is refined to adjacent doubles, so a 1e-7 probe lands
        # cleanly on either side of the coalescence
        probe = 1e-7
        before = _minimal_eigenvalue(build, gamma_star - probe)
        after = _minimal_eigenvalue(build, gamma_star + probe)
        broken_before = abs(before.imag) > im_tol
        broken_after = abs(after.imag) > im_tol
        if broken_before == broken_after:
            continue  # plain zero crossing, not a coalescence
        kind = EpKind.MERGE if broken_after else EpKind.SPLIT
        mid = eigendecompose(build(gamma_star), want_vectors=True, gamma=gamma_star)
        idx = np.argsort(np.abs(mid.eigenvalues))[:2]
        idx = sorted(int(x) for x in idx)
        pair = mid.eigenvalues[idx]
        v = mid.right_eigenvectors[:, idx[0]]
        points.append(
            ExceptionalPoint(
                gamma_star=gamma_star,
                energy_star=complex(pair.mean()),
                kind=kind,
                branch_pair=(idx[0], idx[1]),
                pair_gap=float(abs(pair[0] - pair[1])),
                self_orthogonality=float(abs(v @ v) / np.vdot(v, v).real),
                bracket_lo=gamma_star - probe,
                bracket_hi=gamma_star + probe,
                n_broken_change=2 if kind is EpKind.MERGE else -2,
            )
        )
    return points


def _minimal_eigenvalue(build, gamma: float) -> complex:
    vals = _eigvals_sorted(build(gamma))
    return complex(vals[np.argmin(np.abs(vals))])


def _det_sign(matrix: np.ndarray) -> float:
    """Sign of Re det, 0 where the determinant vanishes exactly."""
    sign, _ = np.linalg.slogdet(matrix)
    return float(np.sign(sign.real))


def _bisect_det_sign(build, a: float, sign_a: float, b: float) -> float:
    """Bisect a sign change of Re det on [a, b] down to adjacent doubles."""
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            return m
        sign_m = _det_sign(build(m))
        if sign_m == 0:
            return m
        if sign_m == sign_a:
            a = m
        else:
            b = m


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
    ordered = sorted(points, key=lambda p: p.gamma_star)
    open_merges: list[ExceptionalPoint] = []
    windows: list[BrokenWindow] = []
    for p in ordered:
        if p.kind is EpKind.MERGE:
            open_merges.append(p)
        else:
            if not open_merges:
                windows.append(
                    BrokenWindow(
                        gamma_lo=-math.inf,
                        gamma_hi=p.gamma_star,
                        width=math.inf,
                        energy=p.energy_star,
                        open_ended=True,
                    )
                )
                continue
            m = min(open_merges, key=lambda m: abs(m.energy_star - p.energy_star))
            open_merges.remove(m)
            windows.append(
                BrokenWindow(
                    gamma_lo=m.gamma_star,
                    gamma_hi=p.gamma_star,
                    width=p.gamma_star - m.gamma_star,
                    energy=0.5 * (m.energy_star + p.energy_star),
                    open_ended=False,
                )
            )
    for m in open_merges:
        windows.append(
            BrokenWindow(
                gamma_lo=m.gamma_star,
                gamma_hi=math.inf,
                width=math.inf,
                energy=m.energy_star,
                open_ended=True,
            )
        )
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
