"""Two-terminal scattering through open PT ladders.

Semi-infinite one-band leads (hopping ``-v0/2``, so the band is
``|E| < v0``) contact the first and last unit cell on both legs.  For a
unit-amplitude wave incident from the left, eliminating the leads leaves
a bordered block-tridiagonal system of size 2N + 2 in the unknowns
``(r, psi_1, ..., psi_N, t)``:

    [ v0/2        G_in^T                                ] [r]    [-v0/2        ]
    [ e^{iq} G_in  H0-E   H1                            ] [psi1] [-e^{-iq} G_in]
    [              H1^T   H0-E  H1                      ] [... ] [0            ]
    [                     ...                           ]        [...          ]
    [                     H1^T  H0-E   e^{iq} G_out     ] [psiN] [0            ]
    [                           G_out^T  v0/2           ] [t]    [0            ]

with ``G = (-coupling_upper, -coupling_lower)^T`` and the lead momentum
``e^{+iq} = -E/v0 + i sqrt(1 - (E/v0)^2)``.  The ladder itself comes from
``lattice``: the dense system embeds ``build_real_space_hamiltonian``,
and the kernel takes its on-site block from ``unit_cell_blocks`` and its
bonds, the crossed one of the twisted topology included, from
``lattice._bond_blocks``.  This module places no cell, bond or twist.

Rows 0 and 2N + 1 give ``r = -1 - (2/v0) G_in^T psi_1`` and
``t = -(2/v0) G_out^T psi_N``.  Substituting them leaves an N-cell
block-tridiagonal system with 2x2 blocks: the leads become self-energies
``-(2/v0) e^{iq} G G^T`` on the first and last cell, and the incident
wave a source ``(e^{iq} - e^{-iq}) G_in`` on the first cell.  One lane
kernel solves it by block-Thomas elimination for many (E, gamma) pairs at
once; a single solve is one lane, a map task a chunk of at most
``LANES_PER_TASK`` grid cells and a zero-energy trace one lane per gamma.
The kernel holds each 2x2 block as four lane arrays in row-major order,
takes each bond block as scalars (its zero entries drop out of every
product) and inverts each pivot in closed form (adjugate over det).  A lane
carries O(1) state through the sweep, since r and t need only psi_1 and
psi_N; the per-cell pairs that back-substitution needs are kept only for
a one-lane call, where a single solve wants its ``internal`` amplitudes.
A pivot that is singular or whose 1-norm condition estimate exceeds
``COND_LIMIT`` flags its lane, and a flagged lane is re-solved by dense
partial-pivoting LU on the whole bordered system (minimum-norm least
squares if that system is singular).  ``solve_scattering``
residual-checks every answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pool import pool_map
from .lattice import (
    BoundaryTopology,
    LatticeSpec,
    _bond_blocks,
    build_real_space_hamiltonian,
    unit_cell_blocks,
)

__all__ = [
    "OutOfBandError",
    "SingularSystemError",
    "LeadSpec",
    "ScatteringSystem",
    "ScatteringResult",
    "TransmissionMap",
    "DetangleTransportReport",
    "lead_momentum",
    "assemble_scattering_system",
    "solve_scattering",
    "transmission_map",
    "zero_energy_trace",
    "find_trace_peaks",
    "detangled_transport_check",
]

COND_LIMIT = 1e12
RESIDUAL_TOL = 1e-9
# Longest run of lanes one transmission-map task solves; it bounds a
# worker's kernel arrays on full 801x601 maps (about 3 MB at N = 100).
# Shorter chunks cost more per lane; 8192 was within run-to-run noise.
LANES_PER_TASK = 4096

_OPEN_TOPOLOGIES = (BoundaryTopology.OPEN, BoundaryTopology.TWISTED_OPEN)


class OutOfBandError(ValueError):
    """Requested energy lies outside the open lead band."""


class SingularSystemError(RuntimeError):
    """Scattering system could not be solved to the residual bound."""


@dataclass(frozen=True)
class LeadSpec:
    """Lead band and contact couplings.

    ``v0`` sets the lead half-bandwidth (lead hopping is ``-v0/2``).
    The four couplings attach (upper, lower) legs of the first cell to
    the input lead and of the last cell to the output lead.
    """

    v0: float = 10.0
    upper_in: float = 1.0
    lower_in: float = 1.0
    upper_out: float = 1.0
    lower_out: float = 1.0

    def __post_init__(self) -> None:
        if self.v0 <= 0:
            raise ValueError(f"v0 must be positive, got {self.v0}")

    @property
    def g_in(self) -> np.ndarray:
        return np.array([-self.upper_in, -self.lower_in], dtype=complex)

    @property
    def g_out(self) -> np.ndarray:
        return np.array([-self.upper_out, -self.lower_out], dtype=complex)

    @property
    def symmetric(self) -> bool:
        return self.upper_in == self.lower_in == self.upper_out == self.lower_out != 0.0

    def swapped(self) -> "LeadSpec":
        """Input and output contacts interchanged."""
        return LeadSpec(
            v0=self.v0,
            upper_in=self.upper_out,
            lower_in=self.lower_out,
            upper_out=self.upper_in,
            lower_out=self.lower_in,
        )


def lead_momentum(energy: float, v0: float) -> tuple[complex, complex]:
    """Propagating lead phases ``(e^{+iq}, e^{-iq})`` at energy ``energy``.

    Requires ``|energy| < v0``; the imaginary part of ``e^{+iq}`` is
    positive, selecting the right-moving wave.
    """
    if v0 <= 0:
        raise ValueError(f"v0 must be positive, got {v0}")
    x = energy / v0
    if abs(x) >= 1.0:
        raise OutOfBandError(
            f"energy {energy} outside the open lead band (|E| < {v0})"
        )
    s = math.sqrt(1.0 - x * x)
    return complex(-x, s), complex(-x, -s)


@dataclass
class ScatteringSystem:
    """Assembled bordered linear system for one (lattice, leads, E)."""

    matrix: np.ndarray
    rhs: np.ndarray
    energy: float
    momentum: complex  # e^{+iq}
    n_cells: int
    spec: LatticeSpec
    leads: LeadSpec

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _check_transport_spec(spec: LatticeSpec) -> None:
    if spec.topology not in _OPEN_TOPOLOGIES:
        raise ValueError(
            f"transport needs an open or twisted topology, got {spec.topology.value}"
        )


def assemble_scattering_system(
    spec: LatticeSpec, leads: LeadSpec, energy: float
) -> ScatteringSystem:
    """Build the dense bordered system for one energy."""
    _check_transport_spec(spec)
    eiq, emiq = lead_momentum(energy, leads.v0)
    n = spec.n_cells
    dim = 2 * n + 2

    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros(dim, dtype=complex)

    a[0, 0] = 0.5 * leads.v0
    a[0, 1:3] = leads.g_in
    b[0] = -0.5 * leads.v0
    a[1:-1, 1:-1] = build_real_space_hamiltonian(spec) - energy * np.eye(2 * n)
    a[1:3, 0] = eiq * leads.g_in
    b[1:3] = -emiq * leads.g_in
    a[2 * n - 1 : 2 * n + 1, dim - 1] = eiq * leads.g_out
    a[dim - 1, 2 * n - 1 : 2 * n + 1] = leads.g_out
    a[dim - 1, dim - 1] = 0.5 * leads.v0

    return ScatteringSystem(
        matrix=a,
        rhs=b,
        energy=float(energy),
        momentum=eiq,
        n_cells=n,
        spec=spec,
        leads=leads,
    )


@dataclass
class ScatteringResult:
    """Solved amplitudes and probabilities for one scattering problem."""

    r: complex
    t: complex
    internal: np.ndarray
    reflection_prob: float
    transmission_prob: float
    flux_residual: float

    @classmethod
    def from_solution(cls, x: np.ndarray) -> "ScatteringResult":
        r = complex(x[0])
        t = complex(x[-1])
        rp = abs(r) ** 2
        tp = abs(t) ** 2
        return cls(
            r=r,
            t=t,
            internal=np.array(x[1:-1], dtype=complex),
            reflection_prob=rp,
            transmission_prob=tp,
            flux_residual=1.0 - rp - tp,
        )


def _pivot_inverse(a, b, c, d) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Closed-form inverses of the 2x2 pivots ``[[a, b], [c, d]]``, and the lanes that fail.

    The entries are lane arrays, and the inverse comes back as four lane
    arrays in the same row-major order: the adjugate divided by det.  A
    lane fails when det is non-finite or ``|det| < 1e-300``, or when the
    1-norm condition ``norm1(C) norm1(adj) / |det|`` is non-finite or
    above ``COND_LIMIT``; its inverse is then unusable.  No
    floating-point warning escapes.
    """
    ma, mb, mc, md = np.abs(a), np.abs(b), np.abs(c), np.abs(d)
    with np.errstate(all="ignore"):
        det = a * d - b * c
        # b / -det is -b / det bit for bit, with one negation in place of two
        size, neg_det = np.abs(det), -det
        # norm1(C) is the largest column sum of |C|, norm1(adj) its largest row sum
        cond = np.maximum(ma + mc, mb + md) * np.maximum(ma + mb, mc + md) / size
        inv = d / det, b / neg_det, c / neg_det, a / det
    return inv, ~(np.isfinite(det) & (size >= 1e-300) & (cond <= COND_LIMIT))


def _matvec(m, v) -> tuple:
    """Row-major 2x2 block ``m`` times the pair ``v``, entry by entry."""
    return m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1]


def _bond_terms(hop: np.ndarray) -> tuple[list, list, list]:
    """The scalar terms of the bond block ``H`` in the sweep's three products.

    Lists of ``(scalar, entry)`` terms, one list per output entry in
    row-major order: ``-T = C^-1 (-H)`` over the entries of ``C^-1``,
    ``H^T (-T)`` over those of ``-T``, and the next source ``-H^T g``
    over those of ``g``.  The signs sit in the scalars, and a zero entry
    of ``H`` gives no term.
    """
    col = [[(m, x) for m, x in enumerate(column) if x != 0] for column in hop.T.tolist()]
    return (
        [[(-s, 2 * k + m) for m, s in col[j]] for k in (0, 1) for j in (0, 1)],
        [[(s, 2 * m + j) for m, s in col[k]] for k in (0, 1) for j in (0, 1)],
        [[(-s, m) for m, s in col[k]] for k in (0, 1)],
    )


def _combine(terms: list, entries) -> np.ndarray | float:
    """``sum(entries[i] * s for s, i in terms)``, left to right from the first
    product, not from 0; 0.0 for no terms."""
    products = (entries[i] * s for s, i in terms)
    return sum(products, next(products, 0.0))


def _eliminate(
    spec: LatticeSpec, leads: LeadSpec, energies, gammas
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """``(r, t, psi, pivot)`` on lanes of ``spec.with_gamma(gamma)`` at energy E.

    ``energies`` and ``gammas`` broadcast to one (E, gamma) pair per lane.
    One left-to-right block-Thomas sweep serves every lane: each 2x2 block
    is four lane arrays in row-major order, worked by elementwise
    arithmetic, and each pivot ``C_i`` is inverted in closed form
    (``_pivot_inverse``).  With ``g_i = C_i^-1 s_i`` and
    ``T_i = C_i^-1 H_i`` the amplitudes obey ``psi_i = g_i - T_i psi_{i+1}``,
    so a lane carries only its pivot, its source and the expansion
    ``psi_1 = acc + prod psi_N``, where ``acc = sum_i P_i g_i`` and
    ``prod = P_N`` with ``P_i = (-T_1) ... (-T_{i-1})``: r and t follow
    from ``psi_1`` and ``psi_N`` at the end of the sweep.  Each distinct
    bond block ``H_i`` enters as scalar terms (``_bond_terms``), which
    carry the signs of ``-T_i`` and ``-H_i^T g_i`` and skip its zero
    entries.  A one-lane call, which is what a single solve makes, also
    keeps the per-cell pairs ``(g_i, -T_i)`` and back-substitutes the
    cell amplitudes into ``psi[lane, cell]``; ``psi`` is None otherwise.
    ``pivot[lane]`` is the first cell whose pivot failed the guard, or
    -1; a flagged lane carries unusable values.  Lanes outside the lead
    band are flagged at cell 0.
    """
    energies, gammas = np.broadcast_arrays(
        *np.atleast_1d(np.asarray(energies, dtype=float), np.asarray(gammas, dtype=float))
    )
    energies, gammas = energies.ravel(), gammas.ravel()
    x = energies / leads.v0
    eiq = np.where(np.abs(x) < 1.0, -x + 1j * np.sqrt(np.abs(1.0 - x * x)), np.nan)
    scale = 2.0 / leads.v0

    # On-site block of spec.with_gamma(gamma), minus E: gamma enters it linearly.
    h0 = unit_cell_blocks(spec.with_gamma(0.0)).h0[..., None]
    slope = unit_cell_blocks(spec.with_gamma(1.0)).h0[..., None] - h0
    h0e = (h0 + gammas * slope - energies * np.eye(2)[..., None]).reshape(4, -1)

    def self_energy(g: np.ndarray) -> np.ndarray:
        return -scale * eiq * np.outer(g, g).reshape(4, 1)

    pivot = np.full(energies.size, -1)
    bonds = _bond_blocks(spec, unit_cell_blocks(spec))
    # each distinct bond block (the list repeats one object) becomes scalars once
    terms = {key: _bond_terms(hop) for key, hop in {id(hop): hop for hop in bonds}.items()}
    carried = h0e + self_energy(leads.g_in)
    source = (eiq - np.conj(eiq)) * leads.g_in[:, None]
    acc, prod = (0.0, 0.0), (1.0, 0.0, 0.0, 1.0)
    pairs = [] if energies.size == 1 else None
    with np.errstate(all="ignore"):
        for cell, hop in enumerate(bonds):
            inv, bad = _pivot_inverse(*carried)
            if bad.any():
                pivot[bad & (pivot < 0)] = cell
            t_terms, carry_terms, source_terms = terms[id(hop)]
            g = _matvec(inv, source)
            neg_t = [_combine(k, inv) for k in t_terms]
            acc = [a + p for a, p in zip(acc, _matvec(prod, g))]
            prod = [p * neg_t[j] + q * neg_t[2 + j] for p, q in (prod[:2], prod[2:]) for j in (0, 1)]
            carried = [h + _combine(k, neg_t) for h, k in zip(h0e, carry_terms)]
            source = [_combine(k, g) for k in source_terms]
            if pairs is not None:
                pairs.append((g, neg_t))
        inv, bad = _pivot_inverse(*(c + s for c, s in zip(carried, self_energy(leads.g_out))))
        if bad.any():
            pivot[bad & (pivot < 0)] = spec.n_cells - 1
        last = _matvec(inv, source)
        first = [a + p for a, p in zip(acc, _matvec(prod, last))]
        r = -1.0 - scale * (leads.g_in[0] * first[0] + leads.g_in[1] * first[1])
        t = -scale * (leads.g_out[0] * last[0] + leads.g_out[1] * last[1])
        psi = None
        if pairs is not None:
            psi = [last]
            for g, neg_t in reversed(pairs):
                psi.append([a + p for a, p in zip(g, _matvec(neg_t, psi[-1]))])
            psi = np.array(psi[::-1]).transpose(2, 0, 1)
    return r, t, psi, pivot


def _solve_dense(system: ScatteringSystem) -> np.ndarray:
    """Partial-pivoting LU solve; minimum-norm least squares if the matrix is singular.

    A singular bordered matrix has a null vector that the leads do not
    see (a dark state): r and t are still fixed, but LU returns an
    arbitrary multiple of that vector in ``internal``.  The same LU also
    solves for a probe ``z`` of unit entries with golden-angle phases,
    which no ladder state is orthogonal to by symmetry, and
    ``norm1(A) norm1(A^-1 z) / norm1(z)`` bounds the 1-norm condition
    number from below.  Above ``COND_LIMIT``, or at an exactly zero
    pivot, the minimum-norm solution replaces LU's and drops the dark
    component.
    """
    a, dim = system.matrix, system.dimension
    probe = np.exp(1j * np.pi * (3.0 - math.sqrt(5.0)) * np.arange(dim))
    try:
        x, y = np.linalg.solve(a, np.stack((system.rhs, probe), axis=1)).T
        if np.linalg.norm(a, 1) * np.linalg.norm(y, 1) <= COND_LIMIT * dim:
            return x
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.lstsq(a, system.rhs, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"dense fallback failed at E = {system.energy:.9g}: {exc}"
        ) from exc


def _residual_ok(system: ScatteringSystem, x: np.ndarray) -> bool:
    resid = np.linalg.norm(system.matrix @ x - system.rhs)
    return resid <= RESIDUAL_TOL * np.linalg.norm(system.rhs)


def solve_scattering(system: ScatteringSystem, method: str = "auto") -> ScatteringResult:
    """Solve the bordered system.

    ``method`` is "auto" (the lane kernel on one lane, dense when a pivot
    is flagged or the residual check fails), "banded" (the lane kernel,
    raising ``SingularSystemError`` with the reason instead of falling
    back) or "dense" (``_solve_dense`` on the whole system).  Every
    answer is residual-checked against ``system.matrix``.
    """
    if method not in ("auto", "banded", "dense"):
        raise ValueError(f"unknown method {method!r}")

    reason = "direct dense"
    if method != "dense":
        r, t, psi, pivot = _eliminate(system.spec, system.leads, system.energy, system.spec.gamma)
        x = np.concatenate((r, psi[0].ravel(), t))
        if pivot[0] >= 0:
            reason = f"ill-conditioned pivot at cell {pivot[0] + 1} of {system.n_cells}"
        elif not _residual_ok(system, x):
            reason = "elimination residual above bound"
        else:
            return ScatteringResult.from_solution(x)
        if method == "banded":
            raise SingularSystemError(
                f"banded elimination failed at E = {system.energy:.9g}: {reason}"
            )
    x = _solve_dense(system)
    if not _residual_ok(system, x):
        raise SingularSystemError(
            f"residual above {RESIDUAL_TOL:.0e}*||b|| even after dense "
            f"fallback at E = {system.energy:.9g} ({reason})"
        )
    return ScatteringResult.from_solution(x)


def _lane_probabilities(
    spec: LatticeSpec, leads: LeadSpec, energies, gammas
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``(|t|^2, |r|^2, failed, resolved)`` over lanes ``(energies[k], gammas[k])``.

    Flagged lanes are re-solved densely and counted in ``resolved``; a
    lane whose dense solve fails too becomes NaN and is counted in
    ``failed`` instead.
    """
    r, t, _, pivot = _eliminate(spec, leads, energies, gammas)
    t_lanes = np.abs(t) ** 2
    r_lanes = np.abs(r) ** 2
    bad = (pivot >= 0) | ~np.isfinite(r) | ~np.isfinite(t)
    failed = resolved = 0
    for lane in np.flatnonzero(bad):
        e, g = float(energies[lane]), float(gammas[lane])
        try:
            system = assemble_scattering_system(spec.with_gamma(g), leads, e)
            res = solve_scattering(system, method="dense")
            t_lanes[lane] = res.transmission_prob
            r_lanes[lane] = res.reflection_prob
            resolved += 1
        except (OutOfBandError, SingularSystemError):
            t_lanes[lane] = np.nan
            r_lanes[lane] = np.nan
            failed += 1
    return t_lanes, r_lanes, failed, resolved


@dataclass
class TransmissionMap:
    """Transmission and reflection probabilities on an (E, gamma) grid.

    ``t_values[i, j]`` is ``|t|^2`` at ``(e_grid[i], gamma_grid[j])``;
    failed cells are quiet NaN and counted in ``n_failed``.  Cells whose
    kernel lane was flagged and then solved densely are counted in
    ``n_resolved``.
    """

    e_grid: np.ndarray
    gamma_grid: np.ndarray
    t_values: np.ndarray
    r_values: np.ndarray
    n_failed: int = 0
    n_resolved: int = 0


def _map_column(args) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    """One pool task: lanes ``start, start + 1, ...`` of a flattened map."""
    spec, leads, energies, start, gammas = args
    return start, *_lane_probabilities(spec, leads, energies, gammas)


def transmission_map(
    spec: LatticeSpec,
    leads: LeadSpec,
    e_grid,
    gamma_grid,
    *,
    workers: int = 1,
) -> TransmissionMap:
    """Probability maps over an energy/gamma grid.

    The grid is flattened E-major, so lane ``i * len(gamma_grid) + j`` is
    cell ``(i, j)``, and cut into a multiple of ``workers`` near-equal
    chunks of at most ``LANES_PER_TASK`` lanes, one ``_map_column`` task
    each, run on the process-wide pool of ``_pool`` when ``workers`` > 1.
    Per-point solver failures become NaN cells and are counted;
    they do not abort the map.  The kernel works every lane on its own,
    so the result is deterministic and independent of ``workers``.
    """
    _check_transport_spec(spec)
    energies = np.asarray(list(e_grid), dtype=float)
    gammas = np.asarray(list(gamma_grid), dtype=float)
    if energies.size == 0 or gammas.size == 0:
        raise ValueError("transmission map needs non-empty energy and gamma grids")

    lane_e = np.repeat(energies, gammas.size)
    lane_g = np.tile(gammas, energies.size)
    t_lanes = np.empty(lane_e.size)
    r_lanes = np.empty(lane_e.size)
    n_tasks = workers * -(-lane_e.size // (workers * LANES_PER_TASK))
    bounds = [k * lane_e.size // n_tasks for k in range(n_tasks + 1)]
    jobs = [
        (spec, leads, lane_e[a:b], a, lane_g[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    n_failed = n_resolved = 0
    pooled = workers > 1 and len(jobs) > 1
    results = pool_map(_map_column, jobs, workers) if pooled else map(_map_column, jobs)
    for start, t_chunk, r_chunk, failed, resolved in results:
        t_lanes[start : start + t_chunk.size] = t_chunk
        r_lanes[start : start + r_chunk.size] = r_chunk
        n_failed += failed
        n_resolved += resolved
    return TransmissionMap(
        e_grid=energies,
        gamma_grid=gammas,
        t_values=t_lanes.reshape(energies.size, gammas.size),
        r_values=r_lanes.reshape(energies.size, gammas.size),
        n_failed=n_failed,
        n_resolved=n_resolved,
    )


def zero_energy_trace(
    spec: LatticeSpec, leads: LeadSpec, gamma_grid
) -> list[tuple[float, float]]:
    """Transmission probability at E = 0 along a gamma grid.

    One ``_map_column`` task whose lanes are the gammas at E = 0, made
    in the calling process however long the grid; its values equal the
    E = 0 row of ``transmission_map`` over the same grid bit for bit.
    """
    _check_transport_spec(spec)
    gammas = np.asarray(list(gamma_grid), dtype=float)
    if gammas.size == 0:
        raise ValueError("zero-energy trace needs a non-empty gamma grid")
    _, t_lanes, *_ = _map_column((spec, leads, np.zeros(gammas.size), 0, gammas))
    return [(float(g), float(t)) for g, t in zip(gammas, t_lanes)]


def find_trace_peaks(
    trace: list[tuple[float, float]], min_height: float = 0.0
) -> list[tuple[float, float]]:
    """Strict local maxima of a (gamma, T) trace, at least ``min_height`` tall."""
    peaks = []
    for i in range(1, len(trace) - 1):
        g, t = trace[i]
        if not np.isfinite(t):
            continue
        if t > trace[i - 1][1] and t > trace[i + 1][1] and t >= min_height:
            peaks.append((g, t))
    return peaks


@dataclass
class DetangleTransportReport:
    """Alignment of transmission extrema with the detangled chain levels.

    ``dip_offsets[i]`` is the distance from the i-th in-window
    antisymmetric-chain (f) level to the nearest local transmission
    minimum and ``dip_depths[i]`` the transmission there;
    ``peak_offsets`` does the same for symmetric-chain (p) levels
    against local maxima.  ``antiresonance_present`` flags any matched
    dip deeper than T = 0.01.

    Symmetric contacts: at gamma = delta = 0 the pi/4 rotation splits the
    ladder exactly into the f and p chains, and the contact vector
    ``-c (1, 1)`` lies wholly in the p sector, so the scattering state has
    no f component.  T(E) is then exactly that of the lone p chain
    (on-site ``-d``, end couplings ``-c sqrt2``); the f chain is dark and
    leaves no dips.  Resonance peaks sit near p levels, lead-shifted, and
    there is no antiresonance, since ``(A^-1)_1N`` of a tridiagonal chain
    is its hopping product over its determinant and never vanishes.
    Upper contacts off: the contact drives both chains and two-path
    interference carves deep Fano minima near (but not exactly at) chain
    levels.
    """

    e_grid: np.ndarray
    transmission: np.ndarray
    f_energies: np.ndarray
    p_energies: np.ndarray
    dip_offsets: np.ndarray
    dip_depths: np.ndarray
    peak_offsets: np.ndarray
    antiresonance_present: bool
    grid_step: float
    contact_pattern: str


def detangled_transport_check(
    spec: LatticeSpec, leads: LeadSpec, e_grid
) -> DetangleTransportReport:
    """Compare a gamma = 0 transmission scan against the detangled chains.

    Requires the plain open ladder at gamma = delta = 0 and either fully
    symmetric contacts or the upper-contact-off pattern
    (upper_in = upper_out = 0, lower couplings equal and non-zero).
    """
    from .rotation import open_chain_spectrum

    if spec.topology is not BoundaryTopology.OPEN:
        raise ValueError("detangled transport check needs the open ladder")
    if spec.gamma != 0.0 or spec.delta != 0.0:
        raise ValueError("detangled transport check is defined at gamma = delta = 0")
    if leads.symmetric:
        pattern = "symmetric"
    elif (
        leads.upper_in == leads.upper_out == 0.0
        and leads.lower_in == leads.lower_out != 0.0
    ):
        pattern = "upper-off"
    else:
        raise ValueError(
            "contacts must be fully symmetric or upper-off for the detangle check"
        )

    energies = np.asarray(list(e_grid), dtype=float)
    if energies.size < 16:
        raise ValueError("need a reasonably fine energy grid")
    step = float(np.diff(energies).max())

    m = transmission_map(spec, leads, energies, [spec.gamma])
    trans = m.t_values[:, 0]

    f_energies = np.sort(open_chain_spectrum(spec.n_cells, spec.intra_hop, spec.inter_hop).real)
    p_energies = np.sort(open_chain_spectrum(spec.n_cells, -spec.intra_hop, spec.inter_hop).real)

    inner, before, after = trans[1:-1], trans[:-2], trans[2:]
    minima = np.flatnonzero((inner <= before) & (inner <= after)) + 1
    maxima = np.flatnonzero((inner >= before) & (inner >= after)) + 1
    margin = 2.0 * step

    def nearest(levels: np.ndarray, extrema: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offset to, and T at, the nearest extremum of each in-window level."""
        levels = levels[(levels > energies[0] + margin) & (levels < energies[-1] - margin)]
        if extrema.size == 0:
            return np.full(levels.size, math.inf), np.full(levels.size, math.inf)
        offsets = np.abs(energies[extrema] - levels[:, None])
        i = extrema[np.argmin(offsets, axis=1)]
        return np.abs(energies[i] - levels), trans[i]

    dip_offsets, dip_depths = nearest(f_energies, minima)
    peak_offsets, _ = nearest(p_energies, maxima)

    return DetangleTransportReport(
        e_grid=energies,
        transmission=trans,
        f_energies=f_energies,
        p_energies=p_energies,
        dip_offsets=dip_offsets,
        dip_depths=dip_depths,
        peak_offsets=peak_offsets,
        antiresonance_present=bool(np.any(dip_depths < 0.01)),
        grid_step=step,
        contact_pattern=pattern,
    )
