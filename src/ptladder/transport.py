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
Every pivot of the sweep is complex symmetric (the on-site block, the
self-energies and each ``H^T C^-1 H`` are), so the kernel holds a pivot
as its upper triangle, three lane arrays, and inverts it in closed form
with one reciprocal of its determinant.  It takes each bond block as
scalars (its zero entries drop out of every product).  A lane carries
O(1) state through the sweep: t needs only psi_N, and r only
``G_in^T psi_1``, which the row vector ``u_i = G_in^T P_i`` and the sum
``alpha = sum_i u_i g_i`` give (``_eliminate``); by the symmetry the
source itself carries ``u_i``.  The per-cell pairs that back-substitution
needs are kept only for a one-lane call, where a single solve wants its
``internal`` amplitudes.

Mirrored leads (``g_out == g_in``, as in the default ``LeadSpec``) on
N >= 2 cells fold the sweep at the mirror plane.  The ladder commutes
with the cell mirror ``n -> N+1-n``, so the source splits into a
mirror-even and a mirror-odd part, each a one-lead half-ladder over the
left cells 1..floor(N/2).  Both share the sweep from the lead to the
middle, which ``lattice._half_bond_blocks`` lays out, and only the last
pivot tells them apart: ``C_h + H_mid`` and ``C_h - H_mid`` for even
N = 2h, and for odd N the odd channel ends at cell h (its centre
amplitude vanishes) while the even one takes the centre cell through the
join ``sqrt2 H_h``.  The pivots that close the channels go through the
same guard.  With each channel's ``alpha_+- = G_in^T psi+-_1``, as
``psi_1 = (psi+_1 + psi-_1)/2`` and ``psi_N = (psi+_1 - psi-_1)/2``,
``r = -1 - (2/v0) (alpha_+ + alpha_-)/2`` and
``t = -(2/v0) (alpha_+ - alpha_-)/2``.  For even N the difference is
formed as ``-2 g_+^T H_mid g_-``, without cancellation, so a tiny t
keeps its relative accuracy.  The fold halves the cells swept.  Near
gamma = 2d, where rounding grows along the sweep, it also stays nearer
the dense solve: on twisted N = 100 lanes the full sweep was off by up
to 7.9e-7 in ``|r|^2``, the fold by 5.4e-11.  Other leads, and
N = 1, take the full sweep to cell N.

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
    _half_bond_blocks,
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
# worker's kernel arrays on full 801x601 maps (a 1.7 MB peak at N = 100:
# a lane holds a pivot's three entries, its source and alpha).
# Shorter chunks cost more per lane; 8192 was within run-to-run noise.
LANES_PER_TASK = 4096

_OPEN_TOPOLOGIES = (BoundaryTopology.OPEN, BoundaryTopology.TWISTED_OPEN)
# Row and column indices of the upper triangle (a, b, d) of a symmetric 2x2 block.
_UPPER = (0, 0, 1), (0, 1, 1)


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
    a[1:-1, 1:-1] = build_real_space_hamiltonian(spec)
    sites = np.arange(1, dim - 1)
    a[sites, sites] -= energy
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


def _pivot_inverse(a, b, d) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Closed-form inverses of the symmetric 2x2 pivots ``[[a, b], [b, d]]``, and the lanes that fail.

    The entries are lane arrays.  One reciprocal ``w = 1/det`` of
    ``det = a d - b^2`` gives ``(p, q, v) = (d w, b w, a w)``, and the
    inverse is ``[[p, -q], [-q, v]]``.  A lane fails when ``|det| < 1e-300``
    or is NaN, or when the 1-norm condition ``norm1(C) norm1(adj) / |det|``
    is NaN or above ``COND_LIMIT``; its inverse is then unusable.  That
    covers a det that overflows: ``|det| <= m**2`` for the condition's
    ``m``, so ``m * m`` overflows too and the condition is ``inf / inf``.
    No floating-point warning escapes.
    """
    with np.errstate(all="ignore"):
        det = a * d - b * b
        w, size = 1.0 / det, np.abs(det)
        # norm1(C) and norm1(adj) are both m, the largest column sum of |C|;
        # rounding is monotonic, so this is max(|a| + |b|, |b| + |d|) bit for bit
        m = np.abs(b) + np.maximum(np.abs(a), np.abs(d))
        cond = m * m / size
        return (d * w, b * w, a * w), ~((size >= 1e-300) & (cond <= COND_LIMIT))


def _bond_terms(hop: np.ndarray) -> tuple[list, list]:
    """The scalar terms of the bond block ``H`` in the sweep's two updates.

    Lists of ``(scalar, index)`` terms: one per upper entry ``(j, k)`` of
    ``-H^T C^-1 H`` over the pivot's inverse entries ``(p, q, v)``, and
    one per entry of the next source ``-H^T g`` over those of ``g``.  A
    zero scalar gives no term.
    """
    h = hop.tolist()
    carry = [
        (-h[0][j] * h[0][k], h[0][j] * h[1][k] + h[1][j] * h[0][k], -h[1][j] * h[1][k])
        for j, k in zip(*_UPPER)
    ]
    return (
        [[(x, i) for i, x in enumerate(entry) if x != 0] for entry in carry],
        [[(-h[m][k], m) for m in (0, 1) if h[m][k] != 0] for k in (0, 1)],
    )


def _combine(terms: list, entries, start=None):
    """``start + sum(x * entries[i] for x, i in terms)``, left to right; without
    ``start`` from the first product, and 0.0 for no terms at all."""
    products = (x * entries[i] for x, i in terms)
    return sum(products, next(products, 0.0) if start is None else start)


def _eliminate(
    spec: LatticeSpec, leads: LeadSpec, energies, gammas
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """``(r, t, psi, pivot)`` on lanes of ``spec.with_gamma(gamma)`` at energy E.

    ``energies`` and ``gammas`` broadcast to one (E, gamma) pair per lane.
    One left-to-right block-Thomas sweep serves every lane, by elementwise
    arithmetic on lane arrays.  Every pivot ``C_i`` is complex symmetric:
    the on-site block is (a ``ValueError`` otherwise), so are the lead
    self-energies, and ``H^T C^-1 H`` is for any bond ``H``.  So a pivot
    is its upper triangle ``(a, b, d)``, three lane arrays, and is
    inverted with one reciprocal (``_pivot_inverse``).  With
    ``g_i = C_i^-1 s_i`` and ``T_i = C_i^-1 H_i`` the amplitudes obey
    ``psi_i = g_i - T_i psi_{i+1}``, so ``psi_1 = sum_i P_i g_i`` with
    ``P_i = (-T_1) ... (-T_{i-1})`` and ``g_N = psi_N``: t follows from
    ``psi_N``, and r needs only ``G_in^T psi_1 = alpha = sum_i u_i g_i``
    with the row vector ``u_i = G_in^T P_i``.  As every ``C_i`` is
    symmetric, ``u_i^T`` obeys the source's own recursion
    ``s_{i+1} = -H_i^T g_i``, and ``s_1 = drive G_in`` with
    ``drive = e^{iq} - e^{-iq}``: the source is ``drive u_i^T``, so a lane
    carries only its pivot, its source and the sum of ``s_i . g_i``, which
    is ``drive alpha`` (the code's ``alpha``), and no 2x2 product.  Each distinct bond block enters as
    scalar terms (``_bond_terms``), which carry the signs and skip its
    zero entries; only the upper triangle of the next pivot is formed.  A
    one-lane call, which is what a single solve makes, also keeps the
    per-cell pairs ``(g_i, T_i)`` and back-substitutes the cell
    amplitudes into ``psi[lane, cell]``; ``psi`` is None otherwise.
    Mirrored leads on N >= 2 cells sweep only the left half and close
    the mirror-even and -odd channels at the middle (module docstring);
    a one-lane call then rebuilds ``psi`` from both channels.
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
    h0 = unit_cell_blocks(spec.with_gamma(0.0)).h0
    slope = unit_cell_blocks(spec.with_gamma(1.0)).h0 - h0
    if not (np.array_equal(h0, h0.T) and np.array_equal(slope, slope.T)):
        raise ValueError("the lane kernel needs a symmetric on-site block")
    h0e = (h0[..., None] + gammas * slope[..., None] - energies * np.eye(2)[..., None])[_UPPER]

    def self_energy(g: np.ndarray) -> np.ndarray:
        return -scale * eiq * np.outer(g, g)[_UPPER][:, None]

    pivot = np.full(energies.size, -1)
    cells = unit_cell_blocks(spec)
    fold = spec.n_cells >= 2 and np.array_equal(leads.g_in, leads.g_out)
    bonds, middle = _half_bond_blocks(spec, cells) if fold else (_bond_blocks(spec, cells), None)
    # each distinct bond block (the list repeats one object) becomes scalars once
    terms = {key: _bond_terms(hop) for key, hop in {id(hop): hop for hop in bonds}.items()}
    carried = h0e + self_energy(leads.g_in)
    drive = eiq - np.conj(eiq)
    source, alpha = drive * leads.g_in[:, None], 0.0
    pairs = [] if energies.size == 1 else None

    def solve(cell, entries):
        """``(C^-1, C^-1 s)`` for the pivot ``entries`` of ``cell``; its failed lanes are flagged."""
        (p, q, v), bad = _pivot_inverse(*entries)
        if bad.any():
            pivot[bad & (pivot < 0)] = cell
        return (p, q, v), (p * source[0] - q * source[1], v * source[1] - q * source[0])

    with np.errstate(all="ignore"):
        for cell, hop in enumerate(bonds):
            (p, q, v), g = solve(cell, carried)
            alpha = alpha + source[0] * g[0] + source[1] * g[1]
            carry_terms, source_terms = terms[id(hop)]
            carried = [_combine(k, (p, q, v), h) for h, k in zip(h0e, carry_terms)]
            source = [_combine(k, g) for k in source_terms]
            if pairs is not None:
                pairs.append((np.array(g), np.array([[p, -q], [-q, v]])[..., 0] @ hop))
        if not fold:
            _, g = solve(len(bonds), carried + self_energy(leads.g_out))
            alpha = alpha + source[0] * g[0] + source[1] * g[1]
            r = -1.0 - scale * alpha / drive
            t = -scale * (leads.g_out[0] * g[0] + leads.g_out[1] * g[1])
            channels = [(g, pairs)]
        elif middle is None:
            # odd N: the odd channel ended at cell h with alpha, the even one ends at the centre
            _, g = solve(len(bonds), carried)
            tail = source[0] * g[0] + source[1] * g[1]
            r = -1.0 - scale * (alpha + 0.5 * tail) / drive
            t = -0.5 * scale * tail / drive
            channels = [(g, pairs), (pairs[-1][0], pairs[:-1])] if pairs is not None else []
        else:
            # even N: cell h closes the even channel with C_h + H_mid and the odd one with C_h - H_mid
            mid = middle[_UPPER]
            _, even = solve(len(bonds), [c + m for c, m in zip(carried, mid)])
            _, odd = solve(len(bonds), [c - m for c, m in zip(carried, mid)])
            tail = source[0] * (even[0] + odd[0]) + source[1] * (even[1] + odd[1])
            r = -1.0 - scale * (alpha + 0.5 * tail) / drive
            # alpha_+ - alpha_- is s^T (g_+ - g_-) = -2 g_+^T H_mid g_-, here without its cancellation
            h = middle.tolist()
            t = scale * sum(h[j][k] * even[j] * odd[k] for j in (0, 1) for k in (0, 1) if h[j][k]) / drive
            channels = [(even, pairs), (odd, pairs)]
        psi = None if pairs is None else _back_substitute(channels)
    return r, t, psi, pivot


def _back_substitute(channels: list) -> np.ndarray:
    """Cell amplitudes ``psi[lane, cell]`` of a one-lane sweep.

    A channel is its last cell's ``g`` and the pairs ``(g_i, T_i)`` before
    it, and ``psi_i = g_i - T_i psi_{i+1}`` from its last cell back.  One
    channel is the full sweep.  Two are the mirror-even and -odd channels
    of a fold: ``psi_n = (psi+_n + psi-_n)/2`` and
    ``psi_{N+1-n} = (psi+_n - psi-_n)/2``.  For odd N the even channel has
    one cell more, the centre, which holds ``psi_centre / sqrt2``.
    """
    swept = []
    for last, pairs in channels:
        psi = [np.array(last)]
        for g, t_cell in reversed(pairs):
            psi.append(g - t_cell @ psi[-1])
        swept.append(psi[::-1])
    if len(swept) == 1:
        return np.array(swept[0]).transpose(2, 0, 1)
    plus, minus = swept
    centre = [c / math.sqrt(2.0) for c in plus[len(minus) :]]
    half = [(a + b) / 2 for a, b in zip(plus, minus)]
    mirror = [(a - b) / 2 for a, b in zip(plus, minus)]
    return np.array(half + centre + mirror[::-1]).transpose(2, 0, 1)


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
