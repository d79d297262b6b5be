"""Complex-rotation transform that diagonalises or detangles the ladder.

The on-cell block ``[[eps_u, -d], [-d, eps_d]]`` is complex symmetric, so
it is diagonalised by a complex-orthogonal rotation ``U(theta)`` with
``U U^T = 1`` rather than by a unitary.  The similarity transform used
throughout is ``U H U^T``; the angle solves ``cot(2 theta) = (delta +
i*gamma) / (2 d)`` and is taken on the principal branch with
``theta_r`` in [0, pi/2).

Sign conventions (fixed by the back-substitution identity and by the
Hermitian limit, and asserted in the tests):

* delta = 0, gamma < 2d (unbroken): ``theta_r = pi/4`` exactly and
  ``tanh(2 theta_i) = -gamma / (2 d)``, i.e. theta_i < 0 for gamma > 0.
  Only the magnitude of theta_i is physical; flipping its sign
  diagonalises the lattice with gain and loss interchanged.
* delta = 0, gamma > 2d (broken): ``theta_r = 0`` and
  ``coth(2 theta_i) = -gamma / (2 d)``.
* gamma = 2d, delta = 0 is the exceptional point: cot(2 theta) = +/-i
  has no solution and the angle construction fails loudly.

The gamma-independent rotation at theta = pi/4 "detangles" the ladder
into two uniform chains: the leg-antisymmetric chain (on-site ``+d``)
and the leg-symmetric chain (on-site ``-d``), cross-coupled on-site by
``(delta + i*gamma)/2``.  At gamma = delta = 0 the chains decouple
exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    BoundaryTopology,
    LatticeSpec,
    build_bloch_hamiltonian,
    build_real_space_hamiltonian,
)

__all__ = [
    "SingularAngleError",
    "RotationAngle",
    "ModeWeights",
    "DetangledChainPair",
    "complex_rotation_angle",
    "rotation_matrix",
    "diagonalize_by_rotation",
    "mode_weights",
    "detangle_transform",
    "open_chain_spectrum",
]

BACKSUB_TOL = 1e-12


class SingularAngleError(ValueError):
    """No rotation angle exists (exceptional point: gamma = 2d at delta = 0)."""


@dataclass(frozen=True)
class RotationAngle:
    """Complex rotation angle theta = theta_r + i*theta_i."""

    theta_r: float
    theta_i: float

    @property
    def value(self) -> complex:
        return complex(self.theta_r, self.theta_i)


def _cot(z: complex) -> complex:
    return cmath.cos(z) / cmath.sin(z)


def complex_rotation_angle(d: float, delta: float, gamma: float) -> RotationAngle:
    """Angle solving ``cot(2 theta) = (delta + i*gamma) / (2 d)``."""
    if d == 0:
        raise ValueError("rotation angle undefined for d = 0 (no rung coupling)")

    z = (delta + 1j * gamma) / (2.0 * d)
    if abs(z - 1j) < 1e-15 or abs(z + 1j) < 1e-15:
        raise SingularAngleError(
            f"cot(2 theta) = {z:+.3g} sits at the exceptional point "
            "(gamma = 2d, delta = 0); no finite rotation angle exists"
        )

    theta = 0.5 * (cmath.atan(1.0 / z) if z != 0 else 0.5 * math.pi)
    # Canonical branch: theta_r in [0, pi/2).  cot(2 theta) has period
    # pi/2 in theta, so shifting by pi/2 preserves the identity.
    theta_r = theta.real
    while theta_r < 0.0:
        theta_r += 0.5 * math.pi
    while theta_r >= 0.5 * math.pi:
        theta_r -= 0.5 * math.pi
    angle = RotationAngle(theta_r=theta_r, theta_i=theta.imag)

    residual = abs(_cot(2.0 * angle.value) - z)
    if not residual <= BACKSUB_TOL * max(1.0, abs(z)):
        raise SingularAngleError(
            f"back-substitution residual {residual:.3e} for cot(2 theta) = {z:+.6g}"
        )
    return angle


def rotation_matrix(theta: RotationAngle | complex) -> np.ndarray:
    """Complex-orthogonal rotation [[cos, -sin], [sin, cos]] (det = 1)."""
    value = theta.value if isinstance(theta, RotationAngle) else complex(theta)
    c, s = cmath.cos(value), cmath.sin(value)
    mat = np.array([[c, -s], [s, c]], dtype=complex)
    det = c * c + s * s
    if abs(det - 1.0) > 1e-12:
        raise SingularAngleError(
            f"rotation matrix determinant drifted to {det:.15g} at theta = {value:.6g} "
            "(angle too close to the exceptional point)"
        )
    return mat


def diagonalize_by_rotation(spec: LatticeSpec, k: float) -> tuple[np.ndarray, RotationAngle]:
    """Rotate the Bloch block to diagonal form: ``U H(k) U^T``.

    Returns the transformed matrix and the angle.  On the principal
    branch the plus branch of the dispersion lands in the first diagonal
    slot.  Off-diagonal leakage above 1e-10 is an error.
    """
    angle = complex_rotation_angle(spec.intra_hop, spec.delta, spec.gamma)
    u = rotation_matrix(angle)
    h = build_bloch_hamiltonian(spec, k)
    transformed = u @ h @ u.T
    leak = max(abs(transformed[0, 1]), abs(transformed[1, 0]))
    if leak > 1e-10:
        raise SingularAngleError(
            f"rotation left off-diagonal leakage {leak:.3e} at k = {k:.6g}"
        )
    return transformed, angle


@dataclass(frozen=True)
class ModeWeights:
    """Leg and rotated-basis weights of one lattice eigenstate.

    ``alpha_sq``/``beta_sq`` are the upper/lower leg weights of the
    normalised state.  ``alpha_theta_sq``/``beta_theta_sq`` are the
    weights on the two rotated cell states (the columns of ``U^T``),
    normalised so they sum to one; the rotated basis is not orthonormal,
    so its raw coefficients are rescaled by their joint norm.
    """

    alpha_sq: float
    beta_sq: float
    alpha_theta_sq: float
    beta_theta_sq: float


def mode_weights(
    state: np.ndarray, spec: LatticeSpec, theta: RotationAngle | complex
) -> ModeWeights:
    """Decompose a cell-major eigenstate over legs and rotated cell states.

    The state must be unit-normalised (2-norm within 1e-9 of one).  The
    rotated coefficients are obtained by applying the inverse of the
    basis rotation, i.e. ``U(theta)`` itself, cell by cell.
    """
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.size != spec.n_sites:
        raise ValueError(
            f"state length {psi.size} does not match 2 * n_cells = {spec.n_sites}"
        )
    weights = _weight_columns(psi[:, None], rotation_matrix(theta))
    return ModeWeights(*(float(w) for w in weights[0]))


def _weight_columns(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``mode_weights`` of every column of a cell-major ``(2N, M)`` array.

    ``u`` is ``rotation_matrix(theta)``.  Returns an ``(M, 4)`` array of
    ``alpha_sq, beta_sq, alpha_theta_sq, beta_theta_sq`` per column.
    """
    norms = np.linalg.norm(states, axis=0)
    off = np.abs(norms - 1.0)
    if np.any(off > 1e-9):
        worst = norms[np.argmax(off)]
        raise ValueError(f"state must be unit-normalised, got ||psi|| = {worst:.12g}")

    cells = states.reshape(-1, 2, states.shape[1])  # cells[n, leg, column]
    legs = np.sum(np.abs(cells) ** 2, axis=0)
    rotated = u @ cells  # U @ (a_n, b_n) per cell and column
    modes = np.sum(np.abs(rotated) ** 2, axis=0)
    total = modes.sum(axis=0)
    if np.any(total == 0.0):
        raise ValueError("state has zero weight in the rotated basis")
    return np.column_stack([legs[0], legs[1], modes[0] / total, modes[1] / total])


@dataclass(frozen=True)
class DetangledChainPair:
    """The two uniform chains produced by the theta = pi/4 rotation.

    ``f_onsite`` belongs to the leg-antisymmetric chain ``(a - b)/sqrt2``
    and equals ``+d``; ``p_onsite`` to the leg-symmetric chain
    ``(a + b)/sqrt2`` and equals ``-d``.  ``cross_coupling`` is the
    residual on-site coupling ``(delta + i*gamma)/2`` between partner
    sites of the two chains and vanishes in the Hermitian balanced case.
    """

    f_onsite: complex
    p_onsite: complex
    cross_coupling: complex
    chain_hop: float


def detangle_transform(spec: LatticeSpec) -> tuple[DetangledChainPair, np.ndarray]:
    """Rotate an open ladder by theta = pi/4 into the coupled-chain form.

    Returns the chain description and the transformed 2N x 2N matrix in
    the cell-major (f_n, p_n) basis.  The rotation is real orthogonal,
    so the transform is an exact similarity.
    """
    if spec.topology is not BoundaryTopology.OPEN:
        raise ValueError("detangling is defined for the open ladder")
    u = rotation_matrix(RotationAngle(theta_r=0.25 * math.pi, theta_i=0.0))
    w = np.kron(np.eye(spec.n_cells), u)
    ham = build_real_space_hamiltonian(spec)
    transformed = w @ ham @ w.T
    pair = DetangledChainPair(
        f_onsite=complex(spec.intra_hop),
        p_onsite=complex(-spec.intra_hop),
        cross_coupling=0.5 * (spec.delta + 1j * spec.gamma),
        chain_hop=spec.inter_hop,
    )
    return pair, transformed


def open_chain_spectrum(n_sites: int, onsite: complex, hop: float) -> np.ndarray:
    """Eigenvalues of an open uniform chain with hopping element ``-hop``."""
    m = np.arange(1, n_sites + 1)
    return onsite - 2.0 * hop * np.cos(m * math.pi / (n_sites + 1))
