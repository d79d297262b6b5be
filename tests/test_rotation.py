"""Complex-rotation tests: angle branch, diagonalization, mode weights."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptladder import (
    BoundaryTopology,
    LatticeSpec,
    RotationAngle,
    SingularAngleError,
    bloch_eigenvalues,
    build_real_space_hamiltonian,
    complex_rotation_angle,
    detangle_transform,
    diagonalize_by_rotation,
    eigendecompose,
    mode_weights,
    open_chain_spectrum,
    rotation_matrix,
)
from ptladder.rotation import _weight_columns


def test_unbroken_angle_frozen_value():
    angle = complex_rotation_angle(d=1.0, delta=0.0, gamma=1.0)
    assert angle.theta_r == pytest.approx(math.pi / 4, abs=1e-14)
    assert angle.theta_i == pytest.approx(-0.27465307216702745, abs=1e-14)
    assert angle.theta_i == pytest.approx(-0.5 * math.atanh(0.5), abs=1e-14)


def test_broken_angle_identity():
    angle = complex_rotation_angle(d=1.0, delta=0.0, gamma=3.0)
    assert angle.theta_r == pytest.approx(0.0, abs=1e-14)
    assert math.tanh(2.0 * angle.theta_i) == pytest.approx(-2.0 / 3.0, abs=1e-13)


def test_hermitian_angle_is_real():
    angle = complex_rotation_angle(d=1.0, delta=1.0, gamma=0.0)
    assert angle.theta_i == 0.0
    assert angle.theta_r == pytest.approx(0.5535743588970452, abs=1e-14)
    assert math.tan(2.0 * angle.theta_r) == pytest.approx(2.0, abs=1e-12)


def test_angle_rejects_exceptional_point_and_bad_input():
    with pytest.raises(SingularAngleError):
        complex_rotation_angle(d=1.0, delta=0.0, gamma=2.0)
    with pytest.raises(ValueError):
        complex_rotation_angle(d=0.0, delta=0.0, gamma=1.0)


@given(
    d=st.floats(0.2, 3.0),
    delta=st.floats(-2.0, 2.0),
    gamma=st.floats(0.0, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_angle_solves_cotangent_equation(d, delta, gamma):
    z = (delta + 1j * gamma) / (2.0 * d)
    if abs(z - 1j) < 1e-3 or abs(z + 1j) < 1e-3:
        return
    angle = complex_rotation_angle(d, delta, gamma)
    assert 0.0 <= angle.theta_r < math.pi / 2
    theta = angle.value
    resid = abs(cmath.cos(2 * theta) / cmath.sin(2 * theta) - z)
    assert resid <= 1e-12 * max(1.0, abs(z))


def test_imaginary_angle_grows_with_gain():
    gammas = np.linspace(0.0, 1.9, 20)
    magnitudes = [abs(complex_rotation_angle(1.0, 0.0, g).theta_i) for g in gammas]
    assert magnitudes[0] == 0.0
    assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))


def test_rotation_matrix_is_complex_orthogonal():
    u = rotation_matrix(RotationAngle(theta_r=0.3, theta_i=-0.2))
    np.testing.assert_allclose(u @ u.T, np.eye(2), atol=1e-14)
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-14)
    v = rotation_matrix(0.3 - 0.2j)
    np.testing.assert_array_equal(u, v)


def test_diagonalize_matches_dispersion_order():
    spec = LatticeSpec(n_cells=4, gamma=1.0)
    transformed, angle = diagonalize_by_rotation(spec, k=0.0)
    plus, minus = bloch_eigenvalues(spec, 0.0)
    assert transformed[0, 0] == pytest.approx(plus, abs=1e-12)
    assert transformed[1, 1] == pytest.approx(minus, abs=1e-12)
    assert abs(transformed[0, 1]) < 1e-12 and abs(transformed[1, 0]) < 1e-12
    assert plus == pytest.approx(-2.0 + math.sqrt(0.75), abs=1e-14)
    assert minus == pytest.approx(-2.0 - math.sqrt(0.75), abs=1e-14)


def test_diagonalize_detuned_hermitian_case():
    spec = LatticeSpec(n_cells=4, delta=2.0)
    transformed, _ = diagonalize_by_rotation(spec, k=0.0)
    assert transformed[0, 0] == pytest.approx(-2.0 + math.sqrt(2.0), abs=1e-12)
    assert transformed[1, 1] == pytest.approx(-2.0 - math.sqrt(2.0), abs=1e-12)


@given(k=st.floats(-math.pi, math.pi), gamma=st.floats(0.0, 1.8))
@settings(max_examples=60, deadline=None)
def test_diagonalize_across_band(k, gamma):
    spec = LatticeSpec(n_cells=4, gamma=gamma)
    transformed, _ = diagonalize_by_rotation(spec, k=k)
    plus, minus = bloch_eigenvalues(spec, k)
    assert abs(transformed[0, 0] - plus) < 1e-10
    assert abs(transformed[1, 1] - minus) < 1e-10


def _normalized_states(spec):
    ham = build_real_space_hamiltonian(spec)
    s = eigendecompose(ham, want_vectors=True)
    return s.eigenvalues, s.right_eigenvectors


def test_unbroken_states_balance_legs_and_pin_rotated_weight():
    spec = LatticeSpec(n_cells=10, gamma=1.0)
    angle = complex_rotation_angle(spec.intra_hop, spec.delta, spec.gamma)
    values, vectors = _normalized_states(spec)
    assert np.all(np.abs(values.imag) < 1e-9)
    for j in range(values.size):
        w = mode_weights(vectors[:, j], spec, angle)
        assert w.alpha_sq == pytest.approx(0.5, abs=1e-9)
        assert w.alpha_sq + w.beta_sq == pytest.approx(1.0, abs=1e-12)
        assert min(w.alpha_theta_sq, w.beta_theta_sq) <= 1e-6
        assert w.alpha_theta_sq + w.beta_theta_sq == pytest.approx(1.0, abs=1e-12)


def test_broken_states_split_rotated_weight_evenly():
    # gamma = 0.3 sits inside the lowest broken window of the N = 20
    # crossed ring, so two conjugate pairs are broken while gamma < 2d
    # keeps the angle on the pi/4 branch
    spec = LatticeSpec(n_cells=20, gamma=0.3, topology=BoundaryTopology.MOEBIUS)
    angle = complex_rotation_angle(spec.intra_hop, spec.delta, spec.gamma)
    values, vectors = _normalized_states(spec)
    broken = np.nonzero(np.abs(values.imag) > 1e-9)[0]
    assert broken.size == 4
    for j in broken:
        w = mode_weights(vectors[:, j], spec, angle)
        assert w.alpha_theta_sq == pytest.approx(0.5, abs=1e-6)
        assert abs(w.alpha_sq - 0.5) > 1e-4  # legs unbalance when broken


def test_mode_weights_input_validation():
    spec = LatticeSpec(n_cells=4, gamma=1.0)
    angle = complex_rotation_angle(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        mode_weights(np.ones(8), spec, angle)  # not normalised
    with pytest.raises(ValueError):
        mode_weights(np.ones(6) / math.sqrt(6), spec, angle)  # wrong length


def test_weight_columns_treat_every_column_on_its_own():
    # each row of the batch must equal the weights of its column alone,
    # computed here cell by cell with the rotation applied as U @ (a, b)
    spec = LatticeSpec(n_cells=20, gamma=0.3, topology=BoundaryTopology.MOEBIUS)
    u = rotation_matrix(complex_rotation_angle(spec.intra_hop, spec.delta, spec.gamma))
    _, vectors = _normalized_states(spec)
    batch = _weight_columns(vectors, u)
    assert batch.shape == (spec.n_sites, 4)
    for j in range(spec.n_sites):
        cells = vectors[:, j].reshape(spec.n_cells, 2)
        modes = sum(np.abs(u @ c) ** 2 for c in cells)
        want = [*np.sum(np.abs(cells) ** 2, axis=0), *(modes / modes.sum())]
        np.testing.assert_allclose(batch[j], want, rtol=0, atol=1e-14)
    vectors[:, 7] *= 1.5  # one bad column fails the whole batch
    with pytest.raises(ValueError, match="unit-normalised"):
        _weight_columns(vectors, u)


def test_detangle_is_exact_similarity():
    for gamma in (0.0, 0.5, 1.0):
        spec = LatticeSpec(n_cells=10, gamma=gamma, topology=BoundaryTopology.OPEN)
        pair, transformed = detangle_transform(spec)
        ham = build_real_space_hamiltonian(spec)
        a = np.sort_complex(np.linalg.eigvals(transformed))
        b = np.sort_complex(np.linalg.eigvals(ham))
        np.testing.assert_allclose(a, b, atol=1e-10)
        assert pair.f_onsite == 1.0 and pair.p_onsite == -1.0
        assert pair.cross_coupling == pytest.approx(0.5j * gamma, abs=1e-15)
        assert pair.chain_hop == 1.0


def test_detangle_decouples_exactly_at_zero_gain():
    spec = LatticeSpec(n_cells=6, topology=BoundaryTopology.OPEN)
    _, transformed = detangle_transform(spec)
    f_sites = np.arange(0, 12, 2)
    p_sites = np.arange(1, 12, 2)
    assert np.max(np.abs(transformed[np.ix_(f_sites, p_sites)])) < 1e-15
    assert np.max(np.abs(transformed[np.ix_(p_sites, f_sites)])) < 1e-15

    f_block = transformed[np.ix_(f_sites, f_sites)]
    p_block = transformed[np.ix_(p_sites, p_sites)]
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(f_block.real)), np.sort(open_chain_spectrum(6, 1.0, 1.0).real), atol=1e-12
    )
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(p_block.real)), np.sort(open_chain_spectrum(6, -1.0, 1.0).real), atol=1e-12
    )


def test_detangle_rejects_rings():
    with pytest.raises(ValueError):
        detangle_transform(LatticeSpec(n_cells=6))


def test_open_chain_spectrum_frozen():
    got = np.sort(open_chain_spectrum(3, 0.5, 1.0).real)
    expected = np.sort(0.5 - 2.0 * np.cos(np.array([1, 2, 3]) * math.pi / 4))
    np.testing.assert_allclose(got, expected, atol=1e-15)
    np.testing.assert_allclose(got, [0.5 - math.sqrt(2), 0.5, 0.5 + math.sqrt(2)], atol=1e-14)
