"""Symplectic cone membership, normal forms, sl2 orbits, momentum duality."""

import math

import numpy as np
import pytest

from virfock.realmaps import (
    RealLinearMap,
    bogoliubov_defect,
    omega,
    random_skew_hermitian,
    random_algebra_element,
    random_symplectic,
    random_unitary,
)
from virfock.symplectic import (
    QuadraticState,
    Sl2Element,
    SymplecticElement,
    compatible_complex_structure,
    cone_margin,
    conjugate_to_unitary,
    hamiltonian,
    heisenberg_translate,
    in_cone_Wsp,
    jacobi_minimum,
    jacobi_value,
    lorentz_form,
    momentum_map,
    orbit_type,
    positive_complex_structure,
    random_cone_element,
    rayleigh_max_momentum,
    sl2_adjoint,
    sl2_from_matrix,
    sl2_matrix,
    spectral_support,
)
from virfock.suites import SuiteConfig, run_suite


def random_vec(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


# ---------------------------------------------------------------------------
# the open cone and positive complex structures


def test_multiplication_by_i_lies_in_cone():
    J0 = RealLinearMap.from_linear(1j * np.eye(3))
    assert in_cone_Wsp(J0)
    assert cone_margin(J0) > 0.9


def test_negative_definite_hermitian_generator_in_cone():
    # X = iS with S positive definite has H_X > 0
    rng = np.random.default_rng(70)
    for _ in range(10):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        S = m @ m.conj().T + 0.1 * np.eye(3)
        X = RealLinearMap.from_linear(1j * S)
        assert in_cone_Wsp(X)
        indefinite = RealLinearMap.from_linear(1j * (S - np.trace(S).real * np.eye(3)))
        assert not in_cone_Wsp(indefinite)


def test_symplectic_element_rejects_maps_outside_sp():
    rng = np.random.default_rng(69)
    x = random_algebra_element(rng, 3, 1)
    z = random_vec(rng, 9).reshape(3, 3)
    SymplecticElement(x)
    with pytest.raises(ValueError, match="not in sp"):
        SymplecticElement(RealLinearMap(x.G1, x.G2 + 1e-6 * (z - z.T)))
    with pytest.raises(ValueError, match="not in sp"):
        SymplecticElement(RealLinearMap(x.G1 + 1e-6 * (z + z.conj().T), x.G2))
    for d in range(1, 5):
        A = random_cone_element(rng, d)
        assert SymplecticElement(A.X).X is A.X


def test_hamiltonian_positive_on_cone_samples():
    rng = np.random.default_rng(71)
    A = random_cone_element(rng, 3)
    for _ in range(50):
        v = random_vec(rng, 3)
        assert hamiltonian(A, v) > 0.0


def test_positive_complex_structure_postconditions():
    rng = np.random.default_rng(72)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        A = random_cone_element(rng, d)
        J = positive_complex_structure(A)
        JJ = J.compose(J)
        assert (JJ + RealLinearMap.identity(d)).to_real_matrix().max() < 1e-9
        comm = J.compose(A.X) - A.X.compose(J)
        assert np.abs(comm.to_real_matrix()).max() < 1e-9
        for _ in range(10):
            v = random_vec(rng, d)
            assert omega(J.apply(v), v) > 0.0


def test_positive_complex_structure_matches_the_eigenvector_sign():
    # J = (-A^2)^{-1/2} A is i sgn(Im lambda) on each eigenvector of A
    rng = np.random.default_rng(77)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        A = random_cone_element(rng, d)
        lam, V = np.linalg.eig(A.X.to_real_matrix())
        sign = (V * (1j * np.sign(lam.imag))) @ np.linalg.inv(V)
        J = positive_complex_structure(A).to_real_matrix()
        assert np.linalg.norm(J - sign) <= 1e-10 * np.linalg.norm(sign)


def test_positive_complex_structure_of_ill_conditioned_cone_elements():
    # omega_matrix(A) has condition number near 1e9 here: the SVD of
    # R W R must not be rejected as singular, and J^2 = -1 must survive
    rng = np.random.default_rng(78)
    for _ in range(10):
        D = RealLinearMap.from_linear(1j * np.diag([1.0, 1e-8, 0.5]))
        g = random_symplectic(rng, 3, scale=0.3)
        A = g @ D @ g.inverse()
        assert in_cone_Wsp(A)
        J = positive_complex_structure(A).to_real_matrix()
        Ar = A.to_real_matrix()
        assert np.linalg.norm(J @ J + np.eye(6)) <= 1e-12
        assert np.linalg.norm(J @ Ar - Ar @ J) <= 1e-9 * np.linalg.norm(Ar)


def test_cone_invariant_under_symplectic_conjugation():
    rng = np.random.default_rng(73)
    for _ in range(10):
        A = random_cone_element(rng, 3)
        g = random_symplectic(rng, 3, scale=0.4)
        conj = g @ A.X @ g.inverse()
        assert in_cone_Wsp(conj)


def test_conjugate_to_unitary_normal_form():
    rng = np.random.default_rng(74)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        A = random_cone_element(rng, d)
        g, Aprime = conjugate_to_unitary(A)
        assert bogoliubov_defect(g, 1) < 1e-8
        # the conjugated generator is complex linear with i A' <= 0
        assert np.abs(Aprime.G2).max() < 1e-8
        S = 1j * Aprime.G1
        S = 0.5 * (S + S.conj().T)
        assert np.linalg.eigvalsh(S)[-1] < 1e-8
        # and it reproduces A under conjugation by g
        back = g @ Aprime @ g.inverse()
        assert np.abs((back - A.X).to_real_matrix()).max() < 1e-8


# ---------------------------------------------------------------------------
# Jacobi minima of affine Hamiltonians


def quadratic_state(rng, d):
    A = random_cone_element(rng, d)
    x = random_vec(rng, d)
    return QuadraticState(float(rng.normal()), x, A)


def test_jacobi_minimum_closed_form_dominates_samples():
    rng = np.random.default_rng(75)
    for _ in range(5):
        q = quadratic_state(rng, 3)
        vmin, fmin = jacobi_minimum(q)
        assert abs(jacobi_value(q, vmin) - fmin) < 1e-10
        # the stream of 2000 random_vec draws, evaluated as one stack
        z = rng.normal(size=(2000, 2, 3))
        V = 3.0 * (z[:, 0] + 1j * z[:, 1])
        assert np.all(jacobi_value(q, V) >= fmin - 1e-9)


def test_jacobi_minimum_invariant_under_translation():
    rng = np.random.default_rng(76)
    for _ in range(10):
        q = quadratic_state(rng, 2)
        w = random_vec(rng, 2)
        _, fmin = jacobi_minimum(q)
        _, fmin_t = jacobi_minimum(heisenberg_translate(q, w))
        assert abs(fmin - fmin_t) < 1e-9


# ---------------------------------------------------------------------------
# stacks of vectors


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_evaluation_matches_per_vector_values(d):
    rng = np.random.default_rng(90 + d)
    q = quadratic_state(rng, d)
    V = np.array([3.0 * random_vec(rng, d) for _ in range(60)])
    W = np.array([random_vec(rng, d) for _ in range(60)])
    for stacked, single in ((omega(V, W), [omega(v, w) for v, w in zip(V, W)]),
                            (hamiltonian(q.A, V), [hamiltonian(q.A, v) for v in V]),
                            (jacobi_value(q, V), [jacobi_value(q, v) for v in V])):
        single = np.array(single)
        assert stacked.shape == (60,)
        assert np.all(np.abs(stacked - single)
                      <= 1e-14 * np.maximum(1.0, np.abs(single)))
    # any leading shape: (..., d) in, (...) out
    grid = jacobi_value(q, V.reshape(3, 20, d))
    assert grid.shape == (3, 20)
    assert np.array_equal(grid.ravel(), jacobi_value(q, V))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_draws_are_the_per_sample_draws(d):
    # the stacked samplers of criterion 13 and symplectic-cones/05 draw
    # the same points as n pairs of rng.normal(size=d) calls
    a, b = np.random.default_rng(d), np.random.default_rng(d)
    z = a.normal(size=(500, 2, d))
    stacked = z[:, 0] + 1j * z[:, 1]
    single = np.array([b.normal(size=d) + 1j * b.normal(size=d)
                       for _ in range(500)])
    assert np.array_equal(stacked, single)
    assert np.array_equal(a.normal(size=3), b.normal(size=3))


# ---------------------------------------------------------------------------
# sl2 and the Lorentz form


def test_lorentz_form_diagonal():
    h, u, t = Sl2Element(1, 0, 0), Sl2Element(0, 1, 0), Sl2Element(0, 0, 1)
    assert lorentz_form(h, h) == pytest.approx(-2.0, abs=1e-14)
    assert lorentz_form(u, u) == pytest.approx(2.0, abs=1e-14)
    assert lorentz_form(t, t) == pytest.approx(-2.0, abs=1e-14)
    assert abs(lorentz_form(h, u)) < 1e-14
    assert abs(lorentz_form(h, t)) < 1e-14
    assert abs(lorentz_form(u, t)) < 1e-14


def test_sl2_matrix_roundtrip():
    a = Sl2Element(0.3, -1.2, 0.7)
    b = sl2_from_matrix(sl2_matrix(a))
    assert np.allclose(a.coords(), b.coords(), atol=1e-14)


def test_orbit_type_constant_along_orbits():
    rng = np.random.default_rng(77)
    samples = [Sl2Element(0.0, 1.0, 0.0), Sl2Element(1.0, 0.0, 0.0),
               Sl2Element(0.0, 1.0, 1.0), Sl2Element(0.2, 0.9, -0.3)]
    for a in samples:
        want = orbit_type(a)
        for _ in range(10):
            g = np.eye(2)
            for _ in range(3):
                x = 0.3 * rng.normal()
                gen = rng.choice(3)
                m = [np.array([[1.0, 0.0], [0.0, -1.0]]),
                     np.array([[0.0, 1.0], [-1.0, 0.0]]),
                     np.array([[0.0, 1.0], [1.0, 0.0]])][gen]
                from scipy.linalg import expm
                g = g @ expm(x * m)
            assert orbit_type(sl2_adjoint(g, a)) == want


def test_boost_orbit_of_timelike_vector_is_unbounded():
    from scipy.linalg import expm

    u = Sl2Element(0.0, 1.0, 0.0)
    beta0 = lorentz_form(u, u)
    ys = []
    for s in np.linspace(0.0, 4.0, 9):
        g = expm(0.5 * s * np.array([[1.0, 0.0], [0.0, -1.0]]))
        moved = sl2_adjoint(g, u)
        assert abs(lorentz_form(moved, moved) - beta0) < 1e-9
        ys.append(moved.y)
        assert abs(moved.y - math.cosh(s)) < 1e-9
    assert all(b > a for a, b in zip(ys, ys[1:]))
    assert ys[-1] > 25.0


# ---------------------------------------------------------------------------
# momentum map and spectral support


def test_momentum_map_is_rayleigh_quotient():
    rng = np.random.default_rng(78)
    x = random_skew_hermitian(rng, 3)
    for _ in range(20):
        v = random_vec(rng, 3)
        got = momentum_map(x, v)
        H = 1j * x
        want = float(np.real(np.conj(v) @ (H @ v)) / np.real(np.conj(v) @ v))
        assert abs(got + want) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_momentum_map_is_the_projection_trace(d):
    # Phi([v])(x) = -i tr(x P_v) with P_v the orthogonal projection on C v
    rng = np.random.default_rng(84 + d)
    for _ in range(20):
        x = random_skew_hermitian(rng, d)
        v = random_vec(rng, d)
        P = np.outer(v, v.conj()) / np.vdot(v, v).real
        want = -1j * np.trace(x @ P)
        assert abs(want.imag) <= 1e-12 * max(1.0, abs(want))
        assert abs(momentum_map(x, v) - want.real) <= 1e-12 * max(1.0, abs(want))


def test_spectral_support_equals_rayleigh_maximum():
    rng = np.random.default_rng(79)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        x = random_skew_hermitian(rng, d)
        lhs = spectral_support(x)
        rhs = rayleigh_max_momentum(x, rng)
        assert abs(lhs - rhs) < 1e-8


def test_spectral_support_oracle():
    rng = np.random.default_rng(80)
    x = random_skew_hermitian(rng, 4)
    want = float(np.max(np.linalg.eigvalsh(1j * x)))
    assert abs(spectral_support(x) - want) < 1e-12


def test_momentum_map_equivariance():
    rng = np.random.default_rng(81)
    for _ in range(10):
        x = random_skew_hermitian(rng, 3)
        U = random_unitary(rng, 3)
        v = random_vec(rng, 3)
        lhs = momentum_map(x, U @ v)
        rhs = momentum_map(U.conj().T @ x @ U, v)
        assert abs(lhs - rhs) < 1e-12


def test_spectral_support_sublinear_and_invariant():
    rng = np.random.default_rng(82)
    for _ in range(10):
        x = random_skew_hermitian(rng, 4)
        y = random_skew_hermitian(rng, 4)
        assert spectral_support(x + y) <= spectral_support(x) + spectral_support(y) + 1e-10
        U = random_unitary(rng, 4)
        assert abs(spectral_support(U.conj().T @ x @ U) - spectral_support(x)) < 1e-10


# ---------------------------------------------------------------------------
# compatible complex structures from invertible skew forms


@pytest.mark.parametrize("two_d", [2, 4, 6, 8])
def test_compatible_complex_structure_postconditions(two_d):
    rng = np.random.default_rng(83 + two_d)
    for _ in range(12):
        m = rng.normal(size=(two_d, two_d))
        A = m - m.T
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        J = compatible_complex_structure(A)
        assert np.abs(J @ J + np.eye(two_d)).max() < 1e-9
        G = J.T @ A
        assert np.abs(G - G.T).max() < 1e-9
        assert np.linalg.eigvalsh(0.5 * (G + G.T))[0] > -1e-9
        assert np.abs(J.T @ G @ J - G).max() < 1e-9


def test_compatible_complex_structure_ill_conditioned_form():
    # A = Q diag(lam_i [[0, 1], [-1, 0]]) Q^T with condition number 1e5:
    # forming A^T A would square it to 1e10.
    rng = np.random.default_rng(97)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A = Q @ np.kron(np.diag([1e-4, 1.0, 10.0]), block) @ Q.T
    A = 0.5 * (A - A.T)
    J = compatible_complex_structure(A)
    G = J.T @ A
    assert np.linalg.norm(J @ J + np.eye(6)) <= 1e-11
    assert -np.linalg.eigvalsh(0.5 * (G + G.T))[0] <= 1e-11
    assert np.linalg.norm(J.T @ G @ J - G) <= 1e-11


def test_compatible_complex_structure_is_scale_invariant():
    # the polar factor of t A is that of A for every t > 0
    rng = np.random.default_rng(98)
    m = rng.normal(size=(6, 6))
    A = m - m.T
    assert np.abs(compatible_complex_structure(1e-8 * A)
                  - compatible_complex_structure(A)).max() <= 1e-13


BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("A", [np.kron(np.diag([1.0, 1e-8]), BLOCK),
                               1e-8 * np.kron(np.eye(2), BLOCK)],
                         ids=["condition-1e8", "norm-1e-8"])
def test_compatible_complex_structure_of_well_defined_small_forms(A):
    # both are invertible; a guard on s_min^2 / s_max^2 took them as singular
    J = compatible_complex_structure(A)
    assert np.abs(J @ J + np.eye(4)).max() <= 1e-12
    G = J.T @ A
    assert np.linalg.eigvalsh(0.5 * (G + G.T))[0] > 0.0


def _block_form(first, second):
    A = np.zeros((4, 4))
    A[0, 1], A[2, 3] = first, second
    return A - A.T


@pytest.mark.parametrize("A", [_block_form(1.0, 0.0), _block_form(0.0, 0.0),
                               _block_form(1.0, np.nan),
                               _block_form(1.0, np.inf)],
                         ids=["zero-block", "zero", "nan", "inf"])
def test_compatible_complex_structure_rejects_singular_and_non_finite_forms(A):
    with pytest.raises(ValueError):
        compatible_complex_structure(A)


@pytest.mark.parametrize("seed", [75, 763814656])
def test_suite_compatible_structure_passes_at_ill_conditioned_seeds(seed):
    report = run_suite(SuiteConfig(suite="symplectic-cones", seed=seed))
    (c13,) = [c for c in report.checks if c.check_id == "13-compatible-structure"]
    assert c13.passed, c13.residual
