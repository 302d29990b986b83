"""Invariant cones and momentum maps for finite-dimensional sp(V, omega).

V = C^d carries omega(v, w) = Im<v, w> (inner product linear in the
first argument), and elements X of sp are real-linear maps for which
omega(Xv, w) is symmetric in (v, w).  In the real 2d x 2d picture,
omega has matrix W = [[0, -1], [1, 0]] and the symmetry condition says
X_r^T W is a symmetric matrix; the canonical open cone

    W_sp = { X in sp : H_X(v) = (1/2) omega(Xv, v) > 0 for v != 0 }

is the set where that symmetric matrix is positive definite.

Every cone element admits a unique commuting positive complex structure
J = (-A^2)^{-1/2} A, and writing J = I e^x with x = (1/2) log(J^T J)
produces a symplectic g = e^{-x/2} conjugating A into the unitary
subalgebra: g I g^{-1} = J, so A' = g^{-1} A g is complex-linear with
i A' negative definite.  (With Ad(g) = g . g^{-1}, that is
A' = Ad(g)^{-1} A; the x/2 in the exponent carries the opposite sign if
Ad is taken the other way around.)

The affine picture: quadratic Hamiltonians f(v) = c + omega(x, v) +
H_A(v) with A in the cone attain their minimum at -A^{-1}x with value
c - (1/2) omega(x, A^{-1}x).

At d = 1, sp is sl(2, R) and W_sp is its lower timelike cone.

Momentum maps are sampled on projective space: for anti-hermitian x,
Phi([v])(x) = (1/i)<xv, v>/<v, v> = -i tr(x P_v), and the support
functional of the momentum set is the top eigenvalue of ix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .realmaps import (
    RealLinearMap,
    complex_to_real,
    in_algebra,
    inner,
    omega,
    random_symplectic,
    real_matrix_of_i,
    real_to_complex,
)

CONE_EIG_MIN = 1e-10


def omega_matrix(X: RealLinearMap) -> np.ndarray:
    """Real 2d x 2d matrix of the bilinear form (v, w) -> omega(Xv, w)."""
    W = real_matrix_of_i(X.d)
    return X.to_real_matrix().T @ W


@dataclass(frozen=True)
class SymplecticElement:
    """Element of sp(V, omega), validated on construction."""

    X: RealLinearMap

    def __post_init__(self):
        if not in_algebra(self.X, 1):
            raise ValueError("omega(Xv, w) is not symmetric: X is not in sp")

    @property
    def d(self) -> int:
        return self.X.d


@dataclass(frozen=True)
class QuadraticState:
    """Datum (c, x, A) of the affine Hamiltonian c + omega(x, .) + H_A."""

    c: float
    x: np.ndarray
    A: SymplecticElement

    def __post_init__(self):
        x = np.asarray(self.x, dtype=complex)
        if x.shape != (self.A.d,):
            raise ValueError("linear term has the wrong dimension")
        object.__setattr__(self, "x", x)


def _as_sp(X) -> SymplecticElement:
    if isinstance(X, SymplecticElement):
        return X
    return SymplecticElement(X)


# ---------------------------------------------------------------------------
# Hamiltonians and the cone


def hamiltonian(X, v):
    """H_X(v) = (1/2) omega(Xv, v); a stack v of shape (..., d) gives
    one value per vector."""
    Xs = _as_sp(X)
    v = np.asarray(v, dtype=complex)
    return 0.5 * omega(Xs.X.apply(v), v)


def in_cone_Wsp(X) -> bool:
    """True iff the symmetric matrix of omega(X., .) is positive definite."""
    return cone_margin(X) > CONE_EIG_MIN


def cone_margin(X) -> float:
    """Smallest eigenvalue of the Hamiltonian form; positive inside W_sp."""
    M = omega_matrix(_as_sp(X).X)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def _sym_sqrt(S: np.ndarray, power: float) -> np.ndarray:
    """S^power for symmetric positive definite S, by eigendecomposition."""
    w, Q = np.linalg.eigh(0.5 * (S + S.T))
    if w[0] <= 0.0:
        raise ValueError("matrix is not positive definite")
    return (Q * (w ** power)) @ Q.T


def positive_complex_structure(A) -> RealLinearMap:
    """J = (-A^2)^{-1/2} A for A in the cone: J^2 = -1, [J, A] = 0,
    omega(Jv, v) > 0.

    A = W S with S = `omega_matrix(A)` positive definite; with R = S^{1/2}
    and the skew K = R W R, J = R^{-1} K |K|^{-1} R, the polar complex
    structure of K (`compatible_complex_structure`) carried back.  That
    keeps J^2 = -1 to about cond(S) roundoffs, so one Newton step
    J -> (J - J^{-1})/2 of the sign function follows.
    """
    As = _as_sp(A)
    if not in_cone_Wsp(As):
        raise ValueError("A is not in the open cone W_sp")
    W = real_matrix_of_i(As.d)
    R = _sym_sqrt(omega_matrix(As.X), 0.5)
    J = np.linalg.solve(R, compatible_complex_structure(R @ W @ R) @ R)
    return RealLinearMap.from_real_matrix(0.5 * (J - np.linalg.inv(J)))


def conjugate_to_unitary(A) -> tuple[RealLinearMap, RealLinearMap]:
    """Symplectic g with A' = g^{-1} A g complex-linear and i A' < 0.

    J = (-A^2)^{-1/2}A is written as I e^x with e^x = (J^T J)^{1/2};
    g = e^{-x/2} = (J^T J)^{-1/4} then satisfies g I g^{-1} = J, which
    is exactly the statement that conjugation by g straightens A onto
    the unitary subalgebra.
    """
    As = _as_sp(A)
    J = positive_complex_structure(As)
    Jr = J.to_real_matrix()
    S = Jr.T @ Jr
    g = RealLinearMap.from_real_matrix(_sym_sqrt(S, -0.25))
    ginv = RealLinearMap.from_real_matrix(_sym_sqrt(S, 0.25))
    Aprime = ginv.compose(As.X).compose(g)
    return g, Aprime


# ---------------------------------------------------------------------------
# affine minimization


def jacobi_value(q: QuadraticState, v):
    """f(v) = c + omega(x, v) + H_A(v), one value per vector of a
    stack v of shape (..., d)."""
    v = np.asarray(v, dtype=complex)
    return q.c + omega(q.x, v) + hamiltonian(q.A, v)


def jacobi_minimum(q: QuadraticState) -> tuple[np.ndarray, float]:
    """Global minimizer -A^{-1}x and value c - (1/2) omega(x, A^{-1}x)."""
    if not in_cone_Wsp(q.A):
        raise ValueError("quadratic part is not in the cone")
    Ar = q.A.X.to_real_matrix()
    u = np.linalg.solve(Ar, complex_to_real(q.x))
    invAx = real_to_complex(u)
    value = q.c - 0.5 * omega(q.x, invAx)
    return -invAx, float(value)


def heisenberg_translate(q: QuadraticState, w) -> QuadraticState:
    """Pull the state back along the phase-space translation v -> v + w.

    f(v + w) = [c + omega(x, w) + H_A(w)] + omega(x + Aw, v) + H_A(v),
    using omega(Aw, v) = omega(Av, w) twice; the minimum value is
    unchanged because the translation is a bijection.
    """
    w = np.asarray(w, dtype=complex)
    return QuadraticState(float(jacobi_value(q, w)), q.x + q.A.X.apply(w), q.A)


# ---------------------------------------------------------------------------
# momentum maps on projective space


def _check_antihermitian(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if not in_algebra(RealLinearMap.from_linear(x), 1):
        raise ValueError("expected an anti-hermitian matrix")
    return x


def momentum_map(x, v) -> float:
    """Phi([v])(x) = (1/i)<xv, v>/<v, v> for anti-hermitian x."""
    x = _check_antihermitian(x)
    v = np.asarray(v, dtype=complex)
    nv2 = float(np.real(inner(v, v)))
    if nv2 <= 0.0:
        raise ValueError("momentum map needs a nonzero vector")
    return float((complex(inner(x @ v, v)) / (1j * nv2)).real)


def spectral_support(x) -> float:
    """sup Spec(ix): the support functional of the momentum set at x."""
    x = _check_antihermitian(x)
    return float(np.linalg.eigvalsh(1j * x)[-1])


def rayleigh_max_momentum(x, rng: np.random.Generator) -> float:
    """max over [v] of Phi([v])(-x) by shifted power iteration from 8
    random starts; an eigensolver-free check of spectral_support.

    Each start iterates until the Rayleigh quotient stops moving (or the
    cap of 20000 iterations is hit, which only happens for nearly
    degenerate top eigenvalues, where the quotient is flat anyway)."""
    x = _check_antihermitian(x)
    d = x.shape[0]
    H = 1j * x
    shift = float(np.linalg.norm(H)) + 1.0
    B = H + shift * np.eye(d)
    best = -math.inf
    for _ in range(8):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = v / np.linalg.norm(v)
        q_prev = math.inf
        for _ in range(20000):
            v = B @ v
            v = v / np.linalg.norm(v)
            q = float(np.real(np.conj(v) @ (H @ v)))
            if abs(q - q_prev) <= 1e-15 * max(1.0, abs(q)):
                break
            q_prev = q
        best = max(best, momentum_map(-x, v))
    return best


# ---------------------------------------------------------------------------
# compatible complex structures for real skew forms


def compatible_complex_structure(A) -> np.ndarray:
    """Polar complex structure J = A (-A^2)^{-1/2} of an invertible real
    skew-symmetric A.

    With omega(v, w) = v^T A w this satisfies J^2 = -1,
    omega(Jv, v) = v^T (A^T A)^{1/2} v > 0, and J is orthogonal for the
    derived inner product g(v, w) = omega(Jv, w).

    J is the orthogonal polar factor U V^T of the SVD A = U diag(s) V^T,
    which equals A (A^T A)^{-1/2} without forming A^T A, so its accuracy
    follows the condition number of A rather than its square.  It is
    well defined for any invertible A, however ill-conditioned or small;
    A counts as singular only when s_min <= n eps s_max, the rounding
    level of the SVD.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("expected a finite matrix")
    if not in_algebra(RealLinearMap.from_linear(A), 1):
        raise ValueError("expected a skew-symmetric matrix")
    U, s, Vt = np.linalg.svd(A)
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        raise ValueError("expected an invertible matrix")
    return U @ Vt


# ---------------------------------------------------------------------------
# random cone elements


def random_cone_element(rng: np.random.Generator, d: int) -> SymplecticElement:
    """Random element of W_sp: a positively twisted multiple of I,
    pushed around by a random symplectic conjugation.

    The conjugating map is exp of an sp element of scale 0.3.  Larger
    scales produce elements whose straightening conjugator g has
    condition number growing like e^(2 scale ||x||), and the roundtrip
    g^{-1} A g loses about cond(g)^2 digits in double precision, so 0.3
    keeps samples inside the regime where the postconditions of
    conjugate_to_unitary are resolvable to 1e-8.
    """
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    pos = z @ z.conj().T + (0.3 + rng.uniform()) * np.eye(d)
    D = RealLinearMap.from_linear(1j * pos)
    g = random_symplectic(rng, d, scale=0.3)
    return SymplecticElement(g.compose(D).compose(g.inverse()))
