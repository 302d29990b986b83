"""Real-linear maps on C^d split into complex-linear and antilinear parts.

A real-linear g acts as g(v) = G1 v + G2 conj(v); we store the pair
(G1, G2) and keep the conjugation implicit.  The ambient inner product is
linear in the FIRST argument, <v, w> = sum_i v_i conj(w_i), with
symplectic form omega(v, w) = Im<v, w>.  Adjoints follow that convention:
the adjoint of the antilinear part satisfies <A* v, w> = <A w, v> and has
matrix G2^T (plain transpose), while the linear part uses the conjugate
transpose.

The real 2d x 2d picture identifies v = x + i y with (x, y); under it
multiplication by i becomes the block matrix [[0, -1], [1, 0]], which
also represents omega: omega(v, w) = u_v^T [[0, -1], [1, 0]] u_w.

Membership predicates for the Bogoliubov groups and their Lie algebras
live here, as one set of relations in the exchange sign (+1 symplectic,
-1 orthogonal): a real-linear g is a Bogoliubov map of sign s iff

    g1* g1 - s g2* g2 = 1   and   G1^+ G2 = s (G1^+ G2)^T

together with the transposed pair, and x is in the Lie algebra iff x1 is
skew-hermitian and X2 = s X2^T.  So s = +1 gives the symplectic group and
sp = u(d) + {antilinear hermitian}, s = -1 the orthogonal group and
o = u(d) + {antilinear skew}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PREDICATE_TOL = 1e-10

# numerator coefficients b_0..b_13 of the [13/13] Pade approximant to e^x,
# and the 1-norm up to which it meets double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant (Higham 2005): scale A by 2^-s until its 1-norm is at
    most theta_13, solve for the approximant, square s times."""
    A = np.asarray(A)
    norm = float(np.linalg.norm(A, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    b = _PADE13
    ident = np.eye(A.shape[0], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _as_square(M, d: int | None = None) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if d is not None and M.shape[0] != d:
        raise ValueError("dimension mismatch")
    return M


@dataclass(frozen=True)
class RealLinearMap:
    """g(v) = G1 v + G2 conj(v) on C^d."""

    G1: np.ndarray
    G2: np.ndarray

    def __post_init__(self):
        g1 = _as_square(self.G1)
        g2 = _as_square(self.G2, g1.shape[0])
        object.__setattr__(self, "G1", g1)
        object.__setattr__(self, "G2", g2)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_linear(cls, M) -> "RealLinearMap":
        M = _as_square(M)
        return cls(M, np.zeros_like(M))

    @classmethod
    def from_antilinear(cls, M) -> "RealLinearMap":
        M = _as_square(M)
        return cls(np.zeros_like(M), M)

    # -- structure ----------------------------------------------------

    @property
    def d(self) -> int:
        return self.G1.shape[0]

    def apply(self, v) -> np.ndarray:
        """g(v) on the last axis, so a stack of shape (..., d) maps row by row."""
        v = np.asarray(v, dtype=complex)
        return v @ self.G1.T + np.conj(v) @ self.G2.T

    def compose(self, other: "RealLinearMap") -> "RealLinearMap":
        """self o other as real-linear maps."""
        return RealLinearMap(
            self.G1 @ other.G1 + self.G2 @ np.conj(other.G2),
            self.G1 @ other.G2 + self.G2 @ np.conj(other.G1))

    def __add__(self, other):
        return RealLinearMap(self.G1 + other.G1, self.G2 + other.G2)

    def __sub__(self, other):
        return RealLinearMap(self.G1 - other.G1, self.G2 - other.G2)

    def __mul__(self, t: float):
        """Real scalar multiple (complex t would not be real-linear on
        the antilinear part in the same way; restrict to float)."""
        return RealLinearMap(t * self.G1, t * self.G2)

    __rmul__ = __mul__

    def __neg__(self):
        return RealLinearMap(-self.G1, -self.G2)

    def commutator(self, other: "RealLinearMap") -> "RealLinearMap":
        return self.compose(other) - other.compose(self)

    def inverse(self) -> "RealLinearMap":
        return RealLinearMap.from_real_matrix(
            np.linalg.inv(self.to_real_matrix()))

    def exp(self) -> "RealLinearMap":
        """Exponential of the map, via `expm` of the real 2d x 2d picture."""
        return RealLinearMap.from_real_matrix(expm(self.to_real_matrix()))

    # -- the real 2d x 2d picture -------------------------------------

    def to_real_matrix(self) -> np.ndarray:
        A, B = self.G1.real, self.G1.imag
        C, D = self.G2.real, self.G2.imag
        return np.block([[A + C, D - B], [B + D, A - C]])

    @classmethod
    def from_real_matrix(cls, R) -> "RealLinearMap":
        R = np.asarray(R, dtype=float)
        n = R.shape[0]
        if R.shape != (n, n) or n % 2 != 0:
            raise ValueError("expected an even-sized square real matrix")
        d = n // 2
        P, Q = R[:d, :d], R[:d, d:]
        S, T = R[d:, :d], R[d:, d:]
        G1 = 0.5 * ((P + T) + 1j * (S - Q))
        G2 = 0.5 * ((P - T) + 1j * (S + Q))
        return cls(G1, G2)

    # -- size queries --------------------------------------------------

    def linear_norm(self) -> float:
        return float(np.linalg.norm(self.G1))

    def antilinear_norm(self) -> float:
        return float(np.linalg.norm(self.G2))


def real_matrix_of_i(d: int) -> np.ndarray:
    """Block matrix of multiplication by i; also represents omega."""
    Z, I = np.zeros((d, d)), np.eye(d)
    return np.block([[Z, -I], [I, Z]])


def omega(v, w):
    """Symplectic form Im<v, w> with the first-argument-linear product,
    reduced over the last axis: a float for vectors, an array for stacks."""
    v, w = np.asarray(v, complex), np.asarray(w, complex)
    return np.imag(np.sum(v * np.conj(w), axis=-1))


def inner(v, w) -> complex:
    """<v, w> = sum v_i conj(w_i), linear in the first argument."""
    return complex(np.sum(np.asarray(v, complex) * np.conj(np.asarray(w, complex))))


# ---------------------------------------------------------------------------
# group and Lie-algebra membership


def _rel_err(M, target) -> float:
    return float(np.linalg.norm(M - target) / max(1.0, np.linalg.norm(target)))


def bogoliubov_defect(g: RealLinearMap, sign: int) -> float:
    """Largest residual of the Bogoliubov relations g1*g1 - sign g2*g2 = 1,
    g1 g1* - sign g2 g2* = 1, with G1^+ G2 and G1 G2^T equal to sign times
    their transposes; sign = +1 is symplectic, -1 orthogonal."""
    G1, G2 = g.G1, g.G2
    I = np.eye(g.d)
    A, B = G1.conj().T @ G2, G1 @ G2.T
    return max(
        _rel_err(G1.conj().T @ G1 - sign * (G2.T @ np.conj(G2)), I),
        _rel_err(G1 @ G1.conj().T - sign * (G2 @ G2.conj().T), I),
        float(np.linalg.norm(A - sign * A.T)),
        float(np.linalg.norm(B - sign * B.T)),
    )


def is_bogoliubov(g: RealLinearMap, sign: int) -> bool:
    return bogoliubov_defect(g, sign) <= PREDICATE_TOL


def algebra_defect(x: RealLinearMap, sign: int) -> float:
    """Residual of membership in sp (sign = +1) or o (sign = -1):
    skew-hermitian G1 and G2 = sign G2^T."""
    return max(float(np.linalg.norm(x.G1 + x.G1.conj().T)),
               float(np.linalg.norm(x.G2 - sign * x.G2.T)))


def in_algebra(x: RealLinearMap, sign: int) -> bool:
    scale = max(1.0, x.linear_norm(), x.antilinear_norm())
    return algebra_defect(x, sign) <= PREDICATE_TOL * scale


# ---------------------------------------------------------------------------
# random elements (for property checks)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_skew_hermitian(rng: np.random.Generator, d: int,
                          scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (z - z.conj().T)


def random_algebra_element(rng: np.random.Generator, d: int, sign: int,
                           scale: float = 1.0) -> RealLinearMap:
    """Random element of sp (sign = +1) or o (sign = -1): skew-hermitian
    G1 and G2 = sign G2^T."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return RealLinearMap(random_skew_hermitian(rng, d, scale),
                         scale * 0.5 * (z + sign * z.T))


def random_symplectic(rng: np.random.Generator, d: int,
                      scale: float = 0.5) -> RealLinearMap:
    return random_algebra_element(rng, d, 1, scale).exp()
