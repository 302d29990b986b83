"""Fourier-truncated smooth calculus on the circle S^1 = R/(2 pi Z).

Functions are trigonometric polynomials f(theta) = sum_{|k| <= N} c_k
e^{i k theta}; vector fields f(theta) d/dtheta, s-densities u(theta)
(dtheta)^s and orientation-preserving diffeomorphisms phi(theta) = theta
+ p(theta) are thin wrappers over the same coefficient arrays.  Linear
operations (derivative, integration, the two 2-cocycles) are exact on
coefficients; nonlinear operations (products, compositions, Schwarzian
derivatives) are evaluated pointwise on uniform grids large enough to be
alias-free and re-expanded by FFT.

Complex coefficient fields are allowed throughout so that the Witt basis
d_n = i e^{i n theta} d/dtheta can be manipulated directly; everything at
the group level (diffeomorphisms, flows) insists on real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Default truncation degree and the matching validity grid M = 4N + 1.
DEFAULT_DEGREE = 32

#: Tolerance for the reality invariant c_{-k} = conj(c_k).
REALITY_TOL = 1e-12


class FourierFunction:
    """Truncated Fourier series with coefficients c_k for |k| <= N.

    Parameters
    ----------
    coeffs : array_like
        Complex coefficients of length 2N + 1, ordered k = -N .. N.
    real : bool or None
        If True, enforce the reality invariant c_{-k} = conj(c_k) to
        within ``REALITY_TOL`` (raising ValueError on failure); if None,
        detect it.
    """

    __slots__ = ("coeffs", "degree", "real_flag")

    def __init__(self, coeffs, real: bool | None = None):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coeffs must have odd length 2N+1")
        self.coeffs = c
        self.degree = c.size // 2
        sym = np.max(np.abs(np.conj(c[::-1]) - c)) if c.size else 0.0
        if real is True and sym > REALITY_TOL:
            raise ValueError(f"reality violated: max |conj(c_-k) - c_k| = {sym:.3e}")
        self.real_flag = bool(sym <= REALITY_TOL) if real is None else bool(real)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree: int = DEFAULT_DEGREE) -> "FourierFunction":
        return cls(np.zeros(2 * degree + 1, dtype=complex))

    @classmethod
    def constant(cls, value, degree: int = DEFAULT_DEGREE) -> "FourierFunction":
        c = np.zeros(2 * degree + 1, dtype=complex)
        c[degree] = value
        return cls(c)

    @classmethod
    def from_dict(cls, modes: dict, degree: int) -> "FourierFunction":
        """Build from {k: c_k}; unspecified modes are zero."""
        c = np.zeros(2 * degree + 1, dtype=complex)
        for k, v in modes.items():
            if abs(k) > degree:
                raise ValueError(f"mode {k} exceeds degree {degree}")
            c[k + degree] = v
        return cls(c)

    @classmethod
    def from_grid(cls, values, degree: int,
                  real: bool | None = None) -> "FourierFunction":
        """Least-degree-(N) fit from samples on the uniform grid
        theta_j = 2 pi j / M, exact for trig polynomials of degree <= N
        when M >= 2N + 1."""
        values = np.asarray(values, dtype=complex)
        M = values.size
        if M < 2 * degree + 1:
            raise ValueError("need at least 2N+1 samples for degree N")
        a = np.fft.fft(values) / M
        return cls(a[np.arange(-degree, degree + 1) % M], real=real)

    # -- basic queries ------------------------------------------------

    def coeff(self, k: int) -> complex:
        if abs(k) > self.degree:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.degree])

    def padded(self, degree: int) -> "FourierFunction":
        """Same function at a larger (or equal) truncation degree."""
        if degree < self.degree:
            raise ValueError("padded() cannot shrink; use truncated()")
        c = np.zeros(2 * degree + 1, dtype=complex)
        c[degree - self.degree: degree + self.degree + 1] = self.coeffs
        return FourierFunction(c, real=self.real_flag or None)

    def truncated(self, degree: int) -> "FourierFunction":
        """Drop modes with |k| > degree."""
        if degree >= self.degree:
            return self.padded(degree)
        lo, hi = self.degree - degree, self.degree + degree + 1
        return FourierFunction(self.coeffs[lo:hi])

    def evaluate(self, theta):
        """Pointwise values at arbitrary angles (any shape, 0-d included);
        real output for real functions.

        Horner's rule in z = e^{i theta}.  A real function is folded onto
        its k >= 0 half, a_0 = Re c_0 and a_k = c_k + conj(c_{-k}), and
        evaluated as Re sum_{k>=0} a_k z^k, which equals Re sum_k c_k z^k
        even where the reality invariant holds only to ``REALITY_TOL``; a
        complex one as e^{-i N theta} sum_{j=0}^{2N} c_{j-N} z^j.  The cost
        on M angles is one or two exponentials per angle and N (real) or
        2N (complex) multiply-adds on M-vectors, O(M N) in all, with no
        M x (2N+1) table of exponentials.
        """
        theta = np.asarray(theta, dtype=float)
        N, c = self.degree, self.coeffs
        if self.real_flag:
            c = np.concatenate(([c[N].real], c[N + 1:] + np.conj(c[N - 1::-1])))
        z = np.exp(1j * theta)
        acc = np.full(theta.shape, c[-1], dtype=complex)
        for ck in c[-2::-1]:
            acc *= z
            acc += ck
        return acc.real if self.real_flag else acc * np.exp(-1j * N * theta)

    def grid_values(self, M: int):
        """Values on the uniform grid theta_j = 2 pi j / M via FFT."""
        if M < 2 * self.degree + 1:
            raise ValueError("grid too coarse for this degree")
        a = np.zeros(M, dtype=complex)
        a[np.arange(-self.degree, self.degree + 1) % M] = self.coeffs
        vals = np.fft.ifft(a) * M
        return vals.real if self.real_flag else vals

    def sup_norm(self, M: int | None = None) -> float:
        M = M or (8 * max(self.degree, 1) + 1)
        return float(np.max(np.abs(self.grid_values(M))))

    def is_real(self, tol: float = REALITY_TOL) -> bool:
        return bool(np.max(np.abs(np.conj(self.coeffs[::-1]) - self.coeffs)) <= tol)

    # -- linear arithmetic --------------------------------------------

    def _binary(self, other, sign) -> "FourierFunction":
        n = max(self.degree, other.degree)
        a, b = self.padded(n), other.padded(n)
        return FourierFunction(a.coeffs + sign * b.coeffs)

    def __add__(self, other): return self._binary(other, 1.0)

    def __sub__(self, other): return self._binary(other, -1.0)

    def __neg__(self): return FourierFunction(-self.coeffs)

    def __mul__(self, scalar):
        return FourierFunction(self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"FourierFunction(degree={self.degree}, "
                f"real={self.real_flag}, |c|={np.linalg.norm(self.coeffs):.3g})")


@dataclass(frozen=True)
class VectorField:
    """Vector field f(theta) d/dtheta on the circle."""

    f: FourierFunction

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def real_flag(self) -> bool:
        return self.f.real_flag

    def __add__(self, other): return VectorField(self.f + other.f)

    def __sub__(self, other): return VectorField(self.f - other.f)

    def __mul__(self, scalar): return VectorField(self.f * scalar)

    __rmul__ = __mul__

    def __neg__(self): return VectorField(-self.f)


@dataclass(frozen=True)
class Density:
    """s-density u(theta) (dtheta)^s; s = -1 are vector fields, s = 2 the
    quadratic densities dual to them."""

    u: FourierFunction
    s: float

    @property
    def degree(self) -> int:
        return self.u.degree


class CircleDiffeo:
    """Orientation-preserving diffeomorphism phi(theta) = theta + p(theta).

    The displacement p is a real trigonometric polynomial; validity
    (phi' = 1 + p' > 0) is checked on the uniform grid with
    M = max(4N+1, 129) points at construction time.
    """

    __slots__ = ("p", "grid_size", "min_derivative")

    def __init__(self, p: FourierFunction, grid_size: int | None = None):
        if not p.is_real():
            raise ValueError("diffeomorphism displacement must be real")
        self.p = FourierFunction(p.coeffs, real=True)
        M = grid_size or max(4 * p.degree + 1, 129)
        dp = derivative(self.p).grid_values(M)
        self.grid_size = M
        self.min_derivative = float(1.0 + np.min(dp))
        if self.min_derivative <= 0.0:
            raise ValueError(
                f"not a diffeomorphism: min phi' = {self.min_derivative:.3e}")

    @classmethod
    def identity(cls, degree: int = DEFAULT_DEGREE) -> "CircleDiffeo":
        return cls(FourierFunction.zero(degree))

    @classmethod
    def rotation(cls, alpha: float, degree: int = DEFAULT_DEGREE) -> "CircleDiffeo":
        return cls(FourierFunction.constant(float(alpha), degree))

    @property
    def degree(self) -> int:
        return self.p.degree

    def evaluate(self, theta):
        """phi(theta) = theta + p(theta)."""
        return np.asarray(theta, dtype=float) + self.p.evaluate(theta)

    def derivative_values(self, theta):
        """phi'(theta) = 1 + p'(theta)."""
        return 1.0 + derivative(self.p).evaluate(theta)

    def __repr__(self):
        return (f"CircleDiffeo(degree={self.degree}, "
                f"min_phi'={self.min_derivative:.3g})")


# ---------------------------------------------------------------------------
# coefficient-exact linear operations


def grid_points(M: int) -> np.ndarray:
    """The uniform grid theta_j = 2 pi j / M, j = 0 .. M-1."""
    return TWO_PI * np.arange(M) / M


def derivative(f: FourierFunction, order: int = 1) -> FourierFunction:
    """Exact spectral derivative: (f')_k = (ik) c_k, iterated ``order``
    times."""
    ks = np.arange(-f.degree, f.degree + 1)
    return FourierFunction(f.coeffs * (1j * ks) ** order)


def integrate(f: FourierFunction) -> complex:
    """Invariant integral over [0, 2 pi]: equals 2 pi c_0."""
    val = TWO_PI * f.coeff(0)
    return val.real if f.real_flag else val


def pairing_integral(f: FourierFunction, g: FourierFunction) -> complex:
    """Exact integral of the product: 2 pi sum_k f_k g_{-k}."""
    n = max(f.degree, g.degree)
    a, b = f.padded(n).coeffs, g.padded(n).coeffs
    return TWO_PI * complex(np.dot(a, b[::-1]))


def multiply(f: FourierFunction, g: FourierFunction,
             degree: int | None = None) -> FourierFunction:
    """Pointwise product, alias-free.

    Computed as the exact coefficient convolution at degree N_f + N_g
    (equivalently: sampled on any uniform grid with M >= 2(N_f+N_g) + 1
    points and transformed back), then re-truncated to
    ``max(N_f, N_g)`` unless the caller requests another degree.
    """
    full = np.convolve(f.coeffs, g.coeffs)
    prod = FourierFunction(full)
    target = max(f.degree, g.degree) if degree is None else degree
    return prod.truncated(target) if target < prod.degree else prod.padded(target)


def lie_bracket(X: VectorField, Y: VectorField,
                degree: int | None = None) -> VectorField:
    """[f d, g d] = (f g' - f' g) d, exact up to the final truncation."""
    f, g = X.f, Y.f
    full = max(f.degree + g.degree, 1)
    fg = multiply(f, derivative(g), degree=full)
    gf = multiply(derivative(f), g, degree=full)
    target = max(f.degree, g.degree) if degree is None else degree
    return VectorField((fg - gf).truncated(target)
                       if target < full else (fg - gf).padded(target))


def gelfand_fuchs(X: VectorField, Y: VectorField) -> complex:
    """The 2-cocycle integral of f' g'' over the circle, exact on
    coefficients."""
    return pairing_integral(derivative(X.f), derivative(Y.f, 2))


def omega_cocycle(X: VectorField, Y: VectorField) -> complex:
    """The normalized 2-cocycle: integral of (f''' + f') g.

    Differs from :func:`gelfand_fuchs` by the coboundary of
    lam(f d) = integral of f; on the Witt basis it takes the values
    omega(d_n, d_{-n}) = 2 pi i (n^3 - n).
    """
    f = X.f
    return pairing_integral(derivative(f, 3) + derivative(f), Y.f)


def witt_generator(n: int, degree: int | None = None) -> VectorField:
    """d_n = i e^{i n theta} d/dtheta (complex field; d_n* = d_{-n})."""
    deg = degree if degree is not None else max(abs(n), 1)
    if abs(n) > deg:
        raise ValueError("degree too small for this generator")
    return VectorField(FourierFunction.from_dict({n: 1j}, deg))


# ---------------------------------------------------------------------------
# densities and the diffeomorphism action


def pullback_density(phi: CircleDiffeo, rho: Density,
                     grid_size: int | None = None) -> Density:
    """Pullback (u o phi) (phi')^s (dtheta)^s of an s-density.

    Evaluated pointwise on a uniform grid of M = 8N points (N the larger
    of the two degrees) and re-expanded; s = -1 reproduces the adjoint
    action on vector fields, s = 2 the coadjoint one on its dual.
    """
    n = max(rho.degree, phi.degree)
    M = grid_size or 8 * max(n, 4)
    theta = grid_points(M)
    vals = rho.u.evaluate(phi.evaluate(theta)) \
        * phi.derivative_values(theta) ** rho.s
    return Density(FourierFunction.from_grid(vals, n), rho.s)


def pullback_field(phi: CircleDiffeo, X: VectorField,
                   grid_size: int | None = None) -> VectorField:
    """Vector-field pullback (f o phi) / phi', the s = -1 density law."""
    rho = pullback_density(phi, Density(X.f, -1.0), grid_size)
    return VectorField(rho.u)


def lie_derivative(X: VectorField, rho: Density) -> Density:
    """L_X (u (dtheta)^s) = (f u' + s f' u) (dtheta)^s, the derivative of
    the pullback along the flow of X."""
    f, u = X.f, rho.u
    full = max(f.degree + u.degree, 1)
    a = multiply(f, derivative(u), degree=full)
    b = multiply(derivative(f), u, degree=full)
    target = max(f.degree, u.degree)
    return Density((a + rho.s * b).truncated(target), rho.s)


def compose(phi: CircleDiffeo, psi: CircleDiffeo,
            grid_size: int | None = None) -> CircleDiffeo:
    """Plain composition phi o psi (callers pick their group convention).

    Sampled on M = 8N points and refit; the displacement of the result is
    p_psi + p_phi o psi.
    """
    n = max(phi.degree, psi.degree)
    M = grid_size or 8 * max(n, 4)
    theta = grid_points(M)
    vals = psi.p.evaluate(theta) + phi.p.evaluate(psi.evaluate(theta))
    return CircleDiffeo(FourierFunction.from_grid(vals, n, real=None))


NEWTON_MAX_ITER = 50


def invert(phi: CircleDiffeo, grid_size: int | None = None) -> CircleDiffeo:
    """Inverse diffeomorphism by per-gridpoint Newton iteration.

    Solves phi(x_j) = theta_j on the uniform grid; monotonicity of phi
    guarantees a unique solution and quadratic convergence from the
    identity initial guess.  Raises RuntimeError if the residual has not
    reached 1e-13 sup-norm within ``NEWTON_MAX_ITER`` sweeps.
    """
    n = phi.degree
    M = grid_size or 8 * max(n, 4)
    theta = grid_points(M)
    dp = derivative(phi.p)
    x = theta.copy()
    for _ in range(NEWTON_MAX_ITER):
        res = x + phi.p.evaluate(x) - theta
        if np.max(np.abs(res)) < 1e-13:
            break
        x = x - res / (1.0 + dp.evaluate(x))
    else:
        raise RuntimeError("Newton inversion did not converge in "
                           f"{NEWTON_MAX_ITER} iterations")
    return CircleDiffeo(FourierFunction.from_grid(x - theta, n, real=None))


# ---------------------------------------------------------------------------
# Schwarzian derivatives


def schwarzian(phi: CircleDiffeo, grid_size: int | None = None) -> FourierFunction:
    """Schwarzian derivative S(phi) = phi'''/phi' - (3/2)(phi''/phi')^2.

    The derivatives of p are exact in coefficients; the rational
    expression is formed pointwise on an 8N grid and re-expanded to the
    degree of phi.
    """
    M = grid_size or 8 * max(phi.degree, 4)
    vals = _schwarzian(phi, lambda f: f.grid_values(M), modified=False)
    return FourierFunction.from_grid(vals, phi.degree)


def modified_schwarzian(phi: CircleDiffeo,
                        grid_size: int | None = None) -> FourierFunction:
    """S~(phi) = S(phi) + (1/2)((phi')^2 - 1); its derivative at the
    identity in direction f d/dtheta is f''' + f'."""
    M = grid_size or 8 * max(phi.degree, 4)
    vals = _schwarzian(phi, lambda f: f.grid_values(M), modified=True)
    return FourierFunction.from_grid(vals, phi.degree)


def schwarzian_values(phi: CircleDiffeo, theta,
                      modified: bool = False) -> np.ndarray:
    """S(phi) (or S~(phi)) at arbitrary angles, straight from the exact
    coefficient derivatives of the displacement; no grid refit."""
    theta = np.asarray(theta, dtype=float)
    return np.real(_schwarzian(phi, lambda f: f.evaluate(theta), modified))


def _schwarzian(phi: CircleDiffeo, sample, modified: bool) -> np.ndarray:
    """S(phi), or S~(phi) when ``modified``, pointwise from phi', phi'' and
    phi''', each sampled by ``sample`` from the exact coefficient
    derivatives of the displacement."""
    d1 = 1.0 + sample(derivative(phi.p, 1))
    d2 = sample(derivative(phi.p, 2))
    d3 = sample(derivative(phi.p, 3))
    vals = d3 / d1 - 1.5 * (d2 / d1) ** 2
    if modified:
        vals = vals + 0.5 * (d1 ** 2 - 1.0)
    return vals


def schwarzian_cocycle_residual(phi: CircleDiffeo, psi: CircleDiffeo,
                                grid_size: int = 256,
                                modified: bool = False) -> float:
    """Sup over the grid of S(phi o psi) - (S(phi) o psi)(psi')^2 - S(psi).

    The left side goes through the truncated composition, so the value
    measures how well the chain rule survives the refit; the modified
    Schwarzian obeys the identical identity because the correction term
    (1/2)((phi')^2 - 1) is itself a cocycle for the (psi')^2 action.
    """
    theta = grid_points(grid_size)
    comp = compose(phi, psi)
    lhs = schwarzian_values(comp, theta, modified)
    rhs = schwarzian_values(phi, psi.evaluate(theta), modified) \
        * psi.derivative_values(theta) ** 2 \
        + schwarzian_values(psi, theta, modified)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# flows and sampling


RK4_MAX_STEP = 1e-2


def flow(X: VectorField, t: float = 1.0,
         degree: int | None = None, grid_size: int | None = None) -> CircleDiffeo:
    """Time-t flow of the (real) vector field f d/dtheta as a
    diffeomorphism.

    Integrates theta' = f(theta) from every grid point with classical
    4th-order Runge-Kutta at step <= 1e-2 and refits the displacement.
    """
    if not X.real_flag:
        raise ValueError("flows are defined for real vector fields only")
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, not {t}")
    n = degree or max(X.degree, DEFAULT_DEGREE)
    M = grid_size or 8 * max(n, 4)
    theta = grid_points(M)
    steps = max(1, int(np.ceil(abs(t) / RK4_MAX_STEP)))
    h = t / steps
    f = X.f.evaluate
    x = theta.copy()
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return CircleDiffeo(FourierFunction.from_grid(x - theta, n, real=None))


def random_diffeo(rng: np.random.Generator, degree: int = DEFAULT_DEGREE,
                  modes: int = 6, amplitude: float = 0.1,
                  max_slope: float = 0.5) -> CircleDiffeo:
    """Random small diffeomorphism with displacement supported on low
    modes (geometrically damped), rescaled so that sup |p'| <= max_slope."""
    p = np.zeros(2 * degree + 1, dtype=complex)
    for k in range(1, min(modes, degree) + 1):
        c = amplitude * 0.5 ** (k - 1) * (rng.normal() + 1j * rng.normal()) / k
        p[degree + k] = c
        p[degree - k] = np.conj(c)
    p[degree] = amplitude * rng.normal()
    disp = FourierFunction(p)
    slope = derivative(disp).sup_norm()
    if slope > max_slope:
        disp = disp * (max_slope / slope)
    return CircleDiffeo(disp)
