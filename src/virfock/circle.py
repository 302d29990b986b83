"""Fourier-truncated smooth calculus on the circle S^1 = R/(2 pi Z).

Functions are trigonometric polynomials f(theta) = sum_{|k| <= N} c_k
e^{i k theta}.  A vector field f(theta) d/dtheta and an s-density
u(theta) (dtheta)^s are both their coefficient functions, plain
`FourierFunction`s; the weight s is an argument of the two operations
that read it, `pullback_density` and `lie_derivative`, and a field acting
by its transformation law has s = -1.  An orientation-preserving
diffeomorphism phi(theta) = theta + p(theta) is a `CircleDiffeo` over
its displacement p.

Linear operations (derivative, integration, the two 2-cocycles) are
exact on coefficients; nonlinear operations (products, compositions,
Schwarzian derivatives) are evaluated pointwise on uniform grids large
enough to be alias-free and re-expanded by FFT.

Complex coefficient fields are allowed throughout so that the Witt basis
d_n = i e^{i n theta} d/dtheta can be manipulated directly; everything at
the group level (diffeomorphisms, flows) insists on real data.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

#: Smallest degree `flow` refits its diffeomorphism to.
DEFAULT_DEGREE = 32

#: Tolerance for the reality invariant c_{-k} = conj(c_k).
REALITY_TOL = 1e-12


class FourierFunction:
    """Truncated Fourier series with coefficients c_k for |k| <= N.

    Parameters
    ----------
    coeffs : array_like
        Complex coefficients of length 2N + 1, ordered k = -N .. N.  The
        function is flagged real (``real_flag``) when the reality
        invariant c_{-k} = conj(c_k) holds to within ``REALITY_TOL``; the
        flag is computed on first read, as the coefficients never change.
    """

    __slots__ = ("coeffs", "degree", "_real")

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coeffs must have odd length 2N+1")
        self.coeffs = c
        self.degree = c.size // 2
        self._real = None

    @property
    def real_flag(self) -> bool:
        if self._real is None:
            c = self.coeffs
            self._real = bool(np.max(np.abs(np.conj(c[::-1]) - c)) <= REALITY_TOL)
        return self._real

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "FourierFunction":
        return cls(np.zeros(2 * degree + 1, dtype=complex))

    @classmethod
    def constant(cls, value, degree: int) -> "FourierFunction":
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
    def from_grid(cls, values, degree: int) -> "FourierFunction":
        """Least-degree-(N) fit from samples on the uniform grid
        theta_j = 2 pi j / M, exact for trig polynomials of degree <= N
        when M >= 2N + 1."""
        values = np.asarray(values, dtype=complex)
        M = values.size
        if M < 2 * degree + 1:
            raise ValueError("need at least 2N+1 samples for degree N")
        a = np.fft.fft(values) / M
        return cls(a[np.arange(-degree, degree + 1) % M])

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
        return FourierFunction(c)

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
        complex one as e^{-i N theta} sum_{j=0}^{2N} c_{j-N} z^j.  The real
        sum stops at the highest live mode K (the last a_k != 0): the
        exact zeros above it would only add exact zeros.  The cost on M
        angles is one or two exponentials per angle and K (real) or 2N
        (complex) multiply-adds on M-vectors, O(M K) or O(M N) in all, with
        no M x (2N+1) table of exponentials.
        """
        theta = np.asarray(theta, dtype=float)
        N, c = self.degree, self.coeffs
        if self.real_flag:
            c = np.concatenate(([c[N].real], c[N + 1:] + np.conj(c[N - 1::-1])))
            c = c[:np.flatnonzero(c)[-1] + 1] if c.any() else c[:1]
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

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.grid_values(8 * max(self.degree, 1) + 1))))

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


class CircleDiffeo:
    """Orientation-preserving diffeomorphism phi(theta) = theta + p(theta).

    The displacement p is a real trigonometric polynomial; validity
    (phi' = 1 + p' > 0) is checked on the uniform grid with
    M = max(4N+1, 129) points at construction time.
    """

    __slots__ = ("p",)

    def __init__(self, p: FourierFunction):
        if not p.real_flag:
            raise ValueError("diffeomorphism displacement must be real")
        self.p = p
        dp = derivative(p).grid_values(max(4 * p.degree + 1, 129))
        min_derivative = float(1.0 + np.min(dp))
        if min_derivative <= 0.0:
            raise ValueError(f"not a diffeomorphism: min phi' = {min_derivative:.3e}")

    @classmethod
    def identity(cls, degree: int) -> "CircleDiffeo":
        return cls(FourierFunction.zero(degree))

    @classmethod
    def rotation(cls, alpha: float, degree: int) -> "CircleDiffeo":
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
        return f"CircleDiffeo(degree={self.degree})"


# ---------------------------------------------------------------------------
# coefficient-exact linear operations


def grid_points(M: int) -> np.ndarray:
    """The uniform grid theta_j = 2 pi j / M, j = 0 .. M-1."""
    return TWO_PI * np.arange(M) / M


def refit_size(n: int) -> int:
    """M = 8 max(N, 4), the one grid size for sampling and refitting to degree N."""
    return 8 * max(n, 4)


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
    return prod.truncated(max(f.degree, g.degree) if degree is None else degree)


def lie_bracket(f: FourierFunction, g: FourierFunction,
                degree: int | None = None) -> FourierFunction:
    """[f d, g d] = (f g' - f' g) d, the Lie derivative along f d of g
    read as a (-1)-density; exact up to the final truncation."""
    return lie_derivative(f, g, -1.0, degree)


def gelfand_fuchs(f: FourierFunction, g: FourierFunction) -> complex:
    """The 2-cocycle integral of f' g'' over the circle, exact on
    coefficients."""
    return pairing_integral(derivative(f), derivative(g, 2))


def omega_cocycle(f: FourierFunction, g: FourierFunction) -> complex:
    """The normalized 2-cocycle: integral of (f''' + f') g.

    Differs from :func:`gelfand_fuchs` by the coboundary of
    lam(f d) = integral of f; on the Witt basis it takes the values
    omega(d_n, d_{-n}) = 2 pi i (n^3 - n).
    """
    return pairing_integral(derivative(f, 3) + derivative(f), g)


def witt_generator(n: int, degree: int) -> FourierFunction:
    """d_n = i e^{i n theta} d/dtheta (complex field; d_n* = d_{-n})."""
    if abs(n) > degree:
        raise ValueError("degree too small for this generator")
    return FourierFunction.from_dict({n: 1j}, degree)


# ---------------------------------------------------------------------------
# densities and the diffeomorphism action


def pullback_density(phi: CircleDiffeo, u: FourierFunction,
                     s: float) -> FourierFunction:
    """Coefficient function (u o phi) (phi')^s of the pullback of the
    s-density u (dtheta)^s.

    Evaluated pointwise on the refit grid of 8 max(N, 4) points (N the
    larger of the two degrees) and re-expanded; s = -1 reproduces the
    adjoint action on vector fields, s = 2 the coadjoint one on its dual.
    """
    n = max(u.degree, phi.degree)
    theta = grid_points(refit_size(n))
    vals = u.evaluate(phi.evaluate(theta)) * phi.derivative_values(theta) ** s
    return FourierFunction.from_grid(vals, n)


def lie_derivative(f: FourierFunction, u: FourierFunction, s: float,
                   degree: int | None = None) -> FourierFunction:
    """Coefficient function f u' + s f' u of L_f (u (dtheta)^s), the
    derivative of the s-density's pullback along the flow of f d/dtheta,
    at ``degree`` (default max(N_f, N_u))."""
    full = max(f.degree + u.degree, 1)
    a = multiply(f, derivative(u), degree=full)
    b = multiply(derivative(f), u, degree=full)
    target = max(f.degree, u.degree) if degree is None else degree
    return (a + s * b).truncated(target)


def compose(phi: CircleDiffeo, psi: CircleDiffeo) -> CircleDiffeo:
    """Plain composition phi o psi (callers pick their group convention).

    Sampled on the refit grid of 8 max(N, 4) points and refit; the
    displacement of the result is p_psi + p_phi o psi.
    """
    n = max(phi.degree, psi.degree)
    theta = grid_points(refit_size(n))
    vals = psi.p.evaluate(theta) + phi.p.evaluate(psi.evaluate(theta))
    return CircleDiffeo(FourierFunction.from_grid(vals, n))


NEWTON_MAX_ITER = 50


def invert(phi: CircleDiffeo) -> CircleDiffeo:
    """Inverse diffeomorphism by per-gridpoint Newton iteration.

    Solves phi(x_j) = theta_j on the refit grid of 8 max(N, 4) points;
    monotonicity of phi gives a unique solution and quadratic convergence
    from the identity.  Raises RuntimeError if the residual has not
    reached 1e-13 sup-norm within ``NEWTON_MAX_ITER`` sweeps.
    """
    n = phi.degree
    theta = grid_points(refit_size(n))
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
    return CircleDiffeo(FourierFunction.from_grid(x - theta, n))


# ---------------------------------------------------------------------------
# Schwarzian derivatives


def schwarzian(phi: CircleDiffeo) -> FourierFunction:
    """Schwarzian derivative S(phi) = phi'''/phi' - (3/2)(phi''/phi')^2.

    The derivatives of p are exact in coefficients; the rational
    expression is formed pointwise on the refit grid of 8 max(N, 4)
    points and re-expanded to the degree N of phi.
    """
    return _refit_schwarzian(phi, False)


def modified_schwarzian(phi: CircleDiffeo) -> FourierFunction:
    """S~(phi) = S(phi) + (1/2)((phi')^2 - 1); its derivative at the
    identity in direction f d/dtheta is f''' + f'."""
    return _refit_schwarzian(phi, True)


def _refit_schwarzian(phi: CircleDiffeo, modified: bool) -> FourierFunction:
    theta = grid_points(refit_size(phi.degree))
    return FourierFunction.from_grid(schwarzian_values(phi, theta, modified),
                                     phi.degree)


def schwarzian_values(phi: CircleDiffeo, theta,
                      modified: bool = False) -> np.ndarray:
    """S(phi), or S~(phi) when ``modified``, at arbitrary angles: pointwise
    from phi', phi'' and phi''', each evaluated from the exact coefficient
    derivatives of the displacement; no grid refit."""
    theta = np.asarray(theta, dtype=float)
    d1 = 1.0 + derivative(phi.p, 1).evaluate(theta)
    d2 = derivative(phi.p, 2).evaluate(theta)
    d3 = derivative(phi.p, 3).evaluate(theta)
    vals = d3 / d1 - 1.5 * (d2 / d1) ** 2
    if modified:
        vals = vals + 0.5 * (d1 ** 2 - 1.0)
    return np.real(vals)


def schwarzian_cocycle_residual(phi: CircleDiffeo, psi: CircleDiffeo,
                                modified: bool = False) -> float:
    """Sup over the 256-point grid of
    S(phi o psi) - (S(phi) o psi)(psi')^2 - S(psi).

    The left side goes through the truncated composition, so the value
    measures how well the chain rule survives the refit; the modified
    Schwarzian obeys the identical identity because the correction term
    (1/2)((phi')^2 - 1) is itself a cocycle for the (psi')^2 action.
    """
    theta = grid_points(256)
    comp = compose(phi, psi)
    lhs = schwarzian_values(comp, theta, modified)
    rhs = schwarzian_values(phi, psi.evaluate(theta), modified) \
        * psi.derivative_values(theta) ** 2 \
        + schwarzian_values(psi, theta, modified)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# flows and sampling


RK4_MAX_STEP = 1e-2


def flow(f: FourierFunction, t: float = 1.0) -> CircleDiffeo:
    """Time-t flow of the (real) vector field f d/dtheta as a
    diffeomorphism.

    Integrates theta' = f(theta) from every point of the refit grid of
    8 max(N, 4) points with RK4 at step <= 1e-2 and refits to degree
    N = max(f.degree, DEFAULT_DEGREE).
    """
    if not f.real_flag:
        raise ValueError("flows are defined for real vector fields only")
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, not {t}")
    n = max(f.degree, DEFAULT_DEGREE)
    theta = grid_points(refit_size(n))
    steps = max(1, int(np.ceil(abs(t) / RK4_MAX_STEP)))
    h = t / steps
    x = theta.copy()
    for _ in range(steps):
        k1 = f.evaluate(x)
        k2 = f.evaluate(x + 0.5 * h * k1)
        k3 = f.evaluate(x + 0.5 * h * k2)
        k4 = f.evaluate(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return CircleDiffeo(FourierFunction.from_grid(x - theta, n))


def random_diffeo(rng: np.random.Generator, degree: int, modes: int = 6,
                  amplitude: float = 0.1, max_slope: float = 0.5) -> CircleDiffeo:
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
