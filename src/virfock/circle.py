"""Fourier-truncated smooth calculus on the circle S^1 = R/(2 pi Z).

Functions are trigonometric polynomials f(theta) = sum_{|k| <= N} c_k
e^{i k theta}.  A vector field f(theta) d/dtheta and an s-density
u(theta) (dtheta)^s are both their coefficient functions, plain
`FourierFunction`s; the weight s is an argument of the two operations
that read it, `pullback_density` and `lie_derivative`, and a field acting
by its transformation law has s = -1.  An orientation-preserving
diffeomorphism phi(theta) = theta + p(theta) is a `CircleDiffeo` that
holds its displacement p and the jet rows that give p, p', p'', p'''.

The algebra is exact on coefficients and returns its exact degree:
derivative, integration, the two 2-cocycles, and the products
(`multiply`, `lie_derivative`, `lie_bracket`), convolutions of degree
N_f + N_g.  The group operations (compose, invert, pullback, flow, the
Schwarzian) are sampled on the refit grid of their degree N and refit to
N by FFT.  Only series built from data take a degree (`from_dict`,
`constant`, `zero`, `from_grid`, `CircleDiffeo.rotation`,
`random_diffeo`): it is the ambient truncation that the refits read.

Complex series serve the coefficient-exact operations only (the Witt
basis d_n = i e^{i n theta} d/dtheta enters brackets, cocycles and
products).  Sampling takes real series and real samples, and raises
ValueError on complex ones.  A real series is sampled from its folded
k >= 0 half by one of two kernels over rows of halves: `_half_grid_values`,
one batched irfft on the uniform grid theta_j = 2 pi j / M (`grid_values`,
`CircleDiffeo.grid_jet`), and `_half_values`, Horner's rule in
z = e^{i theta} at arbitrary angles (`evaluate`, `CircleDiffeo.jet`);
`from_grid` is one rfft.  A third use bounds memory on fine grids:
`grid_arcs` yields the grid in arcs of at most ``GRID_BLOCK`` points (or
the refit grid, if larger), one irfft when the whole grid fits in one
arc and Horner on each arc's phases otherwise.  The group operations
read phi on their grid from `grid_jet` and keep Horner for moved points
only: u o phi, flow's RK4 stages, invert's Newton iterates and
S(phi) o psi.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.fft on first use; importing it here keeps that cost
# in `import virfock`
from numpy.fft import irfft, rfft

TWO_PI = 2.0 * np.pi

#: Smallest degree `flow` refits its diffeomorphism to.
DEFAULT_DEGREE = 32

#: Tolerance for the reality invariant c_{-k} = conj(c_k).
REALITY_TOL = 1e-12

#: Most grid points `FourierFunction.grid_arcs` samples at once for a
#: series of degree N <= GRID_BLOCK / 8 (a higher degree's refit grid).
GRID_BLOCK = 4096


class FourierFunction:
    """Truncated Fourier series with coefficients c_k for |k| <= N.

    Parameters
    ----------
    coeffs : array_like
        Complex coefficients of length 2N + 1, ordered k = -N .. N.  The
        function is flagged real (``real_flag``) when the reality
        invariant c_{-k} = conj(c_k) holds to within ``REALITY_TOL``; the
        flag, and a real series' folded k >= 0 half, are computed on first
        read, as the coefficients never change.
    """

    __slots__ = ("coeffs", "degree", "_real", "_half")

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coeffs must have odd length 2N+1")
        self.coeffs = c
        self.degree = c.size // 2
        self._real = None
        self._half = None

    @property
    def real_flag(self) -> bool:
        if self._real is None:
            c = self.coeffs
            self._real = bool(np.max(np.abs(np.conj(c[::-1]) - c)) <= REALITY_TOL)
        return self._real

    def _real_half(self) -> np.ndarray:
        """The fold of a real series onto k >= 0: a_0 = Re c_0 and
        a_k = c_k + conj(c_{-k}), so that f = Re sum_{k>=0} a_k e^{ik theta}
        even where the reality invariant holds only to ``REALITY_TOL``.  It
        stops at the highest live mode K (the last a_k != 0).  A complex
        series has no such half: it raises ValueError."""
        if not self.real_flag:
            raise ValueError("cannot sample a complex series: sampling takes "
                             "real series (c_{-k} = conj(c_k)) only")
        if self._half is None:
            N, c = self.degree, self.coeffs
            a = np.concatenate(([c[N].real], c[N + 1:] + np.conj(c[N - 1::-1])))
            live = np.flatnonzero(a)
            self._half = a[:live[-1] + 1] if live.size else a[:1]
        return self._half

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
        when M >= 2N + 1.

        The samples must be real: one ``rfft`` gives c_k for k >= 0, and
        c_{-k} = conj(c_k) holds bit for bit.  Complex samples raise
        ValueError.
        """
        if np.iscomplexobj(values):
            raise ValueError("from_grid takes real samples, not complex ones")
        values = np.asarray(values, dtype=float)
        M = values.size
        if M < 2 * degree + 1:
            raise ValueError("need at least 2N+1 samples for degree N")
        r = rfft(values)[:degree + 1] / M
        return cls(np.concatenate((np.conj(r[:0:-1]), r)))

    # -- basic queries ------------------------------------------------

    def coeff(self, k: int) -> complex:
        if abs(k) > self.degree:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.degree])

    def truncated(self, degree: int) -> "FourierFunction":
        """The series at truncation degree ``degree``: modes with
        |k| > degree are dropped, and a larger degree pads with zeros."""
        if degree >= self.degree:
            c = np.zeros(2 * degree + 1, dtype=complex)
            c[degree - self.degree: degree + self.degree + 1] = self.coeffs
            return FourierFunction(c)
        lo, hi = self.degree - degree, self.degree + degree + 1
        return FourierFunction(self.coeffs[lo:hi])

    def evaluate(self, theta):
        """Real values of a real series at arbitrary angles (any shape, 0-d
        included) by `_half_values` over its cached k >= 0 half, which gives
        Re sum_k c_k e^{ik theta} even where the reality invariant holds only
        to ``REALITY_TOL``; a complex series raises ValueError.  On a uniform
        grid `grid_values` takes the FFT route."""
        z = np.exp(1j * np.asarray(theta, dtype=float))
        return _half_values(self._real_half(), z)

    def grid_values(self, M: int):
        """Real values of a real series on the uniform grid
        theta_j = 2 pi j / M, M >= 2N + 1, by one ``irfft`` of its half
        (`_half_grid_values`), the values `evaluate` gives there; a complex
        series raises ValueError."""
        if M < 2 * self.degree + 1:
            raise ValueError("grid too coarse for this degree")
        return _half_grid_values(self._real_half(), M)

    def grid_arcs(self, M: int):
        """Real values of a real series on ``grid_points(M)`` in consecutive
        arcs of at most B = max(GRID_BLOCK, refit_size(N)) points, so no
        array spans a grid finer than that.  A grid of at most B points is
        one arc, `grid_values` itself; a finer one runs `_half_values` at
        z = e^{i theta_lo} w_m on each arc, from one table
        w_m = e^{2 pi i m / M}, m < B.  Horner costs M K where the irfft
        costs M log M, so B grows with the refit grid, which every
        nonlinear operation on the series samples anyway.  Raises the
        ValueErrors of `grid_values`."""
        block = max(GRID_BLOCK, refit_size(self.degree))
        if M <= block:
            yield self.grid_values(M)
            return
        half = self._real_half()
        w = np.exp(1j * TWO_PI * np.arange(block) / M)
        for lo in range(0, M, block):
            yield _half_values(half, np.exp(1j * TWO_PI * lo / M) * w[:M - lo])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.grid_values(8 * max(self.degree, 1) + 1))))

    # -- linear arithmetic --------------------------------------------

    def _binary(self, other, sign) -> "FourierFunction":
        n = max(self.degree, other.degree)
        a, b = self.truncated(n), other.truncated(n)
        return FourierFunction(a.coeffs + sign * b.coeffs)

    def __add__(self, other): return self._binary(other, 1.0)

    def __sub__(self, other): return self._binary(other, -1.0)

    def __mul__(self, scalar):
        return FourierFunction(self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"FourierFunction(degree={self.degree}, "
                f"real={self.real_flag}, |c|={np.linalg.norm(self.coeffs):.3g})")


class CircleDiffeo:
    """Orientation-preserving diffeomorphism phi(theta) = theta + p(theta).

    The displacement p is a real trigonometric polynomial.  Its jet rows,
    the k >= 0 half of p scaled by (ik)^j for j = 0 .. 3, are built once:
    `grid_jet` samples them on a uniform grid and `jet` at arbitrary
    angles, giving p and its first three derivatives (phi' = 1 + p').
    Validity (phi' > 0) is checked from row 1 on the refit grid of
    8 max(N, 4) points at construction time.
    """

    __slots__ = ("p", "_rows")

    def __init__(self, p: FourierFunction):
        if not p.real_flag:
            raise ValueError("diffeomorphism displacement must be real")
        self.p = p
        a = p._real_half()
        ik = 1j * np.arange(a.size)
        self._rows = np.array([a, a * ik, a * ik * ik, a * ik * ik * ik])
        dp = _half_grid_values(self._rows[1], refit_size(p.degree))
        min_derivative = float(1.0 + np.min(dp))
        if min_derivative <= 0.0:
            raise ValueError(f"not a diffeomorphism: min phi' = {min_derivative:.3e}")

    @classmethod
    def rotation(cls, alpha: float, degree: int) -> "CircleDiffeo":
        return cls(FourierFunction.constant(float(alpha), degree))

    @property
    def degree(self) -> int:
        return self.p.degree

    def grid_jet(self, M: int) -> np.ndarray:
        """Rows p, p', p'', p''' on ``grid_points(M)``, shape (4, M), from
        one irfft of the jet rows; M >= 2N + 1."""
        if M < 2 * self.degree + 1:
            raise ValueError("grid too coarse for this degree")
        return _half_grid_values(self._rows, M)

    def jet(self, theta) -> np.ndarray:
        """Rows p, p', p'', p''' at arbitrary angles, shape
        (4,) + theta.shape, from one Horner pass over the jet rows."""
        z = np.exp(1j * np.asarray(theta, dtype=float))
        return _half_values(self._rows, z)

    def __repr__(self):
        return f"CircleDiffeo(degree={self.degree})"


# ---------------------------------------------------------------------------
# coefficient-exact linear operations


def grid_points(M: int) -> np.ndarray:
    """The uniform grid theta_j = 2 pi j / M, j = 0 .. M-1."""
    return TWO_PI * np.arange(M) / M


def _half_values(half: np.ndarray, z) -> np.ndarray:
    """Re sum_{k>=0} a_k z^k at points z = e^{i theta} of the unit circle
    for each row a of ``half`` (k = 0 .. K along the last axis), shape
    half.shape[:-1] + z.shape: Horner's rule, with one loop over k for all
    rows and no table of powers.  The sum stops at the last column K."""
    # k leads; a single row's columns stay scalars, numpy's fast path
    cols = half.T
    if half.ndim > 1:
        cols = cols.reshape(cols.shape + (1,) * z.ndim)
    acc = np.full(half.shape[:-1] + z.shape, cols[-1], dtype=complex)
    for ck in cols[-2::-1]:
        acc *= z
        acc += ck
    return acc.real


def _half_grid_values(half: np.ndarray, M: int) -> np.ndarray:
    """Re sum_{k>=0} a_k e^{ik theta_j} on ``grid_points(M)`` for each row a
    of ``half`` (k = 0 .. K along the last axis, K < M/2, a_0 real): one
    irfft of h_0 = a_0, h_k = a_k / 2, with no 1/M factor."""
    K = half.shape[-1]
    h = np.zeros(half.shape[:-1] + (M // 2 + 1,), dtype=complex)
    h[..., :K] = half
    h[..., 1:K] *= 0.5
    return irfft(h, M, axis=-1, norm="forward")


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
    a, b = f.truncated(n).coeffs, g.truncated(n).coeffs
    return TWO_PI * complex(np.dot(a, b[::-1]))


def multiply(f: FourierFunction, g: FourierFunction) -> FourierFunction:
    """Pointwise product, exact: the coefficient convolution, of degree
    N_f + N_g (what a grid of 2(N_f + N_g) + 1 points or more would give)."""
    return FourierFunction(np.convolve(f.coeffs, g.coeffs))


def lie_bracket(f: FourierFunction, g: FourierFunction) -> FourierFunction:
    """[f d, g d] = (f g' - f' g) d, the Lie derivative along f d of g
    read as a (-1)-density; exact, of degree N_f + N_g."""
    return lie_derivative(f, g, -1.0)


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


def witt_generator(n: int) -> FourierFunction:
    """d_n = i e^{i n theta} d/dtheta (complex field of degree |n|;
    d_n* = d_{-n})."""
    return FourierFunction.from_dict({n: 1j}, abs(n))


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
    M = refit_size(n)
    p, dp = phi.grid_jet(M)[:2]
    vals = u.evaluate(grid_points(M) + p) * (1.0 + dp) ** s
    return FourierFunction.from_grid(vals, n)


def lie_derivative(f: FourierFunction, u: FourierFunction,
                   s: float) -> FourierFunction:
    """Coefficient function f u' + s f' u of L_f (u (dtheta)^s), the
    derivative of the s-density's pullback along the flow of f d/dtheta;
    exact, of degree N_f + N_u."""
    return multiply(f, derivative(u)) + s * multiply(derivative(f), u)


def compose(phi: CircleDiffeo, psi: CircleDiffeo) -> CircleDiffeo:
    """Plain composition phi o psi (callers pick their group convention).

    Sampled on the refit grid of 8 max(N, 4) points and refit; the
    displacement of the result is p_psi + p_phi o psi.
    """
    n = max(phi.degree, psi.degree)
    M = refit_size(n)
    p = psi.p.grid_values(M)
    vals = p + phi.p.evaluate(grid_points(M) + p)
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
    x = theta.copy()
    for _ in range(NEWTON_MAX_ITER):
        p, dp = _half_values(phi._rows[:2], np.exp(1j * x))
        res = x + p - theta
        if np.max(np.abs(res)) < 1e-13:
            break
        x = x - res / (1.0 + dp)
    else:
        raise RuntimeError("Newton inversion did not converge in "
                           f"{NEWTON_MAX_ITER} iterations")
    return CircleDiffeo(FourierFunction.from_grid(x - theta, n))


# ---------------------------------------------------------------------------
# Schwarzian derivatives


def schwarzian(phi: CircleDiffeo, modified: bool = False) -> FourierFunction:
    """Schwarzian derivative S(phi) = phi'''/phi' - (3/2)(phi''/phi')^2, or
    S~(phi) = S(phi) + (1/2)((phi')^2 - 1) when ``modified``; the
    derivative of S~ at the identity in direction f d/dtheta is f''' + f'.

    The derivatives of p are exact in coefficients; the rational
    expression is formed pointwise on the refit grid of 8 max(N, 4)
    points and re-expanded to the degree N of phi.
    """
    vals = _grid_schwarzian(phi, refit_size(phi.degree), modified)
    return FourierFunction.from_grid(vals, phi.degree)


def _grid_schwarzian(phi: CircleDiffeo, M: int, modified: bool) -> np.ndarray:
    """S(phi), or S~(phi), on ``grid_points(M)`` from the jet of phi."""
    _, dp, d2p, d3p = phi.grid_jet(M)
    return schwarzian_from_jet(1.0 + dp, d2p, d3p, modified)


def schwarzian_from_jet(d1, d2, d3, modified: bool = False):
    """The Schwarzian kernel phi'''/phi' - (3/2)(phi''/phi')^2 from
    d1 = phi', d2 = phi'' and d3 = phi''' at the same points, plus
    (1/2)((phi')^2 - 1) when ``modified``."""
    vals = d3 / d1 - 1.5 * (d2 / d1) ** 2
    if modified:
        vals = vals + 0.5 * (d1 ** 2 - 1.0)
    return vals


def schwarzian_values(phi: CircleDiffeo, theta,
                      modified: bool = False) -> np.ndarray:
    """S(phi), or S~(phi) when ``modified``, at arbitrary angles: rows 1-3
    of `CircleDiffeo.jet` fed to `schwarzian_from_jet`; no grid refit.  Grid
    callers read the rows from `CircleDiffeo.grid_jet` instead."""
    _, dp, d2p, d3p = phi.jet(theta)
    return schwarzian_from_jet(1.0 + dp, d2p, d3p, modified)


def schwarzian_cocycle_residual(phi: CircleDiffeo, psi: CircleDiffeo,
                                modified: bool = False) -> float:
    """Sup over the refit grid of 8 max(N, 4) points (N the larger degree)
    of S(phi o psi) - (S(phi) o psi)(psi')^2 - S(psi).

    The left side goes through the truncated composition, so the value
    measures how well the chain rule survives the refit; the modified
    Schwarzian obeys the identical identity because the correction term
    (1/2)((phi')^2 - 1) is itself a cocycle for the (psi')^2 action.
    The grid terms read jets; S(phi) o psi is Horner at the moved points.
    """
    M = refit_size(max(phi.degree, psi.degree))
    lhs = _grid_schwarzian(compose(phi, psi), M, modified)
    p, dp, d2p, d3p = psi.grid_jet(M)
    dpsi = 1.0 + dp
    rhs = schwarzian_values(phi, grid_points(M) + p, modified) * dpsi ** 2 \
        + schwarzian_from_jet(dpsi, d2p, d3p, modified)
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
