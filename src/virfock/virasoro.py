"""Central extension of the circle's vector fields and its orbit geometry.

Elements are pairs x = (z, f dtheta) with z a central scalar and f a
truncated Fourier series; the bracket is

    [(z, f), (w, g)] = (omega(f, g), [f, g])

with omega(f, g) = int (f''' + f') g dtheta.  On the complexified
generators d_n = i e^{i n theta} d/dtheta this gives
[d_n, d_m] = (n - m) d_{n+m} + delta_{n,-m} 2 pi i (n^3 - n), so with the
normalized central element chat = (24 pi i, 0) the structure constants
take the textbook form (n - m) d_{n+m} + (n^3 - n)/12 delta chat.

Group-level actions use a circle diffeomorphism phi and the modified
Schwarzian Stilde = S(phi) + ((phi')^2 - 1)/2:

    adjoint:   Ad_phi (z, f)  = (z - int f . Stilde(phi^{-1}) dtheta, (f o phi) / phi')
    coadjoint: Ad*_phi (a, u) = (a, (u o phi) (phi')^2 - a Stilde(phi))

A dual pair (a, u dtheta^2) holds u as a plain coefficient function: its
weight 2 is fixed by the coadjoint law, which pulls u back with (phi')^2.
The dual pairing <(a, u), (z, f)> = a z + int u f dtheta is invariant
under the pair of actions, which pins down both signs.  Stilde is a
cocycle, Stilde(phi^{-1}) o phi = -Stilde(phi) / (phi')^2, so the
central shift equals + int g . Stilde(phi) dtheta with g = (f o phi) / phi'
the new field, and neither action inverts phi.

Orbit data for fields with f > 0: the harmonic-mean functional
chi(f) = (1/2pi) int dtheta / f and the pair

    alpha = 1 / chi(f),
    beta  = z - int (f')^2 / (2 f) dtheta + (1/2) int f dtheta - pi / chi(f)

are constant along adjoint orbits.  The Cartan projection keeps (z, mean f);
on orbits through (beta + pi) c + alpha dtheta it moves into beta + pi + R+
and alpha + R+ respectively (the concavity facts behind the cone results).

Highest-weight side: Gram matrices of Verma modules at level <= 6 from
the commutation recursion

    [d_m, d_{-n}] = (m + n) d_{m-n} + delta_{m,n} (m^3 - m)/12 c,

computed in exact rational arithmetic when (c, h) are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .circle import (
    CircleDiffeo,
    FourierFunction,
    derivative,
    flow,
    integrate,
    lie_bracket,
    omega_cocycle,
    pairing_integral,
    pullback_density,
    random_diffeo,
    refit_size,
    schwarzian,
    witt_generator,
)

MAX_VERMA_LEVEL = 6
CHI_MIN_GRID = 1024


@dataclass(frozen=True)
class VirasoroElement:
    """Pair (z, f dtheta): central scalar plus vector field.

    The scalar is stored as a complex number so that complexified
    generators can be bracketed; group-level operations expect real
    elements (real z, real f).
    """

    z: complex
    field: FourierFunction

    @classmethod
    def cartan(cls, beta: float, alpha: float, degree: int) -> "VirasoroElement":
        """beta c + alpha dtheta."""
        return cls(beta, FourierFunction.from_dict({0: alpha}, degree))

    def __add__(self, other: "VirasoroElement") -> "VirasoroElement":
        return VirasoroElement(self.z + other.z, self.field + other.field)

    def __mul__(self, t: complex) -> "VirasoroElement":
        return VirasoroElement(t * self.z, self.field * t)

    __rmul__ = __mul__


@dataclass(frozen=True)
class VirasoroFunctional:
    """Dual pair (a, u dtheta^2): central charge plus the coefficient
    function u of a quadratic density (weight 2, fixed by the action)."""

    a: float
    u: FourierFunction


@dataclass(frozen=True)
class CartanCoords:
    """Coordinates (beta, alpha) on the plane spanned by c and dtheta."""

    beta: float
    alpha: float


def generator(n: int) -> VirasoroElement:
    """Complexified generator d_n = (0, i e^{i n theta} d/dtheta)."""
    return VirasoroElement(0.0, witt_generator(n))


def normalized_central() -> VirasoroElement:
    """chat = (24 pi i, 0), the central element dual to (n^3 - n)/12."""
    return VirasoroElement(24j * math.pi, FourierFunction.from_dict({}, 0))


# ---------------------------------------------------------------------------
# algebra level


def vir_bracket(x: VirasoroElement, y: VirasoroElement) -> VirasoroElement:
    """[(z, f), (w, g)] = (omega(f, g), [f, g])."""
    f, g = x.field, y.field
    return VirasoroElement(omega_cocycle(f, g), lie_bracket(f, g))


def pairing(lam: VirasoroFunctional, x: VirasoroElement) -> complex:
    """<(a, u), (z, f)> = a z + int u f dtheta."""
    val = lam.a * x.z + pairing_integral(lam.u, x.field)
    if abs(val.imag) <= 1e-12 * max(1.0, abs(val.real)):
        return float(val.real)
    return val


# ---------------------------------------------------------------------------
# group level


def adjoint_action(phi: CircleDiffeo, x: VirasoroElement) -> VirasoroElement:
    """Ad_phi(z, f) = (z + int g Stilde(phi) dtheta, g), g = (f o phi) / phi'.

    This is z - int f Stilde(phi^{-1}) dtheta with theta = phi(x)
    substituted, by the cocycle identity
    Stilde(phi^{-1}) o phi = -Stilde(phi) / (phi')^2, so phi is never
    inverted.  g is `pullback_density` of f with weight -1, and the shift
    is the exact pairing of two refits, g and the Stilde(phi) that
    `coadjoint_action` reads.
    """
    g = pullback_density(phi, x.field, -1)
    shift = pairing_integral(g, schwarzian(phi, modified=True)).real
    return VirasoroElement(x.z + shift, g)


def coadjoint_action(phi: CircleDiffeo,
                     lam: VirasoroFunctional) -> VirasoroFunctional:
    """Ad*_phi(a, u) = (a, (u o phi)(phi')^2 - a Stilde(phi))."""
    return VirasoroFunctional(lam.a, pullback_density(phi, lam.u, 2)
                              - schwarzian(phi, modified=True) * lam.a)


# ---------------------------------------------------------------------------
# orbit invariants on the positive cone f > 0


def chi(f: FourierFunction, grid_size: int | None = None) -> float:
    """(1/2pi) int dtheta / f, evaluated by trapezoidal quadrature.

    For a trigonometric polynomial with min f > 0 the integrand is
    analytic in a strip, so the periodic trapezoid rule converges
    geometrically; the default grid of max(CHI_MIN_GRID, refit_size(N))
    points leaves an error far below 1e-12 unless f nearly touches zero.
    The rule sums 1/f arc by arc over `FourierFunction.grid_arcs`, so a
    grid of any size takes O(max(GRID_BLOCK, refit_size(N))) memory; on
    one arc, the default grid's included, the sum is bit for bit np.mean.
    Raises ValueError when f is not real and positive on the grid.
    """
    if not f.real_flag:
        raise ValueError("chi is defined for real fields only")
    M = grid_size if grid_size is not None else _chi_grid(f)
    total = 0.0
    for vals in f.grid_arcs(M):
        if np.min(vals) <= 0.0:
            raise ValueError("chi requires f > 0 on the circle")
        total += np.sum(1.0 / vals)
    return float(total / M)


def _chi_grid(f: FourierFunction) -> int:
    return max(CHI_MIN_GRID, refit_size(f.degree))


def orbit_invariants(x: VirasoroElement) -> CartanCoords:
    """The adjoint-invariant pair (beta, alpha) for elements with f > 0.

    alpha = 1/chi(f) and
    beta = z - int (f')^2/(2f) + (1/2) int f - pi/chi(f),
    with chi read from `chi` and the energy term from f and f' on chi's
    default grid, max(CHI_MIN_GRID, refit_size(N)) points.  Raises
    ValueError when z is not real, or when f is not real and positive.
    """
    if abs(complex(x.z).imag) > 1e-9:
        raise ValueError("orbit invariants are defined for real elements")
    f = x.field
    chi_val, M = chi(f), _chi_grid(f)
    fv, dfv = f.grid_values(M), derivative(f).grid_values(M)
    energy = 2.0 * math.pi * float(np.mean(dfv ** 2 / (2.0 * fv)))
    beta = (float(np.real(x.z)) - energy
            + 0.5 * float(np.real(integrate(f))) - math.pi / chi_val)
    return CartanCoords(beta=beta, alpha=1.0 / chi_val)


def cartan_projection(x: VirasoroElement) -> CartanCoords:
    """Orthogonal projection onto the (c, dtheta) plane: keep (z, mean f)."""
    return CartanCoords(beta=float(np.real(x.z)),
                        alpha=float(np.real(x.field.coeff(0))))


def beta_hessian_form(h: FourierFunction) -> float:
    """Quadratic form - int (h')^2 + int h^2 - (1/2pi)(int h)^2.

    This is the second variation of the beta invariant at the round
    element; it vanishes on constants and on cos/sin of frequency one
    and is strictly negative elsewhere (value 2 pi sum_{k!=0}
    (1 - k^2) |h_k|^2 for mean-zero h).
    """
    dh = derivative(h)
    num = pairing_integral(h, h) - pairing_integral(dh, dh)
    mean = integrate(h)
    val = num - (mean * mean) / (2.0 * math.pi)
    return float(np.real(val))


def convexity_check(x: VirasoroElement, trials: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Empirical check that Cartan projections of Ad_phi(x) dominate x.

    x must lie in the Cartan plane with positive dtheta component.  For
    each trial a random diffeomorphism of x's degree (6 modes, amplitude
    0.15) is drawn and the projection of the transformed element is
    compared with (z, alpha).  Returns the margins as one (2, trials)
    array, row 0 for beta and row 1 for alpha, nonnegative up to roundoff.
    """
    base, N = cartan_projection(x), x.field.degree
    rest = np.delete(np.abs(x.field.coeffs), N).max(initial=0.0)
    if base.alpha <= 0.0 or rest > 1e-12 * max(1.0, base.alpha):
        raise ValueError("expected an element of the Cartan plane with alpha > 0")
    margins = np.empty((2, trials))
    for t in range(trials):
        phi = random_diffeo(rng, degree=N, modes=6, amplitude=0.15)
        proj = cartan_projection(adjoint_action(phi, x))
        margins[:, t] = proj.beta - base.beta, proj.alpha - base.alpha
    return margins


def projection_curve(x: VirasoroElement, n: int,
                     s_values: Sequence[float]) -> list[CartanCoords]:
    """Cartan projections of Ad along the flow of d_n - d_{-n}.

    The combination d_n - d_{-n} has field i e^{i n theta} - i e^{-i n theta}
    = -2 sin(n theta), which is real, so the flow stays inside the
    diffeomorphism group and no complexification is needed; the field is
    built at x's degree.  For x in the Cartan plane the resulting
    projections move along the ray of direction 2n(pi(n^2 - 1) c + dtheta)
    emanating from x.
    """
    w = FourierFunction.from_dict({n: 1j, -n: -1j}, degree=x.field.degree)
    out = []
    for s in s_values:
        phi = flow(w, float(s))
        out.append(cartan_projection(adjoint_action(phi, x)))
    return out


# ---------------------------------------------------------------------------
# Verma modules


def partitions_of(n: int, largest: int | None = None) -> Iterable[tuple[int, ...]]:
    """Descending partitions of n, largest part first."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(largest, n)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _accumulate(table: dict, mono: tuple[int, ...], coeff) -> None:
    table[mono] = table.get(mono, 0) + coeff


def _apply_generator(m: int, mono: tuple[int, ...], coeff,
                     out: dict, c, h) -> None:
    """Apply d_m to coeff * d_{-mono} v and accumulate PBW monomials.

    Uses [d_m, d_{-n}] = (m + n) d_{m-n} + delta_{m,n} (m^3 - m)/12 c
    together with d_m v = 0 for m > 0 and d_0 v = h v.
    """
    if coeff == 0:
        return
    if not mono:
        if m == 0:
            _accumulate(out, (), coeff * h)
        elif m < 0:
            _accumulate(out, (-m,), coeff)
        return
    head, rest = mono[0], mono[1:]
    if m < 0 and -m >= head:
        _accumulate(out, (-m,) + mono, coeff)
        return
    # d_m d_{-head} = d_{-head} d_m + (m + head) d_{m-head}
    #                 + delta_{m,head} (m^3 - m)/12 c
    inner: dict = {}
    _apply_generator(m, rest, coeff, inner, c, h)
    for mono2, coeff2 in inner.items():
        _apply_generator(-head, mono2, coeff2, out, c, h)
    if m + head != 0:
        _apply_generator(m - head, rest, coeff * (m + head), out, c, h)
    if m == head:
        _accumulate(out, rest, coeff * ((m ** 3 - m) / type(c)(12)) * c)


def _gram_entry(mu: tuple[int, ...], nu: tuple[int, ...], c, h):
    """<d_{-mu} v, d_{-nu} v> via adjoint raising: apply d_{mu_1}, d_{mu_2}, ...
    (largest first) to the nu-monomial and read off the coefficient of v.
    c and h share one type, Fraction or float, and so does the result."""
    state = {nu: type(h)(1)}
    for m in mu:
        nxt: dict = {}
        for mono, coeff in state.items():
            _apply_generator(m, mono, coeff, nxt, c, h)
        state = {k: v for k, v in nxt.items() if v != 0}
    return state.get((), type(h)(0))


def verma_gram(level: int, c: Fraction | float, h: Fraction | float,
               partitions: Sequence[tuple[int, ...]] | None = None) -> np.ndarray:
    """Gram matrix of the PBW monomials d_{-n1} ... d_{-nk} v at ``level``.

    ``partitions`` are descending tuples summing to the level; by default
    all of them, in the order of `partitions_of`.  Exact rational entries
    (dtype=object) when both c and h are rational; float entries
    otherwise.  Both triangles are computed, so the symmetry that the
    adjoint (d_n <-> d_{-n}) implies is checked rather than copied.
    """
    if level < 0 or level > MAX_VERMA_LEVEL:
        raise ValueError(f"level must lie in 0..{MAX_VERMA_LEVEL}")
    if partitions is None:
        parts = tuple(partitions_of(level))
    else:
        parts = tuple(tuple(p) for p in partitions)
        for p in parts:
            if sum(p) != level or list(p) != sorted(p, reverse=True):
                raise ValueError(f"{p} is not a descending partition of {level}")
    exact = isinstance(c, (int, Fraction)) and isinstance(h, (int, Fraction))
    num = Fraction if exact else float
    c, h = num(c), num(h)
    k = len(parts)
    G = np.empty((k, k), dtype=object if exact else float)
    # upper triangle first: row by row read 0.06 MiB more benchmark peak RSS
    for i, j in [*zip(*np.triu_indices(k)), *zip(*np.tril_indices(k, -1))]:
        G[i, j] = _gram_entry(parts[i], parts[j], c, h)
    return G


def singleton_norm(n: int, c, h):
    """<d_{-n} v, d_{-n} v> = 2 n h + c (n^3 - n)/12, exact when c and h
    are rational."""
    return 2 * n * h + c * Fraction(n ** 3 - n, 12)


def unitarity_scan(c: float, h: float,
                   max_level: int) -> tuple[list[float], int | None]:
    """The smallest eigenvalue of the float Gram matrix at (c, h) for each
    level 1 .. max_level, and the first level at which the matrix fails to
    be positive semidefinite, below -1e-9 max(1, max |G|) (None if none does)."""
    if max_level > MAX_VERMA_LEVEL:
        raise ValueError(f"max_level must be <= {MAX_VERMA_LEVEL}")
    mins, first_bad = [], None
    for level in range(1, max_level + 1):
        G = verma_gram(level, float(c), float(h))
        mins.append(float(np.linalg.eigvalsh(G)[0]))
        if first_bad is None and mins[-1] < -1e-9 * max(1.0, float(np.abs(G).max())):
            first_bad = level
    return mins, first_bad
