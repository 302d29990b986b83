"""Finite-dimensional convex geometry over R^n.

Support functions of sampled sets, polyhedral cones in both generated and
half-space form, recession cones and lineality spaces of polyhedra, and
orbit averaging.  Everything here is polyhedral or sampled: infinite
families are always represented by finite witnesses, and set-level claims
are tested through those witnesses.

Conventions
-----------
The support function of a sampled functional family X is

    s_X(v) = max_{p in X} <p, -v> = -min_{p in X} <p, v>,

so bounded-below directions of X are exactly those with finite s_X.  A
``PolyCone`` carries generators (conic hull) or inequality normals
({x : <a_i, x> >= 0}) or both; conversions between the two forms use a
double-description enumeration that is restricted to dimension <= 8.

Feasibility
-----------
Emptiness, pointedness and membership all rest on one nonnegative
least-squares kernel, ``_nnls`` (the Lawson-Hanson active-set method,
*Solving Least Squares Problems*, 1974, ch. 23):

- ``Polyhedron.is_empty`` solves the least-distance program for
  {x : Ax >= b}: NNLS for [A^T; b^T] u ~ e_{n+1}.  A zero residual makes u
  a Farkas certificate (u >= 0, A^T u = 0, b^T u = 1), so the set is empty;
  otherwise the residual r gives the least-norm point x = -r[:n] / r[n].
- ``cone_is_pointed`` asks whether {x : Gx >= 1} is nonempty for the
  normalized generators G.  By Gordan's theorem that holds exactly when 0
  is not a convex combination of the rows of G.
- ``in_cone`` on a generated cone asks whether the NNLS residual of
  G^T lam ~ x is zero.

Every emptiness and pointedness verdict is returned only after its
witness (the certificate or the point) has been checked at ``TOL``; an
instance whose witnesses both fail lies within rounding of the boundary
and raises ``ArithmeticError``, as does an NNLS solve that has not
converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Floating tolerance for all cone algebra in this module.
TOL = 1e-9

#: Hard cap on the ambient dimension of double-description conversions.
MAX_DD_DIM = 8


def _as_matrix(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError("expected a list of equal-length vectors")
    if not np.all(np.isfinite(pts)):
        raise ValueError("entries must be finite, got NaN or infinity")
    return pts


def _nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min ||A u - b|| over u >= 0 by the Lawson-Hanson active-set method.

    Returns u and the residual A u - b.  Columns enter the passive set one
    at a time, at most 3 n times (scipy's cap); an unconverged solve raises
    ``ArithmeticError`` rather than return a guess.
    """
    m, n = A.shape
    a_max, b_norm = np.abs(A).max(initial=0.0), np.linalg.norm(b)
    u = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):          # 3 n entries, plus the final test
        w = np.where(passive, 0.0, A.T @ (b - A @ u))
        # rounding in w grows with the terms of b - A u
        tol = 10 * max(m, n) * np.finfo(float).eps * a_max * (b_norm + a_max * u.sum())
        if not np.any(w > tol):
            return u, A @ u - b
        passive[np.argmax(w)] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            blocking = np.flatnonzero(passive & (s < 0))
            if blocking.size == 0:
                break
            # step from u toward s until the first passive entry hits zero
            ratios = u[blocking] / (u[blocking] - s[blocking])
            u += ratios.min() * (s - u)
            passive[blocking[np.argmin(ratios)]] = False
            passive &= u > 0
            u[~passive] = 0.0
        u = s
    raise ArithmeticError(f"NNLS did not converge in {3 * n} steps")


@dataclass(frozen=True)
class SampledSet:
    """Finite sample of functionals X, stored as rows of ``points``."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_matrix(self.points))
        if self.points.shape[0] == 0:
            raise ValueError("SampledSet must be non-empty")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PolyCone:
    """Polyhedral cone, as a conic hull of ``generators`` and/or the
    intersection of half-spaces {x : <a, x> >= 0} with rows a of
    ``normals``.  At least one representation must be present."""

    generators: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        gens, norms = self.generators, self.normals
        if gens is None and norms is None:
            raise ValueError("PolyCone needs generators or normals")
        if gens is not None:
            object.__setattr__(self, "generators", _as_matrix(gens))
        if norms is not None:
            object.__setattr__(self, "normals", _as_matrix(norms))

    @property
    def dim(self) -> int:
        rep = self.generators if self.generators is not None else self.normals
        return rep.shape[1]


@dataclass(frozen=True)
class Polyhedron:
    """Polyhedron {x : <a_i, x> >= b_i} with rows a_i of ``normals``."""

    normals: np.ndarray
    offsets: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "normals", _as_matrix(self.normals))
        m = self.normals.shape[0]
        b = np.zeros((1, m)) if self.offsets is None else _as_matrix(self.offsets)
        if b.shape != (1, m):
            raise ValueError("offsets must match the number of normals")
        object.__setattr__(self, "offsets", b[0])

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def is_empty(self) -> bool:
        """Whether {x : Ax >= b} is empty, by least-distance programming.

        NNLS for [A^T; b^T] u ~ e_{n+1} returns u and the residual r.  The
        verdict "empty" needs u to be a Farkas certificate, ||r|| <= TOL
        (the target has unit norm); "nonempty" needs the least-norm point
        x = -r[:n] / r[n] to satisfy min(Ax - b) >= -TOL * max(1, scale),
        scale the largest |A||x| + |b|.  If neither witness checks, the
        instance lies within rounding of the boundary: ``ArithmeticError``.
        """
        A, b, n = self.normals, self.offsets, self.dim
        _, r = _nnls(np.vstack([A.T, b]), np.eye(n + 1)[n])
        if np.linalg.norm(r) <= TOL:
            return True
        if r[n] < 0:
            x = -r[:n] / r[n]
            scale = float(np.max(np.abs(A) @ np.abs(x) + np.abs(b), initial=0.0))
            if np.min(A @ x - b, initial=0.0) >= -TOL * max(1.0, scale):
                return False
        raise ArithmeticError("polyhedron lies within rounding of the "
                              "empty/nonempty boundary")


def support_function(X: SampledSet, v) -> float:
    """s_X(v) = max_p <p, -v> over the sample; finite for finite samples."""
    v = _as_matrix(v)
    if v.shape != (1, X.dim):
        raise ValueError(f"direction must be a vector of length {X.dim}")
    return float(np.max(X.points @ (-v[0])))


# ---------------------------------------------------------------------------
# generated <-> half-space conversions


def dual_cone(C: PolyCone) -> PolyCone:
    """Dual cone C* = {a : <a, x> >= 0 for all x in C}.

    The result is returned in half-space form whose normals are the
    generators of C; generators of the dual are recovered on demand by
    :func:`cone_generators`.
    """
    gens = C.generators if C.generators is not None else cone_generators(C)
    return PolyCone(normals=np.array(gens, dtype=float, copy=True))


def cone_generators(C: PolyCone) -> np.ndarray:
    """Generators of a cone given in half-space form.

    Runs a double-description style enumeration: the lineality space is
    split off first, extreme rays of the pointed quotient are read from
    rank-(k-1) subsets of active constraints, and rays are lifted back.
    Restricted to dimension <= ``MAX_DD_DIM``.
    """
    if C.generators is not None:
        return C.generators
    A = C.normals
    n = A.shape[1]
    if n > MAX_DD_DIM:
        raise ValueError(f"double description limited to dimension {MAX_DD_DIM}")

    lin = _nullspace(A)                        # lineality directions
    rays = []
    if lin.shape[0] < n:
        P = _nullspace(lin).T                  # columns span lin-perp
        Aq = A @ P                             # inequalities in the quotient
        k = P.shape[1]
        rays_q = _pointed_cone_rays(Aq, k)
        rays = [P @ r for r in rays_q]
    gens = list(rays)
    for ell in lin:
        gens.append(ell)
        gens.append(-ell)
    if not gens:
        return np.zeros((0, n))
    return _dedupe_rays(np.array(gens))


def _nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning {x : Ax = 0}."""
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > TOL * max(1.0, s[0] if s.size else 1.0)))
    return vt[rank:]


def _pointed_cone_rays(A: np.ndarray, k: int) -> list[np.ndarray]:
    """Extreme rays of the pointed cone {y in R^k : Ay >= 0}.

    Candidates are null directions of rank-(k-1) subsets of rows; both
    orientations are kept when feasible.  For k = 1 the one subset is
    empty and its null space is the whole line, so the candidates are +-1.
    """
    from itertools import combinations

    m = A.shape[0]
    out: list[np.ndarray] = []

    def feasible(r):
        return np.all(A @ r >= -TOL * max(1.0, float(np.abs(A).max(initial=1.0))))

    for idx in combinations(range(m), k - 1):
        sub = A[list(idx)]
        null = _nullspace(sub)
        if null.shape[0] != 1:     # need exactly rank k-1
            continue
        r = null[0]
        for cand in (r, -r):
            if feasible(cand):
                out.append(cand)
    return out


def _dedupe_rays(rays: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rays, axis=1)
    keep = norms > TOL
    rays = rays[keep] / norms[keep, None]
    uniq: list[np.ndarray] = []
    for r in rays:
        if not any(np.linalg.norm(r - u) < 1e-7 for u in uniq):
            uniq.append(r)
    return np.array(uniq)


def in_cone(C: PolyCone, x) -> bool:
    """Membership test at ``TOL * max(1, ||x||)``, via whichever
    representation is available.

    Half-space form checks the inequalities; generated form accepts when
    the nonnegative least-squares residual min ||G^T lam - x||, lam >= 0,
    is that small.
    """
    x = _as_matrix(x)
    if x.shape != (1, C.dim):
        raise ValueError(f"point must be a vector of length {C.dim}")
    x = x[0]
    if C.normals is not None:
        return bool(np.all(C.normals @ x >= -TOL * max(1.0, np.linalg.norm(x))))
    G = C.generators
    if G.shape[0] == 0:
        return bool(np.linalg.norm(x) <= TOL)
    _, r = _nnls(G.T, x)
    return bool(np.linalg.norm(r) <= TOL * max(1.0, np.linalg.norm(x)))


def cones_equal(C1: PolyCone, C2: PolyCone) -> bool:
    """Set equality via mutual generator membership."""
    g1, g2 = cone_generators(C1), cone_generators(C2)
    return all(in_cone(C2, g) for g in g1) and all(in_cone(C1, g) for g in g2)


# ---------------------------------------------------------------------------
# recession geometry of polyhedra


def recession_cone(C: Polyhedron) -> PolyCone:
    """lim(C) = {x : C + x subset of C}; for {Ax >= b} this is {Ax >= 0}."""
    if C.is_empty():
        raise ValueError("recession cone of an empty polyhedron is undefined")
    return PolyCone(normals=np.array(C.normals, copy=True))


def lineality_space(C: Polyhedron) -> np.ndarray:
    """Basis (rows) of H(C) = lim(C) cap -lim(C) = null space of the normals."""
    if C.is_empty():
        raise ValueError("lineality space of an empty polyhedron is undefined")
    return _nullspace(C.normals)


def cone_is_pointed(C: PolyCone) -> bool:
    """A generated cone is pointed iff 0 is not a convex combination of its
    normalized generators (no nonzero x with x and -x in the cone).

    By Gordan's theorem that holds exactly when Gx > 0 for some x, that is
    when {x : Gx >= 1} is nonempty, so the verdict is the witness-checked
    ``Polyhedron.is_empty`` of that set.
    """
    G = cone_generators(C)
    norms = np.linalg.norm(G, axis=1)
    G = G[norms > TOL] / norms[norms > TOL, None]
    if G.shape[0] == 0:
        return True
    return not Polyhedron(G, np.ones(G.shape[0])).is_empty()


#: Escaping-sample cutoffs for the has_interior_B surrogate, see below.
ESCAPE_FRACTION = 0.5
ESCAPE_RADIUS = 10.0


def has_interior_B(X: SampledSet) -> bool:
    """Finite-sample surrogate for "B(X) has interior points".

    For a truly finite family X the bounded-below cone B(X) is all of R^n
    and the answer would always be true.  The sampled families of interest
    stand in for unbounded sets, so we read asymptotic directions off the
    sample: points with norm >= max(ESCAPE_RADIUS, ESCAPE_FRACTION * R),
    R the largest sample norm, are treated as escaping to infinity, and
    their directions generate a stand-in for the recession cone of
    conv(X).  The result is true iff that cone is pointed (equivalently,
    proper), i.e. iff the escaping directions do not span opposite rays.

    This is explicitly a surrogate: semi-equicontinuity is not decidable
    from finitely many points, and reports label it as such.
    """
    if X.dim > MAX_DD_DIM:
        raise ValueError(f"has_interior_B limited to dimension {MAX_DD_DIM}")
    pts = X.points
    norms = np.linalg.norm(pts, axis=1)
    R = float(norms.max())
    cut = max(ESCAPE_RADIUS, ESCAPE_FRACTION * R)
    escapers = pts[norms >= cut]
    if escapers.shape[0] == 0:
        return True              # bounded sample: B(X) = R^n
    return cone_is_pointed(PolyCone(generators=escapers))


def group_average(orbit) -> np.ndarray:
    """Arithmetic mean of an orbit sample (the fixed-point projection of a
    finite group acting by permuting the sample)."""
    pts = _as_matrix(orbit)
    if pts.shape[0] == 0:
        raise ValueError("empty orbit")
    return pts.mean(axis=0)
