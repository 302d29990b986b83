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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, nnls

#: Floating tolerance for all cone algebra in this module.
TOL = 1e-9

#: Hard cap on the ambient dimension of double-description conversions.
MAX_DD_DIM = 8


def _as_matrix(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError("expected a list of equal-length vectors")
    return pts


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
        b = np.zeros(self.normals.shape[0]) if self.offsets is None \
            else np.asarray(self.offsets, dtype=float)
        if b.shape != (self.normals.shape[0],):
            raise ValueError("offsets must match the number of normals")
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def is_empty(self) -> bool:
        """LP feasibility of {x : Ax >= b}."""
        A, b = self.normals, self.offsets
        res = linprog(np.zeros(self.dim), A_ub=-A, b_ub=-b,
                      bounds=[(None, None)] * self.dim, method="highs")
        return not res.success


def support_function(X: SampledSet, v) -> float:
    """s_X(v) = max_p <p, -v> over the sample; finite for finite samples."""
    v = np.asarray(v, dtype=float)
    if v.shape != (X.dim,):
        raise ValueError(f"direction has dimension {v.shape}, expected ({X.dim},)")
    return float(np.max(X.points @ (-v)))


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
    orientations are kept when feasible, which also covers k = 1.
    """
    from itertools import combinations

    m = A.shape[0]
    out: list[np.ndarray] = []

    def feasible(r):
        return np.all(A @ r >= -TOL * max(1.0, float(np.abs(A).max(initial=1.0))))

    if k == 1:
        for r in (np.array([1.0]), np.array([-1.0])):
            if feasible(r):
                out.append(r)
        return out
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
    """Membership test, via whichever representation is available.

    Half-space form checks the inequalities; generated form solves the
    nonnegative least-squares problem min ||G^T lam - x||, lam >= 0.
    """
    x = np.asarray(x, dtype=float)
    if C.normals is not None:
        return bool(np.all(C.normals @ x >= -TOL * max(1.0, np.linalg.norm(x))))
    G = C.generators
    if G.shape[0] == 0:
        return bool(np.linalg.norm(x) <= TOL)
    _, resid = nnls(G.T, x)
    return resid <= TOL * max(1.0, np.linalg.norm(x))


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
    normalized generators (no nonzero x with x and -x in the cone)."""
    G = cone_generators(C)
    norms = np.linalg.norm(G, axis=1)
    G = G[norms > TOL] / norms[norms > TOL, None]
    if G.shape[0] == 0:
        return True
    m, n = G.shape
    A_eq = np.vstack([G.T, np.ones((1, m))])
    b_eq = np.concatenate([np.zeros(n), [1.0]])
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * m, method="highs")
    return not res.success


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
