"""Named verification suites: seeded, deterministic check batteries.

Each suite draws its randomness from numpy's default_rng (the PCG64
generator) seeded from the config, so identical configs reproduce
identical reports.  Tolerances are multiplied by the config's tol_scale
to allow exploratory loosening without editing code; anchors are plain
statements of the identity being checked.

Each suite declares the integer parameters it reads, with a default and
an allowed range (`SUITES`); a config that names any other key, or a
value outside its range, is rejected before the suite runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from . import circle as ci
from . import convexcore as cx
from . import fock as fk
from . import realmaps as rm
from . import symplectic as sy
from . import virasoro as vi
from .reports import CheckResult, VerificationReport, boolean_check, check

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class SuiteConfig:
    """Suite name plus seed, tolerance scale, and integer overrides of the
    parameters the suite declares.  Params are checked only for a
    registered suite; run_suite rejects any other name."""

    suite: str
    seed: int = DEFAULT_SEED
    tol_scale: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tol_scale <= 0.0:
            raise ValueError("tol_scale must be positive")
        if self.suite not in SUITES:
            return
        declared = SUITES[self.suite][2]
        for key, val in self.params.items():
            if key not in declared:
                raise ValueError(f"unknown config parameter {key!r} for suite "
                                 f"{self.suite!r}")
            _, low, high = declared[key]
            if isinstance(val, bool) or not isinstance(val, int) \
                    or not low <= val <= high:
                raise ValueError(f"parameter {key!r} must be a positive integer "
                                 f"in [{low}, {high}]")

    def get(self, key: str) -> int:
        return self.params.get(key, SUITES[self.suite][2][key][0])

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        data = dict(data)
        suite = data.pop("suite")
        seed = int(data.pop("seed", DEFAULT_SEED))
        tol_scale = float(data.pop("tol_scale", 1.0))
        return cls(suite=suite, seed=seed, tol_scale=tol_scale, params=data)

    @classmethod
    def from_file(cls, path: str) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# shared random helpers


def _random_field(rng, degree: int, modes: int = 8,
                  scale: float = 1.0) -> ci.FourierFunction:
    coeffs = {0: scale * rng.normal()}
    for k in range(1, min(modes, degree) + 1):
        c = scale * (rng.normal() + 1j * rng.normal()) / (1 + k * k)
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    return ci.FourierFunction.from_dict(coeffs, degree=degree)


def _random_antihermitian(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (z - z.conj().T)


def _random_projection_and_conjugation(rng, d: int):
    """A commuting pair (P, Gamma): orthogonal projection and antilinear
    isometric involution, built on a shared eigenbasis."""
    mask = (rng.uniform(size=d) < 0.5).astype(float)
    if not mask.any():
        mask[0] = 1.0  # keep the twisted part nontrivial
    if rng.uniform() < 0.5:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        signs = np.where(rng.uniform(size=d) < 0.5, -1.0, 1.0)
        gamma = (q * signs) @ q.T
        P = (q * mask) @ q.T
    else:
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=d))
        gamma = np.diag(phases)
        P = np.diag(mask)
    return np.asarray(P, dtype=complex), np.asarray(gamma, dtype=complex)


# ---------------------------------------------------------------------------
# convex-cones


def _suite_convex_cones(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    trials = cfg.get("trials")
    out = []

    worst_h = 0.0
    worst_sub = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        X = cx.SampledSet(tuple(tuple(rng.normal(size=n)) for _ in range(6)))
        v = rng.normal(size=n)
        w = rng.normal(size=n)
        s = rng.uniform(0.0, 3.0)
        worst_h = max(worst_h, abs(cx.support_function(X, s * v)
                                   - s * cx.support_function(X, v)))
        worst_sub = max(worst_sub, cx.support_function(X, v + w)
                        - cx.support_function(X, v) - cx.support_function(X, w))
    out.append(check("01-support-homogeneity",
                     "s_X(t v) = t s_X(v) for t >= 0",
                     worst_h, 1e-12 * t))
    out.append(check("02-support-subadditivity",
                     "s_X(v + w) <= s_X(v) + s_X(w)",
                     max(0.0, worst_sub), 1e-12 * t))

    cross = cx.SampledSet(tuple(tuple(s * e) for s in (1.0, -1.0)
                                for e in np.eye(3)))
    out.append(check("03-cross-polytope-support",
                     "support of {+-e_i} at (1,2,3) equals 3",
                     abs(cx.support_function(cross, (1.0, 2.0, 3.0)) - 3.0),
                     1e-12 * t))

    dd_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gens = tuple(tuple(rng.normal(size=n)) for _ in range(int(rng.integers(1, 6))))
        C = cx.PolyCone(generators=gens)
        DD = cx.dual_cone(cx.dual_cone(C))
        dd_ok = dd_ok and cx.cones_equal(C, DD)
    out.append(boolean_check("04-double-dual",
                             "dual of the dual cone recovers the cone", dd_ok))

    worst_pair = 0.0
    done = 0
    for _ in range(100):
        if done == 10:
            break
        n = int(rng.integers(2, 4))
        normals = rng.normal(size=(3, n))
        offsets = rng.normal(size=3)
        poly = cx.Polyhedron(tuple(tuple(a) for a in normals), tuple(offsets))
        if poly.is_empty():
            continue
        done += 1
        rec = cx.recession_cone(poly)
        dirs = cx.cone_generators(rec)
        for _ in range(10):
            lam = rng.uniform(size=3)
            alpha = lam @ normals
            for dvec in dirs:
                worst_pair = max(worst_pair, -float(np.dot(alpha, dvec)))
    out.append(check("05-bounded-below-duality",
                     "bounded-below functionals pair >= 0 with recession directions",
                     max(0.0, worst_pair), 1e-9 * t))

    slab = cx.Polyhedron(((1.0, 0.0), (-1.0, 0.0)), (-1.0, -1.0))
    lin = cx.lineality_space(slab)
    slab_ok = (len(lin) == 1
               and abs(abs(float(np.asarray(lin[0])[1])) - 1.0) < 1e-12
               and abs(float(np.asarray(lin[0])[0])) < 1e-12)
    out.append(boolean_check("06-lineality-slab",
                             "lineality of the slab |x1| <= 1 is the x2 axis",
                             slab_ok))

    square = cx.Polyhedron(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
                           (-1.0, -1.0, -1.0, -1.0))
    worst_avg = 0.0
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, size=2)
        orbit = []
        for k in range(4):
            th = k * math.pi / 2
            R = np.array([[math.cos(th), -math.sin(th)],
                          [math.sin(th), math.cos(th)]])
            orbit.append(R @ p)
        avg = cx.group_average(orbit)
        for a, b in zip(square.normals, square.offsets):
            worst_avg = max(worst_avg, b - float(np.dot(a, avg)))
    out.append(check("07-averaging-inside",
                     "orbit average of an invariant polyhedron member stays inside",
                     max(0.0, worst_avg), 1e-9 * t))

    thetas = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    circle_pts = cx.SampledSet(tuple((math.cos(a), math.sin(a)) for a in thetas))
    rays = cx.SampledSet(tuple((float(k), 0.0) for k in range(101))
                         + tuple((-float(k), 0.0) for k in range(1, 101)))
    single = cx.SampledSet(((2.0, 3.0),))
    surrogate_ok = (cx.has_interior_B(circle_pts)
                    and not cx.has_interior_B(rays)
                    and cx.has_interior_B(single))
    out.append(boolean_check("08-interior-surrogate",
                             "bounded samples pass, opposite-ray samples fail "
                             "the finite interior surrogate", surrogate_ok))
    return out


# ---------------------------------------------------------------------------
# circle-calculus


def _suite_circle(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    out = []

    worst = 0.0
    M = 256
    grid = ci.grid_points(M)
    for _ in range(20):
        f = _random_field(rng, degree=12)
        g = _random_field(rng, degree=12)
        prod = ci.multiply(f, g, degree=24)
        vals = prod.evaluate(grid)
        direct = f.evaluate(grid) * g.evaluate(grid)
        worst = max(worst, float(np.max(np.abs(vals - direct))))
    out.append(check("01-product-alias-free",
                     "coefficient convolution equals the pointwise product",
                     worst, 1e-11 * t))

    worst = 0.0
    for n in range(-6, 7):
        for m in range(-6, 7):
            dn = ci.witt_generator(n, degree=14)
            dm = ci.witt_generator(m, degree=14)
            br = ci.lie_bracket(dn, dm, degree=14).f
            expected = (n - m) * ci.witt_generator(n + m, degree=14).f
            diff = br - expected
            worst = max(worst, max(abs(diff.coeff(k)) for k in range(-14, 15)))
    out.append(check("02-bracket-structure-constants",
                     "[d_n, d_m] = (n - m) d_{n+m}", worst, 1e-12 * t))

    worst = 0.0
    for _ in range(10):
        F = ci.VectorField(_random_field(rng, degree=8))
        G = ci.VectorField(_random_field(rng, degree=8))
        H = ci.VectorField(_random_field(rng, degree=8))
        j = (ci.lie_bracket(F, ci.lie_bracket(G, H, degree=16), degree=24)
             + ci.lie_bracket(G, ci.lie_bracket(H, F, degree=16), degree=24)
             + ci.lie_bracket(H, ci.lie_bracket(F, G, degree=16), degree=24))
        worst = max(worst, j.f.sup_norm())
    out.append(check("03-jacobi-identity",
                     "Jacobi identity for the field bracket", worst, 1e-10 * t))

    # Small amplitudes here: the inverse of a trig-polynomial diffeo is
    # not itself one, and its degree-32 truncation must sit below the
    # tolerance for the roundtrip to be a test of invert rather than of
    # the truncation tail.
    worst = 0.0
    for _ in range(20):
        phi = ci.random_diffeo(rng, degree=32, modes=4,
                               amplitude=0.03, max_slope=0.3)
        round_trip = ci.compose(phi, ci.invert(phi))
        worst = max(worst, round_trip.p.sup_norm())
    out.append(check("04-compose-invert-roundtrip",
                     "phi composed with its inverse is the identity",
                     worst, 1e-9 * t))

    worst = 0.0
    for _ in range(5):
        raw = _random_field(rng, degree=12)
        raw = raw * (0.2 / max(raw.sup_norm(), 1e-12))
        f = ci.VectorField(raw)
        a, b = rng.uniform(0.05, 0.3, size=2)
        one = ci.compose(ci.flow(f, a), ci.flow(f, b))
        two = ci.flow(f, a + b)
        worst = max(worst, (one.p - two.p).sup_norm())
    out.append(check("05-flow-additivity",
                     "flow(s) o flow(t) = flow(s + t)", worst, 1e-8 * t))

    worst = 0.0
    for _ in range(10):
        phi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        psi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        worst = max(worst, ci.schwarzian_cocycle_residual(phi, psi, grid_size=256))
    out.append(check("06-schwarzian-chain-rule",
                     "S(phi o psi) = (S(phi) o psi) (psi')^2 + S(psi)",
                     worst, 1e-8 * t))

    worst = 0.0
    for _ in range(5):
        phi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        psi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        rho = ci.Density(_random_field(rng, degree=8), 2)
        one = ci.pullback_density(psi, ci.pullback_density(phi, rho))
        two = ci.pullback_density(ci.compose(phi, psi), rho)
        worst = max(worst, (one.u - two.u).sup_norm())
    out.append(check("07-pullback-composition",
                     "pulling back along psi then phi equals pulling back "
                     "along phi o psi", worst, 1e-8 * t))

    f = _random_field(rng, degree=10)
    r1 = abs(ci.integrate(ci.derivative(f)))
    r2 = abs(ci.integrate(ci.FourierFunction.from_dict({3: 1.0}, degree=5)))
    r3 = abs(ci.integrate(ci.FourierFunction.constant(1.0, 4)) - 2 * math.pi)
    out.append(check("08-derivative-integrate",
                     "int f' = 0, int e^{ik t} = 2 pi delta_{k,0}",
                     max(r1, r2, r3), 1e-14 * t))
    return out


# ---------------------------------------------------------------------------
# virasoro-cocycle


def _suite_virasoro_cocycle(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    out = []

    worst = 0.0
    for n in range(1, 9):
        dn = ci.witt_generator(n, degree=10)
        dmn = ci.witt_generator(-n, degree=10)
        val = ci.omega_cocycle(dn, dmn)
        worst = max(worst, abs(val - 2j * math.pi * (n ** 3 - n)))
    out.append(check("01-generator-values",
                     "omega(d_n, d_{-n}) = 2 pi i (n^3 - n)", worst, 1e-9 * t))

    worst = 0.0
    for _ in range(20):
        F = ci.VectorField(_random_field(rng, degree=10))
        G = ci.VectorField(_random_field(rng, degree=10))
        worst = max(worst, abs(ci.omega_cocycle(F, G) + ci.omega_cocycle(G, F)))
    out.append(check("02-antisymmetry",
                     "omega(f, g) = -omega(g, f)", worst, 1e-9 * t))

    worst = 0.0
    for _ in range(10):
        F = ci.VectorField(_random_field(rng, degree=8))
        G = ci.VectorField(_random_field(rng, degree=8))
        H = ci.VectorField(_random_field(rng, degree=8))
        val = (ci.omega_cocycle(ci.lie_bracket(F, G), H)
               + ci.omega_cocycle(ci.lie_bracket(G, H), F)
               + ci.omega_cocycle(ci.lie_bracket(H, F), G))
        worst = max(worst, abs(val))
    out.append(check("03-cocycle-identity",
                     "omega vanishes on the cyclic sum over brackets",
                     worst, 1e-8 * t))

    worst = 0.0
    for _ in range(20):
        F = ci.VectorField(_random_field(rng, degree=10))
        G = ci.VectorField(_random_field(rng, degree=10))
        lhs = ci.omega_cocycle(F, G)
        rhs = ci.gelfand_fuchs(F, G) \
            - 0.5 * ci.integrate(ci.lie_bracket(F, G).f)
        worst = max(worst, abs(lhs - rhs))
    out.append(check("04-gelfand-fuchs-decomposition",
                     "omega = omega_GF - (1/2) int [f, g]", worst, 1e-10 * t))

    trials = cfg.get("trials")
    worst = 0.0
    for _ in range(trials):
        phi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        psi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        worst = max(worst, ci.schwarzian_cocycle_residual(phi, psi, grid_size=256))
    out.append(check("05-schwarzian-cocycle",
                     "S(phi o psi) = (S(phi) o psi)(psi')^2 + S(psi), "
                     f"{trials} random pairs", worst, 1e-8 * t))

    worst = 0.0
    for _ in range(10):
        phi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        psi = ci.random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                               max_slope=0.4)
        worst = max(worst, ci.schwarzian_cocycle_residual(phi, psi,
                                                          grid_size=256,
                                                          modified=True))
    out.append(check("06-modified-schwarzian-cocycle",
                     "Stilde satisfies the same chain rule as S",
                     worst, 1e-8 * t))

    rot = ci.CircleDiffeo.rotation(1.234, degree=16)
    r1 = ci.schwarzian(rot).sup_norm()
    r2 = ci.modified_schwarzian(rot).sup_norm()
    out.append(check("07-rotation-schwarzian-zero",
                     "S and Stilde vanish on rotations", max(r1, r2), 1e-12 * t))

    worst = 0.0
    chat = vi.normalized_central(degree=14)
    for n in range(-6, 7):
        for m in range(-6, 7):
            x = vi.generator(n, degree=14)
            y = vi.generator(m, degree=14)
            br = vi.vir_bracket(x, y, degree=14)
            expected = (n - m) * vi.generator(n + m, degree=14)
            if n + m == 0:
                expected = expected + ((n ** 3 - n) / 12.0) * chat
            dz = abs(br.z - expected.z)
            dfield = max(abs(br.field.coeff(k) - expected.field.coeff(k))
                         for k in range(-14, 15))
            worst = max(worst, dz, dfield)
    out.append(check("08-normalized-bracket",
                     "[d_n, d_m] = (n - m) d_{n+m} + delta (n^3 - n)/12 chat",
                     worst, 1e-9 * t))
    return out


# ---------------------------------------------------------------------------
# virasoro-orbits


def _suite_virasoro_orbits(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    degree = cfg.get("degree")
    out = []

    f = ci.FourierFunction.from_dict({0: 2.0, 1: 0.5, -1: 0.5}, degree=8)
    out.append(check("01-chi-exact-value",
                     "chi(2 + cos) = 1/sqrt(3)",
                     abs(vi.chi(f) - 1.0 / math.sqrt(3.0)), 1e-10 * t))

    base = ci.FourierFunction.from_dict(
        {0: 1.0, 1: 0.15 + 0.1j, -1: 0.15 - 0.1j, 2: 0.05, -2: 0.05},
        degree=degree)
    x = vi.VirasoroElement(0.25, base)
    chi0 = vi.chi(x)
    inv0 = vi.orbit_invariants(x)
    trials = cfg.get("trials")
    worst_chi = 0.0
    worst_inv = 0.0
    for _ in range(trials):
        phi = ci.random_diffeo(rng, degree=degree, modes=5,
                               amplitude=0.06, max_slope=0.4)
        y = vi.adjoint_action(phi, x)
        worst_chi = max(worst_chi, abs(vi.chi(y) - chi0))
        inv = vi.orbit_invariants(y)
        worst_inv = max(worst_inv, abs(inv.beta - inv0.beta),
                        abs(inv.alpha - inv0.alpha))
    out.append(check("02-chi-adjoint-invariance",
                     "chi is constant along adjoint orbits", worst_chi, 1e-9 * t))
    out.append(check("03-invariants-adjoint-invariance",
                     "(beta, alpha) are constant along adjoint orbits",
                     worst_inv, 1e-7 * t))

    cart = vi.VirasoroElement.cartan(0.0, 1.0, degree)
    rep = vi.convexity_check(cart, trials=200, rng=rng, degree=degree)
    slack = min(rep["min_beta_margin"], rep["min_alpha_margin"])
    out.append(check("04-convexity-margins",
                     "Cartan projection of Ad_phi(x) dominates x in both "
                     "coordinates", max(0.0, -slack), 1e-8 * t))

    worst = 0.0
    for _ in range(200):
        h = _random_field(rng, degree=12)
        worst = max(worst, vi.beta_hessian_form(h))
    out.append(check("05-beta-hessian-nonpositive",
                     "second variation of beta is <= 0", max(0.0, worst),
                     1e-9 * t))

    worst = 0.0
    for n in range(1, 9):
        h = ci.FourierFunction.from_dict({n: 0.5, -n: 0.5}, degree=10)
        worst = max(worst, abs(vi.beta_hessian_form(h) - math.pi * (1 - n * n)))
    out.append(check("06-beta-hessian-cos-values",
                     "Hessian value pi (1 - n^2) on cos(n t)", worst, 1e-9 * t))

    worst = 0.0
    for n in (2, 3):
        pts = vi.projection_curve(vi.VirasoroElement.cartan(0.0, 1.0, degree),
                                  n, (0.04, 0.02, 0.01), degree=degree)
        for p in pts:
            d_alpha = p.alpha - 1.0
            d_beta = p.beta
            worst = max(worst, abs(d_beta / d_alpha - math.pi * (n * n - 1)))
    pts1 = vi.projection_curve(vi.VirasoroElement.cartan(0.0, 1.0, degree),
                               1, (0.01, 0.03), degree=degree)
    worst1 = max(abs(p.beta) for p in pts1)
    out.append(check("07-projection-ray-ratio",
                     "curve moves along 2n(pi(n^2 - 1) c + rotation); "
                     "central shift vanishes for n = 1",
                     max(worst, worst1), 1e-3 * t))

    worst = 0.0
    for _ in range(20):
        phi = ci.random_diffeo(rng, degree=32, modes=5,
                               amplitude=0.06, max_slope=0.4)
        xe = vi.VirasoroElement(float(rng.normal()), _random_field(rng, degree=10))
        lam = vi.VirasoroFunctional(float(rng.normal()),
                                    ci.Density(_random_field(rng, degree=10), 2))
        lhs = vi.pairing(vi.coadjoint_action(phi, lam), vi.adjoint_action(phi, xe))
        rhs = vi.pairing(lam, xe)
        worst = max(worst, abs(lhs - rhs))
    out.append(check("08-pairing-invariance",
                     "<Ad*_phi lam, Ad_phi x> = <lam, x>", worst, 1e-7 * t))

    worst = 0.0
    values = []
    for texp in (1e-1, 1e-2, 1e-3, 1e-5, 5e-7):
        ft = ci.FourierFunction.from_dict(
            {0: texp + (1 - texp), 1: 0.5 * (1 - texp), -1: 0.5 * (1 - texp)},
            degree=4)
        val = vi.chi(ft, grid_size=200000)
        exact = 1.0 / math.sqrt(2 * texp - texp * texp)
        worst = max(worst, abs(val - exact) / exact)
        values.append(val)
    out.append(check("09-chi-blowup-closed-form",
                     "chi(t + (1 - t)(1 + cos)) = (2t - t^2)^{-1/2}",
                     worst, 1e-8 * t))
    grows = all(b > a for a, b in zip(values, values[1:]))
    out.append(boolean_check("10-chi-blowup-monotone",
                             "chi blows up monotonically toward the orbit "
                             "boundary, past 1e3 by t = 5e-7",
                             grows and values[-1] > 1e3))
    return out


# ---------------------------------------------------------------------------
# virasoro-verma


def _suite_virasoro_verma(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    out = []

    def rand_frac():
        return Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 8)))

    ok = True
    for _ in range(5):
        c, h = rand_frac(), rand_frac()
        for n in range(1, 6):
            G = vi.verma_gram(vi.VermaBasis(level=n, c=c, h=h,
                                            partitions=((n,),)))
            ok = ok and G[0, 0] == vi.singleton_norm(n, c, h)
    out.append(boolean_check("01-singleton-norms-exact",
                             "<d_{-n} v, d_{-n} v> = 2 n h + c (n^3 - n)/12 "
                             "in exact rationals", ok))

    ok = True
    for _ in range(5):
        c, h = rand_frac(), rand_frac()
        G = vi.verma_gram(vi.VermaBasis(level=2, c=c, h=h))
        expected = {
            ((2,), (2,)): 4 * h + Fraction(c, 2),
            ((2,), (1, 1)): 6 * h,
            ((1, 1), (1, 1)): 8 * h * h + 4 * h,
        }
        basis = vi.VermaBasis(level=2, c=c, h=h).partitions
        for i, pi_ in enumerate(basis):
            for j, pj in enumerate(basis):
                key = (pi_, pj) if (pi_, pj) in expected else (pj, pi_)
                ok = ok and G[i, j] == expected[key]
    out.append(boolean_check("02-level2-gram-exact",
                             "level-2 Gram matrix [[4h + c/2, 6h], "
                             "[6h, 8h^2 + 4h]]", ok))

    ok = True
    for _ in range(5):
        h = rand_frac()
        for n in range(1, 4):
            basis = vi.VermaBasis(level=2 * n, c=Fraction(0), h=h,
                                  partitions=((2 * n,), (n, n)))
            G = vi.verma_gram(basis)
            det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
            ok = ok and det == 4 * n ** 3 * h ** 2 * (8 * h - 5 * n)
    out.append(boolean_check("03-pair-determinant-c0",
                             "det over {d_{-2n} v, d_{-n}^2 v} at c = 0 is "
                             "4 n^3 h^2 (8h - 5n)", ok))

    worst = 0.0
    for _ in range(5):
        c = float(rng.uniform(-3, 3))
        h = float(rng.uniform(-3, 3))
        for level in range(1, 5):
            G = vi.verma_gram(vi.VermaBasis(level=level, c=c, h=h))
            worst = max(worst, float(np.max(np.abs(G - G.T))))
    out.append(check("04-gram-symmetry",
                     "Gram matrices are symmetric", worst, 1e-9 * t))

    worst = 0.0
    c, h = Fraction(7, 10), Fraction(-3, 4)
    for level in range(1, 5):
        Ge = vi.verma_gram(vi.VermaBasis(level=level, c=c, h=h))
        Gf = vi.verma_gram(vi.VermaBasis(level=level, c=float(c), h=float(h)))
        diff = np.abs(np.vectorize(float)(Ge) - Gf)
        worst = max(worst, float(np.max(diff)))
    out.append(check("05-exact-vs-float",
                     "float Gram agrees with the rational one", worst, 1e-9 * t))

    rep = vi.unitarity_scan([1.0], [1.0], max_level=cfg.get("max_level"))
    ok_pos = rep[(1.0, 1.0)]["first_negative_level"] is None
    rep2 = vi.unitarity_scan([0.0], [0.5], max_level=3)
    ok_neg = rep2[(0.0, 0.5)]["first_negative_level"] == 2
    rep3 = vi.unitarity_scan([26.0], [1.0], max_level=4)
    ok_big = rep3[(26.0, 1.0)]["first_negative_level"] is None
    out.append(boolean_check("06-unitarity-scan-signs",
                             "(c,h) = (1,1) and (26,1) stay PSD; (0, 1/2) "
                             "turns negative at level 2",
                             ok_pos and ok_neg and ok_big))
    return out


# ---------------------------------------------------------------------------
# fock-ccr


def _suite_fock_ccr(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    out = []

    bs = fk.ModeSpace(3, fk.BOSONIC, cutoff=cfg.get("cutoff"))
    safe = bs.cutoff - 2
    worst_comm = 0.0
    worst_aa = 0.0
    for _ in range(10):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        g = rng.normal(size=3) + 1j * rng.normal(size=3)
        af, ag = fk.annihilate(bs, f), fk.annihilate(bs, g)
        cg = fk.create(bs, g)
        comm = af.commutator(cg) - rm.inner(g, f) * fk.FockOperator.identity(bs)
        worst_comm = max(worst_comm, comm.restricted_norm(safe))
        worst_aa = max(worst_aa, af.commutator(ag).restricted_norm(safe))
    out.append(check("01-ccr-commutator",
                     "[a(f), a*(g)] = <g, f> on the safe subspace",
                     worst_comm, 1e-12 * t))
    out.append(check("02-ccr-annihilators-commute",
                     "[a(f), a(g)] = 0 on the safe subspace",
                     worst_aa, 1e-12 * t))

    fs = fk.ModeSpace(3, fk.FERMIONIC)
    worst_anti = 0.0
    worst_aa = 0.0
    for _ in range(10):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        g = rng.normal(size=3) + 1j * rng.normal(size=3)
        af = fk.annihilate(fs, f)
        anti = af.anticommutator(fk.create(fs, g)) \
            - rm.inner(g, f) * fk.FockOperator.identity(fs)
        worst_anti = max(worst_anti, anti.norm())
        worst_aa = max(worst_aa, af.anticommutator(fk.annihilate(fs, g)).norm())
    out.append(check("03-car-anticommutator",
                     "{a(f), a*(g)} = <g, f> exactly", worst_anti, 1e-13 * t))
    out.append(check("04-car-annihilators",
                     "{a(f), a(g)} = 0 exactly", worst_aa, 1e-13 * t))

    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    r_ferm = (fk.annihilate(fs, f) - fk.create(fs, f).adjoint()).norm()
    diff = fk.annihilate(bs, f) - fk.create(bs, f).adjoint()
    r_bos = diff.restricted_norm(bs.cutoff - 1)
    out.append(check("05-adjointness",
                     "a(f) is the adjoint of a*(f)", max(r_ferm, r_bos),
                     1e-13 * t))

    N_op = fk.number_operator(bs)
    cf = fk.create(bs, f)
    grading = (N_op.commutator(cf) - cf).restricted_norm(safe)
    I_gen = rm.RealLinearMap.from_linear(1j * np.eye(3))
    comm_I = fk.second_quantize(bs, I_gen).commutator(N_op).norm()
    out.append(check("06-number-grading",
                     "[N, a*(f)] = a*(f); dpi(i 1) commutes with N",
                     max(grading, comm_I), 1e-12 * t))

    ws = fk.ModeSpace(1, fk.BOSONIC, cutoff=cfg.get("N"))
    worst = 0.0
    for norm2 in (1.0, 2.0, 4.0):
        fvec = np.array([math.sqrt(norm2)])
        W = fk.weyl(ws, 0.0, fvec)
        val = W.apply(fk.vacuum(ws)).inner(fk.vacuum(ws))
        worst = max(worst, abs(val - math.exp(-norm2 / 4.0)))
    out.append(check("07-weyl-coefficient",
                     "<W(f) Omega, Omega> = exp(-|f|^2/4)", worst, 1e-6 * t))

    f1 = np.array([0.4 + 0.2j])
    f2 = np.array([-0.3 + 0.5j])
    residuals = []
    for N in (8, 12, 16, 20):
        sp = fk.ModeSpace(1, fk.BOSONIC, cutoff=N)
        W1, W2 = fk.weyl(sp, 0.0, f1), fk.weyl(sp, 0.0, f2)
        W12 = fk.weyl(sp, 0.0, f1 + f2)
        phase = complex(np.exp(0.5j * rm.omega(f1, f2)))
        diff = W1.compose(W2) - phase * W12
        residuals.append(diff.restricted_norm(N // 2))
    mono = all(b < a for a, b in zip(residuals, residuals[1:]))
    out.append(boolean_check("08-weyl-relation-sweep",
                             "Weyl relation defect decreases with the cutoff",
                             mono))

    e1 = np.array([1.0, 0.0])
    prod = fk.heisenberg_mul((0.0, e1), (0.0, 1j * e1))
    out.append(check("09-heisenberg-central",
                     "central part of (0, e1)(0, i e1) is -1/2",
                     abs(prod[0] + 0.5), 1e-14 * t))

    worst = 0.0
    for _ in range(10):
        trips = [(float(rng.normal()), rng.normal(size=2) + 1j * rng.normal(size=2))
                 for _ in range(3)]
        lhs = fk.heisenberg_mul(fk.heisenberg_mul(trips[0], trips[1]), trips[2])
        rhs = fk.heisenberg_mul(trips[0], fk.heisenberg_mul(trips[1], trips[2]))
        worst = max(worst, abs(lhs[0] - rhs[0]),
                    float(np.max(np.abs(lhs[1] - rhs[1]))))
    out.append(check("10-heisenberg-associativity",
                     "the Heisenberg product is associative", worst, 1e-12 * t))

    r = 0.7
    squeeze = rm.RealLinearMap(np.array([[math.cosh(r)]]),
                               np.array([[math.sinh(r)]]))
    refl = rm.RealLinearMap(np.zeros((1, 1)), np.ones((1, 1)))
    unit = rm.RealLinearMap.from_linear(rm.random_unitary(rng, 2))
    ok = (rm.is_symplectic(squeeze) and not rm.is_orthogonal(squeeze)
          and rm.is_orthogonal(refl) and not rm.is_symplectic(refl)
          and rm.is_symplectic(unit) and rm.is_orthogonal(unit))
    out.append(boolean_check("11-bogoliubov-predicates",
                             "squeezes are symplectic, conjugations are "
                             "orthogonal, unitaries are both", ok))
    return out


# ---------------------------------------------------------------------------
# fock-vacuum


def _suite_fock_vacuum(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    N = cfg.get("N")
    out = []

    space = fk.ModeSpace(1, fk.BOSONIC, cutoff=N)
    worst_oracle = 0.0
    worst_analytic = 0.0
    worst_vec = 0.0
    worst_odd = 0.0
    for r in (0.25, 0.5, 1.0):
        g = rm.RealLinearMap(np.array([[math.cosh(r)]]),
                             np.array([[math.sinh(r)]]))
        c, F = fk.vacuum_implementer(space, g)
        c_or, F_or = fk.truncated_vacuum_oracle(space, g)
        worst_oracle = max(worst_oracle, abs(c - c_or))
        worst_analytic = max(worst_analytic, abs(c - 1.0 / math.sqrt(math.cosh(r))))
        worst_vec = max(worst_vec, (F - F_or).norm())
        odd = F.degree_norms()[1::2]
        worst_odd = max(worst_odd, float(np.max(odd)) if odd.size else 0.0)
    tol_c = 1e-6 if N >= 40 else 1e-2
    out.append(check("01-squeeze-c-oracle",
                     "series c(g) matches the linear-solve vacuum",
                     worst_oracle, tol_c * t))
    out.append(check("02-squeeze-c-analytic",
                     "c(g) = 1/sqrt(cosh r) for the one-mode squeeze",
                     worst_analytic, tol_c * t))
    out.append(check("03-odd-components",
                     "odd-degree components of the vacuum vector vanish",
                     worst_odd, 1e-14 * t))
    out.append(check("04-series-vs-oracle-vector",
                     "series vacuum equals the nullspace vacuum",
                     worst_vec, 1e-8 * t))

    r_half = math.atanh(0.5)
    g = rm.RealLinearMap(np.array([[math.cosh(r_half)]]),
                         np.array([[math.sinh(r_half)]]))
    residuals = []
    for n in (8, 16, 24, 32):
        sp = fk.ModeSpace(1, fk.BOSONIC, cutoff=n)
        _, F = fk.vacuum_implementer(sp, g)
        residuals.append(float(np.max(fk.vacuum_residuals(sp, g, F))))
    geometric = all(b <= 0.5 * a for a, b in zip(residuals, residuals[1:]))
    out.append(boolean_check("05-residual-geometric-decrease",
                             "vacuum-equation residual decays at least "
                             "geometrically in the cutoff", geometric))

    u = rm.RealLinearMap.from_linear(rm.random_unitary(rng, 1))
    c_u, F_u = fk.vacuum_implementer(fk.ModeSpace(1, fk.BOSONIC, 8), u)
    resid_u = max(abs(c_u - 1.0),
                  (F_u - fk.vacuum(fk.ModeSpace(1, fk.BOSONIC, 8))).norm())
    out.append(check("06-unitary-trivial",
                     "unitary g implements the bare vacuum with c = 1",
                     resid_u, 1e-12 * t))

    # The residual decays like ||T||^(cutoff/2) for the squeeze matrix T
    # of the drawn g, so the scale and cutoff are chosen together.
    g2 = rm.random_symplectic(rng, 2, scale=0.1)
    sp2 = fk.ModeSpace(2, fk.BOSONIC, cutoff=32)
    _, F2 = fk.vacuum_implementer(sp2, g2)
    out.append(check("07-two-mode-residual",
                     "two-mode vacuum equation residual is small",
                     float(np.max(fk.vacuum_residuals(sp2, g2, F2))), 1e-6 * t))
    return out


# ---------------------------------------------------------------------------
# fock-central


def _suite_fock_central(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    out = []

    def rand_pair(space):
        if space.statistics == fk.BOSONIC:
            return (rm.random_sp_element(rng, space.d),
                    rm.random_sp_element(rng, space.d))
        return (rm.random_o_element(rng, space.d),
                rm.random_o_element(rng, space.d))

    for cid, stats, label in (("01-central-bosonic", fk.BOSONIC, "metaplectic"),
                              ("02-central-fermionic", fk.FERMIONIC, "spin")):
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 4)) if stats == fk.BOSONIC else int(rng.integers(2, 4))
            space = fk.ModeSpace(d, stats, cutoff=6)
            x, y = rand_pair(space)
            worst = max(worst, abs(fk.central_term(space, x, y)
                                   - fk.central_term_trace(space, x, y)))
        sign = "+" if stats == fk.BOSONIC else "-"
        out.append(check(cid,
                         f"{label} central term equals {sign}(1/2i) tr([x2, y2])",
                         worst, 1e-8 * t))

    worst = 0.0
    for stats in (fk.BOSONIC, fk.FERMIONIC):
        space = fk.ModeSpace(2, stats, cutoff=6)
        for _ in range(10):
            x, y = rand_pair(space)
            worst = max(worst, abs(fk.central_term(space, x, y)
                                   + fk.central_term(space, y, x)))
    out.append(check("03-eta-antisymmetry",
                     "eta(x, y) = -eta(y, x)", worst, 1e-9 * t))

    worst = 0.0
    for stats in (fk.BOSONIC, fk.FERMIONIC):
        space = fk.ModeSpace(3, stats, cutoff=6)
        for _ in range(10):
            x, _ = rand_pair(space)
            y, _ = rand_pair(space)
            z, _ = rand_pair(space)
            val = (fk.central_term(space, x.commutator(y), z)
                   + fk.central_term(space, y.commutator(z), x)
                   + fk.central_term(space, z.commutator(x), y))
            worst = max(worst, abs(val))
    out.append(check("04-eta-cocycle",
                     "eta vanishes on the cyclic sum over brackets",
                     worst, 1e-8 * t))

    worst_norm = 0.0
    worst_pair = 0.0
    for _ in range(100):
        stats = fk.BOSONIC if rng.uniform() < 0.5 else fk.FERMIONIC
        d = int(rng.integers(2, 5))
        space = fk.ModeSpace(d, stats, cutoff=4)
        z1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        z2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if stats == fk.BOSONIC:
            MA, MB = 0.5 * (z1 + z1.T), 0.5 * (z2 + z2.T)
        else:
            MA, MB = 0.5 * (z1 - z1.T), 0.5 * (z2 - z2.T)
        ha = fk.hat_element(space, MA)
        hb = fk.hat_element(space, MB)
        worst_norm = max(worst_norm,
                         abs(ha.norm() ** 2 - 0.5 * np.linalg.norm(MA) ** 2))
        worst_pair = max(worst_pair,
                         abs(ha.inner(hb) - fk.hat_pairing(space, MA, MB)))
    out.append(check("05-hat-norm-identity",
                     "|A-hat|^2 = (1/2) |A|_HS^2", worst_norm, 1e-10 * t))
    out.append(check("06-hat-pairing",
                     "<A-hat, B-hat> = +-(1/2) tr(A B)", worst_pair, 1e-10 * t))

    worst = 0.0
    for stats in (fk.BOSONIC, fk.FERMIONIC):
        space = fk.ModeSpace(3, stats, cutoff=4)
        for _ in range(10):
            x, _ = rand_pair(space)
            x2 = rm.RealLinearMap.from_antilinear(x.G2)
            lhs = fk.second_quantize(space, x2).apply(fk.vacuum(space))
            worst = max(worst, (lhs + fk.hat_element(space, x.G2)).norm())
    out.append(check("07-dpi-vacuum-hat",
                     "dpi(x_2) applied to the vacuum is -x_2-hat",
                     worst, 1e-12 * t))

    space = fk.ModeSpace(3, fk.FERMIONIC)
    worst = 0.0
    for _ in range(10):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        Q = fk.rank_one_generator(v, w)
        lhs = fk.second_quantize(space, Q)
        rhs = fk.create(space, v).compose(fk.annihilate(space, w)) \
            - fk.create(space, w).compose(fk.annihilate(space, v))
        worst = max(worst, (lhs - rhs).norm())
    out.append(check("08-rank-one-fermionic",
                     "dpi(Q_{v,w}) = a*(v) a(w) - a*(w) a(v)", worst, 1e-12 * t))

    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        space = fk.ModeSpace(d, fk.FERMIONIC)
        P, gamma = _random_projection_and_conjugation(rng, d)
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=d) + 1j * rng.normal(size=d)
        aP = fk.quasifree_twist(space, P, gamma, f)
        aPg_star = fk.quasifree_twist(space, P, gamma, g).adjoint()
        resid = aP.anticommutator(aPg_star) \
            - rm.inner(g, f) * fk.FockOperator.identity(space)
        worst = max(worst, resid.norm())
    out.append(check("09-quasifree-car",
                     "the twisted annihilators satisfy the CAR", worst,
                     1e-13 * t))

    worst = 0.0
    for stats in (fk.BOSONIC, fk.FERMIONIC):
        space = fk.ModeSpace(2, stats, cutoff=6)
        for _ in range(10):
            x = rm.RealLinearMap.from_linear(_random_antihermitian(rng, 2))
            y = rm.RealLinearMap.from_linear(_random_antihermitian(rng, 2))
            worst = max(worst, abs(fk.central_term(space, x, y)))
    out.append(check("10-unitary-central-zero",
                     "eta vanishes when both arguments are complex-linear",
                     worst, 1e-12 * t))
    return out


# ---------------------------------------------------------------------------
# symplectic-cones


def _suite_symplectic(cfg: SuiteConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    t = cfg.tol_scale
    out = []

    trials = cfg.get("trials")
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(1, 5))
        A = sy.random_cone_element(rng, d)
        J = sy.positive_complex_structure(A)
        JJ = J.compose(J)
        r1 = np.linalg.norm(JJ.G1 + np.eye(d)) + np.linalg.norm(JJ.G2)
        r2 = np.linalg.norm(J.commutator(A.X).to_real_matrix())
        r3 = max(0.0, -sy.cone_margin(sy.SymplecticElement(J)))
        worst = max(worst, r1, r2, r3)
    out.append(check("01-pcs-postconditions",
                     "J^2 = -1, [J, A] = 0, omega(J v, v) > 0", worst, 1e-9 * t))

    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        A = sy.random_cone_element(rng, d)
        g, Ap = sy.conjugate_to_unitary(A)
        r1 = Ap.antilinear_norm()
        r2 = rm.symplectic_defect(g)
        H = 0.5 * (1j * Ap.G1 + (1j * Ap.G1).conj().T)
        r3 = max(0.0, float(np.linalg.eigvalsh(H)[-1]))
        r4 = float(np.linalg.norm(1j * Ap.G1 - (1j * Ap.G1).conj().T))
        worst = max(worst, r1, r2, r3, r4)
    out.append(check("02-conjugate-to-unitary",
                     "g in Sp with g^{-1} A g complex-linear and i A' "
                     "negative definite", worst, 1e-8 * t))

    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 4))
        A = sy.random_cone_element(rng, d)
        g = rm.random_symplectic(rng, d)
        moved = sy.SymplecticElement(g.compose(A.X).compose(g.inverse()))
        ok = ok and sy.in_cone_Wsp(moved)
    out.append(boolean_check("03-cone-ad-invariance",
                             "Ad(Sp) maps the cone W_sp into itself", ok))

    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 5))
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        S = 0.5 * (z + z.conj().T) + rng.normal() * np.eye(d)
        X = rm.RealLinearMap.from_linear(1j * S)
        lhs = sy.in_cone_Wsp(X)
        # i X = -S, so membership should say S is positive definite
        rhs = bool(np.linalg.eigvalsh(S)[0] > sy.CONE_EIG_MIN)
        ok = ok and (lhs == rhs)
    out.append(boolean_check("04-cu-intersection",
                             "complex-linear X lies in W_sp iff iX is "
                             "negative definite", ok))

    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(1, 4))
        q = sy.QuadraticState(float(rng.normal()),
                              rng.normal(size=d) + 1j * rng.normal(size=d),
                              sy.random_cone_element(rng, d))
        _, value = sy.jacobi_minimum(q)
        for _ in range(2000):
            v = 3.0 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            worst = max(worst, value - sy.jacobi_value(q, v))
    out.append(check("05-jacobi-minimum-sampling",
                     "f(v) >= f(-A^{-1} x) on random samples",
                     max(0.0, worst), 1e-9 * t))

    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        q = sy.QuadraticState(float(rng.normal()),
                              rng.normal(size=d) + 1j * rng.normal(size=d),
                              sy.random_cone_element(rng, d))
        _, value = sy.jacobi_minimum(q)
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        _, value2 = sy.jacobi_minimum(sy.heisenberg_translate(q, w))
        worst = max(worst, abs(value - value2))
    out.append(check("06-jacobi-translation-invariance",
                     "phase-space translation preserves the minimum value",
                     worst, 1e-9 * t))

    h = sy.Sl2Element(1.0, 0.0, 0.0)
    u = sy.Sl2Element(0.0, 1.0, 0.0)
    tt = sy.Sl2Element(0.0, 0.0, 1.0)
    diag = max(abs(sy.lorentz_form(h, h) + 2.0),
               abs(sy.lorentz_form(u, u) - 2.0),
               abs(sy.lorentz_form(tt, tt) + 2.0))
    out.append(check("07-lorentz-diagonal",
                     "beta has diagonal (-2, 2, -2) on (h, u, t)", diag,
                     1e-14 * t))

    ok = True
    for _ in range(20):
        a = sy.Sl2Element(*rng.normal(size=3))
        base = sy.orbit_type(a)
        xi = rng.normal(size=3)
        gen = xi[0] * sy.SL2_H + xi[1] * sy.SL2_U + xi[2] * sy.SL2_T
        for s in np.linspace(-1.0, 1.0, 9):
            moved = sy.sl2_adjoint(expm(s * gen), a)
            ok = ok and sy.orbit_type(moved) == base
    out.append(boolean_check("08-lorentz-orbit-constancy",
                             "orbit_type is constant along Ad(SL2) orbits", ok))

    ys = []
    for s in np.linspace(0.0, 4.0, 9):
        moved = sy.sl2_adjoint(expm(0.5 * s * sy.SL2_H), u)
        ys.append(moved.y)
    unbounded = all(b > a for a, b in zip(ys, ys[1:])) and ys[-1] > 10.0
    out.append(boolean_check("09-sl2-projection-unbounded",
                             "the u-coordinate grows without bound along the "
                             "boost orbit of a timelike element", unbounded))

    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 5))
        x = _random_antihermitian(rng, d)
        worst = max(worst, abs(sy.spectral_support(x)
                               - sy.rayleigh_max_momentum(x, rng)))
    out.append(check("10-momentum-spectral-duality",
                     "sup Spec(ix) equals the Rayleigh maximum of the "
                     "momentum map at -x", worst, 1e-8 * t))

    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 5))
        x = _random_antihermitian(rng, d)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        gmat = rm.random_unitary(rng, d)
        lhs = sy.momentum_map(x, gmat @ v)
        rhs = sy.momentum_map(gmat.conj().T @ x @ gmat, v)
        worst = max(worst, abs(lhs - rhs))
    out.append(check("11-momentum-equivariance",
                     "Phi(g v)(x) = Phi(v)(g^{-1} x g) for unitary g",
                     worst, 1e-12 * t))

    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 5))
        x = _random_antihermitian(rng, d)
        y = _random_antihermitian(rng, d)
        sub = sy.spectral_support(x + y) - sy.spectral_support(x) \
            - sy.spectral_support(y)
        gmat = rm.random_unitary(rng, d)
        inv = abs(sy.spectral_support(gmat @ x @ gmat.conj().T)
                  - sy.spectral_support(x))
        worst = max(worst, max(0.0, sub), inv)
    out.append(check("12-spectral-sublinear-invariant",
                     "s(x + y) <= s(x) + s(y) and s(Ad(g) x) = s(x)",
                     worst, 1e-10 * t))

    worst = 0.0
    for _ in range(50):
        n = 2 * int(rng.integers(1, 5))
        z = rng.normal(size=(n, n))
        A = z - z.T
        if abs(np.linalg.det(A)) < 1e-8:
            continue
        J = sy.compatible_complex_structure(A)
        r1 = float(np.linalg.norm(J @ J + np.eye(n)))
        G = J.T @ A
        r2 = max(0.0, -float(np.linalg.eigvalsh(0.5 * (G + G.T))[0]))
        r3 = float(np.linalg.norm(J.T @ G @ J - G))
        worst = max(worst, r1, r2, r3)
    out.append(check("13-compatible-structure",
                     "J^2 = -1, omega(J v, v) > 0, J orthogonal for the "
                     "derived inner product", worst, 1e-9 * t))
    return out


# ---------------------------------------------------------------------------
# registry


# name -> (function, description, params); params maps each config key
# the suite reads to (default, smallest, largest).
SUITES = {
    "convex-cones": (_suite_convex_cones,
                     "support functions, dual cones, recession and averaging",
                     {"trials": (50, 1, 1000)}),
    "circle-calculus": (_suite_circle,
                        "truncated Fourier calculus and diffeomorphisms", {}),
    "virasoro-cocycle": (_suite_virasoro_cocycle,
                         "central cocycles and Schwarzian chain rules",
                         {"trials": (50, 1, 1000)}),
    # degree 3 is the smallest that holds the mode-3 projection curve
    "virasoro-orbits": (_suite_virasoro_orbits,
                        "adjoint orbit invariants and Cartan projections",
                        {"degree": (48, 3, 128), "trials": (30, 1, 1000)}),
    "virasoro-verma": (_suite_virasoro_verma,
                       "exact Verma Gram matrices and unitarity scans",
                       {"max_level": (5, 1, vi.MAX_VERMA_LEVEL)}),
    # below cutoff 4 the safe subspace (total number <= cutoff - 2) holds
    # no two degrees that [a(f), a(g)] connects, so checks 01-02 pass
    # vacuously; above 16 (dim 969) each dense operator exceeds 15 MB
    "fock-ccr": (_suite_fock_ccr,
                 "CCR/CAR, Weyl relations, Heisenberg product",
                 {"cutoff": (12, 4, 16), "N": (32, 1, 200)}),
    "fock-vacuum": (_suite_fock_vacuum,
                    "Bogoliubov vacuum implementers and residual decay",
                    {"N": (40, 2, 200)}),
    "fock-central": (_suite_fock_central,
                     "second quantization, hat vectors, central terms", {}),
    "symplectic-cones": (_suite_symplectic,
                         "symplectic cones, momentum maps, sl2 Lorentz model",
                         {"trials": (100, 1, 1000)}),
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Execute one named suite and assemble its report."""
    if cfg.suite not in SUITES:
        names = ", ".join(suite_names())
        raise KeyError(f"unknown suite {cfg.suite!r}: valid suites are {names}")
    func = SUITES[cfg.suite][0]
    checks = func(cfg)
    return VerificationReport(suite=cfg.suite, seed=cfg.seed,
                              tol_scale=cfg.tol_scale, checks=tuple(checks))
