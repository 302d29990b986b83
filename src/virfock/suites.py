"""Named verification suites: seeded, deterministic check batteries.

Each suite is a generator of checks that draws its randomness from one
numpy default_rng (the PCG64 generator) seeded from the config, so
identical configs reproduce identical reports.  Each check hands its
batch of residuals, one entry or row per trial, to `reports.check`,
which reduces it.  Batches are lists, never lazy generators, so every
trial draws from the generator whatever an earlier one gave.
Tolerances and sample counts are fixed literals, the same for every
config; anchors are plain statements of the identity being checked.

Each suite declares the integer parameters it reads, its truncation
sizes, with a default and an allowed range (`SUITES`); a config that
names any other key, or a value outside its range, is rejected before
the suite runs.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that
# cost in `import virfock`, out of the first suite run
from numpy.random import default_rng

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
    """Suite name plus seed (a non-negative int) and integer overrides of
    the parameters the suite declares.  Params are checked only for a
    registered suite; run_suite rejects any other name."""

    suite: str
    seed: int = DEFAULT_SEED
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
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
    def from_file(cls, path: str) -> "SuiteConfig":
        """Read a JSON object with a string 'suite' key, an optional
        'seed' and flat integer params."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("the JSON nests too deeply") from None
        if not isinstance(data, dict) or not isinstance(data.get("suite"), str):
            raise ValueError("a config must be a JSON object with a string "
                             "'suite' key")
        suite = data.pop("suite")
        seed = data.pop("seed", DEFAULT_SEED)
        return cls(suite=suite, seed=seed, params=data)


# ---------------------------------------------------------------------------
# shared random helpers


def _complex_normal(rng, size):
    """Real parts, then imaginary parts, standard normal."""
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _random_field(rng, degree: int) -> ci.FourierFunction:
    coeffs = {0: rng.normal()}
    for k in range(1, min(8, degree) + 1):
        c = (rng.normal() + 1j * rng.normal()) / (1 + k * k)
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    return ci.FourierFunction.from_dict(coeffs, degree=degree)


def _random_diffeo(rng, degree: int = 32) -> ci.CircleDiffeo:
    return ci.random_diffeo(rng, degree=degree, modes=5, amplitude=0.06,
                            max_slope=0.4)


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


def _suite_convex_cones(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:
    sf = cx.support_function

    def support_trial():
        n = int(rng.integers(2, 5))
        X = cx.SampledSet(tuple(tuple(rng.normal(size=n)) for _ in range(6)))
        v = rng.normal(size=n)
        w = rng.normal(size=n)
        s = rng.uniform(0.0, 3.0)
        return (abs(sf(X, s * v) - s * sf(X, v)),
                sf(X, v + w) - sf(X, v) - sf(X, w))

    homogeneity, subadditivity = zip(*[support_trial() for _ in range(50)])
    yield check("01-support-homogeneity", "s_X(t v) = t s_X(v) for t >= 0",
                homogeneity, 1e-12)
    yield check("02-support-subadditivity", "s_X(v + w) <= s_X(v) + s_X(w)",
                subadditivity, 1e-12)

    cross = cx.SampledSet(tuple(tuple(s * e) for s in (1.0, -1.0)
                                for e in np.eye(3)))
    yield check("03-cross-polytope-support", "support of {+-e_i} at (1,2,3) equals 3",
                abs(sf(cross, (1.0, 2.0, 3.0)) - 3.0), 1e-12)

    def double_dual_holds():
        n = int(rng.integers(2, 5))
        gens = tuple(tuple(rng.normal(size=n)) for _ in range(int(rng.integers(1, 6))))
        C = cx.PolyCone(generators=gens)
        return cx.cones_equal(C, cx.dual_cone(cx.dual_cone(C)))

    yield boolean_check("04-double-dual", "dual of the dual cone recovers the cone",
                        all([double_dual_holds() for _ in range(10)]))

    pairings = []
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
        dirs = cx.cone_generators(cx.recession_cone(poly))
        for _ in range(10):
            alpha = rng.uniform(size=3) @ normals
            pairings += [-float(np.dot(alpha, dvec)) for dvec in dirs]
    yield check("05-bounded-below-duality",
                "bounded-below functionals pair >= 0 with recession directions",
                pairings, 1e-9)

    slab = cx.Polyhedron(((1.0, 0.0), (-1.0, 0.0)), (-1.0, -1.0))
    lin = cx.lineality_space(slab)
    slab_ok = (len(lin) == 1
               and abs(abs(float(np.asarray(lin[0])[1])) - 1.0) < 1e-12
               and abs(float(np.asarray(lin[0])[0])) < 1e-12)
    yield boolean_check("06-lineality-slab",
                        "lineality of the slab |x1| <= 1 is the x2 axis", slab_ok)

    square = cx.Polyhedron(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
                           (-1.0, -1.0, -1.0, -1.0))
    rotations = [np.array([[math.cos(th), -math.sin(th)],
                           [math.sin(th), math.cos(th)]])
                 for th in (k * math.pi / 2 for k in range(4))]

    def average_outside(p):
        avg = cx.group_average([R @ p for R in rotations])
        return [b - float(np.dot(a, avg))
                for a, b in zip(square.normals, square.offsets)]

    yield check("07-averaging-inside",
                "orbit average of an invariant polyhedron member stays inside",
                [average_outside(rng.uniform(-1.0, 1.0, size=2))
                 for _ in range(10)], 1e-9)

    thetas = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    circle_pts = cx.SampledSet(tuple((math.cos(a), math.sin(a)) for a in thetas))
    rays = cx.SampledSet(tuple((float(k), 0.0) for k in range(101))
                         + tuple((-float(k), 0.0) for k in range(1, 101)))
    single = cx.SampledSet(((2.0, 3.0),))
    surrogate_ok = (cx.has_interior_B(circle_pts)
                    and not cx.has_interior_B(rays)
                    and cx.has_interior_B(single))
    yield boolean_check("08-interior-surrogate",
                        "bounded samples pass, opposite-ray samples fail "
                        "the finite interior surrogate", surrogate_ok)


# ---------------------------------------------------------------------------
# circle-calculus


def _suite_circle(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:
    grid = ci.grid_points(256)

    def product_defect():
        f = _random_field(rng, degree=12)
        g = _random_field(rng, degree=12)
        vals = ci.multiply(f, g).evaluate(grid)
        return np.abs(vals - f.evaluate(grid) * g.evaluate(grid))

    yield check("01-product-alias-free",
                "coefficient convolution equals the pointwise product",
                [product_defect() for _ in range(20)], 1e-11)

    def bracket_defect(n, m):
        br = ci.lie_bracket(ci.witt_generator(n), ci.witt_generator(m))
        diff = br - (n - m) * ci.witt_generator(n + m)
        return np.max(np.abs(diff.coeffs))

    yield check("02-bracket-structure-constants", "[d_n, d_m] = (n - m) d_{n+m}",
                [bracket_defect(n, m) for n in range(-6, 7) for m in range(-6, 7)],
                1e-12)

    def jacobi_defect():
        F, G, H = [_random_field(rng, 8) for _ in range(3)]
        j = (ci.lie_bracket(F, ci.lie_bracket(G, H))
             + ci.lie_bracket(G, ci.lie_bracket(H, F))
             + ci.lie_bracket(H, ci.lie_bracket(F, G)))
        return j.sup_norm()

    yield check("03-jacobi-identity", "Jacobi identity for the field bracket",
                [jacobi_defect() for _ in range(10)], 1e-10)

    # Small amplitudes here: the inverse of a trig-polynomial diffeo is
    # not itself one, and its degree-32 truncation must sit below the
    # tolerance for the roundtrip to be a test of invert rather than of
    # the truncation tail.
    def roundtrip_defect():
        phi = ci.random_diffeo(rng, degree=32, modes=4,
                               amplitude=0.03, max_slope=0.3)
        return ci.compose(phi, ci.invert(phi)).p.sup_norm()

    yield check("04-compose-invert-roundtrip",
                "phi composed with its inverse is the identity",
                [roundtrip_defect() for _ in range(20)], 1e-9)

    def flow_defect():
        raw = _random_field(rng, degree=12)
        f = raw * (0.2 / max(raw.sup_norm(), 1e-12))
        a, b = rng.uniform(0.05, 0.3, size=2)
        one = ci.compose(ci.flow(f, a), ci.flow(f, b))
        return (one.p - ci.flow(f, a + b).p).sup_norm()

    yield check("05-flow-additivity", "flow(s) o flow(t) = flow(s + t)",
                [flow_defect() for _ in range(5)], 1e-8)

    yield check("06-schwarzian-chain-rule",
                "S(phi o psi) = (S(phi) o psi) (psi')^2 + S(psi)",
                [ci.schwarzian_cocycle_residual(_random_diffeo(rng),
                                                _random_diffeo(rng))
                 for _ in range(10)], 1e-8)

    def pullback_defect():
        phi, psi = _random_diffeo(rng), _random_diffeo(rng)
        u = _random_field(rng, degree=8)
        one = ci.pullback_density(psi, ci.pullback_density(phi, u, 2), 2)
        two = ci.pullback_density(ci.compose(phi, psi), u, 2)
        return (one - two).sup_norm()

    yield check("07-pullback-composition",
                "pulling back along psi then phi equals pulling back along phi o psi",
                [pullback_defect() for _ in range(5)], 1e-8)

    f = _random_field(rng, degree=10)
    yield check("08-derivative-integrate",
                "int f' = 0, int e^{ik t} = 2 pi delta_{k,0}",
                [abs(ci.integrate(ci.derivative(f))),
                 abs(ci.integrate(ci.FourierFunction.from_dict({3: 1.0}, degree=5))),
                 abs(ci.integrate(ci.FourierFunction.constant(1.0, 4))
                     - 2 * math.pi)], 1e-14)


# ---------------------------------------------------------------------------
# virasoro-cocycle


def _suite_virasoro_cocycle(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:
    yield check("01-generator-values",
                "omega(d_n, d_{-n}) = 2 pi i (n^3 - n)",
                [abs(ci.omega_cocycle(ci.witt_generator(n),
                                      ci.witt_generator(-n))
                     - 2j * math.pi * (n ** 3 - n)) for n in range(1, 9)],
                1e-9)

    def antisymmetry_defect():
        F, G = _random_field(rng, 10), _random_field(rng, 10)
        return abs(ci.omega_cocycle(F, G) + ci.omega_cocycle(G, F))

    yield check("02-antisymmetry", "omega(f, g) = -omega(g, f)",
                [antisymmetry_defect() for _ in range(20)], 1e-9)

    def cocycle_defect():
        F, G, H = [_random_field(rng, 8) for _ in range(3)]
        return abs(ci.omega_cocycle(ci.lie_bracket(F, G), H)
                   + ci.omega_cocycle(ci.lie_bracket(G, H), F)
                   + ci.omega_cocycle(ci.lie_bracket(H, F), G))

    yield check("03-cocycle-identity", "omega vanishes on the cyclic sum over brackets",
                [cocycle_defect() for _ in range(10)], 1e-8)

    def gelfand_fuchs_defect():
        F, G = _random_field(rng, 10), _random_field(rng, 10)
        rhs = ci.gelfand_fuchs(F, G) \
            - 0.5 * ci.integrate(ci.lie_bracket(F, G))
        return abs(ci.omega_cocycle(F, G) - rhs)

    yield check("04-gelfand-fuchs-decomposition", "omega = omega_GF - (1/2) int [f, g]",
                [gelfand_fuchs_defect() for _ in range(20)], 1e-10)

    def chain_rule_defects(count, modified=False):
        return [ci.schwarzian_cocycle_residual(_random_diffeo(rng),
                                               _random_diffeo(rng),
                                               modified=modified)
                for _ in range(count)]

    yield check("05-schwarzian-cocycle",
                "S(phi o psi) = (S(phi) o psi)(psi')^2 + S(psi), "
                "50 random pairs", chain_rule_defects(50), 1e-8)
    yield check("06-modified-schwarzian-cocycle",
                "Stilde satisfies the same chain rule as S",
                chain_rule_defects(10, modified=True), 1e-8)

    rot = ci.CircleDiffeo.rotation(1.234, degree=16)
    yield check("07-rotation-schwarzian-zero", "S and Stilde vanish on rotations",
                [ci.schwarzian(rot).sup_norm(),
                 ci.schwarzian(rot, modified=True).sup_norm()],
                1e-12)

    chat = vi.normalized_central()

    def bracket_defect(n, m):
        br = vi.vir_bracket(vi.generator(n), vi.generator(m))
        expected = (n - m) * vi.generator(n + m)
        if n + m == 0:
            expected = expected + ((n ** 3 - n) / 12.0) * chat
        return max(abs(br.z - expected.z),
                   np.max(np.abs((br.field - expected.field).coeffs)))

    yield check("08-normalized-bracket",
                "[d_n, d_m] = (n - m) d_{n+m} + delta (n^3 - n)/12 chat",
                [bracket_defect(n, m) for n in range(-6, 7)
                 for m in range(-6, 7)], 1e-9)


# ---------------------------------------------------------------------------
# virasoro-orbits


def _suite_virasoro_orbits(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:
    degree = cfg.get("degree")

    f = ci.FourierFunction.from_dict({0: 2.0, 1: 0.5, -1: 0.5}, degree=8)
    yield check("01-chi-exact-value", "chi(2 + cos) = 1/sqrt(3)",
                abs(vi.chi(f) - 1.0 / math.sqrt(3.0)), 1e-10)

    base = ci.FourierFunction.from_dict(
        {0: 1.0, 1: 0.15 + 0.1j, -1: 0.15 - 0.1j, 2: 0.05, -2: 0.05},
        degree=degree)
    x = vi.VirasoroElement(0.25, base)
    chi0 = vi.chi(x.field)
    inv0 = vi.orbit_invariants(x)

    def invariant_defects():
        y = vi.adjoint_action(_random_diffeo(rng, degree), x)
        inv = vi.orbit_invariants(y)
        return (abs(vi.chi(y.field) - chi0),
                (abs(inv.beta - inv0.beta), abs(inv.alpha - inv0.alpha)))

    chi_defects, inv_defects = zip(*[invariant_defects() for _ in range(30)])
    yield check("02-chi-adjoint-invariance", "chi is constant along adjoint orbits",
                chi_defects, 1e-9)
    yield check("03-invariants-adjoint-invariance",
                "(beta, alpha) are constant along adjoint orbits",
                inv_defects, 1e-7)

    cart = vi.VirasoroElement.cartan(0.0, 1.0, degree)
    rep = vi.convexity_check(cart, trials=200, rng=rng)
    yield check("04-convexity-margins",
                "Cartan projection of Ad_phi(x) dominates x in both coordinates",
                [-rep["min_beta_margin"], -rep["min_alpha_margin"]], 1e-8)

    yield check("05-beta-hessian-nonpositive",
                "second variation of beta is <= 0",
                [vi.beta_hessian_form(_random_field(rng, degree=12))
                 for _ in range(200)], 1e-9)

    yield check("06-beta-hessian-cos-values",
                "Hessian value pi (1 - n^2) on cos(n t)",
                [abs(vi.beta_hessian_form(ci.FourierFunction.from_dict(
                    {n: 0.5, -n: 0.5}, degree=10)) - math.pi * (1 - n * n))
                 for n in range(1, 9)], 1e-9)

    ratios = [abs(p.beta / (p.alpha - 1.0) - math.pi * (n * n - 1))
              for n in (2, 3)
              for p in vi.projection_curve(cart, n, (0.04, 0.02, 0.01))]
    shifts = [abs(p.beta)
              for p in vi.projection_curve(cart, 1, (0.01, 0.03))]
    yield check("07-projection-ray-ratio",
                "curve moves along 2n(pi(n^2 - 1) c + rotation); "
                "central shift vanishes for n = 1",
                ratios + shifts, 1e-3)

    def pairing_defect():
        phi = _random_diffeo(rng)
        xe = vi.VirasoroElement(float(rng.normal()), _random_field(rng, degree=10))
        lam = vi.VirasoroFunctional(float(rng.normal()), _random_field(rng, degree=10))
        lhs = vi.pairing(vi.coadjoint_action(phi, lam), vi.adjoint_action(phi, xe))
        return abs(lhs - vi.pairing(lam, xe))

    yield check("08-pairing-invariance", "<Ad*_phi lam, Ad_phi x> = <lam, x>",
                [pairing_defect() for _ in range(20)], 1e-7)

    texps = (1e-1, 1e-2, 1e-3, 1e-5, 5e-7)
    values = [vi.chi(ci.FourierFunction.from_dict(
        {0: s + (1 - s), 1: 0.5 * (1 - s), -1: 0.5 * (1 - s)}, degree=4),
        grid_size=200000) for s in texps]
    exact = [1.0 / math.sqrt(2 * s - s * s) for s in texps]
    yield check("09-chi-blowup-closed-form",
                "chi(t + (1 - t)(1 + cos)) = (2t - t^2)^{-1/2}",
                [abs(v - e) / e for v, e in zip(values, exact)], 1e-8)
    grows = all(b > a for a, b in zip(values, values[1:]))
    yield boolean_check("10-chi-blowup-monotone",
                        "chi blows up monotonically toward the orbit "
                        "boundary, past 1e3 by t = 5e-7",
                        grows and values[-1] > 1e3)


# ---------------------------------------------------------------------------
# virasoro-verma


def _suite_virasoro_verma(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:

    def rand_frac():
        return Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 8)))

    def singletons_exact(c, h):
        return all([vi.verma_gram(n, c, h, partitions=((n,),))[0, 0]
                    == vi.singleton_norm(n, c, h) for n in range(1, 6)])

    yield boolean_check("01-singleton-norms-exact",
                        "<d_{-n} v, d_{-n} v> = 2 n h + c (n^3 - n)/12 "
                        "in exact rationals",
                        all([singletons_exact(rand_frac(), rand_frac())
                             for _ in range(5)]))

    def level2_exact(c, h):
        parts = tuple(vi.partitions_of(2))
        G = vi.verma_gram(2, c, h)
        expected = {
            ((2,), (2,)): 4 * h + Fraction(c, 2),
            ((2,), (1, 1)): 6 * h,
            ((1, 1), (1, 1)): 8 * h * h + 4 * h,
        }
        return all([G[i, j] == expected[(pi_, pj) if (pi_, pj) in expected
                                         else (pj, pi_)]
                    for i, pi_ in enumerate(parts)
                    for j, pj in enumerate(parts)])

    yield boolean_check("02-level2-gram-exact",
                        "level-2 Gram matrix [[4h + c/2, 6h], [6h, 8h^2 + 4h]]",
                        all([level2_exact(rand_frac(), rand_frac()) for _ in range(5)]))

    def pair_determinant_exact(h, n):
        G = vi.verma_gram(2 * n, Fraction(0), h, partitions=((2 * n,), (n, n)))
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        return det == 4 * n ** 3 * h ** 2 * (8 * h - 5 * n)

    yield boolean_check("03-pair-determinant-c0",
                        "det over {d_{-2n} v, d_{-n}^2 v} at c = 0 is "
                        "4 n^3 h^2 (8h - 5n)",
                        all([pair_determinant_exact(h, n)
                             for h in [rand_frac() for _ in range(5)]
                             for n in range(1, 4)]))

    # Gram matrices of different levels differ in size: reduce each first.
    def asymmetry(c, h):
        grams = [vi.verma_gram(level, c, h) for level in range(1, 5)]
        return [float(np.max(np.abs(G - G.T))) for G in grams]

    yield check("04-gram-symmetry",
                "Gram matrices are symmetric",
                [asymmetry(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
                 for _ in range(5)], 1e-9)

    c, h = Fraction(7, 10), Fraction(-3, 4)

    def exact_vs_float(level):
        Ge = vi.verma_gram(level, c, h)
        Gf = vi.verma_gram(level, float(c), float(h))
        return float(np.max(np.abs(np.vectorize(float)(Ge) - Gf)))

    yield check("05-exact-vs-float", "float Gram agrees with the rational one",
                [exact_vs_float(level) for level in range(1, 5)], 1e-9)

    rep = vi.unitarity_scan([1.0], [1.0], max_level=cfg.get("max_level"))
    ok_pos = rep[(1.0, 1.0)]["first_negative_level"] is None
    rep2 = vi.unitarity_scan([0.0], [0.5], max_level=3)
    ok_neg = rep2[(0.0, 0.5)]["first_negative_level"] == 2
    rep3 = vi.unitarity_scan([26.0], [1.0], max_level=4)
    ok_big = rep3[(26.0, 1.0)]["first_negative_level"] is None
    yield boolean_check("06-unitarity-scan-signs",
                        "(c,h) = (1,1) and (26,1) stay PSD; (0, 1/2) "
                        "turns negative at level 2",
                        ok_pos and ok_neg and ok_big)


# ---------------------------------------------------------------------------
# fock-ccr


def _suite_fock_ccr(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:
    bs = fk.ModeSpace(3, fk.BOSONIC, cutoff=cfg.get("cutoff"))
    safe = bs.cutoff - 2

    def ccr_defects():
        f, g = _complex_normal(rng, 3), _complex_normal(rng, 3)
        af = fk.annihilate(bs, f)
        comm = af.commutator(fk.create(bs, g)) \
            - rm.inner(g, f) * fk.FockOperator.identity(bs)
        return (comm.restricted_norm(safe),
                af.commutator(fk.annihilate(bs, g)).restricted_norm(safe))

    comm_defects, aa_defects = zip(*[ccr_defects() for _ in range(10)])
    yield check("01-ccr-commutator", "[a(f), a*(g)] = <g, f> on the safe subspace",
                comm_defects, 1e-12)
    yield check("02-ccr-annihilators-commute", "[a(f), a(g)] = 0 on the safe subspace",
                aa_defects, 1e-12)

    fs = fk.ModeSpace(3, fk.FERMIONIC)

    def car_defects():
        f, g = _complex_normal(rng, 3), _complex_normal(rng, 3)
        af = fk.annihilate(fs, f)
        anti = af.anticommutator(fk.create(fs, g)) \
            - rm.inner(g, f) * fk.FockOperator.identity(fs)
        return anti.norm(), af.anticommutator(fk.annihilate(fs, g)).norm()

    anti_defects, aa_defects = zip(*[car_defects() for _ in range(10)])
    yield check("03-car-anticommutator",
                "{a(f), a*(g)} = <g, f> exactly", anti_defects, 1e-13)
    yield check("04-car-annihilators",
                "{a(f), a(g)} = 0 exactly", aa_defects, 1e-13)

    f = _complex_normal(rng, 3)
    r_ferm = (fk.annihilate(fs, f) - fk.create(fs, f).adjoint()).norm()
    diff = fk.annihilate(bs, f) - fk.create(bs, f).adjoint()
    yield check("05-adjointness", "a(f) is the adjoint of a*(f)",
                [r_ferm, diff.restricted_norm(bs.cutoff - 1)], 1e-13)

    N_op = fk.number_operator(bs)
    cf = fk.create(bs, f)
    grading = (N_op.commutator(cf) - cf).restricted_norm(safe)
    I_gen = rm.RealLinearMap.from_linear(1j * np.eye(3))
    comm_I = fk.second_quantize(bs, I_gen).commutator(N_op).norm()
    yield check("06-number-grading", "[N, a*(f)] = a*(f); dpi(i 1) commutes with N",
                [grading, comm_I], 1e-12)

    ws = fk.ModeSpace(1, fk.BOSONIC, cutoff=cfg.get("N"))

    def weyl_defect(norm2):
        W = fk.weyl(ws, np.array([math.sqrt(norm2)]))
        val = W.apply(fk.vacuum(ws)).inner(fk.vacuum(ws))
        return abs(val - math.exp(-norm2 / 4.0))

    yield check("07-weyl-coefficient", "<W(f) Omega, Omega> = exp(-|f|^2/4)",
                [weyl_defect(norm2) for norm2 in (1.0, 2.0, 4.0)], 1e-6)

    f1 = np.array([0.4 + 0.2j])
    f2 = np.array([-0.3 + 0.5j])
    residuals = []
    for N in (8, 12, 16, 20):
        sp = fk.ModeSpace(1, fk.BOSONIC, cutoff=N)
        W1, W2 = fk.weyl(sp, f1), fk.weyl(sp, f2)
        W12 = fk.weyl(sp, f1 + f2)
        phase = complex(np.exp(0.5j * rm.omega(f1, f2)))
        diff = W1.compose(W2) - phase * W12
        residuals.append(diff.restricted_norm(N // 2))
    mono = all(b < a for a, b in zip(residuals, residuals[1:]))
    yield boolean_check("08-weyl-relation-sweep",
                        "Weyl relation defect decreases with the cutoff", mono)

    e1 = np.array([1.0, 0.0])
    prod = fk.heisenberg_mul((0.0, e1), (0.0, 1j * e1))
    yield check("09-heisenberg-central", "central part of (0, e1)(0, i e1) is -1/2",
                abs(prod[0] + 0.5), 1e-14)

    def associativity_defect():
        a, b, c = [(float(rng.normal()), _complex_normal(rng, 2)) for _ in range(3)]
        lhs = fk.heisenberg_mul(fk.heisenberg_mul(a, b), c)
        rhs = fk.heisenberg_mul(a, fk.heisenberg_mul(b, c))
        return [abs(lhs[0] - rhs[0]), *np.abs(lhs[1] - rhs[1])]

    yield check("10-heisenberg-associativity", "the Heisenberg product is associative",
                [associativity_defect() for _ in range(10)], 1e-12)

    r = 0.7
    squeeze = rm.RealLinearMap(np.array([[math.cosh(r)]]),
                               np.array([[math.sinh(r)]]))
    refl = rm.RealLinearMap(np.zeros((1, 1)), np.ones((1, 1)))
    unit = rm.RealLinearMap.from_linear(rm.random_unitary(rng, 2))
    ok = (rm.is_bogoliubov(squeeze, 1) and not rm.is_bogoliubov(squeeze, -1)
          and rm.is_bogoliubov(refl, -1) and not rm.is_bogoliubov(refl, 1)
          and rm.is_bogoliubov(unit, 1) and rm.is_bogoliubov(unit, -1))
    yield boolean_check("11-bogoliubov-predicates",
                        "squeezes are symplectic, conjugations are "
                        "orthogonal, unitaries are both", ok)


# ---------------------------------------------------------------------------
# fock-vacuum


def _suite_fock_vacuum(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:
    N = cfg.get("N")

    space = fk.ModeSpace(1, fk.BOSONIC, cutoff=N)

    def squeeze_defects(r):
        g = rm.RealLinearMap(np.array([[math.cosh(r)]]),
                             np.array([[math.sinh(r)]]))
        c, F = fk.vacuum_implementer(space, g)
        c_or, F_or = fk.truncated_vacuum_oracle(space, g)
        return (abs(c - c_or), abs(c - 1.0 / math.sqrt(math.cosh(r))),
                F.degree_norms()[1::2], (F - F_or).norm())

    oracle, analytic, odd, vec = zip(*[squeeze_defects(r)
                                       for r in (0.25, 0.5, 1.0)])
    yield check("01-squeeze-c-oracle", "series c(g) matches the linear-solve vacuum",
                oracle, 1e-6)
    yield check("02-squeeze-c-analytic",
                "c(g) = 1/sqrt(cosh r) for the one-mode squeeze", analytic, 1e-6)
    yield check("03-odd-components",
                "odd-degree components of the vacuum vector vanish", odd, 1e-14)
    yield check("04-series-vs-oracle-vector",
                "series vacuum equals the nullspace vacuum", vec, 1e-8)

    r_half = math.atanh(0.5)
    g = rm.RealLinearMap(np.array([[math.cosh(r_half)]]),
                         np.array([[math.sinh(r_half)]]))
    residuals = []
    for n in (8, 16, 24, 32):
        sp = fk.ModeSpace(1, fk.BOSONIC, cutoff=n)
        _, F = fk.vacuum_implementer(sp, g)
        residuals.append(float(np.max(fk.vacuum_residuals(sp, g, F))))
    geometric = all(b <= 0.5 * a for a, b in zip(residuals, residuals[1:]))
    yield boolean_check("05-residual-geometric-decrease",
                        "vacuum-equation residual decays at least "
                        "geometrically in the cutoff", geometric)

    u = rm.RealLinearMap.from_linear(rm.random_unitary(rng, 1))
    c_u, F_u = fk.vacuum_implementer(fk.ModeSpace(1, fk.BOSONIC, 8), u)
    yield check("06-unitary-trivial",
                "unitary g implements the bare vacuum with c = 1",
                [abs(c_u - 1.0),
                 (F_u - fk.vacuum(fk.ModeSpace(1, fk.BOSONIC, 8))).norm()],
                1e-12)

    # The residual decays like ||T||^(cutoff/2) for the squeeze matrix T
    # of the drawn g, so the scale and cutoff are chosen together.
    g2 = rm.random_symplectic(rng, 2, scale=0.1)
    sp2 = fk.ModeSpace(2, fk.BOSONIC, cutoff=32)
    _, F2 = fk.vacuum_implementer(sp2, g2)
    yield check("07-two-mode-residual", "two-mode vacuum equation residual is small",
                fk.vacuum_residuals(sp2, g2, F2), 1e-6)


# ---------------------------------------------------------------------------
# fock-central


def _suite_fock_central(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:
    # one instance per distinct space, so word tables persist across
    # trials; a fermionic space is complete at cutoff d, so it is keyed
    # without one
    build = functools.cache(fk.ModeSpace)

    def mode_space(d, stats, cutoff=None):
        return build(d, stats, cutoff if stats == fk.BOSONIC else None)

    def rand_pair(space):
        return (rm.random_algebra_element(rng, space.d, space.sign),
                rm.random_algebra_element(rng, space.d, space.sign))

    def trace_formula_defect(stats):
        d = int(rng.integers(1, 4)) if stats == fk.BOSONIC else int(rng.integers(2, 4))
        space = mode_space(d, stats, cutoff=6)
        x, y = rand_pair(space)
        return abs(fk.central_term(space, x, y)
                   - fk.central_term_trace(space, x, y))

    for cid, stats, label in (("01-central-bosonic", fk.BOSONIC, "metaplectic"),
                              ("02-central-fermionic", fk.FERMIONIC, "spin")):
        sign = "+" if stats == fk.BOSONIC else "-"
        yield check(cid, f"{label} central term equals {sign}(1/2i) tr([x2, y2])",
                    [trace_formula_defect(stats) for _ in range(50)], 1e-8)

    both = (fk.BOSONIC, fk.FERMIONIC)
    pair_spaces = [mode_space(2, stats, cutoff=6) for stats in both]

    def antisymmetry_defect(space):
        x, y = rand_pair(space)
        return abs(fk.central_term(space, x, y) + fk.central_term(space, y, x))

    yield check("03-eta-antisymmetry",
                "eta(x, y) = -eta(y, x)",
                [antisymmetry_defect(space) for space in pair_spaces
                 for _ in range(10)], 1e-9)

    def cocycle_defect(space):
        x, y, z = [rand_pair(space)[0] for _ in range(3)]
        return abs(fk.central_term(space, x.commutator(y), z)
                   + fk.central_term(space, y.commutator(z), x)
                   + fk.central_term(space, z.commutator(x), y))

    yield check("04-eta-cocycle",
                "eta vanishes on the cyclic sum over brackets",
                [cocycle_defect(space)
                 for space in [mode_space(3, stats, cutoff=6) for stats in both]
                 for _ in range(10)], 1e-8)

    def hat_defects():
        stats = fk.BOSONIC if rng.uniform() < 0.5 else fk.FERMIONIC
        d = int(rng.integers(2, 5))
        space = mode_space(d, stats, cutoff=4)
        z1, z2 = _complex_normal(rng, (d, d)), _complex_normal(rng, (d, d))
        MA, MB = 0.5 * (z1 + space.sign * z1.T), 0.5 * (z2 + space.sign * z2.T)
        ha = fk.hat_element(space, MA)
        hb = fk.hat_element(space, MB)
        return (abs(ha.norm() ** 2 - 0.5 * np.linalg.norm(MA) ** 2),
                abs(ha.inner(hb) - fk.hat_pairing(space, MA, MB)))

    norm_defects, pair_defects = zip(*[hat_defects() for _ in range(100)])
    yield check("05-hat-norm-identity",
                "|A-hat|^2 = (1/2) |A|_HS^2", norm_defects, 1e-10)
    yield check("06-hat-pairing",
                "<A-hat, B-hat> = +-(1/2) tr(A B)", pair_defects, 1e-10)

    def vacuum_hat_defect(space):
        x, _ = rand_pair(space)
        x2 = rm.RealLinearMap.from_antilinear(x.G2)
        lhs = fk.second_quantize(space, x2).apply(fk.vacuum(space))
        return (lhs + fk.hat_element(space, x.G2)).norm()

    yield check("07-dpi-vacuum-hat",
                "dpi(x_2) applied to the vacuum is -x_2-hat",
                [vacuum_hat_defect(space)
                 for space in [mode_space(3, stats, cutoff=4) for stats in both]
                 for _ in range(10)], 1e-12)

    space = mode_space(3, fk.FERMIONIC)

    def rank_one_defect():
        v, w = _complex_normal(rng, 3), _complex_normal(rng, 3)
        lhs = fk.second_quantize(space, fk.rank_one_generator(v, w))
        rhs = fk.create(space, v).compose(fk.annihilate(space, w)) \
            - fk.create(space, w).compose(fk.annihilate(space, v))
        return (lhs - rhs).norm()

    yield check("08-rank-one-fermionic", "dpi(Q_{v,w}) = a*(v) a(w) - a*(w) a(v)",
                [rank_one_defect() for _ in range(10)], 1e-12)

    def quasifree_defect():
        d = int(rng.integers(2, 5))
        space = mode_space(d, fk.FERMIONIC)
        P, gamma = _random_projection_and_conjugation(rng, d)
        f, g = _complex_normal(rng, d), _complex_normal(rng, d)
        aP = fk.quasifree_twist(space, P, gamma, f)
        aPg_star = fk.quasifree_twist(space, P, gamma, g).adjoint()
        resid = aP.anticommutator(aPg_star) \
            - rm.inner(g, f) * fk.FockOperator.identity(space)
        return resid.norm()

    yield check("09-quasifree-car", "the twisted annihilators satisfy the CAR",
                [quasifree_defect() for _ in range(10)], 1e-13)

    def unitary_central(space):
        x = rm.RealLinearMap.from_linear(rm.random_skew_hermitian(rng, 2))
        y = rm.RealLinearMap.from_linear(rm.random_skew_hermitian(rng, 2))
        return abs(fk.central_term(space, x, y))

    yield check("10-unitary-central-zero",
                "eta vanishes when both arguments are complex-linear",
                [unitary_central(space) for space in pair_spaces
                 for _ in range(10)], 1e-12)


# ---------------------------------------------------------------------------
# symplectic-cones


def _suite_symplectic(cfg: SuiteConfig, rng) -> Iterator[CheckResult]:

    def pcs_defects():
        d = int(rng.integers(1, 5))
        A = sy.random_cone_element(rng, d)
        J = sy.positive_complex_structure(A)
        JJ = J.compose(J)
        return (np.linalg.norm(JJ.G1 + np.eye(d)) + np.linalg.norm(JJ.G2),
                np.linalg.norm(J.commutator(A).to_real_matrix()),
                -sy.cone_margin(J))

    yield check("01-pcs-postconditions", "J^2 = -1, [J, A] = 0, omega(J v, v) > 0",
                [pcs_defects() for _ in range(100)], 1e-9)

    def unitary_conjugation_defects():
        d = int(rng.integers(1, 5))
        A = sy.random_cone_element(rng, d)
        g, Ap = sy.conjugate_to_unitary(A)
        H = 0.5 * (1j * Ap.G1 + (1j * Ap.G1).conj().T)
        return (Ap.antilinear_norm(), rm.bogoliubov_defect(g, 1),
                float(np.linalg.eigvalsh(H)[-1]),
                float(np.linalg.norm(1j * Ap.G1 - (1j * Ap.G1).conj().T)))

    yield check("02-conjugate-to-unitary",
                "g in Sp with g^{-1} A g complex-linear and i A' negative definite",
                [unitary_conjugation_defects() for _ in range(50)], 1e-8)

    def ad_invariant():
        d = int(rng.integers(1, 4))
        A = sy.random_cone_element(rng, d)
        g = rm.random_symplectic(rng, d)
        return sy.in_cone_Wsp(g.compose(A).compose(g.inverse()))

    yield boolean_check("03-cone-ad-invariance",
                        "Ad(Sp) maps the cone W_sp into itself",
                        all([ad_invariant() for _ in range(50)]))

    def cu_membership_agrees():
        d = int(rng.integers(1, 5))
        z = _complex_normal(rng, (d, d))
        S = 0.5 * (z + z.conj().T) + rng.normal() * np.eye(d)
        # i X = -S, so membership should say S is positive definite
        return sy.in_cone_Wsp(rm.RealLinearMap.from_linear(1j * S)) \
            == bool(np.linalg.eigvalsh(S)[0] > sy.CONE_EIG_MIN)

    yield boolean_check("04-cu-intersection",
                        "complex-linear X lies in W_sp iff iX is negative definite",
                        all([cu_membership_agrees() for _ in range(50)]))

    def random_quadratic_state():
        d = int(rng.integers(1, 4))
        return sy.QuadraticState(float(rng.normal()), _complex_normal(rng, d),
                                 sy.random_cone_element(rng, d))

    def jacobi_gaps():
        q = random_quadratic_state()
        _, value = sy.jacobi_minimum(q)
        # the same stream as 2000 draws of _complex_normal(rng, d)
        z = rng.normal(size=(2000, 2, q.A.d))
        return value - sy.jacobi_value(q, 3.0 * (z[:, 0] + 1j * z[:, 1]))

    yield check("05-jacobi-minimum-sampling", "f(v) >= f(-A^{-1} x) on random samples",
                [jacobi_gaps() for _ in range(5)], 1e-9)

    def translation_defect():
        q = random_quadratic_state()
        _, value = sy.jacobi_minimum(q)
        w = _complex_normal(rng, q.A.d)
        _, value2 = sy.jacobi_minimum(sy.heisenberg_translate(q, w))
        return abs(value - value2)

    yield check("06-jacobi-translation-invariance",
                "phase-space translation preserves the minimum value",
                [translation_defect() for _ in range(20)], 1e-9)

    # sl(2, R) = sp(2, R) as d = 1 maps, with the Lorentz form
    # beta(a, b) = -tr(a_r b_r) and u-coordinate beta(X, u) / 2
    h, u, tt = [rm.RealLinearMap.from_real_matrix(m) for m in
                ([[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [-1.0, 0.0]],
                 [[0.0, 1.0], [1.0, 0.0]])]

    def beta(a, b):
        return -float(np.trace(a.to_real_matrix() @ b.to_real_matrix()))

    yield check("07-lorentz-diagonal",
                "beta has diagonal (-2, 2, -2) on (h, u, t)",
                [abs(beta(h, h) + 2.0), abs(beta(u, u) - 2.0),
                 abs(beta(tt, tt) + 2.0)], 1e-14)

    def orbit_class(X):
        # (lower timelike, upper timelike, spacelike); a null X is none
        return (sy.in_cone_Wsp(X), sy.in_cone_Wsp(-X),
                np.linalg.det(X.to_real_matrix()) < 0.0)

    def conjugate(g, X):
        return g.compose(X).compose(g.inverse())

    def orbit_class_constant():
        x, y, z = rng.normal(size=3)
        a = x * h + y * u + z * tt
        base = orbit_class(a)
        xi = rng.normal(size=3)
        gen = xi[0] * h + xi[1] * u + xi[2] * tt
        return all([orbit_class(conjugate((s * gen).exp(), a)) == base
                    for s in np.linspace(-1.0, 1.0, 9)])

    yield boolean_check("08-lorentz-orbit-constancy",
                        "the timelike/spacelike class is constant along "
                        "Ad(SL2) orbits",
                        all([orbit_class_constant() for _ in range(20)]))

    ys = [0.5 * beta(conjugate((0.5 * s * h).exp(), u), u)
          for s in np.linspace(0.0, 4.0, 9)]
    unbounded = all(b > a for a, b in zip(ys, ys[1:])) and ys[-1] > 10.0
    yield boolean_check("09-sl2-projection-unbounded",
                        "the u-coordinate grows without bound along the "
                        "boost orbit of a timelike element", unbounded)

    def duality_defect():
        x = rm.random_skew_hermitian(rng, int(rng.integers(1, 5)))
        return abs(sy.spectral_support(x) - sy.rayleigh_max_momentum(x, rng))

    yield check("10-momentum-spectral-duality",
                "sup Spec(ix) equals the Rayleigh maximum of the momentum map at -x",
                [duality_defect() for _ in range(20)], 1e-8)

    def equivariance_defect():
        d = int(rng.integers(1, 5))
        x = rm.random_skew_hermitian(rng, d)
        v = _complex_normal(rng, d)
        gmat = rm.random_unitary(rng, d)
        return abs(sy.momentum_map(x, gmat @ v)
                   - sy.momentum_map(gmat.conj().T @ x @ gmat, v))

    yield check("11-momentum-equivariance",
                "Phi(g v)(x) = Phi(v)(g^{-1} x g) for unitary g",
                [equivariance_defect() for _ in range(20)], 1e-12)

    def support_defects():
        d = int(rng.integers(1, 5))
        x = rm.random_skew_hermitian(rng, d)
        y = rm.random_skew_hermitian(rng, d)
        sub = sy.spectral_support(x + y) - sy.spectral_support(x) \
            - sy.spectral_support(y)
        gmat = rm.random_unitary(rng, d)
        return sub, abs(sy.spectral_support(gmat @ x @ gmat.conj().T)
                        - sy.spectral_support(x))

    yield check("12-spectral-sublinear-invariant",
                "s(x + y) <= s(x) + s(y) and s(Ad(g) x) = s(x)",
                [support_defects() for _ in range(20)], 1e-10)

    # singular draws are skipped, so the batch holds one row per kept draw
    structure_defects = []
    for _ in range(50):
        n = 2 * int(rng.integers(1, 5))
        z = rng.normal(size=(n, n))
        A = z - z.T
        if abs(np.linalg.det(A)) < 1e-8:
            continue
        J = sy.compatible_complex_structure(A)
        G = J.T @ A
        structure_defects.append(
            (float(np.linalg.norm(J @ J + np.eye(n))),
             -float(np.linalg.eigvalsh(0.5 * (G + G.T))[0]),
             float(np.linalg.norm(J.T @ G @ J - G))))
    yield check("13-compatible-structure",
                "J^2 = -1, omega(J v, v) > 0, J orthogonal for the "
                "derived inner product", structure_defects, 1e-9)




# ---------------------------------------------------------------------------
# registry


# name -> (function, description, params); params maps each config key
# the suite reads to (default, smallest, largest).
SUITES = {
    "convex-cones": (_suite_convex_cones,
                     "support functions, dual cones, recession and averaging",
                     {}),
    "circle-calculus": (_suite_circle,
                        "truncated Fourier calculus and diffeomorphisms", {}),
    "virasoro-cocycle": (_suite_virasoro_cocycle,
                         "central cocycles and Schwarzian chain rules", {}),
    # degree 3 is the smallest that holds the mode-3 projection curve
    "virasoro-orbits": (_suite_virasoro_orbits,
                        "adjoint orbit invariants and Cartan projections",
                        {"degree": (48, 3, 128)}),
    "virasoro-verma": (_suite_virasoro_verma,
                       "exact Verma Gram matrices and unitarity scans",
                       {"max_level": (5, 1, vi.MAX_VERMA_LEVEL)}),
    # below cutoff 4 the safe subspace (total number <= cutoff - 2) holds
    # no two degrees that [a(f), a(g)] connects, so checks 01-02 pass
    # vacuously; above 16 (dim 969) the rounding of checks 01 and 06,
    # which grows about like cutoff^2, nears their fixed 1e-12 tolerance
    # (at seed 20091124 check 01 reads 3.0e-13 at 16 and 1.02e-12 at 28),
    # while time and memory stay small (cutoff 40: 0.33 s, 96 MiB)
    "fock-ccr": (_suite_fock_ccr,
                 "CCR/CAR, Weyl relations, Heisenberg product",
                 {"cutoff": (12, 4, 16), "N": (32, 1, 200)}),
    "fock-vacuum": (_suite_fock_vacuum,
                    "Bogoliubov vacuum implementers and residual decay",
                    {"N": (40, 2, 200)}),
    "fock-central": (_suite_fock_central,
                     "second quantization, hat vectors, central terms", {}),
    "symplectic-cones": (_suite_symplectic,
                         "symplectic cones, momentum maps, sl(2, R) = sp(2, R)",
                         {}),
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Execute one named suite and assemble its report."""
    if cfg.suite not in SUITES:
        names = ", ".join(suite_names())
        raise KeyError(f"unknown suite {cfg.suite!r}: valid suites are {names}")
    func = SUITES[cfg.suite][0]
    checks = tuple(func(cfg, default_rng(cfg.seed)))
    return VerificationReport(suite=cfg.suite, seed=cfg.seed, checks=checks)
