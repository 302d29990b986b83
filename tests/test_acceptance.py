"""Acceptance gate: fifteen end-to-end criteria, each with a fixed
tolerance and size, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they stream; without ``-s`` pytest shows them only on failure.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from virfock.circle import (
    FourierFunction,
    omega_cocycle,
    random_diffeo,
    schwarzian_cocycle_residual,
    witt_generator,
)
from virfock.fock import (
    BOSONIC,
    FERMIONIC,
    ModeSpace,
    annihilate,
    central_term,
    central_term_trace,
    create,
    hat_element,
    hat_pairing,
    vacuum,
    vacuum_implementer,
    truncated_vacuum_oracle,
    weyl,
)
from virfock.realmaps import (
    RealLinearMap,
    bogoliubov_defect,
    inner,
    random_algebra_element,
    random_skew_hermitian,
    random_unitary,
)
from virfock.symplectic import (
    QuadraticState,
    compatible_complex_structure,
    cone_margin,
    conjugate_to_unitary,
    jacobi_minimum,
    jacobi_value,
    momentum_map,
    positive_complex_structure,
    random_cone_element,
    rayleigh_max_momentum,
    spectral_support,
)
from virfock.virasoro import (
    VirasoroElement,
    adjoint_action,
    beta_hessian_form,
    chi,
    convexity_check,
    orbit_invariants,
    singleton_norm,
    verma_gram,
)

TWO_PI = 2.0 * math.pi


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {label}  ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _small_diffeo(rng, degree):
    return random_diffeo(rng, degree=degree, modes=5, amplitude=0.06,
                         max_slope=0.4)


def _cvec(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def test_criterion_01_central_cocycle_on_generators():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        val = omega_cocycle(witt_generator(n), witt_generator(-n))
        worst = max(worst, abs(val - 2j * math.pi * (n ** 3 - n)))
    elapsed = time.perf_counter() - t0
    _verdict(1, "omega(d_n, d_-n) = 2 pi i (n^3 - n) for n <= 8",
             worst < 1e-9 and elapsed < 1.0,
             f"worst {worst:.3e} < 1e-9 in {elapsed:.2f}s < 1s")


def test_criterion_02_schwarzian_cocycle_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260201)
    worst = 0.0
    for _ in range(50):
        phi = _small_diffeo(rng, 32)
        psi = _small_diffeo(rng, 32)
        worst = max(worst, schwarzian_cocycle_residual(phi, psi))
    elapsed = time.perf_counter() - t0
    _verdict(2, "Schwarzian chain rule on a 256-point grid, 50 pairs",
             worst < 1e-8 and elapsed < 10.0,
             f"worst {worst:.3e} < 1e-8 in {elapsed:.2f}s < 10s")


def test_criterion_03_orbit_invariants():
    rng = np.random.default_rng(20260203)
    base = FourierFunction.from_dict(
        {0: 1.0, 1: 0.15 + 0.1j, -1: 0.15 - 0.1j, 2: 0.05, -2: 0.05},
        degree=48)
    x = VirasoroElement(0.25, base)
    c0 = chi(x.field)
    ref = orbit_invariants(x)
    worst = 0.0
    for _ in range(100):
        y = adjoint_action(_small_diffeo(rng, 48), x)
        inv = orbit_invariants(y)
        worst = max(worst, abs(chi(y.field) - c0), abs(inv.beta - ref.beta),
                    abs(inv.alpha - ref.alpha))

    f = FourierFunction.from_dict({0: 2.0, 1: 0.5, -1: 0.5}, degree=16)
    got = chi(f)
    oracle, _ = quad(lambda th: 1.0 / (2.0 + math.cos(th)), 0.0, TWO_PI,
                     limit=200)
    chi_err = max(abs(got - 1.0 / math.sqrt(3.0)),
                  abs(got - oracle / TWO_PI))
    _verdict(3, "chi and (beta, alpha) invariant on adjoint orbits",
             worst < 1e-7 and chi_err < 1e-10,
             f"invariance {worst:.3e} < 1e-7; "
             f"chi(2+cos) {chi_err:.3e} < 1e-10")


def test_criterion_04_projection_dominance_sampling():
    rng = np.random.default_rng(20260204)
    x = VirasoroElement.cartan(0.0, 1.0, 48)
    rep = convexity_check(x, trials=200, rng=rng)
    slack = min(rep["min_beta_margin"], rep["min_alpha_margin"])
    _verdict(4, "Cartan projections of Ad_phi(0,1) dominate the base",
             slack >= -1e-8, f"min margin {slack:.3e} >= -1e-8")


def test_criterion_05_beta_hessian():
    rng = np.random.default_rng(20260205)
    worst_pos = 0.0
    for _ in range(200):
        coeffs = {0: rng.normal()}
        for k in range(1, 6):
            c = (rng.normal() + 1j * rng.normal()) / (1 + k * k)
            coeffs[k], coeffs[-k] = c, np.conj(c)
        h = FourierFunction.from_dict(coeffs, degree=12)
        worst_pos = max(worst_pos, beta_hessian_form(h))
    worst_val = 0.0
    for n in range(1, 9):
        h = FourierFunction.from_dict({n: 0.5, -n: 0.5}, degree=10)
        worst_val = max(worst_val,
                        abs(beta_hessian_form(h) - math.pi * (1 - n * n)))
    _verdict(5, "beta-Hessian nonpositive, pi(1 - n^2) on cos(n theta)",
             worst_pos <= 1e-9 and worst_val < 1e-9,
             f"max form {worst_pos:.3e} <= 1e-9; "
             f"cosine values off by {worst_val:.3e} < 1e-9")


def test_criterion_06_verma_gram_exact():
    ok = True
    for n in range(1, 6):
        for c, h in ((Fraction(1, 2), Fraction(1, 16)),
                     (Fraction(0), Fraction(5, 7)),
                     (Fraction(26), Fraction(2))):
            want = 2 * n * h + c * Fraction(n ** 3 - n, 12)
            ok = ok and singleton_norm(n, c, h) == want
    for n in range(1, 4):
        for h in (Fraction(5, 7), Fraction(1, 2), Fraction(3)):
            g = verma_gram(2 * n, Fraction(0), h,
                           partitions=((2 * n,), (n, n)))
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            ok = ok and det == 4 * n ** 3 * h ** 2 * (8 * h - 5 * n)
    _verdict(6, "singleton norms (n <= 5) and c=0 pair dets (n <= 3)",
             ok, "exact rational equality")


def test_criterion_07_ccr_car_residuals():
    rng = np.random.default_rng(20260207)
    sp_b = ModeSpace(3, BOSONIC, cutoff=12)
    worst_ccr = 0.0
    for _ in range(20):
        f, g = _cvec(rng, 3), _cvec(rng, 3)
        comm = annihilate(sp_b, f).commutator(create(sp_b, g))
        defect = comm - complex(inner(g, f)) * comm.identity(sp_b)
        worst_ccr = max(worst_ccr, defect.restricted_norm(sp_b.cutoff - 2))
    sp_f = ModeSpace(3, FERMIONIC, cutoff=3)
    worst_car = 0.0
    for _ in range(20):
        f, g = _cvec(rng, 3), _cvec(rng, 3)
        anti = annihilate(sp_f, f).anticommutator(create(sp_f, g))
        defect = anti - complex(inner(g, f)) * anti.identity(sp_f)
        worst_car = max(
            worst_car, defect.norm(),
            annihilate(sp_f, f).anticommutator(annihilate(sp_f, g)).norm(),
            create(sp_f, f).anticommutator(create(sp_f, g)).norm())
    _verdict(7, "CAR exact-dimensional, CCR on the safe subspace",
             worst_car < 1e-13 and worst_ccr < 1e-12,
             f"CAR {worst_car:.3e} < 1e-13; CCR {worst_ccr:.3e} < 1e-12")


def test_criterion_08_weyl_vacuum_coefficient():
    t0 = time.perf_counter()
    sp = ModeSpace(1, BOSONIC, cutoff=24)
    worst = 0.0
    for norm_sq in (1.0, 2.0, 4.0):
        f = np.array([math.sqrt(norm_sq)], dtype=complex)
        val = weyl(sp, f).apply(vacuum(sp)).inner(vacuum(sp))
        worst = max(worst, abs(val - math.exp(-norm_sq / 4.0)))
    elapsed = time.perf_counter() - t0
    _verdict(8, "<W(0,f) vac, vac> = exp(-|f|^2/4), |f|^2 in {1,2,4}",
             worst < 1e-6 and elapsed < 5.0,
             f"worst {worst:.3e} < 1e-6 in {elapsed:.2f}s < 5s")


def test_criterion_09_squeeze_vacuum_constant():
    sp = ModeSpace(1, BOSONIC, cutoff=40)
    worst_c = 0.0
    worst_odd = 0.0
    for r in (0.25, 0.5, 1.0):
        g = RealLinearMap(np.array([[math.cosh(r)]]),
                          np.array([[math.sinh(r)]]))
        c, F = vacuum_implementer(sp, g)
        c_or, _ = truncated_vacuum_oracle(sp, g)
        worst_c = max(worst_c, abs(c - c_or))
        odd = F.degree_norms()[1::2]
        worst_odd = max(worst_odd, float(np.max(odd)))
    _verdict(9, "squeeze c(g) vs linear-solve oracle at cutoff 40",
             worst_c < 1e-6 and worst_odd < 1e-14,
             f"c residual {worst_c:.3e} < 1e-6; "
             f"odd components {worst_odd:.3e} < 1e-14")


def test_criterion_10_central_term_cocycle():
    rng = np.random.default_rng(20260210)
    worst_trace = 0.0
    for stat in (BOSONIC, FERMIONIC):
        for k in range(25):
            d = 1 + k % 3
            sp = ModeSpace(d, stat, cutoff=6 if stat == BOSONIC else d)
            x, y = (random_algebra_element(rng, d, sp.sign) for _ in range(2))
            worst_trace = max(worst_trace,
                              abs(central_term(sp, x, y)
                                  - central_term_trace(sp, x, y)))
    worst_cocycle = 0.0
    for stat in (BOSONIC, FERMIONIC):
        sp = ModeSpace(2, stat, cutoff=6 if stat == BOSONIC else 2)
        for _ in range(10):
            x, y, z = (random_algebra_element(rng, 2, sp.sign) for _ in range(3))
            val = (central_term(sp, x.commutator(y), z)
                   + central_term(sp, y.commutator(z), x)
                   + central_term(sp, z.commutator(x), y))
            worst_cocycle = max(worst_cocycle, abs(val))
    _verdict(10, "central term matches block traces; eta is a cocycle",
             worst_trace < 1e-8 and worst_cocycle < 1e-8,
             f"trace match {worst_trace:.3e} < 1e-8; "
             f"cocycle identity {worst_cocycle:.3e} < 1e-8")


def test_criterion_11_hat_element_identities():
    rng = np.random.default_rng(20260211)
    worst = 0.0
    for stat in (BOSONIC, FERMIONIC):
        sign = 1.0 if stat == BOSONIC else -1.0
        for k in range(100):
            d = 1 + k % 4
            if stat == FERMIONIC and d == 1:
                d = 2  # antisymmetric 1x1 matrices vanish identically
            sp = ModeSpace(d, stat, cutoff=4)
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            A = A + A.T if stat == BOSONIC else A - A.T
            B = B + B.T if stat == BOSONIC else B - B.T
            worst = max(
                worst,
                abs(hat_element(sp, A).norm() ** 2
                    - 0.5 * np.linalg.norm(A) ** 2),
                abs(hat_pairing(sp, A, B)
                    - sign * 0.5 * np.trace(A @ np.conj(B))))
    _verdict(11, "|A-hat|^2 = |A|_2^2 / 2 and the half-trace pairing",
             worst < 1e-10, f"worst {worst:.3e} < 1e-10")


def test_criterion_12_symplectic_normal_forms():
    rng = np.random.default_rng(20260212)
    worst_pcs = 0.0
    worst_c2u = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        A = random_cone_element(rng, d)
        J = positive_complex_structure(A)
        JJ = J.compose(J)
        worst_pcs = max(
            worst_pcs,
            np.linalg.norm(JJ.G1 + np.eye(d)) + np.linalg.norm(JJ.G2),
            np.linalg.norm(J.commutator(A).to_real_matrix()),
            max(0.0, -cone_margin(J)))
        g, Ap = conjugate_to_unitary(A)
        back = g.compose(Ap).compose(g.inverse())
        H = 1j * Ap.G1
        worst_c2u = max(
            worst_c2u,
            Ap.antilinear_norm(),
            bogoliubov_defect(g, 1),
            float(np.linalg.norm(H - H.conj().T)),
            max(0.0, float(np.linalg.eigvalsh(0.5 * (H + H.conj().T))[-1])),
            float(np.linalg.norm((back - A).to_real_matrix())))
    _verdict(12, "positive complex structures and unitary conjugation",
             worst_pcs < 1e-9 and worst_c2u < 1e-8,
             f"PCS {worst_pcs:.3e} < 1e-9; roundtrip {worst_c2u:.3e} < 1e-8")


def test_criterion_13_jacobi_minimum_dominance():
    rng = np.random.default_rng(20260213)
    worst = -np.inf
    for _ in range(20):
        d = int(rng.integers(1, 5))
        q = QuadraticState(float(rng.normal()), _cvec(rng, d),
                           random_cone_element(rng, d))
        _, fmin = jacobi_minimum(q)
        # the same stream as 10^4 draws of _cvec(rng, d), in one call
        z = rng.normal(size=(10 ** 4, 2, d))
        V = 3.0 * (z[:, 0] + 1j * z[:, 1])
        worst = max(worst, float(np.max(fmin - jacobi_value(q, V))))
    _verdict(13, "closed-form Jacobi minimum dominates 2e5 samples",
             worst <= 1e-9, f"max undershoot {worst:.3e} <= 1e-9")


def test_criterion_14_momentum_spectral_duality():
    rng = np.random.default_rng(20260214)
    worst_dual = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 5))
        x = random_skew_hermitian(rng, d)
        worst_dual = max(worst_dual,
                         abs(spectral_support(x)
                             - rayleigh_max_momentum(x, rng)))
    worst_equiv = 0.0
    for _ in range(25):
        x = random_skew_hermitian(rng, 4)
        U = random_unitary(rng, 4)
        v = _cvec(rng, 4)
        worst_equiv = max(worst_equiv,
                          abs(momentum_map(x, U @ v)
                              - momentum_map(U.conj().T @ x @ U, v)))
    _verdict(14, "spectral support is the momentum Rayleigh maximum",
             worst_dual < 1e-8 and worst_equiv < 1e-12,
             f"duality {worst_dual:.3e} < 1e-8; "
             f"equivariance {worst_equiv:.3e} < 1e-12")


def test_criterion_15_compatible_complex_structure():
    rng = np.random.default_rng(20260215)
    worst = 0.0
    accepted = 0
    while accepted < 50:
        two_d = 2 * (1 + accepted % 4)
        m = rng.normal(size=(two_d, two_d))
        A = m - m.T
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        accepted += 1
        J = compatible_complex_structure(A)
        G = J.T @ A
        sym = 0.5 * (G + G.T)
        worst = max(
            worst,
            float(np.abs(J @ J + np.eye(two_d)).max()),
            float(np.abs(G - G.T).max()),
            max(0.0, -float(np.linalg.eigvalsh(sym)[0])),
            float(np.abs(J.T @ G @ J - G).max()))
    _verdict(15, "compatible J from invertible skew forms, 2d <= 8",
             worst < 1e-9, f"worst postcondition {worst:.3e} < 1e-9")
