"""Virasoro brackets, orbit invariants, convexity samples, Verma Gram data."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from virfock import virasoro
from virfock.circle import (
    GRID_BLOCK,
    CircleDiffeo,
    FourierFunction,
    grid_points,
    invert,
    lie_bracket,
    omega_cocycle,
    pairing_integral,
    pullback_density,
    random_diffeo,
    refit_size,
    schwarzian,
    schwarzian_values,
)
from virfock.suites import SuiteConfig, run_suite
from virfock.virasoro import (
    MAX_VERMA_LEVEL,
    CartanCoords,
    VirasoroElement,
    VirasoroFunctional,
    adjoint_action,
    beta_hessian_form,
    cartan_projection,
    chi,
    coadjoint_action,
    convexity_check,
    generator,
    normalized_central,
    orbit_invariants,
    pairing,
    partitions_of,
    projection_curve,
    singleton_norm,
    unitarity_scan,
    verma_gram,
    vir_bracket,
)

TWO_PI = 2.0 * math.pi


def small_diffeo(rng, degree=48):
    return random_diffeo(rng, degree=degree, modes=5, amplitude=0.06,
                         max_slope=0.4)


def random_real_field(rng, degree, modes=5, scale=1.0):
    coeffs = {0: scale * rng.normal()}
    for k in range(1, modes + 1):
        c = scale * (rng.normal() + 1j * rng.normal()) / (1 + k * k)
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    return FourierFunction.from_dict(coeffs, degree=degree)


# ---------------------------------------------------------------------------
# central extension bracket


def test_central_element_is_bracket_trivial():
    chat = normalized_central()
    x = generator(2)
    br = vir_bracket(chat, x)
    assert abs(br.z) < 1e-14 and br.field.sup_norm() < 1e-14


@pytest.mark.parametrize("n,m", [(1, -1), (2, -2), (3, -3), (2, 3), (-4, 1)])
def test_normalized_bracket_structure(n, m):
    x, y = generator(n), generator(m)
    br = vir_bracket(x, y)
    expected = float(n - m) * generator(n + m)
    if n + m == 0:
        expected = expected + ((n ** 3 - n) / 12.0) * normalized_central()
    assert abs(br.z - expected.z) < 1e-9
    assert np.max(np.abs((br.field - expected.field).coeffs)) < 1e-9


def test_bracket_of_degree_8_fields_has_degree_16():
    # the field part is the exact Lie bracket, modes above 8 included, and
    # the central part is the cocycle
    rng = np.random.default_rng(40)
    f, g = random_real_field(rng, 8, modes=8), random_real_field(rng, 8, modes=8)
    br = vir_bracket(VirasoroElement(0.3, f), VirasoroElement(-1.2, g))
    assert br.field.degree == 16
    assert br.field.coeff(15) != 0.0
    assert np.array_equal(br.field.coeffs, lie_bracket(f, g).coeffs)
    assert br.z == omega_cocycle(f, g)


# ---------------------------------------------------------------------------
# chi and the orbit invariants


def test_chi_shifted_cosine_closed_form():
    f = FourierFunction.from_dict({0: 2.0, 1: 0.5, -1: 0.5}, degree=8)
    assert abs(chi(f) - 1.0 / math.sqrt(3.0)) < 1e-10


def test_chi_matches_adaptive_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(5):
        f = random_real_field(rng, 12, scale=0.2)
        f = f + FourierFunction.from_dict({0: 1.5}, 12)
        val, _ = quad(lambda th: 1.0 / f.evaluate(np.array([th]))[0].real,
                      0.0, TWO_PI, limit=200)
        assert abs(chi(f) - val / TWO_PI) < 1e-9


def test_chi_of_constant_field():
    f = FourierFunction.from_dict({0: 2.5}, 4)
    assert abs(chi(f) - 0.4) < 1e-13


def test_chi_monotone_under_positive_perturbation():
    rng = np.random.default_rng(42)
    for _ in range(10):
        f = FourierFunction.from_dict({0: 2.0}, 10) + random_real_field(rng, 10, scale=0.2)
        g = FourierFunction.from_dict({0: 0.5}, 10) + random_real_field(rng, 10, scale=0.1)
        assert chi(f + g) <= chi(f) + 1e-12


def test_chi_invariant_under_adjoint_action():
    rng = np.random.default_rng(43)
    base = FourierFunction.from_dict(
        {0: 1.0, 1: 0.15 + 0.1j, -1: 0.15 - 0.1j, 2: 0.05, -2: 0.05}, degree=48)
    x = VirasoroElement(0.25, base)
    c0 = chi(x.field)
    for _ in range(10):
        assert abs(chi(adjoint_action(small_diffeo(rng), x).field) - c0) < 1e-9


def test_orbit_invariants_constant_on_orbit():
    rng = np.random.default_rng(44)
    base = FourierFunction.from_dict(
        {0: 1.0, 1: 0.15 + 0.1j, -1: 0.15 - 0.1j, 2: 0.05, -2: 0.05}, degree=48)
    x = VirasoroElement(0.25, base)
    ref = orbit_invariants(x)
    for _ in range(10):
        inv = orbit_invariants(adjoint_action(small_diffeo(rng), x))
        assert abs(inv.beta - ref.beta) < 1e-7
        assert abs(inv.alpha - ref.alpha) < 1e-7


def test_invariants_of_cartan_element_are_its_coordinates():
    x = VirasoroElement.cartan(0.7, 1.3, 16)
    inv = orbit_invariants(x)
    assert abs(inv.beta - 0.7) < 1e-10 and abs(inv.alpha - 1.3) < 1e-10
    proj = cartan_projection(x)
    assert abs(proj.beta - 0.7) < 1e-12 and abs(proj.alpha - 1.3) < 1e-12


def test_chi_blowup_closed_form_and_monotonicity():
    # along f_t = t + (1 - t)(1 + cos), chi(f_t) = (2t - t^2)^{-1/2}
    values = []
    for texp in (1e-1, 1e-2, 1e-3, 1e-5, 5e-7):
        ft = FourierFunction.from_dict(
            {0: 1.0, 1: 0.5 * (1 - texp), -1: 0.5 * (1 - texp)}, degree=4)
        val = chi(ft, grid_size=200000)
        exact = 1.0 / math.sqrt(2 * texp - texp * texp)
        assert abs(val - exact) / exact < 1e-8
        values.append(val)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1e3


@pytest.mark.parametrize("degree, M", [(16, 1024), (600, 4800)])
def test_chi_on_its_default_grid_is_the_mean_of_one_over_f(degree, M):
    g = FourierFunction.from_dict(
        {0: 1.5, 1: 0.3 - 0.2j, -1: 0.3 + 0.2j, 3: 0.1, -3: 0.1}, degree=degree)
    assert chi(g) == float(np.mean(1.0 / g.grid_values(M)))


def test_chi_finds_a_sign_change_past_the_first_arc():
    # 0.9 + cos is negative only near theta = pi, far past the first arc
    f = FourierFunction.from_dict({0: 0.9, 1: 0.5, -1: 0.5}, degree=4)
    assert np.min(next(f.grid_arcs(200000))) > 0.0
    with pytest.raises(ValueError, match="chi requires f > 0"):
        chi(f, grid_size=200000)


def test_chi_memory_is_bounded_on_a_fine_grid():
    # a 200,000-point grid held at once needs 3 MiB of arrays
    f = FourierFunction.from_dict({0: 1.0, 1: 0.4999, -1: 0.4999}, degree=4)
    tracemalloc.start()
    try:
        chi(f, grid_size=200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_orbit_invariants_past_degree_grid_block_over_8_match_a_small_degree():
    # degree 600 puts the default grid at 4800 points, more than GRID_BLOCK
    modes = {0: 1.0, 1: 0.15 + 0.1j, -1: 0.15 - 0.1j, 2: 0.05, -2: 0.05}
    fields = [FourierFunction.from_dict(modes, n) for n in (48, 600)]
    small, large = (orbit_invariants(VirasoroElement(0.25, f)) for f in fields)
    assert abs(large.beta - small.beta) < 1e-12
    assert abs(large.alpha - small.alpha) < 1e-12


def test_orbit_invariants_hold_on_a_default_grid_of_several_arcs(monkeypatch):
    # a chi grid of two GRID_BLOCKs is summed over two arcs
    f = FourierFunction.from_dict(
        {0: 1.0, 1: 0.15 + 0.1j, -1: 0.15 - 0.1j, 2: 0.05, -2: 0.05}, degree=48)
    x = VirasoroElement(0.25, f)
    ref = orbit_invariants(x)
    monkeypatch.setattr(virasoro, "CHI_MIN_GRID", 2 * GRID_BLOCK)
    inv = orbit_invariants(x)
    assert abs(inv.beta - ref.beta) <= 1e-13 and abs(inv.alpha - ref.alpha) <= 1e-13
    assert inv.alpha == 1.0 / chi(f)


# ---------------------------------------------------------------------------
# pairing and the coadjoint action


def test_pairing_of_cartan_data():
    lam = VirasoroFunctional(2.0, FourierFunction.from_dict({0: 0.5}, 8))
    x = VirasoroElement.cartan(3.0, 1.0, 8)
    # a z + int u f = 2*3 + 0.5 * 2 pi
    assert abs(pairing(lam, x) - (6.0 + math.pi)) < 1e-12


def test_pairing_invariant_under_simultaneous_actions():
    rng = np.random.default_rng(45)
    for _ in range(10):
        phi = small_diffeo(rng, degree=32)
        x = VirasoroElement(float(rng.normal()), random_real_field(rng, 10))
        lam = VirasoroFunctional(float(rng.normal()), random_real_field(rng, 10))
        lhs = pairing(coadjoint_action(phi, lam), adjoint_action(phi, x))
        assert abs(lhs - pairing(lam, x)) < 1e-7


def test_adjoint_central_shift_matches_the_inverse_route():
    # the closed form never inverts phi; the definition
    # z - int f Stilde(phi^{-1}) goes through Newton inversion instead
    rng = np.random.default_rng(46)
    for _ in range(10):
        phi = small_diffeo(rng)
        x = VirasoroElement(float(rng.normal()), random_real_field(rng, 48))
        inverse_route = x.z - pairing_integral(
            x.field, schwarzian(invert(phi), modified=True))
        assert abs(adjoint_action(phi, x).z - inverse_route) <= 1e-11


def test_adjoint_field_matches_the_density_pullback():
    rng = np.random.default_rng(47)
    for _ in range(10):
        phi = small_diffeo(rng)
        x = VirasoroElement(float(rng.normal()), random_real_field(rng, 48))
        pulled = pullback_density(phi, x.field, -1.0)
        diff = adjoint_action(phi, x).field.coeffs - pulled.coeffs
        assert np.max(np.abs(diff)) <= 1e-14


@pytest.mark.parametrize("field_degree", [10, 48])
def test_adjoint_action_matches_the_horner_reference(field_degree):
    # adjoint_action pairs the refits of g and Stilde(phi) exactly; the
    # reference samples phi, phi' and Stilde(phi) on the refit grid by
    # Horner and takes the shift as the trapezoid mean of g Stilde(phi)
    rng = np.random.default_rng(48 + field_degree)
    for _ in range(5):
        phi = small_diffeo(rng)
        x = VirasoroElement(float(rng.normal()), random_real_field(rng, field_degree))
        n = max(x.field.degree, phi.degree)
        theta = grid_points(refit_size(n))
        p, dp = phi.jet(theta)[:2]
        g = x.field.evaluate(theta + p) / (1.0 + dp)
        shift = TWO_PI * np.mean(g * schwarzian_values(phi, theta, True))
        out = adjoint_action(phi, x)
        assert abs(out.z - (x.z + shift)) <= 1e-12
        ref = FourierFunction.from_grid(g, n)
        assert np.max(np.abs(out.field.coeffs - ref.coeffs)) <= 1e-12


@pytest.mark.parametrize("seed", [9, 79])
def test_orbit_suite_passes_where_inversion_error_failed_it(seed):
    # with the central shift read off a Newton-inverted phi, check 08
    # (pairing invariance) read 4.06e-7 at seed 9 and 1.08e-7 at seed 79
    # against its 1e-7 tolerance
    rep = run_suite(SuiteConfig(suite="virasoro-orbits", seed=seed))
    assert [c.check_id for c in rep.checks if not c.passed] == []


# ---------------------------------------------------------------------------
# convexity samples and the beta Hessian


def test_cartan_projection_moves_into_dominance_cone():
    rng = np.random.default_rng(46)
    x = VirasoroElement.cartan(0.0, 1.0, 48)
    margins = convexity_check(x, trials=50, rng=rng)
    assert margins.shape == (2, 50)
    beta_margin, alpha_margin = margins.min(axis=1)
    assert beta_margin >= -1e-8
    assert alpha_margin >= -1e-8


def test_beta_hessian_nonpositive_on_random_directions():
    rng = np.random.default_rng(47)
    for _ in range(50):
        h = random_real_field(rng, 12)
        assert beta_hessian_form(h) <= 1e-9


@pytest.mark.parametrize("n", range(1, 9))
def test_beta_hessian_on_cosines(n):
    h = FourierFunction.from_dict({n: 0.5, -n: 0.5}, degree=10)
    assert abs(beta_hessian_form(h) - math.pi * (1 - n * n)) < 1e-9


def test_beta_hessian_vanishes_on_constants():
    h = FourierFunction.from_dict({0: 1.7}, 6)
    assert abs(beta_hessian_form(h)) < 1e-12


# ---------------------------------------------------------------------------
# projection curves


def test_projection_curve_starts_at_base_point():
    x = VirasoroElement.cartan(0.4, 1.1, 32)
    pts = projection_curve(x, 2, (0.0,))
    assert abs(pts[0].beta - 0.4) < 1e-12 and abs(pts[0].alpha - 1.1) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_projection_curve_ray_ratio(n):
    pts = projection_curve(VirasoroElement.cartan(0.0, 1.0, 48), n, (1e-2,))
    p = pts[0]
    ratio = p.beta / (p.alpha - 1.0)
    assert abs(ratio - math.pi * (n * n - 1)) < 1e-3


def test_projection_curve_n1_is_pure_rotation_shift():
    pts = projection_curve(VirasoroElement.cartan(0.0, 1.0, 48), 1,
                           (0.01, 0.03))
    for p in pts:
        assert abs(p.beta) < 1e-9
    assert pts[-1].alpha != pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Verma modules


def frac_gram(level, c, h):
    return verma_gram(level, Fraction(c[0], c[1]), Fraction(h[0], h[1]))


def test_partitions_enumeration():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                      (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(1, 6))
def test_singleton_norm_closed_form(n):
    c, h = Fraction(7, 10), Fraction(3, 4)
    expected = 2 * n * h + c * Fraction(n ** 3 - n, 12)
    assert singleton_norm(n, c, h) == expected
    gram = verma_gram(n, c, h, partitions=((n,),))
    assert gram[0, 0] == expected


def test_level_two_gram_exact():
    c, h = Fraction(1, 2), Fraction(1, 16)
    gram = frac_gram(2, (1, 2), (1, 16))
    assert gram[0, 0] == 4 * h + c / 2
    assert gram[0, 1] == 6 * h and gram[1, 0] == 6 * h
    assert gram[1, 1] == 8 * h * h + 4 * h


@pytest.mark.parametrize("n", [1, 2, 3])
def test_c_zero_pair_determinant(n):
    h = Fraction(5, 7)
    gram = verma_gram(2 * n, Fraction(0), h, partitions=((2 * n,), (n, n)))
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    assert det == 4 * n ** 3 * h ** 2 * (8 * h - 5 * n)


def test_gram_symmetric_exactly():
    gram = frac_gram(4, (11, 3), (2, 5))
    n = gram.shape[0]
    for i in range(n):
        for j in range(n):
            assert gram[i, j] == gram[j, i]


def test_gram_float_matches_exact():
    c, h = Fraction(11, 3), Fraction(2, 5)
    exact = verma_gram(3, c, h)
    approx = verma_gram(3, float(c), float(h))
    worst = np.max(np.abs(np.vectorize(float)(exact) - approx))
    assert worst < 1e-9


def test_level_one_gram_at_h_zero():
    gram = frac_gram(1, (1, 1), (0, 1))
    assert gram.shape == (1, 1) and gram[0, 0] == 0


def test_unitarity_scan_known_points():
    mins, first_negative_level = unitarity_scan(1.0, 1.0, max_level=5)
    assert first_negative_level is None
    assert len(mins) == 5 and min(mins) > -1e-9
    assert unitarity_scan(26.0, 1.0, max_level=5)[1] is None
    assert unitarity_scan(0.0, 0.5, max_level=5)[1] == 2


def test_c_zero_h_one_negative_norms_appear():
    # the 2x2 pair determinant 4 n^3 h^2 (8h - 5n) changes sign between
    # n = 1 (8 - 5 > 0) and n = 2 (8 - 10 < 0); the full Gram matrices
    # pick up their first negative eigenvalue at level 3
    h = Fraction(1)
    for n, positive in [(1, True), (2, False)]:
        gram = verma_gram(2 * n, Fraction(0), h, partitions=((2 * n,), (n, n)))
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        assert (det > 0) == positive
    assert unitarity_scan(0.0, 1.0, max_level=3)[1] == 3


def test_verma_level_guard():
    with pytest.raises(ValueError, match=f"level must lie in 0..{MAX_VERMA_LEVEL}"):
        verma_gram(MAX_VERMA_LEVEL + 1, Fraction(1), Fraction(1))


def _cartan_check(field):
    return convexity_check(VirasoroElement(0.0, field), 1, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: chi(FourierFunction.from_dict({0: 1j}, 4)), "real fields only"),
    (lambda: chi(FourierFunction.from_dict({0: 1.0, 1: 0.6, -1: 0.6}, 4)), "f > 0"),
    (lambda: chi(FourierFunction.from_dict({}, 4)), "f > 0"),
    (lambda: orbit_invariants(VirasoroElement(0.5j, FourierFunction.from_dict({0: 1.0}, 4))),
     "real elements"),
    (lambda: _cartan_check(FourierFunction.from_dict({0: 1.0, 2: 0.1, -2: 0.1}, 8)),
     "Cartan plane with alpha > 0"),
    (lambda: _cartan_check(FourierFunction.from_dict({0: 0.0}, 8)), "Cartan plane with alpha > 0"),
    (lambda: verma_gram(3, Fraction(1), Fraction(1), partitions=((2, 1), (1, 2))),
     r"\(1, 2\) is not a descending partition of 3"),
    (lambda: verma_gram(3, Fraction(1), Fraction(1), partitions=((2,),)),
     r"\(2,\) is not a descending partition of 3"),
    (lambda: unitarity_scan(1.0, 1.0, MAX_VERMA_LEVEL + 1),
     f"max_level must be <= {MAX_VERMA_LEVEL}"),
], ids=["chi-complex", "chi-not-positive", "chi-zero", "invariants-complex-z",
        "convexity-off-the-plane", "convexity-alpha-zero", "verma-ascending",
        "verma-wrong-sum", "scan-level-too-high"])
def test_virasoro_input_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
