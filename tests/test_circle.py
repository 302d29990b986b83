"""Truncated Fourier calculus: products, brackets, diffeos, Schwarzians."""

import cmath
import inspect
import math

import numpy as np
import pytest

from virfock.circle import (
    GRID_BLOCK,
    REALITY_TOL,
    CircleDiffeo,
    FourierFunction,
    compose,
    derivative,
    flow,
    gelfand_fuchs,
    grid_points,
    integrate,
    invert,
    lie_bracket,
    lie_derivative,
    multiply,
    omega_cocycle,
    pairing_integral,
    pullback_density,
    random_diffeo,
    refit_size,
    schwarzian,
    schwarzian_values,
    witt_generator,
)

TWO_PI = 2.0 * math.pi


def random_field(rng, degree, modes=6, scale=1.0):
    coeffs = {0: scale * rng.normal()}
    for k in range(1, modes + 1):
        c = scale * (rng.normal() + 1j * rng.normal()) / (1 + k * k)
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    return FourierFunction.from_dict(coeffs, degree=degree)


# ---------------------------------------------------------------------------
# products and coefficient calculus


def test_multiply_exponentials_cancel():
    e_plus = FourierFunction.from_dict({1: 1.0}, degree=4)
    e_minus = FourierFunction.from_dict({-1: 1.0}, degree=4)
    prod = multiply(e_plus, e_minus)
    assert prod.coeff(0) == pytest.approx(1.0, abs=1e-15)
    for k in range(-4, 5):
        if k != 0:
            assert abs(prod.coeff(k)) < 1e-15


def test_multiply_cosine_square():
    cos = FourierFunction.from_dict({1: 0.5, -1: 0.5}, degree=4)
    prod = multiply(cos, cos)
    assert prod.coeff(0) == pytest.approx(0.5, abs=1e-15)
    assert prod.coeff(2) == pytest.approx(0.25, abs=1e-15)
    assert prod.coeff(-2) == pytest.approx(0.25, abs=1e-15)
    assert abs(prod.coeff(1)) < 1e-15


def test_multiply_matches_grid_oracle():
    rng = np.random.default_rng(21)
    N = 16
    theta = grid_points(4 * N + 1)
    for _ in range(10):
        f = random_field(rng, N)
        g = random_field(rng, N)
        prod = multiply(f, g)
        assert prod.degree == 2 * N
        oracle = f.evaluate(theta) * g.evaluate(theta)
        assert np.max(np.abs(prod.evaluate(theta) - oracle)) < 1e-12


def test_derivative_of_cosine():
    cos = FourierFunction.from_dict({1: 0.5, -1: 0.5}, degree=3)
    d = derivative(cos)
    # -sin has coefficients -(1/2i) e^{i t} + (1/2i) e^{-i t}
    assert d.coeff(1) == pytest.approx(0.5j, abs=1e-15)
    assert d.coeff(-1) == pytest.approx(-0.5j, abs=1e-15)


def test_integrate_examples():
    cos = FourierFunction.from_dict({1: 0.5, -1: 0.5}, degree=3)
    assert abs(integrate(cos)) < 1e-15
    one = FourierFunction.from_dict({0: 1.0}, 3)
    assert integrate(one) == pytest.approx(TWO_PI, abs=1e-15)
    assert abs(integrate(FourierFunction.from_dict({3: 1.0}, degree=4))) < 1e-15


def test_integral_of_derivative_vanishes():
    rng = np.random.default_rng(22)
    for _ in range(5):
        f = random_field(rng, 10)
        assert abs(integrate(derivative(f))) < 1e-14


@pytest.mark.parametrize("nf, ng", [(3, 9), (9, 3), (5, 5)], ids=["3-9", "9-3", "5-5"])
def test_sums_and_pairings_of_series_of_unequal_degree(nf, ng):
    # a sum zero-pads the lower degree; the pairing reads the common modes
    rng = np.random.default_rng(40 + 10 * nf + ng)
    f, g = random_function(rng, nf, False), random_function(rng, ng, False)
    n, m = max(nf, ng), min(nf, ng)
    a, b = np.pad(f.coeffs, n - nf), np.pad(g.coeffs, n - ng)
    for out, want in ((f + g, a + b), (f - g, a - b), (g - f, b - a)):
        assert out.degree == n
        assert np.array_equal(out.coeffs, want)
    ref = TWO_PI * sum(f.coeff(k) * g.coeff(-k) for k in range(-m, m + 1))
    tol = 1e-15 * TWO_PI * np.sum(np.abs(f.coeffs)) * np.sum(np.abs(g.coeffs))
    assert abs(pairing_integral(f, g) - ref) <= tol
    assert abs(pairing_integral(g, f) - ref) <= tol


# ---------------------------------------------------------------------------
# pointwise evaluation against independent routes


def random_function(rng, degree, real, scale=1.0):
    c = scale * (rng.normal(size=2 * degree + 1)
                 + 1j * rng.normal(size=2 * degree + 1))
    if real:
        c = 0.5 * (c + np.conj(c[::-1]))
    return FourierFunction(c)


def explicit_sum(f, theta):
    """sum_k c_k e^{i k theta}, term by term."""
    ks = range(-f.degree, f.degree + 1)
    return np.array([sum(c * cmath.exp(1j * k * t) for k, c in zip(ks, f.coeffs))
                     for t in theta])


@pytest.mark.parametrize("real", [True])
@pytest.mark.parametrize("degree", [0, 1, 48, 96])
def test_evaluate_matches_fft_on_the_uniform_grid(degree, real):
    # the smallest grid, an even one (whose Nyquist bin must stay empty)
    # and a roomier odd one
    rng = np.random.default_rng(40 + degree)
    f = random_function(rng, degree, real)
    scale = np.sum(np.abs(f.coeffs))
    for M in (2 * degree + 1, 2 * degree + 2, 2 * degree + 5):
        vals = f.evaluate(grid_points(M))
        grid = f.grid_values(M)
        assert np.isrealobj(vals) and np.isrealobj(grid)
        assert np.max(np.abs(vals - grid)) <= 1e-12 * scale


@pytest.mark.parametrize("real", [True])
@pytest.mark.parametrize("degree", [0, 1, 48, 96])
def test_evaluate_matches_explicit_sum_at_arbitrary_angles(degree, real):
    rng = np.random.default_rng(50 + degree)
    f = random_function(rng, degree, real)
    theta = np.concatenate([rng.uniform(-20.0, 20.0, 40),
                            [0.0, -1.0, -TWO_PI, 3 * TWO_PI + 0.25]])
    oracle = explicit_sum(f, theta).real
    scale = np.sum(np.abs(f.coeffs))
    assert np.max(np.abs(f.evaluate(theta) - oracle)) <= 1e-12 * scale


@pytest.mark.parametrize("degree", [4, 48])
def test_grid_arcs_cover_a_large_grid_in_bounded_arcs(degree):
    # past GRID_BLOCK points the arcs are Horner at rotated phases, ending
    # in a short arc of 17 points
    rng = np.random.default_rng(60 + degree)
    f = random_function(rng, degree, real=True)
    M = 3 * GRID_BLOCK + 17
    arcs = list(f.grid_arcs(M))
    assert [a.size for a in arcs] == [GRID_BLOCK] * 3 + [17]
    scale = np.sum(np.abs(f.coeffs))
    oracle = f.evaluate(grid_points(M))
    assert np.max(np.abs(np.concatenate(arcs) - oracle)) <= 1e-13 * scale


@pytest.mark.parametrize("degree, M", [(48, GRID_BLOCK), (600, refit_size(600))])
def test_grid_arcs_of_a_grid_that_fits_one_arc_are_grid_values(degree, M):
    # past degree GRID_BLOCK / 8 an arc holds the whole refit grid
    f = random_function(np.random.default_rng(62), degree, real=True)
    arcs = list(f.grid_arcs(M))
    assert len(arcs) == 1 and np.array_equal(arcs[0], f.grid_values(M))


def test_evaluate_nearly_real_function_is_real_part_of_full_sum():
    # c_{-k} - conj(c_k) ~ 1e-13 is inside REALITY_TOL, so the function is
    # flagged real; its values must still be Re sum_k c_k e^{ik theta},
    # which differs from c_0 + 2 Re sum_{k>=1} c_k e^{ik theta}.
    rng = np.random.default_rng(44)
    N = 12
    c = random_function(rng, N, real=True, scale=1e-2).coeffs
    c = c + 1e-13 * (rng.normal(size=c.size) + 1j * rng.normal(size=c.size))
    f = FourierFunction(c)
    assert f.real_flag and not np.allclose(np.conj(c[::-1]), c, rtol=0, atol=1e-14)
    theta = rng.uniform(-10.0, 10.0, 100)
    oracle = explicit_sum(f, theta).real
    tol = 1e-14 * np.sum(np.abs(c))
    assert np.max(np.abs(f.evaluate(theta) - oracle)) <= tol
    # the irfft route folds the same way
    for M in (2 * N + 1, 64):
        grid_oracle = explicit_sum(f, grid_points(M)).real
        assert np.max(np.abs(f.grid_values(M) - grid_oracle)) <= tol
    positive_half = FourierFunction(np.concatenate([np.zeros(N), c[N:]]))
    two_re = 2 * explicit_sum(positive_half, theta).real - c[N].real
    assert np.max(np.abs(two_re - oracle)) > 10 * tol


@pytest.mark.parametrize("real", [True])
def test_evaluate_keeps_the_shape_of_theta(real):
    rng = np.random.default_rng(45)
    f = random_function(rng, 5, real)
    scalar = f.evaluate(0.7)
    assert np.ndim(scalar) == 0
    assert scalar == f.evaluate(np.array([0.7]))[0]
    theta = rng.uniform(-4.0, 4.0, size=(3, 5))
    vals = f.evaluate(theta)
    assert vals.shape == (3, 5)
    assert np.array_equal(vals, f.evaluate(theta.ravel()).reshape(3, 5))


def sparse_real_function(rng, degree, modes=5):
    """Real series with modes 0 .. ``modes`` live and the rest exactly zero,
    the shape of a random diffeomorphism's displacement."""
    c = np.zeros(2 * degree + 1, dtype=complex)
    c[degree] = rng.normal()
    for k in range(1, modes + 1):
        c[degree + k] = rng.normal() + 1j * rng.normal()
        c[degree - k] = np.conj(c[degree + k])
    return FourierFunction(c)


def test_evaluate_is_bitwise_blind_to_dead_high_modes():
    # leading exact zeros only add exact zeros, so padding changes no bit
    rng = np.random.default_rng(46)
    f = sparse_real_function(rng, 48)
    theta = np.concatenate([grid_points(384), rng.uniform(-20.0, 20.0, 50)])
    vals = f.evaluate(theta)
    live = {k: f.coeff(k) for k in range(-5, 6)}
    assert np.array_equal(FourierFunction.from_dict(live, 96).evaluate(theta), vals)
    assert np.array_equal(FourierFunction.from_dict(live, 5).evaluate(theta), vals)
    scale = np.sum(np.abs(f.coeffs))
    assert np.max(np.abs(vals - explicit_sum(f, theta).real)) <= 1e-14 * scale


@pytest.mark.parametrize("f", [
    FourierFunction.from_dict({}, 6),
    FourierFunction.from_dict({0: -1.25}, 6),
], ids=["zero", "real-constant"])
def test_evaluate_degenerate_series_match_the_explicit_sum(f):
    theta = np.concatenate([grid_points(17), [-7.5, 31.0]])
    vals = f.evaluate(theta)
    assert np.isrealobj(vals)
    tol = 1e-14 * np.sum(np.abs(f.coeffs))
    assert np.max(np.abs(vals - explicit_sum(f, theta).real)) <= tol


# ---------------------------------------------------------------------------
# Lie brackets of vector fields


def test_bracket_d1_dminus1():
    br = lie_bracket(witt_generator(1), witt_generator(-1))
    expected = 2.0 * witt_generator(0)
    for k in range(-6, 7):
        assert br.coeff(k) == pytest.approx(expected.coeff(k), abs=1e-14)


def test_bracket_d2_d3():
    br = lie_bracket(witt_generator(2), witt_generator(3))
    expected = -1.0 * witt_generator(5)
    for k in range(-8, 9):
        assert br.coeff(k) == pytest.approx(expected.coeff(k), abs=1e-13)


def test_bracket_of_field_with_itself_vanishes():
    rng = np.random.default_rng(23)
    X = random_field(rng, 10)
    assert lie_bracket(X, X).sup_norm() < 1e-14


@pytest.mark.parametrize("n,m", [(n, m) for n in range(-8, 9) for m in range(-8, 9)])
def test_bracket_structure_constants(n, m):
    br = lie_bracket(witt_generator(n), witt_generator(m))
    expected = float(n - m) * witt_generator(n + m)
    assert br.degree == abs(n) + abs(m)
    assert np.max(np.abs((br - expected).coeffs)) < 1e-12


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(24)
    for _ in range(5):
        F = random_field(rng, 8)
        G = random_field(rng, 8)
        H = random_field(rng, 8)
        j = (lie_bracket(F, lie_bracket(G, H))
             + lie_bracket(G, lie_bracket(H, F))
             + lie_bracket(H, lie_bracket(F, G)))
        assert j.sup_norm() < 1e-10


@pytest.mark.parametrize("degree", [12, 20])
def test_bracket_is_the_lie_derivative_of_a_minus_one_density(degree):
    # deg f + deg g = 12, the exact degree of the bracket; adding the zero
    # series of ``degree`` zero-fills the modes past 12
    rng = np.random.default_rng(26)
    f = random_field(rng, 7, modes=7)
    g = random_field(rng, 5, modes=5) + FourierFunction.from_dict({3: 0.5j}, 5)
    br = lie_bracket(f, g)
    assert br.degree == 12
    assert np.array_equal(br.coeffs, lie_derivative(f, g, -1.0).coeffs)
    cut = br + FourierFunction.from_dict({}, degree)
    assert cut.degree == degree
    # f g' - f' g by explicit coefficient convolution (modes -12..12)
    full = (np.convolve(f.coeffs, derivative(g).coeffs)
            - np.convolve(derivative(f).coeffs, g.coeffs))
    assert np.max(np.abs(br.coeffs - full)) < 1e-14
    ref = [full[k + 12] if abs(k) <= 12 else 0.0 for k in range(-degree, degree + 1)]
    assert np.max(np.abs(cut.coeffs - np.array(ref))) < 1e-14


# ---------------------------------------------------------------------------
# pullbacks and Lie derivatives


def test_pullback_by_rotation_shifts_argument():
    rng = np.random.default_rng(25)
    u = random_field(rng, 12)
    alpha = 0.731
    rho = pullback_density(CircleDiffeo(FourierFunction.from_dict({0: alpha}, 12)), u, 1.5)
    theta = grid_points(101)
    assert np.max(np.abs(rho.evaluate(theta) - u.evaluate(theta + alpha))) < 1e-10


def test_pullback_by_identity():
    rng = np.random.default_rng(26)
    u = random_field(rng, 10)
    rho = pullback_density(CircleDiffeo(FourierFunction.from_dict({}, 10)), u, 2)
    assert (rho - u).sup_norm() < 1e-13


def test_pullback_matches_grid_oracle():
    rng = np.random.default_rng(27)
    N = 32
    theta = grid_points(8 * N)
    for _ in range(5):
        phi = random_diffeo(rng, degree=N, amplitude=0.08)
        u = random_field(rng, 12)
        phi_vals = theta + phi.p.evaluate(theta)
        dphi = 1.0 + derivative(phi.p).evaluate(theta)
        # the weight is the exponent of phi': quadratic, field, fractional
        for s in (2, -1, 1.5):
            rho = pullback_density(phi, u, s)
            oracle = u.evaluate(phi_vals) * dphi ** s
            assert np.max(np.abs(rho.evaluate(theta) - oracle)) < 1e-9


def test_lie_derivative_along_rotation_field():
    rng = np.random.default_rng(28)
    u = random_field(rng, 10)
    out = lie_derivative(FourierFunction.from_dict({0: 1.0}, 10), u, 1.7)
    assert (out - derivative(u)).sup_norm() < 1e-13


def test_lie_derivative_of_constant_weight_zero():
    X = FourierFunction.from_dict({1: 0.3, -1: 0.3}, degree=6)
    out = lie_derivative(X, FourierFunction.from_dict({0: 2.0}, 6), 0)
    assert out.sup_norm() < 1e-14


def test_lie_derivative_is_flow_derivative_of_pullback():
    # central finite differences of t -> pullback(flow(tX), u) at t = 0
    rng = np.random.default_rng(29)
    X = random_field(rng, 24, scale=0.5)
    u = random_field(rng, 24)
    h = 1e-4
    plus = pullback_density(flow(X, h), u, 2)
    minus = pullback_density(flow(X, -h), u, 2)
    fd = (plus - minus) * (1.0 / (2.0 * h))
    exact = lie_derivative(X, u, 2)
    rel = (fd - exact).sup_norm() / max(exact.sup_norm(), 1e-12)
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# composition, inversion, flows


def test_compose_with_identity():
    rng = np.random.default_rng(30)
    phi = random_diffeo(rng, degree=16)
    out = compose(phi, CircleDiffeo(FourierFunction.from_dict({}, 16)))
    assert (out.p - phi.p).sup_norm() < 1e-11


def test_compose_matches_the_pointwise_composition():
    rng = np.random.default_rng(35)
    ident = CircleDiffeo(FourierFunction.from_dict({}, 32))
    for _ in range(10):
        phi = random_diffeo(rng, degree=32, modes=5, amplitude=0.06, max_slope=0.4)
        psi = random_diffeo(rng, degree=24, modes=5, amplitude=0.06, max_slope=0.4)
        theta = rng.uniform(-10.0, 10.0, 200)
        q = psi.p.evaluate(theta)
        exact = q + phi.p.evaluate(theta + q)
        assert np.max(np.abs(compose(phi, psi).p.evaluate(theta) - exact)) <= 1e-14
        # the left identity
        assert np.max(np.abs((compose(ident, psi).p - psi.p).coeffs)) <= 1e-15


@pytest.mark.parametrize("degree", [8, 16, 32, 48])
def test_random_diffeo_slope_bound_holds_on_the_checked_grid(degree):
    # CircleDiffeo checks phi' > 0 on the refit grid; the slope rescale
    # must read the same grid, or the bound fails between its points
    rng = np.random.default_rng(36 + degree)
    M = refit_size(degree)
    worst = max(np.max(np.abs(random_diffeo(
        rng, degree, modes=8, amplitude=0.3, max_slope=0.4).grid_jet(M)[1]))
        for _ in range(200))
    assert worst <= 0.4 + 1e-15


def test_invert_rotation():
    rot = CircleDiffeo(FourierFunction.from_dict({0: 0.4}, 8))
    inv = invert(rot)
    expected = CircleDiffeo(FourierFunction.from_dict({0: -0.4}, 8))
    assert (inv.p - expected.p).sup_norm() < 1e-12


def test_compose_invert_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(5):
        phi = random_diffeo(rng, degree=32, modes=4, amplitude=0.03,
                            max_slope=0.3)
        assert compose(phi, invert(phi)).p.sup_norm() < 1e-9


def test_flow_additivity():
    rng = np.random.default_rng(32)
    raw = random_field(rng, 12)
    raw = raw * (0.2 / raw.sup_norm())
    X = raw
    one = compose(flow(X, 0.15), flow(X, 0.1))
    two = flow(X, 0.25)
    assert (one.p - two.p).sup_norm() < 1e-8


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_flow_rejects_a_non_finite_time(t):
    X = FourierFunction.from_dict({1: 0.1, -1: 0.1}, degree=4)
    with pytest.raises(ValueError, match=f"flow time must be finite, not {t}"):
        flow(X, t)


def test_diffeo_rejects_non_monotone_candidate():
    with pytest.raises(ValueError, match=r"not a diffeomorphism: min phi' = -1.400e\+00"):
        CircleDiffeo(FourierFunction.from_dict({1: 1.2, -1: 1.2}, degree=8))


@pytest.mark.parametrize("call, message", [
    (lambda: FourierFunction(np.zeros(4)), "odd length"),
    (lambda: FourierFunction(np.zeros((3, 3))), "odd length"),
    (lambda: FourierFunction.from_dict({5: 1.0}, 4), "mode 5 exceeds degree 4"),
    (lambda: FourierFunction.from_grid(np.zeros(8), 4), r"at least 2N\+1 samples"),
    (lambda: FourierFunction.from_dict({}, 4).grid_values(8), "grid too coarse"),
    (lambda: CircleDiffeo(FourierFunction.from_dict({}, 8)).grid_jet(16),
     "grid too coarse for this degree"),
    (lambda: CircleDiffeo(FourierFunction.from_dict({1: 0.1}, 8)),
     "displacement must be real"),
    (lambda: flow(witt_generator(1)), "real vector fields only"),
    (lambda: witt_generator(1).evaluate(0.5), "cannot sample a complex series"),
    (lambda: witt_generator(1).grid_values(9), "cannot sample a complex series"),
    (lambda: witt_generator(1).sup_norm(), "cannot sample a complex series"),
    (lambda: FourierFunction.from_grid(np.ones(9) + 0.5j, 4),
     "from_grid takes real samples, not complex ones"),
    (lambda: list(FourierFunction.from_dict({}, 4).grid_arcs(8)), "grid too coarse for this degree"),
    (lambda: list(witt_generator(1).grid_arcs(9)), "cannot sample a complex series"),
    (lambda: list(witt_generator(1).grid_arcs(2 * GRID_BLOCK)),
     "cannot sample a complex series"),
], ids=["even-length", "not-a-vector", "mode-above-degree", "too-few-samples",
        "grid-too-coarse", "jet-grid-too-coarse", "complex-displacement",
        "complex-flow", "evaluate-complex-series",
        "grid-values-complex-series", "sup-norm-complex-series",
        "from-grid-complex-samples", "arcs-too-coarse",
        "arcs-complex-series-one-arc", "arcs-complex-series-many-arcs"])
def test_circle_input_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("degree", [16, 31, 48])
def test_diffeo_reads_the_derivative_it_was_built_with(degree):
    # CircleDiffeo builds its jet rows once; `jet` reads them by Horner at
    # arbitrary angles, of any shape, and row j is the j-th derivative of p
    rng = np.random.default_rng(degree)
    ks = np.abs(np.arange(-degree, degree + 1))
    for theta in (rng.uniform(-10.0, 10.0, 40), rng.uniform(-10.0, 10.0, (3, 7))):
        for _ in range(4):
            phi = random_diffeo(rng, degree, modes=8, amplitude=0.2, max_slope=0.6)
            jet = phi.jet(theta)
            assert jet.shape == (4,) + theta.shape and np.isrealobj(jet)
            for j in range(4):
                scale = np.sum(ks ** j * np.abs(phi.p.coeffs))
                horner = derivative(phi.p, j).evaluate(theta)
                assert np.max(np.abs(jet[j] - horner)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# a diffeomorphism's jet on the uniform grid


_JET_GRIDS = {"2N+1": lambda n: 2 * n + 1, "2N+2": lambda n: 2 * n + 2,
              "refit": refit_size}


@pytest.mark.parametrize("grid", list(_JET_GRIDS))
@pytest.mark.parametrize("degree", [0, 1, 32, 48])
def test_grid_jet_rows_are_the_derivatives_on_the_grid(degree, grid):
    rng = np.random.default_rng(60 + degree)
    M = _JET_GRIDS[grid](degree)
    theta = grid_points(M)
    ks = np.abs(np.arange(-degree, degree + 1))
    for _ in range(3):
        phi = random_diffeo(rng, degree, modes=8, amplitude=0.2, max_slope=0.6)
        jet = phi.grid_jet(M)
        assert jet.shape == (4, M) and np.isrealobj(jet)
        for j in range(4):
            scale = np.sum(ks ** j * np.abs(phi.p.coeffs))
            horner = derivative(phi.p, j).evaluate(theta)
            assert np.max(np.abs(jet[j] - horner)) <= 1e-12 * scale


@pytest.mark.parametrize("degree", [16, 33])
def test_refit_schwarzian_matches_the_horner_reference(degree):
    # the refit Schwarzians read the jet; the reference samples them by
    # Horner on the same grid and refits
    rng = np.random.default_rng(70 + degree)
    M = refit_size(degree)
    for _ in range(3):
        phi = random_diffeo(rng, degree, modes=8, amplitude=0.2, max_slope=0.6)
        for modified in (False, True):
            ref = FourierFunction.from_grid(
                schwarzian_values(phi, grid_points(M), modified), degree)
            refit = schwarzian(phi, modified)
            assert np.max(np.abs(refit.coeffs - ref.coeffs)) <= 1e-12


# ---------------------------------------------------------------------------
# Schwarzian derivatives


def test_schwarzian_vanishes_on_rotations_and_identity():
    rot = CircleDiffeo(FourierFunction.from_dict({0: 1.1}, 12))
    assert schwarzian(rot).sup_norm() < 1e-13
    assert schwarzian(rot, modified=True).sup_norm() < 1e-13
    ident = CircleDiffeo(FourierFunction.from_dict({}, 12))
    assert schwarzian(ident).sup_norm() < 1e-13
    assert schwarzian(ident, modified=True).sup_norm() < 1e-13


@pytest.mark.parametrize("a", [0.3, 0.6])
def test_refit_schwarzian_matches_closed_form_off_the_grid(a):
    # phi = theta + a sin theta: phi' = 1 + a cos, phi'' = -a sin,
    # phi''' = -a cos, so S and S~ are known pointwise
    phi = CircleDiffeo(FourierFunction.from_dict({1: a / 2j, -1: -a / 2j}, 32))
    theta = TWO_PI * (np.arange(97) + 0.37) / 97
    d1, d2, d3 = 1 + a * np.cos(theta), -a * np.sin(theta), -a * np.cos(theta)
    s = d3 / d1 - 1.5 * (d2 / d1) ** 2
    assert np.max(np.abs(schwarzian(phi).evaluate(theta) - s)) < 1e-12
    s_mod = s + 0.5 * (d1 ** 2 - 1.0)
    assert np.max(np.abs(schwarzian(phi, modified=True).evaluate(theta) - s_mod)) < 1e-12


@pytest.mark.parametrize("modified", [False, True])
def test_schwarzian_cocycle_identity(modified):
    from virfock.circle import schwarzian_cocycle_residual

    rng = np.random.default_rng(33)
    for _ in range(10):
        phi = random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                            max_slope=0.4)
        psi = random_diffeo(rng, degree=32, modes=5, amplitude=0.06,
                            max_slope=0.4)
        res = schwarzian_cocycle_residual(phi, psi, modified=modified)
        assert res < 1e-8


@pytest.mark.parametrize("modified", [False, True])
def test_schwarzian_cocycle_residual_has_no_degree_cap(modified):
    # the residual samples on the refit grid of the larger degree, which
    # grows with it, so degrees above 127 (half of 256) are allowed
    from virfock.circle import schwarzian_cocycle_residual

    rng = np.random.default_rng(35)
    phi = random_diffeo(rng, degree=130, modes=5, amplitude=0.06, max_slope=0.4)
    psi = random_diffeo(rng, degree=130, modes=5, amplitude=0.06, max_slope=0.4)
    assert schwarzian_cocycle_residual(phi, psi, modified=modified) < 1e-8


def test_modified_schwarzian_linearization():
    # (d/dt)|_0 Stilde(flow(tX)) = f''' + f', by central differences
    rng = np.random.default_rng(34)
    f = random_field(rng, 6, scale=0.5)
    X = f
    h = 1e-4
    plus = schwarzian(flow(X, h), modified=True)
    minus = schwarzian(flow(X, -h), modified=True)
    fd = (plus - minus) * (1.0 / (2.0 * h))
    exact = derivative(derivative(derivative(f))) + derivative(f)
    rel = (fd - exact).sup_norm() / exact.sup_norm()
    assert rel < 1e-5


# ---------------------------------------------------------------------------
# the two 2-cocycles


@pytest.mark.parametrize("n,expected", [(1, 0.0), (2, 12 * math.pi),
                                        (3, 48 * math.pi), (4, 120 * math.pi)])
def test_omega_on_generators(n, expected):
    val = omega_cocycle(witt_generator(n), witt_generator(-n))
    assert val == pytest.approx(1j * expected, abs=1e-10)


def test_omega_antisymmetric_on_real_fields():
    rng = np.random.default_rng(35)
    X = random_field(rng, 10)
    assert abs(omega_cocycle(X, X)) < 1e-12


def test_omega_equals_gelfand_fuchs_minus_half_bracket_integral():
    rng = np.random.default_rng(36)
    d2, dm2 = witt_generator(2), witt_generator(-2)
    pairs = [(d2, dm2)]
    for _ in range(10):
        pairs.append((random_field(rng, 8),
                      random_field(rng, 8)))
    for X, Y in pairs:
        lhs = omega_cocycle(X, Y)
        rhs = gelfand_fuchs(X, Y) - 0.5 * integrate(lie_bracket(X, Y))
        assert abs(lhs - rhs) < 1e-12


def test_omega_two_cocycle_identity():
    rng = np.random.default_rng(37)
    for _ in range(10):
        F = random_field(rng, 8)
        G = random_field(rng, 8)
        H = random_field(rng, 8)
        val = (omega_cocycle(lie_bracket(F, G), H)
               + omega_cocycle(lie_bracket(G, H), F)
               + omega_cocycle(lie_bracket(H, F), G))
        assert abs(val) < 1e-9


# ---------------------------------------------------------------------------
# representation invariants


def test_real_flag_requires_conjugate_symmetry():
    f = FourierFunction.from_dict({1: 0.5, -1: 0.5}, degree=4)
    assert f.real_flag
    g = FourierFunction.from_dict({1: 0.5}, degree=4)
    assert not g.real_flag


def _constructor_paths():
    rng = np.random.default_rng(39)
    f, g = random_field(rng, 6), random_field(rng, 4, modes=3)
    h = FourierFunction.from_dict({2: 1.0 + 1.0j, -1: 0.5}, 5)
    c = random_function(rng, 7, real=True).coeffs
    nearly = FourierFunction(c + 1e-13 * (rng.normal(size=c.size)
                                         + 1j * rng.normal(size=c.size)))
    return {
        "zero": FourierFunction.from_dict({}, 3),
        "constant-real": FourierFunction.from_dict({0: 2.0}, 3),
        "constant-complex": FourierFunction.from_dict({0: 1.0j}, 3),
        "from-dict-real": f,
        "from-dict-complex": h,
        "from-grid-real": FourierFunction.from_grid(f.evaluate(grid_points(32)), 6),
        "padded-sum": f + FourierFunction.from_dict({}, 9),
        "derivative": derivative(f, 3),
        "derivative-complex": derivative(h),
        "sum": f + g,
        "difference": g - h,
        "scalar-real": 3.0 * f,
        "scalar-complex": f * 1.0j,
        "nearly-real": nearly,
    }


def is_real(f, tol=REALITY_TOL):
    """Reference: conjugate symmetry c_{-k} = conj(c_k) to within tol."""
    c = f.coeffs
    return all(abs(c[-1 - i].conjugate() - c[i]) <= tol for i in range(c.size))


@pytest.mark.parametrize("path", list(_constructor_paths()))
def test_real_flag_agrees_with_is_real_on_every_constructor(path):
    f = _constructor_paths()[path]
    assert f.real_flag == is_real(f)
    if path == "nearly-real":
        assert f.real_flag and not is_real(f, tol=1e-14)


def test_only_constructors_from_data_take_a_degree():
    # the ambient truncation enters where data are built; every other
    # operation reads the degree off its inputs
    from virfock import circle, virasoro

    takers = set()
    for module in (circle, virasoro):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", getattr(obj, attr))
                           for attr, raw in vars(obj).items()
                           if not attr.startswith("_") and not isinstance(raw, property)]
            takers |= {label for label, member in members if callable(member)
                       and "degree" in inspect.signature(member).parameters}
    assert takers == {"FourierFunction.from_dict", "FourierFunction.from_grid",
                      "random_diffeo", "VirasoroElement.cartan"}


def test_from_grid_reconstructs_band_limited_data():
    rng = np.random.default_rng(38)
    f = random_field(rng, 10)
    vals = f.evaluate(grid_points(64))
    g = FourierFunction.from_grid(vals, degree=10)
    assert (f - g).sup_norm() < 1e-12


@pytest.mark.parametrize("real", [True])
@pytest.mark.parametrize("M", [21, 22, 64, 97])
def test_from_grid_round_trips_grid_values(M, real):
    # real samples take the rfft route, whose c_{-k} = conj(c_k) holds bit
    # for bit
    rng = np.random.default_rng(M)
    f = random_function(rng, 10, real)
    vals = f.grid_values(M)
    g = FourierFunction.from_grid(vals, degree=10)
    assert np.isrealobj(vals) and g.real_flag
    assert np.array_equal(g.coeffs[::-1], np.conj(g.coeffs))
    assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-14 * np.sum(np.abs(f.coeffs))

