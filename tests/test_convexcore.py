"""Support functions, dual and recession cones, lineality, averaging."""

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from virfock.convexcore import (
    TOL,
    PolyCone,
    Polyhedron,
    SampledSet,
    cone_generators,
    cone_is_pointed,
    cones_equal,
    dual_cone,
    group_average,
    has_interior_B,
    in_cone,
    lineality_space,
    recession_cone,
    support_function,
    _nnls,
)


# ---------------------------------------------------------------------------
# support_function


def test_support_function_two_points():
    X = SampledSet([[1.0, 0.0], [0.0, 1.0]])
    assert support_function(X, [1.0, 1.0]) == -1.0


def test_support_function_zero_functional():
    X = SampledSet([[0.0, 0.0]])
    for v in ([1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]):
        assert support_function(X, v) == 0.0


def test_support_function_cross_polytope():
    # Brute-force oracle: max over the six vertices of <p, -v>.
    vertices = [sign * np.eye(3)[i] for i in range(3) for sign in (1.0, -1.0)]
    v = np.array([1.0, 2.0, 3.0])
    oracle = max(float(p @ -v) for p in vertices)
    assert oracle == 3.0
    assert support_function(SampledSet(vertices), v) == pytest.approx(3.0, abs=1e-14)


def test_support_function_positive_homogeneity():
    rng = np.random.default_rng(5)
    X = SampledSet(rng.normal(size=(12, 4)))
    for _ in range(50):
        v = rng.normal(size=4)
        s = float(rng.uniform(0.0, 10.0))
        assert support_function(X, s * v) == pytest.approx(
            s * support_function(X, v), abs=1e-12)


def test_support_function_subadditive():
    rng = np.random.default_rng(6)
    X = SampledSet(rng.normal(size=(15, 3)))
    for _ in range(50):
        v, w = rng.normal(size=3), rng.normal(size=3)
        lhs = support_function(X, v + w)
        rhs = support_function(X, v) + support_function(X, w)
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# dual_cone


def test_dual_of_orthant_is_orthant():
    C = PolyCone(generators=np.eye(2))
    assert cones_equal(dual_cone(C), C)


def test_dual_of_line_is_annihilator():
    C = PolyCone(generators=[[1.0, 0.0], [-1.0, 0.0]])
    expected = PolyCone(generators=[[0.0, 1.0], [0.0, -1.0]])
    assert cones_equal(dual_cone(C), expected)


def test_dual_of_quarter_turn_cone():
    # cone{(1,1),(1,-1)} is self-dual; oracle checks membership of each
    # direction on a circle grid against the defining inequalities.
    gens = np.array([[1.0, 1.0], [1.0, -1.0]])
    C = PolyCone(generators=gens)
    D = dual_cone(C)
    thetas = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    for th in thetas:
        v = np.array([np.cos(th), np.sin(th)])
        in_oracle = bool(np.all(gens @ v >= -1e-12))
        assert in_cone(D, v) == in_oracle


@pytest.mark.parametrize("normals, expected", [
    ([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
    ([[1.0, 0.0], [-1.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]]),
    ([[0.0, 2.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]),
    ([[1.0], [-1.0]], np.zeros((0, 1))),
], ids=["half-plane", "line", "repeated-half-plane", "origin"])
def test_generators_of_cones_with_a_one_dimensional_pointed_quotient(normals, expected):
    # after the lineality space splits off, one direction is left, and its
    # rays are the feasible ones of +-1
    gens = cone_generators(PolyCone(normals=normals))
    assert gens.shape == np.shape(expected)
    np.testing.assert_allclose(gens, expected, atol=1e-12)


def test_double_dual_random_cones():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        gens = rng.normal(size=(int(rng.integers(n, 2 * n + 2)), n))
        C = PolyCone(generators=gens)
        assert cones_equal(dual_cone(dual_cone(C)), C)


# ---------------------------------------------------------------------------
# recession_cone / lineality_space


def test_recession_half_plane():
    C = Polyhedron(normals=[[1.0, 0.0]], offsets=[1.0])
    R = recession_cone(C)
    assert in_cone(R, [1.0, 0.0]) and in_cone(R, [0.0, 1.0])
    assert in_cone(R, [0.0, -1.0]) and not in_cone(R, [-1.0, 0.0])


def test_recession_bounded_box_trivial():
    C = Polyhedron(normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                   offsets=[-1.0, -1.0, -1.0, -1.0])
    gens = cone_generators(recession_cone(C))
    assert gens.size == 0 or np.allclose(gens, 0.0)


def test_recession_shifted_wedge():
    # Ray-membership brute force: directions d with both <a_i, d> >= 0.
    C = Polyhedron(normals=[[1.0, 0.0], [1.0, 1.0]], offsets=[0.0, -3.0])
    R = recession_cone(C)
    thetas = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    for th in thetas:
        d = np.array([np.cos(th), np.sin(th)])
        oracle = d[0] >= -1e-12 and d[0] + d[1] >= -1e-12
        assert in_cone(R, d) == oracle


def test_lineality_slab():
    C = Polyhedron(normals=[[1.0, 0.0], [-1.0, 0.0]], offsets=[-1.0, -1.0])
    L = lineality_space(C)
    assert L.shape == (1, 2)
    assert abs(L[0] @ [1.0, 0.0]) < 1e-12 and abs(abs(L[0] @ [0.0, 1.0]) - 1.0) < 1e-12


def test_lineality_simplex_zero():
    C = Polyhedron(normals=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                   offsets=[0.0, 0.0, -1.0])
    assert lineality_space(C).shape[0] == 0


def test_lineality_single_constraint_r3():
    C = Polyhedron(normals=[[1.0, 0.0, 0.0]])
    L = lineality_space(C)
    assert L.shape == (2, 3)
    assert np.allclose(L @ np.array([1.0, 0.0, 0.0]), 0.0, atol=1e-12)
    # basis is orthonormal and spans the x2-x3 plane
    assert np.allclose(L @ L.T, np.eye(2), atol=1e-12)


def test_recession_of_empty_polyhedron_raises():
    empty = Polyhedron(normals=[[1.0], [-1.0]], offsets=[1.0, 1.0])
    assert empty.is_empty()
    with pytest.raises(ValueError):
        recession_cone(empty)


# ---------------------------------------------------------------------------
# bounded-below duality (polyhedral shadow)


def test_bounded_below_functionals_pair_with_recession():
    rng = np.random.default_rng(11)
    count = 0
    while count < 10:
        n = int(rng.integers(2, 5))
        poly = Polyhedron(normals=rng.normal(size=(n + 2, n)),
                          offsets=rng.normal(size=n + 2))
        if poly.is_empty():
            continue
        count += 1
        R = recession_cone(poly)
        gens = cone_generators(R)
        # any nonnegative combination of the constraint normals is bounded
        # below on the polyhedron, so it pairs >= 0 with every recession ray
        for _ in range(20):
            alpha = rng.uniform(size=poly.normals.shape[0]) @ poly.normals
            for g in gens:
                assert alpha @ g >= -1e-9


# ---------------------------------------------------------------------------
# has_interior_B surrogate


def test_interior_surrogate_circle_sample():
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    X = SampledSet(np.column_stack([np.cos(th), np.sin(th)]))
    assert has_interior_B(X) is True


def test_interior_surrogate_opposite_rays():
    pts = [[k, 0.0] for k in range(101)] + [[-k, 0.0] for k in range(101)]
    assert has_interior_B(SampledSet(pts)) is False


def test_interior_surrogate_single_point():
    assert has_interior_B(SampledSet([[3.0, -4.0]])) is True


# ---------------------------------------------------------------------------
# group_average


def test_average_of_symmetric_orbit():
    orbit = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    assert np.allclose(group_average(orbit), 0.0, atol=1e-15)


def test_average_of_singleton():
    assert np.allclose(group_average([[2.5, -1.0]]), [2.5, -1.0])


def test_average_of_rotation_orbit():
    th = 2 * np.pi * np.arange(360) / 360
    orbit = np.column_stack([2 * np.cos(th), 2 * np.sin(th)])
    assert np.linalg.norm(group_average(orbit)) < 1e-12


def test_average_of_orbit_stays_inside_invariant_polyhedron():
    # square |x1| <= 2, |x2| <= 2 is invariant under quarter turns
    square = Polyhedron(normals=[[1, 0], [-1, 0], [0, 1], [0, -1]],
                        offsets=[-2.0, -2.0, -2.0, -2.0])
    rng = np.random.default_rng(13)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    for _ in range(25):
        p = rng.uniform(-2.0, 2.0, size=2)
        orbit = [p]
        for _ in range(3):
            orbit.append(quarter @ orbit[-1])
        avg = group_average(orbit)
        margins = square.normals @ avg - square.offsets
        assert np.min(margins) >= -1e-9


# ---------------------------------------------------------------------------
# misc structure


def test_sampled_set_rejects_empty():
    with pytest.raises(ValueError):
        SampledSet(np.zeros((0, 2)))


def test_polycone_needs_a_representation():
    with pytest.raises(ValueError):
        PolyCone()


def test_cone_is_pointed_examples():
    assert cone_is_pointed(PolyCone(generators=np.eye(3)))
    assert not cone_is_pointed(PolyCone(generators=[[1.0, 0.0], [-1.0, 0.0]]))


# ---------------------------------------------------------------------------
# feasibility: emptiness, pointedness and membership on the NNLS kernel


def test_is_empty_on_a_clearly_feasible_and_a_clearly_empty_interval():
    assert Polyhedron([[1.0], [-1.0]], [1.0, -1.0]).is_empty() is False  # x = 1
    assert Polyhedron([[1.0], [-1.0]], [1.0, 1.0]).is_empty() is True    # x >= 1, x <= -1


def test_is_empty_decides_at_the_module_tolerance():
    # {x >= 1, x <= 1 - 1e-7} is empty by 100 TOL.  A solver that accepts a
    # 1e-7 violation calls it nonempty; the Farkas certificate has size 1e7,
    # whose rounding (5e-9) exceeds TOL, so neither witness checks.
    with pytest.raises(ArithmeticError):
        Polyhedron([[1.0], [-1.0]], [1.0, -1.0 + 1e-7]).is_empty()


def test_is_empty_raises_rather_than_trust_a_near_certificate():
    # NNLS returns a 1e11-sized near-certificate whose residual is far
    # above TOL, and the least-norm "point" it implies violates x <= 1 - 1e-11
    with pytest.raises(ArithmeticError):
        Polyhedron([[1.0], [-1.0]], [1.0, -1.0 + 1e-11]).is_empty()


def test_nnls_raises_rather_than_return_an_unconverged_solve(monkeypatch):
    # a least-squares step that always drives the entering column negative
    # makes the active set cycle until the 3 n cap
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda A, b, rcond=None: (-np.ones(A.shape[1]),))
    with pytest.raises(ArithmeticError, match="converge"):
        _nnls(np.eye(2), np.ones(2))


def test_polyhedron_without_constraints_is_nonempty():
    assert Polyhedron(np.zeros((0, 2))).is_empty() is False


@pytest.mark.parametrize("build", [
    lambda: PolyCone(generators=[[np.nan, 0.0], [1.0, 1.0]]),
    lambda: PolyCone(normals=[[np.inf, 0.0]]),
    lambda: Polyhedron([[1.0, 0.0]], [np.nan]),
    lambda: Polyhedron([[1.0, -np.inf]], [0.0]),
    lambda: SampledSet([[0.0, np.nan]]),
    lambda: in_cone(PolyCone(generators=np.eye(2)), [np.nan, 1.0]),
    lambda: in_cone(PolyCone(normals=np.eye(2)), [np.inf, 1.0]),
    lambda: support_function(SampledSet(np.eye(2)), [np.nan, 0.0]),
    lambda: support_function(SampledSet(np.eye(2)), [np.inf, 0.0]),
])
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("cone", [PolyCone(generators=np.eye(3)),
                                  PolyCone(normals=np.eye(3))])
@pytest.mark.parametrize("x", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]] * 2])
def test_in_cone_rejects_a_point_of_the_wrong_length(cone, x):
    with pytest.raises(ValueError, match="length 3"):
        in_cone(cone, x)


@pytest.mark.parametrize("v", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]] * 2])
def test_support_function_rejects_a_direction_of_the_wrong_length(v):
    with pytest.raises(ValueError, match="length 3"):
        support_function(SampledSet(np.eye(3)), v)


def _draw_rows(rng):
    """Random rows (a_i, b_i): dimension 1-8, 1-12 rows, and in three draws
    of four an extra row that is the opposite of another, a duplicate of
    another, or zero."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
    A, b = rng.normal(size=(m, n)), rng.normal(size=m)
    i = int(rng.integers(m))
    extra = [None, (-A[i], -b[i]), (A[i], b[i]), (np.zeros(n), 0.0)][int(rng.integers(4))]
    if extra is not None:
        A, b = np.vstack([A, extra[0]]), np.append(b, extra[1])
    return A, b


def test_feasibility_agrees_with_highs_and_scipy_nnls():
    # independent solvers: HiGHS's simplex for emptiness, and scipy's NNLS
    # on the convex-hull form of pointedness (not the Gordan form used here)
    # and for membership
    rng = np.random.default_rng(17)
    for _ in range(300):
        A, b = _draw_rows(rng)
        m, n = A.shape
        unit = np.eye(n + 1)[n]

        # emptiness: HiGHS's verdict, and the witness checked directly
        empty = Polyhedron(A, b).is_empty()
        lp = linprog(np.zeros(n), A_ub=-A, b_ub=-b, bounds=(None, None), method="highs")
        assert lp.status in (0, 2) and empty == (lp.status == 2)
        u, r = _nnls(np.vstack([A.T, b]), unit)
        if empty:
            assert np.all(u >= 0)
            assert np.linalg.norm(A.T @ u) <= TOL and abs(b @ u - 1.0) <= TOL
        else:
            x = -r[:n] / r[n]
            scale = np.max(np.abs(A) @ np.abs(x) + np.abs(b))
            assert np.min(A @ x - b) >= -TOL * max(1.0, scale)

        # pointedness, decided directly: is 0 a convex combination of the
        # normalized rows (scipy's NNLS for [G^T; 1^T] lam ~ e_{n+1})?
        G = A[np.linalg.norm(A, axis=1) > 0]
        G = G / np.linalg.norm(G, axis=1)[:, None]
        _, rnorm = nnls(np.vstack([G.T, np.ones(len(G))]), unit)
        assert cone_is_pointed(PolyCone(generators=A)) == (rnorm > TOL)

        # membership: half the points are nonnegative combinations of the rows
        x = A.T @ rng.uniform(size=m) if rng.random() < 0.5 else rng.normal(size=n)
        lam, r = _nnls(A.T, x)
        _, rnorm = nnls(A.T, x)
        assert np.all(lam >= 0) and np.allclose(r, A.T @ lam - x, atol=1e-12)
        assert abs(np.linalg.norm(r) - rnorm) <= 1e-9
        assert in_cone(PolyCone(generators=A), x) == (rnorm <= TOL * max(1.0, np.linalg.norm(x)))
