"""Support functions, dual and recession cones, lineality, averaging."""

import numpy as np
import pytest

from virfock.convexcore import (
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
