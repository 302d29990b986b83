"""The sp/o membership residuals share one body per relation; an explicit
copy of the two separate bodies they replaced is the reference."""

import numpy as np
import pytest

from virfock.realmaps import (
    PREDICATE_TOL,
    RealLinearMap,
    in_o,
    in_sp,
    is_orthogonal,
    is_symplectic,
    o_defect,
    orthogonal_defect,
    random_o_element,
    random_sp_element,
    sp_defect,
    symplectic_defect,
)


# -- reference: the bosonic and fermionic relations written out separately


def _ref_rel_err(M, target):
    return float(np.linalg.norm(M - target) / max(1.0, np.linalg.norm(target)))


def ref_symplectic_defect(g):
    G1, G2 = g.G1, g.G2
    I = np.eye(g.d)
    r = [
        _ref_rel_err(G1.conj().T @ G1 - G2.T @ np.conj(G2), I),
        _ref_rel_err(G1 @ G1.conj().T - G2 @ G2.conj().T, I),
        float(np.linalg.norm(G1.conj().T @ G2 - (G1.conj().T @ G2).T)),
        float(np.linalg.norm(G1 @ G2.T - (G1 @ G2.T).T)),
    ]
    return max(r)


def ref_orthogonal_defect(g):
    G1, G2 = g.G1, g.G2
    I = np.eye(g.d)
    r = [
        _ref_rel_err(G1.conj().T @ G1 + G2.T @ np.conj(G2), I),
        _ref_rel_err(G1 @ G1.conj().T + G2 @ G2.conj().T, I),
        float(np.linalg.norm(G1.conj().T @ G2 + (G1.conj().T @ G2).T)),
        float(np.linalg.norm(G1 @ G2.T + (G1 @ G2.T).T)),
    ]
    return max(r)


def ref_sp_defect(x):
    return max(float(np.linalg.norm(x.G1 + x.G1.conj().T)),
               float(np.linalg.norm(x.G2 - x.G2.T)))


def ref_o_defect(x):
    return max(float(np.linalg.norm(x.G1 + x.G1.conj().T)),
               float(np.linalg.norm(x.G2 + x.G2.T)))


def ref_in_algebra(defect, x, tol):
    scale = max(1.0, x.linear_norm(), x.antilinear_norm())
    return defect(x) <= tol * scale


# -- samples


RANDOM_ELEMENT = {"bosonic": random_sp_element, "fermionic": random_o_element}


def _noise(rng, d):
    def m():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return RealLinearMap(m(), m())


def _samples(statistics, rng, eps_range):
    """100 (algebra element, group element) pairs of the given statistics,
    each pushed off its manifold by noise of size 10^U(eps_range)."""
    out = []
    for _ in range(100):
        d = int(rng.integers(1, 5))
        x = RANDOM_ELEMENT[statistics](rng, d)
        g = (0.3 * x).exp()
        x = x + 10.0 ** rng.uniform(*eps_range) * _noise(rng, d)
        g = g + 10.0 ** rng.uniform(*eps_range) * _noise(rng, d)
        out.append((x, g))
    return out


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_folded_residuals_are_bit_equal_to_the_separate_bodies(statistics):
    rng = np.random.default_rng(20091124)
    for x, g in _samples(statistics, rng, (-16, 0)):
        assert symplectic_defect(g) == ref_symplectic_defect(g)
        assert orthogonal_defect(g) == ref_orthogonal_defect(g)
        assert sp_defect(x) == ref_sp_defect(x)
        assert o_defect(x) == ref_o_defect(x)


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_membership_verdicts_match_the_separate_bodies_near_tolerance(statistics):
    rng = np.random.default_rng(12345)
    # noise around 1e-10 puts the residuals on both sides of PREDICATE_TOL
    samples = _samples(statistics, rng, (-12, -8))
    verdicts = []
    for x, g in samples:
        for tol in (PREDICATE_TOL, 1e-8):
            assert in_sp(x, tol) == ref_in_algebra(ref_sp_defect, x, tol)
            assert in_o(x, tol) == ref_in_algebra(ref_o_defect, x, tol)
        assert in_sp(x) == ref_in_algebra(ref_sp_defect, x, PREDICATE_TOL)
        assert in_o(x) == ref_in_algebra(ref_o_defect, x, PREDICATE_TOL)
        assert is_symplectic(g) == (ref_symplectic_defect(g) <= PREDICATE_TOL)
        assert is_orthogonal(g) == (ref_orthogonal_defect(g) <= PREDICATE_TOL)
        own = in_sp(x) if statistics == "bosonic" else in_o(x)
        own_g = is_symplectic(g) if statistics == "bosonic" else is_orthogonal(g)
        verdicts.append((own, own_g))
    # the samples really straddle the tolerance, for both predicates
    assert {v for v, _ in verdicts} == {True, False}
    assert {v for _, v in verdicts} == {True, False}
