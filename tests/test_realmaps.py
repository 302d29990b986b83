"""The sp/o membership residuals and samplers are one body each, a function
of the exchange sign; an explicit copy of the separate symplectic and
orthogonal bodies they replaced is the reference.  The Pade matrix
exponential is checked against scipy's."""

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from virfock.realmaps import (
    PREDICATE_TOL,
    RealLinearMap,
    algebra_defect,
    bogoliubov_defect,
    expm,
    in_algebra,
    is_bogoliubov,
    random_algebra_element,
    random_skew_hermitian,
)


# -- reference: the bosonic and fermionic relations written out separately


def _ref_rel_err(M, target):
    return float(np.linalg.norm(M - target) / max(1.0, np.linalg.norm(target)))


def ref_symplectic_residual(g):
    G1, G2 = g.G1, g.G2
    I = np.eye(g.d)
    r = [
        _ref_rel_err(G1.conj().T @ G1 - G2.T @ np.conj(G2), I),
        _ref_rel_err(G1 @ G1.conj().T - G2 @ G2.conj().T, I),
        float(np.linalg.norm(G1.conj().T @ G2 - (G1.conj().T @ G2).T)),
        float(np.linalg.norm(G1 @ G2.T - (G1 @ G2.T).T)),
    ]
    return max(r)


def ref_orthogonal_residual(g):
    G1, G2 = g.G1, g.G2
    I = np.eye(g.d)
    r = [
        _ref_rel_err(G1.conj().T @ G1 + G2.T @ np.conj(G2), I),
        _ref_rel_err(G1 @ G1.conj().T + G2 @ G2.conj().T, I),
        float(np.linalg.norm(G1.conj().T @ G2 + (G1.conj().T @ G2).T)),
        float(np.linalg.norm(G1 @ G2.T + (G1 @ G2.T).T)),
    ]
    return max(r)


def ref_sp_residual(x):
    return max(float(np.linalg.norm(x.G1 + x.G1.conj().T)),
               float(np.linalg.norm(x.G2 - x.G2.T)))


def ref_o_residual(x):
    return max(float(np.linalg.norm(x.G1 + x.G1.conj().T)),
               float(np.linalg.norm(x.G2 + x.G2.T)))


def ref_in_algebra(defect, x):
    scale = max(1.0, x.linear_norm(), x.antilinear_norm())
    return defect(x) <= PREDICATE_TOL * scale


def ref_sp_sample(rng, d, scale=1.0):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return RealLinearMap(random_skew_hermitian(rng, d, scale),
                         scale * 0.5 * (z + z.T))


def ref_o_sample(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return RealLinearMap(random_skew_hermitian(rng, d), 0.5 * (z - z.T))


# -- samples


SIGN = {"bosonic": 1, "fermionic": -1}


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
        x = random_algebra_element(rng, d, SIGN[statistics])
        g = (0.3 * x).exp()
        x = x + 10.0 ** rng.uniform(*eps_range) * _noise(rng, d)
        g = g + 10.0 ** rng.uniform(*eps_range) * _noise(rng, d)
        out.append((x, g))
    return out


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_folded_residuals_are_bit_equal_to_the_separate_bodies(statistics):
    rng = np.random.default_rng(20091124)
    for x, g in _samples(statistics, rng, (-16, 0)):
        assert bogoliubov_defect(g, 1) == ref_symplectic_residual(g)
        assert bogoliubov_defect(g, -1) == ref_orthogonal_residual(g)
        assert algebra_defect(x, 1) == ref_sp_residual(x)
        assert algebra_defect(x, -1) == ref_o_residual(x)


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_membership_verdicts_match_the_separate_bodies_near_tolerance(statistics):
    rng = np.random.default_rng(12345)
    # noise around 1e-10 puts the residuals on both sides of PREDICATE_TOL
    samples = _samples(statistics, rng, (-12, -8))
    verdicts = []
    for x, g in samples:
        assert in_algebra(x, 1) == ref_in_algebra(ref_sp_residual, x)
        assert in_algebra(x, -1) == ref_in_algebra(ref_o_residual, x)
        assert is_bogoliubov(g, 1) == (ref_symplectic_residual(g) <= PREDICATE_TOL)
        assert is_bogoliubov(g, -1) == (ref_orthogonal_residual(g) <= PREDICATE_TOL)
        sign = SIGN[statistics]
        verdicts.append((in_algebra(x, sign), is_bogoliubov(g, sign)))
    # the samples really straddle the tolerance, for both predicates
    assert {v for v, _ in verdicts} == {True, False}
    assert {v for _, v in verdicts} == {True, False}


def test_random_algebra_element_draws_the_separate_samplers_numbers():
    # same generator state, same draws in the same order, bit-equal entries
    for seed in range(20):
        d = 1 + seed % 4
        for sign, ref in ((1, ref_sp_sample), (-1, ref_o_sample)):
            got = random_algebra_element(np.random.default_rng(seed), d, sign)
            want = ref(np.random.default_rng(seed), d)
            assert np.array_equal(got.G1, want.G1)
            assert np.array_equal(got.G2, want.G2)
        got = random_algebra_element(np.random.default_rng(seed), d, 1, 0.3)
        want = ref_sp_sample(np.random.default_rng(seed), d, 0.3)
        assert np.array_equal(got.G1, want.G1)
        assert np.array_equal(got.G2, want.G2)


# -- the matrix exponential


@pytest.mark.parametrize("sign", [1, -1])
def test_expm_matches_scipy_on_algebra_elements(sign):
    # the real pictures of random sp and o elements; from scale 1 on the
    # 1-norm passes theta_13 = 5.37, so the squaring branch runs, and its
    # rounding grows with the norm (up to 2^5 squarings at scale 10)
    rng = np.random.default_rng(41 if sign > 0 else 42)
    squared = 0
    for d in range(1, 6):
        for scale in (0.1, 0.3, 1.0, 3.0, 10.0):
            R = random_algebra_element(rng, d, sign, scale).to_real_matrix()
            norm = float(np.linalg.norm(R, 1))
            squared += norm > 5.371920351148152
            want = scipy_expm(R)
            got = expm(R)
            assert got.dtype == np.float64
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 5e-14 * max(1.0, norm)
    assert squared >= 10
