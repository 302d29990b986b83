"""CCR/CAR algebra, Weyl operators, Bogoliubov vacua, central terms."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm as scipy_expm

from virfock import fock
from virfock.fock import (
    BOSONIC,
    FERMIONIC,
    FockOperator,
    FockVector,
    ModeSpace,
    annihilate,
    central_term,
    central_term_trace,
    create,
    dgamma,
    hat_element,
    hat_pairing,
    heisenberg_mul,
    number_operator,
    quasifree_twist,
    rank_one_generator,
    second_quantize,
    truncated_vacuum_oracle,
    vacuum,
    vacuum_implementer,
    vacuum_residuals,
    weyl,
)
from virfock.realmaps import (
    RealLinearMap,
    bogoliubov_defect,
    expm,
    inner,
    omega,
    random_algebra_element,
    random_symplectic,
    random_unitary,
)
from virfock.suites import SuiteConfig, run_suite


def random_vec(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def _filtered_product_basis(d, stat, cutoff):
    """The occupation basis as the full product filtered by total number,
    sorted by (total, occupation)."""
    top = 1 if stat == FERMIONIC else cutoff
    occs = [occ for occ in itertools.product(range(top + 1), repeat=d)
            if sum(occ) <= cutoff]
    return tuple(sorted(occs, key=lambda occ: (sum(occ), occ)))


def _product_index(space):
    """Occupation tuple -> basis position, read off the product oracle."""
    occs = _filtered_product_basis(space.d, space.statistics, space.cutoff)
    return {occ: k for k, occ in enumerate(occs)}


def _basis_vector(space, occ):
    amps = np.zeros(space.dim, dtype=complex)
    amps[_product_index(space)[occ]] = 1.0
    return FockVector(space, amps)


# ---------------------------------------------------------------------------
# mode spaces


def test_bosonic_dimension_counts_occupations():
    sp = ModeSpace(2, BOSONIC, cutoff=3)
    # occupations (n1, n2) with n1 + n2 <= 3
    assert sp.dim == 10


def test_fermionic_cutoff_is_mode_count():
    sp = ModeSpace(3, FERMIONIC, cutoff=17)
    assert sp.cutoff == 3
    assert sp.dim == 8


@pytest.mark.parametrize("cutoff", [0, 1, 2])
def test_fermionic_cutoff_below_mode_count_is_rejected(cutoff):
    # the space is complete at cutoff d; a smaller one would drop states
    with pytest.raises(ValueError, match="cutoff >= d = 3"):
        ModeSpace(3, FERMIONIC, cutoff=cutoff)
    assert ModeSpace(3, FERMIONIC, cutoff=3) == ModeSpace(3, FERMIONIC)


@pytest.mark.parametrize("args, match", [
    ((1, BOSONIC, 2.5), "cutoff must be an integer"),
    ((1, BOSONIC, True), "cutoff must be an integer"),
    ((3, FERMIONIC, 3.5), "cutoff must be an integer"),
    ((2.0, BOSONIC, 3), "d must be an integer"),
    ((True, FERMIONIC), "d must be an integer"),
    ((0, BOSONIC, 3), "at least one mode"),
    ((2, "anyonic", 3), "statistics must be"),
    ((2, BOSONIC, None), "need a cutoff N >= 1"),
    ((2, BOSONIC, 0), "need a cutoff N >= 1"),
    # 595 states, but the occupation keys need 4^33 > 2^63
    ((33, BOSONIC, 2), r"int64 occupation keys need \(top \+ 2\)\^d <= 2\^63, got 4\^33"),
], ids=["float-cutoff", "bool-cutoff", "float-fermionic-cutoff", "float-d",
        "bool-d", "no-modes", "anyonic", "no-bosonic-cutoff", "zero-bosonic-cutoff",
        "int64-keys"])
def test_mode_space_rejects_malformed_arguments(args, match):
    with pytest.raises(ValueError, match=match):
        ModeSpace(*args)


def test_mode_space_accepts_numpy_integers():
    sp = ModeSpace(np.int64(2), BOSONIC, np.int32(3))
    assert sp == ModeSpace(2, BOSONIC, 3)


BASIS_SPACES = {str(d): [(d, BOSONIC, n) for n in range(1, 9)] + [(d, FERMIONIC, None)]
                for d in (1, 2, 3, 4)}
BASIS_SPACES.update({"10-fermionic": [(10, FERMIONIC, None)],
                     "12-fermionic": [(12, FERMIONIC, None)],
                     "5-bosonic-6": [(5, BOSONIC, 6)],
                     "2-bosonic-96": [(2, BOSONIC, 96)]})


@pytest.mark.parametrize("spaces", BASIS_SPACES.values(), ids=BASIS_SPACES.keys())
def test_basis_matches_the_filtered_product(spaces):
    for args in spaces:
        sp = ModeSpace(*args)
        want = np.array(_filtered_product_basis(sp.d, sp.statistics, sp.cutoff))
        assert sp.basis.dtype == sp.totals.dtype == np.int64
        assert np.array_equal(sp.basis, want)
        assert np.array_equal(sp.totals, want.sum(axis=1))
        assert sp.dim == len(want)


def test_basis_and_totals_are_read_only():
    # fock-central shares spaces through a cache, so no caller may edit one
    sp = ModeSpace(2, BOSONIC, cutoff=3)
    for a in (sp.basis, sp.totals):
        with pytest.raises(ValueError):
            a[0] = 1


LADDER_SPACES = [(1, BOSONIC, 6), (2, BOSONIC, 5), (3, BOSONIC, 4), (4, BOSONIC, 2),
                 (1, FERMIONIC, None), (3, FERMIONIC, None), (5, FERMIONIC, None)]


@pytest.mark.parametrize("d,stat,cutoff", LADDER_SPACES)
def test_ladder_tables_match_the_product_oracle(d, stat, cutoff):
    # a_i and a*_i move one occupation by one, with amplitude sqrt(n_i) or
    # sqrt(n_i + 1) for bosons and the Jordan-Wigner sign for fermions;
    # index dim means killed or pushed past the cutoff
    sp = ModeSpace(d, stat, cutoff)
    index = _product_index(sp)
    for letter, step in (("-", -1), ("+", 1)):
        target, amp = sp.ladders[letter]
        assert target.shape == amp.shape == (d, sp.dim + 1)
        assert np.all(target[:, -1] == sp.dim) and np.all(amp[:, -1] == 0.0)
        for occ, j in index.items():
            for i in range(d):
                moved = occ[:i] + (occ[i] + step,) + occ[i + 1:]
                if moved in index:
                    if stat == BOSONIC:
                        want = math.sqrt(max(occ[i], moved[i]))
                    else:
                        want = (-1.0) ** sum(occ[:i])
                    assert target[i, j] == index[moved]
                    assert amp[i, j] == want
                else:
                    assert target[i, j] == sp.dim and amp[i, j] == 0.0


def test_fock_central_builds_each_space_once(monkeypatch):
    # one pass draws 217 spaces over 9 distinct ones (a fermionic space is
    # the same at every cutoff >= d)
    built = []
    init = ModeSpace.__init__

    def counting_init(self, *args, **kwargs):
        built.append((args, kwargs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModeSpace, "__init__", counting_init)
    rep = run_suite(SuiteConfig("fock-central"))
    assert all(c.passed for c in rep.checks)
    assert len(built) <= 9


def test_vacuum_is_annihilated():
    rng = np.random.default_rng(50)
    for stat in (BOSONIC, FERMIONIC):
        sp = ModeSpace(2, stat, cutoff=4)
        assert (vacuum(sp) - _basis_vector(sp, (0, 0))).norm() == 0.0
        f = random_vec(rng, 2)
        assert annihilate(sp, f).apply(vacuum(sp)).norm() < 1e-14


# ---------------------------------------------------------------------------
# canonical (anti)commutation relations


def test_ccr_on_safe_subspace():
    rng = np.random.default_rng(51)
    sp = ModeSpace(3, BOSONIC, cutoff=12)
    for _ in range(5):
        f, g = random_vec(rng, 3), random_vec(rng, 3)
        comm = annihilate(sp, f).commutator(create(sp, g))
        defect = comm - complex(inner(g, f)) * comm.identity(sp)
        assert defect.restricted_norm(sp.cutoff - 2) < 1e-12
        assert annihilate(sp, f).commutator(annihilate(sp, g)).norm() < 1e-13


def test_car_exact():
    rng = np.random.default_rng(52)
    sp = ModeSpace(3, FERMIONIC, cutoff=3)
    for _ in range(5):
        f, g = random_vec(rng, 3), random_vec(rng, 3)
        anti = annihilate(sp, f).anticommutator(create(sp, g))
        defect = anti - complex(inner(g, f)) * anti.identity(sp)
        assert defect.norm() < 1e-13
        assert annihilate(sp, f).anticommutator(annihilate(sp, g)).norm() < 1e-13
        assert create(sp, f).anticommutator(create(sp, g)).norm() < 1e-13


def test_creation_is_adjoint_of_annihilation():
    rng = np.random.default_rng(53)
    for stat in (BOSONIC, FERMIONIC):
        sp = ModeSpace(2, stat, cutoff=5)
        f = random_vec(rng, 2)
        assert (create(sp, f).adjoint() - annihilate(sp, f)).norm() < 1e-13


def test_creation_raises_degree_by_one():
    sp = ModeSpace(2, BOSONIC, cutoff=6)
    v = _basis_vector(sp, (1, 2))
    w = create(sp, [1.0, 0.0]).apply(v)
    assert w.degree_norms()[4] > 0
    assert sum(w.degree_norms()[:4]) < 1e-15


def test_number_operator_counts():
    sp = ModeSpace(2, BOSONIC, cutoff=5)
    v = _basis_vector(sp, (2, 1))
    assert np.linalg.norm(number_operator(sp).apply(v).amps - 3.0 * v.amps) < 1e-14


# ---------------------------------------------------------------------------
# the ladder builders against an independent tensor-product oracle


def tensor_ladders(space):
    """Annihilators a_i on the full tensor product of single-mode spaces,
    plus the positions of space.basis in it.

    Bosonic modes keep occupations 0 .. N + 2, so no intermediate state of
    a word of length two falls off the tensor product; fermionic a_i is
    the Jordan-Wigner string sigma_z x .. x sigma_z x sigma_- x 1 x .. x 1.
    """
    if space.statistics == BOSONIC:
        levels = space.cutoff + 3
        lower = np.diag(np.sqrt(np.arange(1.0, levels)), k=1)
        string = np.eye(levels)
    else:
        levels = 2
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        string = np.diag([1.0, -1.0])
    ladders = []
    for i in range(space.d):
        full = np.ones((1, 1))
        for factor in [string] * i + [lower] + [np.eye(levels)] * (space.d - 1 - i):
            full = np.kron(full, factor)
        ladders.append(full)
    keep = np.ravel_multi_index(space.basis.T, (levels,) * space.d)
    return ladders, keep


def tensor_oracle(space, coeffs, word):
    """sum c[i..] L(i) .. formed in the tensor product, then restricted."""
    lowers, keep = tensor_ladders(space)
    letters = {"-": lowers, "+": [a.T for a in lowers]}
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for modes in itertools.product(range(space.d), repeat=len(word)):
        factors = [letters[ch][i] for ch, i in zip(word, modes)]
        factors[0] = factors[0][keep, :]
        factors[-1] = factors[-1][:, keep]
        out += coeffs[modes] * reduce(np.matmul, factors)
    return out


ORACLE_SPACES = ([(d, BOSONIC, n) for d in (1, 2, 3) for n in (3, 5)]
                 + [(d, FERMIONIC, None) for d in (1, 2, 3)])


@pytest.mark.parametrize("d,stat,cutoff", ORACLE_SPACES)
def test_builders_match_tensor_product_oracle(d, stat, cutoff):
    rng = np.random.default_rng(100 + 10 * d + (cutoff or 0))
    sp = ModeSpace(d, stat, cutoff)
    f = random_vec(rng, d)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = random_algebra_element(rng, d, sp.sign)
    pair = -0.5 if stat == BOSONIC else 0.5
    pairs = [
        (create(sp, f).mat, tensor_oracle(sp, f, "+")),
        (annihilate(sp, f).mat, tensor_oracle(sp, np.conj(f), "-")),
        (dgamma(sp, M).mat, tensor_oracle(sp, M, "+-")),
        (second_quantize(sp, x).mat,
         tensor_oracle(sp, x.G1, "+-") + pair * tensor_oracle(sp, x.G2, "++")
         + 0.5 * tensor_oracle(sp, np.conj(x.G2), "--")),
    ]
    for built, oracle in pairs:
        if stat == FERMIONIC:
            assert np.array_equal(built, oracle)
        else:
            assert np.max(np.abs(built - oracle)) <= 1e-14


def test_word_tables_are_cached_read_only():
    sp = ModeSpace(2, BOSONIC, cutoff=4)
    target, amp = sp.word_table("+-")
    assert target.shape == amp.shape == (sp.dim, sp.d ** 2)
    assert sp.word_table("+-")[0] is target
    for table in (target, amp):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def _coo_ladder_word(space, terms):
    """The same sum built from (row, column, value) triplets by scipy's
    COO route, chaining the single-letter tables per call."""
    dim = space.dim
    triplets = []
    for coeffs, word in terms:
        rows, amps = np.arange(dim), np.ones(dim)
        for letter in reversed(word):
            target, amp = space.ladders[letter]
            rows, amps = target[:, rows], amp[:, rows] * amps
        vals = np.asarray(coeffs, dtype=complex)[..., None] * amps
        cols = np.broadcast_to(np.arange(dim), rows.shape)
        keep = (rows < dim) & (vals != 0)
        triplets.append((vals[keep], rows[keep], cols[keep]))
    vals, rows, cols = (np.concatenate(part) for part in zip(*triplets))
    return sparse.csr_array((vals, (rows, cols)), shape=(dim, dim))


@pytest.mark.parametrize("d,stat,cutoff", ORACLE_SPACES)
def test_ladder_word_builds_are_canonical_and_repeatable(d, stat, cutoff):
    rng = np.random.default_rng(110 + 10 * d + (cutoff or 0))
    sp = ModeSpace(d, stat, cutoff)
    x = random_algebra_element(rng, d, sp.sign)
    T = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    pair = -0.5 if stat == BOSONIC else 0.5
    quadratic = [(x.G1, "+-"), (pair * x.G2, "++"),
                 (0.5 * np.conj(x.G2), "--"), (random_vec(rng, d), "-")]
    # a symmetric pair creator stores each entry twice before summing
    creator = [(-0.5 * (T + T.T), "++")]
    for terms in (quadratic, creator, creator + quadratic):
        first = fock._ladder_word(sp, terms)
        second = fock._ladder_word(sp, terms)
        # row-major, each position once, no stored zero
        assert np.all(np.diff(first.rows * sp.dim + first.cols) > 0)
        assert first.vals.dtype == np.complex128 and np.all(first.vals != 0)
        for part in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(second, part), getattr(first, part))
        # the COO route sorts each row with an unstable sort, so where three
        # or more entries meet it may sum them in another order; it keeps
        # the exact zeros of the fermionic pair creator of a symmetric T
        reference = _coo_ladder_word(sp, terms)
        reference.eliminate_zeros()
        assert np.array_equal(reference.indices, first.cols)
        assert np.array_equal(reference.indptr,
                              np.searchsorted(first.rows, np.arange(sp.dim + 1)))
        scale = np.max(np.abs(first.vals), initial=0.0)
        assert np.max(np.abs(reference.data - first.vals),
                      initial=0.0) <= 1e-15 * scale


@pytest.mark.parametrize("d,stat,cutoff", ORACLE_SPACES)
def test_quadratics_match_products_of_creators_and_annihilators(d, stat, cutoff):
    rng = np.random.default_rng(120 + 10 * d + (cutoff or 0))
    sp = ModeSpace(d, stat, cutoff)
    up = [create(sp, e).mat for e in np.eye(d)]
    down = [annihilate(sp, e).mat for e in np.eye(d)]
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = random_algebra_element(rng, d, sp.sign)
    pair = -0.5 if stat == BOSONIC else 0.5
    gamma = np.zeros((sp.dim, sp.dim), dtype=complex)
    dpi = np.zeros((sp.dim, sp.dim), dtype=complex)
    for i, j in itertools.product(range(d), repeat=2):
        gamma += M[i, j] * (up[i] @ down[j])
        dpi += x.G1[i, j] * (up[i] @ down[j]) \
            + pair * x.G2[i, j] * (up[i] @ up[j]) \
            + 0.5 * np.conj(x.G2[i, j]) * (down[i] @ down[j])
    assert np.max(np.abs(dgamma(sp, M).mat - gamma)) <= 1e-14 * np.abs(M).sum()
    scale = np.abs(x.G1).sum() + np.abs(x.G2).sum()
    assert np.max(np.abs(second_quantize(sp, x).mat - dpi)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# operator products


def _ladder_polynomials(rng, sp):
    f, g, h = (random_vec(rng, sp.d) for _ in range(3))
    M = rng.normal(size=(sp.d, sp.d)) + 1j * rng.normal(size=(sp.d, sp.d))
    A = annihilate(sp, f) + create(sp, g) + dgamma(sp, M)
    B = create(sp, h) - 0.5 * number_operator(sp) + annihilate(sp, g)
    return A, B


def _weyl_pair(rng, sp):
    return (weyl(sp, 0.5 * random_vec(rng, 1)),
            weyl(sp, 0.5 * random_vec(rng, 1)))


PRODUCT_CASES = [
    (ModeSpace(3, BOSONIC, cutoff=6), _ladder_polynomials),
    (ModeSpace(2, BOSONIC, cutoff=24), _ladder_polynomials),
    (ModeSpace(3, BOSONIC, cutoff=16), _ladder_polynomials),
    (ModeSpace(4, FERMIONIC), _ladder_polynomials),
    (ModeSpace(1, BOSONIC, cutoff=32), _weyl_pair),
    (ModeSpace(1, BOSONIC, cutoff=200), _weyl_pair),
]


@pytest.mark.parametrize("sp,operands", PRODUCT_CASES,
                         ids=["b3-6", "b2-24", "b3-16", "f4", "weyl-32",
                              "weyl-200"])
def test_products_match_the_dense_matrix_product(sp, operands):
    A, B = operands(np.random.default_rng(71), sp)
    AB, BA = A.mat @ B.mat, B.mat @ A.mat
    scale = 1e-13 * A.norm() * B.norm()
    for got, want in [(A.compose(B), AB),
                      (A.commutator(B), AB - BA),
                      (A.anticommutator(B), AB + BA)]:
        assert got.vals.dtype == np.complex128
        assert np.all(np.diff(got.rows * sp.dim + got.cols) > 0)
        # perfbench/tracer.py reads .mat.nbytes and np.count_nonzero(.mat)
        assert type(got.mat) is np.ndarray
        assert got.mat.dtype == np.complex128
        assert got.mat.shape == (sp.dim, sp.dim)
        assert np.linalg.norm(got.mat - want) <= scale


@pytest.mark.parametrize("sp,operands", PRODUCT_CASES,
                         ids=["b3-6", "b2-24", "b3-16", "f4", "weyl-32",
                              "weyl-200"])
def test_products_expand_no_more_entries_than_the_dense_result(sp, operands,
                                                               monkeypatch):
    # two dense Weyl operators would make dim^3 partial products, and the
    # ladder polynomials of the 16-dimensional f4 space more than dim^2;
    # compose takes the dense product there, and expands the others
    A, B = operands(np.random.default_rng(71), sp)
    summed = []

    def recording(space, rows, cols, vals):
        summed.append(vals.size)
        return real_summed(space, rows, cols, vals)

    real_summed = fock._summed
    monkeypatch.setattr(fock, "_summed", recording)
    A.compose(B)
    assert all(n <= sp.dim ** 2 for n in summed)
    # the count, read off the operands: each entry (i, k) of A meets row k of B
    pairs = int(np.bincount(B.rows, minlength=sp.dim)[A.cols].sum())
    assert (summed == []) == (pairs > sp.dim ** 2)
    if operands is _weyl_pair:
        assert pairs > sp.dim ** 2


def _stored_bytes(op):
    return op.rows.nbytes + op.cols.nbytes + op.vals.nbytes


def test_ladder_operators_stay_small_on_a_large_space():
    # d=3, N=20: dim 1771, so one dense matrix would take 50 MB
    rng = np.random.default_rng(73)
    sp = ModeSpace(3, BOSONIC, cutoff=20)
    assert sp.dim == 1771
    f, g = random_vec(rng, 3), random_vec(rng, 3)
    ops = [create(sp, f),
           second_quantize(sp, random_algebra_element(rng, 3, sp.sign)),
           annihilate(sp, f).commutator(create(sp, g))]
    for op in ops:
        assert _stored_bytes(op) < 1_000_000


@pytest.mark.parametrize("sp", [ModeSpace(3, BOSONIC, cutoff=16),
                                ModeSpace(2, BOSONIC, cutoff=32),
                                ModeSpace(1, BOSONIC, cutoff=80),
                                ModeSpace(3, BOSONIC, cutoff=6),
                                ModeSpace(4, FERMIONIC)],
                         ids=["b3-16", "b2-32", "b1-80", "b3-6", "f4"])
def test_restricted_norm_is_the_norm_of_the_kept_block(sp):
    rng = np.random.default_rng(72)
    op = FockOperator.from_dense(sp, rng.normal(size=(sp.dim, sp.dim))
                                 + 1j * rng.normal(size=(sp.dim, sp.dim)))
    for m in range(-1, sp.cutoff + 2):
        keep = sp.totals <= m
        want = float(np.linalg.norm(op.mat[np.ix_(keep, keep)]))
        assert op.restricted_norm(m) == want
    if sp.statistics == FERMIONIC:
        # the complete fermionic space keeps every state at its cutoff
        assert op.restricted_norm(sp.cutoff) == op.norm()


# ---------------------------------------------------------------------------
# Weyl operators and the Heisenberg product


@pytest.mark.parametrize("norm_sq", [1.0, 2.0, 4.0])
def test_weyl_vacuum_coefficient(norm_sq):
    sp = ModeSpace(1, BOSONIC, cutoff=32)
    f = np.array([math.sqrt(norm_sq)], dtype=complex)
    W = weyl(sp, f)
    val = W.apply(vacuum(sp)).inner(vacuum(sp))
    assert abs(val - math.exp(-norm_sq / 4.0)) < 1e-6


@pytest.mark.parametrize("cutoff", [8, 32, 80, 200])
def test_expm_matches_scipy_on_weyl_generators(cutoff):
    # the matrix weyl exponentiates, at 1-norms from 4 to 71 here, so
    # every cutoff runs the squaring branch (theta_13 = 5.37)
    rng = np.random.default_rng(cutoff)
    sp = ModeSpace(1, BOSONIC, cutoff=cutoff)
    for size in (0.5, 1.0, 2.0):
        f = size * random_vec(rng, 1)
        G = (1j / math.sqrt(2.0)) * (annihilate(sp, f) + create(sp, f)).mat
        want = scipy_expm(G)
        got = expm(G)
        assert got.dtype == np.complex128
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_weyl_relation_with_central_phase():
    # the composed displacement is about 1, so truncation error on the
    # low-degree block sits far below the tolerance at cutoff 32
    rng = np.random.default_rng(54)
    sp = ModeSpace(1, BOSONIC, cutoff=32)
    f1 = 0.5 * random_vec(rng, 1)
    f2 = 0.5 * random_vec(rng, 1)
    lhs = weyl(sp, f1).compose(weyl(sp, f2))
    phase = complex(np.exp(0.5j * omega(f1, f2)))
    rhs = phase * weyl(sp, f1 + f2)
    assert (lhs - rhs).restricted_norm(8) < 1e-8


def test_heisenberg_product_and_inverse():
    rng = np.random.default_rng(55)
    a = (0.3, random_vec(rng, 2))
    b = (-0.1, random_vec(rng, 2))
    c = (0.7, random_vec(rng, 2))
    ab_c = heisenberg_mul(heisenberg_mul(a, b), c)
    a_bc = heisenberg_mul(a, heisenberg_mul(b, c))
    assert abs(ab_c[0] - a_bc[0]) < 1e-12
    assert np.linalg.norm(ab_c[1] - a_bc[1]) < 1e-12
    t, v = heisenberg_mul(a, (-a[0], -a[1]))
    assert abs(t) < 1e-14 and np.linalg.norm(v) < 1e-14


def test_heisenberg_central_example():
    e1 = np.array([1.0, 0.0])
    t, v = heisenberg_mul((0.0, e1), (0.0, 1j * e1))
    assert t == pytest.approx(-0.5, abs=1e-15)
    assert np.linalg.norm(v - (1 + 1j) * e1) < 1e-15


# ---------------------------------------------------------------------------
# Bogoliubov vacua


def squeeze_map(r):
    return RealLinearMap(np.array([[math.cosh(r)]]),
                         np.array([[math.sinh(r)]]))


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_squeeze_vacuum_matches_linear_solve_oracle(r):
    sp = ModeSpace(1, BOSONIC, cutoff=40)
    g = squeeze_map(r)
    c, F = vacuum_implementer(sp, g)
    c_oracle, F_oracle = truncated_vacuum_oracle(sp, g)
    assert abs(c - c_oracle) < 1e-6
    assert (F - F_oracle).norm() < 1e-6


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_squeeze_vacuum_overlap_closed_form(r):
    sp = ModeSpace(1, BOSONIC, cutoff=40)
    c, F = vacuum_implementer(sp, squeeze_map(r))
    assert abs(c - 1.0 / math.sqrt(math.cosh(r))) < 1e-6
    odd = F.degree_norms()[1::2]
    assert np.max(odd) < 1e-14


@pytest.mark.parametrize("d, stat, cutoff", [(1, BOSONIC, 80), (2, BOSONIC, 12),
                                             (3, BOSONIC, 6), (4, FERMIONIC, 4)])
def test_degree_norms_match_the_masked_norm_of_each_degree(d, stat, cutoff):
    rng = np.random.default_rng(37)
    sp = ModeSpace(d, stat, cutoff)
    g = (0.2 * random_algebra_element(rng, d, sp.sign)).exp()
    _, F = vacuum_implementer(sp, g)
    noise = FockVector(sp, rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim))
    for v in (F, noise):
        want = np.array([np.linalg.norm(v.amps[sp.totals == n])
                         for n in range(cutoff + 1)])
        got = v.degree_norms()
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        # one state per degree: both sum the same single square
        assert d > 1 or np.array_equal(got, want)
    # the series vacuum has no odd component at all
    assert not F.degree_norms()[1::2].any()


@pytest.mark.parametrize("N", [8, 40, 80])
@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_squeeze_vacuum_matches_closed_form_amplitudes(N, r):
    # e^{-T-hat} Omega with T = tanh r has F_2n / F_0 =
    # (-tanh(r)/2)^n sqrt((2n)!) / n!, with no truncation error for 2n <= N
    sp = ModeSpace(1, BOSONIC, cutoff=N)
    _, F = vacuum_implementer(sp, squeeze_map(r))
    index = _product_index(sp)
    for n in range(N // 2 + 1):
        want = (-math.tanh(r) / 2) ** n * math.sqrt(math.factorial(2 * n)) \
            / math.factorial(n)
        got = F.amps[index[(2 * n,)]] / F.amps[index[(0,)]]
        assert abs(got - want) <= 1e-12 * abs(want)


def test_squeeze_residual_decreases_geometrically():
    g = squeeze_map(math.atanh(0.5))
    residuals = []
    for n in (8, 16, 24, 32):
        sp = ModeSpace(1, BOSONIC, cutoff=n)
        _, F = vacuum_implementer(sp, g)
        residuals.append(float(np.max(vacuum_residuals(sp, g, F))))
    assert all(b <= 0.5 * a for a, b in zip(residuals, residuals[1:]))


def _dense_vacuum_residuals(roomy, g, F):
    """||(a(e_i) + a*(T e_i)) F|| from the dense matrices on ``roomy``, whose
    first F.space.dim basis states are those of F's space."""
    T = fock.twist_matrix(g)
    return np.array([np.linalg.norm((annihilate(roomy, e) + create(roomy, T @ e))
                                    .mat[:, :F.space.dim] @ F.amps)
                     for e in np.eye(g.d)])


def test_fermionic_vacuum_residuals_reuse_the_space(monkeypatch):
    # a complete fermionic space is its own roomy space: no space is built,
    # and the residuals equal those on a freshly built copy
    rng = np.random.default_rng(66)
    sp = ModeSpace(6, FERMIONIC)
    g = (0.3 * random_algebra_element(rng, 6, sp.sign)).exp()
    _, F = vacuum_implementer(sp, g)
    fresh = ModeSpace(6, FERMIONIC, sp.cutoff + 2)
    want = _dense_vacuum_residuals(fresh, g, F)
    built = []
    init = ModeSpace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModeSpace, "__init__", counting_init)
    assert np.max(np.abs(vacuum_residuals(sp, g, F) - want)) <= 1e-14
    assert built == []
    # a bosonic space still gets its roomy copy two levels up
    bs = ModeSpace(1, BOSONIC, cutoff=8)
    g = squeeze_map(0.5)
    _, F = vacuum_implementer(bs, g)
    built.clear()
    vacuum_residuals(bs, g, F)
    assert built == [(1, BOSONIC, 10)]


def test_unitary_implements_bare_vacuum():
    rng = np.random.default_rng(56)
    sp = ModeSpace(1, BOSONIC, cutoff=8)
    u = RealLinearMap.from_linear(random_unitary(rng, 1))
    c, F = vacuum_implementer(sp, u)
    assert abs(c - 1.0) < 1e-12
    assert (F - vacuum(sp)).norm() < 1e-12


def test_two_mode_vacuum_residual():
    rng = np.random.default_rng(57)
    g = random_symplectic(rng, 2, scale=0.1)
    sp = ModeSpace(2, BOSONIC, cutoff=32)
    _, F = vacuum_implementer(sp, g)
    assert float(np.max(vacuum_residuals(sp, g, F))) < 1e-6


def test_vacuum_implementer_rejects_large_twist():
    bad = RealLinearMap(np.eye(1), 2.0 * np.eye(1))
    with pytest.raises(ValueError):
        vacuum_implementer(ModeSpace(1, BOSONIC, 8), bad)


def test_vacuum_implementer_rejects_nonsymmetric_twist():
    # T(g) = G2 here, small enough for the series but not symmetric
    bad = RealLinearMap(np.eye(2), np.array([[0.0, 0.3], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        vacuum_implementer(ModeSpace(2, BOSONIC, 8), bad)


def test_spin_vacuum_matches_closed_form_and_oracle():
    # the same series on a fermionic space stops at n = d/2 and is exact;
    # its overlap is det(1 + T*T)^{-1/4} (Shale-Stinespring), and no
    # ||T|| < 1 guard applies
    rng = np.random.default_rng(20091124)
    twist_norms = []
    for d in (2, 3, 4, 5, 6, 8, 10):
        sp = ModeSpace(d, FERMIONIC)
        g = (0.3 * random_algebra_element(rng, d, sp.sign)).exp()
        T = fock.twist_matrix(g)
        twist_norms.append(float(np.linalg.norm(T)))
        c, F = vacuum_implementer(sp, g)
        assert float(np.max(vacuum_residuals(sp, g, F))) <= 1e-14
        overlap = np.linalg.det(np.eye(d) + T.conj().T @ T).real ** -0.25
        assert abs(c - overlap) <= 1e-14
        if d <= 6:
            c_oracle, F_oracle = truncated_vacuum_oracle(sp, g)
            assert abs(c - c_oracle) <= 1e-12
            assert (F - F_oracle).norm() <= 1e-12
    assert max(twist_norms) > 1.0
    sp = ModeSpace(4, FERMIONIC)
    u = RealLinearMap.from_linear(random_unitary(rng, 4))
    c, F = vacuum_implementer(sp, u)
    assert abs(c - 1.0) < 1e-12
    assert (F - vacuum(sp)).norm() < 1e-12


def _paired_spin_rotation(d, t):
    # g = exp(t x) with x antilinear, +-1 on the pairs (0, 1), (2, 3), ...:
    # g_1 is cos(t) on every mode and g_2 is +-sin(t) on the pairs
    X2 = np.zeros((d, d))
    for k in range(0, d, 2):
        X2[k, k + 1], X2[k + 1, k] = 1.0, -1.0
    return (t * RealLinearMap.from_antilinear(X2)).exp()


def test_spin_vacuum_of_a_small_but_well_conditioned_linear_part():
    # |det g_1| = 9.7e-14 at d = 10 while cond(g_1) = 1, and the vacuum is
    # as accurate as at any other t
    d = 10
    g = _paired_spin_rotation(d, math.pi / 2 - 0.05)
    sp = ModeSpace(d, FERMIONIC)
    assert bogoliubov_defect(g, sp.sign) <= 1e-15
    assert abs(np.linalg.det(g.G1)) < 1e-12
    T = fock.twist_matrix(g)
    c, F = vacuum_implementer(sp, g)
    overlap = np.linalg.det(np.eye(d) + T.conj().T @ T).real ** -0.25
    assert abs(c - overlap) <= 1e-14 * overlap
    assert float(np.max(vacuum_residuals(sp, g, F))) <= 1e-14


def test_vacuum_implementer_rejects_a_singular_linear_part():
    bad = RealLinearMap(np.diag([1.0, 1e-13]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="linear part g_1 is singular"):
        vacuum_implementer(ModeSpace(2, BOSONIC, 8), bad)
    # at t = pi/2, g_1 is rounding of order 1e-16 with cond(g_1) = 2, while
    # ||g_2|| = 1: singular against the scale of g, not of g_1 alone
    with pytest.raises(ValueError, match="linear part g_1 is singular"):
        vacuum_implementer(ModeSpace(10, FERMIONIC),
                           _paired_spin_rotation(10, math.pi / 2))


# ---------------------------------------------------------------------------
# central terms of the metaplectic / spin cocycle


def test_central_term_matches_trace_formula():
    rng = np.random.default_rng(58)
    for stat in (BOSONIC, FERMIONIC):
        sp = ModeSpace(2, stat, cutoff=6 if stat == BOSONIC else 2)
        for _ in range(25):
            x, y = (random_algebra_element(rng, 2, sp.sign) for _ in range(2))
            got = central_term(sp, x, y)
            want = central_term_trace(sp, x, y)
            assert abs(got - want) < 1e-8


def test_central_term_matches_the_vacuum_entry_of_the_commutator():
    # the route central_term replaced: two operator products, one entry read
    rng = np.random.default_rng(63)
    for stat in (BOSONIC, FERMIONIC):
        sp = ModeSpace(3, stat, cutoff=6)
        for _ in range(10):
            x, y = (random_algebra_element(rng, 3, sp.sign) for _ in range(2))
            A, B = second_quantize(sp, x), second_quantize(sp, y)
            C = A.compose(B) - B.compose(A) - second_quantize(sp, x.commutator(y))
            want = (complex(C.mat[0, 0]) / 1j).real
            assert abs(central_term(sp, x, y) - want) < 1e-14


@pytest.mark.parametrize("stat,cutoff", [(BOSONIC, 2), (BOSONIC, 4),
                                         (BOSONIC, 6), (FERMIONIC, None)])
def test_vacuum_expectation_of_a_quadratic_is_exactly_zero(stat, cutoff):
    # why central_term never builds dpi([x, y]): its vacuum entry is 0.0
    rng = np.random.default_rng(64)
    for d in (1, 2, 3):
        sp = ModeSpace(d, stat, cutoff=cutoff)
        vac = vacuum(sp)
        for _ in range(5):
            z = random_algebra_element(rng, d, sp.sign)
            assert second_quantize(sp, z).apply(vac).inner(vac) == 0.0


def test_central_term_antisymmetric():
    rng = np.random.default_rng(59)
    sp = ModeSpace(2, BOSONIC, cutoff=6)
    for _ in range(10):
        x, y = (random_algebra_element(rng, 2, sp.sign) for _ in range(2))
        assert abs(central_term(sp, x, y) + central_term(sp, y, x)) < 1e-10


def test_central_term_is_lie_cocycle():
    rng = np.random.default_rng(60)
    sp = ModeSpace(2, BOSONIC, cutoff=6)
    for _ in range(10):
        x, y, z = (random_algebra_element(rng, 2, sp.sign) for _ in range(3))
        val = (central_term(sp, x.commutator(y), z)
               + central_term(sp, y.commutator(z), x)
               + central_term(sp, z.commutator(x), y))
        assert abs(val) < 1e-8


def test_central_term_vanishes_on_complex_linear_pairs():
    rng = np.random.default_rng(61)
    sp = ModeSpace(2, BOSONIC, cutoff=6)
    for _ in range(5):
        x = RealLinearMap.from_linear(0.5 * (lambda z: z - z.conj().T)(
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
        y = RealLinearMap.from_linear(0.5 * (lambda z: z - z.conj().T)(
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
        assert abs(central_term(sp, x, y)) < 1e-12


def test_rank_one_generator_central_term():
    rng = np.random.default_rng(62)
    sp = ModeSpace(3, FERMIONIC, cutoff=3)
    v, w = random_vec(rng, 3), random_vec(rng, 3)
    x = rank_one_generator(v, w)
    y = rank_one_generator(w, v)
    assert abs(central_term(sp, x, y) - central_term_trace(sp, x, y)) < 1e-12


# ---------------------------------------------------------------------------
# hat elements


@pytest.mark.parametrize("stat,d", [(BOSONIC, 2), (BOSONIC, 4),
                                    (FERMIONIC, 3), (FERMIONIC, 4)])
def test_hat_norm_identity(stat, d):
    rng = np.random.default_rng(63)
    sp = ModeSpace(d, stat, cutoff=4)
    for _ in range(25):
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = M + M.T if stat == BOSONIC else M - M.T
        Ahat = hat_element(sp, M)
        assert abs(Ahat.norm() ** 2 - 0.5 * np.linalg.norm(M) ** 2) < 1e-10


@pytest.mark.parametrize("stat,d", [(BOSONIC, 3), (FERMIONIC, 4)])
def test_hat_pairing_half_trace(stat, d):
    rng = np.random.default_rng(64)
    sp = ModeSpace(d, stat, cutoff=4)
    sign = 1.0 if stat == BOSONIC else -1.0
    for _ in range(25):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = A + A.T if stat == BOSONIC else A - A.T
        B = B + B.T if stat == BOSONIC else B - B.T
        got = hat_pairing(sp, A, B)
        want = sign * 0.5 * np.trace(A @ np.conj(B))
        assert abs(got - want) < 1e-10


@pytest.mark.parametrize("stat,d", [(BOSONIC, 2), (FERMIONIC, 3),
                                    (FERMIONIC, 4)])
def test_second_quantized_antilinear_part_hits_vacuum_as_hat(stat, d):
    # dpi of a purely antilinear generator sends the vacuum to minus the
    # hat vector of its coefficient matrix
    rng = np.random.default_rng(65)
    sp = ModeSpace(d, stat, cutoff=6)
    x = random_algebra_element(rng, d, sp.sign)
    x2 = RealLinearMap(np.zeros((d, d)), x.G2)
    out = second_quantize(sp, x2).apply(vacuum(sp))
    assert (out + hat_element(sp, x.G2)).norm() < 1e-12


@pytest.mark.parametrize("stat", [BOSONIC, FERMIONIC])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hat_element_sits_on_the_product_oracle_pairs(d, stat):
    # M_ji on |e_i + e_j> for i < j and, bosonic, M_ii / sqrt(2) on |2 e_i>
    rng = np.random.default_rng(69 + d)
    sp = ModeSpace(d, stat, cutoff=3 if stat == BOSONIC else None)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = M + sp.sign * M.T
    want = np.zeros(sp.dim, dtype=complex)
    index, unit = _product_index(sp), np.eye(d, dtype=int)
    for i, j in itertools.combinations_with_replacement(range(d), 2):
        if i < j or stat == BOSONIC:
            pair = tuple((unit[i] + unit[j]).tolist())
            want[index[pair]] = M[j, i] / math.sqrt(2.0) if i == j else M[j, i]
    assert np.array_equal(hat_element(sp, M).amps, want)


def test_fermionic_hat_element_rejects_a_non_antisymmetric_matrix():
    sp = ModeSpace(2, FERMIONIC)
    with pytest.raises(ValueError, match="antisymmetric"):
        hat_element(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_one_mode_fermionic_hat_element_is_zero():
    # cutoff 1 holds no degree-2 state; the cutoff >= 2 check is bosonic only
    sp = ModeSpace(1, FERMIONIC)
    assert sp.cutoff == 1
    out = hat_element(sp, np.zeros((1, 1)))
    assert np.array_equal(out.amps, np.zeros(sp.dim))


@pytest.mark.parametrize("stat,algebra", [(BOSONIC, "sp"), (FERMIONIC, "o")])
def test_second_quantize_rejects_an_element_of_the_other_algebra(stat, algebra):
    rng = np.random.default_rng(68)
    sp = ModeSpace(2, stat, cutoff=4)
    with pytest.raises(ValueError, match=f"not in {algebra}:"):
        second_quantize(sp, random_algebra_element(rng, 2, -sp.sign))


def test_exchange_sign():
    assert ModeSpace(2, BOSONIC, 4).sign == 1
    assert ModeSpace(2, FERMIONIC).sign == -1


# ---------------------------------------------------------------------------
# quasi-free CAR twists


def test_quasifree_twist_satisfies_car():
    rng = np.random.default_rng(66)
    d = 3
    sp = ModeSpace(d, FERMIONIC, cutoff=d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    mask = np.array([1.0, 0.0, 1.0])
    P = (q * mask) @ q.T
    gamma = (q * np.array([1.0, -1.0, 1.0])) @ q.T
    for _ in range(5):
        f, g = random_vec(rng, d), random_vec(rng, d)
        aPf = quasifree_twist(sp, P, gamma, f)
        aPg = quasifree_twist(sp, P, gamma, g)
        anti = aPf.anticommutator(aPg.adjoint())
        defect = anti - complex(inner(g, f)) * anti.identity(sp)
        assert defect.norm() < 1e-13
        assert aPf.anticommutator(aPg).norm() < 1e-13


def test_quasifree_twist_rejects_noncommuting_pair():
    sp = ModeSpace(2, FERMIONIC, cutoff=2)
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        quasifree_twist(sp, P, gamma, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# the roomy space of the vacuum residuals, and the cutoff


def test_vacuum_residuals_read_F_as_a_prefix_of_the_roomy_space():
    # the space two levels up lists the states of F's space first, so the
    # residuals are the dense conditions there applied to F's amplitudes
    rng = np.random.default_rng(67)
    sp = ModeSpace(2, BOSONIC, cutoff=4)
    roomy = ModeSpace(2, BOSONIC, cutoff=6)
    assert np.array_equal(roomy.basis[:sp.dim], sp.basis)
    g = (0.3 * random_algebra_element(rng, 2, sp.sign)).exp()
    amps = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
    F = FockVector(sp, amps / np.linalg.norm(amps))
    want = _dense_vacuum_residuals(roomy, g, F)
    assert np.max(np.abs(vacuum_residuals(sp, g, F) - want)) <= 1e-13 * np.max(want)
    with pytest.raises(ValueError, match="mode spaces do not match"):
        vacuum_residuals(roomy, g, F)


def test_create_records_leak_at_cutoff():
    sp = ModeSpace(1, BOSONIC, cutoff=3)
    op = create(sp, [1.0])
    assert op.apply(_basis_vector(sp, (3,))).norm() < 1e-14
