"""Truncated bosonic and fermionic Fock spaces over C^d.

Occupation basis states are unit vectors: bosonic |n_1..n_d> with
a*(e_i)|..n_i..> = sqrt(n_i + 1)|..n_i + 1..> and total particle number
capped at the cutoff N; fermionic states are subsets of modes with
Jordan-Wigner signs from the ordered wedge.  The bridge to unnormalized
symmetric tensors is the isometry e_i^{v n}/sqrt(n!) <-> |n>, which is
what makes ||e_1 v e_1|| = sqrt(2) come out right.

Inner products are linear in the FIRST argument.  Smearing follows the
same convention: a(f) = sum_i conj(f_i) a_i is antilinear in f while
a*(f) = sum_i f_i a*_i is linear, so [a(f), a*(g)] = <g, f> on the safe
subspace (total number <= N - 2) and {a(f), a*(g)} = <g, f> exactly.

Truncation policy: operations that would push amplitude above the
cutoff drop it without a record.  The truncation error actually
incurred is measured where it matters, by `vacuum_residuals`, which
applies the annihilation conditions on a space two levels higher.  The
CAR side is exact because the fermionic space is complete at dimension
2^d.

Every operator built here is a polynomial in the single-mode ladders:
each ModeSpace tabulates, once, where a_i and a*_i send each basis state
and with which amplitude, and one builder sums coefficient-weighted
ladder words over those tables.  States need no product algebra of their
own: the Bogoliubov vacuum series, metaplectic and spin alike, applies
powers of the pair creator -1/2 sum T_ji a*_i a*_j to Omega, and degree-2
hat vectors are written straight onto the degree-2 slice of the basis.

Storage: a FockOperator holds three numpy arrays, ``rows``, ``cols`` and
``vals``, that list its entries in row-major order, each position once.
A builder reads them off the word tables its ModeSpace caches (one per
ladder word, computed on first use), weighted by the coefficients.
Products, sums, adjoints, norms and mat-vecs work on the arrays: a
product expands every pair of entries that meet and `_summed` adds them
up by position (one stable sort, one ``np.add.at``), unless the pairs
would outnumber the dim^2 entries of the result, as for Weyl operators;
then it takes the dense product.  A ladder polynomial of degree k has
O(d^k) entries per column, so at d=3, N=20 (dim 1771) a ladder operator
takes about 0.15 MB and a second-quantized quadratic about 0.9 MB, where
a dense matrix takes 50 MB.  ``FockOperator.mat`` is a dense complex
copy, made on each access: `weyl(space, f)`, the Weyl operator
W(f) = exp((i/sqrt2)(a(f) + a*(f))), exponentiates it with `realmaps.expm`,
the dense product multiplies it, and `truncated_vacuum_oracle` (an SVD),
the tests and the storage counters of `perfbench/tracer.py` read it.  `central_term` and
`vacuum_implementer` build no operator at all: they apply the word
tables to vectors.

Quadratic elements x = x_1 + x_2 (linear plus antilinear part, stored as
a RealLinearMap) are second-quantized normally ordered,

    dpi(x) = sum X1_ij a*_i a_j - sign/2 sum X2_ij a*_i a*_j
                                + 1/2 sum conj(X2_ij) a_i a_j,

with sign = ``ModeSpace.sign`` (+1 bosonic, -1 fermionic), the exchange
sign every statistics-dependent coefficient and symmetry test reads.
This makes dpi(x) skew-adjoint, kills the vacuum expectation of the
linear part and puts the whole central defect of [dpi(x), dpi(y)] -
dpi([x, y]) into the scalar i eta(x, y) from the antilinear parts.
`hat_element` realizes an (anti)symmetric antilinear A as the degree-2
vector with <A-hat, f v g> = <A f, g>, in closed form; the `fock-central`
suite checks it against ||A-hat||^2 = 1/2 ||A||_HS^2 and the two
constructions against their glue dpi(x_2) Omega = -x_2-hat.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .realmaps import PREDICATE_TOL, RealLinearMap, expm, in_algebra, omega

BOSONIC = "bosonic"
FERMIONIC = "fermionic"


class ModeSpace:
    """Truncated Fock space over C^d with a fixed occupation basis.

    ``basis`` is a read-only (dim, d) int array of occupations, ordered by
    total number (the read-only ``totals``), ties broken lexicographically:
    the vacuum sits at index 0, and the degree-2 rows are the pairs e_i + e_j,
    i <= j (i < j fermionic), in reversed ``np.triu_indices`` order.

    ``ladders['-']`` and ``ladders['+']`` are the tables of a_i and a*_i:
    a pair (target, amp) of (d, dim + 1) arrays with a_i|basis[j]> =
    amp[i, j] |basis[target[i, j]]>.  Index ``dim`` stands for "killed or
    pushed past the cutoff"; its own column maps to itself with amplitude
    zero, so ladder words can be chained without masking.  The a*_i table is
    built as the basis grows mode by mode, and the a_i table inverts it.

    ``word_table`` chains them into the table of a whole ladder word; the
    read-only result is cached in ``words``, so each word is chained once.
    """

    __slots__ = ("d", "statistics", "cutoff", "basis", "dim", "totals",
                 "ladders", "words")

    def __init__(self, d: int, statistics: str, cutoff: int | None = None):
        for name, val in (("d", d), ("cutoff", 0 if cutoff is None else cutoff)):
            if isinstance(val, bool) or not isinstance(val, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {val!r}")
        if d < 1:
            raise ValueError("need at least one mode")
        if statistics not in (BOSONIC, FERMIONIC):
            raise ValueError("statistics must be 'bosonic' or 'fermionic'")
        if statistics == BOSONIC:
            if cutoff is None or cutoff < 1:
                raise ValueError("bosonic spaces need a cutoff N >= 1")
        elif cutoff is not None and cutoff < d:
            raise ValueError(f"fermionic spaces need a cutoff >= d = {d}")
        else:
            cutoff = d
        self.d = int(d)
        self.statistics = statistics
        self.cutoff = int(cutoff)
        top = 1 if statistics == FERMIONIC else self.cutoff
        # grown mode by mode in lexicographic order: row r spawns (r, v) for
        # v < room[r], and up[i, r] is the row of r + e_i (the row count if
        # none): a*_i sends (r, v) to (up[i, r], v) if v < room[up[i, r]], and
        # a* on the new mode sends it to (r, v + 1)
        occ, totals = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
        up = np.zeros((0, 1), dtype=np.int64)
        for _ in range(self.d):
            room = np.minimum(top, self.cutoff - totals) + 1
            first = np.cumsum(room) - room
            parent = np.repeat(np.arange(len(room)), room)
            rows = np.arange(len(parent))
            v = rows - first[parent]
            room, first = np.append(room, 0), np.append(first, len(rows))
            u = up[:, parent]
            up = np.vstack([np.where(v < room[u], first[u] + v, len(rows)),
                            np.where(v + 1 < room[parent], rows + 1, len(rows))])
            occ = np.column_stack([occ[parent], v])
            totals = totals[parent] + v
        # stably sorted by total, then up is renumbered and gains column dim
        order = np.argsort(totals, kind="stable")
        self.basis, self.totals = occ[order], totals[order]
        self.basis.flags.writeable = self.totals.flags.writeable = False
        self.dim = len(order)
        del occ, u
        renumber = np.empty(self.dim + 1, dtype=np.int64)
        renumber[order], renumber[-1] = np.arange(self.dim), self.dim
        up = renumber[up[:, np.append(order, 0)]]
        up[:, -1] = self.dim
        self.ladders = self._ladder_tables(up)
        self.words = {}

    def _ladder_tables(self, up: np.ndarray) -> dict:
        # a_i inverts a*_i; the killed entries all land in column dim
        down = np.full_like(up, self.dim)
        down[np.arange(self.d)[:, None], up] = np.arange(self.dim + 1)
        down[:, -1] = self.dim
        n = self.basis.T
        if self.statistics == BOSONIC:
            amps = np.sqrt(n), np.sqrt(n + 1)
        else:
            # Jordan-Wigner sign (-1)^(occupied modes below i)
            amps = (1.0 - 2.0 * ((np.cumsum(n, axis=0) - n) % 2),) * 2
        zero = np.zeros((self.d, 1))
        return {k: (t, np.hstack([np.where(t[:, :-1] < self.dim, a, 0.0), zero]))
                for k, t, a in zip("-+", (down, up), amps)}

    @property
    def sign(self) -> int:
        """Exchange sign: +1 for bosons (symmetric pairs), -1 for fermions."""
        return 1 if self.statistics == BOSONIC else -1

    def word_table(self, word: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (target, amp) table of a ladder word, built once: row j
        lists where basis[j] goes, and with which amplitude, for each index
        tuple in C order.  The rightmost letter acts first."""
        if word not in self.words:
            rows, amps = np.arange(self.dim), np.ones(self.dim)
            for letter in reversed(word):
                target, amp = self.ladders[letter]
                rows, amps = target[:, rows], amp[:, rows] * amps
            table = tuple(np.ascontiguousarray(a.reshape(-1, self.dim).T)
                          for a in (rows, amps))
            for a in table:
                a.flags.writeable = False
            self.words[word] = table
        return self.words[word]

    def __repr__(self):
        return f"ModeSpace(d={self.d}, statistics={self.statistics!r}, cutoff={self.cutoff})"

    def __eq__(self, other):
        return (isinstance(other, ModeSpace)
                and (self.d, self.statistics, self.cutoff)
                == (other.d, other.statistics, other.cutoff))

    def __hash__(self):
        return hash((self.d, self.statistics, self.cutoff))


def _same_space(a: ModeSpace, b: ModeSpace) -> ModeSpace:
    if a != b:
        raise ValueError("mode spaces do not match")
    return a


@dataclass(frozen=True)
class FockVector:
    """Amplitude vector over the occupation basis of a ModeSpace."""

    space: ModeSpace
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError("amplitude vector has the wrong length")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def inner(self, other: "FockVector") -> complex:
        _same_space(self.space, other.space)
        return complex(np.sum(self.amps * np.conj(other.amps)))

    def degree_norms(self) -> np.ndarray:
        """Norm of each fixed-particle-number component, index = degree."""
        power = self.amps.real ** 2 + self.amps.imag ** 2
        return np.sqrt(np.bincount(self.space.totals, power, self.space.cutoff + 1))

    def __add__(self, other):
        _same_space(self.space, other.space)
        return FockVector(self.space, self.amps + other.amps)

    def __sub__(self, other):
        _same_space(self.space, other.space)
        return FockVector(self.space, self.amps - other.amps)


def vacuum(space: ModeSpace) -> FockVector:
    """The vacuum, basis state 0 of ``space``."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    return FockVector(space, amps)


@dataclass(frozen=True)
class FockOperator:
    """Operator on a ModeSpace, stored as its entries in the occupation
    basis: ``rows``, ``cols`` and ``vals`` list them in row-major order,
    each position at most once.

    Built by `_summed` from any list of (row, column, value) entries, or
    by `from_dense`; ``mat`` is a fresh dense copy for dense oracles.
    """

    space: ModeSpace
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_dense(cls, space: ModeSpace, M) -> "FockOperator":
        M = np.asarray(M, dtype=complex)
        if M.shape != (space.dim, space.dim):
            raise ValueError("operator matrix has the wrong shape")
        rows, cols = np.nonzero(M)
        return cls(space, rows, cols, M[rows, cols])

    @property
    def mat(self) -> np.ndarray:
        """Dense copy of the matrix."""
        out = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        out[self.rows, self.cols] = self.vals
        return out

    @classmethod
    def identity(cls, space: ModeSpace) -> "FockOperator":
        diag = np.arange(space.dim)
        return cls(space, diag, diag, np.ones(space.dim, dtype=complex))

    def apply(self, v: FockVector) -> FockVector:
        _same_space(self.space, v.space)
        out = np.zeros(self.space.dim, dtype=complex)
        np.add.at(out, self.rows, self.vals * v.amps[self.cols])
        return FockVector(self.space, out)

    def adjoint(self) -> "FockOperator":
        return _summed(self.space, self.cols, self.rows, np.conj(self.vals))

    def compose(self, other: "FockOperator") -> "FockOperator":
        """Operator product self * other (other acts first).

        Entry (i, k) of self meets row k of other, and the partial
        products are summed by position.  Ladder polynomials have O(d^k)
        entries per row, so there are about nnz * (entries per row) of
        them, far below dim^2; when they would outnumber the dim^2 entries
        of the result (a Weyl operator is dense), the dense product is
        taken instead.
        """
        space = _same_space(self.space, other.space)
        dim = space.dim
        other_ptr = np.searchsorted(other.rows, np.arange(dim + 1))
        counts = np.diff(other_ptr)[self.cols]
        total = int(counts.sum())
        if total > dim * dim:
            return FockOperator.from_dense(space, self.mat @ other.mat)
        # each entry of self is repeated once per entry of the row of other
        # it meets; rhs[p] is the entry of other in partial product p
        starts = other_ptr[self.cols] - (np.cumsum(counts) - counts)
        rhs = np.arange(total) + np.repeat(starts, counts)
        return _summed(space, np.repeat(self.rows, counts), other.cols[rhs],
                       np.repeat(self.vals, counts) * other.vals[rhs])

    def commutator(self, other: "FockOperator") -> "FockOperator":
        return self.compose(other) - other.compose(self)

    def anticommutator(self, other: "FockOperator") -> "FockOperator":
        return self.compose(other) + other.compose(self)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.vals))

    def restricted_norm(self, max_degree: int) -> float:
        """Frobenius norm of P A P with P the projection onto total number
        <= max_degree."""
        keep = self.space.totals <= max_degree
        return float(np.linalg.norm(self.vals[keep[self.rows] & keep[self.cols]]))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other: "FockOperator", sign: int) -> "FockOperator":
        space = _same_space(self.space, other.space)
        return _summed(space, np.concatenate((self.rows, other.rows)),
                       np.concatenate((self.cols, other.cols)),
                       np.concatenate((self.vals, sign * other.vals)))

    def __mul__(self, t: complex):
        return FockOperator(self.space, self.rows, self.cols, t * self.vals)

    __rmul__ = __mul__


def _summed(space: ModeSpace, rows, cols, vals) -> FockOperator:
    """The operator with entries (rows[p], cols[p], vals[p]) added up: one
    entry per position, in row-major order, with exact zeros dropped.
    Values that share a position are summed in the order given."""
    # pack each position into one sortable key
    shift = space.dim.bit_length()
    keys = (rows << shift) | cols
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():
        heads = np.flatnonzero(first)
        sums = np.zeros(heads.size, dtype=complex)
        np.add.at(sums, np.cumsum(first) - 1, vals)
        keys, vals = keys[heads], sums
    if not vals.all():
        kept = np.flatnonzero(vals)
        keys, vals = keys[kept], vals[kept]
    return FockOperator(space, keys >> shift, keys & ((1 << shift) - 1), vals)


# ---------------------------------------------------------------------------
# creation and annihilation


def _ladder_word(space: ModeSpace, terms) -> FockOperator:
    """Operator sum over (coeffs, word) terms of
    sum c[i_1..i_k] L_1(i_1) ... L_k(i_k).

    Each letter of ``word`` is '+' (a*_i) or '-' (a_i); ``coeffs`` has one
    axis of length d per letter, in word order.  The rightmost letter acts
    first, and states killed or pushed past the cutoff drop out.  The
    cached word tables, weighted by the coefficients, list the entries
    column by column; repeated entries are summed in term order.
    """
    dim = space.dim
    rows, vals = [], []
    for coeffs, word in terms:
        target, amp = space.word_table(word)
        rows.append(target)
        vals.append(amp * np.asarray(coeffs, dtype=complex).reshape(-1))
    rows, vals = np.hstack(rows), np.hstack(vals)
    live = np.flatnonzero(rows < dim)
    return _summed(space, rows.ravel()[live], live // rows.shape[1],
                   vals.ravel()[live])


def _apply_terms(space: ModeSpace, terms, v: np.ndarray) -> np.ndarray:
    """The ladder polynomial of (coeffs, word) terms applied, straight from
    the word tables and without building its operator, to the vector with
    amplitudes v on the first len(v) basis states and 0 on the rest."""
    out = np.zeros(space.dim + 1, dtype=complex)
    for coeffs, word in terms:
        target, amp = (table[:v.size] for table in space.word_table(word))
        weights = amp * np.asarray(coeffs, dtype=complex).reshape(-1)
        np.add.at(out, target, weights * v[:, None])
    return out[:-1]


def _smearing(space: ModeSpace, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (space.d,):
        raise ValueError("smearing vector has the wrong dimension")
    return f


def create(space: ModeSpace, f) -> FockOperator:
    """Smeared creator a*(f) = sum_i f_i a*_i (linear in f)."""
    return _ladder_word(space, [(_smearing(space, f), "+")])


def annihilate(space: ModeSpace, f) -> FockOperator:
    """Smeared annihilator a(f) = sum_i conj(f_i) a_i (antilinear in f)."""
    f = np.conj(_smearing(space, f))
    return _ladder_word(space, [(f, "-")])


def number_operator(space: ModeSpace) -> FockOperator:
    occupied = np.flatnonzero(space.totals)
    return FockOperator(space, occupied, occupied,
                        space.totals[occupied].astype(complex))


def dgamma(space: ModeSpace, M) -> FockOperator:
    """Degree-preserving quadratic sum_{ij} M_ij a*_i a_j."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (space.d, space.d):
        raise ValueError("coefficient matrix has the wrong shape")
    return _ladder_word(space, [(M, "+-")])


# ---------------------------------------------------------------------------
# Weyl operators and the Heisenberg product


def weyl(space: ModeSpace, f) -> FockOperator:
    """W(f) = exp((i/sqrt2)(a(f) + a*(f))) on the truncation."""
    if space.statistics != BOSONIC:
        raise ValueError("Weyl operators live on the bosonic space")
    gen = annihilate(space, f) + create(space, f)
    return FockOperator.from_dense(space, expm((1j / math.sqrt(2.0)) * gen.mat))


def heisenberg_mul(a: tuple, b: tuple) -> tuple:
    """(t, v)(t', v') = (t + t' + (1/2) Im<v, v'>, v + v')."""
    t, v = a
    s, w = b
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return (float(t) + float(s) + 0.5 * omega(v, w), v + w)


# ---------------------------------------------------------------------------
# hat vectors and second quantization


def _pair_matrix(space: ModeSpace, A) -> np.ndarray:
    """Matrix M of an antilinear A that can be paired into a degree-2 state:
    M = sign M^T within PREDICATE_TOL relative, and a cutoff >= 2 on a bosonic
    space only: a fermionic one holds every degree up to d, and at d = 1,
    cutoff 1, the only antisymmetric M is 0, whose hat vector is 0."""
    M = np.asarray(A, dtype=complex)
    if M.shape != (space.d, space.d):
        raise ValueError("antilinear matrix has the wrong shape")
    if not in_algebra(RealLinearMap.from_antilinear(M), space.sign):
        raise ValueError(f"{space.statistics} hat vectors need "
                         f"{'a ' if space.sign > 0 else 'an anti'}symmetric matrix")
    if space.sign > 0 and space.cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    return M


def hat_element(space: ModeSpace, A) -> FockVector:
    """Degree-2 vector with <A-hat, f v g> = <A f, g> for all basis pairs.

    A is the matrix M of an antilinear map (action v -> M conj(v)); it
    must be hermitian (M symmetric) on a bosonic space and skew (M
    antisymmetric) on a fermionic one.  Written in closed form, without
    the ladder tables: M_ji on |e_i + e_j> for i < j and, bosonic,
    M_ii / sqrt(2) on |2 e_i>, the degree-2 states in reversed triu
    order.  The `fock-central` suite checks ||A-hat||^2 = 1/2 ||A||_HS^2.
    """
    M = _pair_matrix(space, A)
    i, j = np.triu_indices(space.d, 0 if space.sign > 0 else 1)
    amps = np.zeros(space.dim, dtype=complex)
    amps[np.flatnonzero(space.totals == 2)[::-1]] = np.where(
        i == j, M[j, i] / math.sqrt(2.0), M[j, i])
    return FockVector(space, amps)


def hat_pairing(space: ModeSpace, A, B) -> complex:
    """Reference value for <A-hat, B-hat>: sign (1/2) tr(A B), where A B
    has matrix M_A conj(M_B)."""
    MA = np.asarray(A, dtype=complex)
    MB = np.asarray(B, dtype=complex)
    return 0.5 * space.sign * complex(np.trace(MA @ np.conj(MB)))


def _dpi_terms(space: ModeSpace, x: RealLinearMap) -> list:
    """The (coeffs, word) terms of the normally ordered dpi(x), for x in
    sp (bosonic) or o (fermionic)."""
    if x.d != space.d:
        raise ValueError("dimension mismatch")
    if not in_algebra(x, space.sign):
        algebra, pairs = ("sp", "") if space.sign > 0 else ("o", "anti")
        raise ValueError(f"x is not in {algebra}: need skew-hermitian linear "
                         f"and {pairs}symmetric antilinear part")
    terms = [(x.G1, "+-")]
    if np.any(x.G2 != 0):
        terms += [(-0.5 * space.sign * x.G2, "++"), (0.5 * np.conj(x.G2), "--")]
    return terms


def second_quantize(space: ModeSpace, x: RealLinearMap) -> FockOperator:
    """Normally ordered dpi(x) for x in sp (bosonic) or o (fermionic)."""
    return _ladder_word(space, _dpi_terms(space, x))


def central_term(space: ModeSpace, x: RealLinearMap, y: RealLinearMap) -> float:
    """eta(x, y) = <([dpi(x), dpi(y)] - dpi([x, y])) Omega, Omega> / i.

    Exact on truncations with cutoff >= 4 since only states of degree
    <= 4 enter the vacuum matrix element.  Read as
    <A B Omega - B A Omega, Omega> / i with A = dpi(x), B = dpi(y), each
    product applied from the word tables, so neither operator is built.
    dpi([x, y]) is not built either: no word of a normally ordered
    quadratic maps Omega to Omega, so that term is 0.0.
    """
    X, Y = _dpi_terms(space, x), _dpi_terms(space, y)
    # Omega is basis state 0, and a quadratic maps it into the states of
    # degree <= 2, a prefix of the basis
    low = int(np.searchsorted(space.totals, 2, side="right"))
    vac = np.ones(1, dtype=complex)

    def vacuum_entry(first, second):
        return _apply_terms(space, second, _apply_terms(space, first, vac)[:low])[0]

    # Re(z / i) = Im z
    return float((vacuum_entry(Y, X) - vacuum_entry(X, Y)).imag)


def central_term_trace(space: ModeSpace, x: RealLinearMap,
                       y: RealLinearMap) -> float:
    """Closed form sign (1/2i) tr([x_2, y_2])."""
    L = x.G2 @ np.conj(y.G2) - y.G2 @ np.conj(x.G2)
    val = complex(np.trace(L)) / 2j
    return space.sign * float(val.real)


def rank_one_generator(v, w) -> RealLinearMap:
    """Q_{v,w} = <., w> v - <., v> w, the skew rank-two element."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return RealLinearMap.from_linear(np.outer(v, np.conj(w)) - np.outer(w, np.conj(v)))


# ---------------------------------------------------------------------------
# Bogoliubov vacua


def twist_matrix(g: RealLinearMap) -> np.ndarray:
    """Matrix of T(g) = g_2 g_1^{-1} (antilinear): G2 conj(G1)^{-1}."""
    return g.G2 @ np.linalg.inv(np.conj(g.G1))


def vacuum_implementer(space: ModeSpace,
                       g: RealLinearMap) -> tuple[float, FockVector]:
    """Normalized truncation of c(g) e^{-T-hat(g)} with c = norm^{-1}.

    Requires an invertible linear part (smallest singular value of g_1
    above 1e-12 max(||g_1||, ||g_2||), spectral norms) and T(g) =
    sign T(g)^T.  With Q = -1/2 sum T_ji a*_i a*_j one has
    Q Omega = -T-hat, so the series
    is sum_{n <= N/2} Q^n Omega / n!, built from the ladder tables.  Only
    the bosonic series needs ||T(g)||_HS < 1 to converge; the fermionic
    one stops at n = d/2 (N = d) and is exact, with ||T||_HS often > 1.
    The returned scalar is the vacuum overlap <F, Omega> = c(g) > 0.
    """
    if g.d != space.d:
        raise ValueError("dimension mismatch")
    s = np.linalg.svd(g.G1, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], np.linalg.norm(g.G2, 2)):
        raise ValueError("linear part g_1 is singular")
    T = twist_matrix(g)
    if space.sign > 0 and np.linalg.norm(T) >= 1.0:
        raise ValueError("||T(g)|| >= 1: outside the convergence domain")
    pair = [(-0.5 * _pair_matrix(space, T).T, "++")]
    term = vacuum(space).amps
    F = term
    for n in range(1, space.cutoff // 2 + 1):
        term = _apply_terms(space, pair, term) / n
        F = F + term
    c = 1.0 / float(np.linalg.norm(F))
    return c, FockVector(space, c * F)


def _vacuum_conditions(space: ModeSpace, g: RealLinearMap) -> list[list]:
    """The (coeffs, word) terms of the d operators a(e_i) + a*(T(g) e_i)
    that kill the Bogoliubov vacuum."""
    T = twist_matrix(g)
    return [[(e, "-"), (_smearing(space, T @ e), "+")] for e in np.eye(g.d)]


def vacuum_residuals(space: ModeSpace, g: RealLinearMap,
                     F: FockVector) -> np.ndarray:
    """Norms of a(e_i) F + a*(T(g) e_i) F for each mode i.

    Measured on a space two levels higher, whose basis begins with the
    basis of ``space`` (both are sorted by (total, occupation)), so the
    amplitude the creator pushes past the original cutoff counts as
    residual instead of being silently clipped; this is what decays
    geometrically in N.  A fermionic space is complete, so it is its own
    roomy space: exact there.
    """
    _same_space(space, F.space)
    roomy = space if space.sign < 0 else ModeSpace(space.d, space.statistics,
                                                   space.cutoff + 2)
    return np.array([np.linalg.norm(_apply_terms(roomy, terms, F.amps))
                     for terms in _vacuum_conditions(space, g)])


def truncated_vacuum_oracle(space: ModeSpace,
                            g: RealLinearMap) -> tuple[float, FockVector]:
    """Independent vacuum: smallest singular vector of the stacked
    system a(e_i) F + a*(T e_i) F = 0, normalized with positive vacuum
    overlap.  Returns (vacuum amplitude, F).

    Only the equations of total degree below the cutoff are stacked: the
    top-degree ones would need the missing degree N + 1 of F, and at odd
    N they force a*(T e_i) F_{N-1} = 0, which the true vacuum violates.
    The cut is bosonic: for fermions (N = d) the rows below d still fix F.
    """
    below = space.totals < space.cutoff
    K = np.vstack([_ladder_word(space, terms).mat[below]
                   for terms in _vacuum_conditions(space, g)])
    # full V: at d = 1 K is N x (N + 1), and a reduced SVD drops the null row
    _, _, vh = np.linalg.svd(K)
    F = vh[-1].conj()
    if abs(F[0]) < 1e-14:
        raise ArithmeticError("oracle vacuum has no vacuum component")
    F = F * (np.conj(F[0]) / abs(F[0]))
    F = F / np.linalg.norm(F)
    return float(F[0].real), FockVector(space, F)


# ---------------------------------------------------------------------------
# quasi-free twists


def quasifree_twist(space: ModeSpace, P, Gamma, f) -> FockOperator:
    """Twisted annihilator a_P(f) = a((1-P) f) + a*(Gamma P f).

    P must be an orthogonal projection, Gamma an antilinear isometric
    involution (matrix M with M conj(M) = 1 and M unitary) commuting
    with P; all predicates at tolerance 1e-10.
    """
    if space.statistics != FERMIONIC:
        raise ValueError("quasi-free twists act on the fermionic space")
    P = np.asarray(P, dtype=complex)
    G = np.asarray(Gamma, dtype=complex)
    I = np.eye(space.d)
    if np.linalg.norm(P @ P - P) > PREDICATE_TOL or \
            np.linalg.norm(P - P.conj().T) > PREDICATE_TOL:
        raise ValueError("P is not an orthogonal projection")
    if np.linalg.norm(G @ np.conj(G) - I) > PREDICATE_TOL:
        raise ValueError("Gamma is not an involution")
    if np.linalg.norm(G.conj().T @ G - I) > PREDICATE_TOL:
        raise ValueError("Gamma is not isometric")
    if np.linalg.norm(G @ np.conj(P) - P @ G) > PREDICATE_TOL:
        raise ValueError("Gamma does not commute with P")
    f = np.asarray(f, dtype=complex)
    return annihilate(space, (I - P) @ f) + create(space, G @ np.conj(P @ f))
