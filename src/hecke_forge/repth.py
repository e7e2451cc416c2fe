"""Finite-group representation machinery for GL(e, F_q), f = 1 scope.

The inducing datum is a character chi of F_q^x, inflated to the Borel B
through the diagonal product; the intertwining algebra of the induced
module has the e!-element basis

    fbar_w(b1 w b2) = (1/|B|) * sigma(b1) * sigma(b2),   w in W_0,

supported on the Bruhat cell of w, and the normalized sum of the basis is
the idempotent cutting out the one-dimensional constituent chi∘det.  Both
are functions of the Bruhat label (w, v), v = diag(b1) diag(b2), and
`FinHeckeElt` holds only that form: one coefficient per label (e!(q-1)
of them), read in the coset sums through G's label index
`G.bruhat_index`: one array read per sum, not a dict lookup per coset.
No library path builds the |G|-entry dict of `bruhat_decomposition`;
only a read of a `FinHeckeElt` at one element g does.  The convolution
behind e_tau's idempotency check and the Hecke oracle's cell count are
sums over the normal forms of B\\G (`finglq.borel_flags`), their labels
read by elimination, so they enumerate no GL(e, q); the commutant
dimension is e!, one per double coset B w B by Mackey's formula, so it
enumerates neither G nor B.  The hypotheses the operator and the trace
formula rest on, right sigma-equivariance and adjointness, are checked
once per label; the label checks of `G.bruhat_index`, which the
operator reads, make that as strong as checking them at every element.
The trace formulas, the Steinberg alternating sum, the sign identity on
elliptic regular classes, and the module-action transport identity (for
any torus character sigma, on g -> value dicts) are all implemented
against explicit sums.  Sums of class functions run
over conjugacy classes weighted by class size, and fixed-point counts run
over coset representatives rather than over the whole group.  Every coset
sum reads the index arrays of `_coset_data`: the products it needs, such
as r_i y or x gamma x^-1 for each representative, are formed for all
cosets at once on the group's code array (`finglq._mul_codes`,
`finglq._mul_pairs`) and located in G, not multiplied one tuple matrix
at a time.

What does not depend on chi is a cached property of the object it is
derived from: of the coset data, which holds its G and H, the class
table, the translate table (the coset and H-part of r_i g for every i
and every g) and the transport's r_i h^-1 table; of G, each class's
label positions `class_labels`; of a `FinRep`, its invariant form.  The
label positions of the x gamma x^-1 are kept per gamma on the coset
data, and the label reads at the permutation matrices per (e, q).  No
dense rho(g) of an induced module is kept: `InducedRep.mat` builds it
from one row of the translate table at each read, so a pass over G
holds one rho(g) at a time.

Convolution uses the counting measure giving every singleton volume 1,
so the unit is the function (1/|H|) sigma on H.  Values stay exact
Fractions whenever the character is rational (k = 0 or (q-1)/2).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import finglq
from .finglq import (
    MatrixGroup, MultChar, SubgroupSpec, _mul_codes, _mul_pairs,
    bruhat_decomposition, diag_product, get_field, gl_group, perm_matrix,
    subgroup,
)
from .weyl import all_perms, from_perm, length, poincare_poly


def borel(e: int, q: int) -> MatrixGroup:
    return subgroup(e, q, SubgroupSpec.borel())


def sigma_tilde(e: int, q: int, chi: MultChar):
    """chi inflated to the Borel: b -> chi(product of diagonal entries)."""
    F = get_field(q)

    def sig(b):
        return chi(diag_product(F, b))

    return sig


# ---------------------------------------------------------------------------
# bi-equivariant End(X)-valued functions (X is 1-dimensional for f = 1)

class FinHeckeElt:
    """Function on G = GL(e, q) with scalar values (Fraction or complex)
    of the Bruhat label alone, with B its Borel: a dict `labels` from
    labels (w, v) to scalars, missing labels zero; e!(q-1) coefficients,
    not |G| values.  G = `gl_group(e, q)` and B = `borel(e, q)` are built
    on first read; `convolve_at`, `at_identity` and `coefficients` read
    neither, and only a read phi(g) at one element builds the label dict
    `bruhat_decomposition(e, q)`.  The module it acts on holds sigma and
    checks equivariance.
    """

    def __init__(self, e: int, q: int, labels: dict):
        self.e, self.q = e, q
        self.labels = labels

    @cached_property
    def group(self) -> MatrixGroup:
        return gl_group(self.e, self.q)

    @cached_property
    def sub(self) -> MatrixGroup:
        return borel(self.e, self.q)

    @cached_property
    def _dec(self) -> dict:
        """`bruhat_decomposition(e, q)`, the label of each element, read
        by `__call__` alone."""
        return bruhat_decomposition(self.e, self.q)

    def __call__(self, g):
        return self.labels.get(self._dec[g], 0)

    def at_identity(self):
        """phi(1), the coefficient of the identity's label (1, 1)."""
        return self.labels.get((tuple(range(self.e)), 1), 0)

    def coefficients(self) -> list:
        """phi at each label of `finglq.bruhat_labels(e, q)`, the labels of
        `group.bruhat_index` in its order, so that phi(G.elements[k]) is
        coefficients()[at[k]]."""
        return [self.labels.get(label, 0)
                for label in finglq.bruhat_labels(self.e, self.q)[0]]

    def convolve_at(self, other: "FinHeckeElt", g):
        """(self * other)(g) = |B| * sum over r in B\\G of
        self(g r^-1) * other(r).

        Hypothesis: self is right-(B, sigma)-equivariant and other is
        left-(B, sigma)-equivariant.  Then y = b r turns the full sum over
        y in G into |B| times the sum over a transversal, since
        sigma(b^-1) sigma(b) = 1.  For fbar_w and e_tau, functions of the
        label, the label reads check it.  The sum runs over the normal
        forms r of `finglq.borel_flags`, both factors read by label
        (`_flag_label_pairs`), so G is not enumerated; terms with
        other(r) = 0 are skipped.
        """
        a, b = _flag_label_pairs(self.e, self.q, g)
        labels = finglq.bruhat_labels(self.e, self.q)[0]
        mine, theirs = self.labels, other.labels
        acc = Fraction(0)
        for i, j in zip(a.tolist(), b.tolist()):
            vr = theirs.get(labels[j], 0)
            if vr != 0:
                acc += mine.get(labels[i], 0) * vr
        b_order = finglq.group_order(self.e, self.q, SubgroupSpec.borel())
        return b_order * acc


@lru_cache(maxsize=None)
def _flag_label_pairs(e: int, q: int, g):
    """(a, b): for each normal form r_i of `finglq.borel_flags(e, q)`, in
    order, the positions in `finglq.bruhat_labels(e, q)` of the labels of
    g r_i^-1 (a), the products formed for every i at once and their
    labels read by elimination (`finglq.label_positions`), and of r_i
    (b), which `borel_flags` checked to be (w_i, 1).  `convolve_at` and
    the Hecke oracle's cell count both read them, at the permutation
    matrices, for every chi: so they are kept per (e, q, g), and
    `verify.run_checks` empties the cache before and after its checks,
    so that each run reads the labels again."""
    flags = finglq.borel_flags(e, q)
    return (finglq.label_positions(q, _mul_codes(
        get_field(q), g, flags.inv_codes, left=True)), flags.at)


def _wrong_group(e: int, q: int) -> ValueError:
    return ValueError("expected a function of the Bruhat label on "
                      f"GL({e},{q}) and its Borel")


def _labels_of(phi: FinHeckeElt, G: MatrixGroup, H: MatrixGroup) -> dict:
    """phi's label coefficients; raises ValueError unless phi lives on G
    and its Borel H."""
    if phi.group is not G or phi.sub is not H:
        raise _wrong_group(G.n, G.q)
    return phi.labels


def _right_equivariant(phi: FinHeckeElt, ind: "InducedRep") -> bool:
    """phi(g s) = phi(g) sigma(s) for every g in G and every s in
    `H.generators()`, sigma = ind.sigma: exactly when phi and sigma take
    Fraction values, else within 1e-10.

    Checked on labels, with the same strength: phi(g) = Phi(L(g)), and
    `G.bruhat_index` checks L(g s) = (w, d(s) v) for every g and
    every s in `_borel_generators`, which is `H.generators()`, and that
    every label (w, v) in W x F_q^x occurs.  So the element-wise identity
    holds exactly when Phi(w, d(s) v) = Phi(w, v) sigma(s) for every label
    and every s: e!(q-1)|S| comparisons instead of |G||S|.
    """
    G, H = ind.group, ind.sub
    labels = _labels_of(phi, G, H)
    F = G.field_
    gens = [(diag_product(F, s), ind.sigma(s)) for s in H.generators()]
    exact = (all(isinstance(x, Fraction) for x in labels.values())
             and all(isinstance(sig, Fraction) for _, sig in gens))
    for w in all_perms(G.n):
        for v in range(1, G.q):
            x = labels.get((w, v), 0)
            for d, sig in gens:
                lhs, rhs = labels.get((w, F.mul(d, v)), 0), x * sig
                if (lhs != rhs if exact
                        else abs(complex(lhs) - complex(rhs)) > 1e-10):
                    return False
    return True


def _adjoint(phi: FinHeckeElt, ind: "InducedRep") -> bool:
    """phi(x^-1) = conj phi(x) for every x in G, within 1e-9: with scalar
    sigma, the adjoint of phi(x) is its conjugate.

    Checked on labels, with the same strength: `G.bruhat_index`
    checks that the label set of w is B w B with L(b1 w b2) =
    (w, d(b1) d(b2)), so L(x^-1) = (w^-1, v^-1) when L(x) = (w, v), and
    every label occurs.  So the identity holds for every x exactly when
    Phi(w^-1, v^-1) = conj Phi(w, v) for every label: e!(q-1) comparisons
    instead of |G| inverses.
    """
    G = ind.group
    labels = _labels_of(phi, G, ind.sub)
    F = G.field_
    for w in all_perms(G.n):
        w_inv = tuple(sorted(range(G.n), key=w.__getitem__))
        for v in range(1, G.q):
            there = complex(labels.get((w_inv, F.inv(v)), 0))
            if abs(there - complex(labels.get((w, v), 0)).conjugate()) > 1e-9:
                return False
    return True


@lru_cache(maxsize=None)
def finite_hecke_basis(e: int, q: int, chi: MultChar) -> list[FinHeckeElt]:
    """The e! basis functions fbar_w, ordered by one-line permutation, held
    by label: fbar_w(w, v) = chi(v)/|B|, one value per v shared by every w.

    Verifies first that the commutant of the induced module has dimension
    e! (`intertwining_dimension`, by Mackey's formula), so the
    (visibly independent) basis spans it.  ValueError for e < 1 and
    GroupSizeError above the enumeration cap, from that count.
    """
    perms = all_perms(e)
    dim = intertwining_dimension(e, q, chi)
    if dim != len(perms):
        raise ValueError(
            f"intertwining dimension {dim} != expected {len(perms)}")
    norm = Fraction(1, finglq.group_order(e, q, SubgroupSpec.borel()))
    value = {v: norm * chi(v) for v in range(1, q)}
    return [FinHeckeElt(e, q, {(w, v): x for v, x in value.items()})
            for w in perms]


def intertwining_dimension(e: int, q: int, chi: MultChar) -> int:
    """dim End_G(Ind_B sigma), sigma = chi inflated to B through the
    diagonal product d, by Mackey's formula: each double coset B w B,
    w in W_0, adds the dimension of the maps between sigma and
    sigma^w(x) = sigma(w^-1 x w) on B ∩ w B w^-1 (Iwahori 1964 for
    chi = 1).  That intersection is the torus T times unipotent elements,
    on which both are trivial, and sigma^w = sigma on T, because
    conjugating by w permutes the diagonal and d is a product.  So each w
    adds 1, and the dimension is e! whatever chi is.  Neither G nor B is
    enumerated.  ValueError for e < 1 and GroupSizeError above the
    enumeration cap, as for enumerating G."""
    finglq._capped_order(e, q, SubgroupSpec.full())
    return len(all_perms(e))


def values_norm(G: MatrixGroup, values) -> float:
    """<chi, chi> = (1/|G|) sum over classes C of |C| |chi(rep C)|^2 for the
    class function chi with these values at the class representatives, in
    class order."""
    acc = 0.0
    for cls, v in zip(G.conjugacy_classes(), values):
        acc += len(cls) * abs(complex(v)) ** 2
    return acc / G.order


def basis_sign(chi: MultChar, w) -> object:
    """chi(-1)^l(w): the support-preserving renormalization constant.

    det(b1 w b2) = (-1)^l(w) diag(b1) diag(b2), so chi(-1)^l(w) * fbar_w is
    (1/|B|) chi∘det on the cell of w; these renormalized elements satisfy
    the standard quadratic relations for every chi (the natural fbar_w do
    only when chi(-1) = 1).  Idempotency and the dimension identity force
    this constant.
    """
    F = get_field(chi.q)
    return chi(F.neg(1)) ** length(from_perm(w))


@lru_cache(maxsize=None)
def e_tau(e: int, q: int, chi: MultChar) -> FinHeckeElt:
    """Idempotent of the one-dimensional constituent chi∘det: the
    normalized sum of the renormalized basis (plain sum when chi(-1) = 1).
    Raises if idempotency fails.

    Held by label, as the basis is: one product per label (w, v), cell by
    cell in `all_perms` order."""
    p_inv = Fraction(1, int(poincare_poly(e)(q)))
    out = FinHeckeElt(e, q, {
        label: p_inv * basis_sign(chi, w) * x
        for w, b in zip(all_perms(e), finite_hecke_basis(e, q, chi))
        for label, x in b.labels.items()})
    if not _idempotency_holds(out, e, q):
        raise ValueError("e_tau failed idempotency: normalization bug")
    return out


def _idempotency_holds(elt: FinHeckeElt, e: int, q: int) -> bool:
    """Check elt * elt = elt for an elt of GL(e, q): exactly when every
    coefficient is a Fraction, else within 1e-10; ValueError for an elt
    of another group.

    elt is a function of the Bruhat label (w, v), bi-equivariant where
    its labels are read, so elt and elt * elt are
    (B, sigma)-bi-equivariant and one point per cell is enough: the
    permutation matrix of w, the normal form of its cell with u = 1,
    which `finglq.borel_flags` checks to have the label (w, 1), and where
    `FinHeckeElt.convolve_at` sums over the normal forms of B\\G.
    """
    if (elt.e, elt.q) != (e, q):
        raise _wrong_group(e, q)
    labels = elt.labels
    exact = all(isinstance(v, Fraction) for v in labels.values())
    for w in all_perms(e):
        pt = perm_matrix(e, w)
        lhs, rhs = elt.convolve_at(elt, pt), labels.get((w, 1), 0)
        if (lhs != rhs if exact
                else abs(complex(lhs) - complex(rhs)) > 1e-10):
            return False
    return True


def dim_from_e_tau(e: int, q: int, chi: MultChar) -> Fraction:
    """Tr(e_tau(1)) * |G|; the dimension of the cut-out constituent, read
    at the identity's label, with |G| = `finglq.gl_order`."""
    return e_tau(e, q, chi).at_identity() * finglq.gl_order(e, q)


# ---------------------------------------------------------------------------
# induced representations as explicit matrix modules

@dataclass
class _CosetData:
    """The right cosets H r_i of G as index arrays: the k-th element of
    `G.elements` is H.elements[h[k]] * transversal[coset[k]].  The tables
    derived from them are cached properties, so a `dataclasses.replace`
    copy starts without them."""
    group: MatrixGroup = field(repr=False)
    sub: MatrixGroup = field(repr=False)
    transversal: list  # the r_i, objects of G.elements, identity first
    codes: np.ndarray  # code array of the r_i
    inv_codes: np.ndarray  # code array of the r_i^-1
    coset: np.ndarray
    h: np.ndarray
    _conjugates: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def class_table(self) -> tuple:
        """(j, h): r_i gamma_c = H.elements[h[i, c]] r_{j[i, c]} for every
        coset i and every class representative gamma_c of G, from one
        `_product_table`."""
        G = self.group
        at = _product_table(G, self.codes,
                            np.array(G.class_reps(), dtype=np.uint8))
        return self.coset[at], self.h[at]

    @cached_property
    def translate_table(self) -> tuple:
        """(j, h): r_i g = H.elements[h[k, i]] r_{j[k, i]} for every
        element g = G.elements[k] and every coset i.  The products r_i g
        are formed for all g at once, one coset at a time, so building
        the table never holds more than one |G|-sized product array.
        `InducedRep.mat` builds rho(g) from row k at each read, so no
        rho(g) is kept."""
        G = self.group
        at = np.stack([G._indices(_mul_codes(G.field_, r, G.codes, left=True))
                       for r in self.transversal], axis=1)
        return self.coset[at], self.h[at]

    @cached_property
    def transport_table(self) -> list:
        """at[i][k]: the index in G.elements of r_i h_k^-1, for each coset
        and each element h_k of H, as int lists."""
        G, H = self.group, self.sub
        return _product_table(G, self.codes, np.array(
            [G.inv(h) for h in H.elements], dtype=np.uint8)).tolist()

    def conjugate_labels(self, gamma) -> list:
        """The label positions in `G.bruhat_index` of r_i gamma r_i^-1 for
        each representative r_i, in transversal order, the form that is
        well defined on the right cosets H r_i; kept per gamma."""
        got = self._conjugates.get(gamma)
        if got is None:
            G = self.group
            at = G._indices(_mul_pairs(
                G.field_, _mul_codes(G.field_, gamma, self.codes, left=False),
                self.inv_codes))
            got = self._conjugates[gamma] = G.bruhat_index[1][at].tolist()
        return got


def _coset_data(G: MatrixGroup, H: MatrixGroup) -> _CosetData:
    """Right cosets H g of G, kept on G in `G._cosets` by H.spec.

    The cosets are the `finglq._orbits` of G under left multiplication by
    `H.generators()`, on the places of the order [identity] +
    `G.elements`, so each coset's representative is its first element in
    that order and the transversal starts with the identity.  Each
    h = g r^-1 is one elementwise product over the code array, located in
    H.  A product outside G or H, or other than |G|/|H| cosets
    (generators that miss part of H), raises AssertionError.  The coset
    and H-part indices are kept in the smallest type that holds them.
    """
    got = G._cosets.get(H.spec)
    if got is not None:
        return got
    F, count, codes = G.field_, G.order, G.codes
    first = G.index(G.identity)
    # the element at each place of the order, and the place of each element
    seq = np.r_[first, np.delete(np.arange(count), first)]
    place = np.empty_like(seq)
    place[seq] = np.arange(count)
    steps = []
    for s in H.generators():
        perm = G._locate(_mul_codes(F, s, codes, left=True))
        if (perm < 0).any():
            raise AssertionError(f"{s} times an element of G leaves G")
        steps.append(place[perm[seq]])
    at_place, firsts = finglq._orbits(steps, count)
    coset = at_place[place]
    transversal = [G.elements[k] for k in seq[firsts].tolist()]
    inv_codes = np.array([G.inv(r) for r in transversal], dtype=np.uint8)
    h = H._locate(_mul_pairs(F, codes, inv_codes[coset]))
    if (h < 0).any() or len(firsts) * H.order != count:
        raise AssertionError(f"the cosets of the {H.spec.kind} subgroup "
                             "do not partition G")
    data = _CosetData(
        G, H, transversal, codes[seq[firsts]], inv_codes,
        coset.astype(np.min_scalar_type(len(transversal))),
        h.astype(np.min_scalar_type(H.order)))
    G._cosets[H.spec] = data
    return data


def _product_table(G: MatrixGroup, a, b) -> np.ndarray:
    """at[i, j]: the index in G.elements of a_i b_j, for the matrices a_i
    and b_j of two code arrays; KeyError for a product outside G."""
    prods = _mul_pairs(G.field_, a[:, None], b[None])
    return G._indices(prods.reshape(-1, G.n, G.n)).reshape(len(a), len(b))


@dataclass
class FinRep:
    """Matrix representation: element -> invertible complex matrix."""
    group: MatrixGroup
    mats: dict = field(repr=False)
    dim: int = 0

    @classmethod
    def from_character(cls, group: MatrixGroup, char_fn) -> "FinRep":
        mats = {g: np.array([[complex(char_fn(g))]]) for g in group.elements}
        return cls(group, mats, 1)

    def mat(self, g) -> np.ndarray:
        return self.mats[g]

    def char_value(self, g) -> complex:
        return complex(np.trace(self.mats[g]))

    @cached_property
    def invariant_form(self) -> np.ndarray:
        """Group-averaged Hermitian form M with rho(g)^H M rho(g) = M,
        read-only."""
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for g in self.group.elements:
            R = self.mat(g)
            M += R.conj().T @ R
        M = M / self.group.order
        M.flags.writeable = False
        return M

    def invariant_inner_product(self) -> np.ndarray:
        return self.invariant_form


class InducedRep:
    """Ind_H^G of a scalar sigma: functions f with f(hg) = sigma(h) f(g),
    right translation action, coordinates = values on a right transversal.

    Reads the index arrays of `_coset_data(G, H)`: rho(y) and its trace
    read the products r_i y for every i, row y of the coset data's
    `translate_table`, and sigma is evaluated once per element of H
    (`sigma_values`).  rho(y) is built at each read and not kept, so a
    pass over G holds one rho(y) at a time.  The index arrays are checked
    here, at every g, as g = H.elements[h[g]] r_{coset[g]} (the checks
    downstream read rho only at class representatives); AssertionError if
    they do not hold."""

    def __init__(self, G: MatrixGroup, H: MatrixGroup, sigma):
        self.group = G
        self.sub = H
        self.sigma = sigma
        self._cosets = data = _coset_data(G, H)
        if not np.array_equal(
                _mul_pairs(G.field_, H.codes[data.h], data.codes[data.coset]),
                G.codes):
            raise AssertionError("the coset data does not factor G")
        self.transversal = data.transversal
        self.dim = len(self.transversal)
        # complex(sigma(h)) for each h, in the order of H.elements
        self.sigma_values = [complex(sigma(h)) for h in H.elements]
        self._sigma_arr = np.array(self.sigma_values, dtype=complex)
        self._rows = np.arange(self.dim)
        self._cut_dims: dict = {}  # e_idem -> dim pi_e

    def _translates(self, y):
        """(j, h): r_i y = H.elements[h[i]] r_j[i] for every i, read off
        the `translate_table`; KeyError for y outside G."""
        j, h = self._cosets.translate_table
        k = self.group.index(y)
        return j[k], h[k]

    def mat(self, y) -> np.ndarray:
        """rho(y), a new array at each read: the entry sigma(h_i) at
        (i, j_i) for each coset i."""
        j, h = self._translates(y)
        got = np.zeros((self.dim, self.dim), dtype=complex)
        got[self._rows, j] = self._sigma_arr[h]
        return got

    def char_value(self, y) -> complex:
        j, h = self._translates(y)
        acc = 0j
        for k in h[j == self._rows].tolist():
            acc += self.sigma_values[k]
        return acc

    def class_traces(self, E=None) -> np.ndarray:
        """Tr(rho(gamma) E) at each class representative gamma of G, in
        class order, read off the coset data's `class_table`: rho(gamma)
        has the entry sigma(h_i) at (i, j_i), so the trace is the sum over
        i of sigma(h_i) E[j_i, i].  E = None is the identity: the induced
        character, the sum of sigma(h_i) over the cosets that gamma
        fixes."""
        j, h = self._cosets.class_table
        rows = self._rows[:, None]
        terms = self._sigma_arr[h]
        return (terms * (j == rows) if E is None
                else terms * E[j, rows]).sum(axis=0)

    def value_at(self, vec: np.ndarray, g) -> complex:
        k = self.group.index(g)
        return (self.sigma_values[self._cosets.h[k]]
                * vec[self._cosets.coset[k]])

    def hecke_operator(self, phi: FinHeckeElt) -> np.ndarray:
        """Matrix of f -> phi * f in the transversal coordinates:
        m[i, j] = |H| phi(r_i r_j^-1).

        The entry is sum over h in H of phi(r_i r_j^-1 h^-1) sigma(h), and
        right sigma-equivariance, phi(g h) = phi(g) sigma(h), makes every
        term phi(r_i r_j^-1) (Iwahori 1964).  That hypothesis is checked,
        not assumed, once per Bruhat label (`_right_equivariant`), so phi
        must live on this module's group and Borel.  Raises
        ValueError when it is not, or when the check fails.
        """
        if not _right_equivariant(phi, self):
            raise ValueError("phi is not right sigma-equivariant")
        G, data = self.group, self._cosets
        at = _product_table(G, data.codes, data.inv_codes)
        coeffs = phi.coefficients()
        return np.array([complex(self.sub.order * coeffs[k])
                         for k in G.bruhat_index[1][at].ravel().tolist()],
                        dtype=complex).reshape(at.shape)


@lru_cache(maxsize=None)
def induce(e: int, q: int, chi: MultChar) -> InducedRep:
    """Ind_B^G of the inflated chi, built once per (e, q, chi), as
    `e_tau` is, so its sigma values and cut dimensions are shared by every
    caller."""
    return InducedRep(gl_group(e, q), borel(e, q), sigma_tilde(e, q, chi))


def subrep_from_idempotent(e_idem: FinHeckeElt, ind: InducedRep) -> FinRep:
    """Restrict the action to the image of the convolution idempotent.

    Verifies idempotency of the operator and irreducibility of the result
    (character norm 1).
    """
    E = ind.hecke_operator(e_idem)
    if np.max(np.abs(E @ E - E)) > 1e-8:
        raise ValueError("operator is not idempotent")
    rep = restrict_to_image(ind, E)
    norm = values_norm(rep.group, [rep.char_value(r)
                                   for r in rep.group.class_reps()])
    if abs(norm - 1) > 1e-6:
        raise ValueError(f"cut-out module is not irreducible: <chi,chi>={norm}")
    return rep


def restrict_to_image(ind: InducedRep, E: np.ndarray) -> FinRep:
    """The action of ind on the image of the projector E, in the
    orthonormal basis of its first Tr(E) left singular vectors."""
    rank = int(round(np.trace(E).real))
    if rank == 0:
        raise ValueError("zero idempotent")
    u, s, _ = np.linalg.svd(E)
    if s[rank - 1] < 1e-8:
        raise ValueError("idempotent rank does not match its trace")
    basis = u[:, :rank]
    mats = {g: basis.conj().T @ ind.mat(g) @ basis for g in ind.group.elements}
    return FinRep(ind.group, mats, rank)


def isotypic_projector(ind: InducedRep, char_fn, degree: int) -> np.ndarray:
    """Classical projector onto the char_fn-isotypic component of ind:
    P = (deg/|G|) sum_g conj(char(g)) rho(g)."""
    G = ind.group
    P = np.zeros((ind.dim, ind.dim), dtype=complex)
    for g in G.elements:
        P += complex(char_fn(g)).conjugate() * ind.mat(g)
    P *= degree / G.order
    return P


def isotypic_projector_character(ind: InducedRep, char_fn, degree: int):
    """Oracle: character of the char_fn-isotypic component of ind, the
    class function gamma -> Tr(rho(gamma) P) of its projector P."""
    P = isotypic_projector(ind, char_fn, degree)

    def value(gamma) -> complex:
        return complex(np.trace(ind.mat(gamma) @ P))

    return value


# ---------------------------------------------------------------------------
# trace formulas

def conj_avg(T: np.ndarray, rep: FinRep, v: np.ndarray) -> complex:
    """Average of <v, rho(x) T rho(x^-1) v> over the group, times dim/|G|.

    For irreducible rep and unit v (in the invariant form) this equals
    Tr(T).
    """
    G = rep.group
    vM = v.conj() @ rep.invariant_inner_product()
    nv = (vM @ v).real
    if abs(nv - 1) > 1e-8:
        raise ValueError("v must be a unit vector for the invariant form")
    acc = 0j
    for x in G.elements:
        Rx = rep.mat(x)
        Rxi = rep.mat(G.inv(x))
        acc += vM @ (Rx @ T @ Rxi @ v)
    return complex(acc * rep.dim / G.order)


def trace_via_coset_sum(gamma, e_idem: FinHeckeElt,
                        ind: InducedRep) -> complex:
    """Trace of the idempotent-cut subrepresentation at gamma, evaluated
    through the coset sum

        (1/lam1) (dim pi_e / dim sigma) (|H|/|G|)
            * sum over H\\G of [Tr e](x gamma x^-1).

    Hypotheses are checked, not assumed: the cut module is irreducible
    (character norm), e(x^-1) is the adjoint of e(x), and e(1) is a
    positive scalar lam1.  The first two, and dim pi_e, do not depend on
    gamma: they are computed on the first call for each (e_idem, ind)
    pair and kept on `ind`.  The label positions of the x gamma x^-1 do
    not depend on e_idem: they are kept per gamma on the coset data, and
    every e_idem sums its coefficients at them in the same order.
    """
    G, H = e_idem.group, e_idem.sub
    lam1 = e_idem.at_identity()
    if abs(complex(lam1).imag) > 1e-9 or complex(lam1).real <= 0:
        raise ValueError("e(1) must be a positive scalar")
    dim_pi = _cut_dimension(e_idem, ind)
    labels = _coset_data(G, H).conjugate_labels(gamma)
    coeffs = e_idem.coefficients()
    acc = sum(coeffs[k] for k in labels)
    scale = Fraction(dim_pi) * Fraction(H.order, G.order)
    if isinstance(lam1, Fraction) and isinstance(acc, Fraction):
        return scale / lam1 * acc
    return complex(scale) / complex(lam1) * complex(acc)


def _cut_dimension(e_idem: FinHeckeElt, ind: InducedRep) -> int:
    """dim pi_e after checking adjointness, once per Bruhat label
    (`_adjoint`), and irreducibility; cached on `ind` per e_idem.  e_idem
    must live on ind's group and Borel."""
    got = ind._cut_dims.get(e_idem)
    if got is not None:
        return got
    if not _adjoint(e_idem, ind):
        raise ValueError("e(x^-1) is not the adjoint of e(x)")
    E = ind.hecke_operator(e_idem)
    dim_pi = int(round(np.trace(E).real))
    norm = values_norm(ind.group, ind.class_traces(E))
    if abs(norm - 1) > 1e-6:
        raise ValueError("pi_e is not irreducible")
    ind._cut_dims[e_idem] = dim_pi
    return dim_pi


def char_generalized_trivial(gamma, e: int, q: int, chi: MultChar):
    """Full-group conjugation sum of Tr e_tau, class-bucketed: the
    centralizer order times the sum of e_tau over gamma's class, read at
    the class's label positions (`G.class_labels`) in class order."""
    G = gl_group(e, q)
    coeffs = e_tau(e, q, chi).coefficients()
    labels = G.class_labels[G.class_index(gamma)]
    centralizer = G.order // len(labels)
    acc = 0
    for k in labels:
        acc += coeffs[k]
    return centralizer * acc


# ---------------------------------------------------------------------------
# Steinberg characters and the sign identity

@dataclass
class ClassFunction:
    group: MatrixGroup
    values: list  # indexed by class

    def at(self, g):
        return self.values[self.group.class_index(g)]


def parabolic_induction_character(e: int, q: int, nodes) -> ClassFunction:
    """Character of Ind_{P_T}^G 1 by fixed-point counting on P_T\\G: at
    each class representative gamma, the number of cosets P t fixed by
    gamma, P t gamma = P t, which is t gamma t^-1 in P (Carter, *Finite
    Groups of Lie Type*, Ch. 2).  The products t gamma for every
    representative t and every class representative gamma are the class
    table of `_coset_data(G, P_T)`.  The full type's
    P_S is G itself, `gl_group(e, q)`: one coset, not a second
    enumeration of G."""
    G = gl_group(e, q)
    spec = SubgroupSpec.parahoric_image(frozenset(nodes), e)
    P = G if spec == G.spec else subgroup(e, q, spec)
    data = _coset_data(G, P)
    j, _ = data.class_table
    fixed = j == np.arange(len(data.codes))[:, None]
    return ClassFunction(G, [Fraction(int(c)) for c in fixed.sum(axis=0)])


@lru_cache(maxsize=None)
def _steinberg_base(e: int, q: int) -> tuple:
    """(values, dets): the alternating sum over T of the parabolic
    induction characters, and det, at each class representative."""
    G = gl_group(e, q)
    total = [Fraction(0)] * len(G.conjugacy_classes())
    for r in range(e):
        for nodes in itertools.combinations(range(1, e), r):
            sign = (-1) ** len(nodes)
            part = parabolic_induction_character(e, q, nodes)
            total = [t + sign * v for t, v in zip(total, part.values)]
    F = get_field(q)
    return tuple(total), tuple(finglq.mat_det(F, g) for g in G.class_reps())


@lru_cache(maxsize=None)
def steinberg_char(e: int, q: int, chi: MultChar) -> ClassFunction:
    """Generalized Steinberg character: the alternating sum of parabolic
    inductions, twisted by chi∘det.  Built once per (e, q, chi), as
    `e_tau` and `induce` are, so the sign identity reads it instead of
    building it again at every class."""
    base, dets = _steinberg_base(e, q)
    return ClassFunction(gl_group(e, q),
                         [chi(d) * b for b, d in zip(base, dets)])


def sign_identity_deviation(gamma, e: int, q: int, chi: MultChar) -> float:
    """|Tr tau(gamma) - (-1)^(e-1) Tr St(gamma)| at an elliptic regular
    gamma: the finite form of the character formula, written out only
    here."""
    G = gl_group(e, q)
    if gamma not in G or G.class_index(gamma) not in G.elliptic_classes:
        raise ValueError("gamma is not elliptic regular")
    lhs = char_generalized_trivial(gamma, e, q, chi)
    rhs = (-1) ** (e - 1) * steinberg_char(e, q, chi).at(gamma)
    return abs(complex(lhs) - complex(rhs))


SIGN_IDENTITY_TOL = 1e-8


def alvis_curtis_sign_check(gamma, e: int, q: int, chi: MultChar) -> bool:
    """Tr tau(gamma) = (-1)^(e-1) Tr St(gamma) on elliptic regular gamma."""
    return sign_identity_deviation(gamma, e, q, chi) <= SIGN_IDENTITY_TOL


def elliptic_regular_class_reps(e: int, q: int) -> list:
    G = gl_group(e, q)
    reps = G.class_reps()
    return [reps[c] for c in sorted(G.elliptic_classes)]


# ---------------------------------------------------------------------------
# intertwining algebra of a general scalar sigma, and the module-action
# transport identity

def double_coset_basis(G: MatrixGroup, H: MatrixGroup, sigma) -> list[dict]:
    """Basis of the functions f with f(h1 g h2) = sigma(h1) f(g) sigma(h2):
    one dict g -> value per double coset where the extension is consistent.

    The products h1 d h2 of a double coset H d H are one `_product_table`
    of the h1 d against H, read with h1 outer and h2 inner, so each dict
    keeps that insertion order."""
    sig = [sigma(h) for h in H.elements]
    h_codes = H.codes
    seen = np.zeros(G.order, dtype=bool)
    basis = []
    for k, d in enumerate(G.elements):
        if seen[k]:
            continue
        at = _product_table(
            G, _mul_codes(G.field_, d, h_codes, left=False), h_codes)
        values: dict = {}
        consistent = True
        for s1, row in zip(sig, at.tolist()):
            for s2, g in zip(sig, row):
                val = s1 * s2
                prev = values.get(g)
                if prev is None:
                    values[g] = val
                elif abs(complex(prev) - complex(val)) > 1e-12:
                    consistent = False
        seen[list(values)] = True
        if consistent:
            basis.append({G.elements[g]: v for g, v in values.items()})
    return basis


def hom_space(ind: InducedRep) -> np.ndarray:
    """Basis (columns) of Hom_H(sigma, Ind sigma) = the sigma-eigenvectors."""
    H, d = ind.sub, ind.dim
    # the blocks rho(h) - sigma(h) 1 stacked, rho(h) built one at a time
    A = np.empty((H.order * d, d), dtype=complex)
    for k, h in enumerate(H.elements):
        A[k * d:(k + 1) * d] = ind.mat(h) - complex(ind.sigma(h)) * np.eye(d)
    _, s, vh = np.linalg.svd(A)
    null_mask = s < 1e-9  # len(s) = ind.dim since A has >= dim rows
    basis = vh.conj().T[:, null_mask]
    if basis.shape[1] == 0:
        raise ValueError("sigma does not occur in the induced module")
    return basis


def _transport_action(ind: InducedRep, phi_vec: np.ndarray,
                      f: dict) -> np.ndarray:
    """phi . f computed through the Frobenius maps: Psi(Phi(phi) ∘ f_*)."""
    G, H = ind.group, ind.sub
    # f * T_1 at r_i: the sum over h in H of f(r_i h^-1) sigma(h), with
    # the products r_i h^-1 formed once for every (i, h)
    ft = np.zeros(ind.dim, dtype=complex)
    for i, row in enumerate(ind._cosets.transport_table):
        acc = 0j
        for k, sig in zip(row, ind.sigma_values):
            v = f.get(G.elements[k], 0)
            if v != 0:
                acc += complex(v) * sig
        ft[i] = acc
    # Phi(phi) applied to (f * T_1): (1/|H|) sum_x F(x^-1) pi(x) phi_vec
    out = np.zeros(ind.dim, dtype=complex)
    for x in G.elements:
        val = ind.value_at(ft, G.inv(x))
        if val != 0:
            out += val * (ind.mat(x) @ phi_vec)
    return out / H.order


def _direct_action(ind: InducedRep, phi_vec: np.ndarray,
                   f: dict) -> np.ndarray:
    """The displayed sum: phi . f = sum_x f(x^-1) pi(x) phi_vec."""
    G = ind.group
    out = np.zeros(ind.dim, dtype=complex)
    for x, v in f.items():
        if v != 0:
            out += complex(v) * (ind.mat(G.inv(x)) @ phi_vec)
    return out


TRANSPORT_TRIALS = 20  # random (phi, f) pairs per transport check


def frobenius_transport_check(G: MatrixGroup, H: MatrixGroup, sigma) -> float:
    """Max deviation between the transported and displayed module actions
    over TRANSPORT_TRIALS random (phi, f) pairs, and of both actions of the
    unit from the identity; the caller compares it with its tolerance."""
    ind = InducedRep(G, H, sigma)
    # every trial reads rho(x) at all of G; this module is the check's
    # own, so it reads them from one dict, freed when the check returns
    ind.mat = {x: ind.mat(x) for x in G.elements}.__getitem__
    homs = hom_space(ind)
    basis = double_coset_basis(G, H, sigma)
    rng = random.Random(0)
    # unit = (1/|H|) sigma on H must act as the identity
    unit = {h: Fraction(1, H.order) * sigma(h) for h in H.elements}
    worst = 0.0
    phi0 = homs[:, 0]
    ua = _direct_action(ind, phi0, unit)
    worst = max(worst, float(np.max(np.abs(ua - phi0))))
    ta = _transport_action(ind, phi0, unit)
    worst = max(worst, float(np.max(np.abs(ta - phi0))))
    for _ in range(TRANSPORT_TRIALS):
        coeffs = [rng.randint(-3, 3) for _ in range(homs.shape[1])]
        phi = sum(c * homs[:, i] for i, c in enumerate(coeffs))
        if np.max(np.abs(phi)) < 1e-12:
            phi = homs[:, 0]
        f: dict = {}  # keys in basis order: it fixes the float sums
        for b in basis:
            c = rng.randint(-3, 3)
            for g, v in b.items():
                f[g] = f.get(g, 0) + c * v
        lhs = _transport_action(ind, phi, f)
        rhs = _direct_action(ind, phi, f)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def torus_character(q: int, ks) -> object:
    """Character of B/U given by componentwise characters of the diagonal."""
    chars = [MultChar(q, k) for k in ks]

    def sig(b):
        acc = None
        for i, chi in enumerate(chars):
            v = chi(b[i][i])
            acc = v if acc is None else acc * v
        return acc

    return sig
