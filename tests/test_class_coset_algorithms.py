"""The class, coset and elimination algorithms of `finglq` and `repth`
against their whole-group reference implementations, and against closed
forms that do not depend on either."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hecke_forge import finglq, hecke, repth, verify
from hecke_forge.finglq import (
    GroupSizeError, MultChar, SubgroupSpec, all_characters, enumerate_group,
    blocks_from_type, get_field, gl_group, gl_order, MAX_GROUP_ORDER, mat_mul,
    perm_matrix, subgroup,
)
from hecke_forge.weyl import all_perms, poincare_poly
from test_finglq import ENUMERABLE
from test_repth import convolve, values_of

ROOT = Path(__file__).resolve().parent.parent
SMALL = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]
SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


# --- reference implementations: sums and scans over the whole group ------------

def ref_gl_elements(n, q):
    """Every n x n matrix over F_q in `itertools.product` order, kept when
    its determinant is nonzero: q^(n^2) determinants."""
    F = get_field(q)
    out = []
    for flat in itertools.product(range(q), repeat=n * n):
        g = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        if finglq.mat_det(F, g) != 0:
            out.append(g)
    return out


def ref_finite_hecke_basis(e, q, chi):
    """The fbar_w as dicts g -> value, one Fraction or complex product per
    element."""
    B = subgroup(e, q, SubgroupSpec.borel())
    norm = Fraction(1, B.order)
    per_cell = {w: {} for w in all_perms(e)}
    for g, (w, v) in finglq.bruhat_decomposition(e, q).items():
        per_cell[w][g] = norm * chi(v)
    return [per_cell[w] for w in all_perms(e)]


def ref_e_tau(e, q, chi):
    """The sum of the scaled basis as a dict g -> value: each term scaled
    element by element, and each after the first added key by key."""
    p_inv = Fraction(1, int(poincare_poly(e)(q)))
    out = None
    for w, b in zip(all_perms(e), ref_finite_hecke_basis(e, q, chi)):
        c = p_inv * repth.basis_sign(chi, w)
        term = {g: c * v for g, v in b.items()}
        if out is None:
            out = term
            continue
        for g, v in term.items():
            out[g] = out.get(g, 0) + v
    return out


def ref_conjugacy_classes(G):
    """Every class as {x g x^-1 : x in G}, one full scan per class."""
    classes, seen = [], set()
    for g in G.elements:
        if g in seen:
            continue
        orbit = sorted({G.mul(G.mul(x, g), G.inv(x)) for x in G.elements})
        classes.append(orbit)
        seen.update(orbit)
    return classes


def ref_bruhat_decomposition(e, q):
    """Every product b1 w b2 over B x W x B: |B|^2 * e! products."""
    F = get_field(q)
    B = subgroup(e, q, SubgroupSpec.borel())
    out = {}
    b_data = [(b, finglq.diag_product(F, b)) for b in B.elements]
    for w in itertools.permutations(range(e)):
        wm = perm_matrix(e, w)
        for b1, v1 in b_data:
            left = mat_mul(F, b1, wm)
            for b2, v2 in b_data:
                g = mat_mul(F, left, b2)
                if g not in out:
                    out[g] = (w, F.mul(v1, v2))
    assert len(out) == gl_order(e, q), "Bruhat cells do not cover the group"
    return out


def multiplier(F, s, left):
    """The map g -> s g (left) or g -> g s (right) on one tuple matrix.

    When s is elementary_mat(n, r, c, x) the map is one row operation on
    row r (left) or one column operation on column c (right): scaling by
    x when r = c, else adding x times row c (column r).  When s is a
    permutation matrix the map reorders the rows (left) or the columns
    (right).  Any other s falls back on `mat_mul`."""
    n = len(s)
    off = [(i, j) for i in range(n) for j in range(n)
           if s[i][j] != int(i == j)]
    if len(off) != 1:
        # column j of a permutation matrix has its 1 in row w[j]
        unit = [0] * (n - 1) + [1]
        w = [col.index(1) for col in zip(*s) if sorted(col) == unit]
        if sorted(w) == list(range(n)):
            if left:  # row w[j] of s g is row j of g
                src = [w.index(i) for i in range(n)]
                return lambda g: tuple([g[j] for j in src])
            # column j of g s is column w[j] of g
            return lambda g: tuple([tuple([row[k] for k in w]) for row in g])
        if left:
            return lambda g: mat_mul(F, s, g)
        return lambda g: mat_mul(F, g, s)
    ((r, c),) = off
    add, times_x = F._add, F._mul[s[r][c]]
    if left and r == c:
        return lambda g: (g[:r] + (tuple([times_x[a] for a in g[r]]),)
                          + g[r + 1:])
    if left:
        return lambda g: (g[:r] + (tuple([add[a][times_x[b]]
                                          for a, b in zip(g[r], g[c])]),)
                          + g[r + 1:])
    if r == c:
        return lambda g: tuple([row[:c] + (times_x[row[c]],) + row[c + 1:]
                                for row in g])
    return lambda g: tuple([row[:c] + (add[row[c]][times_x[row[r]]],)
                            + row[c + 1:] for row in g])


def bruhat_cell(F, g):
    """(w, v) for one g.  For each column j, pivot on the lowest nonzero
    entry in a row not yet used; clear the pivot's row to the right with
    column operations and its column above with row operations.  Used
    rows are zero right of their pivot, so the pivot row is the lowest
    nonzero entry of the column and the operations stay unitriangular."""
    n = len(g)
    m = [list(row) for row in g]
    mul_, sub, inv = F.mul, F.sub, F.inv
    w = [0] * n
    v = 1
    for j in range(n):
        r = next(i for i in range(n - 1, -1, -1) if m[i][j])
        p = m[r][j]
        w[j] = r
        v = mul_(v, p)
        p_inv = inv(p)
        for k in range(j + 1, n):
            c = m[r][k]
            if c:
                f = mul_(c, p_inv)
                for i in range(n):
                    m[i][k] = sub(m[i][k], mul_(f, m[i][j]))
        for i in range(r):
            m[i][j] = 0
    return tuple(w), v


def ref_elementwise_bruhat(e, q):
    """`bruhat_cell` at every g of GL(e, q), in the order of `elements`,
    one tuple per label."""
    F, labels, out = get_field(q), {}, {}
    for g in gl_group(e, q).elements:
        label = bruhat_cell(F, g)
        out[g] = labels.setdefault(label, label)
    return out


def ref_elementwise_classes(G):
    """Classes by breadth-first search under conjugation by
    `G.generators()`, one `multiplier` pair per generator applied to one
    tuple matrix at a time; each class sorted, holding the objects of
    `elements`.  Returns the classes and g -> class index."""
    F = G.field_
    pairs = [(multiplier(F, s, left=True),
              multiplier(F, G.inv(s), left=False))
             for s in G.generators()]
    classes, class_of = [], {}
    for g in G.elements:
        if g in class_of:
            continue
        idx = len(classes)
        class_of[g] = idx
        orbit = [g]
        for y in orbit:
            for left, right in pairs:
                z = right(left(y))
                if z not in class_of:
                    z = G.elements[G.index(z)]
                    class_of[z] = idx
                    orbit.append(z)
        classes.append(sorted(orbit))
    return classes, class_of


def ref_intertwining_dimension(e, q, chi):
    """<chi_Ind, chi_Ind> summed over every element of G."""
    ind = repth.induce(e, q, chi).char_value
    G = gl_group(e, q)
    val = sum(abs(complex(ind(g))) ** 2 for g in G.elements) / G.order
    out = round(val)
    assert abs(val - out) <= 1e-6
    return out


def ref_fixed_diagonals(e, q, w):
    """N[a, c]: the number of pairs (b, r) of b in the enumerated Borel B
    and a normal form r of `finglq.borel_flags(e, q)` in the cell of w,
    with r b r^-1 in B, d(b) = a and d(r b r^-1) = c, d the diagonal
    product.  The |B| q^l(w) products r b r^-1 are formed at once."""
    flags = finglq.borel_flags(e, q)
    B = repth.borel(e, q)
    F = B.field_
    keep = np.array([cell == w for cell in flags.cells])
    conj = finglq._mul_pairs(
        F, finglq._mul_pairs(F, flags.codes[keep][:, None], B.codes[None]),
        flags.inv_codes[keep][:, None])
    fixed = ~np.tril(conj, -1).any(axis=(2, 3))  # r b r^-1 in B
    a = np.broadcast_to(ref_diag_products(F, B.codes), fixed.shape)[fixed]
    c = ref_diag_products(F, conj)[fixed]
    return np.bincount(a.astype(np.int64) * q + c,
                       minlength=q * q).reshape(q, q)


def ref_diag_products(F, codes):
    """The product of the diagonal entries of each matrix of a code
    array."""
    out = codes[..., 0, 0]
    for k in range(1, codes.shape[-1]):
        out = F.mul_arr[out, codes[..., k, k]]
    return out


def ref_convolution_oracle(e, q):
    """Structure constants of the normalized cell indicators from counts:
    for x in each cell C_{w1}, the cell of x^-1 w3 decides which
    constants at w3 it adds 1/|B| to.  |G| * e! products."""
    G = gl_group(e, q)
    B = subgroup(e, q, SubgroupSpec.borel())
    label = {g: wv[0] for g, wv in finglq.bruhat_decomposition(e, q).items()}
    perms = all_perms(e)
    cells = {w: [] for w in perms}
    for g, w in label.items():
        cells[w].append(g)
    consts = {}
    for w1 in perms:
        inv_c1 = [G.inv(x) for x in cells[w1]]
        for w3 in perms:
            wm3 = perm_matrix(e, w3)
            counts = {w: 0 for w in perms}
            for xi in inv_c1:
                counts[label[G.mul(xi, wm3)]] += 1
            for w2 in perms:
                consts[(w1, w2, w3)] = Fraction(counts[w2], B.order)
    return consts


def ref_parabolic_induction_values(e, q, nodes):
    """#{x in G : x^-1 gamma x in P} / |P| at every class representative."""
    G = gl_group(e, q)
    P = subgroup(e, q, SubgroupSpec.standard_parabolic(
        blocks_from_type(nodes, e)))
    p_set = set(P.elements)
    values = []
    for cls in G.conjugacy_classes():
        gamma = cls[0]
        count = sum(1 for x in G.elements
                    if G.mul(G.mul(G.inv(x), gamma), x) in p_set)
        values.append(Fraction(count, P.order))
    return values


def ref_coset_data(G, H):
    """Right cosets H g by a scan over [identity] + G.elements: each element
    not yet reached starts a coset, and all |H| products h g are formed.
    Returns the transversal and g -> (i, h) with g = h * transversal[i],
    keyed by the objects of G.elements."""
    coset_of, transversal = {}, []
    for g in [G.elements[G.index(G.identity)]] + G.elements:
        if g in coset_of:
            continue
        i = len(transversal)
        transversal.append(g)
        for h in H.elements:
            coset_of[G.elements[G.index(G.mul(h, g))]] = (i, h)
    return transversal, coset_of


def ref_parabolic_fixed_points(e, q, nodes):
    """Ind_{P_T}^G 1 at every class representative gamma: the first element
    t of each coset P t in the order of G.elements, and the number of t
    with t gamma t^-1 in the set of P's elements."""
    G = gl_group(e, q)
    P = subgroup(e, q, SubgroupSpec.standard_parabolic(
        blocks_from_type(nodes, e)))
    p_set = set(P.elements)
    seen, pairs = set(), []
    for g in G.elements:
        if g not in seen:
            pairs.append((g, G.inv(g)))
            seen.update(G.mul(h, g) for h in P.elements)
    return [Fraction(sum(1 for t, t_inv in pairs
                         if G.mul(G.mul(t, gamma), t_inv) in p_set))
            for gamma in G.class_reps()]


def ref_induced_mat(ind, ref, y):
    """rho(y) of an `InducedRep` from the scan's g -> (i, h): one product
    r_i y per row."""
    G, (transversal, coset_of) = ind.group, ref
    m = np.zeros((ind.dim, ind.dim), dtype=complex)
    for i, r in enumerate(transversal):
        j, h = coset_of[G.mul(r, y)]
        m[i, j] = complex(ind.sigma(h))
    return m


def ref_translates(ind, y):
    """(j, h): r_i y = H.elements[h[i]] r_j[i] for every i, the products
    r_i y of this one y formed on the code array of the r_i (`_mul_codes`)
    and located in G: the per-element route the translate table
    replaced."""
    data, G = ind._cosets, ind.group
    at = G._indices(finglq._mul_codes(G.field_, y, data.codes, left=False))
    return data.coset[at], data.h[at]


def ref_translates_mat(ind, y):
    """rho(y) from `ref_translates`, filled as the module filled it."""
    j, h = ref_translates(ind, y)
    m = np.zeros((ind.dim, ind.dim), dtype=complex)
    m[np.arange(ind.dim), j] = [ind.sigma_values[k] for k in h.tolist()]
    return m


def ref_induced_char_value(ind, ref, y):
    G, (transversal, coset_of) = ind.group, ref
    acc = 0j
    for i, r in enumerate(transversal):
        j, h = coset_of[G.mul(r, y)]
        if j == i:
            acc += complex(ind.sigma(h))
    return acc


def ref_transversal_hecke_operator(ind, transversal, phi):
    """m[i, j] = |H| phi(r_i r_j^-1), one product per entry."""
    G, n = ind.group, len(transversal)
    m = np.zeros((n, n), dtype=complex)
    for i, ri in enumerate(transversal):
        for j, rj in enumerate(transversal):
            m[i, j] = complex(ind.sub.order * phi(G.mul(ri, G.inv(rj))))
    return m


def ref_convolve_at(a, b, transversal, g):
    """(a * b)(g) = |H| * sum over r of a(g r^-1) b(r), one product per
    coset in the support of b."""
    G = a.group
    acc = Fraction(0)
    for r in transversal:
        vr = b(r)
        if vr != 0:
            acc += a(G.mul(g, G.inv(r))) * vr
    return a.sub.order * acc


def ref_trace_via_coset_sum(gamma, e_idem, ind, transversal):
    """`trace_via_coset_sum` with one pair of products x gamma x^-1 per
    coset and dim pi_e from the reference operator; its hypotheses are
    left to the function itself."""
    G, H = e_idem.group, e_idem.sub
    lam1 = e_idem(G.identity)
    E = ref_transversal_hecke_operator(ind, transversal, e_idem)
    dim_pi = int(round(np.trace(E).real))
    acc = sum(e_idem(G.mul(G.mul(x, gamma), G.inv(x))) for x in transversal)
    scale = Fraction(dim_pi) * Fraction(H.order, G.order)
    if isinstance(lam1, Fraction) and isinstance(acc, Fraction):
        return scale / lam1 * acc
    return complex(scale) / complex(lam1) * complex(acc)


def ref_hecke_operator(ind, phis):
    """The matrices of f -> phi * f for each phi in `phis`, each entry the
    |H|-fold sum over h in H of phi(r_i r_j^-1 h^-1) sigma(h).  The
    products r_i r_j^-1 h^-1 are formed once and shared by every phi."""
    G, H = ind.group, ind.sub
    n = ind.dim
    h_data = [(G.inv(h), complex(ind.sigma(h))) for h in H.elements]
    mats = [np.zeros((n, n), dtype=complex) for _ in phis]
    for i, ri in enumerate(ind.transversal):
        for j, rj in enumerate(ind.transversal):
            base = G.mul(ri, G.inv(rj))
            for h_inv, sig in h_data:
                g = G.mul(base, h_inv)
                for m, phi in zip(mats, phis):
                    v = phi(g)
                    if v != 0:
                        m[i, j] += complex(v) * sig
    return mats


def ref_right_equivariant(ind, phi):
    """phi(g s) = phi(g) sigma(s) at every g in G and every s in
    `H.generators()`, sigma = ind.sigma: exactly when phi and sigma take
    Fraction values, else within 1e-10.  |G| * |S| evaluations."""
    G, H = ind.group, ind.sub
    values = values_of(phi)
    gens = [(multiplier(G.field_, s, left=False), ind.sigma(s))
            for s in H.generators()]
    exact = (all(isinstance(v, Fraction) for v in values.values())
             and all(isinstance(sig, Fraction) for _, sig in gens))
    for right, sig in gens:
        for g in G.elements:
            lhs, rhs = values.get(right(g), 0), values.get(g, 0) * sig
            if (lhs != rhs if exact
                    else abs(complex(lhs) - complex(rhs)) > 1e-10):
                return False
    return True


def ref_adjoint(phi):
    """phi(x^-1) = conj phi(x) at every x in G, within 1e-9: |G| inverses."""
    G = phi.group
    values = values_of(phi)
    return all(abs(complex(values.get(G.inv(x), 0))
                   - complex(values.get(x, 0)).conjugate()) <= 1e-9
               for x in G.elements)


def all_types(e):
    return [nodes for r in range(e)
            for nodes in itertools.combinations(range(1, e), r)]


def compare_with_reference(e, q):
    G = gl_group(e, q)
    assert G.conjugacy_classes() == ref_conjugacy_classes(G)
    assert finglq.bruhat_decomposition(e, q) == ref_bruhat_decomposition(e, q)
    for chi in all_characters(q):
        assert (repth.intertwining_dimension(e, q, chi)
                == ref_intertwining_dimension(e, q, chi))
    for nodes in all_types(e):
        got = repth.parabolic_induction_character(e, q, nodes).values
        want = ref_parabolic_induction_values(e, q, nodes)
        assert got == want
        assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("e,q", SMALL)
def test_fast_routines_match_reference(e, q):
    compare_with_reference(e, q)


@pytest.mark.slow
def test_fast_routines_match_reference_33():
    compare_with_reference(3, 3)


def compare_hecke_operator(e, q, chi):
    ind = repth.induce(e, q, chi)
    phis = [repth.e_tau(e, q, chi)] + repth.finite_hecke_basis(e, q, chi)
    for phi, want in zip(phis, ref_hecke_operator(ind, phis)):
        assert np.max(np.abs(ind.hecke_operator(phi) - want)) <= 1e-12


@pytest.mark.parametrize("e,q", SMALL)
def test_hecke_operator_matches_reference(e, q):
    for chi in all_characters(q):
        compare_hecke_operator(e, q, chi)


@pytest.mark.slow
def test_hecke_operator_matches_reference_33():
    compare_hecke_operator(3, 3, MultChar(3, 0))


@pytest.mark.parametrize("e,q,k", [(2, 3, 0), (2, 3, 1), (2, 5, 1)])
def test_hecke_operator_rejects_non_equivariant(e, q, k):
    # e_tau changed at one label (w, v) with v != 1, off the permutation
    # matrices: the |H| phi(r_i r_j^-1) form would give a wrong operator,
    # so it raises
    chi = MultChar(q, k)
    et = repth.e_tau(e, q, chi)
    label = ((1, 0), get_field(q).generator)
    bad = with_label(et, label, 2 * et.labels[label])
    with pytest.raises(ValueError, match="equivariant"):
        repth.induce(e, q, chi).hecke_operator(bad)


def with_label(phi, label, value):
    """phi with the coefficient of one Bruhat label replaced."""
    return repth.FinHeckeElt(phi.group.n, phi.group.q,
                             {**phi.labels, label: value})


def inverse_label(w, v, F):
    return tuple(sorted(range(len(w)), key=w.__getitem__)), F.inv(v)


def equivariance_faults(e, q, et):
    """e_tau with the coefficient of one label (w, v), v != 1, doubled, for
    w the identity and the longest element.  None at q = 2: there F_q^x
    is trivial, B has no diagonal generator, and every function of w is
    equivariant."""
    ends = (all_perms(e)[0], all_perms(e)[-1])
    return [with_label(et, (w, v), 2 * et.labels[(w, v)])
            for w in ends for v in range(2, q)]


def adjointness_faults(e, q, et):
    """e_tau with one label changed, off the identity's label (id, 1), so
    e(1) stays a positive scalar: i added at (w0, 1), whose label is its
    own inverse's, and 1 added at the first label (w, v) that is not,
    where there is one."""
    F = get_field(q)
    perms = all_perms(e)
    w0 = perms[-1]
    out = [with_label(et, (w0, 1), et.labels[(w0, 1)] + 1j)]
    unpaired = [(w, v) for w in perms for v in range(1, q)
                if inverse_label(w, v, F) != (w, v)]
    if unpaired:
        out.append(with_label(et, unpaired[0], et.labels[unpaired[0]] + 1))
    return out


@pytest.mark.parametrize("e,q", SMALL)
def test_label_checks_match_element_wise_references(e, q):
    G = gl_group(e, q)
    for chi in all_characters(q):
        et = repth.e_tau(e, q, chi)
        ind = repth.induce(e, q, chi)
        assert ref_right_equivariant(ind, et)
        assert repth._right_equivariant(et, ind)
        assert ref_adjoint(et)
        assert repth._adjoint(et, ind)
        for bad in equivariance_faults(e, q, et):
            assert not ref_right_equivariant(ind, bad)
            assert not repth._right_equivariant(bad, ind)
            with pytest.raises(ValueError, match="equivariant"):
                ind.hecke_operator(bad)
        for bad in adjointness_faults(e, q, et):
            assert not ref_adjoint(bad)
            assert not repth._adjoint(bad, ind)
            with pytest.raises(ValueError, match="adjoint"):
                repth.trace_via_coset_sum(G.identity, bad, ind)
    assert (len(equivariance_faults(e, q, et)) > 0) == (q > 2)
    assert (len(adjointness_faults(e, q, et)) == 2) == (q > 3 or e > 2)


@pytest.mark.parametrize("e,q", [(2, 3), (2, 4), (2, 5)])
def test_equivariance_checks_every_diagonal_position(e, q):
    # sigma = chi_k1 x chi_k2 on the torus: e_tau for chi is equivariant
    # exactly when k1 = k2 = k, and only the diagonal generator at the
    # position of a k_i != k shows it when the other equals k
    G, B = gl_group(e, q), repth.borel(e, q)
    for chi in all_characters(q):
        et = repth.e_tau(e, q, chi)
        for ks in itertools.product(range(q - 1), repeat=2):
            ind = repth.InducedRep(G, B, repth.torus_character(q, ks))
            want = ks == (chi.k, chi.k)
            assert ref_right_equivariant(ind, et) == want, (chi.k, ks)
            assert repth._right_equivariant(et, ind) == want, (chi.k, ks)


def test_hypothesis_checks_take_only_elements_of_their_group():
    # an element of GL(2,2) handed to the checks of GL(2,3), and an
    # element of GL(2,3) handed to a module induced from all of GL(2,3)
    e, q = 2, 3
    chi = MultChar(q, 1)
    ind = repth.induce(e, q, chi)
    other = repth.e_tau(2, 2, MultChar(2, 0))
    G = gl_group(e, q)
    whole = repth.InducedRep(G, G, lambda g: 1)
    for call in (lambda: ind.hecke_operator(other),
                 lambda: repth._right_equivariant(other, ind),
                 lambda: repth._adjoint(other, ind),
                 lambda: repth._idempotency_holds(other, e, q),
                 lambda: whole.hecke_operator(repth.e_tau(e, q, chi))):
        with pytest.raises(ValueError, match="Bruhat label"):
            call()


def test_subgroup_classes_match_reference():
    # the Borel conjugates by its `_borel_generators`, the Levi by all of
    # its elements; both against conjugation by every element
    for spec in (SubgroupSpec.borel(), SubgroupSpec.levi((1, 2))):
        H = subgroup(3, 2, spec)
        assert H.conjugacy_classes() == ref_conjugacy_classes(H)


def compare_convolution_oracle(e, q):
    got = hecke.convolution_oracle(e, q)
    want = ref_convolution_oracle(e, q)
    assert got == want
    assert ({k: type(v) for k, v in got.items()}
            == {k: type(v) for k, v in want.items()})


@pytest.mark.parametrize("e,q", [
    pytest.param(e, q, marks=pytest.mark.slow) if (e, q) == (4, 2)
    else (e, q) for e, q in verify._gl_pairs(4, 9) if (e, q) != (3, 3)])
def test_convolution_oracle_matches_reference(e, q):
    # every pair `verify all --max-e 4 --max-q 9` runs the oracle at;
    # (3, 3) is the slow test below
    compare_convolution_oracle(e, q)


@pytest.mark.slow
def test_convolution_oracle_matches_reference_33():
    compare_convolution_oracle(3, 3)


@pytest.mark.parametrize("e,q", [(2, 3), (2, 5), (3, 2)])
def test_convolve_at_matches_full_convolution(e, q):
    perms = all_perms(e)
    pts = [perm_matrix(e, w) for w in perms]
    for chi in all_characters(q):
        basis = repth.finite_hecke_basis(e, q, chi)
        for a in basis:
            for b in basis:
                full = convolve(a, b)
                for pt in pts:
                    got, want = a.convolve_at(b, pt), full.get(pt, 0)
                    if chi.is_rational:
                        assert got == want
                    else:
                        assert abs(complex(got) - complex(want)) <= 1e-12


def test_convolution_oracle_makes_no_convolve_at_call(monkeypatch):
    calls = []
    real = repth.FinHeckeElt.convolve_at

    def counted(self, other, g):
        calls.append(g)
        return real(self, other, g)

    monkeypatch.setattr(repth.FinHeckeElt, "convolve_at", counted)
    for e, q in [(2, 3), (3, 2)]:
        hecke.convolution_oracle(e, q)
    assert calls == []


def test_convolve_at_fault_fails_oracle_and_idempotency(monkeypatch):
    # convolve_at off by 1/|B| at the identity: e_tau's idempotency check
    # reports `fail` records under its own name and params.  The oracle
    # counts cell pairs without calling convolve_at, so its records pass;
    # the fault below, at the pairs both read, fails both.
    real = repth.FinHeckeElt.convolve_at

    def wrong(self, other, g):
        got = real(self, other, g)
        if g == self.group.identity:
            got += Fraction(1, self.sub.order)
        return got

    monkeypatch.setattr(repth.FinHeckeElt, "convolve_at", wrong)
    # bypass the cache so e_tau runs its idempotency check again
    monkeypatch.setattr(repth, "e_tau", repth.e_tau.__wrapped__)
    records = verify.run_checks(
        verify.checks_named("check_hecke_oracle", "check_e_tau"), 2, 2)
    names = {r.name for r in records}
    assert names == {"hecke.oracle_equivalence", "repth.e_tau_idempotent_dim"}
    assert all(r.params for r in records), records
    assert all(r.status == ("pass" if r.name == "hecke.oracle_equivalence"
                            else "fail") for r in records), records


def test_label_pair_fault_fails_oracle_and_idempotency(monkeypatch):
    # the last normal form dropped from the (g r^-1, r) label pairs that
    # the oracle's cell count and convolve_at both read: both checks must
    # report `fail` records under their own names and params
    real = repth._flag_label_pairs
    monkeypatch.setattr(repth, "_flag_label_pairs",
                        lambda e, q, g: tuple(x[:-1] for x in real(e, q, g)))
    # bypass the cache so e_tau runs its idempotency check again
    monkeypatch.setattr(repth, "e_tau", repth.e_tau.__wrapped__)
    records = verify.run_checks(
        verify.checks_named("check_hecke_oracle", "check_e_tau"), 2, 2)
    names = {r.name for r in records}
    assert names == {"hecke.oracle_equivalence", "repth.e_tau_idempotent_dim"}
    assert all(r.status == "fail" and r.params for r in records), records


def shifted_convolve_at(monkeypatch):
    real = repth.FinHeckeElt.convolve_at

    def wrong(self, other, g):
        got = real(self, other, g)
        if g == self.group.identity:
            got += Fraction(1, self.sub.order)
        return got

    monkeypatch.setattr(repth.FinHeckeElt, "convolve_at", wrong)


def dropped_label_pair(monkeypatch):
    real = repth._flag_label_pairs
    monkeypatch.setattr(repth, "_flag_label_pairs",
                        lambda e, q, g: tuple(x[:-1] for x in real(e, q, g)))


@pytest.mark.parametrize("fault", [shifted_convolve_at, dropped_label_pair],
                         ids=["convolve_at", "label_pairs"])
def test_e_tau_faults_fail_after_a_warm_run(monkeypatch, fault):
    # the label reads kept from a clean run do not hide a later fault:
    # run_checks reads them again
    checks = verify.checks_named("check_hecke_oracle", "check_e_tau")
    assert all(r.status == "pass" for r in verify.run_checks(checks, 2, 2))
    # the oracle does not call convolve_at, so that fault leaves it passing
    oracle = "pass" if fault is shifted_convolve_at else "fail"
    fault(monkeypatch)
    monkeypatch.setattr(repth, "e_tau", repth.e_tau.__wrapped__)
    records = verify.run_checks(checks, 2, 2)
    assert {r.name for r in records} == {"hecke.oracle_equivalence",
                                         "repth.e_tau_idempotent_dim"}
    assert all(r.params and r.status == (
        oracle if r.name == "hecke.oracle_equivalence" else "fail")
        for r in records), records


def dropped_cell(monkeypatch):
    # one double coset left out of the commutant dimension
    monkeypatch.setattr(repth, "intertwining_dimension",
                        lambda e, q, chi: len(all_perms(e)) - 1)


def cell_weighted_by_length(monkeypatch):
    # each cell weighted by its q^l(w) normal forms in place of q^N: the
    # dimension p_e(q)/q^N, not an integer
    monkeypatch.setattr(repth, "intertwining_dimension", lambda e, q, chi:
                        poincare_poly(e)(q) / q ** (e * (e - 1) // 2))


@pytest.mark.parametrize("fault", [dropped_cell, cell_weighted_by_length],
                         ids=["dropped_cell", "length_weight"])
def test_cell_count_faults_fail_oracle_and_e_tau(monkeypatch, fault):
    # a wrong commutant count makes finite_hecke_basis raise, so both
    # checks that build the basis write `fail` records under their own
    # names and params, at every pair
    fault(monkeypatch)
    for e, q in verify._gl_pairs(3, 3):
        with pytest.raises(ValueError, match="intertwining dimension"):
            repth.finite_hecke_basis.__wrapped__(e, q, MultChar(q, 0))
    # bypass the caches so the basis is checked again
    monkeypatch.setattr(repth, "finite_hecke_basis",
                        repth.finite_hecke_basis.__wrapped__)
    monkeypatch.setattr(repth, "e_tau", repth.e_tau.__wrapped__)
    records = verify.run_checks(
        verify.checks_named("check_hecke_oracle", "check_e_tau"), 3, 3)
    assert {r.name for r in records} == {"hecke.oracle_equivalence",
                                         "repth.e_tau_idempotent_dim"}
    assert {(r.params["e"], r.params["q"]) for r in records} \
        == set(verify._gl_pairs(3, 3))
    assert all(r.status == "fail" for r in records), records


def test_e_tau_reads_the_cell_labels_once_per_pair(monkeypatch):
    # every chi's idempotency check reads the labels at the same e!
    # permutation matrices: one elimination per matrix and (e, q), and
    # the oracle reads the same ones
    calls = []
    real = finglq.label_positions

    def counted(q, codes):
        calls.append(len(codes))
        return real(q, codes)

    finglq.borel_flags(2, 5)  # its own label check is one more read
    monkeypatch.setattr(finglq, "label_positions", counted)
    monkeypatch.setattr(repth, "e_tau", repth.e_tau.__wrapped__)
    verify._clear_run_caches()
    try:
        for chi in all_characters(5):
            repth.e_tau(2, 5, chi)
        assert calls == [finglq.borel_flags(2, 5).codes.shape[0]] * 2
        assert hecke.oracle_matches_t_mul(2, 5)
        assert len(calls) == 2
    finally:
        verify._clear_run_caches()


@pytest.mark.parametrize("e,q", [
    pytest.param(n, q, marks=pytest.mark.slow) if gl_order(n, q) > 15000
    else (n, q) for n, q in ENUMERABLE])
def test_label_index_reads_match_dict_reads(e, q):
    # the label index kept on the group, and a function of the label read
    # through it, agree with the dict of `bruhat_decomposition` at every g
    G = gl_group(e, q)
    dec = finglq.bruhat_decomposition(e, q)
    labels, at = G.bruhat_index
    assert len(labels) == len(set(dec.values()))
    assert all(labels[k] is dec[g] for g, k in zip(G.elements, at.tolist()))
    phi = repth.FinHeckeElt(e, q, {label: Fraction(i + 1, 7)
                                   for i, label in enumerate(labels[::-1])})
    coeffs = phi.coefficients()
    assert [coeffs[k] for k in at.tolist()] == [phi(g) for g in G.elements]


@pytest.mark.parametrize("n,q", ENUMERABLE)
def test_enumeration_matches_reference(n, q):
    # the same list, order included: G.elements fixes every later order
    assert enumerate_group(n, q, SubgroupSpec.full()) == ref_gl_elements(n, q)


@pytest.mark.parametrize("n,q", [(2, 5), (3, 2), (3, 3)])
def test_block_subgroups_match_reference(n, q):
    # the diagonal blocks come from the same enumerator as GL(b, q)
    for blocks in finglq._compositions(n):
        diag = [ref_gl_elements(b, q) for b in blocks]
        for spec, free_above in ((SubgroupSpec.standard_parabolic(blocks),
                                  True),
                                 (SubgroupSpec.levi(blocks), False)):
            want = list(finglq._enumerate_block_upper(
                n, q, blocks, diag, free_above))
            assert enumerate_group(n, q, spec) == want
    want = list(finglq._enumerate_block_upper(
        n, q, (1,) * n, [ref_gl_elements(1, q)] * n, True))
    assert enumerate_group(n, q, SubgroupSpec.borel()) == want


def assert_same_values(got, want):
    """got's |G|-sized view has want's keys in the same order, and equal
    values of the same type and repr (so a zero keeps its sign)."""
    view = values_of(got)
    assert list(view) == list(want)
    pairs = list(zip(view.values(), want.values()))
    assert all(type(a) is type(b) and a == b and repr(a) == repr(b)
               for a, b in pairs)


@pytest.mark.parametrize("e,q", SMALL + [(3, 3)])
def test_label_tables_match_reference(e, q):
    for chi in all_characters(q):
        basis = repth.finite_hecke_basis(e, q, chi)
        want = ref_finite_hecke_basis(e, q, chi)
        assert len(basis) == len(want)
        for got_w, want_w in zip(basis, want):
            assert_same_values(got_w, want_w)
        et = repth.e_tau(e, q, chi)
        assert_same_values(et, ref_e_tau(e, q, chi))


# --- closed forms ----------------------------------------------------------------

def under_cap():
    return [(n, q) for n in range(1, 5) for q in SUPPORTED_Q
            if gl_order(n, q) <= MAX_GROUP_ORDER]


def class_number(n, q):
    """Number of conjugacy classes of GL(n, q), n <= 4 (Green 1955)."""
    return {1: q - 1, 2: q ** 2 - 1, 3: q ** 3 - q, 4: q ** 4 - q}[n]


def slow_if_large(pairs, limit=15000):
    return [pytest.param(n, q, marks=pytest.mark.slow)
            if gl_order(n, q) > limit else (n, q) for n, q in pairs]


@pytest.mark.parametrize("n,q", slow_if_large(under_cap()))
def test_class_number_closed_form(n, q):
    G = gl_group(n, q)
    classes = G.conjugacy_classes()
    assert len(classes) == class_number(n, q)
    assert sum(len(c) for c in classes) == G.order
    assert all(G.class_index(g) == i
               for i, c in enumerate(classes) for g in c)


@pytest.mark.parametrize("n,q", slow_if_large(under_cap()))
def test_conjugation_generators_generate(n, q):
    # the generating set of full GL(n, q), by which its classes conjugate
    G = gl_group(n, q)
    gens = G.generators()
    assert len(gens) == 2 * (n >= 2) + (q > 2)
    reached = {G.identity}
    queue = [G.identity]
    for x in queue:
        for s in gens:
            y = G.mul(x, s)
            if y not in reached:
                reached.add(y)
                queue.append(y)
    assert len(reached) == G.order
    assert reached == set(G.elements)


def ref_elementary_classes(G):
    """Class orbits by breadth-first search under conjugation by the
    2(n-1) + 1 elementary generators E_{i,i+1}(1), E_{i+1,i}(1) and
    diag(zeta, 1, ..., 1), each conjugation two matrix products."""
    F, n, zeta = G.field_, G.n, G.field_.generator
    gens = [finglq.elementary_mat(n, r, c, 1) for i in range(n - 1)
            for r, c in ((i, i + 1), (i + 1, i))]
    gens += [finglq.elementary_mat(n, 0, 0, zeta)] if zeta != 1 else []
    pairs = [(s, finglq.mat_inv(F, s)) for s in gens]
    classes, seen = [], set()
    for g in G.elements:
        if g in seen:
            continue
        seen.add(g)
        orbit = [g]
        for y in orbit:
            for s, s_inv in pairs:
                z = mat_mul(F, mat_mul(F, s, y), s_inv)
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        classes.append(sorted(orbit))
    return classes


@pytest.mark.parametrize("n,q", slow_if_large(
    [(n, q) for n, q in ENUMERABLE if gl_order(n, q) <= gl_order(3, 3)],
    limit=6000))
def test_classes_match_elementary_generator_orbits(n, q):
    # the same classes, in the same order, as with the elementary generators
    G = gl_group(n, q)
    assert G.conjugacy_classes() == ref_elementary_classes(G)


def inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


@pytest.mark.parametrize("e,q", [(1, 5), (2, 7), (2, 9), (3, 2), (3, 3)])
def test_bruhat_cell_sizes(e, q):
    dec = finglq.bruhat_decomposition(e, q)
    b_order = finglq.group_order(e, q, SubgroupSpec.borel())
    sizes = {}
    for w, v in dec.values():
        sizes[w] = sizes.get(w, 0) + 1
        assert v != 0
    assert set(sizes) == set(itertools.permutations(range(e)))
    for w, size in sizes.items():
        assert size == b_order * q ** inversions(w)
    assert len(dec) == gl_order(e, q)


def test_bruhat_decomposition_of_w_times_b():
    # g = 1 * w * b lies in the cell of w with unit diag(b)
    e, q = 3, 3
    F = get_field(q)
    B = subgroup(e, q, SubgroupSpec.borel())
    G = gl_group(e, q)
    dec = finglq.bruhat_decomposition(e, q)
    for w in itertools.permutations(range(e)):
        wm = perm_matrix(e, w)
        for b in B.elements[::7]:
            g = G.mul(wm, b)
            assert dec[g] == (w, finglq.diag_product(F, b))


@pytest.mark.parametrize("e,q", slow_if_large(
    [(1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (3, 2), (3, 3),
     (4, 2)]))
def test_steinberg_degree(e, q):
    G = gl_group(e, q)
    st = repth.steinberg_char(e, q, MultChar(q, 0))
    assert st.at(G.identity) == q ** (e * (e - 1) // 2)


# --- the normal forms of B\G against the enumerated group ----------------------

def ref_label_pairs(G, H, g):
    """(a, b): for each coset H r_i of G's Borel H, in the transversal
    order of `_coset_data`, the label positions in `G.bruhat_index` of
    g r_i^-1 (a) and of r_i (b), each product located in the enumerated
    G."""
    data = repth._coset_data(G, H)
    at = G.bruhat_index[1]
    return (at[G._indices(finglq._mul_codes(G.field_, g, data.inv_codes,
                                            left=True))],
            at[G._indices(data.codes)])


def ref_label_pair_oracle(e, q):
    """The oracle's constants as a count of cosets by the cells of the
    enumerated label pairs (`ref_label_pairs`)."""
    G, B = gl_group(e, q), repth.borel(e, q)
    perms = all_perms(e)
    m = len(perms)
    cell = np.array([perms.index(w) for w, _ in G.bruhat_index[0]])
    consts = {}
    for w3 in perms:
        a, b = ref_label_pairs(G, B, perm_matrix(e, w3))
        counts = np.bincount(cell[a] * m + cell[b], minlength=m * m)
        for i, w1 in enumerate(perms):
            for j, w2 in enumerate(perms):
                consts[(w1, w2, w3)] = Fraction(int(counts[i * m + j]))
    return consts


def ref_class_norm_dimension(e, q, chi):
    """<chi_Ind, chi_Ind> as the class norm of the induced character, read
    off the class table of the enumerated G."""
    ind = repth.induce(e, q, chi)
    val = repth.values_norm(ind.group, ind.class_traces())
    assert abs(val - round(val)) <= 1e-6
    return round(val)


@pytest.mark.parametrize("e,q", slow_if_large(ENUMERABLE))
def test_normal_forms_are_one_per_coset(e, q):
    # every coset of the enumerated `_coset_data` holds one normal form,
    # whose label (w, 1) and inverse agree with the enumerated group's
    G, B = gl_group(e, q), repth.borel(e, q)
    flags = finglq.borel_flags(e, q)
    at = G._indices(flags.codes)
    assert sorted(repth._coset_data(G, B).coset[at].tolist()) \
        == list(range(G.order // B.order))
    labels, label_at = G.bruhat_index
    assert labels == finglq.bruhat_labels(e, q)[0]
    assert np.array_equal(label_at[at], flags.at)
    assert [labels[k] for k in flags.at.tolist()] \
        == [(w, 1) for w in flags.cells]
    assert G._indices(flags.inv_codes).tolist() \
        == [G.index(G.inv(G.elements[k])) for k in at.tolist()]
    # a label read by elimination at every element of G is the index's
    assert np.array_equal(finglq.label_positions(q, G.codes), label_at)


@pytest.mark.parametrize("e,q", slow_if_large(verify._gl_pairs(5, 9)))
def test_cell_counts_match_fixed_diagonals(e, q):
    # Mackey's formula cell by cell: of the products r b r^-1 of a cell's
    # normal forms with the enumerated Borel, those in B keep the diagonal
    # product, q^N (q-1)^(e-1) of them at each unit; and the dimension at
    # every chi is e!, as is the norm of the induced character summed
    # over G
    N = e * (e - 1) // 2
    want = q ** N * (q - 1) ** (e - 1) * np.diag([0] + [1] * (q - 1))
    for w in all_perms(e):
        assert np.array_equal(ref_fixed_diagonals(e, q, w), want), w
    for chi in all_characters(q):
        assert (repth.intertwining_dimension(e, q, chi)
                == ref_intertwining_dimension(e, q, chi)
                == len(all_perms(e)))


@pytest.mark.parametrize("e,q", slow_if_large(ENUMERABLE))
def test_flag_routes_match_enumerated_routes(e, q):
    # the oracle and convolve_at on the normal forms, and the
    # intertwining dimension by cell, against their enumerated references
    G, B = gl_group(e, q), repth.borel(e, q)
    if e >= 2:
        assert hecke.convolution_oracle(e, q) == ref_label_pair_oracle(e, q)
    transversal = repth._coset_data(G, B).transversal
    pts = [perm_matrix(e, w) for w in all_perms(e)]
    pts += G.elements[::max(1, G.order // 7)]
    for chi in all_characters(q):
        assert (repth.intertwining_dimension(e, q, chi)
                == ref_intertwining_dimension(e, q, chi)
                == ref_class_norm_dimension(e, q, chi))
        basis = repth.finite_hecke_basis(e, q, chi)
        elts = [repth.e_tau(e, q, chi), basis[0], basis[-1]]
        for a in elts:
            for b in elts:
                for g in pts:
                    got = a.convolve_at(b, g)
                    want = ref_convolve_at(a, b, transversal, g)
                    assert type(got) is type(want)
                    if chi.is_rational:
                        assert got == want
                    else:
                        assert abs(complex(got) - complex(want)) <= 1e-12


def test_flag_reads_build_no_group(monkeypatch):
    # e_tau, its dimension and the oracle read the normal forms only:
    # no gl_group call, and the elements read only where a G-side reader
    # asks for them
    def refused(n, q):
        raise AssertionError(f"gl_group({n}, {q}) called")

    for fn in (repth.e_tau, repth.finite_hecke_basis):
        monkeypatch.setattr(repth, fn.__name__, fn.__wrapped__)
    monkeypatch.setattr(finglq, "gl_group", refused)
    monkeypatch.setattr(repth, "gl_group", refused)
    chi = MultChar(3, 1)
    et = repth.e_tau(3, 3, chi)
    assert repth.dim_from_e_tau(3, 3, chi) == 1
    assert et.at_identity() == Fraction(1, gl_order(3, 3))
    assert not {"group", "sub", "_dec"} & set(vars(et))
    assert hecke.oracle_matches_t_mul(3, 3)


@pytest.mark.parametrize("fault", ["moved", "dropped"])
def test_normal_forms_reject_a_wrong_free_entry(monkeypatch, fault):
    # a free entry of u moved to a non-inversion of w puts two forms in
    # one coset; a dropped one leaves cosets without a form
    real = finglq._free_entries

    def wrong(w):
        free = real(w)
        others = [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))
                  if (i, j) not in free]
        if not free or (fault == "moved" and not others):
            return free
        return free[:-1] + (others[:1] if fault == "moved" else [])

    monkeypatch.setattr(finglq, "_free_entries", wrong)
    for e, q in [(3, 2), (3, 3), (4, 2)]:
        with pytest.raises(AssertionError, match=(
                "lower unitriangular" if fault == "moved" else "distinct")):
            finglq.borel_flags.__wrapped__(e, q)


def test_normal_forms_respect_the_cap(monkeypatch):
    # above the cap the flags raise as enumerating G does, before the
    # Borel is enumerated
    with pytest.raises(GroupSizeError,
                       match=r"full subgroup of GL\(3,5\) has order 1488000"):
        finglq.borel_flags(3, 5)
    with pytest.raises(ValueError, match="n must be positive"):
        finglq.borel_flags(0, 2)
    monkeypatch.setattr(finglq, "MAX_GROUP_ORDER", 5)
    with pytest.raises(GroupSizeError):
        finglq.borel_flags.__wrapped__(2, 2)


def highest_pivot_labels(F, codes):
    """`finglq._bruhat_labels` pivoting on the highest nonzero entry of
    each column instead of the lowest."""
    m = codes.copy()
    count, n, _ = m.shape
    at = np.arange(count)
    w = np.empty((count, n), dtype=np.uint8)
    v = np.ones(count, dtype=np.uint8)
    for j in range(n):
        r = np.argmax(m[:, :, j] != 0, axis=1)
        p = m[at, r, j]
        w[:, j] = r
        v = F.mul_arr[v, p]
        pivot_row = m[at, r]
        for k in range(j + 1, n):
            f = F.mul_arr[pivot_row[:, k], F.inv_arr[p]]
            step = F.mul_arr[f[:, None], m[:, :, j]]
            m[:, :, k] = F.add_arr[m[:, :, k], F.neg_arr[step]]
    return w, v


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_highest_pivot_fails_oracle_and_e_tau(monkeypatch, warm):
    # the elimination pivoting on the wrong entry: the oracle and e_tau
    # report `fail` records at (2, 2), each under its own name, also when
    # the normal forms were built and checked before the fault
    checks = verify.checks_named("check_hecke_oracle", "check_e_tau")
    if warm:
        assert all(r.status == "pass" for r in verify.run_checks(checks, 2, 2))
    monkeypatch.setattr(finglq, "_bruhat_labels", highest_pivot_labels)
    # bypass the cache so e_tau runs its idempotency check again
    monkeypatch.setattr(repth, "e_tau", repth.e_tau.__wrapped__)
    records = verify.run_checks(checks, 2, 2)
    assert {r.name for r in records} == {"hecke.oracle_equivalence",
                                         "repth.e_tau_idempotent_dim"}
    assert all(r.status == "fail" and r.params == {"e": 2, "q": 2}
               for r in records), records


# --- the array kernels against their per-element references ---------------------

def slow_from_33(pairs):
    return [pytest.param(n, q, marks=pytest.mark.slow)
            if gl_order(n, q) >= gl_order(3, 3) else (n, q) for n, q in pairs]


def assert_same_classes(G, want_classes, want_class_of):
    # the class-id list holds one int per element, in `elements` order
    classes = G.conjugacy_classes()
    assert classes == want_classes
    class_of = G._class_data[1]
    assert type(class_of) is list
    assert class_of == [want_class_of[g] for g in G.elements]
    assert all(type(c) is int for c in class_of)
    els = G.elements
    assert all(g is els[G.index(g)] for cls in classes for g in cls)


@pytest.mark.parametrize("n,q", slow_from_33(ENUMERABLE))
def test_bruhat_kernel_matches_per_element_elimination(n, q):
    # equal labels, the same key order, the enumerated objects as keys
    got = finglq.bruhat_decomposition(n, q)
    want = ref_elementwise_bruhat(n, q)
    assert got == want
    assert list(got) == list(want)
    els = gl_group(n, q).elements
    assert all(g is h for g, h in zip(got, els))
    assert all(type(v) is int and all(type(r) is int for r in w)
               for w, v in got.values())


def ref_orbits(steps, count):
    """Union-find over the edges i -- step[i]: each index's orbit, numbered
    in the order of the orbits' least members, and those members."""
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for step in steps:
        for i, j in enumerate(step.tolist()):
            a, b = find(i), find(j)
            if a != b:
                parent[a] = b
    members = {}
    for i in range(count):
        members.setdefault(find(i), []).append(i)
    firsts = sorted(min(m) for m in members.values())
    orbit = [None] * count
    for m in members.values():
        k = firsts.index(min(m))
        for i in m:
            orbit[i] = k
    return orbit, firsts


@pytest.mark.parametrize("seed", range(5))
def test_orbits_match_union_find(seed):
    rng = np.random.default_rng(seed)
    count = 500

    def partial(size):
        # moves only `size` random indices, so the orbits are many and of
        # many sizes, with most indices fixed
        perm = np.arange(count)
        moved = rng.choice(count, size=size, replace=False)
        perm[moved] = rng.permutation(moved)
        return perm

    full = rng.permutation(count)
    small, large = partial(40), partial(300)
    for steps in ([full], [small], [large], [small, large],
                  [full, small], [small, small[small]]):
        orbit, firsts = finglq._orbits(steps, count)
        want_orbit, want_firsts = ref_orbits(steps, count)
        assert orbit.tolist() == want_orbit
        assert firsts.tolist() == want_firsts


def test_orbits_without_steps_keep_every_index_apart():
    orbit, firsts = finglq._orbits([], 500)
    assert orbit.tolist() == firsts.tolist() == list(range(500))


@pytest.mark.parametrize("n,q", slow_from_33(ENUMERABLE))
def test_class_kernel_matches_per_element_orbits(n, q):
    G = gl_group(n, q)
    assert_same_classes(G, *ref_elementwise_classes(G))


@pytest.mark.parametrize("n,q,spec", [
    (2, 3, SubgroupSpec.borel()),
    (3, 2, SubgroupSpec.standard_parabolic((2, 1))),
    (3, 2, SubgroupSpec.standard_parabolic((1, 2))),
    (3, 3, SubgroupSpec.borel()),
], ids=["borel-2-3", "parabolic21-3-2", "parabolic12-3-2", "borel-3-3"])
def test_subgroup_class_kernel_matches_per_element_orbits(n, q, spec):
    # element lists in block order, not sorted; the small generating sets
    # of `generators()`, not every element
    H = subgroup(n, q, spec)
    assert len(H.generators()) < H.order
    assert H.elements != sorted(H.elements)
    assert_same_classes(H, *ref_elementwise_classes(H))


def test_subgroup_classes_past_int64_keys():
    # 8 x 8 matrices over F_2 have 2^64 row-major keys, past int64: the
    # keys fall back on Python ints.  The radical of the (7, 1) parabolic
    # is abelian, so every class is one element
    H = subgroup(8, 2, SubgroupSpec.unipotent_radical((7, 1)))
    assert H.sorted_keys[0].dtype == object
    assert_same_classes(H, *ref_elementwise_classes(H))
    assert [len(c) for c in H.conjugacy_classes()] == [1] * H.order


# --- coset index arrays against the coset scans ----------------------------------

def assert_same_cosets(G, H):
    # the same transversal objects in the same order, and the same (i, h)
    # for every g, h the object of H.elements
    data = repth._coset_data(G, H)
    transversal, coset_of = ref_coset_data(G, H)
    assert len(data.transversal) == len(transversal)
    assert all(a is b for a, b in zip(data.transversal, transversal))
    assert data.transversal[0] == G.identity
    for g, i, h in zip(G.elements, data.coset.tolist(), data.h.tolist()):
        want_i, want_h = coset_of[g]
        assert (i, H.elements[h]) == (want_i, want_h)
        assert H.elements[h] is want_h
    assert np.array_equal(data.codes, np.array(transversal, dtype=np.uint8))
    assert np.array_equal(data.inv_codes, np.array(
        [G.inv(r) for r in transversal], dtype=np.uint8))


@pytest.mark.parametrize("n,q", slow_from_33(ENUMERABLE))
def test_borel_cosets_match_scan(n, q):
    assert_same_cosets(gl_group(n, q), repth.borel(n, q))


PARABOLIC_GROUPS = [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, 2)]


@pytest.mark.parametrize("n,q", PARABOLIC_GROUPS)
def test_parabolic_cosets_match_scan(n, q):
    for blocks in finglq._compositions(n):
        H = subgroup(n, q, SubgroupSpec.standard_parabolic(blocks))
        assert_same_cosets(gl_group(n, q), H)


@pytest.mark.parametrize("n,q", PARABOLIC_GROUPS + [
    pytest.param(3, 3, marks=pytest.mark.slow),
    pytest.param(4, 2, marks=pytest.mark.slow)])
def test_parabolic_induction_matches_fixed_point_scan(n, q):
    for nodes in all_types(n):
        got = repth.parabolic_induction_character(n, q, nodes).values
        want = ref_parabolic_fixed_points(n, q, nodes)
        assert got == want
        assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("n,q", PARABOLIC_GROUPS + [
    pytest.param(3, 3, marks=pytest.mark.slow),
    pytest.param(4, 2, marks=pytest.mark.slow)])
def test_full_type_induction_matches_one_block_route(n, q):
    # the one-block parabolic P_S is G, and Ind_G^G 1 = 1 at every class
    got = repth.parabolic_induction_character(n, q, range(1, n)).values
    assert got == [Fraction(1)] * len(gl_group(n, q).conjugacy_classes())
    assert all(type(v) is Fraction for v in got)


def test_parabolic_induction_enumerates_only_g(monkeypatch):
    # every type of GL(4,2) reads G's classes and the normal forms of
    # B\G: no parabolic, and no Borel, is enumerated
    real, calls = finglq.enumerate_group, []

    def counted(n, q, spec):
        calls.append((n, q, spec))
        return real(n, q, spec)

    monkeypatch.setattr(finglq, "enumerate_group", counted)
    for nodes in all_types(4) + [range(1, 4)]:
        repth.parabolic_induction_character(4, 2, nodes)
    assert set(calls) <= {(4, 2, SubgroupSpec.full())}, calls


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_a_dropped_normal_form_fails_the_induction(n, q, monkeypatch):
    # at T = S the count over the p_n(q) - 1 forms left is not a multiple
    # of [G : B] = p_n(q)
    flags = finglq.borel_flags(n, q)
    dropped = dataclasses.replace(
        flags, cells=flags.cells[1:], codes=flags.codes[1:],
        inv_codes=flags.inv_codes[1:], at=flags.at[1:])
    monkeypatch.setattr(finglq, "borel_flags", lambda e, q: dropped)
    with pytest.raises(AssertionError, match="not a multiple"):
        repth.parabolic_induction_character(n, q, range(1, n))


@pytest.mark.parametrize("e,q", [
    pytest.param(e, q, marks=pytest.mark.slow) if (e, q) == (3, 3)
    else (e, q) for e, q in verify._gl_pairs(3, 9)])
def test_class_table_norms_match_class_norm(e, q):
    # the induced character and Tr(rho E) at every class representative,
    # from the class table, against rho read class by class
    G = gl_group(e, q)
    reps = G.class_reps()
    for chi in all_characters(q):
        ind = repth.induce(e, q, chi)
        E = ind.hecke_operator(repth.e_tau(e, q, chi))
        for got, old in ((ind.class_traces(), ind.char_value),
                         (ind.class_traces(E),
                          lambda g: np.trace(ind.mat(g) @ E))):
            want = np.array([complex(old(g)) for g in reps])
            assert np.max(np.abs(got - want)) <= 1e-12
            assert abs(repth.values_norm(G, got)
                       - repth.values_norm(G, want)) <= 1e-12
        assert repth.intertwining_dimension(e, q, chi) == round(
            repth.values_norm(G, [ind.char_value(g) for g in reps]))


@pytest.mark.parametrize("e,q", SMALL)
def test_kept_trace_labels_match_uncached_route(e, q):
    # the label positions kept per gamma give the values of a cold read
    # and of the element-wise reference, for every chi
    G, B = gl_group(e, q), repth.borel(e, q)
    transversal = repth._coset_data(G, B).transversal
    reps = set(G.class_reps())
    for chi in all_characters(q):
        et, ind = repth.e_tau(e, q, chi), repth.induce(e, q, chi)
        for gamma in G.elements:
            repth._coset_data(G, B)._conjugates.pop(gamma, None)
            cold = repth.trace_via_coset_sum(gamma, et, ind)
            assert gamma in repth._coset_data(G, B)._conjugates
            warm = repth.trace_via_coset_sum(gamma, et, ind)
            assert warm == cold and type(warm) is type(cold)
            if gamma in reps:
                want = ref_trace_via_coset_sum(gamma, et, ind, transversal)
                assert cold == want and type(cold) is type(want)


@pytest.mark.parametrize("e,q", [(2, 3), (3, 2)])
def test_induced_module_matches_coset_scan(e, q):
    # equal matrices, traces, operators, convolutions and coset sums, so
    # the float bytes of every record built on them stay the same
    G = gl_group(e, q)
    ref = ref_coset_data(G, repth.borel(e, q))
    transversal = ref[0]
    pts = [perm_matrix(e, w) for w in all_perms(e)]
    for chi in all_characters(q):
        ind = repth.induce(e, q, chi)
        for y in G.elements:
            assert np.array_equal(ind.mat(y), ref_induced_mat(ind, ref, y))
            assert ind.char_value(y) == ref_induced_char_value(ind, ref, y)
        basis = repth.finite_hecke_basis(e, q, chi)
        et = repth.e_tau(e, q, chi)
        for phi in [et] + basis:
            assert np.array_equal(
                ind.hecke_operator(phi),
                ref_transversal_hecke_operator(ind, transversal, phi))
        for a in basis + [et]:
            for b in basis + [et]:
                for g in pts + G.elements[::7]:
                    got = a.convolve_at(b, g)
                    want = ref_convolve_at(a, b, transversal, g)
                    assert got == want and type(got) is type(want)
        for gamma in G.elements:
            got = repth.trace_via_coset_sum(gamma, et, ind)
            want = ref_trace_via_coset_sum(gamma, et, ind, transversal)
            assert got == want and type(got) is type(want)


@pytest.mark.parametrize("e,q", [(2, 2), (2, 3), (3, 2)])
def test_table_built_rho_matches_per_element_route(e, q):
    # every rho(g), for every chi and, at GL(2,3), for both torus
    # characters of the transport check, read off the translate table
    # and formed per element: equal arrays, a new one at each read
    G, B = gl_group(e, q), repth.borel(e, q)
    mods = [repth.induce(e, q, chi) for chi in all_characters(q)]
    mods += [repth.InducedRep(G, B, sigma())
             for _, sigma in verify.TRANSPORT_CONFIGS.get((e, q), ())]
    assert len(mods) == {(2, 2): 2, (2, 3): 4, (3, 2): 1}[e, q]
    for ind in mods:
        for y in G.elements:
            got = ind.mat(y)
            assert np.array_equal(got, ref_translates_mat(ind, y))
            assert got.dtype == complex and got is not ind.mat(y)
            assert ind.char_value(y) == complex(np.trace(got))


def test_restricted_module_keeps_no_per_element_matrix():
    # the module reads rho(g) at every g to restrict it, and keeps none
    e, q = 3, 2
    chi = MultChar(q, 0)
    G, ind = gl_group(e, q), repth.induce(e, q, chi)
    E = ind.hecke_operator(repth.e_tau(e, q, chi))
    rep = repth.restrict_to_image(ind, E)
    assert rep.dim == 1 and len(rep.mats) == G.order
    kept = {name: len(v) for name, v in vars(ind).items()
            if isinstance(v, (dict, list, np.ndarray))}
    assert kept and max(kept.values()) < G.order, kept


def test_coset_indices_are_kept_in_their_smallest_type():
    # at GL(3, 2) mod B, 21 cosets and |B| = 8: one byte per entry, so the
    # translate table is two (168, 21) uint8 arrays
    G, B = gl_group(3, 2), repth.borel(3, 2)
    data = repth._coset_data(G, B)
    assert data.coset.dtype == data.h.dtype == np.uint8
    j, h = data.translate_table
    assert j.dtype == h.dtype == np.uint8
    assert j.nbytes + h.nbytes == 2 * 168 * 21
    assert data.coset.max() == 20 and data.h.max() == 7


def test_a_replaced_copy_starts_without_the_translate_table():
    import dataclasses
    G, B = gl_group(2, 3), repth.borel(2, 3)
    data = repth._coset_data(G, B)
    j, h = data.translate_table
    assert j.shape == h.shape == (G.order, len(data.transversal))
    assert "translate_table" not in vars(dataclasses.replace(data))


def test_induced_module_rejects_matrices_outside_the_group():
    ind = repth.induce(2, 3, MultChar(3, 1))
    singular = ((1, 1), (1, 1))
    for call in (lambda: ind.mat(singular), lambda: ind.char_value(singular),
                 lambda: repth.trace_via_coset_sum(
                     singular, repth.e_tau(2, 3, MultChar(3, 1)), ind)):
        with pytest.raises(KeyError):
            call()


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_mul_pairs_matches_mat_mul(q):
    F = get_field(q)
    rng = np.random.default_rng(q)

    def product(x, y):
        return np.array(mat_mul(F, tuple(map(tuple, x.tolist())),
                                tuple(map(tuple, y.tolist()))),
                        dtype=np.uint8)

    for n in (1, 2, 3, 4):
        a = rng.integers(0, q, size=(30, n, n), dtype=np.uint8)
        b = rng.integers(0, q, size=(30, n, n), dtype=np.uint8)
        want = np.array([product(x, y) for x, y in zip(a, b)])
        assert np.array_equal(finglq._mul_pairs(F, a, b), want)
        # leading axes broadcast: every pair of a[:5] and b[:4]
        table = finglq._mul_pairs(F, a[:5, None], b[None, :4])
        assert table.shape == (5, 4, n, n)
        assert all(np.array_equal(table[i, j], product(a[i], b[j]))
                   for i in range(5) for j in range(4))


def test_coset_data_rejects_generators_that_miss_the_subgroup(monkeypatch):
    # a Borel whose generators lack the diagonal ones reaches only the
    # unitriangular part: too many cosets, so the data is refused
    G, B = gl_group(2, 3), subgroup(2, 3, SubgroupSpec.borel())
    G._cosets.pop(B.spec, None)
    unitriangular = [s for s in B.generators() if s[0][0] == s[1][1] == 1]
    monkeypatch.setattr(B, "generators", lambda: unitriangular)
    try:
        with pytest.raises(AssertionError, match="partition"):
            repth._coset_data(G, B)
    finally:
        G._cosets.pop(B.spec, None)


# --- a fault in the coset data turns the records that read it `fail` --------------

def clear_coset_caches():
    for fn in (repth.induce, repth.e_tau, repth.finite_hecke_basis):
        fn.cache_clear()
    for n in (1, 2, 3):
        for q in (2, 3):
            gl_group(n, q)._cosets.clear()


def hidden_fault_elements(G, data):
    """The indices k of G.elements whose translates r_i^-1 g_k are no class
    representative, in order.  The hypothesis checks read rho only at class
    representatives (`values_norm`), so a fault at such an element leaves
    them passing; the factorisation check of `InducedRep` catches it."""
    reps = {G.index(g) for g in G.class_reps()}
    return [k for k, g in enumerate(G.elements)
            if not reps & {G.index(G.mul(G.inv(r), g))
                           for r in data.transversal}]


def faulty_coset_data(fault):
    """GL(2,3)'s Borel coset data with one hidden fault, chi the sign
    character of F_3^x.  Either h moves, at one hidden element, to its
    neighbour in B.elements with the other sigma value; or the coset
    labels of two hidden elements are swapped, the second in a coset whose
    representative has the other chi(det), so that the moved entry of rho
    changes the character of the chi∘det line."""
    import dataclasses
    e, q = 2, 3
    G, B = gl_group(e, q), repth.borel(e, q)
    chi, F = MultChar(q, 1), get_field(q)
    sig = repth.sigma_tilde(e, q, chi)
    data = repth._coset_data(G, B)
    hidden = hidden_fault_elements(G, data)
    coset, h = data.coset.copy(), data.h.copy()
    if fault == "shift_h":
        k = next(k for k in hidden if sig(B.elements[h[k]])
                 != sig(B.elements[(h[k] + 1) % B.order]))
        h[k] = (h[k] + 1) % B.order
    else:
        def sign(k):
            return chi(finglq.mat_det(F, data.transversal[coset[k]]))

        a = hidden[0]
        b = next(k for k in hidden if sign(k) != sign(a))
        coset[a], coset[b] = coset[b], coset[a]
    return dataclasses.replace(data, coset=coset, h=h)


def test_a_replaced_copy_of_coset_data_starts_without_tables():
    import dataclasses
    G, B = gl_group(2, 3), repth.borel(2, 3)
    data = repth._coset_data(G, B)
    assert data.class_table and data.transport_table
    assert data.conjugate_labels(G.identity)
    copy = dataclasses.replace(data)
    assert copy.group is G and copy.sub is B
    assert not {"class_table", "transport_table"} & set(vars(copy))
    assert not copy._conjugates


@pytest.mark.parametrize("fault", ["shift_h", "swap_cosets"])
def test_coset_data_fault_fails_trace_records(fault):
    G, B = gl_group(2, 3), repth.borel(2, 3)
    clear_coset_caches()
    try:
        G._cosets[B.spec] = faulty_coset_data(fault)
        records = verify.run_all(3, 3)
    finally:
        clear_coset_caches()
    failed = {r.name for r in records if r.status == "fail"}
    assert failed & {"repth.trace_via_coset_sum",
                     "repth.trace_via_coset_sum_vs_subrep",
                     "hecke.oracle_equivalence"}, failed


@pytest.mark.parametrize("fault", ["shift_h", "swap_cosets"])
def test_coset_data_fault_fails_after_a_warm_run(fault):
    # what a clean run keeps on the coset data does not pass to the
    # faulty copy, and the module built on the copy still refuses it
    G, B = gl_group(2, 3), repth.borel(2, 3)
    sig = repth.sigma_tilde(2, 3, MultChar(3, 1))
    clear_coset_caches()
    try:
        assert all(r.status == "pass" for r in verify.run_all(3, 3))
        data = repth._coset_data(G, B)
        kept = vars(data)
        assert {"class_table", "transport_table"} <= set(kept)
        assert kept["_conjugates"]
        faulty = faulty_coset_data(fault)
        assert not {"class_table", "transport_table"} & set(vars(faulty))
        assert not vars(faulty)["_conjugates"]
        for fn in (repth.induce, repth.e_tau, repth.finite_hecke_basis):
            fn.cache_clear()
        G._cosets[B.spec] = faulty
        with pytest.raises(AssertionError, match="coset data"):
            repth.InducedRep(G, B, sig)
        records = verify.run_all(3, 3)
    finally:
        clear_coset_caches()
    failed = {r.name for r in records if r.status == "fail"}
    assert failed & {"repth.trace_via_coset_sum",
                     "repth.trace_via_coset_sum_vs_subrep",
                     "hecke.oracle_equivalence"}, failed


@pytest.mark.parametrize("fault", ["shift_h", "swap_cosets"])
def test_induced_module_rejects_faulty_coset_data(fault):
    # the class-representative checks pass these faults; the induced
    # module checks the data at every element before it reads any
    G, B = gl_group(2, 3), repth.borel(2, 3)
    sig = repth.sigma_tilde(2, 3, MultChar(3, 1))
    clear_coset_caches()
    try:
        G._cosets[B.spec] = faulty_coset_data(fault)
        with pytest.raises(AssertionError, match="coset data"):
            repth.InducedRep(G, B, sig)
    finally:
        clear_coset_caches()
    # the rebuilt data passes
    assert repth.InducedRep(G, B, sig).dim == 4


# --- mat_mul stays off the per-coset paths ---------------------------------------

MAT_MUL_BUDGET = 0  # mat_mul calls in verify all --max-e 3 --max-q 3


def run_fresh(code):
    """The stdout of `code` run in a fresh interpreter on this checkout's
    src/, so no cache of another test is read."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_all_makes_few_mat_mul_calls():
    # every hecke_forge global bound to mat_mul counts its calls; the
    # count is deterministic, so per-element products coming back onto a
    # coset path show at once.  One G.mul after the run is a sentinel
    # that the counter must see, so a count of 0 is not a counter that
    # missed every call
    code = """
import sys
from hecke_forge import finglq, verify
real, calls = finglq.mat_mul, [0]
def counted(*args):
    calls[0] += 1
    return real(*args)
for name, mod in list(sys.modules.items()):
    if name.startswith("hecke_forge"):
        for attr, val in list(vars(mod).items()):
            if val is real:
                setattr(mod, attr, counted)
records = verify.run_all(3, 3)
assert all(r.status == "pass" for r in records)
count = calls[0]
G = finglq.gl_group(2, 2)
G.mul(G.elements[1], G.elements[2])
print(count, calls[0] - count)
"""
    count, sentinel = map(
        int, run_fresh(code).strip().splitlines()[-1].split())
    assert sentinel == 1
    assert count <= MAT_MUL_BUDGET, count


PEAK_BUDGET_MB = 3.0  # tracemalloc peak of verify all --max-e 3 --max-q 3


def test_verify_all_stays_within_its_memory_budget():
    # the traced peak of a fresh run, imports excluded: a per-element
    # cache coming back (every rho(g) of a module, every canonical type,
    # a list held by a reference cycle) shows at once.  A 4 MiB sentinel
    # allocated after the run must raise the peak by that much, so a low
    # peak is not a tracer that saw nothing
    code = """
import tracemalloc
from hecke_forge import verify
tracemalloc.start()
records = verify.run_all(3, 3)
assert all(r.status == "pass" for r in records)
current, peak = tracemalloc.get_traced_memory()
tracemalloc.reset_peak()
sentinel = bytearray(4 << 20)
print(peak, tracemalloc.get_traced_memory()[1] - current)
"""
    peak, seen = map(int, run_fresh(code).strip().splitlines()[-1].split())
    assert seen >= 4 << 20
    assert peak < PEAK_BUDGET_MB * 1e6, peak


def test_verify_all_enumerates_no_group_twice():
    # every enumerate_group call of a fresh `verify all --max-e 4
    # --max-q 9`, by (n, q, spec): the parabolic inductions count over
    # the normal forms of B\G, so no standard parabolic is enumerated,
    # and full GL(n, q) only by gl_group and by check_gl_orders' own count
    code = """
import collections, json
from hecke_forge import finglq, verify
real, calls = finglq.enumerate_group, collections.Counter()
def counted(n, q, spec):
    calls[n, q, spec.kind, spec.blocks] += 1
    return real(n, q, spec)
finglq.enumerate_group = counted
records = verify.run_all(4, 9)
assert records and all(r.status != "fail" for r in records)
print(json.dumps([[n, q, kind, blocks, c]
                  for (n, q, kind, blocks), c in calls.items()]))
"""
    calls = json.loads(run_fresh(code).strip().splitlines()[-1])
    assert not [c for c in calls if c[2] == "standard_parabolic"], calls
    full = {(n, q): c for n, q, kind, _, c in calls if kind == "full"}
    assert max(full.values()) <= 2, full
    # both counts are seen: gl_group's and check_gl_orders' own
    assert full[2, 3] == 2, full
    assert all(c == 1 for _, _, kind, _, c in calls if kind != "full"), calls


def recording(*names):
    """Code for a fresh interpreter that points every hecke_forge global
    bound to each `finglq.<name>` at a wrapper counting its calls by
    argument tuple in `calls[name]`, then imports `verify`."""
    return f"""
import collections, sys
from hecke_forge import finglq
calls = {{}}
for name in {names!r}:
    real = getattr(finglq, name)
    calls[name] = seen = collections.Counter()
    def recorded(*args, real=real, seen=seen):
        seen[args] += 1
        return real(*args)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("hecke_forge"):
            for attr, val in list(vars(mod).items()):
                if val is real:
                    setattr(mod, attr, recorded)
from hecke_forge import verify
"""


def test_empty_type_reuses_the_borel():
    # the parabolic inductions build no coset data: after a fresh run the
    # Borel's, which the trace and module checks read, is the only one
    # kept on any group that was built
    code = recording("gl_group") + """
verify.run_all(3, 3)
built = sorted(calls["gl_group"])
assert built == [(2, 2), (2, 3), (3, 2)], built
for e, q in built:
    specs = list(finglq.gl_group(e, q)._cosets)
    assert specs == [finglq.SubgroupSpec.borel()], (e, q, specs)
"""
    run_fresh(code)


def test_verify_all_never_builds_gl33():
    # the oracle and e_tau run over the normal forms of B\G, so a fresh
    # `verify all --max-e 3 --max-q 3` builds no GL(3,3), and only the
    # order check enumerates it, once.  A gl_group(3, 3) call after the
    # run is a sentinel that the counter must see
    code = recording("gl_group", "enumerate_group") + """
records = verify.run_all(3, 3)
assert records and all(r.status == "pass" for r in records)
built = calls["gl_group"][3, 3]
full = calls["enumerate_group"][3, 3, finglq.SubgroupSpec.full()]
finglq.gl_group(3, 3)
print(built, calls["gl_group"][3, 3] - built, full)
"""
    built, sentinel, full = map(
        int, run_fresh(code).strip().splitlines()[-1].split())
    assert sentinel == 1
    assert built == 0
    assert full == 1


def test_verify_all_builds_no_label_dict():
    # every library reader takes G's labels from `G.bruhat_index` or the
    # flags, so a fresh `verify all` at (3, 3) and (3, 5) builds no
    # |G|-entry dict of `bruhat_decomposition`.  A call after the runs, at
    # a group neither run reaches, is a sentinel the cache must count
    code = """
from hecke_forge import finglq, verify
finglq.bruhat_decomposition.cache_clear()
for max_q in (3, 5):
    records = verify.run_all(3, max_q)
    assert records and all(r.status != "fail" for r in records)
misses = finglq.bruhat_decomposition.cache_info().misses
finglq.bruhat_decomposition(2, 7)
print(misses, finglq.bruhat_decomposition.cache_info().misses - misses)
"""
    misses, sentinel = map(
        int, run_fresh(code).strip().splitlines()[-1].split())
    assert sentinel == 1
    assert misses == 0


def test_verify_all_enumerates_no_borel_of_gl33():
    # the commutant dimension counts over the torus, cell by cell, so a
    # fresh `verify all --max-e 3 --max-q 3` enumerates no Borel of
    # GL(3,3).  A call after the run is a sentinel the counter must see
    code = recording("enumerate_group") + """
records = verify.run_all(3, 3)
assert records and all(r.status == "pass" for r in records)
key = (3, 3, finglq.SubgroupSpec.borel())
built = calls["enumerate_group"][key]
finglq.enumerate_group(*key)
print(built, calls["enumerate_group"][key] - built)
"""
    built, sentinel = map(
        int, run_fresh(code).strip().splitlines()[-1].split())
    assert sentinel == 1
    assert built == 0
