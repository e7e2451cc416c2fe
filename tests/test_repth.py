import csv
import random
from fractions import Fraction

import numpy as np
import pytest

from hecke_forge import repth
from hecke_forge.finglq import (
    GroupSizeError, MultChar, all_characters, bruhat_decomposition,
    elliptic_regular, get_field, gl_group, mat_det, mat_to_ints, perm_matrix,
)
from hecke_forge.repth import (
    FinHeckeElt, FinRep, InducedRep, alvis_curtis_sign_check, borel,
    char_generalized_trivial, conj_avg, dim_from_e_tau, double_coset_basis,
    e_tau, elliptic_regular_class_reps, finite_hecke_basis,
    frobenius_transport_check, induce, intertwining_dimension,
    isotypic_projector_character, sigma_tilde, sign_identity_deviation,
    steinberg_char, subrep_from_idempotent, torus_character,
    trace_via_coset_sum,
)
from hecke_forge.weyl import all_perms


def trivial(q):
    return MultChar(q, 0)


def three_cycle_gl22():
    # companion of x^2+x+1: the unique elliptic regular class of GL(2,2)
    return ((0, 1), (1, 1))


def values_of(f):
    """g -> f(g) for a `FinHeckeElt`, the |G|-sized view of its labels
    (desk scale only): cells in the order their labels first appear, each
    cell in the order of `bruhat_decomposition`, labels without a
    coefficient left out."""
    cells: dict = {w: {} for w, _ in f.labels}
    for g, label in bruhat_decomposition(f.group.n, f.group.q).items():
        if label in f.labels:
            cells[label[0]][g] = f.labels[label]
    return {g: x for cell in cells.values() for g, x in cell.items()}


def scaled(f, c):
    """c * f, held by label as f is."""
    return FinHeckeElt(f.group.n, f.group.q,
                       {k: c * v for k, v in f.labels.items()})


def convolve(f, g):
    """The full convolution f * g on G, as a dict g -> value with missing
    keys zero; quadratic in the supports, desk scale only.  The oracle for
    `FinHeckeElt.convolve_at`."""
    mul = f.group.mul
    out: dict = {}
    g_values = list(values_of(g).items())
    for x, vx in values_of(f).items():
        if vx == 0:
            continue
        for y, vy in g_values:
            if vy == 0:
                continue
            z = mul(x, y)
            out[z] = out.get(z, 0) + vx * vy
    return out


def support_size(f):
    return sum(1 for v in values_of(f).values() if v != 0)


def equivariance_holds(f, sigma, samples=50, seed=0, tol=1e-9):
    """f(h1 g h2) = sigma(h1) f(g) sigma(h2) on random triples."""
    rng = random.Random(seed)
    G, H = f.group, f.sub
    for _ in range(samples):
        g = rng.choice(G.elements)
        h1 = rng.choice(H.elements)
        h2 = rng.choice(H.elements)
        lhs = complex(f(G.mul(G.mul(h1, g), h2)))
        rhs = complex(sigma(h1)) * complex(f(g)) * complex(sigma(h2))
        if abs(lhs - rhs) > tol:
            return False
    return True


def as_finrep(ind):
    return FinRep(ind.group, {g: ind.mat(g) for g in ind.group.elements},
                  ind.dim)


def is_homomorphism(rep, samples=40, seed=1, tol=1e-9):
    rng = random.Random(seed)
    G = rep.group
    for _ in range(samples):
        a, b = rng.choice(G.elements), rng.choice(G.elements)
        if np.max(np.abs(rep.mat(G.mul(a, b))
                         - rep.mat(a) @ rep.mat(b))) > tol:
            return False
    return True


def class_function_to_csv(f, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_rep", "class_size", "value_re", "value_im"])
        for cls, v in zip(f.group.conjugacy_classes(), f.values):
            rep = " ".join(str(x) for x in mat_to_ints(cls[0]))
            vc = complex(v)
            writer.writerow([f"q={f.group.q};{rep}", len(cls),
                             repr(vc.real), repr(vc.imag)])


# --- bruhat data and the basis ----------------------------------------------

def test_label_index_survives_a_group_cache_clear():
    # the label index belongs to the group that reads it: a group built
    # after `gl_group.cache_clear()` builds its own, though the cached
    # `bruhat_decomposition` does not run again (fresh interpreter)
    import subprocess
    import sys
    code = "\n".join([
        "from hecke_forge import finglq, repth",
        "finglq.bruhat_decomposition(2, 3)",
        "finglq.gl_group.cache_clear()",
        "assert len(repth.FinHeckeElt(2, 3, {}).coefficients()) == 4",
        "repth.e_tau.__wrapped__(2, 3, finglq.MultChar(3, 0))",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bruhat_value_well_defined_gl23():
    # recompute the unit invariant from every decomposition: must agree
    F = get_field(3)
    G = gl_group(2, 3)
    B = borel(2, 3)
    dec = bruhat_decomposition(2, 3)
    from hecke_forge.finglq import diag_product, mat_mul
    for w in all_perms(2):
        wm = perm_matrix(2, w)
        for b1 in B.elements:
            for b2 in B.elements:
                g = mat_mul(F, mat_mul(F, b1, wm), b2)
                cell, v = dec[g]
                assert cell == w
                assert F.mul(diag_product(F, b1), diag_product(F, b2)) == v


@pytest.mark.parametrize("e,q", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_basis_size_and_support(e, q):
    for chi in all_characters(q):
        basis = finite_hecke_basis(e, q, chi)
        assert len(basis) == [1, 1, 2, 6][e]
        total_support = sum(support_size(b) for b in basis)
        assert total_support == gl_group(e, q).order
        sig = sigma_tilde(e, q, chi)
        for b in basis:
            assert equivariance_holds(b, sig, samples=25)


def test_basis_equivariance_exhaustive_small():
    # every (h1, g, h2) triple on GL(2,2)
    q = 2
    G = gl_group(2, q)
    B = borel(2, q)
    sig = sigma_tilde(2, q, trivial(q))
    for b in finite_hecke_basis(2, q, trivial(q)):
        for h1 in B.elements:
            for g in G.elements:
                left = G.mul(h1, g)
                for h2 in B.elements:
                    lhs = b(G.mul(left, h2))
                    rhs = sig(h1) * b(g) * sig(h2)
                    assert lhs == rhs


def test_basis_e1_is_normalized_sigma():
    q = 5
    chi = MultChar(q, 1)
    (f1,) = finite_hecke_basis(1, q, chi)
    G = gl_group(1, q)
    for g in G.elements:
        expect = complex(chi(g[0][0])) / G.order
        assert abs(complex(f1(g)) - expect) < 1e-12


def test_basis_convolution_matches_hecke_relations():
    # fbar_s * fbar_s = q fbar_1 + (q-1) fbar_s at q = 3
    q = 3
    f1, fs = finite_hecke_basis(2, q, trivial(q))
    prod = convolve(fs, fs)
    G = gl_group(2, q)
    for g in G.elements:
        expect = q * f1(g) + (q - 1) * fs(g)
        assert prod.get(g, 0) == expect
    # and fbar_1 is the unit
    unit_fs = convolve(f1, fs)
    for g in G.elements:
        assert unit_fs.get(g, 0) == fs(g)


def test_basis_convolution_idempotent_case_q2():
    q = 2
    f1, fs = finite_hecke_basis(2, q, trivial(q))
    prod = convolve(f1, f1)
    G = gl_group(2, q)
    assert all(prod.get(g, 0) == f1(g) for g in G.elements)


def test_sign_character_twisted_relation():
    # natural basis for chi with chi(-1) = -1: fs*fs = q f1 - (q-1) fs
    q = 3
    chi = MultChar(q, 1)
    f1, fs = finite_hecke_basis(2, q, chi)
    prod = convolve(fs, fs)
    G = gl_group(2, q)
    for g in G.elements:
        assert prod.get(g, 0) == q * f1(g) - (q - 1) * fs(g)


@pytest.mark.parametrize("e,q,k", [(2, 2, 0), (2, 3, 0), (2, 3, 1),
                                   (2, 5, 1), (3, 2, 0)])
def test_renormalized_basis_matches_iwahori_structure_constants(e, q, k):
    # chi(-1)^l(w) * fbar_w |-> T_w is an algebra isomorphism: the finite
    # convolution algebra reproduces the Iwahori-Matsumoto constants at q
    from hecke_forge.hecke import structure_constants
    from hecke_forge.repth import basis_sign
    chi = MultChar(q, k)
    perms = all_perms(e)
    basis = finite_hecke_basis(e, q, chi)
    normed = {w: scaled(b, basis_sign(chi, w)) for w, b in zip(perms, basis)}
    consts = structure_constants(e)
    pts = {w: perm_matrix(e, w) for w in perms}
    for w1 in perms:
        for w2 in perms:
            prod = convolve(normed[w1], normed[w2])
            for w3 in perms:
                # read the fbar_{w3} coefficient at the cell point
                got = prod.get(pts[w3], 0) / normed[w3](pts[w3])
                expect = consts.get((w1, w2, w3))
                expect = expect(q) if expect is not None else 0
                assert abs(complex(got) - complex(expect)) < 1e-9


# --- e_tau -------------------------------------------------------------------

ETAU_RANGE = [(2, 2), (2, 3), (2, 5), (3, 2)]


@pytest.mark.parametrize("e,q", ETAU_RANGE)
def test_e_tau_idempotent_and_dimension(e, q):
    for chi in all_characters(q):
        et = e_tau(e, q, chi)  # raises on idempotency failure
        d = dim_from_e_tau(e, q, chi)
        if chi.is_rational:
            assert d == 1
        else:
            assert abs(complex(d) - 1) < 1e-10


@pytest.mark.slow
def test_e_tau_idempotent_33():
    for chi in all_characters(3):
        et = e_tau(3, 3, chi)
        assert dim_from_e_tau(3, 3, chi) == 1


def test_e_tau_example_22():
    et = e_tau(2, 2, trivial(2))
    f1, fs = finite_hecke_basis(2, 2, trivial(2))
    G = gl_group(2, 2)
    for g in G.elements:
        assert et(g) == Fraction(1, 3) * (f1(g) + fs(g))
    # lam1 = 1/(p(q) |B|) = 1/6
    assert et(G.identity) == Fraction(1, 6)


def test_e_tau_e1():
    et = e_tau(1, 5, trivial(5))
    (f1,) = finite_hecke_basis(1, 5, trivial(5))
    G = gl_group(1, 5)
    assert all(et(g) == f1(g) for g in G.elements)


# --- induced modules and subreps ---------------------------------------------

def test_induce_dimensions():
    assert induce(2, 2, trivial(2)).dim == 3
    assert induce(3, 2, trivial(2)).dim == 21
    assert induce(2, 3, trivial(3)).dim == 4


def test_induced_rep_is_homomorphism():
    ind = induce(2, 3, MultChar(3, 1))
    rep = as_finrep(ind)
    assert is_homomorphism(rep, samples=60)


def test_subrep_from_e_tau_is_trivial_rep():
    for q in (2, 3):
        ind = induce(2, q, trivial(q))
        sub = subrep_from_idempotent(e_tau(2, q, trivial(q)), ind)
        assert sub.dim == 1
        G = gl_group(2, q)
        for g in G.elements:
            assert abs(sub.char_value(g) - 1) < 1e-8


def test_subrep_nontrivial_chi_gives_det_character():
    q = 3
    chi = MultChar(q, 1)  # the sign character of F_3^x
    ind = induce(2, q, chi)
    sub = subrep_from_idempotent(e_tau(2, q, chi), ind)
    assert sub.dim == 1
    G = gl_group(2, q)
    F = get_field(q)
    for g in G.elements:
        assert abs(sub.char_value(g) - complex(chi(mat_det(F, g)))) < 1e-8


def test_subrep_rejects_non_idempotent():
    q = 2
    ind = induce(2, q, trivial(q))
    f1, fs = finite_hecke_basis(2, q, trivial(q))
    with pytest.raises(ValueError):
        subrep_from_idempotent(fs, ind)  # fbar_s alone is not idempotent


def test_subrep_rejects_zero_idempotent():
    q = 2
    ind = induce(2, q, trivial(q))
    zero = FinHeckeElt(2, q, {})
    with pytest.raises(ValueError):
        subrep_from_idempotent(zero, ind)


def test_induce_from_whole_group_returns_sigma():
    # H = G: the induced module is sigma itself (dimension 1 here)
    q = 3
    G = gl_group(1, q)
    chi = MultChar(q, 1)
    ind = InducedRep(G, G, lambda g: chi(g[0][0]))
    assert ind.dim == 1
    for g in G.elements:
        assert abs(ind.mat(g)[0, 0] - complex(chi(g[0][0]))) < 1e-12


def test_isotypic_projector_oracle_matches_subrep():
    for q in (2, 3):
        chi = trivial(q)
        ind = induce(2, q, chi)
        G = gl_group(2, q)
        F = get_field(q)
        oracle = isotypic_projector_character(
            ind, lambda g: chi(mat_det(F, g)), 1)
        sub = subrep_from_idempotent(e_tau(2, q, chi), ind)
        for cls in G.conjugacy_classes():
            g = cls[0]
            assert abs(oracle(g) - sub.char_value(g)) < 1e-8


def test_subrep_character_equals_full_conjugation_sum():
    for e, q in ((2, 2), (2, 3), (3, 2)):
        for chi in all_characters(q):
            ind = induce(e, q, chi)
            sub = subrep_from_idempotent(e_tau(e, q, chi), ind)
            G = gl_group(e, q)
            for cls in G.conjugacy_classes():
                gamma = cls[0]
                full = char_generalized_trivial(gamma, e, q, chi)
                assert abs(complex(full) - sub.char_value(gamma)) < 1e-8


# --- Lemma 9.1 / Corollary 9.2 ------------------------------------------------

def test_conj_avg_identity_and_projector():
    q = 2
    ind = induce(2, q, trivial(q))
    rep = as_finrep(ind)
    # use the Steinberg block inside the permutation module: irreducible reps
    # only, so project out the trivial component first
    G = gl_group(2, q)
    st = _steinberg_matrix_rep(2, q)
    T = np.eye(st.dim, dtype=complex)
    v = _unit_vector(st)
    assert abs(conj_avg(T, st, v) - st.dim) < 1e-8
    gamma = three_cycle_gl22()
    assert abs(conj_avg(st.mat(gamma), st, v) - (-1)) < 1e-8


def _steinberg_matrix_rep(e, q):
    """St realized inside the permutation module via the isotypic projector."""
    chi = trivial(q)
    ind = induce(e, q, chi)
    G = gl_group(e, q)
    st_vals = steinberg_char(e, q, chi)
    n = ind.dim
    P = np.zeros((n, n), dtype=complex)
    for g in G.elements:
        P += complex(st_vals.at(g)).conjugate() * ind.mat(g)
    P *= complex(st_vals.at(G.identity)) / G.order
    rank = int(round(np.trace(P).real))
    u, s, _ = np.linalg.svd(P)
    basis = u[:, :rank]
    mats = {g: basis.conj().T @ ind.mat(g) @ basis for g in G.elements}
    return FinRep(G, mats, rank)


def _unit_vector(rep, seed=3):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    M = rep.invariant_inner_product()
    return v / np.sqrt((v.conj() @ M @ v).real)


def test_conj_avg_random_operators():
    rng = np.random.default_rng(11)
    for e, q in [(2, 2), (2, 3)]:
        st = _steinberg_matrix_rep(e, q)
        v = _unit_vector(st)
        for _ in range(10):
            T = rng.normal(size=(st.dim, st.dim)) \
                + 1j * rng.normal(size=(st.dim, st.dim))
            assert abs(conj_avg(T, st, v) - np.trace(T)) < 1e-7


def test_corollary_matrix_coefficient_sum():
    # tr pi(gamma) = (dim/|G|) sum_x f(x gamma x^-1), f(g) = <v, pi(g) v>
    for e, q in [(2, 2), (2, 3)]:
        st = _steinberg_matrix_rep(e, q)
        G = st.group
        M = st.invariant_inner_product()
        v = _unit_vector(st)
        rng = random.Random(5)
        for gamma in rng.sample(G.elements, min(10, G.order)):
            acc = 0j
            for x in G.elements:
                y = G.mul(G.mul(x, gamma), G.inv(x))
                acc += v.conj() @ M @ (st.mat(y) @ v)
            rhs = acc * st.dim / G.order
            assert abs(st.char_value(gamma) - rhs) < 1e-7


# --- Prop 9.5 / Prop 10.1 ------------------------------------------------------

def test_trace_via_coset_sum_gl22_exhaustive():
    q = 2
    chi = trivial(q)
    et = e_tau(2, q, chi)
    ind = induce(2, q, chi)
    G = gl_group(2, q)
    for gamma in G.elements:
        # pi_e is the trivial representation here: LHS = 1 for every gamma
        val = trace_via_coset_sum(gamma, et, ind)
        assert val == 1


def test_trace_via_coset_sum_gl23_exhaustive_all_chi():
    q = 3
    for chi in all_characters(q):
        et = e_tau(2, q, chi)
        ind = induce(2, q, chi)
        G = gl_group(2, q)
        F = get_field(q)
        sub = subrep_from_idempotent(et, ind)
        for gamma in G.elements:
            val = trace_via_coset_sum(gamma, et, ind)
            assert abs(complex(val) - sub.char_value(gamma)) < 1e-8
            assert abs(complex(val) - complex(chi(mat_det(F, gamma)))) < 1e-8


def test_trace_via_coset_sum_gl32_class_reps():
    q = 2
    chi = trivial(q)
    et = e_tau(3, q, chi)
    ind = induce(3, q, chi)
    G = gl_group(3, q)
    for rep in G.class_reps():
        assert trace_via_coset_sum(rep, et, ind) == 1


def test_trace_via_coset_sum_gl33_every_class_exact():
    q = 3
    G = gl_group(3, q)
    F = get_field(q)
    for chi in all_characters(q):  # both characters of F_3^x are rational
        et = e_tau(3, q, chi)
        ind = induce(3, q, chi)
        for rep in G.class_reps():
            val = trace_via_coset_sum(rep, et, ind)
            assert type(val) is Fraction and val == chi(mat_det(F, rep))


def test_trace_via_coset_sum_gl27_every_class_all_chi():
    q = 7
    G = gl_group(2, q)
    F = get_field(q)
    for chi in all_characters(q):
        et = e_tau(2, q, chi)
        ind = induce(2, q, chi)
        for rep in G.class_reps():
            val = trace_via_coset_sum(rep, et, ind)
            assert abs(complex(val) - complex(chi(mat_det(F, rep)))) <= 1e-8


def test_trace_via_coset_sum_builds_operator_once_per_pair(monkeypatch):
    q = 3
    chi = trivial(q)
    et = e_tau(2, q, chi)

    def new_module():
        # `induce` keeps one module per (e, q, chi), which other tests
        # may have checked already
        return InducedRep(gl_group(2, q), borel(2, q), sigma_tilde(2, q, chi))

    ind = new_module()
    built = []
    original = InducedRep.hecke_operator

    def counting(self, phi):
        built.append(phi)
        return original(self, phi)

    monkeypatch.setattr(InducedRep, "hecke_operator", counting)
    for gamma in gl_group(2, q).class_reps():
        assert trace_via_coset_sum(gamma, et, ind) == 1
    assert built == [et]
    # a new module, or a new idempotent, is checked again
    trace_via_coset_sum(gl_group(2, q).identity, et, new_module())
    assert len(built) == 2


def test_trace_via_coset_sum_rejects_non_adjoint_idempotent():
    q = 3
    chi = trivial(q)
    et = e_tau(2, q, chi)
    ind = induce(2, q, chi)
    G = gl_group(2, q)
    trace_via_coset_sum(G.identity, et, ind)  # the valid pair is now cached
    # every label of GL(2,3) is its own inverse's, (s, v) = (s^-1, v^-1),
    # so an imaginary part at one label breaks e(x^-1) = conj e(x) there;
    # the label (s, 1) is off the identity, so e(1) stays as it was
    label = ((1, 0), 1)
    bad = FinHeckeElt(2, q, {**et.labels, label: et.labels[label] + 1j})
    for _ in range(2):  # a failed check is not cached as a pass
        with pytest.raises(ValueError, match="adjoint"):
            trace_via_coset_sum(G.identity, bad, ind)


def test_char_generalized_trivial_examples():
    assert char_generalized_trivial(three_cycle_gl22(), 2, 2, trivial(2)) == 1
    G3 = gl_group(2, 3)
    assert char_generalized_trivial(G3.identity, 2, 3, trivial(3)) == 1
    # e = 1: value is chi(gamma)
    chi = MultChar(5, 2)
    G1 = gl_group(1, 5)
    for g in G1.elements:
        assert abs(complex(char_generalized_trivial(g, 1, 5, chi))
                   - complex(chi(g[0][0]))) < 1e-10


@pytest.mark.parametrize("e,q", [(2, 2), (2, 3), (3, 2)])
def test_generalized_trivial_char_against_det(e, q):
    F = get_field(q)
    G = gl_group(e, q)
    for chi in all_characters(q):
        for cls in G.conjugacy_classes():
            gamma = cls[0]
            val = char_generalized_trivial(gamma, e, q, chi)
            expect = chi(mat_det(F, gamma))
            assert abs(complex(val) - complex(expect)) < 1e-8


# --- Steinberg and the sign identity -------------------------------------------

def test_steinberg_dimension_and_values():
    st = steinberg_char(2, 3, trivial(3))
    G = gl_group(2, 3)
    assert st.at(G.identity) == 3  # dim St = q
    st22 = steinberg_char(2, 2, trivial(2))
    assert st22.at(three_cycle_gl22()) == -1
    # e = 1: St = chi
    chi = MultChar(5, 1)
    st1 = steinberg_char(1, 5, chi)
    G1 = gl_group(1, 5)
    for g in G1.elements:
        assert abs(complex(st1.at(g)) - complex(chi(g[0][0]))) < 1e-12


def test_steinberg_char_is_built_once_per_character():
    # the sign identity reads the cached class function at every class
    for chi in all_characters(3):
        assert steinberg_char(2, 3, chi) is steinberg_char(2, 3, chi)
    assert steinberg_char(2, 3, MultChar(3, 0)) is not steinberg_char(
        2, 3, MultChar(3, 1))


def test_steinberg_is_irreducible_character():
    for e, q in [(2, 2), (2, 3), (3, 2), (2, 5)]:
        st = steinberg_char(e, q, trivial(q))
        G = gl_group(e, q)
        acc = sum(len(c) * abs(complex(st.at(c[0]))) ** 2
                  for c in G.conjugacy_classes())
        assert acc == G.order


def test_alvis_curtis_examples():
    assert alvis_curtis_sign_check(three_cycle_gl22(), 2, 2, trivial(2))
    # an order-8 elliptic element of GL(2,3)
    G = gl_group(2, 3)
    order8 = None
    for rep in elliptic_regular_class_reps(2, 3):
        k, acc = 1, rep
        while acc != G.identity:
            acc = G.mul(acc, rep)
            k += 1
        if k == 8:
            order8 = rep
            break
    assert order8 is not None
    assert alvis_curtis_sign_check(order8, 2, 3, trivial(3))
    # an order-7 element of GL(3,2)
    comp = ((0, 0, 1), (1, 0, 1), (0, 1, 0))  # companion of x^3+x+1
    assert elliptic_regular(2, comp)
    assert alvis_curtis_sign_check(comp, 3, 2, trivial(2))


@pytest.mark.parametrize("e,q", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_alvis_curtis_all_elliptic_classes_all_chi(e, q):
    reps = elliptic_regular_class_reps(e, q)
    assert reps  # elliptic classes exist in every listed group
    for chi in all_characters(q):
        for gamma in reps:
            assert alvis_curtis_sign_check(gamma, e, q, chi)


def test_alvis_curtis_rejects_split_elements():
    with pytest.raises(ValueError):
        alvis_curtis_sign_check(gl_group(2, 3).identity, 2, 3, trivial(3))
    # and matrices outside the group: singular, or of another size
    for gamma in (((1, 1), (1, 1)), ((0, 0, 1), (1, 0, 1), (0, 1, 0))):
        with pytest.raises(ValueError):
            sign_identity_deviation(gamma, 2, 2, trivial(2))


@pytest.mark.parametrize("e,q", [(1, 5), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_elliptic_classes_match_every_element(e, q):
    # one test per class stands for every member of it
    G = gl_group(e, q)
    ell = G.elliptic_classes
    assert [elliptic_regular(q, g) for g in G.elements] \
        == [G.class_index(g) in ell for g in G.elements]
    assert elliptic_regular_class_reps(e, q) \
        == [c[0] for c in G.conjugacy_classes() if elliptic_regular(q, c[0])]


def test_sign_identity_deviation_e1():
    # every element of GL(1, q) is elliptic regular, and St = chi(det)
    chi = MultChar(5, 1)
    for g in gl_group(1, 5).elements:
        assert sign_identity_deviation(g, 1, 5, chi) < 1e-10


def test_generalized_trivial_character_gl22_exact():
    # the three-cycle of GL(2,2): Tr tau = (-1) * Tr St = (-1) * (-1) = 1
    assert char_generalized_trivial(three_cycle_gl22(), 2, 2, trivial(2)) == 1


# --- intertwining dimension and transport ---------------------------------------

def test_intertwining_dimension_values():
    assert intertwining_dimension(2, 2, trivial(2)) == 2
    assert intertwining_dimension(2, 3, MultChar(3, 1)) == 2
    assert intertwining_dimension(3, 2, trivial(2)) == 6


def test_intertwining_dimension_input_checks():
    # the dimension and the basis built on it refuse what enumerating G
    # refuses: e < 1, and a pair above the cap
    with pytest.raises(ValueError, match="n must be positive"):
        intertwining_dimension(0, 2, trivial(2))
    cap = r"full subgroup of GL\(3,5\) has order 1488000"
    for fn in (intertwining_dimension, finite_hecke_basis):
        with pytest.raises(GroupSizeError, match=cap):
            fn(3, 5, MultChar(5, 1))


def test_induce_is_kept_per_character():
    chi = MultChar(3, 1)
    ind = induce(2, 3, chi)
    assert induce(2, 3, chi) is ind
    assert induce(2, 3, MultChar(3, 1)) is ind
    assert induce(2, 3, trivial(3)) is not ind


def test_coset_data_is_kept_on_the_group():
    G, B = gl_group(2, 3), borel(2, 3)
    ind = induce(2, 3, MultChar(3, 1))
    data = G._cosets[B.spec]
    assert data.transversal is ind.transversal
    assert ind._cosets is data
    assert len(data.transversal) == G.order // B.order
    assert data.coset.shape == data.h.shape == (G.order,)
    assert repth._coset_data(G, B) is data


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3)])
def test_coset_data_keeps_the_enumerated_objects(n, q):
    # the transversal holds objects of G.elements, and each g's h indexes
    # B.elements, so g = B.elements[h] * transversal[i] with the
    # enumerated objects on both sides
    G, B = gl_group(n, q), borel(n, q)
    data = repth._coset_data(G, B)

    def enumerated(g):
        return g is G.elements[G.index(g)]

    assert all(enumerated(r) for r in data.transversal)
    assert data.h.min() >= 0 and data.h.max() < B.order
    assert data.coset.min() == 0
    assert data.coset.max() == len(data.transversal) - 1
    assert all(G.mul(B.elements[h], data.transversal[i]) == g
               for g, i, h in zip(G.elements, data.coset.tolist(),
                                  data.h.tolist()))


def test_double_coset_basis_asymmetric_character():
    # chi1 != chi2 kills every non-identity cell
    G = gl_group(2, 3)
    B = borel(2, 3)
    sig = torus_character(3, (0, 1))
    basis = double_coset_basis(G, B, sig)
    assert len(basis) == 1
    assert set(basis[0]) == set(B.elements)


def test_frobenius_transport_gl22_trivial():
    G = gl_group(2, 2)
    B = borel(2, 2)
    dev = frobenius_transport_check(G, B, sigma_tilde(2, 2, trivial(2)))
    assert dev <= 1e-9


def test_frobenius_transport_gl23_nontrivial_torus_character():
    G = gl_group(2, 3)
    B = borel(2, 3)
    dev = frobenius_transport_check(G, B, torus_character(3, (1, 1)))
    assert dev <= 1e-9
    # also an asymmetric character, where the algebra is 1-dimensional
    dev2 = frobenius_transport_check(G, B, torus_character(3, (0, 1)))
    assert dev2 <= 1e-9


def test_class_function_csv(tmp_path):
    st = steinberg_char(2, 2, trivial(2))
    out = tmp_path / "st.csv"
    class_function_to_csv(st, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class_rep,class_size,value_re,value_im"
    assert len(lines) == 1 + len(gl_group(2, 2).conjugacy_classes())


# --- the one-point-per-cell idempotency check ---------------------------------

@pytest.mark.parametrize("e,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_e_tau_equals_its_full_self_convolution(e, q):
    # the whole-group oracle for the check e_tau runs at one point per cell
    G = gl_group(e, q)
    for chi in all_characters(q):
        et = e_tau(e, q, chi)
        full = convolve(et, et)
        for g in G.elements:
            got = full.get(g, 0)
            if chi.is_rational:
                assert got == et(g), (chi.k, g)
            else:
                assert abs(complex(got) - complex(et(g))) <= 1e-10, \
                    (chi.k, g)


@pytest.mark.parametrize("e,q", [
    (2, 5), (3, 2), pytest.param(3, 3, marks=pytest.mark.slow)])
def test_idempotency_check_rejects_non_idempotents(e, q):
    for chi in all_characters(q):
        et = e_tau(e, q, chi)
        w0 = tuple(reversed(range(e)))
        longest = dict(zip(all_perms(e), finite_hecke_basis(e, q, chi)))[w0]
        assert repth._idempotency_holds(et, e, q)
        assert not repth._idempotency_holds(scaled(et, 2), e, q)
        assert not repth._idempotency_holds(longest, e, q)
