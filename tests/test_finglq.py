import cmath
import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hecke_forge import finglq
from hecke_forge.finglq import (
    GroupSizeError, MultChar, SubgroupSpec, all_characters, blocks_from_type,
    char_poly, check_field_axioms, elliptic_regular, enumerate_group,
    get_field, gl_group, gl_order, group_order, identity_mat, mat_det,
    mat_inv, mat_mul, mat_to_ints, poly_is_irreducible,
    proper_parabolic_avoidance,
)

ALL_Q = [2, 3, 4, 5, 7, 8, 9]


def mat_from_ints(n, vals):
    vals = list(vals)
    if len(vals) != n * n:
        raise ValueError("wrong entry count")
    return tuple(tuple(vals[i * n:(i + 1) * n]) for i in range(n))


def multiplier(F, s, left):
    # the per-element product, kept with the other whole-group references
    from test_class_coset_algorithms import multiplier as ref
    return ref(F, s, left)


def centralizer_order(G, g):
    cls = G.conjugacy_classes()[G.class_index(g)]
    return G.order // len(cls)


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(q):
    assert check_field_axioms(q)


@pytest.mark.parametrize("q", ALL_Q)
def test_generator_and_log(q):
    F = get_field(q)
    if q == 2:
        assert F.generator == 1
        return
    seen = set()
    acc = 1
    for _ in range(q - 1):
        acc = F.mul(acc, F.generator)
        seen.add(acc)
    assert seen == set(range(1, q))
    for u in range(1, F.q):
        k = F.log(u)
        acc = 1
        for _ in range(k):
            acc = F.mul(acc, F.generator)
        assert acc == u


def test_fixed_irreducibles_are_pinned():
    assert finglq._IRREDUCIBLE[4] == (1, 1, 1)      # x^2+x+1
    assert finglq._IRREDUCIBLE[8] == (1, 1, 0, 1)   # x^3+x+1
    assert finglq._IRREDUCIBLE[9] == (1, 0, 1)      # x^2+1


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_characters(q):
    chars = all_characters(q)
    assert len(chars) == q - 1
    F = get_field(q)
    for chi in chars:
        # multiplicative on all unit pairs
        for a in range(1, F.q):
            for b in range(1, F.q):
                va, vb = complex(chi(a)), complex(chi(b))
                assert abs(va * vb - complex(chi(F.mul(a, b)))) < 1e-12
    trivial = chars[0]
    assert all(trivial(u) == Fraction(1) for u in range(1, F.q))
    if q % 2 == 1:
        sign_char = MultChar(q, (q - 1) // 2)
        assert sign_char.is_rational
        vals = {sign_char(u) for u in range(1, F.q)}
        assert vals == {Fraction(1), Fraction(-1)}


@pytest.mark.parametrize("q", ALL_Q)
def test_character_table_matches_formula(q):
    # the values computed once at construction, against the formula at
    # every k (also outside 0..q-2) and every unit: equal values of the
    # same type, so every float built on them keeps its bytes
    F = get_field(q)
    n = q - 1
    for k in range(-1, q):
        chi = MultChar(q, k)
        for u in range(1, F.q):
            m = F.log(u)
            if chi.k == 0:
                want = Fraction(1)
            elif 2 * chi.k == n:
                want = Fraction(-1) if m % 2 else Fraction(1)
            else:
                want = cmath.exp(2j * cmath.pi * chi.k * m / n)
            got = chi(u)
            assert got == want and type(got) is type(want), (k, u)
        with pytest.raises(ZeroDivisionError):
            chi(0)
        with pytest.raises(KeyError):
            chi(q)


def test_enumeration_leaves_nothing_behind():
    # no reference cycle holds the list: with the cyclic collector off,
    # dropping the result frees it (a self-referencing closure kept
    # about 0.78 MB of GL(3,3) alive)
    get_field(3), group_order(3, 3, SubgroupSpec.full())
    assert not tracemalloc.is_tracing()
    gc.disable()
    tracemalloc.start()
    try:
        els = enumerate_group(3, 3, SubgroupSpec.full())
        assert len(els) == 11232
        del els
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left <= 0.2e6, left


def test_enumerate_group_examples():
    assert len(enumerate_group(2, 2, SubgroupSpec.full())) == 6
    assert len(enumerate_group(2, 3, SubgroupSpec.borel())) == 12
    assert len(enumerate_group(1, 5, SubgroupSpec.full())) == 4


@pytest.mark.parametrize("n", [0, -1])
def test_rank_below_one_raises(n):
    for spec in (SubgroupSpec.full(), SubgroupSpec.borel()):
        with pytest.raises(ValueError, match="n must be positive"):
            enumerate_group(n, 2, spec)
    with pytest.raises(ValueError, match="n must be positive"):
        gl_group(n, 3)


ENUMERABLE = [(1, q) for q in ALL_Q] + [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9),
    (3, 2), (3, 3), (4, 2),
]


@pytest.mark.parametrize("n,q", ENUMERABLE)
def test_gl_order_formula(n, q):
    els = enumerate_group(n, q, SubgroupSpec.full())
    assert len(els) == gl_order(n, q)
    assert len(set(els)) == len(els)


def test_size_cap(monkeypatch):
    with pytest.raises(GroupSizeError):
        enumerate_group(3, 4, SubgroupSpec.full())
    monkeypatch.setattr(finglq, "MAX_GROUP_ORDER", 5)
    with pytest.raises(GroupSizeError):
        enumerate_group(2, 2, SubgroupSpec.full())


def test_subgroup_orders_and_membership():
    q, n = 3, 3
    for spec in [SubgroupSpec.borel(),
                 SubgroupSpec.standard_parabolic((2, 1)),
                 SubgroupSpec.unipotent_radical((2, 1)),
                 SubgroupSpec.levi((2, 1))]:
        els = enumerate_group(n, q, spec)
        assert len(els) == group_order(n, q, spec)
        F = get_field(q)
        for g in els[:20]:
            assert mat_det(F, g) != 0


def _block_of(blocks):
    return [bi for bi, b in enumerate(blocks) for _ in range(b)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_levi_and_unipotent_are_slices_of_the_parabolic(n, q):
    """Levi elements: the parabolic's elements with zeros above the blocks;
    unipotent-radical elements: those with identity diagonal blocks; both
    in the parabolic's order."""
    for blocks in finglq._compositions(n):
        par = enumerate_group(n, q, SubgroupSpec.standard_parabolic(blocks))
        bo = _block_of(blocks)
        above = [(i, j) for i in range(n) for j in range(n) if bo[i] < bo[j]]
        diag = [(i, j) for i in range(n) for j in range(n) if bo[i] == bo[j]]
        levi = [g for g in par if all(g[i][j] == 0 for i, j in above)]
        unip = [g for g in par
                if all(g[i][j] == (i == j) for i, j in diag)]
        assert enumerate_group(n, q, SubgroupSpec.levi(blocks)) == levi
        assert enumerate_group(
            n, q, SubgroupSpec.unipotent_radical(blocks)) == unip
    borel = enumerate_group(n, q, SubgroupSpec.borel())
    assert borel == enumerate_group(
        n, q, SubgroupSpec.standard_parabolic((1,) * n))


def ref_is_block_upper(g, blocks):
    """Entry by entry: no nonzero entry of g below its diagonal blocks."""
    block_of = _block_of(blocks)
    n = len(g)
    for i in range(n):
        for j in range(n):
            if g[i][j] != 0 and block_of[i] > block_of[j]:
                return False
    return True


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_block_upper_array_matches_entry_loop(n, q):
    # the code array of each class under every composition, one truth
    # value per matrix; over two leading axes the same values; a tuple
    # matrix gives one bool
    G = gl_group(n, q)
    for blocks in finglq._compositions(n):
        for cls in G.conjugacy_classes():
            want = [ref_is_block_upper(g, blocks) for g in cls]
            got = finglq.is_block_upper(np.array(cls, dtype=np.uint8), blocks)
            assert got.shape == (len(cls),)
            assert got.tolist() == want
            assert [finglq.is_block_upper(g, blocks) for g in cls] == want
            assert all(type(finglq.is_block_upper(g, blocks)) is bool
                       for g in cls)
        flat = finglq.is_block_upper(G.codes, blocks)
        assert np.array_equal(
            finglq.is_block_upper(G.codes.reshape(2, -1, n, n), blocks),
            flat.reshape(2, -1))


def test_blocks_from_type():
    assert blocks_from_type(set(), 3) == (1, 1, 1)
    assert blocks_from_type({1}, 3) == (2, 1)
    assert blocks_from_type({1, 2}, 3) == (3,)
    assert blocks_from_type({2}, 4) == (1, 2, 1)


def test_mat_ops_random():
    import random
    rng = random.Random(3)
    for q in (3, 4, 9):
        F = get_field(q)
        G = gl_group(2, q) if q <= 5 else None
        for _ in range(25):
            a = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
            if mat_det(F, a) == 0:
                continue
            assert mat_mul(F, a, mat_inv(F, a)) == identity_mat(3)


@pytest.mark.parametrize("n,q", [(2, 4), (2, 9), (3, 2), (3, 3), (3, 8)])
def test_multiplier_matches_mat_mul(n, q):
    # row and column operations for the elementary and diagonal generators
    # of GL(n, q) and its Borel, the mat_mul fallback for any other matrix
    import random
    rng = random.Random(n * 10 + q)
    F = get_field(q)
    # generators need no enumeration: GL(3, 8) is above the cap
    gens = (finglq.MatrixGroup(n, q, SubgroupSpec.full(), []).generators()
            + finglq.MatrixGroup(n, q, SubgroupSpec.borel(), []).generators())
    mats = [tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
            for _ in range(30)]
    for s in gens + mats[:5]:
        left = multiplier(F, s, left=True)
        right = multiplier(F, s, left=False)
        for g in mats:
            assert left(g) == mat_mul(F, s, g)
            assert right(g) == mat_mul(F, g, s)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multiplier_permutation_path_matches_mat_mul(n):
    # permutation matrices reorder rows (left) or columns (right)
    import random
    rng = random.Random(40 + n)
    for q in (2, 3, 4):
        F = get_field(q)
        mats = [tuple(tuple(rng.randrange(q) for _ in range(n))
                      for _ in range(n)) for _ in range(10)]
        for _ in range(8):
            w = rng.sample(range(n), n)
            s = finglq.perm_matrix(n, w)
            left = multiplier(F, s, left=True)
            right = multiplier(F, s, left=False)
            for g in mats:
                assert left(g) == mat_mul(F, s, g)
                assert right(g) == mat_mul(F, g, s)


@pytest.mark.parametrize("n,q", [
    (1, 5), (2, 4), (2, 9), (3, 2), (3, 3), (4, 2)])
def test_mul_codes_matches_mat_mul(n, q):
    # the array product against mat_mul, for the generators of GL(n, q)
    # and its Borel, permutation matrices and arbitrary invertible s
    import random
    rng = random.Random(n * 100 + q)
    F = get_field(q)
    gens = (finglq.MatrixGroup(n, q, SubgroupSpec.full(), []).generators()
            + finglq.MatrixGroup(n, q, SubgroupSpec.borel(), []).generators()
            + [finglq.perm_matrix(n, rng.sample(range(n), n))
               for _ in range(3)])
    mats = [tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
            for _ in range(30)]
    gens += [a for a in mats if mat_det(F, a)][:5]
    codes = np.array(mats, dtype=np.uint8).reshape(len(mats), n, n)
    for s in gens:
        for left in (True, False):
            got = finglq._mul_codes(F, s, codes, left)
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            want = [mat_mul(F, s, g) if left else mat_mul(F, g, s)
                    for g in mats]
            assert [tuple(map(tuple, m)) for m in got.tolist()] == want


def test_locate_finds_members_in_unsorted_lists():
    # the Borel's list is not sorted; members map to their own index,
    # anything else to -1
    B = finglq.subgroup(3, 3, SubgroupSpec.borel())
    assert B.elements != sorted(B.elements)
    codes = B.codes
    assert B._locate(codes).tolist() == list(range(B.order))
    G = gl_group(3, 3)
    at = B._locate(G.codes)
    assert [G.elements[i] for i in np.flatnonzero(at >= 0)] \
        == sorted(B.elements)
    assert all(B.elements[i] == g for i, g in zip(at.tolist(), G.elements)
               if i >= 0)


def test_multiplier_monomial_is_not_a_permutation():
    # a scaled permutation matrix takes the mat_mul fallback
    F = get_field(3)
    s = ((0, 2), (1, 0))
    g = ((1, 2), (0, 1))
    assert multiplier(F, s, left=True)(g) == mat_mul(F, s, g)
    assert multiplier(F, s, left=False)(g) == mat_mul(F, g, s)


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_borel_generators_generate_the_borel(n, q):
    B = finglq.subgroup(n, q, SubgroupSpec.borel())
    gens = B.generators()
    assert len(gens) == (n if q > 2 else 0) + n - 1
    reached, queue = {B.identity}, [B.identity]
    for x in queue:
        for s in gens:
            y = B.mul(x, s)
            if y not in reached:
                reached.add(y)
                queue.append(y)
    assert reached == set(B.elements)


def closure(G, gens):
    """Every product of gens, by breadth-first search from the identity."""
    reached, queue = {G.identity}, [G.identity]
    for x in queue:
        for s in gens:
            y = G.mul(x, s)
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return reached


@pytest.mark.parametrize("n,q,blocks", [
    (n, q, blocks) for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                (3, 3), (4, 2)]
    for blocks in finglq._compositions(n)])
def test_parabolic_generators_generate_the_parabolic(n, q, blocks):
    # the Borel's generators, then one E_{i+1,i}(1) for each i, i+1 in one
    # block; none of those can be dropped
    P = finglq.subgroup(n, q, SubgroupSpec.standard_parabolic(blocks))
    gens = P.generators()
    borel_gens = finglq._borel_generators(P.field_, n)
    lower = gens[len(borel_gens):]
    assert gens[:len(borel_gens)] == borel_gens
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    assert lower == [finglq.elementary_mat(n, i + 1, i, 1)
                     for i in range(n - 1) if block_of[i] == block_of[i + 1]]
    assert closure(P, gens) == set(P.elements)
    for s in lower:
        assert closure(P, [g for g in gens if g is not s]) < set(P.elements)


def test_char_poly_examples():
    F2 = get_field(2)
    # identity, n=2: (x-1)^2 = x^2 + 1 over F_2 -> coeffs (1, 0, 1)
    assert char_poly(F2, identity_mat(2)) == (1, 0, 1)
    # companion matrix of f has char poly f
    f = (1, 1, 1)  # x^2+x+1 over F_2
    comp = ((0, 1), (1, 1))  # companion of x^2+x+1: last column = -coeffs
    assert char_poly(F2, comp) == f
    # [[0,1],[1,1]] over F_3: x^2 - x - 1 -> little-endian (-1, -1, 1) = (2,2,1)
    F3 = get_field(3)
    assert char_poly(F3, ((0, 1), (1, 1))) == (2, 2, 1)


def test_elliptic_regular_examples():
    assert not elliptic_regular(2, identity_mat(2))
    assert elliptic_regular(2, ((0, 1), (1, 1)))
    assert not elliptic_regular(3, ((1, 0), (0, 2)))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_elliptic_equals_parabolic_avoidance_exhaustive(n, q):
    G = gl_group(n, q)
    for g in G.elements:
        assert elliptic_regular(q, g) == proper_parabolic_avoidance(n, q, g)


def ref_proper_parabolic_avoidance(n, q, g):
    """g conjugated by every x in G, each conjugate tested against every
    proper block composition."""
    G = gl_group(n, q)
    compositions = [c for c in finglq._compositions(n) if len(c) >= 2]
    for x in G.elements:
        y = G.mul(G.mul(x, g), G.inv(x))
        if any(finglq.is_block_upper(y, blocks) for blocks in compositions):
            return False
    return True


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_parabolic_avoidance_matches_conjugation_scan(n, q):
    for g in gl_group(n, q).elements:
        assert proper_parabolic_avoidance(n, q, g) \
            == ref_proper_parabolic_avoidance(n, q, g)


def test_parabolic_avoidance_rejects_non_members():
    with pytest.raises(ValueError, match="not invertible"):
        proper_parabolic_avoidance(2, 3, ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="not invertible"):
        proper_parabolic_avoidance(2, 3, identity_mat(3))


def test_poly_irreducibility_against_root_count():
    # degree-2 polynomials over F_q are irreducible iff they have no roots
    for q in (2, 3, 5):
        F = get_field(q)
        import itertools
        for c0, c1 in itertools.product(range(q), repeat=2):
            coeffs = (c0, c1, 1)
            has_root = any(
                F.add(F.add(c0, F.mul(c1, x)), F.mul(x, x)) == 0
                for x in range(q))
            assert poly_is_irreducible(F, coeffs) == (not has_root)


def test_conjugacy_classes_gl22():
    G = gl_group(2, 2)
    classes = G.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 2, 3]  # S_3
    for cls in classes:
        rep = cls[0]
        assert centralizer_order(G, rep) * len(cls) == G.order


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3)])
def test_classes_and_labels_keep_the_enumerated_objects(n, q):
    G = gl_group(n, q)

    def enumerated(g):
        return g is G.elements[G.index(g)]

    classes = G.conjugacy_classes()
    assert all(enumerated(g) for cls in classes for g in cls)
    # the class of each element is an int in `elements` order
    want = [None] * G.order
    for i, cls in enumerate(classes):
        for g in cls:
            want[G.index(g)] = i
    assert G._class_data[1] == want
    dec = finglq.bruhat_decomposition(n, q)
    assert all(enumerated(g) for g in dec)
    # one tuple per label (w, v): e! (q - 1) of them
    assert len({id(label) for label in dec.values()}) \
        == len(set(dec.values())) == math.factorial(n) * (q - 1)


def test_classes_and_class_index_are_one_cached_value():
    # the classes and the class of each element are formed together and
    # kept as one value, so neither can be read without the other
    G = finglq.MatrixGroup(2, 3, SubgroupSpec.full(),
                           enumerate_group(2, 3, SubgroupSpec.full()))
    assert "_class_data" not in vars(G)
    G.class_index(G.identity)
    classes, class_of = vars(G)["_class_data"]
    assert G.conjugacy_classes() is classes
    assert all(class_of[G.index(g)] == i
               for i, cls in enumerate(classes) for g in cls)
    assert [G.class_index(g) for g in G.elements] == class_of


def test_a_group_built_directly_derives_its_tables_on_first_read():
    # no `gl_group` and no `bruhat_decomposition` call fills them in first
    def fresh():
        return finglq.MatrixGroup(2, 3, SubgroupSpec.full(),
                                  enumerate_group(2, 3, SubgroupSpec.full()))

    ref = gl_group(2, 3)
    labels, at = fresh().bruhat_index
    assert labels == ref.bruhat_index[0]
    assert np.array_equal(at, ref.bruhat_index[1])
    assert fresh().class_labels == ref.class_labels
    G = fresh()
    assert [G.class_index(g) for g in G.elements] \
        == [ref.class_index(g) for g in ref.elements]


def test_precompute_inverses_only_computes_missing_ones(monkeypatch):
    G = finglq.MatrixGroup(2, 3, SubgroupSpec.full(),
                           enumerate_group(2, 3, SubgroupSpec.full()))
    calls = []

    def counting(F, a):
        calls.append(a)
        return mat_inv(F, a)

    monkeypatch.setattr(finglq, "mat_inv", counting)
    # `G.inv` caches lazily: touching every element twice inverts each once
    G.inv(G.elements[5])
    for g in G.elements:
        G.inv(g)
    assert len(calls) == G.order
    for g in G.elements:
        G.inv(g)
    assert len(calls) == G.order
    assert all(mat_mul(G.field_, g, G.inv(g)) == G.identity
               for g in G.elements)


def test_serialization_roundtrip():
    g = ((0, 1), (2, 1))
    assert mat_from_ints(2, mat_to_ints(g)) == g


def _mislabel(monkeypatch, wrong_label):
    """Patch the labelling kernel `_bruhat_labels` so that
    `wrong_label(g, (w, v))` gives the label of g, for every matrix g of
    any code array it reduces, keyed by the matrix, not by its place: G's
    array in `_bruhat_index`, and the matrices and their products by the
    generators in `label_positions`."""
    real = finglq._bruhat_labels

    def patched(F, codes):
        w, v = real(F, codes)
        for i, (g, wi, vi) in enumerate(zip(codes.tolist(), w.tolist(),
                                            v.tolist())):
            w[i], v[i] = wrong_label(tuple(map(tuple, g)), (tuple(wi), vi))
        return w, v

    monkeypatch.setattr(finglq, "_bruhat_labels", patched)


@pytest.mark.parametrize("e,q", [
    (2, 3), pytest.param(3, 3, marks=pytest.mark.slow)])
def test_bruhat_rejects_a_wrong_unit_at_one_element(monkeypatch, e, q):
    # v times a unit other than 1 at one g: every cell keeps its size
    F = get_field(q)
    target = gl_group(e, q).elements[len(gl_group(e, q).elements) // 2]
    _mislabel(monkeypatch, lambda g, wv: (
        (wv[0], F.mul(F.generator, wv[1])) if g == target else wv))
    with pytest.raises(AssertionError, match="bi-equivariant"):
        finglq._bruhat_index(gl_group(e, q))


@pytest.mark.parametrize("e,q", [
    (2, 3), pytest.param(3, 3, marks=pytest.mark.slow)])
def test_bruhat_rejects_two_swapped_labels(monkeypatch, e, q):
    # g1 and g2 from different cells trade labels: cell sizes stay right
    dec = finglq.bruhat_decomposition(e, q)
    g1 = identity_mat(e)
    g2 = next(g for g, (w, _) in dec.items() if w != dec[g1][0])
    swap = {g1: dec[g2], g2: dec[g1]}
    _mislabel(monkeypatch, lambda g, wv: swap.get(g, wv))
    with pytest.raises(AssertionError, match="bi-equivariant"):
        finglq._bruhat_index(gl_group(e, q))


@pytest.mark.parametrize("e,q", [(2, 3), (3, 3)])
def test_bruhat_rejects_a_unit_at_a_permutation_matrix(monkeypatch, e, q):
    # the permutation matrix of w0 labelled (w0, zeta)
    F = get_field(q)
    w0 = tuple(reversed(range(e)))
    target = finglq.perm_matrix(e, w0)
    _mislabel(monkeypatch, lambda g, wv: (
        (w0, F.generator) if g == target else wv))
    with pytest.raises(AssertionError):
        finglq._bruhat_index(gl_group(e, q))


@pytest.mark.parametrize("e,q", [(2, 3), (3, 3)])
def test_bruhat_rejects_a_unit_on_a_whole_cell(monkeypatch, e, q):
    # every v in the cell of w0 times zeta: the labels stay bi-equivariant
    # and the cells keep their sizes, but w0 itself is labelled
    # (w0, zeta), so g^-1 would not have the label (w^-1, v^-1)
    F = get_field(q)
    w0 = tuple(reversed(range(e)))
    _mislabel(monkeypatch, lambda g, wv: (
        (w0, F.mul(F.generator, wv[1])) if wv[0] == w0 else wv))
    with pytest.raises(AssertionError, match="permutation matrix"):
        finglq._bruhat_index(gl_group(e, q))


def test_bruhat_rejects_two_cells_trading_labels(monkeypatch):
    # the cells of s1 and s2 (both of length 1, so of equal size) trade
    # their w: bi-equivariant and of the right sizes, but the permutation
    # matrix of s1 is labelled s2
    s1, s2 = (1, 0, 2), (0, 2, 1)
    trade = {s1: s2, s2: s1}
    _mislabel(monkeypatch, lambda g, wv: (trade.get(wv[0], wv[0]), wv[1]))
    with pytest.raises(AssertionError, match="permutation matrix"):
        finglq._bruhat_index(gl_group(3, 2))


def _changed_line(s, left):
    """The row (left) or column (right) that multiplying by the
    elementary matrix s changes."""
    lines = s if left else tuple(zip(*s))
    ident = identity_mat(len(s))
    return next(i for i, line in enumerate(lines) if line != ident[i])


def _misplace(monkeypatch, on_left):
    """Patch `_mul_codes` so that products on one side write the line
    they change into the next line instead, leaving the changed one as
    it was."""
    real = finglq._mul_codes

    def patched(F, s, codes, left):
        out = real(F, s, codes, left)
        if left != on_left:
            return out
        i = _changed_line(s, left)
        j = (i + 1) % len(s)
        bad = codes.copy()
        if left:
            bad[:, j] = out[:, i]
        else:
            bad[:, :, j] = out[:, :, i]
        return bad

    monkeypatch.setattr(finglq, "_mul_codes", patched)


@pytest.mark.parametrize("e,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("left", [True, False], ids=["row", "column"])
def test_bruhat_rejects_an_operation_on_the_wrong_line(monkeypatch, e, q,
                                                       left):
    # s g with its new row written to the wrong row, or g s with its new
    # column written to the wrong column: the labels are right, the
    # products are not
    _misplace(monkeypatch, left)
    with pytest.raises(AssertionError, match="bi-equivariant"):
        finglq._bruhat_index(gl_group(e, q))


# The same faults against the label reads by elimination, which enumerate
# no group: `label_positions` over all of G, and `borel_flags` over the
# normal forms of B\\G.  Each read checks bi-equivariance itself.
LABEL_READS = {
    "label_positions":
        lambda e, q: finglq.label_positions(q, gl_group(e, q).codes),
    "borel_flags": lambda e, q: finglq.borel_flags.__wrapped__(e, q),
}


def _form(e, q, k):
    """Normal form k of `borel_flags(e, q)`, a matrix both reads read."""
    return tuple(map(tuple, finglq.borel_flags(e, q).codes[k].tolist()))


@pytest.mark.parametrize("read", LABEL_READS)
@pytest.mark.parametrize("e,q", [(2, 3), (3, 3)])
def test_label_reads_reject_a_wrong_unit_at_one_matrix(monkeypatch, read,
                                                       e, q):
    # v times zeta at one normal form; F_2^x has no unit but 1, so q = 3
    F = get_field(q)
    target = _form(e, q, len(finglq.borel_flags(e, q).codes) // 2)
    _mislabel(monkeypatch, lambda g, wv: (
        (wv[0], F.mul(F.generator, wv[1])) if g == target else wv))
    with pytest.raises(AssertionError, match="bi-equivariant"):
        LABEL_READS[read](e, q)


@pytest.mark.parametrize("read", LABEL_READS)
@pytest.mark.parametrize("e,q", [(2, 3), (3, 2)])
def test_label_reads_reject_two_swapped_labels(monkeypatch, read, e, q):
    # the identity and the last normal form, in the cell of w0, trade
    # their labels (1, 1) and (w0, 1)
    w0 = tuple(reversed(range(e)))
    swap = {identity_mat(e): (w0, 1), _form(e, q, -1): (tuple(range(e)), 1)}
    _mislabel(monkeypatch, lambda g, wv: swap.get(g, wv))
    with pytest.raises(AssertionError, match="bi-equivariant"):
        LABEL_READS[read](e, q)


def _misplace_pairs(monkeypatch, on_left):
    """Patch `_mul_pairs` so that the products s x (on_left) or x s by
    the stacked generators of `label_positions` write the line each s
    changes into the next line instead, leaving the changed one as it
    was.  Products of two plain code arrays are left right."""
    real = finglq._mul_pairs

    def patched(F, a, b):
        out = real(F, a, b)
        gens, other = (a, b) if on_left else (b, a)
        if gens.ndim != 4:
            return out
        bad = np.broadcast_to(other, out.shape).copy()
        for k, s in enumerate(gens[:, 0].tolist()):
            i = _changed_line(tuple(map(tuple, s)), on_left)
            j = (i + 1) % len(s)
            if on_left:
                bad[k, :, j] = out[k, :, i]
            else:
                bad[k, :, :, j] = out[k, :, :, i]
        return bad

    monkeypatch.setattr(finglq, "_mul_pairs", patched)


@pytest.mark.parametrize("read", LABEL_READS)
@pytest.mark.parametrize("e,q", [(2, 3), (3, 2)])
@pytest.mark.parametrize("left", [True, False], ids=["row", "column"])
def test_label_reads_reject_an_operation_on_the_wrong_line(monkeypatch, read,
                                                           e, q, left):
    _misplace_pairs(monkeypatch, left)
    with pytest.raises(AssertionError, match="bi-equivariant"):
        LABEL_READS[read](e, q)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 5), (3, 2)])
def test_classes_need_every_conjugation_generator(n, q):
    # with any one generator dropped, the orbits are those of a proper
    # subgroup and split some classes (Green's class number)
    from test_class_coset_algorithms import class_number
    gens = gl_group(n, q).generators()
    for k in range(len(gens)):
        G = finglq.MatrixGroup(n, q, SubgroupSpec.full(),
                               enumerate_group(n, q, SubgroupSpec.full()))
        G.generators = lambda k=k: gens[:k] + gens[k + 1:]
        assert len(G.conjugacy_classes()) > class_number(n, q)
