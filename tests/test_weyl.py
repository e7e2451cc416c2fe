import random
from fractions import Fraction

import pytest

from hecke_forge.qpoly import QPoly
from hecke_forge.weyl import (
    AffineElt, affine_identity, bfs_ball, canonical_rep, central_index,
    epsilon, from_perm, inv, length, length_bfs, mask_period, mul, mul_gen,
    orbit_reps,
    parahoric_type, parahoric_volume, parahoric_weyl_group, period_and_n,
    perm_inv, perm_mul, perm_sign, pi_element, pi_power, poincare_poly,
    poincare_sum, rotate, simple_reflection, translation,
)


def test_mul_identity_and_involution():
    e = 2
    s1 = from_perm((1, 0))
    assert mul(affine_identity(e), s1) == s1
    assert mul(s1, s1) == affine_identity(e)


def test_mul_pi_squared_is_central_translation():
    # expand Pi = ((1,0), cycle) and multiply by hand
    pi = pi_element(2)
    assert mul(pi, pi) == translation((1, 1))


def test_mul_rank_mismatch():
    with pytest.raises(ValueError):
        mul(affine_identity(2), affine_identity(3))


def ref_mul(x, y):
    """The product rule as documented: (lam1 + w1·lam2, w1∘w2), with
    (w·lam)_i = lam_{w^-1(i)}."""
    winv = perm_inv(x.perm)
    lam = tuple(x.trans[i] + y.trans[winv[i]] for i in range(len(x.perm)))
    return AffineElt(lam, perm_mul(x.perm, y.perm))


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_mul_matches_perm_inv_formula(e):
    rng = random.Random(600 + e)
    for _ in range(200):
        x, y = (AffineElt(tuple(rng.randint(-3, 3) for _ in range(e)),
                          tuple(rng.sample(range(e), e))) for _ in range(2))
        got = mul(x, y)
        assert got == ref_mul(x, y)
        assert type(got.trans) is tuple and type(got.perm) is tuple


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_mul_gen_matches_mul_by_simple_reflection(e):
    # on the ball, its Pi-shifts and random elements; every node i
    rng = random.Random(700 + e)
    xs = [mul(pi_power(e, k), y) for y in bfs_ball(e, 4) for k in (-1, 0, 2)]
    xs += [AffineElt(tuple(rng.randint(-3, 3) for _ in range(e)),
                     tuple(rng.sample(range(e), e))) for _ in range(300)]
    for x in xs:
        for i in range(e):
            got = mul_gen(x, i)
            assert got == mul(x, simple_reflection(e, i)), (x, i)
            assert type(got.trans) is tuple and type(got.perm) is tuple


def test_pi_invariants():
    for e in range(2, 7):
        pi = pi_element(e)
        assert length(pi) == 0
        assert pi_power(e, e) == translation((1,) * e)
        # conjugation rotates the affine generators: Pi s_i Pi^-1 = s_{i+1}
        for i in range(e):
            lhs = mul(mul(pi, simple_reflection(e, i)), inv(pi))
            assert lhs == simple_reflection(e, i + 1)


def test_inverse_and_associativity_random():
    rng = random.Random(7)
    for e in (2, 3, 4):
        for _ in range(60):
            xs = []
            for _ in range(3):
                lam = tuple(rng.randint(-2, 2) for _ in range(e))
                w = tuple(rng.sample(range(e), e))
                xs.append(AffineElt(lam, w))
            x, y, z = xs
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, inv(x)) == affine_identity(e)


def test_sign_multiplicative_random():
    rng = random.Random(11)
    for e in (3, 4, 5):
        for _ in range(40):
            a = tuple(rng.sample(range(e), e))
            b = tuple(rng.sample(range(e), e))
            assert perm_sign(perm_mul(a, b)) == perm_sign(a) * perm_sign(b)
            assert perm_sign(perm_inv(a)) == perm_sign(a)


# --- length: closed form vs BFS oracle ------------------------------------

def test_length_examples():
    assert length(affine_identity(3)) == 0
    for e in (2, 3, 4):
        assert length(pi_element(e)) == 0
        assert length_bfs(pi_element(e)) == 0
    # e=2, translation (1,0): equals Pi * s_1
    x = translation((1, 0))
    assert x == mul(pi_element(2), simple_reflection(2, 1))
    assert length(x) == 1
    assert length_bfs(x) == 1


@pytest.mark.parametrize("e", [2, 3, 4])
def test_length_closed_form_equals_bfs_ball(e):
    radius = 6
    ball = bfs_ball(e, radius)
    assert ball[affine_identity(e)] == 0
    pi = pi_element(e)
    for y, d in ball.items():
        assert length(y) == d
        # extended elements Pi^k y have the same length
        assert length(mul(pi, y)) == d
        assert length(mul(inv(pi), y)) == d


def test_length_zero_in_affine_group_only_identity():
    for e in (2, 3):
        ball = bfs_ball(e, 4)
        zeros = [x for x, d in ball.items() if length(x) == 0]
        assert zeros == [affine_identity(e)]


# --- parahoric types --------------------------------------------------------

def test_rotate_examples():
    assert rotate(parahoric_type({1}, 2), 1) == parahoric_type({0}, 2)
    assert rotate(parahoric_type((), 5), 3) == parahoric_type((), 5)
    assert rotate(parahoric_type({1, 3}, 4), 2) == parahoric_type({1, 3}, 4)


def test_orbit_reps_examples():
    assert set(orbit_reps(1)) == {parahoric_type((), 1)}
    assert set(orbit_reps(2)) == {parahoric_type((), 2), parahoric_type({1}, 2)}
    assert set(orbit_reps(3)) == {
        parahoric_type((), 3),
        parahoric_type({1}, 3),
        parahoric_type({1, 2}, 3),
    }


@pytest.mark.parametrize("e", range(1, 9))
def test_orbit_reps_partition_exhaustive(e):
    import itertools
    reps = orbit_reps(e)
    assert all(T.is_standard() for T in reps)
    seen = 0
    for r in range(e):
        for nodes in itertools.combinations(range(e), r):
            T = parahoric_type(nodes, e)
            matches = [R for R in reps if canonical_rep(T) == R]
            assert len(matches) == 1
            seen += 1
    assert seen == 2 ** e - 1


def rotation_loop_rep(T):
    """The lex-least rotation of T avoiding node 0, by trying every
    rotation: the reference for the table `canonical_rep` reads."""
    best = None
    for j in range(T.e):
        R = rotate(T, j)
        if 0 not in R.nodes and (best is None
                                 or R.sorted_nodes() < best):
            best = R.sorted_nodes()
    return parahoric_type(best, T.e)


@pytest.mark.parametrize("e", range(1, 11))
def test_canonical_rep_table_matches_rotation_loop(e):
    # equal to the reference, and the very object orbit_reps holds, so
    # comparing a system's types with orbit_reps stays an identity test
    import itertools
    reps = {id(R) for R in orbit_reps(e)}
    for r in range(e):
        for nodes in itertools.combinations(range(e), r):
            T = parahoric_type(nodes, e)
            assert canonical_rep(T) == rotation_loop_rep(T), T
            assert id(canonical_rep(T)) in reps, T


def test_period_and_n_examples():
    assert period_and_n(parahoric_type((), 3)) == (1, 3)
    assert period_and_n(parahoric_type({1, 3}, 4)) == (2, 2)
    assert period_and_n(parahoric_type({1}, 2)) == (2, 1)


@pytest.mark.parametrize("e", range(1, 7))
def test_period_divides_and_is_minimal(e):
    import itertools
    for r in range(e):
        for nodes in itertools.combinations(range(e), r):
            T = parahoric_type(nodes, e)
            u, n = period_and_n(T)
            assert u * n == e
            assert rotate(T, u) == T
            for j in range(1, u):
                assert rotate(T, j) != T


def ref_period_and_n(T):
    """The minimal rotation period found by building every rotation."""
    for j in range(1, T.e + 1):
        if rotate(T, j) == T:
            return j, T.e // j


@pytest.mark.parametrize("e", range(1, 13))
def test_period_and_n_equals_rotation_reference(e):
    # support_filter reaches e = 12; the verify check covers e <= 6 only
    import itertools
    for r in range(e):
        for nodes in itertools.combinations(range(e), r):
            T = parahoric_type(nodes, e)
            assert period_and_n(T) == ref_period_and_n(T)


@pytest.mark.parametrize("e", range(1, 13))
def test_mask_period_equals_rotation_reference(e):
    # every bitmask of a proper subset of Z/e, as support_filter reads it
    for mask in range((1 << e) - 1):
        T = parahoric_type([t for t in range(e) if mask >> t & 1], e)
        assert mask_period(mask, e) == ref_period_and_n(T)[0]


def test_orbit_reps_is_a_shared_tuple():
    for e in range(1, 7):
        reps = orbit_reps(e)
        assert isinstance(reps, tuple)
        assert orbit_reps(e) is reps
    with pytest.raises(ValueError):
        orbit_reps(0)


def test_epsilon_examples():
    assert epsilon(parahoric_type((), 4)) == -1
    assert epsilon(parahoric_type({1, 3}, 4)) == -1
    assert epsilon(parahoric_type((), 3)) == 1


@pytest.mark.parametrize("e", range(1, 9))
def test_epsilon_empty_type_sign_rule(e):
    assert epsilon(parahoric_type((), e)) == (-1) ** (e - 1)


def test_epsilon_power_n_is_one():
    import itertools
    for e in range(1, 7):
        for r in range(e):
            for nodes in itertools.combinations(range(e), r):
                T = parahoric_type(nodes, e)
                _, n = period_and_n(T)
                assert epsilon(T) ** n == 1


# --- volumes and the Poincare polynomial -----------------------------------

def test_poincare_examples():
    assert poincare_poly(1) == QPoly.const(1)
    assert poincare_poly(2) == QPoly([1, 1])
    assert poincare_poly(3) == QPoly([1, 2, 2, 1])


def test_parahoric_volume_examples():
    assert parahoric_volume(parahoric_type((), 3), 5) == 1
    assert parahoric_volume(parahoric_type({1}, 2), 3) == 4
    assert parahoric_volume(parahoric_type({1, 2}, 3), 2) == 21


@pytest.mark.parametrize("e", range(1, 7))
def test_parahoric_volume_matches_summed_bfs_group(e):
    # the length profile read at q against q^l(w) summed over a fresh W_T
    import itertools
    for r in range(e):
        for nodes in itertools.combinations(range(1, e), r):
            T = parahoric_type(nodes, e)
            for q in (2, 3, Fraction(5, 2)):
                assert parahoric_volume(T, q) \
                    == poincare_sum(parahoric_weyl_group(T), q)


def test_parahoric_volume_rejects_affine_node():
    with pytest.raises(ValueError):
        parahoric_volume(parahoric_type({0}, 2), 2)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_full_type_volume_is_poincare(e, q):
    S = parahoric_type(range(1, e), e)
    assert parahoric_volume(S, q) == poincare_poly(e)(q)


def test_parahoric_weyl_group_sizes():
    # <T> for T = {1} in rank 3 is S_2; for T = {1,2} it is S_3
    assert len(parahoric_weyl_group(parahoric_type({1}, 3))) == 2
    assert len(parahoric_weyl_group(parahoric_type({1, 2}, 3))) == 6
    # non-standard type {0}: the affine reflection generates a 2-element group
    W = parahoric_weyl_group(parahoric_type({0}, 2))
    assert len(W) == 2
    assert all(central_index(w) == 0 for w in W)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_parahoric_weyl_group_matches_closure_by_mul(e):
    # every proper type, the affine node included, against a closure of
    # {1} under `mul` by the simple reflections
    for mask in range((1 << e) - 1):
        T = parahoric_type([t for t in range(e) if mask >> t & 1], e)
        gens = [simple_reflection(e, i) for i in T.nodes]
        ref = {affine_identity(e)}
        while True:
            grown = ref | {mul(x, s) for x in ref for s in gens}
            if grown == ref:
                break
            ref = grown
        assert parahoric_weyl_group(T) == sorted(ref)


def test_volume_invariant_under_rotation():
    for e in (2, 3, 4):
        for T in orbit_reps(e):
            base = poincare_sum(parahoric_weyl_group(T), Fraction(3))
            for j in range(e):
                W = parahoric_weyl_group(rotate(T, j))
                assert poincare_sum(W, Fraction(3)) == base
