import math
import random
from fractions import Fraction

import pytest

from hecke_forge import hecke
from hecke_forge.hecke import (
    CentralHeckeElt, HeckeElt, canonical_central_rep, central_mul,
    central_reduction, convolution_oracle, oracle_matches_t_mul,
    structure_constants, t_mul, t_power,
)
from hecke_forge.qpoly import QPoly
from hecke_forge.weyl import (
    AffineElt, affine_identity, all_perms, bfs_ball, from_perm, inv, length,
    mul,
    pi_element, pi_power, simple_reflection, translation,
)


def T(x, c=1):
    return HeckeElt.basis(x, c)


def test_quadratic_relation_e2():
    s1 = simple_reflection(2, 1)
    prod = t_mul(T(s1), T(s1))
    assert prod.coeff(affine_identity(2)) == QPoly.gen()
    assert prod.coeff(s1) == QPoly((-1, 1))
    assert len(prod.terms) == 2


def test_unit():
    for e in (2, 3):
        x = AffineElt((1, 0) + (0,) * (e - 2), from_perm(tuple(range(e))).perm)
        assert t_mul(HeckeElt.unit(e), T(x)) == T(x)
        assert t_mul(T(x), HeckeElt.unit(e)) == T(x)


def test_pi_products():
    pi = pi_element(2)
    assert t_mul(T(pi), T(pi)) == T(mul(pi, pi))
    # T_Pi is invertible: T_Pi * T_{Pi^-1} = T_1
    assert t_mul(T(pi), T(inv(pi))) == HeckeElt.unit(2)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_pi_powers(e):
    pi = pi_element(e)
    for k in range(2 * e + 1):
        assert t_power(T(pi), k) == T(pi_power(e, k))


def test_pi_conjugation_relation():
    # T_Pi T_w T_{Pi^-1} = T_{Pi w Pi^-1}
    for e in (2, 3):
        pi = pi_element(e)
        for i in range(e):
            s = simple_reflection(e, i)
            lhs = t_mul(t_mul(T(pi), T(s)), T(inv(pi)))
            assert lhs == T(mul(mul(pi, s), inv(pi)))


def test_associativity_random_basis_elements():
    rng = random.Random(23)
    for e in (2, 3, 4):
        n_trials = 67 if e < 4 else 66  # 200 triples across ranks
        for _ in range(n_trials):
            xs = []
            for _ in range(3):
                lam = tuple(rng.randint(-1, 1) for _ in range(e))
                w = tuple(rng.sample(range(e), e))
                xs.append(AffineElt(lam, w))
            x, y, z = xs
            lhs = t_mul(t_mul(T(x), T(y)), T(z))
            rhs = t_mul(T(x), t_mul(T(y), T(z)))
            assert lhs == rhs


def test_oracle_values_e2():
    for q, expect_unit, expect_s in ((2, 2, 1), (3, 3, 2)):
        consts = convolution_oracle(2, q)
        id2, s = (0, 1), (1, 0)
        assert consts[(s, s, id2)] == expect_unit          # q
        assert consts[(s, s, s)] == expect_s               # q-1
        for w in (id2, s):
            assert consts[(id2, w, w)] == 1
            assert consts[(w, id2, w)] == 1


@pytest.mark.parametrize("e,q", [(2, 2), (2, 3), (2, 5), (3, 2)])
def test_oracle_equals_t_mul(e, q):
    assert oracle_matches_t_mul(e, q)


@pytest.mark.slow
def test_oracle_equals_t_mul_33():
    assert oracle_matches_t_mul(3, 3)


def test_oracle_respects_size_cap():
    from hecke_forge.finglq import GroupSizeError
    with pytest.raises(GroupSizeError):
        convolution_oracle(3, 5)


# --- central reduction ------------------------------------------------------

def test_canonical_rep_window():
    x = AffineElt((3, 2), (0, 1))
    rep, n = canonical_central_rep(x)
    assert n == 2 and rep == AffineElt((1, 0), (0, 1))
    y = AffineElt((-1, 0), (1, 0))
    rep, n = canonical_central_rep(y)
    assert n == -1 and rep == AffineElt((0, 1), (1, 0))


def test_hecke_elt_wraps_and_filters_coefficients():
    x, y = from_perm((1, 0)), affine_identity(2)
    f = HeckeElt(2, {x: 3, y: 0, translation((1, 0)): QPoly()})
    assert f.terms == {x: QPoly.const(3)}
    assert type(f.terms[x]) is QPoly
    # a zero term is dropped before its rank is read
    assert HeckeElt(2, {affine_identity(3): 0}).is_zero()
    with pytest.raises(ValueError, match="rank mismatch"):
        HeckeElt(2, {y: 1, affine_identity(3): Fraction(1, 2)})


def test_central_reduction_examples():
    e = 2
    f = HeckeElt.unit(e)
    red = central_reduction(f, 1)
    assert red.terms == {affine_identity(e): QPoly.const(1)}

    f2 = HeckeElt.unit(e) + T(translation((1, 1)))
    red2 = central_reduction(f2, 1)
    assert red2.terms == {affine_identity(e): QPoly.const(2)}

    f3 = HeckeElt.unit(e) - T(translation((1, 1)))
    assert central_reduction(f3, 1).is_zero()

    # omega = -1 separates the two
    red4 = central_reduction(f2, -1)
    assert red4.terms == {}
    red5 = central_reduction(f3, -1)
    assert red5.terms == {affine_identity(e): QPoly.const(2)}


def _random_elt(rng, e, nterms=2):
    terms = {}
    for _ in range(nterms):
        lam = tuple(rng.randint(-1, 1) for _ in range(e))
        w = tuple(rng.sample(range(e), e))
        terms[AffineElt(lam, w)] = QPoly((rng.randint(-2, 2), rng.randint(0, 2)))
    return HeckeElt(e, terms)


@pytest.mark.parametrize("omega", [1, -1])
def test_central_reduction_is_algebra_morphism(omega):
    rng = random.Random(5)
    e = 2
    for _ in range(50):
        a = _random_elt(rng, e)
        b = _random_elt(rng, e)
        lhs = central_reduction(t_mul(a, b), omega)
        rhs = central_mul(central_reduction(a, omega),
                          central_reduction(b, omega))
        assert lhs == rhs


def test_central_coeff_transforms_under_recentering():
    e = 2
    x = AffineElt((1, 0), (0, 1))
    f = T(x, 5)
    for omega in (Fraction(1), Fraction(-1)):
        red = central_reduction(f, omega)
        once = AffineElt((2, 1), (0, 1))   # x + one central unit
        twice = AffineElt((3, 2), (0, 1))  # x + two central units
        assert red.coeff(once) == red.coeff(x) * omega ** (-1)
        assert red.coeff(twice) == red.coeff(x) * omega ** (-2)


def test_central_reduction_complex_omega():
    # omega(pi) must be rational
    f = HeckeElt.unit(2) + T(translation((1, 1)), 3)
    with pytest.raises(TypeError):
        central_reduction(f, 1j)


def test_central_reduction_complex_omega_on_zero():
    # omega is checked before the loop, so also when there is no term
    with pytest.raises(TypeError):
        central_reduction(HeckeElt(2, {}), 1j)


def ref_central_reduction(f, omega_at_pi=1):
    """Every coefficient times omega^n, summed per class from zero."""
    out: dict = {}
    for x, c in f.terms.items():
        rep, n = canonical_central_rep(x)
        out[rep] = out.get(rep, QPoly()) + c * Fraction(omega_at_pi) ** n
    return CentralHeckeElt(f.e, omega_at_pi, out)


@pytest.mark.parametrize("omega", [1, -1, 2, Fraction(1, 3)])
def test_central_reduction_matches_reference(omega):
    rng = random.Random(11)
    for e in (2, 3):
        for _ in range(30):
            f = _random_elt(rng, e, nterms=4)
            f = f + t_mul(f, _random_elt(rng, e))
            got, ref = central_reduction(f, omega), ref_central_reduction(
                f, omega)
            assert got == ref
            for x, c in ref.terms.items():
                assert [type(a) for a in got.terms[x].coeffs] \
                    == [type(a) for a in c.coeffs]


def test_canonical_rep_keeps_a_canonical_element():
    x = AffineElt((1, 0, 0), (1, 2, 0))
    assert canonical_central_rep(x)[0] is x
    rep, n = canonical_central_rep(AffineElt((2, 1, 1), (1, 2, 0)))
    assert (rep, n) == (x, 1)


# --- the O(1) ascent test -----------------------------------------------------

def _assert_ascents_match_length(x):
    for i in range(x.rank):
        xs = mul(x, simple_reflection(x.rank, i))
        assert hecke._ascends(x, i) == (length(xs) > length(x)), (x, i)


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_ascends_matches_length_on_ball(e):
    for y in bfs_ball(e, 6):
        for k in range(-e, e + 1):
            _assert_ascents_match_length(mul(pi_power(e, k), y))


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_ascends_matches_length_on_random_elements(e):
    rng = random.Random(100 + e)
    for _ in range(300):
        lam = tuple(rng.randint(-3, 3) for _ in range(e))
        _assert_ascents_match_length(AffineElt(lam, tuple(rng.sample(
            range(e), e))))


@pytest.mark.parametrize("e", [2, 3, 4])
def test_right_descent_word_is_reduced(e):
    for y, d in bfs_ball(e, 6).items():
        word = hecke._right_descent_word(y)
        assert len(word) == d == length(y)
        x = affine_identity(e)
        for i in word:
            x = mul(x, simple_reflection(e, i))
        assert x == y


def test_pi_power_is_built_once():
    assert pi_power(3, 4) is pi_power(3, 4)
    assert pi_power(3, 4) == mul(pi_power(3, 3), pi_element(3))


def test_structure_constants_match_quadratic():
    consts = structure_constants(2)
    s = (1, 0)
    assert consts[(s, s, (0, 1))] == QPoly.gen()
    assert consts[(s, s, s)] == QPoly((-1, 1))


def ref_structure_constants(e):
    """One `t_mul` of T_{w1} by T_{w2} per pair of finite permutations."""
    out = {}
    for w1 in all_perms(e):
        for w2 in all_perms(e):
            prod = t_mul(T(from_perm(w1)), T(from_perm(w2)))
            for x, c in prod.terms.items():
                assert not any(x.trans)
                out[(w1, w2, x.perm)] = c
    return out


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_structure_constants_match_per_pair_products(e):
    got, ref = structure_constants(e), ref_structure_constants(e)
    assert list(got) == list(ref)
    assert got == ref


@pytest.mark.parametrize("e", [3, 4])
def test_structure_constants_take_one_step_per_product(e, monkeypatch):
    # e! (e! - 1) generator steps, and no t_mul
    calls = {"step": 0, "t_mul": 0}
    real_step, real_t_mul = hecke._mul_basis_by_gen, hecke.t_mul

    def step(terms, i):
        calls["step"] += 1
        return real_step(terms, i)

    def counted_t_mul(a, b):
        calls["t_mul"] += 1
        return real_t_mul(a, b)

    monkeypatch.setattr(hecke, "_mul_basis_by_gen", step)
    monkeypatch.setattr(hecke, "t_mul", counted_t_mul)
    structure_constants(e)
    n = math.factorial(e)
    assert calls == {"step": n * (n - 1), "t_mul": 0}


# --- integral coefficients stay int -------------------------------------------

def test_t_mul_basis_products_have_int_coefficients():
    rng = random.Random(31)
    for e in (2, 3, 4):
        for _ in range(20):
            xs = [AffineElt(tuple(rng.randint(-1, 1) for _ in range(e)),
                            tuple(rng.sample(range(e), e))) for _ in range(2)]
            prod = t_mul(T(xs[0]), T(xs[1]))
            assert prod.terms
            for c in prod.terms.values():
                assert all(type(a) is int for a in c.coeffs)
    for c in structure_constants(3).values():
        assert all(type(a) is int for a in c.coeffs)


def test_qpoly_whole_fractions_become_int():
    p = QPoly([Fraction(4, 2)])
    assert p.coeffs == (2,) and type(p.coeffs[0]) is int
    half = QPoly([Fraction(1, 2)])
    assert type(half.coeffs[0]) is Fraction
    doubled = half * 2
    assert doubled.coeffs == (1,) and type(doubled.coeffs[0]) is int
    assert QPoly([1]) == QPoly([Fraction(1)])
    assert QPoly([True]).coeffs == (1,) and type(QPoly([True]).coeffs[0]) is int
    assert type(QPoly([1, 2])(Fraction(1, 3))) is Fraction
    assert QPoly([1, 2])(2) == Fraction(5)


def ref_qpoly_value(p, q):
    """Horner from Fraction(0), for every coefficient and q."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * q + c
    return acc


def test_qpoly_value_matches_fraction_horner():
    coeff_sets = [[], [0], [3], [1, -2, 0, 5], [-7, 0, 0, 0, 1],
                  [Fraction(1, 2), 3], [1, Fraction(-4, 3), 2],
                  [2.5, -1], [1, 1j, 2], [Fraction(1, 3), 0.5, 1 - 2j]]
    qs = [0, 1, -1, 2, 3, 7, -5, Fraction(5, 2), Fraction(-1, 3), 2.0, 0.5,
          1j, 2 - 1j, True]
    for cs in coeff_sets:
        p = QPoly(cs)
        for q in qs:
            got, want = p(q), ref_qpoly_value(p, q)
            assert type(got) is type(want), (cs, q)
            assert got == want, (cs, q)


def test_qpoly_text_same_for_int_and_whole_fraction():
    from hecke_forge.pseudocoef import _coeff_to_json
    cases = [([2, -1, 3], [Fraction(2), Fraction(-1), Fraction(6, 2)]),
             ([-4], [Fraction(-8, 2)]),
             ([0, 1], [Fraction(0), Fraction(1)]),
             ([], [Fraction(0)])]
    for ints, fracs in cases:
        a, b = QPoly(ints), QPoly(fracs)
        assert str(a) == str(b)
        assert _coeff_to_json(a) == _coeff_to_json(b)
    assert _coeff_to_json(QPoly([Fraction(4, 2)])) == "2"
    assert _coeff_to_json(QPoly()) == "0"
