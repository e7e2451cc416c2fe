from fractions import Fraction

import pytest

from hecke_forge import pseudocoef
from hecke_forge.pseudocoef import (
    PseudoCoefParams, assemble_F0, assemble_F0_terms, average_pseudocoef,
    hecke_elt_to_json, kottwitz_ep, laumon_f0,
    projection_check, representative_systems, support_filter,
    support_filter_is_unique, validate_representative_system,
)
from hecke_forge.qpoly import QPoly
from hecke_forge.weyl import (
    AffineElt, affine_identity, epsilon, mask_period, mul, orbit_reps,
    parahoric_type, parahoric_weyl_group, period_and_n, pi_element, pi_power,
    poincare_sum, proper_subsets_of_s,
)


def params(e, q, e_prime=1):
    return PseudoCoefParams(e=e, q=q, e_prime=e_prime)


def kottwitz_pseudocoef(theta, p):
    """(-1)^(e-1) times the Euler-Poincare element: the Steinberg
    pseudo-coefficient attached to theta."""
    return kottwitz_ep(theta, p).scale(QPoly.const((-1) ** (p.e - 1)))


@pytest.mark.parametrize("q", [-1, 0])
def test_params_reject_nonpositive_q(q):
    with pytest.raises(ValueError, match="q must be positive"):
        params(2, q)


def test_params_accept_a_rational_q():
    p = params(2, Fraction(5, 2))
    assert p.q == Fraction(5, 2)
    assert assemble_F0(p).terms


def test_kottwitz_ep_e1():
    p = params(1, 2)
    elt = kottwitz_ep(orbit_reps(1), p)
    # single vertex orbit: coefficient 1/vol(Kbar) = 1/n_T = 1 on the unit class
    assert elt.terms == {affine_identity(1): QPoly.const(1)}


def test_kottwitz_ep_identity_class_coefficient_e2_q2():
    p = params(2, 2)
    elt = kottwitz_ep(orbit_reps(2), p)
    # T = {1}: simplex dim 0, vol(Kbar) = 1 * (1+q) = 3, sign +
    # T = empty: simplex dim 1, vol(Kbar) = 2 * 1 = 2, sign -
    ident = affine_identity(2)
    assert elt.coeff(ident) == QPoly.const(Fraction(1, 3) - Fraction(1, 2))
    # the Pi-supported class for T = empty carries epsilon = (-1)^(e-1)
    pi = pi_element(2)
    assert elt.coeff(pi) == QPoly.const(Fraction(-1, 2) * epsilon(parahoric_type((), 2)))


def test_kottwitz_ep_rejects_bad_theta():
    p = params(2, 2)
    with pytest.raises(ValueError):
        kottwitz_ep([parahoric_type((), 2)], p)  # missing the vertex orbit
    with pytest.raises(ValueError):
        kottwitz_ep([parahoric_type((), 2), parahoric_type({1}, 2),
                     parahoric_type({0}, 2)], p)  # orbit hit twice


def test_validate_representative_system_list_or_tuple():
    good = [parahoric_type((), 2), parahoric_type({1}, 2)]
    bad = [[parahoric_type((), 2)],
           [parahoric_type((), 2), parahoric_type({1}, 2),
            parahoric_type({0}, 2)],
           [parahoric_type((), 3), parahoric_type({1}, 3)]]
    for make in (list, tuple):
        assert validate_representative_system(make(good), 2) == good
        for theta in bad:
            with pytest.raises(ValueError):
                validate_representative_system(make(theta), 2)
    assert validate_representative_system(orbit_reps(4), 4) \
        == list(orbit_reps(4))


def test_kottwitz_ep_accepts_rotated_representatives():
    p = params(2, 3)
    a = kottwitz_ep([parahoric_type((), 2), parahoric_type({1}, 2)], p)
    b = kottwitz_ep([parahoric_type((), 2), parahoric_type({0}, 2)], p)
    # different systems give different functions, but both are valid
    assert a != b
    assert a.coeff(affine_identity(2)) == b.coeff(affine_identity(2))


def test_laumon_f0_e1():
    elt = laumon_f0(params(1, 5))
    assert elt.terms == {affine_identity(1): QPoly.const(1)}


def test_laumon_f0_e2_q2_coefficients():
    elt = laumon_f0(params(2, 2))
    e = 2
    sign = -1  # (-1)^(e-1)
    ident = affine_identity(e)
    # identity class: T=empty contributes -(1/2), T={1} contributes +1/3
    assert elt.coeff(ident) == QPoly.const(sign * (Fraction(-1, 2) + Fraction(1, 3)))
    # s_1 class: only T={1}; Pi class: only T=empty with epsilon twist
    from hecke_forge.weyl import simple_reflection
    s1 = simple_reflection(2, 1)
    assert elt.coeff(s1) == QPoly.const(sign * Fraction(1, 3))
    assert elt.coeff(pi_element(2)) == QPoly.const(sign * Fraction(-1, 2) * (-1))


def test_representative_system_counts():
    assert len(list(representative_systems(2))) == 1
    assert len(list(representative_systems(3))) == 2
    assert len(list(representative_systems(4))) == 6


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
def test_laumon_average_identity_exact(e, q):
    p = params(e, q)
    assert average_pseudocoef(p) == laumon_f0(p)


def ref_average_pseudocoef(p):
    """The mean as a pairwise sum of the signed elements, then one scale."""
    systems = list(representative_systems(p.e))
    total = None
    for theta in systems:
        elt = kottwitz_pseudocoef(theta, p)
        total = elt if total is None else total + elt
    return total.scale(QPoly.const(Fraction(1, len(systems))))


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_average_equals_pairwise_reference(e, q):
    p = params(e, q)
    got = average_pseudocoef(p)
    ref = ref_average_pseudocoef(p)
    assert got.terms.keys() == ref.terms.keys()
    for x, c in ref.terms.items():
        assert got.terms[x].coeffs == c.coeffs
    assert got == ref == laumon_f0(p)


@pytest.mark.parametrize("e", range(1, 7))
@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_type_data_matches_the_per_type_oracles(e, q):
    for T in proper_subsets_of_s(e):
        u, n, eps, vol, W_T = pseudocoef._type_data(T, q)
        assert isinstance(W_T, tuple)
        assert list(W_T) == parahoric_weyl_group(T)
        assert vol == poincare_sum(parahoric_weyl_group(T), q)
        assert (u, n) == period_and_n(T)
        assert eps == epsilon(T)


@pytest.mark.parametrize("q", [2, 3])
def test_average_equals_laumon_f0_e6(q):
    # 17,280 systems, every one validated
    assert sum(1 for _ in representative_systems(6)) == 17280
    p = params(6, q)
    assert average_pseudocoef(p) == laumon_f0(p)


def test_average_rejects_a_non_system(monkeypatch):
    real = pseudocoef.representative_systems
    # the empty type alone misses the vertex orbit of e = 3
    bad = (parahoric_type((), 3),)
    monkeypatch.setattr(pseudocoef, "representative_systems",
                        lambda e: list(real(e)) + [bad])
    with pytest.raises(ValueError):
        average_pseudocoef(params(3, 2))


def test_average_builds_each_weyl_group_once(monkeypatch):
    calls = []

    def counted(T):
        calls.append(T)
        return parahoric_weyl_group(T)

    def clear():
        pseudocoef._type_shape.cache_clear()
        pseudocoef._type_data.cache_clear()

    monkeypatch.setattr(pseudocoef, "parahoric_weyl_group", counted)
    clear()
    try:
        # W_T does not depend on q: the second q builds none
        avgs = [average_pseudocoef(params(5, q)) for q in (2, 3)]
    finally:
        # drop the entries built through the wrapper
        clear()
    # 16 subsets of S = {1..4}; every system member is one of them
    assert len(calls) <= 16
    assert len(set(calls)) == len(calls)
    assert avgs == [laumon_f0(params(5, q)) for q in (2, 3)]


def test_average_needs_the_sign():
    # without the (-1)^(e-1), the average does NOT equal f_0 for even e
    p = params(2, 2)
    systems = list(representative_systems(2))
    total = None
    for theta in systems:
        elt = kottwitz_ep(theta, p)
        total = elt if total is None else total + elt
    mean_unsigned = total.scale(QPoly.const(Fraction(1, len(systems))))
    assert mean_unsigned != laumon_f0(p)


# --- the lift ---------------------------------------------------------------

def test_assemble_F0_e1():
    f = assemble_F0(params(1, 3))
    assert f.terms == {affine_identity(1): QPoly.const(1)}


def test_assemble_F0_e2_support_and_terms():
    p = params(2, 2)
    terms = assemble_F0_terms(p)
    # T = empty: w = 1, l in {0, 1}; T = {1}: w in {1, s}, l in {0}
    assert len(terms) == 4
    f = assemble_F0(p)
    assert len(f.terms) == 3  # 1, Pi, s_1: the two w=1 terms overlap at T_1
    for T, l, w, x, c in terms:
        d = T.d
        vol = poincare_sum(parahoric_weyl_group(T), Fraction(2))
        expect = Fraction(1, (d + 1)) / vol
        assert abs(c) == expect
        assert c == Fraction((-1) ** (2 - 1) * (-1) ** d, (d + 1)) / vol \
            * epsilon(T) ** l


@pytest.mark.parametrize("e", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("e_prime", [1, 2])
def test_projection_identity(e, q, e_prime):
    assert projection_check(params(e, q, e_prime=e_prime))


def test_term_coefficients_carry_only_displayed_factors():
    for e, q, ep in [(2, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1)]:
        p = params(e, q, e_prime=ep)
        for T, l, w, x, c in assemble_F0_terms(p):
            vol = poincare_sum(parahoric_weyl_group(T), Fraction(q))
            assert abs(c) == Fraction(1, ep * (T.d + 1)) / vol


# --- the support filter -------------------------------------------------------

def test_support_filter_examples():
    sols = support_filter(4, 1, 1)
    assert sols == [(parahoric_type((), 4), 1, 0)]
    sols = support_filter(6, 2, 5)
    assert sols == [(parahoric_type((), 3), 5, 0)]
    # non-coprime nu: an extra solution with n_T = 2 appears
    sols = support_filter(4, 1, 2)
    assert (parahoric_type((), 4), 2, 0) in sols
    extra = [s for s in sols if s[0].nodes]
    assert extra
    from hecke_forge.weyl import period_and_n
    assert any(period_and_n(T)[1] == 2 for T, _, _ in extra)


def test_support_filter_uniqueness_exhaustive():
    for N in range(1, 13):
        for e_prime in range(1, N + 1):
            if N % e_prime:
                continue
            for nu in range(N):
                from math import gcd
                if gcd(nu, N) != 1:
                    continue
                assert support_filter_is_unique(N, e_prime, nu)


def test_support_filter_validation():
    with pytest.raises(ValueError):
        support_filter(4, 3, 1)
    with pytest.raises(ValueError):
        support_filter(4, 1, 4)
    with pytest.raises(ValueError):
        support_filter_is_unique(4, 1, 2)


def test_json_export_roundtrip_shape():
    f = assemble_F0(params(2, 2))
    data = hecke_elt_to_json(f)
    assert len(data) == len(f.terms)
    for rec in data:
        assert set(rec) == {"element", "coefficient"}
        assert set(rec["element"]) == {"translation", "permutation"}


# --- integer-numerator sums against the per-term Fraction references -----------

def ref_summed(terms) -> dict:
    """One Fraction addition per term."""
    acc: dict = {}
    for _T, _l, _w, x, c in terms:
        acc[x] = acc.get(x, 0) + c
    return {x: QPoly.const(c) for x, c in acc.items()}


def ref_weighted_type_terms(types, p, weight, periods=1):
    """Every term with its own z_T^l w and weight * epsilon_T^l / vol."""
    for T in types:
        u, n, eps, vol, W_T = pseudocoef._type_data(T, p.q)
        base = weight(T, n) / vol
        for w in W_T:
            for l in range(periods * n):
                yield T, l, w, mul(pi_power(p.e, u * l), w), base * eps ** l


def _typed(terms: dict) -> dict:
    return {x: [(type(a), a) for a in c.coeffs] for x, c in terms.items()}


def _assert_same_terms(got, ref):
    assert list(got.terms) == list(ref.terms)
    assert _typed(got.terms) == _typed(ref.terms)


def _with_reference_sum(monkeypatch, build, p):
    got = build(p)
    with monkeypatch.context() as mp:
        mp.setattr(pseudocoef, "_summed", ref_summed)
        mp.setattr(pseudocoef, "weighted_type_terms",
                   ref_weighted_type_terms)
        ref = build(p)
    _assert_same_terms(got, ref)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_kottwitz_ep_matches_reference_sum(e, q, monkeypatch):
    for theta in representative_systems(e):
        _with_reference_sum(monkeypatch,
                            lambda p: kottwitz_ep(theta, p), params(e, q))


@pytest.mark.parametrize("e", range(1, 7))
@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_builders_match_reference_sum(e, q, monkeypatch):
    for ep in (1, 2):
        _with_reference_sum(monkeypatch, assemble_F0, params(e, q, ep))
    _with_reference_sum(monkeypatch, laumon_f0, params(e, q))
    # at e = 6 the average validates 17,280 systems per side
    _with_reference_sum(monkeypatch, average_pseudocoef, params(e, q))


@pytest.mark.parametrize("e", range(1, 7))
@pytest.mark.parametrize("e_prime", [1, 2])
def test_weighted_type_terms_match_reference(e, e_prime):
    p = params(e, Fraction(5, 2), e_prime)
    weight = pseudocoef._averaged_weight(e, e_prime)
    types = list(proper_subsets_of_s(e))
    assert list(pseudocoef.weighted_type_terms(types, p, weight, e_prime)) \
        == list(ref_weighted_type_terms(types, p, weight, e_prime))


def test_summed_with_coprime_denominators():
    x, y, z = (AffineElt((k, 0), (0, 1)) for k in range(3))
    terms = [(None, 0, None, x, Fraction(1, 2)),
             (None, 0, None, y, Fraction(1, 3)),
             (None, 0, None, x, Fraction(-3, 4)),
             (None, 0, None, z, Fraction(5, 6)),
             (None, 0, None, y, Fraction(-7, 10)),
             (None, 0, None, z, Fraction(1, 6)),
             (None, 0, None, x, 3)]
    got = pseudocoef._summed(terms)
    assert _typed(got) == _typed(ref_summed(terms))
    assert got[z].coeffs == (1,) and type(got[z].coeffs[0]) is int
    assert got[x].coeffs == (Fraction(11, 4),)


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("q", [2, Fraction(5, 2)])
def test_summed_with_a_doubled_first_coefficient(e, q):
    # negative control 07: the doubled coefficient's denominator need not
    # divide the others
    (T, l, w, x, c), *rest = assemble_F0_terms(params(e, q, 2))
    terms = [(T, l, w, x, 2 * c)] + rest
    assert _typed(pseudocoef._summed(terms)) == _typed(ref_summed(terms))


# --- the support filter against the window scan ---------------------------------

def ref_support_filter(N, e_prime, nu):
    """Every k of the window tried for every (T, l)."""
    e = N // e_prime
    out = []
    for T in proper_subsets_of_s(e):
        u, n = period_and_n(T)
        for l in range(e_prime * n):
            for k in range(-(e_prime * n + 1), e_prime * n + 2):
                if l * u == nu - k * N:
                    out.append((T, l, k))
    return sorted(out, key=lambda t: (len(t[0].nodes), t[0].sorted_nodes(),
                                      t[1], t[2]))


def test_support_filter_matches_window_scan():
    # every nu, not only those coprime to N, up to the check's N = 12
    for N in range(1, 13):
        for e_prime in range(1, N + 1):
            if N % e_prime:
                continue
            for nu in range(N):
                assert support_filter(N, e_prime, nu) \
                    == ref_support_filter(N, e_prime, nu)


def test_period_table_matches_mask_period():
    # one byte per even mask, at mask >> 1, for every e the filter meets
    for e in range(1, 13):
        table = pseudocoef._mask_periods(e)
        assert type(table) is bytes and len(table) == 1 << (e - 1)
        assert list(table) == [mask_period(mask, e)
                               for mask in range(0, 1 << e, 2)]
