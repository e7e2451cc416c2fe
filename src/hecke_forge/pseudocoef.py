"""Euler-Poincare functions, the averaged variant, and its finite lift.

All three are one signed, volume-weighted sum over parahoric types,
written out once in `weighted_type_terms`:

    sum over T, 0 <= l < periods * n_T, w in W_T of
        weight(T) * epsilon_T^l / vol P_T * T_{z_T^l w},   z_T = Pi^{u_T},

and they differ only in the types summed over, the per-type weight and
the number of periods.  They live over the extended affine Hecke algebra
of GL_e:

* `kottwitz_ep(theta)`: the alternating sum over a representative system
  theta of simplex-orbit types of signed, volume-normalized parahoric
  indicators with the rotation sign character (weight (-1)^{d_T}/n_T,
  one period),

      sum over T of (-1)^{d_T} (1/(n_T vol P_T)) 1_{K_T} sgn_T,

  expanded through K_T = union of z_T^k P_T and 1_{P_T} = sum of f_w^0.
  Signing it by (-1)^{e-1} gives the Steinberg pseudo-coefficient.

* `laumon_f0`: the exact average of the signed functions over all
  representative systems drawn from subsets of S = {1..e-1}; its weights
  collapse termwise because each orbit meets the subsets of S in
  u_T (d_T + 1) / e members, leaving (-1)^{e-1} (-1)^{d_T} / (d_T + 1)
  over every T ⊆ S, one period.  `average_pseudocoef` checks that: it
  validates every system and regroups their sum by type, weighting T by
  (-1)^{e-1} (-1)^{d_T} count(T) / (n_T |systems|).

* `assemble_F0`: the finite lift in the plain Iwahori-Hecke algebra whose
  central-character reduction at omega = 1 recovers laumon_f0: the same
  types, the weight divided by e', and e' periods.

The central character is trivial, omega(pi) = 1, because sgn_T(pi) =
epsilon_T^{n_T} = 1 for every type.

Everything is exact rational arithmetic at a concrete q.  Each term's
coefficient is one of two Fractions per type, +-weight / vol P_T; the
terms are added per element as integer numerators over one common
denominator, and one Fraction is formed per element (`_summed`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .hecke import CentralHeckeElt, HeckeElt, central_reduction
from .qpoly import QPoly
from .weyl import (
    AffineElt, ParahoricType, canonical_rep, epsilon, mask_period, mul,
    orbit_reps, parahoric_type, period_and_n, pi_power,
    parahoric_weyl_group, poincare_sum, proper_subsets_of_s,
    standard_orbit_members,
)


@dataclass(frozen=True)
class PseudoCoefParams:
    e: int
    q: Fraction
    e_prime: int = 1

    def __post_init__(self):
        if self.e < 1 or self.e_prime < 1:
            raise ValueError("e and e' must be positive")
        if self.q <= 0:
            raise ValueError("q must be positive")


@lru_cache(maxsize=None)
def _type_shape(T: ParahoricType):
    """(u_T, n_T, epsilon_T, W_T), W_T a tuple: built once per T."""
    return (*period_and_n(T), epsilon(T), tuple(parahoric_weyl_group(T)))


@lru_cache(maxsize=None)
def _type_data(T: ParahoricType, q):
    """(u_T, n_T, epsilon_T, vol P_T, W_T): vol P_T built once per (T, q)."""
    u, n, eps, W_T = _type_shape(T)
    return u, n, eps, poincare_sum(W_T, Fraction(q)), W_T


def validate_representative_system(theta, e: int) -> list[ParahoricType]:
    theta = list(theta)
    # the canonical reps carry T.e, so equality also checks the rank
    canon = sorted(map(canonical_rep, theta),
                   key=lambda T: (len(T.nodes), T.sorted_nodes()))
    if tuple(canon) != orbit_reps(e):
        raise ValueError("theta is not a representative system of the "
                         "rotation orbits of proper subsets of Z/e")
    return theta


def weighted_type_terms(types, params: PseudoCoefParams, weight,
                        periods: int = 1):
    """The one weighted sum over types behind all three builders.

    Yields (T, l, w, x, c) for T in types, w in W_T and
    0 <= l < periods * n_T, with x = z_T^l w (z_T = Pi^{u_T}) and
    c = weight(T, n_T) * epsilon_T^l / vol P_T.  As epsilon_T = +-1, c
    is one of two Fractions formed once per type; each z_T^l is formed
    once per l, not once per w, and z_T^0 w is w itself.
    """
    e = params.e
    for T in types:
        u, n, eps, vol, W_T = _type_data(T, params.q)
        base = weight(T, n) / vol
        signed = (base, -base) if eps == -1 else (base, base)
        zs = [(l, pi_power(e, u * l), signed[l % 2])
              for l in range(1, periods * n)]
        for w in W_T:
            yield T, 0, w, w, base
            for l, z, c in zs:
                yield T, l, w, mul(z, w), c


def _summed(terms) -> dict:
    """Coefficients of the terms added up per element, as constants.

    The rational coefficients are added as integer numerators over one
    common denominator, which grows to the lcm of the denominators met;
    one Fraction is formed per element, at the end.
    """
    nums: dict = {}
    den = 1
    for _T, _l, _w, x, c in terms:
        d = c.denominator
        if den % d:
            grow = d // gcd(den, d)
            den *= grow
            for y in nums:
                nums[y] *= grow
        nums[x] = nums.get(x, 0) + c.numerator * (den // d)
    return {x: QPoly.const(Fraction(num, den)) for x, num in nums.items()}


def kottwitz_ep(theta, params: PseudoCoefParams) -> CentralHeckeElt:
    """The Euler-Poincare element attached to a representative system:
    weight (-1)^{d_T} / n_T."""
    theta = validate_representative_system(theta, params.e)
    terms = weighted_type_terms(
        theta, params, lambda T, n: Fraction((-1) ** T.d, n))
    return CentralHeckeElt(params.e, terms=_summed(terms))


def _averaged_weight(e: int, e_prime: int):
    """(-1)^(e-1) (-1)^{d_T} / (e' (d_T + 1)): the weight after averaging
    over representative systems, spread over e' periods."""
    sign = (-1) ** (e - 1)
    return lambda T, n: Fraction(sign * (-1) ** T.d, e_prime * (T.d + 1))


def laumon_f0(params: PseudoCoefParams) -> CentralHeckeElt:
    """The averaged pseudo-coefficient, summed over all T ⊆ S directly."""
    terms = weighted_type_terms(proper_subsets_of_s(params.e), params,
                                _averaged_weight(params.e, 1))
    return CentralHeckeElt(params.e, terms=_summed(terms))


def representative_systems(e: int):
    """All representative systems whose members are subsets of S."""
    choices = [standard_orbit_members(R) for R in orbit_reps(e)]
    for combo in itertools.product(*choices):
        yield combo


def average_pseudocoef(params: PseudoCoefParams) -> CentralHeckeElt:
    """Exact mean of the signed Euler-Poincare elements over all standard
    representative systems, the brute-force oracle for laumon_f0: every
    system is validated, then their sum is regrouped by type, T counted
    once per system that holds it."""
    e = params.e
    systems = [validate_representative_system(theta, e)
               for theta in representative_systems(e)]
    counts = Counter(T for theta in systems for T in theta)
    scale = Fraction((-1) ** (e - 1), len(systems))
    terms = weighted_type_terms(
        counts, params, lambda T, n: scale * counts[T] * (-1) ** T.d / n)
    return CentralHeckeElt(e, terms=_summed(terms))


def assemble_F0_terms(params: PseudoCoefParams) -> list:
    """The raw terms of the lift: tuples (T, l, w, element, coefficient).

    Each coefficient carries exactly the four displayed factors
    (-1)^(e-1)/e' , (-1)^(d_T), 1/((d_T+1) vol P_T), epsilon_T^l.
    """
    return list(weighted_type_terms(
        proper_subsets_of_s(params.e), params,
        _averaged_weight(params.e, params.e_prime), periods=params.e_prime))


def assemble_F0(params: PseudoCoefParams) -> HeckeElt:
    """The finitely-supported lift of laumon_f0 in the T-basis."""
    return HeckeElt(params.e, _summed(assemble_F0_terms(params)))


def projection_check(params: PseudoCoefParams) -> bool:
    """central_reduction(F_0) = f_0 at omega = 1, exactly."""
    return central_reduction(assemble_F0(params)) == laumon_f0(params)


@lru_cache(maxsize=None)
def _mask_periods(e: int) -> bytes:
    """`mask_period` of every even node bitmask below 2^e, at mask >> 1:
    one byte per mask (u_T <= e), built once per e."""
    return bytes(mask_period(mask, e) for mask in range(0, 1 << e, 2))


def support_filter(N: int, e_prime: int, nu: int) -> list:
    """Solutions (T, l, k) of l*N/(n_T*e') = nu - k*N with T ⊆ S and
    0 <= l < e'*n_T.

    As l*N/(n_T*e') = l*u_T and 0 <= l*u_T < e'*n_T*u_T = N, the bounds
    0 <= nu < N force k = 0, so T has a solution exactly when u_T divides
    nu, with l = nu/u_T.  The subsets T of S are walked as even node
    bitmasks below 2^e, u_T is read from the table `_mask_periods`, and
    a `ParahoricType` is built only for a solution.  For nu coprime to N
    the unique solution is (empty type, nu, 0).
    """
    if N < 1 or e_prime < 1 or N % e_prime:
        raise ValueError("need e' | N")
    if not 0 <= nu < N:
        raise ValueError("need 0 <= nu < N")
    e = N // e_prime
    periods = _mask_periods(e)
    out = []
    for mask in range(0, 1 << e, 2):  # bit 0, the affine node, stays clear
        u = periods[mask >> 1]
        if nu % u == 0:
            nodes = [t for t in range(1, e) if mask >> t & 1]
            out.append((parahoric_type(nodes, e), nu // u, 0))
    return sorted(out, key=lambda t: (len(t[0].nodes), t[0].sorted_nodes(),
                                      t[1], t[2]))


def support_filter_is_unique(N: int, e_prime: int, nu: int) -> bool:
    if gcd(nu, N) != 1:
        raise ValueError("uniqueness is only guaranteed for nu coprime to N")
    sols = support_filter(N, e_prime, nu)
    e = N // e_prime
    return sols == [(parahoric_type((), e), nu, 0)]


# ---------------------------------------------------------------------------
# JSON export

def _coeff_to_json(c):
    if isinstance(c, QPoly):
        if c.is_constant():
            return str(c.constant_value())
        return [str(x) for x in c.coeffs]
    return str(c)


def _elt_to_json(x: AffineElt) -> dict:
    return {"translation": list(x.trans),
            "permutation": [i + 1 for i in x.perm]}


def hecke_elt_to_json(f: HeckeElt) -> list:
    return [{"element": _elt_to_json(x), "coefficient": _coeff_to_json(c)}
            for x, c in sorted(f.terms.items())]
