"""Constant collapse and the finite right-hand sides of the two character
formulas.

The unramified-case chain reduces the averaged pseudo-coefficient, against
an elliptic regular element, to the single full-type term: the constant

    C_S = ((-1)^(e-1)/e') * ((-1)^(d_S) / ((d_S+1) vol P_S)) * p_{e-1}(q)

collapses to (-1)^(e-1)/e' because d_S = 0 and vol P_S = p_{e-1}(q), and
the verifiable finite identity is

    sum over x in G of [Tr e_tau](x gamma x^-1) = (-1)^(e-1) * Tr St(gamma),

that is Tr tau(gamma) = (-1)^(e-1) Tr St(gamma) at elliptic regular gamma.
It lives on the finite group, so it is computed in one place,
`repth.sign_identity_deviation`; this module needs no finite group.

The ramified-case chain collapses the k-average of a coset sum to the
prefactor epsilon^nu * c^nu, with c an unpinned nonzero constant, and
rests on the convolution-power identity (a T_Pi)^k = a^k T_{Pi^k}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .hecke import HeckeElt, t_power
from .qpoly import QPoly
from .weyl import (
    epsilon, parahoric_type, pi_element, pi_power, poincare_poly,
    parahoric_volume,
)


def constant_CS(e: int, e_prime: int, q) -> Fraction:
    """The full-type constant; the volume cancels the Poincare value."""
    d_S = 0  # the full-type simplex is a vertex
    vol = parahoric_volume(parahoric_type(range(1, e), e), q)
    return (Fraction((-1) ** (e - 1), e_prime)
            * Fraction((-1) ** d_S, (d_S + 1)) / vol
            * poincare_poly(e)(q))


def normalized_constant_check(e: int, q, e_prime: int = 1) -> bool:
    """C_S * (-1)^(e-1) = 1 when e' = 1, exactly."""
    if e_prime != 1:
        raise ValueError("the collapse to 1 is the unramified case e' = 1")
    return constant_CS(e, e_prime, q) * (-1) ** (e - 1) == 1


def volume_is_poincare(e: int, q) -> bool:
    S = parahoric_type(range(1, e), e)
    return parahoric_volume(S, q) == poincare_poly(e)(q)


def ramified_prefactor(nu: int, n: int, N: int, c_param=1):
    """epsilon^nu * c^nu, computed through the full k-average.

    The k-sum has N equal terms, so the average collapses; epsilon^nu is
    (-1)^(nu(n-1)), cross-checked against the rotation sign of the empty
    type elsewhere.
    """
    if N < 1 or not 0 <= nu < max(N, 1) or gcd(nu, N) != 1:
        raise ValueError("need 0 <= nu < N with nu coprime to N")
    if c_param == 0:
        raise ValueError("c must be nonzero")
    eps = (-1) ** (nu * (n - 1))
    acc = 0
    for _k in range(N):
        acc += c_param ** nu
    return eps * acc * Fraction(1, N) if isinstance(c_param, (int, Fraction)) \
        else eps * acc / N


def power_identity_check(e: int) -> bool:
    """(a T_Pi)^k = a^k T_{Pi^k} for k up to 2e and a in {1, 2/3, q}; the
    coefficient ring is Q[q], so a = q exercises the symbolic case."""
    pi = pi_element(e)
    for a in (1, Fraction(2, 3), QPoly.gen()):
        elt = HeckeElt.basis(pi, a)
        for k in range(2 * e + 1):
            lhs = t_power(elt, k)
            a_poly = a if isinstance(a, QPoly) else QPoly.const(a)
            rhs = HeckeElt.basis(pi_power(e, k), a_poly ** k)
            if lhs != rhs:
                return False
    return True


def epsilon_cross_check(nu: int, N: int) -> bool:
    """ramified_prefactor's sign equals the rotation sign of the empty
    type at rank N, computed independently."""
    eps = epsilon(parahoric_type((), N))
    return ramified_prefactor(nu, N, N, 1) == eps ** nu
