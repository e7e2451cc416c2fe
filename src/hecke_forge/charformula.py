"""The two constants of the character formulas, read off the assembled
elements, and the convolution-power identity of the ramified chain.

The unramified-case chain reduces the averaged pseudo-coefficient, against
an elliptic regular element, to the single full-type term
S = {1..e-1}.  `constant_CS` reads that term's coefficient,
(-1)^(e-1) / (e' vol P_S) as d_S = 0, off `pseudocoef.weighted_type_terms`
with the lift's own weight and multiplies it by p_{e-1}(q); it collapses
to (-1)^(e-1)/e' because vol P_S = p_{e-1}(q).  The verifiable finite
identity is

    sum over x in G of [Tr e_tau](x gamma x^-1) = (-1)^(e-1) * Tr St(gamma),

that is Tr tau(gamma) = (-1)^(e-1) Tr St(gamma) at elliptic regular gamma.
It lives on the finite group, so it is computed in one place,
`repth.sign_identity_deviation`; this module needs no finite group.

The ramified-case chain collapses the k-average of a coset sum to the
prefactor epsilon^nu.  For nu coprime to N = e e' the support filter
leaves only the term (empty type, nu, 0) of the lift, so
N F_0(Pi^nu) = epsilon_empty^nu with epsilon_empty = (-1)^(e-1);
`lift_prefactors` reads it off `pseudocoef.assemble_F0`.  The chain rests
on the convolution-power identity (a T_Pi)^k = a^k T_{Pi^k}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import pseudocoef
from .hecke import HeckeElt, t_power
from .qpoly import QPoly
from .weyl import parahoric_type, pi_element, pi_power, poincare_poly


def constant_CS(e: int, e_prime: int, q) -> Fraction:
    """The lift's full-type coefficient times p_{e-1}(q): the volume of
    P_S cancels the Poincare value."""
    params = pseudocoef.PseudoCoefParams(e, q, e_prime)
    full = parahoric_type(range(1, e), e)
    *_, c = next(pseudocoef.weighted_type_terms(
        [full], params, pseudocoef._averaged_weight(e, e_prime)))
    return c * poincare_poly(e)(q)


def normalized_constant_check(e: int, q) -> bool:
    """C_S * (-1)^(e-1) = 1 in the unramified case e' = 1, exactly."""
    return constant_CS(e, 1, q) * (-1) ** (e - 1) == 1


def lift_prefactors(e: int, e_prime: int, q) -> dict:
    """nu -> N F_0(Pi^nu) for every 0 <= nu < N = e e' coprime to N, read
    off one assembled lift F_0."""
    N = e * e_prime
    F0 = pseudocoef.assemble_F0(pseudocoef.PseudoCoefParams(e, q, e_prime))
    return {nu: N * F0.coeff(pi_power(e, nu)).constant_value()
            for nu in range(N) if gcd(nu, N) == 1}


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
