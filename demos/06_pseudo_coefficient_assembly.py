"""Euler-Poincare pseudo-coefficients: assembly, averaging, lift, collapse.

Chain of identities, all exact rational arithmetic:

  1. each representative system of parahoric types gives a signed
     Euler-Poincare element in the fixed-central-character algebra;
  2. their mean over all standard systems is the averaged element f_0;
  3. f_0 lifts to a finitely supported F_0 in the plain Hecke algebra,
     with central reduction P(F_0) = f_0;
  4. against an elliptic regular element only the full-type term
     survives, and its constant collapses to (-1)^(e-1);
  5. in the ramified regime the valuation filter kills everything but
     (empty type, nu, 0), so the lift's coefficient at Pi^nu, times
     N = e e', is the prefactor epsilon^nu = (-1)^((e-1) nu).
"""

import json

from hecke_forge import charformula, pseudocoef
from hecke_forge.weyl import orbit_reps

E, Q = 3, 2
params = pseudocoef.PseudoCoefParams(e=E, q=Q)

print(f"=== e = {E}, q = {Q} ===")
theta = orbit_reps(E)
ep_elt = pseudocoef.kottwitz_ep(theta, params)
print(f"Euler-Poincare element on the canonical system: "
      f"{len(ep_elt.terms)} basis classes")

systems = list(pseudocoef.representative_systems(E))
print(f"standard representative systems: {len(systems)}")
mean = pseudocoef.average_pseudocoef(params)
f0 = pseudocoef.laumon_f0(params)
print(f"mean of signed elements == f_0: {mean == f0}")

lift = pseudocoef.assemble_F0(params)
print(f"lift F_0: {len(lift.terms)} T-basis terms "
      f"({len(pseudocoef.assemble_F0_terms(params))} raw terms)")
print(f"central reduction recovers f_0: {pseudocoef.projection_check(params)}")

print("\nF_0 as JSON (first three terms):")
print(json.dumps(pseudocoef.hecke_elt_to_json(lift)[:3], indent=2))

print("\n=== constant collapse (unramified regime) ===")
for e in range(1, 7):
    c = charformula.constant_CS(e, 1, Q)
    print(f"  e={e}: C_S = {c}, C_S * (-1)^(e-1) = {c * (-1) ** (e - 1)}")

print("\n=== valuation filter (ramified regime) ===")
for N, ep, nu in ((4, 1, 1), (6, 2, 5), (4, 1, 2)):
    sols = pseudocoef.support_filter(N, ep, nu)
    names = [(sorted(T.nodes) or "{}", l, k) for T, l, k in sols]
    print(f"  N={N} e'={ep} nu={nu}: {names}")

print("\nprefactor through the k-average:")
for nu, n in ((1, 2), (3, 4), (1, 3)):
    val = charformula.lift_prefactors(n, 1, Q)[nu]
    print(f"  nu={nu}, n={n}: {val}")
