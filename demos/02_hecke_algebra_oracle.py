"""The Iwahori-Hecke algebra in the T-basis, against its double-coset twin.

The quadratic relation T_s^2 = q + (q-1) T_s and the free multiplication
by the rotation T_Pi are not axioms here: the same structure constants
are recomputed by convolving Borel double-coset indicators inside a real
GL(e, F_q), and the two tables are compared entry by entry, exactly.
"""

from hecke_forge import hecke, weyl

print("=== symbolic products (e = 2) ===")
s1 = hecke.HeckeElt.basis(weyl.simple_reflection(2, 1))
print(f"T_s * T_s = {hecke.t_mul(s1, s1)}")

pi = hecke.HeckeElt.basis(weyl.pi_element(2))
print(f"T_Pi * T_Pi = {hecke.t_mul(pi, pi)}")
print(f"T_Pi * T_Pi^-1 = {hecke.t_mul(pi, hecke.HeckeElt.basis(weyl.inv(weyl.pi_element(2))))}")

x = hecke.HeckeElt.basis(weyl.translation((1, 0)))
print(f"T_t[1,0] * T_s = {hecke.t_mul(x, s1)}")

print("\n=== the double-coset oracle ===")
for e, q in ((2, 2), (2, 3), (2, 5), (3, 2)):
    ok = hecke.oracle_matches_t_mul(e, q)
    consts = hecke.convolution_oracle(e, q)
    print(f"GL({e},{q}): {len(consts)} constants, "
          f"match t_mul exactly: {ok}")

print("\nsample constants for GL(2,3) (w1, w2 -> w3):")
consts = hecke.convolution_oracle(2, 3)
for (w1, w2, w3), c in sorted(consts.items()):
    if c:
        print(f"  {w1} * {w2} -> {w3}: {c}")

print("\n=== central-character reduction ===")
f = hecke.HeckeElt.unit(2) + hecke.HeckeElt.basis(weyl.translation((1, 1)))
for omega in (1, -1):
    red = hecke.central_reduction(f, omega)
    print(f"reduce(T_1 + T_central, omega={omega:+d}): {red}")
