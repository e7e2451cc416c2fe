"""Finite fields and GL(n, F_q) at desk scale.

Fields up to q = 9 with pinned irreducibles, full enumeration of the
matrix groups with closed-form order checks, and the two equivalent
faces of elliptic regularity: irreducible characteristic polynomial
versus avoidance of every proper parabolic conjugate.
"""

from hecke_forge import finglq

print("=== fields ===")
for q in (2, 3, 4, 5, 7, 8, 9):
    F = finglq.get_field(q)
    print(f"F_{q}: generator code {F.generator}, axioms ok: "
          f"{finglq.check_field_axioms(q)}")

print("\n=== group orders ===")
for n, q in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
    els = finglq.enumerate_group(n, q, finglq.SubgroupSpec.full())
    print(f"|GL({n},{q})| = {len(els)} "
          f"(closed form {finglq.gl_order(n, q)})")

print("\nstandard subgroups of GL(3,3):")
for spec in (finglq.SubgroupSpec.borel(),
             finglq.SubgroupSpec.standard_parabolic((2, 1)),
             finglq.SubgroupSpec.levi((2, 1)),
             finglq.SubgroupSpec.unipotent_radical((2, 1))):
    print(f"  {spec.kind}{spec.blocks or ''}: "
          f"order {finglq.group_order(3, 3, spec)}")

print("\n=== elliptic regularity, two ways (GL(2,3)) ===")
G = finglq.gl_group(2, 3)
agree = 0
elliptic = 0
for g in G.elements:
    a = finglq.elliptic_regular(3, g)
    b = finglq.proper_parabolic_avoidance(2, 3, g)
    agree += a == b
    elliptic += a
print(f"char-poly test == parabolic-avoidance test on {agree}/{G.order} "
      f"elements; {elliptic} elliptic regular elements")

print("\ncharacteristic polynomials of a split and a nonsplit element:")
F = finglq.get_field(3)
for g in (((1, 0), (0, 2)), ((0, 1), (1, 1))):
    cp = finglq.char_poly(F, g)
    print(f"  {g}: coeffs (low to high) {cp}, "
          f"irreducible: {finglq.poly_is_irreducible(F, cp)}")
