"""Steinberg characters by alternating sums, and the sign identity.

The generalized Steinberg character is assembled as the alternating sum
of parabolic-induction characters, twisted by chi∘det.  On elliptic
regular classes every proper-parabolic term vanishes and the constituent
pair (generalized trivial, generalized Steinberg) is tied together by

    Tr tau(gamma) = (-1)^(e-1) Tr St(gamma).
"""

from hecke_forge import repth
from hecke_forge.finglq import all_characters, gl_group, mat_to_ints

for E, Q in ((2, 2), (2, 3), (3, 2), (2, 5)):
    G = gl_group(E, Q)
    st = repth.steinberg_char(E, Q, all_characters(Q)[0])
    print(f"=== GL({E},{Q}): dim St = {st.at(G.identity)} ===")
    elliptic = repth.elliptic_regular_class_reps(E, Q)
    print(f"{len(G.conjugacy_classes())} classes, "
          f"{len(elliptic)} elliptic regular")
    for chi in all_characters(Q):
        checked = sum(repth.alvis_curtis_sign_check(gamma, E, Q, chi)
                      for gamma in elliptic)
        print(f"  chi k={chi.k}: sign identity on {checked}/{len(elliptic)} "
              f"elliptic classes")
    gamma = elliptic[0]
    tau_val = repth.char_generalized_trivial(gamma, E, Q, all_characters(Q)[0])
    st_val = st.at(gamma)
    print(f"  sample class [{' '.join(map(str, mat_to_ints(gamma)))}]: "
          f"Tr tau = {complex(tau_val):.0f}, Tr St = {complex(st_val):.0f}, "
          f"sign (-1)^(e-1) = {(-1) ** (E - 1)}")
    print()
