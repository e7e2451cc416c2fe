"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import subprocess
import sys
import time
from math import gcd

import pytest

from hecke_forge import charformula, finglq, hecke, pseudocoef, repth, weyl
from hecke_forge.finglq import MultChar, all_characters, get_field, gl_group, mat_det
from hecke_forge.verify import ORACLE_PAIRS


def _line(n, title):
    print(f"ACCEPTANCE {n}: {title} ... pass")


def test_criterion_01_hecke_oracle_equivalence():
    t0 = time.monotonic()
    for e, q in ORACLE_PAIRS:
        assert hecke.oracle_matches_t_mul(e, q), (e, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"oracle run took {elapsed:.1f}s"
    _line(1, f"Iwahori-Matsumoto constants = brute-force convolution "
             f"on {ORACLE_PAIRS} in {elapsed:.1f}s")


def test_criterion_02_e_tau_idempotent_and_dimension():
    for e, q in ORACLE_PAIRS:
        for chi in all_characters(q):
            d = repth.dim_from_e_tau(e, q, chi)  # e_tau raises if not idempotent
            if chi.is_rational:
                assert d == 1, (e, q, chi.k, d)
            else:
                assert abs(complex(d) - 1) <= 1e-10, (e, q, chi.k, d)
    _line(2, "e_tau idempotency and dim tau = Tr(e_tau(1))|G|, all chi, "
             "exact where rational else 1e-10")


def test_criterion_03_trace_via_coset_sum():
    t0 = time.monotonic()
    checked = 0
    for e, q, mode in ((2, 2, "all"), (2, 3, "all"), (3, 2, "reps")):
        G = gl_group(e, q)
        gammas = G.elements if mode == "all" else G.class_reps()
        for chi in all_characters(q):
            et = repth.e_tau(e, q, chi)
            ind = repth.induce(e, q, chi)
            sub = repth.subrep_from_idempotent(et, ind)
            for gamma in gammas:
                rhs = repth.trace_via_coset_sum(gamma, et, ind)
                lhs = sub.char_value(gamma)
                assert abs(complex(rhs) - lhs) <= 1e-8, (e, q, chi.k, gamma)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"trace formula run took {elapsed:.1f}s"
    _line(3, f"coset-sum trace formula = subrep character at {checked} "
             f"(gamma, chi) pairs in {elapsed:.1f}s, tol 1e-8")


def test_criterion_04_generalized_trivial_character():
    for e, q in ((2, 2), (2, 3), (3, 2)):
        G = gl_group(e, q)
        F = get_field(q)
        for chi in all_characters(q):
            ind = repth.induce(e, q, chi)
            oracle = repth.isotypic_projector_character(
                ind, lambda g, c=chi: c(mat_det(F, g)), 1)
            for cls in G.conjugacy_classes():
                gamma = cls[0]
                val = repth.char_generalized_trivial(gamma, e, q, chi)
                assert abs(complex(val) - oracle(gamma)) <= 1e-8
                if chi.k == 0:
                    assert val == 1
    _line(4, "conjugation sum of Tr e_tau = isotypic-projector oracle on "
             "every class; identically 1 for trivial chi")


def test_criterion_05_alvis_curtis_sign():
    for e, q in ((2, 2), (2, 3), (3, 2), (2, 5)):
        reps = repth.elliptic_regular_class_reps(e, q)
        assert reps
        for chi in all_characters(q):
            for gamma in reps:
                assert repth.alvis_curtis_sign_check(gamma, e, q, chi,
                                                     tol=1e-7)
    _line(5, "Tr tau = (-1)^(e-1) Tr St on every elliptic regular class, "
             "all chi, tol 1e-7")


def test_criterion_06_laumon_averaging():
    for e in (2, 3, 4):
        for q in (2, 3):
            p = pseudocoef.PseudoCoefParams(e=e, q=q)
            assert pseudocoef.average_pseudocoef(p) == pseudocoef.laumon_f0(p)
    _line(6, "f_0 = exact mean of the signed Euler-Poincare elements, "
             "e in {2,3,4}, q in {2,3}")


def test_criterion_07_projection_consistency():
    for e in (1, 2, 3, 4):
        for q in (2, 3):
            for ep in (1, 2):
                p = pseudocoef.PseudoCoefParams(e=e, q=q, e_prime=ep)
                assert pseudocoef.projection_check(p)
    _line(7, "central_reduction(F_0) = f_0 exactly for e <= 4")


def test_criterion_08_support_filter():
    cases = 0
    for N in range(1, 13):
        for ep in range(1, N + 1):
            if N % ep:
                continue
            for nu in range(N):
                if gcd(nu, N) != 1:
                    continue
                assert pseudocoef.support_filter_is_unique(N, ep, nu)
                cases += 1
    _line(8, f"unique surviving triple (empty, nu, 0) in {cases} "
             f"(N, e', nu) cases, N <= 12")


def test_criterion_09_signs_and_lengths():
    for e in range(1, 9):
        assert weyl.epsilon(weyl.parahoric_type((), e)) == (-1) ** (e - 1)
    for e in (2, 3, 4):
        ball = weyl.bfs_ball(e, 6)
        for x, d in ball.items():
            assert weyl.length(x) == d
    _line(9, "epsilon_empty = (-1)^(e-1) for e <= 8; closed-form length = "
             "BFS oracle, e <= 4, l <= 6, exhaustive")


def test_criterion_10_constant_collapse():
    for e in range(1, 7):
        for q in (2, 3, 4, 5):
            assert charformula.normalized_constant_check(e, q)
            assert charformula.volume_is_poincare(e, q)
    _line(10, "C_S * (-1)^(e-1) = 1 and vol(P_S) = p_{e-1}(q), "
              "e <= 6, q in {2,3,4,5}, exact")


def test_criterion_11_module_action_transport():
    dev1 = repth.frobenius_transport_check(
        gl_group(2, 2), repth.borel(2, 2),
        repth.sigma_tilde(2, 2, MultChar(2, 0)), trials=20)
    dev2 = repth.frobenius_transport_check(
        gl_group(2, 3), repth.borel(2, 3),
        repth.torus_character(3, (1, 1)), trials=20)
    assert dev1 <= 1e-9 and dev2 <= 1e-9
    _line(11, f"module-action transport identity on 20 random pairs, "
              f"two configurations, deviations {dev1:.2e}, {dev2:.2e}")


def test_criterion_12_cli_verify_all():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "hecke_forge.cli", "verify", "all",
         "--max-e", "3", "--max-q", "3", "--format", "json",
         "--no-timestamps"],
        capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 600, f"verify all took {elapsed:.1f}s"
    assert "fail=0" in proc.stderr
    _line(12, f"`verify all --max-e 3 --max-q 3` exit 0 in {elapsed:.1f}s")
