"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criteria 01-11 name the checks of the `verify` registry they gate
and run them through `verify.run_checks` at (max_e, max_q) = (4, 5).  The
(e, q, chi) each identity is checked at, and its tolerance, are written
in the registry and nowhere else (the sign identity's 1e-8 is fixed in
`repth.SIGN_IDENTITY_TOL`); the pass line lists the tolerances the
records carried.  Each of these criteria has a negative control: one
library value is made wrong, and the criterion's records must turn
`fail` under their own names and params.  Criterion 12 runs
`verify all` as a subprocess.
"""

import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from hecke_forge import (
    charformula, finglq, hecke, pseudocoef, repth, verify, weyl,
)

MAX_E, MAX_Q = 4, 5

# number -> (title, gated registry checks, time bound in seconds or None)
CRITERIA = {
    1: ("Iwahori-Matsumoto constants = double-coset convolution at every "
        "GL(e, q), 2 <= e <= max_e, q <= max_q, under the enumeration cap",
        ("check_hecke_oracle",), 60),
    2: ("e_tau idempotency and dim tau = Tr(e_tau(1))|G|, all chi, "
        "exact where rational", ("check_e_tau",), None),
    3: ("coset-sum trace formula = subrep character and chi(det) at every "
        "gamma of GL(2,2), GL(2,3) and every class of GL(3,2), all chi",
        ("check_trace_formula",), 300),
    4: ("conjugation sum of Tr e_tau = isotypic-projector oracle on every "
        "class; identically 1 for trivial chi",
        ("check_generalized_trivial_char",), None),
    5: ("Tr tau = (-1)^(e-1) Tr St on every elliptic regular class, "
        "all chi, at least one class", ("check_alvis_curtis",), None),
    6: ("f_0 = exact mean of the signed Euler-Poincare elements, "
        "e in {2,3,4}, q in {2,3}", ("check_laumon_average",), None),
    7: ("central_reduction(F_0) = f_0 exactly for e <= 4",
        ("check_projection",), None),
    8: ("unique surviving triple (empty, nu, 0) in every (N, e', nu) case, "
        "N <= 12", ("check_support_filter",), None),
    9: ("epsilon_empty = (-1)^(e-1) for e <= 8; closed-form length = "
        "BFS oracle, e <= 4, l <= 6, exhaustive",
        ("check_epsilon_sign_rule", "check_length_oracle"), None),
    10: ("C_S * (-1)^(e-1) = 1, C_S read off the lift's full-type term "
         "times p_{e-1}(q), e <= 6, q in {2,3,4,5}, exact",
         ("check_constant_collapse",), None),
    11: ("module-action transport identity on 20 random pairs, "
         "three configurations", ("check_frobenius_transport",), None),
}

# registry checks that no acceptance criterion gates; `verify all` runs them
UNGATED = (
    "check_orbit_partition", "check_rotation_period", "check_volume_poincare",
    "check_perm_sign_multiplicative", "check_hecke_associativity",
    "check_central_morphism", "check_pi_power_identities",
    "check_field_axioms", "check_gl_orders", "check_elliptic_equivalence",
    "check_group_averaged_trace", "check_matrix_coefficient_sum",
    "check_unramified_consistency", "check_prefactor", "check_power_identity",
)


def _records(n, max_e=MAX_E, max_q=MAX_Q):
    return verify.run_checks(verify.checks_named(*CRITERIA[n][1]),
                             max_e, max_q)


def _gate(n):
    title, _checks, bound = CRITERIA[n]
    t0 = time.monotonic()
    reports = _records(n)
    elapsed = time.monotonic() - t0
    assert reports
    bad = [r for r in reports if r.status != "pass"]
    assert not bad, bad
    if bound is not None:
        assert elapsed < bound, f"criterion {n} took {elapsed:.1f}s"
    tolerances = ", ".join(f"{t:g}" for t in
                           sorted({r.tolerance for r in reports}))
    print(f"ACCEPTANCE {n}: {title} [{len(reports)} records, tolerances "
          f"{tolerances}, {elapsed:.1f}s] ... pass")


def test_criterion_01_hecke_oracle_equivalence():
    _gate(1)


def test_criterion_02_e_tau_idempotent_and_dimension():
    _gate(2)


def test_criterion_03_trace_via_coset_sum():
    _gate(3)


def test_criterion_04_generalized_trivial_character():
    _gate(4)


def test_criterion_05_alvis_curtis_sign():
    _gate(5)


def test_criterion_06_laumon_averaging():
    _gate(6)


def test_criterion_07_projection_consistency():
    _gate(7)


def test_criterion_08_support_filter():
    _gate(8)


def test_criterion_09_signs_and_lengths():
    _gate(9)


def test_criterion_10_constant_collapse():
    _gate(10)


def test_criterion_11_module_action_transport():
    _gate(11)


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
    print(f"ACCEPTANCE 12: `verify all --max-e 3 --max-q 3` exit 0 in "
          f"{elapsed:.1f}s ... pass")


def test_every_registry_check_is_gated_or_listed_ungated():
    # and every gated criterion has a negative control
    names = [fn.__name__ for fn in verify.ALL_CHECKS]
    gated = [c for _t, checks, _b in CRITERIA.values() for c in checks]
    assert len(set(names)) == len(names) == 27
    assert len(set(gated)) == len(gated)
    assert not set(gated) & set(UNGATED)
    assert sorted(gated + list(UNGATED)) == sorted(names)
    assert sorted(FAULTS) == sorted(CRITERIA)
    assert set(UNGATED_FAULTS) == set(UNGATED) | {"check_length_oracle"}


# --- negative controls: one wrong library value per criterion ----------------
# Each fault shows at the smallest range every criterion has records at,
# (max_e, max_q) = (2, 2), so the controls stay cheap.

def _wrong_structure_constant(mp):
    real = hecke.structure_constants

    def wrong(e):
        consts = dict(real(e))
        key = min(consts)
        consts[key] = consts[key] + 1
        return consts

    mp.setattr(hecke, "structure_constants", wrong)


def _wrong_poincare_in_e_tau(mp):
    real = repth.poincare_poly
    mp.setattr(repth, "poincare_poly", lambda e: real(e) * 2)
    # bypass the cache so the wrong normalisation is used and not kept
    mp.setattr(repth, "e_tau", repth.e_tau.__wrapped__)


def _wrong_cut_dimension(mp):
    real = repth._cut_dimension
    mp.setattr(repth, "_cut_dimension", lambda et, ind: real(et, ind) + 1)


def _wrong_e_tau_scale(mp):
    real = repth.e_tau

    def doubled(e, q, chi):
        return repth.FinHeckeElt(e, q, {label: 2 * x for label, x
                                        in real(e, q, chi).labels.items()})

    mp.setattr(repth, "e_tau", doubled)


def _flipped_steinberg(mp):
    real = repth.steinberg_char

    def flipped(e, q, chi):
        st = real(e, q, chi)
        return repth.ClassFunction(st.group, [-v for v in st.values])

    mp.setattr(repth, "steinberg_char", flipped)


def _flipped_averaged_weight(mp):
    real = pseudocoef._averaged_weight
    mp.setattr(pseudocoef, "_averaged_weight",
               lambda e, ep: (lambda T, n: -real(e, ep)(T, n)))


def _wrong_lift_coefficient(mp):
    real = pseudocoef.assemble_F0_terms

    def wrong(params):
        (T, l, w, x, c), *rest = real(params)
        return [(T, l, w, x, 2 * c)] + rest

    mp.setattr(pseudocoef, "assemble_F0_terms", wrong)


def _n_for_period(mp):
    # the filter's period function returns n_T = e / u_T in place of u_T;
    # its per-e table starts empty under the fault, and the table built
    # under it goes with the undo
    real = pseudocoef.mask_period
    mp.setattr(pseudocoef, "mask_period", lambda mask, e: e // real(mask, e))
    mp.setattr(pseudocoef, "_mask_periods",
               lru_cache(pseudocoef._mask_periods.__wrapped__))


def _flipped_perm_sign(mp):
    real = weyl.perm_sign
    mp.setattr(weyl, "perm_sign", lambda a: -real(a))


def _wrong_poincare_in_collapse(mp):
    real = charformula.poincare_poly
    mp.setattr(charformula, "poincare_poly", lambda e: real(e) * 2)


def _flipped_direct_action(mp):
    real = repth._direct_action
    mp.setattr(repth, "_direct_action",
               lambda ind, phi, f: -real(ind, phi, f))


FAULTS = {
    1: _wrong_structure_constant,
    2: _wrong_poincare_in_e_tau,
    3: _wrong_cut_dimension,
    4: _wrong_e_tau_scale,
    5: _flipped_steinberg,
    6: _flipped_averaged_weight,
    7: _wrong_lift_coefficient,
    8: _n_for_period,
    9: _flipped_perm_sign,
    10: _wrong_poincare_in_collapse,
    11: _flipped_direct_action,
}


@pytest.mark.parametrize("n", sorted(FAULTS), ids=lambda n: f"{n:02d}")
def test_negative_control(n, monkeypatch, capsys):
    FAULTS[n](monkeypatch)
    failed = [r for r in _records(n, 2, 2) if r.status == "fail"]
    assert failed
    # the records themselves failed: no check and no pair raised
    assert all(r.params for r in failed), failed
    assert "Traceback" not in capsys.readouterr().err


def test_period_fault_fails_every_coprime_case_above_rank_one(monkeypatch):
    # at e = N/e' = 1 the only type has u_T = n_T = 1, so no period fault
    # can show there; at every e > 1 the empty type loses its solution
    from math import gcd
    _n_for_period(monkeypatch)
    cases = 0
    for N in range(2, 13):
        for ep in range(1, N):
            if N % ep:
                continue
            for nu in range(N):
                if gcd(nu, N) == 1:
                    assert not pseudocoef.support_filter_is_unique(N, ep, nu)
                    cases += 1
    assert cases == 89


def test_sign_identity_fault_shows_after_a_clean_run(monkeypatch):
    # the deviations both sign checks share last for one run_checks call
    checks = verify.checks_named("check_alvis_curtis",
                                 "check_unramified_consistency")
    assert all(r.status == "pass" for r in verify.run_checks(checks, 2, 2))
    _flipped_steinberg(monkeypatch)
    records = verify.run_checks(checks, 2, 2)
    assert records and all(r.status == "fail" for r in records), records


# --- negative controls for ungated checks: each check alone, at (2, 2) ---------

def _doubled_generalized_trivial(mp):
    real = repth.char_generalized_trivial
    mp.setattr(repth, "char_generalized_trivial",
               lambda gamma, e, q, chi: 2 * real(gamma, e, q, chi))


def _unit_empty_epsilon(mp):
    # epsilon_empty := 1 in the builders, on fresh type caches: no entry
    # built before the fault hides it, and none built under it outlives it
    real = pseudocoef.epsilon
    mp.setattr(pseudocoef, "epsilon", lambda T: real(T) if T.nodes else 1)
    for name in ("_type_shape", "_type_data"):
        mp.setattr(pseudocoef, name,
                   lru_cache(getattr(pseudocoef, name).__wrapped__))


def _shifted_pi_power(mp):
    real = charformula.pi_power
    mp.setattr(charformula, "pi_power", lambda e, k: real(e, k + 1))


def _doubled_orbit_reps(mp):
    real = weyl.orbit_reps
    mp.setattr(weyl, "orbit_reps", lambda e: real(e) * 2)


def _period_n_off_by_one(mp):
    real = weyl.period_and_n

    def wrong(T):
        u, n = real(T)
        return u, n + 1

    mp.setattr(weyl, "period_and_n", wrong)


def _doubled_poincare_poly(mp):
    real = weyl.poincare_poly
    mp.setattr(weyl, "poincare_poly", lambda e: real(e) * 2)


def _dropped_last_element(mp):
    real = finglq.enumerate_group
    mp.setattr(finglq, "enumerate_group",
               lambda n, q, spec: real(n, q, spec)[:-1])


def _conj_avg_off_by_one(mp):
    real = repth.conj_avg
    mp.setattr(repth, "conj_avg", lambda T, rep, v: real(T, rep, v) + 1)


def _char_value_off_by_one(mp):
    real = repth.FinRep.char_value
    mp.setattr(repth.FinRep, "char_value", lambda self, g: real(self, g) + 1)


def _affine_ascent_off_by_one(mp):
    # the affine-node bound read as <= 0: x s_0 with t = 1 counts as a
    # descent.  `_right_descent_word` tries the affine node last, so it
    # still finds every reduced word; only the products go wrong
    real = hecke._ascends

    def wrong(x, i):
        if i:
            return real(x, i)
        lam, w = x
        a, b = w[-1], w[0]
        return lam[a] - lam[b] + (a > b) <= 0

    mp.setattr(hecke, "_ascends", wrong)


def _truncated_central_index(mp):
    # n by truncation toward zero instead of floor division: classes with
    # a negative translation sum keep a second representative
    def wrong(x):
        n = int(weyl.central_index(x) / x.rank)
        if not n:
            return x, 0
        return weyl.AffineElt(tuple(t - n for t in x.trans), x.perm), n

    mp.setattr(hecke, "canonical_central_rep", wrong)


def _t_mul_rotation_moved(mp):
    # t_mul's Pi^k built from (e_e, i -> i+1), which has positive length,
    # instead of the length-zero (e_1, i -> i+1)
    def wrong(e, k):
        pi = weyl.AffineElt((0,) * (e - 1) + (1,),
                            tuple((i + 1) % e for i in range(e)))
        out = weyl.affine_identity(e)
        step = pi if k >= 0 else weyl.inv(pi)
        for _ in range(abs(k)):
            out = weyl.mul(out, step)
        return out

    mp.setattr(hecke, "pi_power", wrong)


def _length_without_finite_inversions(mp):
    # the closed form without its [w(i) > w(j)] term: s_1 gets length 0
    def wrong(x):
        lam, w = x.trans, x.perm
        return sum(abs(lam[w[i]] - lam[w[j]])
                   for i in range(len(w)) for j in range(i + 1, len(w)))

    mp.setattr(weyl, "length", wrong)


def _sign_of_two_cycles_only(mp):
    # each 2-cycle flips the sign, longer even cycles do not: right on
    # products of 2-cycles and odd cycles, wrong on 4-cycles, so
    # sign(ab) != sign(a) sign(b) for a = (0 1), b = (1 2 3)
    def wrong(a):
        seen, sign = set(), 1
        for i in range(len(a)):
            j, clen = i, 0
            while j not in seen:
                seen.add(j)
                j = a[j]
                clen += 1
            if clen == 2:
                sign = -sign
        return sign

    mp.setattr(weyl, "perm_sign", wrong)


def _field_addition_off_by_one(mp):
    # a + b + 1 is commutative and associative, but 0 * (0 + 0) = 0 while
    # 0 * 0 + 0 * 0 = 1: distributivity fails in every field, F_2 included
    real = finglq.Fq.add
    mp.setattr(finglq.Fq, "add", lambda F, a, b: real(F, real(F, a, b), 1))


def _avoidance_without_conjugates(mp):
    # the parabolics themselves, not their conjugates: the transposition
    # of GL(2,2) is split but lies in no proper standard parabolic
    def wrong(n, q, g):
        return not any(finglq.is_block_upper(g, blocks)
                       for blocks in finglq._compositions(n)
                       if len(blocks) >= 2)

    mp.setattr(finglq, "proper_parabolic_avoidance", wrong)


# every ungated check has a fault of its own, and so does
# `check_length_oracle`: criterion 09's fault reaches only its first check
UNGATED_FAULTS = {
    "check_length_oracle": _length_without_finite_inversions,
    "check_perm_sign_multiplicative": _sign_of_two_cycles_only,
    "check_field_axioms": _field_addition_off_by_one,
    "check_elliptic_equivalence": _avoidance_without_conjugates,
    "check_hecke_associativity": _affine_ascent_off_by_one,
    "check_central_morphism": _truncated_central_index,
    "check_pi_power_identities": _t_mul_rotation_moved,
    "check_gl_orders": _dropped_last_element,
    "check_group_averaged_trace": _conj_avg_off_by_one,
    "check_matrix_coefficient_sum": _char_value_off_by_one,
    "check_unramified_consistency": _doubled_generalized_trivial,
    "check_prefactor": _unit_empty_epsilon,
    "check_power_identity": _shifted_pi_power,
    "check_orbit_partition": _doubled_orbit_reps,
    "check_rotation_period": _period_n_off_by_one,
    "check_volume_poincare": _doubled_poincare_poly,
}


@pytest.mark.parametrize("check", sorted(UNGATED_FAULTS))
def test_ungated_negative_control(check, monkeypatch, capsys):
    UNGATED_FAULTS[check](monkeypatch)
    records = verify.run_checks(verify.checks_named(check), 2, 2)
    assert records
    assert all(r.status == "fail" and r.params for r in records), records
    # no check and no pair raised
    assert "Traceback" not in capsys.readouterr().err


# --- the same faults after a clean run has filled every cache ----------------

@pytest.fixture(scope="module")
def warm_run():
    """One clean `verify all --max-e 3 --max-q 3` in process, so each
    per-group table and per-character cache it fills is in place."""
    records = verify.run_all(3, 3)
    assert records and all(r.status == "pass" for r in records)


@pytest.mark.parametrize("fault", [f"{n:02d}" for n in sorted(FAULTS)]
                         + sorted(UNGATED_FAULTS))
def test_negative_control_after_a_warm_run(fault, warm_run, monkeypatch,
                                           capsys):
    # nothing kept from the clean run hides a fault injected after it
    if fault in UNGATED_FAULTS:
        UNGATED_FAULTS[fault](monkeypatch)
        records = verify.run_checks(verify.checks_named(fault), 2, 2)
        assert records
        assert all(r.status == "fail" and r.params for r in records), records
    else:
        FAULTS[int(fault)](monkeypatch)
        failed = [r for r in _records(int(fault), 2, 2)
                  if r.status == "fail"]
        assert failed
        assert all(r.params for r in failed), failed
    assert "Traceback" not in capsys.readouterr().err


# --- faults in the builders that the charformula records read ----------------

def _weight_over_d_plus_two(mp):
    mp.setattr(pseudocoef, "_averaged_weight",
               lambda e, ep: lambda T, n: Fraction(
                   (-1) ** (e - 1) * (-1) ** T.d, ep * (T.d + 2)))


def _volume_times_q(mp):
    real = pseudocoef._type_data

    def wrong(T, q):
        u, n, eps, vol, W_T = real(T, q)
        return u, n, eps, vol * q, W_T

    mp.setattr(pseudocoef, "_type_data", wrong)


@pytest.mark.parametrize("check, fault", [
    ("check_prefactor", _unit_empty_epsilon),
    ("check_constant_collapse", _weight_over_d_plus_two),
    ("check_constant_collapse", _volume_times_q),
], ids=lambda x: getattr(x, "__name__", x))
def test_charformula_records_read_the_lift(check, fault, monkeypatch):
    # the constants are read off the assembled elements, so a fault in the
    # builders fails every record; a restated formula passed all three
    fault(monkeypatch)
    records = verify.run_checks(verify.checks_named(check), 3, 3)
    assert records
    assert all(r.status == "fail" and r.params for r in records), records


# --- the systems average counts every system -----------------------------------

def _repeated_system(mp):
    real = pseudocoef.representative_systems

    def repeated(e):
        systems = list(real(e))
        return [systems[0]] + systems

    mp.setattr(pseudocoef, "representative_systems", repeated)


@pytest.mark.parametrize("max_e, max_q", [(3, 2), (4, 3)])
def test_laumon_average_counts_every_system(max_e, max_q, monkeypatch):
    # a system met twice is counted twice, which moves the mean wherever
    # there are two systems or more: from e = 3 on
    _repeated_system(monkeypatch)
    records = verify.run_checks(verify.checks_named("check_laumon_average"),
                                max_e, max_q)
    wide = [r for r in records if r.params["e"] >= 3]
    assert {r.params["e"] for r in wide} == set(range(3, max_e + 1))
    assert all(r.status == "fail" for r in wide), wide
