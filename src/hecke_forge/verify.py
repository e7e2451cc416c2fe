"""Registry of verification checks behind `verify all`, `char verify` and
the acceptance gate.

Each check emits VerificationReport records.  Every finite-group check
runs at the pairs of one rule, `_gl_pairs`: each (e, q) with
2 <= e <= max_e, q <= max_q in PRIME_POWERS and |GL(e, q)| at most the
enumeration cap and the check's order limit, a constant measured from
its cost: none for the Hecke oracle and e_tau; 168 = |GL(3,2)| for the
trace formula, the generalized trivial character and the elliptic
equivalence; 5760 = |GL(2,9)| for the two sign-identity checks (GL(3,3)
would add 0.19 s to every `--max-e 3 --max-q 3` run); 48 = |GL(2,3)| for
the numpy checks and the transport.  The trace formula reads every
element up to order 48 and the class representatives above.  A pair that
raises becomes one `fail` record with that pair's params.  Only
`gl_order_formula` reports groups over the cap, as `skipped`;
pure-combinatorics checks run at their natural desk-scale ranges (they
cost milliseconds).  The ranges and tolerances written here are the only
ones, apart from the 1e-8 fixed in `repth.SIGN_IDENTITY_TOL`: every entry
point runs the checks through `run_checks`.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from functools import lru_cache

import numpy as np

from . import charformula, finglq, hecke, pseudocoef, repth, weyl
from .finglq import GroupSizeError, MultChar, all_characters, gl_group
from .qpoly import QPoly
from .report import VerificationReport

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


def _gl_pairs(max_e, max_q, max_order=math.inf):
    """Every (e, q) with 2 <= e <= max_e, q in PRIME_POWERS, q <= max_q and
    |GL(e, q)| <= min(max_order, the enumeration cap), in (e, q) order."""
    limit = min(max_order, finglq.MAX_GROUP_ORDER)
    return [(e, q) for e in range(2, max_e + 1) for q in PRIME_POWERS
            if q <= max_q and finglq.gl_order(e, q) <= limit]


def _raised(name, params, exc):
    """The `fail` record of a raised exception; its traceback goes to
    stderr."""
    traceback.print_exc()
    return VerificationReport(name, params, f"{type(exc).__name__}: {exc}",
                              "", 1.0, 0.0, "fail")


def _per_pair(name, max_order=math.inf):
    """Make `at(e, q)`, the records of one pair, into a registry check
    `(max_e, max_q)` over `_gl_pairs(max_e, max_q, max_order)`.  A pair
    that raises keeps none of its records and gives one `fail` record
    named `name`, with params {e, q}."""
    def wrap(at):
        def check(max_e, max_q):
            out = []
            for e, q in _gl_pairs(max_e, max_q, max_order):
                try:
                    out.extend(list(at(e, q)))
                except Exception as exc:  # one pair must not hide the rest
                    out.append(_raised(name, {"e": e, "q": q}, exc))
            return out
        check.__name__ = check.__qualname__ = at.__name__
        check.max_order = max_order
        return check
    return wrap


def _timed(fn):
    t0 = time.perf_counter()
    reports = fn()
    ms = max(1, int((time.perf_counter() - t0) * 1000))
    share = max(1, ms // max(1, len(reports)))
    for r in reports:
        if r.status != "skipped":
            r.elapsed_ms = share
    return reports


# --- weyl --------------------------------------------------------------------

def check_length_oracle(max_e, max_q):
    out = []
    for e in range(2, min(4, max_e) + 1):
        ball = weyl.bfs_ball(e, 6)
        bad = sum(1 for x, d in ball.items() if weyl.length(x) != d)
        out.append(VerificationReport.exact(
            "weyl.length_closed_form_vs_bfs",
            {"e": e, "radius": 6, "elements": len(ball)},
            f"{len(ball) - bad} agree", f"{len(ball)} in ball", bad == 0))
    return out


def check_epsilon_sign_rule(max_e, max_q):
    out = []
    for e in range(1, 9):
        val = weyl.epsilon(weyl.parahoric_type((), e))
        out.append(VerificationReport.exact(
            "weyl.epsilon_empty_type", {"e": e},
            val, (-1) ** (e - 1), val == (-1) ** (e - 1)))
    return out


def check_orbit_partition(max_e, max_q):
    import itertools
    from collections import Counter
    out = []
    for e in range(1, 9):
        times = Counter(weyl.orbit_reps(e))
        ok = True
        count = 0
        for r in range(e):
            for nodes in itertools.combinations(range(e), r):
                canon = weyl.canonical_rep(weyl.parahoric_type(nodes, e))
                ok &= times[canon] == 1
                count += 1
        out.append(VerificationReport.exact(
            "weyl.orbit_reps_partition", {"e": e, "proper_subsets": count},
            "each subset matched once", "partition", ok))
    return out


def check_rotation_period(max_e, max_q):
    import itertools
    out = []
    for e in range(1, 7):
        ok = True
        for r in range(e):
            for nodes in itertools.combinations(range(e), r):
                T = weyl.parahoric_type(nodes, e)
                u, n = weyl.period_and_n(T)
                ok &= u * n == e and weyl.rotate(T, u) == T
                ok &= all(weyl.rotate(T, j) != T for j in range(1, u))
        out.append(VerificationReport.exact(
            "weyl.rotation_period", {"e": e}, "minimal and divides",
            "u_T * n_T = e", ok))
    return out


def check_volume_poincare(max_e, max_q):
    out = []
    for e in range(1, 6):
        for q in [q for q in (2, 3, 4, 5) if q <= max(max_q, 2)]:
            S = weyl.parahoric_type(range(1, e), e)
            lhs = weyl.parahoric_volume(S, q)
            rhs = weyl.poincare_poly(e)(q)
            out.append(VerificationReport.exact(
                "weyl.full_volume_is_poincare", {"e": e, "q": q},
                lhs, rhs, lhs == rhs))
    return out


def check_perm_sign_multiplicative(max_e, max_q):
    rng = random.Random(2024)
    ok = True
    for _ in range(60):
        e = rng.randint(2, 6)
        a = tuple(rng.sample(range(e), e))
        b = tuple(rng.sample(range(e), e))
        ok &= weyl.perm_sign(weyl.perm_mul(a, b)) \
            == weyl.perm_sign(a) * weyl.perm_sign(b)
    return [VerificationReport.exact(
        "weyl.sign_multiplicative", {"trials": 60},
        "sign(ab)", "sign(a)sign(b)", ok)]


# --- hecke ---------------------------------------------------------------------

@_per_pair("hecke.oracle_equivalence")
def check_hecke_oracle(e, q):
    yield VerificationReport.exact(
        "hecke.oracle_equivalence", {"e": e, "q": q}, "t_mul constants at q",
        "double-coset convolution", hecke.oracle_matches_t_mul(e, q))


def check_hecke_associativity(max_e, max_q):
    rng = random.Random(77)
    out = []
    for e in range(2, min(4, max_e) + 1):
        ok = True
        for _ in range(67):
            xs = []
            for _ in range(3):
                lam = tuple(rng.randint(-1, 1) for _ in range(e))
                w = tuple(rng.sample(range(e), e))
                xs.append(hecke.HeckeElt.basis(weyl.AffineElt(lam, w)))
            a, b, c = xs
            ok &= hecke.t_mul(hecke.t_mul(a, b), c) \
                == hecke.t_mul(a, hecke.t_mul(b, c))
        out.append(VerificationReport.exact(
            "hecke.t_mul_associative", {"e": e, "triples": 67},
            "(ab)c", "a(bc)", ok))
    return out


def check_central_morphism(max_e, max_q):
    rng = random.Random(99)
    out = []
    for omega in (1, -1):
        ok = True
        for _ in range(50):
            terms = {}
            for elt_terms in (1, 2):
                lam = tuple(rng.randint(-1, 1) for _ in range(2))
                w = tuple(rng.sample(range(2), 2))
                terms[weyl.AffineElt(lam, w)] = QPoly(
                    (rng.randint(-2, 2), rng.randint(0, 1)))
            a = hecke.HeckeElt(2, dict(terms))
            lam = tuple(rng.randint(-1, 1) for _ in range(2))
            w = tuple(rng.sample(range(2), 2))
            b = hecke.HeckeElt.basis(weyl.AffineElt(lam, w))
            lhs = hecke.central_reduction(hecke.t_mul(a, b), omega)
            rhs = hecke.central_mul(hecke.central_reduction(a, omega),
                                    hecke.central_reduction(b, omega))
            ok &= lhs == rhs
        out.append(VerificationReport.exact(
            "hecke.central_reduction_morphism", {"e": 2, "omega": omega,
                                                 "pairs": 50},
            "P(a*b)", "P(a)*P(b)", ok))
    return out


def check_pi_power_identities(max_e, max_q):
    out = []
    for e in range(2, max(2, max_e) + 1):
        pi = weyl.pi_element(e)
        t_pi = hecke.HeckeElt.basis(pi)
        inv_ok = hecke.t_mul(t_pi, hecke.HeckeElt.basis(weyl.inv(pi))) \
            == hecke.HeckeElt.unit(e)
        pow_ok = all(hecke.t_power(t_pi, k)
                     == hecke.HeckeElt.basis(weyl.pi_power(e, k))
                     for k in range(2 * e + 1))
        out.append(VerificationReport.exact(
            "hecke.rotation_invertible_and_powers", {"e": e},
            "T_Pi^k", "T_{Pi^k}", inv_ok and pow_ok))
    return out


# --- finglq ---------------------------------------------------------------------

def check_field_axioms(max_e, max_q):
    return [VerificationReport.exact(
        "finglq.field_axioms", {"q": q}, "axioms", "hold",
        finglq.check_field_axioms(q)) for q in PRIME_POWERS]


def check_gl_orders(max_e, max_q):
    out = []
    for n in range(1, max(2, max_e) + 1):
        for q in [q for q in PRIME_POWERS if q <= max_q]:
            params = {"n": n, "q": q}
            try:
                els = finglq.enumerate_group(n, q, finglq.SubgroupSpec.full())
            except GroupSizeError as exc:
                out.append(VerificationReport.skipped(
                    "finglq.gl_order_formula", params, str(exc)))
                continue
            expect = finglq.gl_order(n, q)
            out.append(VerificationReport.exact(
                "finglq.gl_order_formula", params, len(els), expect,
                len(els) == expect))
    return out


def _avoidance_at_elements(n, q):
    """`finglq.proper_parabolic_avoidance` at each of `elements`: a class
    function (it scans g's class), so evaluated once per class."""
    G = gl_group(n, q)
    per_class = [finglq.proper_parabolic_avoidance(n, q, g)
                 for g in G.class_reps()]
    return [per_class[G.class_index(g)] for g in G.elements]


@_per_pair("finglq.elliptic_iff_avoids_parabolics", 168)
def check_elliptic_equivalence(n, q):
    ok = all(finglq.elliptic_regular(q, g) == avoids for g, avoids
             in zip(gl_group(n, q).elements, _avoidance_at_elements(n, q)))
    yield VerificationReport.exact(
        "finglq.elliptic_iff_avoids_parabolics", {"n": n, "q": q},
        "char poly irreducible", "avoids all conjugates", ok)


# --- repth ------------------------------------------------------------------------

@_per_pair("repth.e_tau_idempotent_dim")
def check_e_tau(e, q):
    name = "repth.e_tau_idempotent_dim"
    for chi in all_characters(q):
        params = {"e": e, "q": q, "chi": chi.k}
        try:
            d = repth.dim_from_e_tau(e, q, chi)  # e_tau checks idempotency
        except ValueError as exc:
            yield VerificationReport(name, params, str(exc), "", 1.0, 0.0,
                                     "fail")
            continue
        if chi.is_rational:
            yield VerificationReport.exact(name, params, d, 1, d == 1)
        else:
            yield VerificationReport.passfail(
                name, params, d, 1, abs(complex(d) - 1), 1e-10)


@_per_pair("repth.trace_via_coset_sum", 168)
def check_trace_formula(e, q):
    G = gl_group(e, q)
    gammas = G.elements if G.order <= 48 else G.class_reps()
    F = finglq.get_field(q)
    for chi in all_characters(q):
        et = repth.e_tau(e, q, chi)
        ind = repth.induce(e, q, chi)
        sub = repth.subrep_from_idempotent(et, ind)
        worst = worst_sub = 0.0
        for gamma in gammas:
            val = complex(repth.trace_via_coset_sum(gamma, et, ind))
            expect = chi(finglq.mat_det(F, gamma))
            worst = max(worst, abs(val - complex(expect)))
            worst_sub = max(worst_sub, abs(val - sub.char_value(gamma)))
        params = {"e": e, "q": q, "chi": chi.k, "gammas": len(gammas)}
        yield VerificationReport.passfail(
            "repth.trace_via_coset_sum", params,
            "coset sum", "chi(det)", worst, 1e-8)
        yield VerificationReport.passfail(
            "repth.trace_via_coset_sum_vs_subrep", params,
            "coset sum", "subrep character", worst_sub, 1e-8)


@_per_pair("repth.generalized_trivial_character", 168)
def check_generalized_trivial_char(e, q):
    G = gl_group(e, q)
    F = finglq.get_field(q)
    for chi in all_characters(q):
        oracle = repth.isotypic_projector_character(
            repth.induce(e, q, chi),
            lambda g, c=chi: c(finglq.mat_det(F, g)), 1)
        worst = worst_oracle = 0.0
        all_one = True
        for cls in G.conjugacy_classes():
            val = repth.char_generalized_trivial(cls[0], e, q, chi)
            expect = chi(finglq.mat_det(F, cls[0]))
            worst = max(worst, abs(complex(val) - complex(expect)))
            worst_oracle = max(worst_oracle,
                               abs(complex(val) - oracle(cls[0])))
            all_one &= val == 1
        params = {"e": e, "q": q, "chi": chi.k}
        yield VerificationReport.passfail(
            "repth.generalized_trivial_character", params,
            "conjugation sum of Tr e_tau", "chi(det)", worst, 1e-8)
        # the trivial chi's sum is rational: it must be exactly 1
        ok = worst_oracle <= 1e-8 and (chi.k != 0 or all_one)
        yield VerificationReport(
            "repth.generalized_trivial_vs_isotypic_projector", params,
            "conjugation sum of Tr e_tau",
            "isotypic-projector character, exactly 1 at trivial chi",
            worst_oracle, 1e-8, "pass" if ok else "fail")


@lru_cache(maxsize=None)
def _sign_deviations(e, q):
    """(reps, {chi.k: deviations at reps}) for the sign identity at (e, q).

    `check_alvis_curtis` and `check_unramified_consistency` both read it,
    so each deviation is computed once per `run_checks` call, which
    empties the cache before and after its checks.
    """
    reps = repth.elliptic_regular_class_reps(e, q)
    return reps, {chi.k: [repth.sign_identity_deviation(g, e, q, chi)
                          for g in reps] for chi in all_characters(q)}


@_per_pair("repth.alvis_curtis_sign", 5760)
def check_alvis_curtis(e, q):
    reps, deviations = _sign_deviations(e, q)
    for k, devs in deviations.items():
        ok = bool(reps) and all(d <= repth.SIGN_IDENTITY_TOL for d in devs)
        yield VerificationReport.exact(
            "repth.alvis_curtis_sign",
            {"e": e, "q": q, "chi": k, "classes": len(reps)},
            "Tr tau", "(-1)^(e-1) Tr St", ok)


@_per_pair("repth.group_averaged_trace", 48)
def check_group_averaged_trace(e, q):
    reps = [_steinberg_rep(e, q)]
    G = gl_group(e, q)
    F = finglq.get_field(q)
    for chi in all_characters(q):
        reps.append(repth.FinRep.from_character(
            G, lambda g, c=chi: c(finglq.mat_det(F, g))))
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(20):
        rep = reps[trial % len(reps)]
        v = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        M = rep.invariant_inner_product()
        v = v / np.sqrt((v.conj() @ M @ v).real)
        T = rng.normal(size=(rep.dim, rep.dim)) \
            + 1j * rng.normal(size=(rep.dim, rep.dim))
        got = repth.conj_avg(T, rep, v)
        worst = max(worst, abs(got - np.trace(T)))
    yield VerificationReport.passfail(
        "repth.group_averaged_trace",
        {"e": e, "q": q, "trials": 20, "reps": len(reps)},
        "averaged form", "Tr T", worst, 1e-7)


@lru_cache(maxsize=None)
def _steinberg_rep(e, q):
    """The Steinberg module cut from Ind_B^G 1 by its isotypic projector.
    `check_group_averaged_trace` and `check_matrix_coefficient_sum` both
    read it, so it is built once per `run_checks` call, which empties the
    cache before and after its checks."""
    chi = MultChar(q, 0)
    ind = repth.induce(e, q, chi)
    st = repth.steinberg_char(e, q, chi)
    degree = int(st.at(ind.group.identity))
    return repth.restrict_to_image(
        ind, repth.isotypic_projector(ind, st.at, degree))


@_per_pair("repth.matrix_coefficient_sum", 48)
def check_matrix_coefficient_sum(e, q):
    st = _steinberg_rep(e, q)
    G = st.group
    F, codes = G.field_, G.codes
    inv_codes = np.array([G.inv(x) for x in G.elements], dtype=np.uint8)
    M = st.invariant_inner_product()
    rng = np.random.default_rng(29)
    v = rng.normal(size=st.dim) + 1j * rng.normal(size=st.dim)
    v = v / np.sqrt((v.conj() @ M @ v).real)
    pick = random.Random(31)
    worst = 0.0
    for gamma in pick.sample(G.elements, min(10, G.order)):
        # x gamma x^-1 for every x in G.elements, in their order
        conj = G._indices(finglq._mul_pairs(
            F, finglq._mul_codes(F, gamma, codes, left=False), inv_codes))
        acc = 0j
        for k in conj.tolist():
            acc += v.conj() @ M @ (st.mat(G.elements[k]) @ v)
        rhs = acc * st.dim / G.order
        worst = max(worst, abs(st.char_value(gamma) - rhs))
    yield VerificationReport.passfail(
        "repth.matrix_coefficient_sum", {"e": e, "q": q, "gammas": 10},
        "character", "coefficient sum", worst, 1e-7)


# (e, q) -> the (label, torus character) of each transport configuration
TRANSPORT_CONFIGS = {
    (2, 2): (("gl22_borel_trivial",
              lambda: repth.sigma_tilde(2, 2, MultChar(2, 0))),),
    (2, 3): (("gl23_borel_sign_sign",
              lambda: repth.torus_character(3, (1, 1))),
             ("gl23_borel_asymmetric",
              lambda: repth.torus_character(3, (0, 1)))),
}


@_per_pair("repth.module_action_transport", 48)
def check_frobenius_transport(e, q):
    for label, sigma in TRANSPORT_CONFIGS.get((e, q), ()):
        dev = repth.frobenius_transport_check(
            gl_group(e, q), repth.borel(e, q), sigma())
        yield VerificationReport.passfail(
            "repth.module_action_transport",
            {"config": label, "pairs": repth.TRANSPORT_TRIALS},
            "transported action", "displayed sum", dev, 1e-9)


# --- pseudocoef ----------------------------------------------------------------------

def check_laumon_average(max_e, max_q):
    out = []
    for e in (2, 3, 4):
        if e > max_e:
            continue
        for q in (2, 3):
            if q > max_q:
                continue
            p = pseudocoef.PseudoCoefParams(e=e, q=q)
            ok = pseudocoef.average_pseudocoef(p) == pseudocoef.laumon_f0(p)
            out.append(VerificationReport.exact(
                "pseudocoef.laumon_average", {"e": e, "q": q},
                "mean of signed EP elements", "f_0", ok))
    return out


def check_projection(max_e, max_q):
    out = []
    for e in range(1, min(4, max_e) + 1):
        for q in (2, 3):
            if q > max_q:
                continue
            for ep in (1, 2):
                p = pseudocoef.PseudoCoefParams(e=e, q=q, e_prime=ep)
                ok = pseudocoef.projection_check(p)
                out.append(VerificationReport.exact(
                    "pseudocoef.central_reduction_of_lift",
                    {"e": e, "q": q, "e_prime": ep},
                    "P(F_0)", "f_0", ok))
    return out


def check_support_filter(max_e, max_q):
    from math import gcd
    ok = True
    cases = 0
    for N in range(1, 13):
        for ep in range(1, N + 1):
            if N % ep:
                continue
            for nu in range(N):
                if gcd(nu, N) != 1:
                    continue
                ok &= pseudocoef.support_filter_is_unique(N, ep, nu)
                cases += 1
    return [VerificationReport.exact(
        "pseudocoef.support_filter_unique", {"N_max": 12, "cases": cases},
        "surviving triples", "(empty, nu, 0)", ok)]


# --- charformula ------------------------------------------------------------------------

def check_constant_collapse(max_e, max_q):
    out = []
    for e in range(1, 7):
        for q in [q for q in (2, 3, 4, 5) if q <= max(max_q, 2)]:
            ok = charformula.normalized_constant_check(e, q)
            out.append(VerificationReport.exact(
                "charformula.constant_collapse", {"e": e, "q": q},
                "C_S * (-1)^(e-1)", 1, ok))
    return out


@_per_pair("charformula.unramified_consistency", 5760)
def check_unramified_consistency(e, q):
    reps, deviations = _sign_deviations(e, q)
    worst = max((d for devs in deviations.values() for d in devs),
                default=0.0)
    yield VerificationReport.passfail(
        "charformula.unramified_consistency",
        {"e": e, "q": q, "classes": len(reps)},
        "idempotent sum", "signed Steinberg", worst, 1e-7)


def check_prefactor(max_e, max_q):
    """N F_0(Pi^nu) = epsilon_empty^nu = (-1)^((e-1) nu) on the lift of
    every rank e <= 5 with e e' = N <= 10, at q = 2; `cases` counts the
    (N, nu) pairs."""
    ok = True
    cases = 0
    for N in range(1, 11):
        for e in (e for e in range(1, 6) if N % e == 0):
            read = charformula.lift_prefactors(e, N // e, 2)
            ok &= all(v == (-1) ** ((e - 1) * nu) for nu, v in read.items())
        cases += len(read)  # each lift is read at every nu coprime to N
    return [VerificationReport.exact(
        "charformula.ramified_prefactor", {"N_max": 10, "cases": cases},
        "k-averaged prefactor", "rotation sign power", ok)]


def check_power_identity(max_e, max_q):
    out = []
    for e in range(1, min(4, max_e) + 1):
        ok = charformula.power_identity_check(e)
        out.append(VerificationReport.exact(
            "charformula.power_identity", {"e": e, "k_max": 2 * e},
            "(a T_Pi)^k", "a^k T_{Pi^k}", ok))
    return out


ALL_CHECKS = [
    check_length_oracle,
    check_epsilon_sign_rule,
    check_orbit_partition,
    check_rotation_period,
    check_volume_poincare,
    check_perm_sign_multiplicative,
    check_hecke_oracle,
    check_hecke_associativity,
    check_central_morphism,
    check_pi_power_identities,
    check_field_axioms,
    check_gl_orders,
    check_elliptic_equivalence,
    check_e_tau,
    check_trace_formula,
    check_generalized_trivial_char,
    check_alvis_curtis,
    check_group_averaged_trace,
    check_matrix_coefficient_sum,
    check_frobenius_transport,
    check_laumon_average,
    check_projection,
    check_support_filter,
    check_constant_collapse,
    check_unramified_consistency,
    check_prefactor,
    check_power_identity,
]


def checks_named(*names):
    """The registry entries with these function names, in the given order.

    Looked up by `__name__` at call time, so entries wrapped in place (the
    benchmark's tracer does this) are the ones returned.
    """
    by_name = {fn.__name__: fn for fn in ALL_CHECKS}
    return [by_name[name] for name in names]


# bound at import, so that it empties the library's cache also while a
# test has put a wrapper in its place
_clear_label_reads = repth._flag_label_pairs.cache_clear


def _clear_run_caches():
    """Empty what one `run_checks` call shares between its checks: the
    sign deviations, the Steinberg module, and the label reads behind
    e_tau's idempotency check and the Hecke oracle
    (`repth._flag_label_pairs`)."""
    _sign_deviations.cache_clear()
    _steinberg_rep.cache_clear()
    _clear_label_reads()


def run_checks(checks, max_e: int, max_q: int):
    """Run the given checks; reports come back in canonical order.

    A check that raises becomes one `fail` record named after the check,
    with empty params and the exception as lhs (its traceback goes to
    stderr), and the other checks still run.
    """
    reports = []
    # what the checks share holds for this run's library functions only
    _clear_run_caches()
    for fn in checks:
        try:
            reports.extend(_timed(lambda: fn(max_e, max_q)))
        except Exception as exc:  # one raising check must not hide the rest
            reports.append(_raised(fn.__name__, {}, exc))
    _clear_run_caches()
    reports.sort(key=lambda r: r.sort_key())
    return reports


def run_all(max_e: int = 3, max_q: int = 5):
    """Run every registered check through `run_checks`."""
    return run_checks(ALL_CHECKS, max_e, max_q)
