"""The three workloads: inputs made from a seed, the library calls, and the
checks of every output against `oracles`.

A workload runs as `run(name, inputs, ops)`.  Every library call is one
operation, made through `Ops.call`; a call that raises counts as failed,
and an output that contradicts a closed form or a required property is
recorded in `ops.wrong`.  The number of operations in a round depends
only on the inputs (loop sizes come from closed forms, never from
outputs), so every round of a workload attempts the same operations.

Library calls go through module attributes (`finglq.gl_group(...)`), so
that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import gcd

import oracles

# what a workload imports before its first library call; `setup_s`
# measures a fresh interpreter importing exactly this
MODULES = {
    "verify-suite": ["hecke_forge", "hecke_forge.cli"],
    "finite-groups": ["hecke_forge", "hecke_forge.finglq",
                      "hecke_forge.repth"],
    "affine-hecke": ["hecke_forge", "hecke_forge.hecke",
                     "hecke_forge.pseudocoef", "hecke_forge.charformula"],
}
WORKLOADS = tuple(MODULES)
SIZES = ("full", "smoke")


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.wrong: list = []

    def call(self, label, fn, *args):
        """One operation: returns (result, True), or (None, False) when
        the call raised."""
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation must not stop the round
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None, False
        self.attempted += 1
        return result, True

    def fail(self, message):
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def expect(self, message):
        if message:
            self.wrong.append(message)


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    if workload not in MODULES or size not in SIZES:
        raise ValueError(f"unknown workload {workload!r} or size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _INPUTS[workload](rng, size == "smoke")


def run(workload: str, inputs: dict, ops: Ops):
    _RUN[workload](inputs, ops)


# --- verify-suite ------------------------------------------------------------
# The registered check suite through the CLI.  Its inputs are fixed by the
# suite itself, so the seed changes nothing here.

def _verify_inputs(rng, smoke):
    bound = "2" if smoke else "3"
    return {"argv": ["verify", "all", "--max-e", bound, "--max-q", bound,
                     "--format", "json"]}


def _verify_run(inputs, ops):
    from hecke_forge import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(inputs["argv"])
        records = json.loads(buf.getvalue())["reports"]
    except Exception as exc:  # no records: the whole run is one failure
        ops.fail(f"verify all: {type(exc).__name__}: {exc}")
        return
    for r in records:
        if r["status"] != "pass":
            ops.fail(f"{r['name']} {r['params']}: {r['status']}")
            continue
        ops.attempted += 1
        if r["name"] == "finglq.gl_order_formula":
            n, q = int(r["params"]["n"]), int(r["params"]["q"])
            ops.expect(oracles.check_equal(
                f"gl_order_formula n={n} q={q}", r["lhs"],
                str(oracles.gl_order(n, q))))
    if not records:
        ops.expect("verify all returned no records")
    ops.expect(None if rc == 0 or ops.failed else
               f"verify all exited {rc} with every record passing")


# --- finite-groups -----------------------------------------------------------
# Cold pass over small GL(n, q): enumeration, classes, Bruhat cells, e_tau
# and Steinberg for every chi, the trace formula at class representatives
# (all of them for the groups of order <= 200, `trace_reps` seed-chosen
# ones per chi above that, since each call rebuilds a |G/B|^2 |B| operator),
# and the sign identity on every elliptic class.

_FULL_GROUPS = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (3, 2))
_SMOKE_GROUPS = ((2, 2), (2, 3))


def _trace_reps(n, q):
    order = oracles.gl_order(n, q)
    return None if order <= 200 else (2 if order <= 500 else 1)


def _groups_inputs(rng, smoke):
    groups = []
    for n, q in _SMOKE_GROUPS if smoke else _FULL_GROUPS:
        classes = oracles.gl_class_number(n, q)
        per_chi = _trace_reps(n, q)
        trace_at = [list(range(classes)) if per_chi is None
                    else sorted(rng.sample(range(classes), per_chi))
                    for _k in range(q - 1)]
        groups.append({"n": n, "q": q, "trace_at": trace_at})
    return {"groups": groups}


def _groups_run(inputs, ops):
    from hecke_forge import finglq, repth
    for spec in inputs["groups"]:
        n, q = spec["n"], spec["q"]
        F = oracles.GF(q)
        label = f"GL({n},{q})"
        G, ok = ops.call(f"{label} enumerate", finglq.gl_group, n, q)
        dets = {}
        if ok:
            dets = {g: oracles.det(F, g) for g in G.elements}
            ops.expect(oracles.check_group_order(n, q, G.elements, dets))
        classes, ok = ops.call(f"{label} classes",
                               lambda: G.conjugacy_classes())
        if ok:
            ops.expect(oracles.check_classes(n, q, classes, G.elements))
        dec, ok = ops.call(f"{label} bruhat", finglq.bruhat_decomposition,
                           n, q)
        if ok:
            ops.expect(oracles.check_bruhat_cells(n, q, dec))
        reps, _ = ops.call(f"{label} class reps", lambda: G.class_reps())
        ell, ok = ops.call(f"{label} elliptic reps",
                           repth.elliptic_regular_class_reps, n, q)
        if ok:
            ops.expect(oracles.check_elliptic_reps(n, q, ell, F))

        for k in range(q - 1):
            chi = finglq.MultChar(q, k)
            exact = oracles.is_rational(q, k)
            at = f"{label} chi={k}"
            et, ok = ops.call(f"{at} e_tau", repth.e_tau, n, q, chi)
            if ok and dets:
                ops.expect(oracles.check_e_tau(n, q, k, et, G.elements,
                                               dets, F))
            st, ok = ops.call(f"{at} steinberg", repth.steinberg_char, n, q,
                              chi)
            if ok and dets and classes is not None:
                ops.expect(oracles.check_steinberg(
                    n, q, k, st.values, classes, G.class_index(G.identity)))
            ind, _ = ops.call(f"{at} induce", repth.induce, n, q, chi)
            for i in spec["trace_at"][k]:
                got, ok = ops.call(
                    f"{at} trace at class {i}",
                    lambda: repth.trace_via_coset_sum(reps[i], et, ind))
                if ok:
                    want = oracles.char_value(F, k, dets[reps[i]])
                    ops.expect(oracles.check_equal(
                        f"{at} trace at class {i}", got, want, exact))
            for i in range(oracles.elliptic_class_number(n, q)):
                holds, ok = ops.call(
                    f"{at} sign identity at elliptic class {i}",
                    lambda: repth.alvis_curtis_sign_check(ell[i], n, q, chi))
                if not ok:
                    continue
                ops.expect(oracles.check_true(
                    f"{at} sign identity at elliptic class {i}", holds))
                if st is not None:
                    want = (-1) ** (n - 1) * oracles.char_value(
                        F, k, dets[ell[i]])
                    ops.expect(oracles.check_equal(
                        f"{at} St(gamma) at elliptic class {i}",
                        st.at(ell[i]), want, exact))


# --- affine-hecke ------------------------------------------------------------
# The exact affine side.  No finite group above GL(3,2) is built (the
# convolution oracle needs GL(e,q) at (2,2), (2,3), (3,2)).

_TRIPLES = 30       # random associativity triples per rank e = 3, 4, 5
_WORD = 12          # generators per random element; bounds t_mul's cost


def _affine_inputs(rng, smoke):
    ranks = (3,) if smoke else (3, 4, 5)
    triples = []
    for e in ranks:
        for _ in range(4 if smoke else _TRIPLES):
            triples.append((e, [(rng.randrange(-e, e + 1),
                                 [rng.randrange(e) for _ in range(_WORD)])
                                for _ in range(3)]))
    return {
        "triples": triples,
        "quadratic_ranks": [2, 3] if smoke else [2, 3, 4, 5],
        "structure_e": 3 if smoke else 4,
        "oracle_pairs": [(2, 2)] if smoke else [(2, 2), (2, 3), (3, 2)],
        "average": [(3, 2)] if smoke else [(5, 2), (5, 3)],
        "projection": [(e, q, ep) for e in range(1, 4 if smoke else 7)
                       for q in (2, 3) for ep in (1, 2)],
        "filter": [(N, ep, nu) for N in range(1, 7 if smoke else 13)
                   for ep in range(1, N + 1) if N % ep == 0
                   for nu in range(N) if gcd(nu, N) == 1],
        "power_ranks": [1, 2] if smoke else [1, 2, 3, 4],
        "poincare": [(e, q) for e in range(1, 7) for q in (2, 3, 4, 5, 7, 8, 9)],
    }


def _affine_run(inputs, ops):
    from hecke_forge import charformula, hecke, pseudocoef, weyl

    def element(e, k, word):
        x = weyl.pi_power(e, k)
        for i in word:
            x = weyl.mul(x, weyl.simple_reflection(e, i))
        return hecke.HeckeElt.basis(x)

    for n, (e, words) in enumerate(inputs["triples"]):
        def assoc():
            a, b, c = (element(e, k, w) for k, w in words)
            return (hecke.t_mul(hecke.t_mul(a, b), c)
                    == hecke.t_mul(a, hecke.t_mul(b, c)))
        ok_assoc, ok = ops.call(f"t_mul triple {n} e={e}", assoc)
        if ok:
            ops.expect(oracles.check_true(f"(ab)c = a(bc), triple {n}",
                                          ok_assoc))

    for e in inputs["quadratic_ranks"]:
        for i in range(e):
            def square():
                t_s = hecke.HeckeElt.basis(weyl.simple_reflection(e, i))
                return _coefficients(hecke.t_mul(t_s, t_s))
            got, ok = ops.call(f"T_s{i}^2 e={e}", square)
            if ok:
                want = {weyl.simple_reflection(e, i): (-1, 1),
                        weyl.affine_identity(e): (0, 1)}
                ops.expect(oracles.check_coefficients(f"T_s{i}^2, e={e}",
                                                      got, want))

        def rotation():
            pi = weyl.pi_element(e)
            return _coefficients(hecke.t_mul(hecke.HeckeElt.basis(pi),
                                             hecke.HeckeElt.basis(
                                                 weyl.inv(pi))))
        got, ok = ops.call(f"T_Pi T_Pi^-1 e={e}", rotation)
        if ok:
            ops.expect(oracles.check_coefficients(
                f"T_Pi T_Pi^-1, e={e}", got, {weyl.affine_identity(e): (1,)}))

    e = inputs["structure_e"]
    consts, ok = ops.call(f"structure_constants({e})",
                          hecke.structure_constants, e)
    if ok:
        ops.expect(oracles.check_group_algebra(e, consts))
    for e, q in inputs["oracle_pairs"]:
        def pair():
            return hecke.structure_constants(e), \
                hecke.convolution_oracle(e, q)
        got, ok = ops.call(f"oracle ({e},{q})", pair)
        if ok:
            ops.expect(oracles.check_oracle(e, q, *got))

    for e, q in inputs["average"]:
        p = pseudocoef.PseudoCoefParams(e=e, q=q)
        avg, ok1 = ops.call(f"average_pseudocoef e={e} q={q}",
                            pseudocoef.average_pseudocoef, p)
        f0, ok2 = ops.call(f"laumon_f0 e={e} q={q}", pseudocoef.laumon_f0, p)
        if ok1 and ok2:
            ops.expect(oracles.check_true(
                f"average = laumon_f0, e={e} q={q}", avg == f0))
    for e, q, ep in inputs["projection"]:
        p = pseudocoef.PseudoCoefParams(e=e, q=q, e_prime=ep)
        got, ok = ops.call(f"projection e={e} q={q} e'={ep}",
                           pseudocoef.projection_check, p)
        if ok:
            ops.expect(oracles.check_true(
                f"P(F_0) = f_0, e={e} q={q} e'={ep}", got))
    for N, ep, nu in inputs["filter"]:
        got, ok = ops.call(f"support_filter({N},{ep},{nu})",
                           pseudocoef.support_filter, N, ep, nu)
        if ok:
            ops.expect(oracles.check_support_triple(N, ep, nu, got))
    for e in inputs["power_ranks"]:
        got, ok = ops.call(f"power identity e={e}",
                           charformula.power_identity_check, e)
        if ok:
            ops.expect(oracles.check_true(f"(a T_Pi)^k = a^k T_Pi^k, e={e}",
                                          got))
    for e, q in inputs["poincare"]:
        got, ok = ops.call(f"poincare_poly({e})({q})",
                           lambda: weyl.poincare_poly(e)(q))
        if ok:
            ops.expect(oracles.check_equal(f"poincare_poly({e})({q})", got,
                                           oracles.poincare_value(e, q)))


def _coefficients(elt) -> dict:
    return {x: tuple(c.coeffs) for x, c in elt.terms.items()}


_INPUTS = {"verify-suite": _verify_inputs, "finite-groups": _groups_inputs,
           "affine-hecke": _affine_inputs}
_RUN = {"verify-suite": _verify_run, "finite-groups": _groups_run,
        "affine-hecke": _affine_run}
