"""Command-line front end.

    hecke-forge weyl orbits --e 3
    hecke-forge weyl epsilon --e 4 --T ""
    hecke-forge hecke mul --e 2 --lhs s1 --rhs s1
    hecke-forge hecke oracle --e 2 --q 3 [--out table.csv]
    hecke-forge rep etau --e 2 --q 3 --chi 1
    hecke-forge rep alvis-curtis --e 2 --q 3
    hecke-forge pseudocoef assemble --e 2 --eprime 1 --q 2
    hecke-forge pseudocoef filter --N 4 --nu 1
    hecke-forge char verify --e 2 --q 2
    hecke-forge verify all --max-e 3 --max-q 3 --format json --out out.json

Exit code 0 iff every executed check passes (skipped checks do not fail);
argparse reports unknown flags with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import finglq, hecke, pseudocoef, repth, verify, weyl
from .report import SCHEMA, reports_to_csv, reports_to_json


def _parse_nodes(raw: str) -> frozenset:
    raw = raw.strip()
    if not raw:
        return frozenset()
    return frozenset(int(t) for t in raw.split(",") if t.strip())


def _parse_word(e: int, raw: str) -> weyl.AffineElt:
    """Product of generator tokens: 1, sK, pi, pi^K, t[a,b,...]."""
    out = weyl.affine_identity(e)
    for token in raw.split("*"):
        token = token.strip()
        if not token or token == "1":
            continue
        if token.startswith("s"):
            out = weyl.mul(out, weyl.simple_reflection(e, int(token[1:])))
        elif token.startswith("pi^"):
            out = weyl.mul(out, weyl.pi_power(e, int(token[3:])))
        elif token == "pi":
            out = weyl.mul(out, weyl.pi_element(e))
        elif token.startswith("t[") and token.endswith("]"):
            lam = tuple(int(v) for v in token[2:-1].split(","))
            if len(lam) != e:
                raise ValueError(f"translation needs {e} entries")
            out = weyl.mul(out, weyl.translation(lam))
        else:
            raise ValueError(f"unknown token {token!r}")
    return out


def _fmt_elt(x: weyl.AffineElt) -> str:
    return f"t{list(x.trans)} * {tuple(i + 1 for i in x.perm)}"


# --- subcommand handlers -------------------------------------------------------

def cmd_weyl_orbits(args) -> int:
    for T in weyl.orbit_reps(args.e):
        u, n = weyl.period_and_n(T)
        print(f"T={sorted(T.nodes) or '{}'}  d={T.d}  u={u}  n={n}  "
              f"epsilon={weyl.epsilon(T)}")
    return 0


def cmd_weyl_epsilon(args) -> int:
    T = weyl.parahoric_type(_parse_nodes(args.T), args.e)
    print(weyl.epsilon(T))
    return 0


def cmd_hecke_mul(args) -> int:
    a = hecke.HeckeElt.basis(_parse_word(args.e, args.lhs))
    b = hecke.HeckeElt.basis(_parse_word(args.e, args.rhs))
    prod = hecke.t_mul(a, b)
    for x, c in sorted(prod.terms.items()):
        coeff = c(args.q) if args.q is not None else c
        print(f"({coeff}) * T[{_fmt_elt(x)}]")
    return 0


def cmd_hecke_oracle(args) -> int:
    try:
        consts = hecke.convolution_oracle(args.e, args.q)
    except finglq.GroupSizeError as exc:
        print(f"skipped: {exc}")
        return 0
    bad = hecke.oracle_mismatches(consts, args.e, args.q)
    if args.out:
        hecke.constants_to_csv(consts, args.out)
        print(f"wrote {len(consts)} constants to {args.out}")
    print(f"oracle constants: {len(consts)}; mismatches vs t_mul: {bad}")
    return 0 if bad == 0 else 1


def cmd_rep_etau(args) -> int:
    chi = finglq.MultChar(args.q, args.chi)
    try:
        et = repth.e_tau(args.e, args.q, chi)
    except finglq.GroupSizeError as exc:
        print(f"skipped: {exc}")
        return 0
    lam1 = et.at_identity()
    dim = repth.dim_from_e_tau(args.e, args.q, chi)
    print(f"e_tau for e={args.e} q={args.q} chi_k={chi.k}")
    print(f"lambda1 = e_tau(1) = {lam1}")
    print(f"dim tau = Tr(e_tau(1)) * |G| = {dim}")
    print("idempotent: yes")  # e_tau raises otherwise
    return 0


def cmd_rep_alvis_curtis(args) -> int:
    try:
        reps = repth.elliptic_regular_class_reps(args.e, args.q)
    except finglq.GroupSizeError as exc:
        print(f"skipped: {exc}")
        return 0
    failures = 0
    for chi in finglq.all_characters(args.q):
        for gamma in reps:
            ok = repth.alvis_curtis_sign_check(gamma, args.e, args.q, chi)
            failures += 0 if ok else 1
            rep_str = " ".join(str(v) for v in finglq.mat_to_ints(gamma))
            print(f"chi_k={chi.k} class=[{rep_str}] "
                  f"{'pass' if ok else 'FAIL'}")
    print(f"elliptic classes: {len(reps)}; failures: {failures}")
    return 0 if failures == 0 else 1


def cmd_pseudocoef_assemble(args) -> int:
    params = pseudocoef.PseudoCoefParams(e=args.e, q=args.q,
                                         e_prime=args.eprime)
    f0_lift = pseudocoef.assemble_F0(params)
    ok = pseudocoef.projection_check(params)
    payload = {
        "schema": SCHEMA,
        "e": args.e, "e_prime": args.eprime, "q": str(args.q),
        "terms": pseudocoef.hecke_elt_to_json(f0_lift),
        "projection_equals_average": ok,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_pseudocoef_filter(args) -> int:
    sols = pseudocoef.support_filter(args.N, args.eprime, args.nu)
    for T, l, k in sols:
        print(f"T={sorted(T.nodes) or '{}'} l={l} k={k}")
    print(f"solutions: {len(sols)}")
    return 0


CHAR_CHECKS = ("check_constant_collapse", "check_prefactor",
               "check_power_identity", "check_unramified_consistency")


def cmd_char_verify(args) -> int:
    reports = verify.run_checks(verify.checks_named(*CHAR_CHECKS),
                                args.e, args.q)
    failures = 0
    for r in reports:
        print(f"{r.status.upper():7s} {r.name} {r.params}")
        failures += r.status == "fail"
    return 0 if failures == 0 else 1


def cmd_verify_all(args) -> int:
    reports = verify.run_all(max_e=args.max_e, max_q=args.max_q)
    with_ts = not args.no_timestamps
    if args.format == "json":
        text = reports_to_json(reports, with_timestamps=with_ts,
                               extra={"max_e": args.max_e,
                                      "max_q": args.max_q})
    else:
        text = reports_to_csv(reports, with_timestamps=with_ts)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        counts[r.status] += 1
    print(f"pass={counts['pass']} fail={counts['fail']} "
          f"skipped={counts['skipped']}", file=sys.stderr)
    return 0 if counts["fail"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke-forge",
        description="Exact-arithmetic Hecke-algebra and finite-group "
                    "trace-formula toolkit with brute-force verification.")
    top = parser.add_subparsers(dest="group", required=True)

    w = top.add_parser("weyl", help="affine Weyl combinatorics")
    ws = w.add_subparsers(dest="action", required=True)
    p = ws.add_parser("orbits", help="orbit representatives of types")
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(fn=cmd_weyl_orbits)
    p = ws.add_parser("epsilon", help="rotation sign of a type")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--T", type=str, default="",
                   help='comma-separated nodes, e.g. "1,3"; empty for {}')
    p.set_defaults(fn=cmd_weyl_epsilon)

    h = top.add_parser("hecke", help="Iwahori-Hecke algebra")
    hs = h.add_subparsers(dest="action", required=True)
    p = hs.add_parser("mul", help="multiply two basis elements")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--q", type=int, default=None,
                   help="evaluate coefficients at q (default: symbolic)")
    p.add_argument("--lhs", type=str, required=True,
                   help="word like 's1*s2', 'pi^2*s1', 't[1,0]'")
    p.add_argument("--rhs", type=str, required=True)
    p.set_defaults(fn=cmd_hecke_mul)
    p = hs.add_parser("oracle", help="structure constants by convolution "
                      "over B\\G in GL(e, q)")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.set_defaults(fn=cmd_hecke_oracle)

    r = top.add_parser("rep", help="finite-group representation checks")
    rs = r.add_subparsers(dest="action", required=True)
    p = rs.add_parser("etau", help="the generalized-trivial idempotent")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chi", type=int, default=0, help="character index k")
    p.set_defaults(fn=cmd_rep_etau)
    p = rs.add_parser("alvis-curtis", help="sign identity on elliptic classes")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_rep_alvis_curtis)

    pc = top.add_parser("pseudocoef", help="Euler-Poincare assembly")
    pcs = pc.add_subparsers(dest="action", required=True)
    p = pcs.add_parser("assemble", help="the lift F_0 as JSON")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--eprime", type=int, default=1)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_pseudocoef_assemble)
    p = pcs.add_parser("filter", help="valuation support filter")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--eprime", type=int, default=1)
    p.set_defaults(fn=cmd_pseudocoef_filter)

    c = top.add_parser("char", help="character-formula checks")
    cs = c.add_subparsers(dest="action", required=True)
    p = cs.add_parser("verify", help="constant collapse and consistency")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_char_verify)

    v = top.add_parser("verify", help="verification suite")
    vs = v.add_subparsers(dest="action", required=True)
    p = vs.add_parser("all", help="run every registered check")
    p.add_argument("--max-e", type=int, default=3, dest="max_e")
    p.add_argument("--max-q", type=int, default=5, dest="max_q")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--no-timestamps", action="store_true",
                   help="zero timings for byte-identical output")
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # GroupSizeError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
