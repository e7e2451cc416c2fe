"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

Every output check must reject a deliberately wrong value, every workload
must pass a reduced-size run, and the traced run's counts must repeat.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hecke_forge import finglq, hecke, pseudocoef, repth  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- closed forms ------------------------------------------------------------

def test_closed_forms_known_values():
    assert [oracles.gl_order(n, q) for n, q in ((2, 2), (2, 3), (3, 2))] \
        == [6, 48, 168]
    assert oracles.gl_class_number(3, 3) == 24
    assert [oracles.elliptic_class_number(n, q)
            for n, q in ((2, 2), (2, 3), (3, 2), (3, 3))] == [1, 3, 2, 8]
    assert oracles.poincare_value(3, 2) == 21
    assert oracles.borel_order(2, 3) == 12


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_agrees_with_documented_convention(q):
    F = oracles.GF(q)
    assert len(F.log) == q - 1
    for a in range(1, q):
        assert any(F.mul(a, b) == 1 for b in range(1, q))
    # chi_k is a homomorphism
    for k in range(q - 1):
        for a in range(1, q):
            for b in range(1, q):
                assert oracles.same(
                    oracles.char_value(F, k, F.mul(a, b)),
                    oracles.char_value(F, k, a) * oracles.char_value(F, k, b),
                    oracles.is_rational(q, k))


# --- every check passes on the library's output and fails on a wrong value

def test_group_checks():
    F = oracles.GF(3)
    G = finglq.gl_group(2, 3)
    els = list(G.elements)
    singular = ((1, 1), (1, 1))
    dets = {g: oracles.det(F, g) for g in els + [singular]}
    assert oracles.check_group_order(2, 3, els, dets) is None
    assert oracles.check_group_order(2, 3, els[:-1], dets)
    assert oracles.check_group_order(2, 3, els[:-1] + els[:1], dets)
    assert oracles.check_group_order(2, 3, els[:-1] + [singular], dets)
    classes = G.conjugacy_classes()
    assert oracles.check_classes(2, 3, classes, els) is None
    assert oracles.check_classes(2, 3, classes[:-1], els)
    merged = [classes[0] + classes[1]] + classes[2:] + [classes[2]]
    assert oracles.check_classes(2, 3, merged, els)


def test_bruhat_check():
    dec = dict(finglq.bruhat_decomposition(2, 3))
    assert oracles.check_bruhat_cells(2, 3, dec) is None
    g = next(g for g, (w, v) in dec.items() if w == (1, 0))
    dec[g] = ((0, 1), 1)
    assert oracles.check_bruhat_cells(2, 3, dec)


@pytest.mark.parametrize("k", [0, 1])
def test_e_tau_check(k):
    n, q = 2, 3
    F = oracles.GF(q)
    G = finglq.gl_group(n, q)
    dets = {g: oracles.det(F, g) for g in G.elements}
    et = repth.e_tau(n, q, finglq.MultChar(q, k))
    assert oracles.check_e_tau(n, q, k, et, G.elements, dets, F) is None
    g0 = G.elements[5]
    bad = lambda g: et(g) + (Fraction(1, 10 ** 12) if g == g0 else 0)
    assert oracles.check_e_tau(n, q, k, bad, G.elements, dets, F)


def test_e_tau_check_irrational_tolerance():
    n, q, k = 2, 5, 1
    F = oracles.GF(q)
    G = finglq.gl_group(n, q)
    dets = {g: oracles.det(F, g) for g in G.elements}
    et = repth.e_tau(n, q, finglq.MultChar(q, k))
    assert oracles.check_e_tau(n, q, k, et, G.elements, dets, F) is None
    bad = lambda g: complex(et(g)) + 1e-7
    assert oracles.check_e_tau(n, q, k, bad, G.elements, dets, F)


def test_steinberg_and_elliptic_checks():
    n, q = 2, 3
    F = oracles.GF(q)
    G = finglq.gl_group(n, q)
    classes = G.conjugacy_classes()
    ident = G.class_index(G.identity)
    st = repth.steinberg_char(n, q, finglq.MultChar(q, 1)).values
    assert oracles.check_steinberg(n, q, 1, st, classes, ident) is None
    wrong_degree = list(st)
    wrong_degree[ident] += 1
    assert oracles.check_steinberg(n, q, 1, wrong_degree, classes, ident)
    other = next(i for i in range(len(st)) if i != ident)
    wrong_norm = list(st)
    wrong_norm[other] += 1
    assert oracles.check_steinberg(n, q, 1, wrong_norm, classes, ident)
    ell = repth.elliptic_regular_class_reps(n, q)
    assert oracles.check_elliptic_reps(n, q, ell, F) is None
    assert oracles.check_elliptic_reps(n, q, ell[:-1], F)
    assert oracles.check_elliptic_reps(n, q, ell[:-1] + [G.identity], F)


def test_support_and_scalar_checks():
    T = pseudocoef.support_filter(6, 2, 1)
    assert oracles.check_support_triple(6, 2, 1, T) is None
    assert oracles.check_support_triple(6, 2, 5, T)
    assert oracles.check_support_triple(6, 2, 1, T + T)
    assert oracles.check_equal("x", Fraction(1, 3), Fraction(1, 3)) is None
    assert oracles.check_equal("x", 1 / 3, Fraction(1, 3))  # exact needed
    assert oracles.check_equal("x", 1j + 1e-12, 1j, exact=False) is None
    assert oracles.check_equal("x", 1j + 1e-6, 1j, exact=False)
    assert oracles.check_true("x", True) is None
    assert oracles.check_true("x", False)


def test_hecke_checks():
    consts = hecke.structure_constants(3)
    assert oracles.check_group_algebra(3, consts) is None
    key = next(iter(consts))
    bad = dict(consts)
    bad[key] = consts[key] + 1
    assert oracles.check_group_algebra(3, bad)
    small = hecke.structure_constants(2)
    oracle = hecke.convolution_oracle(2, 3)
    assert oracles.check_oracle(2, 3, small, oracle) is None
    wrong = dict(oracle)
    wrong[next(iter(wrong))] += 1
    assert oracles.check_oracle(2, 3, small, wrong)
    got = {"x": (Fraction(1),)}
    assert oracles.check_coefficients("t", got, {"x": (1,)}) is None
    assert oracles.check_coefficients("t", got, {"x": (0, 1)})


def test_verify_suite_record_checks(monkeypatch):
    from hecke_forge import cli

    def fake_main(records):
        def main(argv):
            print(json.dumps({"reports": records}))
            return 0
        return main

    good = {"name": "finglq.gl_order_formula", "params": {"n": "2", "q": "3"},
            "lhs": "48", "status": "pass"}
    inputs = workloads.make_inputs("verify-suite", 1, "smoke")
    for records, wrong, failed in (
            ([good], 0, 0),
            ([dict(good, lhs="47")], 1, 0),
            ([dict(good, status="fail")], 0, 1),
            ([dict(good, status="skipped")], 0, 1)):
        monkeypatch.setattr(cli, "main", fake_main(records))
        ops = workloads.Ops()
        workloads.run("verify-suite", inputs, ops)
        assert (ops.attempted, len(ops.wrong), ops.failed) \
            == (1, wrong, failed)


def test_raising_operation_counts_as_failed_and_round_continues():
    ops = workloads.Ops()
    _, ok = ops.call("boom", lambda: 1 / 0)
    got, ok2 = ops.call("fine", lambda: 2)
    assert (ok, ok2, got) == (False, True, 2)
    assert (ops.attempted, ops.failed) == (2, 1)


# --- inputs -----------------------------------------------------------------

def test_inputs_follow_the_seed():
    for name in ("finite-groups", "affine-hecke"):
        a = workloads.make_inputs(name, 4)
        assert a == workloads.make_inputs(name, 4)
        assert a != workloads.make_inputs(name, 5)
    assert workloads.make_inputs("verify-suite", 4) \
        == workloads.make_inputs("verify-suite", 5)


# --- end to end through the benchmark's own entry point ----------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--size", "smoke"])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in _bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


def _traced_round(workload):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py"), "--workload",
         workload, "--seed", "2", "--size", "smoke", "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["finite-groups", "affine-hecke"])
def test_traced_counts_repeat(workload):
    a, b = _traced_round(workload), _traced_round(workload)
    units = tracer.metric_units()
    counts = [n for n, u in units.items()
              if u == "count" and not n.startswith("trace.")]
    assert {n: a["layers"][n] for n in counts} \
        == {n: b["layers"][n] for n in counts}
    assert sum(a["layers"][n] for n in counts) > 0
    selfs = sum(v for n, v in a["layers"].items() if n.endswith(".self_s"))
    assert selfs == pytest.approx(a["wall_s"], rel=1e-6)


def test_per_layer_names_match_benchmark_json():
    spec = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    assert spec == tracer.metric_units()


def test_no_result_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "affine-hecke", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
