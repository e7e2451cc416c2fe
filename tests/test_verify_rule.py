"""The one range rule of the finite-group checks, `verify._gl_pairs`, and
the per-pair isolation of `verify._per_pair`."""

import json

import pytest

from hecke_forge import finglq, repth, verify
from test_finglq import ENUMERABLE

# the hand-written pair tables the rule replaced, as the reference
ORACLE_PAIRS = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))
SIGN_IDENTITY_PAIRS = ((2, 2), (2, 3), (3, 2), (2, 5))
SMALL = ((2, 2), (2, 3), (3, 2))
NUMPY = ((2, 2), (2, 3))
OLD_TABLES = {
    "check_hecke_oracle": ORACLE_PAIRS,
    "check_e_tau": ORACLE_PAIRS,
    "check_trace_formula": SMALL,
    "check_generalized_trivial_char": SMALL,
    "check_elliptic_equivalence": SMALL,
    "check_alvis_curtis": SIGN_IDENTITY_PAIRS,
    "check_unramified_consistency": SIGN_IDENTITY_PAIRS,
    "check_group_averaged_trace": NUMPY,
    "check_matrix_coefficient_sum": NUMPY,
    "check_frobenius_transport": NUMPY,
}
# the pairs each check's order limit adds to its old table
ADDED = {
    "check_hecke_oracle": ((2, 4), (2, 7), (2, 8), (2, 9), (4, 2)),
    "check_e_tau": ((2, 4), (2, 7), (2, 8), (2, 9), (4, 2)),
    "check_alvis_curtis": ((2, 4), (2, 7), (2, 8), (2, 9)),
    "check_unramified_consistency": ((2, 4), (2, 7), (2, 8), (2, 9)),
}


def _rule_checks():
    return {fn.__name__: fn for fn in verify.ALL_CHECKS
            if hasattr(fn, "max_order")}


def test_every_finite_group_check_reads_the_rule():
    assert set(_rule_checks()) == set(OLD_TABLES)


@pytest.mark.parametrize("max_e,max_q",
                         [(2, 2), (3, 3), (3, 5), (4, 5), (4, 9)])
def test_pairs_are_the_old_table_plus_what_the_limit_adds(max_e, max_q):
    for name, fn in _rule_checks().items():
        want = {(e, q) for e, q in OLD_TABLES[name] + ADDED.get(name, ())
                if e <= max_e and q <= max_q}
        assert set(verify._gl_pairs(max_e, max_q, fn.max_order)) == want, \
            name


def test_rule_at_the_cap_is_every_enumerable_pair():
    cap = finglq.MAX_GROUP_ORDER
    assert verify._gl_pairs(4, 9, cap) \
        == [(n, q) for n, q in ENUMERABLE if n >= 2]


def test_rule_follows_the_cap(monkeypatch):
    monkeypatch.setattr(finglq, "MAX_GROUP_ORDER", 48)
    assert verify._gl_pairs(3, 9) == [(2, 2), (2, 3)]


def _pair(record):
    if record.name == "repth.module_action_transport":
        return next(pair for pair, configs
                    in verify.TRANSPORT_CONFIGS.items()
                    if record.params["config"] in dict(configs))
    return (record.params.get("e", record.params.get("n")),
            record.params["q"])


def test_records_sit_at_the_rule_pairs():
    for name, fn in _rule_checks().items():
        records = verify.run_checks([fn], 2, 4)
        assert all(r.status == "pass" for r in records), records
        assert {_pair(r) for r in records} \
            == set(verify._gl_pairs(2, 4, fn.max_order)), name


def _clear_module_caches():
    for fn in (repth.finite_hecke_basis, repth.e_tau, repth.induce):
        fn.cache_clear()


def _away_from_23(records):
    return sorted(json.dumps(r.to_obj(with_timing=False), sort_keys=True)
                  for r in records
                  if (r.params["e"], r.params["q"]) != (2, 3))


def test_a_raising_pair_hides_no_other_pair(monkeypatch, capsys):
    checks = verify.checks_named(
        "check_hecke_oracle", "check_trace_formula", "check_e_tau")
    _clear_module_caches()
    clean = verify.run_checks(checks, 3, 3)
    assert all(r.status == "pass" for r in clean)
    real = repth.intertwining_dimension

    def raises_at_23(e, q, chi):
        if (e, q) == (2, 3):
            raise ValueError("hypothesis failed at (2, 3)")
        return real(e, q, chi)

    monkeypatch.setattr(repth, "intertwining_dimension", raises_at_23)
    _clear_module_caches()
    try:
        faulted = verify.run_checks(checks, 3, 3)
    finally:
        monkeypatch.undo()
        _clear_module_caches()
    failed = [r for r in faulted if r.status == "fail"]
    assert {r.name for r in failed} == {
        "hecke.oracle_equivalence", "repth.trace_via_coset_sum",
        "repth.e_tau_idempotent_dim"}
    assert all((r.params["e"], r.params["q"]) == (2, 3) for r in failed)
    assert not [r for r in faulted if r.status == "pass"
                and (r.params["e"], r.params["q"]) == (2, 3)]
    # the oracle and the trace formula raised: one record each, with the
    # exception as lhs; e_tau records each chi
    raised = [r for r in failed if r.name != "repth.e_tau_idempotent_dim"]
    assert [r.params for r in raised] == [{"e": 2, "q": 3}] * 2
    assert all(r.lhs == "ValueError: hypothesis failed at (2, 3)"
               for r in raised)
    assert "Traceback" in capsys.readouterr().err
    assert _away_from_23(faulted) == _away_from_23(clean)


@pytest.mark.slow
def test_oracle_and_e_tau_pass_at_every_enumerable_pair():
    want = {(n, q) for n, q in ENUMERABLE if n >= 2}
    records = verify.run_checks(
        verify.checks_named("check_hecke_oracle", "check_e_tau"), 4, 9)
    assert records and all(r.status == "pass" for r in records)
    for name in ("hecke.oracle_equivalence", "repth.e_tau_idempotent_dim"):
        assert {(r.params["e"], r.params["q"]) for r in records
                if r.name == name} == want


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_avoidance_per_class_matches_per_element_loop(n, q):
    # the elliptic check evaluates the avoidance once per class
    G = finglq.gl_group(n, q)
    assert verify._avoidance_at_elements(n, q) == [
        finglq.proper_parabolic_avoidance(n, q, g) for g in G.elements]
