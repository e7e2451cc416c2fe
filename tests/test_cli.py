import csv
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from hecke_forge import cli, finglq, verify
from hecke_forge.cli import main

DATA = Path(__file__).parent / "data"
ORACLE_42_SHA256 = (
    "84b36d08fc654916c0ea81e9370008430cccffd517b1df064497ccc30ddc97b2")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weyl_epsilon_empty_type(capsys):
    code, out, _ = run(capsys, "weyl", "epsilon", "--e", "4", "--T", "")
    assert code == 0
    assert out.strip() == "-1"


def test_weyl_epsilon_nodes(capsys):
    code, out, _ = run(capsys, "weyl", "epsilon", "--e", "4", "--T", "1,3")
    assert code == 0
    assert out.strip() == "-1"


def test_weyl_orbits(capsys):
    code, out, _ = run(capsys, "weyl", "orbits", "--e", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_hecke_mul_symbolic_and_evaluated(capsys):
    code, out, _ = run(capsys, "hecke", "mul", "--e", "2",
                       "--lhs", "s1", "--rhs", "s1")
    assert code == 0
    assert "(q)" in out and "(q - 1)" in out
    code, out, _ = run(capsys, "hecke", "mul", "--e", "2", "--q", "3",
                       "--lhs", "s1", "--rhs", "s1")
    assert code == 0
    assert "(3)" in out and "(2)" in out


def test_hecke_mul_evaluated_at_q_zero(capsys):
    code, out, _ = run(capsys, "hecke", "mul", "--e", "2", "--q", "0",
                       "--lhs", "s1", "--rhs", "s1")
    assert code == 0
    assert "(-1) * T[t[0, 0] * (2, 1)]" in out.splitlines()
    assert "q" not in out


def test_hecke_mul_pi_word(capsys):
    code, out, _ = run(capsys, "hecke", "mul", "--e", "2",
                       "--lhs", "pi", "--rhs", "pi")
    assert code == 0
    assert "t[1, 1]" in out


def test_hecke_oracle(capsys, tmp_path):
    out_path = tmp_path / "consts.csv"
    code, out, _ = run(capsys, "hecke", "oracle", "--e", "2", "--q", "3",
                       "--out", str(out_path))
    assert code == 0
    assert "mismatches vs t_mul: 0" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "w1,w2,w3,coefficient"
    assert len(lines) == 1 + 8


def test_rep_etau(capsys):
    code, out, _ = run(capsys, "rep", "etau", "--e", "2", "--q", "3",
                       "--chi", "1")
    assert code == 0
    assert "idempotent: yes" in out
    assert "dim tau" in out


ETAU_23_CHI1 = """e_tau for e=2 q=3 chi_k=1
lambda1 = e_tau(1) = 1/48
dim tau = Tr(e_tau(1)) * |G| = 1
idempotent: yes
"""


def test_rep_etau_prints_the_character_it_computes(capsys):
    # k is read mod q - 1: --chi 5 computes chi_1 at q = 3 and says so,
    # with the same output as --chi 1
    for k in ("1", "5"):
        code, out, _ = run(capsys, "rep", "etau", "--e", "2", "--q", "3",
                           "--chi", k)
        assert code == 0
        assert out == ETAU_23_CHI1


def test_rep_etau_builds_no_group():
    # lambda1 is the coefficient of the identity's label: no gl_group
    # call, nor any other element of G (fresh interpreter)
    import subprocess
    import sys
    code = "\n".join([
        "import contextlib, io",
        "from hecke_forge import cli, finglq, repth",
        "def refused(n, q):",
        "    raise AssertionError('gl_group called')",
        "finglq.gl_group = repth.gl_group = refused",
        "out = io.StringIO()",
        "with contextlib.redirect_stdout(out):",
        "    assert cli.main(['rep', 'etau', '--e', '3', '--q', '3']) == 0",
        "print(out.getvalue(), end='')",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("e_tau for e=3 q=3 chi_k=0\n"
                           "lambda1 = e_tau(1) = 1/11232\n"
                           "dim tau = Tr(e_tau(1)) * |G| = 1\n"
                           "idempotent: yes\n")


def test_rep_alvis_curtis(capsys):
    code, out, _ = run(capsys, "rep", "alvis-curtis", "--e", "2", "--q", "2")
    assert code == 0
    assert "failures: 0" in out


@pytest.mark.parametrize("argv", [
    ("hecke", "oracle", "--e", "0", "--q", "2"),
    ("hecke", "oracle", "--e", "-1", "--q", "2"),
    ("rep", "alvis-curtis", "--e", "0", "--q", "3"),
], ids=["oracle-e0", "oracle-e-1", "alvis-curtis-e0"])
def test_rank_below_one_is_an_error(capsys, argv):
    # GL(n, q) needs n >= 1: one error line, no traceback
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == "error: n must be positive\n"
    assert out == ""


def test_group_size_error_is_an_error_line(capsys, monkeypatch):
    # a GroupSizeError no command turns into `skipped` is a ValueError,
    # so main prints it as one error line, no traceback
    def too_large(args):
        raise finglq.GroupSizeError("full subgroup of GL(9,9) has order")

    monkeypatch.setattr(cli, "cmd_weyl_orbits", too_large)
    code, out, err = run(capsys, "weyl", "orbits", "--e", "2")
    assert code == 1
    assert err == "error: full subgroup of GL(9,9) has order\n"
    assert out == ""


def test_pseudocoef_assemble(capsys):
    code, out, _ = run(capsys, "pseudocoef", "assemble", "--e", "2",
                       "--eprime", "1", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "hecke-forge/1"
    assert payload["projection_equals_average"] is True
    assert len(payload["terms"]) == 3


@pytest.mark.parametrize("q", ["-1", "0"])
def test_pseudocoef_assemble_rejects_nonpositive_q(capsys, q):
    # vol P_{1} = 1 + q is 0 at q = -1, and q = 0 is no field size
    code, out, err = run(capsys, "pseudocoef", "assemble", "--e", "2",
                         "--q", q)
    assert code == 1
    assert err == "error: q must be positive\n"
    assert out == ""


def test_pseudocoef_filter(capsys):
    code, out, _ = run(capsys, "pseudocoef", "filter", "--N", "4", "--nu", "1")
    assert code == 0
    assert "T={} l=1 k=0" in out
    assert "solutions: 1" in out


def test_char_verify(capsys):
    code, out, _ = run(capsys, "char", "verify", "--e", "2", "--q", "2")
    assert code == 0
    assert "FAIL" not in out


def test_char_verify_raising_check_is_one_fail_line(capsys, monkeypatch):
    from hecke_forge import charformula

    def raises(e, e_prime, q):
        raise RuntimeError("boom")

    monkeypatch.setattr(charformula, "lift_prefactors", raises)
    code, out, err = run(capsys, "char", "verify", "--e", "2", "--q", "2")
    assert code == 1
    assert "FAIL    check_prefactor {}" in out.splitlines()
    assert out.count("FAIL") == 1
    assert "RuntimeError: boom" in err


def test_char_verify_reports_a_broken_chain_under_its_name(capsys,
                                                           monkeypatch):
    # a negated Steinberg character breaks the unramified chain inside
    # the library call; the record must still carry its name and params
    from hecke_forge import repth
    real = repth.steinberg_char

    def negated(e, q, chi):
        st = real(e, q, chi)
        return repth.ClassFunction(st.group, [-v for v in st.values])

    monkeypatch.setattr(repth, "steinberg_char", negated)
    code, out, _ = run(capsys, "char", "verify", "--e", "2", "--q", "2")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] \
        == ["FAIL    charformula.unramified_consistency "
            "{'e': 2, 'q': 2, 'classes': 1}"]


def test_verify_all_small_and_exit_code(capsys):
    code, out, err = run(capsys, "verify", "all", "--max-e", "2",
                         "--max-q", "2", "--format", "csv",
                         "--no-timestamps")
    assert code == 0
    assert "fail=0" in err


def test_verify_all_min_pass_records(tmp_path, capsys):
    out_path = tmp_path / "reports.json"
    code, _, _ = run(capsys, "verify", "all", "--max-e", "2", "--max-q", "3",
                     "--format", "json", "--no-timestamps",
                     "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    passes = [r for r in payload["reports"] if r["status"] == "pass"]
    assert len(passes) >= 20
    assert payload["schema"] == "hecke-forge/1"


def test_verify_all_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "all", "--max-e", "2",
                         "--max-q", "2", "--no-timestamps",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def _serialized_records(text):
    """Each record of a `verify all` JSON text in its serialized form.
    The text must be exactly what re-serializing its parse gives, so equal
    serialized records are equal bytes in the file."""
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) == text
    return Counter(json.dumps(r, indent=2, sort_keys=True)
                   for r in payload["reports"])


@pytest.mark.parametrize("golden, argv", [
    ("verify_all_max_e3_max_q3.json", ("--max-e", "3", "--max-q", "3")),
    ("verify_all_defaults.json", ()),
    pytest.param("verify_all_max_e4_max_q5.json",
                 ("--max-e", "4", "--max-q", "5"), marks=pytest.mark.slow),
    pytest.param("verify_all_max_e4_max_q9.json",
                 ("--max-e", "4", "--max-q", "9"), marks=pytest.mark.slow),
])
def test_verify_all_keeps_golden_records(golden, argv, tmp_path, capsys):
    # every checked-in record appears in a fresh run with the same bytes;
    # a fresh run may add records
    out_path = tmp_path / "run.json"
    code, _, _ = run(capsys, "verify", "all", *argv, "--no-timestamps",
                     "--out", str(out_path))
    assert code == 0
    want = _serialized_records((DATA / golden).read_text())
    got = _serialized_records(out_path.read_text())
    missing = want - got
    assert not missing, "\n".join(missing)


def test_verify_all_csv_keeps_golden_rows(tmp_path, capsys):
    # every checked-in CSV row appears in a fresh run, after the same
    # header; a fresh run may add rows
    out_path = tmp_path / "run.csv"
    code, _, _ = run(capsys, "verify", "all", "--max-e", "3", "--max-q", "3",
                     "--format", "csv", "--no-timestamps",
                     "--out", str(out_path))
    assert code == 0
    want = list(csv.reader(io.StringIO(
        (DATA / "verify_all_max_e3_max_q3.csv").read_text())))
    got = list(csv.reader(io.StringIO(out_path.read_text())))
    assert got[0] == want[0]
    missing = Counter(map(tuple, want[1:])) - Counter(map(tuple, got[1:]))
    assert not missing, sorted(missing)


def test_hecke_oracle_output_is_golden(tmp_path, capsys):
    # the constants file at (3, 3) byte for byte, and at (4, 2), 456 KB,
    # by its SHA-256
    for e, q in ((3, 3), (4, 2)):
        out_path = tmp_path / f"oracle_{e}{q}.csv"
        code, _, _ = run(capsys, "hecke", "oracle", "--e", str(e),
                         "--q", str(q), "--out", str(out_path))
        assert code == 0
        got = out_path.read_bytes()
        if (e, q) == (3, 3):
            assert got == (DATA / "hecke_oracle_e3_q3.csv").read_bytes()
        else:
            assert hashlib.sha256(got).hexdigest() == ORACLE_42_SHA256


def test_verify_all_raising_check_is_one_fail_record(tmp_path, capsys,
                                                     monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, _, _ = run(capsys, "verify", "all", "--max-e", "2", "--max-q", "2",
                     "--no-timestamps", "--out", str(a))
    assert code == 0

    def check_raises(max_e, max_q):
        raise ValueError("boom")

    monkeypatch.setattr(verify, "ALL_CHECKS",
                        [check_raises] + verify.ALL_CHECKS)
    code, _, err = run(capsys, "verify", "all", "--max-e", "2",
                       "--max-q", "2", "--no-timestamps", "--out", str(b))
    assert code == 1
    assert "fail=1" in err
    assert "Traceback" in err and "ValueError: boom" in err
    before = json.loads(a.read_text())
    after = json.loads(b.read_text())
    assert after["schema"] == before["schema"] == "hecke-forge/1"
    failed = [r for r in after["reports"] if r["status"] == "fail"]
    assert failed == [{
        "name": "check_raises", "params": {}, "lhs": "ValueError: boom",
        "rhs": "", "abs_error": 1.0, "tolerance": 0.0, "status": "fail",
        "elapsed_ms": 0}]
    assert [r for r in after["reports"] if r["status"] != "fail"] \
        == before["reports"]


def test_verify_all_has_no_jobs_flag():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--jobs", "2"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "orbits", "--e", "2", "--bogus"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_size_cap_skips_a_pair_over_the_cap():
    # |GL(4, 3)| = 24261120 is over the enumeration cap
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "hecke_forge.cli", "rep", "etau",
         "--e", "4", "--q", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "skipped" in proc.stdout


def test_bad_value_exits_1(capsys):
    code, _, err = run(capsys, "weyl", "epsilon", "--e", "2", "--T", "0,1")
    assert code == 1
    assert "error" in err
