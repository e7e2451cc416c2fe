"""Each demo script, run in a fresh interpreter, prints exactly the
stdout recorded in tests/data/demo_<nn>.stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_has_recorded_stdout():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name[:2] for p in DEMOS])
def test_demo_stdout_is_byte_identical(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    want = (DATA / f"demo_{demo.name[:2]}.stdout").read_bytes()
    assert proc.stdout == want
