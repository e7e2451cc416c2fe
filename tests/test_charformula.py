import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from hecke_forge.charformula import (
    constant_CS, epsilon_cross_check, normalized_constant_check,
    power_identity_check, ramified_prefactor, volume_is_poincare,
)


def test_constant_CS_examples():
    assert constant_CS(1, 1, 2) == 1
    assert constant_CS(2, 1, 3) == -1
    assert constant_CS(3, 1, 2) == 1
    assert constant_CS(2, 2, 5) == Fraction(-1, 2)


@pytest.mark.parametrize("e", range(1, 7))
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_normalized_constant_collapse(e, q):
    assert normalized_constant_check(e, q)
    assert volume_is_poincare(e, q)


def test_ramified_prefactor_examples():
    assert ramified_prefactor(1, 2, 2, 1) == -1
    assert ramified_prefactor(3, 4, 4, 1) == -1
    # n odd: sign is +1 for every nu
    for nu in (1, 2):
        assert ramified_prefactor(nu, 3, 3, 1) == 1
    # nonzero c flows through as c^nu
    assert ramified_prefactor(1, 2, 2, Fraction(2, 7)) == Fraction(-2, 7)
    assert abs(ramified_prefactor(1, 2, 2, 1j) - (-1j)) < 1e-12


def test_ramified_prefactor_validation():
    with pytest.raises(ValueError):
        ramified_prefactor(2, 2, 4, 1)  # nu not coprime
    with pytest.raises(ValueError):
        ramified_prefactor(1, 2, 2, 0)  # zero c


def test_prefactor_matches_rotation_sign():
    for N in range(1, 11):
        for nu in range(N if N > 1 else 1):
            if N > 0 and gcd(nu, N) == 1:
                assert epsilon_cross_check(nu, N)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_power_identity(e):
    assert power_identity_check(e)


def test_affine_layer_loads_neither_numpy_nor_repth():
    # the sign identity lives in repth; the affine modules stay free of the
    # finite-group layer and of numpy
    code = ("import sys\n"
            "import hecke_forge.qpoly, hecke_forge.weyl, hecke_forge.hecke\n"
            "import hecke_forge.pseudocoef, hecke_forge.charformula\n"
            "print(sorted({'numpy', 'hecke_forge.repth'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
