import subprocess
import sys
from fractions import Fraction

import pytest

from hecke_forge.charformula import (
    constant_CS, lift_prefactors, normalized_constant_check,
    power_identity_check,
)
from hecke_forge.weyl import (
    epsilon, parahoric_type, parahoric_volume, poincare_poly,
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
    full = parahoric_type(range(1, e), e)
    assert parahoric_volume(full, q) == poincare_poly(e)(q)


def test_ramified_prefactor_examples():
    # read off the lift at rank n, e' = 1
    assert lift_prefactors(2, 1, 2)[1] == -1
    assert lift_prefactors(4, 1, 2)[3] == -1
    # n odd: sign is +1 for every nu
    assert lift_prefactors(3, 1, 2) == {1: 1, 2: 1}
    # the empty type has volume 1, so q drops out
    assert lift_prefactors(2, 1, Fraction(2, 7))[1] == -1


def test_ramified_prefactor_validation():
    # only nu coprime to N = e e' is read
    assert sorted(lift_prefactors(2, 2, 2)) == [1, 3]
    with pytest.raises(ValueError):
        lift_prefactors(2, 0, 2)
    with pytest.raises(ValueError):
        lift_prefactors(0, 1, 2)


def lift_readings(N_max, q):
    """(e, nu, N F_0(Pi^nu)) for every N <= N_max, every e' | N with
    e = N/e' <= 5 and every nu coprime to N."""
    return [(e, nu, v) for N in range(1, N_max + 1)
            for e in range(1, 6) if N % e == 0
            for nu, v in lift_prefactors(e, N // e, q).items()]


def test_prefactor_matches_rotation_sign():
    readings = lift_readings(10, 2)
    assert len(readings) == 69
    for e, nu, v in readings:
        assert v == epsilon(parahoric_type((), e)) ** nu


@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_lift_prefactor_beyond_the_record_range(q):
    readings = lift_readings(12, q)
    assert len(readings) == 95
    for e, nu, v in readings:
        assert isinstance(v, (int, Fraction)), v  # exact
        assert v == (-1) ** ((e - 1) * nu), (e, nu, v)


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
