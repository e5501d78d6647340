import itertools
import json
from fractions import Fraction

import pytest

from splitoct import octonion as oc
from splitoct.octonion import SplitOctonion as O


def test_table_sweep_exact():
    rep = oc.verify_table()
    assert rep.passed
    assert rep.cases == 64 + 7 + 21


def test_moufang_sweep():
    rep = oc.verify_moufang()
    assert rep.passed, rep.failure_details
    assert rep.cases == 343 * 3 + 49 * 3


def test_moufang_single_triple():
    x, y, z = O.unit("J1"), O.unit("J2"), O.unit("J3")
    assert oc.mul(oc.mul(x, y), oc.mul(z, x)) == oc.mul(oc.mul(x, oc.mul(y, z)), x)


def test_moufang_degenerate_triple():
    x = O.unit("J1")
    assert oc.mul(oc.mul(x, x), oc.mul(x, x)) == oc.mul(oc.mul(x, oc.mul(x, x)), x)


def test_malcev_sweep():
    rep = oc.verify_malcev()
    assert rep.passed, rep.failure_details
    assert rep.cases == 343 * 2 + 2401 * 2 + 7 ** 5


def test_malcev_tensors_match_scalar_api():
    b2, _, j12, d4 = oc._malcev_tensors()
    units = [O.unit(k) for k in range(8)]

    def oct_over(coeffs, den):
        return O(Fraction(int(v), den) for v in coeffs)

    for a, b, c in itertools.product(oc.HYPER, repeat=3):
        x, y, z = units[a], units[b], units[c]
        assert oct_over(b2[a, b], 2) == oc.commutator(x, y)
        assert oct_over(j12[a, b, c], 12) == oc.malcev_jacobiator(x, y, z)
        assert oct_over(d4[a, b, c], 4) == (2 * oc.commutator(oc.commutator(x, y), z)
                                            - 3 * oc.malcev_jacobiator(x, y, z))


# failure counts and witnesses of the Malcev sweep on tables with one
# anticommuting pair's sign flipped, as the per-tuple sweep over
# SplitOctonion products reported them
CORRUPTED_MALCEV = [
    ("J1", "J2", 5648, [
        "malcev (j1,I,J2)", "J(x,y,xz)=J(x,y,z)x (j1,I,J2)",
        "malcev (j1,I,J3)", "J(x,y,xz)=J(x,y,z)x (j1,I,J3)",
        "malcev (j1,J3,I)", "J(x,y,xz)=J(x,y,z)x (j1,J3,I)",
        "malcev (j1,J3,J1)", "J(x,y,xz)=J(x,y,z)x (j1,J3,J1)",
        "malcev (j2,I,J1)", "J(x,y,xz)=J(x,y,z)x (j2,I,J1)"]),
    ("j1", "I", 5648, [
        "malcev (j1,j2,I)", "J(x,y,xz)=J(x,y,z)x (j1,j2,I)",
        "malcev (j1,j2,J1)", "J(x,y,xz)=J(x,y,z)x (j1,j2,J1)",
        "malcev (j1,j2,J2)", "J(x,y,xz)=J(x,y,z)x (j1,j2,J2)",
        "malcev (j1,j2,J3)", "J(x,y,xz)=J(x,y,z)x (j1,j2,J3)",
        "malcev (j1,j3,I)", "J(x,y,xz)=J(x,y,z)x (j1,j3,I)"]),
    ("j2", "J3", 5648, [
        "malcev (j1,j3,J2)", "J(x,y,xz)=J(x,y,z)x (j1,j3,J2)",
        "malcev (j1,j3,J3)", "J(x,y,xz)=J(x,y,z)x (j1,j3,J3)",
        "malcev (j1,J2,j2)", "J(x,y,xz)=J(x,y,z)x (j1,J2,j2)",
        "malcev (j1,J2,j3)", "J(x,y,xz)=J(x,y,z)x (j1,J2,j3)",
        "malcev (j2,j1,I)", "J(x,y,xz)=J(x,y,z)x (j2,j1,I)"]),
]


@pytest.mark.parametrize("left,right,failures,details", CORRUPTED_MALCEV)
def test_malcev_corrupted_table_parity(monkeypatch, left, right, failures, details):
    table = [list(row) for row in oc._TABLE]
    a, b = oc.UNIT_NAMES.index(left), oc.UNIT_NAMES.index(right)
    for p, q in ((a, b), (b, a)):
        k, sign = table[p][q]
        table[p][q] = (k, -sign)
    monkeypatch.setattr(oc, "_TABLE", table)
    monkeypatch.setattr(oc, "_C", oc._structure_tensor(table))
    rep = oc.verify_malcev()
    assert (rep.cases, rep.failures, rep.failure_details) == (22295, failures, details)


def test_malcev_single_triple():
    x, y, z = O.unit("J1"), O.unit("J2"), O.unit("J3")
    lhs = oc.commutator(oc.commutator(x, y), oc.commutator(x, z))
    rhs = (oc.commutator(oc.commutator(oc.commutator(x, y), z), x)
           + oc.commutator(oc.commutator(oc.commutator(y, z), x), x)
           + oc.commutator(oc.commutator(oc.commutator(z, x), x), y))
    assert lhs == rhs


def test_malcev_degenerate_x_equals_y():
    x = O.unit("j2")
    z = O.unit("J3")
    lhs = oc.commutator(oc.commutator(x, x), oc.commutator(x, z))
    assert lhs.is_zero()
    rhs = (oc.commutator(oc.commutator(oc.commutator(x, x), z), x)
           + oc.commutator(oc.commutator(oc.commutator(x, z), x), x)
           + oc.commutator(oc.commutator(oc.commutator(z, x), x), x))
    assert rhs.is_zero()


def test_associator_sweep():
    rep = oc.verify_associators()
    assert rep.passed, rep.failure_details


def test_generated_table_byte_identical():
    generated = oc.generate_basis_from_J()
    standard = oc.StructureConstants.standard()
    assert json.dumps(generated.to_json()) == json.dumps(standard.to_json())


def test_generated_j1_is_J2J3():
    assert oc.mul(O.unit("J2"), O.unit("J3")) == O.unit("j1")


def test_generated_I_squares_to_one():
    table = oc.generate_basis_from_J()
    assert table.product(4, 4) == (0, 1)
