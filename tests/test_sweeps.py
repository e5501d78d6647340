import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from splitoct import octonion as oc
from splitoct import report
from splitoct import triality as tr
from splitoct.octonion import SplitOctonion as O
from splitoct.report import VerificationReport

UNITS = [O.unit(k) for k in range(8)]
N = oc.UNIT_NAMES


# Per-case reference sweeps over SplitOctonion products, in the case order
# and detail strings of the contracted sweeps they check.

def reference_moufang():
    rep = VerificationReport("moufang")
    mul = oc.mul
    for a, b, c in itertools.product(oc.HYPER, repeat=3):
        x, y, z = UNITS[a], UNITS[b], UNITS[c]
        name = f"({N[a]},{N[b]},{N[c]})"
        rep.record_case(mul(mul(x, y), mul(z, x)) == mul(mul(x, mul(y, z)), x),
                        f"(xy)(zx)=x(yz)x {name}")
        rep.record_case(mul(mul(mul(z, y), z), x) == mul(z, mul(y, mul(z, x))),
                        f"(zyz)x=z(y(zx)) {name}")
        rep.record_case(mul(x, mul(mul(y, z), y)) == mul(mul(mul(x, y), z), y),
                        f"x(yzy)=((xy)z)y {name}")
    for a, b in itertools.product(oc.HYPER, repeat=2):
        x, y = UNITS[a], UNITS[b]
        name = f"({N[a]},{N[b]})"
        rep.record_case(mul(mul(x, y), y) == mul(x, mul(y, y)), f"(xy)y=xy^2 {name}")
        rep.record_case(mul(x, mul(x, y)) == mul(mul(x, x), y), f"x(xy)=x^2y {name}")
        rep.record_case(mul(mul(x, y), x) == mul(x, mul(y, x)), f"(xy)x=x(yx) {name}")
    return rep


def reference_associators():
    rep = VerificationReport("associators")
    A = oc.associator
    for n, m in itertools.product((1, 2, 3), repeat=2):
        jn, jm, Jn, Jm, I = UNITS[n], UNITS[m], UNITS[4 + n], UNITS[4 + m], UNITS[4]
        rep.record_case(A(jn, jm, I) == oc._family_value(("j", "j", "I"), (n, m)),
                        f"A(j{n},j{m},I)")
        rep.record_case(A(jn, Jm, I) == oc._family_value(("j", "J", "I"), (n, m)),
                        f"A(j{n},J{m},I)")
        rep.record_case(A(Jn, Jm, I) == oc._family_value(("J", "J", "I"), (n, m)),
                        f"A(J{n},J{m},I)")
        for k in (1, 2, 3):
            Jk = UNITS[4 + k]
            rep.record_case(A(jn, jm, Jk) == oc._family_value(("j", "j", "J"), (n, m, k)),
                            f"A(j{n},j{m},J{k})")
            rep.record_case(A(jn, Jm, Jk) == oc._family_value(("j", "J", "J"), (n, m, k)),
                            f"A(j{n},J{m},J{k})")
            rep.record_case(A(Jn, Jm, Jk) == oc._family_value(("J", "J", "J"), (n, m, k)),
                            f"A(J{n},J{m},J{k})")
    for a, b, c in itertools.product(oc.HYPER, repeat=3):
        x, y, z = UNITS[a], UNITS[b], UNITS[c]
        got = A(x, y, z)
        name = f"({N[a]},{N[b]},{N[c]})"
        rep.record_case(got == -A(y, x, z) and got == -A(x, z, y), f"antisymmetry {name}")
        rep.record_case(got == oc.expected_associator(a, b, c), f"table closure {name}")
        rep.record_case(got == oc.malcev_jacobiator(x, y, z), f"commutator bridge {name}")
    return rep


def reference_dictionary(n, seed):
    rep = VerificationReport("trilinear-dictionary")
    rng = np.random.default_rng(seed)
    for i in range(n):
        phi, x, psi = ([int(v) for v in rng.integers(-9, 10, size=8)] for _ in range(3))
        mat_val, oct_val = tr.trilinear_both(phi, x, psi)
        rep.record_case(Fraction(mat_val) == oct_val, f"triple {i}")
    return rep


def outcome(rep):
    return rep.cases, rep.failures, rep.failure_details


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


# sign flips of unit products: both orders of an anticommuting pair, or one
# entry alone
FLIPS = [(("J1", "J2"), ("J2", "J1")), (("j1", "I"), ("I", "j1")), (("I", "I"),),
         (("j2", "J3"),)]


def flipped_table(monkeypatch, entries):
    table = [list(row) for row in oc._TABLE]
    for left, right in entries:
        a, b = N.index(left), N.index(right)
        k, sign = table[a][b]
        table[a][b] = (k, -sign)
    monkeypatch.setattr(oc, "_TABLE", table)
    monkeypatch.setattr(oc, "_C", oc._structure_tensor(table))


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
    flipped_table(monkeypatch, ((left, right), (right, left)))
    rep = oc.verify_malcev()
    assert (rep.cases, rep.failures, rep.failure_details) == (22295, failures, details)


@pytest.mark.parametrize("entries", FLIPS)
def test_moufang_and_associators_match_reference_on_flipped_tables(monkeypatch, entries):
    flipped_table(monkeypatch, entries)
    monkeypatch.setattr(report, "MAX_DETAILS", 2000)      # compare every witness
    for sweep, reference in ((oc.verify_moufang, reference_moufang),
                             (oc.verify_associators, reference_associators)):
        rep = sweep()
        assert outcome(rep) == outcome(reference())
        assert rep.failures > 0


def test_moufang_and_associators_match_reference():
    assert outcome(oc.verify_moufang()) == outcome(reference_moufang())
    assert outcome(oc.verify_associators()) == outcome(reference_associators())


@pytest.mark.parametrize("b", [0, 5])
def test_dictionary_check_matches_reference_with_flipped_sign(monkeypatch, b):
    d = tr.equivalence_map()
    x_map = list(d.x_map)
    x_map[b] = (x_map[b][0], -x_map[b][1])
    monkeypatch.setattr(tr, "_ORACLE_CACHE", d._replace(x_map=tuple(x_map)))
    monkeypatch.setattr(report, "MAX_DETAILS", 2000)      # witnesses past the first block
    rep = tr.dictionary_random_check(200, seed=5)
    assert outcome(rep) == outcome(reference_dictionary(200, 5))
    assert 0 < rep.failures < rep.cases


def test_dictionary_check_matches_reference():
    # two whole blocks of 64 and a partial one
    rep = tr.dictionary_random_check(131, seed=7)
    assert outcome(rep) == outcome(reference_dictionary(131, 7)) == (131, 0, [])


def test_oct_trilinear_tensor_matches_trilinear_oct():
    t = tr.oct_trilinear_tensor()
    for a, b, c in itertools.product(range(8), repeat=3):
        assert t[a, b, c] == tr.trilinear_oct(UNITS[a], UNITS[b], UNITS[c])


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


def reference_verify_dictionary(t1, t2, d):
    """The per-triple Fraction loop that the vectorised comparison replaced:
    the first failing basis triple in C order, or None."""
    for a, b, c in itertools.product(range(8), repeat=3):
        a2, s1 = d.phi_map[a]
        b2, s2 = d.x_map[b]
        c2, s3 = d.psi_map[c]
        if Fraction(int(t1[a, b, c])) != d.scale * s1 * s2 * s3 * int(t2[a2, b2, c2]):
            return f"dictionary fails at basis triple ({a},{b},{c})"
    return None


def _sign_flipped(d, slot, k):
    m = list(getattr(d, slot))
    m[k] = (m[k][0], -m[k][1])
    return d._replace(**{slot: tuple(m)})


@pytest.mark.parametrize("slot,k", [("phi_map", 0), ("phi_map", 6), ("x_map", 3),
                                    ("psi_map", 7)])
def test_verify_dictionary_names_first_failing_triple(slot, k):
    t1, t2 = tr.matrix_trilinear_tensor(), tr.oct_trilinear_tensor()
    d = _sign_flipped(tr.equivalence_map(), slot, k)
    want = reference_verify_dictionary(t1, t2, d)
    assert want is not None
    with pytest.raises(tr.OracleError) as err:
        tr._verify_dictionary(t1, t2, d)
    assert str(err.value) == want


def test_verify_dictionary_scale_and_pass():
    t1, t2 = tr.matrix_trilinear_tensor(), tr.oct_trilinear_tensor()
    d = tr.equivalence_map()
    assert reference_verify_dictionary(t1, t2, d) is None
    tr._verify_dictionary(t1, t2, d)
    for scale in (-d.scale, d.scale / 2, 3 * d.scale):
        wrong = d._replace(scale=scale)
        with pytest.raises(tr.OracleError) as err:
            tr._verify_dictionary(t1, t2, wrong)
        assert str(err.value) == reference_verify_dictionary(t1, t2, wrong)
    # doubling one tensor is matched exactly by doubling the scale
    tr._verify_dictionary(2 * t1, t2, d._replace(scale=2 * d.scale))


def test_zorn_halving_needs_even_entries():
    z = oc._Zorn(2, (0, 4, -2), (6, 0, 0), -8)
    assert z.halved() == oc._Zorn(1, (0, 2, -1), (3, 0, 0), -4)
    with pytest.raises(oc.ConstructionError):
        oc._Zorn(2, (0, 3, 0), (0, 0, 0), 0).halved()
