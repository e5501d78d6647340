import functools
import inspect
import itertools
import json
import math
import struct
import warnings
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from splitoct import cli
from splitoct import clifford as cl
from splitoct import matrices as mx
from splitoct import octonion as oc
from splitoct import report
from splitoct import sweeps
from splitoct import triality as tr
from splitoct import units
from splitoct.exact import trilinear_form
from splitoct.octonion import SplitOctonion as O
from splitoct.report import VerificationReport

import catch_matrix
from catch_matrix import (flipped_turn, flipped_turn_pair, installed_table,
                          negated_matrix_term, plus_one)
from oracles import matrix_trilinear_tensor, oct_trilinear_tensor, to_complex

UNITS = [O.unit(k) for k in range(8)]
N = oc.UNIT_NAMES
SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


# Per-case reference sweeps over SplitOctonion products, in the case order
# and detail strings of the sweeps they check.

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


def family(kinds, *idx):
    """The associator the family ``kinds`` of units.FAMILIES gives at ``idx``."""
    return sum((c * O.unit(unit) for c, unit in units.FAMILIES[kinds](*idx)), O.zero())


def reference_associators():
    rep = VerificationReport("associators")
    A = oc.associator
    predicted = units.predicted_associators()
    for n, m in itertools.product((1, 2, 3), repeat=2):
        jn, jm, Jn, Jm, I = UNITS[n], UNITS[m], UNITS[4 + n], UNITS[4 + m], UNITS[4]
        rep.record_case(A(jn, jm, I) == family(("j", "j", "I"), n, m),
                        f"A(j{n},j{m},I)")
        rep.record_case(A(jn, Jm, I) == family(("j", "J", "I"), n, m),
                        f"A(j{n},J{m},I)")
        rep.record_case(A(Jn, Jm, I) == family(("J", "J", "I"), n, m),
                        f"A(J{n},J{m},I)")
        for k in (1, 2, 3):
            Jk = UNITS[4 + k]
            rep.record_case(A(jn, jm, Jk) == family(("j", "j", "J"), n, m, k),
                            f"A(j{n},j{m},J{k})")
            rep.record_case(A(jn, Jm, Jk) == family(("j", "J", "J"), n, m, k),
                            f"A(j{n},J{m},J{k})")
            rep.record_case(A(Jn, Jm, Jk) == family(("J", "J", "J"), n, m, k),
                            f"A(J{n},J{m},J{k})")
    for a, b, c in itertools.product(oc.HYPER, repeat=3):
        x, y, z = UNITS[a], UNITS[b], UNITS[c]
        got = A(x, y, z)
        name = f"({N[a]},{N[b]},{N[c]})"
        rep.record_case(got == -A(y, x, z) and got == -A(x, z, y), f"antisymmetry {name}")
        rep.record_case(got == O(predicted[a, b, c]), f"table closure {name}")
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


def test_table_sweep_forms_each_unit_product_once(monkeypatch):
    # the squares and the anticommuting pairs read the 64 products that are
    # compared with the table, instead of multiplying again
    calls = []
    mul = oc.mul
    monkeypatch.setattr(oc, "mul", lambda x, y: calls.append((x, y)) or mul(x, y))
    rep = oc.verify_table()
    assert rep.passed and rep.cases == 64 + 7 + 21
    assert len(calls) == 64


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
    b2, _, j12, d4 = sweeps._malcev_tensors()
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


def flipped(entries):
    """The unit table with the sign of each named entry flipped."""
    table = [list(row) for row in oc._TABLE]
    for left, right in entries:
        a, b = N.index(left), N.index(right)
        k, sign = table[a][b]
        table[a][b] = (k, -sign)
    return table


def flipped_table(monkeypatch, entries):
    """Install a flipped table with every form the builder makes from it."""
    installed_table(monkeypatch, flipped(entries))


# failures and first witness of the Malcev sweep, 22295 cases, on every
# table with one hyper-complex entry's sign flipped, or both orders of one
# anticommuting pair
MALCEV_FLIPS = [
    ((("j1", "j1"),), 0, None),
    ((("j1", "j2"),), 5648, "malcev (j1,I,j2)"),
    ((("j1", "j3"),), 5648, "malcev (j1,I,j2)"),
    ((("j1", "I"),), 5648, "malcev (j1,j2,I)"),
    ((("j1", "J1"),), 5648, "malcev (j1,j2,I)"),
    ((("j1", "J2"),), 5648, "malcev (j1,j2,I)"),
    ((("j1", "J3"),), 5648, "malcev (j1,j2,I)"),
    ((("j2", "j1"),), 5648, "malcev (j1,I,j2)"),
    ((("j2", "j2"),), 0, None),
    ((("j2", "j3"),), 5648, "malcev (j2,I,j1)"),
    ((("j2", "I"),), 5648, "malcev (j1,j3,I)"),
    ((("j2", "J1"),), 5648, "malcev (j1,j3,I)"),
    ((("j2", "J2"),), 5648, "malcev (j1,j3,J2)"),
    ((("j2", "J3"),), 5648, "malcev (j1,j3,J2)"),
    ((("j3", "j1"),), 5648, "malcev (j1,I,j2)"),
    ((("j3", "j2"),), 5648, "malcev (j2,I,j1)"),
    ((("j3", "j3"),), 0, None),
    ((("j3", "I"),), 5648, "malcev (j1,j2,I)"),
    ((("j3", "J1"),), 5648, "malcev (j1,j2,I)"),
    ((("j3", "J2"),), 5648, "malcev (j1,j2,J2)"),
    ((("j3", "J3"),), 5648, "malcev (j1,j2,J2)"),
    ((("I", "j1"),), 5648, "malcev (j1,j2,I)"),
    ((("I", "j2"),), 5648, "malcev (j1,j3,I)"),
    ((("I", "j3"),), 5648, "malcev (j1,j2,I)"),
    ((("I", "I"),), 0, None),
    ((("I", "J1"),), 5648, "malcev (j2,J2,J1)"),
    ((("I", "J2"),), 5648, "malcev (j1,J1,J2)"),
    ((("I", "J3"),), 5648, "malcev (j1,J1,J2)"),
    ((("J1", "j1"),), 5648, "malcev (j1,j2,I)"),
    ((("J1", "j2"),), 5648, "malcev (j1,j3,I)"),
    ((("J1", "j3"),), 5648, "malcev (j1,j2,I)"),
    ((("J1", "I"),), 5648, "malcev (j2,J2,J1)"),
    ((("J1", "J1"),), 0, None),
    ((("J1", "J2"),), 5648, "malcev (j1,I,J2)"),
    ((("J1", "J3"),), 5648, "malcev (j1,I,J2)"),
    ((("J2", "j1"),), 5648, "malcev (j1,j2,I)"),
    ((("J2", "j2"),), 5648, "malcev (j1,j3,J2)"),
    ((("J2", "j3"),), 5648, "malcev (j1,j2,J2)"),
    ((("J2", "I"),), 5648, "malcev (j1,J1,J2)"),
    ((("J2", "J1"),), 5648, "malcev (j1,I,J2)"),
    ((("J2", "J2"),), 0, None),
    ((("J2", "J3"),), 5648, "malcev (j2,I,J1)"),
    ((("J3", "j1"),), 5648, "malcev (j1,j2,I)"),
    ((("J3", "j2"),), 5648, "malcev (j1,j3,J2)"),
    ((("J3", "j3"),), 5648, "malcev (j1,j2,J2)"),
    ((("J3", "I"),), 5648, "malcev (j1,J1,J2)"),
    ((("J3", "J1"),), 5648, "malcev (j1,I,J2)"),
    ((("J3", "J2"),), 5648, "malcev (j2,I,J1)"),
    ((("J3", "J3"),), 0, None),
    ((("j1", "j2"), ("j2", "j1")), 5648, "malcev (j1,I,j2)"),
    ((("j1", "j3"), ("j3", "j1")), 5648, "malcev (j1,I,j2)"),
    ((("j1", "I"), ("I", "j1")), 5648, "malcev (j1,j2,I)"),
    ((("j1", "J1"), ("J1", "j1")), 5648, "malcev (j1,j2,I)"),
    ((("j1", "J2"), ("J2", "j1")), 5648, "malcev (j1,j2,I)"),
    ((("j1", "J3"), ("J3", "j1")), 5648, "malcev (j1,j2,I)"),
    ((("j2", "j3"), ("j3", "j2")), 5648, "malcev (j2,I,j1)"),
    ((("j2", "I"), ("I", "j2")), 5648, "malcev (j1,j3,I)"),
    ((("j2", "J1"), ("J1", "j2")), 5648, "malcev (j1,j3,I)"),
    ((("j2", "J2"), ("J2", "j2")), 5648, "malcev (j1,j3,J2)"),
    ((("j2", "J3"), ("J3", "j2")), 5648, "malcev (j1,j3,J2)"),
    ((("j3", "I"), ("I", "j3")), 5648, "malcev (j1,j2,I)"),
    ((("j3", "J1"), ("J1", "j3")), 5648, "malcev (j1,j2,I)"),
    ((("j3", "J2"), ("J2", "j3")), 5648, "malcev (j1,j2,J2)"),
    ((("j3", "J3"), ("J3", "j3")), 5648, "malcev (j1,j2,J2)"),
    ((("I", "J1"), ("J1", "I")), 5648, "malcev (j2,J2,J1)"),
    ((("I", "J2"), ("J2", "I")), 5648, "malcev (j1,J1,J2)"),
    ((("I", "J3"), ("J3", "I")), 5648, "malcev (j1,J1,J2)"),
    ((("J1", "J2"), ("J2", "J1")), 5648, "malcev (j1,I,J2)"),
    ((("J1", "J3"), ("J3", "J1")), 5648, "malcev (j1,I,J2)"),
    ((("J2", "J3"), ("J3", "J2")), 5648, "malcev (j2,I,J1)"),
]
# every witness the report keeps on three pair flips, as the per-tuple sweep
# over SplitOctonion products reported them
MALCEV_DETAILS = {
    (("J1", "J2"), ("J2", "J1")): [
        "malcev (j1,I,J2)", "J(x,y,xz)=J(x,y,z)x (j1,I,J2)",
        "malcev (j1,I,J3)", "J(x,y,xz)=J(x,y,z)x (j1,I,J3)",
        "malcev (j1,J3,I)", "J(x,y,xz)=J(x,y,z)x (j1,J3,I)",
        "malcev (j1,J3,J1)", "J(x,y,xz)=J(x,y,z)x (j1,J3,J1)",
        "malcev (j2,I,J1)", "J(x,y,xz)=J(x,y,z)x (j2,I,J1)"],
    (("j1", "I"), ("I", "j1")): [
        "malcev (j1,j2,I)", "J(x,y,xz)=J(x,y,z)x (j1,j2,I)",
        "malcev (j1,j2,J1)", "J(x,y,xz)=J(x,y,z)x (j1,j2,J1)",
        "malcev (j1,j2,J2)", "J(x,y,xz)=J(x,y,z)x (j1,j2,J2)",
        "malcev (j1,j2,J3)", "J(x,y,xz)=J(x,y,z)x (j1,j2,J3)",
        "malcev (j1,j3,I)", "J(x,y,xz)=J(x,y,z)x (j1,j3,I)"],
    (("j2", "J3"), ("J3", "j2")): [
        "malcev (j1,j3,J2)", "J(x,y,xz)=J(x,y,z)x (j1,j3,J2)",
        "malcev (j1,j3,J3)", "J(x,y,xz)=J(x,y,z)x (j1,j3,J3)",
        "malcev (j1,J2,j2)", "J(x,y,xz)=J(x,y,z)x (j1,J2,j2)",
        "malcev (j1,J2,j3)", "J(x,y,xz)=J(x,y,z)x (j1,J2,j3)",
        "malcev (j2,j1,I)", "J(x,y,xz)=J(x,y,z)x (j2,j1,I)"],
}


@pytest.mark.parametrize("entries,failures,first", MALCEV_FLIPS,
                         ids=[",".join(f"{a}*{b}" for a, b in e) for e, *_ in MALCEV_FLIPS])
def test_malcev_corrupted_table_parity(monkeypatch, entries, failures, first):
    flipped_table(monkeypatch, entries)
    rep = oc.verify_malcev()
    assert (rep.cases, rep.failures, next(iter(rep.failure_details), None)) == (
        22295, failures, first)
    if entries in MALCEV_DETAILS:
        assert rep.failure_details == MALCEV_DETAILS[entries]


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


def family_indices(kinds):
    """The indices of the family ``kinds``: (n, m) for one ending in I,
    else (n, m, k)."""
    return list(itertools.product((1, 2, 3), repeat=2 if kinds[2] == "I" else 3))


# each term of each family, by its position in the family's terms
FAMILY_TERMS = [(kinds, term) for kinds, formula in units.FAMILIES.items()
                for term in range(len(formula(*family_indices(kinds)[0])))]


@pytest.mark.parametrize("kinds,term", FAMILY_TERMS,
                         ids=[f"{''.join(kinds)}-{term}" for kinds, term in FAMILY_TERMS])
def test_associators_fail_on_a_negated_family_term(monkeypatch, kinds, term):
    # the suite must name the family's A(...) cases whose value the term
    # changes and the table closure of each triple whose prediction changes,
    # and nothing else; the test gets its own cache of the predicted table,
    # so the cached standard table cannot hide the patched family
    standard = units.predicted_associators()
    formula = units.FAMILIES[kinds]
    monkeypatch.setitem(units.FAMILIES, kinds, lambda *idx: tuple(
        (-c if i == term else c, unit) for i, (c, unit) in enumerate(formula(*idx))))
    monkeypatch.setattr(units, "predicted_associators",
                        functools.cache(units.predicted_associators.__wrapped__))
    monkeypatch.setattr(report, "MAX_DETAILS", 2000)
    changed = [t for t, value in units.predicted_associators().items() if value != standard[t]]
    assert changed and all(sorted(" jjjIJJJ"[a] for a in t) == sorted(kinds) for t in changed)
    p, q, _ = kinds
    want = {f"A({p}{n},{q}{m},{f'J{k[0]}' if k else 'I'})"
            for n, m, *k in family_indices(kinds) if formula(n, m, *k)[term][0]}
    want |= {f"table closure ({N[a]},{N[b]},{N[c]})" for a, b, c in changed}
    rep = oc.verify_associators()
    assert rep.failures == len(rep.failure_details) == len(want)
    assert set(rep.failure_details) == want


def test_predicted_associators_read_no_unit_table(monkeypatch):
    # built anew under each of the 64 single-entry sign flips, bypassing the
    # per-process cache, the predicted table is the standard one
    standard = units.predicted_associators()
    build = units.predicted_associators.__wrapped__
    assert build() == standard
    for a, b in itertools.product(N, repeat=2):
        with monkeypatch.context() as m:
            flipped_table(m, ((a, b),))
            assert build() == standard, (a, b)


# corruptions that the batched check and trilinear_both both read: a unit
# table entry (the structure tensor and the compiled octonion forms) or a
# term of the matrix form (the trilinear slices and the compiled matrix form)
CORRUPTIONS = {
    "table j2*J3": lambda mp: flipped_table(mp, (("j2", "J3"),)),
    "table J1*J2": lambda mp: flipped_table(mp, (("J1", "J2"),)),
    "matrix term 0": lambda mp: negated_matrix_term(mp, 0),
    "matrix term 45": lambda mp: negated_matrix_term(mp, 45),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_dictionary_check_matches_reference_on_corrupted_forms(monkeypatch, corrupt):
    tr.equivalence_map()                  # verified on the sound forms
    corrupt(monkeypatch)
    monkeypatch.setattr(report, "MAX_DETAILS", 2000)      # witnesses past the first block
    rep = tr.dictionary_random_check(seed=5)
    assert outcome(rep) == outcome(reference_dictionary(1000, 5))
    assert 0 < rep.failures < rep.cases


def test_dictionary_check_matches_reference():
    # 15 whole blocks of 64 and a partial one
    rep = tr.dictionary_random_check(seed=7)
    assert outcome(rep) == outcome(reference_dictionary(1000, 7)) == (1000, 0, [])


def test_suites_take_no_size_or_tolerance():
    # the verdict's size and tolerance are sweeps' constants; the sampled
    # suites take only a keyword-only seed, so an old positional size cannot
    # be read as a seed, and double-cover, on the standard library, takes
    # nothing
    sampled = "(*, seed: 'int' = 12345) -> 'VerificationReport'"
    assert {name: str(inspect.signature(getattr(sweeps, name)))
            for name in ("correspondence_check", "dictionary_random_check",
                         "rotor_invariance_check", "trilinear_invariance_check")} == {
        "correspondence_check": sampled, "dictionary_random_check": sampled,
        "rotor_invariance_check": sampled, "trilinear_invariance_check": sampled}
    assert str(inspect.signature(units.double_cover_check)) == "() -> 'VerificationReport'"
    assert not hasattr(sweeps, "double_cover_check")
    assert (sweeps.SAMPLES, sweeps.WORDS, report.TOLERANCE) == (1000, 200, 1e-12)
    assert not hasattr(sweeps, "TOLERANCE")


SUITES = ["correspondence_check", "dictionary_random_check", "rotor_invariance_check",
          "trilinear_invariance_check", "double_cover_check"]


@pytest.mark.parametrize("suite", SUITES)
def test_suites_refuse_an_old_size_or_tolerance(suite):
    # the old positional size and the old tol keyword are both refused
    for args, kwargs in (((5,), {}), ((), {"tol": 1e-3})):
        with pytest.raises(TypeError):
            getattr(tr, suite)(*args, **kwargs)


# each sampled suite reads its size from sweeps at the call, records it in
# meta, and makes that many samples' cases: two forms per correspondence
# sample and per rotor, one per dictionary triple and per rotor word
SIZES = {"correspondence_check": ("SAMPLES", 2), "dictionary_random_check": ("SAMPLES", 1),
         "rotor_invariance_check": ("SAMPLES", 2), "trilinear_invariance_check": ("WORDS", 1)}


@pytest.mark.parametrize("suite", SIZES)
def test_sampled_suites_read_their_size_at_the_call(monkeypatch, suite):
    size, per_sample = SIZES[suite]
    monkeypatch.setattr(sweeps, size, 131)
    rep = getattr(sweeps, suite)(seed=7)
    assert rep.passed
    assert (rep.meta["samples"], rep.cases) == (131, 131 * per_sample)


# a tolerance below every residual fails every float case, so each float
# suite reads report.TOLERANCE at the call and compares with it; in
# boost-table only the finite boost is a float comparison
@pytest.mark.parametrize("suite", ["rotor_invariance_check", "trilinear_invariance_check",
                                   "double_cover_check", "boost_table_check"])
def test_float_suites_read_their_tolerance_at_the_call(monkeypatch, suite):
    monkeypatch.setattr(sweeps, "SAMPLES", 64)
    monkeypatch.setattr(sweeps, "WORDS", 64)
    monkeypatch.setattr(report, "TOLERANCE", -1.0)
    rep = getattr(tr, suite)()
    assert rep.meta["tolerance"] == -1.0
    if suite == "boost_table_check":
        assert rep.failure_details == [f"x0 boost at theta={units.BOOST_THETA}"]
    else:
        assert rep.failures == rep.cases > 0


# the octonion term table, from which the int form is compiled, against the
# two-product oracle on every unit triple, for the standard table and every
# flipped one
@pytest.mark.parametrize("entries", dict.fromkeys([()] + FLIPS + [e for e, *_ in MALCEV_FLIPS]),
                         ids=lambda e: ",".join(f"{a}*{b}" for a, b in e) or "standard")
def test_oct_trilinear_terms_match_two_product_oracle(monkeypatch, entries):
    flipped_table(monkeypatch, entries)
    terms = {(a, b, c): k for a, b, c, k in oc._TRILINEAR_TERMS}
    assert len(terms) == len(oc._TRILINEAR_TERMS)
    for a, b, c in itertools.product(range(8), repeat=3):
        want = -inner_oracle(UNITS[a].conj(), reference_mul(UNITS[b], UNITS[c]))
        assert terms.get((a, b, c), 0) == want, (a, b, c)


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
    assert table.table[4][4] == (0, 1)


def reference_verify_dictionary(t1, t2):
    """The per-triple loop in Python ints: the first basis triple in C order
    where the two tensors differ, or None."""
    for a, b, c in itertools.product(range(8), repeat=3):
        if int(t1[a, b, c]) != int(t2[a, b, c]):
            return f"dictionary fails at basis triple ({a},{b},{c})"
    return None


def sparse(t):
    """A dense 8x8x8 tensor as the map {(a, b, c): value} of its nonzero
    entries, the form the oracle compares."""
    return {tuple(map(int, abc)): int(v) for abc, v in np.ndenumerate(t) if v}


# one or two entries of the matrix (0) or octonion (1) tensor changed
@pytest.mark.parametrize("side,entries", [(0, [(0, 0, 0)]), (1, [(7, 7, 7)]),
                                          (1, [(3, 5, 6), (0, 2, 1)]),
                                          (0, [(6, 1, 2), (5, 4, 3)])])
def test_verify_dictionary_names_first_corrupted_triple(side, entries):
    tensors = [matrix_trilinear_tensor(), oct_trilinear_tensor()]
    for index in entries:
        tensors[side][index] += 1
    want = reference_verify_dictionary(*tensors)
    assert want == "dictionary fails at basis triple ({},{},{})".format(*min(entries))
    with pytest.raises(tr.OracleError) as err:
        tr._verify_dictionary(*map(sparse, tensors))
    assert str(err.value) == want


def test_verify_dictionary_passes_on_the_sound_tensors():
    t1, t2 = matrix_trilinear_tensor(), oct_trilinear_tensor()
    assert reference_verify_dictionary(t1, t2) is None
    tr._verify_dictionary(sparse(t1), sparse(t2))
    tr.trilinear_equivalence_oracle()
    # a scaled or negated tensor fails at the first nonzero entry
    for wrong in (2 * t1, -t1):
        with pytest.raises(tr.OracleError) as err:
            tr._verify_dictionary(sparse(wrong), sparse(t2))
        assert str(err.value) == "dictionary fails at basis triple (0,0,0)"


def test_record_case_formats_a_callable_detail_only_when_kept(monkeypatch):
    # the signed-unit suites name their cases lazily, and record_mask names
    # each failing entry through record_case: a passing case or entry, and a
    # failing one past MAX_DETAILS, never format their label
    monkeypatch.setattr(report, "MAX_DETAILS", 2)
    formatted = []
    rep = VerificationReport("labels")
    for k in range(4):
        rep.record_case(k == 0, lambda k=k: formatted.append(k) or f"case {k}")
    assert (rep.cases, rep.failures, rep.failure_details) == (4, 3, ["case 1", "case 2"])
    assert formatted == [1, 2]
    rep = VerificationReport("mask")
    ok = np.array([[True, False, True], [False, True, False]])
    rep.record_mask(ok, lambda i, j: formatted.append((i, j)) or f"entry ({i},{j})")
    assert (rep.cases, rep.failures) == (6, 3)
    assert rep.failure_details == ["entry (0,1)", "entry (1,0)"]
    assert formatted == [1, 2, (0, 1), (1, 0)]


def test_record_mask_keeps_failures_in_c_order_up_to_max_details():
    ok = np.ones((3, 4, 2), dtype=bool)
    ok[2, 0, 1] = ok[0, 3, 0] = ok[1, 1, 1] = False
    rep = VerificationReport("mask")
    rep.record_mask(ok, lambda *index: str(index))
    assert (rep.cases, rep.failures) == (24, 3)
    assert rep.failure_details == ["(0, 3, 0)", "(1, 1, 1)", "(2, 0, 1)"]
    # after a failed case, the details fill up to MAX_DETAILS in C order
    rep = VerificationReport("mask")
    rep.record_case(False, "first")
    rep.record_mask(np.zeros((4, 5), dtype=bool), lambda i, j: f"{i},{j}")
    assert (rep.cases, rep.failures) == (21, 21)
    assert rep.failure_details == ["first"] + [f"{k // 5},{k % 5}"
                                               for k in range(report.MAX_DETAILS - 1)]


def test_record_mask_residual_ignores_nan_and_an_empty_residual():
    rep = VerificationReport("mask", exact=False)
    resid = np.full(6, np.nan)
    resid[5], resid[0] = 0.25, 0.125
    rep.record_mask(resid <= 1.0, str, residual=resid)
    assert (rep.cases, rep.failures, rep.max_residual) == (6, 4, 0.25)
    rep.record_mask(np.ones(0, dtype=bool), str, residual=np.zeros(0))
    rep.record_mask(np.ones(1, dtype=bool), str, residual=np.array([np.nan]))
    assert (rep.cases, rep.failures, rep.max_residual) == (7, 4, 0.25)
    rep = VerificationReport("mask", exact=False)
    rep.record_mask(np.zeros(2, dtype=bool), str, residual=np.array([np.nan, np.nan]))
    assert (rep.cases, rep.failures, rep.failure_details, rep.max_residual) == (
        2, 2, ["0", "1"], 0.0)


def test_zorn_halving_needs_even_entries():
    z = units._Zorn(2, (0, 4, -2), (6, 0, 0), -8)
    assert z.halved() == units._Zorn(1, (0, 2, -1), (3, 0, 0), -4)
    with pytest.raises(oc.ConstructionError):
        units._Zorn(2, (0, 3, 0), (0, 0, 0), 0).halved()


def test_the_two_term_tables_hold_the_same_terms():
    # the identity dictionary in one line: one slot order (a, b, c, k) over
    # (phi, x, psi), the same nonzero values
    assert set(cl._TRILINEAR_TERMS) == set(oc._TRILINEAR_TERMS)


def test_oracle_names_first_failing_triple_on_flipped_table(monkeypatch):
    # with e_J1 e_J2 negated the identity dictionary no longer carries the
    # octonion form onto the matrix form: the oracle fails at once, naming
    # the first basis triple where the two differ
    flipped_table(monkeypatch, (("J1", "J2"),))
    tr.equivalence_map.cache_clear()
    with pytest.raises(tr.OracleError) as err:
        tr.equivalence_map()
    assert str(err.value) == "dictionary fails at basis triple (3,5,6)"
    assert str(err.value) == reference_verify_dictionary(matrix_trilinear_tensor(),
                                                         oct_trilinear_tensor())


@pytest.mark.parametrize("n", [0, 45])
def test_oracle_names_first_failing_triple_on_a_negated_matrix_term(monkeypatch, n):
    a, b, c, _ = cl._TRILINEAR_TERMS[n]
    negated_matrix_term(monkeypatch, n)
    tr.equivalence_map.cache_clear()
    with pytest.raises(tr.OracleError) as err:
        tr.equivalence_map()
    assert str(err.value) == f"dictionary fails at basis triple ({a},{b},{c})"


def test_trilinear_both_exits_1_on_flipped_table(monkeypatch, capsys):
    flipped_table(monkeypatch, (("J1", "J2"),))
    tr.equivalence_map.cache_clear()
    e0 = "1,0,0,0,0,0,0,0"
    code = cli.main(["trilinear", "--phi", e0, "--x", e0, "--psi", e0,
                     "--representation", "both"])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == ("error: trilinear dictionary unavailable: "
                       "dictionary fails at basis triple (3,5,6)\n")


# each compiled trilinear form, by the module that holds it, its name, and
# the name the oracle gives it
COMPILED_FORMS = [(cl, "_TRILINEAR", "matrix"), (oc, "_INT_TRILINEAR", "octonionic")]


@pytest.mark.parametrize("module,name,label", COMPILED_FORMS)
def test_oracle_certifies_each_compiled_form(monkeypatch, module, name, label):
    # the term tables agree, but the form trilinear_both runs on Python ints
    # returns its value + 1: the constant lands on the digit of (0,0,0)
    plus_one(monkeypatch, module, name)
    tr.equivalence_map.cache_clear()
    with pytest.raises(tr.OracleError) as err:
        tr.equivalence_map()
    assert str(err.value) == f"the compiled {label} form fails at basis triple (0,0,0)"


@pytest.mark.parametrize("module,name,label", COMPILED_FORMS)
@pytest.mark.parametrize("wrong", [(0,), (63,), (17, 40), (50, 9, 33)])
def test_oracle_names_the_first_wrong_term_compiled_into_a_form(module, name, label, wrong):
    # a form compiled, as its module compiles it, from its table with some
    # terms negated, against the table as it is: one evaluation names the
    # first wrong triple in C order
    terms = list(module._TRILINEAR_TERMS)
    for n in wrong:
        a, b, c, k = terms[n]
        terms[n] = (a, b, c, -k)
    wrap = {"wrap": "Fraction", "Fraction": Fraction} if module is oc else {}
    first = min(module._TRILINEAR_TERMS[n][:3] for n in wrong)
    with pytest.raises(tr.OracleError) as err:
        tr._certify_form(label, trilinear_form(terms, **wrap), module._TRILINEAR_TERMS)
    assert str(err.value) == "the compiled {} form fails at basis triple ({},{},{})".format(
        label, *first)


def test_trilinear_both_and_verify_refuse_a_broken_compiled_form(monkeypatch, capsys):
    # sot trilinear exits 1 with the oracle's message; trilinear-dictionary
    # fails with that one named case, its samples contracting the tables
    plus_one(monkeypatch, cl, "_TRILINEAR")
    tr.equivalence_map.cache_clear()
    e0 = "1,0,0,0,0,0,0,0"
    code = cli.main(["trilinear", "--phi", e0, "--x", e0, "--psi", e0,
                     "--representation", "both"])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == ("error: trilinear dictionary unavailable: "
                       "the compiled matrix form fails at basis triple (0,0,0)\n")
    assert cli.main(["verify", "triality"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["name"] for r in reports if not r["passed"]] == ["trilinear-dictionary"]
    rep, = (r for r in reports if r["name"] == "trilinear-dictionary")
    assert (rep["cases"], rep["failures"]) == (1001, 1)
    assert rep["failure_details"] == ["the compiled matrix form fails at basis triple (0,0,0)"]


def test_table_prints_a_flipped_table_as_it_stands(monkeypatch, capsys):
    # sot table reads the unit table and does not validate it: with e_J1 e_J2
    # alone negated it prints the flipped sign and exits 0; the flip is
    # octonion-table's failed case
    table = flipped((("J1", "J2"),))
    flipped_table(monkeypatch, (("J1", "J2"),))
    assert cli.main(["table"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, json.loads((SCHEMAS / "table.schema.json").read_text()))
    entries = {(p["left"], p["right"]): (p["result_unit"], p["sign"])
               for p in payload["products"]}
    assert entries == {(N[a], N[b]): (N[k], sign)
                       for a, row in enumerate(table)
                       for b, (k, sign) in enumerate(row)}
    assert entries[("J1", "J2")] == ("j3", -1) and entries[("J2", "J1")] == ("j3", -1)


def test_verify_all_reports_a_failing_dictionary_as_a_verdict(monkeypatch, capsys):
    # with e_J1 e_J2 and e_J2 e_J1 negated the dictionary fails its exact
    # check: trilinear-dictionary records that as a failed case naming the
    # triple, next to its samples, and every other report is still emitted
    flipped_table(monkeypatch, (("J1", "J2"), ("J2", "J1")))
    tr.equivalence_map.cache_clear()
    assert cli.main(["verify", "all"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, json.loads((SCHEMAS / "report.schema.json").read_text()))
    assert len(payload["reports"]) == 14
    rep, = (r for r in payload["reports"] if r["name"] == "trilinear-dictionary")
    assert rep["cases"] == 1001 and rep["failures"] > 1
    assert rep["failure_details"][0] == "dictionary fails at basis triple (3,5,6)"
    assert rep["meta"] == {"seed": tr.DEFAULT_SEED, "samples": 1000}


VERIFY_ALL_ORDER = ["basis-generation", "octonion-table", "moufang", "malcev", "clifford",
                    "associators", "correspondence", "infinitesimal-L01", "boost-table",
                    "role-swap", "double-cover", "trilinear-dictionary",
                    "trilinear-invariance", "rotor-invariance"]
# one entry e_a e_b with a <= b alone (the 7 squares and 21 products), both
# orders of each of the 21 anticommuting pairs, and each of the 15 entries
# of the identity row and column alone
TABLE_KILLS = ([((N[a], N[b]),) for a, b in itertools.combinations_with_replacement(oc.HYPER, 2)]
               + [((N[a], N[b]), (N[b], N[a])) for a, b in itertools.combinations(oc.HYPER, 2)]
               + [((N[0], N[b]),) for b in range(8)] + [((N[b], N[0]),) for b in oc.HYPER])


@pytest.mark.parametrize("entries", TABLE_KILLS,
                         ids=lambda e: "+".join(f"{a}{b}" for a, b in e))
def test_verify_all_fails_as_a_verdict_on_every_table_flip(monkeypatch, capsys, entries):
    # a broken table is a failed verdict with every report, never an error;
    # basis generation and moufang catch every flip, associators every flip
    # but that of e_1 e_1, and octonion-table names a single flipped
    # hyper-complex entry
    flipped_table(monkeypatch, entries)
    tr.equivalence_map.cache_clear()
    assert cli.main(["verify", "all"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, json.loads((SCHEMAS / "report.schema.json").read_text()))
    reports = {r["name"]: r for r in payload["reports"]}
    assert [r["name"] for r in payload["reports"]] == VERIFY_ALL_ORDER
    assert not reports["basis-generation"]["passed"]
    assert not reports["moufang"]["passed"]
    assert reports["associators"]["passed"] == (entries == ((N[0], N[0]),))
    (a, b), *rest = entries
    if not rest and N[0] not in (a, b):
        name = f"{a}^2" if a == b else f"anticommute {a},{b}"
        assert name in reports["octonion-table"]["failure_details"]


@pytest.mark.catch
def test_catch_matrix_matches_its_file():
    # every single fault of the matrix fails `verify all` at its one size,
    # apart from the known escapes; the full run takes about half a minute,
    # so it runs under -m catch and not in tier-1
    matrix = catch_matrix.generate()
    assert all(row["exit"] == 1 for row in matrix["faults"].values())
    assert catch_matrix.render(matrix) == catch_matrix.MATRIX.read_text()


# one component of the phi half and one of the psi half
@pytest.mark.parametrize("row", [5, 12])
def test_verify_all_fails_as_a_verdict_on_a_broken_spinor_turn(monkeypatch, capsys, row):
    # the compiled turn with one component's moved term of the wrong sign:
    # the float triality suites turn each sample through cl._TURN, so
    # rotor-invariance names spinor rotors and trilinear-invariance fails;
    # double-cover turns by 2pi and 4pi, where s is a rounding error, and
    # no other report turns a spinor
    flipped_turn(monkeypatch, row)
    assert cli.main(["verify", "all"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, json.loads((SCHEMAS / "report.schema.json").read_text()))
    assert [r["name"] for r in payload["reports"]] == VERIFY_ALL_ORDER
    failed = {r["name"]: r for r in payload["reports"] if not r["passed"]}
    assert set(failed) == {"rotor-invariance", "trilinear-invariance"}
    details = failed["rotor-invariance"]["failure_details"]
    assert len(details) == report.MAX_DETAILS
    assert all(d.startswith("spinor rotor ") for d in details)


# the first output, x_mu, and the second, x_nu
@pytest.mark.parametrize("output", [0, 1])
def test_verify_all_fails_as_a_verdict_on_a_broken_vector_turn(monkeypatch, capsys, output):
    # turn_pair with one output's S term of the wrong sign (s negated leaves
    # C and negates S): the float triality suites turn each sample through
    # rotate_vector_list, so rotor-invariance names vector rotors and
    # trilinear-invariance fails; boost-table moves e_0 into its x_4 output;
    # double-cover turns by 2pi and 4pi, where s is a rounding error
    flipped_turn_pair(monkeypatch, output)
    assert cli.main(["verify", "all"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, json.loads((SCHEMAS / "report.schema.json").read_text()))
    assert [r["name"] for r in payload["reports"]] == VERIFY_ALL_ORDER
    failed = {r["name"]: r for r in payload["reports"] if not r["passed"]}
    assert set(failed) == {"rotor-invariance", "trilinear-invariance",
                           *(["boost-table"] if output else [])}
    assert (failed["rotor-invariance"]["failures"],
            failed["trilinear-invariance"]["failures"]) == (900, 199)
    assert all(d.startswith("vector rotor ") for d in failed["rotor-invariance"]["failure_details"])
    if output:
        assert "x0 boost at theta=0.5" in failed["boost-table"]["failure_details"]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_failing_verify_renders_in_every_format(monkeypatch, capsys, fmt):
    # with e_J1 e_J2 negated the Moufang sweep fails; every format shows the
    # failure count of the json report and exits 1
    flipped_table(monkeypatch, (("J1", "J2"),))
    assert cli.main(["verify", "moufang"]) == 1
    report, = json.loads(capsys.readouterr().out)["reports"]
    assert report["failures"] > 0 and report["failure_details"]
    code = cli.main(["verify", "moufang", f"--format={fmt}"])
    out = capsys.readouterr().out
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["reports"] == [report]
    elif fmt == "csv":
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["failures"] == str(report["failures"])
    else:
        assert out.splitlines() == [
            f"FAIL moufang: {report['cases']} cases, {report['failures']} failures, "
            f"max residual {report['max_residual']:.3e}",
            *(f"     {d}" for d in report["failure_details"]),
            "FAILURES PRESENT"]


# The single-call kernels as they were before they were cut down to the terms
# their answer needs, kept as oracles: the product as a loop over the unit
# table, inner from two full products, the matrix trilinear form summed slice
# by slice, and the integer check that converts every component.

def reference_mul(a, b):
    out = [0] * 8
    for i, ai in enumerate(a.c):
        if not ai:
            continue
        row = oc._TABLE[i]
        for j, bj in enumerate(b.c):
            if not bj:
                continue
            k, s = row[j]
            out[k] += ai * bj if s > 0 else -(ai * bj)
    return O(out)


def reference_inner(a, b):
    p = reference_mul(a.conj(), b)
    q = reference_mul(b.conj(), a)
    return oc._HALF * (p.c[0] + q.c[0])


def reference_as_ints(values):
    try:
        ints = [int(v) for v in values]
    except (OverflowError, ValueError):
        return None
    return ints if ints == list(values) else None


def dense_slices():
    """Per slice b, (i, j, K_b[i,j]) over the nonzero entries in C order, with
    K_b = (M_phi)^T B_11 (Gamma_b)_12 M_psi / 2 composed as dense complex
    matrices, apart from the sparse slice table."""
    xi, b_mat = to_complex(mx.XI_M), to_complex(cl.b_matrix())
    left, right = xi[:8, :8].T @ b_mat[:8, :8], xi[8:, 8:]
    out = []
    for b in range(8):
        k = left @ to_complex(cl.gamma(b))[:8, 8:] @ right / 2
        assert not k.imag.any() and (k.real == np.round(k.real)).all()
        out.append(tuple((int(i), int(j), int(k.real[i, j])) for i, j in zip(*np.nonzero(k.real))))
    return tuple(out)


SLICES = dense_slices()


def reference_trilinear_matrix(phi, x, psi):
    pi, si, xi = reference_as_ints(phi), reference_as_ints(psi), reference_as_ints(x)
    if None not in (pi, si, xi):
        return sum(xb * sum(k * pi[i] * si[j] for i, j, k in SLICES[b])
                   for b, xb in enumerate(xi) if xb)
    p, s, x = ([float(v) for v in vals] for vals in (phi, psi, x))
    return cl._fsum(xb * (k * p[i] * s[j])
                    for b, xb in enumerate(x) if xb for i, j, k in SLICES[b])


def result_of(f, *args):
    """The type and value of f(*args), a float (a numpy float too) as its
    bits, signed zeros included, or the type and message of the error it
    raises.  A NaN is only a NaN: the sign of nan + (-nan) changes once the
    interpreter specialises the addition, so no version of a kernel fixes
    it."""
    try:
        v = f(*args)
    except (OverflowError, ValueError) as exc:
        return "raises", type(exc), str(exc)
    if isinstance(v, (float, np.floating)):
        return type(v), "nan" if math.isnan(v) else struct.pack("<d", v)
    return type(v), v


def numpy_ints_as_python(values):
    """The values with every numpy integer as a Python int, the rest as they are."""
    return [int(v) if isinstance(v, np.integer) else v for v in values]


def inner_oracle(a, b):
    """reference_inner, except where its float p + q overflows although p and
    q are finite: there the finite half-sum 0.5 p + 0.5 q."""
    want = reference_inner(a, b)
    if isinstance(want, float) and math.isinf(want):
        p, q = reference_mul(a.conj(), b).c[0], reference_mul(b.conj(), a).c[0]
        if math.isfinite(p) and math.isfinite(q):
            want = 0.5 * p + 0.5 * q
            assert math.isfinite(want)
    return want


# subnormals, signed zeros and the edge of float64 squares
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -3.3e-320, 1e154, -1e154, 1.2e154,
               1.3e154, -1.3e154, 1e-154)
NUMBERS = {
    "small int": st.integers(-9, 9),
    "wide int": st.integers(-2 ** 80, 2 ** 80),
    "fraction": st.fractions(-1000, 1000, max_denominator=1000),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "edge float": st.sampled_from(EDGE_FLOATS),
}
# one kind for all eight components, or any mix of kinds
COMPONENTS = st.one_of(*(st.lists(v, min_size=8, max_size=8) for v in NUMBERS.values()),
                       st.lists(st.one_of(*NUMBERS.values()), min_size=8, max_size=8))
# integers past 2^64, bools, numpy ints, integral floats and Fractions, alone
# or mixed, for the exact paths; a non-integral Fraction sends the call down
# the float path
EXACT_LIKE = st.one_of(st.integers(-2 ** 100, 2 ** 100), st.booleans(),
                       st.integers(-2 ** 62, 2 ** 62).map(np.int64),
                       st.integers(-2 ** 60, 2 ** 60).map(float),
                       st.fractions(-100, 100, max_denominator=3))
TRILINEAR_ARGS = st.one_of(COMPONENTS, st.lists(EXACT_LIKE, min_size=8, max_size=8))
SPINOR_ARGS = st.one_of(*(st.lists(v, min_size=16, max_size=16)
                          for v in (*NUMBERS.values(), EXACT_LIKE)))

# how a kernel argument arrives: a list, a tuple, an ndarray of the dtype
# numpy picks for the values, or an object ndarray that keeps each as it is
CONTAINERS = {"list": list, "tuple": tuple, "array": np.array,
              "object array": lambda v: np.array(v, dtype=object)}


def arranged(values, layout, block=None):
    """The component list ``values`` in a layout a kernel reads or refuses:
    as given ("n"), one short or one long, as the one row of a 2-D
    argument, or in 16 components with the other chiral block zero ("16")
    or not ("16 mixed"); phi's values fill the first block, the rest the
    last."""
    if layout == "short":
        return values[:-1]
    if layout == "long":
        return values + [0]
    if layout == "2-D":
        return [values]
    if layout.startswith("16"):
        other = [int(layout == "16 mixed")] + [0] * 7
        return values + other if block == "phi" else other + values
    return values


@st.composite
def kernel_args(draw, values, layouts, block=None):
    """One argument: drawn values in a drawn layout and container."""
    arg = arranged(draw(values), draw(st.sampled_from(layouts)), block)
    return CONTAINERS[draw(st.sampled_from(sorted(CONTAINERS)))](arg)


# mostly readable arguments, and every way of refusing one
TRILINEAR_LAYOUTS = ("n", "n", "n", "16", "16 mixed", "short", "long", "2-D")
SPINOR_LAYOUTS = ("n", "n", "n", "short", "long", "2-D")


def coefficients_of(f, a, b):
    """result_of for each coefficient of the octonion f(a, b), or the type and
    message of the error it raises."""
    try:
        coeffs = f(a, b).c
    except (OverflowError, ValueError) as exc:
        return "raises", type(exc), str(exc)
    return [result_of(lambda: v) for v in coeffs]


# the numbers of COMPONENTS, and bools, numpy scalars and non-finite floats
MUL_EXTRAS = st.one_of(st.booleans(), st.sampled_from((math.inf, -math.inf, math.nan)),
                       st.integers(-2 ** 20, 2 ** 20).map(np.int64), st.floats().map(np.float64))
# Python ints at and past the int64 range, for the int forms
WIDE_INTS = (2 ** 40, -2 ** 40, 2 ** 70, -2 ** 70)
MUL_COMPONENTS = st.one_of(COMPONENTS, st.lists(MUL_EXTRAS, min_size=8, max_size=8),
                           st.lists(st.one_of(*NUMBERS.values(), MUL_EXTRAS),
                                    min_size=8, max_size=8),
                           st.lists(st.one_of(st.integers(-9, 9), st.sampled_from(WIDE_INTS)),
                                    min_size=8, max_size=8))
INT_EXAMPLE = [2 ** 40, -2 ** 40, 2 ** 70, 0, 1, -1, -2 ** 70, 7]
# a numpy integer whose square leaves int64
WIDE_INT64 = [np.int64(2 ** 40)] + [0] * 7
# a numpy integer whose negation (conj) leaves int64
MIN_INT64 = [0, np.int64(-2 ** 63)] + [0] * 6
# times [0, float32 1.5, 0, 0, 0, 0, -2^70, 0], coefficient 5 is float32 -0.0
FLOAT32_ZERO = [0, 0, 0, 5e-324, 1e-200, 0, 0, 0]
# a bool, signed zeros, inf, NaN, a Fraction and a numpy int: the table loop
LOOP_EXAMPLE = [True, -0.0, math.inf, math.nan, Fraction(1, 3), np.int64(-7), 0.0, False]


def python_ints(*values):
    return all(type(v) is int for vals in values for v in vals)


# an octonion holds numpy integers as Python ints, so the oracles run on the
# same values; numpy floats overflow alike on both sides, so their warnings
# are ignored
@given(MUL_COMPONENTS, MUL_COMPONENTS, MUL_COMPONENTS)
@example(INT_EXAMPLE, INT_EXAMPLE[::-1], INT_EXAMPLE)
@example(LOOP_EXAMPLE, LOOP_EXAMPLE[::-1], LOOP_EXAMPLE)
@example(INT_EXAMPLE, [0.0] * 8, [-0.0] * 8)
@example(WIDE_INT64, WIDE_INT64, [np.int64(-2 ** 40), 0.5] + [0] * 6)
@example(MIN_INT64, INT_EXAMPLE, [1] * 8)
def check_octonion_kernels(phi, x, psi):
    a, b, c = O(phi), O(x), O(psi)
    pa, pb, pc = (O(numpy_ints_as_python(v)) for v in (phi, x, psi))
    with np.errstate(all="ignore"):
        assert result_of(oc.inner, a, b) == result_of(inner_oracle, pa, pb)
        assert result_of(oc.inner, a, a) == result_of(inner_oracle, pa, pa)
        want = result_of(lambda: -inner_oracle(pa.conj(), reference_mul(pb, pc)))
        assert result_of(tr.trilinear_oct, a, b, c) == want
    # the int form takes Python ints only, and returns None on anything else
    if python_ints(phi, x, psi):
        assert result_of(oc._INT_TRILINEAR, phi, x, psi) == want
    else:
        assert oc._INT_TRILINEAR(phi, x, psi) is None


@pytest.mark.parametrize("entries", [()] + FLIPS)
def test_octonion_kernels_match_two_product_oracle(monkeypatch, entries):
    flipped_table(monkeypatch, entries)
    check_octonion_kernels()


# an octonion holds numpy integers as Python ints, so the loop is run on the
# same values; numpy floats overflow alike on both sides
@given(MUL_COMPONENTS, MUL_COMPONENTS)
@example(INT_EXAMPLE, INT_EXAMPLE[::-1])
@example(LOOP_EXAMPLE, LOOP_EXAMPLE[::-1])
@example(LOOP_EXAMPLE, INT_EXAMPLE)
@example(WIDE_INT64, [np.int64(-2 ** 40), 2 ** 70, 0.5] + [0] * 5)
@example(FLOAT32_ZERO, [0, np.float32(1.5), 0, 0, 0, 0, -2 ** 70, 0])
def check_mul(x, y):
    a, b = O(x), O(y)
    pa, pb = O(numpy_ints_as_python(x)), O(numpy_ints_as_python(y))
    with np.errstate(all="ignore"):
        assert coefficients_of(oc.mul, a, b) == coefficients_of(reference_mul, pa, pb)
        assert coefficients_of(oc.mul, b, a) == coefficients_of(reference_mul, pb, pa)
    # the int product gives the loop's ints on Python ints (numpy integers
    # included, held as Python ints), and None on anything else, where mul
    # runs the loop
    got = oc._INT_PRODUCT(a.c, b.c)
    if python_ints(a.c, b.c):
        assert [result_of(lambda: v) for v in got] == coefficients_of(reference_mul, a, b)
    else:
        assert got is None


@pytest.mark.parametrize("entries", [()] + FLIPS)
def test_mul_matches_table_loop_oracle(monkeypatch, entries):
    flipped_table(monkeypatch, entries)
    check_mul()


def test_mul_sums_negative_zero_terms_to_positive_zero():
    # every term of coefficient k is an underflowing product that adds -0.0;
    # from the int start 0 their sum is +0.0
    a = O([5e-324] * 8)
    for k in range(8):
        b = [0.0] * 8
        for row in oc._TABLE:
            j = next(j for j, (kk, _) in enumerate(row) if kk == k)
            b[j] = -row[j][1] * 5e-324
        got = coefficients_of(oc.mul, a, O(b))
        assert got == coefficients_of(reference_mul, a, O(b))
        assert got[k] == (float, struct.pack("<d", 0.0))


# the matrix form reads the trilinear slices, not the unit table, so a
# flipped table leaves it as it is
@given(kernel_args(TRILINEAR_ARGS, TRILINEAR_LAYOUTS, "phi"),
       kernel_args(TRILINEAR_ARGS, TRILINEAR_LAYOUTS),
       kernel_args(TRILINEAR_ARGS, TRILINEAR_LAYOUTS, "psi"))
@example(list(range(8)), list(range(8)), list(range(8)))
@example(list(range(8)), list(range(8)) + [0] * 8, list(range(8)))
@example(list(range(8)) + [1] + [0] * 7, list(range(7)), [0] * 8 + list(range(8)))
@example(list(range(7)), list(range(7)), list(range(7)))
@example(list(range(16)), list(range(16)), list(range(16)))
def test_trilinear_matrix_matches_per_slice_oracle(phi, x, psi):
    assert (result_of(cl.trilinear_matrix, phi, x, psi)
            == result_of(reference_read_trilinear_matrix, phi, x, psi))


def test_flat_trilinear_table_matches_dense_slices():
    assert [(a, c, k) for a, _, c, k in cl._TRILINEAR_TERMS] == [t for s in SLICES for t in s]
    assert [t[1] for t in cl._TRILINEAR_TERMS] == [b for b, s in enumerate(SLICES) for _ in s]
    for b, terms in enumerate(SLICES):
        want = np.zeros((8, 8), dtype=np.int64)
        for i, j, k in terms:
            want[i, j] = k
        assert (sweeps._trilinear_slices()[b] == want).all()


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1e154, -1e154, 1.2e154])
def test_octonion_kernels_match_oracle_on_edge_floats(value):
    a = O([value, -value, 0, 1.5, value, 2.0, -value, 0.25])
    b = O([value] * 8)
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        assert result_of(oc.inner, x, y) == result_of(inner_oracle, x, y)
    assert (result_of(tr.trilinear_oct, a, b, a)
            == result_of(lambda: -inner_oracle(a.conj(), reference_mul(b, a))))


AS_INTS_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.integers(-2 ** 62, 2 ** 62).map(np.int64),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats(), st.fractions(-100, 100, max_denominator=4))


@given(st.lists(AS_INTS_VALUES, max_size=16))
def test_as_ints_matches_reference(values):
    got, want = cl._as_ints(values), reference_as_ints(values)
    assert got == want
    if want is not None:
        assert all(type(v) is int for v in got)


@pytest.mark.parametrize("values", [
    [True, False, 1, 0], [np.int64(3), np.int64(-2 ** 62), 7], [2.0, -0.0, 1e18, 3],
    [Fraction(4, 2), 1], [1.5, 2], [math.inf, 1], [math.nan, 1], [np.float64(2.0), 1]])
def test_as_ints_edge_cases_match_reference(values):
    got, want = cl._as_ints(values), reference_as_ints(values)
    assert got == want
    assert [type(v) for v in got or []] == [type(v) for v in want or []]


def test_spinor_invariant_matches_reference_as_ints():
    rng = np.random.default_rng(11)
    draws = ([int(v) for v in rng.integers(-9, 10, 16)], [2 ** 65 + k for k in range(16)],
             [True] * 3 + [0] * 13, list(rng.integers(-9, 10, 16)),
             [float(v) for v in rng.integers(-9, 10, 16)], list(rng.normal(size=16)),
             [1e154] * 16, [5e-324, -0.0] * 8, [Fraction(2, 1)] * 16,
             list(range(15)), list(range(17)), [list(range(16))])
    for name, container in CONTAINERS.items():
        for eta in draws:
            assert (result_of(cl.spinor_invariant, container(eta))
                    == result_of(reference_read_spinor_invariant, container(eta))), (name, eta)
    assert result_of(cl.spinor_invariant, list(range(15))) == (
        "raises", ValueError, "spinor needs 16 components")


# The forms as they were summed before they were compiled from their tables:
# the spinor invariant as a loop over its terms with the parity check, and
# trilinear_both as the matrix form's slice loop beside -inner(conj(Phi), X Psi)
# from two full products of the unit-table loop.

def reference_spinor_invariant(eta):
    e = reference_as_ints(eta)
    if e is not None:
        total = sum(q * e[i] * e[j] for i, j, q in cl._Q_SPINOR_TERMS)
        assert total % 2 == 0, "spinor form lost exactness"
        return total // 2
    e = [float(v) for v in eta]
    return cl._fsum(q / 2 * e[i] * e[j] for i, j, q in cl._Q_SPINOR_TERMS)


def reference_read_spinor_invariant(eta):
    """spinor_invariant as it read its argument before the int form checked
    its own input: the flat components, then the integer check of them all."""
    return reference_spinor_invariant(cl._flat(eta, (16,), "spinor needs 16 components"))


def reference_read_trilinear_matrix(phi, x, psi):
    """trilinear_matrix as it read its arguments before the int form checked
    its own input."""
    phi, psi = cl._chiral_8(phi, "phi"), cl._chiral_8(psi, "psi")
    return reference_trilinear_matrix(phi, cl._flat(x, (8,), "vector needs 8 components"), psi)


def reference_trilinear_both(phi, x, psi):
    phi, psi = cl._chiral_8(phi, "phi"), cl._chiral_8(psi, "psi")
    x = cl._flat(x, (8,), "vector needs 8 components")
    ints = [reference_as_ints(v) for v in (phi, x, psi)]
    if None in ints:
        phi, x, psi = (numpy_ints_as_python(vals) for vals in (phi, x, psi))
    else:
        phi, x, psi = ints
    return (reference_trilinear_matrix(phi, x, psi),
            -inner_oracle(O(phi).conj(), reference_mul(O(x), O(psi))))


def both_result_of(phi, x, psi, both=None):
    """result_of for each side of trilinear_both, or the type and message of
    the error it raises."""
    try:
        mat_val, oct_val = (both or tr.trilinear_both)(phi, x, psi)
    except (OverflowError, ValueError) as exc:
        return "raises", type(exc), str(exc)
    return result_of(lambda: mat_val), result_of(lambda: oct_val)


@given(kernel_args(TRILINEAR_ARGS, TRILINEAR_LAYOUTS, "phi"),
       kernel_args(TRILINEAR_ARGS, TRILINEAR_LAYOUTS),
       kernel_args(TRILINEAR_ARGS, TRILINEAR_LAYOUTS, "psi"))
@example(WIDE_INT64, WIDE_INT64, WIDE_INT64)
@example([0.5] + [0] * 7, WIDE_INT64, WIDE_INT64)
@example([np.int64(3 ** 39), Fraction(4, 2)] + [0] * 6, [True, 2.0 ** 60] + [0] * 6,
         [np.int64(-(2 ** 62))] * 8)
@example(list(range(8)), list(range(8)), list(range(8)))
@example(tuple(range(8)), np.arange(8), [0] * 8 + list(range(8)))
@example(list(range(8)), list(range(9)), list(range(8)) + [0] * 8)
@example(list(range(8)) + [1] + [0] * 7, list(range(8)), list(range(8)))
@example(list(range(8)), list(range(8)), list(range(7)))
@example(list(range(7)), list(range(7)), list(range(7)))
@example(list(range(16)), list(range(16)), list(range(16)))
def test_trilinear_both_matches_reference(phi, x, psi):
    # on all-integral input both forms are exact and equal; elsewhere numpy
    # ints become Python ints before either form multiplies them, so no
    # numpy arithmetic overflows (a warning would fail the test)
    got = both_result_of(phi, x, psi)
    assert got == both_result_of(phi, x, psi, reference_trilinear_both)
    if got[0] != "raises" and all(reference_as_ints(v) is not None for v in (phi, x, psi)):
        mat_val, oct_val = tr.trilinear_both(phi, x, psi)
        assert type(mat_val) is int and Fraction(mat_val) == oct_val


def test_trilinear_both_reads_each_argument_once(monkeypatch):
    seen = []
    as_ints = cl._as_ints
    monkeypatch.setattr(cl, "_as_ints", lambda values: seen.append(values) or as_ints(values))
    tr.trilinear_both([0.5] + [0] * 7, [1.0] * 8, list(range(8)))
    assert len(seen) == 3


def test_trilinear_both_makes_no_octonion_on_int_tuples(monkeypatch):
    made = []
    init = oc.SplitOctonion.__init__
    monkeypatch.setattr(oc.SplitOctonion, "__init__",
                        lambda self, coeffs: made.append(coeffs) or init(self, coeffs))
    args = tuple(range(8)), tuple(range(1, 9)), tuple(range(2, 10))
    assert tr.trilinear_both(*args) == tr.trilinear_both(*map(list, args))
    assert made == []
    tr.trilinear_both([0.5] + [0] * 7, *args[1:])            # the float path makes them
    assert len(made) == 3


def test_trilinear_both_does_not_wrap_numpy_ints_on_the_float_path():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat_val, oct_val = tr.trilinear_both([0.5] + [0] * 7, WIDE_INT64, WIDE_INT64)
    assert type(mat_val) is float and mat_val == float(oct_val) == -0.5 * 2.0 ** 80


@given(kernel_args(SPINOR_ARGS, SPINOR_LAYOUTS))
def test_compiled_spinor_invariant_matches_term_loop(eta):
    assert (result_of(cl.spinor_invariant, eta)
            == result_of(reference_read_spinor_invariant, eta))


def basis(k, n=8):
    return [int(i == k) for i in range(n)]


def test_compiled_trilinear_reads_every_table_entry():
    table = {(b, a, c): k for a, b, c, k in cl._TRILINEAR_TERMS}
    for b, i, j in itertools.product(range(8), repeat=3):
        assert cl._TRILINEAR(basis(i), basis(b), basis(j)) == table.get((b, i, j), 0)


@pytest.mark.parametrize("n", range(0, 64, 7))
def test_trilinear_form_is_compiled_from_its_table(n):
    terms = list(cl._TRILINEAR_TERMS)
    a, b, c, k = terms[n]
    terms[n] = (a, b, c, -k)
    negated = trilinear_form(terms)
    triple = basis(a), basis(b), basis(c)
    assert cl._TRILINEAR(*triple) == k
    assert negated(*triple) == -k
    for m, (a2, b2, c2, k2) in enumerate(cl._TRILINEAR_TERMS):
        if m != n:
            assert negated(basis(a2), basis(b2), basis(c2)) == k2


@pytest.mark.parametrize("n", [0, 5, 12])
def test_spinor_form_is_compiled_from_its_table(n):
    terms = list(cl._Q_SPINOR_TERMS)
    i, j, q = terms[n]
    terms[n] = (i, j, -q)
    negated = cl._spinor_form(terms)
    assert cl._SPINOR_FORM(basis(i, 16)) == q // 2
    assert negated(basis(i, 16)) == -q // 2
    assert [negated(basis(m, 16)) for m in range(16) if m != i] == [
        cl._SPINOR_FORM(basis(m, 16)) for m in range(16) if m != i]


# every integer form returns None unless each component is a Python int
NOT_PYTHON_INTS = {"bool": True, "numpy int": np.int64(3), "float": 3.0,
                   "Fraction": Fraction(3)}
INT_FORMS = {"spinor form": (lambda: cl._SPINOR_FORM, (16,)),
             "matrix trilinear": (lambda: cl._TRILINEAR, (8, 8, 8)),
             "octonion trilinear": (lambda: oc._INT_TRILINEAR, (8, 8, 8)),
             "int product": (lambda: oc._INT_PRODUCT, (8, 8))}


@pytest.mark.parametrize("bad", NOT_PYTHON_INTS.values(), ids=NOT_PYTHON_INTS.keys())
@pytest.mark.parametrize("form,sizes", INT_FORMS.values(), ids=INT_FORMS.keys())
def test_int_forms_return_none_unless_every_component_is_a_python_int(form, sizes, bad):
    args = [list(range(-3, n - 3)) for n in sizes]
    assert form()(*args) is not None
    for a, n in enumerate(sizes):
        for k in range(n):
            changed = [list(v) for v in args]
            changed[a][k] = bad
            assert form()(*changed) is None, (a, k)


@pytest.mark.parametrize("v", [2 ** 40, -2 ** 40])
def test_mul_and_trilinear_oct_do_not_wrap_numpy_ints(v):
    # squares past int64: numpy would wrap them (with a RuntimeWarning, an
    # error here); the kernels multiply them as Python ints
    a = O([np.int64(v)] + [0] * 7)
    b = O([np.int64(v), 0.5] + [0] * 6)            # the float path of the forms
    square = oc.mul(a, a).c[0]
    assert (type(square), square) == (int, 2 ** 80)
    assert oc.mul(a, b).c[0] == 2 ** 80
    value = tr.trilinear_oct(O.unit(0), a, a)
    assert (type(value), value) == (Fraction, -2 ** 80)
    assert tr.trilinear_oct(O.unit(0), a, b) == -2 ** 80
    assert tr.trilinear_oct(O([0.5] + [0] * 7), a, a) == -2 ** 79


@pytest.mark.parametrize("v", [2 ** 40, -2 ** 40])
def test_inner_and_norm_sq_do_not_wrap_numpy_ints(v):
    # as in mul: squares past int64 are formed from Python ints
    a = O([np.int64(v), 0, 0, 0, np.int64(3), np.int64(2 * v), 0, 0])
    want = v * v - 9 - 4 * v * v
    assert (type(a.norm_sq()), a.norm_sq()) == (int, want)
    assert oc.norm_sq(a) == oc.inner(a, a) == want
    assert oc.inner(a, O([np.int64(v), 0.5] + [0] * 6)) == v * v
    assert oc.inner(O([1] + [0] * 7), a) == v


# The spinor rotor as it was before its turn was compiled: one comprehension
# over the plane's signed permutation.

def reference_rotate_spinor_list(eta, r):
    c, s = cl.half_angle(r.compact, r.theta)
    return [c * e - s * (g * eta[j] + 0.0)
            for e, (j, g) in zip(eta, cl._BIV_REP[r.mu, r.nu])]


def bits_of(values):
    """result_of for each value: its type and float bits, a NaN as NaN."""
    return [result_of(lambda v=v: v) for v in values]


# signed zeros, subnormals, values near float max, non-finite values, ints
TURN_SPINORS = (
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.5e-308, -1.0,
     3.0, -0.0, 1e300, -1e300, 0.0, 5e-324, 7.25, -2.0],
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -math.nan, 2.0,
     -math.inf, 1e300, -0.0, math.nan, 5e-324, math.inf, -1e300, 0.0],
    [-0.0] * 16,
    list(range(-8, 8)),
    np.random.default_rng(3).normal(size=16).tolist(),
)
TURN_THETAS = (0.0, -0.0, 0.7, -2.9, 2 * math.pi, 30.0)


def test_a_rotor_carries_its_half_angle_pair():
    # formed once, when the rotor is built; the kernels read it from there
    for mu, nu in itertools.permutations(range(8), 2):
        for theta in TURN_THETAS:
            r = cl.rotor(mu, nu, theta)
            want = cl.half_angle(cl.METRIC[mu] * cl.METRIC[nu] > 0, theta)
            assert bits_of([r.c, r.s]) == bits_of(want), (mu, nu, theta)
    # cosh 750 overflows: the boost is refused when it is built
    with pytest.raises(OverflowError):
        cl.rotor(0, 4, 1500.0)


@pytest.mark.parametrize("mu,nu", itertools.permutations(range(8), 2))
def test_turn_matches_the_comprehension_bit_for_bit(mu, nu):
    for theta in TURN_THETAS:
        r = cl.rotor(mu, nu, theta)
        for eta in TURN_SPINORS:
            want = bits_of(reference_rotate_spinor_list(eta, r))
            assert bits_of(cl.rotate_spinor_list(eta, r)) == want, (theta, eta)
            floats = [float(v) for v in eta]
            got = cl.rotate_spinor(np.array(floats), r)
            assert got.dtype == np.float64 and got.shape == (16,)
            assert bits_of(got.tolist()) == bits_of(reference_rotate_spinor_list(floats, r))


@pytest.mark.parametrize("plane,row", [((0, 4), 0), ((2, 5), 7), ((6, 7), 12), ((3, 1), 15)])
def test_one_flipped_action_sign_changes_that_row_of_the_turn(monkeypatch, plane, row):
    eta = [float(k + 1) for k in range(16)]
    r = cl.rotor(*plane, 0.9)
    before = cl.rotate_spinor(eta, r)
    action = list(cl._BIV_REP[plane])
    j, g = action[row]
    action[row] = (j, -g)
    monkeypatch.setitem(cl._BIV_REP, plane, tuple(action))
    after = cl.rotate_spinor(eta, r)
    assert np.flatnonzero(after != before).tolist() == [row]
    assert bits_of(after.tolist()) == bits_of(reference_rotate_spinor_list(eta, r))


def test_the_turn_compiles_nothing_per_plane(monkeypatch):
    # every plane's action is in _BIV_REP from import, read off the unit
    # table, and read from there by the one turn compiled at import: nothing
    # is composed or compiled, neither from the table nor from the paper's
    # matrices
    assert sorted(cl._BIV_REP) == list(itertools.permutations(range(8), 2))

    def refuse(*args, **kwargs):
        raise AssertionError("composed or compiled after import")
    monkeypatch.setattr(cl, "compiled", refuse)
    monkeypatch.setattr(cl, "_spinor_tables", refuse)
    monkeypatch.setattr(mx.GMat, "__matmul__", refuse)
    for mu, nu in itertools.permutations(range(8), 2):
        cl.rotate_spinor_list([1.0] * 16, cl.rotor(mu, nu, 0.5))
        cl.plane_generator(mu, nu)


def golden_float_inputs():
    """The float components of the one-shot golden corpus: (phi, x, psi) of
    its float-mode trilinear calls and the spinors it rotates."""
    from test_oneshot_golden import CORPUS, _flags
    triples, spinors = set(), set()
    for argv in CORPUS:
        flags = _flags(argv)
        values = {k: tuple(float(v) for v in flags[k].split(","))
                  for k in ("phi", "x", "psi", "components") if k in flags}
        if (argv[0] == "trilinear" and flags.get("mode", "float") == "float"
                and all(len(values[k]) == 8 for k in ("phi", "x", "psi"))):
            triples.add((values["phi"], values["x"], values["psi"]))
        if flags.get("target") == "spinor" and len(values["components"]) == 16:
            spinors.add(values["components"])
    return sorted(triples), sorted(spinors)


GOLDEN_TRIPLES, GOLDEN_SPINORS = golden_float_inputs()


def test_float_forms_match_the_term_loops_bit_for_bit():
    assert len(GOLDEN_TRIPLES) >= 5 and len(GOLDEN_SPINORS) >= 5
    with np.errstate(all="ignore"):
        for phi, x, psi in GOLDEN_TRIPLES:
            assert (result_of(cl.trilinear_matrix, phi, x, psi)
                    == result_of(reference_trilinear_matrix, phi, x, psi))
            assert (both_result_of(phi, x, psi)
                    == both_result_of(phi, x, psi, reference_trilinear_both))
        for eta in GOLDEN_SPINORS:
            assert result_of(cl.spinor_invariant, eta) == result_of(reference_spinor_invariant,
                                                                   eta)


# terms of the matrix table whose octonion product e_b e_c is not a scalar,
# so that flipping it leaves inner's scalar entries as they are
@pytest.mark.parametrize("n", [1, 45])
def test_trilinear_both_sides_are_independent_evaluations(monkeypatch, n):
    # each side moves only with what it reads: the matrix side with its
    # compiled form on both paths, the octonion side with its int form on
    # the int path and with the unit table on the float path
    tr.equivalence_map()                  # verified on the sound forms
    a, b, c, k = cl._TRILINEAR_TERMS[n]
    assert b != c
    phi, x, psi = basis(a), basis(b), basis(c)
    halves = [v / 2 for v in phi], x, [2.0 * v for v in psi]      # mul(x, psi) runs the loop
    assert tr.trilinear_both(phi, x, psi) == (k, k)
    with monkeypatch.context() as mp:
        negated_matrix_term(mp, n)
        assert tr.trilinear_both(phi, x, psi) == (-k, k)
        assert tr.trilinear_both(*halves) == (-k, k)
    # e_b e_c negated: -conj(e_a) . (e_b e_c) changes sign, on the int path
    # with the compiled form and on the float path with the table mul reads
    forms = oc._forms(flipped([(N[b], N[c])]))
    monkeypatch.setattr(oc, "_INT_TRILINEAR", forms["_INT_TRILINEAR"])
    assert tr.trilinear_both(phi, x, psi) == (k, -k)
    assert tr.trilinear_both(*halves) == (k, k)
    monkeypatch.setattr(oc, "_TABLE", forms["_TABLE"])
    assert both_result_of(*halves) == (result_of(lambda: float(k)), result_of(lambda: -float(k)))


def test_single_call_kernels_form_only_the_products_they_need(monkeypatch):
    # _forms compiles one int product, which mul calls; the int trilinear
    # form is compiled from its own term table and forms no product, and
    # any other product is mul's loop over the table.  Counted here, each
    # product the int form gives is logged as "int" and each pass of the
    # loop over the table as "loop"
    tr.equivalence_map()                  # verified before the count
    calls = []
    build = oc._product

    def counted_product(table):
        product = build(table)

        def counted(a, b):
            out = product(a, b)
            if out is not None:
                calls.append("int")
            return out
        return counted

    class CountedTable(tuple):
        def __iter__(self):
            calls.append("loop")
            return super().__iter__()

    monkeypatch.setattr(oc, "_product", counted_product)
    for name, value in oc._forms(oc._TABLE).items():
        monkeypatch.setattr(oc, name, value)
    monkeypatch.setattr(oc, "_TABLE", CountedTable(oc._TABLE))

    def made(f, *args):
        calls.clear()
        f(*args)
        return calls

    a, b, c = O(range(8)), O(range(3, 11)), O([Fraction(1, 3)] * 8)
    assert made(oc.inner, a, b) == []
    assert made(oc.mul, a, b) == ["int"]
    assert made(oc.mul, a, c) == ["loop"]
    assert made(tr.trilinear_oct, a, b, c) == ["loop"]
    assert made(tr.trilinear_oct, c, b, a) == ["int"]
    assert made(tr.trilinear_oct, a, b, a) == []
    assert made(tr.trilinear_both, list(range(8)), list(range(3, 11)), [1] * 8) == []
    assert made(tr.trilinear_both, list(range(8)), list(range(3, 11)), c.c) == ["loop"]
