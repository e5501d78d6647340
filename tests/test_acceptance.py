"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""
import json
import time

import numpy as np

from splitoct import cli
from splitoct import clifford as cl
from splitoct import octonion as oc
from splitoct import units
from splitoct import triality as tr

from oracles import vector_to_matrix_exact


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_c01_multiplication_table_exact():
    t0 = time.time()
    rep = oc.verify_table()
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 1.0
    _report(1, f"64 basis products exact in {elapsed:.3f}s", ok)


def test_c02_unit_squares():
    U = oc.SplitOctonion.unit
    ok = all(oc.mul(U(4 + n), U(4 + n)) == oc.SplitOctonion.scalar(1) for n in (1, 2, 3))
    ok &= all(oc.mul(U(n), U(n)) == oc.SplitOctonion.scalar(-1) for n in (1, 2, 3))
    ok &= oc.mul(U(4), U(4)) == oc.SplitOctonion.scalar(1)
    _report(2, "J_n^2=+1, j_n^2=-1, I^2=+1 exact", ok)


def test_c03_moufang_suite():
    t0 = time.time()
    rep = oc.verify_moufang()
    elapsed = time.time() - t0
    ok = rep.passed and rep.cases == 343 * 3 + 49 * 3 and elapsed < 1.0
    _report(3, f"Moufang {rep.cases} cases, 0 failures, {elapsed:.3f}s", ok)


def test_c04_malcev_suite():
    t0 = time.time()
    rep = oc.verify_malcev()
    elapsed = time.time() - t0
    ok = rep.passed and rep.cases == 343 * 2 + 2401 * 2 + 7 ** 5 and elapsed < 30.0
    _report(4, f"Malcev {rep.cases} cases, 0 failures, {elapsed:.2f}s", ok)


def test_c05_associator_table():
    rep = oc.verify_associators()
    _report(5, f"associator families + closure, {rep.cases} cases exact", rep.passed)


def test_c06_clifford_sweep():
    t0 = time.time()
    rep = cl.verify_clifford()
    elapsed = time.time() - t0
    ok = rep.passed and rep.cases == 64 and elapsed < 1.0
    _report(6, f"anticommutation sweep 64 pairs exact in {elapsed:.3f}s "
               "(alpha tables needed no sign correction)", ok)


def test_c07_quadratic_form():
    rng = np.random.default_rng(tr.DEFAULT_SEED)
    ok = True
    for _ in range(1000):
        x = rng.integers(-9, 10, size=8)
        X = vector_to_matrix_exact(x)
        q = int(sum(cl.METRIC[m] * int(x[m]) ** 2 for m in range(8)))
        if not (X @ X == cl.GMat.eye(16).scale(q)):
            ok = False
            break
    _report(7, "X^2 = Q(x) Id exact on 1000 random integer vectors", ok)


def test_c08_b_checks():
    B = cl.b_matrix()
    ok = B @ B == cl.GMat.eye(16)
    ok &= all(cl.gamma(mu).T == B @ cl.gamma(mu) @ B for mu in range(8))
    _report(8, "B^2 = Id and Gamma^T = B Gamma B exact for all mu", ok)


def test_c09_rotor_invariance():
    rep = tr.rotor_invariance_check(1000, seed=tr.DEFAULT_SEED, tol=1e-12)
    ok = rep.passed and rep.max_residual <= 1e-12
    _report(9, f"1000 random rotors preserve both invariants, "
               f"max residual {rep.max_residual:.2e} <= 1e-12", ok)


def test_c10_infinitesimal_tables():
    r1 = tr.infinitesimal_table_check("01")
    r2 = tr.infinitesimal_table_check("04")
    ok = r1.passed and r2.passed and r1.exact and r2.exact
    _report(10, "every L01 and L04 table coefficient equals the exact plane generator", ok)


def test_c11_role_swap():
    rep = tr.role_swap_check()
    ok = rep.passed and rep.exact
    # x must imitate the L01 phi pattern; psi is a full-angle (0,1) rotation:
    # read off the exact composite generator, half the sum of its planes'
    gens = [cl.plane_generator(mu, nu) for mu, nu in units.ROLE_SWAP_PLANES]
    gx, _, gpsi = ([[sum(col) / 2 for col in zip(*rows)] for rows in zip(*parts)]
                   for parts in zip(*gens))
    ok &= gx == cl.plane_generator(0, 1)[1]
    ok &= gpsi[2:] == [[0] * 8] * 6
    _report(11, "composite rotor tables equal its exact generator, half the sum of its "
                "four plane generators, and match the role-swap pattern", ok)


def test_c12_double_cover():
    rep = tr.double_cover_check(tol=1e-12)
    _report(12, "compact rotors: 2pi negates spinors and fixes vectors, "
                "4pi fixes both, <= 1e-12", rep.passed)


def test_c13_correspondence():
    rep = tr.correspondence_check(1000, seed=tr.DEFAULT_SEED)
    ok = rep.passed and rep.exact
    _report(13, f"conj(X)X = X^2, conj(Phi)Phi = phi^T B phi, conj(Psi)Psi = "
                f"psi^T B psi exact on 1000 integer samples "
                f"({tr.PINNED_CONVENTION.label})", ok)


def test_c14_trilinear_equivalence():
    d = tr.trilinear_equivalence_oracle()
    ok = d.max_residual == 0
    rep = tr.dictionary_random_check(1000, seed=tr.DEFAULT_SEED)
    ok &= rep.passed
    inv = tr.trilinear_invariance_check(200, seed=tr.DEFAULT_SEED, tol=1e-12)
    ok &= inv.passed
    identity = d.phi_map == d.x_map == d.psi_map == tuple((k, 1) for k in range(8))
    _report(14, f"signed-permutation dictionary (identity: {identity}, "
                f"scale {d.scale}) exact on 1000 random triples; invariance "
                f"max residual {inv.max_residual:.2e} <= 1e-12", ok)


def test_c15_basis_generation():
    generated = oc.generate_basis_from_J()
    standard = oc.StructureConstants.standard()
    ok = json.dumps(generated.to_json()) == json.dumps(standard.to_json())
    _report(15, "table generated from the three J_n is byte-identical to the "
                "hard-coded constants", ok)


def test_c16_cli_contract(capsys):
    code = cli.main(["verify", "all"])
    out1 = capsys.readouterr().out
    ok = code == 0
    payload = json.loads(out1)
    ok &= payload["passed"] and all(r["failures"] == 0 for r in payload["reports"])
    code2 = cli.main(["verify", "all"])
    out2 = capsys.readouterr().out
    ok &= code2 == 0 and out1 == out2
    with capsys.disabled():
        _report(16, "`sot verify all` exits 0 with every suite passing and "
                    "byte-identical JSON under the fixed seed", ok)
