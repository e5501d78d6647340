import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splitoct import clifford as cl
from splitoct import matrices as mx
from splitoct import octonion as oc
from splitoct import units
from splitoct import triality as tr

from oracles import (embed_phi, embed_psi, matrix_trilinear_tensor, oct_trilinear_tensor,
                     spinor_quadratic_split, table_matrix, triality_rotor, xi_basis_change)


def test_xi_of_zero():
    assert not xi_basis_change(np.zeros(16)).any()


def test_xi_phi0_rows():
    # phi = e0 lands only in rows 1 and 6, with opposite signs
    xi = xi_basis_change(embed_phi([1, 0, 0, 0, 0, 0, 0, 0]))
    nz = np.nonzero(np.abs(xi) > 1e-15)[0]
    assert list(nz) == [1, 6]
    assert abs(xi[1] - 1 / math.sqrt(2)) < 1e-15
    assert abs(xi[6] + 1 / math.sqrt(2)) < 1e-15


def test_xi_matrix_sqrt2_unitary():
    m = mx.XI_M
    assert m @ m.conj_t() == mx.GMat.eye(16).scale(2)
    assert m.conj_t() @ m == mx.GMat.eye(16).scale(2)


def test_pinned_convention_is_transpose_original():
    conv = tr.PINNED_CONVENTION
    assert conv.pairing == "transpose"
    assert conv.b_form == "original"


def test_the_pin_selects_the_spinor_form():
    # clifford states the convention and its form; the pin of matrices.py
    # selects them among the composed candidates; triality re-exports it
    assert tr.PINNED_CONVENTION is cl.PINNED_CONVENTION
    assert mx._PIN == cl.PINNED_CONVENTION
    assert mx._Q_SPINOR_2 == mx._candidate_forms()[cl.PINNED_CONVENTION]
    assert mx._Q_SPINOR_2 == mx.GMat.from_entries(16, ((i, j, q, 0)
                                                      for i, j, q in cl._Q_SPINOR_TERMS))


def test_pinned_spinor_form_is_twice_the_split_form():
    # the one import-time equality: real, even and diagonal, 2 g_kk on the
    # diagonal of both chiral halves
    assert cl._Q_SPINOR_TERMS == tuple((k, k, 2 * cl.METRIC[k % 8]) for k in range(16))
    assert mx._Q_SPINOR_2 == mx._SPLIT.scale(2)


def test_pin_needs_exactly_one_diagonalizing_candidate():
    forms = mx._candidate_forms()
    pinned = mx.pin_xi_convention(forms)
    assert pinned == cl.PINNED_CONVENTION
    others = {conv: mat for conv, mat in forms.items() if conv != pinned}
    with pytest.raises(RuntimeError, match="got 0"):
        mx.pin_xi_convention(others)
    twice = {**others, cl.XiConvention("dagger", "original"): forms[pinned], pinned: forms[pinned]}
    with pytest.raises(RuntimeError, match="got 2"):
        mx.pin_xi_convention(twice)


def test_pinned_form_diagonalizes():
    rng = np.random.default_rng(2)
    for _ in range(100):
        phi = rng.integers(-9, 10, size=8)
        psi = rng.integers(-9, 10, size=8)
        f, g = spinor_quadratic_split(phi, psi)
        total = cl.spinor_invariant(np.concatenate([phi, psi]).astype(float))
        assert float(total) == f + g


def test_oct_from_components_slots():
    assert tr.oct_from_components([1, 0, 0, 0, 0, 0, 0, 0]) == oc.SplitOctonion.unit(0)
    assert tr.oct_from_components([0, 0, 0, 0, 1, 0, 0, 0]) == oc.SplitOctonion.unit("I")


def test_oct_norm_matches_quadratic_form():
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = [int(v) for v in rng.integers(-9, 10, size=8)]
        assert tr.oct_from_components(x).norm_sq() == int(cl.quadratic_form(x))


def test_correspondence_check():
    rep = tr.correspondence_check(seed=4)
    assert rep.passed, rep.failure_details


def test_correspondence_single_components():
    e0 = tr.oct_from_components([1, 0, 0, 0, 0, 0, 0, 0])
    assert oc.mul(e0.conj(), e0).c[0] == 1
    e4 = tr.oct_from_components([0, 0, 0, 0, 1, 0, 0, 0])
    assert oc.mul(e4.conj(), e4).c[0] == -1


class TestTrilinearOct:
    def test_scalar_case(self):
        one = oc.SplitOctonion.unit(0)
        x = oc.SplitOctonion.scalar(5)
        assert tr.trilinear_oct(one, x, one) == -5

    def test_zero_argument(self):
        z = oc.SplitOctonion.zero()
        one = oc.SplitOctonion.unit(0)
        assert tr.trilinear_oct(z, one, one) == 0


class TestOracle:
    def test_dictionary_is_identity_scale_one(self):
        d = tr.trilinear_equivalence_oracle()
        assert d.phi_map == d.x_map == d.psi_map == tuple((k, 1) for k in range(8))
        assert d.scale == Fraction(1)
        assert d.max_residual == 0

    def test_dictionary_slots_invertible(self):
        d = tr.equivalence_map()
        for slot in (d.phi_map, d.x_map, d.psi_map):
            assert sorted(i for i, _ in slot) == list(range(8))
            assert all(s in (1, -1) for _, s in slot)

    def test_scalar_triple(self):
        t1 = matrix_trilinear_tensor()
        t2 = oct_trilinear_tensor()
        assert t1[0, 0, 0] == t2[0, 0, 0] == -1

    def test_random_triples_residual_zero(self):
        rep = tr.dictionary_random_check(seed=8)
        assert rep.passed


def test_trilinear_both_all_ones():
    m, o = tr.trilinear_both([1] * 8, [1] * 8, [1] * 8)
    assert Fraction(m) == o


def test_trilinear_both_reads_16_component_chiral_spinors():
    phi, x, psi = list(range(1, 9)), [1, -2, 0, 3, 1, 1, -1, 2], [2, 0, -1, 1, 3, 0, 1, -2]
    want = tr.trilinear_both(phi, x, psi)
    assert want[0] == want[1] == cl.trilinear_matrix(phi, x, psi)
    assert tr.trilinear_both(phi + [0] * 8, x, [0] * 8 + psi) == want
    assert tr.trilinear_both(phi, x, [0] * 8 + psi) == want
    assert tr.trilinear_both(phi + [0] * 8, x, psi) == want


@pytest.mark.parametrize("phi,psi", [(list(range(1, 9)) + [0] * 7 + [1], [1] * 8),
                                     ([1] * 8, [0] * 7 + [1] + [1] * 8)])
def test_trilinear_both_refuses_wrong_chirality_block(phi, psi):
    with pytest.raises(cl.ChiralityError):
        tr.trilinear_both(phi, [1] * 8, psi)


class TestGeneratorTables:
    def test_L01(self):
        rep = tr.infinitesimal_table_check("01")
        assert rep.passed, rep.failure_details
        assert rep.cases == 3 * 64

    def test_L04(self):
        rep = tr.infinitesimal_table_check("04")
        assert rep.passed, rep.failure_details

    def test_unknown_plane(self):
        with pytest.raises(ValueError):
            tr.infinitesimal_table_check("23")

    SUITES = {"L01": lambda: tr.infinitesimal_table_check("01"),
              "L04": tr.boost_table_check, "COMPOSITE": tr.role_swap_check}
    TABLES = [f"{owner}_{part}" for owner in SUITES for part in ("X", "PHI", "PSI")]

    @pytest.mark.parametrize("table", TABLES)
    def test_any_wrong_entry_fails_and_is_named(self, monkeypatch, table):
        # every entry negated, or nudged by 2e-9, fails the owning report
        owner, part = table.split("_")
        suite = self.SUITES[owner]
        good = table_matrix(getattr(units, table))
        for i, j in itertools.product(range(8), repeat=2):
            for value in ([-good[i, j]] if good[i, j] else []) + [good[i, j] + 2e-9]:
                bad = good.copy()
                bad[i, j] = value
                monkeypatch.setattr(units, table, tuple((a, b, bad[a, b])
                                                    for a, b in zip(*np.nonzero(bad))))
                rep = suite()
                assert rep.failures == 1, (table, i, j, value)
                assert rep.failure_details[0].startswith(
                    f"{part.lower()}[{i},{j}] table {float(value)} generator "), rep.failure_details
        # two nudges at once, the later entry listed first: both fail, named
        # in C order with the exact generator entry, which the good table holds
        bad = good.copy()
        bad[5, 2] += 2e-9
        bad[3, 3] += 1e-3
        monkeypatch.setattr(units, table, ((5, 2, bad[5, 2]), (3, 3, bad[3, 3]),
                                           *((a, b, good[a, b]) for a, b in zip(*np.nonzero(good))
                                             if (a, b) not in ((5, 2), (3, 3)))))
        rep = suite()
        assert rep.failure_details == [
            f"{part.lower()}[{i},{j}] table {float(bad[i, j])} generator {Fraction(good[i, j])}"
            for i, j in ((3, 3), (5, 2))]
        assert (rep.cases, rep.failures) == (3 * 64 + (owner == "L04"), 2)

    def test_repeated_entries_add(self, monkeypatch):
        # a table entry is the sum of its coefficients: halves pass, and an
        # entry listed twice fails as twice its value
        table = units.L01_PHI
        monkeypatch.setattr(units, "L01_PHI", tuple((i, j, c / 2) for i, j, c in table
                                                    for _ in range(2)))
        assert tr.infinitesimal_table_check("01").passed
        monkeypatch.setattr(units, "L01_PHI", table + table[:1])
        assert tr.infinitesimal_table_check("01").failure_details == [
            "phi[0,1] table 1.0 generator 1/2"]

    def test_boost_planes_reported(self):
        rep = tr.boost_table_check()
        assert rep.passed
        assert rep.meta["spinor_isotropic_planes"] == [
            "Gamma0Gamma4", "Gamma1Gamma5", "Gamma2Gamma6", "Gamma3Gamma7"]


class TestTrialityRotor:
    def test_theta_zero_is_identity(self):
        x = np.arange(8.0)
        assert np.allclose(triality_rotor(0.0).act_vector(x), x)
        eta = np.arange(16.0)
        assert np.allclose(triality_rotor(0.0).act_spinor(eta), eta)

    def test_role_swap_generators(self):
        rep = tr.role_swap_check()
        assert rep.passed, rep.failure_details

    def test_x_generator_matches_phi_pattern_of_L01(self):
        # the composite moves (x, phi, psi) exactly the way L01 moves (phi,
        # psi, x): on the exact generators, and so in the tables
        gens = [cl.plane_generator(mu, nu) for mu, nu in units.ROLE_SWAP_PLANES]
        composite = [[[sum(col) / 2 for col in zip(*rows)] for rows in zip(*parts)]
                     for parts in zip(*gens)]
        gx, gphi, gpsi = cl.plane_generator(0, 1)
        assert composite == [gphi, gpsi, gx]
        assert ((units.COMPOSITE_X, units.COMPOSITE_PHI, units.COMPOSITE_PSI)
                == (units.L01_PHI, units.L01_PSI, units.L01_X))

    def test_psi_full_angle_rotation(self):
        theta = 1e-6
        eta = embed_psi([1, 0, 0, 0, 0, 0, 0, 0])
        out = triality_rotor(theta).act_spinor(eta)[8:16]
        assert abs(out[1] - theta) < 1e-9
        assert np.max(np.abs(out[2:])) < 1e-9


def test_half_angle_law():
    # vectors return at 2pi, spinors negate; both return at 4pi
    x = np.array([1.0, -2.0, 3.0, 0.0, 1.0, 0.0, 0.0, 2.0])
    eta = np.arange(1.0, 17.0)
    r2 = cl.rotor(2, 3, 2 * math.pi)
    r4 = cl.rotor(2, 3, 4 * math.pi)
    assert np.allclose(cl.rotate_vector(x, r2), x, atol=1e-12)
    assert np.allclose(cl.rotate_spinor(eta, r2), -eta, atol=1e-12)
    assert np.allclose(cl.rotate_vector(x, r4), x, atol=1e-12)
    assert np.allclose(cl.rotate_spinor(eta, r4), eta, atol=1e-12)


def test_double_cover_sweep():
    rep = tr.double_cover_check()
    assert rep.passed


def test_rotor_invariance_sample():
    rep = tr.rotor_invariance_check(seed=3)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_trilinear_invariance_sample():
    rep = tr.trilinear_invariance_check(seed=3)
    assert rep.passed
    assert rep.max_residual <= 1e-12


# exact kernels at and past the int64 boundary, against the octonion side
WIDE_INT = (st.integers(-9, 9) | st.integers(-(2 ** 66), 2 ** 66)
            | st.sampled_from((2 ** 31, 3 * 10 ** 9, 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1)))
WIDE_8 = st.lists(WIDE_INT, min_size=8, max_size=8)


@given(WIDE_8)
def test_spinor_invariant_exact_past_int64(v):
    want = oc.norm_sq(oc.SplitOctonion(v))
    assert cl.spinor_invariant(v + [0] * 8) == want
    assert cl.spinor_invariant([0] * 8 + v) == want


@given(WIDE_8, WIDE_8, WIDE_8)
def test_trilinear_matrix_exact_past_int64(phi, x, psi):
    mat_val, oct_val = tr.trilinear_both(phi, x, psi)
    assert mat_val == oct_val
    assert cl.trilinear_matrix(phi, x, psi) == mat_val
