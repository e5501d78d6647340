import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import splitoct
from splitoct import clifford as cl
from splitoct import matrices as mx
from splitoct import octonion as oc
from splitoct import units
from splitoct.report import VerificationReport

from oracles import (NotGrade1Error, embed_phi, embed_psi, matrix_to_vector, rotor_inverse,
                     rotor_matrix, table_matrix, to_complex, triality_rotor,
                     vector_to_matrix, vector_to_matrix_exact)


def test_alpha_index_range():
    with pytest.raises(ValueError):
        cl.alpha(8)
    with pytest.raises(ValueError):
        cl.gamma(-1)


def test_alpha1_is_i_identity():
    a = to_complex(cl.alpha(1))
    assert np.array_equal(a.imag, np.eye(8, dtype=np.int64))
    assert not a.real.any()


def test_alpha0_diagonal():
    a = to_complex(cl.alpha(0))
    assert np.array_equal(np.diag(a.real), np.array([-1, 1, 1, 1, -1, -1, -1, 1]))
    assert not a.imag.any()


def test_alpha_eight_nonzeros_each():
    for mu in range(8):
        a = to_complex(cl.alpha(mu))
        assert np.count_nonzero(a.real) + np.count_nonzero(a.imag) == 8


def test_gamma_squares():
    ident = mx.GMat.eye(16)
    for mu in range(4):
        assert cl.gamma(mu) @ cl.gamma(mu) == ident
    for nu in range(4, 8):
        assert cl.gamma(nu) @ cl.gamma(nu) == -ident


def test_gamma_block_structure():
    g = to_complex(cl.gamma(1))
    assert not g.real[0:8, 0:8].any() and not g.imag[0:8, 0:8].any()
    assert not g.real[8:16, 8:16].any() and not g.imag[8:16, 8:16].any()


def test_gamma01_anticommute():
    g0, g1 = cl.gamma(0), cl.gamma(1)
    assert g0 @ g1 + g1 @ g0 == mx.GMat.zeros(16)


def test_clifford_sweep():
    rep = cl.verify_clifford()
    assert rep.passed
    assert rep.cases == 64


def reference_clifford():
    """The per-pair GMat sweep that the stacked contraction replaced."""
    rep = VerificationReport("clifford")
    ident = mx.GMat.eye(16)
    for mu in range(8):
        for nu in range(8):
            anti = mx._GAMMA[mu] @ mx._GAMMA[nu] + mx._GAMMA[nu] @ mx._GAMMA[mu]
            want = ident.scale(2 * cl.METRIC[mu]) if mu == nu else mx.GMat.zeros((16, 16))
            bad = np.argwhere(to_complex(anti) != to_complex(want))
            if len(bad):
                rep.record_case(False, f"pair ({mu},{nu}) entry {tuple(int(i) for i in bad[0])}")
            else:
                rep.record_case(True)
    return rep


def _gamma_with(mu, g):
    gammas = list(mx._GAMMA)
    gammas[mu] = g
    return gammas


def _entry_negated(g, k=0):
    """The square GMat g with its k-th nonzero entry, in C order, negated."""
    entries = list(g.entries())
    r, c, vr, vi = entries[k]
    entries[k] = (r, c, -vr, -vi)
    return mx.GMat.from_entries(len(g.rows), entries)


# Gamma_3 replaced by Gamma_2; one entry of Gamma_5 negated; Gamma_6 doubled
CORRUPT_GAMMAS = [
    (3, lambda: mx._GAMMA[2]),
    (5, lambda: _entry_negated(mx._GAMMA[5])),
    (6, lambda: mx._GAMMA[6].scale(2)),
]


@pytest.mark.parametrize("mu,make", CORRUPT_GAMMAS)
def test_clifford_witnesses_match_pair_loop(monkeypatch, mu, make):
    monkeypatch.setattr(mx, "_GAMMA", _gamma_with(mu, make()))
    rep = cl.verify_clifford()
    want = reference_clifford()
    assert (rep.cases, rep.failures, rep.failure_details) == (
        want.cases, want.failures, want.failure_details)
    assert rep.failures > 0
    assert all("np." not in d for d in rep.failure_details)


def test_clifford_compares_products_without_forming_sums(monkeypatch):
    # each product is compared with g_mumu Id or with -Gamma_nu Gamma_mu
    def refuse(self, other, sign):
        raise AssertionError("verify_clifford added two matrices")

    monkeypatch.setattr(mx.GMat, "_plus", refuse)
    rep = cl.verify_clifford()
    assert rep.passed and rep.cases == 64


def test_clifford_witness_names_plain_ints(monkeypatch):
    monkeypatch.setattr(mx, "_GAMMA", _gamma_with(3, mx._GAMMA[2]))
    assert cl.verify_clifford().failure_details[0] == "pair (2,3) entry (0, 0)"


def _gammas_from(alphas):
    """Gamma_mu built from the alpha tables as matrices.py builds it."""
    return [mx._big_a(a) if mu < 4 else mx._big_a(a).times_i() for mu, a in enumerate(alphas)]


# Broken Clifford data is refused at import, never a verify verdict:
# matrices.py, which every `verify` and `matrices` command imports, raises
# AssertionError unless verify_clifford passes on the Gamma built from
# _ALPHA and XI_M XI_M^dag == 2 Id.  Every sign of either table must trip
# its check.

@pytest.mark.parametrize("mu", range(8))
def test_every_alpha_sign_flip_fails_the_clifford_relation(monkeypatch, mu):
    assert _gammas_from(mx._ALPHA) == mx._GAMMA
    for k in range(8):
        alphas = list(mx._ALPHA)
        alphas[mu] = _entry_negated(alphas[mu], k)
        monkeypatch.setattr(mx, "_GAMMA", _gammas_from(alphas))
        rep = cl.verify_clifford()
        assert not rep.passed, k
        pairs = [re.match(r"pair \((\d),(\d)\) ", d).groups() for d in rep.failure_details]
        assert all(str(mu) in p for p in pairs), (k, rep.failure_details)


def test_every_xi_sign_flip_fails_sqrt2_unitarity():
    two = mx.GMat.eye(16).scale(2)
    assert len(list(mx.XI_M.entries())) == 32 and mx.XI_M @ mx.XI_M.conj_t() == two
    for k in range(32):
        xi = _entry_negated(mx.XI_M, k)
        assert not xi @ xi.conj_t() == two, k


class TestGMatCeiling:
    """GMat holds Python ints: products past the int64 ceiling are exact."""

    # the largest k with 16 k^2 < 2^63 (the old int64 bound), the first k
    # past it, and 2^70
    K = math.isqrt((2 ** 63 - 1) // 16)
    WIDE = (K, K + 1, 2 ** 70)

    def test_wide_square_is_exact(self):
        x = [4 * 10 ** 9, -3, 0, 2 ** 70, 5, 0, -(2 ** 66), 1]
        X = vector_to_matrix_exact(x)
        q = sum(g * v * v for g, v in zip(cl.METRIC, x))
        assert X @ X == mx.GMat.eye(16).scale(q)

    @pytest.mark.parametrize("mu", [0, 5])
    def test_boundary(self, mu):
        # X = k Gamma_mu has entries 0 and +-k (or +-ik), and X^2 = g k^2 Id
        for k in self.WIDE:
            e = [0] * 8
            e[mu] = k
            x = vector_to_matrix_exact(e)
            assert x @ x == mx.GMat.eye(16).scale(cl.METRIC[mu] * k * k)

    def test_mixed_parts_count_both(self):
        # the real part of a product takes re re' and im im' alike:
        # ((1 + i) k)^2 = 2i k^2
        for k in self.WIDE:
            a = mx.GMat.eye(16).scale(k)
            a = a + a.times_i()
            assert a @ a == mx.GMat.eye(16).scale(2 * k * k).times_i()


def test_b_matrix_properties():
    B = cl.b_matrix()
    assert B.is_real()
    assert B @ B == mx.GMat.eye(16)
    for mu in range(8):
        assert cl.gamma(mu).T == B @ cl.gamma(mu) @ B


def test_b_entries_are_signs():
    B = cl.b_matrix()
    assert set(np.unique(to_complex(B).real)) <= {-1, 0, 1}


class TestVectorMatrix:
    def test_basis_vector(self):
        x = np.zeros(8)
        x[0] = 1
        assert np.array_equal(vector_to_matrix(x), to_complex(cl.gamma(0)))

    def test_zero(self):
        assert not vector_to_matrix(np.zeros(8)).any()

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.integers(-9, 10, size=8)
            X = vector_to_matrix_exact(x)
            q = int(sum(cl.METRIC[m] * int(x[m]) ** 2 for m in range(8)))
            assert X @ X == mx.GMat.eye(16).scale(q)

    def test_roundtrip(self):
        x = np.array([3.0, -1.0, 0.0, 2.0, 0.5, 0.0, -7.0, 1.25])
        back = matrix_to_vector(vector_to_matrix(x))
        assert np.allclose(back, x, atol=1e-12)

    def test_gamma0_plus_2gamma7(self):
        X = cl.gamma(0) + cl.gamma(7).scale(2)
        assert matrix_to_vector(X) == tuple(
            [1, 0, 0, 0, 0, 0, 0, 2])

    def test_identity_is_not_grade1(self):
        with pytest.raises(NotGrade1Error):
            matrix_to_vector(np.eye(16, dtype=np.complex128))


class TestRotor:
    def test_theta_zero_is_identity(self):
        r = cl.rotor(4, 5, 0.0)
        assert np.allclose(rotor_matrix(r), np.eye(16))

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            cl.rotor(3, 3, 1.0)

    @pytest.mark.parametrize("make", [cl.Rotor, cl.rotor])
    @pytest.mark.parametrize("mu,nu,message", [
        (2, 2, "rotor plane needs two distinct indices"),
        (0, 8, "plane indices must be in 0..7"),
        (-1, 3, "plane indices must be in 0..7")])
    def test_refuses_a_degenerate_plane_where_it_is_built(self, make, mu, nu, message):
        # a Rotor built directly is checked as cl.rotor's is, before its
        # plane can reach a kernel
        with pytest.raises(ValueError) as err:
            make(mu, nu, 0.5)
        assert str(err.value) == message

    @pytest.mark.parametrize("mu,nu,message", [
        (3, 3, "rotor plane needs two distinct indices"),
        (0, 8, "plane indices must be in 0..7"),
        (-1, 2, "plane indices must be in 0..7")])
    def test_plane_generator_refuses_a_degenerate_plane(self, mu, nu, message):
        # checked as a Rotor's plane is, before an index can wrap or miss
        # the table of bivector actions
        with pytest.raises(ValueError) as err:
            cl.plane_generator(mu, nu)
        assert str(err.value) == message

    def test_inverse_is_swapped_plane(self):
        r = cl.rotor(2, 6, 0.7)
        assert np.allclose(rotor_matrix(r) @ rotor_matrix(rotor_inverse(r)), np.eye(16), atol=1e-14)

    def test_matrix_at_minus_theta_inverts(self):
        r = cl.rotor(1, 2, 0.9)
        rm = cl.rotor(1, 2, -0.9)
        assert np.allclose(rotor_matrix(r) @ rotor_matrix(rm), np.eye(16), atol=1e-14)

    def test_group_law_same_plane(self):
        a, b = 0.6, -1.3
        lhs = rotor_matrix(cl.rotor(0, 4, a)) @ rotor_matrix(cl.rotor(0, 4, b))
        rhs = rotor_matrix(cl.rotor(0, 4, a + b))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_boost_plane_is_noncompact(self):
        assert not cl.rotor(0, 4, 1.0).compact
        assert cl.rotor(4, 5, 1.0).compact


class TestRotateVector:
    def test_compact_plane_45(self):
        theta = 0.8
        x = np.zeros(8)
        x[4] = 1.0
        out = cl.rotate_vector(x, cl.rotor(4, 5, theta))
        want = np.zeros(8)
        want[4] = math.cos(theta)
        want[5] = -math.sin(theta)
        assert np.allclose(out, want, atol=1e-13)

    def test_boost_plane_04(self):
        theta = 1.0
        x = np.zeros(8)
        x[0] = 1.0
        out = cl.rotate_vector(x, cl.rotor(0, 4, theta))
        assert abs(out[0] - math.cosh(theta)) < 1e-13
        assert abs(out[4] - math.sinh(theta)) < 1e-13

    def test_zero_vector(self):
        out = cl.rotate_vector(np.zeros(8), cl.rotor(2, 3, 1.1))
        assert np.allclose(out, 0.0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu, nu = rng.choice(8, size=2, replace=False)
            theta = float(rng.uniform(-3, 3))
            x = rng.integers(-9, 10, size=8).astype(float)
            out = cl.rotate_vector(x, cl.rotor(int(mu), int(nu), theta))
            assert abs(cl.quadratic_form(out) - cl.quadratic_form(x)) < 1e-10


class TestRotateSpinor:
    def test_theta_zero(self):
        eta = np.arange(16.0)
        assert np.allclose(cl.rotate_spinor(eta, cl.rotor(0, 1, 0.0)), eta)

    def test_infinitesimal_L01_phi_and_psi(self):
        h = 1e-7
        eta = np.zeros(16)
        eta[1] = 1.0   # phi_1
        out = cl.rotate_spinor(eta, cl.rotor(0, 1, h))
        assert abs(out[0] - 0.5 * h) < 1e-10     # phi_0' = phi_0 + theta/2 phi_1
        eta = np.zeros(16)
        eta[11] = 1.0  # psi_3
        out = cl.rotate_spinor(eta, cl.rotor(0, 1, h))
        assert abs(out[10] - 0.5 * h) < 1e-10    # psi_2' = psi_2 + theta/2 psi_3

    def test_chirality_blocks_never_mix(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu, nu = rng.choice(8, size=2, replace=False)
            r = cl.rotor(int(mu), int(nu), float(rng.uniform(-3, 3)))
            phi_only = embed_phi(rng.normal(size=8))
            out = cl.rotate_spinor(phi_only, r)
            assert np.array_equal(out[8:16], np.zeros(8))
            psi_only = embed_psi(rng.normal(size=8))
            out = cl.rotate_spinor(psi_only, r)
            assert np.array_equal(out[0:8], np.zeros(8))

    def test_every_plane_keeps_each_chiral_half(self):
        # each row of every plane's signed permutation reads a column of its
        # own half; the float suites turn [phi | psi] as one row on this
        for mu, nu in itertools.permutations(range(8), 2):
            columns = [j for j, _ in cl._BIV_REP[mu, nu]]
            assert [j < 8 for j in columns] == [i < 8 for i in range(16)], (mu, nu)

    def test_double_cover(self):
        eta = np.arange(1.0, 17.0)
        r2 = cl.rotor(1, 2, 2 * math.pi)
        r4 = cl.rotor(1, 2, 4 * math.pi)
        assert np.allclose(cl.rotate_spinor(eta, r2), -eta, atol=1e-12)
        assert np.allclose(cl.rotate_spinor(eta, r4), eta, atol=1e-12)


def test_plane_actions_equal_their_per_plane_compositions():
    # each plane composed on its own, M^dag G_mu G_nu M / 2, against the
    # product of two generator permutations that the module stores
    assert len(cl._BIV_REP) == 56
    for mu, nu in itertools.permutations(range(8), 2):
        k = mx._XI_DAG @ (cl.gamma(mu) @ cl.gamma(nu)) @ mx.XI_M
        assert k.is_real() and all(len(row) == 1 for row in k.rows)
        assert cl._BIV_REP[mu, nu] == tuple((c, Fraction(vr, 2)) for (c, vr, _), in k.rows)


def test_each_generator_permutation_is_its_composition():
    assert len(cl._GEN) == 8
    for mu in range(8):
        k = mx.XI_M.conj_t() @ cl.gamma(mu) @ mx.XI_M
        want = ((i, j, 2 * g, 0) for i, (j, g) in enumerate(cl._GEN[mu]))
        assert k == mx.GMat.from_entries(16, want), mu


@pytest.mark.parametrize("broken,message", [
    (lambda g: g.times_i(), "generator 3 is not real-integral in the spinor basis"),
    (lambda g: g + cl.gamma(4), "generator 3 is not a chirality-swapping signed permutation"),
    (lambda g: mx.GMat.eye(16), "generator 3 is not a chirality-swapping signed permutation"),
])
def test_generators_refuse_a_broken_gamma(monkeypatch, broken, message):
    # imaginary, two entries a row, or keeping each chiral half: the
    # trilinear terms index psi by column - 8, so a phi column is refused
    gammas = list(mx._GAMMA)
    gammas[3] = broken(gammas[3])
    monkeypatch.setattr(mx, "_GAMMA", gammas)
    with pytest.raises(AssertionError) as err:
        mx._generators()
    assert str(err.value) == message


def test_table_generators_are_the_alpha_xi_composition():
    # read off the unit table at import, and composed from the paper's
    # alpha and xi data by the bridge of matrices.py: the same tuples
    assert mx._generators() == cl._GEN
    assert cl._spinor_tables(oc._TABLE) == (cl._GEN, cl._BIV_REP)


def test_spinor_tables_are_those_of_the_composed_generators():
    # sha256 of the 56 bivector actions, the trilinear terms and the spinor
    # form's terms as the alpha/xi compositions gave them before the
    # generators were read off the unit table: every float sum keeps its bits
    tables = (sorted(cl._BIV_REP.items()), cl._TRILINEAR_TERMS, cl._Q_SPINOR_TERMS)
    assert len(cl._BIV_REP) == 56
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "6f411c7dd9849c95460da77316feb18ed346a75b8132f8601dac1f4d240e225f")


@pytest.mark.parametrize("a", range(8))
def test_every_table_sign_flip_fails_the_import_time_clifford_check(a):
    # the check clifford.py runs on the generators it reads off the unit
    # table: each single sign of the table breaks the Clifford relation
    for b in range(8):
        table = [list(row) for row in oc._TABLE]
        k, sign = table[a][b]
        table[a][b] = (k, -sign)
        with pytest.raises(AssertionError, match=r"Clifford relation at pair \(\d,\d\)"):
            cl._spinor_tables(table)


@pytest.mark.parametrize("mu", range(8))
def test_the_bridge_names_the_generator_of_a_flipped_gamma(monkeypatch, mu):
    # -Gamma_mu still composes to a chirality-swapping signed permutation,
    # the negation of _GEN[mu]: the import-time bridge of matrices.py
    # refuses it, naming mu
    mx._check_bridge()
    gammas = list(mx._GAMMA)
    gammas[mu] = -gammas[mu]
    monkeypatch.setattr(mx, "_GAMMA", gammas)
    with pytest.raises(AssertionError) as err:
        mx._check_bridge()
    assert str(err.value) == f"generator {mu} of the alpha and xi data is not the unit table's"


def test_the_paper_matrices_are_entry_points_on_clifford(monkeypatch):
    # alpha, gamma, b_matrix and verify_clifford run what matrices.py holds
    # at the call, as the suites' entry points do
    for name in ("alpha", "gamma", "b_matrix", "verify_clifford"):
        entry = getattr(cl, name)
        assert getattr(splitoct, name) is entry
        assert entry.__name__ == entry.__qualname__ == name
        assert f"``splitoct.matrices.{name}``" in entry.__doc__
        monkeypatch.setattr(mx, name, lambda *args, name=name: (name, args))
        assert entry(5) == (name, (5,))


def test_generator_permutations_satisfy_the_clifford_relation():
    # G_mu G_nu + G_nu G_mu = 2 g_munu delta_munu Id on the permutations
    # themselves, multiplied as dense integer matrices
    def dense(action):
        return [[g if c == j else 0 for c in range(16)] for j, g in action]

    def times(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(16)) for j in range(16)]
                for i in range(16)]

    gens = [dense(action) for action in cl._GEN]
    for mu, nu in itertools.product(range(8), repeat=2):
        ab, ba = times(gens[mu], gens[nu]), times(gens[nu], gens[mu])
        want = 2 * cl.METRIC[mu] if mu == nu else 0
        assert all(ab[i][j] + ba[i][j] == want * (i == j)
                   for i in range(16) for j in range(16)), (mu, nu)


def test_trilinear_terms_are_the_slice_compositions():
    # the slices K_b = (M_phi)^T B_11 (Gamma_b)_12 M_psi / 2, each block cut
    # out of the 16x16 matrix by its entries
    def block(g, r0, c0):
        return mx.GMat.from_entries(8, ((r - r0, c - c0, vr, vi) for r, c, vr, vi in g.entries()
                                        if r0 <= r < r0 + 8 and c0 <= c < c0 + 8))

    left = block(mx.XI_M, 0, 0).T @ block(cl.b_matrix(), 0, 0)
    right = block(mx.XI_M, 8, 8)
    want = []
    for b in range(8):
        k = left @ block(cl.gamma(b), 0, 8) @ right
        assert k.is_real() and not any(vr % 2 for _, _, vr, _ in k.entries()), b
        want.extend((a, b, c, vr // 2) for a, c, vr, _ in k.entries())
    assert cl._TRILINEAR_TERMS == tuple(want)


class TestSpinorInvariant:
    def test_zero(self):
        assert cl.spinor_invariant(np.zeros(16)) == 0

    def test_chiral_additivity(self):
        rng = np.random.default_rng(9)
        phi = rng.integers(-9, 10, size=8)
        psi = rng.integers(-9, 10, size=8)
        total = cl.spinor_invariant(embed_phi(phi) + embed_psi(psi))
        assert total == (cl.spinor_invariant(embed_phi(phi))
                         + cl.spinor_invariant(embed_psi(psi)))

    def test_exact_on_integers(self):
        eta = np.array([1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1, 1, 2, 2, 2, 2])
        got = cl.spinor_invariant(eta)
        assert isinstance(got, int)
        # split diagonal reference value
        want = (1 + 4 + 9 + 16 - 25 - 36 - 49 - 64) + (4 - 16)
        assert got == want

    def test_preserved_under_rotor(self):
        rng = np.random.default_rng(13)
        eta = rng.integers(-9, 10, size=16).astype(float)
        for _ in range(20):
            mu, nu = rng.choice(8, size=2, replace=False)
            r = cl.rotor(int(mu), int(nu), float(rng.uniform(-3, 3)))
            before = cl.spinor_invariant(eta)
            after = cl.spinor_invariant(cl.rotate_spinor(eta, r))
            assert abs(float(before) - float(after)) < 1e-10


class TestTrilinearMatrix:
    def test_zero_arguments(self):
        assert cl.trilinear_matrix([0] * 8, [1] * 8, [1] * 8) == 0
        assert cl.trilinear_matrix([1] * 8, [0] * 8, [1] * 8) == 0

    def test_linearity_in_x_exact(self):
        rng = np.random.default_rng(17)
        phi = [int(v) for v in rng.integers(-9, 10, size=8)]
        psi = [int(v) for v in rng.integers(-9, 10, size=8)]
        x = [int(v) for v in rng.integers(-9, 10, size=8)]
        y = [int(v) for v in rng.integers(-9, 10, size=8)]
        xy = [a + b for a, b in zip(x, y)]
        assert (cl.trilinear_matrix(phi, xy, psi)
                == cl.trilinear_matrix(phi, x, psi) + cl.trilinear_matrix(phi, y, psi))

    def test_chirality_violation_rejected(self):
        bad = np.ones(16)
        with pytest.raises(cl.ChiralityError):
            cl.trilinear_matrix(bad, np.ones(8), np.ones(8))
        with pytest.raises(cl.ChiralityError):
            cl.trilinear_matrix(np.ones(8), np.ones(8), bad)

    def test_accepts_pure_chiral_16(self):
        phi16 = embed_phi([1, 0, 0, 0, 0, 0, 0, 0])
        psi16 = embed_psi([1, 0, 0, 0, 0, 0, 0, 0])
        x = [1, 0, 0, 0, 0, 0, 0, 0]
        assert cl.trilinear_matrix(phi16, x, psi16) == -1

    def test_real_valued_on_random_floats(self):
        rng = np.random.default_rng(23)
        v = cl.trilinear_matrix(rng.normal(size=8), rng.normal(size=8),
                                rng.normal(size=8))
        assert isinstance(v, float)


def _closed_form_generator(mu, nu):
    """A[mu,nu] = -g_nunu, A[nu,mu] = +g_mumu: the vector generator of plane (mu,nu)."""
    a = np.zeros((8, 8), dtype=np.int64)
    a[mu, nu] = -cl.METRIC[nu]
    a[nu, mu] = cl.METRIC[mu]
    return a


PLANES = [(mu, nu) for mu in range(8) for nu in range(8) if mu != nu]


class TestVectorOracle:
    """The closed-form vector action against the paper's X' = L X L^{-1}."""

    def test_commutator_identity_exact(self):
        # [G_mu G_nu, G_sig] = 2 g_nusig G_mu - 2 g_musig G_nu, in Gaussian integers
        g, zero = cl.gamma, mx.GMat.zeros((16, 16))
        for mu, nu in PLANES:
            biv = g(mu) @ g(nu)
            for sig in range(8):
                want = zero
                if sig == nu:
                    want = want + g(mu).scale(2 * cl.METRIC[nu])
                if sig == mu:
                    want = want - g(nu).scale(2 * cl.METRIC[mu])
                assert biv @ g(sig) - g(sig) @ biv == want, (mu, nu, sig)

    def test_generator_from_commutator(self):
        # d/dtheta X' at 0 is -[G_mu G_nu, X]/2; read it back by the exact trace pairing
        for mu, nu in PLANES:
            biv = cl.gamma(mu) @ cl.gamma(nu)
            twice = np.array([matrix_to_vector(cl.gamma(sig) @ biv - biv @ cl.gamma(sig))
                              for sig in range(8)], dtype=object).T
            assert (twice == 2 * _closed_form_generator(mu, nu)).all(), (mu, nu)

    def test_generator_matches_tables(self):
        assert np.array_equal(_closed_form_generator(0, 1), table_matrix(units.L01_X))
        assert np.array_equal(_closed_form_generator(0, 4), table_matrix(units.L04_X))

    @pytest.mark.parametrize("h", [1e-6, -1e-6])
    def test_kernels_follow_plane_generator(self, h):
        # the rotors at a small angle are identity + h G to second order in h
        for mu, nu in PLANES:
            gx, gphi, gpsi = (np.array(g, dtype=np.float64) for g in cl.plane_generator(mu, nu))
            gspin = np.zeros((16, 16))
            gspin[:8, :8], gspin[8:, 8:] = gphi, gpsi
            assert np.array_equal(gx, _closed_form_generator(mu, nu)), (mu, nu)
            r = cl.rotor(mu, nu, h)
            moved_x = np.array([cl.rotate_vector(e, r) for e in np.eye(8)]).T
            moved_eta = np.array([cl.rotate_spinor(e, r) for e in np.eye(16)]).T
            assert np.max(np.abs(moved_x - (np.eye(8) + h * gx))) <= h * h, (mu, nu)
            assert np.max(np.abs(moved_eta - (np.eye(16) + h * gspin))) <= h * h, (mu, nu)

    @pytest.mark.parametrize("h", [1e-6, -1e-6])
    def test_triality_rotor_follows_half_sum_of_generators(self, h):
        # triality_rotor(h) turns each of its four planes by h/2, so to second
        # order in h it is identity + h G with G half the sum of their generators
        gens = [cl.plane_generator(mu, nu) for mu, nu in units.ROLE_SWAP_PLANES]
        gx, gphi, gpsi = (sum(np.array(g[part], dtype=np.float64) for g in gens) / 2
                          for part in range(3))
        gspin = np.zeros((16, 16))
        gspin[:8, :8], gspin[8:, 8:] = gphi, gpsi
        word = triality_rotor(h)
        moved_x = np.array([word.act_vector(e) for e in np.eye(8)]).T
        moved_eta = np.array([word.act_spinor(e) for e in np.eye(16)]).T
        assert np.max(np.abs(moved_x - (np.eye(8) + h * gx))) <= h * h
        assert np.max(np.abs(moved_eta - (np.eye(16) + h * gspin))) <= h * h

    @pytest.mark.parametrize("mu,nu", PLANES)
    def test_matches_conjugation(self, mu, nu):
        compact = cl.METRIC[mu] * cl.METRIC[nu] > 0
        angles = (0.3, -0.3, 2.9, -2.9) + ((2 * math.pi,) if compact else (3.0, -3.0))
        rng = np.random.default_rng(8 * mu + nu)
        vectors = [np.eye(8)[k] for k in range(8)] + [rng.integers(-9, 10, size=8).astype(float)
                                                      for _ in range(4)]
        for theta in angles:
            r = cl.rotor(mu, nu, theta)
            L, Linv = rotor_matrix(r), rotor_matrix(rotor_inverse(r))
            for x in vectors:
                want = matrix_to_vector(L @ vector_to_matrix(x) @ Linv, tol=1e-8)
                got = cl.rotate_vector(x, r)
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_wrong_shape_is_refused(self):
        with pytest.raises(ValueError):
            cl.rotate_vector(np.zeros(7), cl.rotor(0, 1, 0.5))
        with pytest.raises(ValueError):
            cl.rotate_vector(np.zeros((2, 8)), cl.rotor(0, 1, 0.5))

    def test_input_is_not_modified(self):
        x = np.arange(8.0)
        cl.rotate_vector(x, cl.rotor(0, 4, 0.5))
        assert np.array_equal(x, np.arange(8.0))

    def test_strong_boost_stays_finite(self):
        out = cl.rotate_vector([1, 0, 0, 0, 0, 0, 0, 0], cl.rotor(0, 4, 700.0))
        assert np.all(np.isfinite(out)) and out[0] == out[4] > 1e303
        assert cl.quadratic_form(out) == 0.0
