import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splitoct import octonion as oc
from splitoct import units
from splitoct.octonion import SplitOctonion as O

U = O.unit
ONE = U(0)
J1, J2, J3 = U("J1"), U("J2"), U("J3")
j1, j2, j3 = U("j1"), U("j2"), U("j3")
I = U("I")


def rational_oct():
    return st.builds(
        lambda nums: O([Fraction(n, 3) for n in nums]),
        st.lists(st.integers(-12, 12), min_size=8, max_size=8))


class TestMul:
    def test_J1_J2_is_j3(self):
        assert oc.mul(J1, J2) == j3

    def test_j1_squares_to_minus_one(self):
        assert oc.mul(j1, j1) == -ONE

    def test_j1_J2_is_minus_J3(self):
        assert oc.mul(j1, J2) == -J3

    @given(rational_oct())
    def test_scalar_unit_is_identity(self, s):
        assert oc.mul(ONE, s) == s
        assert oc.mul(s, ONE) == s

    def test_unit_squares(self):
        for u, sq in ((J1, 1), (J2, 1), (J3, 1), (I, 1), (j1, -1), (j2, -1), (j3, -1)):
            assert oc.mul(u, u) == sq * ONE

    def test_hypercomplex_units_anticommute(self):
        units = [U(k) for k in range(1, 8)]
        for a in units:
            for b in units:
                if a != b:
                    assert oc.mul(a, b) == -oc.mul(b, a)


class TestConj:
    def test_negates_hypercomplex_part(self):
        s = O([2, 3, -1, 5, 7, -4, 0, 1])
        assert s.conj() == O([2, -3, 1, -5, -7, 4, 0, -1])

    def test_scalar_fixed(self):
        assert ONE.conj() == ONE

    def test_conj_of_I_from_generators(self):
        assert oc.mul(J1, j1) == I
        assert oc.mul(J1, j1).conj() == -I

    @given(rational_oct())
    def test_involution(self, s):
        assert s.conj().conj() == s

    @given(rational_oct(), rational_oct())
    def test_antihomomorphism(self, a, b):
        assert oc.mul(a, b).conj() == oc.mul(b.conj(), a.conj())


class TestNorm:
    def test_scalar(self):
        assert ONE.norm_sq() == 1

    def test_zero_divisor(self):
        s = ONE + J1
        assert s.norm_sq() == 0
        assert not s.is_zero()

    def test_two_plus_three_j2(self):
        s = O([2, 0, 3, 0, 0, 0, 0, 0])
        assert s.norm_sq() == 13
        # independent route: expand conj(s)*s by the multiplication table
        prod = oc.mul(s.conj(), s)
        assert prod == O([13, 0, 0, 0, 0, 0, 0, 0])

    @given(rational_oct())
    def test_matches_scalar_of_both_products(self, s):
        left = oc.mul(s, s.conj())
        right = oc.mul(s.conj(), s)
        assert left.c[0] == s.norm_sq()
        assert right.c[0] == s.norm_sq()
        assert all(v == 0 for v in left.c[1:])
        assert all(v == 0 for v in right.c[1:])


class TestInner:
    def test_orthogonal_units(self):
        assert oc.inner(ONE, J1) == 0

    def test_J1_with_itself(self):
        assert oc.inner(J1, J1) == -1

    @given(rational_oct())
    def test_consistent_with_norm(self, s):
        assert oc.inner(s, s) == s.norm_sq()

    @given(rational_oct(), rational_oct())
    def test_symmetric(self, a, b):
        assert oc.inner(a, b) == oc.inner(b, a)


class TestCommutator:
    def test_equals_product_on_anticommuting_units(self):
        assert oc.commutator(J1, J2) == oc.mul(J1, J2) == j3

    @given(rational_oct())
    def test_self_commutator_vanishes(self, s):
        assert oc.commutator(s, s).is_zero()

    @given(rational_oct())
    def test_scalar_is_central(self, s):
        assert oc.commutator(ONE, s).is_zero()


class TestAssociator:
    def test_JJJ(self):
        assert oc.associator(J1, J2, J3) == -I

    def test_jjI(self):
        assert oc.associator(j1, j2, I) == J3

    def test_alternativity_on_units(self):
        units = [U(k) for k in range(1, 8)]
        for x in units:
            for y in units:
                assert oc.associator(x, x, y).is_zero()

    def test_expected_table_families(self):
        # every triple of hyper-complex units, predicted from the families
        # alone, against the associator the product gives
        table = units.predicted_associators()
        assert list(table) == list(itertools.product(oc.HYPER, repeat=3))
        for (a, b, c), value in table.items():
            assert O(value) == oc.associator(U(a), U(b), U(c)), (a, b, c)


class TestJacobiator:
    def test_JJJ_gives_minus_I(self):
        assert oc.jacobiator(J1, J2, J3) == -I

    def test_repeated_first_argument(self):
        # (J1 J1)J2 + (J1 J2)J1 + (J2 J1)J1 expands to J2 by the table
        assert oc.jacobiator(J1, J1, J2) == Fraction(1, 3) * J2

    @given(rational_oct(), rational_oct())
    def test_central_one_reduction(self, y, z):
        # (1y)z + (yz)1 + (z1)y = 2(yz) + zy
        want = Fraction(1, 3) * (2 * oc.mul(y, z) + oc.mul(z, y))
        assert oc.jacobiator(ONE, y, z) == want


class TestTimelike:
    def test_one_plus_I(self):
        assert oc.is_timelike_vector_part(ONE + I)

    def test_pure_j1(self):
        assert not oc.is_timelike_vector_part(j1)

    def test_strict_inequality_boundary(self):
        assert not oc.is_timelike_vector_part(J1 + j1)

    def test_numpy_ints_do_not_wrap(self):
        # (2**40)**2 leaves int64; as a Python int, t^2 = 2**80 > 0
        s = O([0] * 4 + [np.int64(2 ** 40)] + [0] * 3)
        assert oc.is_timelike_vector_part(s) is True


class TestNumpyInts:
    # each result leaves int64, where numpy would wrap it (with a
    # RuntimeWarning, an error under the test settings); an octonion holds
    # numpy integers, and * a numpy factor, as Python ints
    BIG = np.int64(2 ** 62)
    MIN = np.int64(-2 ** 63)

    def test_held_as_python_ints(self):
        assert [type(v) for v in O([self.BIG, 1, True, 0.5] + [0] * 4).c] == [
            int, int, bool, float] + [int] * 4

    def test_add_and_sub(self):
        a, m = O([self.BIG] + [0] * 7), O([self.MIN] + [0] * 7)
        assert (a + a).c[0] == 2 ** 63
        assert (m - a).c[0] == -2 ** 63 - 2 ** 62

    @pytest.mark.parametrize("factor", [4, np.int64(4)])
    def test_scalar_mul_on_either_side(self, factor):
        a = O([self.BIG] + [0] * 7)
        assert (a * factor).c[0] == (factor * a).c[0] == 2 ** 64
        assert type((O.unit(0) * factor).c[0]) is int

    def test_neg_and_conj(self):
        m = O([self.MIN, self.MIN] + [0] * 6)
        assert (-m).c[:2] == (2 ** 63, 2 ** 63)
        assert m.conj().c[:2] == (-2 ** 63, 2 ** 63)


class TestStructureConstants:
    def test_json_shape(self):
        data = oc.StructureConstants.standard().to_json()
        assert len(data) == 8 and all(len(row) == 8 for row in data)
        assert data[5][6] == {"unit": "j3", "sign": 1}   # J1 J2
        assert data[4][4] == {"unit": "1", "sign": 1}    # I^2

    def test_rejects_broken_table(self):
        rows = [list(r) for r in oc.StructureConstants.standard().table]
        rows[1][2] = (3, -1)  # breaks anticommutativity against rows[2][1]
        with pytest.raises(oc.ConstructionError):
            oc.StructureConstants(tuple(tuple(r) for r in rows))
