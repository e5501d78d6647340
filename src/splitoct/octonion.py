"""Exact split-octonion arithmetic over the basis (1, j1, j2, j3, I, J1, J2, J3).

Unit squares are J_n^2 = +1, j_n^2 = -1, I^2 = +1; all seven hyper-complex
units anticommute pairwise.  Coefficients may be int, Fraction (identity
sweeps run exactly) or float.  The coefficient order matches the component
order of the 8-dimensional vectors and chiral spinors, so coefficient k of
an octonion corresponds to component x_k.  Products read the unit table,
and the inner product only its eight scalar entries (e_a e_b = +-1); the
identity sweeps contract the dense structure tensor built from it (numpy,
imported by the sweeps only).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exact import exact_float64
from .report import VerificationReport

UNIT_NAMES = ("1", "j1", "j2", "j3", "I", "J1", "J2", "J3")
SCALAR, J1, J2, J3 = 0, 5, 6, 7
IDX_I = 4
HYPER = tuple(range(1, 8))

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


class ConstructionError(Exception):
    """Basis generation from the J_n failed to close on 8 units."""


def epsilon(m: int, n: int, k: int) -> int:
    """Totally antisymmetric symbol on {1,2,3} with epsilon(1,2,3) = +1."""
    if {m, n, k} != {1, 2, 3}:
        return 0
    return 1 if (m, n, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


def _build_table():
    # tab[a][b] = (index, sign) with e_a * e_b = sign * e_index
    tab = [[None] * 8 for _ in range(8)]
    for b in range(8):
        tab[0][b] = (b, 1)
        tab[b][0] = (b, 1)
    for m in range(1, 4):
        for n in range(1, 4):
            if m == n:
                tab[m][n] = (0, -1)          # j_n j_n = -1
                tab[4 + m][4 + n] = (0, 1)   # J_n J_n = +1
                tab[m][4 + n] = (4, -1)      # j_n J_n = -I
                tab[4 + m][n] = (4, 1)       # J_n j_n = +I
            else:
                k = 6 - m - n
                e = epsilon(m, n, k)
                tab[m][n] = (k, e)               # j_m j_n = eps j_k
                tab[4 + m][4 + n] = (k, e)       # J_m J_n = eps j_k
                tab[m][4 + n] = (4 + k, -e)      # j_m J_n = -eps J_k
                tab[4 + m][n] = (4 + k, -e)      # J_m j_n = -eps J_k
    for n in range(1, 4):
        tab[n][4] = (4 + n, 1)     # j_n I = J_n
        tab[4][n] = (4 + n, -1)    # I j_n = -J_n
        tab[4 + n][4] = (n, 1)     # J_n I = j_n
        tab[4][4 + n] = (n, -1)    # I J_n = -j_n
    tab[4][4] = (0, 1)             # I^2 = 1
    return tuple(tuple(row) for row in tab)


_TABLE = _build_table()

# conj(e_a) = _CONJ_SIGNS[a] e_a
_CONJ_SIGNS = (1, -1, -1, -1, -1, -1, -1, -1)


def _scalar_terms(table):
    """(a, b, sign) over the entries of a unit table whose product is a
    scalar, by increasing (a, b), with conj(e_a) e_b = sign."""
    return tuple((a, b, _CONJ_SIGNS[a] * sign) for a, row in enumerate(table)
                 for b, (k, sign) in enumerate(row) if k == SCALAR)


_SCALAR_TERMS = _scalar_terms(_TABLE)


def _structure_tensor(table):
    """C[a,b,k] with e_a e_b = sum_k C[a,b,k] e_k, read off a unit table,
    as an int64 array."""
    import numpy as np
    c = np.zeros((8, 8, 8), dtype=np.int64)
    for a, row in enumerate(table):
        for b, (k, sign) in enumerate(row):
            c[a, b, k] = sign
    c.flags.writeable = False
    return c


_C = None      # the structure tensor of _TABLE, built on first use by _c()


def _c():
    global _C
    if _C is None:
        _C = _structure_tensor(_TABLE)
    return _C


class SplitOctonion:
    """Immutable split octonion; supports +, -, * (octonion or scalar)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = tuple(coeffs)
        if len(c) != 8:
            raise ValueError("need 8 coefficients")
        object.__setattr__(self, "c", c)

    def __setattr__(self, *a):
        raise AttributeError("SplitOctonion is immutable")

    @classmethod
    def zero(cls):
        return cls((0,) * 8)

    @classmethod
    def scalar(cls, v):
        return cls((v, 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def unit(cls, k):
        if isinstance(k, str):
            k = UNIT_NAMES.index(k)
        c = [0] * 8
        c[k] = 1
        return cls(c)

    # field views of Eq-style naming: omega, x^n (on j_n), t (on I), lambda^n (on J_n)
    @property
    def w(self):
        return self.c[0]

    @property
    def x(self):
        return self.c[1:4]

    @property
    def t(self):
        return self.c[4]

    @property
    def lam(self):
        return self.c[5:8]

    def __eq__(self, other):
        return isinstance(other, SplitOctonion) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        return SplitOctonion(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        return SplitOctonion(tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self):
        return SplitOctonion(tuple(-a for a in self.c))

    def __mul__(self, other):
        if isinstance(other, SplitOctonion):
            return mul(self, other)
        return SplitOctonion(tuple(a * other for a in self.c))

    def __rmul__(self, other):
        return SplitOctonion(tuple(other * a for a in self.c))

    def conj(self) -> "SplitOctonion":
        """Negate the seven hyper-complex coefficients, fix the scalar."""
        return SplitOctonion((self.c[0],) + tuple(-a for a in self.c[1:]))

    def norm_sq(self):
        """omega^2 - lambda^2 + x^2 - t^2 (the split (4,4) interval)."""
        c = self.c
        return (c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3]
                - c[4] * c[4] - c[5] * c[5] - c[6] * c[6] - c[7] * c[7])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.c)

    def __repr__(self):
        terms = []
        for k, a in enumerate(self.c):
            if a == 0:
                continue
            terms.append(f"{a}" if k == 0 else f"{a}*{UNIT_NAMES[k]}")
        return " + ".join(terms) if terms else "0"


def mul(a: SplitOctonion, b: SplitOctonion) -> SplitOctonion:
    """Bilinear extension of the unit multiplication table."""
    out = [0] * 8
    for i, ai in enumerate(a.c):
        if not ai:
            continue
        row = _TABLE[i]
        for j, bj in enumerate(b.c):
            if not bj:
                continue
            k, s = row[j]
            out[k] += ai * bj if s > 0 else -(ai * bj)
    return SplitOctonion(out)


def conj(s: SplitOctonion) -> SplitOctonion:
    return s.conj()


def norm_sq(s: SplitOctonion):
    return s.norm_sq()


def inner(a: SplitOctonion, b: SplitOctonion):
    """(conj(a)b + conj(b)a)/2, a pure scalar; inner(s,s) == norm_sq(s).

    Only the scalar coefficients p and q of the two products are formed,
    from the table's scalar entries (_SCALAR_TERMS), in the term order and
    with the zero skipping of mul, so they are the values mul gives, bit
    for bit (a NaN's sign aside).  Where the float p + q overflows but p
    and q do not, the halves are added instead, which keeps a finite value
    finite.
    """
    ac, bc = a.c, b.c
    p = q = 0
    for i, j, sign in _SCALAR_TERMS:
        ai, bj = ac[i], bc[j]
        if ai and bj:
            p += ai * bj if sign > 0 else -(ai * bj)
        bi, aj = bc[i], ac[j]
        if bi and aj:
            q += bi * aj if sign > 0 else -(bi * aj)
    total = p + q
    if isinstance(total, float) and math.isinf(total) and math.isfinite(p) and math.isfinite(q):
        return 0.5 * p + 0.5 * q
    return _HALF * total


def commutator(x: SplitOctonion, y: SplitOctonion) -> SplitOctonion:
    """[x,y] = (xy - yx)/2; equals the plain product on anticommuting units."""
    return _HALF * (mul(x, y) - mul(y, x))


def associator(x: SplitOctonion, y: SplitOctonion, z: SplitOctonion) -> SplitOctonion:
    """((xy)z - x(yz))/2, totally antisymmetric on the hyper-complex units."""
    return _HALF * (mul(mul(x, y), z) - mul(x, mul(y, z)))


def jacobiator(x: SplitOctonion, y: SplitOctonion, z: SplitOctonion) -> SplitOctonion:
    """((xy)z + (yz)x + (zx)y)/3 with the algebra product."""
    return _THIRD * (mul(mul(x, y), z) + mul(mul(y, z), x) + mul(mul(z, x), y))


def malcev_jacobiator(x: SplitOctonion, y: SplitOctonion, z: SplitOctonion) -> SplitOctonion:
    """Jacobiator of the commutator algebra: ([[x,y],z] + [[y,z],x] + [[z,x],y])/3.

    This is the Jacobiator of the Malcev product [x,y]; on triples of
    pairwise-anticommuting units it coincides with the plain-product form.
    """
    return _THIRD * (commutator(commutator(x, y), z)
                     + commutator(commutator(y, z), x)
                     + commutator(commutator(z, x), y))


def is_timelike_vector_part(s: SplitOctonion) -> bool:
    """t^2 + sum(lambda^2) > sum(x^2), strictly."""
    lam2 = sum(a * a for a in s.lam)
    x2 = sum(a * a for a in s.x)
    return s.t * s.t + lam2 > x2


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

class StructureConstants:
    """The 8x8 unit product table e_a e_b = sign * e_index, validated."""

    def __init__(self, table: tuple):
        self.table = table
        for b in range(8):
            if self.table[0][b] != (b, 1) or self.table[b][0] != (b, 1):
                raise ConstructionError("scalar unit is not a two-sided identity")
        for k, sq in ((1, -1), (2, -1), (3, -1), (4, 1), (5, 1), (6, 1), (7, 1)):
            if self.table[k][k] != (0, sq):
                raise ConstructionError(f"unit {UNIT_NAMES[k]} has wrong square")
        for a in HYPER:
            for b in HYPER:
                if a != b:
                    ia, sa = self.table[a][b]
                    ib, sb = self.table[b][a]
                    if ia != ib or sa != -sb:
                        raise ConstructionError("anticommutativity violated")

    @classmethod
    def standard(cls) -> "StructureConstants":
        return cls(_TABLE)

    def product(self, a: int, b: int):
        return self.table[a][b]

    def to_json(self) -> list:
        return [[{"unit": UNIT_NAMES[idx], "sign": sign} for idx, sign in row]
                for row in self.table]


# ---------------------------------------------------------------------------
# expected associator table (the six non-vanishing families)
# ---------------------------------------------------------------------------

def _family_value(kinds, idx):
    """Associator of a canonically ordered triple (j's, then J's, then I)."""
    U = SplitOctonion.unit
    Z = SplitOctonion.zero()
    if kinds == ("j", "j", "J"):
        n, m, k = idx
        out = Z
        if epsilon(n, m, k):
            out = out - epsilon(n, m, k) * U(IDX_I)
        if n == k:
            out = out - U(4 + m)
        if m == k:
            out = out + U(4 + n)
        return out
    if kinds == ("j", "j", "I"):
        n, m = idx
        out = Z
        for k in (1, 2, 3):
            e = epsilon(n, m, k)
            if e:
                out = out + e * U(4 + k)
        return out
    if kinds == ("j", "J", "J"):
        n, m, k = idx
        out = Z
        if n == m:
            out = out + U(k)
        if n == k:
            out = out - U(m)
        return out
    if kinds == ("j", "J", "I"):
        n, m = idx
        out = Z
        for k in (1, 2, 3):
            e = epsilon(n, m, k)
            if e:
                out = out - e * U(k)
        return out
    if kinds == ("J", "J", "J"):
        n, m, k = idx
        if epsilon(n, m, k):
            return -epsilon(n, m, k) * U(IDX_I)
        return Z
    if kinds == ("J", "J", "I"):
        n, m = idx
        out = Z
        for k in (1, 2, 3):
            e = epsilon(n, m, k)
            if e:
                out = out + e * U(4 + k)
        return out
    return Z


_KIND_ORDER = {"j": 0, "J": 1, "I": 2}


def _unit_kind(k: int):
    if 1 <= k <= 3:
        return "j", k
    if 5 <= k <= 7:
        return "J", k - 4
    return "I", 0


def expected_associator(a: int, b: int, c: int) -> SplitOctonion:
    """Associator of hyper-complex units predicted by the six families,
    extended to every ordering by total antisymmetry; zero elsewhere."""
    if a == b or b == c or a == c:
        # repeated argument: antisymmetry forces zero
        return SplitOctonion.zero()
    items = [_unit_kind(k) for k in (a, b, c)]
    order = sorted(range(3), key=lambda i: _KIND_ORDER[items[i][0]])
    # permutation sign of the sort
    sign = 1
    perm = list(order)
    for i in range(3):
        for jj in range(i + 1, 3):
            if perm[i] > perm[jj]:
                sign = -sign
    kinds = tuple(items[i][0] for i in order)
    idx = tuple(items[i][1] for i in order if items[i][0] != "I")
    val = _family_value(kinds, idx)
    return sign * val


# ---------------------------------------------------------------------------
# identity sweeps
# ---------------------------------------------------------------------------

def verify_table() -> VerificationReport:
    """All 64 unit products against the hard-coded structure constants,
    plus squares and anticommutativity."""
    rep = VerificationReport("octonion-table")
    sc = StructureConstants.standard()
    for a in range(8):
        for b in range(8):
            idx, sign = sc.product(a, b)
            got = mul(SplitOctonion.unit(a), SplitOctonion.unit(b))
            want = sign * SplitOctonion.unit(idx)
            rep.record_case(got == want, f"{UNIT_NAMES[a]}*{UNIT_NAMES[b]}")
    for k, sq in ((5, 1), (6, 1), (7, 1), (1, -1), (2, -1), (3, -1), (4, 1)):
        got = mul(SplitOctonion.unit(k), SplitOctonion.unit(k))
        rep.record_case(got == SplitOctonion.scalar(sq), f"{UNIT_NAMES[k]}^2")
    for a in HYPER:
        for b in HYPER:
            if a < b:
                x, y = SplitOctonion.unit(a), SplitOctonion.unit(b)
                rep.record_case(mul(x, y) == -mul(y, x),
                                f"anticommute {UNIT_NAMES[a]},{UNIT_NAMES[b]}")
    return rep


def _same(lhs, rhs):
    """Per-case equality over the coefficient axis, on hyper-complex unit
    tuples only."""
    units = (slice(1, None),) * (lhs.ndim - 1)
    return (lhs[units] == rhs[units]).all(axis=-1)


def _triple_products():
    """(e_a e_b) e_c and e_a (e_b e_c) over the last axis."""
    import numpy as np
    c = _c()
    return np.einsum("abm,mck->abck", c, c), np.einsum("bcm,amk->abck", c, c)


def verify_moufang() -> VerificationReport:
    """Flexible Moufang identities on all 343 unit triples and the mild
    associative laws on all 49 pairs, exactly.

    With x, y, z = e_a, e_b, e_c, every side is one contraction of the two
    bracketings (xy)z and x(yz) with the structure tensor, or a diagonal
    of one of them.
    """
    import numpy as np
    rep = VerificationReport("moufang")
    c = _c()
    p, q = _triple_products()
    n = UNIT_NAMES[1:]
    triples = np.stack([
        _same(np.einsum("abnk,can->abck", p, c),      # (xy)(zx)
              np.einsum("abcn,nak->abck", q, c)),     # (x(yz))x
        _same(np.einsum("cbcn,nak->abck", p, c),      # ((zy)z)x
              np.einsum("bcan,cnk->abck", q, c)),     # z(y(zx))
        _same(np.einsum("bcbn,ank->abck", p, c),      # x((yz)y)
              np.einsum("abcn,nbk->abck", p, c)),     # ((xy)z)y
    ], axis=-1)
    rep.record_mask(triples, lambda x, y, z, i: (
        ("(xy)(zx)=x(yz)x", "(zyz)x=z(y(zx))", "x(yzy)=((xy)z)y")[i]
        + f" ({n[x]},{n[y]},{n[z]})"))
    pairs = np.stack([
        _same(np.einsum("abbk->abk", p), np.einsum("abbk->abk", q)),   # (xy)y, x(yy)
        _same(np.einsum("aabk->abk", q), np.einsum("aabk->abk", p)),   # x(xy), (xx)y
        _same(np.einsum("abak->abk", p), np.einsum("abak->abk", q)),   # (xy)x, x(yx)
    ], axis=-1)
    rep.record_mask(pairs, lambda x, y, i: (
        ("(xy)y=xy^2", "x(xy)=x^2y", "(xy)x=x(yx)")[i] + f" ({n[x]},{n[y]})"))
    return rep


def _malcev_tensors():
    """The commutator algebra on units as integer tensors over the last axis:
    2[e_a,e_b], 4[[e_a,e_b],e_c], 12 J(e_a,e_b,e_c) and 4 D_{e_a,e_b}(e_c)."""
    import numpy as np
    c = _c()
    b2 = c - c.transpose(1, 0, 2)
    bb = np.einsum("abm,mck->abck", b2, b2)
    j12 = bb + np.einsum("bcak->abck", bb) + np.einsum("cabk->abck", bb)
    return b2, bb, j12, 2 * bb - j12


def verify_malcev() -> VerificationReport:
    """Malcev relation plus the 4- and 5-element Jacobiator identities
    of the commutator algebra, exactly.

    Products inside the sweep are Malcev products [x,y] = (xy-yx)/2; on
    pairwise-anticommuting units these equal the plain products, but the
    identities hold on ALL tuples (repeats included) only for the
    commutator algebra.  The 4- and 5-element identities carry their
    derivation-defect terms:

        J([x,y],z,w) + J([y,z],x,w) + J([z,x],y,w) = 2[J(x,y,z),w]
        J(x,y,[z,w]) = [J(x,y,z),w] + [z,J(x,y,w)] - 2 J([x,y],z,w)
        D(J(z,u,v)) = J(Dz,u,v) + J(z,Du,v) + J(z,u,Dv),
            D = D_{x,y} = 2 ad_[x,y] - 3 J(x,y,.)

    Every identity is a contraction of the integer tensors 2[,], 12 J and
    4 D, with both sides scaled by one common denominator (8 for the
    Malcev relation, 24 for the Jacobiator identities, 48 for the
    derivation).  Each contraction is one two-operand float64 product;
    every side sums at most 32 products of two entries, so exact_float64
    certifies that float64 gives the integer result.
    """
    import numpy as np
    rep = VerificationReport("malcev")
    b2, bb, j12, d4 = exact_float64(*_malcev_tensors(), degree=2, terms=32)
    n = UNIT_NAMES[1:]
    b2_a = b2.transpose(1, 0, 2)[:, None]           # [a, 1, n, k] = b2[n, a, k]
    # x8: [[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]
    # (the left side contracts [[x,y],n] with [x,z]_n)
    malcev = _same(b2[:, None] @ bb,
                   (bb + bb.transpose(2, 0, 1, 3)) @ b2_a
                   + np.tensordot(np.einsum("caan->can", bb), b2, 1).transpose(1, 2, 0, 3))
    # x24: J(x,y,[x,z]) = [J(x,y,z),x]
    jxz = _same(b2[:, None] @ j12, j12 @ b2_a)
    rep.record_mask(np.stack([malcev, jxz], axis=-1), lambda a, b, c, i: (
        ("malcev", "J(x,y,xz)=J(x,y,z)x")[i] + f" ({n[a]},{n[b]},{n[c]})"))

    # x24: both 4-element identities
    j_of_b = np.tensordot(b2, j12, 1)                # J([x,y],z,w)
    b_of_j = np.tensordot(j12, b2, 1)                # [J(x,y,z),w]
    cyclic = _same(j_of_b + j_of_b.transpose(2, 0, 1, 3, 4) + j_of_b.transpose(1, 2, 0, 3, 4),
                   2 * b_of_j)
    leibniz = _same(np.tensordot(j12, b2, ([2], [2])).transpose(0, 1, 3, 4, 2),
                    b_of_j + np.tensordot(j12, b2, ([3], [1])).transpose(0, 1, 3, 2, 4)
                    - 2 * j_of_b)
    rep.record_mask(np.stack([cyclic, leibniz], axis=-1), lambda a, b, c, d, i: (
        ("4-elem cyclic", "4-elem leibniz")[i] + f" ({n[a]},{n[b]},{n[c]},{n[d]})"))

    # x48: D(J(z,u,v)) = J(Dz,u,v) + J(z,Du,v) + J(z,u,Dv), one x at a time:
    # all 7^5 tuples at once would hold several MB of intermediates.  With
    # y, z, u, v over the units, each term is one product over the
    # component m of the inner value.
    u = slice(1, None)
    j_m = j12[u, u, u].reshape(343, 8)                            # J(z,u,v)_m
    j_z = j12[:, u, u].reshape(8, 392)                            # J(e_m,u,v)
    j_u = j12[u, :, u].transpose(1, 0, 2, 3).reshape(8, 392)      # J(z,e_m,v)
    j_v = j12[u, u, :].transpose(2, 0, 1, 3).reshape(8, 392)      # J(z,u,e_m)
    shape = (7, 7, 7, 7, 8)
    derivation = []
    for d in d4[u, u]:                          # D_{x,y}(e_m) at [y, m, k]
        dz = d[:, u].reshape(49, 8)             # D_{x,y}(e_z)_m at [(y, z), m]
        lhs = (j_m @ d.transpose(1, 0, 2).reshape(8, 56)).reshape(shape)     # [z,u,v,y,k]
        rhs = ((dz @ j_z).reshape(shape)
               + (dz @ j_u).reshape(shape).transpose(0, 2, 1, 3, 4)
               + (dz @ j_v).reshape(shape).transpose(0, 2, 3, 1, 4))
        derivation.append((lhs.transpose(3, 0, 1, 2, 4) == rhs).all(axis=-1))
    derivation = np.stack(derivation)
    rep.record_mask(derivation, lambda a, b, z, u, v: (
        f"5-elem ({n[a]},{n[b]},{n[z]},{n[u]},{n[v]})"))
    return rep


# the first two arguments of the associator families
_FAMILY_KINDS = (("j", "j"), ("j", "J"), ("J", "J"))


def verify_associators() -> VerificationReport:
    """The six non-vanishing associator families, total antisymmetry, the
    full 343-triple closure against the family-predicted table, and the
    associator-commutator bridge.

    The computed side is the contraction 2A of the structure tensor; the
    expected side comes from _family_value and expected_associator, which
    do not read the table.  The bridge compares 6 * 2A with 12 J.
    """
    import numpy as np
    rep = VerificationReport("associators")
    p, q = _triple_products()
    a2 = p - q                       # 2 A(e_a, e_b, e_c)

    # families at [n, m, slot, family]: the third argument is I at slot 0
    # and J_k at slot k
    got = np.empty((3, 3, 4, 3, 8), dtype=np.int64)
    want = np.empty_like(got)
    for n, m, slot, f in itertools.product((1, 2, 3), (1, 2, 3), range(4), range(3)):
        x, y = _FAMILY_KINDS[f]
        a = n if x == "j" else 4 + n
        b = m if y == "j" else 4 + m
        got[n - 1, m - 1, slot, f] = a2[a, b, IDX_I + slot]
        val = (_family_value((x, y, "J"), (n, m, slot)) if slot
               else _family_value((x, y, "I"), (n, m)))
        want[n - 1, m - 1, slot, f] = val.c
    rep.record_mask((got == 2 * want).all(axis=-1), lambda n, m, slot, f: (
        f"A({_FAMILY_KINDS[f][0]}{n + 1},{_FAMILY_KINDS[f][1]}{m + 1},"
        f"{f'J{slot}' if slot else 'I'})"))

    h = a2[1:, 1:, 1:]
    table = np.array([[[expected_associator(a, b, c).c for c in HYPER] for b in HYPER]
                      for a in HYPER], dtype=np.int64)
    j12 = _malcev_tensors()[2][1:, 1:, 1:]
    triples = np.stack([
        ((h == -h.transpose(1, 0, 2, 3)) & (h == -h.transpose(0, 2, 1, 3))).all(axis=-1),
        (h == 2 * table).all(axis=-1),
        (6 * h == j12).all(axis=-1),
    ], axis=-1)
    names = UNIT_NAMES[1:]
    rep.record_mask(triples, lambda a, b, c, i: (
        ("antisymmetry", "table closure", "commutator bridge")[i]
        + f" ({names[a]},{names[b]},{names[c]})"))
    return rep


# ---------------------------------------------------------------------------
# basis generation from the three J_n (independent Zorn-matrix model)
# ---------------------------------------------------------------------------

class _Zorn:
    """Zorn vector matrix [[a, v], [w, b]]; an independent faithful model of
    the split octonions used to certify the generated table."""

    __slots__ = ("a", "v", "w", "b")

    def __init__(self, a, v, w, b):
        self.a, self.v, self.w, self.b = a, tuple(v), tuple(w), b

    def __eq__(self, other):
        return (self.a, self.v, self.w, self.b) == (other.a, other.v, other.w, other.b)

    def __hash__(self):
        return hash((self.a, self.v, self.w, self.b))

    def __add__(self, other):
        return _Zorn(self.a + other.a,
                     tuple(p + q for p, q in zip(self.v, other.v)),
                     tuple(p + q for p, q in zip(self.w, other.w)),
                     self.b + other.b)

    def __neg__(self):
        return _Zorn(-self.a, tuple(-p for p in self.v), tuple(-p for p in self.w), -self.b)

    def scale(self, c):
        return _Zorn(c * self.a, tuple(c * p for p in self.v),
                     tuple(c * p for p in self.w), c * self.b)

    def halved(self):
        """This element over 2; raises unless every entry is even."""
        entries = (self.a, *self.v, *self.w, self.b)
        if any(p % 2 for p in entries):
            raise ConstructionError("an element expected to be twice a unit is not even")
        return _Zorn(self.a // 2, tuple(p // 2 for p in self.v),
                     tuple(p // 2 for p in self.w), self.b // 2)

    def __mul__(self, other):
        dot = lambda p, q: sum(x * y for x, y in zip(p, q))
        cross = lambda p, q: (p[1] * q[2] - p[2] * q[1],
                              p[2] * q[0] - p[0] * q[2],
                              p[0] * q[1] - p[1] * q[0])
        a = self.a * other.a + dot(self.v, other.w)
        v = tuple(self.a * x + other.b * y - z
                  for x, y, z in zip(other.v, self.v, cross(self.w, other.w)))
        w = tuple(other.a * x + self.b * y + z
                  for x, y, z in zip(self.w, other.w, cross(self.v, other.v)))
        b = self.b * other.b + dot(self.w, other.v)
        return _Zorn(a, v, w, b)


def generate_basis_from_J() -> StructureConstants:
    """Recover the full table from the three J_n alone.

    The J_n are modelled as independent anticommuting square-one elements;
    j_n is built as (1/2) eps_nmk J^m J^k, I as J_1 j_1, and the table is
    closed by breadth-first products canonicalized to +/- a known unit.
    The model stays integral: 2 j_n is formed and halved only when even,
    and I is compared with the Jacobiator as -3 I.  The result must match
    the hard-coded constants byte for byte.
    """
    e3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    Jg = {n: _Zorn(0, e3[n - 1], e3[n - 1], 0) for n in (1, 2, 3)}

    one = Jg[1] * Jg[1]
    for n in (1, 2, 3):
        if Jg[n] * Jg[n] != one:
            raise ConstructionError("J_n^2 != 1 in the generator model")
        for m in (1, 2, 3):
            if m != n and Jg[m] * Jg[n] != -(Jg[n] * Jg[m]):
                raise ConstructionError("J_m J_n != -J_n J_m in the generator model")

    jg = {}
    for n in (1, 2, 3):
        acc = _Zorn(0, (0, 0, 0), (0, 0, 0), 0)       # 2 j_n
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                e = epsilon(n, m, k)
                if e:
                    acc = acc + (Jg[m] * Jg[k]).scale(e)
        jg[n] = acc.halved()
    Ig = Jg[1] * jg[1]

    # I must coincide with -J(J1,J2,J3) built from plain products, J = jac / 3
    jac = (Jg[1] * Jg[2]) * Jg[3] + (Jg[2] * Jg[3]) * Jg[1] + (Jg[3] * Jg[1]) * Jg[2]
    if Ig.scale(-3) != jac:
        raise ConstructionError("I != -J(J1,J2,J3) in the generator model")
    for n in (2, 3):
        if Jg[n] * jg[n] != Ig:
            raise ConstructionError(f"J_{n} j_{n} != I in the generator model")

    basis = [one, jg[1], jg[2], jg[3], Ig, Jg[1], Jg[2], Jg[3]]
    if len(set(basis)) != 8:
        raise ConstructionError("closure produced fewer than 8 distinct units")

    frontier = list(range(8))
    table = [[None] * 8 for _ in range(8)]
    while frontier:
        a = frontier.pop()
        for b in range(8):
            for lhs, rhs, slot in ((a, b, (a, b)), (b, a, (b, a))):
                if table[slot[0]][slot[1]] is not None:
                    continue
                prod = basis[lhs] * basis[rhs]
                match = None
                for idx, u in enumerate(basis):
                    if prod == u:
                        match = (idx, 1)
                        break
                    if prod == -u:
                        match = (idx, -1)
                        break
                if match is None:
                    raise ConstructionError(
                        f"product of units {lhs},{rhs} is not +/- a basis unit")
                table[slot[0]][slot[1]] = match
    return StructureConstants(tuple(tuple(row) for row in table))
