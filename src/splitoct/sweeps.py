"""The verification sweeps: the identity suites of the split octonions and
the table, sampled and double-cover suites of the triality, with the
helpers and generator tables that only they use.  Each fact has one
report: X^2 = q(x) Id is ``clifford``'s; the squares and signs of the unit
table, read as they are, are ``octonion-table``'s.

Only ``sot verify`` and the tests import this module.  ``octonion`` and
``triality`` keep each of the thirteen suite names as a function that
imports this module when it is called and runs the suite here, so a
one-shot process neither compiles this source nor imports numpy.  The sweeps reach every
object derived from the unit table, and every kernel, through its module
at call time (``oc._TABLE``, ``oc.mul``, ``_c()``, ``tr.equivalence_map``,
``cl.rotate_vector``): code that installs another table with
``oc._forms`` or wraps a kernel is seen here too.

The octonion suites contract the dense structure tensor C[a,b,k] (e_a e_b =
sum_k C[a,b,k] e_k), built from ``oc._TABLE`` on first use and kept here
until another table is installed; basis generation rebuilds the table in
an independent Zorn vector-matrix model.  The first-order tables of the
L_01 and L_04 actions and of the role-swap rotor are compared with ==
against the exact generators of ``cl.plane_generator``, each table as one
mask.  The float suites turn their vector and spinor stacks through
``cl.turn_pair`` and each plane's signed permutation
(``cl._bivector_action``), as ``sot rotate`` turns one vector or spinor.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import clifford as cl
from . import octonion as oc
from . import triality as tr
from .exact import exact_float64, sample_integers
from .octonion import (HYPER, IDX_I, UNIT_NAMES, ConstructionError, SplitOctonion,
                       StructureConstants, epsilon)
from .report import VerificationReport
from .triality import DEFAULT_SEED


# ---------------------------------------------------------------------------
# structure tensor
# ---------------------------------------------------------------------------

def _structure_tensor(table):
    """C[a,b,k] with e_a e_b = sum_k C[a,b,k] e_k, read off a unit table,
    as an int64 array."""
    c = np.zeros((8, 8, 8), dtype=np.int64)
    for a, row in enumerate(table):
        for b, (k, sign) in enumerate(row):
            c[a, b, k] = sign
    c.flags.writeable = False
    return c


_C = None, None      # a unit table and its structure tensor


def _c():
    """The structure tensor of oc._TABLE, built on first use and again
    whenever another table has been installed."""
    global _C
    if _C[0] is not oc._TABLE:
        _C = oc._TABLE, _structure_tensor(oc._TABLE)
    return _C[1]


# ---------------------------------------------------------------------------
# octonion identity sweeps
# ---------------------------------------------------------------------------

def verify_table() -> VerificationReport:
    """All 64 unit products against oc._TABLE, plus squares and
    anticommutativity; a wrong square or sign is a case naming its entry."""
    rep = VerificationReport("octonion-table")
    for a in range(8):
        for b in range(8):
            idx, sign = oc._TABLE[a][b]
            got = oc.mul(SplitOctonion.unit(a), SplitOctonion.unit(b))
            want = sign * SplitOctonion.unit(idx)
            rep.record_case(got == want, f"{UNIT_NAMES[a]}*{UNIT_NAMES[b]}")
    for k, sq in ((5, 1), (6, 1), (7, 1), (1, -1), (2, -1), (3, -1), (4, 1)):
        got = oc.mul(SplitOctonion.unit(k), SplitOctonion.unit(k))
        rep.record_case(got == SplitOctonion.scalar(sq), f"{UNIT_NAMES[k]}^2")
    for a in HYPER:
        for b in HYPER:
            if a < b:
                x, y = SplitOctonion.unit(a), SplitOctonion.unit(b)
                rep.record_case(oc.mul(x, y) == -oc.mul(y, x),
                                f"anticommute {UNIT_NAMES[a]},{UNIT_NAMES[b]}")
    return rep


def _same(lhs, rhs):
    """Per-case equality over the coefficient axis, on hyper-complex unit
    tuples only."""
    units = (slice(1, None),) * (lhs.ndim - 1)
    return (lhs[units] == rhs[units]).all(axis=-1)


def _triple_products():
    """(e_a e_b) e_c and e_a (e_b e_c) over the last axis."""
    c = _c()
    return np.einsum("abm,mck->abck", c, c), np.einsum("bcm,amk->abck", c, c)


def verify_moufang() -> VerificationReport:
    """Flexible Moufang identities on all 343 unit triples and the mild
    associative laws on all 49 pairs, exactly.

    With x, y, z = e_a, e_b, e_c, every side is one contraction of the two
    bracketings (xy)z and x(yz) with the structure tensor, or a diagonal
    of one of them.
    """
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
    expected side comes from oc._family_value and oc.expected_associator,
    which do not read the table.  The bridge compares 6 * 2A with 12 J.
    """
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
        val = (oc._family_value((x, y, "J"), (n, m, slot)) if slot
               else oc._family_value((x, y, "I"), (n, m)))
        want[n - 1, m - 1, slot, f] = val.c
    rep.record_mask((got == 2 * want).all(axis=-1), lambda n, m, slot, f: (
        f"A({_FAMILY_KINDS[f][0]}{n + 1},{_FAMILY_KINDS[f][1]}{m + 1},"
        f"{f'J{slot}' if slot else 'I'})"))

    h = a2[1:, 1:, 1:]
    table = np.array([[[oc.expected_associator(a, b, c).c for c in HYPER] for b in HYPER]
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
    j_n is built as (1/2) eps_nmk J^m J^k, I as J_1 j_1, and each of the 64
    unit products is looked up as +/- one of the eight units.
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

    # +-unit -> (index, sign); the lowest index wins, as a scan of the basis would
    units = {}
    for idx, u in enumerate(basis):
        units.setdefault(u, (idx, 1))
        units.setdefault(-u, (idx, -1))
    table = tuple(tuple(units.get(x * y) for y in basis) for x in basis)
    for a in range(8):
        for b in range(8):
            if table[a][b] is None:
                raise ConstructionError(f"product of units {a},{b} is not +/- a basis unit")
    return StructureConstants(table)


# ---------------------------------------------------------------------------
# the quadratic-invariant correspondence
# ---------------------------------------------------------------------------

BLOCK = 64          # samples per stacked evaluation in the batched suites

def _blocks(n: int):
    """(start, size) of the consecutive blocks of at most BLOCK samples."""
    return ((start, min(BLOCK, n - start)) for start in range(0, n, BLOCK))


def correspondence_check(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """conj(X)X == q(x), conj(Phi)Phi == phi^T B phi, conj(Psi)Psi ==
    psi^T B psi on matched integer components, exactly.

    Runs as stacked float64 products, exact by exact_float64, one block of
    samples at a time: conj(v)v through the octonion structure tensor and
    the spinor forms through the exact 2x quadratic-form matrix.  X^2 =
    q(x) Id is the Clifford relation, which ``clifford`` checks.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rep = VerificationReport("correspondence",
                             meta={"seed": seed, "samples": n_samples,
                                   "convention": tr.PINNED_CONVENTION.label})
    rng = np.random.default_rng(seed)
    # the largest sum is 2 conj(v)v: 2 x 64 products v_a C[a,b,0] v_b
    c, q2, metric = exact_float64(_c().reshape(8, 64), cl._Q_SPINOR_2.re, cl.METRIC,
                                  degree=3, terms=2 * 64, sampled=True)
    for start, n in _blocks(n_samples):
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)      # x, phi, psi
        x, phi, psi = v[:, 0], v[:, 1], v[:, 2]
        # (conj(v) v)_c = sum_b v_b (sum_a conj(v)_a C[a,b,c])
        prod = (v[..., None, :] @ ((v * oc._CONJ_SIGNS) @ c).reshape(n, 3, 8, 8))[..., 0, :]
        scalar_only = ~prod[..., 1:].any(axis=2)
        vec_ok = scalar_only[:, 0] & (prod[:, 0, 0] == (x * x) @ metric)
        inv2_phi = ((phi @ q2[0:8, 0:8]) * phi).sum(axis=1)
        inv2_psi = ((psi @ q2[8:16, 8:16]) * psi).sum(axis=1)
        spin_ok = (scalar_only[:, 1] & scalar_only[:, 2]
                   & (inv2_phi == 2 * prod[:, 1, 0]) & (inv2_psi == 2 * prod[:, 2, 0]))
        rep.record_mask(np.stack([vec_ok, spin_ok], axis=1),
                        lambda k, j, start=start: f"{('vector', 'spinor')[j]} sample {start + k}")
    return rep


# ---------------------------------------------------------------------------
# generator tables: the first-order coefficients of the L_01 rotation, the
# L_04 boost and the composite role-swap rotor on (x, phi, psi), as
# (output, input, coefficient) entries, checked with == against the exact
# generators of cl.plane_generator
# ---------------------------------------------------------------------------

def gen_matrix(entries):
    """The dense 8x8 float64 matrix of a generator table; repeated entries add."""
    m = np.zeros((8, 8))
    for out_i, in_j, coeff in entries:
        m[out_i, in_j] += coeff
    return m


# d/dtheta at 0 of the L_01 action
L01_X = ((0, 1, -1.0), (1, 0, 1.0))
L01_PHI = ((0, 1, 0.5), (1, 0, -0.5), (2, 3, -0.5), (3, 2, 0.5),
           (4, 5, -0.5), (5, 4, 0.5), (6, 7, 0.5), (7, 6, -0.5))
L01_PSI = ((0, 1, 0.5), (1, 0, -0.5), (2, 3, 0.5), (3, 2, -0.5),
           (4, 5, 0.5), (5, 4, -0.5), (6, 7, -0.5), (7, 6, 0.5))

# d/dtheta at 0 of the L_04 action
L04_X = ((0, 4, 1.0), (4, 0, 1.0))
L04_PHI = tuple((k, (k + 4) % 8, -0.5) for k in range(8))
L04_PSI = ((0, 4, -0.5), (1, 5, 0.5), (2, 6, 0.5), (3, 7, 0.5),
           (4, 0, -0.5), (5, 1, 0.5), (6, 2, 0.5), (7, 3, 0.5))

# composite role-swap rotor L10 L23 L54 L67 at half angle
COMPOSITE_X = ((0, 1, 0.5), (1, 0, -0.5), (2, 3, -0.5), (3, 2, 0.5),
               (4, 5, -0.5), (5, 4, 0.5), (6, 7, 0.5), (7, 6, -0.5))
COMPOSITE_PHI = ((0, 1, 0.5), (1, 0, -0.5), (2, 3, 0.5), (3, 2, -0.5),
                 (4, 5, 0.5), (5, 4, -0.5), (6, 7, -0.5), (7, 6, 0.5))
COMPOSITE_PSI = ((0, 1, -1.0), (1, 0, 1.0))

ROLE_SWAP_PLANES = ((1, 0), (2, 3), (5, 4), (6, 7))
BOOST_THETA = 0.5    # the angle of boost_table_check's finite boost


def _check_generators(rep, tables, generators) -> None:
    """The x, phi and psi tables against the exact generators, read as
    float64 (exact: every entry is a quarter), one case per entry of each
    dense table, in C order, compared with ==; a failing entry names its
    position and both values."""
    gens = np.asarray(generators, dtype=np.float64)
    for name, entries, gen in zip(("x", "phi", "psi"), tables, gens):
        table = gen_matrix(entries)
        rep.record_mask(table == gen, lambda i, j, name=name, table=table, gen=gen: (
            f"{name}[{i},{j}] table {float(table[i, j])} generator {Fraction(gen[i, j])}"))


def infinitesimal_table_check(plane: str = "01") -> VerificationReport:
    """The L_01 or L_04 tables on (x, phi, psi) against the exact generator
    of the plane."""
    if plane == "01":
        mu, nu = 0, 1
        tables = (L01_X, L01_PHI, L01_PSI)
    elif plane == "04":
        mu, nu = 0, 4
        tables = (L04_X, L04_PHI, L04_PSI)
    else:
        raise ValueError("plane must be '01' or '04'")
    rep = VerificationReport(f"infinitesimal-L{mu}{nu}")
    _check_generators(rep, tables, cl.plane_generator(mu, nu))
    return rep


def boost_table_check() -> VerificationReport:
    """The L_04 hyperbolic table, a finite-angle boost of x by BOOST_THETA,
    and the isotropic planes the spinor halves move in."""
    rep = infinitesimal_table_check("04")
    rep.name = "boost-table"
    rep.exact = False
    # finite-angle hyperbolic check on the x side
    x = np.zeros(8)
    x[0] = 1.0
    moved = cl.rotate_vector(x, cl.rotor(0, 4, BOOST_THETA))
    want = np.zeros(8)
    want[0] = math.cosh(BOOST_THETA)
    want[4] = math.sinh(BOOST_THETA)
    resid = float(np.max(np.abs(moved - want)))
    rep.record_case(resid <= 1e-12, f"x0 boost at theta={BOOST_THETA}", residual=resid)
    # planes touched by the phi generator
    phi = cl.plane_generator(0, 4)[1]
    planes = sorted({(min(i, j), max(i, j)) for i in range(8) for j in range(8) if phi[i][j]})
    rep.meta["spinor_isotropic_planes"] = [f"Gamma{p[0]}Gamma{p[1]}" for p in planes]
    rep.meta["spinor_component_pairs"] = [list(p) for p in planes]
    return rep


def role_swap_check() -> VerificationReport:
    """The composite rotor's tables on (x, phi, psi) against its exact
    generator, 1/2 the sum of the generators of its four planes: x and phi
    move at half angle, psi performs a plain full-angle rotation in the
    (0,1) plane."""
    gens = np.array([cl.plane_generator(mu, nu) for mu, nu in ROLE_SWAP_PLANES],
                    dtype=np.float64)
    rep = VerificationReport("role-swap")
    _check_generators(rep, (COMPOSITE_X, COMPOSITE_PHI, COMPOSITE_PSI), gens.sum(axis=0) / 2)
    return rep


# ---------------------------------------------------------------------------
# sampled invariance suites
# ---------------------------------------------------------------------------

def _draw_rotors(rng, shape, bound: float):
    """Planes and angles of a block of rotors, one generator call each: mu
    uniform on 0..7, nu uniform on the seven others (mu plus an offset of 1
    to 7, mod 8) and theta uniform on [-bound, bound), as arrays of
    ``shape``."""
    mu = rng.integers(0, 8, shape)
    nu = (mu + 1 + rng.integers(0, 7, shape)) % 8
    return mu, nu, rng.uniform(-bound, bound, shape)


def _half_angles(mu, nu, theta):
    """cl.half_angle of each rotor of the flat arrays mu, nu, theta, called
    on Python floats, as a (rotors, 2) array."""
    g = cl.METRIC
    return np.array([cl.half_angle(g[m] * g[n] > 0, t)
                     for m, n, t in zip(mu.tolist(), nu.tolist(), theta.tolist())])


def _actions():
    """(columns, signs) of cl._bivector_action for every plane, as int64
    arrays at [mu, nu, i]; the planes mu == nu hold zeros."""
    zero = ((0, 0),) * 16
    a = np.array([[cl._bivector_action(mu, nu) if mu != nu else zero for nu in range(8)]
                  for mu in range(8)])
    return a[..., 0], a[..., 1]


def _turn(x, eta, rows, actions, mu, nu, c, s) -> None:
    """Row rows[k] of the vector stack x (n, 8) and of the spinor stack eta
    (n, 16) by the rotor of plane (mu[k], nu[k]) with half-angle pair (c[k],
    s[k]), in place: x through cl.turn_pair, eta through the plane's signed
    permutation as cl._TURN does it, component i becoming c e_i -
    s (g_i e_j_i + 0.0).  Elementwise, so each row rounds as
    rotate_vector_list and rotate_spinor_list round one list."""
    g = np.array(cl.METRIC, dtype=np.float64)
    x[rows, mu], x[rows, nu] = cl.turn_pair(x[rows, mu], x[rows, nu], g[mu], g[nu], c, s)
    columns, signs = actions[0][mu, nu], actions[1][mu, nu]
    e = eta[rows]
    c, s = c[:, None], s[:, None]
    eta[rows] = c * e - s * (signs * np.take_along_axis(e, columns, axis=1) + 0.0)


def _sumsq(v):
    """Squared Euclidean norm of each row."""
    return np.einsum("ki,ki->k", v, v)


def _drift(before, after, size_before, size_after):
    """|before - after| relative to the Euclidean size of the data (at least 1)."""
    return np.abs(before - after) / np.maximum(np.maximum(size_before, size_after), 1.0)


def _vector_forms(x):
    """cl.quadratic_form of each row."""
    return np.einsum("ki,ki->k", x[:, :4] - x[:, 4:], x[:, :4] + x[:, 4:])


def _spinor_forms(eta):
    """The float evaluation of cl.spinor_invariant on each row."""
    q = cl._Q_SPINOR_2.re / 2.0
    return (np.einsum("ki,ij,kj->k", eta[:, 0:8], q[0:8, 0:8], eta[:, 0:8])
            + np.einsum("ki,ij,kj->k", eta[:, 8:16], q[8:16, 8:16], eta[:, 8:16]))


def rotor_invariance_check(n_rotors: int = 1000, seed: int = DEFAULT_SEED,
                           tol: float = 1e-12) -> VerificationReport:
    """Vector quadratic form and spinor invariant preserved under random
    rotors with |theta| <= 3 on compact and boost planes.

    The residual of a sample is the change of its invariant over the
    squared Euclidean norm of the data, before or after, at least 1.
    Samples are drawn and acted on in blocks of BLOCK: each block draws its
    planes, then its angles, then all its components, one generator call
    each (_draw_rotors, then an (n, 24) integer draw).
    """
    rep = VerificationReport("rotor-invariance", exact=False,
                             meta={"seed": seed, "samples": n_rotors, "tolerance": tol})
    rng = np.random.default_rng(seed)
    actions = _actions()
    for start, n in _blocks(n_rotors):
        mu, nu, theta = _draw_rotors(rng, n, 3)
        v = sample_integers(rng, (n, 24)).astype(np.float64)     # x, then eta
        half = _half_angles(mu, nu, theta)
        x, eta = v[:, :8], v[:, 8:]
        x1, eta1 = x.copy(), eta.copy()
        _turn(x1, eta1, np.arange(n), actions, mu, nu, *half.T)
        resid = np.stack([
            _drift(_vector_forms(x), _vector_forms(x1), _sumsq(x), _sumsq(x1)),
            _drift(_spinor_forms(eta), _spinor_forms(eta1), _sumsq(eta), _sumsq(eta1)),
        ], axis=1)

        def label(k, j, start=start, mu=mu, nu=nu):
            return f"{('vector', 'spinor')[j]} rotor {start + k} plane ({mu[k]},{nu[k]})"
        rep.record_mask(resid <= tol, label, residual=resid)
    return rep


def _trilinear_slices():
    """The slices K_b of cl.trilinear_slice, stacked at [b, i, j] (int64)."""
    return np.array([cl.trilinear_slice(b) for b in range(8)])


def _trilinear_forms(slices, phi, x, psi):
    """cl.trilinear_matrix of each row triple, on _trilinear_slices in float64."""
    return np.einsum("kb,ki,bij,kj->k", x, phi, slices, psi)


def trilinear_invariance_check(n_samples: int = 200, seed: int = DEFAULT_SEED,
                               tol: float = 1e-12) -> VerificationReport:
    """The matrix trilinear form under simultaneous rotor words on
    (phi, x, psi).

    The residual of a sample is the change of the form over the product of
    the three Euclidean norms, before or after, at least 1.  Words act
    right to left, the last rotor first, on stacks of BLOCK samples.  Each
    block draws its word lengths, then the planes and angles of all 8 word
    slots of every sample (_draw_rotors), then all its components, one
    generator call each; half angles are formed for the used slots only.
    """
    rep = VerificationReport("trilinear-invariance", exact=False,
                             meta={"seed": seed, "samples": n_samples, "tolerance": tol})
    rng = np.random.default_rng(seed)
    actions = _actions()
    slices = _trilinear_slices().astype(np.float64)
    for start, n in _blocks(n_samples):
        lengths = rng.integers(1, 9, n)
        mu, nu, theta = _draw_rotors(rng, (n, 8), 2)
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)   # phi, x, psi
        used = np.arange(8) < lengths[:, None]
        half = np.zeros((n, 8, 2))
        half[used] = _half_angles(mu[used], nu[used], theta[used])
        phi, x, psi = v[:, 0], v[:, 1], v[:, 2]
        # [phi | psi] as one spinor row: no plane mixes the chiral halves
        x1, eta = x.copy(), np.concatenate([phi, psi], axis=1)
        for step in range(8):
            rows = np.flatnonzero(lengths > step)
            j = lengths[rows] - 1 - step
            _turn(x1, eta, rows, actions, mu[rows, j], nu[rows, j], *half[rows, j].T)
        phi1, psi1 = eta[:, 0:8], eta[:, 8:16]
        size = np.sqrt(_sumsq(phi) * _sumsq(x) * _sumsq(psi))
        size1 = np.sqrt(_sumsq(phi1) * _sumsq(x1) * _sumsq(psi1))
        resid = _drift(_trilinear_forms(slices, phi, x, psi),
                       _trilinear_forms(slices, phi1, x1, psi1), size, size1)
        def label(k, start=start, lengths=lengths):
            return f"word {start + k} length {lengths[k]}"
        rep.record_mask(resid <= tol, label, residual=resid)
    return rep


def dictionary_random_check(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """The identity dictionary on random integer triples: the two forms of
    the same components must agree exactly.

    Runs on float64 stacks, exact by exact_float64, one block of samples at
    a time, as tr.trilinear_both does per sample: the matrix form through
    the trilinear slices and -inner(conj(Phi), X Psi) through the octonion
    structure tensor, compared as 2 F_matrix == 2 F_oct.  A dictionary
    that fails its exact check on the basis triples is one more failed
    case, named by the oracle's message, and is left out of meta.
    """
    rep = VerificationReport("trilinear-dictionary",
                             meta={"seed": seed, "samples": n_samples})
    try:
        rep.meta["dictionary"] = tr.equivalence_map().to_json()
    except tr.OracleError as exc:
        rep.record_case(False, str(exc))
    # the largest sum is 2 F_oct: 8^4 products phi_a M[a,j] x_b psi_c C[b,c,j],
    # |M[a,j]| at most 2
    slices, c, inner2 = exact_float64(
        _trilinear_slices().transpose(1, 0, 2).reshape(8, 64),
        _c().reshape(8, 64),
        tr._conj_inner2(), degree=5, terms=2 * 8 ** 4, sampled=True)
    rng = np.random.default_rng(seed)
    for start, n in _blocks(n_samples):
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)      # phi, x, psi
        phi, x, psi = v[:, 0], v[:, 1], v[:, 2]
        # F_matrix = sum_b x_b (phi K_b psi), with K_b[i, j] at [i, (b, j)]
        mat = ((phi @ slices).reshape(n, 8, 8) @ psi[:, :, None])[:, :, 0]
        mat = (mat * x).sum(axis=1)
        # (X Psi)_c = sum_b psi_b (sum_a x_a C[a,b,c])
        xpsi = (psi[:, None, :] @ (x @ c).reshape(n, 8, 8))[:, 0]
        oct2 = -((phi @ inner2) * xpsi).sum(axis=1)        # 2 F_oct
        ok = 2 * mat == oct2
        rep.record_mask(ok, lambda k, start=start: f"triple {start + k}")
    return rep


def double_cover_check(tol: float = 1e-12) -> VerificationReport:
    """Compact rotors at 2pi negate spinors and fix vectors; 4pi fixes both."""
    rep = VerificationReport("double-cover", exact=False, meta={"tolerance": tol})
    rng = np.random.default_rng(DEFAULT_SEED)
    compact_planes = [(mu, nu) for mu in range(8) for nu in range(8)
                      if mu != nu and cl.METRIC[mu] * cl.METRIC[nu] > 0]
    for mu, nu in compact_planes:
        x = sample_integers(rng, 8).astype(np.float64)
        eta = sample_integers(rng, 16).astype(np.float64)
        r2 = cl.rotor(mu, nu, 2 * math.pi)
        r4 = cl.rotor(mu, nu, 4 * math.pi)
        rv = float(np.max(np.abs(cl.rotate_vector(x, r2) - x)))
        rs = float(np.max(np.abs(cl.rotate_spinor(eta, r2) + eta)))
        rv4 = float(np.max(np.abs(cl.rotate_vector(x, r4) - x)))
        rs4 = float(np.max(np.abs(cl.rotate_spinor(eta, r4) - eta)))
        size_x = max(1.0, float(np.max(np.abs(x))))
        size_eta = max(1.0, float(np.max(np.abs(eta))))
        for tag, resid, size in (("vector 2pi", rv, size_x), ("spinor 2pi", rs, size_eta),
                                 ("vector 4pi", rv4, size_x), ("spinor 4pi", rs4, size_eta)):
            rep.record_case(resid <= tol * size, f"plane ({mu},{nu}) {tag}", residual=resid)
    return rep
