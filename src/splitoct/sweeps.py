"""The verification sweeps: the identity suites of the split octonions and
the table, sampled and double-cover suites of the triality, with the
helpers and generator tables that only they use.  Each fact has one
report: X^2 = q(x) Id is ``clifford``'s; the squares and signs of the unit
table, read as they are, are ``octonion-table``'s.

Only ``sot verify`` and the tests import this module: ``octonion`` and
``triality`` hold each of the thirteen suites as an entry point made by
``octonion._sweep``, so a one-shot process neither compiles this source
nor imports numpy.  The sweeps reach every object derived from the unit
table, and every kernel, through its module at call time (``oc._TABLE``,
``oc.mul``, ``tr.equivalence_map``, ``cl.rotate_vector``): code that
installs another table with ``oc._forms`` or wraps a kernel is seen here
too.

The octonion suites contract the dense structure tensor C[a,b,k] (e_a e_b =
sum_k C[a,b,k] e_k), built from ``oc._TABLE`` at each call of ``_c``.  Each
side of a Moufang, Malcev or associator identity is one ``np.einsum``
whose subscripts name the identity's variables: x, y, z, w, u, v are its
arguments, sliced to the hyper-complex units (``H``) at the operand; n
and m run over all eight units inside a product; k is the coefficient.
Basis generation rebuilds the table in an independent Zorn vector-matrix
model.  The first-order tables of the L_01 and L_04 actions and of the
role-swap rotor are compared with == against the exact generators of
``cl.plane_generator``, each table as one mask.  The random dictionary
check contracts the term tensors of the two trilinear forms, read off
``cl._TRILINEAR_TERMS`` and ``oc._TRILINEAR_TERMS``, the tables their int
forms are compiled from.  The float suites turn
their vector and spinor stacks through ``cl.turn_pair`` and each plane's
signed permutation (``cl._bivector_action``), as ``sot rotate`` turns one
vector or spinor.

A float64 holds every integer below 2**53 exactly, and the sum or product
of two such integers is exact while the result stays below that bound.
So a contraction of integer arrays run through float64 BLAS products, in
any summation order, gives the integer result when every product and
partial sum stays below 2**53.  ``exact_float64`` checks that bound before
it casts.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from . import clifford as cl
from . import octonion as oc
from . import triality as tr
from .octonion import (HYPER, IDX_I, UNIT_NAMES, ConstructionError, SplitOctonion,
                       StructureConstants, epsilon)
from .report import VerificationReport
from .triality import DEFAULT_SEED


# ---------------------------------------------------------------------------
# exact integer data in float64
# ---------------------------------------------------------------------------

# the sampled suites draw integer components from [-SAMPLE_RANGE, SAMPLE_RANGE]
SAMPLE_RANGE = 9
FLOAT64_EXACT = 2 ** 53


def sample_integers(rng, size):
    """Integer components from [-SAMPLE_RANGE, SAMPLE_RANGE], the range that
    exact_float64(..., sampled=True) counts."""
    return rng.integers(-SAMPLE_RANGE, SAMPLE_RANGE + 1, size=size)


def magnitude(a) -> int:
    """The largest |entry| of an integer array, as a Python int (0 if empty)."""
    a = np.asarray(a)
    if not a.size:
        return 0
    return max(int(a.max()), -int(a.min()))


def exact_float64(*factors, degree: int, terms: int, sampled: bool = False):
    """The integer arrays ``factors`` as float64, for contractions that sum
    at most ``terms`` products of ``degree`` entries each, every entry taken
    from one of the factors (a sum with integer coefficients counts
    |coefficient| terms per product).  With ``sampled``, entries may also
    come from sampled components in [-SAMPLE_RANGE, SAMPLE_RANGE], which the
    caller draws and casts itself.

    Every such product and partial sum is at most terms * m**degree in
    size, m the largest |entry| (at least 1).  Raises OverflowError unless
    that is below 2**53, where each is exact.
    """
    m = max(1, SAMPLE_RANGE if sampled else 0, *(magnitude(f) for f in factors))
    if terms * m ** degree >= FLOAT64_EXACT:
        raise OverflowError(f"{terms} products of {degree} integers up to {m} "
                            f"may reach 2**53; float64 would round them")
    return tuple(np.asarray(f, dtype=np.float64) for f in factors)


def _dense(shape, entries):
    """The int64 array of ``shape`` holding the (*index, value) entries,
    zero elsewhere."""
    out = np.zeros(shape, dtype=np.int64)
    for *index, value in entries:
        out[tuple(index)] = value
    return out


def _c():
    """C[a,b,k] with e_a e_b = sum_k C[a,b,k] e_k, read off oc._TABLE."""
    return _dense((8, 8, 8), ((a, b, k, sign) for a, row in enumerate(oc._TABLE)
                              for b, (k, sign) in enumerate(row)))


def _trilinear_slices():
    """The slices K_b of cl._TRILINEAR_TERMS, stacked at [b, i, j]."""
    return _dense((8, 8, 8), cl._TRILINEAR_TERMS)


def _q_spinor_2():
    """The exact 2x quadratic-form matrix of the spinor invariant, from
    cl._Q_SPINOR_TERMS."""
    return _dense((16, 16), cl._Q_SPINOR_TERMS)


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


# the hyper-complex units e_1..e_7 along an argument axis
H = slice(1, None)


def _same(lhs, rhs):
    """Per-case equality over the coefficient axis."""
    return (lhs == rhs).all(axis=-1)


def _bracketings():
    """P = (xy)z and Q = x(yz) on all unit triples, at [x, y, z, k]."""
    c = _c()
    return np.einsum("xyn,nzk->xyzk", c, c), np.einsum("yzn,xnk->xyzk", c, c)


def verify_moufang() -> VerificationReport:
    """Flexible Moufang identities on all 343 unit triples and the mild
    associative laws on all 49 pairs, exactly.

    Every side is one contraction of the bracketings P = (xy)z and Q =
    x(yz) with the structure tensor C, or a diagonal of one of them, with
    x, y, z over the hyper-complex units, n over all eight and k the
    coefficient.
    """
    rep = VerificationReport("moufang")
    c = _c()
    p, q = _bracketings()
    n = UNIT_NAMES[1:]
    triples = np.stack([
        _same(np.einsum("xynk,zxn->xyzk", p[H, H], c[H, H]),      # (xy)(zx)
              np.einsum("xyzn,nxk->xyzk", q[H, H, H], c[:, H])),  # (x(yz))x
        _same(np.einsum("zyzn,nxk->xyzk", p[H, H, H], c[:, H]),   # ((zy)z)x
              np.einsum("yzxn,znk->xyzk", q[H, H, H], c[H])),     # z(y(zx))
        _same(np.einsum("yzyn,xnk->xyzk", p[H, H, H], c[H]),      # x((yz)y)
              np.einsum("xyzn,nyk->xyzk", p[H, H, H], c[:, H])),  # ((xy)z)y
    ], axis=-1)
    rep.record_mask(triples, lambda x, y, z, i: (
        ("(xy)(zx)=x(yz)x", "(zyz)x=z(y(zx))", "x(yzy)=((xy)z)y")[i]
        + f" ({n[x]},{n[y]},{n[z]})"))
    pairs = np.stack([
        _same(np.einsum("xyyk->xyk", p[H, H, H]),                 # (xy)y
              np.einsum("xyyk->xyk", q[H, H, H])),                # x(yy)
        _same(np.einsum("xxyk->xyk", q[H, H, H]),                 # x(xy)
              np.einsum("xxyk->xyk", p[H, H, H])),                # (xx)y
        _same(np.einsum("xyxk->xyk", p[H, H, H]),                 # (xy)x
              np.einsum("xyxk->xyk", q[H, H, H])),                # x(yx)
    ], axis=-1)
    rep.record_mask(pairs, lambda x, y, i: (
        ("(xy)y=xy^2", "x(xy)=x^2y", "(xy)x=x(yx)")[i] + f" ({n[x]},{n[y]})"))
    return rep


def _malcev_tensors():
    """The commutator algebra on all units as integer tensors, the
    coefficient last: 2[x,y], 4[[x,y],z], 12 J(x,y,z) and 4 D_{x,y}(z)."""
    c = _c()
    b2 = c - np.einsum("yxk->xyk", c)
    bb = np.einsum("xyn,nzk->xyzk", b2, b2)
    j12 = bb + np.einsum("yzxk->xyzk", bb) + np.einsum("zxyk->xyzk", bb)
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

    Every term is one contraction of two of the integer tensors 2[,],
    4[[,],], 12 J and 4 D over the components n or m of an inner value,
    with both sides scaled by one common denominator (8 for the Malcev
    relation, 24 for the Jacobiator identities, 48 for the derivation).
    Every side sums at most 32 products of two entries, so exact_float64
    certifies that float64 gives the integer result, in any summation
    order: each contraction runs with optimize=True, as one BLAS product,
    several times faster than einsum's own loop on the 4- and 5-element
    sides.
    """
    rep = VerificationReport("malcev")
    b2, bb, j12, d4 = exact_float64(*_malcev_tensors(), degree=2, terms=32)
    n = UNIT_NAMES[1:]
    # x8: [[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]
    malcev = _same(np.einsum("xzn,xynk->xyzk", b2[H, H], bb[H, H], optimize=True),
                   np.einsum("xyzn,nxk->xyzk", bb[H, H, H], b2[:, H], optimize=True)
                   + np.einsum("yzxn,nxk->xyzk", bb[H, H, H], b2[:, H], optimize=True)
                   + np.einsum("zxxn,nyk->xyzk", bb[H, H, H], b2[:, H], optimize=True))
    # x24: J(x,y,[x,z]) = [J(x,y,z),x]
    jxz = _same(np.einsum("xzn,xynk->xyzk", b2[H, H], j12[H, H], optimize=True),
                np.einsum("xyzn,nxk->xyzk", j12[H, H, H], b2[:, H], optimize=True))
    rep.record_mask(np.stack([malcev, jxz], axis=-1), lambda x, y, z, i: (
        ("malcev", "J(x,y,xz)=J(x,y,z)x")[i] + f" ({n[x]},{n[y]},{n[z]})"))

    # x24: both 4-element identities, through J([x,y],z,w) and [J(x,y,z),w]
    jb = np.einsum("xyn,nzwk->xyzwk", b2[H, H], j12[:, H, H], optimize=True)
    bj = np.einsum("xyzn,nwk->xyzwk", j12[H, H, H], b2[:, H], optimize=True)
    cyclic = _same(jb + np.einsum("yzxwk->xyzwk", jb) + np.einsum("zxywk->xyzwk", jb),
                   2 * bj)
    leibniz = _same(np.einsum("zwn,xynk->xyzwk", b2[H, H], j12[H, H], optimize=True),
                    bj + np.einsum("xywn,znk->xyzwk", j12[H, H, H], b2[H], optimize=True)
                    - 2 * jb)
    rep.record_mask(np.stack([cyclic, leibniz], axis=-1), lambda x, y, z, w, i: (
        ("4-elem cyclic", "4-elem leibniz")[i] + f" ({n[x]},{n[y]},{n[z]},{n[w]})"))

    # x48: D(J(z,u,v)) = J(Dz,u,v) + J(z,Du,v) + J(z,u,Dv), one x at a
    # time: all 7^5 tuples at once would hold several MB of intermediates
    derivation = []
    for d in d4[H, H]:                  # 4 D_{x,y}(e_m) at [y, m, k]
        lhs = np.einsum("zuvm,ymk->yzuvk", j12[H, H, H], d, optimize=True)
        rhs = (np.einsum("yzm,muvk->yzuvk", d[:, H], j12[:, H, H], optimize=True)
               + np.einsum("yum,zmvk->yzuvk", d[:, H], j12[H, :, H], optimize=True)
               + np.einsum("yvm,zumk->yzuvk", d[:, H], j12[H, H], optimize=True))
        derivation.append(_same(lhs, rhs))
    rep.record_mask(np.stack(derivation), lambda x, y, z, u, v: (
        f"5-elem ({n[x]},{n[y]},{n[z]},{n[u]},{n[v]})"))
    return rep


# the first two arguments of the associator families
_FAMILY_KINDS = (("j", "j"), ("j", "J"), ("J", "J"))


def verify_associators() -> VerificationReport:
    """The six non-vanishing associator families, total antisymmetry, the
    full 343-triple closure against the family-predicted table, and the
    associator-commutator bridge.

    The computed side is 2A = P - Q, from the bracketings of the structure
    tensor; the expected side comes from oc._family_value and
    oc.expected_associator, which do not read the table.  The bridge
    compares 6 * 2A with 12 J.
    """
    rep = VerificationReport("associators")
    p, q = _bracketings()
    a2 = p - q                       # 2 A(x, y, z)

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
    rep.record_mask(_same(got, 2 * want), lambda n, m, slot, f: (
        f"A({_FAMILY_KINDS[f][0]}{n + 1},{_FAMILY_KINDS[f][1]}{m + 1},"
        f"{f'J{slot}' if slot else 'I'})"))

    a2 = a2[H, H, H]
    table = np.array([[[oc.expected_associator(x, y, z).c for z in HYPER] for y in HYPER]
                      for x in HYPER], dtype=np.int64)
    triples = np.stack([
        _same(a2, -np.einsum("yxzk->xyzk", a2)) & _same(a2, -np.einsum("xzyk->xyzk", a2)),
        _same(a2, 2 * table),
        _same(6 * a2, _malcev_tensors()[2][H, H, H]),
    ], axis=-1)
    n = UNIT_NAMES[1:]
    rep.record_mask(triples, lambda x, y, z, i: (
        ("antisymmetry", "table closure", "commutator bridge")[i]
        + f" ({n[x]},{n[y]},{n[z]})"))
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
    """(start, size) of the consecutive blocks of at most BLOCK samples;
    ValueError unless there is at least one, as every sampled suite takes
    its samples through here."""
    if n < 1:
        raise ValueError("need at least one sample")
    return ((start, min(BLOCK, n - start)) for start in range(0, n, BLOCK))


def correspondence_check(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """conj(X)X == q(x), conj(Phi)Phi == phi^T B phi, conj(Psi)Psi ==
    psi^T B psi on matched integer components, exactly.

    Runs as stacked float64 products, exact by exact_float64, one block of
    samples at a time: conj(v)v through the octonion structure tensor and
    the spinor forms through the exact 2x quadratic-form matrix.  X^2 =
    q(x) Id is the Clifford relation, which ``clifford`` checks.
    """
    rep = VerificationReport("correspondence",
                             meta={"seed": seed, "samples": n_samples,
                                   "convention": tr.PINNED_CONVENTION.label})
    rng = np.random.default_rng(seed)
    # the largest sum is 2 conj(v)v: 2 x 64 products v_a C[a,b,0] v_b
    c, q2, metric = exact_float64(_c().reshape(8, 64), _q_spinor_2(), cl.METRIC,
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


def _spinor_forms(q, eta):
    """The float evaluation of cl.spinor_invariant on each row, with q the
    quadratic-form matrix in float64."""
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
    q = _q_spinor_2() / 2.0
    for start, n in _blocks(n_rotors):
        mu, nu, theta = _draw_rotors(rng, n, 3)
        v = sample_integers(rng, (n, 24)).astype(np.float64)     # x, then eta
        half = _half_angles(mu, nu, theta)
        x, eta = v[:, :8], v[:, 8:]
        x1, eta1 = x.copy(), eta.copy()
        _turn(x1, eta1, np.arange(n), actions, mu, nu, *half.T)
        resid = np.stack([
            _drift(_vector_forms(x), _vector_forms(x1), _sumsq(x), _sumsq(x1)),
            _drift(_spinor_forms(q, eta), _spinor_forms(q, eta1), _sumsq(eta), _sumsq(eta1)),
        ], axis=1)

        def label(k, j, start=start, mu=mu, nu=nu):
            return f"{('vector', 'spinor')[j]} rotor {start + k} plane ({mu[k]},{nu[k]})"
        rep.record_mask(resid <= tol, label, residual=resid)
    return rep


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
    a time, as tr.trilinear_both does per sample: each form is the
    contraction of its term tensor T[a, b, c] = F(e_a, e_b, e_c), read off
    the term table its int form is compiled from (``cl._TRILINEAR_TERMS``
    and ``oc._TRILINEAR_TERMS``), with phi_a x_b psi_c.  A dictionary that
    fails its exact check on the basis triples is one more failed case,
    named by the oracle's message, and is left out of meta.
    """
    rep = VerificationReport("trilinear-dictionary",
                             meta={"seed": seed, "samples": n_samples})
    try:
        rep.meta["dictionary"] = tr.equivalence_map().to_json()
    except tr.OracleError as exc:
        rep.record_case(False, str(exc))
    # each form sums 8^3 products T[a, b, c] phi_a x_b psi_c, with T at
    # [a, (b, c)]
    tensors = exact_float64(
        _trilinear_slices().transpose(1, 0, 2).reshape(8, 64),
        _dense((8, 8, 8), oc._TRILINEAR_TERMS).reshape(8, 64),
        degree=4, terms=8 ** 3, sampled=True)
    rng = np.random.default_rng(seed)
    for start, n in _blocks(n_samples):
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)      # phi, x, psi
        phi, x, psi = v[:, 0], v[:, 1], v[:, 2]
        mat, octo = (np.einsum("nbc,nb,nc->n", (phi @ t).reshape(n, 8, 8), x, psi)
                     for t in tensors)
        rep.record_mask(mat == octo, lambda k, start=start: f"triple {start + k}")
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
