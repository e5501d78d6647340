"""Exact split-octonion arithmetic over the basis (1, j1, j2, j3, I, J1, J2, J3).

Unit squares are J_n^2 = +1, j_n^2 = -1, I^2 = +1; all seven hyper-complex
units anticommute pairwise.  Coefficients may be int, Fraction (identity
sweeps run exactly) or float.  The coefficient order matches the component
order of the 8-dimensional vectors and chiral spinors, so coefficient k of
an octonion corresponds to component x_k.

One builder, _forms, makes every form that reads the unit table, at import:
the product as one straight-line function (_PRODUCT, compiled through
``exact.compiled``, which the clifford forms share) and a second one without
the zero-skip guards for Python ints (_INT_PRODUCT); the octonionic
trilinear form -conj(Phi).(X Psi) compiled around each of them (_TRILINEAR,
_INT_TRILINEAR); and the table's eight scalar entries (e_a e_b = +-1),
which inner reads.  Each int form checks its own input and returns None
unless every coefficient is a Python int; mul and the trilinear form then
take the guarded form, with numpy integers turned into Python ints first
so that their products cannot wrap in int64; inner and norm_sq do the same.

The identity sweeps (verify_table, verify_moufang, verify_malcev,
verify_associators and generate_basis_from_J) live in ``sweeps``, which
contracts the dense structure tensor built from the same table (numpy).
Each name here is a function that imports that module when it is called
and runs the sweep there: a process that runs no sweep compiles neither
it nor numpy.
"""
from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

from .exact import all_python_ints, compiled, signed_sum

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


# conj(e_a) = _CONJ_SIGNS[a] e_a
_CONJ_SIGNS = (1, -1, -1, -1, -1, -1, -1, -1)


def _scalar_terms(table):
    """(a, b, sign) over the entries of a unit table whose product is a
    scalar, by increasing (a, b), with conj(e_a) e_b = sign."""
    return tuple((a, b, _CONJ_SIGNS[a] * sign) for a, row in enumerate(table)
                 for b, (k, sign) in enumerate(row) if k == SCALAR)


def _unpack(name: str) -> str:
    """Source that unpacks the sequence ``name`` into name0, ..., name7."""
    return f"    {', '.join(f'{name}{k}' for k in range(8))} = {name}\n"


def _guarded_sum(terms) -> str:
    """Source of 0 +- (x * y if x and y else 0) +- ... over (sign, x, y): the
    sum of a loop that starts at the int 0 and skips a term with a zero
    factor, in value, type and float bits.  A running sum that starts at
    the int 0 is never -0.0, so adding the 0 of a skipped term leaves it as
    it is, and x - y is x + (-y)."""
    return " ".join(["0"] + [f"{'+' if s > 0 else '-'} ({x} * {y} if {x} and {y} else 0)"
                             for s, x, y in terms])


def _product(table, guarded: bool = True):
    """The product of two coefficient sequences under a unit table, as one
    straight-line function compiled from it: coefficient k sums +-a_i b_j
    over the entries e_i e_j = +-e_k by increasing (i, j).

    Guarded, it is the loop over the table's entries in value, type and
    float bits.  The int product drops the zero-skip guards, which matter
    only for floats (signed zeros, inf * 0) and for result types; it
    returns None unless all sixteen coefficients are Python ints.
    """
    terms = [[] for _ in range(8)]
    for i, row in enumerate(table):
        for j, (k, sign) in enumerate(row):
            terms[k].append((sign, f"a{i}", f"b{j}"))
    name = "product" if guarded else "int_product"
    head = f"def {name}(a, b):\n{_unpack('a')}{_unpack('b')}"
    if guarded:
        body = ",\n        ".join(_guarded_sum(t) for t in terms)
        return compiled(name, f"{head}    return ({body})\n")
    body = ",\n        ".join(signed_sum((s, f"{x} * {y}") for s, x, y in t) for t in terms)
    ints = all_python_ints(f"{v}{k}" for v in "ab" for k in range(8))
    return compiled(name, f"{head}    if {ints}:\n        return ({body})\n")


def _trilinear(table, product, guarded: bool = True):
    """-conj(Phi) . (X Psi) on three coefficient sequences, as one function
    compiled from a unit table around ``product``, the table's product.

    Guarded, with the guarded product, it makes the operations of
    -inner(conj(Phi), mul(X, Psi)) in their order, so it gives the same
    value, type and float bits (a NaN's sign aside): conj by _CONJ_SIGNS,
    the product, inner's scalar parts p and q over the table's scalar
    entries with mul's guards, inner's overflow fallback, and the negated
    half of p + q as one multiplication by -1/2.  The int form, around the
    int product, folds the signs of conj and the two scalar parts into one
    integer sum and halves it as a Fraction, the type inner gives; like the
    int product, it returns None unless all 24 coefficients are Python ints.
    """
    scalar = _scalar_terms(table)
    m = ", ".join(f"m{k}" for k in range(8))
    lines = ["def trilinear(p, x, s):\n", _unpack("p")]
    if guarded:
        lines.append(f"    {m} = product(x, s)\n")
        conj = ", ".join(f"p{k}" if sign > 0 else f"-p{k}" for k, sign in enumerate(_CONJ_SIGNS))
        lines += [f"    {m.replace('m', 'c')} = {conj}\n",
                  f"    sp = {_guarded_sum((s, f'c{i}', f'm{j}') for i, j, s in scalar)}\n",
                  f"    sq = {_guarded_sum((s, f'm{i}', f'c{j}') for i, j, s in scalar)}\n",
                  "    t = sp + sq\n",
                  "    if isinstance(t, float) and isinf(t) and isfinite(sp) and isfinite(sq):\n",
                  "        return -(0.5 * sp + 0.5 * sq)\n",
                  "    return NEG_HALF * t\n"]
    else:
        # p + q = sum of sign (c_i m_j + m_i c_j), with c_a = _CONJ_SIGNS[a] p_a
        coeff = {}
        for i, j, sign in scalar:
            coeff[i, j] = coeff.get((i, j), 0) + _CONJ_SIGNS[i] * sign
            coeff[j, i] = coeff.get((j, i), 0) + _CONJ_SIGNS[j] * sign
        total = signed_sum((-k, f"p{a} * m{b}") for (a, b), k in sorted(coeff.items()) if k)
        lines += [f"    if {all_python_ints(f'p{k}' for k in range(8))}:\n",
                  "        m = product(x, s)\n",
                  "        if m is not None:\n",
                  f"            {m} = m\n",
                  f"            return Fraction({total}, 2)\n"]
    return compiled("trilinear", "".join(lines), product=product, isinf=math.isinf,
                    isfinite=math.isfinite, NEG_HALF=-_HALF, Fraction=Fraction)


def _forms(table) -> dict:
    """A unit table and every form built from it, by the module name each is
    kept under: its scalar entries, the guarded and int products, the
    guarded and int octonionic trilinear forms, and _C = None, so that
    sweeps._c() builds the structure tensor from the table on first use
    and keeps it as _C.  The module installs the forms of _build_table()
    at import; code that swaps the table installs all of them together."""
    product, int_product = _product(table), _product(table, guarded=False)
    return {"_TABLE": table, "_SCALAR_TERMS": _scalar_terms(table),
            "_PRODUCT": product, "_INT_PRODUCT": int_product,
            "_TRILINEAR": _trilinear(table, product),
            "_INT_TRILINEAR": _trilinear(table, int_product, guarded=False),
            "_C": None}


# _TABLE, _SCALAR_TERMS, _PRODUCT, _INT_PRODUCT, _TRILINEAR, _INT_TRILINEAR, _C
globals().update(_forms(_build_table()))


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
        """omega^2 - lambda^2 + x^2 - t^2 (the split (4,4) interval), with
        numpy integers as Python ints (so that they cannot wrap)."""
        c = _python_ints(self.c)
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


# coefficient types whose products never wrap
_NO_WRAP = frozenset({int, bool, float, Fraction})


def _python_ints(values):
    """The values with every integer scalar that is not a Python int (a
    numpy integer, whose products wrap in int64) as a Python int, as a
    list; values all of a type in _NO_WRAP come back as they are."""
    for v in values:
        if type(v) not in _NO_WRAP:
            return [int(v) if isinstance(v, Integral) and not isinstance(v, int) else v
                    for v in values]
    return values


def mul(a: SplitOctonion, b: SplitOctonion) -> SplitOctonion:
    """Bilinear extension of the unit multiplication table: the int product
    when every coefficient is a Python int, else the guarded one, on numpy
    integers turned into Python ints (so that they cannot wrap)."""
    ac, bc = a.c, b.c
    c = _INT_PRODUCT(ac, bc)
    if c is None:
        c = _PRODUCT(_python_ints(ac), _python_ints(bc))
    return SplitOctonion(c)


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
    finite.  numpy integers are taken as Python ints, as mul takes them.
    """
    ac, bc = _python_ints(a.c), _python_ints(b.c)
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


# The identity sweeps live in ``sweeps``; each name here imports it when first
# called, so a process that runs no sweep compiles neither it nor numpy.
# Callers look the suites up here, where a wrapper or a monkeypatch set on
# this module is what runs.

def verify_table(*args, **kwargs):
    from . import sweeps
    return sweeps.verify_table(*args, **kwargs)


def verify_moufang(*args, **kwargs):
    from . import sweeps
    return sweeps.verify_moufang(*args, **kwargs)


def verify_malcev(*args, **kwargs):
    from . import sweeps
    return sweeps.verify_malcev(*args, **kwargs)


def verify_associators(*args, **kwargs):
    from . import sweeps
    return sweeps.verify_associators(*args, **kwargs)


def generate_basis_from_J(*args, **kwargs):
    from . import sweeps
    return sweeps.generate_basis_from_J(*args, **kwargs)
