"""Exact split-octonion arithmetic over the basis (1, j1, j2, j3, I, J1, J2, J3).

Unit squares are J_n^2 = +1, j_n^2 = -1, I^2 = +1; all seven hyper-complex
units anticommute pairwise.  Coefficients may be int, Fraction (identity
sweeps run exactly) or float.  The coefficient order matches the component
order of the 8-dimensional vectors and chiral spinors, so coefficient k of
an octonion corresponds to component x_k.

One builder, _forms, makes every form that reads the unit table, at import:
the table's eight scalar entries (e_a e_b = +-1), which inner reads; the
term table of the octonionic trilinear form (_TRILINEAR_TERMS, the
nonzero -conj(e_a).(e_b e_c), read off the table and those scalar
entries); and, each as one call of ``exact.int_form``, which the clifford
forms share, the product of Python ints (_INT_PRODUCT) and the trilinear
form of Python ints compiled from its term table (_INT_TRILINEAR, by
``exact.trilinear_form``, which writes the matrix form too).  Each
int form checks its own input and returns None unless every coefficient
is a Python int.  Everything else takes the plain definition over the
same table: mul the loop over _TABLE's entries, and
``triality.trilinear_oct`` -inner(conj(Phi), mul(X, Psi)).  No form turns
numpy integers itself: a SplitOctonion holds them as Python ints from the
start, so that their products cannot wrap in int64.

The identity suites are entry points made by ``_sweep``: verify_malcev
runs in ``sweeps``, on numpy, and the others on signed units in ``units``,
which also holds the six associator families the paper names and the
associator table they predict.
"""
from __future__ import annotations

import importlib
import math
from fractions import Fraction
from numbers import Integral

from .exact import int_form, trilinear_form

UNIT_NAMES = ("1", "j1", "j2", "j3", "I", "J1", "J2", "J3")
SCALAR = 0
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


def _trilinear_terms(table, scalar_terms):
    """(a, b, c, k) over the nonzero values k = -conj(e_a) . (e_b e_c) of a
    unit table, by increasing (b, c, a).  With e_b e_c = s e_m and conj(e_a)
    = g e_a, 2 inner(conj(e_a), e_b e_c) is g s times the signs of the
    scalar entries (a, m) and (m, a) in ``scalar_terms``, which inner reads
    as its two scalar parts.  Each scalar entry of a table is a square, so
    the sum is even and k an integer."""
    two = {}
    for i, j, sign in scalar_terms:
        two[i, j] = two.get((i, j), 0) + sign
        two[j, i] = two.get((j, i), 0) + sign
    terms = []
    for b, row in enumerate(table):
        for c, (m, s) in enumerate(row):
            for a in range(8):
                k2 = -s * _CONJ_SIGNS[a] * two.get((a, m), 0)
                if k2:
                    terms.append((a, b, c, k2 // 2))
    return tuple(terms)


def _product(table):
    """The product of two coefficient sequences of Python ints under a unit
    table, as one straight-line function compiled from it: coefficient k
    sums +-a_i b_j over the entries e_i e_j = +-e_k.  It returns None
    unless all sixteen coefficients are Python ints; mul then runs the loop
    over the table that defines the product."""
    terms = [[] for _ in range(8)]
    for i, row in enumerate(table):
        for j, (k, sign) in enumerate(row):
            terms[k].append((sign, f"a{i} * b{j}"))
    return int_form("int_product", "ab", 8, terms)


def _forms(table) -> dict:
    """A unit table and every form built from it, by the module name each is
    kept under: its scalar entries, the octonionic trilinear form's term
    table, the int product and the int octonionic trilinear form (a
    Fraction, the type inner gives).  The module installs the forms of
    _build_table() at import; code that swaps the table installs all of
    them together."""
    scalar_terms = _scalar_terms(table)
    trilinear_terms = _trilinear_terms(table, scalar_terms)
    return {"_TABLE": table, "_SCALAR_TERMS": scalar_terms,
            "_TRILINEAR_TERMS": trilinear_terms, "_INT_PRODUCT": _product(table),
            "_INT_TRILINEAR": trilinear_form(trilinear_terms, wrap="Fraction",
                                             Fraction=Fraction)}


# _TABLE, _SCALAR_TERMS, _TRILINEAR_TERMS, _INT_PRODUCT, _INT_TRILINEAR
globals().update(_forms(_build_table()))


class SplitOctonion:
    """Immutable split octonion; supports +, -, * (octonion or scalar).

    numpy integers, whose arithmetic wraps in int64, are taken as Python
    ints once: among the coefficients where an octonion is made, and as a
    scalar factor of *.  So every coefficient an operation reads is of a
    type that cannot wrap, and the operations make their results with
    _of, unscanned.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = tuple(coeffs)
        if len(c) != 8:
            raise ValueError("need 8 coefficients")
        for v in c:
            if type(v) not in _NO_WRAP:
                c = tuple(map(_python_int, c))
                break
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
        return _of(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        return _of(tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self):
        return _of(tuple(-a for a in self.c))

    def __mul__(self, other):
        if isinstance(other, SplitOctonion):
            return mul(self, other)
        other = _python_int(other)
        return _of(tuple(a * other for a in self.c))

    def __rmul__(self, other):
        other = _python_int(other)
        return _of(tuple(other * a for a in self.c))

    def conj(self) -> "SplitOctonion":
        """Negate the seven hyper-complex coefficients, fix the scalar."""
        return _of((self.c[0],) + tuple(-a for a in self.c[1:]))

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


_new = object.__new__
_set_c = SplitOctonion.c.__set__


def _of(c: tuple) -> SplitOctonion:
    """The octonion of the 8-tuple c, taken as it is, without __init__'s
    scan: the coefficients of arithmetic on octonions, which hold no numpy
    integer."""
    s = _new(SplitOctonion)
    _set_c(s, c)
    return s


# coefficient types whose arithmetic never wraps
_NO_WRAP = frozenset({int, bool, float, Fraction})


def _python_int(v):
    """v as a Python int if it is an integer of another type (a numpy
    integer, whose arithmetic wraps in int64), else v as it is."""
    return int(v) if isinstance(v, Integral) and not isinstance(v, int) else v


def mul(a: SplitOctonion, b: SplitOctonion) -> SplitOctonion:
    """Bilinear extension of the unit multiplication table: the int product
    when every coefficient is a Python int, else the loop that defines it,
    over the entries of _TABLE by increasing (i, j), skipping a term with a
    zero factor."""
    ac, bc = a.c, b.c
    c = _INT_PRODUCT(ac, bc)
    if c is None:
        c = [0] * 8
        for ai, row in zip(ac, _TABLE):
            if ai:
                for bj, (k, sign) in zip(bc, row):
                    if bj:
                        c[k] += ai * bj if sign > 0 else -(ai * bj)
        c = tuple(c)
    return _of(c)


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
    c = s.c
    lam2 = sum(a * a for a in c[5:8])
    x2 = sum(a * a for a in c[1:4])
    return c[4] * c[4] + lam2 > x2


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

    def to_json(self) -> list:
        return [[{"unit": UNIT_NAMES[idx], "sign": sign} for idx, sign in row]
                for row in self.table]


def _sweep(module: str, name: str):
    """The function ``name`` of this package's ``module`` (``units``,
    ``sweeps`` or ``matrices``) as an entry point, which imports ``module``
    when called and runs the ``name`` it holds then: a process that calls
    none of them compiles none of those modules, and a monkeypatch on one
    is what runs.  Its ``__doc__`` names that function, so ``help`` on the
    entry point shows where the interface is documented without importing
    it.  ``triality`` makes its suites here too, and ``clifford`` the
    paper's matrices (``alpha``, ``gamma``, ``b_matrix``) and
    ``verify_clifford``; ``cli`` calls the entry points."""
    def suite(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)
    suite.__name__ = suite.__qualname__ = name
    suite.__doc__ = (f"Runs ``{__package__}.{module}.{name}`` with the arguments given; "
                     f"``{__package__}.{module}`` is imported at the first call.")
    return suite


verify_table = _sweep("units", "verify_table")
verify_moufang = _sweep("units", "verify_moufang")
verify_malcev = _sweep("sweeps", "verify_malcev")
verify_associators = _sweep("units", "verify_associators")
generate_basis_from_J = _sweep("units", "generate_basis_from_J")
