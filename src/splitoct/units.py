"""The suites on signed units and plain Python, on the standard library
alone: the octonion table check, the Moufang and associator identities,
basis generation from the three J_n in an independent Zorn vector-matrix
model, the first-order generator tables of the L_01 rotation, the L_04
boost and the role-swap rotor, and the double cover on basis columns.

Each product of two units is +- one unit, e_a e_b = s e_k, read off
``oc._TABLE`` at each suite call as the signed unit (k, s) by one product
(``_times``).  So each side of a Moufang identity is one signed unit, and
the associator 2A(x, y, z) = (xy)z - x(yz) and the bridge's 12 J(x, y, z)
are sums of signed units in 8 ints (``_sum``).  No numpy is imported.

The six non-vanishing associator families are data (``FAMILIES``), one
formula each in the indices of their units; ``predicted_associators``
extends them by total antisymmetry to all 343 triples of hyper-complex
units, without reading a unit table, once per process.  The associator
suite checks the product against both, and ``sot table`` prints the
predicted triples.

Each generator table is compared entry by entry with the exact generator
of ``cl.plane_generator``, both read as floats: exact, as every entry of
the tables and generators is a quarter.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import clifford as cl
from . import octonion as oc
from . import report
from .octonion import (HYPER, UNIT_NAMES, ConstructionError, SplitOctonion,
                       StructureConstants, epsilon)
from .report import VerificationReport


def verify_table() -> VerificationReport:
    """The 64 unit products of ``oc.mul``, formed once, against oc._TABLE,
    then the 7 squares and 21 anticommuting pairs of the hyper-complex units
    read off them; a wrong product, square or sign is a case naming it."""
    rep = VerificationReport("octonion-table")
    units = [SplitOctonion.unit(a) for a in range(8)]
    products = [[oc.mul(x, y) for y in units] for x in units]
    for a, b in itertools.product(range(8), repeat=2):
        idx, sign = oc._TABLE[a][b]
        rep.record_case(products[a][b] == sign * units[idx], f"{UNIT_NAMES[a]}*{UNIT_NAMES[b]}")
    for k, sq in ((5, 1), (6, 1), (7, 1), (1, -1), (2, -1), (3, -1), (4, 1)):
        rep.record_case(products[k][k] == SplitOctonion.scalar(sq), f"{UNIT_NAMES[k]}^2")
    for a, b in itertools.combinations(HYPER, 2):
        rep.record_case(products[a][b] == -products[b][a],
                        f"anticommute {UNIT_NAMES[a]},{UNIT_NAMES[b]}")
    return rep


def _times(table):
    """The product of two signed units (index, sign) under a unit table."""
    def times(u, v):
        k, sign = table[u[0]][v[0]]
        return k, sign * u[1] * v[1]
    return times


def _sum(plus, minus):
    """The 8 coefficients of the signed units ``plus`` less ``minus``."""
    c = [0] * 8
    for k, sign in plus:
        c[k] += sign
    for k, sign in minus:
        c[k] -= sign
    return c


# the seven hyper-complex units, each as a signed unit
UNITS = tuple((a, 1) for a in HYPER)

# each flexible Moufang identity on units x, y, z and each mild associative
# law on x, y, by arity, as the agreement of its sides under the product m
MOUFANG = (
    (3, (("(xy)(zx)=x(yz)x", lambda m, x, y, z: m(m(x, y), m(z, x)) == m(m(x, m(y, z)), x)),
         ("(zyz)x=z(y(zx))", lambda m, x, y, z: m(m(m(z, y), z), x) == m(z, m(y, m(z, x)))),
         ("x(yzy)=((xy)z)y", lambda m, x, y, z: m(x, m(m(y, z), y)) == m(m(m(x, y), z), y)))),
    (2, (("(xy)y=xy^2", lambda m, x, y: m(m(x, y), y) == m(x, m(y, y))),
         ("x(xy)=x^2y", lambda m, x, y: m(x, m(x, y)) == m(m(x, x), y)),
         ("(xy)x=x(yx)", lambda m, x, y: m(m(x, y), x) == m(x, m(y, x))))),
)


def verify_moufang() -> VerificationReport:
    """Flexible Moufang identities on all 343 unit triples and the mild
    associative laws on all 49 pairs, each side one signed unit."""
    rep = VerificationReport("moufang")
    m = _times(oc._TABLE)
    for arity, identities in MOUFANG:
        for args in itertools.product(UNITS, repeat=arity):
            for name, holds in identities:
                rep.record_case(holds(m, *args), lambda: (
                    f"{name} ({','.join(UNIT_NAMES[a] for a, _ in args)})"))
    return rep


def _jacobiator12(m, x, y, z):
    """12 J(x, y, z) on signed units: the sum over the cyclic (a, b, c) of
    4[[a, b], c] = (ab)c - (ba)c - c(ab) + c(ba)."""
    plus, minus = [], []
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        ab, ba = m(a, b), m(b, a)
        plus += m(ab, c), m(c, ba)
        minus += m(ba, c), m(c, ab)
    return _sum(plus, minus)


# the six non-vanishing associator families A(x, y, z) of the hyper-complex
# units, keyed by the kinds of x, y, z in canonical order (the j's, then
# the J's, then I), each as the terms (coefficient, unit) of A in the
# indices n, m, k of its units; a family ending in I sums over k
FAMILIES = {
    ("j", "j", "J"): lambda n, m, k: ((-epsilon(n, m, k), "I"), (-(n == k), f"J{m}"),
                                      (+(m == k), f"J{n}")),
    ("j", "j", "I"): lambda n, m: tuple((epsilon(n, m, k), f"J{k}") for k in (1, 2, 3)),
    ("j", "J", "J"): lambda n, m, k: ((+(n == m), f"j{k}"), (-(n == k), f"j{m}")),
    ("j", "J", "I"): lambda n, m: tuple((-epsilon(n, m, k), f"j{k}") for k in (1, 2, 3)),
    ("J", "J", "J"): lambda n, m, k: ((-epsilon(n, m, k), "I"),),
    ("J", "J", "I"): lambda n, m: tuple((epsilon(n, m, k), f"J{k}") for k in (1, 2, 3)),
}


def _value(terms):
    """The 8 coefficients of a family's terms (coefficient, unit)."""
    c = [0] * 8
    for coeff, unit in terms:
        c[UNIT_NAMES.index(unit)] += coeff
    return c


@functools.cache
def predicted_associators() -> dict:
    """A(e_a, e_b, e_c) as 8 ints for each of the 343 triples (a, b, c) of
    hyper-complex units, predicted by the six families alone: a triple of
    distinct units is sorted stably into canonical order and takes the
    family's value times the sign of the sort (total antisymmetry), and a
    repeated unit gives zero.  No unit table is read, so the map is built
    once per process."""
    kind, rank = " jjjIJJJ", "jJI"
    table = {}
    for triple in itertools.product(HYPER, repeat=3):
        value = (0,) * 8
        if len(set(triple)) == 3:
            order = sorted(range(3), key=lambda i: rank.index(kind[triple[i]]))
            sign = (-1) ** sum(order[i] > order[j] for i, j in ((0, 1), (0, 2), (1, 2)))
            units = [triple[i] for i in order]
            kinds = tuple(kind[u] for u in units)
            if kinds in FAMILIES:           # three j's associate
                terms = FAMILIES[kinds](*(u % 4 for u in units if u != 4))
                value = tuple(sign * c for c in _value(terms))
        table[triple] = value
    return table


def verify_associators() -> VerificationReport:
    """The six non-vanishing associator families, total antisymmetry, the
    343-triple closure against the family-predicted table (FAMILIES and
    predicted_associators do not read the unit table), and the bridge 6 *
    2A = 12 J, on 2A(x, y, z) = (xy)z - x(yz)."""
    rep = VerificationReport("associators")
    times = _times(oc._TABLE)
    a2 = {(x[0], y[0], z[0]): _sum([times(times(x, y), z)], [times(x, times(y, z))])
          for x, y, z in itertools.product(UNITS, repeat=3)}
    # the families A(x_n, y_m, I) and A(x_n, y_m, J_k): the third argument
    # is I at slot 0 and J_k at slot k
    for n, m, slot, (p, q) in itertools.product((1, 2, 3), (1, 2, 3), range(4),
                                                (("j", "j"), ("j", "J"), ("J", "J"))):
        want = _value(FAMILIES[p, q, "J"](n, m, slot) if slot else FAMILIES[p, q, "I"](n, m))
        got = a2[n if p == "j" else 4 + n, m if q == "j" else 4 + m, 4 + slot]
        rep.record_case(got == [2 * c for c in want], lambda: (
            f"A({p}{n},{q}{m},{f'J{slot}' if slot else 'I'})"))
    predicted = predicted_associators()
    for x, y, z in a2:
        got = a2[x, y, z]
        name = lambda: f"({UNIT_NAMES[x]},{UNIT_NAMES[y]},{UNIT_NAMES[z]})"
        rep.record_case([-c for c in a2[y, x, z]] == got == [-c for c in a2[x, z, y]],
                        lambda: f"antisymmetry {name()}")
        rep.record_case(got == [2 * c for c in predicted[x, y, z]],
                        lambda: f"table closure {name()}")
        rep.record_case([6 * c for c in got] == _jacobiator12(times, (x, 1), (y, 1), (z, 1)),
                        lambda: f"commutator bridge {name()}")
    return rep


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
# generator tables: the first-order coefficients of the L_01 rotation, the
# L_04 boost and the composite role-swap rotor on (x, phi, psi), as
# (output, input, coefficient) entries, checked against the exact
# generators of cl.plane_generator
# ---------------------------------------------------------------------------

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

# the composite role-swap rotor L10 L23 L54 L67 at half angle moves (x,
# phi, psi) as L_01 moves (phi, psi, x)
COMPOSITE_X, COMPOSITE_PHI, COMPOSITE_PSI = L01_PHI, L01_PSI, L01_X

ROLE_SWAP_PLANES = ((1, 0), (2, 3), (5, 4), (6, 7))
BOOST_THETA = 0.5    # the angle of boost_table_check's finite boost


def _floats(generator) -> list:
    """The x, phi and psi parts of an exact generator as rows of floats,
    each entry its numerator over its denominator (float() of a Fraction,
    without the method call)."""
    return [[[v.numerator / v.denominator for v in row] for row in part] for part in generator]


def _check_generators(rep, tables, generators) -> None:
    """The x, phi and psi tables against the generators' float rows, one
    case per entry of each 8x8 generator, in C order: a table entry is the
    float sum of its coefficients, compared with ==; a failing entry names
    its position and both values."""
    for name, entries, gen in zip(("x", "phi", "psi"), tables, generators):
        table = {}
        for i, j, coeff in entries:
            table[i, j] = table.get((i, j), 0.0) + coeff
        for i, row in enumerate(gen):
            for j, g in enumerate(row):
                t = table.get((i, j), 0.0)
                rep.record_case(t == g, lambda: (
                    f"{name}[{i},{j}] table {float(t)} generator {Fraction(g)}"))


def infinitesimal_table_check(plane: str = "01") -> VerificationReport:
    """The L_01 or L_04 tables on (x, phi, psi) against the exact generator
    of the plane."""
    if plane not in ("01", "04"):
        raise ValueError("plane must be '01' or '04'")
    tables = (L01_X, L01_PHI, L01_PSI) if plane == "01" else (L04_X, L04_PHI, L04_PSI)
    rep = VerificationReport(f"infinitesimal-L{plane}")
    _check_generators(rep, tables, _floats(cl.plane_generator(0, int(plane[1]))))
    return rep


def boost_table_check() -> VerificationReport:
    """The L_04 hyperbolic table, a finite-angle boost of x by BOOST_THETA,
    and the isotropic planes the spinor halves move in."""
    rep = infinitesimal_table_check("04")
    rep.name = "boost-table"
    rep.exact = False
    rep.meta["tolerance"] = report.TOLERANCE
    # finite-angle hyperbolic check on the x side
    moved = cl.rotate_vector_list([1.0] + [0.0] * 7, cl.rotor(0, 4, BOOST_THETA))
    want = [math.cosh(BOOST_THETA), 0.0, 0.0, 0.0, math.sinh(BOOST_THETA), 0.0, 0.0, 0.0]
    resid = max(abs(m - w) for m, w in zip(moved, want))
    rep.record_case(resid <= report.TOLERANCE, f"x0 boost at theta={BOOST_THETA}", residual=resid)
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
    gens = [_floats(cl.plane_generator(mu, nu)) for mu, nu in ROLE_SWAP_PLANES]
    half = [[[sum(entries) / 2 for entries in zip(*rows)] for rows in zip(*parts)]
            for parts in zip(*gens)]
    rep = VerificationReport("role-swap")
    _check_generators(rep, (COMPOSITE_X, COMPOSITE_PHI, COMPOSITE_PSI), half)
    return rep


def double_cover_check() -> VerificationReport:
    """Compact rotors at 2pi negate spinors and fix vectors; 4pi fixes both.

    The actions are linear, so each ordered compact plane turns the 8 vector
    and 16 spinor basis columns through cl.rotate_vector_list and
    cl.rotate_spinor_list, drawing nothing; a case's residual is the largest
    entry of R - I, of L + I at 2pi or of L - I at 4pi."""
    rep = VerificationReport("double-cover", exact=False, meta={"tolerance": report.TOLERANCE})
    compact_planes = [(mu, nu) for mu, nu in itertools.permutations(range(8), 2)
                      if cl.METRIC[mu] * cl.METRIC[nu] > 0]
    for mu, nu in compact_planes:
        for turns, spinor_sign in ((2, -1), (4, 1)):
            r = cl.rotor(mu, nu, turns * math.pi)
            for kind, rotate, n, sign in (("vector", cl.rotate_vector_list, 8, 1),
                                          ("spinor", cl.rotate_spinor_list, 16, spinor_sign)):
                columns = [rotate([float(i == j) for i in range(n)], r) for j in range(n)]
                for j, column in enumerate(columns):
                    column[j] -= sign
                resid = max(map(abs, itertools.chain.from_iterable(columns)))
                rep.record_case(resid <= report.TOLERANCE, f"plane ({mu},{nu}) {kind} {turns}pi",
                                residual=resid)
    return rep
