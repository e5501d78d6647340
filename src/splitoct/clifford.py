"""Complex matrix representation of the (4,4) geometric algebra.

The eight 8x8 alpha matrices are data (entries in {0, +-1, +-i}); the
16x16 generators are Gamma_mu = A_mu for mu<4 and i*A_mu for mu>=4, with
A_mu = [[0, alpha], [alpha^dagger, 0]].  The module owns the grade-4
element B = -G1 G3 G5 G7, the spinor basis-change matrix XI_M and
everything built on them.  Every exact object is held as sparse rows of
Gaussian integers in Python ints (``GMat``), and the checks run at import
(the Clifford relations, the basis change, the pin of the spinor
evaluation convention, the spinor form, the trilinear slices) are exact
sparse compositions.  The pin selects the form: of the four candidate
evaluations, each composed once, the one that is the split diagonal form
is PINNED_CONVENTION, and its matrix is the spinor invariant's.  Rotors
act on real float components: vectors in closed form, spinors by one turn
compiled at import over the signed permutation of each bivector, which
the turn takes as an argument; ``plane_generator`` gives a plane's exact
first-order action on both.  The trilinear form is one flat table of
(a, b, c, F(e_a, e_b, e_c)) terms over (phi, x, psi), in the slot order
of the octonionic form's table, and the spinor invariant one of (i, j,
2Q_ij) terms; on integers each is one straight-line function compiled
from its table by ``exact.int_form`` (``exact.trilinear_form`` for the
trilinear form).  An int form returns None unless every component is a
Python int, so a list of Python ints goes to it as given, and any other
argument is read once (``_trilinear_args`` for the trilinear form).
Float sums of several terms are correctly rounded (``math.fsum``).  numpy
is imported only by the ndarray rotor actions.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import compiled, int_form, trilinear_form
from .report import VerificationReport

METRIC = (1, 1, 1, 1, -1, -1, -1, -1)


class ChiralityError(ValueError):
    """Spinor argument has nonzero components in the wrong chiral block."""


class GMat:
    """Matrix of Gaussian integers, held as sparse rows of Python ints.

    Row r is a tuple of (column, re, im) triples, one per nonzero entry, by
    increasing column.  Every matrix of the representation has one or two
    entries per row, and Python ints keep every product exact whatever the
    size of its entries.
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols=None):
        self.rows = tuple(rows)
        self.ncols = len(self.rows) if ncols is None else ncols

    @classmethod
    def from_entries(cls, n: int, entries):
        """The n x n matrix with the given (row, column, re, im) entries."""
        acc = [{} for _ in range(n)]
        for r, c, vr, vi in entries:
            acc[r][c] = (vr, vi)
        return cls(_row(a) for a in acc)

    @classmethod
    def eye(cls, n):
        return cls(((i, 1, 0),) for i in range(n))

    @classmethod
    def zeros(cls, shape):
        n, m = (shape, shape) if isinstance(shape, int) else shape
        return cls(((),) * n, m)

    def entries(self):
        """(row, column, re, im) of every nonzero entry, in C order."""
        return ((r, c, vr, vi) for r, row in enumerate(self.rows) for c, vr, vi in row)

    def __matmul__(self, other):
        rows = []
        for row in self.rows:
            if len(row) == 1:
                # one entry scales one row of other: Gaussian integers have
                # no zero divisors, so nothing cancels
                (j, ar, ai), = row
                rows.append(tuple([(k, ar * br - ai * bi, ar * bi + ai * br)
                                   for k, br, bi in other.rows[j]]))
                continue
            acc = {}
            for j, ar, ai in row:
                for k, br, bi in other.rows[j]:
                    vr, vi = acc.get(k, (0, 0))
                    acc[k] = (vr + ar * br - ai * bi, vi + ar * bi + ai * br)
            rows.append(_row(acc))
        return GMat(rows, other.ncols)

    def _plus(self, other, sign):
        rows = []
        for mine, theirs in zip(self.rows, other.rows):
            if not theirs:
                rows.append(mine)
                continue
            acc = {c: (vr, vi) for c, vr, vi in mine}
            for c, vr, vi in theirs:
                ar, ai = acc.get(c, (0, 0))
                acc[c] = (ar + sign * vr, ai + sign * vi)
            rows.append(_row(acc))
        return GMat(rows, self.ncols)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k: int):
        if not k:
            return GMat.zeros((len(self.rows), self.ncols))
        return GMat((tuple((c, k * vr, k * vi) for c, vr, vi in row) for row in self.rows),
                    self.ncols)

    def times_i(self):
        return GMat((tuple((c, -vi, vr) for c, vr, vi in row) for row in self.rows), self.ncols)

    def _transpose(self, im_sign):
        cols = [[] for _ in range(self.ncols)]
        for r, c, vr, vi in self.entries():
            cols[c].append((r, vr, im_sign * vi))
        return GMat((tuple(col) for col in cols), len(self.rows))

    @property
    def T(self):
        return self._transpose(1)

    def conj_t(self):
        return self._transpose(-1)

    def block(self, r0, r1, c0, c1):
        """The sub-matrix of rows r0..r1-1 and columns c0..c1-1."""
        return GMat((tuple((c - c0, vr, vi) for c, vr, vi in row if c0 <= c < c1)
                     for row in self.rows[r0:r1]), c1 - c0)

    def first_difference(self, other):
        """(row, column) of the first entry in C order where this matrix and
        ``other`` differ, or None."""
        for r, (mine, theirs) in enumerate(zip(self.rows, other.rows)):
            if mine != theirs:
                a = {c: (vr, vi) for c, vr, vi in mine}
                b = {c: (vr, vi) for c, vr, vi in theirs}
                return r, min(c for c in a.keys() | b.keys() if a.get(c) != b.get(c))
        return None

    def __eq__(self, other):
        return (isinstance(other, GMat) and self.ncols == other.ncols
                and self.rows == other.rows)

    def is_real(self) -> bool:
        return not any(vi for _, _, _, vi in self.entries())

    def to_json(self, exact: bool = True) -> list:
        num = str if exact else float
        out = []
        for row in self.rows:
            cells = [{"re": num(0), "im": num(0)} for _ in range(self.ncols)]
            for c, vr, vi in row:
                cells[c] = {"re": num(vr), "im": num(vi)}
            out.append(cells)
        return out


def _row(acc: dict) -> tuple:
    """A sparse row from {column: (re, im)}: nonzero entries by column."""
    return tuple([(c, vr, vi) for c, (vr, vi) in sorted(acc.items()) if vr or vi])


def _alpha_tables():
    # (row, col, re, im) entry quadruples; the tables are data, validated below
    data = [
        [(k, k, v, 0) for k, v in enumerate((-1, 1, 1, 1, -1, -1, -1, 1))],
        [(k, k, 0, 1) for k in range(8)],
        [(0, 1, 1, 0), (1, 0, 1, 0), (2, 4, -1, 0), (3, 5, -1, 0),
         (4, 2, -1, 0), (5, 3, -1, 0), (6, 7, 1, 0), (7, 6, 1, 0)],
        [(0, 1, 0, -1), (1, 0, 0, 1), (2, 4, 0, 1), (3, 5, 0, 1),
         (4, 2, 0, -1), (5, 3, 0, -1), (6, 7, 0, -1), (7, 6, 0, 1)],
        [(0, 2, 1, 0), (1, 4, 1, 0), (2, 0, 1, 0), (3, 6, -1, 0),
         (4, 1, 1, 0), (5, 7, -1, 0), (6, 3, -1, 0), (7, 5, -1, 0)],
        [(0, 2, 0, 1), (1, 4, 0, 1), (2, 0, 0, -1), (3, 6, 0, -1),
         (4, 1, 0, -1), (5, 7, 0, -1), (6, 3, 0, 1), (7, 5, 0, 1)],
        [(0, 3, 1, 0), (1, 5, 1, 0), (2, 6, 1, 0), (3, 0, 1, 0),
         (4, 7, 1, 0), (5, 1, 1, 0), (6, 2, 1, 0), (7, 4, 1, 0)],
        [(0, 3, 0, -1), (1, 5, 0, -1), (2, 6, 0, -1), (3, 0, 0, 1),
         (4, 7, 0, -1), (5, 1, 0, 1), (6, 2, 0, 1), (7, 4, 0, 1)],
    ]
    return [GMat.from_entries(8, entries) for entries in data]


_ALPHA = _alpha_tables()


def _big_a(a: GMat) -> GMat:
    """[[0, a], [a^dagger, 0]] for an 8x8 a."""
    upper = (tuple((c + 8, vr, vi) for c, vr, vi in row) for row in a.rows)
    return GMat((*upper, *a.conj_t().rows))


_GAMMA = [_big_a(a) if mu < 4 else _big_a(a).times_i() for mu, a in enumerate(_ALPHA)]
_B = -(_GAMMA[1] @ _GAMMA[3] @ _GAMMA[5] @ _GAMMA[7])


def alpha(mu: int) -> GMat:
    if not 0 <= mu <= 7:
        raise ValueError(f"alpha index {mu} out of range 0..7")
    return _ALPHA[mu]


def gamma(mu: int) -> GMat:
    if not 0 <= mu <= 7:
        raise ValueError(f"gamma index {mu} out of range 0..7")
    return _GAMMA[mu]


def b_matrix() -> GMat:
    return _B


def verify_clifford() -> VerificationReport:
    """Gamma_mu Gamma_nu + Gamma_nu Gamma_mu == 2 g_munu Id, all 64 pairs, exact.

    Each of the 64 products is a sparse composition of Gaussian integers;
    a failing pair names its first wrong entry in C order.
    """
    rep = VerificationReport("clifford")
    products = [[a @ b for b in _GAMMA] for a in _GAMMA]
    for mu in range(8):
        for nu in range(8):
            want = GMat.eye(16).scale(2 * METRIC[mu]) if mu == nu else GMat.zeros(16)
            entry = (products[mu][nu] + products[nu][mu]).first_difference(want)
            rep.record_case(entry is None, f"pair ({mu},{nu}) entry {entry}")
    return rep


# validated at import: the tabulated entries must satisfy the algebra
_startup = verify_clifford()
if not _startup.passed:
    raise AssertionError(f"alpha-table data broken: {_startup.failure_details}")


# ---------------------------------------------------------------------------
# spinor basis change (fixed 16-row definition)
# ---------------------------------------------------------------------------

def _xi_matrix() -> GMat:
    rows = [
        (0, ((2, -1, 0), (3, 0, 1))),
        (1, ((0, 1, 0), (1, 0, -1))),
        (2, ((7, -1, 0), (6, 0, -1))),
        (3, ((5, -1, 0), (4, 0, 1))),
        (4, ((5, -1, 0), (4, 0, -1))),
        (5, ((7, 1, 0), (6, 0, -1))),
        (6, ((0, -1, 0), (1, 0, -1))),
        (7, ((2, -1, 0), (3, 0, -1))),
        (8, ((10, 1, 0), (11, 0, -1))),
        (9, ((8, -1, 0), (9, 0, -1))),
        (10, ((15, -1, 0), (14, 0, -1))),
        (11, ((13, -1, 0), (12, 0, 1))),
        (12, ((13, 1, 0), (12, 0, 1))),
        (13, ((15, -1, 0), (14, 0, 1))),
        (14, ((8, -1, 0), (9, 0, 1))),
        (15, ((10, -1, 0), (11, 0, -1))),
    ]
    return GMat.from_entries(16, ((r, c, vr, vi) for r, entries in rows
                                  for c, vr, vi in entries))


# xi = (1/sqrt2) XI_M @ eta; the sqrt2 is tracked symbolically, so every
# exactness statement below is about XI_M itself.
XI_M = _xi_matrix()
_XI_DAG = XI_M.conj_t()

if not (XI_M @ _XI_DAG == GMat.eye(16).scale(2)):
    raise AssertionError("xi basis-change matrix is not sqrt2-unitary")


class XiConvention(namedtuple("XiConvention", "pairing b_form")):
    """Which evaluation of the spinor invariant diagonalizes it: pairing
    "transpose" or "dagger", b_form "original" or "conjugated"."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"xi^{'T' if self.pairing == 'transpose' else 'dagger'} B[{self.b_form}] xi"


def _candidate_forms() -> dict:
    """The four candidate evaluations as exact 16x16 quadratic forms on the
    real components, by convention, each composed once: 2x the form for B
    original, 4x for B conjugated by T = M/sqrt2 (T B T^{-1} = M B M^dag / 2)."""
    mbmd = XI_M @ _B @ _XI_DAG
    return {XiConvention(pairing, b_form): left @ mid @ XI_M
            for pairing, left in (("transpose", XI_M.T), ("dagger", _XI_DAG))
            for b_form, mid in (("original", _B), ("conjugated", mbmd))}


def pin_xi_convention(forms: dict) -> XiConvention:
    """The one convention among ``forms`` (as _candidate_forms gives them)
    whose quadratic form is exactly the split diagonal form.  Raises if
    none, or more than one, matches."""
    split = GMat.from_entries(16, ((k, k, METRIC[k % 8], 0) for k in range(16)))
    hits = [conv for conv, mat in forms.items()
            if mat + mat.T == split.scale(4 if conv.b_form == "original" else 8)]
    if len(hits) != 1:
        raise RuntimeError(f"expected exactly one diagonalizing convention, got {len(hits)}")
    return hits[0]


_CANDIDATES = _candidate_forms()
PINNED_CONVENTION = pin_xi_convention(_CANDIDATES)
# the spinor form's terms and the trilinear slices below read the transpose
# pairing with B as it is, so no other pin is usable
if PINNED_CONVENTION != ("transpose", "original"):
    raise AssertionError(f"pinned spinor convention is {PINNED_CONVENTION.label}")

# quadratic form of the spinor invariant in real components: eta^T B eta
# evaluated as xi^T B xi = eta^T (M^T B M) eta / 2
_Q_SPINOR_2 = _CANDIDATES[PINNED_CONVENTION]     # = 2 * quadratic-form matrix, exact
if not _Q_SPINOR_2.is_real():
    raise AssertionError("spinor quadratic form is not real")
# (i, j, 2Q_ij) over the nonzero entries, as ints
_Q_SPINOR_TERMS = tuple((i, j, q) for i, j, q, _ in _Q_SPINOR_2.entries())
# every 2Q_ij even: then the form is an integer on every integer spinor
if any(q % 2 for _, _, q in _Q_SPINOR_TERMS):
    raise AssertionError("spinor quadratic form is not integral")


def _spinor_form(terms):
    """eta^T Q eta on 16 Python ints, compiled from the (i, j, 2Q_ij) terms:
    the sum of (Q_ij) e_i e_j; None unless every component is a Python
    int."""
    return int_form("spinor_form", "e", 16, [[(q // 2, f"e{i} * e{j}") for i, j, q in terms]])


_SPINOR_FORM = _spinor_form(_Q_SPINOR_TERMS)

# plane (mu, nu) -> the action of Gamma_mu Gamma_nu on real spinor
# components, as (column, sign) per row; filled on first use
_BIV_REP = {}


def _bivector_action(mu: int, nu: int) -> tuple:
    """Gamma_mu Gamma_nu on real spinor components, M^dag G_mu G_nu M / 2
    (M M^dag = 2): row i of the result is sign * e_column.  The composition
    is exact; it must be real, even and one entry per row.

    It is composed once per unordered plane: for mu != nu, G_nu G_mu =
    -G_mu G_nu (verify_clifford checks it at import), so the negated
    action is stored under (nu, mu) beside it."""
    action = _BIV_REP.get((mu, nu))
    if action is None:
        k = _XI_DAG @ (_GAMMA[mu] @ _GAMMA[nu]) @ XI_M
        if not k.is_real() or any(vr % 2 for _, _, vr, _ in k.entries()):
            raise AssertionError(f"bivector ({mu},{nu}) is not real-integral in the spinor basis")
        if any(len(row) != 1 for row in k.rows):
            raise AssertionError(f"bivector ({mu},{nu}) is not a signed permutation")
        action = _BIV_REP[(mu, nu)] = tuple((c, vr // 2) for (c, vr, _), in k.rows)
        if mu != nu:
            _BIV_REP[(nu, mu)] = tuple((c, -g) for c, g in action)
    return action


def plane_generator(mu: int, nu: int) -> tuple:
    """d/dtheta at theta = 0 of the rotor of plane (mu, nu), exactly: the
    generators on x, phi and psi as 8x8 row lists of Fractions.

    The vector part is the integer matrix A of turn_pair, A[mu,nu] =
    -g_nunu and A[nu,mu] = +g_mumu.  L = c - s Gamma_mu Gamma_nu with
    (c, s) of the half angle, so the spinor part is -1/2 the bivector's
    signed permutation; its chiral blocks are the phi and psi parts.
    """
    x = [[Fraction(0)] * 8 for _ in range(8)]
    x[mu][nu], x[nu][mu] = Fraction(-METRIC[nu]), Fraction(METRIC[mu])
    spin = [[Fraction(0)] * 16 for _ in range(16)]
    for i, (j, g) in enumerate(_bivector_action(mu, nu)):
        spin[i][j] = Fraction(-g, 2)
    return x, [row[:8] for row in spin[:8]], [row[8:] for row in spin[8:]]


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def _fsum(terms) -> float:
    """math.fsum, the correctly rounded sum; NaN where it has +inf and -inf."""
    try:
        return math.fsum(terms)
    except ValueError:
        return math.nan


def _flat(values, sizes, message: str) -> list:
    """The components of a flat sequence as a list (an ndarray's through
    tolist, as Python numbers); ValueError(message) unless there are one of
    ``sizes`` of them."""
    if hasattr(values, "tolist"):
        values = values.tolist() if values.ndim == 1 else []
    else:
        values = list(values)
    if len(values) not in sizes:
        raise ValueError(message)
    return values


def quadratic_form(x) -> float:
    """The split form, summed as (x_k - x_k+4)(x_k + x_k+4): a null pair
    contributes an exact 0 instead of the difference of two large squares,
    which keeps it finite on strong boosts.  The four products are summed
    correctly rounded."""
    x = [float(v) for v in _flat(x, (8,), "vector needs 8 components")]
    return _fsum((x[k] - x[k + 4]) * (x[k] + x[k + 4]) for k in range(4))


# ---------------------------------------------------------------------------
# rotors
# ---------------------------------------------------------------------------

def half_angle(compact: bool, theta: float):
    """(c, s) with L = c - s Gamma_mu Gamma_nu: cos and sin of theta/2 on a
    compact plane, cosh and sinh of theta/2 on a boost plane."""
    h = theta / 2.0
    if compact:
        return math.cos(h), math.sin(h)
    return math.cosh(h), math.sinh(h)


class Rotor:
    """L_mu_nu(theta) = exp(-theta/2 Gamma_mu Gamma_nu) in closed form.

    (Gamma_mu Gamma_nu)^2 = -g_mumu g_nunu, so compact planes exponentiate
    through cos/sin and mixed-signature planes through cosh/sinh.
    """

    __slots__ = ("mu", "nu", "theta", "compact")

    def __init__(self, mu: int, nu: int, theta: float):
        self.mu, self.nu, self.theta = mu, nu, theta
        self.compact = METRIC[mu] * METRIC[nu] > 0


def rotor(mu: int, nu: int, theta: float) -> Rotor:
    if not (0 <= mu <= 7 and 0 <= nu <= 7):
        raise ValueError("plane indices must be in 0..7")
    if mu == nu:
        raise ValueError("rotor plane needs two distinct indices")
    return Rotor(mu, nu, float(theta))


def turn_pair(xm, xn, gm, gn, c, s):
    """The vector action of the rotor of plane (mu, nu), with metric signs
    gm = g_mumu, gn = g_nunu and half-angle pair (c, s), on the components
    (x_mu, x_nu); it fixes all others.

    The Clifford relation gives [G_mu G_nu, G_sig] = 2 g_nusig G_mu -
    2 g_musig G_nu, so X' = L X L^{-1} is generated by the integer matrix
    with A[mu,nu] = -g_nunu and A[nu,mu] = +g_mumu.  A^2 = -g_mumu g_nunu
    on the pair, so exp(theta A) is C + S A there, with (C, S) = (cos, sin)
    theta on compact planes and (cosh, sinh) theta on boosts, formed here
    from the half angle.  Elementwise, so stacks of components, planes and
    coefficients take the same rounding as single calls.
    """
    big_c, big_s = c * c - gm * gn * s * s, 2 * c * s
    return big_c * xm - big_s * gn * xn, big_c * xn + big_s * gm * xm


def _turned(xm, xn, r: Rotor):
    """turn_pair of r's plane on the components (x_mu, x_nu)."""
    return turn_pair(xm, xn, METRIC[r.mu], METRIC[r.nu],
                     *half_angle(r.compact, r.theta))


def rotate_vector_list(x: list, r: Rotor) -> list:
    """rotate_vector on a list of 8 floats, as a new list."""
    x = list(x)
    x[r.mu], x[r.nu] = _turned(x[r.mu], x[r.nu], r)
    return x


def _turn():
    """The spinor action of a rotor with half-angle pair (c, s), as one
    straight-line function of the 16 components e and the plane's signed
    permutation ``action`` (16 (j, g) pairs, as _bivector_action gives
    them): component i becomes c e_i - s (g_i e_j_i + 0.0).  One function
    serves every plane: the action is an argument, read from _BIV_REP, so
    nothing is compiled per plane."""
    pairs = ", ".join(f"(j{i}, g{i})" for i in range(16))
    names = ", ".join(f"e{i}" for i in range(16))
    body = ",\n            ".join(f"c * e{i} - s * (g{i} * e[j{i}] + 0.0)" for i in range(16))
    return compiled("turn", f"def turn(e, c, s, action):\n    {pairs} = action\n"
                            f"    {names} = e\n    return [{body}]\n")


_TURN = _turn()


def rotate_spinor_list(eta: list, r: Rotor) -> list:
    """rotate_spinor on a list of 16 floats, as a new list: component i
    becomes c eta_i - s sign_i eta_j, with (j, sign_i) row i of the
    bivector's signed permutation, in one call of the compiled turn.  The
    moved term takes + 0.0, as a dense product summed from +0.0 does, so a
    zero comes out as +0.0."""
    c, s = half_angle(r.compact, r.theta)
    return _TURN(eta, c, s, _bivector_action(r.mu, r.nu))


def rotate_vector(x, r: Rotor):
    """x' with X' = L X L^{-1}, in closed form, as a float64 ndarray;
    preserves the quadratic form.

    The 16x16 conjugation of ``tests/oracles.py`` is the independent
    oracle this is checked against.
    """
    import numpy as np
    x = np.array(x, dtype=np.float64)
    if x.shape != (8,):
        raise ValueError("vector needs 8 components")
    x[r.mu], x[r.nu] = _turned(x.item(r.mu), x.item(r.nu), r)
    return x


def rotate_spinor(eta, r: Rotor):
    """eta' = L eta on real spinor components, as a float64 ndarray; chiral
    blocks never mix.

    The bivector action is block-diagonal with exactly integral entries, so
    the wrong-chirality block of the output is exactly zero whenever it is
    zero on input.
    """
    import numpy as np
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (16,):
        raise ValueError("spinor needs 16 components")
    return np.array(rotate_spinor_list(eta.tolist(), r))


# ---------------------------------------------------------------------------
# spinors, invariant, trilinear form
# ---------------------------------------------------------------------------

def _as_ints(values):
    """The components as Python ints when every one is integral, else None;
    integers of any size stay exact (nothing passes through float64)."""
    try:
        ints = [int(v) for v in values]
    except (OverflowError, ValueError):       # inf or nan
        return None
    return ints if ints == list(values) else None


def spinor_invariant(eta):
    """eta^T B eta under the pinned transpose evaluation: exact on integers
    (a Python int, whatever their size), else the correctly rounded sum of
    its terms.  A list of 16 Python ints goes straight to the int form,
    which checks its own input."""
    if type(eta) is list and len(eta) == 16:
        value = _SPINOR_FORM(eta)
        if value is not None:
            return value
    eta = _flat(eta, (16,), "spinor needs 16 components")
    e = _as_ints(eta)
    if e is not None:
        return _SPINOR_FORM(e)
    e = [float(v) for v in eta]
    return _fsum(q / 2 * e[i] * e[j] for i, j, q in _Q_SPINOR_TERMS)


def _chiral_8(arg, block: str) -> list:
    """The 8 components of one chiral block, as a list of the values given."""
    arg = _flat(arg, (8, 16), "spinor argument needs 8 or 16 components")
    if len(arg) == 16:
        lo, hi = (0, 8) if block == "phi" else (8, 16)
        wrong = arg[8:16] if block == "phi" else arg[0:8]
        if any(wrong):
            raise ChiralityError(f"nonzero {('psi' if block == 'phi' else 'phi')}-block "
                                 f"components in a pure-{block} argument")
        return arg[lo:hi]
    return arg


def _trilinear_terms() -> tuple:
    """(a, b, c, F(e_a, e_b, e_c)) over (phi, x, psi): the nonzero entries
    K_b[a,c] of every slice K_b = (M_phi)^T B_11 (Gamma_b)_12 M_psi / 2, by
    slice, each verified real-even.  The slot order is that of
    ``octonion._TRILINEAR_TERMS``."""
    left = XI_M.block(0, 8, 0, 8).T @ _B.block(0, 8, 0, 8)
    right = XI_M.block(8, 16, 8, 16)
    out = []
    for b, g in enumerate(_GAMMA):
        k = left @ g.block(0, 8, 8, 16) @ right
        if not k.is_real() or any(vr % 2 for _, _, vr, _ in k.entries()):
            raise AssertionError(f"trilinear slice {b} is not real-even")
        out.extend((a, b, c, vr // 2) for a, c, vr, _ in k.entries())
    return tuple(out)


_TRILINEAR_TERMS = _trilinear_terms()


# F(phi, X, psi) on three lists of 8 Python ints, compiled from the terms
_TRILINEAR = trilinear_form(_TRILINEAR_TERMS)


def trilinear_matrix(phi, x, psi):
    """F(phi, X, psi) = phi^T B X psi in the pinned spinor evaluation.

    Trilinear, real-valued; exact (a Python int) when every component is
    an integer, whatever its size, else the correctly rounded sum of the
    terms x_b (k phi_a psi_c) over the flat term table, skipping x_b = 0.
    phi must be pure left-chirality and psi pure right-chirality (8
    components, or 16 with the wrong block zero).  Three lists of 8 Python
    ints go straight to the int form, which checks its own input.
    """
    if (type(phi) is list and type(x) is list and type(psi) is list
            and len(phi) == len(x) == len(psi) == 8):
        value = _TRILINEAR(phi, x, psi)
        if value is not None:
            return value
    return _trilinear(*_trilinear_args(phi, x, psi))


def _trilinear_args(phi, x, psi) -> tuple:
    """The arguments of a trilinear form, read once: phi and psi from their
    chiral blocks, x flattened, as three lists of 8 components, of Python
    ints when all 24 are integral, else of the values given."""
    p, s = _chiral_8(phi, "phi"), _chiral_8(psi, "psi")
    x = _flat(x, (8,), "vector needs 8 components")
    ints = _as_ints(p), _as_ints(x), _as_ints(s)
    return (p, x, s) if None in ints else ints


def _trilinear(p, x, s):
    """trilinear_matrix on the three lists _trilinear_args gives: the int
    form on Python ints, else the float sum over the term table."""
    value = _TRILINEAR(p, x, s)
    if value is None:
        p, x, s = ([float(v) for v in vals] for vals in (p, x, s))
        value = _fsum(x[b] * (k * p[a] * s[c]) for a, b, c, k in _TRILINEAR_TERMS if x[b])
    return value
