"""Real spinors of the (4,4) geometric algebra, read off the split-octonion
unit table, with rotors, the spinor invariant and the trilinear form.

On real spinor components (phi, psi), 8 each, every generator Gamma_mu is
a signed permutation, read off ``octonion._TABLE`` at import (``_GEN``):
Gamma(e_mu) maps (phi, psi) to -(conj(e_mu psi), conj(phi e_mu)).  These
eight are the one source of the spinor tables.  Their 64 products are
checked against the Clifford relation at import, so a wrong sign of the
table is refused there; the 56 with mu != nu are the bivector actions
(``_BIV_REP``), and the trilinear terms are their phi rows times the
pinned form's diagonal.  The pinned spinor evaluation
(PINNED_CONVENTION, the transpose pairing with B as it is) makes the
spinor invariant the split form diag(METRIC, METRIC) (``_Q_SPINOR_TERMS``).
The paper's complex matrices, alpha, Gamma, B and the basis change XI_M,
live in ``matrices``, which composes M^dag Gamma_mu M / 2 from them and
checks it against ``_GEN`` when imported, by ``sot verify`` and ``sot
matrices``; ``alpha``, ``gamma``, ``b_matrix`` and ``verify_clifford`` are
entry points here that import it at the first call.
Rotors carry their half-angle pair and act on real float components:
vectors in closed form, spinors by one turn compiled at import, which
takes the bivector's permutation as an argument; ``plane_generator``
gives a plane's exact first-order action on both.
The trilinear form is one flat table of (a, b, c, F(e_a, e_b, e_c))
terms over (phi, x, psi), in the slot order of the octonionic form's
table, and the spinor invariant one of (i, j, 2Q_ij) terms; on integers
each is one straight-line function compiled from its table by
``exact.int_form`` (``exact.trilinear_form`` for the trilinear form).
An int form returns None unless every component is a Python int, so a
list of Python ints goes to it as given, and any other argument is read
once (``_trilinear_args`` for the trilinear form).  Float sums of several
terms are correctly rounded (``math.fsum``).  numpy is imported only by
the ndarray rotor actions.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import octonion as oc
from .exact import compiled, int_form, trilinear_form

METRIC = (1, 1, 1, 1, -1, -1, -1, -1)


class ChiralityError(ValueError):
    """Spinor argument has nonzero components in the wrong chiral block."""


class XiConvention(namedtuple("XiConvention", "pairing b_form")):
    """Which evaluation of the spinor invariant diagonalizes it: pairing
    "transpose" or "dagger", b_form "original" or "conjugated"."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"xi^{'T' if self.pairing == 'transpose' else 'dagger'} B[{self.b_form}] xi"


# eta^T B eta evaluated as xi^T B xi = eta^T (M^T B M) eta / 2: the one
# convention whose form is the split diagonal form; ``matrices`` pins it
# among the four candidates when it is imported, and refuses another
PINNED_CONVENTION = XiConvention("transpose", "original")
# (i, j, 2Q_ij) over the nonzero entries of 2Q = M^T B M = 2 diag(METRIC,
# METRIC), as ints; ``matrices`` checks them against the composed form
_Q_SPINOR_TERMS = tuple((k, k, 2 * METRIC[k % 8]) for k in range(16))


def _spinor_form(terms):
    """eta^T Q eta on 16 Python ints, compiled from the (i, j, 2Q_ij) terms:
    the sum of (Q_ij) e_i e_j; None unless every component is a Python
    int."""
    return int_form("spinor_form", "e", 16, [[(q // 2, f"e{i} * e{j}") for i, j, q in terms]])


_SPINOR_FORM = _spinor_form(_Q_SPINOR_TERMS)


def _spinor_tables(table) -> tuple:
    """The generators and the bivector actions of a unit table: (gens,
    actions), each a signed permutation as 16 (column, sign) rows, row i
    being sign * e_column.

    Gamma(e_mu) maps (phi, psi) to -(conj(e_mu psi), conj(phi e_mu)), with
    conj(e_a) = kappa_a e_a (``octonion._CONJ_SIGNS``): for e_j e_mu = s e_k
    phi row k reads psi_j, and for e_mu e_j = s e_k psi row k reads phi_j,
    each with sign -kappa_mu kappa_j s.  actions[mu, nu] = G_mu G_nu for mu
    != nu: row i is (k, g h) for row i of G_mu (j, g) and row j of G_nu
    (k, h).  Raises AssertionError naming the first pair (mu, nu) in C
    order that breaks the Clifford relation: G_mu G_mu = g_mumu Id, G_mu
    G_nu = -G_nu G_mu.
    """
    kappa = oc._CONJ_SIGNS
    gens = []
    for mu in range(8):
        rows = [None] * 16
        for j in range(8):
            k, s = table[j][mu]
            rows[k] = (8 + j, -kappa[mu] * kappa[j] * s)
            k, s = table[mu][j]
            rows[8 + k] = (j, -kappa[mu] * kappa[j] * s)
        gens.append(tuple(rows))
    products = {(mu, nu): tuple((b[j][0], g * b[j][1]) for j, g in a)
                for mu, a in enumerate(gens) for nu, b in enumerate(gens)}
    for (mu, nu), ab in products.items():
        want = (tuple((i, METRIC[mu]) for i in range(16)) if mu == nu
                else tuple((k, -g) for k, g in products[nu, mu]))
        if ab != want:
            raise AssertionError(f"the unit table's spinor generators break the Clifford "
                                 f"relation at pair ({mu},{nu})")
    return tuple(gens), {plane: ab for plane, ab in products.items() if plane[0] != plane[1]}


# _GEN[mu]: Gamma_mu on real spinor components; _BIV_REP: plane (mu, nu) ->
# Gamma_mu Gamma_nu, all 56 ordered planes
_GEN, _BIV_REP = _spinor_tables(oc._TABLE)

# the paper's matrices and the Clifford report, from ``matrices`` at the first call
alpha = oc._sweep("matrices", "alpha")
gamma = oc._sweep("matrices", "gamma")
b_matrix = oc._sweep("matrices", "b_matrix")
verify_clifford = oc._sweep("matrices", "verify_clifford")


def _check_plane(mu: int, nu: int) -> None:
    """ValueError unless the plane (mu, nu) is two distinct indices in 0..7."""
    if not (0 <= mu <= 7 and 0 <= nu <= 7):
        raise ValueError("plane indices must be in 0..7")
    if mu == nu:
        raise ValueError("rotor plane needs two distinct indices")


def plane_generator(mu: int, nu: int) -> tuple:
    """d/dtheta at theta = 0 of the rotor of plane (mu, nu), exactly: the
    generators on x, phi and psi as 8x8 row lists of Fractions.

    The vector part is the integer matrix A of turn_pair, A[mu,nu] =
    -g_nunu and A[nu,mu] = +g_mumu.  L = c - s Gamma_mu Gamma_nu with
    (c, s) of the half angle, so the spinor part is -1/2 the bivector's
    signed permutation; its chiral blocks are the phi and psi parts.
    """
    _check_plane(mu, nu)
    x = [[Fraction(0)] * 8 for _ in range(8)]
    x[mu][nu], x[nu][mu] = Fraction(-METRIC[nu]), Fraction(METRIC[mu])
    spin = [[Fraction(0)] * 16 for _ in range(16)]
    for i, (j, g) in enumerate(_BIV_REP[mu, nu]):
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
    """L_mu_nu(theta) = exp(-theta/2 Gamma_mu Gamma_nu) = c - s Gamma_mu Gamma_nu.

    (Gamma_mu Gamma_nu)^2 = -g_mumu g_nunu, so compact planes exponentiate
    through cos/sin and mixed-signature planes through cosh/sinh.  (c, s)
    is formed once, here, and every action reads it: a boost past |theta|
    of about 1421 overflows cosh and raises OverflowError here, and a plane
    that is not two distinct indices in 0..7 raises ValueError.
    """

    __slots__ = ("mu", "nu", "theta", "compact", "c", "s")

    def __init__(self, mu: int, nu: int, theta: float):
        _check_plane(mu, nu)
        self.mu, self.nu, self.theta = mu, nu, theta
        self.compact = METRIC[mu] * METRIC[nu] > 0
        self.c, self.s = half_angle(self.compact, theta)


def rotor(mu: int, nu: int, theta: float) -> Rotor:
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
    from the half angle.
    """
    big_c, big_s = c * c - gm * gn * s * s, 2 * c * s
    return big_c * xm - big_s * gn * xn, big_c * xn + big_s * gm * xm


def rotate_vector_list(x: list, r: Rotor) -> list:
    """rotate_vector on a list of 8 floats, as a new list."""
    x = list(x)
    x[r.mu], x[r.nu] = turn_pair(x[r.mu], x[r.nu], METRIC[r.mu], METRIC[r.nu], r.c, r.s)
    return x


def _turn():
    """The spinor action of a rotor with half-angle pair (c, s), as one
    straight-line function of the 16 components e and the plane's signed
    permutation ``action`` (16 (j, g) pairs): component i becomes c e_i -
    s (g_i e_j_i + 0.0).  One function serves every plane: the action is an
    argument, read from _BIV_REP, which holds all 56 planes from import, so
    nothing is composed or compiled per plane."""
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
    return _TURN(eta, r.c, r.s, _BIV_REP[r.mu, r.nu])


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
    x[r.mu], x[r.nu] = turn_pair(x.item(r.mu), x.item(r.nu), METRIC[r.mu], METRIC[r.nu],
                                 r.c, r.s)
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


# (a, b, c, F(e_a, e_b, e_c)) over (phi, x, psi), by slice b and then phi
# row a.  Slice b is the (phi, psi) block of M^T B Gamma_b M / 2 =
# (M^T B M)(M^dag Gamma_b M / 2) / 2 (M M^dag = 2): the pinned form,
# diag(METRIC, METRIC), times _GEN[b], so row a holds one term, g_aa times
# the sign of row a of _GEN[b].  The slot order is that of
# ``octonion._TRILINEAR_TERMS``.
_TRILINEAR_TERMS = tuple((a, b, c - 8, METRIC[a] * g) for b, gen in enumerate(_GEN)
                         for a, (c, g) in enumerate(gen[:8]))


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
