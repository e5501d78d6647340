"""The paper's complex matrices of the (4,4) geometric algebra, as the oracle
of the spinor tables that ``clifford`` reads off the unit table.

The eight 8x8 alpha matrices are data (entries in {0, +-1, +-i}); the
16x16 generators are Gamma_mu = A_mu for mu<4 and i*A_mu for mu>=4, with
A_mu = [[0, alpha], [alpha^dagger, 0]].  The module owns the grade-4
element B = -G1 G3 G5 G7 and the spinor basis-change matrix M = XI_M.
Every exact object is held as sparse rows of Gaussian integers in Python
ints (``GMat``), and the checks that run at import (``_checked``, in this
order) are exact sparse compositions:

- M M^dag = 2 Id;
- the bridge: M^dag Gamma_mu M = 2 G_mu for each mu, with G_mu the real
  signed permutation ``clifford._GEN[mu]``, read off the unit table;
- the pin of the spinor evaluation convention: of the four candidate
  evaluations, each composed once, exactly one must be the split diagonal
  form diag(METRIC, METRIC), and it must be ``clifford.PINNED_CONVENTION``,
  with its form twice the split form, ``clifford._Q_SPINOR_TERMS``.

Any of them raises AssertionError (the pin RuntimeError).  The first two
imply the Clifford relation on the Gamma: Gamma_mu = M G_mu M^dag / 2, so
Gamma_mu Gamma_nu + Gamma_nu Gamma_mu = M (G_mu G_nu + G_nu G_mu) M^dag / 2
= 2 g_munu Id by the relation ``clifford._spinor_tables`` checks on the
G_mu.  So the import composes none of the 64 products; the `clifford`
report does (``verify_clifford``, which reads ``clifford.METRIC`` at the
call).  Only ``sot verify`` and ``sot matrices`` import this module, so
every verdict and emitted matrix rests on these checks.  ``alpha``,
``gamma``, ``b_matrix`` and ``verify_clifford`` are also entry points on
``clifford`` and ``splitoct``, made by ``octonion._sweep``.
"""
from __future__ import annotations

from . import clifford as cl
from .clifford import XiConvention
from .report import VerificationReport


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
    # (row, col, re, im) entry quadruples; the tables are data, checked at import
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


def _big_a(a: GMat) -> GMat:
    """[[0, a], [a^dagger, 0]] for an 8x8 a."""
    upper = (tuple((c + 8, vr, vi) for c, vr, vi in row) for row in a.rows)
    return GMat((*upper, *a.conj_t().rows))


def _gammas(alphas) -> list:
    """Gamma_mu of the alpha tables: A_mu for mu < 4, i A_mu for mu >= 4."""
    return [_big_a(a) if mu < 4 else _big_a(a).times_i() for mu, a in enumerate(alphas)]


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

    Each product of Gaussian integers is compared with g_mumu Id if mu = nu,
    else with -Gamma_nu Gamma_mu: a failing pair names the first entry in C
    order where it differs, which is where the sum differs.  The metric is
    ``clifford.METRIC`` as it stands at the call.
    """
    rep = VerificationReport("clifford")
    products = [[a @ b for b in _GAMMA] for a in _GAMMA]
    eye = {1: GMat.eye(16), -1: -GMat.eye(16)}
    for mu in range(8):
        for nu in range(8):
            want = eye[cl.METRIC[mu]] if mu == nu else -products[nu][mu]
            entry = products[mu][nu].first_difference(want)
            rep.record_case(entry is None, f"pair ({mu},{nu}) entry {entry}")
    return rep


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


# the split diagonal form diag(METRIC, METRIC) on the real spinor components
_SPLIT = GMat.from_entries(16, ((k, k, cl.METRIC[k % 8], 0) for k in range(16)))


def _candidate_forms(xi: GMat, b: GMat) -> dict:
    """The four candidate evaluations of basis change xi and B as exact
    16x16 quadratic forms on the real components, by convention: 2x the form
    for B original, 4x for B conjugated by T = M/sqrt2 (T B T^{-1} = M B M^dag / 2)."""
    xi_dag = xi.conj_t()
    mbmd = xi @ b @ xi_dag
    return {XiConvention(pairing, b_form): left @ mid @ xi
            for pairing, left in (("transpose", xi.T), ("dagger", xi_dag))
            for b_form, mid in (("original", b), ("conjugated", mbmd))}


def pin_xi_convention(forms: dict) -> XiConvention:
    """The one convention among ``forms`` (as _candidate_forms gives them)
    whose quadratic form is exactly the split diagonal form.  Raises if
    none, or more than one, matches."""
    hits = [conv for conv, mat in forms.items()
            if mat + mat.T == _SPLIT.scale(4 if conv.b_form == "original" else 8)]
    if len(hits) != 1:
        raise RuntimeError(f"expected exactly one diagonalizing convention, got {len(hits)}")
    return hits[0]


def _check_bridge(gammas, xi: GMat) -> None:
    """The paper's generators in the spinor basis are clifford's, read off
    the unit table: M^dag Gamma_mu M == 2 G_mu for each mu, exactly, with
    G_mu the real matrix of the signed permutation ``clifford._GEN[mu]``;
    AssertionError naming the first mu where it is not."""
    xi_dag = xi.conj_t()
    for mu, (g, gen) in enumerate(zip(gammas, cl._GEN)):
        if not xi_dag @ g @ xi == GMat(((c, 2 * s, 0),) for c, s in gen):
            raise AssertionError(f"generator {mu} of the alpha and xi data is not the unit table's")


def _checked(alphas, xi: GMat) -> tuple:
    """(Gamma, B) of the alpha and xi data, after the import checks on them
    in the order the module docstring lists: the first that fails raises.
    The import runs it on _ALPHA and XI_M, the catch matrix on each of
    their single sign flips."""
    gammas = _gammas(alphas)
    if not xi @ xi.conj_t() == GMat.eye(16).scale(2):
        raise AssertionError("xi basis-change matrix is not sqrt2-unitary")
    _check_bridge(gammas, xi)
    b = -(gammas[1] @ gammas[3] @ gammas[5] @ gammas[7])
    forms = _candidate_forms(xi, b)
    # clifford's spinor form and trilinear terms read the transpose pairing
    # with B as it is, so the pin must select that one
    pin = pin_xi_convention(forms)
    if pin != cl.PINNED_CONVENTION:
        raise AssertionError(f"the pin selects {pin.label}, not {cl.PINNED_CONVENTION.label}")
    # eta^T B eta evaluated as xi^T B xi = eta^T (M^T B M) eta / 2: the pin
    # reads its symmetric part; this one equality makes it real, integral
    # and diagonal, twice the split form, whose terms clifford holds
    if tuple((i, j, q) for i, j, q, _ in forms[pin].entries()) != cl._Q_SPINOR_TERMS:
        raise AssertionError("pinned spinor form is not 2 diag(METRIC, METRIC)")
    return gammas, b


_ALPHA = _alpha_tables()
# xi = (1/sqrt2) XI_M @ eta; the sqrt2 is tracked symbolically, so every
# exactness statement here is about XI_M itself.
XI_M = _xi_matrix()
_GAMMA, _B = _checked(_ALPHA, XI_M)
