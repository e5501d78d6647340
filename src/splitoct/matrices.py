"""The paper's complex matrices of the (4,4) geometric algebra, as the oracle
of the spinor tables that ``clifford`` reads off the unit table.

The eight 8x8 alpha matrices are data (entries in {0, +-1, +-i}); the
16x16 generators are Gamma_mu = A_mu for mu<4 and i*A_mu for mu>=4, with
A_mu = [[0, alpha], [alpha^dagger, 0]].  The module owns the grade-4
element B = -G1 G3 G5 G7 and the spinor basis-change matrix XI_M.  Every
exact object is held as sparse rows of Gaussian integers in Python ints
(``GMat``), and the checks that run at import are exact sparse
compositions:

- the Clifford relations on the Gamma (``verify_clifford``, which reads
  ``clifford.METRIC`` when it is called);
- XI_M XI_M^dag = 2 Id;
- the pin of the spinor evaluation convention: of the four candidate
  evaluations, each composed once, exactly one must be the split diagonal
  form diag(METRIC, METRIC), and it must be ``clifford.PINNED_CONVENTION``,
  with its form twice the split form, ``clifford._Q_SPINOR_TERMS``;
- the bridge: M^dag Gamma_mu M / 2 on real spinor components is a real,
  even, chirality-swapping signed permutation, equal, row for row, to
  ``clifford._GEN[mu]``, which is read off the unit table.

Any of them raises AssertionError.  Only ``sot verify`` (every suite) and
``sot matrices`` import this module, so every verdict and every emitted
matrix rests on these checks, and the one-shot kernels load none of it.
``alpha``, ``gamma``, ``b_matrix`` and ``verify_clifford`` are also entry
points on ``clifford`` and ``splitoct``, made by ``octonion._sweep``.
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
# the split diagonal form diag(METRIC, METRIC) on the real spinor components
_SPLIT = GMat.from_entries(16, ((k, k, cl.METRIC[k % 8], 0) for k in range(16)))


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
    hits = [conv for conv, mat in forms.items()
            if mat + mat.T == _SPLIT.scale(4 if conv.b_form == "original" else 8)]
    if len(hits) != 1:
        raise RuntimeError(f"expected exactly one diagonalizing convention, got {len(hits)}")
    return hits[0]


_CANDIDATES = _candidate_forms()
# the spinor form's terms and the trilinear terms of clifford read the
# transpose pairing with B as it is, so the pin must select that one
_PIN = pin_xi_convention(_CANDIDATES)
if _PIN != cl.PINNED_CONVENTION:
    raise AssertionError(f"the pin selects {_PIN.label}, not {cl.PINNED_CONVENTION.label}")

# quadratic form of the spinor invariant in real components: eta^T B eta
# evaluated as xi^T B xi = eta^T (M^T B M) eta / 2.  The pin reads its
# symmetric part; this one equality makes it real, integral and diagonal,
# twice the split form, whose terms clifford holds
_Q_SPINOR_2 = _CANDIDATES[cl.PINNED_CONVENTION]     # = 2 * quadratic-form matrix, exact
if tuple((i, j, q) for i, j, q, _ in _Q_SPINOR_2.entries()) != cl._Q_SPINOR_TERMS:
    raise AssertionError("pinned spinor form is not 2 diag(METRIC, METRIC)")


def _generators() -> tuple:
    """Gamma_mu on real spinor components, M^dag Gamma_mu M / 2 (M M^dag =
    2), for each mu: row i of the result is sign * e_column, as a (column,
    sign) pair.  The composition is exact; it must be real, even, one entry
    per row, and move each chiral half into the other."""
    out = []
    for mu, g in enumerate(_GAMMA):
        k = _XI_DAG @ g @ XI_M
        if not k.is_real() or any(vr % 2 for _, _, vr, _ in k.entries()):
            raise AssertionError(f"generator {mu} is not real-integral in the spinor basis")
        if any(len(row) != 1 or (row[0][0] < 8) == (i < 8) for i, row in enumerate(k.rows)):
            raise AssertionError(f"generator {mu} is not a chirality-swapping signed permutation")
        out.append(tuple((c, vr // 2) for (c, vr, _), in k.rows))
    return tuple(out)


def _check_bridge() -> None:
    """The paper's generators in the spinor basis are clifford's, read off
    the unit table: AssertionError naming the first mu where they differ."""
    for mu, (mine, read) in enumerate(zip(_generators(), cl._GEN)):
        if mine != read:
            raise AssertionError(f"generator {mu} of the alpha and xi data is not "
                                 "the unit table's")


_check_bridge()
