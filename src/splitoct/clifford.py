"""Complex matrix representation of the (4,4) geometric algebra.

The eight 8x8 alpha matrices are data (entries in {0, +-1, +-i}); the
16x16 generators are Gamma_mu = A_mu for mu<4 and i*A_mu for mu>=4, with
A_mu = [[0, alpha], [alpha^dagger, 0]].  Exact work runs on Gaussian
integers held as paired int64 arrays; rotors act on real float64
components (vectors in closed form, spinors through integer bivector
matrices), and the complex128 conjugation L X L^{-1} is kept as their
oracle.  The module also owns the grade-4 element B = -G1 G3 G5 G7, the
spinor basis-change matrix and everything built on them (rotors,
invariants, the trilinear form).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import exact_float64, magnitude
from .report import VerificationReport

METRIC = (1, 1, 1, 1, -1, -1, -1, -1)
_INT64_MAX = 2 ** 63 - 1


class ChiralityError(ValueError):
    """Spinor argument has nonzero components in the wrong chiral block."""


class NotGrade1Error(ValueError):
    """Matrix is not in the span of the grade-1 generators."""


class GMat:
    """Dense matrix of Gaussian integers (exact), as paired int64 arrays."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = np.asarray(re, dtype=np.int64)
        self.im = np.zeros_like(self.re) if im is None else np.asarray(im, dtype=np.int64)

    @classmethod
    def eye(cls, n):
        return cls(np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, shape):
        return cls(np.zeros(shape, dtype=np.int64))

    def __matmul__(self, other):
        # every partial sum of the real part is at most n (|re||re'| + |im||im'|),
        # of the imaginary part n (|re||im'| + |im||re'|), |.| the largest entry
        ar, ai, br, bi = (magnitude(m) for m in (self.re, self.im, other.re, other.im))
        if self.re.shape[-1] * max(ar * br + ai * bi, ar * bi + ai * br) > _INT64_MAX:
            raise OverflowError("the Gaussian-integer product may exceed int64")
        return GMat(self.re @ other.re - self.im @ other.im,
                    self.re @ other.im + self.im @ other.re)

    def __add__(self, other):
        return GMat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GMat(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GMat(-self.re, -self.im)

    def scale(self, k: int):
        return GMat(k * self.re, k * self.im)

    def times_i(self):
        return GMat(-self.im, self.re)

    @property
    def T(self):
        return GMat(self.re.T, self.im.T)

    def conj_t(self):
        return GMat(self.re.T, -self.im.T)

    def __eq__(self, other):
        return np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)

    def is_zero(self) -> bool:
        return not (self.re.any() or self.im.any())

    def is_real(self) -> bool:
        return not self.im.any()

    def to_complex(self) -> np.ndarray:
        return self.re.astype(np.complex128) + 1j * self.im.astype(np.complex128)

    def to_json(self, exact: bool = True) -> list:
        if exact:
            return [[{"re": str(int(self.re[r, c])), "im": str(int(self.im[r, c]))}
                     for c in range(self.re.shape[1])] for r in range(self.re.shape[0])]
        return [[{"re": float(self.re[r, c]), "im": float(self.im[r, c])}
                 for c in range(self.re.shape[1])] for r in range(self.re.shape[0])]


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
    out = []
    for entries in data:
        re = np.zeros((8, 8), dtype=np.int64)
        im = np.zeros((8, 8), dtype=np.int64)
        for r, c, vr, vi in entries:
            re[r, c] = vr
            im[r, c] = vi
        re.flags.writeable = False
        im.flags.writeable = False
        out.append(GMat(re, im))
    return out


_ALPHA = _alpha_tables()


def _big_a(mu: int) -> GMat:
    out = GMat.zeros((16, 16))
    a = _ALPHA[mu]
    out.re[0:8, 8:16] = a.re
    out.im[0:8, 8:16] = a.im
    adag = a.conj_t()
    out.re[8:16, 0:8] = adag.re
    out.im[8:16, 0:8] = adag.im
    return out


def _freeze(m: GMat) -> GMat:
    m.re.flags.writeable = False
    m.im.flags.writeable = False
    return m


_GAMMA = [_freeze(_big_a(mu) if mu < 4 else _big_a(mu).times_i()) for mu in range(8)]
_B = _freeze(-(_GAMMA[1] @ _GAMMA[3] @ _GAMMA[5] @ _GAMMA[7]))
_GAMMA_C = [g.to_complex() for g in _GAMMA]
for _m in _GAMMA_C:
    _m.flags.writeable = False


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


def _pair_products(mats, terms: int):
    """(A_mu A_nu)_ik at [mu, i, nu, k] for the eight 16x16 GMats A_mu, as
    real and imaginary float64 parts: four float64 products over j, exact
    by exact_float64 for sums of at most ``terms`` products."""
    re, im = exact_float64(np.array([m.re for m in mats]), np.array([m.im for m in mats]),
                           degree=2, terms=terms)
    pair = lambda a, b: (a.reshape(128, 16) @ b.transpose(1, 0, 2).reshape(16, 128)
                         ).reshape(8, 16, 8, 16)
    return pair(re, re) - pair(im, im), pair(re, im) + pair(im, re)


def verify_clifford() -> VerificationReport:
    """Gamma_mu Gamma_nu + Gamma_nu Gamma_mu == 2 g_munu Id, all 64 pairs, exact.

    All 64 products are one stacked float64 contraction of the Gamma
    stack, exact by exact_float64; a failing pair names its first wrong
    entry.
    """
    rep = VerificationReport("clifford")
    p_re, p_im = _pair_products(_GAMMA, terms=2 * 16 * 2)
    want = 2 * np.einsum("mn,ik->mink", np.diag(METRIC), np.eye(16))
    bad = ((p_re + p_re.transpose(2, 1, 0, 3) != want)
           | (p_im + p_im.transpose(2, 1, 0, 3) != 0)).transpose(0, 2, 1, 3)
    rep.record_mask(~bad.any(axis=(2, 3)), lambda mu, nu: (
        f"pair ({mu},{nu}) entry {tuple(int(i) for i in np.argwhere(bad[mu, nu])[0])}"))
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
    re = np.zeros((16, 16), dtype=np.int64)
    im = np.zeros((16, 16), dtype=np.int64)
    for r, entries in rows:
        for c, vr, vi in entries:
            re[r, c] = vr
            im[r, c] = vi
    return GMat(re, im)


# xi = (1/sqrt2) XI_M @ eta; the sqrt2 is tracked symbolically, so every
# exactness statement below is about XI_M itself.
XI_M = _freeze(_xi_matrix())
_XI_BLOCK_PHI = GMat(XI_M.re[0:8, 0:8], XI_M.im[0:8, 0:8])
_XI_BLOCK_PSI = GMat(XI_M.re[8:16, 8:16], XI_M.im[8:16, 8:16])

if not (XI_M @ XI_M.conj_t() == GMat.eye(16).scale(2)):
    raise AssertionError("xi basis-change matrix is not sqrt2-unitary")

# quadratic form of the spinor invariant in real components:
# eta^T B eta evaluated as xi^T B xi = eta^T (M^T B M) eta / 2
_Q_SPINOR_2 = XI_M.T @ _B @ XI_M     # = 2 * quadratic-form matrix, exact
if not _Q_SPINOR_2.is_real():
    raise AssertionError("spinor quadratic form is not real")
_Q_SPINOR = _Q_SPINOR_2.re / 2.0      # float copy for float-mode inputs
# (i, j, 2Q_ij) over the nonzero entries, as ints for exact integer input
_Q_SPINOR_TERMS = tuple((int(i), int(j), int(_Q_SPINOR_2.re[i, j]))
                        for i, j in np.argwhere(_Q_SPINOR_2.re))


def _real_bivector_reps() -> dict:
    """Action of Gamma_mu Gamma_nu on real spinor components, M^dag G_mu G_nu
    M / 2, for every (mu, nu).  M M^dag = 2, so with H_mu = M^dag G_mu M it
    is H_mu H_nu / 4: sixteen GMat products and one stacked contraction."""
    m_dag = XI_M.conj_t()
    h = [m_dag @ g @ XI_M for g in _GAMMA]
    p_re, p_im = _pair_products(h, terms=2 * 16)
    bad = np.argwhere(p_im.any(axis=(1, 3)) | (p_re % 4).any(axis=(1, 3)))
    if len(bad):
        mu, nu = (int(i) for i in bad[0])
        raise AssertionError(f"bivector ({mu},{nu}) is not real-integral in the spinor basis")
    return {(mu, nu): p_re[mu, :, nu] / 4 for mu in range(8) for nu in range(8)}


_BIV_REP = {}


def real_bivector_rep(mu: int, nu: int) -> np.ndarray:
    if (mu, nu) not in _BIV_REP:
        for plane, rep in _real_bivector_reps().items():
            _BIV_REP.setdefault(plane, rep)
    return np.array(_BIV_REP[(mu, nu)])


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vector_to_matrix(x) -> np.ndarray:
    """X = sum_mu x_mu Gamma_mu as complex128."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (8,):
        raise ValueError("vector needs 8 components")
    out = np.zeros((16, 16), dtype=np.complex128)
    for mu in range(8):
        if x[mu]:
            out += x[mu] * _GAMMA_C[mu]
    return out


def vector_to_matrix_exact(x) -> GMat:
    """Same linear combination on integer components, exact."""
    out = GMat.zeros((16, 16))
    for mu in range(8):
        k = int(x[mu])
        if k != x[mu]:
            raise ValueError("exact mode needs integer components")
        if k:
            out = out + _GAMMA[mu].scale(k)
    return out


def matrix_to_vector(X, tol: float = 1e-10):
    """Recover x_mu by the trace pairing x_mu = g_mumu tr(Gamma_mu X)/16.

    Raises NotGrade1Error when the residual X - sum x_mu Gamma_mu exceeds
    the tolerance (exactly nonzero, for exact input).
    """
    if isinstance(X, GMat):
        coeffs = []
        for mu in range(8):
            prod = _GAMMA[mu] @ X
            if int(np.trace(prod.im)) != 0:
                raise NotGrade1Error("trace pairing is not real")
            coeffs.append(Fraction(METRIC[mu] * int(np.trace(prod.re)), 16))
        recon = GMat.zeros((16, 16))
        scaled = [c * 16 for c in coeffs]
        if any(s.denominator != 1 for s in scaled):
            raise NotGrade1Error("non-integral trace pairing")
        for mu in range(8):
            recon = recon + _GAMMA[mu].scale(int(scaled[mu]))
        if not (X.scale(16) - recon).is_zero():
            raise NotGrade1Error("matrix has components outside grade 1")
        return tuple(coeffs)
    Xc = np.asarray(X, dtype=np.complex128)
    x = np.empty(8)
    for mu in range(8):
        c = METRIC[mu] * np.trace(_GAMMA_C[mu] @ Xc) / 16
        if abs(c.imag) > tol:
            raise NotGrade1Error("trace pairing is not real")
        x[mu] = c.real
    resid = Xc - vector_to_matrix(x)
    if np.max(np.abs(resid)) > tol:
        raise NotGrade1Error(f"grade-1 residual {np.max(np.abs(resid)):.3e} exceeds {tol}")
    return x


def quadratic_form(x) -> float:
    """The split form, summed as (x_k - x_k+4)(x_k + x_k+4): a null pair
    contributes an exact 0 instead of the difference of two large squares,
    which keeps it finite on strong boosts."""
    x = np.asarray(x, dtype=np.float64)
    return float((x[:4] - x[4:]) @ (x[:4] + x[4:]))


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


@dataclass(frozen=True)
class Rotor:
    """L_mu_nu(theta) = exp(-theta/2 Gamma_mu Gamma_nu) in closed form.

    (Gamma_mu Gamma_nu)^2 = -g_mumu g_nunu, so compact planes exponentiate
    through cos/sin and mixed-signature planes through cosh/sinh.
    """

    mu: int
    nu: int
    theta: float
    compact: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "compact", METRIC[self.mu] * METRIC[self.nu] > 0)

    def half_coeffs(self):
        return half_angle(self.compact, self.theta)

    def matrix(self) -> np.ndarray:
        c, s = self.half_coeffs()
        return c * np.eye(16, dtype=np.complex128) - s * (_GAMMA_C[self.mu] @ _GAMMA_C[self.nu])

    def inverse(self) -> "Rotor":
        return Rotor(self.nu, self.mu, self.theta)


def rotor(mu: int, nu: int, theta: float) -> Rotor:
    if not (0 <= mu <= 7 and 0 <= nu <= 7):
        raise ValueError("plane indices must be in 0..7")
    if mu == nu:
        raise ValueError("rotor plane needs two distinct indices")
    return Rotor(mu, nu, float(theta))


_G = np.array(METRIC, dtype=np.float64)


def turn_pair(xm, xn, mu, nu, c, s):
    """The vector action of the rotor of plane (mu, nu), with half-angle
    pair (c, s), on the components (x_mu, x_nu); it fixes all others.

    The Clifford relation gives [G_mu G_nu, G_sig] = 2 g_nusig G_mu -
    2 g_musig G_nu, so X' = L X L^{-1} is generated by the integer matrix
    with A[mu,nu] = -g_nunu and A[nu,mu] = +g_mumu.  A^2 = -g_mumu g_nunu
    on the pair, so exp(theta A) is C + S A there, with (C, S) = (cos, sin)
    theta on compact planes and (cosh, sinh) theta on boosts, formed here
    from the half angle.  Elementwise, so stacks of components, planes and
    coefficients take the same rounding as single calls.
    """
    gm, gn = _G[mu], _G[nu]
    big_c, big_s = c * c - gm * gn * s * s, 2 * c * s
    return big_c * xm - big_s * gn * xn, big_c * xn + big_s * gm * xm


def rotate_vector(x, r: Rotor) -> np.ndarray:
    """x' with X' = L X L^{-1}, in closed form; preserves the quadratic form.

    The matrix route (vector_to_matrix, Rotor.matrix, matrix_to_vector) is
    the independent oracle this is tested against.
    """
    x = np.array(x, dtype=np.float64)
    if x.shape != (8,):
        raise ValueError("vector needs 8 components")
    mu, nu = r.mu, r.nu
    x[mu], x[nu] = turn_pair(x[mu], x[nu], mu, nu, *half_angle(r.compact, r.theta))
    return x


def rotate_spinor(eta, r: Rotor) -> np.ndarray:
    """eta' = L eta on real spinor components; chiral blocks never mix.

    The bivector representation is block-diagonal with exactly integral
    entries, so the wrong-chirality block of the output is exactly zero
    whenever it is zero on input.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (16,):
        raise ValueError("spinor needs 16 components")
    c, s = half_angle(r.compact, r.theta)
    return c * eta - s * (real_bivector_rep(r.mu, r.nu) @ eta)


# ---------------------------------------------------------------------------
# spinors, invariant, trilinear form
# ---------------------------------------------------------------------------

def embed_phi(phi) -> np.ndarray:
    out = np.zeros(16)
    out[0:8] = phi
    return out


def embed_psi(psi) -> np.ndarray:
    out = np.zeros(16)
    out[8:16] = psi
    return out


def _as_ints(values):
    """The components as Python ints when every one is integral, else None;
    integers of any size stay exact (nothing passes through float64)."""
    try:
        ints = [int(v) for v in values]
    except (OverflowError, ValueError):       # inf or nan
        return None
    return ints if ints == list(values) else None


def spinor_invariant(eta):
    """eta^T B eta under the pinned transpose evaluation; exact on integers.

    The two chiral contributions are computed independently and summed,
    which is also how the invariance splits.
    """
    if np.shape(eta) != (16,):
        raise ValueError("spinor needs 16 components")
    e = _as_ints(eta)
    if e is not None:
        total = sum(q * e[i] * e[j] for i, j, q in _Q_SPINOR_TERMS)
        if total % 2:
            raise AssertionError("spinor form lost exactness")
        return total // 2
    eta = np.asarray(eta, dtype=np.float64)
    phi_part = eta[0:8] @ _Q_SPINOR[0:8, 0:8] @ eta[0:8]
    psi_part = eta[8:16] @ _Q_SPINOR[8:16, 8:16] @ eta[8:16]
    return float(phi_part + psi_part)


def _chiral_8(arg, block: str):
    """The 8 components of one chiral block, as given (no dtype conversion)."""
    shape = np.shape(arg)
    if shape == (16,):
        lo, hi = (0, 8) if block == "phi" else (8, 16)
        wrong = arg[8:16] if block == "phi" else arg[0:8]
        if any(wrong):
            raise ChiralityError(f"nonzero {('psi' if block == 'phi' else 'phi')}-block "
                                 f"components in a pure-{block} argument")
        return arg[lo:hi]
    if shape == (8,):
        return arg
    raise ValueError("spinor argument needs 8 or 16 components")


def _trilinear_slices():
    """K_b = (M_phi)^T B_11 (Gamma_b)_12 M_psi, entries verified real-even."""
    b11 = GMat(_B.re[0:8, 0:8], _B.im[0:8, 0:8])
    slices = []
    for b in range(8):
        g12 = GMat(_GAMMA[b].re[0:8, 8:16], _GAMMA[b].im[0:8, 8:16])
        k = _XI_BLOCK_PHI.T @ b11 @ g12 @ _XI_BLOCK_PSI
        if not k.is_real() or (k.re % 2).any():
            raise AssertionError(f"trilinear slice {b} is not real-even")
        half = (k.re // 2).copy()
        half.flags.writeable = False
        slices.append(half)
    return slices


_TRI_SLICES = _trilinear_slices()
# per slice b, (i, j, K_b[i,j]) over its nonzero entries, as ints
_TRI_TERMS = tuple(tuple((int(i), int(j), int(k[i, j])) for i, j in np.argwhere(k))
                   for k in _TRI_SLICES)


def trilinear_matrix(phi, x, psi):
    """F(phi, X, psi) = phi^T B X psi in the pinned spinor evaluation.

    Trilinear, real-valued; exact (a Python int) when every component is
    an integer, whatever its size.  phi must be pure left-chirality and
    psi pure right-chirality (8 components, or 16 with the wrong block
    zero).
    """
    p = _chiral_8(phi, "phi")
    s = _chiral_8(psi, "psi")
    if np.shape(x) != (8,):
        raise ValueError("vector needs 8 components")
    pi, si, xi = _as_ints(p), _as_ints(s), _as_ints(x)
    if None not in (pi, si, xi):
        return sum(xb * sum(k * pi[i] * si[j] for i, j, k in _TRI_TERMS[b])
                   for b, xb in enumerate(xi) if xb)
    p = np.asarray(p, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return float(sum(x[b] * (p @ _TRI_SLICES[b].astype(np.float64) @ s)
                     for b in range(8) if x[b]))


def trilinear_slice(b: int) -> np.ndarray:
    """Integer matrix K_b with F(phi, e_b, psi) = phi^T K_b psi."""
    return np.array(_TRI_SLICES[b])
