"""Independent models the tests check the shipped kernels against.

Nothing in the package computes a verdict with these: it uses the
closed-form rotors, the sparse Gaussian-integer rows and the octonion
kernels.  Here are the 16x16 conjugation X' = L X L^{-1}, dense views of
the exact data, and rotor words applied one kernel call at a time.  They
read the package's data as module attributes at call time, so a test that
monkeypatches ``cl._GAMMA`` or the unit table is seen here too.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from splitoct import clifford as cl
from splitoct import octonion as oc
from splitoct import units


def to_complex(g: cl.GMat):
    """A GMat as a dense complex128 array."""
    out = np.zeros((len(g.rows), g.ncols), dtype=np.complex128)
    for r, c, vr, vi in g.entries():
        out[r, c] = complex(vr, vi)
    return out


def gamma_c() -> list:
    """The Gamma_mu as complex128."""
    return [to_complex(g) for g in cl._GAMMA]


class NotGrade1Error(ValueError):
    """Matrix is not in the span of the grade-1 generators."""


def trace(g: cl.GMat):
    """(re, im) of the trace of a GMat."""
    diag = [(vr, vi) for r, c, vr, vi in g.entries() if r == c]
    return sum(vr for vr, _ in diag), sum(vi for _, vi in diag)


# ---------------------------------------------------------------------------
# the 16x16 route
# ---------------------------------------------------------------------------

def vector_to_matrix(x):
    """X = sum_mu x_mu Gamma_mu as complex128."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (8,):
        raise ValueError("vector needs 8 components")
    out = np.zeros((16, 16), dtype=np.complex128)
    for mu, g in enumerate(gamma_c()):
        if x[mu]:
            out += x[mu] * g
    return out


def vector_to_matrix_exact(x) -> cl.GMat:
    """Same linear combination on integer components, exact."""
    out = cl.GMat.zeros(16)
    for mu in range(8):
        k = int(x[mu])
        if k != x[mu]:
            raise ValueError("exact mode needs integer components")
        if k:
            out = out + cl._GAMMA[mu].scale(k)
    return out


def matrix_to_vector(X, tol: float = 1e-10):
    """Recover x_mu by the trace pairing x_mu = g_mumu tr(Gamma_mu X)/16.

    Raises NotGrade1Error when the residual X - sum x_mu Gamma_mu exceeds
    the tolerance (exactly nonzero, for a GMat).
    """
    if isinstance(X, cl.GMat):
        coeffs = []
        for mu in range(8):
            tr_re, tr_im = trace(cl._GAMMA[mu] @ X)
            if tr_im:
                raise NotGrade1Error("trace pairing is not real")
            coeffs.append(Fraction(cl.METRIC[mu] * tr_re, 16))
        recon = cl.GMat.zeros(16)
        scaled = [c * 16 for c in coeffs]
        if any(s.denominator != 1 for s in scaled):
            raise NotGrade1Error("non-integral trace pairing")
        for mu in range(8):
            recon = recon + cl._GAMMA[mu].scale(int(scaled[mu]))
        if any((X.scale(16) - recon).rows):
            raise NotGrade1Error("matrix has components outside grade 1")
        return tuple(coeffs)
    Xc = np.asarray(X, dtype=np.complex128)
    x = np.empty(8)
    for mu, g in enumerate(gamma_c()):
        c = cl.METRIC[mu] * np.trace(g @ Xc) / 16
        if abs(c.imag) > tol:
            raise NotGrade1Error("trace pairing is not real")
        x[mu] = c.real
    resid = Xc - vector_to_matrix(x)
    if np.max(np.abs(resid)) > tol:
        raise NotGrade1Error(f"grade-1 residual {np.max(np.abs(resid)):.3e} exceeds {tol}")
    return x


def rotor_matrix(r: cl.Rotor):
    """L = c - s Gamma_mu Gamma_nu as complex128, (c, s) the half-angle pair."""
    c, s = cl.half_angle(r.compact, r.theta)
    return (c * np.eye(16, dtype=np.complex128)
            - s * (to_complex(cl._GAMMA[r.mu]) @ to_complex(cl._GAMMA[r.nu])))


def rotor_inverse(r: cl.Rotor) -> cl.Rotor:
    """L^{-1}: the same angle in the swapped plane."""
    return cl.Rotor(r.nu, r.mu, r.theta)


# ---------------------------------------------------------------------------
# dense views
# ---------------------------------------------------------------------------

def embed_phi(phi):
    out = np.zeros(16)
    out[0:8] = phi
    return out


def embed_psi(psi):
    out = np.zeros(16)
    out[8:16] = psi
    return out


def xi_basis_change(eta):
    """(1/sqrt2) M eta as complex128, with M the exact cl.XI_M."""
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (16,):
        raise ValueError("spinor needs 16 components")
    return (to_complex(cl.XI_M) @ eta) / math.sqrt(2.0)


def spinor_quadratic_split(phi, psi):
    """The diagonal split forms the pinned convention produces."""
    phi = np.asarray(phi, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    f = float(np.sum(phi[:4] ** 2) - np.sum(phi[4:] ** 2))
    g = float(np.sum(psi[:4] ** 2) - np.sum(psi[4:] ** 2))
    return f, g


def dense(entries):
    """The (a, b, c, value) entries of an 8x8x8 tensor as an int64 array."""
    out = np.zeros((8, 8, 8), dtype=np.int64)
    for a, b, c, v in entries:
        out[a, b, c] = v
    return out


def matrix_trilinear_tensor():
    """T1[a,b,c] = F_matrix(e_a, e_b, e_c), read off the matrix form's term
    table (int64 array)."""
    return dense(cl._TRILINEAR_TERMS)


def oct_trilinear_tensor():
    """T2[a,b,c] = -conj(e_a) . (e_b e_c), read off the octonion form's term
    table (int64 array)."""
    return dense(oc._TRILINEAR_TERMS)


# ---------------------------------------------------------------------------
# rotor words
# ---------------------------------------------------------------------------

class RotorWord:
    """An ordered product of rotors acting on vectors and spinors."""

    def __init__(self, rotors: tuple):
        self.rotors = rotors

    def act_vector(self, x):
        for r in reversed(self.rotors):
            x = cl.rotate_vector(x, r)
        return x

    def act_spinor(self, eta):
        for r in reversed(self.rotors):
            eta = cl.rotate_spinor(eta, r)
        return eta


def table_matrix(entries):
    """The dense 8x8 float64 matrix of a generator table of (output, input,
    coefficient) entries; repeated entries add."""
    m = np.zeros((8, 8))
    for i, j, coeff in entries:
        m[i, j] += coeff
    return m


def triality_rotor(theta: float) -> RotorWord:
    """L_10(t/2) L_23(t/2) L_54(t/2) L_67(t/2): swaps the roles of the
    vector and the right-chirality spinor."""
    h = theta / 2.0
    return RotorWord(tuple(cl.rotor(mu, nu, h) for mu, nu in units.ROLE_SWAP_PLANES))
