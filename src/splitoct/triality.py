"""Vector/spinor equivalence machinery: the spinor basis change, the pinned
evaluation convention, octonionic representations and the two trilinear
forms.

Which quadratic-form evaluation diagonalizes the spinor invariant is
pinned by a small exact oracle over the four candidates.  The dictionary
between the two trilinear forms is the identity of the component order
(octonion coefficient k <-> component k, scale 1) by construction: both
forms take the same components, and the dictionary is not applied but
verified, exactly, on all 512 basis triples before first use, on the
sparse exact data of ``clifford`` and the unit table of ``octonion``.  The
octonionic form is the function compiled from the unit table
(``octonion._INT_TRILINEAR``) on Python ints, and its definition
-inner(conj(Phi), mul(X, Psi)) on anything else.

The sampled and table suites (correspondence_check, dictionary_random_check,
the generator-table checks, the rotor, trilinear and double-cover checks)
live in ``sweeps``; each name here is made by ``octonion._sweep``.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from . import clifford as cl
from . import octonion as oc

DEFAULT_SEED = 12345


# ---------------------------------------------------------------------------
# spinor basis change
# ---------------------------------------------------------------------------

class XiConvention(namedtuple("XiConvention", "pairing b_form")):
    """Which evaluation of the spinor invariant diagonalizes it: pairing
    "transpose" or "dagger", b_form "original" or "conjugated"."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"xi^{'T' if self.pairing == 'transpose' else 'dagger'} B[{self.b_form}] xi"


def _candidate_forms():
    """The four candidate evaluations as exact 16x16 quadratic forms on the
    real components (each scaled by 2 to stay integral)."""
    M = cl.XI_M
    B = cl.b_matrix()
    # B conjugated by T = M/sqrt2: T B T^{-1} = M B M^dagger / 2
    out = {}
    out[("transpose", "original")] = M.T @ B @ M                      # 2*form
    out[("dagger", "original")] = M.conj_t() @ B @ M
    mbmd = M @ B @ M.conj_t()
    out[("transpose", "conjugated")] = M.T @ mbmd @ M                 # 4*form
    out[("dagger", "conjugated")] = M.conj_t() @ mbmd @ M
    return out


def pin_xi_convention() -> XiConvention:
    """Try the four candidate conventions; return the one whose quadratic
    form is exactly the split diagonal form.  Raises if none (or more than
    one) matches."""
    split = cl.GMat.from_entries(16, ((k, k, cl.METRIC[k % 8], 0) for k in range(16)))
    hits = []
    for (pairing, b_form), mat in _candidate_forms().items():
        scale = 2 if b_form == "original" else 4
        if mat + mat.T == split.scale(2 * scale):
            hits.append(XiConvention(pairing, b_form))
    if len(hits) != 1:
        raise RuntimeError(f"expected exactly one diagonalizing convention, got {len(hits)}")
    return hits[0]


PINNED_CONVENTION = pin_xi_convention()


# ---------------------------------------------------------------------------
# octonionic representations
# ---------------------------------------------------------------------------

def oct_from_components(c) -> oc.SplitOctonion:
    """Canonical-order coefficient load (1, j1, j2, j3, I, J1, J2, J3)."""
    c = list(c)
    if len(c) != 8:
        raise ValueError("need 8 components")
    return oc.SplitOctonion(c)


def trilinear_oct(phi_o: oc.SplitOctonion, x_o: oc.SplitOctonion,
                  psi_o: oc.SplitOctonion):
    """-conj(Phi) . (X Psi) with the octonion inner product: the int form
    compiled from the unit table when every coefficient is a Python int,
    else the definition -oc.inner(conj(Phi), oc.mul(X, Psi))."""
    value = oc._INT_TRILINEAR(phi_o.c, x_o.c, psi_o.c)
    if value is None:
        value = -oc.inner(phi_o.conj(), oc.mul(x_o, psi_o))
    return value


# ---------------------------------------------------------------------------
# trilinear equivalence oracle
# ---------------------------------------------------------------------------

class OracleError(RuntimeError):
    """The dictionary does not carry one trilinear form onto the other."""


_IDENTITY = tuple((k, 1) for k in range(8))


class CorrespondenceMap(namedtuple("CorrespondenceMap",
                                   "phi_map x_map psi_map scale max_residual",
                                   defaults=(0,))):
    """The record of the component dictionary between the two trilinear
    forms, as ``--format json`` emits it: per slot, 8 pairs (index, sign)
    taking component k to octonion coefficient index, and a Fraction scale.
    The oracle builds it as the identity with scale 1.
    """

    __slots__ = ()

    def is_identity(self) -> bool:
        return (self.phi_map == self.x_map == self.psi_map == _IDENTITY
                and self.scale == 1)

    def to_json(self) -> dict:
        enc = lambda m: [{"index": i, "sign": s} for i, s in m]
        return {"phi": enc(self.phi_map), "x": enc(self.x_map),
                "psi": enc(self.psi_map),
                "scale": str(self.scale), "max_residual": self.max_residual}


class _Tensor(dict):
    """A sparse 8x8x8 integer tensor: t[a, b, c] is 0 where nothing is set."""

    def __missing__(self, key):
        return 0


def _matrix_trilinear_entries() -> _Tensor:
    """F_matrix(e_a, e_b, e_c) = K_b[a, c], read off the trilinear slices."""
    return _Tensor({(i, b, j): k for b, i, j, k in cl._TRILINEAR_TERMS})


def _conj_inner2() -> list:
    """M[a][j] = 2 inner(conj(e_a), e_j) = (e_a e_j)_0 + (conj(e_j) conj(e_a))_0."""
    def scalar(a, b):
        k, sign = oc._TABLE[a][b]
        return sign if k == 0 else 0
    signs = oc._CONJ_SIGNS
    return [[scalar(a, j) + signs[a] * signs[j] * scalar(j, a) for j in range(8)]
            for a in range(8)]


def _oct_trilinear_entries() -> _Tensor:
    """-conj(e_a) . (e_b e_c): with e_b e_c = sign e_k, -sign M[a][k] / 2."""
    m = _conj_inner2()
    t = _Tensor()
    for b, row in enumerate(oc._TABLE):
        for c, (k, sign) in enumerate(row):
            for a in range(8):
                if m[a][k]:
                    t[a, b, c] = -sign * m[a][k] // 2
    return t


def trilinear_equivalence_oracle() -> CorrespondenceMap:
    """The dictionary of the pinned component order: octonion coefficient k
    <-> component k in every slot, scale 1.  Verified exactly on all 512
    basis triples before it is returned; raises OracleError naming the
    first failing triple otherwise."""
    _verify_dictionary(_matrix_trilinear_entries(), _oct_trilinear_entries())
    return CorrespondenceMap(_IDENTITY, _IDENTITY, _IDENTITY, Fraction(1))


def _verify_dictionary(t1, t2):
    """t1[a,b,c] == t2[a,b,c] on all 512 basis triples, the identity
    dictionary with scale 1; raises naming the first failing triple in C
    order."""
    for a, b, c in itertools.product(range(8), repeat=3):
        if t1[a, b, c] != t2[a, b, c]:
            raise OracleError(f"dictionary fails at basis triple ({a},{b},{c})")


_ORACLE_CACHE = None


def equivalence_map() -> CorrespondenceMap:
    global _ORACLE_CACHE
    if _ORACLE_CACHE is None:
        _ORACLE_CACHE = trilinear_equivalence_oracle()
    return _ORACLE_CACHE


def trilinear_both(phi, x, psi):
    """Evaluate the matrix form and the octonion form under the identity
    dictionary, which equivalence_map() verifies before first use.

    Three lists of 8 Python ints go straight to the int forms, which check
    their own input.  Otherwise phi and psi are read as trilinear_matrix
    reads them (8 components, or 16 with the wrong-chirality block zero),
    once, and both forms get the same eight values of phi, x and psi.  When
    every component of the three is integral, they are Python ints and both
    forms run their int versions; else the values go as given to the
    matrix form's float evaluation and to trilinear_oct, whose octonions
    hold numpy integers as Python ints.
    """
    equivalence_map()
    if (type(phi) is list and type(x) is list and type(psi) is list
            and len(phi) == len(x) == len(psi) == 8):
        mat_val = cl._TRILINEAR(phi, x, psi)
        if mat_val is not None:
            return mat_val, oc._INT_TRILINEAR(phi, x, psi)
    phi, psi = cl._chiral_8(phi, "phi"), cl._chiral_8(psi, "psi")
    x = cl._flat(x, (8,), "vector needs 8 components")
    ints = cl._as_ints(phi), cl._as_ints(x), cl._as_ints(psi)
    if None not in ints:
        return cl._TRILINEAR(*ints), oc._INT_TRILINEAR(*ints)
    return cl._trilinear(phi, x, psi), trilinear_oct(*map(oc.SplitOctonion, (phi, x, psi)))


correspondence_check = oc._sweep("correspondence_check")
dictionary_random_check = oc._sweep("dictionary_random_check")
infinitesimal_table_check = oc._sweep("infinitesimal_table_check")
boost_table_check = oc._sweep("boost_table_check")
role_swap_check = oc._sweep("role_swap_check")
rotor_invariance_check = oc._sweep("rotor_invariance_check")
trilinear_invariance_check = oc._sweep("trilinear_invariance_check")
double_cover_check = oc._sweep("double_cover_check")
