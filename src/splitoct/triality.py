"""Vector/spinor equivalence machinery: the spinor basis change, the pinned
evaluation convention, octonionic representations, the matrix<->octonion
correspondence and the two trilinear forms.

Which quadratic-form evaluation diagonalizes the spinor invariant is
pinned by a small exact oracle over the four candidates.  The dictionary
between the two trilinear forms is the identity of the component order
(octonion coefficient k <-> component k, scale 1); it is not searched for
but verified exactly on all 512 basis triples, and on random integer
triples by dictionary_random_check.  Both checks run on the sparse exact
data of ``clifford`` and the unit table of ``octonion``.  The first-order
tables of the L_01 and L_04 actions and of the role-swap rotor are
compared, entry by entry and with ==, against the exact generators of
``cl.plane_generator``.  numpy is imported only by the sampled sweeps and
the dense views.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from . import clifford as cl
from . import octonion as oc
from .exact import exact_float64, sample_integers
from .report import VerificationReport

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
    """-conj(Phi) . (X Psi) with the octonion inner product."""
    return -oc.inner(phi_o.conj(), oc.mul(x_o, psi_o))


BLOCK = 64          # samples per stacked evaluation in the batched suites

def _blocks(n: int):
    """(start, size) of the consecutive blocks of at most BLOCK samples."""
    return ((start, min(BLOCK, n - start)) for start in range(0, n, BLOCK))


def correspondence_check(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """conj(X)X == X^2 scalar, conj(Phi)Phi == phi^T B phi, conj(Psi)Psi ==
    psi^T B psi on matched integer components, exactly.

    Runs as stacked float64 products, exact by exact_float64, one block of
    samples at a time: conj(v)v through the octonion structure tensor, X^2
    on the Gamma stack and the spinor forms through the exact 2x
    quadratic-form matrix.
    """
    import numpy as np
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rep = VerificationReport("correspondence",
                             meta={"seed": seed, "samples": n_samples,
                                   "convention": PINNED_CONVENTION.label})
    rng = np.random.default_rng(seed)
    # the largest sum is X^2: 2 x 16 x 8 x 8 products x_a G_a x_b G_b
    c, g_re, g_im, q2, metric = exact_float64(
        oc._c().reshape(8, 64), np.array([cl.gamma(mu).re for mu in range(8)]).reshape(8, 256),
        np.array([cl.gamma(mu).im for mu in range(8)]).reshape(8, 256),
        cl._Q_SPINOR_2.re, cl.METRIC, degree=4, terms=2 * 16 * 8 * 8, sampled=True)
    eye = np.eye(16)
    for start, n in _blocks(n_samples):
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)      # x, phi, psi
        x, phi, psi = v[:, 0], v[:, 1], v[:, 2]
        # (conj(v) v)_c = sum_b v_b (sum_a conj(v)_a C[a,b,c])
        prod = (v[..., None, :] @ ((v * oc._CONJ_SIGNS) @ c).reshape(n, 3, 8, 8))[..., 0, :]
        scalar_only = ~prod[..., 1:].any(axis=2)
        q = (x * x) @ metric
        x_re = (x @ g_re).reshape(n, 16, 16)
        x_im = (x @ g_im).reshape(n, 16, 16)
        sq_re = x_re @ x_re - x_im @ x_im
        sq_im = x_re @ x_im + x_im @ x_re
        mat_ok = ~sq_im.any(axis=(1, 2)) & (sq_re == q[:, None, None] * eye).all(axis=(1, 2))
        vec_ok = scalar_only[:, 0] & (prod[:, 0, 0] == q) & mat_ok
        inv2_phi = ((phi @ q2[0:8, 0:8]) * phi).sum(axis=1)
        inv2_psi = ((psi @ q2[8:16, 8:16]) * psi).sum(axis=1)
        spin_ok = (scalar_only[:, 1] & scalar_only[:, 2]
                   & (inv2_phi == 2 * prod[:, 1, 0]) & (inv2_psi == 2 * prod[:, 2, 0]))
        rep.record_mask(np.stack([vec_ok, spin_ok], axis=1),
                        lambda k, j, start=start: f"{('vector', 'spinor')[j]} sample {start + k}")
    return rep


# ---------------------------------------------------------------------------
# trilinear equivalence oracle
# ---------------------------------------------------------------------------

class OracleError(RuntimeError):
    """The dictionary does not carry one trilinear form onto the other."""


_IDENTITY = tuple((k, 1) for k in range(8))


class CorrespondenceMap(namedtuple("CorrespondenceMap",
                                   "phi_map x_map psi_map scale max_residual",
                                   defaults=(0,))):
    """Component dictionary under which the two trilinear forms agree:

    F_matrix(phi, x, psi) = scale * s1(a) s2(b) s3(c) F_oct on basis triples
    with slot maps a -> perm[a] (each map 8 pairs (index, sign)), scale a
    Fraction.
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
    d = CorrespondenceMap(_IDENTITY, _IDENTITY, _IDENTITY, Fraction(1))
    _verify_dictionary(_matrix_trilinear_entries(), _oct_trilinear_entries(), d)
    return d


def _verify_dictionary(t1, t2, d: CorrespondenceMap):
    """t1[a,b,c] == scale s1(a) s2(b) s3(c) t2[perm a, perm b, perm c] on all
    512 basis triples, compared as q t1 == p (signed t2) for scale p/q in
    Python ints; raises naming the first failing triple in C order."""
    p, q = d.scale.numerator, d.scale.denominator
    for a, (a2, s1) in enumerate(d.phi_map):
        for b, (b2, s2) in enumerate(d.x_map):
            for c, (c2, s3) in enumerate(d.psi_map):
                if q * int(t1[a, b, c]) != p * s1 * s2 * s3 * int(t2[a2, b2, c2]):
                    raise OracleError(f"dictionary fails at basis triple ({a},{b},{c})")


_ORACLE_CACHE = None


def equivalence_map() -> CorrespondenceMap:
    global _ORACLE_CACHE
    if _ORACLE_CACHE is None:
        _ORACLE_CACHE = trilinear_equivalence_oracle()
    return _ORACLE_CACHE


def _mapped(values, slot_map) -> oc.SplitOctonion:
    """The octonion with coefficient idx = sign * values[k] for each
    slot_map[k] = (idx, sign)."""
    out = [0] * 8
    for v, (idx, sign) in zip(values, slot_map):
        out[idx] = sign * v
    return oc.SplitOctonion(out)


def trilinear_both(phi, x, psi):
    """Evaluate the matrix form and the dictionary-mapped octonion form.

    phi and psi are read as trilinear_matrix reads them (8 components, or 16
    with the wrong-chirality block zero), once, and both forms get the same
    eight values of phi, x and psi: as Python ints when every component of
    the three is integral (so numpy integers cannot wrap on the octonion
    side), else as given.
    """
    d = equivalence_map()
    phi, psi = cl._chiral_8(phi, "phi"), cl._chiral_8(psi, "psi")
    x = cl._flat(x, (8,), "vector needs 8 components")
    ints = cl._as_ints(phi), cl._as_ints(x), cl._as_ints(psi)
    if None not in ints:
        phi, x, psi = ints
    mat_val = cl._trilinear(phi, x, psi)
    oct_val = trilinear_oct(_mapped(phi, d.phi_map), _mapped(x, d.x_map),
                            _mapped(psi, d.psi_map))
    return mat_val, oct_val if d.scale == 1 else d.scale * oct_val


# ---------------------------------------------------------------------------
# generator tables: the first-order coefficients of the L_01 rotation, the
# L_04 boost and the composite role-swap rotor on (x, phi, psi), as
# (output, input, coefficient) entries, checked entry by entry with == against
# the exact generators of cl.plane_generator
# ---------------------------------------------------------------------------

def gen_matrix(entries):
    """The dense 8x8 float64 matrix of a generator table; repeated entries add."""
    import numpy as np
    m = np.zeros((8, 8))
    for out_i, in_j, coeff in entries:
        m[out_i, in_j] += coeff
    return m


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

# composite role-swap rotor L10 L23 L54 L67 at half angle
COMPOSITE_X = ((0, 1, 0.5), (1, 0, -0.5), (2, 3, -0.5), (3, 2, 0.5),
               (4, 5, -0.5), (5, 4, 0.5), (6, 7, 0.5), (7, 6, -0.5))
COMPOSITE_PHI = ((0, 1, 0.5), (1, 0, -0.5), (2, 3, 0.5), (3, 2, -0.5),
                 (4, 5, 0.5), (5, 4, -0.5), (6, 7, -0.5), (7, 6, 0.5))
COMPOSITE_PSI = ((0, 1, -1.0), (1, 0, 1.0))

ROLE_SWAP_PLANES = ((1, 0), (2, 3), (5, 4), (6, 7))


def _check_generators(rep, tables, generators) -> None:
    """The x, phi and psi tables against the exact generators, one case per
    entry of each dense table, in C order, compared with ==; a failing
    entry names its position and both values."""
    for name, entries, gen in zip(("x", "phi", "psi"), tables, generators):
        table = gen_matrix(entries)
        for i, j in itertools.product(range(8), repeat=2):
            t, g = float(table[i, j]), gen[i][j]
            rep.record_case(t == g, f"{name}[{i},{j}] table {t} generator {g}")


def infinitesimal_table_check(plane: str = "01") -> VerificationReport:
    """The L_01 or L_04 tables on (x, phi, psi) against the exact generator
    of the plane."""
    if plane == "01":
        mu, nu = 0, 1
        tables = (L01_X, L01_PHI, L01_PSI)
    elif plane == "04":
        mu, nu = 0, 4
        tables = (L04_X, L04_PHI, L04_PSI)
    else:
        raise ValueError("plane must be '01' or '04'")
    rep = VerificationReport(f"infinitesimal-L{mu}{nu}")
    _check_generators(rep, tables, cl.plane_generator(mu, nu))
    return rep


def boost_table_check(theta: float = 0.5) -> VerificationReport:
    """The L_04 hyperbolic table, a finite-angle boost of x, and the
    isotropic planes the spinor halves move in."""
    import numpy as np
    rep = infinitesimal_table_check("04")
    rep.name = "boost-table"
    rep.exact = False
    # finite-angle hyperbolic check on the x side
    x = np.zeros(8)
    x[0] = 1.0
    moved = cl.rotate_vector(x, cl.rotor(0, 4, theta))
    want = np.zeros(8)
    want[0] = math.cosh(theta)
    want[4] = math.sinh(theta)
    resid = float(np.max(np.abs(moved - want)))
    rep.record_case(resid <= 1e-12, f"x0 boost at theta={theta}", residual=resid)
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
    gens = [cl.plane_generator(mu, nu) for mu, nu in ROLE_SWAP_PLANES]
    half_sum = [[[sum(g[part][i][j] for g in gens) / 2 for j in range(8)] for i in range(8)]
                for part in range(3)]
    rep = VerificationReport("role-swap")
    _check_generators(rep, (COMPOSITE_X, COMPOSITE_PHI, COMPOSITE_PSI), half_sum)
    return rep


# ---------------------------------------------------------------------------
# composite verification suites used by the CLI
# ---------------------------------------------------------------------------

def _draw_rotors(rng, shape, bound: float):
    """Planes and angles of a block of rotors, one generator call each: mu
    uniform on 0..7, nu uniform on the seven others (mu plus an offset of 1
    to 7, mod 8) and theta uniform on [-bound, bound), as arrays of
    ``shape``."""
    mu = rng.integers(0, 8, shape)
    nu = (mu + 1 + rng.integers(0, 7, shape)) % 8
    return mu, nu, rng.uniform(-bound, bound, shape)


def _half_angles(mu, nu, theta):
    """cl.half_angle of each rotor of the flat arrays mu, nu, theta, called
    on Python floats, as a (rotors, 2) array."""
    import numpy as np
    g = cl.METRIC
    return np.array([cl.half_angle(g[m] * g[n] > 0, t)
                     for m, n, t in zip(mu.tolist(), nu.tolist(), theta.tolist())])


def _spinor_generators():
    """The bivector action of every plane on real spinor components as a
    dense 16x16 matrix, stacked at index 8 mu + nu."""
    import numpy as np
    out = np.zeros((64, 16, 16))
    for mu, nu in itertools.permutations(range(8), 2):
        cols, signs = zip(*cl._bivector_action(mu, nu))
        out[8 * mu + nu, range(16), cols] = signs
    return out


def _turn_vectors(x, rows, mu, nu, c, s) -> None:
    """Row rows[k] of the vector stack x by the rotor of plane (mu[k], nu[k])
    with half-angle pair (c[k], s[k]), in place; as cl.rotate_vector."""
    import numpy as np
    g = np.array(cl.METRIC, dtype=np.float64)
    x[rows, mu], x[rows, nu] = cl.turn_pair(x[rows, mu], x[rows, nu], g[mu], g[nu], c, s)


def _turn_spinors(eta, rows, gens, mu, nu, c, s) -> None:
    """The same rotors on the spinor stack eta (samples, spinors, 16), in
    place; as cl.rotate_spinor."""
    import numpy as np
    e = eta[rows]
    moved = np.einsum("kij,kaj->kai", gens[8 * mu + nu], e)
    eta[rows] = c[:, None, None] * e - s[:, None, None] * moved


def _sumsq(v):
    """Squared Euclidean norm of each row."""
    import numpy as np
    return np.einsum("ki,ki->k", v, v)


def _drift(before, after, size_before, size_after):
    """|before - after| relative to the Euclidean size of the data (at least 1)."""
    import numpy as np
    return np.abs(before - after) / np.maximum(np.maximum(size_before, size_after), 1.0)


def _vector_forms(x):
    """cl.quadratic_form of each row."""
    import numpy as np
    return np.einsum("ki,ki->k", x[:, :4] - x[:, 4:], x[:, :4] + x[:, 4:])


def _spinor_forms(eta):
    """The float evaluation of cl.spinor_invariant on each row."""
    import numpy as np
    q = cl._Q_SPINOR_2.re / 2.0
    return (np.einsum("ki,ij,kj->k", eta[:, 0:8], q[0:8, 0:8], eta[:, 0:8])
            + np.einsum("ki,ij,kj->k", eta[:, 8:16], q[8:16, 8:16], eta[:, 8:16]))


def rotor_invariance_check(n_rotors: int = 1000, seed: int = DEFAULT_SEED,
                           tol: float = 1e-12) -> VerificationReport:
    """Vector quadratic form and spinor invariant preserved under random
    rotors with |theta| <= 3 on compact and boost planes.

    The residual of a sample is the change of its invariant over the
    squared Euclidean norm of the data, before or after, at least 1.
    Samples are drawn and acted on in blocks of BLOCK: each block draws its
    planes, then its angles, then all its components, one generator call
    each (_draw_rotors, then an (n, 24) integer draw).
    """
    import numpy as np
    rep = VerificationReport("rotor-invariance", exact=False,
                             meta={"seed": seed, "samples": n_rotors, "tolerance": tol})
    rng = np.random.default_rng(seed)
    gens = _spinor_generators()
    for start, n in _blocks(n_rotors):
        mu, nu, theta = _draw_rotors(rng, n, 3)
        v = sample_integers(rng, (n, 24)).astype(np.float64)     # x, then eta
        half = _half_angles(mu, nu, theta)
        x, eta = v[:, :8], v[:, None, 8:]
        rows = np.arange(n)
        x1 = x.copy()
        _turn_vectors(x1, rows, mu, nu, *half.T)
        eta1 = eta.copy()
        _turn_spinors(eta1, rows, gens, mu, nu, *half.T)
        eta, eta1 = eta[:, 0], eta1[:, 0]
        resid = np.stack([
            _drift(_vector_forms(x), _vector_forms(x1), _sumsq(x), _sumsq(x1)),
            _drift(_spinor_forms(eta), _spinor_forms(eta1), _sumsq(eta), _sumsq(eta1)),
        ], axis=1)

        def label(k, j, start=start, mu=mu, nu=nu):
            return f"{('vector', 'spinor')[j]} rotor {start + k} plane ({mu[k]},{nu[k]})"
        rep.record_mask(resid <= tol, label, residual=resid)
    return rep


def _trilinear_forms(phi, x, psi):
    """cl.trilinear_matrix of each row triple, in float."""
    import numpy as np
    slices = np.array([cl.trilinear_slice(b) for b in range(8)], dtype=np.float64)
    return np.einsum("kb,ki,bij,kj->k", x, phi, slices, psi)


def trilinear_invariance_check(n_samples: int = 200, seed: int = DEFAULT_SEED,
                               tol: float = 1e-12) -> VerificationReport:
    """The matrix trilinear form under simultaneous rotor words on
    (phi, x, psi).

    The residual of a sample is the change of the form over the product of
    the three Euclidean norms, before or after, at least 1.  Words act
    right to left, the last rotor first, on stacks of BLOCK samples.  Each
    block draws its word lengths, then the planes and angles of all 8 word
    slots of every sample (_draw_rotors), then all its components, one
    generator call each; half angles are formed for the used slots only.
    """
    import numpy as np
    rep = VerificationReport("trilinear-invariance", exact=False,
                             meta={"seed": seed, "samples": n_samples, "tolerance": tol})
    rng = np.random.default_rng(seed)
    gens = _spinor_generators()
    for start, n in _blocks(n_samples):
        lengths = rng.integers(1, 9, n)
        mu, nu, theta = _draw_rotors(rng, (n, 8), 2)
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)   # phi, x, psi
        used = np.arange(8) < lengths[:, None]
        half = np.zeros((n, 8, 2))
        half[used] = _half_angles(mu[used], nu[used], theta[used])
        phi, x, psi = v[:, 0], v[:, 1], v[:, 2]
        x1 = x.copy()
        eta = np.zeros((n, 2, 16))
        eta[:, 0, 0:8] = phi
        eta[:, 1, 8:16] = psi
        for step in range(8):
            rows = np.flatnonzero(lengths > step)
            j = lengths[rows] - 1 - step
            word = (mu[rows, j], nu[rows, j], *half[rows, j].T)
            _turn_vectors(x1, rows, *word)
            _turn_spinors(eta, rows, gens, *word)
        phi1, psi1 = eta[:, 0, 0:8], eta[:, 1, 8:16]
        size = np.sqrt(_sumsq(phi) * _sumsq(x) * _sumsq(psi))
        size1 = np.sqrt(_sumsq(phi1) * _sumsq(x1) * _sumsq(psi1))
        resid = _drift(_trilinear_forms(phi, x, psi), _trilinear_forms(phi1, x1, psi1),
                       size, size1)
        def label(k, start=start, lengths=lengths):
            return f"word {start + k} length {lengths[k]}"
        rep.record_mask(resid <= tol, label, residual=resid)
    return rep


def dictionary_random_check(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Oracle dictionary applied to random integer triples: residual must be
    exactly zero in rational arithmetic.

    Runs on float64 stacks, exact by exact_float64, one block of samples at
    a time, as trilinear_both does per sample: the matrix form through the
    trilinear slices, the dictionary as index and sign arrays, and
    -inner(conj(Phi), X Psi) through the octonion structure tensor.  With
    scale = p/q the two sides agree when 2 q F_matrix == p (2 F_oct).
    """
    import numpy as np
    rep = VerificationReport("trilinear-dictionary",
                             meta={"seed": seed, "samples": n_samples})
    d = equivalence_map()
    maps = [np.array(m, dtype=np.int64).T for m in (d.phi_map, d.x_map, d.psi_map)]
    p, q = d.scale.numerator, d.scale.denominator
    # the largest sum is p (2 F_oct): p x 8^4 products phi_a M[a,j] x_b psi_c C[b,c,j]
    slices, c, inner2 = exact_float64(
        np.array([cl.trilinear_slice(b) for b in range(8)]).transpose(1, 0, 2).reshape(8, 64),
        oc._c().reshape(8, 64),
        _conj_inner2(), degree=5, terms=2 * max(abs(p), q) * 8 ** 4, sampled=True)
    rng = np.random.default_rng(seed)
    for start, n in _blocks(n_samples):
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)      # phi, x, psi
        phi, x, psi = v[:, 0], v[:, 1], v[:, 2]
        # F_matrix = sum_b x_b (phi K_b psi), with K_b[i, j] at [i, (b, j)]
        mat = ((phi @ slices).reshape(n, 8, 8) @ psi[:, :, None])[:, :, 0]
        mat = (mat * x).sum(axis=1)
        o = np.zeros_like(v)
        for slot, (index, sign) in enumerate(maps):
            o[:, slot, index] = sign * v[:, slot]
        # (X Psi)_c = sum_b psi_b (sum_a x_a C[a,b,c])
        xpsi = (o[:, 2, None, :] @ (o[:, 1] @ c).reshape(n, 8, 8))[:, 0]
        oct2 = -((o[:, 0] @ inner2) * xpsi).sum(axis=1)        # 2 F_oct
        ok = 2 * q * mat == p * oct2
        rep.record_mask(ok, lambda k, start=start: f"triple {start + k}")
    rep.meta["dictionary"] = d.to_json()
    return rep


def double_cover_check(tol: float = 1e-12) -> VerificationReport:
    """Compact rotors at 2pi negate spinors and fix vectors; 4pi fixes both."""
    import numpy as np
    rep = VerificationReport("double-cover", exact=False, meta={"tolerance": tol})
    rng = np.random.default_rng(DEFAULT_SEED)
    compact_planes = [(mu, nu) for mu in range(8) for nu in range(8)
                      if mu != nu and cl.METRIC[mu] * cl.METRIC[nu] > 0]
    for mu, nu in compact_planes:
        x = sample_integers(rng, 8).astype(np.float64)
        eta = sample_integers(rng, 16).astype(np.float64)
        r2 = cl.rotor(mu, nu, 2 * math.pi)
        r4 = cl.rotor(mu, nu, 4 * math.pi)
        rv = float(np.max(np.abs(cl.rotate_vector(x, r2) - x)))
        rs = float(np.max(np.abs(cl.rotate_spinor(eta, r2) + eta)))
        rv4 = float(np.max(np.abs(cl.rotate_vector(x, r4) - x)))
        rs4 = float(np.max(np.abs(cl.rotate_spinor(eta, r4) - eta)))
        size_x = max(1.0, float(np.max(np.abs(x))))
        size_eta = max(1.0, float(np.max(np.abs(eta))))
        for tag, resid, size in (("vector 2pi", rv, size_x), ("spinor 2pi", rs, size_eta),
                                 ("vector 4pi", rv4, size_x), ("spinor 4pi", rs4, size_eta)):
            rep.record_case(resid <= tol * size, f"plane ({mu},{nu}) {tag}", residual=resid)
    return rep
