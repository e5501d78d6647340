"""The verification sweeps on numpy: Malcev and the sampled and
double-cover suites of the triality, with the helpers that only they use.
``units`` holds the suites that run on the standard library: the octonion
suites on signed units and the generator tables.  Each fact has one
report: X^2 = q(x) Id is ``clifford``'s; the squares and signs of the unit
table are ``octonion-table``'s.

Only ``sot verify`` and the tests import this module: ``octonion`` and
``triality`` hold each of its six suites as an entry point made by
``octonion._sweep``.  The sweeps reach every object derived from the unit
table, and every kernel, through its module at call time (``oc._TABLE``,
``tr.equivalence_map``, ``cl.rotate_vector``): code that installs another
table with ``oc._forms`` or wraps a kernel is seen here too.

The Malcev sweep contracts the dense structure tensor C[a,b,k] (e_a e_b =
sum_k C[a,b,k] e_k), built from ``oc._TABLE`` at each call of ``_c``.  Each
side of a Malcev identity is one ``np.einsum`` whose subscripts name the
identity's variables: x, y, z, w, u, v are its arguments, sliced to the
hyper-complex units (``H``) at the operand; n and m run over all eight
units inside a product; k is the coefficient.  The random dictionary
check contracts the term tensors of the two trilinear forms, each read off
its term table (``cl._TRILINEAR_TERMS``, ``oc._TRILINEAR_TERMS``, the
tables their int forms are compiled from) in their one slot order (a, b,
c) over (phi, x, psi); only trilinear-invariance stacks the matrix form's
slices at [b, a, c] (``_trilinear_slices``).  The float suites turn their
vector and spinor stacks through ``cl.turn_pair`` and each plane's signed
permutation (``cl._bivector_action``), as ``sot rotate`` turns one vector
or spinor.

A float64 holds every integer below 2**53 exactly, and the sum or product
of two such integers is exact while the result stays below that bound.
So a contraction of integer arrays run through float64 BLAS products, in
any summation order, gives the integer result when every product and
partial sum stays below 2**53.  ``exact_float64`` checks that bound before
it casts.
"""
from __future__ import annotations

import math

import numpy as np

from . import clifford as cl
from . import octonion as oc
from . import triality as tr
from .octonion import UNIT_NAMES
from .report import VerificationReport
from .triality import DEFAULT_SEED


# ---------------------------------------------------------------------------
# exact integer data in float64
# ---------------------------------------------------------------------------

# the sampled suites draw integer components from [-SAMPLE_RANGE, SAMPLE_RANGE]
SAMPLE_RANGE = 9
FLOAT64_EXACT = 2 ** 53


def sample_integers(rng, size):
    """Integer components from [-SAMPLE_RANGE, SAMPLE_RANGE], the range that
    exact_float64(..., sampled=True) counts."""
    return rng.integers(-SAMPLE_RANGE, SAMPLE_RANGE + 1, size=size)


def magnitude(a) -> int:
    """The largest |entry| of an integer array, as a Python int (0 if empty)."""
    a = np.asarray(a)
    if not a.size:
        return 0
    return max(int(a.max()), -int(a.min()))


def exact_float64(*factors, degree: int, terms: int, sampled: bool = False):
    """The integer arrays ``factors`` as float64, for contractions that sum
    at most ``terms`` products of ``degree`` entries each, every entry taken
    from one of the factors (a sum with integer coefficients counts
    |coefficient| terms per product).  With ``sampled``, entries may also
    come from sampled components in [-SAMPLE_RANGE, SAMPLE_RANGE], which the
    caller draws and casts itself.

    Every such product and partial sum is at most terms * m**degree in
    size, m the largest |entry| (at least 1).  Raises OverflowError unless
    that is below 2**53, where each is exact.
    """
    m = max(1, SAMPLE_RANGE if sampled else 0, *(magnitude(f) for f in factors))
    if terms * m ** degree >= FLOAT64_EXACT:
        raise OverflowError(f"{terms} products of {degree} integers up to {m} "
                            f"may reach 2**53; float64 would round them")
    return tuple(np.asarray(f, dtype=np.float64) for f in factors)


def _dense(shape, entries):
    """The int64 array of ``shape`` holding the (*index, value) entries,
    zero elsewhere."""
    out = np.zeros(shape, dtype=np.int64)
    for *index, value in entries:
        out[tuple(index)] = value
    return out


def _c():
    """C[a,b,k] with e_a e_b = sum_k C[a,b,k] e_k, read off oc._TABLE."""
    return _dense((8, 8, 8), ((a, b, k, sign) for a, row in enumerate(oc._TABLE)
                              for b, (k, sign) in enumerate(row)))


def _trilinear_slices():
    """The slices K_b of cl._TRILINEAR_TERMS, stacked at [b, a, c]."""
    return _dense((8, 8, 8), ((b, a, c, k) for a, b, c, k in cl._TRILINEAR_TERMS))


def _q_spinor_2():
    """The exact 2x quadratic-form matrix of the spinor invariant, from
    cl._Q_SPINOR_TERMS."""
    return _dense((16, 16), cl._Q_SPINOR_TERMS)


# ---------------------------------------------------------------------------
# the Malcev sweep
# ---------------------------------------------------------------------------

# the hyper-complex units e_1..e_7 along an argument axis
H = slice(1, None)


def _same(lhs, rhs):
    """Per-case equality over the coefficient axis."""
    return (lhs == rhs).all(axis=-1)


def _malcev_tensors():
    """The commutator algebra on all units as integer tensors, the
    coefficient last: 2[x,y], 4[[x,y],z], 12 J(x,y,z) and 4 D_{x,y}(z)."""
    c = _c()
    b2 = c - np.einsum("yxk->xyk", c)
    bb = np.einsum("xyn,nzk->xyzk", b2, b2)
    j12 = bb + np.einsum("yzxk->xyzk", bb) + np.einsum("zxyk->xyzk", bb)
    return b2, bb, j12, 2 * bb - j12


def verify_malcev() -> VerificationReport:
    """Malcev relation plus the 4- and 5-element Jacobiator identities
    of the commutator algebra, exactly.

    Products inside the sweep are Malcev products [x,y] = (xy-yx)/2; on
    pairwise-anticommuting units these equal the plain products, but the
    identities hold on ALL tuples (repeats included) only for the
    commutator algebra.  The 4- and 5-element identities carry their
    derivation-defect terms:

        J([x,y],z,w) + J([y,z],x,w) + J([z,x],y,w) = 2[J(x,y,z),w]
        J(x,y,[z,w]) = [J(x,y,z),w] + [z,J(x,y,w)] - 2 J([x,y],z,w)
        D(J(z,u,v)) = J(Dz,u,v) + J(z,Du,v) + J(z,u,Dv),
            D = D_{x,y} = 2 ad_[x,y] - 3 J(x,y,.)

    Every term is one contraction of two of the integer tensors 2[,],
    4[[,],], 12 J and 4 D over the components n or m of an inner value,
    with both sides scaled by one common denominator (8 for the Malcev
    relation, 24 for the Jacobiator identities, 48 for the derivation).
    Every side sums at most 32 products of two entries, so exact_float64
    certifies that float64 gives the integer result, in any summation
    order: each contraction runs with optimize=True, as one BLAS product,
    several times faster than einsum's own loop on the 4- and 5-element
    sides.
    """
    rep = VerificationReport("malcev")
    b2, bb, j12, d4 = exact_float64(*_malcev_tensors(), degree=2, terms=32)
    n = UNIT_NAMES[1:]
    # x8: [[x,y],[x,z]] = [[[x,y],z],x] + [[[y,z],x],x] + [[[z,x],x],y]
    malcev = _same(np.einsum("xzn,xynk->xyzk", b2[H, H], bb[H, H], optimize=True),
                   np.einsum("xyzn,nxk->xyzk", bb[H, H, H], b2[:, H], optimize=True)
                   + np.einsum("yzxn,nxk->xyzk", bb[H, H, H], b2[:, H], optimize=True)
                   + np.einsum("zxxn,nyk->xyzk", bb[H, H, H], b2[:, H], optimize=True))
    # x24: J(x,y,[x,z]) = [J(x,y,z),x]
    jxz = _same(np.einsum("xzn,xynk->xyzk", b2[H, H], j12[H, H], optimize=True),
                np.einsum("xyzn,nxk->xyzk", j12[H, H, H], b2[:, H], optimize=True))
    rep.record_mask(np.stack([malcev, jxz], axis=-1), lambda x, y, z, i: (
        ("malcev", "J(x,y,xz)=J(x,y,z)x")[i] + f" ({n[x]},{n[y]},{n[z]})"))

    # x24: both 4-element identities, through J([x,y],z,w) and [J(x,y,z),w]
    jb = np.einsum("xyn,nzwk->xyzwk", b2[H, H], j12[:, H, H], optimize=True)
    bj = np.einsum("xyzn,nwk->xyzwk", j12[H, H, H], b2[:, H], optimize=True)
    cyclic = _same(jb + np.einsum("yzxwk->xyzwk", jb) + np.einsum("zxywk->xyzwk", jb),
                   2 * bj)
    leibniz = _same(np.einsum("zwn,xynk->xyzwk", b2[H, H], j12[H, H], optimize=True),
                    bj + np.einsum("xywn,znk->xyzwk", j12[H, H, H], b2[H], optimize=True)
                    - 2 * jb)
    rep.record_mask(np.stack([cyclic, leibniz], axis=-1), lambda x, y, z, w, i: (
        ("4-elem cyclic", "4-elem leibniz")[i] + f" ({n[x]},{n[y]},{n[z]},{n[w]})"))

    # x48: D(J(z,u,v)) = J(Dz,u,v) + J(z,Du,v) + J(z,u,Dv), one x at a
    # time: all 7^5 tuples at once would hold several MB of intermediates
    derivation = []
    for d in d4[H, H]:                  # 4 D_{x,y}(e_m) at [y, m, k]
        lhs = np.einsum("zuvm,ymk->yzuvk", j12[H, H, H], d, optimize=True)
        rhs = (np.einsum("yzm,muvk->yzuvk", d[:, H], j12[:, H, H], optimize=True)
               + np.einsum("yum,zmvk->yzuvk", d[:, H], j12[H, :, H], optimize=True)
               + np.einsum("yvm,zumk->yzuvk", d[:, H], j12[H, H], optimize=True))
        derivation.append(_same(lhs, rhs))
    rep.record_mask(np.stack(derivation), lambda x, y, z, u, v: (
        f"5-elem ({n[x]},{n[y]},{n[z]},{n[u]},{n[v]})"))
    return rep


# ---------------------------------------------------------------------------
# the quadratic-invariant correspondence
# ---------------------------------------------------------------------------

BLOCK = 64          # samples per stacked evaluation in the batched suites

def _blocks(n: int):
    """(start, size) of the consecutive blocks of at most BLOCK samples;
    ValueError unless there is at least one, as every sampled suite takes
    its samples through here."""
    if n < 1:
        raise ValueError("need at least one sample")
    return ((start, min(BLOCK, n - start)) for start in range(0, n, BLOCK))


def correspondence_check(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """conj(X)X == q(x), conj(Phi)Phi == phi^T B phi, conj(Psi)Psi ==
    psi^T B psi on matched integer components, exactly.

    Runs as stacked float64 products, exact by exact_float64, one block of
    samples at a time: conj(v)v through the octonion structure tensor and
    the spinor forms through the exact 2x quadratic-form matrix.  X^2 =
    q(x) Id is the Clifford relation, which ``clifford`` checks.
    """
    rep = VerificationReport("correspondence",
                             meta={"seed": seed, "samples": n_samples,
                                   "convention": cl.PINNED_CONVENTION.label})
    rng = np.random.default_rng(seed)
    # the largest sum is 2 conj(v)v: 2 x 64 products v_a C[a,b,0] v_b
    c, q2, metric = exact_float64(_c().reshape(8, 64), _q_spinor_2(), cl.METRIC,
                                  degree=3, terms=2 * 64, sampled=True)
    for start, n in _blocks(n_samples):
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)      # x, phi, psi
        x, phi, psi = v[:, 0], v[:, 1], v[:, 2]
        # (conj(v) v)_c = sum_b v_b (sum_a conj(v)_a C[a,b,c])
        prod = (v[..., None, :] @ ((v * oc._CONJ_SIGNS) @ c).reshape(n, 3, 8, 8))[..., 0, :]
        scalar_only = ~prod[..., 1:].any(axis=2)
        vec_ok = scalar_only[:, 0] & (prod[:, 0, 0] == (x * x) @ metric)
        inv2_phi = ((phi @ q2[0:8, 0:8]) * phi).sum(axis=1)
        inv2_psi = ((psi @ q2[8:16, 8:16]) * psi).sum(axis=1)
        spin_ok = (scalar_only[:, 1] & scalar_only[:, 2]
                   & (inv2_phi == 2 * prod[:, 1, 0]) & (inv2_psi == 2 * prod[:, 2, 0]))
        rep.record_mask(np.stack([vec_ok, spin_ok], axis=1),
                        lambda k, j, start=start: f"{('vector', 'spinor')[j]} sample {start + k}")
    return rep


# ---------------------------------------------------------------------------
# sampled invariance suites
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
    g = cl.METRIC
    return np.array([cl.half_angle(g[m] * g[n] > 0, t)
                     for m, n, t in zip(mu.tolist(), nu.tolist(), theta.tolist())])


def _actions():
    """(columns, signs) of cl._bivector_action for every plane, as int64
    arrays at [mu, nu, i]; the planes mu == nu hold zeros."""
    zero = ((0, 0),) * 16
    a = np.array([[cl._bivector_action(mu, nu) if mu != nu else zero for nu in range(8)]
                  for mu in range(8)])
    return a[..., 0], a[..., 1]


def _turn(x, eta, rows, actions, mu, nu, c, s) -> None:
    """Row rows[k] of the vector stack x (n, 8) and of the spinor stack eta
    (n, 16) by the rotor of plane (mu[k], nu[k]) with half-angle pair (c[k],
    s[k]), in place: x through cl.turn_pair, eta through the plane's signed
    permutation as cl._TURN does it, component i becoming c e_i -
    s (g_i e_j_i + 0.0).  Elementwise, so each row rounds as
    rotate_vector_list and rotate_spinor_list round one list."""
    g = np.array(cl.METRIC, dtype=np.float64)
    x[rows, mu], x[rows, nu] = cl.turn_pair(x[rows, mu], x[rows, nu], g[mu], g[nu], c, s)
    columns, signs = actions[0][mu, nu], actions[1][mu, nu]
    e = eta[rows]
    c, s = c[:, None], s[:, None]
    eta[rows] = c * e - s * (signs * np.take_along_axis(e, columns, axis=1) + 0.0)


def _sumsq(v):
    """Squared Euclidean norm of each row."""
    return np.einsum("ki,ki->k", v, v)


def _drift(before, after, size_before, size_after):
    """|before - after| relative to the Euclidean size of the data (at least 1)."""
    return np.abs(before - after) / np.maximum(np.maximum(size_before, size_after), 1.0)


def _vector_forms(x):
    """cl.quadratic_form of each row."""
    return np.einsum("ki,ki->k", x[:, :4] - x[:, 4:], x[:, :4] + x[:, 4:])


def _spinor_forms(q, eta):
    """The float evaluation of cl.spinor_invariant on each row, with q the
    quadratic-form matrix in float64."""
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
    rep = VerificationReport("rotor-invariance", exact=False,
                             meta={"seed": seed, "samples": n_rotors, "tolerance": tol})
    rng = np.random.default_rng(seed)
    actions = _actions()
    q = _q_spinor_2() / 2.0
    for start, n in _blocks(n_rotors):
        mu, nu, theta = _draw_rotors(rng, n, 3)
        v = sample_integers(rng, (n, 24)).astype(np.float64)     # x, then eta
        half = _half_angles(mu, nu, theta)
        x, eta = v[:, :8], v[:, 8:]
        x1, eta1 = x.copy(), eta.copy()
        _turn(x1, eta1, np.arange(n), actions, mu, nu, *half.T)
        resid = np.stack([
            _drift(_vector_forms(x), _vector_forms(x1), _sumsq(x), _sumsq(x1)),
            _drift(_spinor_forms(q, eta), _spinor_forms(q, eta1), _sumsq(eta), _sumsq(eta1)),
        ], axis=1)

        def label(k, j, start=start, mu=mu, nu=nu):
            return f"{('vector', 'spinor')[j]} rotor {start + k} plane ({mu[k]},{nu[k]})"
        rep.record_mask(resid <= tol, label, residual=resid)
    return rep


def _trilinear_forms(slices, phi, x, psi):
    """cl.trilinear_matrix of each row triple, on _trilinear_slices in float64."""
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
    rep = VerificationReport("trilinear-invariance", exact=False,
                             meta={"seed": seed, "samples": n_samples, "tolerance": tol})
    rng = np.random.default_rng(seed)
    actions = _actions()
    slices = _trilinear_slices().astype(np.float64)
    for start, n in _blocks(n_samples):
        lengths = rng.integers(1, 9, n)
        mu, nu, theta = _draw_rotors(rng, (n, 8), 2)
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)   # phi, x, psi
        used = np.arange(8) < lengths[:, None]
        half = np.zeros((n, 8, 2))
        half[used] = _half_angles(mu[used], nu[used], theta[used])
        phi, x, psi = v[:, 0], v[:, 1], v[:, 2]
        # [phi | psi] as one spinor row: no plane mixes the chiral halves
        x1, eta = x.copy(), np.concatenate([phi, psi], axis=1)
        for step in range(8):
            rows = np.flatnonzero(lengths > step)
            j = lengths[rows] - 1 - step
            _turn(x1, eta, rows, actions, mu[rows, j], nu[rows, j], *half[rows, j].T)
        phi1, psi1 = eta[:, 0:8], eta[:, 8:16]
        size = np.sqrt(_sumsq(phi) * _sumsq(x) * _sumsq(psi))
        size1 = np.sqrt(_sumsq(phi1) * _sumsq(x1) * _sumsq(psi1))
        resid = _drift(_trilinear_forms(slices, phi, x, psi),
                       _trilinear_forms(slices, phi1, x1, psi1), size, size1)
        def label(k, start=start, lengths=lengths):
            return f"word {start + k} length {lengths[k]}"
        rep.record_mask(resid <= tol, label, residual=resid)
    return rep


def dictionary_random_check(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """The identity dictionary on random integer triples: the two forms of
    the same components must agree exactly.

    Runs on float64 stacks, exact by exact_float64, one block of samples at
    a time, as tr.trilinear_both does per sample: each form is the
    contraction of its term tensor T[a, b, c] = F(e_a, e_b, e_c), read off
    the term table its int form is compiled from (``cl._TRILINEAR_TERMS``
    and ``oc._TRILINEAR_TERMS``), with phi_a x_b psi_c.  A dictionary that
    fails its exact check on the basis triples is one more failed case,
    named by the oracle's message, and is left out of meta.
    """
    rep = VerificationReport("trilinear-dictionary",
                             meta={"seed": seed, "samples": n_samples})
    try:
        rep.meta["dictionary"] = tr.equivalence_map().to_json()
    except tr.OracleError as exc:
        rep.record_case(False, str(exc))
    # each form sums 8^3 products T[a, b, c] phi_a x_b psi_c, with T at
    # [a, (b, c)]
    tensors = exact_float64(*(_dense((8, 8, 8), terms).reshape(8, 64)
                              for terms in (cl._TRILINEAR_TERMS, oc._TRILINEAR_TERMS)),
                            degree=4, terms=8 ** 3, sampled=True)
    rng = np.random.default_rng(seed)
    for start, n in _blocks(n_samples):
        v = sample_integers(rng, (n, 3, 8)).astype(np.float64)      # phi, x, psi
        phi, x, psi = v[:, 0], v[:, 1], v[:, 2]
        mat, octo = (np.einsum("nbc,nb,nc->n", (phi @ t).reshape(n, 8, 8), x, psi)
                     for t in tensors)
        rep.record_mask(mat == octo, lambda k, start=start: f"triple {start + k}")
    return rep


def double_cover_check(tol: float = 1e-12) -> VerificationReport:
    """Compact rotors at 2pi negate spinors and fix vectors; 4pi fixes both."""
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
