"""The batched float and exact suites against per-sample reference loops.

The references draw from the generator in the same order and apply the
public single-call kernels one sample at a time.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from splitoct import clifford as cl
from splitoct import octonion as oc
from splitoct import sweeps
from splitoct import triality as tr
from splitoct.report import VerificationReport

from oracles import RotorWord, embed_phi, embed_psi

# the float suites draw their samples one block of 64 at a time
DRAW_BLOCK = 64


def _blocks(n):
    for start in range(0, n, DRAW_BLOCK):
        yield start, min(DRAW_BLOCK, n - start)


def _rotors(rng, shape, bound):
    """A block of planes and angles: mu, then an offset of 1 to 7 that
    gives nu, then theta, one call each."""
    mu = rng.integers(0, 8, shape)
    nu = (mu + 1 + rng.integers(0, 7, shape)) % 8
    return mu.tolist(), nu.tolist(), rng.uniform(-bound, bound, shape).tolist()


def _sumsq(v):
    return float(np.dot(v, v))


def reference_rotor_invariance(n, seed, tol=1e-12):
    rep = VerificationReport("rotor-invariance", exact=False)
    rng = np.random.default_rng(seed)
    for start, size in _blocks(n):
        mus, nus, thetas = _rotors(rng, size, 3)
        v = rng.integers(-9, 10, size=(size, 24)).astype(np.float64)
        for k, (mu, nu, theta) in enumerate(zip(mus, nus, thetas)):
            i = start + k
            r = cl.rotor(mu, nu, theta)
            x = v[k, :8]
            x1 = cl.rotate_vector(x, r)
            resid = (abs(cl.quadratic_form(x) - cl.quadratic_form(x1))
                     / max(_sumsq(x), _sumsq(x1), 1.0))
            rep.record_case(resid <= tol, f"vector rotor {i} plane ({mu},{nu})",
                            residual=resid)
            eta = v[k, 8:]
            eta1 = cl.rotate_spinor(eta, r)
            resid = (abs(float(cl.spinor_invariant(eta)) - float(cl.spinor_invariant(eta1)))
                     / max(_sumsq(eta), _sumsq(eta1), 1.0))
            rep.record_case(resid <= tol, f"spinor rotor {i} plane ({mu},{nu})",
                            residual=resid)
    return rep


def reference_trilinear_invariance(n, seed, tol=1e-12):
    rep = VerificationReport("trilinear-invariance", exact=False)
    rng = np.random.default_rng(seed)
    for start, size in _blocks(n):
        lengths = rng.integers(1, 9, size).tolist()
        mus, nus, thetas = _rotors(rng, (size, 8), 2)
        v = rng.integers(-9, 10, size=(size, 3, 8)).astype(np.float64)
        for k, length in enumerate(lengths):
            i = start + k
            word = RotorWord(tuple(cl.rotor(mus[k][j], nus[k][j], thetas[k][j])
                                   for j in range(length)))
            phi, x, psi = v[k]
            phi1 = word.act_spinor(embed_phi(phi))[0:8]
            x1 = word.act_vector(x)
            psi1 = word.act_spinor(embed_psi(psi))[8:16]
            size3 = np.sqrt(max(_sumsq(phi) * _sumsq(x) * _sumsq(psi),
                                _sumsq(phi1) * _sumsq(x1) * _sumsq(psi1)))
            resid = (abs(float(cl.trilinear_matrix(phi, x, psi))
                         - cl.trilinear_matrix(phi1, x1, psi1)) / max(size3, 1.0))
            rep.record_case(resid <= tol, f"word {i} length {length}", residual=resid)
    return rep


def assert_same_outcome(batched, reference):
    assert batched.cases == reference.cases
    assert batched.failures == reference.failures
    assert batched.failure_details == reference.failure_details
    assert batched.max_residual == pytest.approx(reference.max_residual, rel=1e-6, abs=1e-15)


# one plane's spinor generator negated (a rotor by -theta on spinors only:
# the spinor invariant survives, the trilinear form does not) or doubled
# (neither survives)
@pytest.mark.parametrize("plane,factor", [((0, 4), -1), ((2, 5), -1), ((0, 4), 2),
                                          ((6, 7), 2)])
def test_corrupted_generator_parity(monkeypatch, plane, factor):
    monkeypatch.setitem(cl._BIV_REP, plane,
                        tuple((j, factor * g) for j, g in cl._bivector_action(*plane)))
    rot = tr.rotor_invariance_check(1000)
    assert_same_outcome(rot, reference_rotor_invariance(1000, tr.DEFAULT_SEED))
    tri = tr.trilinear_invariance_check(200)
    assert_same_outcome(tri, reference_trilinear_invariance(200, tr.DEFAULT_SEED))
    assert tri.failures > 0
    assert (rot.failures > 0) == (factor != -1)


@pytest.mark.parametrize("seed", [0, 3])
def test_uncorrupted_parity(seed):
    assert_same_outcome(tr.rotor_invariance_check(300, seed),
                        reference_rotor_invariance(300, seed))
    assert_same_outcome(tr.trilinear_invariance_check(100, seed),
                        reference_trilinear_invariance(100, seed))


def test_batches_split_anywhere():
    # two whole blocks of 64 and a partial one, and fewer samples than a block
    for n in (131, 5):
        assert_same_outcome(tr.rotor_invariance_check(n, 7), reference_rotor_invariance(n, 7))
        assert_same_outcome(tr.trilinear_invariance_check(n, 7),
                            reference_trilinear_invariance(n, 7))


def test_drawn_planes_reach_every_plane_and_never_repeat_an_index():
    rng = np.random.default_rng(tr.DEFAULT_SEED)
    seen = set()
    for _ in range(3):
        mu, nu, theta = sweeps._draw_rotors(rng, (DRAW_BLOCK, 8), 2)
        assert mu.shape == nu.shape == theta.shape == (DRAW_BLOCK, 8)
        assert (mu != nu).all()
        assert ((-2 <= theta) & (theta < 2)).all()
        seen.update(zip(mu.ravel().tolist(), nu.ravel().tolist()))
    assert seen == set(itertools.permutations(range(8), 2))
    compact = {(m, n) for m, n in seen if cl.METRIC[m] * cl.METRIC[n] > 0}
    assert len(compact) == 24 and len(seen - compact) == 32


# 2pi + 0.3 has a negative half-angle cosine on compact planes
@pytest.mark.parametrize("theta", [0.7, -2.9, 2 * math.pi + 0.3, 5.0])
def test_stack_turn_rounds_as_the_list_kernels(theta):
    # one row per ordered plane, a third of the components +-0.0, turned in
    # one call: every row bit for bit as the single-call kernels turn it
    planes = list(itertools.permutations(range(8), 2))
    mu, nu = (np.array(p) for p in zip(*planes))
    rng = np.random.default_rng(11)
    x, eta = (rng.normal(size=(56, k)) * (rng.random((56, k)) < 2 / 3) for k in (8, 16))
    assert (np.signbit(x) & (x == 0)).any() and (np.signbit(eta) & (eta == 0)).any()
    x1, eta1 = x.copy(), eta.copy()
    half = sweeps._half_angles(mu, nu, np.full(56, theta))
    sweeps._turn(x1, eta1, np.arange(56), sweeps._actions(), mu, nu, *half.T)
    rotors = [cl.rotor(m, n, theta) for m, n in planes]
    want_x = np.array([cl.rotate_vector_list(v, r) for v, r in zip(x.tolist(), rotors)])
    want_eta = np.array([cl.rotate_spinor_list(e, r) for e, r in zip(eta.tolist(), rotors)])
    assert np.array_equal(x1.view(np.int64), want_x.view(np.int64))
    assert np.array_equal(eta1.view(np.int64), want_eta.view(np.int64))


def test_correspondence_witnesses(monkeypatch):
    # with j1^2 = +1 conj(v)v loses 2 v_1^2: exactly the samples with a
    # nonzero component 1 fail, the vector and spinor cases of each sample
    # in turn; the reference takes conj(v)v one sample at a time through
    # oc.mul and the invariants through the public kernels
    table = [list(row) for row in oc._TABLE]
    table[1][1] = (0, 1)
    for name, value in oc._forms(table).items():
        monkeypatch.setattr(oc, name, value)
    rep = tr.correspondence_check(200, seed=5)
    rng = np.random.default_rng(5)
    want = []

    def norm(v):
        o = oc.SplitOctonion(v)
        return oc.mul(o.conj(), o)

    for i in range(200):
        x, phi, psi = ([int(c) for c in rng.integers(-9, 10, size=8)] for _ in range(3))
        q = sum(cl.METRIC[m] * x[m] ** 2 for m in range(8))
        if norm(x) != oc.SplitOctonion.scalar(q):
            want.append(f"vector sample {i}")
        if (norm(phi) != oc.SplitOctonion.scalar(cl.spinor_invariant(phi + [0] * 8))
                or norm(psi) != oc.SplitOctonion.scalar(cl.spinor_invariant([0] * 8 + psi))):
            want.append(f"spinor sample {i}")
    assert rep.cases == 400
    assert rep.failures == len(want) > 0
    assert rep.failure_details == want[:10]
    assert {d.split()[0] for d in want[:10]} == {"vector", "spinor"}


def peak_mb(call):
    """tracemalloc peak of call(), after one untraced call for lazy set-up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite", [tr.correspondence_check, tr.rotor_invariance_check])
def test_stacks_stay_small(suite):
    # the stacks are processed in blocks; a whole-sweep stack would peak at
    # about 10 MB (correspondence) and 2.7 MB (rotor invariance)
    bound = {tr.correspondence_check: 3.0, tr.rotor_invariance_check: 1.0}[suite]
    assert peak_mb(lambda: suite(1000)) < bound


@pytest.mark.parametrize("sweep", [oc.verify_associators, oc.verify_moufang,
                                   lambda: tr.dictionary_random_check(1000)],
                         ids=["associators", "moufang", "dictionary"])
def test_contracted_sweeps_stay_small(sweep):
    # moufang and the associators hold signed units and 8-int sums, and the
    # dictionary check works in blocks: one (1000, 8, 8, 8) int64 stack
    # would hold 4 MB
    assert peak_mb(sweep) < 2.0


def test_malcev_and_clifford_stay_small():
    # the derivation runs one first index at a time (about 1.4 MB); all
    # seven at once would hold several MB
    assert peak_mb(oc.verify_malcev) < 3.0
    assert peak_mb(cl.verify_clifford) < 1.5


class TestExactFloat64:
    """The guard in front of every float64 product on integer operands."""

    def test_casts_within_bound(self):
        a = np.array([[3, -4], [0, 2]])
        (f,) = sweeps.exact_float64(a, degree=2, terms=8)
        assert f.dtype == np.float64 and np.array_equal(f, a)

    def test_bound_is_terms_times_power(self):
        # 2^26 squared is 2^52: two such products reach 2^53 and are refused
        a = np.array([2 ** 26, -(2 ** 26)])
        sweeps.exact_float64(a, degree=2, terms=1)
        with pytest.raises(OverflowError):
            sweeps.exact_float64(a, degree=2, terms=2)
        with pytest.raises(OverflowError):
            sweeps.exact_float64(np.array([1]), a, degree=3, terms=1)

    def test_largest_entry_of_any_factor_counts(self):
        small, big = np.ones((4, 4), dtype=np.int64), np.array([-(2 ** 40)])
        with pytest.raises(OverflowError):
            sweeps.exact_float64(small, big, degree=2, terms=1)

    def test_int64_extremes(self):
        assert sweeps.magnitude(np.array([np.iinfo(np.int64).min, 5])) == 2 ** 63
        with pytest.raises(OverflowError):
            sweeps.exact_float64(np.array([np.iinfo(np.int64).min]), degree=1, terms=1)

    def test_sampled_range_counts(self, monkeypatch):
        # sampled components enter the bound through SAMPLE_RANGE
        one = np.array([1])
        sweeps.exact_float64(one, degree=16, terms=1)
        with pytest.raises(OverflowError):
            sweeps.exact_float64(one, degree=17, terms=1, sampled=True)    # 9^17 > 2^53
        monkeypatch.setattr(sweeps, "SAMPLE_RANGE", 2 ** 14)
        with pytest.raises(OverflowError):
            sweeps.exact_float64(sweeps._c(), degree=4, terms=2048, sampled=True)

    # correspondence sums 2 x 64 products of three factors: 128 * 2^42 is
    # below 2^53 and 128 * 2^48 is not; the dictionary's 8^3 products of
    # four factors leave float64 at 2^11 already
    @pytest.mark.parametrize("suite,refused", [(tr.correspondence_check, 2 ** 16),
                                               (tr.dictionary_random_check, 2 ** 11)],
                             ids=["correspondence_check", "dictionary_random_check"])
    def test_sampled_suites_refuse_a_wider_range(self, monkeypatch, suite, refused):
        monkeypatch.setattr(sweeps, "SAMPLE_RANGE", refused)
        with pytest.raises(OverflowError):
            suite(10)

    def test_correspondence_certifies_range_2_to_14(self, monkeypatch):
        monkeypatch.setattr(sweeps, "SAMPLE_RANGE", 2 ** 14)
        rep = tr.correspondence_check(100)
        assert (rep.cases, rep.failures) == (200, 0)
