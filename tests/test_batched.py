"""The batched float and exact suites against per-sample reference loops.

The references draw from the generator in the same order and apply the
public single-call kernels one sample at a time.
"""
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from splitoct import clifford as cl
from splitoct import exact
from splitoct import octonion as oc
from splitoct import triality as tr
from splitoct.report import VerificationReport

from oracles import RotorWord, embed_phi, embed_psi, vector_to_matrix_exact


def _plane(rng):
    mu = int(rng.integers(0, 8))
    nu = int(rng.integers(0, 8))
    while nu == mu:
        nu = int(rng.integers(0, 8))
    return mu, nu


def _sumsq(v):
    return float(np.dot(v, v))


def reference_rotor_invariance(n, seed, tol=1e-12):
    rep = VerificationReport("rotor-invariance", exact=False)
    rng = np.random.default_rng(seed)
    for i in range(n):
        mu, nu = _plane(rng)
        r = cl.rotor(mu, nu, float(rng.uniform(-3, 3)))
        x = rng.integers(-9, 10, size=8).astype(np.float64)
        x1 = cl.rotate_vector(x, r)
        resid = (abs(cl.quadratic_form(x) - cl.quadratic_form(x1))
                 / max(_sumsq(x), _sumsq(x1), 1.0))
        rep.record_case(resid <= tol, f"vector rotor {i} plane ({mu},{nu})", residual=resid)
        eta = rng.integers(-9, 10, size=16).astype(np.float64)
        eta1 = cl.rotate_spinor(eta, r)
        resid = (abs(float(cl.spinor_invariant(eta)) - float(cl.spinor_invariant(eta1)))
                 / max(_sumsq(eta), _sumsq(eta1), 1.0))
        rep.record_case(resid <= tol, f"spinor rotor {i} plane ({mu},{nu})", residual=resid)
    return rep


def reference_trilinear_invariance(n, seed, tol=1e-12):
    rep = VerificationReport("trilinear-invariance", exact=False)
    rng = np.random.default_rng(seed)
    for i in range(n):
        length = int(rng.integers(1, 9))
        rotors = []
        for _ in range(length):
            mu, nu = _plane(rng)
            rotors.append(cl.rotor(mu, nu, float(rng.uniform(-2, 2))))
        word = RotorWord(tuple(rotors))
        phi, x, psi = (rng.integers(-9, 10, size=8).astype(np.float64) for _ in range(3))
        phi1 = word.act_spinor(embed_phi(phi))[0:8]
        x1 = word.act_vector(x)
        psi1 = word.act_spinor(embed_psi(psi))[8:16]
        size = np.sqrt(max(_sumsq(phi) * _sumsq(x) * _sumsq(psi),
                           _sumsq(phi1) * _sumsq(x1) * _sumsq(psi1)))
        resid = (abs(float(cl.trilinear_matrix(phi, x, psi))
                     - cl.trilinear_matrix(phi1, x1, psi1)) / max(size, 1.0))
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


def test_correspondence_witnesses(monkeypatch):
    # Gamma_3 replaced by Gamma_2 breaks X^2 = Q(x) exactly on the samples
    # with x_2 x_3 != 0; the witnesses follow sample order
    gammas = list(cl._GAMMA)
    gammas[3] = gammas[2]
    monkeypatch.setattr(cl, "_GAMMA", gammas)
    rep = tr.correspondence_check(200, seed=5)
    rng = np.random.default_rng(5)
    want = []
    for i in range(200):
        x = rng.integers(-9, 10, size=8)
        rng.integers(-9, 10, size=8)
        rng.integers(-9, 10, size=8)
        X = vector_to_matrix_exact(x)
        q = int(sum(cl.METRIC[m] * int(x[m]) ** 2 for m in range(8)))
        if not X @ X == cl.GMat.eye(16).scale(q):
            want.append(f"vector sample {i}")
    assert rep.cases == 400
    assert rep.failures == len(want) > 0
    assert rep.failure_details == want[:10]


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
    # the contractions hold a few (8, 8, 8, 8) tensors at a time, and the
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
        (f,) = exact.exact_float64(a, degree=2, terms=8)
        assert f.dtype == np.float64 and np.array_equal(f, a)

    def test_bound_is_terms_times_power(self):
        # 2^26 squared is 2^52: two such products reach 2^53 and are refused
        a = np.array([2 ** 26, -(2 ** 26)])
        exact.exact_float64(a, degree=2, terms=1)
        with pytest.raises(OverflowError):
            exact.exact_float64(a, degree=2, terms=2)
        with pytest.raises(OverflowError):
            exact.exact_float64(np.array([1]), a, degree=3, terms=1)

    def test_largest_entry_of_any_factor_counts(self):
        small, big = np.ones((4, 4), dtype=np.int64), np.array([-(2 ** 40)])
        with pytest.raises(OverflowError):
            exact.exact_float64(small, big, degree=2, terms=1)

    def test_int64_extremes(self):
        assert exact.magnitude(np.array([np.iinfo(np.int64).min, 5])) == 2 ** 63
        with pytest.raises(OverflowError):
            exact.exact_float64(np.array([np.iinfo(np.int64).min]), degree=1, terms=1)

    def test_sampled_range_counts(self, monkeypatch):
        # sampled components enter the bound through SAMPLE_RANGE
        one = np.array([1])
        exact.exact_float64(one, degree=16, terms=1)
        with pytest.raises(OverflowError):
            exact.exact_float64(one, degree=17, terms=1, sampled=True)    # 9^17 > 2^53
        monkeypatch.setattr(exact, "SAMPLE_RANGE", 2 ** 14)
        with pytest.raises(OverflowError):
            exact.exact_float64(oc._c(), degree=4, terms=2048, sampled=True)

    @pytest.mark.parametrize("suite", [tr.correspondence_check, tr.dictionary_random_check])
    def test_sampled_suites_refuse_a_wider_range(self, monkeypatch, suite):
        monkeypatch.setattr(exact, "SAMPLE_RANGE", 2 ** 14)
        with pytest.raises(OverflowError):
            suite(10)


def reference_check_generators(rep, tables, generators):
    """The exact per-entry comparison, with each table entry summed as a
    Fraction from its (output, input, coefficient) terms."""
    for name, entries, gen in zip(("x", "phi", "psi"), tables, generators):
        for i in range(8):
            for j in range(8):
                t = sum(Fraction(c) for a, b, c in entries if (a, b) == (i, j))
                rep.record_case(t == gen[i][j],
                                f"{name}[{i},{j}] table {float(t)} generator {gen[i][j]}")


@pytest.mark.parametrize("table,suite", [
    ("L01_X", lambda: tr.infinitesimal_table_check("01")),
    ("L04_PSI", tr.boost_table_check),
    ("COMPOSITE_PHI", tr.role_swap_check),
])
@pytest.mark.parametrize("corrupt", [None, "sign", "nudge"])
def test_generator_tables_match_entry_loop(monkeypatch, table, suite, corrupt):
    bad = tr.gen_matrix(getattr(tr, table))
    if corrupt == "sign":
        bad[np.nonzero(bad)[0][0], np.nonzero(bad)[1][0]] *= -1
    elif corrupt == "nudge":
        bad[3, 3] += 1e-3
        bad[5, 2] += 2e-9
    monkeypatch.setattr(tr, table, tuple((i, j, bad[i, j]) for i, j in zip(*np.nonzero(bad))))
    rep = suite()
    monkeypatch.setattr(tr, "_check_generators", reference_check_generators)
    want = suite()
    assert json.dumps(rep.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)
    assert rep.passed == (corrupt is None)
