"""Integer contractions evaluated in float64 where that is exact.

A float64 holds every integer below 2**53 exactly, and the sum or product
of two such integers is exact while the result stays below that bound.
So a contraction of integer arrays run through float64 BLAS products, in
any summation order, gives the integer result when every product and
partial sum stays below 2**53.  ``exact_float64`` checks that bound before
it casts.
"""
from __future__ import annotations

# the sampled suites draw integer components from [-SAMPLE_RANGE, SAMPLE_RANGE]
SAMPLE_RANGE = 9
FLOAT64_EXACT = 2 ** 53


def sample_integers(rng, size):
    """Integer components from [-SAMPLE_RANGE, SAMPLE_RANGE], the range that
    exact_float64(..., sampled=True) counts."""
    return rng.integers(-SAMPLE_RANGE, SAMPLE_RANGE + 1, size=size)


def magnitude(a) -> int:
    """The largest |entry| of an integer array, as a Python int (0 if empty)."""
    import numpy as np
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
    import numpy as np
    m = max(1, SAMPLE_RANGE if sampled else 0, *(magnitude(f) for f in factors))
    if terms * m ** degree >= FLOAT64_EXACT:
        raise OverflowError(f"{terms} products of {degree} integers up to {m} "
                            f"may reach 2**53; float64 would round them")
    return tuple(np.asarray(f, dtype=np.float64) for f in factors)
