"""Integer contractions evaluated in float64 where that is exact.

A float64 holds every integer below 2**53 exactly, and the sum or product
of two such integers is exact while the result stays below that bound.
So a contraction of integer arrays run through float64 BLAS products, in
any summation order, gives the integer result when every product and
partial sum stays below 2**53.  ``exact_float64`` checks that bound before
it casts.

The integer tables of the single-call kernels (the unit product, the
matrix and octonionic trilinear forms, the spinor invariant) and the
spinor rotor's turn are written out as straight-line source and compiled
once by ``compiled``; ``signed_sum`` writes the integer combinations in
that source, and ``all_python_ints`` the test with which each integer form
checks its own input.  An integer form is the only form compiled from its
table: any other input takes a plain loop over the same table.
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


def signed_sum(terms) -> str:
    """Source of sum k * expr over (k, expr) pairs with nonzero integer k,
    as +-expr for k = +-1 and +-|k| * expr otherwise; "0" if there are none.
    Meant for Python ints, whose sums do not depend on the order."""
    out = []
    for k, expr in terms:
        term = expr if abs(k) == 1 else f"{abs(k)} * {expr}"
        out.append(f"- {term}" if k < 0 else f"+ {term}")
    return " ".join(out).removeprefix("+ ") or "0"


def all_python_ints(names) -> str:
    """Source of the test that every one of ``names`` is a Python int (not a
    bool, a numpy integer, a float or a Fraction), as one chained comparison
    type(a) is type(b) is ... is int, which stops at the first other type."""
    return " is ".join([*(f"type({v})" for v in names), "int"])


def compiled(name: str, source: str, **names):
    """The function ``name`` that ``source`` defines, compiled once, with
    ``names`` as its globals; its code objects are labelled ``<name>``."""
    namespace = dict(names)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]
