"""Straight-line integer forms compiled from their tables.

The integer tables of the single-call kernels (the unit product, the
matrix and octonionic trilinear forms, the spinor invariant) and the
spinor rotor's turn are written out as straight-line source and compiled
once by ``compiled``; ``signed_sum`` writes the integer combinations in
that source, and ``all_python_ints`` the test with which each integer form
checks its own input.  An integer form is the only form compiled from its
table: any other input takes a plain loop over the same table.
"""
from __future__ import annotations


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
