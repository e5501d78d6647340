"""Straight-line integer forms compiled from their term tables.

Every integer form of the single-call kernels (the unit product, the
matrix and octonionic trilinear forms, the spinor invariant) is one call
of ``int_form``, which writes it from its term table as straight-line
source: it unpacks the arguments, tests that every component is a Python
int, and returns one signed sum per output (``signed_sum``; ``grouped``
factors a trilinear form's vector components out of its sums, and
``trilinear_form`` writes both trilinear forms so).  The spinor rotor's
turn is compiled by ``compiled`` too.  An integer form is the only form
compiled from its table: any other input takes a plain loop over the same
table.

Each integer form is certified against its table by one evaluation at a
point where every variable is a distinct power of 2^DIGIT (Kronecker
substitution): the unit product and the spinor form where they are
compiled, the two trilinear forms by ``triality._certify_form``.
"""
from __future__ import annotations

DIGIT = 16


def kronecker_point(exponents) -> tuple:
    """2^(DIGIT e) for each exponent e: a point at which the monomial of
    variables with exponents e1, e2, ... is the digit e1 + e2 + ...."""
    return tuple(1 << (DIGIT * e) for e in exponents)


def first_wrong_digit(got, terms):
    """None if ``got`` is the sum of k 2^(DIGIT d) over the (d, k) terms,
    else the lowest digit d where the two differ.  A digit of the difference
    below 2^DIGIT in size cannot carry into the next, so the lowest set bit
    of a nonzero difference lies in the lowest wrong digit."""
    diff = got - sum(k << (DIGIT * d) for d, k in terms)
    if not diff:
        return None
    diff = int(diff)
    return ((diff & -diff).bit_length() - 1) // DIGIT


def signed_sum(terms) -> str:
    """Source of sum k * expr over (k, expr) pairs with nonzero integer k,
    as +-expr for k = +-1 and +-|k| * expr otherwise; "0" if there are none.
    Meant for Python ints, whose sums do not depend on the order."""
    out = []
    for k, expr in terms:
        term = expr if abs(k) == 1 else f"{abs(k)} * {expr}"
        out.append(f"- {term}" if k < 0 else f"+ {term}")
    return " ".join(out).removeprefix("+ ") or "0"


def grouped(terms) -> list:
    """The (lead, k, expr) terms of sum k * lead * expr as (1, lead * (sum
    of k * expr)) terms, one per lead in the order the leads first appear."""
    groups = {}
    for lead, k, expr in terms:
        groups.setdefault(lead, []).append((k, expr))
    return [(1, f"{lead} * ({signed_sum(t)})") for lead, t in groups.items()]


def compiled(name: str, source: str, **names):
    """The function ``name`` that ``source`` defines, compiled once, with
    ``names`` as its globals; its code objects are labelled ``<name>``."""
    namespace = dict(names)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def int_form(name: str, args: str, size: int, sums, wrap: str = "", **names):
    """The integer form ``name`` of the sequences named by the letters of
    ``args``, ``size`` components each, compiled once (``names`` are its
    globals).  It unpacks sequence v into v0, v1, ... and, when every
    component is a Python int (not a bool, a numpy integer, a float or a
    Fraction), returns the signed sum of each (k, expr) term list in
    ``sums``: the one sum, or the tuple of them when there are several,
    passed through ``wrap`` when it is given.  Else it returns None.  The
    test is one chained comparison type(a0) is type(a1) is ... is int,
    which stops at the first other type."""
    unpack = "".join(f"    {', '.join(f'{v}{k}' for k in range(size))} = {v}\n" for v in args)
    ints = " is ".join([*(f"type({v}{k})" for v in args for k in range(size)), "int"])
    body = ",\n        ".join(signed_sum(terms) for terms in sums)
    if len(sums) > 1 or wrap:
        body = f"{wrap}({body})"
    return compiled(name, f"def {name}({', '.join(args)}):\n{unpack}"
                          f"    if {ints}:\n        return {body}\n", **names)


def trilinear_form(terms, wrap: str = "", **names):
    """F(p, x, s) on three sequences of 8 Python ints, compiled by int_form
    from the (a, b, c, k) terms of a trilinear form: the sum over b of x_b *
    (sum k p_a s_c), passed through ``wrap`` when it is given; None unless
    all 24 components are Python ints."""
    return int_form("trilinear", "pxs", 8,
                    [grouped((f"x{b}", k, f"p{a} * s{c}") for a, b, c, k in terms)],
                    wrap=wrap, **names)
