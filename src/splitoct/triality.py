"""The bridge between the two trilinear forms: the octonionic form, the
dictionary oracle and ``trilinear_both``.

The dictionary between the two forms is the identity of the component
order (octonion coefficient k <-> component k, scale 1) by construction:
both forms take the same components, and the dictionary is not applied but
verified, exactly, on all 512 basis triples before first use.  The term
tables of the matrix form (``clifford._TRILINEAR_TERMS``) and of the
octonionic form (``octonion._TRILINEAR_TERMS``, read off the unit table)
hold the same (a, b, c, F(e_a, e_b, e_c)) slots over (phi, x, psi), and
must give every basis triple the same value.  Those are the tables the
int forms are compiled from, and each int form is certified against its
table by one evaluation (Kronecker substitution, ``_certify_form``), so
the check is of the functions ``trilinear_both`` runs on Python ints; on
anything else the octonionic form is its definition -inner(conj(Phi),
mul(X, Psi)).  The spinor basis and its pinned evaluation convention are
``clifford``'s; PINNED_CONVENTION is re-exported here.

The generator-table and double-cover checks run on the standard library,
in ``units``; the four sampled suites run on numpy, in ``sweeps``.
Each name here is made by ``octonion._sweep``.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from . import clifford as cl
from . import octonion as oc

DEFAULT_SEED = 12345
PINNED_CONVENTION = cl.PINNED_CONVENTION


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


class OracleError(RuntimeError):
    """The dictionary does not carry one trilinear form onto the other."""


_IDENTITY = tuple((k, 1) for k in range(8))


class CorrespondenceMap(namedtuple("CorrespondenceMap",
                                   "phi_map x_map psi_map scale max_residual",
                                   defaults=(0,))):
    """The component dictionary between the two trilinear forms, as
    ``equivalence_map()`` returns it: per slot, 8 pairs (index, sign)
    taking component k to octonion coefficient index, and a Fraction scale.
    The oracle builds it as the identity with scale 1; no command emits it.
    """

    __slots__ = ()


def trilinear_equivalence_oracle() -> CorrespondenceMap:
    """The dictionary of the pinned component order: octonion coefficient k
    <-> component k in every slot, scale 1.  Verified exactly on all 512
    basis triples before it is returned, as the agreement of the two term
    tables the int forms are compiled from, and each int form is certified
    against its table (``_certify_form``); raises OracleError naming the
    first failing triple otherwise."""
    _verify_dictionary(*({(a, b, c): k for a, b, c, k in terms}
                         for terms in (cl._TRILINEAR_TERMS, oc._TRILINEAR_TERMS)))
    _certify_form("matrix", cl._TRILINEAR, cl._TRILINEAR_TERMS)
    _certify_form("octonionic", oc._INT_TRILINEAR, oc._TRILINEAR_TERMS)
    return CorrespondenceMap(_IDENTITY, _IDENTITY, _IDENTITY, Fraction(1))


# Kronecker substitution, with digits of W = _DIGIT bits: at phi_a =
# 2^(W 64a), x_b = 2^(W 8b) and psi_c = 2^(W c), the monomial phi_a x_b
# psi_c is the base-2^W digit 64a + 8b + c, the C-order index of (a, b, c)
_DIGIT = 16
_POINT = tuple(tuple(1 << (_DIGIT * step * k) for k in range(8)) for step in (64, 8, 1))


def _certify_form(name: str, form, terms) -> None:
    """A compiled trilinear form holds exactly the (a, b, c, k) terms it is
    compiled from: one evaluation at _POINT, compared with the terms packed
    the same way.  Each monomial takes one variable per slot, as every form
    of ``exact.trilinear_form`` does, so its coefficient is one digit; a
    coefficient of the difference below 2^W in size cannot carry into the
    next, so the lowest set bit of a nonzero difference lies in the digit of
    the first wrong triple in C order, which the OracleError names."""
    got = form(*_POINT)
    want = sum(k << (_DIGIT * (64 * a + 8 * b + c)) for a, b, c, k in terms)
    if got != want:
        diff = int(got - want)
        first = ((diff & -diff).bit_length() - 1) // _DIGIT
        raise OracleError(f"the compiled {name} form fails at basis triple "
                          f"({first // 64},{first // 8 % 8},{first % 8})")


def _verify_dictionary(t1: dict, t2: dict):
    """The maps {(a, b, c): F(e_a, e_b, e_c)} of two trilinear forms, zero
    where a triple is missing, agree on all 512 basis triples: the identity
    dictionary with scale 1; raises naming the first failing triple in C
    order."""
    wrong = [abc for abc in t1.keys() | t2.keys() if t1.get(abc, 0) != t2.get(abc, 0)]
    if wrong:
        raise OracleError("dictionary fails at basis triple ({},{},{})".format(*min(wrong)))


@functools.cache
def equivalence_map() -> CorrespondenceMap:
    """The oracle's dictionary, verified at the first call and kept until
    ``equivalence_map.cache_clear()``; an OracleError is not kept."""
    return trilinear_equivalence_oracle()


def trilinear_both(phi, x, psi):
    """Evaluate the matrix form and the octonion form under the identity
    dictionary, which equivalence_map() verifies before first use.

    Three lists of 8 Python ints go straight to the int forms, which check
    their own input.  Otherwise the arguments are read once, as
    trilinear_matrix reads them (``cl._trilinear_args``), and both forms
    get the same eight values of phi, x and psi: Python ints when every
    component is integral, for the two int forms; else the values as
    given, for the matrix form's float sum and for trilinear_oct, whose
    octonions hold numpy integers as Python ints.
    """
    equivalence_map()
    if (type(phi) is list and type(x) is list and type(psi) is list
            and len(phi) == len(x) == len(psi) == 8):
        mat_val = cl._TRILINEAR(phi, x, psi)
        if mat_val is not None:
            return mat_val, oc._INT_TRILINEAR(phi, x, psi)
    args = cl._trilinear_args(phi, x, psi)
    mat_val = cl._TRILINEAR(*args)
    if mat_val is not None:
        return mat_val, oc._INT_TRILINEAR(*args)
    return cl._trilinear(*args), trilinear_oct(*map(oc.SplitOctonion, args))


correspondence_check = oc._sweep("sweeps", "correspondence_check")
dictionary_random_check = oc._sweep("sweeps", "dictionary_random_check")
infinitesimal_table_check = oc._sweep("units", "infinitesimal_table_check")
boost_table_check = oc._sweep("units", "boost_table_check")
role_swap_check = oc._sweep("units", "role_swap_check")
rotor_invariance_check = oc._sweep("sweeps", "rotor_invariance_check")
trilinear_invariance_check = oc._sweep("sweeps", "trilinear_invariance_check")
double_cover_check = oc._sweep("units", "double_cover_check")
