"""The catch matrix of `sot verify all`: which single faults in the shipped
data its verdict catches.

Each fault is installed in process, as the kill tests install theirs, with
the form that is compiled from the faulty table recompiled from it; then
``cli.main(["verify", "all"])`` runs at its one size, and the matrix
records its exit code and the names of the failing reports.  The faults:

- every sign of a bivector action: one row of ``cl._BIV_REP`` under plane
  (mu, nu), mu < nu, with its negation under (nu, mu) flipped alike
  (28 planes x 16 rows);
- every term of the matrix trilinear form, ``cl._TRILINEAR_TERMS``,
  negated, with ``cl._TRILINEAR`` recompiled (64);
- every term of the spinor invariant, ``cl._Q_SPINOR_TERMS``, negated,
  with ``cl._SPINOR_FORM`` recompiled (16);
- every term of the octonionic trilinear form, ``oc._TRILINEAR_TERMS``,
  negated, with ``oc._INT_TRILINEAR`` recompiled (64);
- every sign of the unit table, ``oc._TABLE`` (64), and of the octonion
  conjugation, ``oc._CONJ_SIGNS`` (8), each with every form ``oc._forms``
  builds from the unit table rebuilt;
- every sign of the metric, ``cl.METRIC`` (8);
- the sign of the moved term of each component of the compiled spinor
  turn, ``cl._TURN`` (16), and of the S term of each output of the vector
  turn, ``cl.turn_pair`` (2);
- the full angle in place of the half in ``cl.half_angle``, on compact
  planes and on boost planes (2);
- each compiled trilinear form, ``cl._TRILINEAR`` and
  ``oc._INT_TRILINEAR``, returning its value + 1 (2): the dictionary
  oracle certifies both against their term tables;
- every entry of the paper's matrices, ``mx._ALPHA`` (8 x 8) and
  ``mx.XI_M`` (32), negated: these are refused at import, before any
  suite runs, so they come first in the file, and each row records the
  message of the import checks (``mx._checked``, which the import runs
  too) on the faulty data.  Every `verify` imports ``matrices``, and the
  refusal is an uncaught exception, so `sot verify all` exits 1; data
  that passed the checks would run `verify all` with its matrices
  installed.

Each must exit 1.  The known escapes are listed apart, each with the
CHANGES.md line that records it: the compiled spinor form
``cl._SPINOR_FORM`` returning its value + 1 passes, because no report
evaluates that form; its certification by one evaluation runs where
``cl._spinor_form`` compiles it, at import, before this fault is
installed.  ``tests/data/catch_matrix.json`` holds the matrix,
one fault a line; the test under the ``catch`` marker regenerates it and
compares (``PYTHONPATH=src python -m pytest -q -m catch``, about half a
minute on one core), and

    PYTHONPATH=src python tests/catch_matrix.py --write

rewrites the file, unless a fault outside the known escapes passes.
"""
import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from splitoct import cli
from splitoct import clifford as cl
from splitoct import matrices as mx  # imported, and checked, before any fault
from splitoct import octonion as oc
from splitoct import triality as tr
from splitoct.exact import trilinear_form

MATRIX = Path(__file__).resolve().parent / "data" / "catch_matrix.json"
ESCAPE_FOUND = ("CHANGES.md, the FOUND: line that begins "
                "\"`verify all` does not check three of the compiled int forms\"")


def flipped_action(monkeypatch, mu, nu, row):
    """Flip the sign of one row of the action of Gamma_mu Gamma_nu, and of
    the same row of the action stored under (nu, mu), its negation."""
    action = list(cl._BIV_REP[mu, nu])
    j, g = action[row]
    action[row] = (j, -g)
    monkeypatch.setitem(cl._BIV_REP, (mu, nu), tuple(action))
    monkeypatch.setitem(cl._BIV_REP, (nu, mu), tuple((c, -g) for c, g in action))


def _negated_term(monkeypatch, module, table, form, build, n):
    terms = list(getattr(module, table))
    *slots, k = terms[n]
    terms[n] = (*slots, -k)
    monkeypatch.setattr(module, table, tuple(terms))
    monkeypatch.setattr(module, form, build(terms))


def negated_matrix_term(monkeypatch, n):
    """Negate term n of the matrix form's table and recompile the form from it."""
    _negated_term(monkeypatch, cl, "_TRILINEAR_TERMS", "_TRILINEAR", trilinear_form, n)


def negated_spinor_term(monkeypatch, n):
    """Negate term n of the spinor invariant's table and recompile the form from it."""
    _negated_term(monkeypatch, cl, "_Q_SPINOR_TERMS", "_SPINOR_FORM", cl._spinor_form, n)


def negated_oct_term(monkeypatch, n):
    """Negate term n of the octonionic form's table and recompile the form from
    it, as oc._forms compiles it."""
    _negated_term(monkeypatch, oc, "_TRILINEAR_TERMS", "_INT_TRILINEAR",
                  lambda terms: trilinear_form(terms, wrap="Fraction", Fraction=Fraction), n)


def _flipped(signs, index):
    return tuple(-g if i == index else g for i, g in enumerate(signs))


def flipped_metric(monkeypatch, mu):
    """Flip the sign of g_mumu in cl.METRIC."""
    monkeypatch.setattr(cl, "METRIC", _flipped(cl.METRIC, mu))


def installed_table(monkeypatch, table):
    """Install ``table`` with every form oc._forms builds from it."""
    for name, value in oc._forms(table).items():
        monkeypatch.setattr(oc, name, value)


def flipped_entry(monkeypatch, a, b):
    """Flip the sign of e_a e_b in the unit table and rebuild its forms."""
    table = [list(row) for row in oc._TABLE]
    k, sign = table[a][b]
    table[a][b] = (k, -sign)
    installed_table(monkeypatch, table)


def flipped_conj(monkeypatch, a):
    """Flip the sign of conj(e_a) and rebuild every form of the unit table."""
    monkeypatch.setattr(oc, "_CONJ_SIGNS", _flipped(oc._CONJ_SIGNS, a))
    installed_table(monkeypatch, oc._TABLE)


def flipped_turn(monkeypatch, row):
    """The compiled spinor turn with the moved term of component ``row`` of
    the wrong sign."""
    turn = cl._TURN

    def broken(e, c, s, action):
        out = turn(e, c, s, action)
        j, g = action[row]
        out[row] = c * e[row] + s * (g * e[j] + 0.0)
        return out
    monkeypatch.setattr(cl, "_TURN", broken)


def flipped_turn_pair(monkeypatch, output):
    """turn_pair with the S term of one output, x_mu (0) or x_nu (1), of the
    wrong sign: s negated leaves C and negates S."""
    turn = cl.turn_pair

    def broken(xm, xn, gm, gn, c, s):
        out = list(turn(xm, xn, gm, gn, c, s))
        out[output] = turn(xm, xn, gm, gn, c, -s)[output]
        return tuple(out)
    monkeypatch.setattr(cl, "turn_pair", broken)


def full_angle(monkeypatch, compact):
    """cl.half_angle with the full angle in place of the half on compact
    planes (``compact``) or on boost planes."""
    half = cl.half_angle

    def broken(is_compact, theta):
        return half(is_compact, 2 * theta if is_compact == compact else theta)
    monkeypatch.setattr(cl, "half_angle", broken)


def plus_one(monkeypatch, module, name):
    """The compiled int form ``module.name``, returning its value + 1."""
    form = getattr(module, name)

    def shifted(*args):
        value = form(*args)
        return None if value is None else value + 1
    monkeypatch.setattr(module, name, shifted)


FAULTS = {
    **{f"cl._BIV_REP[{mu},{nu}] row {row}":
       lambda mp, mu=mu, nu=nu, row=row: flipped_action(mp, mu, nu, row)
       for mu, nu in itertools.combinations(range(8), 2) for row in range(16)},
    **{f"cl._TRILINEAR_TERMS[{n}]": lambda mp, n=n: negated_matrix_term(mp, n)
       for n in range(len(cl._TRILINEAR_TERMS))},
    **{f"cl._Q_SPINOR_TERMS[{n}]": lambda mp, n=n: negated_spinor_term(mp, n)
       for n in range(len(cl._Q_SPINOR_TERMS))},
    **{f"oc._TRILINEAR_TERMS[{n}]": lambda mp, n=n: negated_oct_term(mp, n)
       for n in range(len(oc._TRILINEAR_TERMS))},
    **{f"oc._TABLE[{a}][{b}]": lambda mp, a=a, b=b: flipped_entry(mp, a, b)
       for a, b in itertools.product(range(8), repeat=2)},
    **{f"cl.METRIC[{mu}]": lambda mp, mu=mu: flipped_metric(mp, mu) for mu in range(8)},
    **{f"oc._CONJ_SIGNS[{a}]": lambda mp, a=a: flipped_conj(mp, a) for a in range(8)},
    **{f"cl._TURN row {row}": lambda mp, row=row: flipped_turn(mp, row) for row in range(16)},
    **{f"cl.turn_pair output {output}": lambda mp, output=output: flipped_turn_pair(mp, output)
       for output in range(2)},
    **{f"cl.half_angle full angle on {kind} planes": lambda mp, c=compact: full_angle(mp, c)
       for kind, compact in (("compact", True), ("boost", False))},
    "cl._TRILINEAR + 1": lambda mp: plus_one(mp, cl, "_TRILINEAR"),
    "oc._INT_TRILINEAR + 1": lambda mp: plus_one(mp, oc, "_INT_TRILINEAR"),
}


def negated_entry(g, k=0):
    """The square GMat g with its k-th nonzero entry, in C order, negated."""
    entries = list(g.entries())
    r, c, vr, vi = entries[k]
    entries[k] = (r, c, -vr, -vi)
    return mx.GMat.from_entries(len(g.rows), entries)


def flipped_alpha(mu, k):
    """The alpha and xi data with entry k of alpha_mu negated."""
    alphas = list(mx._ALPHA)
    alphas[mu] = negated_entry(alphas[mu], k)
    return alphas, mx.XI_M


# faults of the paper's matrices, each as the (alphas, xi) data it makes
IMPORT_FAULTS = {
    **{f"mx._ALPHA[{mu}] entry {k}": lambda mu=mu, k=k: flipped_alpha(mu, k)
       for mu in range(8) for k in range(8)},
    **{f"mx.XI_M entry {k}": lambda k=k: (mx._ALPHA, negated_entry(mx.XI_M, k))
       for k in range(32)},
}
KNOWN_ESCAPES = {
    "cl._SPINOR_FORM + 1": lambda mp: plus_one(mp, cl, "_SPINOR_FORM"),
}


def verdict(install) -> dict:
    """Exit code and failing reports of `verify all` with one fault installed."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        install(mp)
        tr.equivalence_map.cache_clear()            # verify the dictionary again
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "all"])
    reports = json.loads(out.getvalue())["reports"]
    return {"exit": code, "failing": [r["name"] for r in reports if not r["passed"]]}


def import_verdict(alphas, xi) -> dict:
    """The message the import checks of ``matrices`` refuse the alpha and xi
    data with, or, if they pass, the verdict of `verify all` on them."""
    try:
        gammas, b = mx._checked(alphas, xi)
    except (AssertionError, RuntimeError) as exc:
        return {"exit": 1, "refused": str(exc)}

    def install(mp):
        for name, value in (("_ALPHA", alphas), ("XI_M", xi), ("_GAMMA", gammas), ("_B", b)):
            mp.setattr(mx, name, value)
    return verdict(install)


def generate() -> dict:
    return {"command": "sot verify all",
            "faults": {**{name: import_verdict(*make()) for name, make in IMPORT_FAULTS.items()},
                       **{name: verdict(install) for name, install in FAULTS.items()}},
            "known_escapes": {name: {**verdict(install), "found": ESCAPE_FOUND}
                              for name, install in KNOWN_ESCAPES.items()}}


def render(matrix: dict) -> str:
    """The matrix as JSON, one fault a line, so a diff names the faults that moved."""
    def block(rows):
        return "{\n" + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}"
                                  for k, v in rows.items()) + "\n  }"
    return (f'{{\n  "command": {json.dumps(matrix["command"])},\n'
            f'  "faults": {block(matrix["faults"])},\n'
            f'  "known_escapes": {block(matrix["known_escapes"])}\n}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/catch_matrix.py --write")
    matrix = generate()
    escaped = [name for name, row in matrix["faults"].items() if row["exit"] != 1]
    if escaped:
        sys.exit(f"{len(escaped)} faults pass `verify all` ({', '.join(escaped[:5])}, ...); "
                 "nothing written")
    MATRIX.write_text(render(matrix))
