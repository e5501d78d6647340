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
  with ``cl._SPINOR_FORM`` recompiled (16).

Each must exit 1.  The known escapes are listed apart, each with the
CHANGES.md line that records it: a compiled int form that returns its
value + 1 passes, because no report evaluates that form on the inputs it
runs.  ``tests/data/catch_matrix.json`` holds the matrix, one fault a
line; the test under the ``catch`` marker regenerates it and compares
(``PYTHONPATH=src python -m pytest -q -m catch``, about half a minute on
one core), and

    PYTHONPATH=src python tests/catch_matrix.py --write

rewrites the file, unless a fault outside the known escapes passes.
"""
import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from splitoct import cli
from splitoct import clifford as cl
from splitoct import octonion as oc
from splitoct import triality as tr
from splitoct.exact import trilinear_form

MATRIX = Path(__file__).resolve().parent / "data" / "catch_matrix.json"
ESCAPE_FOUND = ("CHANGES.md, the FOUND: line that begins "
                "\"`verify all` does not check three of the compiled int forms\"")


def flipped_action(monkeypatch, mu, nu, row):
    """Flip the sign of one row of the action of Gamma_mu Gamma_nu, and of
    the same row of the action stored under (nu, mu), its negation."""
    action = list(cl._bivector_action(mu, nu))
    j, g = action[row]
    action[row] = (j, -g)
    monkeypatch.setitem(cl._BIV_REP, (mu, nu), tuple(action))
    monkeypatch.setitem(cl._BIV_REP, (nu, mu), tuple((c, -g) for c, g in action))


def _negated_term(monkeypatch, table, form, build, n):
    terms = list(getattr(cl, table))
    *slots, k = terms[n]
    terms[n] = (*slots, -k)
    monkeypatch.setattr(cl, table, tuple(terms))
    monkeypatch.setattr(cl, form, build(terms))


def negated_matrix_term(monkeypatch, n):
    """Negate term n of the matrix form's table and recompile the form from it."""
    _negated_term(monkeypatch, "_TRILINEAR_TERMS", "_TRILINEAR", trilinear_form, n)


def negated_spinor_term(monkeypatch, n):
    """Negate term n of the spinor invariant's table and recompile the form from it."""
    _negated_term(monkeypatch, "_Q_SPINOR_TERMS", "_SPINOR_FORM", cl._spinor_form, n)


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
}
KNOWN_ESCAPES = {
    "cl._TRILINEAR + 1": lambda mp: plus_one(mp, cl, "_TRILINEAR"),
    "oc._INT_TRILINEAR + 1": lambda mp: plus_one(mp, oc, "_INT_TRILINEAR"),
    "cl._SPINOR_FORM + 1": lambda mp: plus_one(mp, cl, "_SPINOR_FORM"),
}


def verdict(install) -> dict:
    """Exit code and failing reports of `verify all` with one fault installed."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        install(mp)
        mp.setattr(tr, "_ORACLE_CACHE", None)      # verify the dictionary again
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "all"])
    reports = json.loads(out.getvalue())["reports"]
    return {"exit": code, "failing": [r["name"] for r in reports if not r["passed"]]}


def generate() -> dict:
    return {"command": "sot verify all",
            "faults": {name: verdict(install) for name, install in FAULTS.items()},
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
