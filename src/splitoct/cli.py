"""Command-line front end: tables, verification suites, transformations and
trilinear evaluations with machine-readable output.

Each subcommand builds one payload, the object that ``--format json``
emits; ``main`` chooses the format in one place, and the csv and pretty
renderers of a subcommand read nothing but its payload.  Structured output
goes to stdout, diagnostics to stderr.  Exit codes: 0 success / all suites
pass, 1 verification failure, 2 usage error.  Only `verify` compiles the
suites: RUNS calls each one through its entry point on ``oc`` or ``tr``
(``octonion._sweep``).  `verify clifford`, `moufang` and `associators`
run on the standard library; the others import ``sweeps`` and with it
numpy.  The other subcommands run on the standard library; `table` imports
``units`` for its associator triples, which come from the six families
(``units.predicted_associators``), not from the unit table.  `verify`
(every suite) and `matrices` import ``matrices``, the paper's alpha, Gamma,
B and xi data, whose import-time checks refuse broken data; `rotate`,
`trilinear` and `table` read the spinor tables off the unit table alone.

``run`` is the process entry, which the ``sot`` console script and
``python -m splitoct.cli`` call: it runs ``main`` with the cyclic collector
off and freezes the heap before the interpreter shuts down, so no
collection walks the heap the command built.  ``main(argv)`` is the
in-process call: it leaves the collector as it found it, for tests and for
callers that go on running.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from fractions import Fraction

from . import clifford as cl
from . import octonion as oc
from . import triality as tr
from .report import VerificationReport

OVERFLOW = "the result overflows float64"
DRIFT_LIMIT = 1e-8      # largest invariant change, relative to |input|^2


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


class UsageError(Exception):
    pass


def _parse_components(text: str, want: int, exact: bool = False):
    """Finite floats, or Python ints of any size when ``exact``."""
    try:
        vals = [(int if exact else float)(v) for v in text.split(",")]
    except ValueError:
        raise UsageError("exact mode needs integer components" if exact
                         else "components must be a comma-separated number list")
    if len(vals) != want:
        raise UsageError(f"expected {want} components, got {len(vals)}")
    _require_finite("components must be finite", vals)
    return vals


def _require_finite(message: str, values) -> None:
    """Refuse a non-finite float: it has no JSON form and no meaning here."""
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise UsageError(message)


def _num(v):
    """JSON-safe scalar: exact ints stay ints, Fractions become strings."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


def _round12(v: float) -> float:
    """v rounded to 12 decimals as numpy.round does it: scale by 1e12, round
    half to even, scale back; the sign of a zero is kept.  v stays as it is
    where the scaling overflows: it has no decimals to round there."""
    y = v * 1e12
    if not math.isfinite(y):
        return v
    return math.copysign(float(round(y)), y) / 1e12


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args) -> dict:
    products = []
    for a in range(8):
        for b in range(8):
            idx, sign = oc._TABLE[a][b]
            products.append({"left": oc.UNIT_NAMES[a], "right": oc.UNIT_NAMES[b],
                             "result_unit": oc.UNIT_NAMES[idx], "sign": sign})
    from . import units
    families = [{"x": oc.UNIT_NAMES[a], "y": oc.UNIT_NAMES[b], "z": oc.UNIT_NAMES[c],
                 "value": {oc.UNIT_NAMES[k]: v for k, v in enumerate(value) if v}}
                for (a, b, c), value in units.predicted_associators().items() if any(value)]
    return {"products": products, "nonvanishing_associators": families}


def _table_csv(payload):
    yield "left,right,result_unit,sign"
    for p in payload["products"]:
        yield f"{p['left']},{p['right']},{p['result_unit']},{p['sign']}"


def _table_pretty(payload):
    products = payload["products"]          # row-major, 8 per row
    yield "unit product table (row * column):"
    yield "      " + "".join(f"{p['right']:>6}" for p in products[:8])
    for start in range(0, 64, 8):
        row = products[start:start + 8]
        cells = [f"{'-' if p['sign'] < 0 else '+'}{p['result_unit']}" for p in row]
        yield f"{row[0]['left']:>6}" + "".join(f"{c:>6}" for c in cells)
    yield ""
    yield f"{len(payload['nonvanishing_associators'])} non-vanishing associator triples"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# suite -> (whether it reads --seed, its reports for that seed); `all` runs
# the basis generation and the table check, then every suite in this order.
# The verdict's sizes and tolerance are constants of ``sweeps``, not arguments.
RUNS = {
    "moufang": (False, lambda seed: [oc.verify_moufang()]),
    "malcev": (False, lambda seed: [oc.verify_malcev()]),
    "clifford": (False, lambda seed: [cl.verify_clifford()]),
    "associators": (False, lambda seed: [oc.verify_associators()]),
    "correspondence": (True, lambda seed: [tr.correspondence_check(seed=seed)]),
    "triality": (True, lambda seed: [
        tr.infinitesimal_table_check("01"),
        tr.boost_table_check(),
        tr.role_swap_check(),
        tr.double_cover_check(),
        tr.dictionary_random_check(seed=seed),
        tr.trilinear_invariance_check(seed=seed),
        tr.rotor_invariance_check(seed=seed),
    ]),
}
SUITES = (*RUNS, "all")


def _generation_report():
    rep = VerificationReport("basis-generation")
    try:
        generated = oc.generate_basis_from_J()
        same = generated.table == tuple(map(tuple, oc._TABLE))
        rep.record_case(same, "generated table differs from the hard-coded one")
    except oc.ConstructionError as exc:
        rep.record_case(False, f"construction failed: {exc}")
    return rep


def cmd_verify(args) -> dict:
    # every verdict rests on the paper's matrices: their import-time checks
    # (xi unitarity, the bridge to the unit table's generators, the pin)
    # refuse broken alpha or xi data before any suite runs; they compose no
    # Gamma product, and the clifford report composes the 64 once
    from . import matrices  # noqa: F401
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite '{args.suite}'; choose from {', '.join(SUITES)}")
    names = list(RUNS) if args.suite == "all" else [args.suite]
    if args.seed is not None and not any(RUNS[name][0] for name in names):
        raise UsageError(f"suite '{args.suite}' does not read --seed")
    seed = tr.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        raise UsageError("--seed must be non-negative")
    reports = [_generation_report(), oc.verify_table()] if args.suite == "all" else []
    for name in names:
        reports += RUNS[name][1](seed)
    return {"suite": args.suite, "passed": all(r.passed for r in reports),
            "reports": [r.to_json() for r in reports]}


def _verify_csv(payload):
    yield "name,cases,failures,max_residual,exact,passed"
    for r in payload["reports"]:
        yield (f"{r['name']},{r['cases']},{r['failures']},{r['max_residual']},"
               f"{r['exact']},{r['passed']}")


def _verify_pretty(payload):
    for r in payload["reports"]:
        yield (f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['cases']} cases, "
               f"{r['failures']} failures, max residual {r['max_residual']:.3e}")
        for d in r["failure_details"]:
            yield f"     {d}"
    yield "ALL PASS" if payload["passed"] else "FAILURES PRESENT"


# ---------------------------------------------------------------------------
# rotate
# ---------------------------------------------------------------------------

def cmd_rotate(args) -> dict:
    _require_finite("theta must be finite", [args.theta])
    try:
        mu_s, nu_s = args.plane.split(",")
        mu, nu = int(mu_s), int(nu_s)
    except ValueError:
        raise UsageError("plane must be 'mu,nu' with integer indices")
    r = cl.rotor(mu, nu, args.theta)       # ValueError for mu == nu or past 0..7
    want = 8 if args.target == "vector" else 16
    comps = _parse_components(args.components, want)
    if args.target == "vector":
        before = cl.quadratic_form(comps)
        out = cl.rotate_vector_list(comps, r)
        after = cl.quadratic_form(out)
    else:
        before = cl.spinor_invariant(comps)
        out = cl.rotate_spinor_list(comps, r)
        after = cl.spinor_invariant(out)
    _require_finite(OVERFLOW, [*out, before, after])
    # a compact rotation keeps |x|, so only a boost strong enough to lose
    # the invariant to rounding can trip this; the finite floats are exact
    # rationals, so the comparison is made exactly, where |input|^2 cannot
    # overflow
    drift = abs(Fraction(after) - Fraction(before))
    if drift > Fraction(DRIFT_LIMIT) * max(1, sum(Fraction(v) ** 2 for v in comps)):
        raise UsageError(f"the invariant moved from {before} to {after}: "
                         "the boost is too strong for float64")
    return {"target": args.target, "plane": [mu, nu],
            "compact": r.compact, "theta": args.theta,
            "input": comps, "output": out,
            "invariant_before": _num(before), "invariant_after": _num(after)}


def _rotate_csv(payload):
    yield "component,input,output"
    for k, (i, o) in enumerate(zip(payload["input"], payload["output"])):
        yield f"{k},{i},{o}"


def _rotate_pretty(payload):
    kind = "compact rotation" if payload["compact"] else "hyperbolic boost"
    mu, nu = payload["plane"]
    yield f"{kind} in plane ({mu},{nu}), theta={payload['theta']}"
    yield f"input : {[_round12(v) for v in payload['input']]}"
    yield f"output: {[_round12(v) for v in payload['output']]}"
    yield f"invariant: {payload['invariant_before']} -> {payload['invariant_after']}"


# ---------------------------------------------------------------------------
# trilinear
# ---------------------------------------------------------------------------

TRILINEAR_VALUES = ("matrix", "octonion", "octonion_mapped", "residual")


def cmd_trilinear(args) -> dict:
    """Raises tr.OracleError when the dictionary fails its check; ``both``
    emits the values it maps, not the dictionary (``tr.equivalence_map()``)."""
    exact = args.mode == "exact"
    phi = _parse_components(args.phi, 8, exact)
    x = _parse_components(args.x, 8, exact)
    psi = _parse_components(args.psi, 8, exact)
    payload = {"representation": args.representation, "mode": args.mode}
    if args.representation == "both":
        values = dict(zip(("matrix", "octonion"), tr.trilinear_both(phi, x, psi)))
    elif args.representation == "matrix":
        values = {"matrix": cl.trilinear_matrix(phi, x, psi)}
    else:
        # read as trilinear_both reads it: integral floats as Python ints
        values = {"octonion": tr.trilinear_oct(
            *map(oc.SplitOctonion, cl._trilinear_args(phi, x, psi)))}
    if not exact:
        # integral floats take the exact path; float mode emits floats
        values = {k: float(v) for k, v in values.items()}
    if args.representation == "both":
        values["octonion_mapped"] = values["octonion"]
        values["residual"] = abs(values["matrix"] - values["octonion"])
    payload.update((k, _num(v)) for k, v in values.items())
    _require_finite(OVERFLOW, payload.values())
    return payload


def _trilinear_csv(payload):
    keys = [k for k in TRILINEAR_VALUES if k in payload]
    yield ",".join(keys)
    yield ",".join(str(payload[k]) for k in keys)


def _trilinear_pretty(payload):
    for k in TRILINEAR_VALUES:
        if k in payload:
            yield f"{k}: {payload[k]}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def cmd_matrices(args) -> dict:
    from . import matrices as mx
    exact = args.mode == "exact"
    which = args.which
    if which in ("alpha", "gamma"):
        sel = range(8) if args.index is None else [args.index]
        get = mx.alpha if which == "alpha" else mx.gamma       # ValueError past 0..7
        return {f"{which}{mu}": get(mu).to_json(exact) for mu in sel}
    if args.index is not None:
        raise UsageError(f"--index selects one alpha or gamma matrix; '{which}' has none")
    if which == "B":
        return {"B": mx.b_matrix().to_json(exact)}
    return {"xi": mx.XI_M.to_json(exact), "note": "matrix is scaled by 1/sqrt(2) when applied"}


def _matrices_csv(payload):
    for name, mat in payload.items():
        if name != "note":
            for r, row in enumerate(mat):
                for c, e in enumerate(row):
                    yield f"{name},{r},{c},{e['re']},{e['im']}"


def _matrices_pretty(payload):
    for name, mat in payload.items():
        if name == "note":
            yield mat
            continue
        yield f"{name}:"
        for row in mat:
            cells = []
            for e in row:
                re, im = str(e["re"]), str(e["im"])
                if im in ("0", "0.0"):
                    cells.append(f"{re:>3}")
                elif re in ("0", "0.0"):
                    cells.append(f"{im:>2}i")
                else:
                    cells.append(f"{re}+{im}i")
            yield " ".join(cells)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sot",
        description="Split-octonion and Cl(4,4) computational kernel")
    sub = ap.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("table", parents=[fmt],
                       help="unit multiplication table and associator families")
    p.set_defaults(fn=cmd_table, render={"csv": _table_csv, "pretty": _table_pretty})

    p = sub.add_parser("verify", parents=[fmt], help="run an identity-verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    readers = [suite for suite, (reads_seed, _) in RUNS.items() if reads_seed]
    p.add_argument("--seed", type=int,
                   help=f"read by {', '.join(readers)} and all (default {tr.DEFAULT_SEED})")
    p.set_defaults(fn=cmd_verify, render={"csv": _verify_csv, "pretty": _verify_pretty})

    p = sub.add_parser("rotate", parents=[fmt], help="apply a rotor to a vector or spinor")
    p.add_argument("--plane", required=True, help="mu,nu plane indices")
    p.add_argument("--theta", type=float, required=True,
                   help="angle (compact plane) or rapidity (boost plane), radians")
    p.add_argument("--target", choices=("vector", "spinor"), required=True)
    p.add_argument("--components", required=True,
                   help="comma-separated components (8 for vector, 16 for spinor)")
    p.set_defaults(fn=cmd_rotate, render={"csv": _rotate_csv, "pretty": _rotate_pretty})

    p = sub.add_parser("trilinear", parents=[fmt],
                       help="evaluate the invariant trilinear form")
    p.add_argument("--phi", required=True, help="8 comma-separated components")
    p.add_argument("--x", required=True, help="8 comma-separated components")
    p.add_argument("--psi", required=True, help="8 comma-separated components")
    p.add_argument("--representation", choices=("matrix", "octonion", "both"),
                   default="both")
    p.add_argument("--mode", choices=("exact", "float"), default="float")
    p.set_defaults(fn=cmd_trilinear,
                   render={"csv": _trilinear_csv, "pretty": _trilinear_pretty})

    p = sub.add_parser("matrices", parents=[fmt], help="emit alpha/gamma/B/xi matrices")
    p.add_argument("--which", choices=("alpha", "gamma", "B", "xi"), required=True)
    p.add_argument("--index", type=int, default=None, help="single mu for alpha/gamma")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(fn=cmd_matrices,
                   render={"csv": _matrices_csv, "pretty": _matrices_pretty})
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.fn(args)
        if args.format == "json":
            _emit_json(payload)
        else:
            sys.stdout.write("".join(f"{line}\n" for line in args.render[args.format](payload)))
    except tr.OracleError as exc:
        print(f"error: trilinear dictionary unavailable: {exc}", file=sys.stderr)
        return 1
    except (cl.ChiralityError, UsageError, ValueError) as exc:
        message = str(exc)
    except OverflowError:
        message = OVERFLOW
    else:
        return 0 if payload.get("passed", True) else 1
    print(f"error: {message}", file=sys.stderr)
    return 2


def run() -> int:
    """The process entry: ``main`` on the command line, with the cyclic
    collector off for the command and the heap frozen before shutdown.

    A ``sot`` process ends as soon as its output is written, and the few
    hundred cycles a command leaves are freed with the process, so a
    collection, during the command or at interpreter exit, would only walk
    the modules and the tables the command built.  The collector stays off
    and the frozen objects are not walked again: call this only as the last
    thing a process does."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
