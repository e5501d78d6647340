"""Command-line front end: tables, verification suites, transformations and
trilinear evaluations with machine-readable output.

Structured output goes to stdout, diagnostics to stderr.  Exit codes:
0 success / all suites pass, 1 verification failure, 2 usage error.  Only
`verify` imports numpy; the other subcommands run on the standard library.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import clifford as cl
from . import octonion as oc
from . import triality as tr
from .report import VerificationReport

SUITES = ("moufang", "malcev", "clifford", "associators", "correspondence",
          "triality", "all")
OVERFLOW = "the result overflows float64"
DRIFT_LIMIT = 1e-8      # largest invariant change, relative to |input|^2


class RunConfig:
    """What `verify` reads beyond the suite name."""

    def __init__(self, seed: int, tolerance: float, samples: int):
        self.seed, self.tolerance, self.samples = seed, tolerance, samples
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


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


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _num(v):
    """JSON-safe scalar: exact ints stay ints, Fractions become strings."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


def _round12(v: float) -> float:
    """v rounded to 12 decimals as numpy.round does it: scale by 1e12, round
    half to even, scale back; the sign of a zero is kept."""
    y = v * 1e12
    if not math.isfinite(y):
        return y / 1e12
    return math.copysign(float(round(y)), y) / 1e12


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    sc = oc.StructureConstants.standard()
    products = []
    for a in range(8):
        for b in range(8):
            idx, sign = sc.product(a, b)
            products.append({"left": oc.UNIT_NAMES[a], "right": oc.UNIT_NAMES[b],
                             "result_unit": oc.UNIT_NAMES[idx], "sign": sign})
    families = []
    for a in oc.HYPER:
        for b in oc.HYPER:
            for c in oc.HYPER:
                val = oc.expected_associator(a, b, c)
                if not val.is_zero():
                    families.append({
                        "x": oc.UNIT_NAMES[a], "y": oc.UNIT_NAMES[b], "z": oc.UNIT_NAMES[c],
                        "value": {oc.UNIT_NAMES[k]: _num(v)
                                  for k, v in enumerate(val.c) if v != 0}})
    if args.format == "json":
        _emit_json({"products": products, "nonvanishing_associators": families})
    elif args.format == "csv":
        print("left,right,result_unit,sign")
        for p in products:
            print(f"{p['left']},{p['right']},{p['result_unit']},{p['sign']}")
    else:
        print("unit product table (row * column):")
        hdr = "      " + "".join(f"{n:>6}" for n in oc.UNIT_NAMES)
        print(hdr)
        for a in range(8):
            cells = []
            for b in range(8):
                idx, sign = sc.product(a, b)
                cells.append(f"{'-' if sign < 0 else '+'}{oc.UNIT_NAMES[idx]}")
            print(f"{oc.UNIT_NAMES[a]:>6}" + "".join(f"{c:>6}" for c in cells))
        print(f"\n{len(families)} non-vanishing associator triples")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _run_suite(name: str, cfg: RunConfig):
    if name == "moufang":
        return [oc.verify_moufang()]
    if name == "malcev":
        return [oc.verify_malcev()]
    if name == "clifford":
        return [cl.verify_clifford()]
    if name == "associators":
        return [oc.verify_associators()]
    if name == "correspondence":
        return [tr.correspondence_check(cfg.samples, cfg.seed)]
    if name == "triality":
        return [
            tr.infinitesimal_table_check("01"),
            tr.boost_table_check(),
            tr.role_swap_check(),
            tr.double_cover_check(tol=cfg.tolerance),
            tr.dictionary_random_check(cfg.samples, cfg.seed),
            tr.trilinear_invariance_check(max(1, cfg.samples // 5), cfg.seed,
                                          tol=cfg.tolerance),
            tr.rotor_invariance_check(cfg.samples, cfg.seed, tol=cfg.tolerance),
        ]
    raise ValueError(name)


def _generation_report():
    rep = VerificationReport("basis-generation")
    try:
        generated = oc.generate_basis_from_J()
        standard = oc.StructureConstants.standard()
        same = json.dumps(generated.to_json()) == json.dumps(standard.to_json())
        rep.record_case(same, "generated table differs from the hard-coded one")
    except oc.ConstructionError as exc:
        rep.record_case(False, f"construction failed: {exc}")
    return rep


def cmd_verify(args) -> int:
    cfg = RunConfig(seed=args.seed, tolerance=args.tolerance, samples=args.samples)
    if args.suite not in SUITES:
        return _usage_error(f"unknown suite '{args.suite}'; choose from {', '.join(SUITES)}")
    reports = []
    if args.suite == "all":
        reports.append(_generation_report())
        reports.append(oc.verify_table())
        for s in ("moufang", "malcev", "clifford", "associators", "correspondence",
                  "triality"):
            reports.extend(_run_suite(s, cfg))
    else:
        reports = _run_suite(args.suite, cfg)
    all_pass = all(r.passed for r in reports)
    payload = {"suite": args.suite, "passed": all_pass,
               "reports": [r.to_json() for r in reports]}
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        print("name,cases,failures,max_residual,exact,passed")
        for r in reports:
            print(f"{r.name},{r.cases},{r.failures},{r.max_residual},{r.exact},{r.passed}")
    else:
        for r in reports:
            state = "PASS" if r.passed else "FAIL"
            print(f"{state} {r.name}: {r.cases} cases, {r.failures} failures, "
                  f"max residual {r.max_residual:.3e}")
            for d in r.failure_details:
                print(f"     {d}")
        print("ALL PASS" if all_pass else "FAILURES PRESENT")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# rotate
# ---------------------------------------------------------------------------

def cmd_rotate(args) -> int:
    _require_finite("theta must be finite", [args.theta])
    try:
        mu_s, nu_s = args.plane.split(",")
        mu, nu = int(mu_s), int(nu_s)
    except ValueError:
        return _usage_error("plane must be 'mu,nu' with integer indices")
    if not (0 <= mu <= 7 and 0 <= nu <= 7):
        return _usage_error("plane indices must be in 0..7")
    if mu == nu:
        return _usage_error("plane indices must differ")
    want = 8 if args.target == "vector" else 16
    comps = _parse_components(args.components, want)
    r = cl.rotor(mu, nu, args.theta)
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
    # the invariant to rounding can trip this
    if abs(after - before) > DRIFT_LIMIT * max(1.0, sum(v * v for v in comps)):
        return _usage_error(f"the invariant moved from {before} to {after}: "
                            "the boost is too strong for float64")
    payload = {"target": args.target, "plane": [mu, nu],
               "compact": r.compact, "theta": args.theta,
               "input": comps, "output": out,
               "invariant_before": _num(before), "invariant_after": _num(after)}
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        print("component,input,output")
        for k, (i, o) in enumerate(zip(comps, out)):
            print(f"{k},{i},{o}")
    else:
        kind = "compact rotation" if r.compact else "hyperbolic boost"
        print(f"{kind} in plane ({mu},{nu}), theta={args.theta}")
        print("input :", [_round12(v) for v in comps])
        print("output:", [_round12(v) for v in out])
        print(f"invariant: {before} -> {after}")
    return 0


# ---------------------------------------------------------------------------
# trilinear
# ---------------------------------------------------------------------------

def cmd_trilinear(args) -> int:
    exact = args.mode == "exact"
    phi = _parse_components(args.phi, 8, exact)
    x = _parse_components(args.x, 8, exact)
    psi = _parse_components(args.psi, 8, exact)
    payload = {"representation": args.representation, "mode": args.mode}
    if args.representation in ("matrix", "both"):
        payload["matrix"] = _num(cl.trilinear_matrix(phi, x, psi))
    if args.representation in ("octonion", "both"):
        v = tr.trilinear_oct(tr.oct_from_components(phi), tr.oct_from_components(x),
                             tr.oct_from_components(psi))
        payload["octonion"] = _num(v)
    if args.representation == "both":
        try:
            mat_val, oct_mapped = tr.trilinear_both(phi, x, psi)
        except tr.OracleError as exc:
            print(f"error: trilinear dictionary unavailable: {exc}", file=sys.stderr)
            return 1
        residual = (abs(mat_val - oct_mapped) if exact
                    else abs(float(mat_val) - float(oct_mapped)))
        payload["octonion_mapped"] = _num(oct_mapped)
        payload["residual"] = _num(residual)
        payload["dictionary"] = tr.equivalence_map().to_json()
    _require_finite(OVERFLOW, payload.values())
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        keys = [k for k in ("matrix", "octonion", "octonion_mapped", "residual")
                if k in payload]
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))
    else:
        for k in ("matrix", "octonion", "octonion_mapped", "residual"):
            if k in payload:
                print(f"{k}: {payload[k]}")
    return 0


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def cmd_matrices(args) -> int:
    exact = args.mode == "exact"
    which = args.which
    if args.index is not None and which not in ("alpha", "gamma"):
        return _usage_error(f"--index selects one alpha or gamma matrix; '{which}' has none")
    out = {}
    if which == "alpha":
        sel = range(8) if args.index is None else [args.index]
        for mu in sel:
            if not 0 <= mu <= 7:
                return _usage_error("index must be in 0..7")
            out[f"alpha{mu}"] = cl.alpha(mu).to_json(exact)
    elif which == "gamma":
        sel = range(8) if args.index is None else [args.index]
        for mu in sel:
            if not 0 <= mu <= 7:
                return _usage_error("index must be in 0..7")
            out[f"gamma{mu}"] = cl.gamma(mu).to_json(exact)
    elif which == "B":
        out["B"] = cl.b_matrix().to_json(exact)
    elif which == "xi":
        out["xi"] = cl.XI_M.to_json(exact)
        out["note"] = "matrix is scaled by 1/sqrt(2) when applied"
    else:
        return _usage_error(f"unknown matrix selector '{which}'")
    if args.format == "json":
        _emit_json(out)
    elif args.format == "csv":
        for name, mat in out.items():
            if name == "note":
                continue
            for r, row in enumerate(mat):
                for c, e in enumerate(row):
                    print(f"{name},{r},{c},{e['re']},{e['im']}")
    else:
        for name, mat in out.items():
            if name == "note":
                print(out["note"])
                continue
            print(f"{name}:")
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
                print(" ".join(cells))
    return 0


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
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", parents=[fmt], help="run an identity-verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p.add_argument("--seed", type=int, default=tr.DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rotate", parents=[fmt], help="apply a rotor to a vector or spinor")
    p.add_argument("--plane", required=True, help="mu,nu plane indices")
    p.add_argument("--theta", type=float, required=True,
                   help="angle (compact plane) or rapidity (boost plane), radians")
    p.add_argument("--target", choices=("vector", "spinor"), required=True)
    p.add_argument("--components", required=True,
                   help="comma-separated components (8 for vector, 16 for spinor)")
    p.set_defaults(fn=cmd_rotate)

    p = sub.add_parser("trilinear", parents=[fmt],
                       help="evaluate the invariant trilinear form")
    p.add_argument("--phi", required=True, help="8 comma-separated components")
    p.add_argument("--x", required=True, help="8 comma-separated components")
    p.add_argument("--psi", required=True, help="8 comma-separated components")
    p.add_argument("--representation", choices=("matrix", "octonion", "both"),
                   default="both")
    p.add_argument("--mode", choices=("exact", "float"), default="float")
    p.set_defaults(fn=cmd_trilinear)

    p = sub.add_parser("matrices", parents=[fmt], help="emit alpha/gamma/B/xi matrices")
    p.add_argument("--which", choices=("alpha", "gamma", "B", "xi"), required=True)
    p.add_argument("--index", type=int, default=None, help="single mu for alpha/gamma")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(fn=cmd_matrices)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (cl.ChiralityError, UsageError, ValueError) as exc:
        return _usage_error(str(exc))
    except OverflowError:
        return _usage_error(OVERFLOW)


if __name__ == "__main__":
    sys.exit(main())
