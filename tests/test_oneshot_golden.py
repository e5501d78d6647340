"""The one-shot subcommands against a pinned corpus of their emissions.

``tests/data/oneshot_golden.json`` holds, for every argument list of
CORPUS, the exit code, the stderr and the stdout of ``cli.main`` (the
stdout itself when it is short, its sha256 otherwise).  Every byte of
stderr must match, and every byte of stdout, apart from
the float invariants of ``rotate`` and the float-mode ``matrix`` and
``residual`` of ``trilinear``: those are correctly rounded sums of their
terms (``math.fsum``), and may differ in the last digits from a capture
made with another summation.  They must agree with it to 1e-12 of the
size of their terms, and keep their printed type: a float has a '.' or
an exponent, an int neither.

    PYTHONPATH=src python tests/test_oneshot_golden.py --write

rewrites the file from the current code.  The suites that run on the
standard library (`verify clifford`, `moufang` and `associators`, and the
generator tables of `verify triality`) are compared with their reports in
``tests/data/verify_all_12345.json``.
"""
import contextlib
import functools
import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from splitoct import cli
from splitoct import triality as tr

GOLDEN = Path(__file__).resolve().parent / "data" / "oneshot_golden.json"
VERIFY_ALL = GOLDEN.parent / "verify_all_12345.json"
FORMATS = ("json", "csv", "pretty")
INLINE_LIMIT = 4096          # longer stdout is pinned by its sha256
REL_TOL = 1e-12
# phi, x, psi with wide integral components, where a float sum of the
# octonionic form rounds away from the exact value
WIDE = ("-3,8,6,5,7,-1,-8,8", "-9,-7,3,-9,6,1,-2,1",
        "-988366003575599987070,255115757052525741625,506853752001842494855,"
        "-525645748794662593319,-713701805943924243671,381552158017985226516,"
        "-709096279091886270377,303156961878633222535")


def _corpus():
    cases = []

    def add(*argv, formats=FORMATS):
        for fmt in formats:
            cases.append([*argv, f"--format={fmt}"])

    add("table")
    for which in ("alpha", "gamma", "B", "xi"):
        for mode in ("exact", "float"):
            add("matrices", f"--which={which}", f"--mode={mode}")
    add("matrices", "--which=alpha", "--index=3")
    add("matrices", "--which=gamma", "--index=6", "--mode=float")
    add("matrices", "--which=gamma", "--index=8", formats=("json",))
    add("matrices", "--which=alpha", "--index=-1", formats=("json",))

    vectors = ["1,0,0,0,0,0,0,0", "1,2,3,4,5,6,7,8", "-0.0,0,0.5,-1.25,0,-0.0,3,2",
               "0,0,0,0,0,0,0,0", "0.1,-0.2,0.3,-0.4,0.5,-0.6,0.7,-0.8"]
    spinors = ["1,2,3,4,5,6,7,8,0,0,0,0,0,0,0,0",             # pure phi
               "0,0,0,0,0,0,0,0,-1,2,-3,4,-5,6,-7,8",          # pure psi
               "-0.0,0.5,0,-1.5,2,0,-0.0,1,0,0,0,0,0,0,0,0",   # pure phi, signed zeros
               "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,-0.8,0.7,-0.6,0.5,-0.4,0.3,-0.2,0.1",
               "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
               "1,-0.0,0,0,0,0,0,0,0,0,0,0,0,0,0,-0.0"]
    # compact planes and boosts, with angles past pi (negative cosine)
    turns = [("0,1", "0.7"), ("4,5", "-2.5"), ("2,3", "4.0"), ("6,7", "-3.5"),
             ("5,2", "7.0"), ("0,4", "1.0"), ("1,6", "-0.3"), ("7,2", "2.5"),
             ("0,1", "0"), ("2,3", "6.283185307179586")]
    for k, (plane, theta) in enumerate(turns):
        add("rotate", f"--plane={plane}", f"--theta={theta}", "--target=vector",
            f"--components={vectors[k % len(vectors)]}")
        add("rotate", f"--plane={plane}", f"--theta={theta}", "--target=spinor",
            f"--components={spinors[k % len(spinors)]}")
    # usage errors: exit 2 and an empty stdout
    for argv in (["--plane=3,3", "--theta=1", "--target=vector", f"--components={vectors[0]}"],
                 ["--plane=0,8", "--theta=1", "--target=vector", f"--components={vectors[0]}"],
                 ["--plane=a,b", "--theta=1", "--target=vector", f"--components={vectors[0]}"],
                 ["--plane=0,1", "--theta=1", "--target=vector", "--components=1,2"],
                 ["--plane=0,1", "--theta=nan", "--target=vector", f"--components={vectors[0]}"],
                 ["--plane=0,1", "--theta=1", "--target=spinor",
                  "--components=inf" + ",0" * 15],
                 ["--plane=0,4", "--theta=800", "--target=vector", f"--components={vectors[0]}"],
                 ["--plane=0,4", "--theta=20", "--target=vector", f"--components={vectors[0]}"],
                 ["--plane=0,4", "--theta=40", "--target=spinor", f"--components={spinors[0]}"]):
        add("rotate", *argv, formats=("json",))
    # finite components too large to scale by 1e12: pretty prints them unrounded
    add("rotate", "--plane=0,1", "--theta=0.5", "--target=spinor",
        "--components=1e300" + ",0" * 15)

    ints = [("1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1"),
            ("1,-2,3,0,5,-6,7,9", "0,0,4,-1,2,8,-3,5", "-7,6,0,2,-1,3,4,-9"),
            ("0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0"),
            (f"{2 ** 70},0,-3,0,0,0,0,1", f"0,{-(2 ** 65)},0,0,7,0,0,0",
             f"5,0,0,{2 ** 64},0,0,0,-1")]
    floats = [("0.5,-1.25,0,2,3.5,-0.0,1,0.1", "1,0.2,-0.3,0.4,0,-0.6,0.7,0.8",
               "-0.9,0.1,0.2,-0.3,0.4,0.5,-0.6,0.7"),
              ("1e-3,2e5,-3.3,4,5,6,7,8", "-0.0,0,0,0,0,0,0,1", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"),
              ("0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1", "0.2,0.2,0.2,0.2,0.2,0.2,0.2,0.2",
               "0.3,-0.3,0.3,-0.3,0.3,-0.3,0.3,-0.3")]
    for mode, triples in (("exact", ints), ("float", ints[:2] + floats)):
        for k, (phi, x, psi) in enumerate(triples):
            for rep in ("matrix", "octonion", "both"):
                add("trilinear", f"--phi={phi}", f"--x={x}", f"--psi={psi}",
                    f"--representation={rep}", f"--mode={mode}",
                    formats=FORMATS if rep == "both" or k == 1 else ("json",))
    for argv in (["--phi=1.5,0,0,0,0,0,0,0", f"--x={ints[0][1]}", f"--psi={ints[0][2]}",
                  "--mode=exact"],
                 ["--phi=nan,0,0,0,0,0,0,0", f"--x={ints[0][1]}", f"--psi={ints[0][2]}"],
                 ["--phi=1e200,0,0,0,0,0,0,0.5", "--x=1e200,0,0,0,0,0,0,0",
                  "--psi=1e200,0,0,0,0,0,0,0"],
                 ["--phi=1,2", f"--x={ints[0][1]}", f"--psi={ints[0][2]}"]):
        add("trilinear", *argv, formats=("json",))
    # every term of the octonion form is skipped: float mode still emits floats
    add("trilinear", "--phi=0.5,0,0,0,0,0,0,0", "--x=1.5,0,0,0,0,0,0,0",
        "--psi=0,1.5,0,0,0,0,0,0", "--representation=both", "--mode=float")
    # wide integral components: every representation reads them as ints and
    # rounds once, so octonion and matrix agree to the last digit
    for rep in ("matrix", "octonion", "both"):
        add("trilinear", f"--phi={WIDE[0]}", f"--x={WIDE[1]}", f"--psi={WIDE[2]}",
            f"--representation={rep}", "--mode=float")

    add("verify", "clifford")
    return cases


CORPUS = _corpus()


def run_cli(argv):
    """Exit code, stdout and stderr of cli.main(argv); argparse errors exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def pinned(stdout):
    if len(stdout) <= INLINE_LIMIT:
        return {"stdout": stdout}
    return {"stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def write_golden():
    cases = []
    for argv in CORPUS:
        code, stdout, stderr = run_cli(argv)
        cases.append({"argv": argv, "code": code, "stderr": stderr, **pinned(stdout)})
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")


# ---------------------------------------------------------------------------
# the fields allowed to change: their values, and the text without them
# ---------------------------------------------------------------------------

NUMBER = r"-?[0-9][0-9.e+-]*"


def _flags(argv):
    return dict(a[2:].split("=", 1) for a in argv[1:] if a.startswith("--"))


def declared_fields(argv):
    """Names of the fields whose float value may differ from the capture."""
    flags = _flags(argv)
    if argv[0] == "rotate":
        return ("invariant_before", "invariant_after")
    if argv[0] == "trilinear" and flags.get("mode", "float") == "float":
        return ("matrix", "residual")
    return ()


def split_declared(argv, text):
    """(text with each declared value replaced by '#', the values in order)."""
    names = declared_fields(argv)
    if not names or not text:
        return text, []
    fmt = _flags(argv)["format"]
    values = []

    def take(match):
        values.append(match.group(2))
        return match.group(1) + "#"

    if fmt == "json":
        pattern = r'("(?:%s)": )(%s)' % ("|".join(names), NUMBER)
        return re.sub(pattern, take, text), values
    if fmt == "pretty" and argv[0] == "rotate":
        return re.sub(r"(invariant: )(%s)" % NUMBER, take,
                      re.sub(r"( -> )(%s)$" % NUMBER, take, text, flags=re.M)), values[::-1]
    if fmt == "pretty":
        return re.sub(r"^((?:%s): )(%s)$" % ("|".join(names), NUMBER), take, text,
                      flags=re.M), values
    if argv[0] == "rotate":          # the csv of rotate has no invariant
        return text, []
    header, row = text.splitlines()
    cells = row.split(",")
    for k, name in enumerate(header.split(",")):
        if name in names:
            values.append(cells[k])
            cells[k] = "#"
    return f"{header}\n{','.join(cells)}\n", values


def is_float_token(token):
    """Whether a printed number is a float: it has a '.' or an exponent,
    where an int has neither."""
    return any(ch in token for ch in ".eE")


def term_size(argv, text):
    """The size the declared values are compared at: the Euclidean size of
    the components for rotate (input or output, whichever is larger), the
    product of the sizes of the three arguments for trilinear; at least 1."""
    flags = _flags(argv)
    if argv[0] == "trilinear":
        size = 1.0
        for slot in ("phi", "x", "psi"):
            size *= math.fsum(abs(float(v)) for v in flags[slot].split(","))
        return max(size, 1.0)
    comps = [float(v) for v in flags["components"].split(",")]
    outputs = [float(v) for v in re.findall(NUMBER, text.split("output", 1)[1].split("]")[0])]
    return max(math.fsum(v * v for v in comps), math.fsum(v * v for v in outputs), 1.0)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@functools.cache
def _cases():
    return json.loads(GOLDEN.read_text())["cases"]


def test_corpus_is_the_pinned_one():
    assert [c["argv"] for c in _cases()] == CORPUS


def test_corpus_covers_every_subcommand_format_and_mode():
    seen = {(a[0], _flags(a).get("target"), _flags(a).get("mode"), _flags(a)["format"])
            for a in CORPUS}
    for fmt in FORMATS:
        assert ("table", None, None, fmt) in seen
        assert ("rotate", "vector", None, fmt) in seen
        assert ("rotate", "spinor", None, fmt) in seen
        for mode in ("exact", "float"):
            assert ("trilinear", None, mode, fmt) in seen
            assert ("matrices", None, mode, fmt) in seen
    assert {c["code"] for c in _cases()} == {0, 2}


@pytest.mark.parametrize("k", range(len(CORPUS)), ids=lambda k: " ".join(CORPUS[k]))
def test_oneshot_matches_golden(k):
    case = _cases()[k]
    argv = case["argv"]
    code, stdout, stderr = run_cli(argv)
    assert (code, stderr) == (case["code"], case["stderr"])
    if "stdout_sha256" in case:
        assert pinned(stdout) == {"stdout_sha256": case["stdout_sha256"]}
        return
    if stdout == case["stdout"]:
        return
    got_text, got = split_declared(argv, stdout)
    want_text, want = split_declared(argv, case["stdout"])
    assert got_text == want_text
    assert len(got) == len(want) > 0
    size = term_size(argv, stdout)
    for g, w in zip(got, want):
        assert abs(float(g) - float(w)) <= REL_TOL * size, (g, w)
        assert is_float_token(g) == is_float_token(w), (g, w)


@functools.cache
def _verify_all_reports():
    return {r["name"]: r for r in json.loads(VERIFY_ALL.read_text())["reports"]}


@pytest.mark.parametrize("suite", ["clifford", "moufang", "associators"])
def test_standard_library_suites_match_verify_all(suite):
    code, stdout, stderr = run_cli(["verify", suite])
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["reports"] == [_verify_all_reports()[suite]]


# the generator-table suites of `verify triality`, by report name
GENERATOR_TABLE_SUITES = {"infinitesimal-L01": lambda: tr.infinitesimal_table_check("01"),
                          "boost-table": tr.boost_table_check,
                          "role-swap": tr.role_swap_check}


@pytest.mark.parametrize("name", GENERATOR_TABLE_SUITES)
def test_generator_table_suites_match_verify_all(name):
    # round-tripped through JSON, as `verify all` emits it
    report = GENERATOR_TABLE_SUITES[name]().to_json()
    assert json.loads(json.dumps(report)) == _verify_all_reports()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
