import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import splitoct
from splitoct import cli
from splitoct import clifford as cl
from splitoct import octonion as oc
from splitoct import sweeps
from splitoct import triality as tr
from splitoct import units
from splitoct.report import VerificationReport
from test_oneshot_golden import WIDE, run_cli

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def _refs(node):
    """Every "$ref" value in a JSON document."""
    if isinstance(node, dict):
        if "$ref" in node:
            yield node["$ref"]
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _refs(child)


@pytest.mark.parametrize("name", sorted(p.name for p in SCHEMAS.glob("*.json")))
def test_schema_is_valid_and_uses_every_definition(name):
    schema = load_schema(name)
    jsonschema.Draft202012Validator.check_schema(schema)
    defined = {f"#/$defs/{key}" for key in schema.get("$defs", {})}
    assert defined <= set(_refs(schema)), defined - set(_refs(schema))


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_json_schema(capsys):
    code, out, _ = run(capsys, ["table"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("table.schema.json"))
    entries = {(p["left"], p["right"]): p for p in payload["products"]}
    assert entries[("J1", "J2")]["result_unit"] == "j3"
    assert entries[("J1", "J2")]["sign"] == 1
    assert entries[("I", "I")] == {"left": "I", "right": "I",
                                   "result_unit": "1", "sign": 1}


def test_verify_clifford_case_count(capsys):
    code, out, _ = run(capsys, ["verify", "clifford"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("report.schema.json"))
    assert payload["reports"][0]["cases"] == 64


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, ["verify", "nosuchsuite"])
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("suite", ["moufang", "associators", "correspondence"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run(capsys, ["verify", suite])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("report.schema.json"))
    assert payload["passed"]


def test_verify_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, ["verify", "correspondence", "--seed", "99"])
    _, out2, _ = run(capsys, ["verify", "correspondence", "--seed", "99"])
    assert out1 == out2


def test_rotate_compact_example(capsys):
    code, out, _ = run(capsys, ["rotate", "--plane", "4,5",
                                "--theta", str(math.pi / 2),
                                "--target", "vector",
                                "--components", "0,0,0,0,1,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("rotate.schema.json"))
    want = [0, 0, 0, 0, 0, -1, 0, 0]
    assert all(abs(a - b) < 1e-12 for a, b in zip(payload["output"], want))
    assert abs(payload["invariant_before"] - (-1)) < 1e-12
    assert abs(payload["invariant_after"] - (-1)) < 1e-12


def test_rotate_boost_example(capsys):
    code, out, _ = run(capsys, ["rotate", "--plane", "0,4", "--theta", "1",
                                "--target", "vector",
                                "--components", "1,0,0,0,0,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["output"][0] - math.cosh(1)) < 1e-12
    assert abs(payload["output"][4] - math.sinh(1)) < 1e-12
    assert not payload["compact"]


def test_rotate_theta_zero_echoes(capsys):
    comps = "1,2,3,4,5,6,7,8"
    code, out, _ = run(capsys, ["rotate", "--plane", "2,6", "--theta", "0",
                                "--target", "vector", "--components", comps])
    assert code == 0
    payload = json.loads(out)
    assert payload["output"] == payload["input"]


def test_rotate_usage_errors(capsys):
    code, _, _ = run(capsys, ["rotate", "--plane", "3,3", "--theta", "1",
                              "--target", "vector", "--components", "1,0,0,0,0,0,0,0"])
    assert code == 2
    code, _, _ = run(capsys, ["rotate", "--plane", "0,1", "--theta", "1",
                              "--target", "vector", "--components", "1,2"])
    assert code == 2


def test_trilinear_both_all_ones(capsys):
    ones = ",".join(["1"] * 8)
    code, out, _ = run(capsys, ["trilinear", "--phi", ones, "--x", ones,
                                "--psi", ones, "--mode", "exact"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("trilinear.schema.json"))
    assert payload["matrix"] == payload["octonion_mapped"]
    assert payload["residual"] == 0


def test_trilinear_octonion_scalar(capsys):
    e0 = "1,0,0,0,0,0,0,0"
    code, out, _ = run(capsys, ["trilinear", "--phi", e0, "--x", e0, "--psi", e0,
                                "--representation", "octonion", "--mode", "exact"])
    assert code == 0
    assert json.loads(out)["octonion"] == -1


def test_trilinear_zero_phi(capsys):
    z = "0,0,0,0,0,0,0,0"
    e0 = "1,0,0,0,0,0,0,0"
    code, out, _ = run(capsys, ["trilinear", "--phi", z, "--x", e0, "--psi", e0,
                                "--representation", "matrix"])
    assert code == 0
    assert json.loads(out)["matrix"] == 0


def test_matrices_alpha_nonzero_counts(capsys):
    code, out, _ = run(capsys, ["matrices", "--which", "alpha"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("matrices.schema.json"))
    assert len(payload) == 8
    for mu in range(8):
        mat = payload[f"alpha{mu}"]
        nonzero = sum(1 for row in mat for e in row
                      if e["re"] != "0" or e["im"] != "0")
        assert nonzero == 8


def test_matrices_b_real_signs(capsys):
    code, out, _ = run(capsys, ["matrices", "--which", "B"])
    assert code == 0
    payload = json.loads(out)
    for row in payload["B"]:
        for e in row:
            assert e["im"] == "0"
            assert e["re"] in ("-1", "0", "1")


def test_matrices_gamma_off_diagonal_blocks(capsys):
    code, out, _ = run(capsys, ["matrices", "--which", "gamma", "--index", "1"])
    assert code == 0
    mat = json.loads(out)["gamma1"]
    for r in range(8):
        for c in range(8):
            assert mat[r][c] == {"re": "0", "im": "0"}
            assert mat[r + 8][c + 8] == {"re": "0", "im": "0"}


@pytest.mark.parametrize("which,index", [("B", "3"), ("xi", "9"), ("xi", "0")])
def test_matrices_index_needs_alpha_or_gamma(capsys, which, index):
    code, out, err = run(capsys, ["matrices", "--which", which, "--index", index])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--index" in err


def test_matrices_float_mode(capsys):
    code, out, _ = run(capsys, ["matrices", "--which", "B", "--mode", "float"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("matrices.schema.json"))
    assert isinstance(payload["B"][0][7]["re"], float)


def test_trilinear_exact_past_int64(capsys):
    e0 = "1,0,0,0,0,0,0,0"
    big = 12345678901234567891
    code, out, _ = run(capsys, ["trilinear", "--phi", f"{big},0,0,0,0,0,0,0", "--x", e0,
                                "--psi", e0, "--mode", "exact"])
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == payload["octonion_mapped"] == -big
    assert payload["residual"] == 0


def test_trilinear_exact_refuses_non_integers(capsys):
    e0 = "1,0,0,0,0,0,0,0"
    code, out, err = run(capsys, ["trilinear", "--phi", "1.5,0,0,0,0,0,0,0", "--x", e0,
                                  "--psi", e0, "--mode", "exact"])
    assert (code, out) == (2, "")
    assert "integer" in err


@pytest.mark.parametrize("argv", [
    ["rotate", "--plane", "0,4", "--theta", "800", "--target", "vector",
     "--components", "1,0,0,0,0,0,0,0"],
    ["rotate", "--plane", "0,4", "--theta", "1e6", "--target", "spinor",
     "--components", ",".join(["1"] + ["0"] * 15)],
    ["rotate", "--plane", "0,4", "--theta", "nan", "--target", "vector",
     "--components", "1,0,0,0,0,0,0,0"],
    ["rotate", "--plane", "0,4", "--theta", "1", "--target", "vector",
     "--components", "inf,0,0,0,0,0,0,0"],
    ["trilinear", "--phi", "nan,0,0,0,0,0,0,0", "--x", "1,0,0,0,0,0,0,0",
     "--psi", "1,0,0,0,0,0,0,0"],
    ["trilinear", "--phi", "1e200,0,0,0,0,0,0,0.5", "--x", "1e200,0,0,0,0,0,0,0",
     "--psi", "1e200,0,0,0,0,0,0,0"],
])
def test_non_finite_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["table", "--mode", "exact"],
    ["table", "--seed", "1"],
    ["rotate", "--plane", "0,1", "--theta", "1", "--target", "vector",
     "--components", "1,0,0,0,0,0,0,0", "--samples", "5"],
    ["matrices", "--which", "B", "--tolerance", "1e-9"],
    ["trilinear", "--phi", "1,0,0,0,0,0,0,0", "--x", "1,0,0,0,0,0,0,0",
     "--psi", "1,0,0,0,0,0,0,0", "--seed", "3"],
    ["verify", "moufang", "--mode", "exact"],
    ["verify", "clifford", "--seed", "3", "--samples", "7", "--tolerance", "0.5"],
    ["verify", "moufang", "--samples", "50"],
    ["verify", "malcev", "--seed", "3"],
    ["verify", "associators", "--samples", "50"],
    # verify has no sample count or tolerance to set, at any value
    *(["verify", suite, *flag] for suite in ("all", "triality", "correspondence")
      for flag in (["--samples", "5"], ["--tolerance", "0.5"])),
    ["verify", "all", "--tolerance", "0"],
    ["verify", "all", "--tolerance", "nan"],
    ["verify", "all", "--tolerance", "inf"],
    ["verify", "all", "--samples", "0"],
])
def test_unread_flags_are_rejected(capsys, argv):
    # argparse refuses a flag the subcommand does not have (SystemExit);
    # verify refuses --seed where its suite does not read it (exit code 2)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_verify_rejects_bad_settings(monkeypatch, capsys):
    # all reads --seed, so a negative one is refused for its value, and
    # before any suite runs
    calls = []
    for module, name, _ in SUITE_CALLS:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    code, out, err = run(capsys, ["verify", "all", "--seed", "-1"])
    assert (code, out, calls) == (2, "", [])
    assert err == "error: --seed must be non-negative\n"


def test_verify_help_offers_only_format_and_seed(capsys):
    # the verdict's sizes and tolerance are the suites' defaults: no flag
    # sets them
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == {"-h", "--help",
                                                               "--format", "--seed"}


E0 = "1,0,0,0,0,0,0,0"


@pytest.mark.parametrize("theta", ["800", "1500", "-800"])
def test_vector_boost_overflow_is_a_usage_error(capsys, theta):
    code, out, err = run(capsys, ["rotate", "--plane", "0,4", "--theta", theta,
                                  "--target", "vector", "--components", E0])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_overflowing_boost_is_refused_before_its_components(capsys):
    # the rotor's half-angle pair overflows when cl.rotor builds it, so the
    # overflow is reported ahead of the malformed component list
    code, out, err = run(capsys, ["rotate", "--plane=0,4", "--theta=1500",
                                  "--target", "vector", "--components=1,0"])
    assert (code, out, err) == (2, "", "error: the result overflows float64\n")


def test_strong_vector_boost_is_finite(capsys):
    # the output is finite, but cosh 700 == sinh 700 in float64, so the
    # invariant of the moved pair reads 0 instead of 1: refused
    code, out, err = run(capsys, ["rotate", "--plane", "0,4", "--theta", "700",
                                  "--target", "vector", "--components", E0])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# a 1e160 spinor has an invariant of about 1e320, an exact int, and an
# |input|^2 that overflows float64: the guard still compares the drift with it
@pytest.mark.parametrize("target,theta,lead,code", [
    ("vector", "20", "1", 2), ("spinor", "40", "1", 2), ("vector", "5", "1", 0),
    ("spinor", "5", "1", 0), ("spinor", "60", "1e160", 2), ("spinor", "1", "1e160", 0)])
def test_rotate_refuses_a_lost_invariant(capsys, target, theta, lead, code):
    comps = ",".join([lead] + ["0"] * (7 if target == "vector" else 15))
    got, out, err = run(capsys, ["rotate", "--plane", "0,4", "--theta", theta,
                                 "--target", target, "--components", comps])
    assert got == code
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        payload = json.loads(out)
        drift = Fraction(payload["invariant_after"]) - Fraction(payload["invariant_before"])
        assert abs(drift) < Fraction(1e-8) * Fraction(float(lead)) ** 2


@pytest.mark.parametrize("representation", ["octonion", "matrix", "both"])
def test_trilinear_near_float_max_is_finite_on_both_sides(capsys, representation):
    # the two scalar parts of the octonion inner product are each -1.44e308;
    # their sum overflows, their half-sum does not
    big = "1.2e154,0,0,0,0,0,0,0"
    code, out, err = run(capsys, ["trilinear", f"--phi={big}", f"--x={E0}", f"--psi={big}",
                                  f"--representation={representation}"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("trilinear.schema.json"))
    want = -(1.2e154 * 1.2e154)
    # integral floats take the exact path of the matrix form; float mode
    # emits that exact integer rounded to float64, the float product
    values = [float(payload[k]) for k in ("matrix", "octonion", "octonion_mapped")
              if k in payload]
    assert values == [want] * len(values)
    if representation == "both":
        assert payload["residual"] == 0.0 and isinstance(payload["residual"], float)


@pytest.mark.parametrize("representation", ["octonion", "matrix", "both"])
def test_trilinear_past_float_max_overflows_on_every_representation(capsys, representation):
    # integral floats take the exact path of the matrix form, whose -1e600
    # has no float64 value
    big = "1e300,0,0,0,0,0,0,0"
    code, out, err = run(capsys, ["trilinear", f"--phi={big}", f"--x={E0}", f"--psi={big}",
                                  f"--representation={representation}"])
    assert (code, out, err) == (2, "", f"error: {cli.OVERFLOW}\n")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_trilinear_octonion_is_the_mapped_value(capsys, mode):
    # every representation reads integral components as Python ints and
    # rounds once, so the octonion value is the one `both` maps, and equals
    # the matrix value, also where a float sum would round differently
    payloads = {}
    for representation in ("octonion", "matrix", "both"):
        code, out, _ = run(capsys, ["trilinear", f"--phi={WIDE[0]}", f"--x={WIDE[1]}",
                                    f"--psi={WIDE[2]}", f"--mode={mode}",
                                    f"--representation={representation}"])
        assert code == 0
        payloads[representation] = json.loads(out)
    both = payloads["both"]
    assert (payloads["octonion"]["octonion"] == both["octonion"] == both["octonion_mapped"]
            == both["matrix"] == payloads["matrix"]["matrix"])


# tests/data pins `verify all`: the default seed's stdout in full, and the
# sha256 of the normalized payload of seeds 0-9.
#
#     PYTHONPATH=src python tests/test_cli.py --write
#
# rewrites both files from the current code.
GOLDEN = Path(__file__).resolve().parent / "data"


def normalized(payload):
    """The verify payload without the max_residual of float reports, which
    depends on the platform's rounding."""
    reports = [{k: v for k, v in r.items() if r["exact"] or k != "max_residual"}
               for r in payload["reports"]]
    return {**payload, "reports": reports}


def digest(out):
    """The sha256 of the normalized payload of a `verify` stdout."""
    return hashlib.sha256(
        json.dumps(normalized(json.loads(out)), sort_keys=True).encode()).hexdigest()


def test_verify_all_matches_golden(capsys):
    code, out, _ = run(capsys, ["verify", "all"])
    assert code == 0
    want = json.loads((GOLDEN / "verify_all_12345.json").read_text())
    assert normalized(json.loads(out)) == normalized(want)


@pytest.mark.parametrize("seed", range(10))
def test_verify_all_passes_for_seed(capsys, seed):
    code, out, _ = run(capsys, ["verify", "all", "--seed", str(seed)])
    assert code == 0, [(r["name"], r["failure_details"])
                       for r in json.loads(out)["reports"] if not r["passed"]]
    assert digest(out) == json.loads((GOLDEN / "verify_all_sha256.json").read_text())[str(seed)]


def write_verify_golden():
    """Rewrite both verify_all_* files; every run must pass."""
    outputs = {}
    for seed in (None, *range(10)):
        argv = ["verify", "all"] + ([] if seed is None else ["--seed", str(seed)])
        code, outputs[seed], _ = run_cli(argv)
        if code != 0:
            sys.exit(f"verify all --seed {seed} fails; nothing written")
    (GOLDEN / "verify_all_12345.json").write_text(outputs[None])
    digests = {str(seed): digest(outputs[seed]) for seed in range(10)}
    (GOLDEN / "verify_all_sha256.json").write_text(json.dumps(digests, indent=2) + "\n")


# every one-shot command and the suites on signed units, in every format,
# the generator-table suites, and what `import splitoct` sets up, on the
# standard library alone and without compiling the sweeps; a dense sweep
# imports both
NUMPY_GUARD = """
import contextlib, io, sys
import splitoct
splitoct.equivalence_map()
assert "numpy" not in sys.modules, "import splitoct"
assert "splitoct.sweeps" not in sys.modules, "import splitoct"
from splitoct import cli
e = ",".join(["1"] + ["0"] * 7)
for argv in (
        ["rotate", "--plane=0,4", "--theta=1", "--target=vector", "--components=" + e],
        ["rotate", "--plane=2,3", "--theta=4", "--target=spinor",
         "--components=" + ",".join(["-0.5"] * 8 + ["0"] * 8)],
        ["trilinear", "--phi=" + e, "--x=1,2,3,4,5,6,7,8", "--psi=" + e, "--mode=exact"],
        ["trilinear", "--phi=0.5,1,2,3,4,5,6,7", "--x=" + e, "--psi=" + e, "--mode=float"],
        ["trilinear", "--phi=" + e, "--x=" + e, "--psi=" + e, "--representation=matrix"],
        ["trilinear", "--phi=" + e, "--x=" + e, "--psi=" + e, "--representation=octonion"],
        ["matrices", "--which=alpha"], ["matrices", "--which=gamma", "--index=5"],
        ["matrices", "--which=B", "--mode=float"], ["matrices", "--which=xi"],
        ["table"], ["verify", "clifford"], ["verify", "moufang"], ["verify", "associators"]):
    for fmt in ("json", "csv", "pretty"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--format=" + fmt]) == 0, (argv, fmt)
        assert "numpy" not in sys.modules, (argv, fmt)
        assert "splitoct.sweeps" not in sys.modules, (argv, fmt)
from splitoct import triality as tr
for suite in (lambda: tr.infinitesimal_table_check("01"), tr.boost_table_check,
              tr.role_swap_check):
    assert suite().passed
    assert "numpy" not in sys.modules
    assert "splitoct.sweeps" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "malcev"]) == 0
assert "numpy" in sys.modules
assert "splitoct.sweeps" in sys.modules
"""


def python(*args):
    """A fresh interpreter run with ``src`` importable: its exit code,
    stdout and stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_oneshot_commands_leave_numpy_unloaded():
    proc = python("-c", NUMPY_GUARD)
    assert proc.returncode == 0, proc.stderr


def test_double_cover_reads_no_seed_and_no_numpy(capsys):
    # double-cover turns basis columns: its report is one fixed record at
    # every --seed, and it passes where numpy cannot be imported
    reports = set()
    for seed in (None, 0, 1, 7):
        argv = ["verify", "triality"] + ([] if seed is None else ["--seed", str(seed)])
        code, out, _ = run(capsys, argv)
        assert code == 0
        rep, = (r for r in json.loads(out)["reports"] if r["name"] == "double-cover")
        reports.add(json.dumps(rep, sort_keys=True))
    assert len(reports) == 1 and json.loads(reports.pop())["cases"] == 96
    proc = python("-c", "import sys; sys.modules['numpy'] = None\n"
                        "import splitoct; assert splitoct.double_cover_check().passed\n"
                        "assert 'splitoct.sweeps' not in sys.modules")
    assert (proc.returncode, proc.stderr) == (0, "")


# `import splitoct` and the one-shot kernels read the unit table alone:
# the paper's matrices (matrices.py, with its import-time checks) are
# loaded by every `verify` suite and by `matrices`, each in a fresh process
MATRICES_UNLOADED = """
import contextlib, io, sys
import splitoct
splitoct.equivalence_map()
assert "splitoct.matrices" not in sys.modules, "import splitoct"
from splitoct import cli
e = ",".join(["1"] + ["0"] * 7)
for argv in (
        ["rotate", "--plane=0,4", "--theta=1", "--target=vector", "--components=" + e],
        ["rotate", "--plane=2,3", "--theta=4", "--target=spinor", "--components=" + e + ",0" * 8],
        ["trilinear", "--phi=" + e, "--x=1,2,3,4,5,6,7,8", "--psi=" + e, "--mode=exact"],
        ["trilinear", "--phi=0.5,1,2,3,4,5,6,7", "--x=" + e, "--psi=" + e, "--mode=float"],
        ["table"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "splitoct.matrices" not in sys.modules, argv
"""
MATRICES_LOADED = """
import contextlib, io, sys
from splitoct import cli
assert "splitoct.matrices" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
assert "splitoct.matrices" in sys.modules, sys.argv[1:]
sys.exit(code)
"""


def test_only_verify_and_matrices_load_the_paper_matrices():
    proc = python("-c", MATRICES_UNLOADED)
    assert (proc.returncode, proc.stderr) == (0, "")
    for argv in [*(["verify", suite] for suite in cli.SUITES), ["matrices", "--which=xi"]]:
        proc = python("-c", MATRICES_LOADED, *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


COMPILE_SPY = """
import builtins
labels = []
compile_ = builtins.compile
def spy(source, filename, *args, **kwargs):
    if filename.startswith("<"):
        labels.append(filename)
    return compile_(source, filename, *args, **kwargs)
builtins.compile = spy
import splitoct
print(" ".join(labels))
"""


def test_import_compiles_one_form_per_table():
    # the int product and the int octonionic trilinear form, then clifford's
    # spinor invariant, spinor turn and matrix trilinear form, in that order;
    # source files compiled by the import system are left out
    proc = python("-c", COMPILE_SPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["<int_product>", "<trilinear>", "<spinor_form>", "<turn>",
                                   "<trilinear>"]


@pytest.mark.parametrize("argv,calls", [(None, 0), (["verify", "all"], 1),
                                        (["verify", "clifford"], 1)],
                         ids=["import", "verify-all", "verify-clifford"])
def test_only_the_clifford_report_composes_the_gamma_products(argv, calls):
    # a fresh process: importing matrices runs no verify_clifford, and a
    # verify process runs it once, for its clifford report
    script = textwrap.dedent(f"""
        import contextlib, io, runpy, sys
        calls = []

        def trace(frame, event, arg):
            code = frame.f_code
            if code.co_name == "verify_clifford" and code.co_filename.endswith("matrices.py"):
                calls.append(1)

        argv = {argv!r}
        sys.settrace(trace)
        if argv is None:
            import splitoct.matrices
        else:
            sys.argv = ["sot", *argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
                runpy.run_module("splitoct.cli", run_name="__main__")
        sys.settrace(None)
        print(len(calls))
        """)
    proc = python("-c", script)
    assert (proc.returncode, proc.stdout) == (0, f"{calls}\n"), proc.stderr


# ---------------------------------------------------------------------------
# the process entry
# ---------------------------------------------------------------------------

def main_in_process(argv):
    """Exit code, stdout and stderr of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


RUN_STATE = """
import gc, sys
from splitoct import cli
sys.argv = ["sot", "table", "--format=csv"]
code = cli.run()
print(code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)
"""


def test_run_leaves_the_collector_off_and_the_heap_frozen():
    proc = python("-c", RUN_STATE)
    assert proc.stderr.split() == ["0", "False", "True"]


MAIN_STATE = """
import contextlib, gc, io, sys
from splitoct import cli
for enabled in (True, False):
    gc.enable() if enabled else gc.disable()
    frozen = gc.get_freeze_count()
    for argv in (["verify", "all"], ["table"], ["verify", "all", "--samples=5"]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass
        assert gc.isenabled() is enabled, (enabled, argv)
        assert gc.get_freeze_count() == frozen, (enabled, argv)
"""


def test_main_leaves_the_collector_as_it_found_it():
    proc = python("-c", MAIN_STATE)
    assert proc.returncode == 0, proc.stderr


# `python -m splitoct.cli` against cli.main in process: the verdict in two
# formats, each one-shot command and an argparse refusal, which leaves
# main by SystemExit
ENTRY_CASES = [
    ["verify", "all"],
    ["verify", "all", "--format=csv"],
    ["table", "--format=pretty"],
    ["rotate", "--plane=0,4", "--theta=1", "--target=vector",
     "--components=1,0,0,0,0,0,0,0"],
    ["trilinear", "--phi=1,1,1,1,1,1,1,1", "--x=1,2,3,4,5,6,7,8",
     "--psi=1,0,0,0,0,0,0,0", "--mode=exact"],
    ["matrices", "--which=gamma", "--index=5", "--format=csv"],
    ["verify", "all", "--samples=5"],
]


@pytest.mark.parametrize("argv", ENTRY_CASES, ids=" ".join)
def test_process_entry_matches_main(argv):
    proc = python("-m", "splitoct.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == main_in_process(argv)


def test_verify_all_leaves_little_for_the_collector():
    # the premise of cli.run: the collector, left off for a whole `verify
    # all`, has little to free afterwards
    proc = python("-c", """
import contextlib, gc, io
from splitoct import cli
gc.collect()
gc.disable()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "all"]) == 0
print(gc.collect())
""")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000


@pytest.mark.parametrize("argv", [["verify", "all"], ["table"]], ids=" ".join)
def test_collected_garbage_raises_no_warning(argv):
    # what the frozen heap of a `sot` process would hide at exit: a file
    # left open or a warning raised while a cycle is freed
    proc = python("-X", "dev", "-W", "error", "-c", f"""
import contextlib, gc, io
from splitoct import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
gc.collect()
""")
    assert (proc.returncode, proc.stderr) == (0, "")


# the suites that `units` and `sweeps` hold, by the module that names them
# and the module they run in
SWEEP_NAMES = {
    (oc, units): ("verify_table", "verify_moufang", "verify_associators",
                  "generate_basis_from_J"),
    (oc, sweeps): ("verify_malcev",),
    (tr, units): ("infinitesimal_table_check", "boost_table_check", "role_swap_check",
                  "double_cover_check"),
    (tr, sweeps): ("correspondence_check", "dictionary_random_check",
                   "rotor_invariance_check", "trilinear_invariance_check"),
}

# splitoct.__all__ as it was while the suites were defined in octonion and
# triality
PACKAGE_ALL = [
    "ChiralityError", "ConstructionError", "CorrespondenceMap", "METRIC", "OracleError",
    "PINNED_CONVENTION", "Rotor", "SplitOctonion", "StructureConstants", "UNIT_NAMES",
    "VerificationReport", "alpha", "associator", "b_matrix", "boost_table_check",
    "clifford", "commutator", "conj", "correspondence_check", "dictionary_random_check",
    "double_cover_check", "equivalence_map", "exact", "gamma", "generate_basis_from_J",
    "infinitesimal_table_check", "inner", "is_timelike_vector_part", "jacobiator",
    "malcev_jacobiator", "mul", "norm_sq", "oct_from_components", "octonion",
    "quadratic_form", "report", "role_swap_check", "rotate_spinor", "rotate_vector", "rotor",
    "rotor_invariance_check", "spinor_invariant", "triality", "trilinear_equivalence_oracle",
    "trilinear_invariance_check", "trilinear_matrix", "trilinear_oct", "verify_associators",
    "verify_clifford", "verify_malcev", "verify_moufang", "verify_table"]


def test_each_suite_runs_the_sweeps_function(monkeypatch):
    for (module, home), names in SWEEP_NAMES.items():
        for name in names:
            calls = []
            monkeypatch.setattr(home, name, lambda *a, **k: calls.append((a, k)) or calls)
            assert getattr(splitoct, name) is getattr(module, name), name
            entry = getattr(module, name)
            assert entry.__name__ == entry.__qualname__ == name, (module.__name__, name)
            assert getattr(module, name)(7, seed=8) is calls, (module.__name__, name)
            assert calls == [((7,), {"seed": 8})], (module.__name__, name)
    assert splitoct.__all__ == PACKAGE_ALL
    # the helpers stay in sweeps and units; only the suites are named elsewhere
    for module, name in ((oc, "_c"), (tr, "_check_generators"), (splitoct, "_Zorn")):
        with pytest.raises(AttributeError):
            getattr(module, name)


SUITE_DOCS = """
import sys
import splitoct
for name in sys.argv[1:]:
    print(name, getattr(splitoct, name).__doc__)
assert "splitoct.units" not in sys.modules
assert "splitoct.sweeps" not in sys.modules
"""


def test_each_suite_entry_names_the_suite_it_imports():
    names = {name: home for (_, home), group in SWEEP_NAMES.items() for name in group}
    assert len(names) == 13
    proc = python("-c", SUITE_DOCS, *names)
    assert proc.returncode == 0, proc.stderr
    docs = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    for name, home in names.items():
        assert f"``{home.__name__}.{name}``" in docs[name], name
        assert f"``{home.__name__}`` is imported at the first call" in docs[name], name


# every suite, as the module attribute that `verify` calls at run time, and
# the `verify` suite that calls it: the traced benchmark wraps each of these
# attributes and reads its timings there, so a suite renamed, moved off its
# module or called around the attribute stops that run
SUITE_CALLS = [
    (oc, "generate_basis_from_J", "all"),
    (oc, "verify_table", "all"),
    (oc, "verify_moufang", "moufang"),
    (oc, "verify_malcev", "malcev"),
    (oc, "verify_associators", "associators"),
    (cl, "verify_clifford", "clifford"),
    (tr, "correspondence_check", "correspondence"),
    *((tr, name, "triality") for name in (
        "infinitesimal_table_check", "boost_table_check", "role_swap_check",
        "double_cover_check", "dictionary_random_check", "trilinear_invariance_check",
        "rotor_invariance_check")),
]


@pytest.mark.parametrize("module,name,suite", SUITE_CALLS,
                         ids=lambda v: getattr(v, "__name__", v))
def test_verify_calls_the_suite_the_module_holds(monkeypatch, capsys, module, name, suite):
    calls = []

    def stub(*args, **kwargs):
        calls.append(name)
        if name == "generate_basis_from_J":
            raise oc.ConstructionError(f"stub for {name}")
        rep = VerificationReport("stub")
        rep.record_case(False, f"stub for {name}")
        return rep
    monkeypatch.setattr(module, name, stub)
    code, out, _ = run(capsys, ["verify", suite])
    details = [d for r in json.loads(out)["reports"] for d in r["failure_details"]]
    assert code == 1 and calls == [name]
    assert len(details) == 1 and details[0].endswith(f"stub for {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli.py --write")
    write_verify_golden()
