"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
from checks import VERIFY_ALL_REPORTS, Checker, Failure, Tally  # noqa: E402
from splitoct import cli  # noqa: E402
from splitoct import octonion as oc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT / "schemas")


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record["record"], result


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_end_to_end_metric(workload):
    record, result = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                           "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("python", "numpy", "nproc", "seed", "source_sha256", "samples"):
        assert key in record


def test_traced_run_prints_every_per_layer_metric():
    record, result = bench("--workload", "kernel-stream", "--seed", "5", "--seconds", "1",
                           "--trace", "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("per_layer")
    assert result["metrics"]["report.cases"]["value"] == sum(n for _, n in VERIFY_ALL_REPORTS)


def test_kernel_stream_counts_its_wide_draws():
    ops = inputs.kernel_ops(3)
    int_ops = [op for op in ops if op[0] in inputs.INT_KERNELS]
    wide = [op for op in int_ops if op[2]]
    assert len(wide) == len(int_ops) // inputs.WIDE_EVERY

    def first_operand(op):
        return op[1] if op[0] == "spinor_invariant" else op[1][0]
    assert max(abs(v) for op in wide for v in first_operand(op)) > 2 ** 31
    narrow = [op for op in int_ops if not op[2]]
    assert max(abs(v) for op in narrow for v in first_operand(op)) <= inputs.SUITE_RANGE


def _verify_doc(**changes):
    reports = [{"name": name, "cases": cases, "failures": 0, "failure_details": [],
                "max_residual": 0.0, "exact": True, "passed": True, "meta": {}}
               for name, cases in VERIFY_ALL_REPORTS]
    for name, fields in changes.items():
        next(r for r in reports if r["name"] == name).update(fields)
    return {"suite": "all", "passed": all(r["passed"] for r in reports), "reports": reports}


def test_corrupted_verify_emission_is_a_failure(checker):
    good = _verify_doc()
    assert checker.verify_all(json.dumps(good), 0) is None
    assert checker.verify_all(json.dumps(good), 1) is not None
    assert checker.verify_all(json.dumps(_verify_doc(malcev={"cases": 22294})), 0) is not None
    assert checker.verify_all(json.dumps(good).replace("0.0", "NaN", 1), 0) is not None
    assert checker.verify_all(json.dumps(good)[:-1], 0) is not None
    exact_break = _verify_doc(moufang={"failures": 1, "passed": False})
    failure = checker.verify_all(json.dumps(exact_break), 1)
    assert failure is not None and not failure.known
    rounding = _verify_doc(**{"rotor-invariance": {"failures": 1, "passed": False,
                                                   "exact": False, "max_residual": 2e-12}})
    failure = checker.verify_all(json.dumps(rounding), 1)
    assert failure is not None and failure.known


def _main(argv, capsys):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["rotate", "--plane=0,4", "--theta=0.5", "--target=vector",
     "--components=1,2,3,4,5,6,7,8"],
    ["trilinear", "--phi=1,2,3,4,5,6,7,8", "--x=1,-1,1,-1,1,-1,1,-1",
     "--psi=3,0,0,0,0,0,0,1", "--representation=both", "--mode=exact"],
])
def test_corrupted_cli_payload_is_a_failure(argv, checker, capsys):
    rc, text = _main(argv, capsys)
    assert checker.oneshot(argv, text, rc) is None
    doc = json.loads(text)
    key = "output" if argv[0] == "rotate" else "matrix"
    if argv[0] == "rotate":
        doc["output"][0] += 1.0
    else:
        doc["matrix"] += 1
    assert checker.oneshot(argv, json.dumps(doc), rc) is not None
    assert checker.oneshot(argv, text.replace(f'"{key}"', '"other"', 1), rc) is not None
    assert checker.oneshot(argv, text, 2) is not None
    doc = json.loads(text)
    doc[key] = float("nan")
    assert checker.oneshot(argv, json.dumps(doc), rc) is not None


def test_corrupted_kernel_result_is_counted_not_raised(monkeypatch):
    prepared = worker.prepare(inputs.kernel_ops(4, n=200))
    d = worker.tr.equivalence_map()
    monkeypatch.setattr(oc, "mul", lambda a, b: oc.SplitOctonion([1] + [0] * 7))

    def broken(*args):
        raise ArithmeticError("broken")
    monkeypatch.setattr(worker.cl, "rotate_spinor", broken)
    tally = Tally()
    worker.kernel_stream(prepared, 2 * len(prepared), time.perf_counter() + 60, d, tally)
    assert tally.attempted == 2 * len(prepared)
    unexpected = tally.failed - tally.known
    bad_kinds = sum(1 for kind, _, _ in prepared if kind in ("mul", "rotate_spinor"))
    assert unexpected >= bad_kinds > 0
    run_ = run.Run(stats.SpeedScale())
    run_.record(0.1, Failure("corrupted"))
    run_.record(0.1, None)
    assert (run_.tally.attempted, run_.tally.failed) == (2, 1)


def test_seed_changes_inputs_but_not_verify_case_counts(checker):
    assert inputs.oneshot_argv(1) != inputs.oneshot_argv(2)
    assert inputs.kernel_ops(1) != inputs.kernel_ops(2)
    assert inputs.oneshot_argv(1) == inputs.oneshot_argv(1)
    counts = []
    for seed in (1, 2):
        out = subprocess.run(run.cli_argv(["verify", "all", f"--seed={inputs.verify_seed(seed)}"]),
                             cwd=ROOT, env=run.child_env(), capture_output=True, timeout=300)
        failure = checker.verify_all(out.stdout, out.returncode)
        assert failure is None or failure.known
        reports = json.loads(out.stdout)["reports"]
        counts.append([(r["name"], r["cases"]) for r in reports])
        seeds = {r["meta"]["seed"] for r in reports if "seed" in r["meta"]}
        assert seeds == {seed}
    assert counts[0] == counts[1] == list(VERIFY_ALL_REPORTS)


def test_no_sources_means_no_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
