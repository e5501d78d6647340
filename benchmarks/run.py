"""splitoct benchmark: cold `verify all`, one-shot CLI calls and a kernel call stream.

    python3 benchmarks/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It drives ``python -m splitoct.cli``
and the public kernels with ``src`` on ``PYTHONPATH``, checks every output,
and prints two JSON lines on stdout: a record of the environment and the
sample counts, then the result, ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` for the workload.  ``--trace 1`` is a separate traced
run that reports the per-layer metrics; it covers the layers of all three
workloads (in-process ``verify all``, ``cli.main`` per subcommand and the
kernel stream), whichever workload is named.  One process and one
closed-loop client, no threads.  Exit code 2 (and no result) when the
checkout has no ``src/splitoct``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
import stats
from checks import Checker, Failure, Tally

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-all", "cli-oneshot", "kernel-stream")
SETUP_REPEATS = 9
MIN_OPS = 2                 # percentiles need two samples, even in a short run
# --seconds sets the work of a run: operations = seconds x a nominal rate, so
# every run of a workload makes the same number of them and lasts about
# --seconds on a 2-core x86-64 host.  A run that takes MAX_STRETCH times as
# long stops early.
NOMINAL_OPS_PER_S = {"verify-all": 0.24, "cli-oneshot": 4.0, "kernel-stream": 10000.0}
MAX_STRETCH = 1.5
CHILD_TIMEOUT_S = 120
READY = ("import sys, splitoct; splitoct.equivalence_map(); "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")
IMPORT_PROBE_REPEATS = 3
IMPORT_METRICS = {"numpy": "import.numpy_s", "splitoct": "import.splitoct_s",
                  "splitoct.clifford": "clifford.import_s",
                  "splitoct.triality": "triality.import_s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation that failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run to completion; return (wall seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def setup_seconds(env) -> float:
    """Wall time until a fresh interpreter has imported splitoct (with its
    import-time self-checks) and built the first equivalence_map()."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"set-up failed: {err.decode(errors='replace')[-2000:]}")
    return ready


def measure_setup(env, speed):
    setup_seconds(env)      # unmeasured: the first start may write bytecode caches
    speed.factor()
    return [setup_seconds(env) * speed.factor() for _ in range(SETUP_REPEATS)]


class Run:
    """Operations of one run: latencies, scaled and as measured, and the
    outcome of each check."""

    def __init__(self, speed):
        self.speed = speed
        self.latencies = []
        self.unscaled = []
        self.tally = Tally()

    def wants_more(self, n_ops, deadline) -> bool:
        done = self.tally.attempted
        return done < n_ops and (done < MIN_OPS or time.perf_counter() < deadline)

    def record(self, seconds, failure, stderr=b""):
        if failure is not None and not failure.known and stderr:
            failure = Failure(f"{failure.reason}; stderr: "
                              f"{stderr.decode(errors='replace')[-500:]}")
        self.unscaled.append(seconds)
        self.latencies.append(seconds * self.speed.factor())
        self.tally.record(failure)


def cli_argv(args):
    return [sys.executable, "-m", "splitoct.cli", *args]


def verify_all(seed, n_ops, deadline, env, checker, speed):
    run = Run(speed)
    argv = cli_argv(["verify", "all", f"--seed={inputs.verify_seed(seed)}"])
    first = None
    while run.wants_more(n_ops, deadline):
        wall, rc, out, err = run_child(argv, env)
        failure = checker.verify_all(out, rc)
        if first is None:
            first = out
        elif out != first and (failure is None or failure.known):
            failure = Failure("emission differs from the first one under the same seed")
        run.record(wall, failure, err)
    return run


def cli_oneshot(seed, n_ops, deadline, env, checker, speed):
    run = Run(speed)
    stream = inputs.oneshot_argv(seed)
    while run.wants_more(n_ops, deadline):
        args = stream[run.tally.attempted % len(stream)]
        wall, rc, out, err = run_child(cli_argv(args), env)
        run.record(wall, checker.oneshot(args, out, rc), err)
    return run


def worker(mode, seed, seconds, env, *extra):
    argv = [sys.executable, str(HERE / "worker.py"), mode, f"--seed={seed}",
            f"--seconds={seconds}", *extra]
    _, rc, out, err = run_child(argv, env)
    if rc != 0:
        raise BenchError(f"worker {mode} exited {rc}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out)


def end_to_end(workload, seed, seconds, env, checker):
    # One core for the benchmark and its children, so that the speed scale
    # is measured on the core that ran the operation.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = stats.SpeedScale()
    setups = measure_setup(env, speed)
    n_ops = max(MIN_OPS, round(seconds * NOMINAL_OPS_PER_S[workload]))
    if workload == "kernel-stream":
        res = worker("kernels", seed, MAX_STRETCH * seconds, env, f"--ops={n_ops}")
        summary = res["summary"]
        unscaled_p50, reference = res["unscaled_p50_s"], res["reference_s"]
        counts = res["tally"]
    else:
        loop = verify_all if workload == "verify-all" else cli_oneshot
        run = loop(seed, n_ops, time.perf_counter() + MAX_STRETCH * seconds, env, checker,
                   speed)
        summary = stats.summarize(run.latencies)
        unscaled_p50, reference = statistics.median(run.unscaled), None
        counts = run.tally.to_json()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"setup_s": statistics.median(setups), "latency_s.p50": summary["p50"],
               "latency_s.p90": summary["p90"], "ops_per_s": summary["ops_per_s"],
               "peak_rss_mb": peak_kb / 1024}
    n = summary["n"]
    samples = {"setup_s": len(setups), "latency_s.p50": n, "latency_s.p90": n,
               "ops_per_s": f"median of {min(stats.BLOCKS, n)} blocks of {n} operations"}
    counts["speed_scale"] = {
        "reference_nominal_s": stats.REF_NOMINAL_S,
        "reference_median_s": reference or statistics.median(speed.references),
        "unscaled_latency_s.p50": unscaled_p50}
    return metrics, samples, counts


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def import_shares(env):
    """Cumulative import times from ``python -X importtime``, numpy first so
    that the splitoct modules do not include it."""
    samples = {name: [] for name in IMPORT_METRICS.values()}
    for _ in range(IMPORT_PROBE_REPEATS):
        _, rc, _, err = run_child([sys.executable, "-X", "importtime", "-c",
                                   "import numpy, splitoct"], env)
        if rc != 0:
            raise BenchError(f"import failed: {err.decode(errors='replace')[-2000:]}")
        for line in err.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            if module.strip() in IMPORT_METRICS and cumulative.strip().isdigit():
                samples[IMPORT_METRICS[module.strip()]].append(int(cumulative) / 1e6)
    missing = [name for name, got in samples.items() if len(got) != IMPORT_PROBE_REPEATS]
    if missing:
        raise BenchError(f"importtime did not report {missing}")
    return {name: statistics.median(got) for name, got in samples.items()}


def traced(seed, seconds, env):
    metrics = import_shares(env)
    res = worker("probe", seed, max(seconds / 4, 0.5), env)
    metrics.update(res["metrics"])
    # what a one-shot CLI process costs beyond cli.main itself
    overheads = []
    for command, args in inputs.probe_argv(seed).items():
        if command == "verify":
            continue
        walls = [run_child(cli_argv(args), env)[0] for _ in range(3)]
        overheads.append(statistics.median(walls) - res["in_process_main_s"][command])
    metrics["cli.process_overhead_s"] = statistics.median(overheads)
    samples = dict(res["samples"])
    samples.update((name, IMPORT_PROBE_REPEATS) for name in IMPORT_METRICS.values())
    samples["cli.process_overhead_s"] = (f"median over {len(overheads)} commands of "
                                         f"3 processes minus in-process cli.main")
    return metrics, samples, res["tally"]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "schemas").glob("*.json")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, timeout=30)
    except OSError:
        return None
    return out.stdout.decode().strip() or None


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "nproc": os.cpu_count(),
            "git_commit": git_commit(), "source_sha256": source_digest()}


def spec_units(kind: str) -> dict:
    """Metric name to unit, for ``end_to_end`` or ``per_layer`` of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "splitoct" / "__init__.py").is_file():
        print(f"error: no splitoct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    checker = Checker(ROOT / "schemas")
    record = environment(args)
    try:
        if args.trace:
            values, samples, counts = traced(args.seed, args.seconds, env)
            units = spec_units("per_layer")
        else:
            values, samples, counts = end_to_end(args.workload, args.seed, args.seconds,
                                                 env, checker)
            units = spec_units("end_to_end")
        if set(values) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(units))}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["samples"] = samples
    record.update(counts)
    record["error_rate"] = counts["failed"] / counts["attempted"]
    unexpected = counts["failed"] - counts["known_defect_failures"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
