"""In-process side of the benchmark: one warm interpreter that imports splitoct.

    python benchmarks/worker.py kernels --seed N --ops K --seconds T
    python benchmarks/worker.py probe --seed N --seconds T

``kernels`` runs the kernel-stream workload untraced.  ``probe`` is the
traced run: spans around each public call give the per-layer numbers.
Either mode prints one JSON object on stdout.  ``run.py`` starts this file
with ``src`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np

from splitoct import cli
from splitoct import clifford as cl
from splitoct import octonion as oc
from splitoct import triality as tr

import inputs
import stats
from checks import REL_TOL, Checker, Tally, invariant_drift

# exact paths that overflow int64 on wide draws (a known program defect)
INT64_PATHS = frozenset({"spinor_invariant", "trilinear_matrix", "trilinear_both"})
LAYER_OF = {"mul": "octonion", "rotate_vector": "clifford", "rotate_spinor": "clifford",
            "spinor_invariant": "clifford", "trilinear_matrix": "clifford",
            "trilinear_both": "triality"}
MODULE_OF = {"octonion": oc, "clifford": cl, "triality": tr}

# public calls wrapped in spans during the traced run.  octonion.mul is not
# among them: the sweeps call it about a million times, so the traced
# kernel stream spans it at the call site instead.
TRACED_CALLS = {
    oc: ("verify_table", "verify_moufang", "verify_malcev", "verify_associators",
         "generate_basis_from_J"),
    cl: ("verify_clifford", "rotate_vector", "rotate_spinor", "spinor_invariant",
         "trilinear_matrix"),
    tr: ("trilinear_both", "correspondence_check", "dictionary_random_check",
         "rotor_invariance_check", "trilinear_invariance_check", "double_cover_check",
         "infinitesimal_table_check", "boost_table_check", "role_swap_check"),
}
SUITES = {"triality": TRACED_CALLS[tr][1:],
          "octonion": TRACED_CALLS[oc],
          "clifford": ("verify_clifford",)}
OCTONION_REPORTS = ("basis-generation", "octonion-table", "moufang", "malcev", "associators")
CLI_REPEATS = 3
BLOCK = 256              # kernel calls per traced or untraced block
SCALE_EVERY = 4096       # kernel calls per speed-scale measurement


# ---------------------------------------------------------------------------
# kernel calls and their checks
# ---------------------------------------------------------------------------

def kernel_functions():
    """The kernels as the modules hold them now (wrapped, while traced)."""
    return {kind: getattr(MODULE_OF[layer], kind) for kind, layer in LAYER_OF.items()}


def prepare(ops):
    """Turn plain inputs into the arguments each kernel takes (untimed)."""
    out = []
    for kind, data, wide in ops:
        if kind == "mul":
            args = (oc.SplitOctonion(data[0]), oc.SplitOctonion(data[1]))
        elif kind in ("rotate_vector", "rotate_spinor"):
            mu, nu, theta, comps = data
            args = (np.array(comps, dtype=np.float64), cl.rotor(mu, nu, theta))
        elif kind == "spinor_invariant":
            args = (data,)
        else:
            args = data
        out.append((kind, args, wide))
    return out


def _oct_side(phi, x, psi, d):
    """Dictionary-mapped octonionic trilinear form, in exact arithmetic."""
    def mapped(values, slot_map):
        out = [0] * 8
        for k, v in enumerate(values):
            idx, sign = slot_map[k]
            out[idx] = sign * v
        return oc.SplitOctonion(out)
    return d.scale * tr.trilinear_oct(mapped(phi, d.phi_map), mapped(x, d.x_map),
                                      mapped(psi, d.psi_map))


def check_kernel(kind, args, out, d):
    """None if ``out`` is right for ``kind(*args)``, else a reason."""
    if kind == "mul":
        a, b = args
        if out.norm_sq() != a.norm_sq() * b.norm_sq():
            return "N(ab) != N(a)N(b)"
    elif kind in ("rotate_vector", "rotate_spinor"):
        x = args[0]
        if np.shape(out) != x.shape or not np.all(np.isfinite(out)):
            return "rotor output has the wrong shape or is not finite"
        drift = invariant_drift(x.tolist(), out.tolist())
        if not drift <= REL_TOL:
            return f"rotor changed the invariant by {drift:.3e} relative"
    elif kind == "spinor_invariant":
        eta = args[0]
        want = oc.SplitOctonion(eta[:8]).norm_sq() + oc.SplitOctonion(eta[8:]).norm_sq()
        if out != want:
            return f"spinor_invariant {out} != octonion norm {want}"
    elif kind == "trilinear_matrix":
        want = _oct_side(*args, d)
        if Fraction(out) != want:
            return f"trilinear_matrix {out} != octonion side {want}"
    elif kind == "trilinear_both":
        mat_val, oct_val = out
        if Fraction(mat_val) != oct_val:
            return f"trilinear_both sides differ: {mat_val} vs {oct_val}"
    return None


def _call(fn, args):
    try:
        return fn(*args), None
    except Exception as exc:  # a kernel that raises is a failed operation
        return None, f"raised {exc!r}"


def kernel_stream(prepared, n_ops, deadline, d, tally):
    """Closed loop over ``n_ops`` prepared calls, or until ``deadline``.

    Only the call is timed; the check runs after the clock stops.  Returns
    the per-call latencies in nanoseconds, the speed scale of each block of
    ``SCALE_EVERY`` calls and the reference times behind the scales.
    """
    fns = kernel_functions()
    lat = array("q")
    speed = stats.SpeedScale()
    factors = []
    clock = time.perf_counter_ns
    for i in range(n_ops):
        if i % SCALE_EVERY == 0 and i:
            factors.append(speed.factor())
            if time.perf_counter() > deadline:
                break
        kind, args, wide = prepared[i % len(prepared)]
        t0 = clock()
        out, reason = _call(fns[kind], args)
        lat.append(clock() - t0)
        if reason is None:
            reason = check_kernel(kind, args, out, d)
        tally.add(reason, known=wide and kind in INT64_PATHS)
    if len(factors) * SCALE_EVERY < len(lat):
        factors.append(speed.factor())
    return lat, factors, speed.references


def run_kernels(seed, n_ops, max_seconds):
    d = tr.equivalence_map()
    prepared = prepare(inputs.kernel_ops(seed))
    tally = Tally()
    lat, factors, references = kernel_stream(prepared, n_ops, time.perf_counter() + max_seconds,
                                             d, tally)
    scaled = [ns * factors[i // SCALE_EVERY] / 1e9 for i, ns in enumerate(lat)]
    return {"summary": stats.summarize(scaled), "unscaled_p50_s": statistics.median(lat) / 1e9,
            "reference_s": statistics.median(references), "tally": tally.to_json()}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start and end in ns, and the enclosing span."""

    def __init__(self):
        self.names = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._open = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def duration(self, idx):
        return (self.ends[idx] - self.starts[idx]) / 1e9

    def children(self, parents, name):
        """Spans called ``name`` opened directly inside one of ``parents``."""
        return [i for i, p in enumerate(self.parents)
                if p in parents and self.names[i] == name]

    def self_seconds(self):
        """Per layer (the span name up to its first dot): span time not
        covered by child spans."""
        covered = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            own = self.ends[i] - self.starts[i] - covered[i]
            out[layer] = out.get(layer, 0) + own
        return {layer: ns / 1e9 for layer, ns in out.items()}


@contextlib.contextmanager
def instrumented(tracer):
    """Wrap the public calls in TRACED_CALLS in spans, and restore them after.

    The program looks these functions up as module attributes, so calls
    made inside splitoct (cli into clifford, a suite into a kernel) are
    spanned too and nest under their caller.
    """
    saved = []
    for module, names in TRACED_CALLS.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, tracer.wrap(f"{layer}.{name}", fn))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _cli_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_probe(seed, seconds, checker):
    tally = Tally()
    metrics = {}
    samples = {}
    tracer = Tracer()

    with tracer.span("triality.equivalence_map") as idx:
        d = tr.equivalence_map()
    metrics["triality.equivalence_map.first_s"] = tracer.duration(idx)

    with instrumented(tracer):
        # cli.main in process: verify all, then each one-shot subcommand
        argvs = inputs.probe_argv(seed)
        stdout_bytes = 0
        with tracer.span("cli.main.verify") as root:
            rc, text = _cli_main(argvs["verify"])
        metrics["cli.main.verify.s"] = tracer.duration(root)
        stdout_bytes += len(text.encode())
        failure = checker.verify_all(text, rc)
        tally.record(failure)
        for layer, names in SUITES.items():
            for name in names:
                spans = tracer.children({root}, f"{layer}.{name}")
                metrics[f"{layer}.{name}.s"] = sum(tracer.duration(i) for i in spans)
        reports = [] if failure and not failure.known else json.loads(text)["reports"]
        metrics["report.cases"] = sum(r["cases"] for r in reports)
        metrics["report.failures"] = sum(r["failures"] for r in reports)
        oct_cases = sum(r["cases"] for r in reports if r["name"] in OCTONION_REPORTS)
        oct_time = sum(metrics[f"octonion.{name}.s"] for name in SUITES["octonion"])
        metrics["octonion.cases_per_s"] = oct_cases / oct_time

        main_s = {}
        for command in ("table", "matrices", "rotate", "trilinear"):
            times = []
            for _ in range(CLI_REPEATS):
                with tracer.span(f"cli.main.{command}") as idx:
                    rc, text = _cli_main(argvs[command])
                times.append(tracer.duration(idx))
                tally.record(checker.oneshot(argvs[command], text, rc))
            stdout_bytes += len(text.encode())
            main_s[command] = statistics.median(times)
            metrics[f"cli.main.{command}.s"] = main_s[command]
            samples[f"cli.main.{command}.s"] = CLI_REPEATS
        metrics["cli.stdout_bytes"] = stdout_bytes

    # The kernel stream in blocks, each run untraced and traced (in turn
    # first), so that the difference is the tracing overhead.
    prepared = prepare(inputs.kernel_ops(seed))
    plain = kernel_functions()
    traced_mul = tracer.wrap("octonion.mul", oc.mul)
    roots = set()
    overhead = 0.0
    deadline = time.perf_counter() + seconds
    start = 0
    while time.perf_counter() < deadline:
        block = [prepared[(start + k) % len(prepared)] for k in range(BLOCK)]
        for traced in ((False, True) if start % (2 * BLOCK) == 0 else (True, False)):
            if traced:
                with instrumented(tracer), tracer.span("bench.kernel_stream") as root:
                    fns = kernel_functions()
                    fns["mul"] = traced_mul
                    outs = [_call(fns[kind], args) for kind, args, _ in block]
                overhead += tracer.duration(root)
                roots.add(root)
            else:
                t0 = time.perf_counter()
                [_call(plain[kind], args) for kind, args, _ in block]   # as the traced block
                overhead -= time.perf_counter() - t0
        for (kind, args, wide), (out, reason) in zip(block, outs):
            if reason is None:
                reason = check_kernel(kind, args, out, d)
            tally.add(reason, known=wide and kind in INT64_PATHS)
        start += BLOCK
    metrics["trace.overhead_s"] = overhead
    for kind, layer in LAYER_OF.items():
        spans = tracer.children(roots, f"{layer}.{kind}")
        metrics[f"{layer}.{kind}.us.p50"] = statistics.median(
            tracer.duration(i) for i in spans) * 1e6
        samples[f"{layer}.{kind}.us.p50"] = len(spans)
        if kind == "mul":
            metrics["octonion.mul.calls"] = len(spans)
    for layer, seconds_ in tracer.self_seconds().items():
        if layer in ("octonion", "clifford", "triality", "cli"):
            metrics[f"{layer}.self_s"] = seconds_
    return {"metrics": metrics, "samples": samples, "in_process_main_s": main_s,
            "tally": tally.to_json()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("kernels", "probe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="kernels: the most time to spend; probe: time for the kernel blocks")
    ap.add_argument("--ops", type=int, default=0, help="kernels: calls to make")
    args = ap.parse_args(argv)
    if args.mode == "kernels":
        result = run_kernels(args.seed, args.ops, args.seconds)
    else:
        checker = Checker(Path(__file__).resolve().parents[1] / "schemas")
        result = run_probe(args.seed, args.seconds, checker)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
