"""Seeded inputs for the benchmark workloads.

Everything here is plain data derived from the workload seed alone: the same
seed always yields the same CLI argument lists and the same kernel calls.
Nothing here imports splitoct, so the inputs do not depend on the code under
test.
"""
from __future__ import annotations

import random

SUITE_RANGE = 9          # components of the kernel's own suites lie in [-9, 9]
WIDE_BOUND = 2 ** 40     # components of a wide exact-int draw lie in [-2^40, 2^40]
WIDE_EVERY = 10          # exactly one exact-int draw in ten is wide
ROTATION_RANGE = 2.0     # |theta| bound for angles and rapidities

# cli-oneshot: one CLI process per entry, drawn with these weights
ONESHOT_MIX = (
    ("rotate-vector", 3),
    ("rotate-spinor", 3),
    ("trilinear-exact", 2),
    ("trilinear-float", 2),
    ("matrices", 1),
    ("table", 1),
)
ONESHOT_POOL = 64

# kernel-stream: one public call per entry.  The weights put the median
# inside the cheap calls (mul, rotate_spinor, spinor_invariant) and the 90th
# percentile inside the rotate_vector calls, so neither percentile sits on a
# boundary between two kernels' costs.
KERNEL_MIX = (
    ("mul", 18),
    ("rotate_spinor", 14),
    ("spinor_invariant", 30),
    ("trilinear_matrix", 5),
    ("trilinear_both", 3),
    ("rotate_vector", 30),
)
KERNEL_POOL = 4096
INT_KERNELS = frozenset({"mul", "spinor_invariant", "trilinear_matrix", "trilinear_both"})


def _plane(rng: random.Random):
    mu, nu = rng.sample(range(8), 2)
    return mu, nu


def _ints(rng: random.Random, n: int, bound: int = SUITE_RANGE):
    return [rng.randint(-bound, bound) for _ in range(n)]


def _floats(rng: random.Random, n: int):
    return [round(rng.uniform(-SUITE_RANGE, SUITE_RANGE), 6) for _ in range(n)]


def _theta(rng: random.Random) -> float:
    return round(rng.uniform(-ROTATION_RANGE, ROTATION_RANGE), 6)


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def _oneshot(kind: str, rng: random.Random) -> list:
    # Values go in --flag=value form: argparse would take a leading '-' in a
    # separate argument for an option.
    if kind in ("rotate-vector", "rotate-spinor"):
        target = kind.split("-")[1]
        mu, nu = _plane(rng)
        comps = _ints(rng, 8 if target == "vector" else 16)
        return ["rotate", f"--plane={mu},{nu}", f"--theta={_theta(rng)!r}",
                f"--target={target}", f"--components={_csv(comps)}"]
    if kind in ("trilinear-exact", "trilinear-float"):
        mode = kind.split("-")[1]
        draw = _ints if mode == "exact" else _floats
        return ["trilinear", f"--phi={_csv(draw(rng, 8))}", f"--x={_csv(draw(rng, 8))}",
                f"--psi={_csv(draw(rng, 8))}", "--representation=both", f"--mode={mode}"]
    if kind == "matrices":
        which = rng.choice(("alpha", "gamma", "B", "xi"))
        argv = ["matrices", f"--which={which}", f"--mode={rng.choice(('exact', 'float'))}"]
        if which in ("alpha", "gamma") and rng.random() < 0.5:
            argv.append(f"--index={rng.randrange(8)}")
        return argv
    if kind == "table":
        return ["table"]
    raise ValueError(kind)


def oneshot_argv(seed: int, n: int = ONESHOT_POOL) -> list:
    """The cli-oneshot stream: ``n`` argument lists for ``splitoct.cli``."""
    rng = random.Random(f"cli-oneshot:{seed}")
    kinds, weights = zip(*ONESHOT_MIX)
    return [_oneshot(rng.choices(kinds, weights)[0], rng) for _ in range(n)]


def probe_argv(seed: int) -> dict:
    """One argument list per subcommand, for the traced in-process calls."""
    picked = {"verify": ["verify", "all", f"--seed={verify_seed(seed)}"]}
    for argv in oneshot_argv(seed):
        picked.setdefault(argv[0], argv)
    return picked


def verify_seed(seed: int) -> int:
    """``--seed`` of the verify-all processes (numpy needs it non-negative)."""
    return seed % 2 ** 32


def kernel_ops(seed: int, n: int = KERNEL_POOL) -> list:
    """The kernel-stream calls as ``(kernel, data, wide)``.

    ``data`` is plain lists and numbers; ``wide`` marks the exact-int draws
    whose components reach 2^40 instead of the suites' [-9, 9].
    """
    rng = random.Random(f"kernel-stream:{seed}")
    kinds, weights = zip(*KERNEL_MIX)
    ops = []
    int_draws = 0
    for _ in range(n):
        kind = rng.choices(kinds, weights)[0]
        wide = False
        if kind in INT_KERNELS:
            wide = int_draws % WIDE_EVERY == WIDE_EVERY - 1
            int_draws += 1
        bound = WIDE_BOUND if wide else SUITE_RANGE
        if kind == "mul":
            data = (_ints(rng, 8, bound), _ints(rng, 8, bound))
        elif kind == "spinor_invariant":
            half = _ints(rng, 8, bound)
            # a pure-chirality spinor: the other half is zero
            data = half + [0] * 8 if rng.random() < 0.5 else [0] * 8 + half
        elif kind in ("trilinear_matrix", "trilinear_both"):
            data = (_ints(rng, 8, bound), _ints(rng, 8, bound), _ints(rng, 8, bound))
        else:
            mu, nu = _plane(rng)
            data = (mu, nu, _theta(rng), _floats(rng, 8 if kind == "rotate_vector" else 16))
        ops.append((kind, data, wide))
    return ops
