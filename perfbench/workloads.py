"""Workload inputs, made from a seed, and the requests that run them.

Every workload is a sequence of rounds. A round has a fixed composition: one
request per slot, where a slot fixes the operation and the pool its inputs
come from, and the seed picks the inputs inside each pool and the order of
the requests. Whole rounds keep the mix of cheap and expensive requests the
same from seed to seed, so medians and tails compare across runs.

All inputs come from finite pools, so ``make_golden.py`` can record a digest
of every output the benchmark can ask for.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# -- visibility-mix ---------------------------------------------------------------

# two lambdas or more from each regime: all blocked, exact gaps, interior on
# both sides, null complement
POOL = (F(2, 5), F(5, 12), F(1, 3), F(7, 20), F(3, 8),
        F(3, 10), F(2, 7), F(7, 25), F(1, 4), F(1, 5), F(2, 9))
POOL_LOW = tuple(lam for lam in POOL if lam < F(1, 3))
POOL_HIGH = tuple(lam for lam in POOL if lam >= F(1, 3))
# lambdas below 1/3 outside the pool; each is used once per pass through the
# list, so every use misses a cover cache keyed by lambda
FRESH = tuple(F(p, q) for q in range(50, 98) for p in range(q // 5, q // 3 + 1)
              if gcd(p, q) == 1 and F(1, 5) < F(p, q) < F(1, 3) and F(p, q) not in POOL)


def alphas(lam: F) -> tuple[F, ...]:
    """Query slopes: a structure or cover gap, endpoint ratios at scales 0 and
    1, the diagonal, and two slopes near 1 that may stay undecided."""
    return (F(17, 10), 1 - lam, lam * (1 - lam), F(1), F(101, 97), F(9, 8))


# (operation, lambda pool, variants); a variant is the depth n for "qcc" and
# "vq", and the scale window k for "vs" (always at depth 6)
VIS_SLOTS = (
    ("qcc", "pool", (6,)), ("qcc", "pool", (6,)), ("qcc", "pool", (7,)),
    ("qcc", "pool", (8,)), ("qcc", "fresh", (6,)), ("qcc", "fresh", (7,)),
    ("vq", "low", (6,)), ("vq", "low", (6,)), ("vq", "low", (7,)),
    ("vq", "low", (8,)), ("vq", "fresh", (6,)),
    ("vq", "high", (6, 7, 8)), ("vq", "high", (6, 7, 8)),
    ("vs", "low", (1, 2, 3)), ("vs", "fresh", (1, 2)), ("vs", "high", (1, 2, 3)),
)
VS_DEPTH = 6
LAMBDA_POOLS = {"pool": POOL, "low": POOL_LOW, "high": POOL_HIGH, "fresh": FRESH}

# -- slice-dynamics ---------------------------------------------------------------

SLICE_LAMBDA = F(1, 3)
# t with a finite closure and a convergent spectral radius at lambda = 1/3
LIGHT_T = (F(1, 2), F(1, 3), F(2, 3), F(2, 5), F(3, 4), F(4, 5), F(3, 2),
           F(2), F(5, 4), F(4, 3), F(3), F(5, 2), F(5, 6), F(3, 7))
# run a second time in every round: they cost the same and sit where the
# median of a round falls, so the median is the middle of 4 equal requests
# per round instead of the edge of 2, next to a group 13% cheaper
LIGHT_T_TWICE = (F(1, 3), F(3))
# t whose edge matrix is defective, so spectral_radius runs to its cap
CAPPED_T = (F(3, 5), F(5, 3), F(4, 7))
SLICE_BUDGET = 10_000
C8_BUDGET = 2_000
# every round runs all of them, so neither the cost of a round nor the peak
# memory of a run depends on which draws a seed would pick
C8_COUNT = 3
UNIVOQUE_DEPTHS = (6, 7, 8)
COUNT_DEPTH = 8
OFFSETS_PER_REQUEST = 4
OFFSET_STEPS = 16


def c8_draws() -> tuple[tuple[F, F], ...]:
    """Fixed (lambda, t) draws made the way acceptance criterion 8 makes them:
    lambda = k/100 in [0.26, 0.48], t on a 1/64 grid of one of the two slope
    bands that keep the projection an interval."""
    rng = random.Random(8)
    out: list[tuple[F, F]] = []
    while len(out) < C8_COUNT:
        lam = F(rng.randrange(26, 49), 100)
        low, high = 1 - 2 * lam, lam / (1 - 2 * lam)
        if rng.random() < 0.5:
            lo_b, hi_b = low, min(high, F(1))
        else:
            lo_b, hi_b = max((1 - 2 * lam) / lam, F(1)), 1 / (1 - 2 * lam)
        if lo_b > hi_b:
            continue
        t = lo_b + (hi_b - lo_b) * F(rng.randrange(0, 65), 64)
        if t <= 0 or t == 1 or (lam, t) in out:
            continue
        out.append((lam, t))
    return tuple(out)


C8 = c8_draws()


def offset(t: F, j: int) -> F:
    return -t + (1 + t) * F(j, OFFSET_STEPS)


# -- cli-cold ---------------------------------------------------------------------

README_EXAMPLES = (
    "classify --lambda 7/20",
    "visible --lambda 7/20 --alpha 17/10 --k-window 3",
    "visible-set --lambda 7/20 --k-window 1 --format svg --out gaps.svg",
    "quotient-cover --lambda 1/5 --depth 4 --format csv",
    "key2-check --lambda 1/3",
    "thickness --lambda 3/10",
    "boxdim --lambda 1/5 --family quotient --n-min 2 --n-max 7",
    "project --lambda 1/3 --slope-t 1/2",
    "orbits --lambda 1/3 --slope-t 1/2 --point=-1/6",
    "prop1 --lambda 1/3 --slope-t 1/2",
    "prop2 --lambda 1/3 --slope-t 1/2",
    "gds --lambda 1/3 --slope-t 1/2 --format dot",
    "gds-dim --lambda 1/3 --slope-t 1/2",
    "codings --lambda 1/3 --slope-t 1/2 --point=-1/6 --depth 8",
    "slice-count --lambda 1/3 --slope-t 1/2 --point=-1/6 --depth 8",
)
# (arguments, expected error code or None for any code)
ERROR_PROBES = (
    ("classify --lambda 7/2x", "parse-error"),
    ("quotient-cover --lambda 1/5 --depth 25", "depth-budget-exceeded"),
    ("classify --lambda 3/5", "out-of-range"),
    # operand bit-size blow-up: prints a traceback and no report at the seed commit
    ("quotient-cover --lambda 1000000000000000000000000000001/"
     "5000000000000000000000000000007 --depth 6", None),
)
CLI_DIR = OUT / "cli"


# -- rounds -----------------------------------------------------------------------

class Cycle:
    """Seeded draws that use every item once before any item repeats."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class Rounds:
    """Endless seeded sequence of rounds for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        rng = self.rng
        if workload == "visibility-mix":
            fresh = Cycle(rng, FRESH)
            self.slots = []
            for op, pool, variants in VIS_SLOTS:
                lams = fresh if pool == "fresh" else Cycle(rng, LAMBDA_POOLS[pool])
                self.slots.append((op, lams, Cycle(rng, variants), Cycle(rng, range(6))))
        elif workload == "slice-dynamics":
            self.capped = Cycle(rng, CAPPED_T)

    def next(self) -> list[tuple]:
        rng = self.rng
        if self.workload == "visibility-mix":
            reqs = []
            for op, lams, variants, alpha_idx in self.slots:
                lam, v = lams.next(), variants.next()
                if op == "qcc":
                    reqs.append(("qcc", lam, v))
                elif op == "vq":
                    reqs.append(("vq", lam, alphas(lam)[alpha_idx.next()], v))
                else:
                    reqs.append(("vs", lam, v, VS_DEPTH))
        elif self.workload == "slice-dynamics":
            picks = [(SLICE_LAMBDA, t, SLICE_BUDGET) for t in LIGHT_T + LIGHT_T_TWICE]
            picks.append((SLICE_LAMBDA, self.capped.next(), SLICE_BUDGET))
            picks.extend((lam, t, C8_BUDGET) for lam, t in C8)
            reqs = [("slice", lam, t, budget,
                     tuple(sorted(rng.sample(range(1, OFFSET_STEPS), OFFSETS_PER_REQUEST))))
                    for lam, t, budget in picks]
        else:
            reqs = [("cli", tuple(a.split()), "report") for a in README_EXAMPLES]
            reqs += [("cli", tuple(a.split()), ("error", code)) for a, code in ERROR_PROBES]
        rng.shuffle(reqs)
        return reqs


WORKLOADS = ("visibility-mix", "slice-dynamics", "cli-cold")


# -- golden keys ------------------------------------------------------------------

def golden_key(*parts) -> str:
    return "|".join(gate.q(p) if isinstance(p, (F, int)) and not isinstance(p, bool)
                    else str(p) for p in parts)


def golden_keys_visibility():
    """Every visibility request any seed can produce."""
    out = []
    for op, pool, variants in VIS_SLOTS:
        for lam in LAMBDA_POOLS[pool]:
            for v in variants:
                if op == "qcc":
                    out.append(("qcc", lam, v))
                elif op == "vq":
                    out.extend(("vq", lam, a, v) for a in alphas(lam))
                else:
                    out.append(("vs", lam, v, VS_DEPTH))
    return list(dict.fromkeys(out))


def slice_inputs():
    """Every (lambda, t, budget) any seed can produce."""
    return ([(SLICE_LAMBDA, t, SLICE_BUDGET) for t in LIGHT_T + CAPPED_T]
            + [(lam, t, C8_BUDGET) for lam, t in C8])


def request_key(req) -> str:
    return golden_key(*req) if req[0] != "cli" else "cli|" + " ".join(req[1])


# -- execution --------------------------------------------------------------------

class Program:
    """The program under test, imported from the checkout's src/ only."""

    def __init__(self):
        if not (SRC / "cantorvis" / "__init__.py").is_file():
            raise SystemExit(f"program source not found under {SRC}")
        sys.path.insert(0, str(SRC))
        import cantorvis
        if Path(cantorvis.__file__).resolve().parent != (SRC / "cantorvis").resolve():
            raise SystemExit(f"imported cantorvis from {cantorvis.__file__}, not {SRC}")
        from cantorvis import cantor, errors, gds, slices, visibility
        self.cantor, self.errors, self.gds = cantor, errors, gds
        self.slices, self.vis = slices, visibility


def execute(prog: Program, req, lap, trace_file=None):
    """Run one request; the caller times this call. `lap()` is called between
    the stages of a slice query, so that each stage is timed on its own."""
    kind = req[0]
    if kind == "qcc":
        return prog.vis.quotient_core_cover(req[1], req[2])
    if kind == "vq":
        return prog.vis.visible_query(req[1], req[2], n=req[3])
    if kind == "vs":
        return prog.vis.visible_set(req[1], req[2], n=req[3])
    if kind == "slice":
        return _execute_slice(prog, req, lap)
    return _execute_cli(req, trace_file)


def _execute_slice(prog: Program, req, lap):
    _, lam, t, budget, offsets = req
    sl, gd = prog.slices, prog.gds
    ifs = sl.build_projection_ifs(lam, t)
    out = {"ifs": ifs, "outcome": "budget-exhausted"}
    try:
        system, p1, p2 = gd.gds_from_dynamics(ifs, budget)
    except prog.errors.ClosureNotFinite:
        pass
    else:
        lap()
        dimension = gd.gds_dimension(system)
        lap()
        out.update(outcome="finite-closure", system=system, p1=p1, p2=p2,
                   dimension=dimension,
                   univoque=gd.univoque_dimension_estimate(ifs, UNIVOQUE_DEPTHS))
    lap()
    out["counts"] = []
    for a in (offset(t, j) for j in offsets):
        out["counts"].append((a, sl.coding_count(ifs, a, COUNT_DEPTH),
                              sl.slice_count_2d(lam, t, a, COUNT_DEPTH)))
    return out


# numpy's BLAS starts a worker thread per core when it loads, and the workers
# spin on the other cores after each call. The client is one thread; with
# the workers, a command's time would also depend on how busy the machine's
# other cores are, which the speed kernel (one thread) does not see. So the
# benchmark process and every process it starts run BLAS on one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CANTOR_VIS_MAX_DEPTH", None)
    return env


CHILD_TIMEOUT_S = 60


def _execute_cli(req, trace_file=None):
    """Run one CLI command as a fresh interpreter; collect its outputs and peak RSS."""
    argv = list(req[1])
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    out_file = CLI_DIR / argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_file is not None and out_file.exists():
        out_file.unlink()
    if trace_file is None:
        cmd = [sys.executable, "-m", "cantorvis.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               str(trace_file), repr(time.perf_counter()), *argv]
    stdout_path, stderr_path = CLI_DIR / "stdout", CLI_DIR / "stderr"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        proc = subprocess.Popen(cmd, cwd=CLI_DIR, stdout=so, stderr=se,
                                stdin=subprocess.DEVNULL, env=child_env())
        status, rusage = wait_child(proc, CHILD_TIMEOUT_S)
    return {
        "exit": status,
        "stdout": stdout_path.read_text(),
        "stderr": stderr_path.read_text(),
        "file": out_file.read_text() if out_file is not None and out_file.exists() else None,
        "maxrss_kb": rusage.ru_maxrss,
    }


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap a child with os.wait4, which also reports that child's own peak RSS.

    A child still running after `timeout` seconds is killed, then reaped.
    """
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


# -- verification -----------------------------------------------------------------

def verify(prog: Program, req, result, golden: dict,
           spectral_radius=gate.numpy_spectral_radius) -> list[str]:
    """Problems with one output: failed certificates and digest mismatches.

    `spectral_radius` is the eigenvalue oracle for gds dimensions; the
    benchmark passes its helper interpreter's, to keep numpy out of its own
    process."""
    kind = req[0]
    if kind == "slice":
        return _verify_slice(req, result, golden, spectral_radius)
    if kind == "cli":
        return _verify_cli(req, result, golden)
    lam = req[1]
    if kind == "qcc":
        problems, dig = gate.check_cover(lam, result), gate.digest_cover(result)
    elif kind == "vq":
        params = prog.cantor.CantorParams(lam)
        problems = gate.check_visible_query(lam, req[2], result,
                                            prog.cantor.membership, params)
        dig = gate.digest_visible_query(result)
    else:
        problems, dig = gate.check_visible_set(lam, result), gate.digest_visible_set(result)
    return problems + _compare(golden, request_key(req), dig)


def _compare(golden: dict, key: str, dig: str) -> list[str]:
    expected = golden.get(key)
    if expected is None:
        return [f"no recorded digest for {key}"]
    if expected != dig:
        return [f"digest mismatch for {key}"]
    return []


def slice_digests(req, result) -> dict[str, str]:
    """Digest of every exact output of one slice request, by golden key."""
    _, lam, t, budget, offsets = req
    out = {golden_key("gds", lam, t, budget): gate.digest_gds(
        result["ifs"], result["outcome"], result.get("system"),
        result.get("p1"), result.get("p2"))}
    if "univoque" in result:
        out[golden_key("uni", lam, t, ",".join(map(str, UNIVOQUE_DEPTHS)))] = \
            gate.digest_univoque(result["univoque"])
    for a, count, _ in result["counts"]:
        out[golden_key("cnt", lam, t, a, COUNT_DEPTH)] = gate.digest_count(count)
    return out


def _verify_slice(req, result, golden: dict, spectral_radius) -> list[str]:
    _, lam, t, _, _ = req
    problems = gate.check_counts(result["counts"])
    if "system" in result:
        problems += gate.check_gds(lam, t, result["system"])
        problems += gate.check_dimension(lam, result["system"], result["dimension"],
                                         spectral_radius)
    for key, dig in slice_digests(req, result).items():
        problems += _compare(golden, key, dig)
    return problems


def answered(req, result) -> bool:
    """True when the request produced an answer, so a problem with it is a
    wrong answer rather than a failed request. A CLI command answers when it
    exits 0 where a report is expected; an error probe never answers."""
    return req[0] != "cli" or (req[2] == "report" and result["exit"] == 0)


def cli_report(result) -> str:
    return result["file"] if result["file"] is not None else result["stdout"]


def _verify_cli(req, result, golden: dict) -> list[str]:
    expect = req[2]
    if expect == "report":
        problems = [] if result["exit"] == 0 else [f"exit code {result['exit']}"]
        return problems + _compare(golden, request_key(req),
                                   gate.digest_cli(result["exit"], cli_report(result)))
    return gate.check_error_report(result["exit"], result["stdout"], expect[1])
