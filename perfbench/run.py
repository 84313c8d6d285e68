"""cantorvis benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
The client sends each request after the previous one has finished, in this
single process and thread (cli-cold starts one fresh interpreter per
request). It runs whole rounds (see workloads.py) for about S seconds of
request time, checks every output (gate.py), and prints the
metrics one per line, then one JSON object as the last line.

--trace 0 reports the end-to-end metrics. --trace 1 first runs rounds for
about S/2 seconds untraced in a separate fresh process, then the same rounds
(same seed, same count) in this process with the span recorder installed
(tracing.py), and reports the per-layer metrics and the tracing overhead:
traced minus untraced time for the same requests. Neither pass follows the
other in one process, so a cache the program keeps cannot serve the traced
pass from the untraced one.

Reference-kernel timings (speed.py) and the gate's eigenvalue oracle run in a
helper interpreter (helper.py), apart from the program's interpreter state.

A record of each run is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import faulthandler
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
from helper import Helper  # noqa: E402
import workloads as wl  # noqa: E402

os.environ.update(wl.BLAS_ENV)  # before the helper starts and cantorvis loads numpy

GOLDEN = Path(__file__).resolve().parent / "golden.json"
WATCHDOG_S = 170
SETUP_REPEATS = 15

# Fixed per workload so that runs of different commits report the same
# quantile, with at least ten samples beyond it in a 30 s run of the seed
# commit on a 2-core machine, and inside a group of requests of about equal
# cost rather than on a gap between two groups, where it would jump from run
# to run. visibility-mix: p95. slice-dynamics: a round has 16 light queries,
# then 4 of 0.5 s or more; p75 lies among the two costliest light queries
# (t = 2/3 and 3/2, within 5% of each other). cli-cold: 17 commands take
# within 15% of each other, then `boxdim` about 40% more and the failing
# probe ranks last; p87 lies among the costliest of the 17.
TAIL_PERCENTILE = {"visibility-mix": 95, "slice-dynamics": 75, "cli-cold": 87}

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, normalized per request where they are sums.
PER_LAYER = (
    ("exact.IntervalSet.calls", "calls/req"),
    ("exact.IntervalSet.self_s", "s/req"),
    ("exact.IntervalSet.parts_in", "parts/req"),
    ("exact.IntervalSet.parts_out", "parts/req"),
    ("exact.merge_ratio", "ratio"),
    ("exact.interval_quotient.calls", "calls/req"),
    ("exact.interval_quotient.self_s", "s/req"),
    ("exact.affine_image.self_s", "s/req"),
    ("exact.max_endpoint_bits", "bits"),
    ("cantor.refine_to_depth.calls", "calls/req"),
    ("cantor.refine_to_depth.self_s", "s/req"),
    ("cantor.intervals_enumerated", "intervals/req"),
    ("cantor.endpoint_rank.calls", "calls/req"),
    ("cantor.endpoint_rank.self_s", "s/req"),
    ("cantor.basic_intervals.self_s", "s/req"),
    ("visibility.visible_query.calls", "calls/req"),
    ("visibility.visible_query.self_s", "s/req"),
    ("visibility.visible_set.calls", "calls/req"),
    ("visibility.visible_set.self_s", "s/req"),
    ("visibility.quotient_core_cover.calls", "calls/req"),
    ("visibility.quotient_core_cover.self_s", "s/req"),
    ("visibility.pairs_quotiented", "pairs/req"),
    ("visibility.cover_parts", "parts/req"),
    ("visibility.cover_repeat_ratio", "ratio"),
    ("visibility.decided_ratio", "ratio"),
    ("visibility.box_count.self_s", "s/req"),
    ("slices.orbit_search.calls", "calls/req"),
    ("slices.orbit_search.self_s", "s/req"),
    ("slices.orbit_nodes", "nodes/req"),
    ("slices.orbit_saturated_ratio", "ratio"),
    ("slices.orbit_max_bits", "bits"),
    ("slices.build_projection_ifs.self_s", "s/req"),
    ("slices.survivor_cover.calls", "calls/req"),
    ("slices.survivor_cover.self_s", "s/req"),
    ("slices.survivor_parts", "parts/req"),
    ("slices.coding_count.self_s", "s/req"),
    ("slices.slice_count_2d.self_s", "s/req"),
    ("gds.build_gds.self_s", "s/req"),
    ("gds.spectral_radius.calls", "calls/req"),
    ("gds.spectral_radius.self_s", "s/req"),
    ("gds.spectral_iterations", "iters/req"),
    ("gds.spectral_capped_ratio", "ratio"),
    ("gds.states", "states/req"),
    ("gds.edges", "edges/req"),
    ("cli.interpreter_s", "s/req"),
    ("cli.import_s", "s/req"),
    ("cli.import_numpy_s", "s/req"),
    ("cli.main.self_s", "s/req"),
    ("render.svg_interval_sets.self_s", "s/req"),
    ("cli.report_bytes", "B/req"),
) + tuple((f"share.{layer}", "ratio") for layer in tracing.LAYERS) + (
    ("trace.overhead_ratio", "ratio"),
    ("trace.requests", "count"),
)


class Stats:
    """What one pass over a list of rounds measured."""

    def __init__(self):
        self.latencies: list[tuple[bool, float]] = []  # (failed, normalized s)
        self.requests: list = []
        self.factors: list[float] = []  # speed factor of each request
        self.wall = 0.0  # request time as measured
        self.busy = 0.0  # request time, speed-normalized
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.outcomes: dict[str, int] = {}
        self.rounds = 0
        self.maxrss_kb = 0
        self.report_bytes = 0
        self.child: list[tuple[int, dict]] = []  # (request index, child record)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def _more_rounds(stats: Stats, seconds: float) -> bool:
    """Start another round while it would end, on average, closer to `seconds`."""
    if not stats.rounds:
        return True
    return stats.wall + stats.wall / stats.rounds / 2 < seconds


def run_round(prog, batch: list, stats: Stats, golden: dict, helper: Helper,
              rec=None, setup=None) -> None:
    """Send the requests of one round one after another, timing and checking
    each; between requests, take the set-up samples that are due."""
    request_span = rec.name_id("bench.request") if rec else None
    trace_file = wl.CLI_DIR / "trace.json" if rec else None

    def calibrate() -> float:
        if rec is None:
            return helper.calibrate()
        idx = rec.open(rec.name_id("speed.kernel"))
        try:
            return helper.calibrate()
        finally:
            rec.close(idx)

    stats.rounds += 1
    before = calibrate()
    for req in batch:
        if setup is not None and setup.due(stats):
            before = calibrate()
        if rec:
            rec.request_id = stats.attempted
            span = rec.open(request_span)
        result, error = None, None
        watch = speed.Stopwatch(calibrate, before)
        try:
            result = wl.execute(prog, req, watch.lap, trace_file)
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        watch.lap()
        if rec:
            rec.close(span)
        before = watch.before
        stats.wall += watch.wall
        stats.busy += watch.scaled
        stats.factors.append(watch.scaled / watch.wall)
        problems = [error] if error else wl.verify(prog, req, result, golden,
                                                   helper.spectral_radius)
        if problems:
            stats.failed += 1
            stats.wrong += error is None and wl.answered(req, result)
            stats.problems.extend(f"{wl.request_key(req)}: {p}" for p in problems)
        stats.latencies.append((bool(problems), watch.scaled))
        stats.requests.append(req)
        _note_outcome(stats, req, result)
        if rec and req[0] == "cli" and trace_file.exists():
            stats.child.append((stats.attempted - 1, json.loads(trace_file.read_text())))
            trace_file.unlink()


def _note_outcome(stats: Stats, req, result) -> None:
    if result is None:
        return
    if req[0] == "slice":
        key = result["outcome"]
    elif req[0] == "vq":
        key = result.status.value
    elif req[0] == "cli":
        stats.maxrss_kb = max(stats.maxrss_kb, result["maxrss_kb"])
        stats.report_bytes += len(result["stdout"]) + len(result["file"] or "")
        key = f"exit-{result['exit']}"
    else:
        return
    stats.outcomes[key] = stats.outcomes.get(key, 0) + 1


def percentile(stats: Stats, p: float) -> tuple[float, int]:
    """Nearest-rank percentile; failed requests rank above every success,
    because a failed request misses any latency limit. Returns the value and
    the number of samples beyond it."""
    ordered = sorted(stats.latencies)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1][1], len(ordered) - rank


class Setup:
    """Samples of set-up time: a fresh interpreter's import of the program
    (`cantorvis`, or `cantorvis.cli` for cli-cold) plus input generation,
    each speed-normalized.

    The first sample is taken before the first request and the others between
    requests, one per `seconds / SETUP_REPEATS` of request time, so that
    their median spans the whole run and not only the machine speed of its
    first seconds.
    """

    def __init__(self, workload: str, seed: int, helper: Helper, seconds: float):
        self.workload, self.seed, self.helper = workload, seed, helper
        self.module = "cantorvis.cli" if workload == "cli-cold" else "cantorvis"
        self.every = seconds / SETUP_REPEATS
        self.samples: list[float] = []

    def due(self, stats: Stats) -> bool:
        """Take a sample if one is due; True if it did."""
        if stats.wall < len(self.samples) * self.every:
            return False
        self.sample()
        return True

    def sample(self) -> None:
        watch = speed.Stopwatch(self.helper.calibrate, self.helper.calibrate())
        proc = subprocess.run([sys.executable, "-c", f"import {self.module}"], cwd=wl.ROOT,
                              env=wl.child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=wl.CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"fresh import of {self.module} failed:\n{proc.stderr.decode()}")
        wl.Rounds(self.workload, self.seed).next()
        watch.lap()
        self.samples.append(watch.scaled)

    def median(self) -> float:
        return statistics.median(self.samples)


def end_to_end(workload: str, stats: Stats, setup_s: float) -> tuple[dict, dict]:
    tail_p = TAIL_PERCENTILE[workload]
    p50, _ = percentile(stats, 50)
    tail, beyond = percentile(stats, tail_p)
    if workload == "cli-cold":
        rss_kb = stats.maxrss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "throughput_rps": (stats.attempted - stats.failed) / stats.busy,
        "latency_p50_ms": p50 * 1000,
        "latency_tail_ms": tail * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = {"tail_percentile": tail_p, "tail_samples_beyond": beyond,
             "samples": stats.attempted, "wall_s": stats.wall, "busy_s": stats.busy}
    if beyond < 10:
        notes["warning"] = f"only {beyond} samples beyond p{tail_p}"
    return values, notes


def _child_totals(stats: Stats):
    """Merge the per-command aggregates written by traced cli children."""
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    maxima: dict[str, int] = {}
    for request, child in stats.child:
        scale = stats.factors[request]
        for name, t in child["self_s"].items():
            own[name] = own.get(name, 0.0) + t * scale
        for name, c in child["calls"].items():
            calls[name] = calls.get(name, 0) + c
        for name, v in child["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, v in child["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)
        own["cli.interpreter"] = own.get("cli.interpreter", 0.0) + child["interpreter_s"] * scale
        for name in ("import_s", "import_numpy_s"):
            counters[f"cli.{name}"] = counters.get(f"cli.{name}", 0.0) + child[name] * scale
    return own, calls, counters, maxima


def per_layer(workload: str, rec: tracing.Recorder, traced: Stats, untraced: list) -> dict:
    """Per-layer metrics of a traced pass; `untraced` holds the speed-normalized
    time of each of the same requests in the untraced pass."""
    own, calls = rec.self_times(traced.factors)
    counters, maxima = dict(rec.counters), dict(rec.maxima)
    if workload == "cli-cold":
        c_own, c_calls, c_counters, c_maxima = _child_totals(traced)
        # the request span covers the whole child process; what the child
        # did not account for is process start and exit outside Python
        own["bench.request"] = own.get("bench.request", 0.0) - sum(c_own.values())
        own.update(c_own)
        calls.update(c_calls)
        counters.update(c_counters)
        maxima.update(c_maxima)
        counters["cli.report_bytes"] = traced.report_bytes
    own = {name: t for name, t in own.items() if not name.startswith("speed.")}
    n = traced.attempted
    total = sum(own.values())

    def per_req(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = per_req(own.get(base, 0.0))
        elif field == "calls":
            values[name] = per_req(calls.get(base, 0))
    keys = rec.cover_keys
    values.update({
        "exact.IntervalSet.parts_in": per_req(counters.get("exact.IntervalSet.parts_in", 0)),
        "exact.IntervalSet.parts_out": per_req(counters.get("exact.IntervalSet.parts_out", 0)),
        "exact.merge_ratio": ratio(counters.get("exact.IntervalSet.parts_out", 0),
                                   counters.get("exact.IntervalSet.parts_in", 0)),
        "exact.max_endpoint_bits": maxima.get("exact.max_endpoint_bits", 0),
        "cantor.intervals_enumerated": per_req(counters.get("cantor.intervals_enumerated", 0)),
        "visibility.pairs_quotiented": per_req(calls.get("exact.interval_quotient", 0)),
        "visibility.cover_parts": per_req(counters.get("visibility.cover_parts", 0)),
        "visibility.cover_repeat_ratio": ratio(len(keys) - len(set(keys)), len(keys)),
        "visibility.decided_ratio": ratio(counters.get("visibility.decided", 0),
                                          calls.get("visibility.visible_query", 0)),
        "slices.orbit_nodes": per_req(counters.get("slices.orbit_nodes", 0)),
        "slices.orbit_saturated_ratio": ratio(counters.get("slices.orbit_saturated", 0),
                                              calls.get("slices.orbit_search", 0)),
        "slices.orbit_max_bits": maxima.get("slices.orbit_max_bits", 0),
        "slices.survivor_parts": per_req(counters.get("slices.survivor_parts", 0)),
        "gds.spectral_iterations": per_req(counters.get("gds.spectral_iterations", 0)),
        "gds.spectral_capped_ratio": ratio(counters.get("gds.spectral_capped", 0),
                                           calls.get("gds.spectral_radius", 0)),
        "gds.states": per_req(counters.get("gds.states", 0)),
        "gds.edges": per_req(counters.get("gds.edges", 0)),
        "cli.interpreter_s": per_req(own.get("cli.interpreter", 0.0)),
        "cli.import_s": per_req(counters.get("cli.import_s", 0.0)),
        "cli.import_numpy_s": per_req(counters.get("cli.import_numpy_s", 0.0)),
        "cli.report_bytes": per_req(counters.get("cli.report_bytes", 0)),
        # the median over requests of traced over untraced time, so that one
        # long request caught in a slow moment of either pass does not set it
        "trace.overhead_ratio": statistics.median(
            t / u for (_, t), u in zip(traced.latencies, untraced)) - 1,
        "trace.requests": n,
    })
    for layer in tracing.LAYERS:
        values[f"share.{layer}"] = ratio(
            sum(t for name, t in own.items() if name.split(".", 1)[0] == layer), total)
    return {name: values[name] for name, _ in PER_LAYER}


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")  # without importing it
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def untraced_base(workload: str, seed: int, seconds: float) -> dict:
    """Run rounds untraced for about `seconds` in a fresh process (--base)."""
    proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--base"],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=WATCHDOG_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"untraced pass failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, one process each, then RECORD.json."""
    import record
    paths = []
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            subprocess.run([sys.executable, __file__, "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(trace)], check=True)
            paths.append(wl.OUT / f"result-{workload}-seed{seed}-trace{trace}.json")
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except FileNotFoundError:
        commit = "unknown"
    path = record.write(record.summarize(paths, commit, f"run.py --workload all --seed {seed}"))
    print(f"summary written to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",),
                        help="one workload, or all: each untraced and traced, "
                             "then a summary in perfbench/RECORD.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the untraced pass of a traced run: print its totals as one JSON line
    parser.add_argument("--base", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    with Helper() as helper:
        return measure(args, helper)


def measure(args, helper: Helper) -> int:
    base = None
    if args.trace:
        base = untraced_base(args.workload, args.seed, args.seconds / 2)
    prog = wl.Program()
    golden = json.loads(GOLDEN.read_text())
    rounds = wl.Rounds(args.workload, args.seed)

    if args.base:
        stats = Stats()
        while _more_rounds(stats, args.seconds):
            run_round(prog, rounds.next(), stats, golden, helper)
        print(json.dumps({"rounds": stats.rounds, "busy": stats.busy, "wall": stats.wall,
                          "latencies": [t for _, t in stats.latencies],
                          "attempted": stats.attempted, "failed": stats.failed,
                          "wrong": stats.wrong, "problems": stats.problems[:100]}))
        return 0
    if args.trace:
        stats, rec = Stats(), tracing.Recorder()
        tracing.install(rec)
        try:
            for _ in range(base["rounds"]):
                run_round(prog, rounds.next(), stats, golden, helper, rec)
        finally:
            rec.uninstall()
        values = per_layer(args.workload, rec, stats, base["latencies"])
        if args.workload == "slice-dynamics":
            # finite closures whose spectral radius ran to the iteration cap
            stats.outcomes["capped-spectrum"] = int(rec.counters.get("gds.spectral_capped", 0))
        rec.write(wl.OUT / f"spans-{args.workload}.tsv.gz")
        units = dict(PER_LAYER)
        notes = {"untraced_busy_s": base["busy"], "traced_busy_s": stats.busy,
                 "wall_s": base["wall"] + stats.wall}
        failed = stats.failed + base["failed"]
        wrong = stats.wrong + base["wrong"]
        attempted = stats.attempted + base["attempted"]
        problems = base["problems"] + stats.problems
    else:
        setup = Setup(args.workload, args.seed, helper, args.seconds)
        stats = Stats()
        while _more_rounds(stats, args.seconds):
            run_round(prog, rounds.next(), stats, golden, helper, setup=setup)
        values, notes = end_to_end(args.workload, stats, setup.median())
        notes["setup_samples"] = len(setup.samples)
        units = dict(END_TO_END)
        failed, wrong, attempted, problems = (stats.failed, stats.wrong,
                                              stats.attempted, stats.problems)
    faulthandler.cancel_dump_traceback_later()
    notes["kernel_median_ms"] = helper.kernel_median() * 1000

    head = f"{args.workload} seed={args.seed} trace={args.trace}"
    for name, value in values.items():
        print(f"{head}: {name} = {value:.6g} {units[name]}")
    print(f"{head}: speed kernel median = {notes['kernel_median_ms']:.4g} ms "
          f"(nominal {speed.NOMINAL_S * 1000:g} ms; times above are scaled by it)")
    print(f"{head}: attempted={attempted} failed={failed} "
          f"failed_fraction={failed / attempted:.4f} rounds={stats.rounds} "
          f"busy_s={stats.busy:.3f}")
    print(f"{head}: outcomes {json.dumps(stats.outcomes, sort_keys=True)} "
          f"{json.dumps(notes, sort_keys=True)}")
    for line in problems[:20]:
        print(f"{head}: problem: {line}")

    run_record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "attempted": attempted, "failed": failed,
                  "wrong": wrong, "outcomes": stats.outcomes, "notes": notes,
                  "metrics": values, "problems": problems[:100],
                  "latencies": [{"failed": f, "s": t, "request": wl.request_key(r)}
                                for (f, t), r in zip(stats.latencies, stats.requests)],
                  "environment": environment()}
    wl.OUT.mkdir(parents=True, exist_ok=True)
    (wl.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run_record, indent=1, sort_keys=True, default=str))

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
