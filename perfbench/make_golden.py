"""Record the digest of every output the benchmark can ask for.

    python3 perfbench/make_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference. Runs every input in the workloads' finite pools, checks each
output with the gate, and overwrites perfbench/golden.json with the digests
of all of them. Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from run import GOLDEN  # noqa: E402


def visibility(prog) -> dict:
    out = {}
    for req in wl.golden_keys_visibility():
        result = wl.execute(prog, req, lambda: None)
        if req[0] == "qcc":
            dig = gate.digest_cover(result)
        elif req[0] == "vq":
            dig = gate.digest_visible_query(result)
        else:
            dig = gate.digest_visible_set(result)
        out[wl.request_key(req)] = dig
        _report(prog, req, result, out)
    return out


def slices(prog) -> dict:
    out = {}
    for lam, t, budget in wl.slice_inputs():
        t0 = time.perf_counter()
        req = ("slice", lam, t, budget, tuple(range(1, wl.OFFSET_STEPS)))
        result = wl.execute(prog, req, lambda: None)
        out.update(wl.slice_digests(req, result))
        print(f"slice {gate.q(lam)} {gate.q(t)} {budget}: {result['outcome']} "
              f"{time.perf_counter() - t0:.2f}s", flush=True)
        _report(prog, req, result, out)
    return out


def cli(prog) -> dict:
    out = {}
    for args in wl.README_EXAMPLES:
        req = ("cli", tuple(args.split()), "report")
        result = wl.execute(prog, req, lambda: None)
        out[wl.request_key(req)] = gate.digest_cli(result["exit"], wl.cli_report(result))
        _report(prog, req, result, out)
    return out


def _report(prog, req, result, recorded: dict) -> None:
    problems = wl.verify(prog, req, result, recorded)
    for p in problems:
        print(f"GATE {wl.request_key(req)}: {p}", flush=True)


def main() -> int:
    warnings.simplefilter("ignore")
    prog = wl.Program()
    golden = {}
    for name, fn in (("visibility", visibility), ("slices", slices), ("cli", cli)):
        t0 = time.perf_counter()
        golden.update(fn(prog))
        print(f"{name}: {time.perf_counter() - t0:.1f}s", flush=True)
    GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=0) + "\n")
    print(f"{len(golden)} digests written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
