"""Summarize the run records in perfbench/out/ into perfbench/RECORD.json.

    python3 perfbench/record.py --commit REV [--note TEXT]

For each workload it keeps the seeds run, the median and quartile spread of
every end-to-end metric, the median of every per-layer metric, the measured
workload properties (cover repeat ratio, outcome mix, layer shares of self
time) and the environment the runs reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2 and med:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_over_median"] = (q3 - q1) / med
    return out


def _sum_outcomes(runs) -> dict:
    total: dict[str, int] = {}
    for r in runs:
        for k, v in r["outcomes"].items():
            total[k] = total.get(k, 0) + v
    return total


def summarize(paths, commit: str, note: str = "") -> dict:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    if not runs:
        sys.exit("no run records")
    record = {"commit": commit, "note": note,
              "environment": runs[0]["environment"], "workloads": {}}
    for name in sorted({r["workload"] for r in runs}):
        e2e = [r for r in runs if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == name and r["trace"] == 1]
        entry = {"seconds": sorted({r["seconds"] for r in runs if r["workload"] == name}),
                 "seeds_end_to_end": sorted(r["seed"] for r in e2e),
                 "seeds_traced": sorted(r["seed"] for r in traced),
                 "attempted": sum(r["attempted"] for r in e2e + traced),
                 "failed": sum(r["failed"] for r in e2e + traced)}
        if e2e:
            entry["end_to_end"] = {m: _summary([r["metrics"][m] for r in e2e])
                                   for m in e2e[0]["metrics"]}
            entry["tail"] = {k: e2e[0]["notes"][k]
                             for k in ("tail_percentile", "samples", "tail_samples_beyond")}
        if traced:
            layer = {m: statistics.median(r["metrics"][m] for r in traced)
                     for m in traced[0]["metrics"]}
            entry["per_layer_median"] = layer
            entry["layer_share_of_self_time"] = {
                m.split(".", 1)[1]: v for m, v in layer.items() if m.startswith("share.")}
            entry["cover_repeat_ratio"] = layer["visibility.cover_repeat_ratio"]
            entry["spectral_capped_ratio"] = layer["gds.spectral_capped_ratio"]
        entry["outcome_mix"] = _sum_outcomes(e2e)
        # traced runs also count finite closures whose spectral radius was capped
        entry["traced_outcome_mix"] = _sum_outcomes(traced)
        record["workloads"][name] = entry
    return record


def write(record: dict) -> Path:
    path = HERE / "RECORD.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the runs measured")
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    paths = sorted((HERE / "out").glob("result-*.json"))
    path = write(summarize(paths, args.commit, args.note))
    print(f"summarized {len(paths)} runs into {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
