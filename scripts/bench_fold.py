#!/usr/bin/env python3
"""Fold perfbench result files into ``BENCH_<label>.json`` at the repo root.

    python scripts/bench_fold.py LABEL [SIDE=DIR ...]

Each SIDE=DIR is a directory of ``perfbench/run.py`` result files (default
``head=perfbench/results``).  Per side, workload and trace mode it keeps the run
count, seeds, failures, each metric's median and quartiles (q1, q3: linear
interpolation between the runs, numpy's default percentile method), the git SHA,
dirty flag and source digest of the runs, and the environment of the first run.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_KEYS = ("git_sha", "git_dirty", "src_sha256")


def quartiles(values) -> tuple:
    """(q1, q3) of the values; both are the value itself for a single run."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fold(paths) -> dict:
    groups = {}
    for path in sorted(paths):
        res = json.loads(path.read_text())
        groups.setdefault(f"{res['workload']}-trace{res['trace']}", []).append(res)
    out = {}
    for key, runs in sorted(groups.items()):
        sources = {json.dumps([r["environment"].get(k) for k in SOURCE_KEYS]) for r in runs}
        names = sorted(runs[0]["metrics"])
        spread = {n: quartiles(r["metrics"][n] for r in runs) for n in names}
        out[key] = {
            "runs": len(runs), "seeds": sorted({r["seed"] for r in runs}),
            "seconds": sorted({r["seconds"] for r in runs}),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "median": {n: statistics.median(r["metrics"][n] for r in runs) for n in names},
            "q1": {n: spread[n][0] for n in names},
            "q3": {n: spread[n][1] for n in names},
            "source": [dict(zip(SOURCE_KEYS, json.loads(s))) for s in sorted(sources)],
            "environment": {k: v for k, v in runs[0]["environment"].items()
                            if k not in SOURCE_KEYS},
        }
    return out


def main(argv) -> None:
    if not argv:
        sys.exit(__doc__)
    bench = {"label": argv[0], "sides": {}}
    for spec in argv[1:] or ["head=perfbench/results"]:
        side, _, directory = spec.partition("=")
        files = list(Path(directory).glob("*.json"))
        if not side or not files:
            sys.exit(f"bench_fold: no result files for {spec!r}")
        bench["sides"][side] = fold(files)
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)


if __name__ == "__main__":
    main(sys.argv[1:])
