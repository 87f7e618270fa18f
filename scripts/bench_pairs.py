#!/usr/bin/env python3
"""Compare two checkouts with alternating pairs of benchmark runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--seed N]
        [--pairs 10] [--seconds 40] > pairs.txt

Each pair runs ``bench/run.py --trace 0`` once in each checkout, with the
same arguments; the side that runs first alternates from pair to pair, so a
slow spell of the host falls on both sides alike.  The two checkout paths
must have the same length: ``peak_rss_mb`` has been seen to follow the
length of the checkout's path, not only its code.  Every run is printed
as it ends, as one JSON line holding its sha256 line and its result line.

The summary takes, for each end-to-end metric the parent's
``BENCHMARK.json`` names, both medians over the pairs, the number of pairs
the change won (ties count for neither side) and the distance between the
parent's quartiles.  It also says whether every run of both sides printed
one trace and metrics sha256.  Nothing in either checkout is written but
the benchmark's own ignored work directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(checkout: Path, args) -> dict:
    """One ``bench/run.py`` invocation in ``checkout``: its sha256 line
    and its result, the last line of its standard output."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}"
                         f"\n{proc.stderr[-2000:]}")
    digest = next((line for line in lines if line.startswith("sha256 ")), None)
    return {"digest": digest, "result": json.loads(lines[-1])}


def summarize(runs: list, declared: list) -> tuple[list, list]:
    """Rows of ``(metric, parent median, change median, change won, pairs,
    parent q3 - q1)`` for each declared metric both sides report, and the
    problems found: failed runs and sha256 lines that differ.

    ``runs`` are the printed runs, each ``{"pair", "side", "digest",
    "result"}``; a pair counts once both of its sides are in."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [sides for _, sides in sorted(by_pair.items())
             if len(sides) == len(SIDES)]
    problems = [f"pair {run['pair']} {run['side']}: {run['result']['failed']} "
                "failed runs" for run in runs if run["result"].get("failed")]
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different sha256 lines")
    rows = []
    for spec in declared:
        name = spec["name"]
        values = {side: [p[side]["result"]["metrics"][name]["value"]
                         for p in pairs
                         if name in p[side]["result"]["metrics"]]
                  for side in SIDES}
        parent, change = values["parent"], values["change"]
        if not parent or len(parent) != len(change):
            continue
        sign = -1 if spec["better"] == "lower" else 1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (parent[0],) * 3)
        rows.append((name, statistics.median(parent), statistics.median(change),
                     won, len(parent), q3 - q1))
    return rows, problems


def render(rows: list, problems: list) -> str:
    lines = [f"{'metric':<16}{'parent':>14}{'change':>14}{'won':>8}"
             f"{'parent q3-q1':>16}"]
    lines += [f"{name:<16}{parent:>14.6g}{change:>14.6g}{f'{won}/{n}':>8}"
              f"{spread:>16.6g}"
              for name, parent, change, won, n, spread in rows]
    lines += [f"problem: {problem}" for problem in problems]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error("the two checkout paths differ in length: "
                     + ", ".join(map(str, checkouts.values())))
    declared = json.loads((checkouts["parent"] / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))["end_to_end"]
    runs = []
    for pair in range(args.pairs):
        for side in SIDES[::-1] if pair % 2 else SIDES:
            run = {"pair": pair, "side": side, "workload": args.workload,
                   "seed": args.seed, **run_side(checkouts[side], args)}
            runs.append(run)
            print(json.dumps(run), flush=True)
    rows, problems = summarize(runs, declared)
    print(render(rows, problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
