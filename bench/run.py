"""Benchmark of ``hmlbn run`` on seeded, generated scenarios.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's scenario for seed N, then runs it again and again,
each time in a fresh process (``child.py``), until S seconds have passed
(at least ``MIN_RUNS`` times), after one warm-up run that is checked but
not timed.  Every run's outputs pass a correctness gate before any number
is reported:

* no label stack deeper than two and no IP lookup after ingress;
* the ``metrics.csv`` TOTAL row has the workload's ingress count, and
  ingress equals delivered + every drop + in flight;
* ``trace.jsonl`` and ``metrics.csv`` hash the same in every run.

Every time is scaled, run by run, to a nominal host speed gauged by a
fixed reference computation (``reference.py``); the unscaled medians are
printed beside.  With ``--trace 0`` the last line of standard output is a
JSON object with the medians of the end-to-end metrics; with ``--trace 1``
traced and untraced runs alternate and it carries the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``; a metric the program
no longer provides is left out and named on standard error.  Exits 2
without a result when the program's sources are not there, 1 when a run
crashes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
TIMED = ("wall_s", "setup_s", "loop_s", "output_s")


class RunFailed(Exception):
    """A child process crashed or printed no result."""


def run_child(scenario: Path, out: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), str(scenario), str(out)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"run exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def total_row(metrics_csv: Path) -> dict:
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["flow"] == "TOTAL":
                return row
    raise ValueError("metrics.csv has no TOTAL row")


def check_run(result: dict, out: Path, workload: Workload) -> tuple:
    """Problems found in one run's outputs, their digests and TOTAL row."""
    problems = []
    if not Path(result["hmlbn"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"hmlbn imported from {result['hmlbn']}")
    for key in ("stack_violations", "post_ingress_ip_lookups"):
        if result[key] != 0:
            problems.append(f"{key} = {result[key]}")
    total = total_row(out / "metrics.csv")
    counts = {k: int(v) for k, v in total.items()
              if k in ("ingress", "delivered", "in_flight")
              or k.startswith("drop_")}
    drops = sum(v for k, v in counts.items() if k.startswith("drop_"))
    if counts["ingress"] != workload.ingress:
        problems.append(f"ingress {counts['ingress']} != {workload.ingress}")
    if counts["ingress"] != counts["delivered"] + drops + counts["in_flight"]:
        problems.append(f"packets unaccounted for: {counts}")
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("trace.jsonl", "metrics.csv"))
    return problems, digests, total


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run the workload for ``seconds``; returns runs, checks and counters."""
    work = WORK / f"{workload.name}-{seed}-{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(workload.document(seed), indent=1),
                        encoding="utf-8")
    out = work / "out"
    plain, tracedruns, problems, digests = [], [], [], []
    failed = 0

    def checked_run(is_traced: bool) -> tuple:
        nonlocal failed
        result = run_child(scenario, out, is_traced)
        found, digest, total = check_run(result, out, workload)
        if digests and digest != digests[0]:
            found.append(f"outputs differ from the first run: {digest}")
        problems.extend(found)
        failed += bool(found)
        digests.append(digest)
        return result, total

    # warm-up: fills the page cache and writes bytecode; checked, not timed
    checked_run(traced)
    start = time.monotonic()
    while len(plain) < MIN_RUNS or time.monotonic() - start < seconds:
        for is_traced in ((True, False) if traced else (False,)):
            result, total = checked_run(is_traced)
            (tracedruns if is_traced else plain).append(result)
    return {"plain": plain, "traced": tracedruns, "problems": problems,
            "failed": failed, "digest": digests[0], "total": total,
            "elapsed_s": time.monotonic() - start, "runs": len(digests)}


def scaled(result: dict, seconds: float) -> float:
    """``seconds`` measured in ``result``'s run, at the nominal host speed."""
    return seconds * NOMINAL_S / result["reference_s"]


def timed(runs: list, key: str) -> float:
    return statistics.median(scaled(r, r[key]) for r in runs)


def end_to_end(m: dict) -> dict:
    values = {k: timed(m["plain"], k) for k in TIMED}
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                              for r in m["plain"])
    ingress = int(m["total"]["ingress"])
    values["delivery_ratio"] = int(m["total"]["delivered"]) / ingress
    return values


def per_layer(m: dict) -> dict:
    names = set().union(*(r["layers"] for r in m["traced"]))
    values = {}
    for k in names:
        runs = [r for r in m["traced"] if k in r["layers"]]
        if k.endswith("_s"):
            values[k] = statistics.median(scaled(r, r["layers"][k])
                                          for r in runs)
            continue
        samples = [r["layers"][k] for r in runs]
        # counts repeat exactly from run to run: keep them whole numbers
        same = all(v == samples[0] for v in samples)
        values[k] = samples[0] if same else statistics.median(samples)
    total = m["total"]
    values["simulator.delivered"] = int(total["delivered"])
    values["simulator.in_flight"] = int(total["in_flight"])
    for key, count in total.items():
        if key.startswith("drop_"):
            values[f"simulator.drops.{key[len('drop_'):]}"] = int(count)
    values["tracing_overhead_s"] = (timed(m["traced"], "wall_s")
                                    - timed(m["plain"], "wall_s"))
    return values


def report(m: dict, values: dict, declared: list) -> dict:
    """Print digests and counters, then build the result object."""
    runs = m["runs"]
    print(f"{len(m['plain'])} untraced and {len(m['traced'])} traced runs "
          f"in {m['elapsed_s']:.1f} s after one warm-up run")
    print("sha256 trace.jsonl {} metrics.csv {}".format(*m["digest"]))
    print("TOTAL " + " ".join(f"{k}={v}" for k, v in m["total"].items()
                              if v not in ("", "0") and k != "flow"))
    references = [r["reference_s"] for r in m["plain"]]
    q1, _, q3 = statistics.quantiles(references, n=4)
    print(f"reference_s: median {statistics.median(references):.6g} "
          f"quartiles {q1:.6g} {q3:.6g}; times below are scaled by "
          f"{NOMINAL_S} / reference_s, run by run")
    for k in TIMED:
        samples = [scaled(r, r[k]) for r in m["plain"]]
        q1, _, q3 = statistics.quantiles(samples, n=4)
        raw = statistics.median(r[k] for r in m["plain"])
        print(f"{k}: median {statistics.median(samples):.6g} "
              f"quartiles {q1:.6g} {q3:.6g} over {len(samples)} runs; "
              f"unscaled median {raw:.6g}")
    if m["traced"]:
        coverage = [r["coverage"] for r in m["traced"]]
        print(f"traced spans cover {min(coverage):.4f}..{max(coverage):.4f} "
              "of traced wall time")
        if m["traced"][0]["missing"]:
            print("not wrapped: " + ", ".join(m["traced"][0]["missing"]),
                  file=sys.stderr)
    metrics = {}
    for spec in declared:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]],
                                     "unit": spec["unit"]}
        else:
            print(f"absent: {spec['name']}", file=sys.stderr)
    for problem in m["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not m["failed"], "attempted": runs,
            "failed": m["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hmlbn" / "simulator.py").is_file():
        print(f"no hmlbn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = bool(args.trace)
    try:
        m = measure(WORKLOADS[args.workload], args.seed, args.seconds, traced)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    values = per_layer(m) if traced else end_to_end(m)
    declared = spec["per_layer" if traced else "end_to_end"]
    print(json.dumps(report(m, values, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
