"""Command-line front end.

Sub-commands: ``validate`` (schema + invariants), ``run`` (trace + metrics
files), ``analyze`` (penalty table), ``check-sequence`` (trace pattern
conformance) and ``dump`` (ALER forwarding entries and AMRR binding
stores at end of run).  Exit codes: 0 success, 1 validation failure or
an output directory that cannot be made, 2 runtime assertion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import analysis
from .errors import HmlbnError, ScenarioInvalid
from .scenario import load_scenario
from .simulator import run_scenario
from .topology import NodeRole
from .trace import assert_sequence, roles_from_graph

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _add_scenario_arg(parser):
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmlbn",
        description="Deterministic mobility label network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("--scenario", required=True)

    p = sub.add_parser("run", help="run a scenario, write trace and metrics")
    _add_scenario_arg(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("analyze", help="emit the routing penalty table")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--alpha", type=float, default=5.0,
                   help="per-hop delay mean, ms")
    p.add_argument("--zeta", type=float, default=2.0,
                   help="per-hop delay standard deviation, ms")
    p.add_argument("--ploss", type=float, default=0.005,
                   help="per-hop loss probability")
    p.add_argument("--trials", type=int, default=None,
                   help="Monte Carlo jumps per row (omitted or 0 = analytic "
                        "only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="directory for penalty.csv")

    p = sub.add_parser("check-sequence", help="match a trace pattern")
    _add_scenario_arg(p)
    p.add_argument("--pattern", required=True, help="pattern JSON path")

    p = sub.add_parser("dump", help="run and dump FIBs and binding stores")
    _add_scenario_arg(p)
    p.add_argument("--node", default=None,
                   help="single node name (default: all ALER and AMRR nodes)")
    return parser


def cmd_validate(args) -> int:
    load_scenario(args.scenario)  # main() reports a ScenarioInvalid
    print(f"{args.scenario}: valid")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # main() reports an OSError
    sim = run_scenario(scenario, seed=args.seed)
    (out / "trace.jsonl").write_text(sim.trace_jsonl(), encoding="utf-8")
    (out / "metrics.csv").write_text(sim.metrics.to_csv(), encoding="utf-8")
    rows = sim.metrics.finalize()
    ingress = sum(r["ingress"] for r in rows.values())
    delivered = sum(r["delivered"] for r in rows.values())
    hops = sum(h * n for r in rows.values() for h, n in r["hops"].items())
    mean_hops = hops / delivered if delivered else 0.0
    pct = 100.0 * delivered / ingress if ingress else 100.0
    print(f"{scenario.name}: delivered {delivered}/{ingress} ({pct:.1f}%), "
          f"mean hops {mean_hops:.2f}, control messages "
          f"{sim.metrics.control_total} "
          f"({sim.metrics.control_crossing} area-crossing)")
    if sim.metrics.stack_violations:
        print(f"runtime assertion failed: {sim.metrics.stack_violations} "
              f"packets exceeded stack depth 2", file=sys.stderr)
        return EXIT_RUNTIME
    if sim.metrics.post_ingress_ip_lookups:
        print("runtime assertion failed: interior IP lookups occurred",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_analyze(args) -> int:
    problems = [problem for ok, problem in (
        (args.k_min >= 1, f"--k-min must be at least 1, got {args.k_min}"),
        (args.k_max >= args.k_min,
         f"--k-max {args.k_max} is below --k-min {args.k_min}"),
        (math.isfinite(args.alpha) and args.alpha >= 0,
         f"--alpha must be a finite number >= 0, got {args.alpha}"),
        (math.isfinite(args.zeta) and args.zeta >= 0,
         f"--zeta must be a finite number >= 0, got {args.zeta}"),
        (0.0 <= args.ploss <= 1.0,
         f"--ploss must lie in [0, 1], got {args.ploss}"),
        (args.trials is None or args.trials >= 0,
         f"--trials must be at least 0, got {args.trials}"),
    ) if not ok]
    if problems:
        print(f"error: {'; '.join(problems)}", file=sys.stderr)
        return EXIT_VALIDATION
    rows = analysis.penalty_table(args.k_min, args.k_max, alpha=args.alpha,
                                  zeta=args.zeta, p_loss=args.ploss,
                                  trials=args.trials, seed=args.seed)
    csv_text = analysis.penalty_table_csv(rows)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "penalty.csv").write_text(csv_text, encoding="utf-8")
        print(f"wrote {out / 'penalty.csv'} ({len(rows)} rows)")
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_check_sequence(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        with open(args.pattern, "r", encoding="utf-8") as fh:
            pattern_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: pattern {args.pattern}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    items = (pattern_doc.get("items") if isinstance(pattern_doc, dict)
             else pattern_doc)
    if not (isinstance(items, list) and all(isinstance(i, dict) for i in items)):
        print(f"error: pattern {args.pattern}: expected a list of item objects"
              f" or an object whose \"items\" is one", file=sys.stderr)
        return EXIT_VALIDATION
    sim = run_scenario(scenario, seed=args.seed)
    result = assert_sequence(sim.trace, items, roles_from_graph(sim.graph))
    if result.ok:
        print(f"sequence ok: {result.describe()}")
        return EXIT_OK
    print(f"sequence mismatch: {result.describe()}", file=sys.stderr)
    return EXIT_RUNTIME


def cmd_dump(args) -> int:
    scenario = load_scenario(args.scenario)
    graph = scenario.graph  # an unknown node is refused before the run
    targets = ([graph.rid_of(args.node)] if args.node else
               graph.by_role(NodeRole.ALER) + graph.by_role(NodeRole.AMRR))
    sim = run_scenario(scenario, seed=args.seed)
    titles = {NodeRole.ALER: "FIB", NodeRole.AMRR: "BINDINGS"}
    for rid in targets:
        info = graph.nodes[rid]
        if info.role not in titles:
            print(f"# {info.name} ({rid}): no dumpable state")
            continue
        print(f"# {titles[info.role]} {info.name} ({rid})")
        for line in sim.nodes[rid].dump(graph):
            print(line)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "validate": cmd_validate,
        "run": cmd_run,
        "analyze": cmd_analyze,
        "check-sequence": cmd_check_sequence,
        "dump": cmd_dump,
    }
    try:
        return commands[args.command](args)
    except ScenarioInvalid as exc:
        print(json.dumps([{"path": p, "message": m} for p, m in exc.problems],
                         indent=2), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except HmlbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
