"""One ``hmlbn run`` in a fresh process, timed stage by stage.

    python3 bench/child.py SCENARIO OUT_DIR [--trace]

Does what ``hmlbn.cli.cmd_run`` does: load the scenario, build and run the
``Simulation``, write ``trace.jsonl`` and ``metrics.csv``.  Prints one JSON
object with the stage times, the host's reference time (``reference.py``,
measured just before the run), peak RSS and the run-time assertion
counters.
With ``--trace`` the public calls into each layer are wrapped first; the
object then also carries per-layer self times and counters, and every span
is written to ``OUT_DIR/spans.tsv``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, class or None, attribute, span name): the span's self time is
# reported as ``<span name>_s`` and its call count as ``<span name>_calls``.
WRAPPED = [
    ("scenario", None, "load_scenario", "scenario.parse"),
    ("scenario", None, "build_topology", "topology.build"),
    ("simulator", None, "compute_infrastructure_lsps", "topology.lsp_mesh"),
    ("simulator", None, "control_latency_matrix", "topology.latency_matrix"),
    ("simulator", None, "canonical_encode", "messages.encode"),
    ("simulator", "Simulation", "__init__", "simulator.init_self"),
    ("simulator", "Simulation", "run", "simulator.run_self"),
    ("simulator", "Simulation", "trace_event", "simulator.trace_event"),
    ("simulator", "Simulation", "transmit", "simulator.transmit"),
    ("simulator", "Simulation", "send_control", "simulator.send_control"),
    ("simulator", "Simulation", "drop", "simulator.drop"),
    ("simulator", "Simulation", "deliver_local", "simulator.deliver_local"),
    ("simulator", "Simulation", "trace_jsonl", "output.trace_jsonl"),
    ("simulator", "Metrics", "to_csv", "output.metrics_csv"),
    ("forwarding", "ForwardingEngine", "step", "forwarding.step"),
    ("ler", "LerNode", "ingress_forward", "ler.ingress"),
    ("ler", "LerNode", "handle_registration", "ler.registration"),
    ("ler", "LerNode", "track_local_handoff", "ler.registration"),
    ("ler", "LerNode", "handle_binding_reply", "ler.reply"),
    ("ler", "LerNode", "handle_unsolicited_update", "ler.reply"),
    ("ler", "LerNode", "handle_withdrawal_reflect", "ler.reply"),
    ("ler", "LerNode", "keepalive", "ler.timers"),
    ("ler", "LerNode", "scan_dead_registrations", "ler.timers"),
    ("ler", "LerNode", "expire_cache", "ler.timers"),
    ("ler", "LerNode", "egress_deliver", "ler.egress"),
    ("aler", "AlerNode", "handle_internal_update", "aler.update"),
    ("aler", "AlerNode", "handle_external_update", "aler.update"),
    ("aler", "AlerNode", "handle_withdrawal", "aler.update"),
    ("aler", "AlerNode", "apply_failover", "aler.update"),
    ("aler", "AlerNode", "expire", "aler.update"),
    ("aler", "AlerNode", "forward_transit", "aler.transit"),
    ("amrr", "AmrrNode", "handle_update", "amrr.update"),
    ("amrr", "AmrrNode", "handle_request", "amrr.request"),
    ("amrr", "AmrrNode", "handle_reply", "amrr.reply"),
    ("amrr", "AmrrNode", "handle_lrl_request", "amrr.lrl"),
    ("amrr", "AmrrNode", "handle_lrl_reply", "amrr.lrl"),
    ("amrr", "AmrrNode", "handle_withdrawal", "amrr.withdrawal"),
    ("amrr", "AmrrNode", "handle_blanket", "amrr.withdrawal"),
    ("amrr", "AmrrNode", "handle_aler_failure", "amrr.withdrawal"),
    ("amrr", "AmrrNode", "expire_records", "amrr.withdrawal"),
]


def run_once(scenario_path, out: Path, tracer=None) -> tuple:
    """Load, build, run and write outputs; returns the simulation and the
    stage times."""
    from hmlbn import scenario as scenario_mod
    from hmlbn import simulator as simulator_mod

    span = tracer.span if tracer else (lambda name: nullcontext())
    t0 = time.perf_counter()
    scenario = scenario_mod.load_scenario(scenario_path)
    sim = simulator_mod.Simulation(scenario)
    t1 = time.perf_counter()
    sim.run()
    t2 = time.perf_counter()
    trace_text = sim.trace_jsonl()
    metrics_text = sim.metrics.to_csv()
    with span("output.write"):
        (out / "trace.jsonl").write_text(trace_text, encoding="utf-8")
        (out / "metrics.csv").write_text(metrics_text, encoding="utf-8")
    t3 = time.perf_counter()
    return sim, {
        "wall_s": t3 - t0,
        "setup_s": t1 - t0,
        "loop_s": t2 - t1,
        "output_s": t3 - t2,
    }


def install(tracer) -> dict:
    """Wrap every name in ``WRAPPED`` plus the counting hooks.

    Returns the mutable counters the hooks update.  Methods are wrapped on
    their classes, so calls made while a ``Simulation`` is being built are
    recorded too.
    """
    import importlib

    from hmlbn import simulator as simulator_mod
    from hmlbn.messages import MessageKind
    from hmlbn.topology import NodeRole

    stats = {"ler_requests": 0, "pending_max": 0}

    def after_send(args):
        sim, src, kind = args[0], args[1], args[2]
        if (kind is MessageKind.BINDING_REQUEST
                and sim.graph.role_of(src) is NodeRole.LER):
            stats["ler_requests"] += 1

    def after_ingress(args):
        ler = args[0]
        queued = sum(len(p.queue) for p in ler.pending.values())
        stats["pending_max"] = max(stats["pending_max"], queued)

    hooks = {("Simulation", "send_control"): after_send,
             ("LerNode", "ingress_forward"): after_ingress}

    wrapped = set()
    for module_name, cls_name, attr, name in WRAPPED:
        module = importlib.import_module(f"hmlbn.{module_name}")
        owner = getattr(module, cls_name, None) if cls_name else module
        if owner is None:
            tracer.missing.append(f"hmlbn.{module_name}.{cls_name}")
            continue
        if tracer.wrap(owner, attr, name, after=hooks.get((cls_name, attr))):
            wrapped.add(name)
    if tracer.count_calls(simulator_mod.Simulation, "schedule",
                          lambda args: args[2].value):
        wrapped.add("simulator.schedule")
    stats["wrapped"] = wrapped
    return stats


def layer_metrics(tracer, stats, sim, stages, out: Path) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name."""
    from hmlbn.messages import MessageKind
    from hmlbn.simulator import EventKind
    from spans import self_times

    totals, calls = self_times(tracer.names, tracer.parents,
                               tracer.starts, tracer.ends)
    layers = {}
    for name in stats["wrapped"] - {"simulator.schedule"}:
        layers[f"{name}_s"] = totals.get(name, 0.0)
        layers[f"{name}_calls"] = calls.get(name, 0)

    wrapped = stats["wrapped"]
    if "simulator.schedule" in wrapped:
        for kind in EventKind:
            layers[f"simulator.events.{kind.value}"] = tracer.counts[kind.value]
        layers["simulator.events_total"] = sum(tracer.counts.values())
    if "simulator.trace_event" in wrapped:
        layers["simulator.trace_records"] = calls.get("simulator.trace_event", 0)
    if "ler.ingress" in wrapped and "simulator.send_control" in wrapped:
        ingress = calls.get("ler.ingress", 0)
        layers["ler.cache_hit_ratio"] = (1.0 - stats["ler_requests"] / ingress
                                         if ingress else 1.0)
        layers["ler.pending_max"] = stats["pending_max"]
    layers["output.trace_bytes"] = (out / "trace.jsonl").stat().st_size

    def state(name, fn):
        # end-of-run table sizes read from program objects; a refactor that
        # renames them makes the metric absent instead of failing the run
        try:
            layers[name] = fn()
        except (AttributeError, TypeError, KeyError):
            tracer.missing.append(name)

    nodes = getattr(sim, "nodes", {})
    state("topology.lsp_fec_entries",
          lambda: sum(len(v) for v in sim.lsp.fec_next.values()))
    state("topology.latency_pairs",
          lambda: sum(len(v) for v in sim.latency.values()))
    state("aler.fib_entries_end",
          lambda: sum(len(n.fib) for n in nodes.values() if hasattr(n, "fib")))
    state("amrr.records_end",
          lambda: sum(len(n.records) for n in nodes.values()
                      if hasattr(n, "records")))
    state("messages.ctl_area_crossing", lambda: sim.metrics.control_crossing)
    for kind in MessageKind:
        state(f"messages.ctl.{kind.value}",
              lambda k=kind: sim.metrics.control_by_kind.get(k.value, 0))

    # self times of all spans sum to the durations of the top-level spans
    return {"layers": layers,
            "coverage": sum(totals.values()) / stages["wall_s"],
            "missing": sorted(set(tracer.missing))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import hmlbn
    from reference import reference_s

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = stats = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        stats = install(tracer)
    reference = reference_s()
    sim, stages = run_once(args.scenario, out, tracer)
    result = dict(stages)
    result["reference_s"] = reference
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["hmlbn"] = hmlbn.__file__
    result["stack_violations"] = sim.metrics.stack_violations
    result["post_ingress_ip_lookups"] = sim.metrics.post_ingress_ip_lookups
    if tracer is not None:
        tracer.restore()
        result.update(layer_metrics(tracer, stats, sim, stages, out))
        tracer.write(out / "spans.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
