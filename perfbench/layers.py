"""Which mwsnsim functions the traced run wraps, and how their spans and
counters become the per-layer metrics.

Layers are the modules of src/mwsnsim. Each function is wrapped where its
caller looks it up: the engine calls `radio_mod.build_graph`, so the
wrapper replaces `mwsnsim.radio.build_graph`; `harness` imported its own
`trace_to_jsonl`, so that binding is the one replaced. A `_kernels`
function is counted under the layer that calls it. `cli` is a thin
argparse shell over `harness` and is not wrapped.
"""

from __future__ import annotations


def _count_run(counts, args, trace):
    counts["engine.events"] += trace[-1]["events"]["processed"]
    counts["engine.trace_records"] += len(trace)


def _count_edges(counts, args, graph):
    counts["radio.edges"] += sum(len(neigh) for neigh in graph.adj.values()) // 2


def _count_pairs(counts, args, result):
    n = len(args[0])
    counts["radio.pairs_evaluated"] += n * (n - 1) // 2


def _count_bfs_nodes(counts, args, dist):
    counts["traffic.bfs_nodes"] += len(dist)


def _count_evictions(counts, args, evicted):
    if evicted is not None:
        counts["traffic.evictions"] += 1


def _count_trace_bytes(counts, args, text):
    counts["harness.trace_bytes"] += len(text.encode("utf-8"))


def instrument(tracer) -> None:
    """Wrap every traced function of the imported mwsnsim package."""
    from mwsnsim import _kernels, config, energy, harness, radio, scheduler, traffic
    from mwsnsim.engine import Simulation
    from mwsnsim.mobility import MobilityField

    wrap = tracer.wrap
    wrap(config, "validate_config", "config.validate")
    wrap(Simulation, "__init__", "engine.init")
    wrap(Simulation, "run", "engine.run", after=_count_run)
    wrap(MobilityField, "tick", "mobility.tick")
    wrap(MobilityField, "positions_at", "mobility.positions")
    wrap(_kernels, "step_waypoints", "mobility.kernel")
    wrap(radio, "build_graph", "radio.graph", after=_count_edges)
    wrap(_kernels, "pair_power", "radio.pair_power", after=_count_pairs)
    wrap(radio, "in_range", "radio.in_range")
    wrap(traffic, "hop_distances", "traffic.bfs", after=_count_bfs_nodes)
    wrap(traffic.NodeQueue, "enqueue", "traffic.enqueue", after=_count_evictions)
    wrap(traffic.NodeQueue, "sorted_items", "traffic.queue_read")
    wrap(traffic.NodeQueue, "best_key", "traffic.queue_read")
    wrap(traffic.NodeQueue, "remove", "traffic.queue_remove")
    wrap(traffic.NodeQueue, "purge_expired", "traffic.queue_remove")
    wrap(traffic, "next_hop", "traffic.next_hop")
    wrap(scheduler, "allocate_slots", "scheduler.allocate")
    wrap(scheduler, "assign_clusters", "scheduler.cluster")
    wrap(scheduler, "global_importance_ranking", "scheduler.cluster")
    wrap(scheduler, "network_priority", "scheduler.network_priority")
    for name in ("consume_tx", "consume_rx", "consume_idle", "battery_factor", "battery_level"):
        wrap(energy, name, "energy")
    wrap(harness.RunReport, "__init__", "metrics.report")
    wrap(harness, "trace_to_jsonl", "harness.serialize", after=_count_trace_bytes)
    wrap(harness, "emit_report", "harness.emit")


# name -> (unit, better, source). A source ("time", group) is the group's
# self time; ("count", key) is a counter, where a group's key counts its calls.
PER_LAYER = {
    "engine.init_s": ("s", "lower", ("time", "engine.init")),
    "engine.run_self_s": ("s", "lower", ("time", "engine.run")),
    "engine.events": ("count", "lower", ("count", "engine.events")),
    "engine.trace_records": ("count", "lower", ("count", "engine.trace_records")),
    "mobility.tick_s": ("s", "lower", ("time", "mobility.tick")),
    "mobility.tick_calls": ("count", "lower", ("count", "mobility.tick")),
    "mobility.positions_s": ("s", "lower", ("time", "mobility.positions")),
    "mobility.positions_calls": ("count", "lower", ("count", "mobility.positions")),
    "mobility.kernel_s": ("s", "lower", ("time", "mobility.kernel")),
    "radio.graph_self_s": ("s", "lower", ("time", "radio.graph")),
    "radio.graph_builds": ("count", "lower", ("count", "radio.graph")),
    "radio.pair_power_s": ("s", "lower", ("time", "radio.pair_power")),
    "radio.pairs_evaluated": ("count", "lower", ("count", "radio.pairs_evaluated")),
    "radio.edges": ("count", "lower", ("count", "radio.edges")),
    "radio.edge_yield": ("ratio", "higher", ("ratio", "radio.edges", "radio.pairs_evaluated")),
    "radio.in_range_s": ("s", "lower", ("time", "radio.in_range")),
    "radio.in_range_calls": ("count", "lower", ("count", "radio.in_range")),
    "traffic.bfs_s": ("s", "lower", ("time", "traffic.bfs")),
    "traffic.bfs_runs": ("count", "lower", ("count", "traffic.bfs")),
    "traffic.bfs_nodes": ("count", "lower", ("count", "traffic.bfs_nodes")),
    "traffic.enqueue_s": ("s", "lower", ("time", "traffic.enqueue")),
    "traffic.enqueue_calls": ("count", "lower", ("count", "traffic.enqueue")),
    "traffic.evictions": ("count", "lower", ("count", "traffic.evictions")),
    "traffic.queue_read_s": ("s", "lower", ("time", "traffic.queue_read")),
    "traffic.queue_remove_s": ("s", "lower", ("time", "traffic.queue_remove")),
    "traffic.queue_remove_calls": ("count", "lower", ("count", "traffic.queue_remove")),
    "traffic.next_hop_s": ("s", "lower", ("time", "traffic.next_hop")),
    "scheduler.allocate_s": ("s", "lower", ("time", "scheduler.allocate")),
    "scheduler.allocate_calls": ("count", "lower", ("count", "scheduler.allocate")),
    "scheduler.cluster_s": ("s", "lower", ("time", "scheduler.cluster")),
    "scheduler.network_priority_s": ("s", "lower", ("time", "scheduler.network_priority")),
    "energy.s": ("s", "lower", ("time", "energy")),
    "energy.calls": ("count", "lower", ("count", "energy")),
    "metrics.report_s": ("s", "lower", ("time", "metrics.report")),
    "harness.serialize_s": ("s", "lower", ("time", "harness.serialize")),
    "harness.trace_bytes": ("B", "lower", ("count", "harness.trace_bytes")),
    "harness.emit_self_s": ("s", "lower", ("time", "harness.emit")),
}


def round_metrics(times: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced round from its self times and counters."""
    out = {}
    for name, (_, _, source) in PER_LAYER.items():
        if source[0] == "time":
            out[name] = times.get(source[1], 0.0)
        elif source[0] == "count":
            out[name] = counts.get(source[1], 0)
        else:
            den = counts.get(source[2], 0)
            out[name] = counts.get(source[1], 0) / den if den else 0.0
    return out
