"""The benchmark's three workloads: their scenario documents, how one round
runs through the public harness entry points, and how its outputs are
checked.

An operation is one simulation run, one (seed, scheme[, flow count]). A
round runs every operation of the workload once; a benchmark run repeats
the same round. The simulation seeds of a round are drawn from the
benchmark's --seed, so the same --seed gives the same inputs.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

# The paper's experiment: the stock scenario (22 nodes on 2000 x 2000 m for
# 100 s) with an 800 m range and sensor 0 reporting the t = 10 s event; the
# same document as configs/event_study.yaml.
EVENT_AB_DOC = {
    "radio": {"nominal_range": 800.0},
    "critical_events": [{"time": 10.0, "x": 1000.0, "y": 1000.0, "radius": 400.0,
                         "reporter": 0, "emit_reports": True}],
}
REPORTER = 0
SCHEMES = ["mdlps", "data"]

# The scale workload: 1000 nodes on the stock terrain with the stock 250 m
# range for a 20 s session; graph building dominates.
FLEET1000_DOC = {"node_count": 1000, "cluster_heads": 3, "base_stations": 1,
                 "session_duration": 20.0}

# The criterion-5 arena, as in configs/capacity_sweep.yaml: fully connected,
# a 2 x 2 grid, no events, so the queues saturate from 5 flows on.
CAPACITY_DOC = {
    "node_count": 22, "cluster_heads": 3, "base_stations": 1,
    "terrain_area": {"width": 600.0, "height": 600.0},
    "session_duration": 60.0,
    "flow_count": 1,
    "radio": {"nominal_range": 900.0},
    "grid": {"frequencies": 2, "slots_per_frame": 2, "frame_length": 0.5},
    "critical_events": [],
}
FLOW_COUNTS = list(range(1, 11))

# graph builds and BFS runs checked against the oracles in the fleet check
SAMPLED_BUILDS = (0, 10, 20)


@dataclass(frozen=True)
class RoundResult:
    attempted: int
    failed: int
    output: list  # the RunReport/FailedRun list, or the sweep's series


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict
    seeds_per_round: int
    run: Callable  # (harness, cfg, seeds, out_dir) -> RoundResult
    check: Callable  # (harness, cfg, seeds, out_dir, result) -> list of problems

    def seeds(self, seed: int) -> list[int]:
        return sorted(random.Random(seed).sample(range(1, 1_000_000), self.seeds_per_round))


def count_failed(harness, reports) -> int:
    """Operations of a round that ended in a harness.FailedRun."""
    return sum(1 for rep in reports if isinstance(rep, harness.FailedRun))


def _run_experiment(harness, cfg, seeds, out_dir, schemes=None):
    reports = harness.run_experiment(cfg, seeds, schemes, out_dir=out_dir, write_traces=True)
    return RoundResult(len(reports), count_failed(harness, reports), reports)


def _check_event_ab(harness, cfg, seeds, out_dir, result):
    return checks.event_ab_problems(out_dir, seeds, SCHEMES, REPORTER, cfg.node_count)


def _check_fleet(harness, cfg, seeds, out_dir, result):
    """Conservation in every run, then one more run of the first seed whose
    sampled graph builds and BFS runs are compared with the oracles."""
    from mwsnsim import radio, traffic

    problems = checks.trace_files_problems(out_dir, result.output)
    if result.failed:
        return problems  # the seed's run fails, so it has no graphs to check
    builds, bfs, sampled = [], [], []
    build_graph, hop_distances = radio.build_graph, traffic.hop_distances
    calls = itertools.count()

    def sampled_build(ids, px, py, params):
        graph = build_graph(ids, px, py, params)
        if next(calls) in SAMPLED_BUILDS:
            builds.append((tuple(ids), px.copy(), py.copy(), graph.edges()))
            sampled.append(graph)
        return graph

    def sampled_bfs(graph, dst):
        dist = hop_distances(graph, dst)
        if any(graph is g for g in sampled):
            bfs.append((dict(graph.adj), dst, dict(dist)))
        return dist

    radio.build_graph, traffic.hop_distances = sampled_build, sampled_bfs
    try:
        harness.run_one(cfg, seeds[0], cfg.scheduler)
    finally:
        radio.build_graph, traffic.hop_distances = build_graph, hop_distances
    if len(builds) != len(SAMPLED_BUILDS) or not bfs:
        problems.append(f"sampled {len(builds)} graph builds and {len(bfs)} BFS runs")
    for ids, px, py, edges in builds:
        problems += checks.edge_problems(ids, px, py, cfg["radio"]["nominal_range"], edges)
    for adj, dst, dist in bfs:
        problems += checks.bfs_problems(adj, dst, dist)
    return problems


def _run_capacity(harness, cfg, seeds, out_dir):
    ops = len(FLOW_COUNTS) * len(seeds)
    try:
        series = harness.throughput_vs_connections(cfg, FLOW_COUNTS, seeds, scheme="mdlps",
                                                   out_dir=out_dir)
    except Exception:  # the sweep aborts on its first failed run: no output stands
        return RoundResult(ops, ops, [])
    return RoundResult(ops, 0, series)


def _check_capacity(harness, cfg, seeds, out_dir, result):
    if result.failed:
        return []
    rows = checks.read_csv(os.path.join(out_dir, "throughput.csv"))
    series = [(int(r["connections"]), float(r["throughput_kbps"])) for r in rows]
    problems = checks.capacity_problems(series, cfg)
    if [n for n, _ in series] != FLOW_COUNTS:
        problems.append(f"throughput.csv covers flow counts {[n for n, _ in series]}")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("event_ab", "the paper's paired data/mdlps critical-event study: event-dense, "
                 "22 nodes, trace output", EVENT_AB_DOC, 6,
                 functools.partial(_run_experiment, schemes=SCHEMES), _check_event_ab),
        Workload("fleet1000", "1000 nodes for 20 s: graph building and BFS dominate; mobility "
                 "and queues do little", FLEET1000_DOC, 1, _run_experiment, _check_fleet),
        Workload("capacity_sweep", "flow counts 1-10 in a saturated 2x2 grid: queue evictions "
                 "and slot allocation, no trace output", CAPACITY_DOC, 3, _run_capacity,
                 _check_capacity),
    )
}
