"""Output checks of the benchmark workloads.

Every check recomputes its expectation from the workload's inputs, from the
files the program wrote, or from a property the method must have; none
compares with a stored copy of earlier output. Each check returns a list of
problems, empty when the check holds.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter

import numpy as np

# pairs this close to the range boundary, relative to the range, may fall on
# either side under rounding, so the edge oracle does not judge them
BOUNDARY_RTOL = 1e-9


def read_trace(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path: str) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def conservation_problems(trace: list[dict], label: str) -> list[str]:
    """Every gen id has exactly one terminal record (rx with fin=1, or drop),
    and no terminal record names a packet that was never generated."""
    generated = Counter(rec["p"] for rec in trace if rec["k"] == "gen")
    terminal = Counter(rec["p"] for rec in trace
                       if (rec["k"] == "rx" and rec["fin"] == 1) or rec["k"] == "drop")
    problems = [f"{label}: packet {p} generated {n} times" for p, n in generated.items() if n != 1]
    problems += [f"{label}: packet {p} has {terminal.get(p, 0)} terminal records"
                 for p in generated if terminal.get(p, 0) != 1]
    problems += [f"{label}: terminal record for ungenerated packet {p}"
                 for p in terminal if p not in generated]
    if len(problems) > 5:
        problems[5:] = [f"{label}: and {len(problems) - 5} more conservation problems"]
    return problems


def recount(trace: list[dict]) -> tuple[int, float]:
    """(on-time final deliveries, delivered kbit/s over the session)."""
    size = {rec["p"]: rec["sz"] for rec in trace if rec["k"] == "gen"}
    final = [rec for rec in trace if rec["k"] == "rx" and rec["fin"] == 1]
    session = next(rec["t"] for rec in reversed(trace) if rec["k"] == "end")
    bits = sum(8 * size[rec["p"]] for rec in final)
    return sum(1 for rec in final if rec["ok"]), bits / session / 1000.0


def summary_problems(row: dict, trace: list[dict], label: str) -> list[str]:
    delivered, kbps = recount(trace)
    problems = []
    if int(row["delivered"]) != delivered:
        problems.append(f"{label}: summary delivered {row['delivered']} != recount {delivered}")
    if not math.isclose(float(row["throughput_kbps"]), kbps, rel_tol=0.0, abs_tol=1e-6):
        problems.append(f"{label}: summary throughput {row['throughput_kbps']} != recount {kbps!r}")
    return problems


def first_frame_grantees(trace: list[dict], event: int) -> set[int]:
    t_ev = next(rec["t"] for rec in trace if rec["k"] == "crit" and rec["ev"] == event)
    frame = next((rec for rec in trace if rec["k"] == "frame" and rec["t"] >= t_ev), None)
    if frame is None:
        return set()
    return {g[2] for g in frame["g"]} | {g[2] for g in frame["x"]}


def first_tx_rank(trace: list[dict], event: int, node: int, absent: int) -> int:
    """1-based position of node among first transmitters at or after the
    event; `absent` when it never transmits."""
    t_ev = next(rec["t"] for rec in trace if rec["k"] == "crit" and rec["ev"] == event)
    order: list[int] = []
    for rec in trace:
        if rec["k"] == "tx" and rec["t"] >= t_ev and rec["u"] not in order:
            order.append(rec["u"])
    return order.index(node) + 1 if node in order else absent


def event_ab_problems(out_dir: str, seeds: list[int], schemes: list[str], reporter: int,
                      node_count: int) -> list[str]:
    """Checks of the paired critical-event study's files; `schemes` names
    mdlps and data."""
    problems = []
    rows = {(int(r["seed"]), r["scheme"]): r for r in read_csv(os.path.join(out_dir, "summary.csv"))}
    grants = 0
    ranks = {scheme: [] for scheme in schemes}
    paired = 0
    for seed in seeds:
        traces = {}
        for scheme in schemes:
            label = f"seed {seed} {scheme}"
            row = rows.get((seed, scheme))
            if row is None:
                problems.append(f"{label}: no summary row")
                continue
            if row["error"]:
                continue  # a failed run is counted as failed, not checked
            trace = read_trace(os.path.join(out_dir, f"trace_{scheme}_s{seed}.jsonl"))
            traces[scheme] = trace
            problems += conservation_problems(trace, label)
            problems += summary_problems(row, trace, label)
        if len(traces) < len(schemes):
            continue
        paired += 1
        gens = [[rec for rec in traces[s] if rec["k"] == "gen"] for s in schemes]
        if any(g != gens[0] for g in gens[1:]):
            problems.append(f"seed {seed}: schemes differ in their gen records")
        if reporter in first_frame_grantees(traces["data"], 0):
            grants += 1
        for scheme in schemes:
            ranks[scheme].append(first_tx_rank(traces[scheme], 0, reporter, node_count + 1))
    if paired:
        if grants < 0.95 * paired:
            problems.append(f"reporter granted in the first post-event frame on {grants} of "
                            f"{paired} seeds under data, below 95%")
        mean = {s: sum(v) / len(v) for s, v in ranks.items()}
        if not mean["data"] < mean["mdlps"]:
            problems.append(f"reporter's mean first-transmission rank under data "
                            f"{mean['data']:.3f} is not below mdlps {mean['mdlps']:.3f}")
    return problems


def trace_files_problems(out_dir: str, reports) -> list[str]:
    """Conservation in each successful run's trace file."""
    problems = []
    for rep in reports:
        if rep.trace:
            path = os.path.join(out_dir, f"trace_{rep.scheme}_s{rep.seed}.jsonl")
            problems += conservation_problems(read_trace(path), f"seed {rep.seed} {rep.scheme}")
    return problems


def edge_problems(ids, px, py, nominal_range: float, edges) -> list[str]:
    """Compare a graph's edge set with the disc rule distance <= range,
    brute force over all pairs; pairs within BOUNDARY_RTOL of the boundary
    are not judged."""
    ids = list(ids)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    i, j = np.triu_indices(len(ids), k=1)
    d = np.hypot(px[i] - px[j], py[i] - py[j])
    near = np.abs(d - nominal_range) <= BOUNDARY_RTOL * nominal_range
    inside = ~near & (d <= nominal_range)

    def pairs(mask):
        return {tuple(sorted((ids[a], ids[b]))) for a, b in zip(i[mask], j[mask])}

    expected = pairs(inside)
    actual = {tuple(sorted(e)) for e in edges} - pairs(near)
    problems = [f"edge {e} missing at distance <= range" for e in sorted(expected - actual)[:5]]
    problems += [f"edge {e} present beyond range" for e in sorted(actual - expected)[:5]]
    return problems


def bfs_problems(adj: dict[int, tuple[int, ...]], dst: int, hops: dict[int, int]) -> list[str]:
    """Compare hop counts to dst with scipy's unweighted shortest paths."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    nodes = sorted(adj)
    index = {node: k for k, node in enumerate(nodes)}
    rows = [index[a] for a in nodes for _ in adj[a]]
    cols = [index[b] for a in nodes for b in adj[a]]
    matrix = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(nodes), len(nodes)))
    dist = shortest_path(matrix, unweighted=True, indices=index[dst])
    expected = {node: int(dist[index[node]]) for node in nodes if np.isfinite(dist[index[node]])}
    if expected != hops:
        wrong = sorted(set(expected.items()) ^ set(hops.items()))[:5]
        return [f"hop counts to {dst} differ from scipy BFS at {wrong}"]
    return []


def capacity_bound_kbps(n: int, cfg) -> float:
    """Delivered kbit/s cannot exceed what n CBR flows offer, nor what the
    slot grid can carry: one packet per position per frame."""
    bits = 8 * cfg["packet_size"]
    grid = cfg["grid"]
    offered = n * bits / cfg["cbr_interval"]
    carried = grid["frequencies"] * grid["slots_per_frame"] * bits / grid["frame_length"]
    return min(offered, carried) / 1000.0


def capacity_problems(series: list[tuple[int, float]], cfg, floor: float = 0.95) -> list[str]:
    """Throughput at each flow count stays within the capacity bound and
    reaches at least `floor` of it."""
    problems = []
    for n, kbps in series:
        bound = capacity_bound_kbps(n, cfg)
        if kbps > bound * (1 + 1e-9):
            problems.append(f"{n} flows: {kbps} kbit/s exceeds the bound {bound}")
        elif kbps < floor * bound:
            problems.append(f"{n} flows: {kbps} kbit/s is below {floor:.0%} of the bound {bound}")
    return problems
