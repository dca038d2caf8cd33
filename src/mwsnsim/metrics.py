"""Metrics as pure functions of a trace.

Every quantity reported by the harness is recomputable from the emitted
trace records alone, so replaying a trace file reproduces the in-run values
exactly.
"""

from __future__ import annotations

import math

DROP_CAUSES = ("expired", "overflow", "no_route", "gated", "starved")


class EventNotFound(Exception):
    pass


def generated_per_flow(trace: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in trace:
        if rec["k"] == "gen":
            counts[rec["fl"]] = counts.get(rec["fl"], 0) + 1
    return counts


def packet_fates(trace: list[dict]) -> dict[int, str]:
    """Terminal fate per packet id: delivered, deadline_miss, or a drop cause."""
    fates: dict[int, str] = {}
    for rec in trace:
        if rec["k"] == "rx" and rec["fin"] == 1:
            fates[rec["p"]] = "delivered" if rec["ok"] else "deadline_miss"
        elif rec["k"] == "drop":
            fates[rec["p"]] = rec["c"]
    return fates


def conservation(trace: list[dict]) -> dict:
    """Fate breakdown plus the check that every generated packet has exactly
    one terminal record."""
    generated = [rec["p"] for rec in trace if rec["k"] == "gen"]
    fates = packet_fates(trace)
    breakdown = {"delivered": 0, "deadline_miss": 0}
    breakdown.update({c: 0 for c in DROP_CAUSES})
    for fate in fates.values():
        breakdown[fate] += 1
    terminal_records = sum(
        1 for rec in trace
        if (rec["k"] == "rx" and rec["fin"] == 1) or rec["k"] == "drop")
    ok = (len(generated) == len(set(generated)) == len(fates)
          and set(fates) == set(generated)
          and terminal_records == len(generated))
    return {"generated": len(generated), "fates": breakdown, "ok": ok}


def pdr_within_deadline(trace: list[dict]) -> dict[str, float]:
    """Per-flow fraction of generated packets delivered on time."""
    gen_flow = {rec["p"]: rec["fl"] for rec in trace if rec["k"] == "gen"}
    gen_counts = generated_per_flow(trace)
    ontime: dict[str, int] = {fl: 0 for fl in gen_counts}
    for rec in trace:
        if rec["k"] == "rx" and rec["fin"] == 1 and rec["ok"]:
            ontime[gen_flow[rec["p"]]] += 1
    return {fl: ontime[fl] / gen_counts[fl] for fl in sorted(gen_counts)}


def delivered_ratio(cons: dict) -> float:
    """On-time share of the generated packets, from a conservation() result."""
    return cons["fates"]["delivered"] / cons["generated"] if cons["generated"] else 0.0


def delays(trace: list[dict]) -> list[float]:
    """End-to-end delays of all final deliveries, in trace order."""
    return [rec["delay"] for rec in trace if rec["k"] == "rx" and rec["fin"] == 1]


def mean_delay(trace: list[dict]) -> float:
    ds = delays(trace)
    return sum(ds) / len(ds) if ds else math.nan


def percentile_delay(trace: list[dict], pct: float = 95.0) -> float:
    ds = sorted(delays(trace))
    if not ds:
        return math.nan
    rank = (pct / 100.0) * (len(ds) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ds[lo]
    return ds[lo] + (ds[hi] - ds[lo]) * (rank - lo)


def throughput_kbps(trace: list[dict], session: float) -> float:
    """Payload bits of final-destination deliveries over the session, in
    kbit/s; relayed hops are not double-counted."""
    size_of = {rec["p"]: rec["sz"] for rec in trace if rec["k"] == "gen"}
    bits = sum(8 * size_of[rec["p"]] for rec in trace if rec["k"] == "rx" and rec["fin"] == 1)
    return bits / session / 1000.0


def critical_events(trace: list[dict]) -> list[dict]:
    return [rec for rec in trace if rec["k"] == "crit"]


def _event_time(trace: list[dict], event_index: int) -> float:
    for rec in trace:
        if rec["k"] == "crit" and rec["ev"] == event_index:
            return rec["t"]
    raise EventNotFound(f"no critical event {event_index} in trace")


def execution_order(trace: list[dict], event_index: int) -> list[int]:
    """Node ids ordered by their first transmission at or after the given
    critical event; nodes that never transmit are absent."""
    t_ev = _event_time(trace, event_index)
    order: list[int] = []
    for rec in trace:
        if rec["k"] == "tx" and rec["t"] >= t_ev and rec["u"] not in order:
            order.append(rec["u"])
    return order


def execution_orders(trace: list[dict]) -> dict[int, list[int]]:
    """execution_order of every critical event in the trace, by event
    index; empty for a trace without one."""
    return {rec["ev"]: execution_order(trace, rec["ev"]) for rec in critical_events(trace)}


def max_queue_length(trace: list[dict]) -> int:
    longest = 0
    for rec in trace:
        if rec["k"] == "frame" and rec["q"]:
            longest = max(longest, max(rec["q"]))
    return longest


def energy_series(trace: list[dict]) -> dict[int, list[tuple[float, float]]]:
    """Per-node battery level samples in time order (from tx/rx records)."""
    series: dict[int, list[tuple[float, float]]] = {}
    for rec in trace:
        if rec["k"] == "tx":
            series.setdefault(rec["u"], []).append((rec["t"], rec["e"]))
        elif rec["k"] == "rx":
            series.setdefault(rec["n"], []).append((rec["t"], rec["e"]))
    return series


def energy_monotone(trace: list[dict]) -> bool:
    for samples in energy_series(trace).values():
        levels = [e for _, e in samples]
        if any(b > a + 1e-12 for a, b in zip(levels, levels[1:])):
            return False
    return True


def depleted_nodes(trace: list[dict]) -> list[int]:
    return [rec["n"] for rec in trace if rec["k"] == "dep"]


def orphan_frame_count(trace: list[dict]) -> int:
    return sum(len(rec.get("orph", ())) for rec in trace if rec["k"] == "frame")


def session_of(trace: list[dict]) -> float:
    """The session length, the time of the trace's end record."""
    for rec in reversed(trace):
        if rec["k"] == "end":
            return rec["t"]
    raise ValueError("trace has no end record")


METRIC_FUNCTIONS = {
    "conservation": conservation,
    "pdr": pdr_within_deadline,
    "overall_pdr": lambda trace: delivered_ratio(conservation(trace)),
    "mean_delay": mean_delay,
    "p95_delay": lambda trace: percentile_delay(trace, 95.0),
    "throughput": lambda trace: throughput_kbps(trace, session_of(trace)),
    "drops": lambda trace: {c: n for c, n in conservation(trace)["fates"].items()
                            if c in DROP_CAUSES},
    "max_queue": max_queue_length,
    "exec_order": execution_orders,
    "energy": energy_series,
    "energy_monotone": energy_monotone,
    "depleted": depleted_nodes,
    "orphans": orphan_frame_count,
}
