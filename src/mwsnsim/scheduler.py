"""Priority computation and slot allocation.

Two schemes share one comparator chain:

* mdlps — priority index (PDR/M) * ULB * (1/v) * X, gated to a sentinel
  when the flow's delivery ratio sits below its threshold. Lower index wins.
* data — priority index 1/importance, so the most important data takes the
  lowest index and the first slot.

Ties break by mobility class (faster class first), then battery level index
(first above-threshold band first, below-threshold last), then node id.
Candidates carry a network rank N1 ahead of the node index N2; the grid of
frequency x time positions is filled in scan order by tuple order and stays
frozen until the next critical event re-arms it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .mobility import MobilityClass
from .radio import _squared_distance, in_disc

# gate sentinel: strictly greater than every finite priority index
GATE_SENTINEL = float("inf")


class FrozenGrid(Exception):
    pass


@dataclass(frozen=True)
class FlowParams:
    desired_pdr: float
    pdr_threshold: float
    deadline_budget: float


def compute_ulb(deadline: float, now: float, hops: int) -> float:
    """Laxity budget: max(0, deadline - now) / 2^hops, for the hops still to go.

    An expired packet (now >= deadline) has budget zero; expiry itself is
    the caller's flag, not an error here.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    return max(0.0, deadline - now) / (2.0 ** hops)


def pdr_gate(pi: float, pdr: float, flow: FlowParams) -> float:
    """Replace the index with the always-lose sentinel when the flow's
    delivery ratio is strictly below its threshold; equality passes."""
    if pdr < flow.pdr_threshold:
        return GATE_SENTINEL
    return pi


def compute_pi_mdlps(pdr: float, flow: FlowParams, ulb: float, v: float, x: float) -> float:
    """Laxity-based priority index: (pdr / desired) * ulb * (1/v) * x,
    passed through the delivery-ratio gate. Lower value = higher priority.

    Callers guarantee v > 0 (the engine floors speeds at the config's
    positive velocity_floor), pdr in [0, 1] and x >= 1 (battery_factor);
    the index does not check them."""
    return pdr_gate((pdr / flow.desired_pdr) * ulb * (1.0 / v) * x, pdr, flow)


def compute_pi_data(importance: float) -> float:
    """Reciprocal importance: the most important data gets the lowest index."""
    if importance <= 0:
        raise ValueError("importance must be strictly positive")
    return 1.0 / importance


@dataclass(frozen=True)
class Candidate:
    """One contender for a transmission position."""

    node: int
    pi: float
    mob_class: MobilityClass = MobilityClass.V_L
    batt_level: int = 1


def _battery_rank(level_index: int) -> tuple[int, int]:
    # below-threshold (index 0) sorts after every above-threshold band
    return (1, 0) if level_index == 0 else (0, level_index)


def candidate_key(c: Candidate):
    """Total-order sort key: index ascending, mobility class descending,
    battery band ascending (below-threshold last), node id ascending."""
    return (c.pi, -int(c.mob_class), _battery_rank(c.batt_level), c.node)


def nearest(point: tuple[float, float], candidates, positions) -> int | None:
    """The candidate id whose position is closest to point, ties going to
    the lowest id; None when there are no candidates."""
    return min(sorted(candidates), key=lambda node: _squared_distance(point, positions[node]),
               default=None)


@dataclass(frozen=True)
class Network:
    id: str
    bandwidth: float
    members: tuple[int, ...] = ()


def network_priority(
    networks,
    positions: dict[int, tuple[float, float]],
    event_xy: tuple[float, float],
    radius: float,
    w_density: float,
    w_bandwidth: float,
) -> tuple[dict[str, int], bool]:
    """Rank networks 1..K (1 best) for a critical event at event_xy.

    Score = w_density * (own members inside the radius / all members inside
    it) + w_bandwidth * (bandwidth / max bandwidth). When no network reaches
    the area at all, ranking falls back to bandwidth alone and the returned
    flag is True. Ties break by network id.
    """
    networks = list(networks)
    if not networks:
        return {}, False
    in_area = {net.id: sum(in_disc(positions[node], event_xy, radius) for node in net.members)
               for net in networks}
    total_in_area = sum(in_area.values())
    max_bw = max(net.bandwidth for net in networks)
    empty_area = total_in_area == 0
    scores = {}
    for net in networks:
        bw_share = net.bandwidth / max_bw if max_bw > 0 else 0.0
        if empty_area:
            scores[net.id] = bw_share
        else:
            density_share = in_area[net.id] / total_in_area
            scores[net.id] = w_density * density_share + w_bandwidth * bw_share
    ordered = sorted(scores, key=lambda nid: (-scores[nid], nid))
    return {nid: rank + 1 for rank, nid in enumerate(ordered)}, empty_area


@dataclass(frozen=True)
class PriorityTuple:
    """Network rank first, node candidate second; compared lexicographically."""

    n1: int
    n2: Candidate

    @property
    def node(self) -> int:
        return self.n2.node


def tuple_key(pt: PriorityTuple):
    return (pt.n1,) + candidate_key(pt.n2)


def fill_positions(positions, contenders) -> list[tuple[tuple[int, int], int]]:
    """(position, node) pairs: the best contenders in tuple order, paired
    with positions in the given order until either runs out, as zip does."""
    return [(pos, pt.node) for pos, pt in zip(positions, sorted(contenders, key=tuple_key))]


class SlotGrid:
    """frequencies x slots_per_frame transmission positions for one frame.

    The assignment maps each (frequency, slot) position to at most one
    source node and is immutable between critical events: allocation only
    proceeds when the grid has been armed (at startup or by a critical
    event) and each arming permits exactly one allocation. A critical event
    allocates as soon as it re-arms, so between events the grid is armed
    exactly when it has never been allocated.
    """

    def __init__(self, frequencies: int, slots_per_frame: int, frame_length: float):
        self.frequencies = frequencies
        self.slots_per_frame = slots_per_frame
        self.frame_length = frame_length
        self.assignment: dict[tuple[int, int], int | None] = dict.fromkeys(self.positions())
        self.armed = True

    def positions(self) -> list[tuple[int, int]]:
        """All (frequency, slot) positions in the fixed scan order."""
        return [(f, s) for f in range(self.frequencies) for s in range(self.slots_per_frame)]

    @property
    def capacity(self) -> int:
        return self.frequencies * self.slots_per_frame

    @property
    def slot_duration(self) -> float:
        return self.frame_length / self.slots_per_frame

    def rearm(self) -> None:
        """Permit one fresh allocation (called at each critical event)."""
        self.armed = True


def allocate_slots(sources, grid: SlotGrid) -> SlotGrid:
    """Fill the grid with the best min(|sources|, capacity) tuples.

    Positions fill in scan order (frequency-major, then slot); the result is
    frozen until the grid is re-armed by the next critical event.
    """
    if not grid.armed:
        raise FrozenGrid("allocation without an intervening critical event")
    positions = grid.positions()
    grid.assignment = dict.fromkeys(positions)
    grid.assignment.update(fill_positions(positions, sources))
    grid.armed = False
    return grid


def assign_clusters(sensors, cluster_heads, reach) -> list[int]:
    """The orphans among sensors, ascending: those with no cluster head in
    radio reach. reach(a, b) decides reachability.

    Under the data scheme a sensor reports through a cluster head, but
    ranking is one comparator over all contenders, so which head a sensor
    would pick does not matter; only whether it has one does.
    """
    return [s for s in sorted(sensors) if not any(reach(s, c) for c in cluster_heads)]


def global_importance_ranking(cluster_reports: dict[int, list[Candidate]]) -> list[Candidate]:
    """Merge per-cluster-head candidate lists into one global order.

    Each cluster head's list is sorted locally by the shared comparator and
    the lists are then k-way merged, which is exactly equivalent to sorting
    the union.
    """
    local = [sorted(members, key=candidate_key) for _, members in sorted(cluster_reports.items())]
    return list(heapq.merge(*local, key=candidate_key))
