"""Traffic plane: constant-bit-rate flows, bounded priority queues,
hop-count routing over the connectivity graph, and per-flow delivery-ratio
tracking.

Routing deliberately reduces to shortest hop count: the hop count is the
only routing quantity the schedulers consume (it exponentiates the laxity
budget), so on-demand route discovery is replaced by a per-frame BFS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(eq=False)
class Packet:
    """One packet in flight; packets compare by identity."""

    id: int
    flow: str
    dst: int
    size: int
    created: float
    deadline: float
    importance: float
    strikes: int = 0      # consecutive no-route transmission attempts
    retries: int = 0      # link-broken retransmission attempts


@dataclass(frozen=True)
class Flow:
    id: str
    src: int
    dst: int
    interval: float
    start: float
    stop: float
    importance_override: float | None


class NodeQueue:
    """Bounded queue ordered by the active scheme's key at inspection time.

    The queue holds and ranks packets; it does not check deadlines, which
    the engine's arrival rule and `purge_expired` do. Keys are recomputed
    when the queue is read (laxity decays with the clock), so only
    membership is stored, in arrival order: packets are only appended, and
    removal keeps the order of the rest. Reads sort stably, so key ties go
    first-in first-out. On overflow the worst-keyed packet is
    dropped, which may be the incoming one; key ties evict the newest
    arrival.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list[Packet] = []

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def enqueue(self, packet: Packet, make_key) -> Packet | None:
        """Insert packet; returns the evicted packet on overflow, else None.
        `make_key()` gives the key function that picks the evicted packet;
        it is called only on overflow."""
        if len(self._items) < self.capacity:
            self._items.append(packet)
            return None
        # max keeps the first of equal keys, so the newest goes first
        worst = max([packet, *reversed(self._items)], key=make_key())
        if worst is packet:
            return packet
        self._items.remove(worst)
        self._items.append(packet)
        return worst

    def sorted_items(self, key_fn) -> list[Packet]:
        """Queue contents best-first under the given key, FIFO among ties."""
        return sorted(self._items, key=key_fn)

    def best_key(self, key_fn):
        """Smallest key in the queue, or None when empty."""
        if not self._items:
            return None
        return min(key_fn(p) for p in self._items)

    def remove(self, packet: Packet) -> None:
        self._items.remove(packet)

    def purge_expired(self, now: float) -> list[Packet]:
        """Remove and return all packets whose deadline has passed (laxity
        0), in arrival order; one pass keeps the rest."""
        items = self._items
        expired = [p for p in items if now >= p.deadline]
        if expired:
            self._items = [p for p in items if now < p.deadline]
        return expired


class PdrTracker:
    """Delivery ratio of a flow over a sliding window of send outcomes.

    The ratio is 1 by convention before any outcome is recorded. The count
    of deliveries in the window is kept, so reading the ratio is O(1).
    """

    def __init__(self, window: int):
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._hits = 0

    def record(self, delivered_within_deadline: bool) -> "PdrTracker":
        outcome = bool(delivered_within_deadline)
        if len(self._outcomes) == self._outcomes.maxlen:
            self._hits -= self._outcomes[0]
        self._outcomes.append(outcome)
        self._hits += outcome
        return self

    @property
    def value(self) -> float:
        if not self._outcomes:
            return 1.0
        return self._hits / len(self._outcomes)


def hop_distances(graph, dst: int) -> dict[int, int]:
    """BFS hop counts from every reachable node to dst, level by level over
    the graph's flat neighbour rows; nodes enter the result in BFS order.
    The walk stops once every node has its count."""
    row = graph.row
    if dst not in row:
        return {}
    flat, bounds = graph.neighbours, graph.indptr
    dist = {dst: 0}
    frontier = [dst]
    hops = 0
    while frontier and len(dist) < len(row):
        hops += 1
        reached = []
        for u in frontier:
            k = row[u]
            for v in flat[bounds[k]:bounds[k + 1]]:
                if v not in dist:
                    dist[v] = hops
                    reached.append(v)
        frontier = reached
    return dist


def next_hop(graph, dist: dict[int, int], node: int) -> int | None:
    """Deterministic next hop: the lowest-id neighbor one hop closer to dst."""
    here = dist.get(node)
    if here is None or here == 0:
        return None
    for v in graph.neighbors(node):  # adjacency is sorted ascending
        if dist.get(v) == here - 1:
            return v
    return None

