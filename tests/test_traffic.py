"""CBR emission times, bounded priority queues, hop-count routing, delivery
tracking, and the scripted per-hop delivery behaviors."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwsnsim.config import DEFAULTS, validate_config
from mwsnsim.engine import Simulation
from mwsnsim.mobility import make_leg
from mwsnsim.radio import ConnectivityGraph
from mwsnsim.scheduler import GATE_SENTINEL
from mwsnsim.traffic import (
    NodeQueue,
    Packet,
    PdrTracker,
    hop_distances,
    next_hop,
)


def _packet(pid=0, deadline=100.0, importance=0.5, **kw):
    base = dict(id=pid, flow="f0", dst=9, size=1000, created=0.0,
                deadline=deadline, importance=importance)
    base.update(kw)
    return Packet(**base)


def _graph(edges, nodes=None):
    """ConnectivityGraph over the given undirected edges: CSR rows over the
    ascending node ids, each listing its neighbours' row numbers."""
    ids = sorted(nodes or {n for e in edges for n in e})
    neighbours = [{b for a, b in edges if a == n} | {a for a, b in edges if b == n} for n in ids]
    rows = [[k for k, node in enumerate(ids) if node in near] for near in neighbours]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([k for row in rows for k in row], dtype=np.int64)
    return ConnectivityGraph(np.array(ids, dtype=np.int64), indptr, indices)


def _reference_hops(edges, dst):
    """Hop counts to dst by a plain deque BFS over an adjacency dict."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        u = frontier.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


# CBR emission times ----------------------------------------------------------

def _gen_times(**flow):
    """Times of the `gen` records of a 100 s run with one explicit flow
    0 -> 21 and no critical event."""
    cfg = validate_config({"session_duration": 100.0, "critical_events": [],
                           "flows": [{"src": 0, "dst": 21, **flow}]})
    return [rec["t"] for rec in Simulation(cfg, seed=1).run() if rec["k"] == "gen"]


def test_cbr_count_over_full_session():
    # 100 s at one packet per 0.5 s, first emission at 0.5: exactly 200
    times = _gen_times(interval=0.5)
    assert len(times) == 200
    assert times[0] == 0.5 and times[-1] == 100.0


def test_cbr_nothing_before_first_interval():
    assert _gen_times(interval=0.5, stop=0.4) == []


def test_cbr_boundary_emission_inclusive():
    assert _gen_times(interval=100.0) == [100.0]


def test_cbr_times_are_not_a_running_sum():
    """Emission k is at start + k*interval exactly; a running sum of the
    interval drifts off that from the second emission on."""
    times = _gen_times(interval=0.1, start=0.25)
    assert times == [0.25 + k * 0.1 for k in range(1, len(times) + 1)]
    assert len(times) == 997 and times[-1] <= 100.0 < 0.25 + 998 * 0.1


# queues ---------------------------------------------------------------------

def _flat(p):
    return 1.0  # every packet ties


def _by_importance(p):
    return 1.0 / p.importance


def test_key_is_made_only_on_overflow():
    q = NodeQueue(2)
    made = []

    def make_key():
        made.append(len(q))
        return _flat
    q.enqueue(_packet(pid=0), make_key)
    q.enqueue(_packet(pid=1), make_key)
    assert made == []
    q.enqueue(_packet(pid=2), make_key)
    assert made == [2]


def test_enqueue_into_empty_queue_is_head():
    q = NodeQueue(50)
    p = _packet()
    assert q.enqueue(p, lambda: _flat) is None
    assert q.sorted_items(_flat) == [p]


def test_full_queue_of_better_packets_drops_newcomer():
    q = NodeQueue(50)
    for i in range(50):
        q.enqueue(_packet(pid=i, importance=1.0), lambda: _by_importance)
    loser = _packet(pid=99, importance=0.2)
    evicted = q.enqueue(loser, lambda: _by_importance)
    assert evicted is loser
    assert len(q) == 50


def test_sentinel_packet_evicted_first():
    q = NodeQueue(3)
    key = lambda p: GATE_SENTINEL if p.importance == 0.01 else 1.0 / p.importance
    gated = _packet(pid=0, importance=0.01)
    q.enqueue(gated, lambda: key)
    q.enqueue(_packet(pid=1, importance=0.9), lambda: key)
    q.enqueue(_packet(pid=2, importance=0.9), lambda: key)
    newcomer = _packet(pid=3, importance=0.5)
    evicted = q.enqueue(newcomer, lambda: key)
    assert evicted is gated
    assert newcomer in list(q)


def test_key_tie_evicts_newest():
    q = NodeQueue(2)
    a = _packet(pid=0)
    b = _packet(pid=1)
    c = _packet(pid=2)
    q.enqueue(a, lambda: _flat)
    q.enqueue(b, lambda: _flat)
    assert q.enqueue(c, lambda: _flat) is c


def test_fifo_among_equal_keys():
    q = NodeQueue(5)
    first = _packet(pid=1)
    second = _packet(pid=2)
    q.enqueue(first, lambda: _flat)
    q.enqueue(second, lambda: _flat)
    assert q.sorted_items(_flat) == [first, second]


def test_purge_expired_returns_dead_packets():
    q = NodeQueue(5)
    q.enqueue(_packet(pid=0, deadline=2.0), lambda: _flat)
    q.enqueue(_packet(pid=1, deadline=9.0), lambda: _flat)
    dead = q.purge_expired(now=2.0)
    assert [p.id for p in dead] == [0]
    assert len(q) == 1


class _ArrivalModel:
    """Reference queue: numbers arrivals itself and ranks by (key, arrival)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.arrival = {}
        self.counter = 0

    def ranked(self, key_fn):
        return sorted(self.arrival, key=lambda p: (key_fn(p), self.arrival[p]))

    def enqueue(self, packet, key_fn):
        self.arrival[packet] = self.counter
        self.counter += 1
        if len(self.arrival) <= self.capacity:
            return None
        worst = self.ranked(key_fn)[-1]
        del self.arrival[worst]
        return worst

    def purge_expired(self, now):
        dead = [p for p in self.ranked(lambda p: 0) if now >= p.deadline]
        for p in dead:
            del self.arrival[p]
        return dead


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.tuples(st.sampled_from(["enq", "enq", "remove", "purge", "tick"]),
                          st.integers(0, 5), st.integers(1, 3)), max_size=40))
def test_queue_ranks_and_evicts_like_an_arrival_counter(capacity, ops):
    """Random enqueue/remove/purge sequences: the queue ranks, evicts and
    purges exactly as a model that keeps its own arrival counter."""
    q, model = NodeQueue(capacity), _ArrivalModel(capacity)
    now = 0.0
    for pid, (op, a, m) in enumerate(ops):
        # few distinct keys, so ties are common, and a key that shifts
        # between operations, as laxity does
        key_fn = lambda p, m=m: GATE_SENTINEL if p.id % 7 == 6 else (p.id * 5 + m) % (m + 1)
        if op == "enq":
            p = _packet(pid=pid, deadline=now + a)
            assert q.enqueue(p, lambda: key_fn) is model.enqueue(p, key_fn)
        elif op == "remove" and len(model.arrival):
            victim = model.ranked(key_fn)[a % len(model.arrival)]
            q.remove(victim)
            del model.arrival[victim]
        elif op == "purge":
            assert q.purge_expired(now) == model.purge_expired(now)
        elif op == "tick":
            now += a / 2
        assert q.sorted_items(key_fn) == model.ranked(key_fn)
        assert q.best_key(key_fn) == min(map(key_fn, model.arrival), default=None)


# delivery-ratio tracker ------------------------------------------------------

WINDOW = DEFAULTS["flow"]["pdr_window"]


def test_tracker_is_one_before_any_outcome():
    assert PdrTracker(WINDOW).value == 1.0


def test_tracker_single_delivery():
    assert PdrTracker(WINDOW).record(True).value == 1.0


def test_tracker_ratio():
    tr = PdrTracker(window=20)
    for _ in range(8):
        tr.record(True)
    for _ in range(2):
        tr.record(False)
    assert tr.value == pytest.approx(0.8)


def test_tracker_window_slides():
    tr = PdrTracker(window=4)
    for outcome in (True, True, False, False, False):
        tr.record(outcome)
    assert tr.value == pytest.approx(0.25)


def test_tracker_bounds_random():
    rng = np.random.default_rng(0)
    tr = PdrTracker(window=7)
    window = []
    for _ in range(100):
        ok = bool(rng.integers(0, 2))
        tr.record(ok)
        window = (window + [ok])[-7:]
        # the kept hit count gives exactly the recomputed ratio
        assert tr.value == sum(window) / len(window)
        assert 0.0 <= tr.value <= 1.0


# routing ---------------------------------------------------------------------

class NoRoute(Exception):
    pass


def shortest_hop_route(graph, src: int, dst: int) -> list[int]:
    """Minimum-hop path from src to dst by repeated `next_hop`; among
    equal-hop paths the lexicographically smallest node sequence. Raises
    NoRoute when disconnected."""
    if src not in graph or dst not in graph:
        raise NoRoute(f"{src} -> {dst}: node missing from graph")
    if src == dst:
        return [src]
    dist = hop_distances(graph, dst)
    if src not in dist:
        raise NoRoute(f"{src} -> {dst}: disconnected")
    route = [src]
    node = src
    while node != dst:
        node = next_hop(graph, dist, node)
        route.append(node)
    return route


def test_line_route():
    g = _graph([(0, 1), (1, 2)])
    assert shortest_hop_route(g, 0, 2) == [0, 1, 2]
    assert hop_distances(g, 2)[0] == 2


def test_direct_edge_beats_detour():
    g = _graph([(0, 1), (1, 2), (0, 2)])
    assert shortest_hop_route(g, 0, 2) == [0, 2]


def test_disconnected_pair_raises():
    g = _graph([(0, 1), (2, 3)])
    with pytest.raises(NoRoute):
        shortest_hop_route(g, 0, 3)


def test_equal_hop_paths_pick_lexicographically_smallest():
    # two 2-hop paths 0-1-9 and 0-5-9: the node sequence through 1 is smaller
    g = _graph([(0, 1), (1, 9), (0, 5), (5, 9)])
    assert shortest_hop_route(g, 0, 9) == [0, 1, 9]


def test_next_hop_is_lowest_id_closer_neighbor():
    g = _graph([(0, 3), (0, 2), (2, 9), (3, 9)])
    dist = hop_distances(g, 9)
    assert next_hop(g, dist, 0) == 2


def test_route_to_self_is_trivial():
    g = _graph([(0, 1)])
    assert shortest_hop_route(g, 0, 0) == [0]


@st.composite
def _edge_lists(draw):
    """Random undirected graphs with isolated nodes, over gapped ids: either
    spread ids, or a fleet 0..n-1 whose dead ids are missing. The
    destination may be a missing id."""
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, 500), min_size=1, max_size=25, unique=True))
        missing = [max(ids) + 1]
    else:
        n = draw(st.integers(1, 25))
        dead = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        ids = [i for i in range(n) if i not in dead]
        missing = sorted(dead) + [n]
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    dst = draw(st.one_of(st.sampled_from(ids), st.sampled_from(missing)))
    return ids, edges, dst


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_edge_lists())
def test_hop_distances_match_reference_bfs(case):
    ids, edges, dst = case
    g = _graph(edges, nodes=ids)
    dist = hop_distances(g, dst)
    assert dist == (_reference_hops(edges, dst) if dst in ids else {})
    for node, hops in dist.items():
        closer = [v for v in g.neighbors(node) if dist.get(v) == hops - 1]
        assert next_hop(g, dist, node) == (min(closer) if closer else None)


def test_hop_distances_to_absent_node_is_empty():
    assert hop_distances(_graph([(0, 1)]), 7) == {}


# scripted per-hop behavior ----------------------------------------------------

def _scripted_cfg(**over):
    """4 nodes in a line, negligible drift: sensors 0,1; CH 2; BS 3."""
    doc = {
        "node_count": 4, "cluster_heads": 1, "base_stations": 1,
        "terrain_area": {"width": 1000.0, "height": 100.0},
        "session_duration": 8.0,
        "node_placement": [[0.0, 50.0], [200.0, 50.0], [400.0, 50.0], [600.0, 50.0]],
        "radio": {"nominal_range": 250.0},
        "mobility": {"speed_min": 0.001, "speed_max": 0.002, "controlled_speed_cap": 0.001},
        "critical_events": [],
        "flows": [{"id": "f0", "src": 0, "dst": 3, "interval": 0.5, "stop": 0.6}],
        "grid": {"frequencies": 2, "slots_per_frame": 2, "frame_length": 0.5},
    }
    doc.update(over)
    return validate_config(doc)


def test_multihop_delivery_decrements_hops():
    """A 3-hop line delivers end to end; relays pick up spare positions and
    the per-hop records count the remaining hops down."""
    cfg = _scripted_cfg()
    trace = Simulation(cfg, seed=1, scheme="mdlps").run()
    tx = [rec for rec in trace if rec["k"] == "tx"]
    assert [rec["h"] for rec in tx] == [3, 2, 1]
    assert [(rec["u"], rec["v"]) for rec in tx] == [(0, 1), (1, 2), (2, 3)]
    finals = [rec for rec in trace if rec["k"] == "rx" and rec["fin"] == 1]
    assert len(finals) == 1 and finals[0]["ok"] == 1


def test_delivery_at_exact_deadline_counts_on_time():
    """Link rate 16 kbit/s makes the airtime exactly 0.5 s; a budget of 0.5 s
    lands the single-hop delivery precisely on its deadline."""
    cfg = _scripted_cfg(
        node_count=3, cluster_heads=1, base_stations=1,
        node_placement=[[0.0, 50.0], [420.0, 50.0], [100.0, 50.0]],
        flows=[{"id": "f0", "src": 0, "dst": 2, "interval": 0.5, "stop": 0.6}],
        energy={"link_rate": 16000.0},
        flow={"deadline_budget": 0.5},
        grid={"frequencies": 1, "slots_per_frame": 1, "frame_length": 0.5},
    )
    trace = Simulation(cfg, seed=1, scheme="mdlps").run()
    finals = [rec for rec in trace if rec["k"] == "rx" and rec["fin"] == 1]
    assert len(finals) == 1
    # generated at 0.5, granted the 0.5 s frame's first slot, 0.5 s on air
    assert finals[0]["t"] == pytest.approx(1.0, abs=1e-12)
    assert finals[0]["ok"] == 1


@pytest.mark.parametrize("gate_mode", ["sentinel", "drop"])
def test_relay_drops_a_packet_that_arrives_after_its_deadline(gate_mode):
    """Generated at 0.5 s with a 0.45 s budget, the packet leaves node 0 at
    once and, 0.5 s on air, reaches relay 1 at 1.0 s, past its deadline:
    the arrival rule drops it there as expired, and node 1 never sends it."""
    cfg = _scripted_cfg(energy={"link_rate": 16000.0}, flow={"deadline_budget": 0.45},
                        options={"gate_mode": gate_mode})
    for scheme in ("mdlps", "data"):
        trace = Simulation(cfg, seed=1, scheme=scheme).run()
        assert [(rec["t"], rec["u"], rec["v"]) for rec in trace if rec["k"] == "tx"] == [
            (0.5, 0, 1)], scheme
        assert [(rec["t"], rec["n"], rec["c"]) for rec in trace if rec["k"] == "drop"] == [
            (1.0, 1, "expired")], scheme


def test_delivery_after_deadline_is_deadline_miss():
    cfg = _scripted_cfg(
        node_count=3, cluster_heads=1, base_stations=1,
        node_placement=[[0.0, 50.0], [420.0, 50.0], [100.0, 50.0]],
        flows=[{"id": "f0", "src": 0, "dst": 2, "interval": 0.5, "stop": 0.6}],
        energy={"link_rate": 16000.0},
        flow={"deadline_budget": 0.45},
        grid={"frequencies": 1, "slots_per_frame": 1, "frame_length": 0.5},
    )
    trace = Simulation(cfg, seed=1, scheme="mdlps").run()
    finals = [rec for rec in trace if rec["k"] == "rx" and rec["fin"] == 1]
    assert len(finals) == 1 and finals[0]["ok"] == 0


def _link_break_sim():
    """Sensor 0 wants the cluster head (node 2), which walks out of range
    between the frame-start grant and node 0's slot instant. A decoy flow
    with maximal importance pins node 0 to the frame's second slot."""
    cfg = _scripted_cfg(
        node_placement=[[0.0, 50.0], [600.0, 50.0], [245.0, 50.0], [605.0, 50.0]],
        session_duration=6.0,
        grid={"frequencies": 1, "slots_per_frame": 2, "frame_length": 2.0},
        flows=[
            {"id": "f0", "src": 0, "dst": 2, "interval": 0.5, "stop": 0.6,
             "importance_override": 0.5},
            {"id": "decoy", "src": 1, "dst": 3, "interval": 0.5, "stop": 0.6,
             "importance_override": 1.0},
        ],
    )
    sim = Simulation(cfg, seed=1, scheme="data")
    # script the cluster head: walk straight away from node 0 at 2 m/s, so it
    # sits at 249 m (in range) at the t=2 frame and 251 m (out) at t=3
    sim.mob.set_leg(2, make_leg(0.0, 245.0, 50.0, 999.0, 50.0, 2.0))
    return sim


def test_link_broken_returns_packet_and_retries():
    sim = _link_break_sim()
    trace = sim.run()
    lb = [rec for rec in trace if rec["k"] == "lb"]
    assert len(lb) == 1
    assert lb[0]["u"] == 0 and lb[0]["v"] == 2 and lb[0]["t"] == pytest.approx(3.0)
    # the packet never transmits and ends the session undelivered
    p0 = lb[0]["p"]
    assert not any(rec["k"] == "tx" and rec["p"] == p0 for rec in trace)
    fate = [rec for rec in trace if rec["k"] == "drop" and rec["p"] == p0]
    assert len(fate) == 1 and fate[0]["c"] in ("starved", "no_route", "expired")


def test_link_broken_second_attempt_drops():
    sim = _link_break_sim()
    sim.run_until(2.5)
    queued = list(sim.queues[0])
    assert len(queued) == 1
    queued[0].retries = 1  # as if one link-break retry already happened
    sim.run_until(3.5)
    drops = [rec for rec in sim.trace if rec["k"] == "drop" and rec["p"] == queued[0].id]
    assert len(drops) == 1
    assert drops[0]["c"] == "no_route" and drops[0].get("d") == "link_broken"
    assert drops[0]["t"] == pytest.approx(3.0)
