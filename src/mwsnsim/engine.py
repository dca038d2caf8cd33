"""Deterministic discrete-event core and the simulation run loop.

The engine owns a virtual clock, an event queue with one written order for
simultaneous events (see `EventQueue`) and one seeded random stream per
purpose (per node for mobility), all derived from a single master seed so
adding a consumer never perturbs existing draw sequences. A Simulation
wires the mobility, radio, energy, scheduling and traffic planes together
and replays identically for identical configuration and seed: the trace it
produces is byte-stable.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Callable

import numpy as np

from . import energy as energy_mod
from . import radio as radio_mod
from . import scheduler as sched
from . import traffic as traffic_mod
from .config import SCHEMA, ScenarioConfig
from .mobility import MobilityField, snapshot_classes


class PastEvent(Exception):
    pass


class BadRange(Exception):
    pass


SETUP, LAST = 0, math.inf  # ranks of simultaneous events; see EventQueue

# importance bands: an event's reports, and emissions from inside a begun
# event's disc, draw from EVENT_BAND; every other emission from ROUTINE_BAND
EVENT_BAND, ROUTINE_BAND = (0.8, 1.0), (0.1, 0.5)

# the factor on the terrain's sides that covers the rounding of node
# positions; see terrain_links_every_pair
TERRAIN_SLACK = 1.0 + 2.0 ** -40


def terrain_links_every_pair(terrain: tuple[float, float], reach: float) -> bool:
    """True when any two nodes of a run on this terrain are linked at every
    instant: the disc test, radio.offset_in_disc at `reach`, passes for the
    terrain's extents times TERRAIN_SLACK.

    Every coordinate a run gives a node lies in [0, w] x [0, h] up to
    rounding. Start points are drawn as w * u with u in [0, 1), or are the
    node_placement that config checks to be inside; waypoints are drawn the
    same way and patrol points are clamped to the terrain, and a leg starts
    at a start point or at the waypoint its predecessor reached. A position
    is x0 + (wx - x0) * f with x0 and wx in [0, w] and f in [0, 1]. Rounding
    is monotone, so the rounded product lies between 0 and the rounded
    difference d, and the position between x0 and the rounded x0 + d. With
    u = 2**-53 the unit roundoff, d is within u * w of wx - x0 and the sum
    rounds with relative error at most u, so that end is within
    (2u + u**2) * w of wx: every coordinate lies within 3u * w of [0, w],
    and two nodes' x differ by at most w * (1 + 6u). The difference that
    build_graph and radio.in_range compute is then, by monotone rounding,
    at most the rounded w * TERRAIN_SLACK, whose slack 2**-40 = 2**13 u is
    over 2**10 times the 6u needed; likewise y. Squaring and adding round
    monotonically too, so no pair's squared offset exceeds the one tested
    here. The slack errs conservative: a terrain whose extents meet the
    range exactly does not pass.
    """
    w, h = terrain
    return bool(radio_mod.offset_in_disc(w * TERRAIN_SLACK, h * TERRAIN_SLACK, reach))


class EventQueue:
    """Min-heap of events, each a plain (time, rank, seq, handler, payload)
    tuple, seq being the count of events scheduled before. At `time` the
    loop calls `handler(sim, time, *payload)`. The handler is a plain
    function such as `Simulation._on_frame_boundary`, never a bound method,
    so a queued event holds no reference back to its simulation; and seq is
    unique, so handler and payload are never compared.

    At one instant a simulation's events run in this order, so after t = 0
    a critical event and that instant's emissions come before its frame
    boundary:
      1. the events scheduled at construction (rank SETUP): the first frame
         boundary, then the critical events by index;
      2. packet emissions, by flow index (rank 1 + flow index);
      3. every other event (rank LAST), in the order it was scheduled.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self.now = 0.0
        self.scheduled = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, handler: Callable, payload: tuple = (), rank=LAST) -> int:
        """Enqueue an event; returns its sequence handle."""
        if time < self.now:
            raise PastEvent(f"event at {time} is before the clock at {self.now}")
        if not math.isfinite(time):
            raise ValueError("event time must be finite")
        seq = self.scheduled
        self.scheduled += 1
        heapq.heappush(self._heap, (time, rank, seq, handler, payload))
        return seq

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple:
        event = heapq.heappop(self._heap)
        self.now = event[0]
        return event


_PURPOSES = ("mobility", "placement", "traffic", "importance")


class RandomStream:
    """Seeded uniform stream for one purpose, or for one node's share of it
    (the child key (purpose, node)); counts its draws."""

    def __init__(self, seed: int, purpose: str, node: int | None = None):
        if purpose not in _PURPOSES:
            raise ValueError(f"unknown stream purpose {purpose!r}")
        self.draws = 0
        key = (_PURPOSES.index(purpose),) if node is None else (_PURPOSES.index(purpose), node)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
        self._gen = np.random.default_rng(ss)

    def uniform(self, a: float, b: float) -> float:
        """Generator.uniform(a, b)'s formula, without its per-call overhead."""
        if a > b:
            raise BadRange(f"uniform({a}, {b}): need a <= b")
        self.draws += 1
        return a + (b - a) * self._gen.random()

    def sample(self, population, k: int) -> list:
        """k distinct elements from population, order drawn from the stream."""
        if k > len(population):
            raise BadRange(f"cannot sample {k} from {len(population)} items")
        self.draws += k
        picked = self._gen.choice(np.asarray(population), size=k, replace=False)
        return [int(v) for v in picked]


class RandomStreams:
    """A run's streams: one per purpose, but mobility has one per node, so
    node i's path depends on the seed and i alone."""

    def __init__(self, seed: int, n_nodes: int):
        self._streams = {p: RandomStream(seed, p) for p in _PURPOSES if p != "mobility"}
        self.mobility = [RandomStream(seed, "mobility", i) for i in range(n_nodes)]

    def __getitem__(self, purpose: str) -> RandomStream:
        return self._streams[purpose]

    def draw_counts(self) -> dict[str, int]:
        return {"mobility": sum(s.draws for s in self.mobility),
                **{p: s.draws for p, s in self._streams.items()}}


class Simulation:
    """One seeded run of one scheduling scheme over one scenario."""

    def __init__(self, config: ScenarioConfig, seed: int | None = None, scheme: str | None = None):
        self.cfg = config
        self.seed = config["seed"] if seed is None else seed
        self.scheme = config.scheduler if scheme is None else scheme
        # the config's own rules, so a direct caller meets the same limits
        for field, value in (("seed", self.seed), ("scheduler", self.scheme)):
            ok, demand = SCHEMA[field][1]
            if not ok(value):
                raise ValueError(f"{field} {demand}, got {value!r}")
        self.streams = RandomStreams(self.seed, config.node_count)
        self.queue = EventQueue()
        self.trace: list[dict] = []
        self._finalized = False

        self._build_nodes()
        self._build_networks()
        self._build_kinematics()
        self._build_radio()
        self._build_energy()
        self._build_traffic()
        self._build_scheduling()
        self._schedule_initial_events()

        self.trace.append({
            "k": "hdr", "t": 0.0, "seed": self.seed, "scheme": self.scheme,
            "n": self.n, "range": float(self.cfg["radio"]["nominal_range"]),
            "rx_threshold": self.radio.rx_threshold,
        })

    # construction ----------------------------------------------------------
    def _build_nodes(self) -> None:
        """Node ids run sensors first, then cluster heads, then base stations."""
        cfg = self.cfg
        self.n = cfg.node_count
        n_ch = cfg["cluster_heads"]
        n_sensor = self.n - n_ch - cfg["base_stations"]
        self.sensor_ids = list(range(n_sensor))
        self.ch_ids = list(range(n_sensor, n_sensor + n_ch))
        self.bs_ids = list(range(n_sensor + n_ch, self.n))

    def _build_networks(self) -> None:
        raw = self.cfg["networks"]
        if raw is None:
            nets = [sched.Network(id="net0", bandwidth=self.cfg["energy"]["link_rate"],
                                  members=tuple(range(self.n)))]
        else:
            nets = [sched.Network(id=str(n["id"]), bandwidth=float(n["bandwidth"]),
                                  members=tuple(sorted(n["members"]))) for n in raw]
        self.networks = sorted(nets, key=lambda net: net.id)
        self.net_of = {node: net.id for net in self.networks for node in net.members}

    def _build_kinematics(self) -> None:
        cfg = self.cfg
        w, h = cfg.terrain
        placement = self.streams["placement"]
        pos = np.empty((self.n, 2))
        if cfg["node_placement"] is not None:
            pos[:] = cfg["node_placement"]
        else:
            for i in range(self.n):
                pos[i, 0] = placement.uniform(0.0, w)
                pos[i, 1] = placement.uniform(0.0, h)
        controlled = np.arange(self.n) >= len(self.sensor_ids)
        m = cfg["mobility"]
        self.mob = MobilityField(
            pos, controlled, (w, h), rngs=self.streams.mobility, patrol_rng=placement,
            speed_range=(m["speed_min"], m["speed_max"]), pause_time=m["pause_time"],
            controlled_speed_cap=m["controlled_speed_cap"], patrol_radius=m["patrol_radius"])
        self.class_thresholds = tuple(m["class_thresholds"])

    def _build_radio(self) -> None:
        self.radio = radio_mod.params_for_range(self.cfg["radio"]["nominal_range"])
        # when set, every pair is linked at every instant: the graph changes
        # only when a node dies, and no transmission needs its link tested
        self.arena_complete = terrain_links_every_pair(self.cfg.terrain, self.radio.reach)
        self.graph = None
        self.dist_maps: dict[int, dict[int, int]] = {}
        self._graph_stamp: tuple[float | None, int] | None = None

    def _build_energy(self) -> None:
        e = self.cfg["energy"]
        self.costs = energy_mod.EnergyCosts(tx_power=e["tx_power"], rx_power=e["rx_power"],
                                            idle_power=e["idle_power"], link_rate=e["link_rate"])
        self.battery = [
            energy_mod.BatteryState(
                level=self.cfg["initial_energy"], initial=self.cfg["initial_energy"],
                hard_threshold=e["battery_threshold"], levels_above=e["battery_levels"],
                level_penalty=e["level_penalty"],
            )
            for _ in range(self.n)
        ]
        self.dead: set[int] = set()

    def _build_traffic(self) -> None:
        cfg = self.cfg
        f = cfg["flow"]
        self.flow_params = sched.FlowParams(
            desired_pdr=f["desired_pdr"], pdr_threshold=f["pdr_threshold"],
            deadline_budget=f["deadline_budget"],
        )
        raw = cfg["flows"]
        flows: list[traffic_mod.Flow] = []
        if raw is None:
            count = cfg["flow_count"]
            sources = sorted(self.streams["traffic"].sample(self.sensor_ids, count)) if count else []
            positions = self._position_map(0.0)
            for i, src in enumerate(sources):
                flows.append(traffic_mod.Flow(
                    id=f"f{i}", src=src, dst=sched.nearest(positions[src], self.bs_ids, positions),
                    interval=cfg["cbr_interval"], start=0.0, stop=cfg.session_duration,
                    importance_override=None,
                ))
        else:
            for fl in raw:
                flows.append(traffic_mod.Flow(
                    id=str(fl["id"]), src=fl["src"], dst=fl["dst"],
                    interval=fl["interval"], start=fl["start"], stop=fl["stop"],
                    importance_override=fl["importance_override"],
                ))
        self.flows = flows
        # every packet goes to a flow's sink or (a critical-event report) to
        # a base station, so these are all the hop maps routing can read
        self.route_dsts = sorted({fl.dst for fl in flows} | set(self.bs_ids))
        self.queues = [traffic_mod.NodeQueue(cfg["queue_size"]) for _ in range(self.n)]
        window = f["pdr_window"]
        self.trackers: defaultdict[str, traffic_mod.PdrTracker] = defaultdict(
            lambda: traffic_mod.PdrTracker(window))
        self.next_packet_id = 0

    def _build_scheduling(self) -> None:
        cfg = self.cfg
        g = cfg["grid"]
        self.grid = sched.SlotGrid(g["frequencies"], g["slots_per_frame"], g["frame_length"])
        o = cfg["options"]
        self.velocity_floor = o["velocity_floor"]
        self.gate_mode = o["gate_mode"]
        self.weights = (o["density_weight"], o["bandwidth_weight"])
        self.orphan_policy = o["orphan_policy"]
        self.mob_snapshot = snapshot_classes(self.mob.speeds_at(0.0), self.class_thresholds)
        # before any critical event, networks rank by bandwidth alone
        ordered = sorted(self.networks, key=lambda net: (-net.bandwidth, net.id))
        self.n1_map = {net.id: rank + 1 for rank, net in enumerate(ordered)}
        self.critical_events = cfg["critical_events"]
        self.active_events: list[tuple[float, float, float]] = []

    def _schedule_initial_events(self) -> None:
        self.queue.schedule(0.0, Simulation._on_frame_boundary, rank=SETUP)
        for idx, ev in enumerate(self.critical_events):
            self.queue.schedule(ev["time"], Simulation._on_critical_event, (idx,), rank=SETUP)
        for idx in range(len(self.flows)):
            self._schedule_emission(idx, 1)

    def _schedule_emission(self, idx: int, k: int) -> None:
        """Queue flow idx's emission k, at start + k*interval (never a running
        sum), if that is at or before min(stop, session end)."""
        fl = self.flows[idx]
        t = fl.start + k * fl.interval
        if t <= min(fl.stop, self.cfg.session_duration):
            self.queue.schedule(t, Simulation._on_packet_generated, (idx, k), rank=1 + idx)

    # helpers ---------------------------------------------------------------
    def _position_map(self, t: float) -> dict[int, tuple[float, float]]:
        px, py = self.mob.positions_at(t)
        return dict(enumerate(zip(px.tolist(), py.tolist())))

    def _alive(self) -> list[int]:
        return [i for i in range(self.n) if i not in self.dead]

    def _note_depletion(self, node: int, t: float) -> None:
        """Mark a node dead the moment a charge leaves its battery empty, so
        `dead` is always exactly the set of depleted batteries."""
        if self.battery[node].depleted:
            self.dead.add(node)
            self.trace.append({"k": "dep", "t": t, "n": node})

    def _rebuild_graph(self, t: float) -> None:
        """Graph and hop maps of the alive nodes at t, built anew only when
        the stamp (t, len(dead)) changes. Positions are a function of time
        and `dead` only grows, so a second call at the same t with as many
        dead nodes keeps what the first one built. In an arena proven
        complete for the run (`arena_complete`) every pair is linked at
        every instant, so the stamp drops t and the graph is kept, with no
        positions asked for, until a node dies."""
        n_dead = len(self.dead)
        stamp = (None if self.arena_complete else t, n_dead)
        if stamp == self._graph_stamp:
            return
        self._graph_stamp = stamp
        alive = self._alive()
        px, py = self.mob.positions_at(t)
        if n_dead:
            px, py = px[alive], py[alive]
        self.graph = radio_mod.build_graph(alive, px, py, self.radio)
        self.dist_maps = {dst: traffic_mod.hop_distances(self.graph, dst)
                          for dst in self.route_dsts if dst in self.graph}

    def _key_fn(self, node: int, t: float):
        """Fresh per-packet contention key for this node at this instant.

        A packet that is expired at t, or that has no hop count from this
        node to its destination, gets the sentinel: it cannot transmit, so
        it loses every contention and every eviction. Any other packet gets
        the scheme's index.
        """
        sentinel = sched.GATE_SENTINEL
        dist_maps = self.dist_maps
        data = self.scheme == "data"
        if not data:
            v = max(self.mob.instantaneous_speed(node, t), self.velocity_floor)
            # dead nodes never transmit; their queue order is irrelevant
            x = 1.0 if node in self.dead else energy_mod.battery_factor(self.battery[node])
            flow = self.flow_params
            trackers = self.trackers

        def key(p: traffic_mod.Packet) -> float:
            if t >= p.deadline:
                return sentinel
            dmap = dist_maps.get(p.dst)
            hops = dmap.get(node) if dmap is not None else None
            if hops is None:
                return sentinel
            if data:
                return sched.compute_pi_data(p.importance)
            return sched.compute_pi_mdlps(trackers[p.flow].value, flow,
                                          sched.compute_ulb(p.deadline, t, hops), v, x)
        return key

    def _enqueue(self, node: int, packet: traffic_mod.Packet, t: float) -> None:
        """The arrival rule, checked in this order: in hard-drop mode an
        mdlps packet of a flow below the delivery-ratio threshold is dropped
        as gated; a packet at or past its deadline is dropped as expired;
        any other packet is queued, which on overflow evicts the worst."""
        if (self.gate_mode == "drop" and self.scheme == "mdlps"
                and self.trackers[packet.flow].value < self.flow_params.pdr_threshold):
            self._drop(packet, node, t, "gated")
        elif t >= packet.deadline:
            self._drop(packet, node, t, "expired")
        else:
            evicted = self.queues[node].enqueue(packet, lambda: self._key_fn(node, t))
            if evicted is not None:
                self._drop(evicted, node, t, "overflow")

    def _drop(self, packet: traffic_mod.Packet, node: int, t: float, cause: str,
              detail: str | None = None) -> None:
        rec = {"k": "drop", "t": t, "p": packet.id, "n": node, "c": cause}
        if detail:
            rec["d"] = detail
        self.trace.append(rec)
        if cause != "starved":
            self.trackers[packet.flow].record(False)

    def _candidates(self, t: float,
                    skip=frozenset()) -> tuple[list[sched.PriorityTuple], list[int]]:
        """Contenders for transmission positions, and the orphans among them
        ascending: alive non-sink nodes with queued data, keyed by their
        best packet under the active scheme. Nodes in `skip` are left out of
        the contenders, unranked, but not out of the orphans.

        Under the data scheme sensors report through a cluster head in
        reach; ranking is the shared comparator over all contenders, which
        equals merging the per-cluster lists, so no affiliation is computed.
        A sensor with no cluster head in reach is an orphan, and orphans
        either contend directly or are excluded, per policy. The mdlps
        scheme has no orphans.
        """
        holders = [i for i in self._alive() if i < self.bs_ids[0] and len(self.queues[i]) > 0]
        orphans: list[int] = []
        if self.scheme == "data":
            chs = [c for c in self.ch_ids if c not in self.dead]
            sensors = [s for s in holders if s < len(self.sensor_ids)]
            orphans = sched.assign_clusters(sensors, chs, self.graph.has_edge)
            if orphans and self.orphan_policy == "exclude":
                excluded = set(orphans)
                holders = [n for n in holders if n not in excluded]
        return ([sched.PriorityTuple(self.n1_map[self.net_of[n]], sched.Candidate(
                    node=n, pi=self.queues[n].best_key(self._key_fn(n, t)),
                    mob_class=self.mob_snapshot[n],
                    batt_level=energy_mod.battery_level(self.battery[n])))
                 for n in holders if n not in skip], orphans)

    # handlers ---------------------------------------------------------------
    def _on_frame_boundary(self, t: float) -> None:
        # the frame's idle charge comes first, so a node it drains is out of
        # the graph that routes this frame
        if self.costs.idle_power > 0:
            for node in self._alive():
                energy_mod.consume_idle(self.battery[node], self.costs, self.grid.frame_length)
                self._note_depletion(node, t)
        self._rebuild_graph(t)
        orphans, lent = [], []
        startup = self.grid.armed  # never allocated yet
        if startup:
            contenders, orphans = self._candidates(t)
            if contenders:
                sched.allocate_slots(contenders, self.grid)
                self._trace_alloc(t, "startup", -1, bw_only=False)
        # frozen holders keep their positions; on a later frame a position
        # with no live holder is lent for the frame to the best contender
        # holding none (a startup allocation leaves a position open only
        # when every contender holds one)
        live = {pos: h for pos, h in self.grid.assignment.items()
                if h is not None and h not in self.dead}
        granted = [(f, s, h) for (f, s), h in live.items() if len(self.queues[h]) > 0]
        open_positions = [pos for pos in self.grid.assignment if pos not in live]
        if open_positions and not startup:
            contenders, orphans = self._candidates(t, skip=set(live.values()))
            lent = [(f, s, node)
                    for (f, s), node in sched.fill_positions(open_positions, contenders)]
        rec = {
            "k": "frame", "t": t,
            "g": [list(g) for g in granted],
            "x": [list(g) for g in lent],
            "q": [len(q) for q in self.queues],
        }
        if orphans:
            rec["orph"] = orphans
        self.trace.append(rec)
        slot_dur = self.grid.slot_duration
        for f, s, node in sorted(granted + lent):
            self.queue.schedule(t + s * slot_dur, Simulation._on_slot_transmit, (f, s, node))
        nxt = t + self.grid.frame_length
        if nxt <= self.cfg.session_duration:
            self.queue.schedule(nxt, Simulation._on_frame_boundary)

    def _trace_alloc(self, t: float, why: str, ev_idx: int, bw_only: bool) -> None:
        """Append the complete alloc record; bw_only marks networks ranked by
        bandwidth alone."""
        self.trace.append({
            "k": "alloc", "t": t, "why": why, "ev": ev_idx,
            "a": [[pos[0], pos[1], holder] for pos, holder in self.grid.assignment.items()
                  if holder is not None],
            "n1": dict(sorted(self.n1_map.items())),
            **({"bw_only": 1} if bw_only else {}),
        })

    def _on_slot_transmit(self, t: float, f: int, s: int, node: int) -> None:
        if node in self.dead:
            return
        q = self.queues[node]
        for p in q.purge_expired(t):
            self._drop(p, node, t, "expired")
        # keys only order the queue, so a lone packet needs none
        for p in q.sorted_items(self._key_fn(node, t)) if len(q) > 1 else list(q):
            dmap = self.dist_maps.get(p.dst, {})
            hop = traffic_mod.next_hop(self.graph, dmap, node)
            if hop is None:
                p.strikes += 1
                if p.strikes >= 2:
                    q.remove(p)
                    self._drop(p, node, t, "no_route")
                continue
            if not self.arena_complete and not radio_mod.in_range(
                    self.radio, self.mob.position_of(node, t), self.mob.position_of(hop, t)):
                # edge vanished since the frame-start grant: one retry, then drop
                p.retries += 1
                if p.retries > 1:
                    q.remove(p)
                    self._drop(p, node, t, "no_route", detail="link_broken")
                else:
                    self.trace.append({"k": "lb", "t": t, "p": p.id, "u": node, "v": hop})
                break
            hops = dmap[node]
            q.remove(p)
            p.strikes = 0
            p.retries = 0
            energy_mod.consume_tx(self.battery[node], self.costs, p.size)
            self.trace.append({
                "k": "tx", "t": t, "p": p.id, "u": node, "v": hop, "f": f, "s": s,
                "h": hops, "e": self.battery[node].level,
            })
            self._note_depletion(node, t)
            self.queue.schedule(
                t + energy_mod.airtime(p.size, self.costs),
                Simulation._on_packet_delivered, (p, node, hop))
            break

    def _on_packet_delivered(self, t: float, p: traffic_mod.Packet, sender: int,
                             receiver: int) -> None:
        if receiver in self.dead:
            self._drop(p, receiver, t, "no_route", detail="receiver_dead")
            return
        energy_mod.consume_rx(self.battery[receiver], self.costs, p.size)
        rec = {"k": "rx", "t": t, "p": p.id, "n": receiver,
               "e": self.battery[receiver].level, "fin": 0}
        if receiver == p.dst:
            rec["fin"] = 1
            rec["delay"] = t - p.created
            rec["ok"] = 1 if t <= p.deadline else 0
        self.trace.append(rec)
        self._note_depletion(receiver, t)
        if receiver == p.dst:
            self.trackers[p.flow].record(rec["ok"])
        elif receiver in self.dead:
            self._drop(p, receiver, t, "no_route", detail="receiver_dead")
        else:
            self._enqueue(receiver, p, t)

    def _on_critical_event(self, t: float, idx: int) -> None:
        ev_cfg = self.critical_events[idx]
        x, y, r = float(ev_cfg["x"]), float(ev_cfg["y"]), float(ev_cfg["radius"])
        self.trace.append({"k": "crit", "t": t, "ev": idx, "x": x, "y": y, "r": r})
        self.active_events.append((x, y, r))
        positions = self._position_map(t)
        if ev_cfg["emit_reports"]:
            reporter = ev_cfg["reporter"]
            for node in self.sensor_ids:
                if node == reporter:
                    imp = 1.0
                elif sched.in_disc(positions[node], (x, y), r):
                    imp = self.streams["importance"].uniform(*EVENT_BAND)
                else:
                    continue
                self._generate_packet(
                    flow_id=f"report-{idx}-n{node}", src=node,
                    dst=sched.nearest(positions[node], self.bs_ids, positions),
                    t=t, importance=imp)
        self.mob_snapshot = snapshot_classes(self.mob.speeds_at(t), self.class_thresholds)
        self.trace.append({
            "k": "cls", "t": t, "ev": idx,
            "c": [int(self.mob_snapshot[i]) for i in range(self.n)],
        })
        self._rebuild_graph(t)
        self.n1_map, bw_only = sched.network_priority(
            self.networks, positions, (x, y), r, *self.weights)
        self.grid.rearm()
        sched.allocate_slots(self._candidates(t)[0], self.grid)
        self._trace_alloc(t, "critical", idx, bw_only)

    def _generate_packet(self, flow_id: str, src: int, dst: int, t: float,
                         importance: float) -> None:
        cfg = self.cfg
        p = traffic_mod.Packet(
            id=self.next_packet_id, flow=flow_id, dst=dst,
            size=cfg["packet_size"], created=t,
            deadline=t + self.flow_params.deadline_budget,
            importance=importance,
        )
        self.next_packet_id += 1
        self.trace.append({
            "k": "gen", "t": t, "p": p.id, "fl": flow_id, "src": src, "dst": dst,
            "sz": p.size, "dl": p.deadline, "imp": importance,
        })
        if src in self.dead:
            self._drop(p, src, t, "no_route", detail="source_dead")
            return
        self._enqueue(src, p, t)

    def _on_packet_generated(self, t: float, idx: int, k: int) -> None:
        fl = self.flows[idx]
        if fl.importance_override is not None:
            imp = fl.importance_override
        else:
            band = ROUTINE_BAND
            # the source's position matters only once an event has begun
            if self.active_events:
                src_xy = self.mob.position_of(fl.src, t)
                if any(sched.in_disc(src_xy, (x, y), r) for x, y, r in self.active_events):
                    band = EVENT_BAND
            imp = self.streams["importance"].uniform(*band)
        self._generate_packet(fl.id, fl.src, fl.dst, t, imp)
        self._schedule_emission(idx, k + 1)

    def run_until(self, t_end: float) -> list[dict]:
        """Process every event due by t_end, in queue order; return the trace."""
        while len(self.queue) > 0 and self.queue.peek_time() <= t_end:
            t, _, _, handler, payload = self.queue.pop()
            handler(self, t, *payload)
        return self.trace

    def run(self) -> list[dict]:
        """Run the full session and finalize the trace."""
        if self._finalized:
            return self.trace
        self._finalized = True
        t_end = self.cfg.session_duration
        self.run_until(t_end)
        # every leg that starts by the session end, so the mobility draw
        # count does not depend on which nodes the run asked about
        self.mob.tick(t_end)
        # packets still on the air when the session closes count as starved
        for _, _, _, handler, payload in sorted(self.queue._heap):
            if handler is Simulation._on_packet_delivered:
                p, _, receiver = payload
                self._drop(p, receiver, t_end, "starved", detail="in_flight")
        for node in range(self.n):
            for p in list(self.queues[node]):
                self.queues[node].remove(p)
                self._drop(p, node, t_end, "starved")
        self.trace.append({
            "k": "end", "t": t_end,
            "draws": self.streams.draw_counts(),
            "events": {"scheduled": self.queue.scheduled,
                       "processed": self.queue.scheduled - len(self.queue),
                       "pending": len(self.queue)},
        })
        return self.trace
