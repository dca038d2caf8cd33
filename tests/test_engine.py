"""Event queue, random streams, and whole-run engine contracts."""

import gc
import os
import weakref

import numpy as np
import pytest
import yaml

from helpers import trace_errors, transmitters_respect_depletion
from mwsnsim import metrics, radio, trace_from_jsonl, trace_to_jsonl, traffic
from mwsnsim.config import load_config, validate_config
from mwsnsim.engine import (
    EVENT_BAND,
    ROUTINE_BAND,
    TERRAIN_SLACK,
    BadRange,
    EventQueue,
    PastEvent,
    RandomStream,
    RandomStreams,
    Simulation,
    terrain_links_every_pair,
)
from mwsnsim.mobility import MobilityField

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_schedule_single_event_is_head():
    q = EventQueue()
    q.schedule(1.0, Simulation._on_frame_boundary)
    assert q.peek_time() == 1.0
    t, _, _, handler, payload = q.pop()
    assert t == 1.0 and handler is Simulation._on_frame_boundary and payload == ()


def test_equal_time_events_dequeue_in_schedule_order():
    q = EventQueue()
    first = q.schedule(2.0, Simulation._on_frame_boundary, ("a",))
    second = q.schedule(2.0, Simulation._on_frame_boundary, ("b",))
    assert first < second
    assert q.pop()[2:] == (first, Simulation._on_frame_boundary, ("a",))
    assert q.pop()[2:] == (second, Simulation._on_frame_boundary, ("b",))


def test_schedule_in_the_past_raises():
    q = EventQueue()
    q.schedule(1.0, Simulation._on_frame_boundary)
    q.pop()
    with pytest.raises(PastEvent):
        q.schedule(0.5, Simulation._on_frame_boundary)


def test_nothing_due_processes_nothing():
    q = EventQueue()
    q.schedule(0.5, Simulation._on_frame_boundary)
    processed = []
    while len(q) and q.peek_time() <= 0.0:
        processed.append(q.pop())
    assert processed == [] and len(q) == 1


def test_uniform_degenerate_range():
    """uniform(a, a) returns a and still takes one draw from the stream."""
    s = RandomStream(42, "traffic")
    assert s.uniform(5.0, 5.0) == 5.0
    assert s.draws == 1
    fresh = RandomStream(42, "traffic")
    fresh.uniform(0.0, 1.0)
    assert s.uniform(0.0, 1.0) == fresh.uniform(0.0, 1.0)


def test_uniform_same_seed_fresh_streams_identical():
    a = RandomStream(7, "mobility")
    b = RandomStream(7, "mobility")
    assert [a.uniform(0, 1) for _ in range(2)] == [b.uniform(0, 1) for _ in range(2)]


def test_uniform_range_containment():
    s = RandomStream(3, "placement")
    for _ in range(100):
        v = s.uniform(0.0, 2000.0)
        assert 0.0 <= v <= 2000.0


def test_uniform_bad_range():
    s = RandomStream(3, "placement")
    with pytest.raises(BadRange):
        s.uniform(2.0, 1.0)


def test_uniform_is_generator_uniform_bit_for_bit():
    """RandomStream.uniform computes a + (b - a) * u itself. On a twin
    stream it must equal numpy's Generator.uniform bit for bit, over the
    ranges the engine draws from: the terrain, sensor and patrol speeds,
    patrol offsets and both importance bands. A platform whose numpy fuses
    the multiply-add fails here."""
    cfg = validate_config({})
    m = cfg["mobility"]
    cap, radius = m["controlled_speed_cap"], m["patrol_radius"]
    ranges = [(0.0, cfg.terrain[0]), (0.0, cfg.terrain[1]), (m["speed_min"], m["speed_max"]),
              (cap / 2.0, cap), (-radius, radius), EVENT_BAND, ROUTINE_BAND]
    ours = RandomStream(5, "importance")
    twin = RandomStream(5, "importance")._gen
    draws = [ranges[k % len(ranges)] for k in range(105_000)]
    got = np.array([ours.uniform(a, b) for a, b in draws])
    want = np.array([twin.uniform(a, b) for a, b in draws])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert ours.draws == len(draws)


def test_sample_is_distinct_and_bounded():
    s = RandomStream(3, "traffic")
    picked = s.sample(list(range(10)), 4)
    assert len(picked) == len(set(picked)) == 4
    assert all(0 <= v < 10 for v in picked)
    with pytest.raises(BadRange):
        s.sample([1, 2], 3)


def test_purpose_streams_are_independent():
    """Drawing from one purpose, or from one node's mobility stream, must not
    perturb another stream's sequence."""
    fresh = RandomStreams(11, 3)
    expected = [fresh["placement"].uniform(0, 1) for _ in range(5)]
    expected_node = [fresh.mobility[2].uniform(0, 1) for _ in range(5)]
    mixed = RandomStreams(11, 3)
    for _ in range(17):
        mixed.mobility[1].uniform(0, 1)
        mixed["traffic"].uniform(0, 1)
    got = [mixed["placement"].uniform(0, 1) for _ in range(5)]
    assert got == expected
    assert [mixed.mobility[2].uniform(0, 1) for _ in range(5)] == expected_node
    assert mixed.draw_counts() == {"mobility": 22, "placement": 5, "traffic": 17,
                                   "importance": 0}


def test_node_mobility_stream_is_child_of_mobility_key():
    """Node i's mobility stream is SeedSequence(seed, spawn_key=(0, i)): a
    child of the mobility purpose, whose index in the purposes is 0."""
    ss = np.random.SeedSequence(entropy=7, spawn_key=(0, 2))
    expected = np.random.default_rng(ss).uniform(0.0, 5.0, size=3).tolist()
    node = RandomStream(7, "mobility", 2)
    assert [node.uniform(0.0, 5.0) for _ in range(3)] == expected
    assert RandomStream(7, "mobility").uniform(0.0, 5.0) != expected[0]


def _small_cfg(**over):
    doc = {
        "node_count": 8, "cluster_heads": 1, "base_stations": 1,
        "session_duration": 12.0, "flow_count": 3,
        "terrain_area": {"width": 500.0, "height": 500.0},
        "radio": {"nominal_range": 700.0},
    }
    doc.update(over)
    return validate_config(doc)


def test_replay_determinism_byte_identical():
    cfg = _small_cfg()
    a = trace_to_jsonl(Simulation(cfg, seed=5, scheme="mdlps").run())
    b = trace_to_jsonl(Simulation(cfg, seed=5, scheme="mdlps").run())
    assert a == b


def test_trace_round_trips_through_jsonl():
    cfg = _small_cfg()
    trace = Simulation(cfg, seed=5, scheme="data").run()
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace


def test_clock_monotonicity_in_trace():
    cfg = _small_cfg()
    trace = Simulation(cfg, seed=2, scheme="mdlps").run()
    times = [rec["t"] for rec in trace]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_event_conservation_counts():
    cfg = _small_cfg()
    sim = Simulation(cfg, seed=4, scheme="mdlps")
    popped = []
    pop = sim.queue.pop
    sim.queue.pop = lambda: popped.append(pop()) or popped[-1]
    trace = sim.run()
    end = trace[-1]
    assert end["k"] == "end"
    ev = end["events"]
    assert ev["processed"] == len(popped) > 0
    assert ev["scheduled"] == ev["processed"] + ev["pending"]


def test_run_until_processes_events_at_t_end_inclusive():
    cfg = _small_cfg()
    sim = Simulation(cfg, seed=1, scheme="mdlps")
    sim.run_until(0.5)
    frame_times = [rec["t"] for rec in sim.trace if rec["k"] == "frame"]
    assert frame_times == [0.0, 0.5]


def test_run_until_twice_is_resumable():
    cfg = _small_cfg()
    split = Simulation(cfg, seed=9, scheme="data")
    split.run_until(6.0)
    split.run_until(cfg.session_duration)
    whole = Simulation(cfg, seed=9, scheme="data")
    whole.run_until(cfg.session_duration)
    assert split.trace == whole.trace


def test_simultaneous_events_run_critical_then_emissions_by_flow_then_frame():
    """At t = 1.0 a critical event, an emission of each flow and a frame
    boundary coincide. Flow "z"'s emission there was scheduled after the
    frame boundary was, and flow "a"'s before it; the order is still the
    critical event, the emissions in flow order, then the boundary."""
    cfg = validate_config({
        "session_duration": 2.0,
        "flows": [{"id": "z", "src": 0, "dst": 21, "interval": 0.375, "start": 0.25},
                  {"id": "a", "src": 1, "dst": 21, "interval": 0.5}],
        "critical_events": [{"time": 1.0, "x": 1000.0, "y": 1000.0, "radius": 400.0,
                             "emit_reports": False}],
    })
    trace = Simulation(cfg, seed=1, scheme="mdlps").run()
    at_1 = [(rec["k"], rec.get("fl")) for rec in trace
            if rec["t"] == 1.0 and rec["k"] in ("crit", "gen", "frame")]
    assert at_1 == [("crit", None), ("gen", "z"), ("gen", "a"), ("frame", None)]


def test_critical_event_at_0_follows_the_first_frame():
    cfg = validate_config({"session_duration": 2.0, "critical_events": [
        {"time": 0.0, "x": 1000.0, "y": 1000.0, "radius": 400.0}]})
    kinds = [rec["k"] for rec in Simulation(cfg, seed=1, scheme="mdlps").run()]
    assert kinds.index("frame") < kinds.index("crit")


def test_construction_queues_one_emission_per_flow():
    """A long session starts with the first frame boundary, each critical
    event and one pending emission per flow, not the session's emissions."""
    cfg = validate_config({"session_duration": 36000.0})
    sim = Simulation(cfg, seed=1, scheme="mdlps")
    assert len(sim.queue) == 1 + len(sim.critical_events) + len(sim.flows) == 12


def test_default_scenario_has_transmissions_for_connected_flows():
    """Sanity: in a well-connected arena every flow gets at least one
    transmission, and generation count matches the CBR arithmetic."""
    cfg = _small_cfg()
    trace = Simulation(cfg, seed=1, scheme="mdlps").run()
    gens = [rec for rec in trace if rec["k"] == "gen"]
    flows = {rec["fl"] for rec in gens if rec["fl"].startswith("f")}
    # 12 s / 0.5 s = 24 emissions per flow
    assert all(sum(1 for g in gens if g["fl"] == fl) == 24 for fl in flows)
    tx_sources = {rec["u"] for rec in trace if rec["k"] == "tx"}
    flow_sources = {rec["src"] for rec in gens if rec["fl"].startswith("f")}
    assert flow_sources <= tx_sources


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheduler"):
        Simulation(_small_cfg(), seed=1, scheme="fifo")


@pytest.mark.parametrize("seed", [True, -1, 2.0])
def test_simulation_refuses_a_seed_the_config_refuses(seed):
    """A direct caller meets the config's seed rule, rather than a run whose
    header records `"seed":true` or a failure inside numpy."""
    with pytest.raises(ValueError, match="seed"):
        Simulation(_small_cfg(), seed=seed, scheme="mdlps")


def _two_network_cfg(event):
    """Network 'a' holds the high-importance sources far from the event;
    network 'b' holds the event-area sources plus the sink."""
    return validate_config({
        "node_count": 6, "cluster_heads": 1, "base_stations": 1,
        "terrain_area": {"width": 500.0, "height": 500.0},
        "session_duration": 6.0,
        "node_placement": [[400.0, 400.0], [420.0, 400.0], [90.0, 100.0],
                           [110.0, 100.0], [410.0, 420.0], [100.0, 120.0]],
        "radio": {"nominal_range": 700.0},
        "mobility": {"speed_min": 0.001, "speed_max": 0.002, "controlled_speed_cap": 0.001},
        "networks": [
            {"id": "a", "bandwidth": 1.0e6, "members": [0, 1, 4]},
            {"id": "b", "bandwidth": 2.0e6, "members": [2, 3, 5]},
        ],
        "critical_events": [dict(event, emit_reports=False)],
        "flows": [
            {"id": "f0", "src": 0, "dst": 5, "interval": 1.9, "importance_override": 0.9},
            {"id": "f1", "src": 1, "dst": 5, "interval": 1.9, "importance_override": 0.9},
            {"id": "f2", "src": 2, "dst": 5, "interval": 1.9, "importance_override": 0.2},
            {"id": "f3", "src": 3, "dst": 5, "interval": 1.9, "importance_override": 0.2},
        ],
        "grid": {"frequencies": 1, "slots_per_frame": 2, "frame_length": 0.5},
    })


def test_network_rank_dominates_allocation_end_to_end():
    """The event sits on network b's sensors: b outranks a, and b's nodes
    take both positions even though a's data has far better importance."""
    cfg = _two_network_cfg({"time": 2.0, "x": 100.0, "y": 100.0, "radius": 50.0})
    trace = Simulation(cfg, seed=1, scheme="data").run()
    alloc = next(rec for rec in trace if rec["k"] == "alloc" and rec["why"] == "critical")
    assert alloc["n1"] == {"a": 2, "b": 1}
    assert "bw_only" not in alloc
    assert {entry[2] for entry in alloc["a"]} == {2, 3}


def test_event_area_without_nodes_falls_back_to_bandwidth():
    cfg = _two_network_cfg({"time": 2.0, "x": 490.0, "y": 10.0, "radius": 5.0})
    trace = Simulation(cfg, seed=1, scheme="data").run()
    alloc = next(rec for rec in trace if rec["k"] == "alloc" and rec["why"] == "critical")
    assert alloc.get("bw_only") == 1
    assert alloc["n1"] == {"a": 2, "b": 1}  # b has the higher bandwidth


def test_dead_holder_position_is_refilled_transiently():
    """When a frozen holder depletes, its position opens up for per-frame
    borrowing while the frozen mapping itself stays untouched."""
    cfg = validate_config({
        "initial_energy": 0.5,
        "energy": {"battery_threshold": 0.1},
        "radio": {"nominal_range": 800.0},
    })
    trace = Simulation(cfg, seed=2, scheme="mdlps").run()
    deaths = {rec["n"]: rec["t"] for rec in trace if rec["k"] == "dep"}
    assert deaths, "scenario must deplete at least one node"
    allocs = [rec for rec in trace if rec["k"] == "alloc"]
    refilled = False
    for alloc in allocs:
        positions_of = {entry[2]: (entry[0], entry[1]) for entry in alloc["a"]}
        for node, t_death in deaths.items():
            pos = positions_of.get(node)
            if pos is None:
                continue
            for frame in trace:
                if frame["k"] == "frame" and frame["t"] > t_death:
                    for f, s, other in frame["x"]:
                        if (f, s) == pos and other != node:
                            refilled = True
    assert refilled


DRAINED = {"initial_energy": 0.5,
           "energy": {"battery_threshold": 0.1},
           "radio": {"nominal_range": 800.0}}
DRAINED_IDLE = {"initial_energy": 0.5,
                "energy": {"battery_threshold": 0.1, "idle_power": 0.01},
                "radio": {"nominal_range": 800.0}}


def _dead_sources_queue_nothing(trace) -> bool:
    """Each packet of an already dead source is dropped as source_dead by
    the record right after its gen, so it never reaches a queue."""
    dead: set[int] = set()
    for k, rec in enumerate(trace):
        if rec["k"] == "dep":
            dead.add(rec["n"])
        elif rec["k"] == "gen" and rec["src"] in dead:
            nxt = trace[k + 1]
            if (nxt["k"], nxt.get("p"), nxt.get("c"), nxt.get("d")) != (
                    "drop", rec["p"], "no_route", "source_dead"):
                return False
    return True


_DRAINED_RUNS = {"drained": (DRAINED, range(1, 21)), "drained_idle": (DRAINED_IDLE, range(1, 11))}


@pytest.fixture(scope="module")
def drained_traces():
    """(seed, scheme, trace) of every drained run, by config name; computed
    once for the tests below."""
    runs = {}
    for name, (overrides, seeds) in _DRAINED_RUNS.items():
        cfg = validate_config(overrides)
        runs[name] = [(seed, scheme, Simulation(cfg, seed=seed, scheme=scheme).run())
                      for seed in seeds for scheme in ("mdlps", "data")]
    return runs


@pytest.mark.parametrize("name", list(_DRAINED_RUNS), ids=list(_DRAINED_RUNS))
def test_runs_complete_when_batteries_drain(name, drained_traces):
    """A node drained mid-slot is dead at once: a second same-instant
    delivery to it, or the frame-boundary idle drain, finds it dead instead
    of charging an empty battery."""
    cfg = validate_config(_DRAINED_RUNS[name][0])
    depletions = 0
    for seed, scheme, trace in drained_traces[name]:
        where = (seed, scheme)
        assert trace[-1]["k"] == "end", where
        assert metrics.conservation(trace)["ok"], where
        assert metrics.energy_monotone(trace), where
        assert transmitters_respect_depletion(trace), where
        assert trace_errors(trace, cfg, scheme) == [], where
        depletions += len(metrics.depleted_nodes(trace))
    assert depletions > 0


@pytest.mark.parametrize("name", list(_DRAINED_RUNS), ids=list(_DRAINED_RUNS))
def test_dead_source_generates_nothing(name, drained_traces):
    source_dead = 0
    for seed, scheme, trace in drained_traces[name]:
        assert _dead_sources_queue_nothing(trace), (seed, scheme)
        assert metrics.conservation(trace)["ok"], (seed, scheme)
        source_dead += sum(1 for rec in trace if rec.get("d") == "source_dead")
    assert source_dead > 0


def test_node_drained_at_a_boundary_routes_nothing_that_frame(drained_traces):
    """The boundary's idle charge precedes the graph rebuild: no packet is
    sent to a node that was dead when its frame started."""
    for seed, scheme, trace in drained_traces["drained_idle"]:
        died: set[int] = set()
        dead_at_frame: set[int] = set()
        for rec in trace:
            if rec["k"] == "dep":
                died.add(rec["n"])
            elif rec["k"] == "frame":
                # record order, not equal times: a node can die from its own
                # slot-0 tx after the frame record at the same instant
                dead_at_frame = set(died)
            elif rec["k"] == "tx":
                assert rec["v"] not in dead_at_frame, (seed, scheme, rec)


@pytest.mark.parametrize("overrides, boundary_deaths",
                         [({"session_duration": 12.0}, False),
                          ({"session_duration": 12.0,
                            "terrain_area": {"width": 200.0, "height": 200.0}}, False),
                          ({**DRAINED_IDLE, "session_duration": 40.0}, True)],
                         ids=["stock", "stock_200m", "drained_idle"])
def test_one_graph_build_per_instant_and_dead_count(overrides, boundary_deaths, monkeypatch):
    """The stock event at t = 10 s falls on a frame boundary, and both
    rebuild at that instant with the same alive set: the second keeps the
    first graph and hop maps. The trace equals that of a run which builds
    at every call, also when the idle charge kills nodes at boundaries.
    On a 200 m square, which the run-level proof refuses for the 250 m
    range though its frames may all be complete, every frame builds."""
    cfg = validate_config(overrides)
    builds = []
    build = radio.build_graph

    def counted(*args):
        builds.append(args[0])
        return build(*args)

    monkeypatch.setattr(radio, "build_graph", counted)
    trace = Simulation(cfg, seed=3, scheme="mdlps").run()
    frames = [rec["t"] for rec in trace if rec["k"] == "frame"]
    crits = [rec["t"] for rec in trace if rec["k"] == "crit"]
    assert crits == [10.0] and 10.0 in frames
    assert len(builds) == len(frames)
    assert any(rec["k"] == "dep" and rec["t"] in frames for rec in trace) == boundary_deaths

    rebuild = Simulation._rebuild_graph

    def always(self, t):
        self._graph_stamp = None
        rebuild(self, t)

    monkeypatch.setattr(Simulation, "_rebuild_graph", always)
    kept = len(builds)
    assert Simulation(cfg, seed=3, scheme="mdlps").run() == trace
    assert len(builds) - kept == len(frames) + len(crits)


def test_a_death_at_the_same_instant_rebuilds_the_graph():
    sim = Simulation(validate_config({"session_duration": 2.0}), seed=1, scheme="mdlps")
    sim._rebuild_graph(1.0)
    first = sim.graph
    sim._rebuild_graph(1.0)
    assert sim.graph is first
    sim.dead.add(5)
    sim._rebuild_graph(1.0)
    assert 5 in first and 5 not in sim.graph


# the criterion-5 arena as shipped, where every frame is complete; with
# batteries that empty, so the alive set shrinks under complete frames until
# none is alive; and on a 750 m square, where frames go in and out of
# completeness and, the run-level proof refusing it, every frame builds
_KEPT_GRAPH_ARENAS = {
    "capacity": ({}, {"kept"}),
    "capacity_drained": ({"initial_energy": 0.5,
                          "energy": {"battery_threshold": 0.1, "idle_power": 0.01}},
                         {"kept", "death_under_complete", "no_alive"}),
    "capacity_750m": ({"terrain_area": {"width": 750.0, "height": 750.0}},
                      {"complete_then_not"}),
}


@pytest.mark.parametrize("name", list(_KEPT_GRAPH_ARENAS), ids=list(_KEPT_GRAPH_ARENAS))
def test_a_kept_graph_is_the_graph_a_fresh_build_gives(name, monkeypatch):
    """At every rebuild the graph and hop maps in hand, kept or built, equal
    a fresh build_graph and hop_distances over the frame's alive nodes: also
    at a death under complete frames and when a complete frame is followed
    by an incomplete one."""
    overrides, kinds = _KEPT_GRAPH_ARENAS[name]
    with open(os.path.join(CONFIG_DIR, "capacity_sweep.yaml"), encoding="utf-8") as fh:
        cfg = validate_config({**yaml.safe_load(fh), "flow_count": 10, **overrides})
    rebuild = Simulation._rebuild_graph
    seen = set()
    last = {}  # the previous frame of the run being checked

    def checked(self, t):
        before = self.graph
        rebuild(self, t)
        alive = self._alive()
        px, py = self.mob.positions_at(t)
        fresh = radio.build_graph(alive, px[alive], py[alive], self.radio)
        assert self.graph.edges() == fresh.edges(), t
        assert self.dist_maps == {dst: traffic.hop_distances(fresh, dst)
                                  for dst in self.route_dsts if dst in fresh}, t
        complete = len(fresh.edges()) == len(alive) * (len(alive) - 1) // 2
        if self.graph is before:
            seen.add("kept")
        if not alive:
            seen.add("no_alive")
        elif last.get("complete") and last["sim"] is self:
            if not complete:
                seen.add("complete_then_not")
            elif len(alive) < last["alive"]:
                seen.add("death_under_complete")
        last.update(sim=self, complete=complete, alive=len(alive))

    monkeypatch.setattr(Simulation, "_rebuild_graph", checked)
    for seed in (1, 2, 3):
        for scheme in ("mdlps", "data"):
            Simulation(cfg, seed=seed, scheme=scheme).run()
    assert kinds <= seen, seen


def test_the_criterion_5_arena_is_proven_complete_for_the_run():
    """The 600 m square's 848.5 m diagonal is inside the 900 m range, and
    the 636 m square's 899.4 m one just is; a 750 m square is not."""
    reach = radio.params_for_range(900.0).reach
    assert terrain_links_every_pair((600.0, 600.0), reach)
    assert terrain_links_every_pair((636.0, 636.0), reach)
    assert not terrain_links_every_pair((750.0, 750.0), reach)


def test_a_terrain_that_meets_the_range_exactly_is_not_proven_complete():
    """540^2 + 720^2 = 900^2 exactly: the slack errs conservative and
    refuses it, but a terrain smaller by a relative 2^-30 passes."""
    assert not terrain_links_every_pair((540.0, 720.0), 900.0)
    assert not terrain_links_every_pair((900.0, 0.0), 900.0)
    shrink = 1.0 - 2.0 ** -30
    assert TERRAIN_SLACK * shrink < 1.0
    assert terrain_links_every_pair((540.0 * shrink, 720.0 * shrink), 900.0)
    assert not Simulation(validate_config({"terrain_area": {"width": 540.0, "height": 720.0},
                                           "radio": {"nominal_range": 900.0}}),
                          seed=1).arena_complete


@pytest.mark.parametrize("name", ["capacity", "capacity_drained"])
def test_a_run_proven_complete_traces_as_frames_proven_one_by_one(name, monkeypatch):
    """On the criterion-5 arena, as shipped and with batteries that empty,
    the trace with the run-level proof equals the trace with it forced off,
    where each frame builds its graph and each transmission tests its
    link. With the proof on, no link is tested and the fleet is located
    only to build a graph and at construction (the arena has no critical
    event)."""
    overrides, _ = _KEPT_GRAPH_ARENAS[name]
    with open(os.path.join(CONFIG_DIR, "capacity_sweep.yaml"), encoding="utf-8") as fh:
        cfg = validate_config({**yaml.safe_load(fh), "flow_count": 10, **overrides})
    calls = {"in_range": 0, "positions_at": 0, "build_graph": 0}

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args):
            calls[attr] += 1
            return fn(*args)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(radio, "in_range")
    counted(radio, "build_graph")
    counted(MobilityField, "positions_at")
    proven, builds = {}, 0
    for seed in (1, 2, 3):
        for scheme in ("mdlps", "data"):
            calls.update(dict.fromkeys(calls, 0))
            sim = Simulation(cfg, seed=seed, scheme=scheme)
            assert sim.arena_complete
            proven[seed, scheme] = sim.run()
            assert calls["in_range"] == 0, (seed, scheme)
            assert calls["positions_at"] == calls["build_graph"] + 1, (seed, scheme)
            builds = max(builds, calls["build_graph"])
    monkeypatch.setattr("mwsnsim.engine.terrain_links_every_pair", lambda terrain, reach: False)
    for (seed, scheme), trace in proven.items():
        calls.update(dict.fromkeys(calls, 0))
        sim = Simulation(cfg, seed=seed, scheme=scheme)
        assert not sim.arena_complete
        assert sim.run() == trace, (seed, scheme)
        assert calls["in_range"] > 0 and calls["positions_at"] > calls["build_graph"]
    if name == "capacity_drained":
        assert builds > 1  # deaths rebuilt the graph under the proof


def test_packet_in_flight_at_session_end_is_starved():
    """A transmission whose delivery would land past the session close is
    accounted as starved in flight, keeping conservation exact."""
    cfg = validate_config({
        "node_count": 3, "cluster_heads": 1, "base_stations": 1,
        "terrain_area": {"width": 500.0, "height": 100.0},
        "session_duration": 0.75,
        "node_placement": [[0.0, 50.0], [420.0, 50.0], [100.0, 50.0]],
        "radio": {"nominal_range": 250.0},
        "mobility": {"speed_min": 0.001, "speed_max": 0.002, "controlled_speed_cap": 0.001},
        "flows": [{"id": "f0", "src": 0, "dst": 2, "interval": 0.5, "stop": 0.6}],
        "energy": {"link_rate": 16000.0},  # 0.5 s airtime
        "grid": {"frequencies": 1, "slots_per_frame": 1, "frame_length": 0.5},
    })
    trace = Simulation(cfg, seed=1, scheme="mdlps").run()
    assert any(rec["k"] == "tx" for rec in trace)
    assert not any(rec["k"] == "rx" for rec in trace)
    drops = [rec for rec in trace if rec["k"] == "drop"]
    assert len(drops) == 1
    assert drops[0]["c"] == "starved" and drops[0].get("d") == "in_flight"


def test_stock_run_asks_for_the_fleet_only_at_boundaries_and_events(monkeypatch):
    """A stock run evaluates the whole fleet only at set-up, at frame
    boundaries and at critical events. A slot transmission tests its one
    link, and packet generation locates its one source, node by node."""
    calls = []
    fleet = MobilityField.positions_at

    def counted(self, t):
        calls.append(t)
        return fleet(self, t)

    monkeypatch.setattr(MobilityField, "positions_at", counted)
    trace = Simulation(validate_config({}), seed=2, scheme="mdlps").run()
    allowed = {0.0} | {rec["t"] for rec in trace if rec["k"] in ("frame", "crit")}
    assert calls and set(calls) <= allowed
    # slot instants between boundaries did transmit, so they were asked about
    assert any(rec["k"] == "tx" and rec["s"] > 0 for rec in trace)


def test_emissions_locate_no_source_before_the_first_event(monkeypatch):
    """A CBR emission needs its source's position only once a critical
    event has begun: before that its importance comes from the low band
    wherever the source is. So in a stock run, whose one event is at
    t = 10 s, emissions ask for no position before then."""
    asked, emitting = [], []
    locate, emit = MobilityField.position_of, Simulation._on_packet_generated

    def located(self, i, t):
        if emitting:
            asked.append(t)
        return locate(self, i, t)

    def emission(sim, t, idx, k):
        emitting.append((idx, k))
        try:
            emit(sim, t, idx, k)
        finally:
            emitting.pop()

    monkeypatch.setattr(MobilityField, "position_of", located)
    monkeypatch.setattr(Simulation, "_on_packet_generated", emission)
    trace = Simulation(validate_config({}), seed=2, scheme="mdlps").run()
    assert [rec["t"] for rec in trace if rec["k"] == "crit"] == [10.0]
    # emissions from the event on do locate their source
    assert asked and min(asked) == 10.0


def test_reports_route_to_sinks_that_no_flow_uses():
    """Graph rebuilds compute hop maps for a fixed set of destinations,
    fixed at set-up: every flow sink and every base station. A critical
    event's reports go to each reporter's nearest base station, so they
    reach base stations that no flow targets."""
    cfg = validate_config({
        "node_count": 24, "cluster_heads": 2, "base_stations": 4,
        "terrain_area": {"width": 600.0, "height": 600.0},
        "session_duration": 8.0,
        "radio": {"nominal_range": 900.0},
        "flows": [{"id": "f0", "src": 0, "dst": 23, "interval": 1.0}],
        "critical_events": [{"time": 2.0, "x": 300.0, "y": 300.0, "radius": 1000.0}],
    })
    sim = Simulation(cfg, seed=1, scheme="mdlps")
    trace = sim.run()
    gen_dst = {rec["p"]: rec["dst"] for rec in trace if rec["k"] == "gen"}
    delivered = {gen_dst[rec["p"]] for rec in trace if rec["k"] == "rx" and rec["fin"]}
    assert delivered - {23}, delivered
    assert sim.route_dsts == [20, 21, 22, 23]
    assert set(gen_dst.values()) <= set(sim.route_dsts)


_PLACEMENT_CONFIGS = {
    "stock": {},
    "event_study": "event_study.yaml",
    "drained": DRAINED,
    "drained_idle": DRAINED_IDLE,
    "orphans_excluded": {"options": {"orphan_policy": "exclude"}},
    "wide_grid": {"grid": {"frequencies": 8, "slots_per_frame": 5}, "flow_count": 3},
}


def test_frames_follow_the_placement_rule():
    lent = 0
    for name, source in _PLACEMENT_CONFIGS.items():
        cfg = (load_config(os.path.join(CONFIG_DIR, source)) if isinstance(source, str)
               else validate_config(source))
        for seed in (1, 2, 3):
            for scheme in ("mdlps", "data"):
                trace = Simulation(cfg, seed=seed, scheme=scheme).run()
                errors = trace_errors(trace, cfg, scheme)
                assert not errors, (name, seed, scheme, errors[:3])
                lent += sum(len(rec["x"]) for rec in trace if rec["k"] == "frame")
    assert lent > 1000


def test_finished_simulation_is_freed_by_reference_counting():
    """Queued events name their handler as a plain function, so the events
    left in a finished run's queue hold no reference back to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(validate_config({"session_duration": 5.0}), seed=1, scheme="mdlps")
        sim.run()
        assert len(sim.queue) > 0
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
