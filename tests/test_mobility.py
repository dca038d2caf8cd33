"""Waypoint kinematics and the three-level speed classification.

The waypoint rule is `MobilityField`'s continuous-time legs: the engine asks
it for one node (`position_of`, `instantaneous_speed`) or for the fleet
(`positions_at`, `speeds_at`, through `_kernels.step_waypoints`). These
tests check that rule, the one the engine runs."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwsnsim import _kernels
from mwsnsim.config import DEFAULTS, validate_config
from mwsnsim.engine import TERRAIN_SLACK, RandomStream, Simulation
from mwsnsim.mobility import (
    MobilityClass,
    Leg,
    MobilityField,
    UnknownNode,
    classify_mobility,
    make_leg,
    snapshot_classes,
)


def _one(t0, x0, y0, wx, wy, rate, t):
    """step_waypoints on a one-node fleet; returns (x, y)."""
    px, py = _kernels.step_waypoints(np.array([t0]), np.array([x0]), np.array([y0]),
                                     np.array([wx]), np.array([wy]), np.array([rate]), t)
    return px[0], py[0]


def test_step_advances_along_unit_vector():
    # a 5 m leg toward (3,4) at 5 m/s covers a fifth of itself per second:
    # 2.5 m along the unit vector (0.6, 0.8) after 0.5 s
    x, y = _one(0.0, 0.0, 0.0, 3.0, 4.0, rate=1.0, t=0.5)
    assert x == pytest.approx(1.5, abs=1e-12)
    assert y == pytest.approx(2.0, abs=1e-12)


def test_paused_node_does_not_move():
    """From its arrival on, a node sits exactly on its waypoint."""
    for t in (1.0, 1.5, 40.0):
        assert _one(0.0, 7.0, 7.0, 20.0, 20.0, rate=1.0, t=t) == (20.0, 20.0)


def _field(n=22, terrain=(2000.0, 2000.0), seed=1, controlled=None, **kw):
    """A field of n nodes placed at random, with the stock kinematics of
    config.DEFAULTS where kw sets none."""
    m = DEFAULTS["mobility"]
    kinematics = {"speed_range": (m["speed_min"], m["speed_max"]), "pause_time": m["pause_time"],
                  "controlled_speed_cap": m["controlled_speed_cap"],
                  "patrol_radius": m["patrol_radius"], **kw}
    rngs = [RandomStream(seed, "mobility", i) for i in range(n)]
    patrol = RandomStream(seed, "placement")
    place = RandomStream(seed + 100, "placement")
    pos = np.array([[place.uniform(0, terrain[0]), place.uniform(0, terrain[1])]
                    for _ in range(n)])
    if controlled is None:
        controlled = np.zeros(n, dtype=bool)
    return MobilityField(pos, controlled, terrain, rngs, patrol, **kinematics)


def _script_leg(field, i, x, y, wx, wy, speed, t0=0.0):
    """Put node i on a known leg that starts at t0."""
    field.set_leg(i, make_leg(t0, x, y, wx, wy, speed))


def _leg(field, i):
    return Leg._make(field.legs[i].tolist())


def _stock_fleet(seed=1):
    return Simulation(validate_config({}), seed=seed).mob


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from([0.0, 0.3, 2.0]), st.integers(1, 40),
       st.lists(st.floats(0.0, 40.0), min_size=1, max_size=20))
def test_step_matches_scalar_oracle(pause_time, seed, times):
    """The fleet kernel and the one-node rule agree bit for bit:
    positions_at(t)[i] == position_of(i, t) for every node, cluster heads
    included, at increasing times."""
    controlled = np.arange(12) >= 9
    field = _field(n=12, terrain=(300.0, 300.0), seed=seed, controlled=controlled,
                   pause_time=pause_time)
    for t in sorted(times):
        px, py = field.positions_at(t)
        for i in range(12):
            assert field.position_of(i, t) == (px[i], py[i])
        assert field.speeds_at(t) == {i: field.instantaneous_speed(i, t) for i in range(12)}


def test_arrival_snaps_to_waypoint_and_pauses():
    # 1 m at 10 m/s from 0 s: arrival at 0.1 s, then a 2 s pause there
    field = _field(n=1, pause_time=2.0)
    _script_leg(field, 0, 0.0, 0.0, 1.0, 0.0, 10.0)
    draws = field.rngs[0].draws
    assert field.position_of(0, 0.05) == pytest.approx((0.5, 0.0), abs=1e-12)
    assert field.instantaneous_speed(0, 0.05) == 10.0
    for t in (0.1, 0.6, 2.0999):
        assert field.position_of(0, t) == (1.0, 0.0)
        assert field.instantaneous_speed(0, t) == 0.0
    assert field.rngs[0].draws == draws
    assert _leg(field, 0).t_arr == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("pause_time", [0.0, 0.45])
def test_next_leg_starts_when_pause_ends(pause_time):
    """Arrival at t_arr = 0.1 s; the next leg starts exactly at t_arr +
    pause_time, from the waypoint, on a waypoint and speed drawn from the
    node's own stream. With no pause it starts at the arrival instant."""
    field = _field(n=1, terrain=(50.0, 50.0), speed_range=(2.0, 4.0), pause_time=pause_time)
    _script_leg(field, 0, 0.0, 0.0, 1.0, 0.0, 10.0)
    t_next = 0.1 + pause_time
    expected = copy.deepcopy(field.rngs[0])
    wx, wy, speed = (expected.uniform(0.0, 50.0), expected.uniform(0.0, 50.0),
                     expected.uniform(2.0, 4.0))
    # just before, the node is still arriving (no pause) or standing
    before = math.nextafter(t_next, 0.0)
    assert field.position_of(0, before) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert field.instantaneous_speed(0, before) == (10.0 if pause_time == 0.0 else 0.0)
    # at t_next itself the new leg has begun, at its own speed
    assert field.position_of(0, t_next) == (1.0, 0.0)
    assert field.instantaneous_speed(0, t_next) == speed
    assert _leg(field, 0)[:6] == (t_next, 1.0, 0.0, wx, wy, speed)
    dist = math.hypot(wx - 1.0, wy)
    moved = min(speed * 0.25, dist)
    x, y = field.position_of(0, t_next + 0.25)
    assert x == pytest.approx(1.0 + (wx - 1.0) / dist * moved, abs=1e-9)
    assert y == pytest.approx(wy / dist * moved, abs=1e-9)


def test_legs_drawn_from_each_nodes_own_stream():
    """A node's path depends on the seed and its id alone: the first three
    nodes of a 3-node and an 8-node fleet move identically, whatever else is
    asked about, and each draws exactly the legs that start by the time it is
    asked about."""
    small = _field(n=3, terrain=(100.0, 100.0), pause_time=0.2)
    large = _field(n=8, terrain=(100.0, 100.0), pause_time=0.2)
    for k in range(1, 301):
        t = 0.1 * k
        large.positions_at(t)
        for i in range(3):
            assert small.position_of(i, t) == large.position_of(i, t)
            assert small.instantaneous_speed(i, t) == large.instantaneous_speed(i, t)
    assert [r.draws for r in small.rngs] == [r.draws for r in large.rngs[:3]]
    assert all(_leg(small, i).t0 <= 30.0 < _leg(small, i).t_arr + small.pause_time
               for i in range(3))


def test_speed_is_zero_while_next_leg_pending():
    # arrival at 0.1 s, the next leg starts at 0.6 s: in between the node
    # stands at its waypoint and reports speed 0, to one node and fleet queries
    field = _field(n=1, pause_time=0.5)
    _script_leg(field, 0, 0.0, 0.0, 1.0, 0.0, 10.0)
    for t in (0.1, 0.35, math.nextafter(0.6, 0.0)):
        assert field.instantaneous_speed(0, t) == 0.0
        assert field.speeds_at(t) == {0: 0.0}
        px, py = field.positions_at(t)
        assert (px[0], py[0]) == (1.0, 0.0)


def test_standing_node_reports_speed_zero():
    """On the stock seed-1 fleet sampled every 10 ms for 30 s, a node that
    does not move over a sampling step reports speed 0 at its start."""
    field = _stock_fleet()
    px, py = field.positions_at(0.0)
    speeds = field.speeds_at(0.0)
    for k in range(1, 3001):
        t = k * 0.01
        qx, qy = field.positions_at(t)
        for i in np.flatnonzero((qx == px) & (qy == py)).tolist():
            assert speeds[i] == 0.0, (i, t)
        px, py, speeds = qx, qy, field.speeds_at(t)


def test_no_jumps_on_stock_fleet():
    """On the stock seed-1 fleet sampled every 1 ms for 30 s, no node moves
    farther in a step than the speed cap allows."""
    field = _stock_fleet()
    speed_max = 20.0
    t_prev = 0.0
    px, py = field.positions_at(t_prev)
    for k in range(1, 30001):
        t = k * 0.001
        qx, qy = field.positions_at(t)
        step = np.hypot(qx - px, qy - py)
        assert step.max() <= speed_max * (t - t_prev) + 1e-9, (t, int(step.argmax()))
        px, py, t_prev = qx, qy, t


def test_query_before_current_leg_rejected():
    field = _field(n=2, pause_time=0.0)
    _script_leg(field, 0, 0.0, 0.0, 1.0, 0.0, 10.0)
    field.position_of(0, 0.5)  # starts node 0's second leg at 0.1 s
    with pytest.raises(ValueError):
        field.position_of(0, 0.05)
    with pytest.raises(ValueError):
        field.positions_at(0.05)
    # node 1 is still on its first leg, so it can still be asked about
    field.position_of(1, 0.05)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([0.0, 0.2, 2.0]),
       st.lists(st.tuples(st.floats(0.0, 30.0), st.booleans(),
                          st.lists(st.integers(0, 7), max_size=8)),
                min_size=1, max_size=10))
def test_positions_are_a_function_of_time(pause_time, plan):
    """A node's position and speed at t do not depend on what was asked
    before. A field queried along any plan of increasing times, for any
    nodes in any order, with or without fleet queries, answers exactly as a
    fresh field asked only about that node at that time; after the fleet
    catch-up at the last time, both have drawn the same legs."""
    controlled = np.arange(8) >= 6
    kw = dict(n=8, terrain=(100.0, 100.0), controlled=controlled, pause_time=pause_time)
    queried = _field(**kw)
    for t, fleet, nodes in sorted(plan):
        if fleet:
            px, py = queried.positions_at(t)
            speeds = queried.speeds_at(t)
            nodes = range(8)
        for i in nodes:
            alone = _field(**kw)
            xy = alone.position_of(i, t)
            v = alone.instantaneous_speed(i, t)
            assert queried.position_of(i, t) == xy
            assert queried.instantaneous_speed(i, t) == v
            if fleet:
                assert (px[i], py[i]) == xy and speeds[i] == v
    horizon = max(t for t, _, _ in plan)
    fresh = _field(**kw)
    queried.tick(horizon)
    fresh.tick(horizon)
    assert [r.draws for r in queried.rngs] == [r.draws for r in fresh.rngs]
    assert np.array_equal(queried.legs, fresh.legs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([1e-3, 0.7, 37.5, 600.0, 1.0e4, 3.0e6]),
       st.sampled_from([1.0, 0.3, 2.5]), st.sampled_from([0.0, 0.3, 2.0]),
       st.sampled_from([0.0, 0.4, 1.0]), st.integers(1, 1000),
       st.lists(st.floats(0.0, 20.0), min_size=1, max_size=12))
def test_positions_stay_in_the_terrain_widened_by_the_slack(side, aspect, pause_time,
                                                            patrol, seed, times):
    """The premise of engine.terrain_links_every_pair: on tiny and large
    terrains, with no pause and patrol loops as wide as the terrain, every
    coordinate positions_at and position_of give lies in [0, w] widened on
    each side by half the slack, so two coordinates differ by at most
    w * TERRAIN_SLACK."""
    w, h = side, side * aspect
    cfg = validate_config({
        "node_count": 12, "cluster_heads": 3, "base_stations": 2, "flow_count": 2,
        "session_duration": 20.0,
        "terrain_area": {"width": w, "height": h},
        "mobility": {"speed_min": 0.05 * side, "speed_max": 0.5 * side,
                     "controlled_speed_cap": 0.1 * side, "pause_time": pause_time,
                     "patrol_radius": patrol * max(w, h)}})
    field = Simulation(cfg, seed=seed).mob
    margin = (TERRAIN_SLACK - 1.0) / 2.0
    for t in sorted(times):
        px, py = field.positions_at(t)
        xy = np.array([px, py, *zip(*(field.position_of(i, t) for i in range(12)))])
        for coords, extent in ((xy[0::2], w), (xy[1::2], h)):
            assert np.all(coords >= -margin * extent), (t, coords.min())
            assert np.all(coords <= extent + margin * extent), (t, coords.max())


def test_classify_below_first_threshold():
    assert classify_mobility(3.0, (5.0, 15.0)) is MobilityClass.V_L


def test_classify_boundary_belongs_to_upper_class():
    assert classify_mobility(5.0, (5.0, 15.0)) is MobilityClass.V_M
    assert classify_mobility(15.0, (5.0, 15.0)) is MobilityClass.V_H


def test_classify_high():
    assert classify_mobility(20.0, (5.0, 15.0)) is MobilityClass.V_H


def test_classification_is_total():
    rng = np.random.default_rng(0)
    for speed in rng.uniform(0.0, 40.0, size=500):
        assert classify_mobility(float(speed), (5.0, 15.0)) in MobilityClass


def test_snapshot_all_paused_is_low():
    classes = snapshot_classes({0: 0.0, 1: 0.0, 2: 0.0}, (5.0, 15.0))
    assert set(classes.values()) == {MobilityClass.V_L}


def test_snapshot_per_node_rule():
    classes = snapshot_classes({0: 3.0, 1: 10.0, 2: 20.0}, (5.0, 15.0))
    assert classes == {0: MobilityClass.V_L, 1: MobilityClass.V_M, 2: MobilityClass.V_H}


def test_positions_stay_in_bounds_over_many_steps():
    """10^3 fleet queries never leave the terrain rectangle."""
    field = _field(n=10)
    t = 0.0
    for _ in range(1000):
        t += 0.1
        px, py = field.positions_at(t)
        assert np.all(px >= 0) and np.all(px <= 2000.0)
        assert np.all(py >= 0) and np.all(py <= 2000.0)


def test_speed_bounds_by_regime():
    controlled = np.zeros(8, dtype=bool)
    controlled[6:] = True
    field = _field(n=8, controlled=controlled,
                   speed_range=(1.0, 20.0), controlled_speed_cap=2.0)
    t = 0.0
    for _ in range(300):
        t += 0.1
        speeds = field.speeds_at(t)
        for i in range(6):
            assert 1.0 <= _leg(field, i).speed <= 20.0
            assert speeds[i] in (0.0, _leg(field, i).speed)
        for i in (6, 7):
            assert _leg(field, i).speed <= 2.0 and speeds[i] <= 2.0


def test_position_at_leg_start_is_last_waypoint():
    """Legs join up: at each new leg's start the node stands on the waypoint
    its last leg reached, and the fleet query there agrees."""
    field = _field(n=6, terrain=(60.0, 60.0), pause_time=0.0)
    t = 0.0
    for _ in range(40):
        # the next leg to end; with no pause, the next to start there
        i = min(range(6), key=lambda j: _leg(field, j).t_arr)
        last = _leg(field, i)
        t = last.t_arr
        px, py = field.positions_at(t)
        assert _leg(field, i)[:3] == (t, last.wx, last.wy)
        assert (px[i], py[i]) == pytest.approx((last.wx, last.wy), abs=1e-12)
    assert t > 0.0


def test_position_interpolates_linearly_midleg():
    field = _field(n=1)
    _script_leg(field, 0, 0.0, 0.0, 10.0, 0.0, 10.0)
    assert field.position_of(0, 0.5) == pytest.approx((5.0, 0.0), abs=1e-12)
    px, py = field.positions_at(0.5)
    assert px[0] == pytest.approx(5.0, abs=1e-12) and py[0] == 0.0


def test_paused_node_position_constant():
    field = _field(n=1, pause_time=99.0)
    _script_leg(field, 0, 3.0, 4.0, 3.0, 4.0, 1.0)
    for t in (0.02, 0.05, 0.09, 50.0):
        px, py = field.positions_at(t)
        assert (px[0], py[0]) == (3.0, 4.0)
        assert field.instantaneous_speed(0, t) == 0.0


def test_one_point_patrol_parks():
    """A patrol loop whose points all coincide (radius 0) leaves the node
    parked at its start with speed 0; with no pause either, it still draws
    no endless run of zero-length legs."""
    cfg = validate_config({"session_duration": 5.0,
                           "mobility": {"patrol_radius": 0.0, "pause_time": 0.0}})
    sim = Simulation(cfg, seed=1)
    start = sim.mob.positions_at(0.0)
    sim.run()
    end = sim.mob.positions_at(5.0)
    for i in sim.ch_ids + sim.bs_ids:
        assert (end[0][i], end[1][i]) == (start[0][i], start[1][i])
        assert sim.mob.instantaneous_speed(i, 5.0) == 0.0
        assert sim.mob.rngs[i].draws == 0


def test_unknown_node_rejected():
    field = _field(n=2)
    with pytest.raises(UnknownNode):
        field.instantaneous_speed(5, 0.0)
    with pytest.raises(UnknownNode):
        field.instantaneous_speed(-1, 0.0)


def test_snapshot_stays_fixed_between_critical_events():
    """Two critical events re-snapshot classes; between them the scheduler's
    view must not drift even though speeds do."""
    cfg = validate_config({
        "node_count": 10, "cluster_heads": 1, "base_stations": 1,
        "session_duration": 16.0, "flow_count": 2,
        "critical_events": [
            {"time": 4.0, "x": 1000.0, "y": 1000.0, "radius": 500.0},
            {"time": 12.0, "x": 1000.0, "y": 1000.0, "radius": 500.0},
        ],
    })
    sim = Simulation(cfg, seed=3, scheme="data")
    sim.run_until(4.0)
    snap_t1 = dict(sim.mob_snapshot)
    sim.run_until(11.9)
    assert sim.mob_snapshot == snap_t1
    sim.run_until(12.0)
    trace = sim.trace
    cls_records = [rec for rec in trace if rec["k"] == "cls"]
    assert [rec["ev"] for rec in cls_records] == [0, 1]
    assert cls_records[0]["c"] == [int(snap_t1[i]) for i in range(10)]
