"""Waypoint kinematics and the three-level speed classification.

The waypoint rule is `MobilityField` stepping the fleet through
`_kernels.step_waypoints`; these tests check that rule, the one the engine
runs."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwsnsim import _kernels
from mwsnsim.config import validate_config
from mwsnsim.engine import RandomStream, Simulation
from mwsnsim.mobility import (
    BadThresholds,
    MobilityClass,
    MobilityField,
    UnknownNode,
    classify_mobility,
    snapshot_classes,
)


def _step_waypoints_loop(px, py, wx, wy, speed, pause_until, now, dt):
    """Scalar oracle for `_kernels.step_waypoints`: the same rule, one node
    at a time."""
    n = px.shape[0]
    t_arr = np.full(n, -1.0)
    for i in range(n):
        if pause_until[i] > now:
            continue
        dx = wx[i] - px[i]
        dy = wy[i] - py[i]
        dist = np.sqrt(dx * dx + dy * dy)
        adv = speed[i] * dt
        if adv >= dist:
            px[i] = wx[i]
            py[i] = wy[i]
            if dist > 0.0 and speed[i] > 0.0:
                t_arr[i] = now + dist / speed[i]
            else:
                t_arr[i] = now
        else:
            frac = adv / dist
            px[i] += dx * frac
            py[i] += dy * frac
    return t_arr


def _step_one(x, y, wx, wy, speed, pause_until, now, dt):
    """step_waypoints on a one-node fleet; returns (x, y, t_arr)."""
    px, py = np.array([x]), np.array([y])
    t_arr = _kernels.step_waypoints(px, py, np.array([wx]), np.array([wy]),
                                    np.array([speed]), np.array([pause_until]), now, dt)
    return px[0], py[0], t_arr[0]


def test_step_advances_along_unit_vector():
    # 5 m/s for 0.5 s toward (3,4): unit vector (0.6, 0.8) scaled by 2.5 m
    x, y, t_arr = _step_one(0.0, 0.0, 3.0, 4.0, speed=5.0, pause_until=-1.0, now=0.0, dt=0.5)
    assert x == pytest.approx(1.5, abs=1e-12)
    assert y == pytest.approx(2.0, abs=1e-12)
    assert t_arr == -1.0


def test_paused_node_does_not_move():
    x, y, t_arr = _step_one(7.0, 7.0, 20.0, 20.0, speed=3.0, pause_until=10.0, now=1.0, dt=0.5)
    assert (x, y) == (7.0, 7.0)
    assert t_arr == -1.0


def test_step_matches_scalar_oracle():
    """The vectorised stepper agrees with the scalar loop on random fleets
    that include speed 0, distance 0 and paused nodes."""
    rng = np.random.default_rng(21)
    for n in (1, 7, 64, 300):
        px = rng.uniform(0, 2000, n)
        py = rng.uniform(0, 2000, n)
        wx = rng.uniform(0, 2000, n)
        wy = rng.uniform(0, 2000, n)
        speed = rng.uniform(0, 20, n)
        speed[rng.random(n) < 0.2] = 0.0
        at_waypoint = rng.random(n) < 0.2
        wx[at_waypoint] = px[at_waypoint]
        wy[at_waypoint] = py[at_waypoint]
        # some legs end within the step, so arrivals are exercised too
        near = rng.random(n) < 0.3
        wx[near] = px[near] + rng.uniform(-1.0, 1.0, near.sum())
        pause = rng.choice([-1.0, 1.0, 5.0], n)
        for now, dt in ((1.0, 0.1), (1.0, 0.5), (7.5, 2.0)):
            px_a, py_a = px.copy(), py.copy()
            px_b, py_b = px.copy(), py.copy()
            t_a = _kernels.step_waypoints(px_a, py_a, wx, wy, speed, pause, now, dt)
            t_b = _step_waypoints_loop(px_b, py_b, wx, wy, speed, pause, now, dt)
            np.testing.assert_allclose(px_a, px_b, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(py_a, py_b, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(t_a, t_b, rtol=1e-12, atol=1e-12)


def _field(n=22, terrain=(2000.0, 2000.0), seed=1, controlled=None, **kw):
    rng = RandomStream(seed, "mobility")
    patrol = RandomStream(seed, "placement")
    place = RandomStream(seed + 100, "placement")
    pos = np.array([[place.uniform(0, terrain[0]), place.uniform(0, terrain[1])]
                    for _ in range(n)])
    if controlled is None:
        controlled = np.zeros(n, dtype=bool)
    return MobilityField(pos, controlled, terrain, rng, patrol, **kw)


def _one_node_leg(field, i, x, y, wx, wy, speed):
    """Put node i on a known leg that starts at time 0."""
    field.px[i], field.py[i] = x, y
    field.wx[i], field.wy[i] = wx, wy
    field.speed[i] = speed
    field.pause_until[i] = -1.0
    field.needs_leg[i] = False


def test_arrival_snaps_to_waypoint_and_pauses():
    # 1 m at 10 m/s from 0 s: arrival at 0.1 s, pause 2 s; a query at 0.6 s
    # applies the 0.5 s tick, which records the arrival
    field = _field(n=1, pause_time=2.0, tick_interval=0.5)
    _one_node_leg(field, 0, 0.0, 0.0, 1.0, 0.0, 10.0)
    px, py = field.positions_at(0.6)
    assert (px[0], py[0]) == (1.0, 0.0)
    assert (field.px[0], field.py[0]) == (1.0, 0.0)
    assert field.pause_until[0] == pytest.approx(0.1 + 2.0, abs=1e-12)
    assert field.needs_leg[0]
    # the kernel itself reports t_arr = now + dist/speed
    _, _, t_arr = _step_one(0.0, 0.0, 1.0, 0.0, speed=10.0, pause_until=-1.0, now=0.3, dt=0.5)
    assert t_arr == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("pause_time, draw_tick", [(0.4, 1.0), (0.45, 1.5)])
def test_new_leg_drawn_at_first_tick_after_pause(pause_time, draw_tick):
    """Arrival at 0.1 s; the pause ends at 0.1 + pause_time. The next leg is
    drawn at the first tick whose previous tick is at or after the pause
    end (0.5 s exactly draws at the 1.0 s tick; 0.55 s waits for 1.5 s), and
    its motion counts from that previous tick. A query a quarter interval
    after a tick applies that tick."""
    field = _field(n=1, terrain=(50.0, 50.0), speed_range=(2.0, 4.0), pause_time=pause_time,
                   tick_interval=0.5)
    _one_node_leg(field, 0, 0.0, 0.0, 1.0, 0.0, 10.0)
    t = 0.0
    while t < draw_tick - 0.5:
        t += 0.5
        field.positions_at(t + 0.25)
        assert field.needs_leg[0]
        assert (field.px[0], field.py[0], field.wx[0], field.wy[0]) == (1.0, 0.0, 1.0, 0.0)
    # a query at the draw tick's own time does not apply that tick
    px, py = field.positions_at(draw_tick)
    assert field.needs_leg[0] and (px[0], py[0]) == (1.0, 0.0)
    expected = copy.deepcopy(field.rng)
    wx, wy, speed = (expected.uniform(0.0, 50.0), expected.uniform(0.0, 50.0),
                     expected.uniform(2.0, 4.0))
    px, py = field.positions_at(draw_tick + 0.25)
    assert not field.needs_leg[0]
    assert (field.wx[0], field.wy[0], field.speed[0]) == (wx, wy, speed)
    dist = np.hypot(wx - 1.0, wy)
    moved = min(speed * 0.5, dist)
    assert field.px[0] == pytest.approx(1.0 + (wx - 1.0) / dist * moved, abs=1e-9)
    assert field.py[0] == pytest.approx(wy / dist * moved, abs=1e-9)
    moved = min(speed * 0.75, dist)
    assert px[0] == pytest.approx(1.0 + (wx - 1.0) / dist * moved, abs=1e-9)
    assert py[0] == pytest.approx(wy / dist * moved, abs=1e-9)


def test_legs_drawn_in_ascending_node_id():
    field = _field(n=3, terrain=(50.0, 50.0), speed_range=(2.0, 4.0), pause_time=0.1,
                   tick_interval=0.5)
    for i in (2, 0, 1):
        _one_node_leg(field, i, 0.0, float(i), 1.0, float(i), 10.0)
    field.positions_at(0.75)
    assert field.needs_leg.all()
    expected = copy.deepcopy(field.rng)
    legs = [(expected.uniform(0.0, 50.0), expected.uniform(0.0, 50.0), expected.uniform(2.0, 4.0))
            for _ in range(3)]
    field.positions_at(1.25)
    assert [(field.wx[i], field.wy[i], field.speed[i]) for i in range(3)] == legs


def test_speed_is_zero_while_next_leg_pending():
    # the pause ends at 0.2 s, but until the 1.0 s tick draws a leg the node
    # stands still and reports speed 0
    field = _field(n=1, pause_time=0.1, tick_interval=0.5)
    _one_node_leg(field, 0, 0.0, 0.0, 1.0, 0.0, 10.0)
    assert field.instantaneous_speed(0, 0.6) == 0.0
    assert field.needs_leg[0] and field.pause_until[0] < 0.5
    assert field.speeds_at(0.7) == {0: 0.0}
    px, py = field.positions_at(0.7)
    assert (px[0], py[0]) == (1.0, 0.0)


def test_positions_before_last_tick_rejected():
    field = _field(n=2)
    field.positions_at(1.05)
    with pytest.raises(ValueError):
        field.positions_at(0.5)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([0.1, 0.25, 0.3, 1.0]), st.sampled_from([0.0, 0.2, 2.0]),
       st.floats(0.0, 20.0), st.lists(st.floats(0.0, 1.0), max_size=30))
def test_positions_are_a_function_of_time(tick_interval, pause_time, horizon, fractions):
    """Queries at any increasing times before T leave positions_at(T), the
    speeds at T and the mobility draws exactly as a fresh field queried only
    at T."""
    controlled = np.arange(8) >= 6
    kw = dict(n=8, terrain=(100.0, 100.0), controlled=controlled, pause_time=pause_time,
              tick_interval=tick_interval)
    queried, fresh = _field(**kw), _field(**kw)
    for t in sorted(f * horizon for f in fractions):
        queried.positions_at(t)
        queried.speeds_at(t)
    px, py = queried.positions_at(horizon)
    qx, qy = fresh.positions_at(horizon)
    assert np.array_equal(px, qx) and np.array_equal(py, qy)
    assert queried.speeds_at(horizon) == fresh.speeds_at(horizon)
    assert queried.rng.draws == fresh.rng.draws
    # and each has applied exactly the ticks before T
    assert fresh.last_tick < horizon <= fresh.next_tick or horizon == 0.0


def test_classify_below_first_threshold():
    assert classify_mobility(3.0, (5.0, 15.0)) is MobilityClass.V_L


def test_classify_boundary_belongs_to_upper_class():
    assert classify_mobility(5.0, (5.0, 15.0)) is MobilityClass.V_M
    assert classify_mobility(15.0, (5.0, 15.0)) is MobilityClass.V_H


def test_classify_high():
    assert classify_mobility(20.0, (5.0, 15.0)) is MobilityClass.V_H


def test_classify_bad_thresholds():
    with pytest.raises(BadThresholds):
        classify_mobility(1.0, (15.0, 5.0))
    with pytest.raises(BadThresholds):
        classify_mobility(1.0, (5.0, 5.0))


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
    """10^4 random steps never leave the terrain rectangle."""
    field = _field(n=10, tick_interval=0.1)
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
                   speed_range=(1.0, 20.0), controlled_speed_cap=2.0, tick_interval=0.1)
    t = 0.0
    for _ in range(300):
        t += 0.1
        speeds = field.speeds_at(t)
        for i in range(6):
            assert 1.0 <= field.speed[i] <= 20.0
            assert speeds[i] in (0.0, field.speed[i])
        for i in (6, 7):
            assert field.speed[i] <= 2.0 and speeds[i] <= 2.0


def test_position_at_tick_time_is_stored_position():
    """A query at a tick's time, which does not apply that tick, gives the
    positions the tick then stores."""
    field = _field(n=4, tick_interval=0.1)
    px, py = field.positions_at(0.1)
    field.positions_at(0.15)
    assert field.last_tick == 0.1
    assert np.array_equal(px, field.px) and np.array_equal(py, field.py)


def test_position_interpolates_linearly_midleg():
    field = _field(n=1)
    _one_node_leg(field, 0, 0.0, 0.0, 10.0, 0.0, 10.0)
    px, py = field.positions_at(0.5)
    assert px[0] == pytest.approx(5.0, abs=1e-12) and py[0] == 0.0


def test_paused_node_position_constant():
    field = _field(n=1)
    field.px[0], field.py[0] = 3.0, 4.0
    field.pause_until[0] = 99.0
    for t in (0.02, 0.05, 0.09):
        px, py = field.positions_at(t)
        assert (px[0], py[0]) == (3.0, 4.0)
    assert field.instantaneous_speed(0, 0.05) == 0.0


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
