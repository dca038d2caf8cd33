"""Node kinematics: random-waypoint motion, controlled patrol motion, and
the three-level speed classification taken at critical-event time.

Sensors roam the whole terrain (uncontrolled regime); cluster heads and base
stations cycle a small fixed patrol loop at a capped speed (controlled
regime). `MobilityField` holds the one waypoint rule.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from . import _kernels


class BadThresholds(Exception):
    pass


class UnknownNode(Exception):
    pass


class MobilityClass(IntEnum):
    V_L = 0
    V_M = 1
    V_H = 2


def classify_mobility(speed: float, thresholds: tuple[float, float]) -> MobilityClass:
    """Map a speed to V_L / V_M / V_H. Boundary speeds classify upward."""
    v1, v2 = thresholds
    if not (0.0 <= v1 < v2):
        raise BadThresholds(f"need 0 <= v1 < v2, got ({v1}, {v2})")
    if speed < v1:
        return MobilityClass.V_L
    if speed < v2:
        return MobilityClass.V_M
    return MobilityClass.V_H


def snapshot_classes(speeds: dict[int, float], thresholds: tuple[float, float]) -> dict[int, MobilityClass]:
    """Classify every node from its instantaneous speed; the result is meant
    to stay fixed until the next critical event."""
    return {node: classify_mobility(v, thresholds) for node, v in sorted(speeds.items())}


class MobilityField:
    """Kinematic state for the whole fleet: random-waypoint motion stepped
    in bulk by `_kernels.step_waypoints` and interpolated between ticks.

    The field keeps its own clock. Ticks fall at tick_interval,
    tick_interval + tick_interval, ... (times accumulate by repeated
    addition), and every query at time t first applies the ticks strictly
    before t. A query at t therefore never sees a tick at t, and positions
    and speeds are a pure function of t for queries at non-decreasing times.

    A node that reaches its waypoint at t_arr pauses until t_arr +
    pause_time. Its next leg is drawn at the first tick whose window starts
    (the previous tick) at or after that pause end, and the leg's motion
    counts from the window start. Draws within a tick come in ascending node
    id, so a given mobility stream seed reproduces identical paths
    regardless of what the rest of the simulation does.
    """

    def __init__(
        self,
        positions: np.ndarray,
        controlled: np.ndarray,
        terrain: tuple[float, float],
        rng,
        patrol_rng,
        speed_range: tuple[float, float] = (1.0, 20.0),
        pause_time: float = 2.0,
        controlled_speed_cap: float = 2.0,
        patrol_radius: float = 200.0,
        tick_interval: float = 0.1,
    ):
        n = positions.shape[0]
        self.n = n
        self.terrain = terrain
        self.rng = rng
        self.speed_range = speed_range
        self.pause_time = pause_time
        self.controlled_speed_cap = controlled_speed_cap
        self.px = positions[:, 0].astype(np.float64).copy()
        self.py = positions[:, 1].astype(np.float64).copy()
        self.controlled = controlled.astype(bool).copy()
        self.wx = np.zeros(n)
        self.wy = np.zeros(n)
        self.speed = np.zeros(n)
        self.pause_until = np.full(n, -1.0)
        self.needs_leg = np.zeros(n, dtype=bool)
        self.interval = tick_interval
        self.last_tick = 0.0
        self.next_tick = tick_interval
        # fixed patrol loops for controlled nodes, drawn once near the start point
        self.patrol: dict[int, list[tuple[float, float]]] = {}
        self.patrol_idx: dict[int, int] = {}
        for i in range(n):
            if self.controlled[i]:
                pts = []
                for _ in range(4):
                    ox = patrol_rng.uniform(-patrol_radius, patrol_radius)
                    oy = patrol_rng.uniform(-patrol_radius, patrol_radius)
                    pts.append((
                        min(max(self.px[i] + ox, 0.0), terrain[0]),
                        min(max(self.py[i] + oy, 0.0), terrain[1]),
                    ))
                self.patrol[i] = pts
                self.patrol_idx[i] = 0
        for i in range(n):
            self._new_leg(i)

    def _new_leg(self, i: int) -> None:
        if self.controlled[i]:
            pts = self.patrol[i]
            idx = self.patrol_idx[i]
            self.wx[i], self.wy[i] = pts[idx]
            self.patrol_idx[i] = (idx + 1) % len(pts)
            self.speed[i] = self.rng.uniform(self.controlled_speed_cap / 2.0, self.controlled_speed_cap)
        else:
            self.wx[i] = self.rng.uniform(0.0, self.terrain[0])
            self.wy[i] = self.rng.uniform(0.0, self.terrain[1])
            self.speed[i] = self.rng.uniform(*self.speed_range)
        self.needs_leg[i] = False

    def tick(self) -> None:
        """Apply the next tick: advance the fleet from the previous tick
        time to next_tick."""
        now, t = self.last_tick, self.next_tick
        # nodes whose pause expired by the start of this window get a new leg
        if self.needs_leg.any():
            for i in np.flatnonzero(self.needs_leg):
                if self.pause_until[i] <= now:
                    self._new_leg(i)
        t_arr = _kernels.step_waypoints(
            self.px, self.py, self.wx, self.wy, self.speed, self.pause_until, now, t - now
        )
        arrived = t_arr >= 0.0
        if arrived.any():
            for i in np.flatnonzero(arrived):
                if not self.needs_leg[i]:
                    self.pause_until[i] = t_arr[i] + self.pause_time
                    self.needs_leg[i] = True
        self.last_tick = t
        self.next_tick = t + self.interval

    def advance(self, t: float) -> None:
        """Apply every tick strictly before t."""
        if t < self.last_tick:
            raise ValueError(f"query at {t} precedes last tick {self.last_tick}")
        while self.next_tick < t:
            self.tick()

    def positions_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions of all nodes at time t, interpolated from the last tick
        before t."""
        self.advance(t)
        px = self.px.copy()
        py = self.py.copy()
        dt = t - self.last_tick
        if dt > 0:
            _kernels.step_waypoints(px, py, self.wx, self.wy, self.speed, self.pause_until, self.last_tick, dt)
        return px, py

    def instantaneous_speed(self, node: int, t: float) -> float:
        if not (0 <= node < self.n):
            raise UnknownNode(f"no node {node}")
        self.advance(t)
        if self.needs_leg[node] or self.pause_until[node] > t:
            return 0.0
        return float(self.speed[node])

    def speeds_at(self, t: float) -> dict[int, float]:
        return {i: self.instantaneous_speed(i, t) for i in range(self.n)}
