"""Node kinematics: random-waypoint motion, controlled patrol motion, and
the three-level speed classification taken at critical-event time.

Sensors roam the whole terrain (uncontrolled regime); cluster heads and base
stations cycle a small fixed patrol loop at a capped speed (controlled
regime). `MobilityField` holds the one waypoint rule, in continuous time.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from . import _kernels


class UnknownNode(Exception):
    pass


class MobilityClass(IntEnum):
    V_L = 0
    V_M = 1
    V_H = 2


def classify_mobility(speed: float, thresholds: tuple[float, float]) -> MobilityClass:
    """Map a speed to V_L / V_M / V_H, given thresholds 0 <= v1 < v2.
    Boundary speeds classify upward."""
    v1, v2 = thresholds
    if speed < v1:
        return MobilityClass.V_L
    if speed < v2:
        return MobilityClass.V_M
    return MobilityClass.V_H


def snapshot_classes(speeds: dict[int, float], thresholds: tuple[float, float]) -> dict[int, MobilityClass]:
    """Classify every node from its instantaneous speed; the result is meant
    to stay fixed until the next critical event."""
    return {node: classify_mobility(v, thresholds) for node, v in sorted(speeds.items())}


class Leg(NamedTuple):
    """One straight move: from (x0, y0) at t0 toward (wx, wy) at `speed`.

    `rate` is the fraction of the leg covered per second (0 for a leg of
    length 0), and the node arrives at `t_arr`."""

    t0: float
    x0: float
    y0: float
    wx: float
    wy: float
    speed: float
    rate: float
    t_arr: float


def make_leg(t0: float, x0: float, y0: float, wx: float, wy: float, speed: float) -> Leg:
    """The leg from (x0, y0) to (wx, wy) at `speed` that starts at t0."""
    length = math.hypot(wx - x0, wy - y0)
    rate, t_arr = (speed / length, t0 + length / speed) if length else (0.0, t0)
    return Leg(t0, x0, y0, wx, wy, speed, rate, t_arr)


class MobilityField:
    """Continuous-time random-waypoint motion of the whole fleet (Camp,
    Boleng & Davies, WCMC 2002), with no time grid.

    Each node is on one `Leg` at a time. Its position at t is
    start + (waypoint - start) * min((t - t0) * speed / L, 1), its speed is
    0 from t_arr = t0 + L / speed on, and its next leg starts exactly at
    t_arr + pause_time, from the waypoint it reached. Node i draws its legs
    from its own stream rngs[i], so its path depends on the seed and i alone,
    never on query order or on which other nodes were asked about.

    Legs are drawn lazily: a query for one node at t first draws that node's
    legs that start at or before t, and `tick(t)` does so for every node.
    Each node's current leg is kept twice, as a `Leg` for one-node queries
    and as its row of the array `legs` for fleet queries; `set_leg` is the
    one way to change it, so the two never differ. A query at a time before
    a node's current leg started raises ValueError.
    """

    def __init__(
        self,
        positions: np.ndarray,
        controlled: np.ndarray,
        terrain: tuple[float, float],
        rngs,
        patrol_rng,
        speed_range: tuple[float, float],
        pause_time: float,
        controlled_speed_cap: float,
        patrol_radius: float,
    ):
        self.n = n = len(positions)
        self.terrain = terrain
        self.rngs = rngs
        self.speed_range = speed_range
        self.pause_time = pause_time
        self.controlled_speed_cap = controlled_speed_cap
        # fixed patrol loops for controlled nodes, drawn once near the start
        # point; the head of a loop is the node's next patrol point
        self.patrol: dict[int, list[tuple[float, float]]] = {}
        starts = positions.tolist()
        for i, (x, y) in enumerate(starts):
            if controlled[i]:
                pts = []
                for _ in range(4):
                    ox = patrol_rng.uniform(-patrol_radius, patrol_radius)
                    oy = patrol_rng.uniform(-patrol_radius, patrol_radius)
                    pts.append((min(max(x + ox, 0.0), terrain[0]),
                                min(max(y + oy, 0.0), terrain[1])))
                self.patrol[i] = pts[:1] if len(set(pts)) == 1 else pts
        self.legs = np.empty((n, len(Leg._fields)))
        self._legs: list[Leg] = [None] * n
        for i, (x, y) in enumerate(starts):
            self._start_leg(i, 0.0, x, y)

    def set_leg(self, i: int, leg: Leg) -> None:
        """Put node i on `leg`."""
        self._legs[i] = leg
        self.legs[i] = leg

    def _start_leg(self, i: int, t0: float, x0: float, y0: float) -> Leg:
        """Draw node i's leg that starts at t0 from (x0, y0)."""
        rng = self.rngs[i]
        pts = self.patrol.get(i)
        if pts is None:
            wx = rng.uniform(0.0, self.terrain[0])
            wy = rng.uniform(0.0, self.terrain[1])
            leg = make_leg(t0, x0, y0, wx, wy, rng.uniform(*self.speed_range))
        elif len(pts) == 1 and (x0, y0) == pts[0]:
            # a one-point patrol loop: the node parks there for good, and
            # with no pause would otherwise draw zero-length legs forever
            leg = Leg(t0, x0, y0, x0, y0, 0.0, 0.0, math.inf)
        else:
            pts.append(pts.pop(0))
            speed = rng.uniform(self.controlled_speed_cap / 2.0, self.controlled_speed_cap)
            leg = make_leg(t0, x0, y0, *pts[-1], speed)
        self.set_leg(i, leg)
        return leg

    def _leg(self, i: int, t: float) -> Leg:
        """Node i's leg at time t, after drawing its legs that start at or
        before t."""
        if not (0 <= i < self.n):
            raise UnknownNode(f"no node {i}")
        leg = self._legs[i]
        if t < leg.t0:
            raise ValueError(f"query at {t} precedes node {i}'s leg from {leg.t0}")
        while leg.t_arr + self.pause_time <= t:
            leg = self._start_leg(i, leg.t_arr + self.pause_time, leg.wx, leg.wy)
        return leg

    def tick(self, t: float) -> None:
        """Draw every node's legs that start at or before t."""
        t0, *_, t_arr = self.legs.T
        if t < t0.max():
            raise ValueError(f"query at {t} precedes a node's current leg")
        for i in np.flatnonzero(t_arr + self.pause_time <= t).tolist():
            self._leg(i, t)

    def position_of(self, i: int, t: float) -> tuple[float, float]:
        """Position of node i at time t, bit for bit `positions_at(t)[i]`."""
        t0, x0, y0, wx, wy, _, rate, _ = self._leg(i, t)
        f = min((t - t0) * rate, 1.0)
        return x0 + (wx - x0) * f, y0 + (wy - y0) * f

    def positions_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions of all nodes at time t."""
        self.tick(t)
        t0, x0, y0, wx, wy, _, rate, _ = self.legs.T
        return _kernels.step_waypoints(t0, x0, y0, wx, wy, rate, t)

    def instantaneous_speed(self, node: int, t: float) -> float:
        leg = self._leg(node, t)
        return 0.0 if t >= leg.t_arr else leg.speed

    def speeds_at(self, t: float) -> dict[int, float]:
        self.tick(t)
        *_, speed, _, t_arr = self.legs.T
        return dict(enumerate(np.where(t >= t_arr, 0.0, speed).tolist()))
