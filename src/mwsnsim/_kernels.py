"""Numeric kernels: waypoint fleet stepping and all-pairs link power.

The engine steps the fleet with step_waypoints. It no longer calls
pair_power: radio.build_graph tests only the pairs its cell grid yields, and
the dense power matrix stays as the reference the graph tests compare
against. Both kernels are plain numpy.
"""

import numpy as np

BACKEND = "numpy"


def step_waypoints(px, py, wx, wy, speed, pause_until, now, dt):
    """Advance every node min(speed*dt, dist-to-waypoint) toward its waypoint.

    Positions are updated in place. Nodes with now < pause_until do not move.
    Returns arrival times: t_arr[i] = now + dist/speed for nodes that reach
    their waypoint during this step, -1.0 elsewhere.
    """
    n = px.shape[0]
    t_arr = np.full(n, -1.0)
    moving = pause_until <= now
    dx = wx - px
    dy = wy - py
    dist = np.sqrt(dx * dx + dy * dy)
    adv = speed * dt
    arrive = moving & (adv >= dist)
    partial = moving & ~arrive
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(dist > 0.0, adv / dist, 0.0)
    px[partial] += dx[partial] * frac[partial]
    py[partial] += dy[partial] * frac[partial]
    px[arrive] = wx[arrive]
    py[arrive] = wy[arrive]
    # within the arrive mask, dist > 0 implies speed > 0 (adv >= dist > 0)
    safe_speed = np.where(speed > 0.0, speed, 1.0)
    t_arr[arrive] = now + np.where(dist[arrive] > 0.0, dist[arrive] / safe_speed[arrive], 0.0)
    return t_arr


def pair_power(px, py, d_c, friis_coef, tworay_coef, eps):
    """All-pairs received power matrix under the two-branch path-loss law.

    friis_coef / d^2 below the crossover distance d_c, tworay_coef / d^4 at
    and beyond it. Distances below eps are clamped to eps (co-located nodes).
    Returns (power[n,n], dist[n,n]); the diagonal carries +inf power, 0 dist.
    """
    dx = px[:, None] - px[None, :]
    dy = py[:, None] - py[None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    d = np.maximum(dist, eps)
    power = np.where(d < d_c, friis_coef / (d * d), tworay_coef / (d * d * d * d))
    np.fill_diagonal(power, np.inf)
    np.fill_diagonal(dist, 0.0)
    return power, dist
