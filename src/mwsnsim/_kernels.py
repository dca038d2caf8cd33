"""Numeric kernels: fleet positions on waypoint legs and all-pairs link
power.

`MobilityField.positions_at` evaluates the fleet with step_waypoints.
Nothing in the package calls pair_power: links are radio.offset_in_disc on
the candidate pairs of radio.build_graph's cell grid, and the graph tests'
dense reference is the distance rule. pair_power stays only because the
perfbench layer spans wrap it by name. Both kernels are plain numpy.
"""

import numpy as np

BACKEND = "numpy"


def step_waypoints(t0, x0, y0, wx, wy, rate, t):
    """Closed-form positions at time t of nodes on straight legs.

    Node i left (x0[i], y0[i]) at t0[i] toward (wx[i], wy[i]) and covers the
    fraction rate[i] of its leg per second; it stops at the waypoint.
    Returns (px, py) = start + (waypoint - start) * min((t - t0) * rate, 1).
    """
    f = np.minimum((t - t0) * rate, 1.0)
    return x0 + (wx - x0) * f, y0 + (wy - y0) * f


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
