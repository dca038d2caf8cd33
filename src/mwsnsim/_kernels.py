"""Numeric kernels: waypoint fleet stepping and all-pairs link power.

The engine steps the fleet with step_waypoints. It no longer calls
pair_power: radio.build_graph tests only the pairs its cell grid yields, and
the dense power matrix stays as the reference the graph tests compare
against.

Both kernels exist twice: a numba @njit version and a pure-numpy fallback.
The backend is chosen once at import from the MWSNSIM_BACKEND environment
variable ("numba" or "numpy"); default is numba when importable. The two
implementations compute the same expressions in the same order so results
agree to float precision (tests pin this).
"""

import os

import numpy as np

_requested = os.environ.get("MWSNSIM_BACKEND", "").strip().lower()

if _requested not in ("", "numba", "numpy"):
    raise RuntimeError(f"MWSNSIM_BACKEND must be 'numba' or 'numpy', got {_requested!r}")

_use_numba = _requested != "numpy"
if _use_numba:
    try:
        from numba import njit
    except ImportError:
        if _requested == "numba":
            raise
        _use_numba = False

BACKEND = "numba" if _use_numba else "numpy"


def _step_waypoints_py(px, py, wx, wy, speed, pause_until, now, dt):
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


def _step_waypoints_jit(px, py, wx, wy, speed, pause_until, now, dt):
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


def _pair_power_py(px, py, d_c, friis_coef, tworay_coef, eps):
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


def _pair_power_jit(px, py, d_c, friis_coef, tworay_coef, eps):
    n = px.shape[0]
    power = np.empty((n, n))
    dist = np.empty((n, n))
    for i in range(n):
        power[i, i] = np.inf
        dist[i, i] = 0.0
        for j in range(i + 1, n):
            dx = px[i] - px[j]
            dy = py[i] - py[j]
            dd = np.sqrt(dx * dx + dy * dy)
            d = dd if dd > eps else eps
            if d < d_c:
                p = friis_coef / (d * d)
            else:
                p = tworay_coef / (d * d * d * d)
            power[i, j] = p
            power[j, i] = p
            dist[i, j] = dd
            dist[j, i] = dd
    return power, dist


if _use_numba:
    step_waypoints = njit(cache=True)(_step_waypoints_jit)
    pair_power = njit(cache=True)(_pair_power_jit)
else:
    step_waypoints = _step_waypoints_py
    pair_power = _pair_power_py

# Named implementations kept importable for the benchmark and backend tests.
step_waypoints_numpy = _step_waypoints_py
pair_power_numpy = _pair_power_py
