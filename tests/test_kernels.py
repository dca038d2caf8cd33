"""The dense all-pairs power kernel that the graph tests use as their
reference."""

import numpy as np

from mwsnsim import _kernels


def test_pair_power_clamps_colocated_nodes():
    px = np.array([5.0, 5.0])
    py = np.array([9.0, 9.0])
    power, dist = _kernels.pair_power(px, py, 86.0, 1.0, 1.0, 1e-6)
    assert dist[0, 1] == 0.0
    assert np.isfinite(power[0, 1]) and power[0, 1] > 0
