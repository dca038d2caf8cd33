"""Physical layer: two-ray ground reflection with the standard close-range
crossover to free space, threshold reception, and the connectivity graph.

Received power follows Friis (1/d^2) below the crossover distance
d_c = 4*pi*h_t*h_r / lambda and the two-ray law (1/d^4) at and beyond it;
the two branches coincide at d_c. Reception is a hard threshold on power,
which makes connectivity a deterministic disc model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels

# distance clamp for co-located nodes when evaluating link power
EPS_DISTANCE = 1e-6


class ZeroDistance(Exception):
    pass


@dataclass(frozen=True)
class RadioParams:
    tx_power: float = 0.28183815
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    antenna_height_tx: float = 1.5
    antenna_height_rx: float = 1.5
    system_loss: float = 1.0
    wavelength: float = 0.328
    rx_threshold: float = 3.652e-10

    def __post_init__(self):
        for name in ("tx_power", "tx_gain", "rx_gain", "antenna_height_tx",
                     "antenna_height_rx", "wavelength"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.system_loss < 1.0:
            raise ValueError("system_loss must be >= 1")
        if self.rx_threshold < 0:
            raise ValueError("rx_threshold must be non-negative")


def crossover_distance(params: RadioParams) -> float:
    """Distance where the free-space and two-ray branches coincide."""
    return 4.0 * math.pi * params.antenna_height_tx * params.antenna_height_rx / params.wavelength


def friis_coefficient(params: RadioParams) -> float:
    """Numerator of the free-space branch: received power = coef / d^2."""
    return (params.tx_power * params.tx_gain * params.rx_gain * params.wavelength ** 2
            / ((4.0 * math.pi) ** 2 * params.system_loss))


def tworay_coefficient(params: RadioParams) -> float:
    """Numerator of the ground-reflection branch: received power = coef / d^4."""
    return (params.tx_power * params.tx_gain * params.rx_gain
            * params.antenna_height_tx ** 2 * params.antenna_height_rx ** 2
            / params.system_loss)


def received_power(params: RadioParams, d: float) -> float:
    """Received power in watts at distance d (meters)."""
    if d == 0:
        raise ZeroDistance("received power undefined at zero distance")
    if d < 0:
        raise ValueError("distance must be positive")
    if d < crossover_distance(params):
        return friis_coefficient(params) / (d * d)
    return tworay_coefficient(params) / (d * d * d * d)


def threshold_for_range(params: RadioParams, nominal_range: float) -> float:
    """Reception threshold that makes the effective radio range equal
    nominal_range under these parameters."""
    if nominal_range <= 0:
        raise ValueError("nominal_range must be positive")
    return received_power(params, nominal_range)


def params_for_range(section: dict, wavelength: float) -> RadioParams:
    """Parameters from a config's radio section, with the reception threshold
    set so the effective range equals section["nominal_range"]."""
    base = RadioParams(
        tx_power=section["tx_power"], tx_gain=section["tx_gain"], rx_gain=section["rx_gain"],
        antenna_height_tx=section["antenna_height_tx"],
        antenna_height_rx=section["antenna_height_rx"],
        system_loss=section["system_loss"], wavelength=wavelength, rx_threshold=1.0,
    )
    return replace(base, rx_threshold=threshold_for_range(base, section["nominal_range"]))


def in_range(params: RadioParams, a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True when received power between positions a and b meets the threshold.

    Co-located nodes are treated as separated by a tiny epsilon distance.
    """
    d = math.dist(a, b)
    if d < EPS_DISTANCE:
        d = EPS_DISTANCE
    return received_power(params, d) >= params.rx_threshold


@dataclass
class ConnectivityGraph:
    """Undirected disc-model connectivity over a node subset.

    Adjacency lists are sorted ascending so traversals are deterministic.
    """

    nodes: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]
    _dist: dict[tuple[int, int], float] = field(default_factory=dict)

    def __contains__(self, node: int) -> bool:
        return node in self.adj

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self.adj[node]

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self._dist if a < b else (b, a) in self._dist

    def edge_distance(self, a: int, b: int) -> float:
        return self._dist[(a, b) if a < b else (b, a)]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._dist)


def build_graph(ids, px: np.ndarray, py: np.ndarray, params: RadioParams) -> ConnectivityGraph:
    """Connectivity graph over the given nodes at the given positions.

    ids[i] is the node id whose position is (px[i], py[i]). An edge exists
    exactly when link power meets the reception threshold; the relation is
    symmetric by construction.
    """
    ids = tuple(ids)
    n = len(ids)
    adj: dict[int, list[int]] = {node: [] for node in ids}
    dist: dict[tuple[int, int], float] = {}
    if n > 1:
        power, dmat = _kernels.pair_power(
            px, py, crossover_distance(params), friis_coefficient(params),
            tworay_coefficient(params), EPS_DISTANCE,
        )
        connected = np.triu(power >= params.rx_threshold, k=1)
        for i, j in zip(*np.nonzero(connected)):
            a, b = ids[i], ids[j]
            adj[a].append(b)
            adj[b].append(a)
            dist[(a, b) if a < b else (b, a)] = float(dmat[i, j])
    return ConnectivityGraph(
        nodes=ids,
        adj={node: tuple(sorted(neigh)) for node, neigh in adj.items()},
        _dist=dist,
    )
