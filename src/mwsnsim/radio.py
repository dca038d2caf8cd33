"""Physical layer: two-ray ground reflection with the standard close-range
crossover to free space, threshold reception, and the connectivity graph.

Received power follows Friis (1/d^2) below the crossover distance
d_c = 4*pi*h_t*h_r / lambda and the two-ray law (1/d^4) at and beyond it;
the two branches coincide at d_c. Reception is a hard threshold on power,
which falls strictly with distance, so connectivity is a disc model (a unit
disk graph): two nodes link when d^2 <= r^2, r = range_for_threshold, the
rule in_disc states once. The path-loss law only fixes the threshold and r.

A uniform grid of cells whose side is the reception range yields the
candidate pairs of the connectivity graph (a fixed-radius near-neighbour
search; Bentley, Stanat & Williams, IPL 1977), and only those pairs go
through the disc test. Adjacency is built as compressed sparse rows and
kept as one tuple of neighbours per node.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np


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


def range_for_threshold(params: RadioParams) -> float:
    """Distance at which received power falls to the reception threshold,
    the inverse of received_power; inf when the threshold is 0."""
    thr = params.rx_threshold
    if thr == 0:
        return math.inf
    d_c = crossover_distance(params)
    tworay = tworay_coefficient(params)
    if thr <= tworay / (d_c * d_c * d_c * d_c):
        return (tworay / thr) ** 0.25
    return math.sqrt(friis_coefficient(params) / thr)


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


def _squared_distance(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def in_disc(point, centre, radius):
    """True when point lies in the closed disc about centre: a point at
    exactly the radius is inside. Coordinates may be floats or arrays, which
    are compared elementwise with the same arithmetic."""
    return _squared_distance(point, centre) <= radius * radius


def in_range(params: RadioParams, a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True when positions a and b are linked: build_graph's disc rule, so a
    link the graph holds is never refused at an unchanged distance."""
    return in_disc(a, b, range_for_threshold(params))


class ConnectivityGraph:
    """Undirected disc-model connectivity over a node subset.

    Built from compressed sparse rows: nodes holds the node ids ascending,
    and row k belongs to nodes[k], its neighbours being the rows
    indices[indptr[k]:indptr[k + 1]], ascending. Each row is kept as a
    tuple of neighbour ids, so traversals are deterministic; the ids in
    them are the objects of `nodes`, shared rather than copied.
    """

    def __init__(self, nodes: np.ndarray, indptr: np.ndarray, indices: np.ndarray):
        self.nodes: tuple[int, ...] = tuple(nodes.tolist())
        flat = np.array(self.nodes, dtype=object)[indices].tolist()
        bounds = indptr.tolist()
        self._rows: dict[int, tuple[int, ...]] = {
            node: tuple(flat[lo:hi]) for node, lo, hi in zip(self.nodes, bounds, bounds[1:])}

    def __contains__(self, node: int) -> bool:
        return node in self._rows

    @property
    def adj(self):
        """Read-only mapping from each node to its ascending neighbours."""
        return MappingProxyType(self._rows)

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._rows[node]

    def has_edge(self, a: int, b: int) -> bool:
        """Binary search for b in a's row; False when either id is absent."""
        row = self._rows.get(a, ())
        k = bisect_left(row, b)
        return k < len(row) and row[k] == b

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as (a, b) with a < b, sorted."""
        return [(a, b) for a, row in self._rows.items() for b in row if a < b]


# Cells are never smaller than this fraction of the layout's extent. That
# bounds the cell coordinates when the range is tiny against the layout, so
# the int64 cell keys cannot overflow and the rounding of a coordinate stays
# far below the 1e-9 slack of the cell side; larger cells only add
# candidates that the disc test rejects.
_MIN_CELL_FRACTION = 2.0 ** -20


def candidate_pairs(px: np.ndarray, py: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i != j, each unordered pair at most once, that
    include every two points within `reach` of each other.

    Points fall into square cells of side >= reach, so two such points share
    a cell or sit in adjacent ones. Each point is paired with the later
    points of its own cell and with every point of four of its cell's eight
    neighbours, which covers each adjacent pair of cells once. An infinite
    reach puts every point in one cell.
    """
    n = len(px)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    xy = np.array([px, py])
    xy -= xy.min(axis=1, keepdims=True)
    side = max(reach, float(xy.max()) * _MIN_CELL_FRACTION) or 1.0
    cx, cy = np.floor(xy / side).astype(np.int64)
    # one spare row per column, so the cy - 1 and cy + 1 neighbours of a
    # column's end cells land on no occupied cell of the next column
    ny = int(cy.max()) + 2
    key = cx * ny + cy
    order = np.argsort(key, kind="stable")
    key = key[order]
    # per point (in key order) the key ranges of its own cell, the next cell
    # of its column and the three cells of the next column
    target = (key[:, None] + np.array([0, 1, ny - 1, ny, ny + 1])).ravel()
    first = np.searchsorted(key, target, "left")
    first[::5] = np.arange(1, n + 1)
    size = np.searchsorted(key, target, "right") - first
    # the positions first[k], ..., first[k] + size[k] - 1, concatenated
    ends = np.cumsum(size)
    j = np.repeat(first - ends + size, size) + np.arange(ends[-1])
    return order.repeat(5).repeat(size), order[j]


def build_graph(ids, px: np.ndarray, py: np.ndarray, params: RadioParams) -> ConnectivityGraph:
    """Connectivity graph over the given nodes at the given positions.

    ids[i] is the node id whose position is (px[i], py[i]). An edge exists
    exactly when the two positions are in_disc at the reception range, the
    rule in_range applies; the relation is symmetric by construction. Only
    the candidate pairs of the cell grid are tested.
    """
    ids = np.asarray(ids, dtype=np.int64)
    by_id = np.argsort(ids, kind="stable")
    ids = ids[by_id]
    px = np.asarray(px, dtype=float)[by_id]
    py = np.asarray(py, dtype=float)[by_id]
    n = len(ids)
    r = range_for_threshold(params)
    i, j = candidate_pairs(px, py, r * (1.0 + 1e-9))
    linked = in_disc((px[i], py[i]), (px[j], py[j]), r)
    i = i[linked]
    j = j[linked]
    # row-major (row, column) codes of both directions of every edge; rows
    # are positions in the id-sorted order, so the sorted codes are the CSR
    codes = np.sort(np.concatenate([i * n + j, j * n + i]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
    return ConnectivityGraph(ids, indptr, codes % n)
