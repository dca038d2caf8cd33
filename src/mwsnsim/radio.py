"""Physical layer: two-ray ground reflection with the standard close-range
crossover to free space, threshold reception, and the connectivity graph.

Received power follows Friis (1/d^2) below the crossover distance
d_c = 4*pi*h_t*h_r / lambda and the two-ray law (1/d^4) at and beyond it;
the two branches coincide at d_c. Reception is a hard threshold on power,
which falls strictly with distance, so connectivity is a disc model (a unit
disk graph): two nodes link when d^2 <= r^2, r = range_for_threshold (kept
per parameter set as RadioParams.reach), the rule in_disc states once.

As in NS-2, a scenario sets the range and the threshold is derived from it:
params_for_range takes the configured nominal range alone, and the other
constants are RadioParams class constants, NS-2's WaveLAN values (914 MHz,
0.28183815 W, unit gains, 1.5 m antennas, no system loss). The path-loss
law only fixes the reported threshold and r.

A uniform grid of cells whose side is the reception range yields the
candidate pairs of the connectivity graph (a fixed-radius near-neighbour
search; Bentley, Stanat & Williams, IPL 1977), and only those pairs go
through the disc test, on coordinate differences worked in place. Adjacency
is built as compressed sparse rows with numpy and kept as two flat Python
lists, the row bounds and every row's neighbour ids one after another.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class RadioParams:
    tx_power: ClassVar[float] = 0.28183815
    tx_gain: ClassVar[float] = 1.0
    rx_gain: ClassVar[float] = 1.0
    antenna_height_tx: ClassVar[float] = 1.5
    antenna_height_rx: ClassVar[float] = 1.5
    system_loss: ClassVar[float] = 1.0
    wavelength: ClassVar[float] = 299792458.0 / 914e6  # the speed of light over 914 MHz
    rx_threshold: float

    @cached_property
    def reach(self) -> float:
        """range_for_threshold(self), computed on first use and then kept."""
        return range_for_threshold(self)


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
    """Received power in watts at distance d > 0 (meters)."""
    if d < crossover_distance(params):
        return friis_coefficient(params) / (d * d)
    return tworay_coefficient(params) / (d * d * d * d)


def threshold_for_range(params: RadioParams, nominal_range: float) -> float:
    """Reception threshold that makes the effective radio range equal
    nominal_range > 0 under these parameters."""
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


def params_for_range(nominal_range: float) -> RadioParams:
    """The parameters whose reception threshold makes the effective range
    `reach` nominal_range, or a float just above it where the law's round
    trip lands short: a pair at exactly the nominal range always links."""
    # the law reads only the class constants, so any threshold serves here
    params = RadioParams(rx_threshold=threshold_for_range(RadioParams(0.0), nominal_range))
    # a lower threshold only lengthens the range; an infinite one stays, for
    # config to refuse
    while params.reach < nominal_range and math.isfinite(params.rx_threshold):
        params = RadioParams(rx_threshold=math.nextafter(params.rx_threshold, 0.0))
    return params


def _squared_norm(dx, dy):
    """dx * dx + dy * dy. Arrays are worked on in place: dx becomes the
    result and dy its own square, so pass differences that are not needed
    again. Floats give the same arithmetic."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _squared_distance(a, b):
    return _squared_norm(a[0] - b[0], a[1] - b[1])


def offset_in_disc(dx, dy, radius):
    """True when the offset (dx, dy) from a disc's centre lies in the closed
    disc: a point at exactly the radius is inside. Arrays are compared
    elementwise, and overwritten as _squared_norm says."""
    return _squared_norm(dx, dy) <= radius * radius


def in_disc(point, centre, radius):
    """True when point lies in the closed disc about centre, the rule
    offset_in_disc states. Coordinates may be floats or arrays."""
    return offset_in_disc(point[0] - centre[0], point[1] - centre[1], radius)


def in_range(params: RadioParams, a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True when positions a and b are linked: build_graph's disc rule, so a
    link the graph holds is never refused at an unchanged distance."""
    return in_disc(a, b, params.reach)


class ConnectivityGraph:
    """Undirected disc-model connectivity over a node subset.

    Compressed sparse rows over flat Python lists: nodes holds the node ids
    ascending, and row k belongs to nodes[k], its neighbours being the ids
    neighbours[indptr[k]:indptr[k + 1]], ascending, so traversals are
    deterministic. The ids in `neighbours` are the objects of `nodes`,
    shared rather than copied. `row` maps each node to its row number.
    """

    def __init__(self, nodes: np.ndarray, indptr: np.ndarray, indices: np.ndarray):
        """Rows from numpy CSR arrays; indices holds row numbers, not ids."""
        self.nodes: tuple[int, ...] = tuple(nodes.tolist())
        self.indptr: list[int] = indptr.tolist()
        self.neighbours: list[int] = np.array(self.nodes, dtype=object)[indices].tolist()
        self.row: dict[int, int] = dict(zip(self.nodes, range(len(self.nodes))))

    def __contains__(self, node: int) -> bool:
        return node in self.row

    @cached_property
    def adj(self):
        """Read-only mapping from each node to the tuple of its ascending
        neighbours, made on first use."""
        flat, bounds = self.neighbours, self.indptr
        return MappingProxyType({node: tuple(flat[lo:hi])
                                 for node, lo, hi in zip(self.nodes, bounds, bounds[1:])})

    def neighbors(self, node: int) -> list[int]:
        """A fresh list of node's neighbours, ascending; KeyError when the
        node is absent."""
        k = self.row[node]
        return self.neighbours[self.indptr[k]:self.indptr[k + 1]]

    def has_edge(self, a: int, b: int) -> bool:
        """Binary search for b in a's row; False when either id is absent."""
        k = self.row.get(a)
        if k is None:
            return False
        lo, hi = self.indptr[k], self.indptr[k + 1]
        at = bisect_left(self.neighbours, b, lo, hi)
        return at < hi and self.neighbours[at] == b

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as (a, b) with a < b, sorted."""
        flat, bounds = self.neighbours, self.indptr
        return [(a, b) for a, lo, hi in zip(self.nodes, bounds, bounds[1:])
                for b in flat[lo:hi] if a < b]


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
    r = params.reach
    i, j = candidate_pairs(px, py, r * (1.0 + 1e-9))
    dx = px[i]
    dx -= px[j]
    dy = py[i]
    dy -= py[j]
    linked = np.flatnonzero(offset_in_disc(dx, dy, r))
    i = i[linked]
    j = j[linked]
    # row-major (row, column) codes of both directions of every edge; rows
    # are positions in the id-sorted order, so the sorted codes are the CSR
    m = len(i)
    codes = np.empty(2 * m, dtype=np.int64)
    np.multiply(i, n, out=codes[:m])
    codes[:m] += j
    np.multiply(j, n, out=codes[m:])
    codes[m:] += i
    codes.sort()
    indptr = np.searchsorted(codes, np.arange(n + 1) * n)
    codes %= n
    return ConnectivityGraph(ids, indptr, codes)
