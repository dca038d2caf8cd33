"""Two-ray/free-space path loss, threshold reception, connectivity graph."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwsnsim
from mwsnsim import Simulation, validate_config
from mwsnsim.harness import run_header_text
from mwsnsim.radio import (
    RadioParams,
    build_graph,
    crossover_distance,
    in_range,
    offset_in_disc,
    params_for_range,
    range_for_threshold,
    received_power,
    threshold_for_range,
)


# NS-2's WaveLAN constants, written out here to evaluate the law independently
TX_POWER = 0.28183815  # W
WAVELENGTH = 299792458.0 / 914e6  # m


def _params(nominal=None):
    """Parameters whose threshold is threshold_for_range's at nominal, or no
    threshold (an infinite range) when nominal is None."""
    thr = 0.0 if nominal is None else threshold_for_range(RadioParams(0.0), nominal)
    return RadioParams(rx_threshold=thr)


def test_crossover_distance_reference_value():
    # 4*pi*1.5*1.5/lambda, evaluated independently
    expected = 4.0 * math.pi * 2.25 / WAVELENGTH
    assert expected == pytest.approx(86.2, abs=0.05)
    assert crossover_distance(_params()) == pytest.approx(expected, rel=1e-12)


def test_ground_reflection_branch_exact_value():
    # d=200 m is beyond the crossover: P_t * 2.25^2 / 200^4
    expected = TX_POWER * 5.0625 / 1.6e9
    assert expected == pytest.approx(8.918e-10, rel=1e-3)
    assert received_power(_params(), 200.0) == pytest.approx(expected, rel=1e-12)


def test_free_space_branch_hand_evaluated():
    # d=10 m is below the crossover: P_t * lambda^2 / (4*pi*10)^2
    expected = TX_POWER * WAVELENGTH ** 2 / (4.0 * math.pi * 10.0) ** 2
    assert expected == pytest.approx(1.92e-6, rel=1e-2)
    assert received_power(_params(), 10.0) == pytest.approx(expected, rel=1e-12)


def test_branches_agree_at_crossover():
    p = _params()
    dc = crossover_distance(p)
    friis = p.tx_power * p.tx_gain * p.rx_gain * p.wavelength ** 2 / ((4 * math.pi * dc) ** 2 * p.system_loss)
    tworay = p.tx_power * p.tx_gain * p.rx_gain * (p.antenna_height_tx * p.antenna_height_rx) ** 2 / (dc ** 4 * p.system_loss)
    assert friis == pytest.approx(tworay, rel=1e-9)
    assert received_power(p, dc) == pytest.approx(friis, rel=1e-9)


def test_monotone_decay_across_crossover():
    p = _params()
    ds = np.linspace(0.5, 1000.0, 4000)
    powers = [received_power(p, float(d)) for d in ds]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_quartic_and_quadratic_scaling():
    p = _params()
    # beyond d_c: doubling distance divides power by 16 exactly
    assert received_power(p, 200.0) / received_power(p, 400.0) == pytest.approx(16.0, rel=1e-12)
    # below d_c: by 4
    assert received_power(p, 10.0) / received_power(p, 20.0) == pytest.approx(4.0, rel=1e-12)


def test_threshold_for_range_makes_range_effective():
    tuned = _params(250.0)
    assert in_range(tuned, (0.0, 0.0), (200.0, 0.0))
    assert not in_range(tuned, (0.0, 0.0), (300.0, 0.0))


def test_zero_threshold_always_in_range():
    p = _params()
    assert in_range(p, (0.0, 0.0), (1e6, 1e6))


def test_colocated_nodes_in_range():
    assert in_range(_params(250.0), (5.0, 5.0), (5.0, 5.0))


def test_colocated_nodes_link_at_a_sub_micrometre_range():
    """Co-located nodes are at distance 0, inside every closed disc, however
    small its radius."""
    p = _params(1e-12)
    assert in_range(p, (5.0, 5.0), (5.0, 5.0))
    g = build_graph([0, 1], np.array([5.0, 5.0]), np.array([5.0, 5.0]), p)
    assert g.has_edge(0, 1)


def test_symmetry():
    p = _params(250.0)
    a, b = (10.0, 40.0), (190.0, 170.0)
    assert in_range(p, a, b) == in_range(p, b, a)


def _agrees_with_graph(p, a, b) -> bool:
    """in_range on two positions, read from arrays as the engine reads them,
    against the edge of the graph built over them."""
    px = np.array([a[0], b[0]])
    py = np.array([a[1], b[1]])
    g = build_graph([0, 1], px, py, p)
    return in_range(p, (px[0], py[0]), (px[1], py[1])) == g.has_edge(0, 1)


def test_in_range_agrees_with_graph_on_a_rounding_pair():
    """A pair 250 m apart up to rounding, where the hypot of math.dist and
    the graph's sqrt(dx*dx + dy*dy) fall on opposite sides of the range."""
    p = _params(250.0)
    assert _agrees_with_graph(p, (1509.5021550594522, 741.0891564079636),
                              (1736.2231661791989, 635.7440895237487))


@pytest.mark.parametrize("nominal", [80.0, 100.0, 250.0, 300.0, 400.0, 420.0, 450.0, 500.0,
                                     600.0, 700.0, 800.0, 900.0])
def test_pairs_at_the_range_and_one_ulp_beyond(nominal):
    """At the round ranges of the shipped configs and the tests, the range r
    implied by the threshold is the nominal range exactly, and a pair placed
    r apart links. At r and at the next float beyond it, in_range and
    has_edge give the same answer."""
    p = params_for_range(nominal)
    r = range_for_threshold(p)
    assert r == nominal
    assert in_range(p, (100.0, 100.0), (100.0 + r, 100.0))
    for d in (r, math.nextafter(r, math.inf)):
        assert _agrees_with_graph(p, (0.0, 0.0), (d, 0.0)), d
        assert _agrees_with_graph(p, (100.0, 100.0), (100.0, 100.0 + d)), d


def test_every_decimetre_range_links_a_pair_at_that_range():
    """The path-loss round trip from the nominal range to the threshold and
    back lands one ulp short at some ranges (31.6 m among them); the link
    radius is never below the nominal range, at every range from 0.1 to
    3000 m in 0.1 m steps."""
    short = [tenths / 10 for tenths in range(1, 30001)
             if params_for_range(tenths / 10).reach < tenths / 10]
    assert short == []


def test_two_nodes_exactly_at_a_short_round_trip_range_link():
    """31.6 m is a range whose round trip lands short: two nodes placed
    exactly that far apart share an edge, and in_range agrees."""
    cfg = validate_config({"radio": {"nominal_range": 31.6}})
    p = params_for_range(31.6)
    assert p.reach == 31.6
    g = build_graph([0, 1], np.array([0.0, 31.6]), np.array([0.0, 0.0]), p)
    assert g.has_edge(0, 1)
    assert in_range(p, (0.0, 0.0), (31.6, 0.0))
    assert "effective_radio_range_m: 31.6\n" in run_header_text(cfg, [1], ["mdlps"])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from([80.0, 250.0, 800.0, 900.0]), st.sampled_from([-1e-13, 0.0, 1e-13]),
       st.floats(0.0, 2000.0), st.floats(0.0, 2000.0), st.floats(0.0, 2 * math.pi))
def test_in_range_agrees_with_graph_at_the_range(nominal, offset, x, y, angle):
    """Pairs placed at the nominal range, or a hair either side of it: the
    slot-time link check and the frame-start graph give the same answer."""
    p = _params(nominal)
    d = nominal + offset
    assert _agrees_with_graph(p, (x, y), (x + d * math.cos(angle), y + d * math.sin(angle)))


def test_two_nodes_at_half_range_share_an_edge():
    p = _params(250.0)
    g = build_graph([0, 1], np.array([0.0, 125.0]), np.array([0.0, 0.0]), p)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.edges() == [(0, 1)]
    assert g.neighbors(0) == [1] and g.neighbors(1) == [0]


def test_graph_matches_brute_force_all_pairs():
    """The built edge set equals the O(n^2) definition applied directly."""
    rng = np.random.default_rng(12)
    n = 22
    px = rng.uniform(0, 2000, n)
    py = rng.uniform(0, 2000, n)
    p = _params(420.0)
    r = range_for_threshold(p)
    g = build_graph(list(range(n)), px, py, p)
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = px[i] - px[j], py[i] - py[j]
            assert g.has_edge(i, j) == (dx * dx + dy * dy <= r * r), (i, j, dx, dy)
    for node in range(n):
        assert list(g.neighbors(node)) == sorted(g.neighbors(node))


def test_separated_clusters_are_disconnected_components():
    p = _params(100.0)
    px = np.array([0.0, 10.0, 20.0, 1500.0, 1510.0])
    py = np.zeros(5)
    g = build_graph([0, 1, 2, 3, 4], px, py, p)
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(3, 4)
    assert not g.has_edge(2, 3)


def _dense_edges(ids, px, py, p):
    """Edge set by the dense distance rule d^2 <= r^2 over all pairs."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    dx = px[:, None] - px[None, :]
    dy = py[:, None] - py[None, :]
    r = range_for_threshold(p)
    i, j = np.nonzero(np.triu(dx * dx + dy * dy <= r * r, k=1))
    return {tuple(sorted((ids[a], ids[b]))) for a, b in zip(i.tolist(), j.tolist())}


@st.composite
def _layouts(draw):
    """Node layouts whose coordinates are often quarter steps of the range,
    so pairs sit exactly at the range and nodes share positions; unsorted
    gapped ids; ranges from tiny to wider than the layout, or no threshold."""
    n = draw(st.integers(0, 30))
    nominal = draw(st.sampled_from([1e-12, 0.5, 10.0, 86.0, 250.0, 800.0, 5000.0, None]))
    step = (nominal or 250.0) / 4
    coord = st.one_of(st.integers(0, 40).map(lambda k: k * step),
                      st.floats(0.0, 2000.0, allow_nan=False))
    px = [draw(coord) for _ in range(n)]
    py = [draw(coord) for _ in range(n)]
    ids = draw(st.permutations(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n,
                                             unique=True))))
    return ids, np.array(px, dtype=float), np.array(py, dtype=float), _params(nominal)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_layouts())
def test_graph_edges_equal_dense_rule(layout):
    ids, px, py, p = layout
    g = build_graph(ids, px, py, p)
    expected = _dense_edges(ids, px, py, p)
    assert set(g.edges()) == expected
    assert g.nodes == tuple(sorted(ids))
    for node in ids:
        row = g.neighbors(node)
        assert list(row) == sorted(row)
        assert set(row) == ({b for a, b in expected if a == node}
                            | {a for a, b in expected if b == node})
        assert not g.has_edge(node, max(ids) + 1)
    assert not g.has_edge(-1, ids[0] if ids else 0)


@st.composite
def _frames_with_dead_nodes(draw):
    """A fleet of ids 0..n-1 placed as in _layouts, minus a drawn set of
    dead ids, which leaves gaps mid-range, as the engine's graph of the
    alive nodes has; with the dead ids and ids beyond the fleet as absent
    ids to query."""
    n = draw(st.integers(1, 30))
    nominal = draw(st.sampled_from([10.0, 86.0, 250.0, 800.0]))
    coord = st.one_of(st.integers(0, 40).map(lambda k: k * nominal / 4),
                      st.floats(0.0, 2000.0, allow_nan=False))
    px = np.array([draw(coord) for _ in range(n)])
    py = np.array([draw(coord) for _ in range(n)])
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    alive = [i for i in range(n) if i not in dead]
    absent = sorted(dead) + [n, n + 1, -1]
    p = _params(nominal)
    return alive, px[alive], py[alive], p, absent


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_frames_with_dead_nodes())
def test_rows_edges_adj_and_membership_agree(frame):
    """neighbors, has_edge, edges(), adj and `in` describe one graph, the
    dense rule's, over gapped ids; absent ids are in no row and no edge."""
    alive, px, py, p, absent = frame
    g = build_graph(alive, px, py, p)
    expected = _dense_edges(alive, px, py, p)
    assert g.edges() == sorted(expected)
    assert list(g.adj) == alive
    rows = {node: g.neighbors(node) for node in alive}
    for node, row in rows.items():
        assert node in g
        assert all(a < b for a, b in zip(row, row[1:]))
        assert g.adj[node] == tuple(row)
    assert {(a, b) for a, row in rows.items() for b in row if a < b} == expected
    for a in alive + absent:
        for b in alive + absent:
            assert g.has_edge(a, b) == g.has_edge(b, a) == ((min(a, b), max(a, b)) in expected)
    for node in absent:
        assert node not in g
        with pytest.raises(KeyError):
            g.neighbors(node)


def test_pairs_at_the_range_are_found_across_cell_boundaries():
    """A pair exactly one range apart is found wherever it sits against the
    cell boundaries, including a hair below one."""
    nominal = 250.0
    p = _params(nominal)
    found = 0
    for f in np.linspace(-5e-9, 5e-9, 101):
        a = 3.0 * nominal * (1.0 + f)
        px = np.array([0.0, a, a + nominal])
        g = build_graph([0, 1, 2], px, np.zeros(3), p)
        assert set(g.edges()) == _dense_edges([0, 1, 2], px, np.zeros(3), p), f
        found += g.has_edge(1, 2)
    assert found > 0


def _box_in_disc(px, py, p):
    """The layout's bounding box passes the disc test at the reception
    range. engine.terrain_links_every_pair applies this test to the
    terrain's box; its premise, that monotone rounding keeps every pair's
    squared offset within the box's, is what the tests below check."""
    return bool(offset_in_disc(px.max() - px.min(), py.max() - py.min(), p.reach))


@st.composite
def _boxes_at_the_range(draw):
    """Small layouts whose bounding box spans exactly the range, or one ulp
    more, on one axis and nothing or a fraction of the range on the other;
    the remaining nodes lie inside the box: the edge cases of
    terrain_links_every_pair's monotone-rounding premise."""
    p = params_for_range(draw(st.sampled_from([31.6, 86.0, 250.0, 800.0, 900.0])))
    r = p.reach
    span = draw(st.sampled_from([r, math.nextafter(r, math.inf)]))
    other = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25, 0.5])) * r
    lo = draw(st.one_of(st.just(0.0), st.integers(0, 8).map(lambda k: k * r / 4),
                        st.floats(0.0, 2000.0)))
    lo_other = draw(st.floats(0.0, 2000.0))
    inside = st.floats(0.0, 1.0)
    n = draw(st.integers(0, 6))
    a = np.array([lo, lo + span] + [lo + draw(inside) * span for _ in range(n)])
    b = np.array([lo_other + draw(inside) * other for _ in range(n + 2)])
    return (a, b, p) if draw(st.booleans()) else (b, a, p)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_boxes_at_the_range())
def test_a_box_in_the_disc_proves_every_pair_linked(layout):
    """Rounding is monotone, so no pair's squared offset exceeds the box's:
    when the box passes the disc test, build_graph links every pair."""
    px, py, p = layout
    if _box_in_disc(px, py, p):
        n = len(px)
        assert len(build_graph(list(range(n)), px, py, p).edges()) == n * (n - 1) // 2


def test_two_nodes_exactly_the_range_apart_prove_a_complete_frame():
    """A box whose one axis spans exactly the range, the other nothing, is
    a pair at the range: the closed disc holds it, on either axis."""
    for nominal in (31.6, 250.0, 900.0):
        p = params_for_range(nominal)
        for px, py in ((np.array([0.0, p.reach]), np.full(2, 7.0)),
                       (np.full(2, 7.0), np.array([0.0, p.reach]))):
            assert _box_in_disc(px, py, p) and build_graph([0, 1], px, py, p).has_edge(0, 1)


def test_range_for_threshold_without_threshold_is_infinite():
    assert range_for_threshold(_params()) == math.inf


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.floats(1e-3, 1e5), st.sampled_from([86.0, 86.2, 86.3])))
def test_range_for_threshold_inverts_threshold_for_range(nominal):
    assert range_for_threshold(_params(nominal)) == pytest.approx(nominal, rel=1e-12)


def test_a_run_computes_its_range_once_per_parameter_set(monkeypatch):
    """Every graph build and every link test of a run reads the range its
    RadioParams computed once, not range_for_threshold again."""
    asked = []
    compute = mwsnsim.radio.range_for_threshold

    def counted(params):
        asked.append(params)
        return compute(params)

    monkeypatch.setattr(mwsnsim.radio, "range_for_threshold", counted)
    trace = Simulation(validate_config({}), seed=1, scheme="mdlps").run()
    assert any(rec["k"] == "tx" for rec in trace)  # links were tested
    assert asked and len({id(p) for p in asked}) == len(asked)


def test_simulation_does_not_import_scipy():
    """The engine's graph and routing run on numpy alone: scipy costs tens
    of megabytes of resident memory per process."""
    code = ("import sys, mwsnsim\n"
            "from mwsnsim import Simulation, validate_config\n"
            "Simulation(validate_config({'session_duration': 12.0}), seed=1).run()\n"
            "print('scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(mwsnsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
