"""Priority-index math, comparator chain, network ranking, slot allocation,
and the cluster-head importance merge."""

import math

import numpy as np
import pytest

from helpers import assigned_nodes, rank_candidates
from mwsnsim.config import DEFAULTS
from mwsnsim.mobility import MobilityClass
from mwsnsim.scheduler import (
    Candidate,
    FlowParams,
    FrozenGrid,
    GATE_SENTINEL,
    Network,
    PriorityTuple,
    SlotGrid,
    allocate_slots,
    assign_clusters,
    compute_pi_data,
    compute_pi_mdlps,
    compute_ulb,
    fill_positions,
    global_importance_ranking,
    in_disc,
    nearest,
    network_priority,
    pdr_gate,
    tuple_key,
)

FLOW = FlowParams(desired_pdr=0.9, pdr_threshold=0.25, deadline_budget=5.0)
# the stock density and bandwidth weights of network ranking
WEIGHTS = (DEFAULTS["options"]["density_weight"], DEFAULTS["options"]["bandwidth_weight"])


# laxity budget -------------------------------------------------------------

def test_ulb_basic():
    assert compute_ulb(10.0, 2.0, 3) == pytest.approx(1.0, abs=1e-15)


def test_ulb_zero_hops_is_raw_slack():
    assert compute_ulb(10.0, 2.0, 0) == pytest.approx(8.0, abs=1e-15)


def test_ulb_expired_is_zero():
    assert compute_ulb(10.0, 10.0, 2) == 0.0
    assert compute_ulb(10.0, 12.0, 2) == 0.0


def test_ulb_negative_hops_rejected():
    with pytest.raises(ValueError):
        compute_ulb(10.0, 2.0, -1)


def test_ulb_halving_quick():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = float(rng.uniform(0, 100))
        t = float(rng.uniform(0, 100))
        h = int(rng.integers(0, 30))
        assert compute_ulb(d, t, h + 1) == pytest.approx(compute_ulb(d, t, h) / 2.0, abs=1e-12)


# priority index ------------------------------------------------------------

def test_pi_mdlps_worked_example():
    # (0.8 / 0.9) * 1.0 * (1 / 2.0) * 1.0
    assert compute_pi_mdlps(0.8, FLOW, 1.0, 2.0, 1.0) == pytest.approx(0.4444444444444444, abs=1e-12)


def test_pi_mdlps_identity_case():
    assert compute_pi_mdlps(0.9, FLOW, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_pi_mdlps_inverse_in_velocity():
    lo = compute_pi_mdlps(0.8, FLOW, 1.0, 2.0, 1.0)
    hi = compute_pi_mdlps(0.8, FLOW, 1.0, 4.0, 1.0)
    assert hi == pytest.approx(lo / 2.0, rel=1e-12)


def test_pi_mdlps_monotonicity():
    base = compute_pi_mdlps(0.5, FLOW, 1.0, 2.0, 1.5)
    assert compute_pi_mdlps(0.6, FLOW, 1.0, 2.0, 1.5) > base
    assert compute_pi_mdlps(0.5, FLOW, 1.5, 2.0, 1.5) > base
    assert compute_pi_mdlps(0.5, FLOW, 1.0, 2.0, 2.0) > base
    assert compute_pi_mdlps(0.5, FLOW, 1.0, 3.0, 1.5) < base


def test_gate_below_threshold_is_sentinel():
    assert pdr_gate(0.5, 0.2, FLOW) == GATE_SENTINEL
    assert compute_pi_mdlps(0.2, FLOW, 1.0, 2.0, 1.0) == GATE_SENTINEL


def test_gate_boundary_passes():
    assert pdr_gate(0.5, 0.25, FLOW) == 0.5


def test_gate_above_threshold_unchanged():
    assert pdr_gate(0.7, 0.9, FLOW) == 0.7


def test_gated_packet_never_beats_ungated():
    gated = Candidate(node=0, pi=GATE_SENTINEL, mob_class=MobilityClass.V_H, batt_level=1)
    weak = Candidate(node=1, pi=1e9, mob_class=MobilityClass.V_L, batt_level=0)
    assert rank_candidates([gated, weak])[0] is weak


def test_pi_data_reciprocal():
    assert compute_pi_data(1.0) == 1.0
    assert compute_pi_data(0.5) == 2.0
    assert compute_pi_data(0.25) == 4.0


def test_pi_data_rejects_nonpositive():
    with pytest.raises(ValueError):
        compute_pi_data(0.0)


def test_most_important_data_wins():
    a = Candidate(node=0, pi=compute_pi_data(1.0))
    b = Candidate(node=1, pi=compute_pi_data(0.5))
    assert rank_candidates([b, a])[0] is a


def test_higher_mobility_breaks_importance_tie():
    slow = Candidate(node=0, pi=2.0, mob_class=MobilityClass.V_L, batt_level=1)
    fast = Candidate(node=1, pi=2.0, mob_class=MobilityClass.V_H, batt_level=1)
    assert rank_candidates([slow, fast])[0] is fast


def test_battery_band_breaks_remaining_tie():
    low_band = Candidate(node=5, pi=2.0, mob_class=MobilityClass.V_M, batt_level=1)
    high_band = Candidate(node=1, pi=2.0, mob_class=MobilityClass.V_M, batt_level=3)
    below = Candidate(node=0, pi=2.0, mob_class=MobilityClass.V_M, batt_level=0)
    ranked = rank_candidates([high_band, below, low_band])
    assert [c.node for c in ranked] == [5, 1, 0]


def test_node_id_is_final_tiebreak():
    a = Candidate(node=3, pi=2.0, mob_class=MobilityClass.V_M, batt_level=2)
    b = Candidate(node=7, pi=2.0, mob_class=MobilityClass.V_M, batt_level=2)
    assert rank_candidates([b, a])[0] is a


def test_first_above_threshold_band_wins_through_the_index():
    """Nodes identical in every other input: the battery factor alone orders
    them, and the node just above the hard threshold takes the slot."""
    from mwsnsim.energy import BatteryState, battery_factor, battery_level

    def candidate(node, level):
        st = BatteryState(level=level, initial=50.0, hard_threshold=10.0,
                          levels_above=3, level_penalty=0.25)
        pi = compute_pi_mdlps(0.8, FLOW, 1.0, 2.0, battery_factor(st))
        return Candidate(node=node, pi=pi, mob_class=MobilityClass.V_M,
                         batt_level=battery_level(st))

    first_band = candidate(0, 12.0)   # just above the threshold
    top_band = candidate(1, 50.0)     # full battery waits
    draining = candidate(2, 4.0)      # below the hard threshold
    ranked = rank_candidates([top_band, draining, first_band])
    assert [c.node for c in ranked] == [0, 1, 2]


def _independent_compare(a: Candidate, b: Candidate) -> int:
    """Reference comparator written out pairwise, independent of the key
    encoding used by the implementation."""
    if a.pi != b.pi:
        return -1 if a.pi < b.pi else 1
    if a.mob_class != b.mob_class:
        return -1 if int(a.mob_class) > int(b.mob_class) else 1
    if a.batt_level != b.batt_level:
        if a.batt_level == 0:
            return 1
        if b.batt_level == 0:
            return -1
        return -1 if a.batt_level < b.batt_level else 1
    if a.node != b.node:
        return -1 if a.node < b.node else 1
    return 0


def _selection_sort(cands):
    pool = list(cands)
    out = []
    while pool:
        best = pool[0]
        for c in pool[1:]:
            if _independent_compare(c, best) < 0:
                best = c
        pool.remove(best)
        out.append(best)
    return out


def test_ranking_matches_brute_force_quick():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 26))
        cands = [
            Candidate(
                node=i,
                pi=float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 10)])),
                mob_class=MobilityClass(int(rng.integers(0, 3))),
                batt_level=int(rng.integers(0, 4)),
            )
            for i in range(n)
        ]
        assert rank_candidates(cands) == _selection_sort(cands)


# network ranking -----------------------------------------------------------

def test_density_dominates_when_weighted_alone():
    nets = [Network("A", 1e6, (0, 1, 2, 3, 4)), Network("B", 1e6, (5, 6))]
    pos = {i: (0.0, 0.0) for i in range(5)}
    pos.update({5: (1.0, 0.0), 6: (2000.0, 2000.0)})
    ranks, flagged = network_priority(nets, pos, (0.0, 0.0), 10.0, w_density=1.0, w_bandwidth=0.0)
    assert ranks == {"A": 1, "B": 2}
    assert not flagged


def test_higher_bandwidth_wins_on_equal_density():
    nets = [Network("slow", 1e6, (0,)), Network("fast", 2e6, (1,))]
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    ranks, _ = network_priority(nets, pos, (0.0, 0.0), 10.0, w_density=0.0, w_bandwidth=1.0)
    assert ranks == {"fast": 1, "slow": 2}


def test_single_network_always_rank_one():
    nets = [Network("only", 5e5, (0, 1))]
    pos = {0: (0.0, 0.0), 1: (3.0, 0.0)}
    for w in ((1.0, 0.0), (0.0, 1.0), (0.7, 0.3)):
        ranks, _ = network_priority(nets, pos, (0.0, 0.0), 5.0, *w)
        assert ranks == {"only": 1}


def test_empty_area_falls_back_to_bandwidth_flagged():
    nets = [Network("a", 1e6, (0,)), Network("b", 3e6, (1,))]
    pos = {0: (500.0, 500.0), 1: (900.0, 900.0)}
    ranks, flagged = network_priority(nets, pos, (0.0, 0.0), 10.0, *WEIGHTS)
    assert flagged
    assert ranks == {"b": 1, "a": 2}


def test_score_tie_breaks_by_network_id():
    nets = [Network("beta", 1e6, (0,)), Network("alfa", 1e6, (1,))]
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    ranks, _ = network_priority(nets, pos, (0.0, 0.0), 10.0, *WEIGHTS)
    assert ranks == {"alfa": 1, "beta": 2}


def test_event_disc_is_closed():
    """A point at exactly the radius is inside, one a float step beyond it
    is not, and network ranking counts the member on the rim."""
    assert in_disc((3.0, 4.0), (0.0, 0.0), 5.0)
    assert not in_disc((3.0, math.nextafter(4.0, 5.0)), (0.0, 0.0), 5.0)
    assert in_disc((333.3, 0.0), (0.0, 0.0), 333.3)
    nets = [Network("rim", 1e6, (0,)), Network("far", 2e6, (1,))]
    pos = {0: (3.0, 4.0), 1: (900.0, 0.0)}
    ranks, flagged = network_priority(nets, pos, (0.0, 0.0), 5.0, w_density=1.0, w_bandwidth=0.0)
    assert ranks == {"rim": 1, "far": 2}
    assert not flagged


# priority tuples -----------------------------------------------------------

def test_network_rank_dominates_node_index():
    strong_b = PriorityTuple(n1=2, n2=Candidate(node=9, pi=0.1))
    weak_a = PriorityTuple(n1=1, n2=Candidate(node=3, pi=5.0))
    assert tuple_key(weak_a) < tuple_key(strong_b)


def test_same_network_node_index_decides():
    a = PriorityTuple(n1=1, n2=Candidate(node=0, pi=0.4))
    b = PriorityTuple(n1=1, n2=Candidate(node=1, pi=0.5))
    assert tuple_key(a) < tuple_key(b)


def test_identical_tuples_break_by_node_id():
    a = PriorityTuple(n1=1, n2=Candidate(node=2, pi=0.4))
    b = PriorityTuple(n1=1, n2=Candidate(node=8, pi=0.4))
    assert tuple_key(a) < tuple_key(b)


# slot allocation -----------------------------------------------------------

def _tuples(pis, n1=1):
    return [PriorityTuple(n1=n1, n2=Candidate(node=i, pi=pi)) for i, pi in enumerate(pis)]


def test_oversubscribed_grid_keeps_best_twenty():
    rng = np.random.default_rng(4)
    pis = [float(v) for v in rng.uniform(0.1, 5.0, 22)]
    sources = _tuples(pis)
    grid = SlotGrid(4, 5, 0.5)
    allocate_slots(sources, grid)
    assigned = assigned_nodes(grid)
    assert len(assigned) == 20
    best = {pt.node for pt in sorted(sources, key=tuple_key)[:20]}
    assert assigned == best
    starved = {pt.node for pt in sources} - assigned
    assert len(starved) == 2


def test_undersubscribed_grid_leaves_empty_positions():
    grid = SlotGrid(2, 2, 0.5)
    allocate_slots(_tuples([3.0, 1.0, 2.0]), grid)
    holders = [grid.assignment[pos] for pos in grid.positions()]
    # scan order is frequency-major; best index first
    assert holders == [1, 2, 0, None]


def test_fill_positions_pairs_best_first_in_the_given_order():
    """The positions keep the caller's order; the shorter side decides
    how many pairs there are."""
    contenders = _tuples([3.0, 1.0, 2.0])
    assert fill_positions([(1, 0), (0, 1)], contenders) == [((1, 0), 1), ((0, 1), 2)]
    assert fill_positions([(0, 0), (0, 1), (1, 0), (1, 1)], contenders) == [
        ((0, 0), 1), ((0, 1), 2), ((1, 0), 0)]
    assert fill_positions([], contenders) == []


def test_allocation_scan_order_is_frequency_major():
    grid = SlotGrid(2, 3, 0.6)
    assert grid.positions() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert grid.slot_duration == pytest.approx(0.2)


def test_second_allocation_without_critical_event_forbidden():
    grid = SlotGrid(2, 2, 0.5)
    allocate_slots(_tuples([1.0, 2.0]), grid)
    frozen = dict(grid.assignment)
    with pytest.raises(FrozenGrid):
        allocate_slots(_tuples([0.5]), grid)
    assert grid.assignment == frozen
    grid.rearm()
    allocate_slots(_tuples([0.5]), grid)
    assert grid.assignment != frozen


def test_allocation_membership_matches_brute_force_quick():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 26))
        f = int(rng.integers(1, 5))
        s = int(rng.integers(1, 6))
        cands = [
            PriorityTuple(
                n1=int(rng.integers(1, 4)),
                n2=Candidate(node=i, pi=float(rng.uniform(0.1, 5.0)),
                             mob_class=MobilityClass(int(rng.integers(0, 3))),
                             batt_level=int(rng.integers(0, 4))),
            )
            for i in range(n)
        ]
        grid = SlotGrid(f, s, 0.5)
        allocate_slots(cands, grid)
        k = min(n, f * s)
        expected = {pt.node for pt in sorted(cands, key=tuple_key)[:k]}
        assert assigned_nodes(grid) == expected
        holders = [h for h in grid.assignment.values() if h is not None]
        assert len(holders) == len(set(holders))


# cluster reports -----------------------------------------------------------

def test_assign_clusters_picks_nearest_in_range_head():
    """A sensor with any cluster head in reach is not an orphan, whichever
    head that is."""
    links = {(0, 10), (1, 11)}
    reach = lambda a, b: (a, b) in links
    assert assign_clusters([1, 0], [10, 11], reach) == []


def test_nearest_tie_goes_to_lowest_id():
    positions = {3: (1.0, 0.0), 5: (0.0, -1.0), 7: (-1.0, 0.0), 9: (0.5, 0.0)}
    assert nearest((0.0, 0.0), [7, 5, 3], positions) == 3
    assert nearest((0.0, 0.0), [7, 9, 3], positions) == 9
    assert nearest((0.0, 0.0), [], positions) is None


def test_assign_clusters_flags_orphans():
    """Orphans are the sensors with no cluster head in reach, ascending."""
    reach = lambda a, b: (a, b) == (2, 10)
    assert assign_clusters([3, 2, 0], [10], reach) == [0, 3]
    assert assign_clusters([1, 0], [], reach) == [0, 1]


def test_cross_cluster_best_importance_wins():
    ch1 = [Candidate(node=0, pi=compute_pi_data(0.9))]
    ch2 = [Candidate(node=1, pi=compute_pi_data(1.0))]
    merged = global_importance_ranking({10: ch1, 11: ch2})
    assert merged[0].node == 1


def test_single_cluster_merge_is_local_order():
    members = [Candidate(node=i, pi=compute_pi_data(imp))
               for i, imp in enumerate([0.3, 0.9, 0.5])]
    merged = global_importance_ranking({10: members})
    assert [c.node for c in merged] == [1, 2, 0]


def test_merge_equals_brute_force_sort():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n_nodes = 10
        reports = {10: [], 11: [], 12: []}
        all_members = []
        for i in range(n_nodes):
            c = Candidate(node=i, pi=compute_pi_data(float(rng.uniform(0.05, 1.0))),
                          mob_class=MobilityClass(int(rng.integers(0, 3))),
                          batt_level=int(rng.integers(0, 4)))
            reports[[10, 11, 12][int(rng.integers(0, 3))]].append(c)
            all_members.append(c)
        merged = global_importance_ranking(reports)
        assert merged == _selection_sort(all_members)
