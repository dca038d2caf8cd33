"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s or -rA to see them).

Every expected value here is computed independently inside the test (direct
formula evaluation, brute-force sorts, packet arithmetic) rather than taken
from the implementation under test.
"""

import time

import numpy as np

from helpers import (
    assigned_nodes,
    first_frame_grantees,
    rank_candidates,
    stream_draws,
    transmitters_respect_depletion,
)
from mwsnsim import Simulation, metrics, trace_to_jsonl
from mwsnsim.config import validate_config
from mwsnsim.mobility import MobilityClass
from mwsnsim.energy import BatteryState, battery_factor
from mwsnsim.scheduler import (
    Candidate,
    FlowParams,
    GATE_SENTINEL,
    PriorityTuple,
    SlotGrid,
    allocate_slots,
    compute_pi_data,
    compute_pi_mdlps,
    compute_ulb,
)

FLOW = FlowParams(desired_pdr=0.9, pdr_threshold=0.25, deadline_budget=5.0)


# 1. formula suite ------------------------------------------------------------

def test_criterion_1_formula_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    # halving invariant over 10^4 random triples
    for _ in range(10_000):
        deadline = float(rng.uniform(0.0, 200.0))
        now = float(rng.uniform(0.0, 200.0))
        hops = int(rng.integers(0, 30))
        assert abs(compute_ulb(deadline, now, hops + 1)
                   - compute_ulb(deadline, now, hops) / 2.0) <= 1e-12

    # the index matches direct formula evaluation
    for _ in range(10_000):
        pdr = float(rng.uniform(0.25, 1.0))
        ulb = float(rng.uniform(0.0, 50.0))
        v = float(rng.uniform(0.1, 20.0))
        x = float(rng.uniform(1.0, 3.0))
        direct = (pdr / 0.9) * ulb * (1.0 / v) * x
        assert abs(compute_pi_mdlps(pdr, FLOW, ulb, v, x) - direct) <= 1e-12

    # worked example: (0.8, 0.9, 1.0, 2.0, 1.0)
    worked = compute_pi_mdlps(0.8, FLOW, 1.0, 2.0, 1.0)
    assert abs(worked - (0.8 / 0.9) * 1.0 * 0.5 * 1.0) <= 1e-12
    assert abs(worked - 0.4444444444444444) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"formula suite took {elapsed:.3f} s"
    print(f"\nACCEPTANCE 1 PASS: 2x10^4 formula checks at 1e-12 in {elapsed:.3f} s")


# 2. ordering oracle ----------------------------------------------------------

def _compare(a: Candidate, b: Candidate) -> int:
    """Reference pairwise comparator: index, mobility class (faster first),
    battery band (first above-threshold band first, below-threshold last),
    then node id. Written pairwise, independent of the key encoding."""
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
    return -1 if a.node < b.node else (1 if a.node > b.node else 0)


def _brute_sort(cands):
    pool = list(cands)
    out = []
    while pool:
        best = pool[0]
        for c in pool[1:]:
            if _compare(c, best) < 0:
                best = c
        pool.remove(best)
        out.append(best)
    return out


def _random_candidates(rng, scheme):
    n = int(rng.integers(1, 26))
    cands = []
    for i in range(n):
        if scheme == "data":
            pi = compute_pi_data(float(rng.uniform(0.05, 1.0)))
        else:
            pi = compute_pi_mdlps(
                float(rng.uniform(0.0, 1.0)), FLOW,
                compute_ulb(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)),
                            int(rng.integers(0, 10))),
                float(rng.uniform(0.1, 20.0)), float(rng.uniform(1.0, 3.0)))
        # force some exact index collisions so the tie-break chain is exercised
        if rng.random() < 0.3 and cands:
            pi = cands[int(rng.integers(0, len(cands)))].pi
        cands.append(Candidate(node=i, pi=pi,
                               mob_class=MobilityClass(int(rng.integers(0, 3))),
                               batt_level=int(rng.integers(0, 4))))
    return cands


def test_criterion_2_ordering_oracle():
    rng = np.random.default_rng(202)
    mismatches = 0
    for trial in range(1000):
        scheme = "data" if trial % 2 else "mdlps"
        cands = _random_candidates(rng, scheme)
        if rank_candidates(cands) != _brute_sort(cands):
            mismatches += 1
        grid = SlotGrid(int(rng.integers(1, 6)), int(rng.integers(1, 6)), 0.5)
        sources = [PriorityTuple(n1=int(rng.integers(1, 4)), n2=c) for c in cands]
        allocate_slots(sources, grid)
        k = min(len(sources), grid.capacity)
        # brute-force top-k over the full tuple order: n1 groups ascending,
        # the reference comparator inside each group
        groups = {}
        for pt in sources:
            groups.setdefault(pt.n1, []).append(pt.n2)
        expected = []
        for n1 in sorted(groups):
            expected.extend(c.node for c in _brute_sort(groups[n1]))
        if assigned_nodes(grid) != set(expected[:k]):
            mismatches += 1
        holders = [h for h in grid.assignment.values() if h is not None]
        if len(holders) != len(set(holders)):
            mismatches += 1
        # gate totality: a gated candidate must never outrank an ungated one
        gated = [c for c in cands if c.pi == GATE_SENTINEL]
        if gated:
            order = rank_candidates(cands)
            first_gated = min(order.index(c) for c in gated)
            if any(order.index(c) > first_gated for c in cands if c.pi != GATE_SENTINEL):
                mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 2 PASS: 1000 candidate sets, orderings and top-k "
          "allocations match brute force with 0 mismatches")


# 3. battery-factor shape -----------------------------------------------------

def test_criterion_3_battery_factor_shape():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        initial = float(rng.uniform(5.0, 500.0))
        threshold = float(rng.uniform(0.02, 0.9)) * initial
        levels = int(rng.integers(1, 8))
        penalty = float(rng.uniform(0.0, 2.0))

        def x_at(level):
            return battery_factor(BatteryState(
                level=level, initial=initial, hard_threshold=threshold,
                levels_above=levels, level_penalty=penalty))

        below = np.sort(rng.uniform(initial * 1e-6, threshold * (1 - 1e-9), 6))
        xs_below = [x_at(float(v)) for v in below]
        assert all(a > b for a, b in zip(xs_below, xs_below[1:]))

        above = np.sort(rng.uniform(threshold, initial, 6))
        xs_above = [x_at(float(v)) for v in above]
        assert all(a <= b for a, b in zip(xs_above, xs_above[1:]))

        # global argmin sits at the first above-threshold band
        at_first_band = x_at(threshold)
        assert at_first_band == 1.0
        assert all(x >= at_first_band for x in xs_below + xs_above)
    print("\nACCEPTANCE 3 PASS: 1000 random battery configurations keep the "
          "piecewise factor shape with argmin at the hard threshold")


# 4. execution-order comparison (central claim) --------------------------------

def _table1_event_cfg():
    # Pinned to the stock scenario: 2000x2000, 22 nodes, 100 s, queue 50,
    # energy 50, packet 1000, 0.5 s interval. The radio range is not part of
    # that parameter set; 800 m keeps routes to the sink available so
    # post-event transmissions exist to rank. Sensor 0 is the designated
    # reporter emitting importance-1.0 data at the t=10 s event.
    return validate_config({
        "terrain_area": {"width": 2000.0, "height": 2000.0},
        "node_count": 22,
        "session_duration": 100.0,
        "queue_size": 50,
        "initial_energy": 50.0,
        "packet_size": 1000,
        "cbr_interval": 0.5,
        "radio": {"nominal_range": 800.0},
        "critical_events": [{"time": 10.0, "x": 1000.0, "y": 1000.0,
                             "radius": 400.0, "reporter": 0}],
    })


def test_criterion_4_data_priority_fixes_execution_order():
    cfg = _table1_event_cfg()
    reporter = 0
    seeds = list(range(1, 101))
    # one untimed run first, so lazy imports and caches are warm before timing
    Simulation(cfg, seed=1, scheme="data").run()
    start = time.perf_counter()
    first_frame_grants = 0
    ranks = {"data": [], "mdlps": []}
    absent_rank = cfg.node_count + 1
    for seed in seeds:
        for scheme in ("data", "mdlps"):
            trace = Simulation(cfg, seed=seed, scheme=scheme).run()
            if scheme == "data":
                if reporter in first_frame_grantees(trace, 0):
                    first_frame_grants += 1
            order = metrics.execution_order(trace, 0)
            ranks[scheme].append(order.index(reporter) + 1
                                 if reporter in order else absent_rank)
    elapsed = time.perf_counter() - start
    mean_data = sum(ranks["data"]) / len(seeds)
    mean_mdlps = sum(ranks["mdlps"]) / len(seeds)
    assert first_frame_grants >= 95, first_frame_grants
    assert mean_data < mean_mdlps
    assert elapsed < 60.0, f"paired comparison took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 4 PASS: reporter granted in first post-event frame "
          f"in {first_frame_grants}/100 seeds; mean first-transmission rank "
          f"{mean_data:.2f} (data) vs {mean_mdlps:.2f} (mdlps); {elapsed:.1f} s")


# 5. throughput vs connections --------------------------------------------------

def _capacity_cfg():
    # capacity knee below the sweep maximum: 2x2 grid (4 positions) in a
    # small fully-connected arena, no critical events
    return validate_config({
        "node_count": 22, "cluster_heads": 3, "base_stations": 1,
        "terrain_area": {"width": 600.0, "height": 600.0},
        "session_duration": 60.0,
        "flow_count": 1,
        "radio": {"nominal_range": 900.0},
        "critical_events": [],
        "grid": {"frequencies": 2, "slots_per_frame": 2, "frame_length": 0.5},
    })


def test_criterion_5_throughput_ramps_then_plateaus():
    cfg = _capacity_cfg()
    capacity = 4
    seeds = list(range(1, 21))
    series = {}
    for n in range(1, 11):
        cfg_n = cfg.with_overrides(flow_count=n)
        vals = [metrics.throughput_kbps(Simulation(cfg_n, seed=s, scheme="mdlps").run(), 60.0)
                for s in seeds]
        series[n] = sum(vals) / len(vals)
    for n in range(2, capacity + 1):
        assert series[n] >= series[n - 1] * 0.95, (n, series)
    peak = max(series.values())
    for n in range(capacity + 1, 11):
        assert abs(series[n] - peak) <= 0.10 * peak, (n, series)
    pretty = ", ".join(f"{n}:{series[n]:.1f}" for n in sorted(series))
    print(f"\nACCEPTANCE 5 PASS: throughput (kbit/s) ramps to the 4-position "
          f"grid capacity then plateaus: {pretty}")


# 6. conservation suite ----------------------------------------------------------

def _conservation_suite():
    dense = {"radio": {"nominal_range": 800.0}}
    drained = {"initial_energy": 0.5,
               "energy": {"battery_threshold": 0.1},
               "radio": {"nominal_range": 800.0}}
    hard_gate = {"options": {"gate_mode": "drop"}, "radio": {"nominal_range": 400.0}}
    return [
        (validate_config({}), "mdlps", False),
        (validate_config({}), "data", False),
        (validate_config(dense), "data", False),
        (validate_config(drained), "mdlps", True),
        (validate_config(hard_gate), "mdlps", False),
    ]


def test_criterion_6_conservation_suite():
    checked = 0
    depletion_exercised = False
    gating_exercised = False
    for cfg, scheme, expect_depletion in _conservation_suite():
        trace = Simulation(cfg, seed=11, scheme=scheme).run()
        cons = metrics.conservation(trace)
        assert cons["ok"], cons
        assert sum(cons["fates"].values()) == cons["generated"]
        assert metrics.max_queue_length(trace) <= cfg["queue_size"]
        assert metrics.energy_monotone(trace)
        assert transmitters_respect_depletion(trace)
        if expect_depletion:
            assert metrics.depleted_nodes(trace), "depletion scenario never depleted"
            depletion_exercised = True
        if cfg["options"]["gate_mode"] == "drop":
            assert cons["fates"]["gated"] > 0, "hard-gate scenario never gated"
            gating_exercised = True
        checked += 1
    assert depletion_exercised and gating_exercised
    print(f"\nACCEPTANCE 6 PASS: {checked} runs conserve every packet, bound "
          f"queues at capacity, drain energy monotonically, and never let a "
          f"depleted node transmit")


# 7. determinism and paired worlds ------------------------------------------------

def _world_key(rec):
    return (rec["t"], rec["p"], rec["fl"], rec["src"], rec["dst"],
            rec["sz"], rec["dl"], rec["imp"])


def test_criterion_7_determinism_and_paired_worlds():
    cfg = validate_config({"radio": {"nominal_range": 800.0}})
    first = trace_to_jsonl(Simulation(cfg, seed=7, scheme="mdlps").run())
    second = trace_to_jsonl(Simulation(cfg, seed=7, scheme="mdlps").run())
    assert first == second

    a = Simulation(cfg, seed=7, scheme="mdlps").run()
    b = Simulation(cfg, seed=7, scheme="data").run()
    assert ([_world_key(r) for r in a if r["k"] == "gen"]
            == [_world_key(r) for r in b if r["k"] == "gen"])
    assert stream_draws(a) == stream_draws(b)
    print("\nACCEPTANCE 7 PASS: byte-identical replays; paired schemes share "
          "generation times, importance draws, and per-stream draw counts")


# 8. CBR arithmetic ----------------------------------------------------------------

def test_criterion_8_cbr_count():
    cfg = validate_config({})
    trace = Simulation(cfg, seed=1, scheme="mdlps").run()
    per_flow = metrics.generated_per_flow(trace)
    cbr_flows = {fl: n for fl, n in per_flow.items() if fl.startswith("f")}
    assert len(cbr_flows) == 10
    assert all(n == 200 for n in cbr_flows.values()), cbr_flows
    print("\nACCEPTANCE 8 PASS: stock scenario generates exactly 200 packets "
          "per flow (100 s / 0.5 s interval)")
