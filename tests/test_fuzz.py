"""Scenario fuzzing: random small scenarios, both schemes, each run checked
against the trace invariants.

Every drawn document is a valid config, so every run must reach its `end`
record. The terrain side is at least 50 m: with `pause_time: 0` a node
draws its next leg the moment it arrives, so the leg count of a session
grows as 1/side, and a side of centimetres would make one short run draw
hundreds of thousands of legs. The profile is derandomized, so tier-1 runs
the same examples every time.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import trace_errors, transmitters_respect_depletion
from mwsnsim import Simulation, metrics, validate_config
from mwsnsim.trace import trace_from_jsonl, trace_to_jsonl

MIN_SIDE = 50.0  # metres; see the module docstring


@st.composite
def scenarios(draw) -> dict:
    n = draw(st.integers(4, 30))
    base_stations = draw(st.integers(1, 2))
    cluster_heads = draw(st.integers(0, min(3, n - base_stations - 1)))
    sensors = n - base_stations - cluster_heads
    width = draw(st.floats(MIN_SIDE, 2000.0))
    height = draw(st.floats(MIN_SIDE, 2000.0))
    session = draw(st.floats(1.0, 10.0))
    side = max(width, height)
    # log-uniform, so half the links take over 0.08 s per 1000 B packet
    link_rate = 10.0 ** draw(st.floats(4.0, 6.0))
    # from a battery that one transmission can empty to the stock 50 J
    initial = draw(st.sampled_from([0.01, 0.1, 1.0, 50.0, 50.0])) * draw(st.floats(0.5, 2.0))
    events = [{"time": draw(st.floats(0.0, session)),
               "x": draw(st.floats(0.0, width)), "y": draw(st.floats(0.0, height)),
               "radius": side * draw(st.floats(0.05, 1.0)),
               "reporter": draw(st.none() | st.integers(0, sensors - 1)),
               "emit_reports": draw(st.booleans())}
              for _ in range(draw(st.integers(0, 3)))]
    return {
        "node_count": n, "cluster_heads": cluster_heads, "base_stations": base_stations,
        "terrain_area": {"width": width, "height": height},
        "session_duration": session,
        "queue_size": draw(st.integers(1, 20)),
        "initial_energy": initial,
        "cbr_interval": draw(st.floats(0.1, 2.0)),
        "flow_count": 0 if draw(st.integers(0, 4)) == 0 else draw(st.integers(1, sensors)),
        # the stock 5 s, or one short enough that slow links deliver late
        "flow": {"deadline_budget": draw(st.just(5.0) | st.floats(0.1, 5.0))},
        "grid": {"frequencies": draw(st.integers(1, 4)),
                 "slots_per_frame": draw(st.integers(1, 5)),
                 "frame_length": draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))},
        "radio": {"nominal_range": side * draw(st.floats(0.1, 1.5))},
        "energy": {"idle_power": draw(st.sampled_from([0.0, 0.001, 0.01, 0.1])),
                   "link_rate": link_rate,
                   "battery_threshold": initial * draw(st.floats(0.05, 0.9))},
        "mobility": {"pause_time": draw(st.sampled_from([0.0, 2.0]))},
        "options": {"gate_mode": draw(st.sampled_from(["sentinel", "drop"])),
                    "orphan_policy": draw(st.sampled_from(["contend", "exclude"]))},
        "critical_events": events,
    }


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.integers(0, 2**32 - 1))
def test_random_scenarios_keep_the_trace_invariants(doc, seed):
    cfg = validate_config(doc)
    for scheme in ("mdlps", "data"):
        trace = Simulation(cfg, seed=seed, scheme=scheme).run()
        assert trace[-1]["k"] == "end", scheme
        assert metrics.conservation(trace)["ok"], scheme
        assert metrics.energy_monotone(trace), scheme
        assert transmitters_respect_depletion(trace), scheme
        assert trace_errors(trace, cfg, scheme) == [], scheme
        assert trace_from_jsonl(trace_to_jsonl(trace)) == trace, scheme
