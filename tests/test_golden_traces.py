"""Golden trace hashes: the sha256 of the canonical JSONL trace for a fixed
set of (config, seed, scheme) runs.

A refactor that must keep behaviour keeps these hashes. A change that alters
a trace on purpose updates the hash here and names the cause in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from mwsnsim.config import load_config, validate_config
from mwsnsim.engine import Simulation, trace_to_jsonl

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the criterion-5 arena: a fully-connected 600 m square with a 2x2 grid
CAPACITY_ARENA = {
    "node_count": 22, "cluster_heads": 3, "base_stations": 1,
    "terrain_area": {"width": 600.0, "height": 600.0},
    "session_duration": 60.0,
    "flow_count": 10,
    "radio": {"nominal_range": 900.0},
    "critical_events": [],
    "grid": {"frequencies": 2, "slots_per_frame": 2, "frame_length": 0.5},
}

# several sinks to choose the nearest from, and event discs of non-round radii
FOUR_SINKS = {
    "node_count": 40, "base_stations": 4, "session_duration": 40.0,
    "radio": {"nominal_range": 450.0},
    "critical_events": [
        {"time": 10.0, "x": 700.0, "y": 1300.0, "radius": 333.3},
        {"time": 25.0, "x": 1250.0, "y": 800.0, "radius": 612.7},
    ],
}

# two networks, so each critical event ranks them by members in its disc
TWO_NETWORKS = {
    "session_duration": 40.0,
    "radio": {"nominal_range": 500.0},
    "networks": [{"id": "a", "bandwidth": 1.0e6, "members": list(range(0, 22, 2))},
                 {"id": "b", "bandwidth": 2.0e6, "members": list(range(1, 22, 2))}],
    "critical_events": [
        {"time": 10.0, "x": 1000.0, "y": 1000.0, "radius": 700.0},
        {"time": 22.5, "x": 600.0, "y": 1400.0, "radius": 512.5},
    ],
}

# name -> (config overrides or a file under configs/, seed, scheme, sha256)
GOLDEN = {
    "stock_mdlps": ({}, 1, "mdlps",
                    "7ebb1a995b809b3ba50c0e0c75a0578b197d9ea82f8d086dbc02e55747e89980"),
    "stock_data": ({}, 1, "data",
                   "34f351eab36d8ca11d186745759be8dcce50d1000010de210ef338f27b1638ba"),
    "event_study_mdlps": ("event_study.yaml", 1, "mdlps",
                          "62cd9a6a8f4bbcb415e243dc2cd6251f9a04a5b76d637d6dcbaddea27e74250b"),
    "event_study_data": ("event_study.yaml", 1, "data",
                         "00e1fe2bd585e0b4f04e24f6255f7ee8350dc17ea897c58aa322c3bc73cf2883"),
    "capacity_10_flows_mdlps": (CAPACITY_ARENA, 1, "mdlps",
                                "be3c5e47d15f8bc7b4e8167d801ace9fd871cb842112e15ad5f91897d7cae0e3"),
    "orphans_excluded_data": ({"options": {"orphan_policy": "exclude"}}, 1, "data",
                              "508ad256e780360d7ca8a000f5536dad2a8140d83cb5cb468abe348f71c0d63f"),
    "hard_gate_mdlps": ({"options": {"gate_mode": "drop"},
                         "radio": {"nominal_range": 400.0}}, 1, "mdlps",
                        "9193b5ccb4789e2bcb55aeb1539cb3becad33bf9b16d11458803e07769fd63c3"),
    "fleet_200_data": ({"node_count": 200, "session_duration": 20.0}, 1, "data",
                       "3eea31f69b0375a64db7b0a793bcbc46e49f6f9b3ddb6f1fdcc61008c6d53ede"),
    "four_sinks_mdlps": (FOUR_SINKS, 1, "mdlps",
                         "e599d9ea9a38db642f9e422c3fb02c1245031f444785976cd10a6582eb6d4dfe"),
    "four_sinks_data": (FOUR_SINKS, 1, "data",
                        "c0e081d2db366ccf4c44cb2a481f629320229df5d4e509a911ea0b746f2f7494"),
    "two_networks_data": (TWO_NETWORKS, 1, "data",
                          "aeb74b4bfeee1dd66c7c38cab5aa86f6d32a4e10497ccbb3c6ec241a3c4f7984"),
    # ticks on every frame boundary: the run where a tick at a slot instant
    # must not count before that instant
    "tick_025_mdlps": ({"mobility": {"tick_interval": 0.25}}, 9, "mdlps",
                       "0707cab1a6177183e282e8f1ebe38a2f226353a7617a2cc4e59979aeccda9fa4"),
}


def trace_hash(source, seed: int, scheme: str) -> str:
    cfg = (load_config(str(CONFIGS / source)) if isinstance(source, str)
           else validate_config(source))
    trace = Simulation(cfg, seed=seed, scheme=scheme).run()
    return hashlib.sha256(trace_to_jsonl(trace).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_hash_is_unchanged(name):
    source, seed, scheme, expected = GOLDEN[name]
    assert trace_hash(source, seed, scheme) == expected
