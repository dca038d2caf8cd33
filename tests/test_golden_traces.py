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
                    "245a3a3f42037204bd5b735850b8bdb15a6d1468db510c978684ab1e9e316149"),
    "stock_data": ({}, 1, "data",
                   "edc9b98203a5d34214fa9d9a9e8b8d650b8b926bd601a48333e7bc3e8cc78797"),
    "event_study_mdlps": ("event_study.yaml", 1, "mdlps",
                          "2c4cad2016dc12c6f44fb19d913e539c9c69ccaedce9e8e2e6ad07b3413dc086"),
    "event_study_data": ("event_study.yaml", 1, "data",
                         "b1889424b000651b5ca1c5355e372842ed20481b0e6ca3df61f98f1aa686217e"),
    "capacity_10_flows_mdlps": (CAPACITY_ARENA, 1, "mdlps",
                                "4d07cd6b435166b23a8eae847ce3180e532ab4e4326aa1c7426da47263c2c26d"),
    "orphans_excluded_data": ({"options": {"orphan_policy": "exclude"}}, 1, "data",
                              "2358b4384a376c58c15b952ad900f5e07e9a7e8b4c9818e5b66d570a6eed9468"),
    "hard_gate_mdlps": ({"options": {"gate_mode": "drop"},
                         "radio": {"nominal_range": 400.0}}, 1, "mdlps",
                        "e3010c7492b52046904777963fa63655848053836284be348cbd0fe2ce85f2b2"),
    "fleet_200_data": ({"node_count": 200, "session_duration": 20.0}, 1, "data",
                       "1c0ff0f7fc74e60172b0a6148f0a333e1a12d4819a1b46934026958ee8fc2082"),
    "four_sinks_mdlps": (FOUR_SINKS, 1, "mdlps",
                         "3d0fafaec224eefcb179d56258964999ad89e8275d0ade8f7e6be65f4a794ebb"),
    "four_sinks_data": (FOUR_SINKS, 1, "data",
                        "7f0388044514acc755af4a6442069aa4de79e9180c9af73890168cbc153480da"),
    "two_networks_data": (TWO_NETWORKS, 1, "data",
                          "7bc391eda6b1d05306ccc9766d51b03d831282f830ec51eb1a9752c07ce38dc2"),
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
