"""Golden trace hashes: the sha256 of the canonical JSONL trace for a fixed
set of (config, seed, scheme) runs.

A refactor that must keep behaviour keeps these hashes. A change that alters
a trace on purpose updates the hash here and names the cause in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from mwsnsim.config import load_config, validate_config
from mwsnsim import Simulation, trace_to_jsonl

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
                    "3b15d11265b089e11cbe773d18b0b9ca5400d8891e7e217b87abb5cba1b0e83f"),
    "stock_data": ({}, 1, "data",
                   "7e8ec5784c709dc7c6d11af3a11425e912f7788e35fd46eab505a9f1a5a8b409"),
    "event_study_mdlps": ("event_study.yaml", 1, "mdlps",
                          "b08f35e19f0a7eab4964a142bc67706290a491c53c53bfa1fcc4021bf0f557f5"),
    "event_study_data": ("event_study.yaml", 1, "data",
                         "b863acedec45d68a5a937160ad8034b9e4eb7beaeda4d607d390b97185ca5eea"),
    "capacity_10_flows_mdlps": (CAPACITY_ARENA, 1, "mdlps",
                                "c1e39088df73ac09470efa9ad2ce2e5e1304fa42282c96235ee6178d2f707252"),
    "orphans_excluded_data": ({"options": {"orphan_policy": "exclude"}}, 1, "data",
                              "d86c637d0210f17bbfa09b330d75c2d7f902c99d1c4fc3e931059cb24eacf15d"),
    "hard_gate_mdlps": ({"options": {"gate_mode": "drop"},
                         "radio": {"nominal_range": 400.0}}, 1, "mdlps",
                        "7b43cafb5d6af1284fa967c0a53773f88b70260a23405274a46c14788ff05ca0"),
    "fleet_200_data": ({"node_count": 200, "session_duration": 20.0}, 1, "data",
                       "4b236659ad9f37407c75381f9bdacac871fcd5d165ee277bbabf5d3be3aa04b4"),
    "four_sinks_mdlps": (FOUR_SINKS, 1, "mdlps",
                         "81a47d3228c5a80a33d566c75fe763655efc5cd431174ae4f880fdfa0a73f7a0"),
    "four_sinks_data": (FOUR_SINKS, 1, "data",
                        "1d2398b3e5f94870b7f8977801c2ba97c388717347b235462a8791b607bb8316"),
    "two_networks_data": (TWO_NETWORKS, 1, "data",
                          "f6c5d2f76631207bda4b76049217a8e2fffda3e196c280f9b4ef55e65af7d667"),
    # no pause: each leg starts at the instant the last one arrives, 13 nodes
    # start a second leg within the session
    "pause_0_mdlps": ({"mobility": {"pause_time": 0.0}}, 2, "mdlps",
                      "f71febbfc0936cb9889d0869121a07ad6680580b35ba547288bdb0e607ab3b86"),
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
