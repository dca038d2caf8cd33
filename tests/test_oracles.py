"""Closed-form oracles: exact counts where the model has a formula.

The capacity arena is criterion 5's: 22 nodes (18 sensors, 3 cluster heads,
one base station) on a 600 m square with a 900 m range, a 60 s session and
no critical event. With F frequencies, S slots per frame, n generated flows
of CBR interval c and frames of length L, each run delivers exactly

    min(n, F*S) * (min(60/L, 60/c) - 1)

packets on time, from exactly min(n, F*S) flows. The formula needs:

- the arena proven complete: every pair is linked at every instant, so each
  source reaches the sink in one hop and the graph never changes;
- no critical event, so the startup allocation holds for the whole session:
  min(n, F*S) flows hold a position, and no holder's position is ever lent;
- batteries that cannot drain, so no holder dies;
- a deadline budget at least the wait, so the packet a holder sends is on
  time;
- a session that is a multiple of L and of c.

Then each holder sends one packet in every frame in which it holds data.
Its flow emits at c, 2c, ..., 60 s, and an emission precedes the frame
boundary at the same instant. So it sends min(60/L, 60/c) packets, at the
frames from max(L, c) to 60 s; the one sent at 60 s is still on the air
when the session closes.
"""

import pytest

from mwsnsim import Simulation, metrics
from mwsnsim.config import validate_config

SESSION = 60.0
PACKET_SIZE = 1000


def _arena(frequencies: int, slots: int, flows: int, interval: float, frame: float):
    return validate_config({
        "node_count": 22, "cluster_heads": 3, "base_stations": 1,
        "terrain_area": {"width": 600.0, "height": 600.0},
        "session_duration": SESSION,
        "packet_size": PACKET_SIZE,
        "cbr_interval": interval,
        "flow_count": flows,
        "radio": {"nominal_range": 900.0},
        "critical_events": [],
        "grid": {"frequencies": frequencies, "slots_per_frame": slots, "frame_length": frame},
    })


# (F, S, n, c, L); the last two have more flows than positions and c > L,
# so holders idle in some frames while other flows hold data
SHAPES = [
    (2, 2, 3, 0.5, 0.5),
    (3, 2, 8, 0.25, 0.5),
    (1, 5, 3, 1.0, 0.5),
    (2, 3, 10, 0.5, 1.0),
    (4, 5, 10, 0.5, 0.5),
    (2, 2, 6, 1.0, 0.5),
    (1, 2, 5, 2.0, 0.5),
]


@pytest.mark.parametrize("shape", SHAPES, ids=[",".join(map(str, s)) for s in SHAPES])
def test_capacity_arena_delivers_the_closed_form(shape):
    frequencies, slots, flows, interval, frame = shape
    cfg = _arena(*shape)
    assert Simulation(cfg, seed=1).arena_complete
    served = min(flows, frequencies * slots)
    on_time = served * (min(round(SESSION / frame), round(SESSION / interval)) - 1)
    e = cfg["energy"]
    on_air = 8 * PACKET_SIZE / e["link_rate"]
    for seed in (1, 2):
        for scheme in ("data", "mdlps"):
            sim = Simulation(cfg, seed=seed, scheme=scheme)
            trace = sim.run()
            run = (shape, seed, scheme)
            fates = metrics.conservation(trace)["fates"]
            assert fates["delivered"] == on_time, run
            assert fates["deadline_miss"] == 0, run
            pdr = metrics.pdr_within_deadline(trace)
            assert len(pdr) == flows, run
            assert sum(1 for v in pdr.values() if v > 0) == served, run
            assert metrics.throughput_kbps(trace, SESSION) == pytest.approx(
                on_time * 8 * PACKET_SIZE / SESSION / 1000.0, rel=1e-12), run
            sent = [0] * sim.n
            received = [0] * sim.n
            for rec in trace:
                if rec["k"] == "tx":
                    sent[rec["u"]] += 1
                elif rec["k"] == "rx":
                    received[rec["n"]] += 1
            for node in range(sim.n):
                spent = (sent[node] * e["tx_power"] + received[node] * e["rx_power"]) * on_air
                assert sim.battery[node].level == pytest.approx(
                    cfg["initial_energy"] - spent, rel=1e-12, abs=1e-12), (run, node)
