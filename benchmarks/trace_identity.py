"""Check that two source trees produce byte-identical traces.

Hashes (sha256) the canonical JSONL trace, `mwsnsim.trace_to_jsonl`, of every
run of a fixed set: seeds 1-20 x both schemes on eighteen 22-40-node
scenarios, plus 1000 nodes at the stock 250 m range for 20 s, seeds 1-2 x both
schemes: 724 runs of 19 configs. Four of the scenarios are the criterion-5
arena: as shipped, where the terrain proves every frame complete and the
engine keeps its graph; with batteries that empty, so the alive set shrinks
under complete frames; on a 750 m square, which the terrain's proof refuses,
so every frame builds its graph while frames go in and out of full
connectivity; and on a 636 m square, whose diagonal is under a metre inside
the range, so the terrain's proof holds at its edge.
The `mwsnsim` package is imported from --src. One line per run is printed:
the run, its trace hash, one `kind:hash` pair per record kind (the hash of
that kind's lines alone), then `|` and the run's totals: final deliveries
(`rx` records with `fin` 1) and drops by cause. Each scenario's resolved
config, `cfg.to_yaml()` as `run_header.txt` embeds it, is hashed too, on a
line `config/<name> <hash>` before its runs. Last, every file that two
experiments write is hashed, on a line `file/<experiment>/<file> <hash>`:
`harness.run_experiment` on configs/event_study.yaml, seeds 1-3, both
schemes, with traces; and `harness.throughput_vs_connections` on
configs/capacity_sweep.yaml, counts 1-3, seeds 1-2:

    python benchmarks/trace_identity.py --src /path/to/src

With --against, the same set is also hashed under a second tree, in a
separate process running alongside; each run whose hash differs, or that
only one tree produced, is printed with the record kinds (`hdr`, `tx`,
`end`, ...) whose lines differ, and the exit status is 1 when there is any
such run; a scenario whose config hash differs, or an output file whose
hash differs or that only one tree wrote, is printed as `DIFFERS
config/<name>` or `DIFFERS file/<experiment>/<file>` and also sets the exit
status to 1. When any run differs, the totals of every scenario and
scheme, summed over its seeds, are printed for both trees:

    python benchmarks/trace_identity.py --against /path/to/parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "..", "configs")

# batteries that empty within the session, without and with idle drain
DRAINED = {"initial_energy": 0.5,
           "energy": {"battery_threshold": 0.1},
           "radio": {"nominal_range": 800.0}}
DRAINED_IDLE = {"initial_energy": 0.5,
                "energy": {"battery_threshold": 0.1, "idle_power": 0.01},
                "radio": {"nominal_range": 800.0}}
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
# that arena with batteries that empty: the alive set shrinks while frames
# stay complete, until no node is alive
CAPACITY_DRAINED = {**CAPACITY_ARENA, "initial_energy": 0.5,
                    "energy": {"battery_threshold": 0.1, "idle_power": 0.01}}
# that arena on a 750 m square: the run-level proof fails, so every frame
# builds, while frames go in and out of full connectivity
CAPACITY_750M = {**CAPACITY_ARENA, "terrain_area": {"width": 750.0, "height": 750.0}}
# that arena on a 636 m square, whose 899.4 m diagonal is under a metre
# inside the range: the run-level proof of full connectivity just holds
CAPACITY_EDGE = {**CAPACITY_ARENA, "terrain_area": {"width": 636.0, "height": 636.0}}
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

# nodes start on a square lattice whose spacing is exactly the 250 m range,
# so the t = 0 graph tests many pairs at exactly the range
EXACT_RANGE_LATTICE = {
    "radio": {"nominal_range": 250.0},
    "node_placement": [[500.0 + 250.0 * (i % 5), 500.0 + 250.0 * (i // 5)] for i in range(22)],
}

# emissions every quarter second: each frame boundary, and each slot at a
# quarter-second offset, coincides with an emission of every flow
CBR_QUARTER = {"cbr_interval": 0.25, "session_duration": 30.0,
               "radio": {"nominal_range": 800.0}}
# three flows to the sink whose periods meet at different instants, one of
# them off the frame grid until its emissions line up with it
MIXED_FLOWS = {
    "session_duration": 30.0,
    "radio": {"nominal_range": 800.0},
    "flows": [{"id": "a", "src": 0, "dst": 21, "interval": 0.3},
              {"id": "b", "src": 1, "dst": 21, "interval": 0.5},
              {"id": "c", "src": 2, "dst": 21, "interval": 0.75, "start": 0.25}],
}
# a critical event at the instant of the first frame boundary
CRIT_AT_0 = {
    "session_duration": 30.0,
    "radio": {"nominal_range": 800.0},
    "critical_events": [{"time": 0.0, "x": 1000.0, "y": 1000.0, "radius": 400.0},
                        {"time": 1.5, "x": 800.0, "y": 1200.0, "radius": 500.0}],
}

SCHEMES = ("mdlps", "data")
# name -> (config overrides or a file under configs/, seeds)
RUN_SET = {
    "stock": ({}, range(1, 21)),
    "event_study": ("event_study.yaml", range(1, 21)),
    "drained": (DRAINED, range(1, 21)),
    "drained_idle": (DRAINED_IDLE, range(1, 21)),
    "capacity_arena": (CAPACITY_ARENA, range(1, 21)),
    "capacity_drained": (CAPACITY_DRAINED, range(1, 21)),
    "capacity_750m": (CAPACITY_750M, range(1, 21)),
    "capacity_edge": (CAPACITY_EDGE, range(1, 21)),
    "orphans_excluded": ({"options": {"orphan_policy": "exclude"}}, range(1, 21)),
    "hard_gate_400m": ({"options": {"gate_mode": "drop"},
                        "radio": {"nominal_range": 400.0}}, range(1, 21)),
    "four_sinks": (FOUR_SINKS, range(1, 21)),
    "two_networks": (TWO_NETWORKS, range(1, 21)),
    # with no pause, each leg starts at the instant the last one arrives
    "pause_0": ({"mobility": {"pause_time": 0.0}}, range(1, 21)),
    # slow links and long hops deliver packets to relays at or past their
    # deadline, some of them also gated, so the order of the arrival
    # rule's checks shows in the trace
    "slow_link_gated": ({"energy": {"link_rate": 40000.0}, "radio": {"nominal_range": 400.0},
                         "options": {"gate_mode": "drop"}}, range(1, 21)),
    "exact_range_lattice": (EXACT_RANGE_LATTICE, range(1, 21)),
    # instants where emissions of several flows, frame boundaries, slots and
    # critical events coincide, so the order of simultaneous events shows
    "cbr_quarter": (CBR_QUARTER, range(1, 21)),
    "mixed_flows": (MIXED_FLOWS, range(1, 21)),
    "crit_at_0": (CRIT_AT_0, range(1, 21)),
    "fleet1000": ({"node_count": 1000, "session_duration": 20.0}, range(1, 3)),
}
# experiment -> (config file under configs/, a call of the harness that
# writes the experiment's files into the directory it is given)
OUTPUT_SET = {
    "event_study": ("event_study.yaml", lambda harness, cfg, out: harness.run_experiment(
        cfg, [1, 2, 3], list(SCHEMES), out_dir=out, write_traces=True)),
    "capacity_sweep": ("capacity_sweep.yaml", lambda harness, cfg, out:
                       harness.throughput_vs_connections(cfg, [1, 2, 3], [1, 2], out_dir=out)),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def totals(trace: list[dict]) -> Counter:
    """Final deliveries and drops by cause of one run."""
    out = Counter(f"drop.{rec['c']}" for rec in trace if rec["k"] == "drop")
    out["delivered"] = sum(1 for rec in trace if rec["k"] == "rx" and rec["fin"] == 1)
    return out


def trace_hashes(src: str):
    """Yield (run name, sha256 of its trace, {record kind: sha256 of that
    kind's lines}, totals) for every run, importing mwsnsim from the src
    tree; before a scenario's runs, yield (`config/<name>`, sha256 of its
    resolved config, {}, no totals); after all runs, yield
    (`file/<experiment>/<file>`, sha256 of the file, {}, no totals) for
    every file of each experiment."""
    sys.path.insert(0, os.path.abspath(src))
    from mwsnsim.config import load_config, validate_config
    from mwsnsim import Simulation, harness, trace_to_jsonl

    for name, (source, seeds) in RUN_SET.items():
        cfg = (load_config(os.path.join(CONFIG_DIR, source)) if isinstance(source, str)
               else validate_config(source))
        yield f"config/{name}", _sha256(cfg.to_yaml()), {}, Counter()
        for seed in seeds:
            for scheme in SCHEMES:
                trace = Simulation(cfg, seed=seed, scheme=scheme).run()
                text = trace_to_jsonl(trace)
                by_kind: dict[str, list[str]] = {}
                for rec, line in zip(trace, text.splitlines(keepends=True)):
                    by_kind.setdefault(rec["k"], []).append(line)
                yield (f"{name}/s{seed}/{scheme}", _sha256(text),
                       {k: _sha256("".join(lines)) for k, lines in by_kind.items()},
                       totals(trace))
    for name, (source, write) in OUTPUT_SET.items():
        with tempfile.TemporaryDirectory() as out:
            write(harness, load_config(os.path.join(CONFIG_DIR, source)), out)
            for file in sorted(os.listdir(out)):
                with open(os.path.join(out, file), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                yield f"file/{name}/{file}", digest, {}, Counter()


def _is_run(name: str) -> bool:
    return not name.startswith(("config/", "file/"))


def _group_totals(runs: dict) -> dict[str, Counter]:
    """Totals summed per scenario and scheme (`stock/mdlps`) over seeds."""
    out: dict[str, Counter] = {}
    for run, (_, _, counts) in runs.items():
        if not _is_run(run):
            continue
        name, _, scheme = run.split("/")
        out.setdefault(f"{name}/{scheme}", Counter()).update(counts)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="source tree whose mwsnsim is run (default: this checkout's)")
    ap.add_argument("--against", help="second source tree to compare every hash with")
    args = ap.parse_args()
    if args.against is None:
        for run, digest, kinds, counts in trace_hashes(args.src):
            print(run, digest, *(f"{k}:{h}" for k, h in sorted(kinds.items())), "|",
                  *(f"{k}={v}" for k, v in sorted(counts.items())), flush=True)
        return 0
    other = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--src", args.against],
                             stdout=subprocess.PIPE, text=True)
    ours = {run: (digest, kinds, counts) for run, digest, kinds, counts in trace_hashes(args.src)}
    out, _ = other.communicate()
    if other.returncode != 0:
        print(f"hashing under {args.against} failed with status {other.returncode}",
              file=sys.stderr)
        return 1
    theirs = {}
    for line in out.splitlines():
        fields, _, counts = line.partition("|")
        run, digest, *pairs = fields.split()
        theirs[run] = (digest, dict(pair.split(":") for pair in pairs),
                       Counter({k: int(v) for k, v in (c.split("=") for c in counts.split())}))
    missing = ("-", {}, Counter())
    differ = sorted(run for run in ours.keys() | theirs.keys()
                    if ours.get(run, missing)[0] != theirs.get(run, missing)[0])
    for run in differ:
        (a, ak, _), (b, bk, _) = ours.get(run, missing), theirs.get(run, missing)
        kinds = ",".join(sorted(k for k in ak.keys() | bk.keys() if ak.get(k) != bk.get(k)))
        print(f"DIFFERS {run}: {a} (--src) {b} (--against)"
              + (f" kinds {kinds}" if _is_run(run) else ""))
    runs_differ = [run for run in differ if _is_run(run)]
    if runs_differ:
        ours_totals, theirs_totals = _group_totals(ours), _group_totals(theirs)
        for group in sorted(ours_totals.keys() | theirs_totals.keys()):
            a, b = ours_totals.get(group, Counter()), theirs_totals.get(group, Counter())
            print(f"TOTALS {group} (--against -> --src):",
                  ", ".join(f"{k} {b[k]} -> {a[k]}" for k in sorted(a.keys() | b.keys())))
    n_src, n_against = (sum(_is_run(run) for run in side) for side in (ours, theirs))
    files = {run for run in ours.keys() | theirs.keys() if run.startswith("file/")}
    print(f"{n_src} runs under --src, {n_against} under --against, "
          f"{len(runs_differ)} differ; "
          f"{sum(run.startswith('config/') for run in differ)} of {len(RUN_SET)} configs "
          f"differ; {len(files.intersection(differ))} of {len(files)} output files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
