"""Time whole simulation runs and the connectivity layer at several fleet sizes.

Single runs: 22, 200, 1000 and 2000 nodes on the stock 2000 x 2000 m terrain
with the stock 250 m range, 3 cluster heads, 1 base station, a 20 s session,
seed 1, mdlps. Each size is run several times in one process; the median
and minimum wall time of `Simulation(...).run()` are reported.

Per call: `radio.build_graph` and `traffic.hop_distances` on a uniform
random layout of 22 nodes with the 800 m range of the event study, and of
1000 nodes with the stock 250 m range. Each is timed in batches; the
fastest batch mean is reported, which a busy machine disturbs least.

Rebuild: what a frame boundary rebuilds, `radio.build_graph` plus
`traffic.hop_distances` for every route destination, on the fleet at
t = 5 s (seed 1) of three scenarios: the event study's 22 nodes at 800 m,
the capacity sweep's 22 nodes at 900 m on 600 x 600 m with 10 flows, a
complete graph, and 1000 nodes at the stock 250 m. Timed like the per-call
entries; each also records the minor page faults per call, read from
`getrusage(RUSAGE_SELF).ru_minflt` over a run of calls.

Frame rebuild: `Simulation._rebuild_graph` as a frame boundary runs it,
positions, graph and hop maps, over the first FRAME_REBUILDS consecutive
frame boundaries of a fresh simulation of each rebuild scenario (seed 1,
mdlps). The capacity sweep's terrain is proven complete for the run, so
there the engine, and this entry, build one graph and keep it; the other
two scenarios build at every frame. The best and median time per frame
over several fresh simulations, after one untimed, are reported.

Construction: `Simulation(...)` of the stock scenario over a 36,000 s
session with no critical event, seed 1, mdlps, built several times, each in
a fresh subprocess, so its peak RSS is that of the interpreter, numpy and
this one simulation. The peak is the subprocess's `VmHWM` (Linux): its
`ru_maxrss` would also carry the peak of the process that spawned it, since
Linux keeps that high-water mark across exec. The median and minimum
construction time, the events pending after construction and the largest
peak RSS are reported.

Memory: `harness.run_experiment` of the event study
(configs/event_study.yaml) with a 1000 s session, both schemes, writing its
files and traces to a temporary directory, for seed 1 and for seeds 1-4,
each in a fresh subprocess whose `VmHWM` is its peak RSS, as in the
construction entry. The two peaks show whether memory grows with the seed
count.

Serialization: `trace_to_jsonl` on the 12 traces of the event study
(configs/event_study.yaml, seeds 1-6, both schemes), timed in batches like
the per-call entries: the fastest batch's microseconds per record, for all
records together and for each record kind alone.

The results of one invocation go into the --out file under --label, next
to those of earlier invocations, with the machine, Python and numpy
versions. --src picks the source tree whose `mwsnsim` is timed, so two
commits can be measured with the same script:

    python benchmarks/bench.py --label parent --src /path/to/parent/src --out bench.json
    python benchmarks/bench.py --label change --out bench.json

Perfbench pairs: with --perfbench PARENT_TREE, the repository's own
benchmark instead, `perfbench/run.py --workload W --seed S --seconds T
--trace 0`, run from this repository and from PARENT_TREE (another checkout
of it), --pairs times per workload of `BENCHMARK.json`, whose `run_seconds`
is T; S is --seed, by default 424242, so a claim can be measured on a seed
not used while developing the change. Which tree goes first alternates from
pair to pair: the parent in even pairs, this tree in odd ones. Each run's
last JSON line goes into the --out file under `perfbench`, with per
workload and end-to-end metric: both sides' median and quartiles, the pairs
this tree won and lost, and the parent's interquartile range relative to
its median. A metric is flagged `unresolved` when that relative spread
exceeds the metric's `bound` in `BENCHMARK.json`, a fraction of the
parent's median:

    python benchmarks/bench.py --perfbench /path/to/parent --pairs 10 --seed S --out bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH_SEED = 424242
RUN_SIZES = {22: 7, 200: 5, 1000: 3, 2000: 3}  # node count -> repeats
CALL_LAYOUTS = {22: 800.0, 1000: 250.0}  # node count -> nominal range (m)
# rebuild entry -> scenario overrides
REBUILD_SCENARIOS = {
    "event_ab_22": {"radio": {"nominal_range": 800.0}},
    "capacity_22": {"node_count": 22, "cluster_heads": 3, "base_stations": 1,
                    "terrain_area": {"width": 600.0, "height": 600.0}, "flow_count": 10,
                    "radio": {"nominal_range": 900.0}, "critical_events": []},
    "fleet_1000": {"node_count": 1000, "cluster_heads": 3, "base_stations": 1},
}
REBUILD_AT = 5.0  # seconds into the run
FRAME_REBUILDS = 40  # consecutive frame boundaries per timed simulation
FRAME_REPEATS = 7  # fresh simulations per scenario
FAULT_CALLS = 50
TERRAIN = 2000.0
LONG_SESSION = 36000.0  # seconds of the construction entry
EVENT_STUDY = os.path.join(HERE, "..", "configs", "event_study.yaml")
SERIALIZE_SEEDS = range(1, 7)  # run under both schemes
MEMORY_SESSION = 1000.0  # seconds of the memory entry's event study
MEMORY_SEEDS = {"seed_1": [1], "seeds_1_4": [1, 2, 3, 4]}  # each under both schemes
CONSTRUCT_REPEATS = 5
# run in a fresh interpreter: argv is this directory, the source tree and
# the scenario's overrides as JSON
REBUILD_CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bench
print(json.dumps(bench.rebuild_entry(json.loads(sys.argv[3]))))
"""
# run in a fresh interpreter: argv is the source tree and the session length
CONSTRUCT_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from mwsnsim import Simulation, validate_config
cfg = validate_config({"session_duration": float(sys.argv[2]), "critical_events": []})
t0 = time.perf_counter()
sim = Simulation(cfg, seed=1, scheme="mdlps")
elapsed = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"s": elapsed, "pending": len(sim.queue), "peak_rss_mb": hwm_kb / 1024}))
"""
# run in a fresh interpreter: argv is the source tree, the scenario file,
# the session length and the seeds as JSON
MEMORY_CHILD = """
import json, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from mwsnsim import load_config
from mwsnsim.harness import run_experiment
cfg = load_config(sys.argv[2]).with_overrides(session_duration=float(sys.argv[3]))
t0 = time.perf_counter()
with tempfile.TemporaryDirectory() as out:
    reports = run_experiment(cfg, json.loads(sys.argv[4]), ["mdlps", "data"], out_dir=out)
elapsed = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"s": elapsed, "runs": len(reports), "peak_rss_mb": hwm_kb / 1024}))
"""


def run_config(n: int):
    from mwsnsim import validate_config

    return validate_config({"node_count": n, "cluster_heads": 3, "base_stations": 1,
                            "session_duration": 20.0})


def time_runs() -> dict:
    from mwsnsim import Simulation

    out = {}
    for n, repeats in RUN_SIZES.items():
        cfg = run_config(n)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            trace = Simulation(cfg, seed=1, scheme="mdlps").run()
            times.append(time.perf_counter() - t0)
        out[str(n)] = {"median_s": statistics.median(times), "min_s": min(times),
                       "repeats": repeats, "trace_records": len(trace)}
        print(f"run n={n}: median {out[str(n)]['median_s']:.3f} s over {repeats}", flush=True)
    return out


def time_per_call(fn, target_s: float = 0.2, batches: int = 9) -> float:
    """Fastest over batches of the mean seconds per call; a batch lasts
    about target_s."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    number = max(1, int(target_s / once))
    means = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        means.append((time.perf_counter() - t0) / number)
    return min(means)


def time_calls() -> tuple[dict, dict]:
    import numpy as np
    from mwsnsim import Simulation, radio, traffic, validate_config

    build, bfs = {}, {}
    for n, nominal in CALL_LAYOUTS.items():
        # the parameters a run at this range uses, read from the engine so
        # any source tree's derivation of them is the one timed
        cfg = validate_config({"radio": {"nominal_range": nominal}})
        params = Simulation(cfg, seed=1, scheme="mdlps").radio
        rng = np.random.default_rng(n)
        px = rng.uniform(0.0, TERRAIN, n)
        py = rng.uniform(0.0, TERRAIN, n)
        ids = list(range(n))
        graph = radio.build_graph(ids, px, py, params)
        edges = len(graph.edges())
        build[str(n)] = {"best_us": 1e6 * time_per_call(
            lambda: radio.build_graph(ids, px, py, params)), "edges": edges,
            "range_m": nominal}
        bfs[str(n)] = {"best_us": 1e6 * time_per_call(
            lambda: traffic.hop_distances(graph, n - 1)), "edges": edges, "range_m": nominal}
        print(f"n={n}: build_graph {build[str(n)]['best_us']:.1f} us, "
              f"hop_distances {bfs[str(n)]['best_us']:.1f} us, {edges} edges", flush=True)
    return build, bfs


def minor_faults_per_call(fn, calls: int = FAULT_CALLS) -> float:
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def rebuild_entry(doc: dict) -> dict:
    """Minor faults and time per rebuild of one scenario's fleet."""
    from mwsnsim import Simulation, radio, traffic, validate_config

    cfg = validate_config(doc)
    sim = Simulation(cfg, seed=1, scheme="mdlps")
    px, py = sim.mob.positions_at(REBUILD_AT)
    ids = list(range(sim.n))

    def rebuild():
        graph = radio.build_graph(ids, px, py, sim.radio)
        return [traffic.hop_distances(graph, dst) for dst in sim.route_dsts]

    return {"minor_faults": minor_faults_per_call(rebuild),
            "best_us": 1e6 * time_per_call(rebuild), "nodes": sim.n,
            "edges": len(radio.build_graph(ids, px, py, sim.radio).edges()),
            "route_dsts": len(sim.route_dsts), "range_m": cfg["radio"]["nominal_range"]}


def time_rebuilds(src: str) -> dict:
    """rebuild_entry of each scenario in a fresh interpreter, so no earlier
    entry's heap decides the page faults."""
    out = {}
    for name, doc in REBUILD_SCENARIOS.items():
        done = subprocess.run([sys.executable, "-c", REBUILD_CHILD, HERE, os.path.abspath(src),
                               json.dumps(doc)], check=True, capture_output=True, text=True)
        out[name] = json.loads(done.stdout)
        print(f"rebuild {name}: {out[name]['best_us']:.1f} us, "
              f"{out[name]['minor_faults']:.0f} minor faults per call", flush=True)
    return out


def time_frame_rebuilds() -> dict:
    """Per scenario, the time per frame of FRAME_REBUILDS consecutive
    `_rebuild_graph` calls on fresh simulations; construction is not timed."""
    from mwsnsim import Simulation, validate_config

    out = {}
    for name, doc in REBUILD_SCENARIOS.items():
        cfg = validate_config(doc)
        frame = cfg["grid"]["frame_length"]
        times = []
        for _ in range(FRAME_REPEATS + 1):  # the first one warms up, untimed
            sim = Simulation(cfg, seed=1, scheme="mdlps")
            t0 = time.perf_counter()
            for k in range(FRAME_REBUILDS):
                sim._rebuild_graph(k * frame)
            times.append((time.perf_counter() - t0) / FRAME_REBUILDS)
        times = times[1:]
        out[name] = {"best_us": 1e6 * min(times), "median_us": 1e6 * statistics.median(times),
                     "frames": FRAME_REBUILDS, "repeats": FRAME_REPEATS, "nodes": sim.n}
        print(f"frame rebuild {name}: median {out[name]['median_us']:.1f} us per frame",
              flush=True)
    return out


def time_serialization() -> dict:
    from mwsnsim import Simulation, load_config, trace_to_jsonl

    cfg = load_config(EVENT_STUDY)
    traces = [Simulation(cfg, seed=seed, scheme=scheme).run()
              for seed in SERIALIZE_SEEDS for scheme in ("mdlps", "data")]
    by_kind: dict[str, list[dict]] = {}
    for trace in traces:
        for rec in trace:
            by_kind.setdefault(rec["k"], []).append(rec)
    total = sum(len(trace) for trace in traces)
    out = {"all": {"records": total, "best_us_per_record": 1e6 / total * time_per_call(
        lambda: [trace_to_jsonl(trace) for trace in traces], batches=5)}}
    for kind, recs in sorted(by_kind.items()):
        out[kind] = {"records": len(recs), "best_us_per_record": 1e6 / len(recs) * time_per_call(
            lambda: trace_to_jsonl(recs), target_s=0.05, batches=5)}
    print("serialize: " + ", ".join(f"{kind} {v['best_us_per_record']:.2f}"
                                    for kind, v in out.items()) + " us per record", flush=True)
    return out


def time_construction(src: str) -> dict:
    runs = []
    for _ in range(CONSTRUCT_REPEATS):
        out = subprocess.run([sys.executable, "-c", CONSTRUCT_CHILD, os.path.abspath(src),
                              str(LONG_SESSION)], check=True, capture_output=True, text=True)
        runs.append(json.loads(out.stdout))
    times = [r["s"] for r in runs]
    result = {"session_s": LONG_SESSION, "median_s": statistics.median(times),
              "min_s": min(times), "repeats": CONSTRUCT_REPEATS,
              "pending_events": runs[0]["pending"],
              "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}
    print(f"construct {LONG_SESSION:.0f} s session: median {result['median_s']:.4f} s, "
          f"{result['pending_events']} pending, {result['peak_rss_mb']:.1f} MB peak RSS",
          flush=True)
    return result


def measure_memory(src: str) -> dict:
    out = {}
    for name, seeds in MEMORY_SEEDS.items():
        done = subprocess.run([sys.executable, "-c", MEMORY_CHILD, os.path.abspath(src),
                               EVENT_STUDY, str(MEMORY_SESSION), json.dumps(seeds)],
                              check=True, capture_output=True, text=True)
        out[name] = {**json.loads(done.stdout), "seeds": seeds, "session_s": MEMORY_SESSION}
        print(f"memory {name}: {out[name]['runs']} runs of {MEMORY_SESSION:.0f} s, "
              f"{out[name]['peak_rss_mb']:.1f} MB peak RSS", flush=True)
    return out


def perfbench_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in tree: its last JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "exit": done.returncode, "stderr": done.stderr[-2000:]}
    return {**json.loads(lines[-1]), "exit": done.returncode}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize_pairs(runs: list[dict], metric: dict) -> dict:
    """Both sides of one workload's pairs on one end-to-end metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["metrics"][name]["value"] for r in runs if r["side"] == side]
              for side in ("parent", "change")}
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    wins = [c < p if lower else c > p for p, c in zip(values["parent"], values["change"])]
    iqr_rel = (parent["q3"] - parent["q1"]) / parent["median"]
    return {"parent": parent, "change": change, "pairs": len(wins),
            "change_better_pairs": sum(wins), "change_worse_pairs": len(wins) - sum(wins),
            "median_change_over_parent": change["median"] / parent["median"],
            "parent_iqr_relative": iqr_rel, "bound": metric["bound"],
            "unresolved": iqr_rel > metric["bound"]}


def compare_perfbench(parent_tree: str, pairs: int, seed: int) -> dict:
    """Alternated perfbench pairs of this tree and parent_tree per workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    trees = {"parent": os.path.abspath(parent_tree), "change": ROOT}
    runs, summary = [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        done = []
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = perfbench_run(trees[side], workload, seed, seconds)
                run.update(workload=workload, pair=pair, side=side, first=order[0])
                done.append(run)
                print(f"{workload} pair {pair} {side}: correct {run.get('correct')}, "
                      + ", ".join(f"{m} {v['value']:.4g}"
                                  for m, v in sorted(run.get("metrics", {}).items())), flush=True)
        ok = all(r.get("correct") for r in done)
        summary[workload] = {"all_correct": ok, "failed": {
            side: sum(r.get("failed", 0) for r in done if r["side"] == side)
            for side in trees}}
        if ok:
            summary[workload].update({m["name"]: summarize_pairs(done, m)
                                      for m in spec["end_to_end"]})
        runs += done
    return {"command": f"python3 perfbench/run.py --workload W --seed {seed} "
                       f"--seconds {seconds:g} --trace 0",
            "order": f"{pairs} pairs per workload; the parent runs first in even pairs, "
                     "this tree in odd ones",
            "runs": runs, "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="key of this invocation's results")
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="source tree that holds the mwsnsim package to time")
    ap.add_argument("--perfbench", metavar="PARENT_TREE",
                    help="run perfbench pairs of this repository against PARENT_TREE instead")
    ap.add_argument("--pairs", type=int, default=10, help="perfbench pairs per workload")
    ap.add_argument("--seed", type=int, default=PERFBENCH_SEED,
                    help=f"perfbench seed (default {PERFBENCH_SEED})")
    ap.add_argument("--out", required=True,
                    help="JSON file that the results are merged into")
    args = ap.parse_args(argv)
    if args.perfbench is None and args.label is None:
        ap.error("--label is required unless --perfbench is given")
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if args.perfbench is not None:
        doc["perfbench"] = compare_perfbench(args.perfbench, args.pairs, args.seed)
    else:
        build, bfs = time_calls()
        doc.setdefault("results", {})[args.label] = {
            "runs": time_runs(), "build_graph": build, "hop_distances": bfs,
            "rebuild": time_rebuilds(args.src), "frame_rebuild": time_frame_rebuilds(),
            "construct": time_construction(args.src),
            "memory": measure_memory(args.src), "serialize": time_serialization()}
    doc["machine"] = {"platform": platform.platform(), "machine": platform.machine(),
                      "cpus": os.cpu_count()}
    doc["python"] = platform.python_version()
    doc["numpy"] = np.__version__
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
