"""Benchmark of mwsnsim: three workloads through the public harness entry
points, timed end to end, or per layer in a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload event_ab --seed 1 --seconds 20 --trace 0

Workloads are event_ab, fleet1000 and capacity_sweep (see workloads.py).
The run sets up (imports mwsnsim and validates the workload's config), then
repeats the workload's round until --seconds have passed, then checks the
last round's outputs. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit status is 1
when an output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
EXTRA_PER_LAYER = {"config.validate_s": ("s", "lower"), "tracing.overhead_s": ("s", "lower")}

# set-up as a user pays it: a fresh interpreter importing mwsnsim and
# validating the workload's config; interpreter start-up is not counted
SETUP_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mwsnsim\n"
    "mwsnsim.validate_config(json.loads(sys.argv[2]))\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def setup_seconds(doc: dict) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, json.dumps(doc)],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def digest(out_dir: str) -> dict[str, str]:
    """sha256 of every file a round wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Bench:
    def __init__(self, workload, seed: int):
        sys.path.insert(0, SRC)
        import mwsnsim
        from mwsnsim import config, harness

        self.backend = mwsnsim.BACKEND
        self.workload = workload
        self.harness = harness
        self.config = config
        self.cfg = config.validate_config(workload.doc)
        self.seeds = workload.seeds(seed)
        self.out_dir = os.path.join(OUT, workload.name)
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.problems: list[str] = []
        self.last = None

    def round(self) -> float:
        """Run one round; returns its wall time."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.last = None  # the previous round's traces must not count in this round's memory
        t0 = time.perf_counter()
        result = self.workload.run(self.harness, self.cfg, self.seeds, self.out_dir)
        wall = time.perf_counter() - t0
        self.attempted += result.attempted
        self.failed += result.failed
        self.last = result
        files = digest(self.out_dir)
        if self.digests is None:
            self.digests = files
        elif files != self.digests:
            self.problems.append("a round's output files differ from the first round's")
        return wall

    def check(self) -> None:
        self.problems += self.workload.check(self.harness, self.cfg, self.seeds,
                                             self.out_dir, self.last)


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Repeat the round until the next one would end after `seconds`."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(bench.round())
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb}, {"": walls}


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds until the next pair would end
    after `seconds`. Per-layer metrics are medians over the traced rounds;
    the tracing overhead is the difference of the median wall times."""
    tracer = spans.Tracer()
    layers.instrument(tracer)
    try:
        validate = []
        for _ in range(SETUP_REPEATS):
            first = tracer.start()
            bench.config.validate_config(bench.workload.doc)
            validate.append(tracer.self_times(first, tracer.stop())["config.validate"])
        untraced, traced, per_round, counts = [], [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(bench.round())
            before = dict(tracer.counts)
            first = tracer.start()
            traced.append(bench.round())
            last = tracer.stop()
            round_counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            per_round.append(layers.round_metrics(tracer.self_times(first, last), round_counts))
            counts.append(round_counts)
            if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
                break
    finally:
        tracer.restore()
    if any(c != counts[0] for c in counts[1:]):
        bench.problems.append("traced rounds disagree in their counts")
    os.makedirs(OUT, exist_ok=True)
    tracer.write_csv(os.path.join(OUT, f"{bench.workload.name}.spans.csv"))
    out = {name: statistics.median(r[name] for r in per_round) for name in layers.PER_LAYER}
    out["config.validate_s"] = statistics.median(validate)
    out["tracing.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out, {" untraced": untraced, " traced": traced}


def units() -> dict[str, str]:
    out = dict(END_TO_END)
    out.update({name: spec[0] for name, spec in layers.PER_LAYER.items()})
    out.update({name: spec[0] for name, spec in EXTRA_PER_LAYER.items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.trace:
        bench = Bench(workload, args.seed)
        values, walls = measure_traced(bench, args.seconds)
    else:
        setup_s = setup_seconds(workload.doc)
        bench = Bench(workload, args.seed)
        values, walls = measure(bench, args.seconds)
        values["setup_s"] = setup_s
    bench.check()

    unit = units()
    print(f"workload {workload.name}: seeds {bench.seeds}, backend {bench.backend}")
    for label, times in walls.items():
        print(f"round wall times{label} (s): " + " ".join(f"{w:.4f}" for w in times))
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {unit[name]}")
    print(f"operations attempted {bench.attempted}, failed {bench.failed}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit[name]} for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
