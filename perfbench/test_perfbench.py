"""Tests of the benchmark's own machinery: span arithmetic, the output
oracles and the operation counter.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mwsnsim import harness, radio, validate_config  # noqa: E402
from mwsnsim.traffic import hop_distances  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [11, 12] is top level
    names = ["a", "b", "d", "c", "e"]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    times = spans.self_times(names, starts, ends, parents)
    assert times == {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0, "e": 1.0}
    assert sum(times.values()) == 11.0  # the top-level spans' total


def test_self_time_sums_spans_of_one_name():
    times = spans.self_times(["x", "x", "x"], [0.0, 1.0, 3.0], [5.0, 2.0, 4.0], [-1, 0, 0])
    assert times == {"x": 5.0}


def test_tracer_records_nested_wrapped_calls_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.outer
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "inner", after=lambda counts, args, result: counts.update(seen=result))
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(1) == 4 and not tracer.names  # inactive: calls through, no spans
    first = tracer.start()
    assert mod.outer(1) == 4
    last = tracer.stop()
    tracer.restore()
    assert mod.outer is original
    assert tracer.names[first:last] == ["outer", "inner"]
    assert list(tracer.parents) == [-1, 0]
    assert tracer.counts == {"outer": 1, "inner": 1, "seen": 2}
    times = tracer.self_times(first, last)
    assert times["outer"] >= 0.0 and times["inner"] >= 0.0


def _graph(n=60, seed=3, nominal_range=250.0):
    rng = np.random.default_rng(seed)
    px, py = rng.uniform(0, 800, n), rng.uniform(0, 800, n)
    base = radio.RadioParams(rx_threshold=1.0)
    params = radio.RadioParams(rx_threshold=radio.threshold_for_range(base, nominal_range))
    return list(range(n)), px, py, radio.build_graph(range(n), px, py, params)


def test_edge_oracle_accepts_the_program_graph():
    ids, px, py, graph = _graph()
    assert graph.edges()
    assert checks.edge_problems(ids, px, py, 250.0, graph.edges()) == []


def test_edge_oracle_flags_a_graph_with_one_edge_removed():
    ids, px, py, graph = _graph()
    edges = graph.edges()
    problems = checks.edge_problems(ids, px, py, 250.0, edges[:3] + edges[4:])
    assert len(problems) == 1 and "missing" in problems[0]


def test_edge_oracle_flags_an_edge_beyond_range():
    ids, px, py, graph = _graph()
    far = max(((a, b) for a in ids for b in ids if a < b),
              key=lambda e: np.hypot(px[e[0]] - px[e[1]], py[e[0]] - py[e[1]]))
    problems = checks.edge_problems(ids, px, py, 250.0, graph.edges() + [far])
    assert len(problems) == 1 and "beyond" in problems[0]


def test_bfs_oracle_flags_a_wrong_hop_count():
    _, _, _, graph = _graph()
    dist = hop_distances(graph, 0)
    assert checks.bfs_problems(graph.adj, 0, dist) == []
    far = max(dist, key=dist.get)
    assert checks.bfs_problems(graph.adj, 0, {**dist, far: dist[far] + 1})


def test_capacity_bound_check_flags_throughput_above_the_bound():
    cfg = validate_config(workloads.CAPACITY_DOC)
    assert checks.capacity_bound_kbps(1, cfg) == 16.0
    assert checks.capacity_bound_kbps(10, cfg) == 64.0
    assert checks.capacity_problems([(1, 15.87), (10, 63.47)], cfg) == []
    problems = checks.capacity_problems([(1, 16.5), (10, 63.47)], cfg)
    assert len(problems) == 1 and "exceeds" in problems[0]


def test_capacity_bound_check_flags_throughput_below_the_floor():
    cfg = validate_config(workloads.CAPACITY_DOC)
    problems = checks.capacity_problems([(4, 50.0)], cfg)
    assert len(problems) == 1 and "below" in problems[0]


def test_run_counter_counts_a_failed_run_as_a_failed_operation():
    reports = [harness.FailedRun(2, "data", RuntimeError("boom")), object()]
    fake = types.SimpleNamespace(FailedRun=harness.FailedRun,
                                 run_experiment=lambda *args, **kwargs: reports)
    result = workloads.WORKLOADS["event_ab"].run(fake, None, [2], "unused")
    assert (result.attempted, result.failed) == (2, 1)


def test_conservation_check_flags_a_packet_without_a_terminal_record():
    trace = [{"k": "gen", "p": 0}, {"k": "gen", "p": 1},
             {"k": "rx", "p": 0, "fin": 1}, {"k": "drop", "p": 0}]
    problems = checks.conservation_problems(trace, "t")
    assert any("packet 0 has 2" in p for p in problems)
    assert any("packet 1 has 0" in p for p in problems)


def test_benchmark_json_lists_every_metric_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = run.units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: units[name] for name in per_layer}
    assert set(per_layer) == set(layers.PER_LAYER) | set(run.EXTRA_PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 7])
def test_workload_seeds_are_a_function_of_the_benchmark_seed(seed):
    for workload in workloads.WORKLOADS.values():
        assert workload.seeds(seed) == workload.seeds(seed)
        assert len(set(workload.seeds(seed))) == workload.seeds_per_round
