"""The names the per-layer benchmark wraps, and the report attributes its
checks read, must exist in the package and mean what perfbench takes them
to mean.

`perfbench/run.py --trace 1` wraps mwsnsim functions by name through
`perfbench/layers.py`, and `perfbench/run.py` reads `mwsnsim.BACKEND`.
`perfbench/checks.py` picks the runs whose trace files it checks by the
truth of each report's `trace`. perfbench's own tests are not tier-1, so
these tests are what fail when a change in `src` removes or renames one of
those names, or makes a check pass without checking anything.
"""

import os

import mwsnsim
from mwsnsim import radio, validate_config
from mwsnsim.harness import run_experiment

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_perfbench_wraps_names_that_exist(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    link_test = radio.in_range
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        assert radio.in_range is not link_test
    finally:
        tracer.restore()
    assert radio.in_range is link_test
    assert isinstance(mwsnsim.BACKEND, str)


def test_perfbench_trace_check_sees_a_corrupted_trace_file(monkeypatch, tmp_path):
    """Dropping one `drop` line from a written trace file is a conservation
    problem that `checks.trace_files_problems` reports."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import checks

    cfg = validate_config({
        "node_count": 8, "cluster_heads": 1, "base_stations": 1,
        "session_duration": 10.0, "flow_count": 3,
        "terrain_area": {"width": 400.0, "height": 400.0},
        "radio": {"nominal_range": 600.0},
        "critical_events": [{"time": 4.0, "x": 200.0, "y": 200.0, "radius": 150.0}],
    })
    reports = run_experiment(cfg, [1, 2], ["mdlps", "data"], out_dir=str(tmp_path))
    assert checks.trace_files_problems(str(tmp_path), reports) == []

    path = tmp_path / "trace_data_s2.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if '"k":"drop"' in line)
    path.write_text("".join(lines[:drop] + lines[drop + 1:]), encoding="utf-8")
    problems = checks.trace_files_problems(str(tmp_path), reports)
    assert len(problems) == 1 and problems[0].startswith("seed 2 data: packet ")
