"""Configuration ingestion, experiment orchestration, metric emission,
trace replay, and the CLI surface."""

import dataclasses
import functools
import inspect
import json
import os

import pytest

from helpers import stream_draws
from mwsnsim import metrics, trace_from_jsonl
from mwsnsim.cli import main as cli_main
from mwsnsim.config import (
    SCHEMA,
    ParseError,
    ValidationError,
    load_config,
    loads_config,
    validate_config,
)
from mwsnsim.energy import BatteryState, EnergyCosts
from mwsnsim.engine import Simulation
from mwsnsim.harness import (
    ConservationError,
    emit_report,
    replay_metric,
    run_experiment,
    run_header_text,
    throughput_vs_connections,
)
from mwsnsim.mobility import MobilityField, make_leg
from mwsnsim.radio import RadioParams
from mwsnsim.scheduler import FlowParams, network_priority
from mwsnsim.traffic import Flow, PdrTracker

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _two_networks(first: str, second: str, second_members=range(11, 22)) -> str:
    """Two networks covering the stock 22 nodes; `first` and `second` give
    each entry's id and any further keys, `second_members` the second's
    members."""
    return (f"networks: [{{{first}, bandwidth: 1.0e+6, members: {list(range(11))}}}, "
            f"{{{second}, bandwidth: 1.0e+6, members: {list(second_members)}}}]")


# configuration ----------------------------------------------------------------

def test_empty_document_resolves_to_stock_scenario():
    cfg = validate_config({})
    assert cfg.node_count == 22
    assert cfg.terrain == (2000.0, 2000.0)
    assert cfg.session_duration == 100.0
    assert cfg["queue_size"] == 50
    assert cfg["initial_energy"] == 50.0
    assert cfg["packet_size"] == 1000
    assert cfg["cbr_interval"] == 0.5


def test_empty_yaml_document_also_defaults():
    cfg = loads_config("")
    assert cfg.node_count == 22


def test_negative_node_count_names_the_field():
    with pytest.raises(ValidationError) as err:
        validate_config({"node_count": -1})
    assert err.value.field == "node_count"
    assert "node_count" in str(err.value)


def test_unknown_field_rejected():
    with pytest.raises(ValidationError) as err:
        validate_config({"node_cout": 5})
    assert err.value.field == "node_cout"
    # motion has no time grid, so its old step option is unknown too
    with pytest.raises(ValidationError) as err:
        validate_config({"mobility": {"tick_interval": 0.1}})
    assert err.value.field == "mobility.tick_interval"


@pytest.mark.parametrize("key", ["frequency", "tx_power", "tx_gain", "rx_gain",
                                 "antenna_height_tx", "antenna_height_rx", "system_loss"])
def test_path_loss_constants_are_not_radio_fields(key):
    """The radio section sets the range alone; the path-loss constants are
    fixed, so a scenario naming one is refused rather than ignored."""
    with pytest.raises(ValidationError) as err:
        loads_config(f"radio: {{{key}: 1.0}}")
    assert err.value.field == f"radio.{key}"
    assert str(err.value) == f"radio.{key}: unknown field"


def test_desired_pdr_must_exceed_threshold():
    with pytest.raises(ValidationError) as err:
        validate_config({"flow": {"desired_pdr": 0.2, "pdr_threshold": 0.25}})
    assert err.value.field == "flow.desired_pdr"


@pytest.mark.parametrize("flows", [
    [{"id": "x", "src": 0, "dst": 21}, {"id": "x", "src": 1, "dst": 21}],
    # an explicit id equal to a later entry's default id
    [{"id": "flow1", "src": 0, "dst": 21}, {"src": 1, "dst": 21}],
])
def test_repeated_flow_id_rejected(flows):
    with pytest.raises(ValidationError) as err:
        validate_config({"flows": flows})
    assert err.value.field == "flows[1].id"


@pytest.mark.parametrize("doc, field", [
    ("terrain_area: {width: .inf}", "terrain_area.width"),
    ("session_duration: .inf", "session_duration"),
    ("mobility: {speed_max: .inf}", "mobility.speed_min"),
    ("radio: {nominal_range: .nan}", "radio.nominal_range"),
    # quoted numbers
    ("flow: {desired_pdr: '0.9'}", "flow.desired_pdr"),
    ("flow: {pdr_threshold: '0.25'}", "flow.pdr_threshold"),
    ("mobility: {speed_min: '1.0'}", "mobility.speed_min"),
    ("mobility: {controlled_speed_cap: '2.0'}", "mobility.controlled_speed_cap"),
    ("mobility: {class_thresholds: ['5.0', 15.0]}", "mobility.class_thresholds"),
    ("mobility: {class_thresholds: [5.0, '15.0']}", "mobility.class_thresholds"),
    ("energy: {battery_threshold: '10.0'}", "energy.battery_threshold"),
    ("options: {density_weight: '0.7'}", "options.density_weight"),
    ("options: {bandwidth_weight: '0.3'}", "options.bandwidth_weight"),
    ("flows: [{src: 0, dst: 21, start: '0.0'}]", "flows[0].start"),
    ("flows: [{src: 0, dst: 21, stop: '50.0'}]", "flows[0].stop"),
    ("flows: [{src: 0, dst: 21, importance_override: '0.5'}]", "flows[0].importance_override"),
    # numbers out of their range, and a string where a bool belongs
    ("mobility: {patrol_radius: -5.0}", "mobility.patrol_radius"),
    ("mobility: {patrol_radius: .inf}", "mobility.patrol_radius"),
    ("flows: [{src: 0, dst: 21, start: -2.0}]", "flows[0].start"),
    ("critical_events: [{time: 1.0, x: 0.0, y: 0.0, radius: 5.0, emit_reports: 'no'}]",
     "critical_events[0].emit_reports"),
    # booleans where an integer belongs
    ("cluster_heads: true", "cluster_heads"),
    ("queue_size: true", "queue_size"),
    ("grid: {frequencies: true}", "grid.frequencies"),
    ("seed: true", "seed"),
    ("flows: [{src: true, dst: 21}]", "flows[0].src"),
    ("critical_events: [{time: 1.0, x: 0.0, y: 0.0, radius: 5.0, reporter: true}]",
     "critical_events[0].reporter"),
    # numpy seeds only from non-negative entropy
    ("seed: -1", "seed"),
    # node 18 is a cluster head, and only sensors report
    ("critical_events: [{time: 1.0, x: 0.0, y: 0.0, radius: 5.0, reporter: 18}]",
     "critical_events[0].reporter"),
    # list entries reject unknown keys, as sections do
    ("flows: [{src: 0, dst: 21, intreval: 1.0}]", "flows[0].intreval"),
    ("critical_events: [{time: 1.0, x: 0.0, y: 0.0, radius: 5.0, reportr: 3}]",
     "critical_events[0].reportr"),
    (_two_networks("id: a, bandwith: 1.0e+6", "id: b"), "networks[0].bandwith"),
    # network ids repeated, also after str()
    (_two_networks("id: a", "id: a"), "networks[1].id"),
    (_two_networks("id: 1", "id: '1'"), "networks[1].id"),
    # every node in exactly one network, so each node has a network rank
    (_two_networks("id: a", "id: b", range(11, 21)), "networks"),
    (_two_networks("id: a", "id: b", range(10, 22)), "networks[1].members"),
    # the plane types take these as given, so config is their only check
    ("energy: {tx_power: 0.1}", "energy.tx_power"),
    ("energy: {link_rate: 0.0}", "energy.link_rate"),
    ("energy: {battery_levels: 0}", "energy.battery_levels"),
    ("energy: {battery_threshold: 50.0}", "energy.battery_threshold"),
    ("energy: {level_penalty: -0.5}", "energy.level_penalty"),
    ("mobility: {class_thresholds: [15.0, 5.0]}", "mobility.class_thresholds"),
    ("mobility: {class_thresholds: [5.0, 5.0]}", "mobility.class_thresholds"),
    ("radio: {nominal_range: 0.0}", "radio.nominal_range"),
    ("flows: [{src: 0, dst: 21, interval: 0.0}]", "flows[0].interval"),
    ("flows: [{src: 0, dst: 21, start: 5.0, stop: 5.0}]", "flows[0].stop"),
    ("critical_events: [{time: 1.0, x: 0.0, y: 0.0, radius: -1.0}]",
     "critical_events[0].radius"),
    ("options: {density_weight: 0.0, bandwidth_weight: 0.0}", "options.density_weight"),
    ("options: {velocity_floor: 0.0}", "options.velocity_floor"),
    ("grid: {frequencies: 0}", "grid.frequencies"),
    ("queue_size: 0", "queue_size"),
    ("flow: {pdr_window: 0}", "flow.pdr_window"),
    ("flow: {deadline_budget: 0.0}", "flow.deadline_budget"),
])
def test_non_finite_number_rejected(doc, field):
    with pytest.raises(ValidationError) as err:
        loads_config(doc)
    assert err.value.field == field


@pytest.mark.parametrize("radio", [
    # the threshold's distance squares to zero
    "{nominal_range: 1.0e-300}",
    # threshold inf, range 0 or nan
    "{nominal_range: 1.0e-160}",
    # threshold 0, range inf
    "{nominal_range: 1.0e+90}",
])
def test_radio_without_a_finite_disc_rejected(radio, tmp_path, capsys):
    """A nominal range must imply a finite reception threshold > 0 and a
    finite range; the CLI refuses it before any run."""
    with pytest.raises(ValidationError) as err:
        loads_config(f"radio: {radio}")
    assert err.value.field == "radio.nominal_range"
    cfg_path = tmp_path / "radio.yaml"
    cfg_path.write_text(f"radio: {radio}\n")
    out = tmp_path / "o"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--no-traces"])
    assert code != 0
    assert "radio.nominal_range" in capsys.readouterr().err
    assert not (out / "aggregate.csv").exists()


def test_shipped_configs_load_and_stock_is_the_empty_document():
    for name in sorted(os.listdir(CONFIG_DIR)):
        load_config(os.path.join(CONFIG_DIR, name))
    assert load_config(os.path.join(CONFIG_DIR, "stock.yaml")) == validate_config({})


def test_scenario_values_have_no_default_outside_the_config():
    """config.SCHEMA is the one home of each scenario default: the plane
    types, and the functions that take scenario values, give none of their
    own. RadioParams sets the reception threshold alone; NS-2's path-loss
    constants are its class constants."""
    assert [f.name for f in dataclasses.fields(RadioParams)] == ["rx_threshold"]
    for cls in (RadioParams, EnergyCosts, BatteryState, FlowParams, Flow):
        for f in dataclasses.fields(cls):
            assert f.default is f.default_factory is dataclasses.MISSING, (cls, f.name)
    for fn in (PdrTracker, MobilityField, network_priority):
        for name, param in inspect.signature(fn).parameters.items():
            assert param.default is inspect.Parameter.empty, (fn, name)


def test_malformed_yaml_is_parse_error():
    with pytest.raises(ParseError):
        loads_config("{nodes: [unclosed")


def test_scheduler_and_grid_echo_round_trip():
    cfg = validate_config({"scheduler": "data",
                           "grid": {"frequencies": 4, "slots_per_frame": 5}})
    header = run_header_text(cfg, [1], ["data"])
    assert "scheduler: data" in header
    assert "frequencies: 4" in header and "slots_per_frame: 5" in header


def test_config_round_trip_is_idempotent():
    cfg = validate_config({"node_count": 12, "cluster_heads": 2,
                           "scheduler": "data", "flow_count": 4})
    again = loads_config(cfg.to_yaml())
    assert again == cfg
    assert again.to_yaml() == cfg.to_yaml()


def test_resolved_config_states_the_stock_event():
    """The default critical event resolves in the config, so the header of
    a run lists it. The SCHEMA fields still null are those whose resolved
    form would be no statement of the scenario."""
    cfg = validate_config({})
    assert cfg["critical_events"] == [{"time": 10.0, "x": 1000.0, "y": 1000.0, "radius": 400.0,
                                       "reporter": None, "emit_reports": True}]
    assert "critical_events:\n- emit_reports: true\n  radius: 400.0" in cfg.to_yaml()
    null_fields = {path for path in SCHEMA
                   if functools.reduce(lambda d, key: d[key], path.split("."), cfg) is None}
    assert null_fields == {
        # a list would restate every node, and one network's bandwidth
        # ranks nothing
        "networks",
        # both are draws that depend on the seed
        "flows", "node_placement",
    }


def test_overrides_derive_the_defaults_that_follow_them():
    """with_overrides validates the document again, so each default derived
    from another field follows an override of that field."""
    one_flow = validate_config({"flows": [{"src": 0, "dst": 21}]})
    assert one_flow.with_overrides(session_duration=50.0)["flows"][0]["stop"] == 50.0
    assert one_flow.with_overrides(cbr_interval=0.25)["flows"][0]["interval"] == 0.25
    stock = validate_config({})
    assert stock.with_overrides(session_duration=5.0)["critical_events"] == []
    moved = stock.with_overrides(terrain_area={"width": 600.0, "height": 800.0})
    assert [(ev["x"], ev["y"]) for ev in moved["critical_events"]] == [(300.0, 400.0)]
    assert loads_config(stock.to_yaml()) == stock


def test_effective_range_logged_in_header():
    cfg = validate_config({})
    header = run_header_text(cfg, [1, 2], ["mdlps"])
    assert "effective_radio_range_m: 250.0" in header
    assert "rx_threshold_w" in header


def _fast_cfg(**over):
    doc = {
        "node_count": 8, "cluster_heads": 1, "base_stations": 1,
        "session_duration": 10.0, "flow_count": 3,
        "terrain_area": {"width": 400.0, "height": 400.0},
        "radio": {"nominal_range": 600.0},
        "critical_events": [{"time": 4.0, "x": 200.0, "y": 200.0, "radius": 150.0}],
    }
    doc.update(over)
    return validate_config(doc)


# experiments --------------------------------------------------------------------

def test_single_seed_single_scheme(tmp_path):
    out = tmp_path / "exp"
    reports = run_experiment(_fast_cfg(), [1], ["mdlps"], out_dir=str(out))
    assert len(reports) == 1
    assert (out / "summary.csv").exists()
    assert (out / "run_header.txt").exists()
    assert (out / "trace_mdlps_s1.jsonl").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one run


def test_paired_schemes_share_the_world(tmp_path):
    out = tmp_path / "ab"
    reports = run_experiment(_fast_cfg(), [3], ["mdlps", "data"], out_dir=str(out))
    assert len(reports) == 2
    assert (out / "ab_summary.csv").exists()
    key = lambda rec: (rec["t"], rec["p"], rec["fl"], rec["src"], rec["dst"],
                       rec["sz"], rec["dl"], rec["imp"])
    traces = [_read_trace(rep.trace) for rep in reports]
    worlds = [[key(rec) for rec in trace if rec["k"] == "gen"] for trace in traces]
    assert worlds[0] == worlds[1]
    draws = [stream_draws(trace) for trace in traces]
    assert draws[0] == draws[1]


def _read_trace(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_jsonl(fh.read())


def test_each_report_names_its_written_trace_file(tmp_path):
    """Each run's trace file is written as the run ends and holds that run's
    trace; the report keeps only the file's path."""
    cfg = _fast_cfg()
    reports = run_experiment(cfg, [1, 2, 3], ["mdlps", "data"], out_dir=str(tmp_path))
    assert len(reports) == 6
    for rep in reports:
        assert rep.trace == str(tmp_path / f"trace_{rep.scheme}_s{rep.seed}.jsonl")
        assert os.path.isfile(rep.trace)
        assert _read_trace(rep.trace) == Simulation(cfg, seed=rep.seed, scheme=rep.scheme).run()
        assert replay_metric(rep.trace, "throughput") == rep.throughput


def test_no_trace_files_without_write_traces(tmp_path):
    reports = run_experiment(_fast_cfg(), [1, 2, 3], ["mdlps", "data"], out_dir=str(tmp_path),
                             write_traces=False)
    assert [rep.trace for rep in reports] == [""] * 6
    assert not [name for name in os.listdir(tmp_path) if name.startswith("trace_")]
    assert "summary.csv" in os.listdir(tmp_path)


def test_multi_seed_summary_rows(tmp_path):
    out = tmp_path / "seeds"
    reports = run_experiment(_fast_cfg(), [1, 2, 3], ["mdlps"], out_dir=str(out))
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 4
    # aggregate file carries per-metric mean and standard deviation
    agg = {row.split(",")[1]: row.split(",") for row in
           (out / "aggregate.csv").read_text().splitlines()[1:]}
    pdrs = [rep.pdr for rep in reports]
    mean = sum(pdrs) / 3
    std = (sum((v - mean) ** 2 for v in pdrs) / 3) ** 0.5
    assert float(agg["pdr_within_deadline"][3]) == pytest.approx(mean, abs=1e-6)
    assert float(agg["pdr_within_deadline"][4]) == pytest.approx(std, abs=1e-6)
    assert agg["throughput_kbps"][2] == "3"


def test_reemit_is_byte_identical(tmp_path):
    cfg = _fast_cfg()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(cfg, [1, 2], ["mdlps", "data"], out_dir=str(out_a))
    run_experiment(cfg, [1, 2], ["mdlps", "data"], out_dir=str(out_b))
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_experiment_requires_seeds():
    with pytest.raises(ValueError):
        run_experiment(_fast_cfg(), [], ["mdlps"])


@pytest.fixture
def no_runs(monkeypatch):
    """Make any run that starts fail the test."""
    import mwsnsim.harness as harness_mod

    def no_run(config, seed, scheme):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness_mod, "run_one", no_run)


@pytest.mark.parametrize("seeds", [[], [-1], [1, -1], [1, True], [1, 2.0]])
def test_seeds_checked_before_any_run(seeds, no_runs):
    """Both entry points refuse what the config's seed field refuses, before
    the first run, rather than failing inside a run."""
    with pytest.raises(ValueError, match="seed"):
        run_experiment(_fast_cfg(), seeds, ["mdlps"])
    with pytest.raises(ValueError, match="seed"):
        throughput_vs_connections(_fast_cfg(), [0, 1], seeds)


def test_failed_run_aborts_only_its_own_seed(tmp_path, monkeypatch):
    """One seed blowing up leaves the others intact and is recorded in the
    summary with its error."""
    import mwsnsim.harness as harness_mod
    real_run_one = harness_mod.run_one

    def flaky(config, seed, scheme):
        if seed == 2:
            raise RuntimeError("injected fault")
        return real_run_one(config, seed, scheme)

    monkeypatch.setattr(harness_mod, "run_one", flaky)
    out = tmp_path / "flaky"
    reports = run_experiment(_fast_cfg(), [1, 2, 3], ["mdlps"], out_dir=str(out))
    assert len(reports) == 3
    assert reports[1].trace == "" and reports[0].trace and reports[2].trace
    assert reports[1].error.__traceback__ is None  # which would keep the run's frames
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert "RuntimeError: injected fault" in rows[1]
    assert "RuntimeError" not in rows[0] and "RuntimeError" not in rows[2]
    assert not (out / "trace_mdlps_s2.jsonl").exists()
    assert (out / "trace_mdlps_s1.jsonl").exists()


def test_empty_report_emits_header_only_files(tmp_path):
    out = tmp_path / "empty"
    written = emit_report([], _fast_cfg(), str(out), seeds=[], schemes=["mdlps"])
    assert "summary.csv" in written and "exec_order.csv" in written
    assert (out / "summary.csv").read_text().splitlines() == [
        ",".join(h for h in __import__("mwsnsim.harness", fromlist=["x"]).SUMMARY_COLUMNS)]
    assert (out / "exec_order.csv").read_text().splitlines() == ["seed,scheme,event,order"]


def test_orphans_counted_under_data_scheme():
    """A sensor with no cluster head in range is flagged every data-scheme
    frame; under the strict policy it never receives a grant."""
    doc = {
        "node_count": 4, "cluster_heads": 1, "base_stations": 1,
        "terrain_area": {"width": 2000.0, "height": 100.0},
        "session_duration": 4.0,
        # sensor 1 sits 1500 m from everyone: no CH, no routes
        "node_placement": [[0.0, 50.0], [1900.0, 50.0], [100.0, 50.0], [50.0, 50.0]],
        "radio": {"nominal_range": 300.0},
        "mobility": {"speed_min": 0.001, "speed_max": 0.002, "controlled_speed_cap": 0.001},
        "critical_events": [],
        "flows": [{"id": "f0", "src": 0, "dst": 3, "interval": 0.5},
                  {"id": "f1", "src": 1, "dst": 3, "interval": 0.5}],
    }
    trace = Simulation(validate_config(doc), seed=1, scheme="data").run()
    assert metrics.orphan_frame_count(trace) > 0
    orphan_frames = [rec for rec in trace if rec["k"] == "frame" and rec.get("orph")]
    assert all(rec["orph"] == [1] for rec in orphan_frames)

    doc["options"] = {"orphan_policy": "exclude"}
    strict = Simulation(validate_config(doc), seed=1, scheme="data").run()
    granted = set()
    for rec in strict:
        if rec["k"] == "frame":
            granted |= {g[2] for g in rec["g"]} | {g[2] for g in rec["x"]}
    assert 1 not in granted


def test_tracker_value_matches_trace_recomputation():
    """The in-run delivery-ratio trackers equal the ratio recomputed from the
    trace's terminal records over the same sliding window."""
    cfg = _fast_cfg()
    sim = Simulation(cfg, seed=5, scheme="mdlps")
    trace = sim.run()
    window = cfg["flow"]["pdr_window"]
    gen_flow = {rec["p"]: rec["fl"] for rec in trace if rec["k"] == "gen"}
    outcomes: dict[str, list[bool]] = {}
    for rec in trace:
        if rec["k"] == "rx" and rec["fin"] == 1:
            outcomes.setdefault(gen_flow[rec["p"]], []).append(bool(rec["ok"]))
        elif rec["k"] == "drop" and rec["c"] != "starved":
            outcomes.setdefault(gen_flow[rec["p"]], []).append(False)
    assert outcomes, "scenario produced no outcomes"
    for flow_id, seq in outcomes.items():
        recent = seq[-window:]
        assert sim.trackers[flow_id].value == pytest.approx(sum(recent) / len(recent))


# throughput sweep ----------------------------------------------------------------

def _sweep_cfg():
    return validate_config({
        "node_count": 10, "cluster_heads": 1, "base_stations": 1,
        "session_duration": 20.1, "flow_count": 1,
        "terrain_area": {"width": 300.0, "height": 300.0},
        "radio": {"nominal_range": 600.0},
        "critical_events": [],
        "grid": {"frequencies": 1, "slots_per_frame": 2, "frame_length": 0.5},
    })


def test_zero_connections_entry_is_zero():
    series = throughput_vs_connections(_sweep_cfg(), [0], [1])
    assert series == [(0, 0.0)]


def test_single_connection_bounded_by_cbr_arithmetic(tmp_path):
    # 1000 B every 0.5 s for 20 s is 40 packets = 16 kbit/s offered load;
    # delivered throughput cannot exceed it
    series = throughput_vs_connections(_sweep_cfg(), [1], [1, 2],
                                       out_dir=str(tmp_path))
    (n, tput), = series
    assert n == 1
    assert 0.0 < tput <= 16.0
    assert (tmp_path / "throughput.csv").exists()


def test_sweep_refuses_explicit_flows_and_checks_every_count_first(no_runs):
    """Explicit flows override flow_count, so a sweep over them would run
    the same flows at every count; and a count the scenario cannot hold is
    refused before any count runs."""
    two_flows = _sweep_cfg().with_overrides(
        flows=[{"src": 0, "dst": 9}, {"src": 1, "dst": 9}])
    with pytest.raises(ValueError, match="flows"):
        throughput_vs_connections(two_flows, [1, 2, 3], [1])
    # 10 nodes, one cluster head and one base station: 8 sensors
    with pytest.raises(ValidationError) as err:
        throughput_vs_connections(_sweep_cfg(), [1, 9], [1])
    assert err.value.field == "flow_count"


def test_throughput_plateaus_beyond_grid_capacity():
    # capacity 2; once connections exceed it the frozen grid caps delivery
    series = throughput_vs_connections(_sweep_cfg(), [2, 4, 6], [1, 2])
    vals = dict(series)
    assert vals[4] <= vals[2] * 1.10 + 1e-9
    assert abs(vals[6] - vals[4]) <= 0.10 * max(vals[4], vals[6]) + 1e-9


# execution order -----------------------------------------------------------------

def _order_cfg(importances, speeds=None):
    """Three sensors at fixed spots near one base station; per-flow
    importance overrides script the data scheme's view."""
    return validate_config({
        "node_count": 4, "cluster_heads": 0, "base_stations": 1,
        "session_duration": 8.0,
        "terrain_area": {"width": 400.0, "height": 400.0},
        "node_placement": [[100.0, 200.0], [200.0, 200.0], [300.0, 200.0], [200.0, 100.0]],
        "radio": {"nominal_range": 500.0},
        "mobility": {"speed_min": 0.001, "speed_max": 0.002, "controlled_speed_cap": 0.001},
        "critical_events": [{"time": 2.0, "x": 200.0, "y": 200.0, "radius": 390.0,
                             "emit_reports": False}],
        "flows": [
            {"id": f"f{i}", "src": i, "dst": 3, "interval": 0.5,
             "importance_override": imp}
            for i, imp in enumerate(importances)
        ],
        "grid": {"frequencies": 1, "slots_per_frame": 3, "frame_length": 0.5},
    })


def test_data_scheme_executes_most_important_node_first():
    cfg = _order_cfg([0.3, 0.3, 1.0])
    trace = Simulation(cfg, seed=1, scheme="data").run()
    order = metrics.execution_order(trace, 0)
    assert order[0] == 2


def test_mdlps_ignores_importance_for_slow_node():
    cfg = _order_cfg([0.3, 0.3, 1.0])
    sim = Simulation(cfg, seed=1, scheme="mdlps")
    # node 2 crawls while the others stride: its 1/v term buries it. No leg
    # ends within the 8 s session, and every node stays in range of the sink
    sim.mob.set_leg(0, make_leg(0.0, 100.0, 200.0, 100.0, 400.0, 18.0))
    sim.mob.set_leg(1, make_leg(0.0, 200.0, 200.0, 200.0, 400.0, 18.0))
    sim.mob.set_leg(2, make_leg(0.0, 300.0, 200.0, 300.0, 201.0, 0.05))
    trace = sim.run()
    order = metrics.execution_order(trace, 0)
    assert order and order[0] != 2


def test_node_never_transmitting_is_absent_from_order():
    cfg = _order_cfg([0.3, 0.3, 1.0])
    trace = Simulation(cfg, seed=1, scheme="data").run()
    order = metrics.execution_order(trace, 0)
    assert 3 not in order  # the sink never transmits


def test_missing_event_raises():
    cfg = _order_cfg([0.5, 0.5, 0.5])
    trace = Simulation(cfg, seed=1, scheme="data").run()
    with pytest.raises(metrics.EventNotFound):
        metrics.execution_order(trace, 7)


# replay ---------------------------------------------------------------------------

# a trace with two critical events and a node that depletes; one with no
# event and an orphan sensor every frame
_REPLAY_SCENARIOS = {
    "two_events": _fast_cfg(
        critical_events=[{"time": 4.0, "x": 200.0, "y": 200.0, "radius": 150.0},
                         {"time": 6.0, "x": 100.0, "y": 100.0, "radius": 150.0}],
        initial_energy=0.2, energy={"battery_threshold": 0.01, "idle_power": 0.01}),
    "no_event": validate_config({
        "node_count": 4, "cluster_heads": 1, "base_stations": 1,
        "terrain_area": {"width": 2000.0, "height": 100.0}, "session_duration": 4.0,
        "node_placement": [[0.0, 50.0], [1900.0, 50.0], [100.0, 50.0], [50.0, 50.0]],
        "radio": {"nominal_range": 300.0}, "critical_events": [],
        "flows": [{"id": "f0", "src": 0, "dst": 3, "interval": 0.5},
                  {"id": "f1", "src": 1, "dst": 3, "interval": 0.5}]}),
}


def test_replay_reproduces_in_run_metrics(tmp_path):
    """Every metric a RunReport keeps is the value replay recomputes from
    the run's trace file, exec_order included for all events or none."""
    seen = {}
    for name, cfg in _REPLAY_SCENARIOS.items():
        out = tmp_path / name
        rep = run_experiment(cfg, [2], ["data"], out_dir=str(out))[0]
        path = str(out / "trace_data_s2.jsonl")
        assert replay_metric(path, "overall_pdr") == rep.pdr
        assert replay_metric(path, "throughput") == rep.throughput
        cons = replay_metric(path, "conservation")
        assert cons["ok"] and cons["generated"] == rep.generated
        assert replay_metric(path, "drops") == {c: rep.fates[c] for c in metrics.DROP_CAUSES}
        assert replay_metric(path, "mean_delay") == rep.mean_delay
        assert replay_metric(path, "p95_delay") == rep.p95_delay
        assert replay_metric(path, "max_queue") == rep.max_queue
        assert replay_metric(path, "depleted") == rep.depleted
        assert replay_metric(path, "orphans") == rep.orphan_frames
        assert replay_metric(path, "exec_order") == rep.exec_orders
        seen[name] = rep
    two, none = seen["two_events"], seen["no_event"]
    assert sorted(two.exec_orders) == [0, 1] and all(two.exec_orders.values())
    assert two.depleted and none.exec_orders == {} and none.orphan_frames > 0


def test_replay_unknown_metric():
    with pytest.raises(KeyError):
        replay_metric("nowhere.jsonl", "not_a_metric")


# CLI -------------------------------------------------------------------------------

def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(
        "node_count: 8\ncluster_heads: 1\nbase_stations: 1\n"
        "session_duration: 6.0\nflow_count: 2\n"
        "terrain_area: {width: 300.0, height: 300.0}\n"
        "radio: {nominal_range: 500.0}\n"
    )
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--scheduler", "both",
                     "--seeds", "2", "--out", str(out)])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "ab_summary.csv").exists()
    assert (out / "trace_mdlps_s1.jsonl").exists()
    assert (out / "trace_data_s2.jsonl").exists()
    assert "4 run(s)" in capsys.readouterr().out


def test_cli_run_reports_failed_runs(tmp_path, capsys, monkeypatch):
    """Failed runs still get every output file, are counted per scheme in
    aggregate.csv, and make the command exit nonzero with a count."""
    import mwsnsim.harness as harness_mod
    real_run_one = harness_mod.run_one

    def flaky(config, seed, scheme):
        if seed == 2:
            raise RuntimeError("injected fault")
        return real_run_one(config, seed, scheme)

    monkeypatch.setattr(harness_mod, "run_one", flaky)
    out = tmp_path / "out"
    code = cli_main(["run", "--seeds", "3", "--scheduler", "both", "--out", str(out),
                     "--config", str(_write_fast_cfg(tmp_path))])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["2 of 6 runs failed"]
    for name in ("run_header.txt", "summary.csv", "exec_order.csv", "aggregate.csv",
                 "ab_summary.csv", "trace_mdlps_s1.jsonl", "trace_data_s3.jsonl"):
        assert (out / name).exists(), name
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0] == "scheme,metric,runs,mean,std,failed"
    rows = [row.split(",") for row in lines[1:]]
    assert {row[0] for row in rows} == {"mdlps", "data"}
    assert all(row[2] == "2" and row[5] == "1" for row in rows)


@pytest.mark.parametrize("fault", ["lost", "double_counted"])
def test_run_failing_conservation_is_a_failed_run(tmp_path, capsys, monkeypatch, fault):
    """A seed whose trace loses a packet's drop record, or holds it twice,
    is a failed run: never averaged, counted in aggregate.csv, a nonzero
    exit, and the connection sweep aborts on it."""
    real_run = Simulation.run

    def faulty(self):
        trace = real_run(self)
        if self.seed == 2:
            k = next(k for k, rec in enumerate(trace) if rec["k"] == "drop")
            if fault == "lost":
                del trace[k]
            else:
                trace.insert(k, dict(trace[k]))
        return trace

    monkeypatch.setattr(Simulation, "run", faulty)
    out = tmp_path / "out"
    code = cli_main(["run", "--seeds", "3", "--out", str(out),
                     "--config", str(_write_fast_cfg(tmp_path))])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["1 of 3 runs failed"]
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert "ConservationError" in rows[1]
    assert "Error" not in rows[0] and "Error" not in rows[2]
    agg = [row.split(",") for row in (out / "aggregate.csv").read_text().splitlines()[1:]]
    assert agg and all(row[2] == "2" and row[5] == "1" for row in agg)
    with pytest.raises(ConservationError):
        throughput_vs_connections(_fast_cfg(), [1], [1, 2])


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("node_count: -3\n")
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "ValidationError" in err and "node_count" in err


def test_cli_replay(tmp_path, capsys):
    """replay prints JSON: exec_order one order per event index, {} for a
    trace with no event; a delay over no final delivery null, not NaN."""
    cases = [(_fast_cfg(), "conservation"),
             (_REPLAY_SCENARIOS["two_events"], "exec_order"),
             (_REPLAY_SCENARIOS["no_event"], "exec_order"),
             (_fast_cfg(flow_count=0, critical_events=[]), "mean_delay"),
             (_fast_cfg(flow_count=0, critical_events=[]), "p95_delay")]
    printed = []
    for k, (cfg, metric) in enumerate(cases):
        out = tmp_path / str(k)
        run_experiment(cfg, [2], ["data"], out_dir=str(out))
        code = cli_main(["replay", "--trace", str(out / "trace_data_s2.jsonl"),
                         "--metric", metric])
        assert code == 0
        printed.append(json.loads(capsys.readouterr().out))
    assert printed[0]["ok"] is True
    orders = replay_metric(str(tmp_path / "1" / "trace_data_s2.jsonl"), "exec_order")
    assert printed[1] == {str(ev): order for ev, order in orders.items()}
    assert set(printed[1]) == {"0", "1"}
    assert printed[2:] == [{}, None, None]


def test_cli_seed_list_parsing(tmp_path):
    out = tmp_path / "out"
    code = cli_main(["run", "--seeds", "5,9", "--out", str(out), "--no-traces",
                     "--config", str(_write_fast_cfg(tmp_path))])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert not any(name.startswith("trace_") for name in os.listdir(out))


def test_cli_rejects_negative_seed_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["run", "--seeds=-1,2", "--out", str(out), "--no-traces",
                     "--config", str(_write_fast_cfg(tmp_path))])
    assert code == 2
    assert "ValueError" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runs_the_config_seed_when_seeds_omitted(tmp_path):
    cfg_path = _write_fast_cfg(tmp_path)
    cfg_path.write_text(cfg_path.read_text() + "seed: 7\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--no-traces"]) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["7"]
    sweep = tmp_path / "sweep"
    assert cli_main(["sweep-connections", "--config", str(cfg_path), "--max-n", "1",
                     "--out", str(sweep)]) == 0
    one_run = run_experiment(load_config(str(cfg_path)).with_overrides(flow_count=1), [7])
    assert (sweep / "throughput.csv").read_text().splitlines()[1] == (
        f"1,{round(one_run[0].throughput, 6)!r}")


def test_cli_sweep_rejects_an_empty_seed_list(tmp_path, capsys):
    code = cli_main(["sweep-connections", "--seeds", ",", "--max-n", "1",
                     "--out", str(tmp_path / "out"), "--config", str(_write_fast_cfg(tmp_path))])
    assert code == 2
    assert "ValueError: need at least one seed" in capsys.readouterr().err


@pytest.mark.parametrize("extra, field", [
    ("flows: [{src: 0, dst: 7}, {src: 1, dst: 7}]\n", "flows"),
    # 6 sensors, so flow_count 7 is invalid; counts 1-6 must not run first
    ("", "flow_count"),
], ids=["explicit_flows", "count_above_sensors"])
def test_cli_sweep_refuses_before_any_run(extra, field, tmp_path, capsys, no_runs):
    cfg_path = _write_fast_cfg(tmp_path)
    cfg_path.write_text(cfg_path.read_text() + extra)
    out = tmp_path / "out"
    code = cli_main(["sweep-connections", "--config", str(cfg_path), "--max-n", "7",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and "AssertionError" not in err
    assert not (out / "throughput.csv").exists()


# a trace file is written as its run ends, inside the loop that turns a
# run's own errors into failed-run rows
@pytest.mark.parametrize("name", ["run_header.txt", "summary.csv", "trace_mdlps_s1.jsonl"])
def test_cli_reports_an_unwritable_output_file(name, tmp_path, capsys):
    """A write that fails exits 2 and names the file, whichever file it is."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = cli_main(["run", "--out", str(out), "--config", str(_write_fast_cfg(tmp_path))])
    assert code == 2
    assert str(out / name) in capsys.readouterr().err


def _write_fast_cfg(tmp_path):
    p = tmp_path / "fast.yaml"
    p.write_text(
        "node_count: 8\ncluster_heads: 1\nbase_stations: 1\n"
        "session_duration: 5.0\nflow_count: 2\n"
        "terrain_area: {width: 300.0, height: 300.0}\n"
        "radio: {nominal_range: 500.0}\n"
        "critical_events: []\n"
    )
    return p
