"""The trace-record table, the writer derived from it, and the checking
reader."""

import json
import math
import os
import re

import pytest

from mwsnsim.config import validate_config
from mwsnsim.engine import Simulation
from mwsnsim.trace import RECORDS, TraceFormatError, trace_from_jsonl, trace_to_jsonl

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# between them these runs write every kind and every optional field
SCENARIOS = {
    # batteries that empty: dep records, and drops with a detail
    "drained": ({"initial_energy": 0.5, "energy": {"battery_threshold": 0.1},
                 "radio": {"nominal_range": 800.0}, "session_duration": 40.0}, 3, "mdlps"),
    # the event study: link breaks, and the rx fields of final deliveries
    "event_study": ({"radio": {"nominal_range": 800.0}, "session_duration": 40.0,
                     "critical_events": [{"time": 10.0, "x": 1000.0, "y": 1000.0,
                                          "radius": 400.0, "reporter": 0}]}, 1, "data"),
    # an orphan sensor, an event disc that holds no node (a bandwidth-only
    # allocation) and a flow id that JSON must escape
    "orphan_escape": ({
        "node_count": 4, "cluster_heads": 1, "base_stations": 1,
        "terrain_area": {"width": 2000.0, "height": 100.0},
        "session_duration": 4.0,
        "node_placement": [[0.0, 50.0], [1900.0, 50.0], [100.0, 50.0], [50.0, 50.0]],
        "radio": {"nominal_range": 300.0},
        "mobility": {"speed_min": 0.001, "speed_max": 0.002, "controlled_speed_cap": 0.001},
        "critical_events": [{"time": 1.0, "x": 1000.0, "y": 10.0, "radius": 5.0}],
        "flows": [{"id": 'q"\\/é\n☃', "src": 0, "dst": 3, "interval": 0.5},
                  {"id": "f1", "src": 1, "dst": 3, "interval": 0.5}],
    }, 1, "data"),
}


def _canonical(rec) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def traces():
    return {name: Simulation(validate_config(doc), seed=seed, scheme=scheme).run()
            for name, (doc, seed, scheme) in SCENARIOS.items()}


def test_scenarios_write_every_kind_and_optional_field(traces):
    seen = {(rec["k"], name) for trace in traces.values() for rec in trace for name in rec}
    for kind, (fields, optional) in RECORDS.items():
        for name in ["k", *fields, *optional]:
            assert (kind, name) in seen, f"no {kind} record with {name}"


def test_writer_line_is_json_dumps_of_every_record(traces):
    for trace in traces.values():
        for rec in trace:
            assert trace_to_jsonl([rec]) == _canonical(rec)


def test_every_kind_round_trips(traces):
    for trace in traces.values():
        assert trace_from_jsonl(trace_to_jsonl(trace)) == trace


def test_escaped_flow_id_survives(traces):
    """A quote, a backslash, a newline and non-ASCII text are escaped, as
    json.dumps escapes them, and read back unchanged."""
    text = trace_to_jsonl(traces["orphan_escape"])
    assert r'"fl":"q\"\\/\u00e9\n\u2603"' in text
    assert 'q"\\/é\n☃' in {rec.get("fl") for rec in trace_from_jsonl(text)}


def test_int_and_float_numbers_keep_their_form():
    """A number field holds an int when the config gave one, and json's
    form of each is kept: 20 and 20.0 are different lines."""
    for t in (20, 20.0, -0.0, 1e-300, 1.2345678901234567e+16):
        rec = {"k": "dep", "t": t, "n": 3}
        assert trace_to_jsonl([rec]) == _canonical(rec)


def _bad_records():
    tx = {"k": "tx", "t": 1.5, "p": 7, "u": 0, "v": 2, "f": 0, "s": 1, "h": 2, "e": 49.9}
    yield "unknown kind", {**tx, "k": "txx"}
    yield "no kind", {key: v for key, v in tx.items() if key != "k"}
    yield "missing field", {key: v for key, v in tx.items() if key != "h"}
    yield "extra field", {**tx, "zz": 1}
    yield "renamed field", {**{key: v for key, v in tx.items() if key != "h"}, "hh": 2}
    yield "half the optional fields", {"k": "rx", "t": 2.0, "p": 7, "n": 2, "e": 1.0,
                                       "fin": 1, "ok": 1}
    for value in (math.nan, math.inf, -math.inf):
        yield f"{value} number", {**tx, "e": value}
        yield f"{value} in a list", {"k": "cls", "t": 1.0, "ev": 0, "c": [0, value]}
    yield "bool integer", {**tx, "f": True}
    yield "float integer", {**tx, "f": 0.0}
    yield "string number", {**tx, "t": "1.5"}
    yield "number string", {"k": "drop", "t": 1.0, "p": 7, "n": 2, "c": 5}
    yield "ragged rows", {"k": "frame", "t": 0.5, "g": [[0, 1, 2], 3], "x": [], "q": [0]}


BAD = dict(_bad_records())
GOOD = {"k": "dep", "t": 0.5, "n": 1}


@pytest.mark.parametrize("why", [*BAD, "int-keyed counts"])
def test_writer_refuses(why):
    # JSON has only string keys, so this one is the writer's alone to refuse
    rec = BAD.get(why) or {"k": "end", "t": 9.0, "draws": {1: 2}, "events": {}}
    with pytest.raises(TraceFormatError):
        trace_to_jsonl([GOOD, rec, GOOD])


@pytest.mark.parametrize("why", BAD)
def test_reader_refuses(why):
    # json.dumps writes a non-finite number as NaN or Infinity
    lines = [json.dumps(rec) for rec in (GOOD, BAD[why], GOOD)]
    with pytest.raises(TraceFormatError):
        trace_from_jsonl("\n".join(lines) + "\n")


def test_reader_refuses_an_overflowing_number():
    with pytest.raises(TraceFormatError):
        trace_from_jsonl('{"k":"dep","t":1e999,"n":1}\n')


def test_readme_lists_each_kind_with_its_fields():
    """The README's trace-format list has one line per kind of the table,
    naming exactly that kind's fields."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Trace format", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for kind, fields in re.findall(r"^- `(\w+)`, [^:`]*: (.*)$", section, re.M):
        listed[kind] = set(re.findall(r"`(\w+)`", fields))
    table = {kind: {*fields, *optional} for kind, (fields, optional) in RECORDS.items()}
    assert listed == table
