"""Scenario configuration: YAML ingestion, defaults, and validation.

An empty document resolves to the stock 22-node scenario (2000 x 2000 m
terrain, 100 s session, queue 50, 50 J initial energy, 1000 B packets every
0.5 s). Every field is overridable; validation errors name the offending
field. The resolved form round-trips: load(emit(cfg)) == cfg.
"""

from __future__ import annotations

import copy
import io
import math
from typing import Any

import yaml

SPEED_OF_LIGHT = 299792458.0


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


DEFAULTS: dict[str, Any] = {
    "terrain_area": {"width": 2000.0, "height": 2000.0},
    "node_count": 22,
    "cluster_heads": 3,
    "base_stations": 1,
    "session_duration": 100.0,
    "queue_size": 50,
    "initial_energy": 50.0,
    "packet_size": 1000,
    "cbr_interval": 0.5,
    "flow_count": 10,
    "scheduler": "mdlps",
    "seed": 1,
    "grid": {
        "frequencies": 4,
        "slots_per_frame": 5,
        "frame_length": 0.5,
    },
    "flow": {
        "desired_pdr": 0.9,
        "pdr_threshold": 0.25,
        "deadline_budget": 5.0,
        "pdr_window": 20,
    },
    "radio": {
        "frequency": 914e6,
        "tx_power": 0.28183815,
        "tx_gain": 1.0,
        "rx_gain": 1.0,
        "antenna_height_tx": 1.5,
        "antenna_height_rx": 1.5,
        "system_loss": 1.0,
        "nominal_range": 250.0,
    },
    "energy": {
        "tx_power": 0.6,
        "rx_power": 0.3,
        "idle_power": 0.0,
        "link_rate": 1e6,
        "battery_threshold": 10.0,
        "battery_levels": 3,
        "level_penalty": 0.25,
    },
    "mobility": {
        "speed_min": 1.0,
        "speed_max": 20.0,
        "pause_time": 2.0,
        "controlled_speed_cap": 2.0,
        "patrol_radius": 200.0,
        "class_thresholds": [5.0, 15.0],
    },
    "options": {
        "velocity_floor": 0.1,
        "gate_mode": "sentinel",       # or "drop"
        "density_weight": 0.7,
        "bandwidth_weight": 0.3,
        "orphan_policy": "contend",    # or "exclude"
    },
    # critical events: list of {time, x, y, radius, reporter, emit_reports}
    # null means the single default event at terrain center, t=10 s, r=400 m
    "critical_events": None,
    # networks: list of {id, bandwidth, members}; null means one network
    # spanning every node
    "networks": None,
    # flows: explicit list of {id, src, dst, interval, start, stop,
    # importance_override}; null means flow_count sensor->sink flows with
    # sources sampled from the traffic stream
    "flows": None,
    # node_placement: list of [x, y] per node for scripted scenarios;
    # null means uniform random placement from the placement stream
    "node_placement": None,
}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(where, "unknown field")
        if isinstance(base[key], dict) and base[key]:
            if not isinstance(value, dict):
                raise ValidationError(where, f"expected a mapping, got {type(value).__name__}")
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ValidationError(field, message)


def _is_num(v) -> bool:
    """A finite int or float (YAML's .inf and .nan are not numbers here)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


class ScenarioConfig:
    """Resolved, validated scenario. Access sections as attributes of the
    underlying dict via cfg["..."] / helper properties."""

    def __init__(self, resolved: dict[str, Any]):
        self._d = resolved

    def __getitem__(self, key: str) -> Any:
        return self._d[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioConfig) and self._d == other._d

    def to_dict(self) -> dict[str, Any]:
        return copy.deepcopy(self._d)

    def to_yaml(self) -> str:
        buf = io.StringIO()
        yaml.safe_dump(self._d, buf, sort_keys=True, default_flow_style=False)
        return buf.getvalue()

    # convenience accessors -------------------------------------------------
    @property
    def terrain(self) -> tuple[float, float]:
        return (self._d["terrain_area"]["width"], self._d["terrain_area"]["height"])

    @property
    def node_count(self) -> int:
        return self._d["node_count"]

    @property
    def session_duration(self) -> float:
        return self._d["session_duration"]

    @property
    def scheduler(self) -> str:
        return self._d["scheduler"]

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self._d["radio"]["frequency"]

    def with_overrides(self, **top_level) -> "ScenarioConfig":
        """New config with top-level scalar fields replaced and re-validated."""
        d = self.to_dict()
        d.update(top_level)
        return validate_config(d)


def _validate(d: dict[str, Any]) -> dict[str, Any]:
    _require(isinstance(d["node_count"], int) and d["node_count"] >= 2,
             "node_count", f"must be an integer >= 2, got {d['node_count']}")
    _require(isinstance(d["cluster_heads"], int) and d["cluster_heads"] >= 0,
             "cluster_heads", "must be a non-negative integer")
    _require(isinstance(d["base_stations"], int) and d["base_stations"] >= 1,
             "base_stations", "must be a positive integer")
    _require(d["cluster_heads"] + d["base_stations"] < d["node_count"],
             "node_count", "must exceed cluster_heads + base_stations")
    for fld in ("width", "height"):
        _require(_is_num(d["terrain_area"][fld]) and d["terrain_area"][fld] > 0,
                 f"terrain_area.{fld}", "must be positive")
    _require(_is_num(d["session_duration"]) and d["session_duration"] > 0,
             "session_duration", "must be positive")
    _require(isinstance(d["queue_size"], int) and d["queue_size"] >= 1,
             "queue_size", "must be an integer >= 1")
    _require(_is_num(d["initial_energy"]) and d["initial_energy"] > 0,
             "initial_energy", "must be positive")
    _require(isinstance(d["packet_size"], int) and d["packet_size"] >= 1,
             "packet_size", "must be an integer >= 1")
    _require(_is_num(d["cbr_interval"]) and d["cbr_interval"] > 0,
             "cbr_interval", "must be positive")
    _require(isinstance(d["flow_count"], int) and d["flow_count"] >= 0,
             "flow_count", "must be a non-negative integer")
    if d["flows"] is None:
        n_sensors = d["node_count"] - d["cluster_heads"] - d["base_stations"]
        _require(d["flow_count"] <= n_sensors,
                 "flow_count", f"must not exceed the sensor count ({n_sensors})")
    _require(d["scheduler"] in ("mdlps", "data"),
             "scheduler", f"must be 'mdlps' or 'data', got {d['scheduler']!r}")
    _require(isinstance(d["seed"], int), "seed", "must be an integer")

    g = d["grid"]
    for fld in ("frequencies", "slots_per_frame"):
        _require(isinstance(g[fld], int) and g[fld] >= 1, f"grid.{fld}", "must be an integer >= 1")
    _require(_is_num(g["frame_length"]) and g["frame_length"] > 0,
             "grid.frame_length", "must be positive")

    f = d["flow"]
    _require(_is_num(f["desired_pdr"]) and 0 < f["desired_pdr"] <= 1,
             "flow.desired_pdr", "must lie in (0, 1]")
    _require(_is_num(f["pdr_threshold"]) and 0 <= f["pdr_threshold"] < 1,
             "flow.pdr_threshold", "must lie in [0, 1)")
    _require(f["desired_pdr"] > f["pdr_threshold"],
             "flow.desired_pdr", "must exceed flow.pdr_threshold")
    _require(_is_num(f["deadline_budget"]) and f["deadline_budget"] > 0,
             "flow.deadline_budget", "must be positive")
    _require(isinstance(f["pdr_window"], int) and f["pdr_window"] >= 1,
             "flow.pdr_window", "must be an integer >= 1")

    r = d["radio"]
    for fld in ("frequency", "tx_power", "tx_gain", "rx_gain", "antenna_height_tx",
                "antenna_height_rx", "nominal_range"):
        _require(_is_num(r[fld]) and r[fld] > 0, f"radio.{fld}", "must be positive")
    _require(_is_num(r["system_loss"]) and r["system_loss"] >= 1,
             "radio.system_loss", "must be >= 1")

    e = d["energy"]
    for fld in ("tx_power", "rx_power", "idle_power"):
        _require(_is_num(e[fld]) and e[fld] >= 0, f"energy.{fld}", "must be non-negative")
    _require(e["tx_power"] >= e["rx_power"] >= e["idle_power"],
             "energy.tx_power", "need tx_power >= rx_power >= idle_power")
    _require(_is_num(e["link_rate"]) and e["link_rate"] > 0,
             "energy.link_rate", "must be positive")
    _require(_is_num(e["battery_threshold"]) and 0 < e["battery_threshold"] < d["initial_energy"],
             "energy.battery_threshold", "must lie strictly between 0 and initial_energy")
    _require(isinstance(e["battery_levels"], int) and e["battery_levels"] >= 1,
             "energy.battery_levels", "must be an integer >= 1")
    _require(_is_num(e["level_penalty"]) and e["level_penalty"] >= 0,
             "energy.level_penalty", "must be non-negative")

    m = d["mobility"]
    _require(_is_num(m["speed_min"]) and _is_num(m["speed_max"])
             and 0 < m["speed_min"] <= m["speed_max"],
             "mobility.speed_min", "need 0 < speed_min <= speed_max")
    _require(_is_num(m["pause_time"]) and m["pause_time"] >= 0,
             "mobility.pause_time", "must be non-negative")
    _require(_is_num(m["controlled_speed_cap"]) and 0 < m["controlled_speed_cap"] < m["speed_max"],
             "mobility.controlled_speed_cap", "must lie strictly between 0 and speed_max")
    _require(_is_num(m["patrol_radius"]) and m["patrol_radius"] >= 0,
             "mobility.patrol_radius", "must be non-negative")
    ct = m["class_thresholds"]
    _require(isinstance(ct, (list, tuple)) and len(ct) == 2 and all(_is_num(v) for v in ct)
             and 0 <= ct[0] < ct[1],
             "mobility.class_thresholds", "must be [v1, v2] with 0 <= v1 < v2")

    o = d["options"]
    _require(_is_num(o["velocity_floor"]) and o["velocity_floor"] > 0,
             "options.velocity_floor", "must be positive")
    _require(o["gate_mode"] in ("sentinel", "drop"),
             "options.gate_mode", "must be 'sentinel' or 'drop'")
    for fld in ("density_weight", "bandwidth_weight"):
        _require(_is_num(o[fld]) and o[fld] >= 0, f"options.{fld}", "must be non-negative")
    _require(o["density_weight"] + o["bandwidth_weight"] > 0,
             "options.density_weight", "weights must not both be zero")
    _require(o["orphan_policy"] in ("contend", "exclude"),
             "options.orphan_policy", "must be 'contend' or 'exclude'")

    if d["critical_events"] is not None:
        _require(isinstance(d["critical_events"], list), "critical_events", "must be a list or null")
        for i, ev in enumerate(d["critical_events"]):
            where = f"critical_events[{i}]"
            _require(isinstance(ev, dict), where, "must be a mapping")
            for fld in ("time", "x", "y", "radius"):
                _require(fld in ev and _is_num(ev[fld]), f"{where}.{fld}", "required numeric field")
            _require(ev["radius"] > 0, f"{where}.radius", "must be positive")
            _require(0 <= ev["time"] <= d["session_duration"],
                     f"{where}.time", "must lie within the session")
            ev.setdefault("reporter", None)
            ev.setdefault("emit_reports", True)
            _require(isinstance(ev["emit_reports"], bool),
                     f"{where}.emit_reports", "must be true or false")
            if ev["reporter"] is not None:
                _require(isinstance(ev["reporter"], int) and 0 <= ev["reporter"] < d["node_count"],
                         f"{where}.reporter", "must be a valid node id")

    if d["networks"] is not None:
        _require(isinstance(d["networks"], list) and d["networks"], "networks", "must be a non-empty list or null")
        seen_members: set[int] = set()
        for i, net in enumerate(d["networks"]):
            where = f"networks[{i}]"
            _require(isinstance(net, dict) and "id" in net, where, "must be a mapping with an id")
            _require(_is_num(net.get("bandwidth", 0)) and net.get("bandwidth", 0) > 0,
                     f"{where}.bandwidth", "must be positive")
            members = net.get("members")
            _require(isinstance(members, list) and members, f"{where}.members", "must be a non-empty list")
            for nm in members:
                _require(isinstance(nm, int) and 0 <= nm < d["node_count"],
                         f"{where}.members", f"invalid node id {nm}")
                _require(nm not in seen_members, f"{where}.members", f"node {nm} listed twice")
                seen_members.add(nm)
        _require(seen_members == set(range(d["node_count"])),
                 "networks", "members must cover every node exactly once")

    if d["flows"] is not None:
        _require(isinstance(d["flows"], list), "flows", "must be a list or null")
        seen_ids: set[str] = set()
        for i, fl in enumerate(d["flows"]):
            where = f"flows[{i}]"
            _require(isinstance(fl, dict), where, "must be a mapping")
            for fld in ("src", "dst"):
                _require(isinstance(fl.get(fld), int) and 0 <= fl[fld] < d["node_count"],
                         f"{where}.{fld}", "must be a valid node id")
            _require(fl["src"] != fl["dst"], f"{where}.dst", "must differ from src")
            fl.setdefault("id", f"flow{i}")
            # the engine keys flows by this string; a repeat would hide a flow
            _require(str(fl["id"]) not in seen_ids, f"{where}.id", f"repeats flow id {fl['id']!r}")
            seen_ids.add(str(fl["id"]))
            fl.setdefault("interval", d["cbr_interval"])
            fl.setdefault("start", 0.0)
            fl.setdefault("stop", d["session_duration"])
            fl.setdefault("importance_override", None)
            _require(_is_num(fl["interval"]) and fl["interval"] > 0, f"{where}.interval", "must be positive")
            # a negative start would schedule packets before the clock
            _require(_is_num(fl["start"]) and fl["start"] >= 0,
                     f"{where}.start", "must be non-negative")
            _require(_is_num(fl["stop"]) and fl["start"] < fl["stop"] <= d["session_duration"],
                     f"{where}.stop", "need start < stop <= session_duration")
            if fl["importance_override"] is not None:
                _require(_is_num(fl["importance_override"]) and 0 < fl["importance_override"] <= 1,
                         f"{where}.importance_override", "must lie in (0, 1]")

    if d["node_placement"] is not None:
        pl = d["node_placement"]
        _require(isinstance(pl, list) and len(pl) == d["node_count"],
                 "node_placement", f"must list exactly node_count ({d['node_count']}) positions")
        for i, xy in enumerate(pl):
            ok = (isinstance(xy, (list, tuple)) and len(xy) == 2
                  and all(_is_num(v) for v in xy)
                  and 0 <= xy[0] <= d["terrain_area"]["width"]
                  and 0 <= xy[1] <= d["terrain_area"]["height"])
            _require(ok, f"node_placement[{i}]", "must be [x, y] inside the terrain")
    return d


def validate_config(document: dict[str, Any] | None) -> ScenarioConfig:
    """Merge a raw mapping over the defaults and validate every field."""
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ParseError(f"top level must be a mapping, got {type(document).__name__}")
    return ScenarioConfig(_validate(_deep_merge(DEFAULTS, document)))


def loads_config(text: str) -> ScenarioConfig:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(str(exc)) from exc
    return validate_config(doc)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_config(text)
