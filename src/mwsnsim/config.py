"""Scenario configuration: YAML ingestion, defaults, and validation.

An empty document resolves to the stock 22-node scenario (2000 x 2000 m
terrain, 100 s session, queue 50, 50 J initial energy, 1000 B packets every
0.5 s). Every field is overridable; validation errors name the offending
field. The resolved form round-trips: load(emit(cfg)) == cfg.

SCHEMA holds each field's default and rule, `_entry_schemas` those of the
keys of list entries, and `_validate` adds the rules relating two fields.
"""

from __future__ import annotations

import copy
import io
import math
from typing import Any, Callable

import yaml

from .radio import params_for_range


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# A rule is a predicate on one value and what it demands of it.
Rule = tuple[Callable[[Any], bool], str]


def _is_int(v) -> bool:
    """An int (YAML's true and false are not integers here)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """A finite int or float (YAML's .inf and .nan are not numbers here)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _integer(lo: int, hi: float = math.inf) -> Rule:
    """An integer in [lo, hi)."""
    span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi})"
    return (lambda v: _is_int(v) and lo <= v < hi), f"must be an integer {span}"


def _number(lo: float, hi: float = math.inf, ends: str = "[)") -> Rule:
    """A finite number between lo and hi; `ends` says which bounds are
    allowed, as in the interval notation "(0, 1]"."""
    low_in, high_in = ends[0] == "[", ends[1] == "]"

    def ok(v) -> bool:
        return (_is_num(v) and (lo <= v if low_in else lo < v)
                and (v <= hi if high_in else v < hi))
    return ok, f"must be a number in {ends[0]}{lo:g}, {hi:g}{ends[1]}"


def _one_of(*choices) -> Rule:
    return (lambda v: v in choices), "must be one of " + ", ".join(map(repr, choices))


def _or_null(rule: Rule) -> Rule:
    ok, demand = rule
    return (lambda v: v is None or ok(v)), f"{demand} or null"


_ANY: Rule = ((lambda v: True), "")
_BOOL: Rule = ((lambda v: isinstance(v, bool)), "must be true or false")
_NUMBER: Rule = (_is_num, "must be a finite number")
_POSITIVE = _number(0, ends="()")
_NON_NEGATIVE = _number(0)
_LIST: Rule = ((lambda v: isinstance(v, list)), "must be a list")
# the default of an entry key that every entry must give
_REQUIRED = object()

# dotted field path -> (default, rule); checked in this order
SCHEMA: dict[str, tuple[Any, Rule]] = {
    "node_count": (22, _integer(2)),
    "cluster_heads": (3, _integer(0)),
    "base_stations": (1, _integer(1)),
    "terrain_area.width": (2000.0, _POSITIVE),
    "terrain_area.height": (2000.0, _POSITIVE),
    "session_duration": (100.0, _POSITIVE),
    "queue_size": (50, _integer(1)),
    "initial_energy": (50.0, _POSITIVE),
    "packet_size": (1000, _integer(1)),
    "cbr_interval": (0.5, _POSITIVE),
    "flow_count": (10, _integer(0)),
    "scheduler": ("mdlps", _one_of("mdlps", "data")),
    # numpy's SeedSequence takes only non-negative entropy
    "seed": (1, _integer(0)),
    "grid.frequencies": (4, _integer(1)),
    "grid.slots_per_frame": (5, _integer(1)),
    "grid.frame_length": (0.5, _POSITIVE),
    "flow.desired_pdr": (0.9, _number(0, 1, "(]")),
    "flow.pdr_threshold": (0.25, _number(0, 1, "[)")),
    "flow.deadline_budget": (5.0, _POSITIVE),
    "flow.pdr_window": (20, _integer(1)),
    "radio.nominal_range": (250.0, _POSITIVE),
    "energy.tx_power": (0.6, _NON_NEGATIVE),
    "energy.rx_power": (0.3, _NON_NEGATIVE),
    "energy.idle_power": (0.0, _NON_NEGATIVE),
    "energy.link_rate": (1e6, _POSITIVE),
    "energy.battery_threshold": (10.0, _POSITIVE),
    "energy.battery_levels": (3, _integer(1)),
    "energy.level_penalty": (0.25, _NON_NEGATIVE),
    "mobility.speed_min": (1.0, _POSITIVE),
    # checked with speed_min, the field a bad speed_max names
    "mobility.speed_max": (20.0, _ANY),
    "mobility.pause_time": (2.0, _NON_NEGATIVE),
    "mobility.controlled_speed_cap": (2.0, _POSITIVE),
    "mobility.patrol_radius": (200.0, _NON_NEGATIVE),
    "mobility.class_thresholds": ([5.0, 15.0], (
        lambda ct: (isinstance(ct, (list, tuple)) and len(ct) == 2
                    and all(_is_num(v) for v in ct) and 0 <= ct[0] < ct[1]),
        "must be [v1, v2] with 0 <= v1 < v2")),
    "options.velocity_floor": (0.1, _POSITIVE),
    "options.gate_mode": ("sentinel", _one_of("sentinel", "drop")),
    "options.density_weight": (0.7, _NON_NEGATIVE),
    "options.bandwidth_weight": (0.3, _NON_NEGATIVE),
    "options.orphan_policy": ("contend", _one_of("contend", "exclude")),
    # critical events: list of {time, x, y, radius, reporter, emit_reports}
    # null means the single default event at terrain center, t=10 s, r=400 m
    "critical_events": (None, _or_null(_LIST)),
    # networks: list of {id, bandwidth, members}; null means one network
    # spanning every node
    "networks": (None, ((lambda v: v is None or (isinstance(v, list) and len(v) > 0)),
                        "must be a non-empty list or null")),
    # flows: explicit list of {id, src, dst, interval, start, stop,
    # importance_override}; null means flow_count sensor->sink flows with
    # sources sampled from the traffic stream
    "flows": (None, _or_null(_LIST)),
    # node_placement: list of [x, y] per node for scripted scenarios;
    # null means uniform random placement from the placement stream
    "node_placement": (None, _or_null(_LIST)),
}


def _nest_defaults() -> dict[str, Any]:
    out: dict[str, Any] = {}
    for path, (default, _) in SCHEMA.items():
        section, _, key = path.rpartition(".")
        (out.setdefault(section, {}) if section else out)[key] = default
    return out


DEFAULTS = _nest_defaults()


def _entry_schemas(d: dict[str, Any], n_sensors: int) -> dict[str, dict[str, tuple[Any, Rule]]]:
    """List name -> entry key -> (default, rule), given the checked scalars
    of `d`. A callable default takes the entry's index."""
    session = d["session_duration"]
    node = _integer(0, d["node_count"])
    is_node, _ = node
    return {
        "critical_events": {
            "time": (_REQUIRED, _number(0, session, "[]")),
            "x": (_REQUIRED, _NUMBER),
            "y": (_REQUIRED, _NUMBER),
            "radius": (_REQUIRED, _POSITIVE),
            # sensors are node ids 0 .. n_sensors-1
            "reporter": (None, _or_null(_integer(0, n_sensors))),
            "emit_reports": (True, _BOOL),
        },
        "networks": {
            "id": (_REQUIRED, _ANY),
            "bandwidth": (_REQUIRED, _POSITIVE),
            "members": (_REQUIRED, (
                lambda v: isinstance(v, list) and len(v) > 0 and all(is_node(nm) for nm in v),
                f"must be a non-empty list of node ids in [0, {d['node_count']})")),
        },
        "flows": {
            "id": ((lambda i: f"flow{i}"), _ANY),
            "src": (_REQUIRED, node),
            "dst": (_REQUIRED, node),
            "interval": (d["cbr_interval"], _POSITIVE),
            # a negative start would schedule packets before the clock
            "start": (0.0, _NON_NEGATIVE),
            "stop": (session, _number(0, session, "(]")),
            "importance_override": (None, _or_null(_number(0, 1, "(]"))),
        },
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


def _check(rule: Rule, value: Any, field: str) -> None:
    ok, demand = rule
    if not ok(value):
        raise ValidationError(field, f"{demand}, got {value!r}")


def _check_entries(entries: list, name: str, schema: dict[str, tuple[Any, Rule]]) -> None:
    """Fill each entry of list `name` with its defaults and check every key
    against its rule, in place."""
    for i, entry in enumerate(entries):
        where = f"{name}[{i}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        for key in entry:
            _require(key in schema, f"{where}.{key}", "unknown field")
        for key, (default, rule) in schema.items():
            if key not in entry:
                _require(default is not _REQUIRED, f"{where}.{key}", "required field")
                entry[key] = default(i) if callable(default) else default
            _check(rule, entry[key], f"{where}.{key}")


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

    def with_overrides(self, **top_level) -> "ScenarioConfig":
        """New config with top-level scalar fields replaced and re-validated."""
        d = self.to_dict()
        d.update(top_level)
        return validate_config(d)


def _finite_disc(nominal_range: float) -> bool:
    """Whether the nominal range implies a reception threshold that is
    finite and > 0 and a finite range, the radius of every link's disc."""
    try:
        params = params_for_range(nominal_range)
        return 0 < params.rx_threshold < math.inf and math.isfinite(params.reach)
    except ArithmeticError:  # a division by zero or an overflow on extreme values
        return False


def _validate(d: dict[str, Any]) -> dict[str, Any]:
    for path, (_, rule) in SCHEMA.items():
        section, _, key = path.rpartition(".")
        _check(rule, (d[section] if section else d)[key], path)

    n = d["node_count"]
    n_sensors = n - d["cluster_heads"] - d["base_stations"]
    _require(n_sensors > 0, "node_count", "must exceed cluster_heads + base_stations")
    if d["flows"] is None:
        _require(d["flow_count"] <= n_sensors,
                 "flow_count", f"must not exceed the sensor count ({n_sensors})")
    f, e, m, o = d["flow"], d["energy"], d["mobility"], d["options"]
    _require(f["desired_pdr"] > f["pdr_threshold"],
             "flow.desired_pdr", "must exceed flow.pdr_threshold")
    _require(e["tx_power"] >= e["rx_power"] >= e["idle_power"],
             "energy.tx_power", "need tx_power >= rx_power >= idle_power")
    _require(e["battery_threshold"] < d["initial_energy"],
             "energy.battery_threshold", "must lie strictly between 0 and initial_energy")
    _require(_is_num(m["speed_max"]) and m["speed_min"] <= m["speed_max"],
             "mobility.speed_min", "need 0 < speed_min <= speed_max")
    _require(m["controlled_speed_cap"] < m["speed_max"],
             "mobility.controlled_speed_cap", "must lie strictly between 0 and speed_max")
    _require(o["density_weight"] + o["bandwidth_weight"] > 0,
             "options.density_weight", "weights must not both be zero")
    _require(_finite_disc(d["radio"]["nominal_range"]), "radio.nominal_range",
             "must give a finite reception threshold > 0 and a finite range")

    for name, schema in _entry_schemas(d, n_sensors).items():
        if d[name] is not None:
            _check_entries(d[name], name, schema)
    for i, fl in enumerate(d["flows"] or ()):
        _require(fl["src"] != fl["dst"], f"flows[{i}].dst", "must differ from src")
        _require(fl["start"] < fl["stop"], f"flows[{i}].stop", "need start < stop")
    # the engine keys flows and networks by these strings; a repeat would
    # hide a flow or merge two networks' ranks
    for name in ("flows", "networks"):
        seen_ids: set[str] = set()
        for i, entry in enumerate(d[name] or ()):
            _require(str(entry["id"]) not in seen_ids,
                     f"{name}[{i}].id", f"repeats id {entry['id']!r}")
            seen_ids.add(str(entry["id"]))
    if d["networks"] is not None:
        seen_members: set[int] = set()
        for i, net in enumerate(d["networks"]):
            for nm in net["members"]:
                _require(nm not in seen_members, f"networks[{i}].members", f"node {nm} listed twice")
                seen_members.add(nm)
        _require(seen_members == set(range(n)),
                 "networks", "members must cover every node exactly once")

    pl = d["node_placement"]
    if pl is not None:
        _require(len(pl) == n, "node_placement", f"must list exactly node_count ({n}) positions")
        in_x, _ = _number(0, d["terrain_area"]["width"], "[]")
        in_y, _ = _number(0, d["terrain_area"]["height"], "[]")
        for i, xy in enumerate(pl):
            _require(isinstance(xy, (list, tuple)) and len(xy) == 2 and in_x(xy[0]) and in_y(xy[1]),
                     f"node_placement[{i}]", "must be [x, y] inside the terrain")
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
