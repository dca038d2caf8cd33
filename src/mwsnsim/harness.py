"""Experiment orchestration: seeded runs, scheme A/B comparisons, the
connection-count throughput sweep, and CSV/trace emission.

Output files are pure functions of the resolved configuration and seeds:
re-running an experiment re-creates them byte for byte.
"""

from __future__ import annotations

import csv
import math
import os

from . import metrics
from .config import SCHEMA, ScenarioConfig
from .engine import Simulation
from .radio import params_for_range
from .trace import trace_from_jsonl, trace_to_jsonl


class ConservationError(Exception):
    """A run's trace does not give each generated packet exactly one fate."""


TRACE_CHUNK = 4096  # records per write of a trace file: no run's JSONL is whole in memory

SUMMARY_COLUMNS = [
    "seed", "scheme", "generated", "delivered", "deadline_miss",
    "pdr_within_deadline", "mean_delay_s", "p95_delay_s", "throughput_kbps",
    *(f"drop_{cause}" for cause in metrics.DROP_CAUSES),
    "depleted_nodes", "orphan_frames", "max_queue", "error",
]


def _cell(x: float) -> str:
    """A float as a CSV cell: blank for NaN, else repr(round(x, 6))."""
    return "" if math.isnan(x) else repr(round(x, 6))


class RunReport:
    """Metrics of one run, all recomputed from its trace records, which it
    does not keep. `trace` is the path of the run's trace file, "" when no
    file was written."""

    def __init__(self, seed: int, scheme: str, records: list[dict]):
        self.seed = seed
        self.scheme = scheme
        self.trace = ""
        cons = metrics.conservation(records)
        self.generated = cons["generated"]
        self.fates = cons["fates"]
        self.conservation_ok = cons["ok"]
        self.pdr = metrics.delivered_ratio(cons)
        self.mean_delay = metrics.mean_delay(records)
        self.p95_delay = metrics.percentile_delay(records, 95.0)
        self.throughput = metrics.throughput_kbps(records, metrics.session_of(records))
        self.depleted = metrics.depleted_nodes(records)
        self.orphan_frames = metrics.orphan_frame_count(records)
        self.max_queue = metrics.max_queue_length(records)
        self.exec_orders = metrics.execution_orders(records)

    def row(self) -> list:
        return [
            self.seed, self.scheme, self.generated,
            self.fates["delivered"], self.fates["deadline_miss"],
            _cell(self.pdr), _cell(self.mean_delay), _cell(self.p95_delay), _cell(self.throughput),
            *(self.fates[cause] for cause in metrics.DROP_CAUSES),
            len(self.depleted), self.orphan_frames, self.max_queue, "",
        ]


class FailedRun:
    """Placeholder for a run whose seed aborted; carries only the error."""

    def __init__(self, seed: int, scheme: str, error: Exception):
        self.seed = seed
        self.scheme = scheme
        self.error = error
        self.trace = ""
        self.exec_orders: dict[int, list[int]] = {}

    def row(self) -> list:
        blanks = [""] * (len(SUMMARY_COLUMNS) - 3)
        return [self.seed, self.scheme, *blanks, f"{type(self.error).__name__}: {self.error}"]


def run_one(config: ScenarioConfig, seed: int, scheme: str) -> tuple[RunReport, list[dict]]:
    """One run's report and trace records; raises ConservationError when the
    trace loses or double-counts a packet, so the run is never averaged with
    the others."""
    records = Simulation(config, seed=seed, scheme=scheme).run()
    report = RunReport(seed, scheme, records)
    if not report.conservation_ok:
        raise ConservationError(
            f"seed {seed} {scheme}: the {report.generated} generated packets do not "
            f"each have exactly one delivery or drop record")
    return report, records


def run_header_text(config: ScenarioConfig, seeds: list[int], schemes: list[str]) -> str:
    # the link radius and reception threshold the runs use
    radio = params_for_range(config["radio"]["nominal_range"])
    lines = [
        "mwsnsim run header",
        f"schemes: {','.join(schemes)}",
        f"seeds: {','.join(str(s) for s in seeds)}",
        f"effective_radio_range_m: {radio.reach!r}",
        f"rx_threshold_w: {radio.rx_threshold!r}",
        "resolved configuration:",
        config.to_yaml().rstrip("\n"),
        "",
    ]
    return "\n".join(lines)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(
    reports: list[RunReport],
    config: ScenarioConfig,
    out_dir: str,
    seeds: list[int],
    schemes: list[str],
) -> list[str]:
    """Write an experiment's header and CSV files; a pure function of the
    reports, so re-emitting produces byte-identical output.

    Always writes run_header.txt, summary.csv, exec_order.csv and
    aggregate.csv (header-only when the report set is empty), plus, when
    exactly two schemes are present, ab_summary.csv. The trace files are
    `run_experiment`'s, written as each run ends.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _path(name):
        written.append(name)
        return os.path.join(out_dir, name)

    with open(_path("run_header.txt"), "w", encoding="utf-8") as fh:
        fh.write(run_header_text(config, seeds, schemes))
    _write_csv(_path("summary.csv"), SUMMARY_COLUMNS, [rep.row() for rep in reports])
    exec_rows = []
    for rep in reports:
        for ev_idx in sorted(rep.exec_orders):
            exec_rows.append([rep.seed, rep.scheme, ev_idx,
                              ";".join(str(n) for n in rep.exec_orders[ev_idx])])
    _write_csv(_path("exec_order.csv"), ["seed", "scheme", "event", "order"], exec_rows)
    _write_csv(_path("aggregate.csv"), ["scheme", "metric", "runs", "mean", "std", "failed"],
               _aggregate_rows(reports, schemes))
    if len(schemes) == 2 and reports:
        _write_csv(_path("ab_summary.csv"),
                   ["seed"] + [f"{metric}_{scheme}" for metric in AB_METRICS for scheme in schemes],
                   _ab_rows(reports, seeds, schemes))
    return written


def _check_seeds(seeds: list[int]) -> None:
    """Refuse an empty seed list, or a seed that the config's `seed` field
    would refuse, before any run starts."""
    if not seeds:
        raise ValueError("need at least one seed")
    ok, demand = SCHEMA["seed"][1]
    for seed in seeds:
        if not ok(seed):
            raise ValueError(f"seed {demand}, got {seed!r}")


def run_experiment(
    config: ScenarioConfig,
    seeds: list[int],
    schemes: list[str] | None = None,
    out_dir: str | None = None,
    write_traces: bool = True,
) -> list[RunReport]:
    """One run per seed per scheme; paired schemes share each seed's world.

    With an output directory and write_traces, each successful run's trace
    goes to trace_<scheme>_s<seed>.jsonl, TRACE_CHUNK records at a time, as
    soon as the run ends, and its report's `trace` names that file; no
    report keeps the records, so memory does not grow with the number of
    runs. After the last run, an
    output directory gets summary.csv, exec_order.csv, aggregate.csv,
    run_header.txt and, when two schemes run, ab_summary.csv comparing them
    per seed. A trace file that cannot be written raises its OSError: it is
    an output failure, not a failed run.
    """
    _check_seeds(seeds)
    schemes = schemes or [config.scheduler]
    trace_dir = out_dir if write_traces else None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    reports: list[RunReport | FailedRun] = []
    for seed in seeds:
        for scheme in schemes:
            try:
                report, records = run_one(config, seed, scheme)
            except Exception as exc:
                # a failed run aborts only its own seed; the summary keeps
                # the failure row, and the error keeps no frame of the run
                reports.append(FailedRun(seed, scheme, exc.with_traceback(None)))
                continue
            if trace_dir is not None:
                report.trace = os.path.join(trace_dir, f"trace_{scheme}_s{seed}.jsonl")
                with open(report.trace, "w", encoding="utf-8") as fh:
                    for lo in range(0, len(records), TRACE_CHUNK):
                        fh.write(trace_to_jsonl(records[lo:lo + TRACE_CHUNK]))
            del records  # they go before the next run starts
            reports.append(report)
    if out_dir is not None:
        emit_report(reports, config, out_dir, seeds=seeds, schemes=schemes)
    return reports


AGGREGATE_METRICS = ["pdr_within_deadline", "mean_delay_s", "throughput_kbps", "delivered"]
AB_METRICS = ["pdr", "throughput", "mean_delay"]  # RunReport attributes, scheme by scheme


def _aggregate_rows(reports: list[RunReport | FailedRun], schemes: list[str]) -> list[list]:
    """Per-scheme mean and standard deviation of the headline metrics
    across the seeds that completed, with the count of those that failed."""
    rows = []
    for scheme in schemes:
        group = [rep for rep in reports
                 if rep.scheme == scheme and isinstance(rep, RunReport)]
        failed = sum(1 for rep in reports
                     if rep.scheme == scheme and isinstance(rep, FailedRun))
        if not group and not failed:
            continue
        values = {
            "pdr_within_deadline": [rep.pdr for rep in group],
            "mean_delay_s": [rep.mean_delay for rep in group if not math.isnan(rep.mean_delay)],
            "throughput_kbps": [rep.throughput for rep in group],
            "delivered": [float(rep.fates["delivered"]) for rep in group],
        }
        for metric in AGGREGATE_METRICS:
            vals = values[metric]
            if not vals:
                rows.append([scheme, metric, len(group), "", "", failed])
                continue
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / len(vals)
            rows.append([scheme, metric, len(group), _cell(mean), _cell(math.sqrt(var)), failed])
    return rows


def _ab_rows(reports: list, seeds: list[int], schemes: list[str]) -> list[list]:
    by_key = {(rep.seed, rep.scheme): rep for rep in reports}
    rows = []
    for seed in seeds:
        pair = [by_key.get((seed, scheme)) for scheme in schemes]
        if not all(isinstance(rep, RunReport) for rep in pair):
            rows.append([seed] + [""] * (len(AB_METRICS) * len(schemes)))
            continue
        rows.append([seed] + [_cell(getattr(rep, metric)) for metric in AB_METRICS
                              for rep in pair])
    return rows


def throughput_vs_connections(
    config: ScenarioConfig,
    connection_counts: list[int],
    seeds: list[int],
    scheme: str | None = None,
    out_dir: str | None = None,
) -> list[tuple[int, float]]:
    """Mean delivered kbit/s per connection count, averaged over seeds.

    Each count is the config's flow_count, so a config that lists explicit
    flows, which override flow_count, is refused. Every count's config is
    validated before the first run.
    """
    if any(n < 0 for n in connection_counts):
        raise ValueError("connection counts must be non-negative")
    if config["flows"] is not None:
        raise ValueError("flows: the sweep varies flow_count, which explicit flows "
                         "override; set flows to null")
    _check_seeds(seeds)
    scheme = scheme or config.scheduler
    configs = {n: config.with_overrides(flow_count=n) for n in connection_counts if n}
    series: list[tuple[int, float]] = []
    for n in connection_counts:
        if n == 0:
            series.append((0, 0.0))
            continue
        vals = [run_one(configs[n], seed, scheme)[0].throughput for seed in seeds]
        series.append((n, sum(vals) / len(vals)))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "throughput.csv"),
                   ["connections", "throughput_kbps"],
                   [[n, _cell(v)] for n, v in series])
    return series


def replay_metric(trace_path: str, metric: str):
    """Recompute a named metric from a trace file."""
    if metric not in metrics.METRIC_FUNCTIONS:
        raise KeyError(f"unknown metric {metric!r}; choose from "
                       f"{sorted(metrics.METRIC_FUNCTIONS)}")
    with open(trace_path, "r", encoding="utf-8") as fh:
        trace = trace_from_jsonl(fh.read())
    return metrics.METRIC_FUNCTIONS[metric](trace)
