"""Trace records: one table of their kinds and fields, the canonical writer
derived from it, and the reader that checks records against it.

A trace is a list of flat records, one per line of its JSONL file. Each
record has its kind `k` and the fields that `RECORDS` gives that kind. The
canonical line of a record is `json.dumps(rec, sort_keys=True,
separators=(",", ":"))` plus a newline; the writer produces it from one
formatter per kind, generated from the table, at a fraction of that call's
cost.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii

# field types
INT = "int"  # an int (not a bool)
NUM = "num"  # a finite int or float
STR = "str"
INTS = "ints"  # a list of ints
ROWS = "rows"  # a list of lists of ints
COUNTS = "counts"  # a mapping of strings to ints

# kind -> (fields, optional fields), each mapping a field to its type, in
# sorted order. Every record also has "k", its kind. A record carries either
# all of its kind's optional fields or none of them.
RECORDS: dict[str, tuple[dict[str, str], dict[str, str]]] = {
    "hdr": ({"n": INT, "range": NUM, "rx_threshold": NUM, "scheme": STR, "seed": INT,
             "t": NUM}, {}),
    "frame": ({"g": ROWS, "q": INTS, "t": NUM, "x": ROWS}, {"orph": INTS}),
    "gen": ({"dl": NUM, "dst": INT, "fl": STR, "imp": NUM, "p": INT, "src": INT, "sz": INT,
             "t": NUM}, {}),
    "alloc": ({"a": ROWS, "ev": INT, "n1": COUNTS, "t": NUM, "why": STR}, {"bw_only": INT}),
    "tx": ({"e": NUM, "f": INT, "h": INT, "p": INT, "s": INT, "t": NUM, "u": INT, "v": INT}, {}),
    "rx": ({"e": NUM, "fin": INT, "n": INT, "p": INT, "t": NUM}, {"delay": NUM, "ok": INT}),
    "drop": ({"c": STR, "n": INT, "p": INT, "t": NUM}, {"d": STR}),
    "crit": ({"ev": INT, "r": NUM, "t": NUM, "x": NUM, "y": NUM}, {}),
    "cls": ({"c": INTS, "ev": INT, "t": NUM}, {}),
    "lb": ({"p": INT, "t": NUM, "u": INT, "v": INT}, {}),
    "dep": ({"n": INT, "t": NUM}, {}),
    "end": ({"draws": COUNTS, "events": COUNTS, "t": NUM}, {}),
}


class TraceFormatError(ValueError):
    """A record that the table does not accept."""


# type -> (its test, an expression in {0}, and what the test demands). The
# writer inlines each test; the reader compiles it into a predicate.
TYPES = {
    INT: ("type({0}) is int", "an integer"),
    NUM: ("(type({0}) is float and {0} - {0} == 0.0 or type({0}) is int)", "a finite number"),
    STR: ("type({0}) is str", "a string"),
    INTS: ("(type({0}) is list and set(map(type, {0})) <= {{int}})", "a list of integers"),
    ROWS: ("(type({0}) is list and set(map(type, {0})) <= {{list}}"
           " and set(map(type, chain.from_iterable({0}))) <= {{int}})",
           "a list of lists of integers"),
    COUNTS: ("(type({0}) is dict and set(map(type, {0})) <= {{str}}"
             " and set(map(type, {0}.values())) <= {{int}})",
             "a mapping of strings to integers"),
}
_ACCEPTS = {ftype: eval(f"lambda v: {test.format('v')}", {"chain": chain})
            for ftype, (test, _) in TYPES.items()}


def problem(rec) -> str | None:
    """What keeps the table from accepting a record, or None."""
    if type(rec) is not dict:
        return f"a record must be a mapping, got {rec!r}"
    kind = rec.get("k")
    if type(kind) is not str or kind not in RECORDS:
        return f"unknown record kind {kind!r}"
    fields, optional = RECORDS[kind]
    given = rec.keys() - {"k"}
    want = fields.keys() | (optional.keys() if given & optional.keys() else set())
    if want - given:
        return f"{kind} record lacks {', '.join(sorted(want - given))}"
    if given - want:
        return f"{kind} record has unexpected {', '.join(sorted(given - want))}"
    for name in sorted(given):
        ftype = fields.get(name) or optional[name]
        if not _ACCEPTS[ftype](rec[name]):
            return f"{kind}.{name} must be {TYPES[ftype][1]}, got {rec[name]!r}"
    return None


def _refusal(rec) -> TraceFormatError:
    return TraceFormatError(problem(rec) or f"cannot write {rec!r}")


# The writer. Each kind gets one generated function that, for a record with
# the field count of one of its two forms (without and with the optional
# fields), runs every field's type test inline and returns the line as one
# f-string; any other record raises. Numbers are written with repr, as json
# writes an exact int or float, and so are lists of them, less repr's
# spaces; strings with json's own escaping; mappings with a json encoder.
_FORMAT = {INT: "{0}", NUM: "{0}!r", STR: "quote({0})",
           INTS: "compact({0})", ROWS: "compact({0})", COUNTS: "encode({0})"}


def _writer_source(kind: str, forms: list[dict[str, str]]) -> str:
    lines = [f"def write_{kind}(r):", "    n = len(r)"]
    for form in forms:
        names = sorted(form)
        local = {name: f"v{i}" for i, name in enumerate(names)}
        cells = [f"{json.dumps(name)}:" + (
                    json.dumps(kind) if name == "k"
                    else f"{{{_FORMAT[form[name]].format(local[name])}}}")
                 for name in sorted([*form, "k"])]
        lines.append(f"    if n == {len(form) + 1}:")
        lines += [f"        {local[name]} = r[{name!r}]" for name in names]
        checks = " and ".join(TYPES[form[name]][0].format(local[name]) for name in names)
        lines.append(f"        if {checks}:")
        lines.append(f"            return f'{{{{{','.join(cells)}}}}}\\n'")
    lines.append("    raise refusal(r)")
    return "\n".join(lines)


@functools.cache
def _writers() -> dict:
    """Each kind's writer, compiled at the first write rather than at import,
    which a run that writes no trace then does not pay."""
    namespace = {
        "chain": chain, "quote": encode_basestring_ascii, "refusal": _refusal,
        "compact": lambda v: repr(v).replace(" ", ""),
        "encode": json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode,
    }
    for kind, (fields, optional) in RECORDS.items():
        forms = [fields, {**fields, **optional}] if optional else [fields]
        exec(_writer_source(kind, forms), namespace)
    return {kind: namespace[f"write_{kind}"] for kind in RECORDS}


def trace_to_jsonl(trace: list[dict]) -> str:
    """Canonical byte-stable serialization: one compact sorted-key record
    per line, exactly as json.dumps writes it. Raises TraceFormatError on a
    record that the table does not accept, a non-finite number included
    (json.dumps would write `NaN` or `Infinity`, which is not JSON)."""
    try:
        writers = _writers()
        return "".join([writers[rec["k"]](rec) for rec in trace])
    except KeyError:  # an unknown kind or a misnamed field
        for rec in trace:
            if problem(rec):
                raise _refusal(rec) from None
        raise


def _no_constant(name: str):
    raise TraceFormatError(f"{name} is not a finite number")


def trace_from_jsonl(text: str) -> list[dict]:
    """The records of a JSONL trace, each checked against the table."""
    trace = [json.loads(line, parse_constant=_no_constant)
             for line in text.splitlines() if line.strip()]
    for rec in trace:
        if problem(rec):
            raise _refusal(rec)
    return trace
