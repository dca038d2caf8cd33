"""Helpers that only the tests call: the candidate order, the grid's set of
holders, and three checks on a finished trace."""

from mwsnsim.scheduler import candidate_key


def rank_candidates(candidates) -> list:
    return sorted(candidates, key=candidate_key)


def assigned_nodes(grid) -> set[int]:
    return {n for n in grid.assignment.values() if n is not None}


def first_frame_grantees(trace: list[dict], event_index: int) -> set[int]:
    """Nodes granted a position in the first frame at or after the event."""
    t_ev = next(rec["t"] for rec in trace if rec["k"] == "crit" and rec["ev"] == event_index)
    for rec in trace:
        if rec["k"] == "frame" and rec["t"] >= t_ev:
            return {g[2] for g in rec["g"]} | {g[2] for g in rec["x"]}
    return set()


def transmitters_respect_depletion(trace: list[dict]) -> bool:
    """No node transmits or receives after its depletion record."""
    dead: set[int] = set()
    for rec in trace:
        if rec["k"] == "dep":
            dead.add(rec["n"])
        elif (rec["k"] == "tx" and rec["u"] in dead) or (rec["k"] == "rx" and rec["n"] in dead):
            return False
    return True


def stream_draws(trace: list[dict]) -> dict[str, int]:
    return next(rec for rec in reversed(trace) if rec["k"] == "end")["draws"]
