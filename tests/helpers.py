"""Helpers that only the tests call: the candidate order, the grid's set of
holders, and checks on a finished trace."""

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


def trace_errors(trace: list[dict], cfg, scheme: str) -> list[str]:
    """The violations, read from the trace alone, of a finished run of cfg
    under scheme; [] when there are none.

    Placement: an alloc gives each position and each holder once, and its
    holders stay frozen; a holder is live until its dep. Each frame grants
    live holders with data their positions (`g`), and lends every other
    position (`x`), both in scan order, to distinct spare nodes until either
    runs out. A spare node is alive, no base station, holds data and no
    live position, and is no orphan of the frame under the data scheme with
    orphans excluded. No queue outgrows queue_size.

    Delivery: a packet's tx records are sent, with h >= 1, by its source or
    its last receiver, and each rx is at the last tx's v; an rx is final
    exactly at dst, with delay t - gen.t and ok t <= gen.dl."""
    g = cfg["grid"]
    scan = [(f, s) for f in range(g["frequencies"]) for s in range(g["slots_per_frame"])]
    first_bs = trace[0]["n"] - cfg["base_stations"]
    exclude = scheme == "data" and cfg["options"]["orphan_policy"] == "exclude"
    holder: dict[tuple[int, int], int] = {}
    dead: set[int] = set()
    gen, held_by, sent_to = {}, {}, {}
    errors = []
    for rec in trace:
        k, t = rec["k"], rec["t"]
        if k == "alloc":
            holder = {(f, s): h for f, s, h in rec["a"]}
            if not len(holder) == len(set(holder.values())) == len(rec["a"]):
                errors.append(f"t={t}: alloc {rec['a']} repeats a position or a holder")
        elif k == "dep":
            dead.add(rec["n"])
        elif k == "frame":
            q = rec["q"]
            live = {pos: h for pos, h in holder.items() if h not in dead}
            granted = [[f, s, live[(f, s)]] for f, s in scan
                       if (f, s) in live and q[live[(f, s)]] > 0]
            open_positions = [pos for pos in scan if pos not in live]
            orphans = set(rec.get("orph", [])) if exclude else set()
            spare = {n for n in range(first_bs) if n not in dead and q[n] > 0
                     and n not in live.values() and n not in orphans}
            x_nodes = [n for _, _, n in rec["x"]]
            if rec["g"] != granted:
                errors.append(f"t={t}: g {rec['g']} != {granted}")
            if [(f, s) for f, s, _ in rec["x"]] != open_positions[:len(x_nodes)]:
                errors.append(f"t={t}: x {rec['x']} not the first open positions")
            if len(x_nodes) != min(len(open_positions), len(spare)):
                errors.append(f"t={t}: {len(x_nodes)} lent, {len(open_positions)} open, "
                              f"{len(spare)} spare")
            if len(set(x_nodes)) != len(x_nodes) or not set(x_nodes) <= spare:
                errors.append(f"t={t}: x nodes {x_nodes} not distinct spare nodes")
            if max(q, default=0) > cfg["queue_size"]:
                errors.append(f"t={t}: a queue holds {max(q)} > {cfg['queue_size']}")
        elif k == "gen":
            gen[rec["p"]] = rec
            held_by[rec["p"]] = rec["src"]
        elif k == "tx":
            p = rec["p"]
            if rec["u"] != held_by[p] or rec["h"] < 1:
                errors.append(f"tx of {p} by {rec['u']} (h={rec['h']}), held by {held_by[p]}")
            sent_to[p] = rec["v"]
        elif k == "rx":
            p, made = rec["p"], gen[rec["p"]]
            if rec["n"] != sent_to.pop(p, None):
                errors.append(f"rx of {p} at {rec['n']}, not where it was sent")
            held_by[p] = rec["n"]
            if rec["fin"] != (rec["n"] == made["dst"]):
                errors.append(f"rx of {p} at {rec['n']}: fin={rec['fin']}, dst {made['dst']}")
            elif rec["fin"] and (rec["delay"] != t - made["t"] or rec["ok"] != (t <= made["dl"])):
                errors.append(f"final rx of {p}: {rec}, generated as {made}")
    return errors


def stream_draws(trace: list[dict]) -> dict[str, int]:
    return next(rec for rec in reversed(trace) if rec["k"] == "end")["draws"]
