"""Per-node battery accounting: the hard threshold, the quantized levels
above it, and the battery factor that multiplies into the priority index.

The factor is piecewise: below the hard threshold it grows as the battery
drains (threshold/level, so weak nodes sink in priority); at or above the
threshold it steps up with the level index (full batteries can afford to
wait). Its global minimum is the first level at the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass


class Depleted(Exception):
    pass


@dataclass
class EnergyCosts:
    tx_power: float
    rx_power: float
    idle_power: float
    link_rate: float  # bit/s


@dataclass
class BatteryState:
    level: float
    initial: float
    hard_threshold: float
    levels_above: int
    level_penalty: float

    @property
    def depleted(self) -> bool:
        return self.level <= 0.0


def airtime(nbytes: int, costs: EnergyCosts) -> float:
    """Seconds on air for a payload of nbytes at the configured link rate."""
    return 8.0 * nbytes / costs.link_rate


def _charge(state: BatteryState, power: float, seconds: float, refusal: str) -> BatteryState:
    """The one charge rule: refuse an empty battery, then subtract
    power * seconds, clamped at zero."""
    if state.depleted:
        raise Depleted(refusal)
    state.level = max(0.0, state.level - power * seconds)
    return state


def consume_tx(state: BatteryState, costs: EnergyCosts, nbytes: int) -> BatteryState:
    """Charge the battery for transmitting nbytes."""
    return _charge(state, costs.tx_power, airtime(nbytes, costs),
                   "transmit attempted on a depleted battery")


def consume_rx(state: BatteryState, costs: EnergyCosts, nbytes: int) -> BatteryState:
    """Charge the battery for receiving nbytes."""
    return _charge(state, costs.rx_power, airtime(nbytes, costs),
                   "receive attempted on a depleted battery")


def consume_idle(state: BatteryState, costs: EnergyCosts, seconds: float) -> BatteryState:
    """Charge the battery for seconds of idle listening."""
    return _charge(state, costs.idle_power, seconds, "idle drain on a depleted battery")


def battery_level(state: BatteryState) -> int:
    """Quantized level index: 0 below the hard threshold, else 1..levels_above.

    The band width above the threshold is (initial - threshold)/levels_above,
    so nodes in the same band are indistinguishable to the scheduler.
    """
    if state.level < state.hard_threshold:
        return 0
    width = (state.initial - state.hard_threshold) / state.levels_above
    idx = 1 + int((state.level - state.hard_threshold) / width)
    return min(idx, state.levels_above)


def battery_factor(state: BatteryState) -> float:
    """Multiplicative priority-index factor X >= 1.

    Below the hard threshold X = threshold/level (draining raises X,
    sinking the node's priority); at or above it X steps up with the level
    index, so the factor is minimized exactly at the first above-threshold
    level.
    """
    if state.depleted:
        raise Depleted("battery factor undefined at zero charge")
    if state.level < state.hard_threshold:
        return state.hard_threshold / state.level
    return 1.0 + (battery_level(state) - 1) * state.level_penalty
