"""Battery accounting, level quantization, and the priority battery factor."""

from dataclasses import replace

import numpy as np
import pytest

from mwsnsim.energy import (
    BatteryState,
    Depleted,
    EnergyCosts,
    battery_factor,
    battery_level,
    consume_idle,
    consume_rx,
    consume_tx,
)


def _state(level, initial=50.0, threshold=10.0, levels=3, penalty=0.25):
    return BatteryState(level=level, initial=initial, hard_threshold=threshold,
                        levels_above=levels, level_penalty=penalty)


# the costs the expected values below are worked out from
COSTS = EnergyCosts(tx_power=0.6, rx_power=0.3, idle_power=0.0, link_rate=1e6)


def test_tx_cost_is_power_times_airtime():
    # 0.6 W * (8 * 1000 / 1e6) s = 0.0048 J
    st = _state(50.0)
    consume_tx(st, COSTS, 1000)
    assert st.level == pytest.approx(50.0 - 0.0048, abs=1e-15)


def test_zero_bytes_costs_nothing():
    st = _state(50.0)
    consume_tx(st, COSTS, 0)
    assert st.level == 50.0


def test_tx_clamps_at_zero():
    st = _state(0.001)
    consume_tx(st, COSTS, 1000)
    assert st.level == 0.0
    assert st.depleted


def test_tx_on_depleted_battery_rejected():
    st = _state(0.0)
    with pytest.raises(Depleted):
        consume_tx(st, COSTS, 100)


def test_rx_cost_uses_rx_power():
    st = _state(50.0)
    consume_rx(st, COSTS, 1000)
    assert st.level == pytest.approx(50.0 - 0.0024, abs=1e-15)


def test_idle_drain_is_power_times_seconds():
    st = _state(50.0)
    consume_idle(st, replace(COSTS, idle_power=0.05), 10.0)
    assert st.level == pytest.approx(49.5)


def test_level_index_below_threshold():
    assert battery_level(_state(5.0)) == 0


def test_level_index_at_threshold_is_first_band():
    # width = (50 - 10) / 3 = 13.33; level 10 sits in band 1
    assert battery_level(_state(10.0)) == 1


def test_level_index_full_battery_clamps_to_top():
    assert battery_level(_state(50.0)) == 3


def test_factor_minimum_at_threshold():
    assert battery_factor(_state(10.0)) == 1.0


def test_factor_below_threshold_is_ratio():
    assert battery_factor(_state(5.0)) == pytest.approx(2.0, rel=1e-12)


def test_factor_full_battery_steps_up():
    # top band index 3: 1 + 2 * 0.25
    assert battery_factor(_state(50.0)) == pytest.approx(1.5, rel=1e-12)


def test_factor_at_zero_rejected():
    with pytest.raises(Depleted):
        battery_factor(_state(0.0))


def test_same_band_nodes_share_factor():
    a = _state(12.0)
    b = _state(20.0)
    assert battery_level(a) == battery_level(b) == 1
    assert battery_factor(a) == battery_factor(b)


def test_factor_shape_quick_sweep():
    """Strictly decreasing below the threshold, stepwise non-decreasing
    above, global argmin at the first above-threshold band."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        initial = float(rng.uniform(10.0, 200.0))
        threshold = float(rng.uniform(0.05, 0.8)) * initial
        levels = int(rng.integers(1, 7))
        penalty = float(rng.uniform(0.0, 1.0))
        below = np.sort(rng.uniform(1e-6, threshold * 0.999999, 8))
        xs_below = [battery_factor(_state(float(v), initial, threshold, levels, penalty))
                    for v in below]
        assert all(a > b for a, b in zip(xs_below, xs_below[1:]))
        above = np.sort(rng.uniform(threshold, initial, 8))
        xs_above = [battery_factor(_state(float(v), initial, threshold, levels, penalty))
                    for v in above]
        assert all(a <= b for a, b in zip(xs_above, xs_above[1:]))
        at_threshold = battery_factor(_state(threshold, initial, threshold, levels, penalty))
        assert at_threshold == 1.0
        assert all(x >= at_threshold for x in xs_below + xs_above)


@pytest.mark.parametrize("charge, amount, power, seconds, refusal", [
    (consume_tx, 1000, 0.6, 8e-3, "transmit attempted on a depleted battery"),
    (consume_rx, 1000, 0.3, 8e-3, "receive attempted on a depleted battery"),
    (consume_idle, 2.5, 0.05, 2.5, "idle drain on a depleted battery"),
])
@pytest.mark.parametrize("level", [50.0, 0.01, 0.0024, 1e-300])
def test_each_charge_is_the_one_rule(charge, amount, power, seconds, refusal, level):
    """tx, rx and idle each leave exactly max(0, level - power * seconds),
    seconds being the airtime of the payload or the idle time, and each
    refuses an empty battery with its own message."""
    costs = EnergyCosts(tx_power=0.6, rx_power=0.3, idle_power=0.05, link_rate=1e6)
    st = _state(level)
    assert charge(st, costs, amount) is st
    assert st.level == max(0.0, level - power * seconds)
    empty = _state(0.0)
    with pytest.raises(Depleted, match=f"^{refusal}$"):
        charge(empty, costs, amount)
    assert empty.level == 0.0
