"""The names the per-layer benchmark wraps must exist in the package.

`perfbench/run.py --trace 1` wraps mwsnsim functions by name through
`perfbench/layers.py`, and `perfbench/run.py` reads `mwsnsim.BACKEND`.
perfbench's own tests are not tier-1, so this test is what fails when a
change in `src` removes or renames one of those names.
"""

import os

import mwsnsim
from mwsnsim import radio

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_perfbench_wraps_names_that_exist(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    link_test = radio.in_range
    tracer = spans.Tracer()
    try:
        layers.instrument(tracer)
        assert radio.in_range is not link_test
    finally:
        tracer.restore()
    assert radio.in_range is link_test
    assert isinstance(mwsnsim.BACKEND, str)
