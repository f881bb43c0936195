"""Unit tests for the host-speed scaling.

    python3 -m pytest perfbench/test_speed.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import NOMINAL_UNIT_S, WINDOW_S, SpeedProbe  # noqa: E402


def _probe(times, unit_s):
    probe = SpeedProbe(clock=lambda: 0.0)
    probe.times, probe.unit_s = list(times), list(unit_s)
    return probe


def test_scale_uses_the_bursts_around_each_span():
    probe = _probe([0.0, 1.0, 2.0, 3.0], [NOMINAL_UNIT_S, 2 * NOMINAL_UNIT_S,
                                          2 * NOMINAL_UNIT_S, NOMINAL_UNIT_S])
    scales = probe.scales([0.05, 1.1, 1.5], [0.1, 1.9, 2.9])
    assert scales[0] == pytest.approx(1.0)          # only the burst at 0.0 is near
    assert scales[1] == pytest.approx(0.5)          # bursts at 1.0 and 2.0: host at half speed
    assert scales[2] == pytest.approx(1 / 1.5)      # bursts at 2.0 and 3.0


def test_span_without_a_burst_nearby_takes_the_nearest_later_one():
    probe = _probe([0.0, 5.0], [NOMINAL_UNIT_S, 4 * NOMINAL_UNIT_S])
    start = 2.0
    assert start - WINDOW_S > 0.0 and start + 0.5 + WINDOW_S < 5.0
    assert probe.scales([start], [start + 0.5])[0] == pytest.approx(0.25)
    # after the last burst, the last burst
    assert probe.scales([6.0], [6.5])[0] == pytest.approx(0.25)


def test_real_bursts_record_a_positive_unit_time():
    import time
    probe = SpeedProbe(time.perf_counter)
    probe.burst()
    probe.maybe_burst()  # too soon after the first: no new burst
    assert len(probe.unit_s) == 1 and probe.unit_s[0] > 0
    assert np.isfinite(probe.scales([probe.times[0]], [probe.times[0]])).all()
