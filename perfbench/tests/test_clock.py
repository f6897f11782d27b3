import signal
import time

import pytest

from clock import REFERENCE_S, CoreSpeed, burst_slowdown, slowdown


def test_slowdown_averages_each_parts_median_over_its_reference():
    py, copy = REFERENCE_S
    assert slowdown([(py, copy)]) == pytest.approx(1.0)
    # Python loop at half speed, copy at reference speed; the outlier probe is ignored.
    probes = [(2 * py, copy), (2 * py, copy), (50 * py, 50 * copy)]
    assert slowdown(probes) == pytest.approx(1.5)


def test_scaled_removes_the_probe_and_rescales_to_the_reference_speed():
    speed = CoreSpeed()
    for _ in range(3):  # a core at half speed
        speed.record(2 * REFERENCE_S[0], 2 * REFERENCE_S[1])
    speed.handler_s = 0.2
    assert speed.scaled(4.2) == pytest.approx(2.0)


def test_core_speed_probes_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = CoreSpeed()
    speed.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        speed.stop()
    assert len(speed.probe_times) >= 3
    assert speed.handler_s >= speed.probe_times.sum() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_pass_shorter_than_one_interval_still_gets_a_probe():
    speed = CoreSpeed()
    speed.start()
    speed.stop()
    assert len(speed.probe_times) == 1
    assert speed.scaled(0.01) > 0


def test_burst_slowdown_is_positive_and_finite():
    assert 0 < burst_slowdown(5) < 1e6


def test_record_stops_at_capacity():
    speed = CoreSpeed()
    speed.count = CoreSpeed.CAPACITY
    speed.record(1.0, 1.0)
    assert speed.count == CoreSpeed.CAPACITY
