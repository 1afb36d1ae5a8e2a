"""Tests of the speed clock's cost arithmetic; run with ``python3 -m pytest bench/test_speedclock.py``."""

import math
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speedclock  # noqa: E402


def _clock(probe_s: float, gap_s: float, count: int) -> speedclock.SpeedClock:
    """Probes of probe_s each, gap_s of other work between them, from t = 0."""
    clock = speedclock.SpeedClock()
    t = 0.0
    for _ in range(count):
        t += gap_s
        clock.starts.append(t)
        t += probe_s
        clock.ends.append(t)
    return clock


def test_cost_leaves_out_probes_and_scales_by_probe_time():
    clock = _clock(probe_s=1e-3, gap_s=0.05, count=4)
    # four 50 ms gaps of work, one after the last probe cut to 20 ms
    end = clock.ends[-1] + 0.02
    expected = (4 * 0.05 + 0.02) / 1e-3 * speedclock.PROBE_REF_S
    assert math.isclose(clock.cost(0.0, end), expected)


def test_same_work_on_a_slower_machine_costs_the_same():
    fast = _clock(probe_s=1e-3, gap_s=0.05, count=20)
    slow = _clock(probe_s=2e-3, gap_s=0.10, count=20)
    assert math.isclose(fast.cost(0.01, fast.ends[-1]), slow.cost(0.02, slow.ends[-1]))


def test_one_slow_probe_does_not_move_the_cost():
    steady = _clock(probe_s=1e-3, gap_s=0.05, count=9)
    noisy = _clock(probe_s=1e-3, gap_s=0.05, count=9)
    noisy.ends[4] += 5e-3  # one probe interrupted; the 5-probe median ignores it
    noisy.starts[5:] = [s + 5e-3 for s in noisy.starts[5:]]
    noisy.ends[5:] = [e + 5e-3 for e in noisy.ends[5:]]
    assert math.isclose(steady.cost(0.0, steady.ends[-1]), noisy.cost(0.0, noisy.ends[-1]))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM interval timers")
def test_running_clock_samples_and_stops():
    before = signal.getsignal(signal.SIGALRM)
    clock = speedclock.SpeedClock()
    clock.start()
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.3:
            pass
        end = time.perf_counter()
    finally:
        clock.stop()
    assert len(clock.starts) >= 3  # one at start, then one per 50 ms
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
    assert clock.cost(begin, end) > 0.0
