"""Tests for repro.utils.timing (Timer and Deadline)."""

from __future__ import annotations

import time

import pytest

from repro.utils.errors import TimeLimitExceeded
from repro.utils.timing import Deadline, Timer


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline(None)
        assert deadline.unlimited
        assert not deadline.expired()
        assert deadline.remaining() is None
        for _ in range(10_000):
            deadline.check()  # must never raise

    def test_zero_budget_expires_immediately(self):
        deadline = Deadline(0.0)
        assert deadline.expired()

    def test_check_raises_after_expiry(self):
        deadline = Deadline(0.0)
        with pytest.raises(TimeLimitExceeded):
            for _ in range(10_000):
                deadline.check()

    def test_check_is_strided(self):
        """A freshly expired deadline may survive a few checks (the clock
        is only read every stride) but must raise within one stride."""
        deadline = Deadline(0.0)
        raised_at = None
        try:
            for i in range(1000):
                deadline.check()
        except TimeLimitExceeded:
            raised_at = i
        assert raised_at is not None
        assert raised_at < 512

    def test_check_every_detects_expiry_within_one_stride(self):
        """``check_every(k)`` retires ``k`` units of work per call; an
        expired deadline must be noticed before a full stride (256 units)
        of additional work has been retired."""
        deadline = Deadline(0.0)
        work_done = 0
        with pytest.raises(TimeLimitExceeded):
            for _ in range(1000):
                deadline.check_every(8)
                work_done += 8
        assert work_done <= 256

    def test_check_every_large_batch_raises_immediately(self):
        """A single batch at least one stride wide must poll the clock on
        the very first call."""
        deadline = Deadline(0.0)
        with pytest.raises(TimeLimitExceeded):
            deadline.check_every(256)

    def test_check_every_unlimited_never_raises(self):
        deadline = Deadline(None)
        for _ in range(100):
            deadline.check_every(10_000)  # must never raise

    def test_remaining_decreases(self):
        deadline = Deadline(10.0)
        first = deadline.remaining()
        time.sleep(0.01)
        second = deadline.remaining()
        assert second < first <= 10.0

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_long_deadline_not_expired(self):
        assert not Deadline(3600.0).expired()


class TestDeadlineSerialization:
    """Deadlines cross process boundaries as their remaining budget: the
    absolute perf_counter expiry is meaningless in another process."""

    def test_from_remaining_none_is_unlimited(self):
        assert Deadline.from_remaining(None).unlimited

    def test_from_remaining_clamps_negative(self):
        deadline = Deadline.from_remaining(-5.0)
        assert deadline.expired()

    def test_pickle_preserves_unlimited(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Deadline(None)))
        assert clone.unlimited

    def test_pickle_preserves_remaining_budget(self):
        import pickle

        original = Deadline(60.0)
        clone = pickle.loads(pickle.dumps(original))
        assert not clone.unlimited
        assert clone.remaining() == pytest.approx(original.remaining(), abs=0.5)

    def test_pickled_expired_deadline_stays_expired(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Deadline(0.0)))
        assert clone.expired()
        with pytest.raises(TimeLimitExceeded):
            for _ in range(1000):
                clone.check()


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.01
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.02

    def test_start_stop(self):
        timer = Timer()
        timer.start()
        assert timer.running
        elapsed = timer.stop()
        assert elapsed == timer.elapsed >= 0.0
        assert not timer.running

    def test_double_start_rejected(self):
        timer = Timer().start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0
        assert not timer.running


class TestLatencyHistogram:
    def make(self, values, **kwargs):
        from repro.utils.timing import LatencyHistogram

        hist = LatencyHistogram(**kwargs)
        for value in values:
            hist.record(value)
        return hist

    def test_empty(self):
        hist = self.make([])
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.summary()["count"] == 0

    def test_percentiles_within_one_growth_factor(self):
        """The documented accuracy contract: a reported percentile is the
        bucket upper bound, at most one growth factor above the true
        order statistic (and never above the recorded maximum)."""
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s
        hist = self.make(values)
        for p in (50, 90, 95, 99, 100):
            true = values[max(0, int(len(values) * p / 100) - 1)]
            reported = hist.percentile(p)
            assert true <= reported <= true * hist.growth + 1e-12

    def test_max_is_exact(self):
        hist = self.make([0.002, 0.5, 0.123])
        assert hist.max_value == 0.5
        assert hist.percentile(100) == 0.5

    def test_mean_is_exact(self):
        hist = self.make([0.1, 0.2, 0.3])
        assert hist.mean == pytest.approx(0.2)

    def test_negative_values_clamp_to_zero(self):
        hist = self.make([-1.0, 0.5])
        assert hist.count == 2
        assert hist.total == 0.5

    def test_dict_round_trip(self):
        import json

        from repro.utils.timing import LatencyHistogram

        hist = self.make([0.001, 0.01, 0.01, 3.0])
        data = json.loads(json.dumps(hist.to_dict()))
        back = LatencyHistogram.from_dict(data)
        assert back.counts == hist.counts
        assert back.count == hist.count
        assert back.max_value == hist.max_value
        assert back.summary() == hist.summary()

    def test_overflow_lands_in_last_bucket(self):
        from repro.utils.timing import LatencyHistogram

        hist = LatencyHistogram(min_value=1e-3, growth=2.0, num_buckets=4)
        hist.record(1e9)  # far past the covered range
        assert hist.counts[-1] == 1
        assert hist.percentile(100) == 1e9  # max still exact

    def test_invalid_parameters(self):
        from repro.utils.timing import LatencyHistogram

        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram(num_buckets=1)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)
