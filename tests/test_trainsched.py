import numpy as np
import pytest

from detbag.trainsched import (DEFAULT_DECAY_FACTOR, DEFAULT_INITIAL_LR,
                               DEFAULT_MILESTONES, CmBNAccumulator, cosine_lr,
                               step_decay_lr)


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.01, 0.001) == pytest.approx(0.01)
        assert cosine_lr(100, 100, 0.01, 0.001) == pytest.approx(0.001)
        assert cosine_lr(50, 100, 0.01, 0.001) == pytest.approx(0.0055)

    def test_monotone_nonincreasing_and_continuous(self):
        values = [cosine_lr(t, 1000, 0.1, 0.0) for t in range(1001)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert np.abs(np.diff(values)).max() < 0.1 * np.pi / 1000 * 1.01

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 0.1)

    @pytest.mark.parametrize("lr_max,lr_min,name", [
        (float("nan"), 0.0, "lr_max"), (float("inf"), 0.0, "lr_max"),
        (0.1, float("-inf"), "lr_min"), (0.1, float("nan"), "lr_min")])
    def test_non_finite_rate_rejected(self, lr_max, lr_min, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cosine_lr(0, 10, lr_max, lr_min)


class TestStepDecay:
    def test_schedule_defaults(self):
        assert step_decay_lr(399_999) == pytest.approx(0.01)
        assert step_decay_lr(400_000) == pytest.approx(0.001)
        assert step_decay_lr(450_000) == pytest.approx(0.0001)
        assert DEFAULT_MILESTONES == (400_000, 450_000)
        assert DEFAULT_INITIAL_LR == 0.01
        assert DEFAULT_DECAY_FACTOR == 0.1

    def test_no_milestones_constant(self):
        assert step_decay_lr(10**7, (), 0.02, 0.5) == 0.02

    def test_right_continuous_piecewise_constant(self):
        milestones = (10, 20)
        values = [step_decay_lr(t, milestones, 1.0, 0.1) for t in range(31)]
        assert values[9] == 1.0 and values[10] == 0.1  # drop lands on the milestone
        assert values[19] == 0.1 and values[20] == pytest.approx(0.01)
        assert len(set(values)) == 3

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            step_decay_lr(0, (20, 10), 1.0, 0.1)

    @pytest.mark.parametrize("lr0,factor,name", [
        (float("inf"), 0.1, "lr0"), (float("nan"), 0.1, "lr0"),
        (1.0, float("nan"), "factor"), (1.0, float("-inf"), "factor")])
    def test_non_finite_rate_rejected(self, lr0, factor, name):
        # checked even before any milestone is passed
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            step_decay_lr(0, (10,), lr0, factor)


class TestCmBN:
    def test_single_minibatch_is_plain_bn(self):
        acc = CmBNAccumulator(1)
        x = np.array([1.0, 2.0, 6.0])
        stats = acc.update(x)
        assert stats.mean[0] == pytest.approx(x.mean())
        assert stats.var[0] == pytest.approx(x.var())
        assert stats.count == 3

    def test_two_minibatch_example(self):
        acc = CmBNAccumulator(2)
        acc.update(np.array([1.0, 2.0]))
        stats = acc.update(np.array([3.0, 4.0]))
        assert stats.mean[0] == pytest.approx(2.5)
        assert stats.var[0] == pytest.approx(1.25)
        assert stats.count == 4

    def test_final_update_equals_whole_batch(self):
        rng = np.random.default_rng(157)
        for _ in range(20):
            splits = int(rng.integers(1, 6))
            per = int(rng.integers(2, 9))
            channels = int(rng.integers(1, 4))
            batch = rng.normal(size=(splits * per, channels))
            acc = CmBNAccumulator(splits)
            for i in range(splits):
                stats = acc.update(batch[i * per:(i + 1) * per])
            assert np.abs(stats.mean - batch.mean(axis=0)).max() < 1e-10
            assert np.abs(stats.var - batch.var(axis=0)).max() < 1e-10

    def test_large_offset_keeps_variance(self):
        # sum x^2 / n - mean^2 loses every digit of a unit variance at 1e8
        rng = np.random.default_rng(211)
        batch = rng.normal(loc=1e8, scale=1.0, size=(4 * 1024, 3))
        acc = CmBNAccumulator(4)
        for i in range(4):
            stats = acc.update(batch[i * 1024:(i + 1) * 1024])
        assert np.abs(stats.var - batch.var(axis=0)).max() < 1e-7
        assert np.abs(stats.mean - batch.mean(axis=0)).max() < 1e-5

    def test_returned_stats_do_not_alias_state(self):
        acc = CmBNAccumulator(2)
        first = acc.update(np.array([1.0, 3.0]))
        first.mean[:] = 100.0
        first.var[:] = 100.0
        stats = acc.update(np.array([5.0, 7.0]))
        assert stats.mean[0] == 4.0 and stats.var[0] == 5.0

    def test_resets_exactly_at_batch_boundary(self):
        acc = CmBNAccumulator(2)
        acc.update(np.array([10.0, 10.0]))
        acc.update(np.array([10.0, 10.0]))
        # a fresh batch must not see the previous one's sums
        stats = acc.update(np.array([1.0, 3.0]))
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.count == 2

    def test_intermediate_stats_cover_seen_minibatches_only(self):
        acc = CmBNAccumulator(3)
        stats = acc.update(np.array([4.0, 6.0]))
        assert stats.mean[0] == pytest.approx(5.0)
        assert stats.count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CmBNAccumulator(0)
        acc = CmBNAccumulator(2)
        with pytest.raises(ValueError):
            acc.update(np.zeros((0, 1)))
        acc.update(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            acc.update(np.zeros((2, 4)))
