"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchstats as bs


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_reported_percentile(self):
        for n in range(20, 2000):
            p = bs.tail_percentile(n)
            self.assertGreaterEqual(n - bs.nearest_rank(n, p),
                                    bs.TAIL_MIN_BEYOND, n)
            if p < 99:
                # One percentile higher would leave fewer than ten.
                self.assertLess(n - bs.nearest_rank(n, p + 1),
                                bs.TAIL_MIN_BEYOND, n)

    def test_known_sizes(self):
        self.assertEqual(bs.tail_percentile(100), 90)
        self.assertEqual(bs.tail_percentile(117), 91)
        self.assertEqual(bs.tail_percentile(156), 93)
        self.assertEqual(bs.tail_percentile(1000), 99)
        self.assertEqual(bs.tail_percentile(20), 50)

    def test_too_few_samples(self):
        self.assertIsNone(bs.tail_percentile(19))

    def test_value_is_the_nearest_rank_sample(self):
        samples = list(range(100, 0, -1))  # 100 .. 1, unsorted input
        self.assertEqual(bs.percentile(samples, 90), 90)
        self.assertEqual(bs.percentile(samples, 91), 91)
        self.assertEqual(bs.percentile([3.0, 1.0, 2.0], 50), 2.0)


class GapTiming(unittest.TestCase):
    def test_gaps_between_successive_clearing_calls(self):
        starts = [0, 10, 25, 45, 70]
        self.assertEqual(bs.epoch_gaps_ns(starts, 0), [10, 15, 20, 25])

    def test_warmup_epochs_are_dropped(self):
        starts = [0, 100, 150, 160, 175]
        # Epochs 0 and 1 are warm-up; epoch 2 runs from call 2 to 3.
        self.assertEqual(bs.epoch_gaps_ns(starts, 2), [10, 15])

    def test_last_call_ends_no_gap(self):
        self.assertEqual(bs.epoch_gaps_ns([5], 0), [])
        self.assertEqual(bs.epoch_gaps_ns([0, 1, 2], 2), [])


class FailureAccounting(unittest.TestCase):
    PRIMARY = bs.PRIMARY
    DEADLINE, DAMPED, PROPORTIONAL = 1, 2, 3

    def test_every_non_primary_serve_fails(self):
        modes = [self.PRIMARY, self.DAMPED, self.PRIMARY,
                 self.PROPORTIONAL, self.DEADLINE, self.PRIMARY]
        self.assertEqual(bs.count_failures(modes, True, 0, 6), (6, 3))

    def test_warmup_serves_are_not_counted(self):
        modes = [self.DAMPED, self.PRIMARY, self.PRIMARY]
        self.assertEqual(bs.count_failures(modes, True, 1, 3), (2, 0))

    def test_a_failed_run_fails_every_epoch_it_was_to_measure(self):
        modes = [self.PRIMARY] * 4  # aborted after four of ten epochs
        self.assertEqual(bs.count_failures(modes, False, 2, 10), (8, 8))


class Decomposition(unittest.TestCase):
    def test_layers_add_up_to_the_gap(self):
        # Two epochs (offset 5), each runEpoch span with its clearing
        # call inside and a commit after it; one ns of glue per epoch.
        traced = {"epoch_offset": 5, "warmup": 0,
                  "t0": [10, 110], "t1": [40, 150]}
        spans = [
            ["eval.run_epoch", "main", 5, 0, 60],
            ["robustness.encode", "main", 5, 60, 70],
            ["robustness.commit", "main", 5, 70, 99],
            ["eval.run_epoch", "main", 6, 100, 170],
            ["robustness.commit", "probe", 5, 0, 1000],
        ]
        parts = bs.decompose(traced, spans)
        self.assertEqual(parts["gap"], [100])
        self.assertEqual(parts["clear"], [30])
        self.assertEqual(parts["eval_self"], [20 + 10])
        self.assertEqual(parts["commit"], [39])
        self.assertEqual(parts["rest"], [1])
        self.assertEqual(bs.dominant_layer(parts), "robustness")


if __name__ == "__main__":
    unittest.main()
