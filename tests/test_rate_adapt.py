"""Residual-bit ledger arithmetic and the reverse-decode feasibility check."""

import math
import sys

import numpy as np
import pytest

from dyncov import LedgerError, RateLedger, decode_check
from dyncov.linalg import MAX_ANTENNAS
from dyncov.rate_adapt import N_TOTAL_MIN


class TestLedger:
    def test_worked_example(self):
        led = RateLedger(10.0)
        for r in (4.0, 3.0, 5.0):
            led.record(r)
        assert led.completed
        assert led.completed_at == 3
        assert led.overhead == pytest.approx(2.0)
        assert led.relative_overhead == pytest.approx(0.2)

    def test_zero_rate_slot_keeps_residual(self):
        led = RateLedger(10.0)
        led.record(4.0)
        before = led.n_total - led.delivered
        led.record(0.0)
        assert led.n_total - led.delivered == before
        assert not led.completed

    def test_residual_tracks_recorded_capacity(self):
        led = RateLedger(7.5)
        led.record(3.0)
        assert led.n_total - led.delivered == pytest.approx(4.5)
        led.record(2.0)
        assert led.n_total - led.delivered == pytest.approx(2.5)

    def test_completed_ledger_rejects_steps(self):
        led = RateLedger(1.0)
        led.record(2.0)
        with pytest.raises(LedgerError, match="completed"):
            led.record(1.0)

    def test_exact_fill_completes(self):
        led = RateLedger(5.0)
        led.record(5.0)
        assert led.completed and led.overhead == 0.0

    def test_negative_rate_rejected(self):
        led = RateLedger(1.0)
        with pytest.raises(ValueError):
            led.record(-0.1)

    @pytest.mark.parametrize("r_t", [float("nan"), float("inf"), np.float64("nan")])
    def test_non_finite_rate_rejected(self, r_t):
        # after a NaN no later slot could complete the batch, and an infinite
        # slot would complete it with an overhead no summary can write
        led = RateLedger(1.0)
        with pytest.raises(ValueError, match="finite"):
            led.record(r_t)
        assert led.capacities == [] and not led.completed
        led.record(5.0)
        assert led.completed_at == 1 and led.overhead == 4.0

    def test_long_run_matches_sequential_prefix_sums(self):
        caps = np.random.default_rng(5).uniform(0.0, 2.0, 20_000)
        n_total = float(caps.sum()) - 1.0
        led = RateLedger(n_total)
        while not led.completed:
            led.record(float(caps[len(led.capacities)]))
        prefix = np.cumsum(caps)
        assert led.completed_at == int(np.argmax(prefix >= n_total)) + 1
        assert led.delivered == sum(led.capacities) == prefix[led.completed_at - 1]
        assert led.overhead == prefix[led.completed_at - 1] - n_total

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ValueError):
            RateLedger(0.0)

    @pytest.mark.parametrize(
        "n_total", [5e-324, 1e-310, N_TOTAL_MIN / 2], ids=["subnormal", "1e-310", "half-the-least"]
    )
    def test_total_whose_relative_overhead_can_overflow_rejected(self, n_total):
        # a summary would hold "relative_overhead": Infinity, which is not JSON
        with pytest.raises(ValueError, match="^n_total must be positive and at least "):
            RateLedger(n_total)

    def test_relative_overhead_finite_at_the_least_total(self):
        # the most one slot carries: a log of the largest float for each of 8 modes
        led = RateLedger(N_TOTAL_MIN)
        led.record(MAX_ANTENNAS * math.log(sys.float_info.max))
        assert math.isfinite(led.relative_overhead)

    @pytest.mark.parametrize("field", [{"capacities": [5.0]}, {"completed_at": 1}])
    def test_recorded_state_is_not_an_argument(self, field):
        # a ledger starts empty; its slots arrive only through record
        with pytest.raises(TypeError):
            RateLedger(1.0, **field)


class TestDecodeCheck:
    def test_worked_example_assignments(self):
        led = RateLedger(10.0)
        for r in (4.0, 3.0, 5.0):
            led.record(r)
        table = decode_check(led)
        assert [row["assigned"] for row in table] == pytest.approx([4.0, 3.0, 3.0])
        assert sum(row["assigned"] for row in table) == pytest.approx(10.0)

    def test_single_slot_completion(self):
        led = RateLedger(2.0)
        led.record(6.0)
        table = decode_check(led)
        assert len(table) == 1
        assert table[0]["assigned"] == pytest.approx(2.0)

    def test_requires_completion(self):
        led = RateLedger(10.0)
        led.record(1.0)
        with pytest.raises(LedgerError, match="completed"):
            decode_check(led)

    def test_accepts_what_record_completed(self):
        # 999998 + (2 - 2e-11) rounds to 1e6, so record completes the ledger,
        # though n_total - 999998 = 2.0 exceeds the last capacity by 2e-11,
        # more than an absolute 1e-12 slack forgives
        led = RateLedger(1e6)
        led.record(999998.0)
        led.record(2.0 - 2e-11)
        assert led.completed and led.delivered == 1e6
        table = decode_check(led)
        assert [row["assigned"] for row in table] == [999998.0, 2.0]

    def test_rejects_last_capacity_edited_after_completion(self):
        led = RateLedger(1e6)
        led.record(999998.0)
        led.record(2.0 - 2e-11)
        led.capacities[-1] = 2.0 - 4e-10  # 999998 + this rounds below 1e6
        with pytest.raises(LedgerError, match="slot 1 assignment 2.0 exceeds capacity"):
            decode_check(led)

    def test_rejects_completion_record_did_not_declare(self):
        led = RateLedger(10.0)
        for r in (4.0, 3.0):
            led.record(r)
        led.completed_at = 2  # 4 + 3 < 10
        with pytest.raises(LedgerError, match="slot 1 assignment 6.0 exceeds capacity 3.0"):
            decode_check(led)

    def test_rejects_earlier_slot_edited_to_cover_n_total(self):
        led = RateLedger(10.0)
        for r in (5.0, 6.0):
            led.record(r)
        led.capacities[0] = 11.0  # slot 0 alone covers n_total
        with pytest.raises(LedgerError, match="slot 1 assignment -1.0 is not positive"):
            decode_check(led)

    @pytest.mark.parametrize("completed_at", [0, 5])
    def test_rejects_completion_outside_the_recorded_slots(self, completed_at):
        # used to fail with a bare IndexError for a count past the last slot
        led = RateLedger(10.0)
        for r in (4.0, 3.0):
            led.record(r)
        led.completed_at = completed_at
        with pytest.raises(LedgerError, match=f"completed_at {completed_at} is not a slot count"):
            decode_check(led)

    def test_rejects_completion_moved_past_covering_slot(self):
        led = RateLedger(10.0)
        for r in (4.0, 7.0):
            led.record(r)
        led.capacities.append(1.0)
        led.completed_at = 3  # slots 0 and 1 already cover n_total
        with pytest.raises(LedgerError, match="slot 2 assignment -1.0 is not positive"):
            decode_check(led)

    def test_random_runs_overhead_and_feasibility(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            led = RateLedger(float(rng.uniform(0.5, 40.0)))
            while not led.completed:
                led.record(float(rng.uniform(0.0, 4.0)))
            last = led.capacities[led.completed_at - 1]
            assert 0.0 <= led.overhead < last
            table = decode_check(led)
            assert sum(row["assigned"] for row in table) == pytest.approx(
                led.n_total, abs=1e-9
            )
            for row in table:
                assert row["assigned"] <= row["capacity"] + 1e-12
