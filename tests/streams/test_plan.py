"""Tests for per-range float plans (FloatPlan)."""

import pytest

from repro.streams.isa import PLAN_POINT_BITS
from repro.streams.plan import CORE, L2, L3, FloatPlan


class TestConstruction:
    def test_empty_plan_is_all_core(self):
        plan = FloatPlan()
        assert plan.level_at(0) == CORE
        assert plan.level_at(10**9) == CORE
        assert plan.first_float_elem() is None
        assert plan.describe() == "core@0"

    def test_points_sort_and_merge(self):
        plan = FloatPlan([(64, L3), (0, L2), (32, L2)])
        # The adjacent L2 runs merge; levels read back per element.
        assert plan.ranges() == [(0, L2), (64, L3)]
        assert plan.level_at(0) == L2
        assert plan.level_at(63) == L2
        assert plan.level_at(64) == L3

    def test_last_writer_wins_per_element(self):
        plan = FloatPlan([(16, L2), (16, L3)])
        assert plan.level_at(16) == L3

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            FloatPlan([(-1, L2)])
        with pytest.raises(ValueError):
            FloatPlan([(0, "l4")])

    def test_leading_core_run_is_implicit(self):
        plan = FloatPlan([(32, L3)])
        assert plan.level_at(0) == CORE
        assert plan.level_at(31) == CORE
        assert plan.first_float_elem() == 32


class TestQueries:
    def plan(self):
        return FloatPlan([(16, L2), (48, L3), (96, CORE)])

    def test_first_at(self):
        plan = self.plan()
        assert plan.first_at(L2) == 16
        assert plan.first_at(L3) == 48
        assert plan.first_at(CORE) == 0

    def test_run_end(self):
        plan = self.plan()
        assert plan.run_end(16, 1000) == 48
        assert plan.run_end(48, 1000) == 96
        assert plan.run_end(96, 1000) == 1000  # default past the last edge

    def test_next_edge(self):
        plan = self.plan()
        assert plan.next_edge(0) == 16
        assert plan.next_edge(16) == 48
        assert plan.next_edge(96) is None

    def test_ranges_round_trips_to_dict(self):
        plan = self.plan()
        assert plan.to_dict() == {
            "points": [[16, L2], [48, L3], [96, CORE]],
        }
        assert "l2@16" in plan.describe()


class TestDelayUntil:
    def test_delay_into_middle_reanchors(self):
        plan = FloatPlan([(0, L2), (64, L3)])
        plan.delay_until(40)
        # Floating begins at 40 inside the L2 run; the L3 edge stays.
        assert plan.ranges() == [(40, L2), (64, L3)]
        assert plan.first_float_elem() == 40

    def test_delay_past_all_points_keeps_last_level(self):
        plan = FloatPlan([(0, L2), (64, L3)])
        plan.delay_until(100)
        assert plan.ranges() == [(100, L3)]

    def test_delay_within_core_prefix_keeps_plan(self):
        plan = FloatPlan([(32, L3)])
        plan.delay_until(8)
        assert plan.first_float_elem() == 32


class TestEncoding:
    def test_extra_bits_charges_points_beyond_first(self):
        assert FloatPlan().extra_bits() == 0
        assert FloatPlan([(0, L3)]).extra_bits() == 0
        assert FloatPlan([(0, L2), (64, L3)]).extra_bits() == PLAN_POINT_BITS
        assert FloatPlan(
            [(0, L2), (64, L3), (128, CORE)]
        ).extra_bits() == 2 * PLAN_POINT_BITS
