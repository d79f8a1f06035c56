from fractions import Fraction

import pytest

from cnl import dimension
from cnl.dimension import (
    DimensionTraceRow,
    GeometryError,
    LevelGeometry,
    basic_intervals,
    falconer_lower_bound,
    theta_geometry,
)

from cnl.numeric import format_decimal

from .conftest import growth_ratios, row_ratios, trace_rows

TOL = Fraction(1, 10**9)


class TestLevelGeometry:
    def test_rejects_empty_levels(self):
        with pytest.raises(GeometryError, match=r"^level 1: child count 0 < 1$"):
            LevelGeometry(k=1, m=0, eps=Fraction(1, 2))

    def test_rejects_zero_gap(self):
        with pytest.raises(GeometryError, match=r"^level 1: gap 0 is not positive$"):
            LevelGeometry(k=1, m=2, eps=Fraction(0))
        with pytest.raises(GeometryError, match=r"^level 3: gap -1/2 is not positive$"):
            LevelGeometry(3, 2, Fraction(-1, 2))

    def test_fields_equality_and_repr(self):
        level = LevelGeometry(3, 2, Fraction(1, 8))
        assert (level.k, level.m, level.eps) == (3, 2, Fraction(1, 8))
        assert level == LevelGeometry(k=3, m=2, eps=Fraction(1, 8))
        assert repr(level) == "LevelGeometry(k=3, m=2, eps=Fraction(1, 8))"


class TestBasicIntervals:
    def test_level_one_single_window(self, schedule_a, stream_a):
        intervals = basic_intervals(schedule_a, stream_a, 1)
        assert intervals == [(Fraction(1, 16), Fraction(2, 16))]

    def test_counts_follow_preceding_position(self, schedule_a, stream_a):
        assert len(basic_intervals(schedule_a, stream_a, 3)) == 1
        assert len(basic_intervals(schedule_a, stream_a, 4)) == 16
        assert len(basic_intervals(schedule_a, stream_a, 5)) == 32

    def test_gaps_match_geometry_exactly(self, schedule_a, stream_a):
        geoms = theta_geometry(schedule_a, 8)
        for k in range(2, 9):
            intervals = basic_intervals(schedule_a, stream_a, k)
            eps = geoms[k - 1].eps
            for (lo_a, hi_a), (lo_b, hi_b) in zip(intervals, intervals[1:]):
                assert hi_a < lo_b
                assert lo_b - hi_a == eps

    def test_pairwise_disjoint(self, schedule_a, stream_a):
        intervals = basic_intervals(schedule_a, stream_a, 6)
        for i in range(len(intervals)):
            for j in range(i + 1, len(intervals)):
                assert intervals[i][1] < intervals[j][0]

    def test_guard(self, schedule_a, stream_a):
        with pytest.raises(GeometryError):
            basic_intervals(schedule_a, stream_a, 40)


class TestThetaGeometry:
    def test_level_three_values(self, schedule_a):
        geoms = theta_geometry(schedule_a, 3)
        assert geoms[2].m == 16
        assert geoms[2].eps == Fraction(3, 4) / (16 * 32)

    def test_level_one_trivial(self, schedule_a):
        assert theta_geometry(schedule_a, 1)[0].m == 1

    def test_counts_clear_floor(self, schedule_a):
        geoms = theta_geometry(schedule_a, 30)
        for g in geoms:
            info = schedule_a.phi_inv(g.k)
            if info.level >= 2:
                assert g.m >= schedule_a.q(g.k) // (info.a * info.a)

    def test_eps_strictly_decreasing(self, schedule_a):
        geoms = theta_geometry(schedule_a, 25)
        for a, b in zip(geoms, geoms[1:]):
            assert b.eps < a.eps


class TestFalconer:
    def test_uniform_doubling(self):
        geoms = [LevelGeometry(k=k, m=2, eps=Fraction(1, 4**k)) for k in range(1, 11)]
        ds = falconer_lower_bound(geoms)
        assert abs(ds[-1] - Fraction(9, 19)) <= TOL
        assert ds[-1] <= Fraction(9, 19)

    def test_single_child_everywhere(self):
        geoms = [LevelGeometry(k=k, m=1, eps=Fraction(1, 3**k)) for k in range(1, 6)]
        assert all(d == 0 for d in falconer_lower_bound(geoms))

    def test_rejects_noncontracting_level(self):
        geoms = [
            LevelGeometry(k=1, m=3, eps=Fraction(1, 2)),
            LevelGeometry(k=2, m=3, eps=Fraction(2, 5)),
        ]
        with pytest.raises(GeometryError):
            falconer_lower_bound(geoms)

    def test_rejects_nonmonotone_gaps(self):
        geoms = [
            LevelGeometry(k=1, m=2, eps=Fraction(1, 8)),
            LevelGeometry(k=2, m=2, eps=Fraction(1, 8)),
        ]
        with pytest.raises(GeometryError):
            falconer_lower_bound(geoms)

    def test_values_in_unit_interval(self, schedule_a):
        geoms = theta_geometry(schedule_a, 40)
        assert all(0 <= d <= 1 for d in falconer_lower_bound(geoms))


def closed_form_doubling(k: int, schedule) -> Fraction:
    """Exact oracle for the doubling chain: every log is (n+3) * ln 2,
    so the common factor cancels and the closed form is rational."""
    num = Fraction(0)
    den = Fraction(0)
    for n in range(1, k):
        level = schedule.phi_inv(n).level
        num += Fraction(level - 1, level) * (n + 3)
        den += n + 3
    level_k = schedule.phi_inv(k).level
    den -= Fraction(level_k - 1, level_k) * (k + 3)
    return num / den


class TestDimensionTrace:
    def test_bound_trace_matches_exact_closed_form(self, schedule_a):
        rows = trace_rows(schedule_a, 300)
        for row in rows[::37] + [rows[-1]]:
            oracle = closed_form_doubling(row.k, schedule_a)
            assert abs(row_ratios(row).d_bound - oracle) <= TOL
            assert row_ratios(row).d_bound <= oracle

    def test_exact_trace_dominates_bound_trace(self, schedule_a):
        rows = trace_rows(schedule_a, 300)
        for row in rows:
            assert row_ratios(row).d_exact >= row_ratios(row).d_bound - TOL

    def test_agrees_with_generic_falconer_on_shared_range(self, schedule_a):
        rows = trace_rows(schedule_a, 40)
        geoms = theta_geometry(schedule_a, 40)
        for row, d in zip(rows, falconer_lower_bound(geoms)):
            assert abs(row_ratios(row).d_exact - d) <= TOL

    def test_growth_ratios_from_the_same_walk(self, schedule_a, monkeypatch):
        # One hp_ln(q) and one hp_ln(omega) per position, plus ln 2 and one
        # gap log per level; the growth trace reads the walk's own q enclosures.
        calls = []
        hp_ln = dimension.hp_ln
        monkeypatch.setattr(dimension, "hp_ln", lambda x, bits=None: calls.append(x) or hp_ln(x, bits))
        rows, pairs = [], []
        flag = dimension.theta_dimension_trace(
            schedule_a, 300, emit=rows.append, growth=lambda *pair: pairs.append(pair)
        )
        assert len(calls) <= 2 * 300 + 1 + schedule_a.levels
        assert rows == trace_rows(schedule_a, 300)
        ratios, want = growth_ratios(schedule_a.spec.base, 300)
        assert [k for k, _, _ in pairs] == list(range(2, 301))
        assert [Fraction(hi, running) for _, hi, running in pairs] == ratios
        assert flag == want == "decreasing at horizon"

    def test_rejects_tiny_horizon(self, schedule_a):
        with pytest.raises(GeometryError):
            trace_rows(schedule_a, 1)

    def test_rows_are_integer_pairs(self, schedule_a):
        # Every field is an int, and the CSV cells are the format_decimal of
        # the pairs' Fractions.
        rows = trace_rows(schedule_a, 120)
        for row in rows:
            assert all(type(field) is int for field in row)
            assert row.ln2_lo > 0 and row.d_exact_den > 0 and row.d_bound_den > 0
            cells = row.csv_line().rstrip("\n").split(",")
            assert cells[3:] == [format_decimal(r) for r in row_ratios(row)]

    def test_csv_line_of_unreduced_pairs(self):
        row = DimensionTraceRow(5, 2, 16, -30, 20, 6, 9, -4, 8)
        assert row_ratios(row) == (Fraction(-3, 2), Fraction(2, 3), Fraction(-1, 2))
        assert row.csv_line() == "5,2,16,-1.500000000000,0.666666666667,-0.500000000000\n"
