"""Pareto-front extraction: dominance, filtering, determinism."""

from repro.tuning import ParetoPoint, dominates, pareto_front


class TestDominates:
    def test_strictly_better_on_both_axes(self):
        assert dominates(ParetoPoint(1.0, 1.0), ParetoPoint(2.0, 2.0))

    def test_better_on_one_equal_on_other(self):
        assert dominates(ParetoPoint(1.0, 2.0), ParetoPoint(2.0, 2.0))
        assert dominates(ParetoPoint(2.0, 1.0), ParetoPoint(2.0, 2.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(ParetoPoint(1.0, 1.0), ParetoPoint(1.0, 1.0))

    def test_trade_off_points_do_not_dominate(self):
        a = ParetoPoint(1.0, 3.0)
        b = ParetoPoint(3.0, 1.0)
        assert not dominates(a, b)
        assert not dominates(b, a)


class TestFront:
    def test_dominated_points_are_filtered(self):
        points = [
            ParetoPoint(1.0, 3.0, "fast"),
            ParetoPoint(2.0, 2.0, "mid"),
            ParetoPoint(3.0, 1.0, "frugal"),
            ParetoPoint(2.5, 2.5, "dominated"),
            ParetoPoint(4.0, 4.0, "awful"),
        ]
        front = pareto_front(points)
        assert [p.label for p in front] == ["fast", "mid", "frugal"]

    def test_front_is_sorted_by_time(self):
        front = pareto_front([
            ParetoPoint(3.0, 1.0, "c"),
            ParetoPoint(1.0, 3.0, "a"),
            ParetoPoint(2.0, 2.0, "b"),
        ])
        assert [p.time_s for p in front] == [1.0, 2.0, 3.0]

    def test_no_member_dominates_another(self):
        points = [
            ParetoPoint(float(t), float(10 - t + (t % 3)), str(t))
            for t in range(10)
        ]
        front = pareto_front(points)
        for a in front:
            for b in front:
                assert not dominates(a, b)

    def test_duplicate_points_keep_first_label(self):
        front = pareto_front([
            ParetoPoint(1.0, 1.0, "zed"),
            ParetoPoint(1.0, 1.0, "alpha"),
        ])
        assert [p.label for p in front] == ["alpha"]

    def test_input_order_does_not_matter(self):
        points = [
            ParetoPoint(1.0, 3.0, "a"),
            ParetoPoint(2.0, 2.0, "b"),
            ParetoPoint(2.0, 2.5, "x"),
        ]
        assert pareto_front(points) == pareto_front(reversed(points))

    def test_empty_input(self):
        assert pareto_front([]) == []
