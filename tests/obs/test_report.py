"""The explain report's tables, fed hand-built events."""

from repro.obs import Event, render_pass_summary


def _pass_span(name: str, dur_ns: int, changes: int = 0) -> Event:
    return Event(name=name, kind="span", ts_ns=0, cat="compiler.pass",
                 dur_ns=dur_ns, args={"changes": changes})


def _rows(text: str) -> list:
    """The pass names of a rendered table, in row order."""
    return [line.split()[0] for line in text.splitlines()[2:]]


class TestPassSummary:
    def test_rows_follow_pass_names_not_wall_time(self):
        # Two runs of one compiler: the same passes, the same changes,
        # wall times that rank the passes in opposite orders.
        slow_cfg = [_pass_span("pass.simplify_cfg", 1_297_000, 3),
                    _pass_span("pass.mem2reg", 1_224_000, 5),
                    _pass_span("pass.dce", 10_000)]
        slow_mem2reg = [_pass_span("pass.simplify_cfg", 1_080_000, 3),
                        _pass_span("pass.mem2reg", 1_111_000, 5),
                        _pass_span("pass.dce", 2_000_000)]
        first = render_pass_summary(slow_cfg)
        second = render_pass_summary(slow_mem2reg)
        order = ["pass.dce", "pass.mem2reg", "pass.simplify_cfg"]
        assert _rows(first) == _rows(second) == order

    def test_wall_time_stays_a_column(self):
        text = render_pass_summary([
            _pass_span("pass.gvn", 1_500_000, 2),
            _pass_span("pass.gvn", 500_000, 1),
        ])
        assert "total ms" in text.splitlines()[1]
        name, runs, total_ms, changes = text.splitlines()[2].split()
        assert (name, runs, total_ms, changes) == (
            "pass.gvn", "2", "2.000", "3")
