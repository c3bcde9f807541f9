"""Evaluation harness tests on the cheapest workloads.

The full seven-workload runs live in benchmarks/; here we validate the
harness mechanics and the headline *shape* on a two-workload subset
(cg = intermediate, cigar = memory-bound).
"""

import pytest

from repro.evaluation import (
    FIGURE3_CONFIGS,
    figure1_demo,
    figure2_demo,
    figure3_rows,
    figure4_series,
    headline_numbers,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_headline,
    render_table1,
    run_workload,
    schedule_configs,
    table1_rows,
)
from repro.obs import energy_attribution
from repro.power import frequency
from repro.power.model import phase_energy, phase_energy_at
from repro.runtime import DAEScheduler
from repro.runtime.task import Scheme
from repro.sim import MachineConfig
from repro.sim.timing import PhaseTerms
from repro.workloads import CGWorkload, CigarWorkload


@pytest.fixture(scope="module")
def runs():
    config = MachineConfig()
    return {
        "cg": run_workload(CGWorkload(), 1, config),
        "cigar": run_workload(CigarWorkload(), 1, config),
    }


class TestTable1:
    def test_rows_have_paper_and_measured(self, runs):
        rows = table1_rows(runs)
        assert len(rows) == 2
        cg = next(r for r in rows if r.name == "cg")
        assert cg.affine_loops == 0 and cg.total_loops == 2
        assert cg.paper_tasks == 35_634_375
        assert cg.tasks > 0
        assert 0 < cg.ta_percent < 100
        assert cg.ta_usec > 0

    def test_memory_bound_apps_have_high_ta(self, runs):
        rows = {r.name: r for r in table1_rows(runs)}
        assert rows["cigar"].ta_percent > 30  # paper: 49.27

    def test_render(self, runs):
        text = render_table1(table1_rows(runs))
        assert "cigar" in text and "Table 1" in text


class TestFigure3:
    def test_all_configs_present(self, runs):
        rows = figure3_rows(runs)
        labels = {label for label, *_ in FIGURE3_CONFIGS}
        for row in rows:
            assert set(row.time) == labels
            assert set(row.energy) == labels
            assert set(row.edp) == labels

    def test_geomean_row_appended(self, runs):
        rows = figure3_rows(runs)
        assert rows[-1].name == "G.Mean"

    def test_memory_bound_edp_improves(self, runs):
        rows = {r.name: r for r in figure3_rows(runs)}
        auto = rows["cigar"].edp["Compiler DAE (Optimal f.)"]
        assert auto < 0.8  # paper: up to 50% improvement

    def test_cae_optimal_trades_time_for_energy(self, runs):
        rows = {r.name: r for r in figure3_rows(runs)}
        for name in ("cg", "cigar"):
            cae = rows[name]
            assert cae.time["CAE (Optimal f.)"] >= 0.99
            assert cae.energy["CAE (Optimal f.)"] <= 1.0

    def test_dae_time_close_to_baseline(self, runs):
        rows = {r.name: r for r in figure3_rows(runs)}
        for name in ("cg", "cigar"):
            dae_time = rows[name].time["Compiler DAE (Optimal f.)"]
            cae_time = rows[name].time["CAE (Optimal f.)"]
            assert dae_time < cae_time  # DAE preserves performance better

    def test_render(self, runs):
        text = render_figure3(figure3_rows(runs))
        assert "(c) EDP" in text and "G.Mean" in text


class TestFigure4:
    def test_three_series_six_points(self, runs):
        series = figure4_series(runs["cg"])
        assert [s.label for s in series] == ["CAE", "Manual DAE", "Auto DAE"]
        for entry in series:
            assert len(entry.points) == 6

    def test_cae_time_decreases_with_frequency(self, runs):
        series = {s.label: s for s in figure4_series(runs["cg"])}
        totals = [p.total_ns for p in series["CAE"].points]
        assert totals[0] > totals[-1]

    def test_dae_splits_into_prefetch_and_task(self, runs):
        series = {s.label: s for s in figure4_series(runs["cg"])}
        for point in series["Auto DAE"].points:
            assert point.prefetch_ns > 0
            assert point.task_ns > 0
        assert all(p.prefetch_ns == 0 for p in series["CAE"].points)

    def test_render(self, runs):
        text = render_figure4("cg", figure4_series(runs["cg"]))
        assert "prefetch" in text and "O.S.I." in text


class TestHeadline:
    def test_zero_latency_at_least_as_good(self, runs):
        numbers = headline_numbers(runs)
        assert numbers.auto_edp_gain_0ns >= numbers.auto_edp_gain_500ns - 1e-9

    def test_gains_positive_for_memory_bound_subset(self, runs):
        numbers = headline_numbers(runs)
        assert numbers.auto_edp_gain_500ns > 0.10

    def test_render(self, runs):
        text = render_headline(headline_numbers(runs))
        assert "EDP improvement" in text

    def test_one_cae_baseline_per_run_and_config(self, runs, monkeypatch):
        schemes = []
        run = DAEScheduler.run

        def spy(self, profiles, scheme, *rest, **kwargs):
            schemes.append(Scheme(scheme))
            return run(self, profiles, scheme, *rest, **kwargs)

        monkeypatch.setattr(DAEScheduler, "run", spy)
        headline_numbers(runs)
        # Two configs (the default and zero-latency DVFS); per run and
        # config the baseline, then the DAE and the MANUAL stream.
        assert len(schemes) == 3 * 2 * len(runs)
        assert schemes.count(Scheme.CAE) == 2 * len(runs)

    def test_after_figure3_builds_no_terms_and_scans_nothing(
            self, runs, monkeypatch):
        # Figure 3 terms and scans every phase under ``config``.  The
        # headline's zero-latency copy prices a DVFS switch differently,
        # but it times and powers every phase alike, so it shares them.
        config = MachineConfig()
        figure3_rows(runs, config)
        built, scanned = [], []
        init = PhaseTerms.__init__

        def counting_init(self, profile, cfg):
            built.append(cfg)
            init(self, profile, cfg)

        def counting_cost(terms, point):
            scanned.append(point)
            return phase_energy_at(terms, point)

        monkeypatch.setattr(PhaseTerms, "__init__", counting_init)
        monkeypatch.setattr(frequency, "phase_energy_at", counting_cost)
        headline_numbers(runs, config)
        assert built == []
        assert scanned == []

    def test_kept_winner_energies_survive_recorded_schedules(self, runs):
        # Each timeline segment of a winning point holds the very
        # breakdown its terms keep; timelines and their roll-ups only
        # read it.
        config = MachineConfig()
        run = runs["cigar"]
        for _, result, _ in schedule_configs(run, config,
                                             record_timeline=True):
            energy_attribution(result.timeline)
        for stream in ("dae", "manual"):
            for task in run.profiles[stream].tasks:
                for phase in filter(None, (task.access, task.execute)):
                    terms = phase.terms(config)
                    point = terms.edp_point
                    time_ns = terms.time_ns(point)
                    assert terms.edp_energy == phase_energy(
                        time_ns, point, terms.ipc(point, time_ns), config
                    )


class TestAnalysisDemos:
    def test_figure1_range_analysis_blows_up_on_blocks(self):
        demos = figure1_demo()
        full = next(d for d in demos if d.kernel == "lu_full")
        block = next(d for d in demos if d.kernel == "lu_block")
        # Whole-matrix kernel: all three analyses coincide.
        assert full.exact_cells == full.hull_cells == full.range_cells
        # Block kernel: range analysis covers full rows (Figure 1(b)).
        assert block.hull_cells == block.exact_cells
        assert block.range_cells > 2 * block.exact_cells

    def test_figure2_class_separation_avoids_dead_space(self):
        result = figure2_demo()
        assert result["classes"] == 2
        assert result["per_class_hull_cells"] == result["exact_cells"]
        assert result["single_hull_cells"] > 2 * result["exact_cells"]

    def test_renders(self):
        assert "Figure 1" in render_figure1(figure1_demo())
        assert "Figure 2" in render_figure2(figure2_demo())
