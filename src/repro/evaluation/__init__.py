"""Evaluation harness for every table and figure in Section 6."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "ablation": ("ABLATE_CONFIGS", "SWEEP_PARAMS", "ablate_workload",
                 "render_ablation_report"),
    "experiments": ("FIGURE3_CONFIGS", "FIGURE4_CONFIGS",
                    "FIGURE4_WORKLOADS", "MANIFEST_CONFIGS", "Figure3Row",
                    "Figure4Point", "Figure4Series", "HeadlineNumbers",
                    "Table1Row", "WorkloadRun", "build_run_manifest",
                    "figure3_rows", "figure4_series", "headline_numbers",
                    "record_run", "relative_metrics", "run_all",
                    "run_workload", "schedule", "schedule_configs",
                    "table1_rows"),
    "figure12": ("FIGURE1_SPECS", "FIGURE2_SPEC", "AnalysisDemo",
                 "KernelSpec", "analyze_kernel", "figure1_demo",
                 "figure2_demo", "render_figure1", "render_figure2",
                 "single_hull_cells"),
    "report": ("render_figure3", "render_figure4", "render_headline",
               "render_table1"),
    "trace": ("TraceArtifacts", "export_trace", "trace_workload"),
    "tuning": ("TuningArtifacts", "export_tuning", "render_tuning_report"),
})
