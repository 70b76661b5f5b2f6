"""Tests for repro.bench.experiments (table formatters, tiny config)."""

from __future__ import annotations

import pytest

from repro.bench import BenchConfig
from repro.bench.experiments import (
    fig2_filtering_precision,
    fig3_filtering_time,
    fig4_verification_time,
    fig5_per_si_test_time,
    fig6_candidate_counts,
    fig7_query_time,
    fig8_synthetic_precision,
    fig9_synthetic_filtering_time,
    table4_dataset_stats,
    table5_queryset_stats,
    table6_indexing_time,
    table7_memory_cost,
    table8_synthetic_indexing_time,
    table9_synthetic_memory_cost,
)

TINY = BenchConfig(
    dataset_scale=0.02,
    queries_per_set=2,
    edge_counts=(4,),
    query_time_limit=2.0,
    # The PCM/PPI index builds that run into this limit are asserted
    # by no test here; 2 s keeps the matrices (and tier-1) short.
    index_time_limit=2.0,
    synthetic_num_graphs=4,
    synthetic_num_vertices=12,
    synthetic_sweeps=(("num_labels", (2, 4)),),
)


class TestStatisticsTables:
    def test_table4_has_ours_and_paper_rows(self):
        table = table4_dataset_stats(TINY)
        labels = table.row_labels()
        assert "#graphs (ours)" in labels and "#graphs (paper)" in labels
        assert table.cell("#graphs (paper)", "AIDS") == 40000

    def test_table5_per_dataset(self):
        tables = table5_queryset_stats(TINY)
        assert set(tables) == {"AIDS", "PDBS", "PCM", "PPI"}
        assert tables["AIDS"].row_labels() == [
            "|V| per q", "|Σ| per q", "d per q", "% of trees",
        ]


class TestRealWorldTables:
    def test_table6_rows_are_ifv_indices(self):
        table = table6_indexing_time(TINY)
        assert table.row_labels() == ["CT-Index", "GGSX", "Grapes"]
        cell = table.cell("Grapes", "AIDS")
        assert isinstance(cell, float) and cell > 0

    def test_fig2_covers_all_algorithms(self):
        tables = fig2_filtering_precision(TINY)
        assert set(tables) == {"AIDS", "PDBS", "PCM", "PPI"}
        aids = tables["AIDS"]
        assert len(aids.row_labels()) == 8
        precision = aids.cell("CFQL", "Q4S")
        assert isinstance(precision, float) and 0.0 < precision <= 1.0

    def test_fig7_times_positive(self):
        tables = fig7_query_time(TINY)
        cell = tables["AIDS"].cell("CFQL", "Q4S")
        assert isinstance(cell, float) and cell > 0.0

    def test_table7_structure(self):
        table = table7_memory_cost(TINY)
        assert table.row_labels() == ["Datasets", "CFQL", "CT-Index", "GGSX", "Grapes"]
        assert table.cell("Datasets", "AIDS") > 0
        # CFQL's auxiliary structures are far smaller than path indices.
        assert table.cell("CFQL", "AIDS") < table.cell("Grapes", "AIDS")


class TestRemainingFigures:
    def test_fig3_fig4_nonnegative_times(self):
        for producer in (fig3_filtering_time, fig4_verification_time):
            tables = producer(TINY)
            for table in tables.values():
                for algorithm in table.row_labels():
                    for column in table.columns:
                        cell = table.cell(algorithm, column)
                        if isinstance(cell, float):
                            assert cell >= 0.0

    def test_fig5_per_si_time_defined_for_cfql(self):
        tables = fig5_per_si_test_time(TINY)
        cell = tables["AIDS"].cell("CFQL", "Q4S")
        assert isinstance(cell, float) and cell > 0.0

    def test_fig6_candidates_bounded_by_database(self):
        from repro.bench.harness import get_real_dataset

        tables = fig6_candidate_counts(TINY)
        for dataset, table in tables.items():
            db_size = len(get_real_dataset(dataset, TINY))
            for algorithm in table.row_labels():
                for column in table.columns:
                    cell = table.cell(algorithm, column)
                    if isinstance(cell, (int, float)):
                        assert 0 <= cell <= db_size

    def test_fig9_cfql_completes_each_point(self):
        tables = fig9_synthetic_filtering_time(TINY)
        table = tables["num_labels"]
        assert all(
            isinstance(table.cell("CFQL", c), float) for c in table.columns
        )


class TestSyntheticTables:
    def test_table8_axes(self):
        tables = table8_synthetic_indexing_time(TINY)
        assert set(tables) == {"num_labels"}
        assert tables["num_labels"].row_labels() == ["CT-Index", "GGSX", "Grapes"]

    def test_fig8_values(self):
        tables = fig8_synthetic_precision(TINY)
        cell = tables["num_labels"].cell("CFQL", "4")
        assert isinstance(cell, float) and 0.0 < cell <= 1.0

    def test_table9_rows(self):
        tables = table9_synthetic_memory_cost(TINY)
        table = tables["num_labels"]
        assert table.row_labels() == ["Datasets", "CFQL", "GGSX", "Grapes"]
        assert table.cell("CFQL", "4") < table.cell("Grapes", "4")


class TestDegradedMarkers:
    def test_metric_cell_stars_degraded_reports(self):
        import dataclasses

        from repro.bench.experiments import _metric_cell
        from repro.bench.harness import build_engine, get_real_dataset, run_query_set
        from repro.bench.harness import get_query_sets

        config = dataclasses.replace(TINY, index_fallback=True)
        db = get_real_dataset("AIDS", config)
        from repro.exec import faults

        faults.inject("index.build", "oom")
        try:
            engine, status = build_engine(db, "Grapes", config)
        finally:
            faults.clear()
        assert engine is not None and engine.degraded
        assert status == "OOM→vcFV"
        query_set = next(iter(get_query_sets("AIDS", config).values()))
        report = run_query_set(engine, query_set, config)
        engine.close()
        assert report.degraded
        cell = _metric_cell(report, lambda r: r.avg_query_time)
        assert isinstance(cell, str) and cell.endswith("*")

    def test_metric_cell_passes_through_normal_reports(self):
        from repro.bench.experiments import _metric_cell
        from repro.core.metrics import QuerySetReport

        report = QuerySetReport(
            algorithm="CFQL", num_queries=1, num_timeouts=0,
            filtering_precision=1.0, avg_filtering_time=0.0,
            avg_verification_time=0.0, avg_query_time=0.5,
            max_query_time=0.5, avg_candidates=1.0, per_si_test_time=None,
            max_auxiliary_memory_bytes=0,
        )
        assert _metric_cell(report, lambda r: r.avg_query_time) == 0.5
