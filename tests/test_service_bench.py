"""Tests for repro.service.bench (the serve load generator and report)."""

from __future__ import annotations

import json

import pytest

from repro.service.bench import BenchServeConfig, run_bench_serve, write_report


@pytest.fixture(scope="module")
def tiny_report():
    """One real end-to-end bench run, scaled to a few seconds."""
    config = BenchServeConfig(
        num_graphs=8,
        num_vertices=10,
        num_queries=4,
        requests_per_client=6,
        concurrency=(1, 2),
        open_loop_requests=8,
        open_loop_rate=50.0,
        time_limit=30.0,
        shard_counts=(1, 2),
    )
    return run_bench_serve(config)


class TestReportShape:
    def test_schema_and_sections(self, tiny_report):
        assert tiny_report["schema"] == "repro-bench-serve/1"
        assert tiny_report["workload"]["num_graphs"] == 8
        assert {"python", "platform", "cpu_count"} <= set(tiny_report["host"])
        # {off, on} × {1, 2} closed cells, one open cell per cache mode.
        assert len(tiny_report["closed_loop"]) == 4
        assert len(tiny_report["open_loop"]) == 2

    def test_closed_cells_complete_every_request(self, tiny_report):
        for cell in tiny_report["closed_loop"]:
            expected = cell["concurrency"] * 6
            assert cell["completed"] + cell["overloaded"] == expected
            assert cell["failures"] == 0
            assert cell["throughput_qps"] > 0
            latency = cell["latency_ms"]
            assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
            assert latency["max"] > 0

    def test_open_cells_send_on_schedule(self, tiny_report):
        for cell in tiny_report["open_loop"]:
            assert cell["mode"] == "open"
            assert cell["rate_qps"] == 50.0
            assert cell["completed"] + cell["overloaded"] == 8

    def test_cache_on_cells_record_hits(self, tiny_report):
        on_cells = [c for c in tiny_report["closed_loop"] if c["cache"] == "on"]
        off_cells = [c for c in tiny_report["closed_loop"] if c["cache"] == "off"]
        # 6 requests over 4 distinct queries: repeats must hit.
        assert all(c["cache_hits"] > 0 for c in on_cells)
        assert all(c["cache_hits"] == 0 for c in off_cells)
        assert all(c["server"]["cache"]["hits"] > 0 for c in on_cells)
        assert all(c["server"]["cache"]["capacity"] == 0 for c in off_cells)

    def test_server_digest_attached(self, tiny_report):
        for cell in tiny_report["closed_loop"] + tiny_report["open_loop"]:
            digest = cell["server"]
            assert digest["batches"]["count"] >= 1
            assert digest["requests"]["answered"] >= cell["completed"]
            assert digest["queue_wait_p99_ms"] >= 0.0

    def test_report_is_json_and_written_atomically(self, tiny_report, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        write_report(tiny_report, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(tiny_report)
        )


class TestShardingSweep:
    def test_cells_assert_parity_and_report_placement(self, tiny_report):
        sweep = tiny_report["sharding"]
        assert sweep["queries"] == 4
        # The host axis: one thread cell per count, plus a process cell
        # for every multi-shard count (one shard behind a pipe prices
        # nothing new).
        assert [(c["shards"], c["shard_host"]) for c in sweep["cells"]] == [
            (1, "thread"), (2, "thread"), (2, "process"),
        ]
        for cell in sweep["cells"]:
            # `parity: identical` is only written after every answer was
            # checked against the unsharded reference engine.
            assert cell["parity"] == "identical"
            assert cell["failures"] == 0
            assert len(cell["per_shard_graphs"]) == cell["shards"]
            assert sum(cell["per_shard_graphs"]) == 8
            assert cell["throughput_qps"] > 0

    def test_pruning_cells_skip_shards_with_parity(self, tiny_report):
        sweep = tiny_report["pruning"]
        assert [c["pruning"] for c in sweep["cells"]] == [True]
        (on,) = sweep["cells"]
        assert on["parity"] == "identical"
        assert on["failures"] == 0
        assert on["throughput_qps"] > 0
        # The label-skewed workload makes every query prunable on one of
        # the two shards.
        assert on["shards_pruned"] >= 1
        assert on["shard_queries"] >= on["shards_pruned"]
        assert 0 < on["prune_rate"] <= 1.0


class TestDurabilityCell:
    def test_cell_prices_wal_and_proves_recovery(self):
        from repro.service.bench import _durability_cell

        cell = _durability_cell(BenchServeConfig.quick())
        assert cell["mutations"] == 16
        assert cell["replayed"] == 16
        assert cell["folded"] == 16
        assert cell["wal_bytes"] > 0
        assert cell["baseline_mut_per_s"] > 0
        assert cell["durable_mut_per_s"] > 0


class TestConfig:
    def test_quick_variant_is_smaller(self):
        quick = BenchServeConfig.quick()
        full = BenchServeConfig()
        assert quick.num_graphs < full.num_graphs
        assert quick.requests_per_client < full.requests_per_client
        assert max(quick.concurrency) <= max(full.concurrency)
