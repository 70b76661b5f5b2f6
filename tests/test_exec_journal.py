"""RunJournal durability and matrix kill-and-resume behaviour."""

from __future__ import annotations

import json

import pytest

from repro.bench import harness
from repro.bench.harness import BenchConfig, real_world_matrix, synthetic_matrix
from repro.exec.journal import RunJournal


class TestRunJournal:
    def test_missing_file_starts_empty(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert len(journal) == 0
        assert not journal.has("index", "AIDS", "Grapes")

    def test_put_get_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.put(("report", "AIDS", "CFQL", "Q4S"), {"aux": 12})
        assert journal.has("report", "AIDS", "CFQL", "Q4S")
        assert journal.get("report", "AIDS", "CFQL", "Q4S") == {"aux": 12}
        assert len(journal) == 1

    def test_none_value_is_distinct_from_absent(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.put(("cell",), None)
        assert journal.has("cell")
        assert journal.get("cell", default="sentinel") is None
        assert journal.get("other", default="sentinel") == "sentinel"

    def test_survives_reload(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).put(("index", "AIDS", "Grapes"), {"build": 1.5})
        reloaded = RunJournal(path)
        assert reloaded.get("index", "AIDS", "Grapes") == {"build": 1.5}

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.put(("cell",), 1)
        journal.put(("cell",), 2)
        assert RunJournal(path).get("cell") == 2

    def test_torn_final_line_is_ignored(self, tmp_path):
        """A run killed mid-write leaves a truncated last line; loading
        must keep every complete record and drop the torn one."""
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.put(("a",), 1)
        journal.put(("b",), 2)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": ["c"], "val')  # killed mid-write
        reloaded = RunJournal(path)
        assert len(reloaded) == 2
        assert reloaded.get("a") == 1 and reloaded.get("b") == 2
        assert not reloaded.has("c")

    def test_keys_distinguish_types(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.put(("syn", "num_labels", 2, "Grapes"), "int-key")
        assert not journal.has("syn", "num_labels", "2", "Grapes")


def tiny_config(journal_path) -> BenchConfig:
    return BenchConfig(
        dataset_scale=0.02,
        queries_per_set=2,
        edge_counts=(4,),
        query_time_limit=2.0,
        index_time_limit=10.0,
        synthetic_num_graphs=4,
        synthetic_num_vertices=12,
        synthetic_sweeps=(("num_labels", (2, 4)),),
        journal=str(journal_path),
    )


def report_dicts(matrix):
    return {
        key: (None if report is None else report.to_dict())
        for key, report in matrix.reports.items()
    }


@pytest.fixture()
def count_engine_builds(monkeypatch):
    """Patch harness.build_engine to count invocations."""
    calls = []
    original = harness.build_engine

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "build_engine", counting)
    return calls


class TestMatrixResume:
    DATASETS = ("AIDS",)
    ALGORITHMS = ("Grapes", "CFQL")

    def run_matrix(self, config):
        real_world_matrix.cache_clear()
        return real_world_matrix(
            config, datasets=self.DATASETS, algorithms=self.ALGORITHMS
        )

    def test_full_journal_restores_without_building_engines(
        self, tmp_path, count_engine_builds
    ):
        config = tiny_config(tmp_path / "run.jsonl")
        first = self.run_matrix(config)
        count_engine_builds.clear()
        resumed = self.run_matrix(config)
        assert count_engine_builds == []
        assert report_dicts(resumed) == report_dicts(first)
        assert resumed.index_build == first.index_build
        assert resumed.index_memory == first.index_memory
        assert resumed.auxiliary_memory == first.auxiliary_memory

    def test_kill_and_resume_skips_journaled_cells(
        self, tmp_path, count_engine_builds
    ):
        """Truncating the journal reproduces a run killed mid-matrix: the
        rerun must recompute only the missing cells and end up with the
        same report."""
        path = tmp_path / "run.jsonl"
        config = tiny_config(path)
        first = self.run_matrix(config)
        lines = path.read_text().splitlines()
        # 1 config stamp + 2 algorithms x (1 index + 2 report cells).
        assert len(lines) == 7
        # Keep the stamp, Grapes' three cells, and CFQL's index cell only.
        path.write_text("\n".join(lines[:5]) + "\n")
        count_engine_builds.clear()
        resumed = self.run_matrix(config)
        # Grapes was fully journaled; only CFQL needed an engine again.
        assert count_engine_builds == ["CFQL"]
        # ...and the rerun records only the missing cells: CFQL's index
        # cell is replayed, not journaled a second time.
        rerun = path.read_text().splitlines()[5:]
        assert [json.loads(line)["key"] for line in rerun] == [
            json.loads(line)["key"] for line in lines[5:]
        ]
        assert resumed.index_build == first.index_build
        assert set(report_dicts(resumed)) == set(report_dicts(first))
        grapes_keys = [k for k in first.reports if k[1] == "Grapes"]
        for key in grapes_keys:
            assert report_dicts(resumed)[key] == report_dicts(first)[key]

    def test_journal_records_are_json_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.run_matrix(tiny_config(path))
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"key", "value"}
            assert record["key"][0] in ("meta", "index", "report")

    def test_resume_under_different_config_is_rejected(self, tmp_path):
        """Journaled cells are only valid under the config that produced
        them; a mismatched resume must fail loudly, not replay stale
        cells."""
        import dataclasses

        from repro.utils.errors import ConfigurationError

        config = tiny_config(tmp_path / "run.jsonl")
        self.run_matrix(config)
        changed = dataclasses.replace(config, queries_per_set=3)
        with pytest.raises(ConfigurationError, match="different"):
            self.run_matrix(changed)

    def test_renamed_journal_file_still_matches(self, tmp_path):
        """The journal path itself is not part of the config fingerprint."""
        import dataclasses

        old = tmp_path / "run.jsonl"
        config = tiny_config(old)
        first = self.run_matrix(config)
        new = tmp_path / "moved.jsonl"
        old.rename(new)
        resumed = self.run_matrix(dataclasses.replace(config, journal=str(new)))
        assert report_dicts(resumed) == report_dicts(first)

    def test_no_journal_matches_journaled_run(self, tmp_path):
        journaled = self.run_matrix(tiny_config(tmp_path / "run.jsonl"))
        import dataclasses

        plain_config = dataclasses.replace(
            tiny_config(tmp_path / "run.jsonl"), journal=""
        )
        plain = self.run_matrix(plain_config)
        assert set(report_dicts(plain)) == set(report_dicts(journaled))
        assert set(plain.index_build) == set(journaled.index_build)


class TestSyntheticResume:
    def test_synthetic_full_restore(self, tmp_path, count_engine_builds):
        config = tiny_config(tmp_path / "run.jsonl")
        synthetic_matrix.cache_clear()
        first = synthetic_matrix(
            config, algorithms=("CFQL",), index_algorithms=("Grapes",)
        )
        count_engine_builds.clear()
        synthetic_matrix.cache_clear()
        resumed = synthetic_matrix(
            config, algorithms=("CFQL",), index_algorithms=("Grapes",)
        )
        assert count_engine_builds == []
        assert report_dicts(resumed) == report_dicts(first)
        assert resumed.index_build == first.index_build
        # Indexing-only algorithms keep their seed semantics on resume:
        # an index cell but no report cell.
        assert all(key[2] == "CFQL" for key in resumed.reports)
        assert all(key[2] == "Grapes" for key in resumed.index_build)
