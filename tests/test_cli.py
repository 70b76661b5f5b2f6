"""Tests for repro.cli (the command-line interface)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph import GraphDatabase, read_graph_database, write_graph_database

from helpers import path_graph, triangle


@pytest.fixture()
def db_file(tmp_path):
    db = GraphDatabase()
    db.add_graphs([triangle(0), path_graph([0, 0, 0]), path_graph([1, 2])])
    path = tmp_path / "db.txt"
    write_graph_database(db, path)
    return path


@pytest.fixture()
def query_file(tmp_path):
    queries = GraphDatabase()
    queries.add_graph(path_graph([0, 0]))
    path = tmp_path / "q.txt"
    write_graph_database(queries, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "a", "b", "-a", "NoSuch"])


class TestGenerate:
    def test_writes_database(self, tmp_path):
        out = tmp_path / "g.txt"
        code = main([
            "generate", "--graphs", "5", "--vertices", "8",
            "--degree", "2", "--labels", "3", "-o", str(out),
        ])
        assert code == 0
        db = read_graph_database(out)
        assert len(db) == 5
        assert db[0].num_vertices == 8

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["generate", "--graphs", "2", "--vertices", "6",
                  "--degree", "2", "--labels", "2", "--seed", "7",
                  "-o", str(out)])
        assert a.read_text() == b.read_text()


class TestDataset:
    def test_writes_stand_in(self, tmp_path):
        out = tmp_path / "aids.txt"
        code = main(["dataset", "AIDS", "--scale", "0.01", "-o", str(out)])
        assert code == 0
        db = read_graph_database(out)
        assert len(db) == 8  # 800 × 0.01
        assert db[0].num_vertices == 45


class TestStats:
    def test_prints_table_iv_rows(self, db_file, capsys):
        assert main(["stats", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "#graphs" in out and "degree per graph" in out


class TestQuery:
    def test_answers_printed(self, db_file, query_file, capsys):
        code = main(["query", str(db_file), str(query_file), "-a", "CFQL"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 answers [0,1]" in out

    def test_index_based_algorithm(self, db_file, query_file, capsys):
        code = main(["query", str(db_file), str(query_file), "-a", "Grapes"])
        assert code == 0
        out = capsys.readouterr().out
        assert "index built" in out
        assert "2 answers [0,1]" in out


def _answer_lines(out: str) -> list[str]:
    """Query output lines with the (run-dependent) timings stripped."""
    return [
        line.split(" filter=")[0]
        for line in out.splitlines()
        if line.startswith("query")
    ]


class TestJobsValidation:
    @pytest.mark.parametrize("value", ["0", "-3", "nope"])
    @pytest.mark.parametrize("command", ["query", "reproduce"])
    def test_bad_jobs_rejected_with_clear_error(self, command, value, capsys):
        argv = {
            "query": ["query", "db", "q", "--jobs", value],
            "reproduce": ["reproduce", "table4", "--jobs", value],
        }[command]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_env_jobs_rejected_with_clear_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
        code = main(["reproduce", "table4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "REPRO_BENCH_JOBS" in err

    def test_jobs_one_accepted(self, db_file, query_file):
        assert main(["query", str(db_file), str(query_file), "--jobs", "1"]) == 0


class TestBreakerFlags:
    @pytest.mark.parametrize(
        "flag, value", [("--breaker-threshold", "-1"), ("--breaker-cooldown", "0")]
    )
    def test_bad_breaker_flag_rejected_with_clear_error(self, flag, value,
                                                        capsys):
        """Checked up front, even for an engine that builds no Health."""
        code = main(["serve", "db", "--listen", "unix:/tmp/x.sock", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err

    def test_supervised_pool_that_never_opens_rejected(self, capsys):
        code = main(["serve", "db", "--listen", "unix:/tmp/x.sock",
                     "--supervised", "--breaker-threshold", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--breaker-threshold" in err


class TestShardsFlag:
    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    @pytest.mark.parametrize("command", ["query", "serve", "reproduce"])
    def test_bad_shards_rejected_with_clear_error(self, command, value, capsys):
        argv = {
            "query": ["query", "db", "q", "--shards", value],
            "serve": ["serve", "db", "--listen", "unix:/tmp/x.sock",
                      "--shards", value],
            "reproduce": ["reproduce", "table4", "--shards", value],
        }[command]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_query_sharded_matches_unsharded(self, db_file, query_file,
                                             capsys):
        assert main(["query", str(db_file), str(query_file)]) == 0
        baseline = _answer_lines(capsys.readouterr().out)
        assert main([
            "query", str(db_file), str(query_file), "--shards", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert _answer_lines(out) == baseline
        assert "# sharded: 2 shards (hash placement, thread host)" in out

    def test_connect_plus_shards_rejected(self, query_file, capsys):
        code = main([
            "query", str(query_file), "--connect", "unix:/tmp/x.sock",
            "--shards", "2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--connect" in err

    def test_reproduce_shards_plus_store_rejected(self, tmp_path, capsys):
        code = main([
            "reproduce", "table4", "--shards", "2",
            "--index-store", str(tmp_path / "idx"),
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_sharded_store_requires_matching_flag(self, db_file, query_file,
                                                  tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "query", str(db_file), str(query_file), "-a", "Grapes",
            "--shards", "2", "--index-store", str(store),
        ]) == 0
        capsys.readouterr()
        # Reopening the sharded store unsharded is a structured error...
        code = main([
            "query", str(db_file), str(query_file), "-a", "Grapes",
            "--index-store", str(store),
        ])
        assert code == 2
        assert "pass --shards 2" in capsys.readouterr().err
        # ...and reopening with the right count warm-starts.
        assert main([
            "query", str(db_file), str(query_file), "-a", "Grapes",
            "--shards", "2", "--index-store", str(store),
        ]) == 0
        assert "warm-started" in capsys.readouterr().out


class TestIndexStore:
    def test_query_warm_starts_from_store(self, db_file, query_file,
                                          tmp_path, capsys):
        store = tmp_path / "idx"
        args = ["query", str(db_file), str(query_file), "-a", "Grapes",
                "--index-store", str(store)]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "index built" in cold_out
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "warm-started from snapshot" in warm_out
        # Same answers either way.
        assert _answer_lines(cold_out) == _answer_lines(warm_out)

    def test_query_recovers_from_corrupt_snapshot(self, db_file, query_file,
                                                  tmp_path, capsys):
        store = tmp_path / "idx"
        args = ["query", str(db_file), str(query_file), "-a", "Grapes",
                "--index-store", str(store)]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        snap = store / "Grapes.snap"
        damaged = bytearray(snap.read_bytes())
        damaged[-1] ^= 0x01
        snap.write_bytes(bytes(damaged))
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "snapshot rejected (checksum)" in out
        assert _answer_lines(out) == _answer_lines(baseline)

    def test_index_build_and_verify(self, db_file, tmp_path, capsys):
        store = tmp_path / "idx"
        code = main(["index", "build", str(db_file), "--store", str(store),
                     "-a", "Grapes", "-a", "GGSX"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Grapes: built" in out and "GGSX: built" in out
        assert sorted(p.name for p in store.iterdir()) == [
            "GGSX.snap", "Grapes.snap"
        ]
        code = main(["index", "verify", str(store), "-d", str(db_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Grapes.snap: ok" in out and "GGSX.snap: ok" in out

    def test_index_build_skips_index_free_algorithms(self, db_file, tmp_path,
                                                     capsys):
        store = tmp_path / "idx"
        code = main(["index", "build", str(db_file), "--store", str(store),
                     "-a", "CFQL"])
        assert code == 0
        assert "index-free" in capsys.readouterr().out
        assert not store.exists()

    def test_index_verify_flags_corruption(self, db_file, tmp_path, capsys):
        store = tmp_path / "idx"
        main(["index", "build", str(db_file), "--store", str(store),
              "-a", "Grapes"])
        capsys.readouterr()
        snap = store / "Grapes.snap"
        snap.write_bytes(snap.read_bytes()[:-4])  # truncate
        code = main(["index", "verify", str(store), "-d", str(db_file)])
        assert code == 1
        assert "INVALID [truncated]" in capsys.readouterr().out

    def test_index_verify_flags_stale_database(self, db_file, tmp_path,
                                               capsys):
        store = tmp_path / "idx"
        main(["index", "build", str(db_file), "--store", str(store),
              "-a", "Grapes"])
        capsys.readouterr()
        other = tmp_path / "other.txt"
        db = GraphDatabase()
        db.add_graphs([triangle(1), path_graph([2, 2])])
        write_graph_database(db, other)
        code = main(["index", "verify", str(store), "-d", str(other)])
        assert code == 1
        assert "INVALID [db-fingerprint]" in capsys.readouterr().out

    def test_index_verify_empty_store(self, tmp_path, capsys):
        assert main(["index", "verify", str(tmp_path / "empty")]) == 1
        assert "no snapshots" in capsys.readouterr().err


class TestErrorReporting:
    def test_malformed_database_is_one_line_error(self, tmp_path, query_file,
                                                  capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("t # 0\nv 0 0\ne 0 7\n")
        code = main(["query", str(bad), str(query_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err


class TestReproduce:
    def test_unknown_artifact_rejected(self, capsys):
        code = main(["reproduce", "table99"])
        assert code == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestQueryCache:
    """Satellite 1: the --cache flag on local query runs."""

    def test_cache_flag_stamps_outcomes_and_summary(
        self, db_file, tmp_path, capsys
    ):
        queries = GraphDatabase()
        queries.add_graph(path_graph([0, 0]))
        queries.add_graph(path_graph([0, 0]))  # identical repeat
        qpath = tmp_path / "qq.txt"
        write_graph_database(queries, qpath)

        code = main(["query", str(db_file), str(qpath), "-a", "CFQL",
                     "--cache", "8"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("query")]
        assert lines[0].endswith("cache=miss")
        assert lines[1].endswith("cache=hit")
        assert "[0,1]" in lines[0] and "[0,1]" in lines[1]
        assert "# cache: 1/2 queries hit" in out

    def test_without_cache_flag_no_cache_output(self, db_file, query_file,
                                                capsys):
        assert main(["query", str(db_file), str(query_file), "-a", "CFQL"]) == 0
        out = capsys.readouterr().out
        assert "cache=" not in out and "# cache:" not in out


class TestServeParser:
    def test_listen_is_required(self, db_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["serve", str(db_file)])
        assert err.value.code == 2
        assert "--listen" in capsys.readouterr().err

    def test_connect_rejects_database_plus_queries(
        self, db_file, query_file, capsys
    ):
        code = main(["query", str(db_file), str(query_file),
                     "--connect", "unix:/tmp/nope.sock"])
        assert code == 2
        assert "only the query file" in capsys.readouterr().err

    def test_local_query_requires_query_file(self, db_file, capsys):
        code = main(["query", str(db_file)])
        assert code == 2
        assert "query file" in capsys.readouterr().err


class TestServeRoundTrip:
    def test_serve_answers_cli_query_connect(self, db_file, query_file,
                                             tmp_path, capsys):
        """`repro serve` in a thread, `repro query --connect` against it:
        the remote output matches the local run, plus a cache column."""
        import threading

        from repro.service.client import ServiceClient, wait_for_service

        address = f"unix:{tmp_path / 'cli.sock'}"
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["serve", str(db_file), "--listen", address,
                      "-a", "CFQL"])
            ),
            daemon=True,
        )
        thread.start()
        wait_for_service(address)

        local = main(["query", str(db_file), str(query_file), "-a", "CFQL"])
        remote = main(["query", str(query_file), "--connect", address])
        remote_again = main(["query", str(query_file), "--connect", address])
        out = capsys.readouterr().out
        assert local == remote == remote_again == 0
        stripped = _answer_lines(out)
        assert stripped[0] == stripped[1] == stripped[2]  # same answers
        raw = [l for l in out.splitlines() if l.startswith("query")]
        assert raw[1].endswith("cache=miss")
        assert raw[2].endswith("cache=hit")

        with ServiceClient(address) as client:
            assert client.stats()["cache"]["hits"] == 1
            client.shutdown()
        thread.join(timeout=10.0)
        assert codes == [0]
