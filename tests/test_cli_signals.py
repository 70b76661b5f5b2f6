"""Signal handling for journaled CLI runs (SIGTERM/SIGINT mid-flight).

The contract under test: a signal delivered during ``repro reproduce``
(or ``benchmark``) exits with the conventional ``128 + signum`` code and
leaves the JSONL journal *whole-line valid* — every line parses, so the
rerun resumes from it instead of tripping over a torn tail.  The journal
writer guarantees this by emitting each record as one ``O_APPEND``
``os.write`` (a Python signal handler cannot interrupt the syscall
midway), which is also exercised directly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def start_reproduce(tmp_path, journal):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    # Small but non-trivial: several matrix cells, seconds of work.
    env["REPRO_BENCH_SCALE"] = "0.05"
    env["REPRO_BENCH_QUERIES"] = "4"
    # Index builds are cells like any other; nothing here asserts on one
    # finishing, so a 1 s limit keeps the run seconds long (OOT is a
    # journaled cell too).
    env["REPRO_BENCH_INDEX_LIMIT"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "reproduce", "fig7",
         "--journal", str(journal)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, cwd=str(tmp_path), text=True,
    )


def interrupt_after_journal_exists(proc, journal, sig, timeout=120.0,
                                   min_lines=1):
    """Send ``sig`` once the journal holds ``min_lines`` complete lines
    (so the signal lands mid-run, not during startup).  The first line
    is the config stamp; every later one is a finished matrix cell."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"run finished (rc={proc.returncode}) before the signal; "
                f"output:\n{proc.communicate()[0]}"
            )
        if journal.exists() and journal.read_bytes().count(b"\n") >= min_lines:
            break
        time.sleep(0.02)
    else:
        raise AssertionError("journal never appeared")
    proc.send_signal(sig)
    output, _ = proc.communicate(timeout=60.0)
    return output


def assert_whole_line_journal(journal):
    lines = journal.read_text().splitlines()
    assert lines, "journal should hold at least the config stamp"
    for line in lines:
        record = json.loads(line)  # raises on a torn line
        assert "key" in record and "value" in record


@pytest.mark.parametrize("sig,expected", [
    (signal.SIGTERM, 143),
    (signal.SIGINT, 130),
])
def test_signal_mid_reproduce_flushes_journal_and_exits_clean(
    tmp_path, sig, expected
):
    journal = tmp_path / "run.jsonl"
    proc = start_reproduce(tmp_path, journal)
    output = interrupt_after_journal_exists(proc, journal, sig)
    assert proc.returncode == expected, output
    assert f"interrupted by signal {sig}" in output
    assert "journal flushed" in output
    assert_whole_line_journal(journal)


def test_resume_after_interrupt(tmp_path):
    """The journal a SIGTERM leaves behind is a valid resume point: the
    rerun completes and reuses the journaled cells."""
    journal = tmp_path / "run.jsonl"
    proc = start_reproduce(tmp_path, journal)
    interrupt_after_journal_exists(
        proc, journal, signal.SIGTERM, min_lines=2
    )
    before = journal.read_text().splitlines()
    # The config stamp and at least one matrix cell, or the rerun would
    # have nothing but the stamp to resume from.
    assert len(before) >= 2
    keys_before = {json.dumps(json.loads(line)["key"]) for line in before}

    rerun = start_reproduce(tmp_path, journal)
    output, _ = rerun.communicate(timeout=600.0)
    assert rerun.returncode == 0, output
    assert_whole_line_journal(journal)
    lines = journal.read_text().splitlines()
    assert len(lines) >= len(before)
    recomputed = {
        json.dumps(json.loads(line)["key"]) for line in lines[len(before):]
    } & keys_before
    assert not recomputed, f"rerun recomputed journaled cells: {recomputed}"


class TestAppendLineDurable:
    def test_appends_one_line_per_call(self, tmp_path):
        from repro.utils.fsio import append_line_durable

        path = tmp_path / "log.jsonl"
        append_line_durable(path, json.dumps({"n": 1}))
        append_line_durable(path, json.dumps({"n": 2}))
        assert [json.loads(l) for l in path.read_text().splitlines()] == [
            {"n": 1}, {"n": 2},
        ]

    def test_creates_parent_file_and_strips_nothing(self, tmp_path):
        from repro.utils.fsio import append_line_durable

        path = tmp_path / "fresh.jsonl"
        append_line_durable(path, "plain text line")
        assert path.read_text() == "plain text line\n"
