"""Self-test of the benchmark: ``pytest benchmarks/perf/test_smoke.py``.

Not collected by the tier-1 run (its ``testpaths`` is ``tests``).  Runs
the ``--quick`` variant of the whole suite once and checks the output's
shape against ``BENCHMARK.json`` — not the numbers, which a one-second
run cannot support.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "-o", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def test_manifest_matches_the_catalogue(manifest):
    from catalog import END_TO_END, PER_LAYER
    from workloads import REFERENCE_SECONDS, WORKLOADS

    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert manifest["run_seconds"] == REFERENCE_SECONDS
    for section, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[section]]
        assert listed == [(m.name, m.unit, m.better) for m in catalogue]
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_names_and_units_are_well_formed(manifest):
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_quick_run_emits_every_metric_of_every_workload(manifest, quick):
    assert quick["host"]["nproc"] >= 1
    expected = {
        False: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        True: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    seen = set()
    for result in quick["results"]:
        seen.add((result["workload"], result["traced"]))
        units = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert units == expected[result["traced"]], result["workload"]
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], float)
        assert result["failed"] == 0 and result["correct"], result["failures"]
        assert result["attempted"] >= 1
        assert result["server_command"][1:4] == ["-m", "repro", "serve"]
    runnable = [
        w["name"] for w in manifest["workloads"] if w["name"] not in quick["unresolved"]
    ]
    assert seen == {(name, traced) for name in runnable for traced in (False, True)}


def test_trace_files_parse_and_every_parent_exists(quick):
    traced = [r for r in quick["results"] if r["traced"]]
    assert traced
    for result in traced:
        trace = json.loads(Path(result["trace_file"]).read_text())
        assert trace["columns"] == ["id", "name", "start", "end", "parent", "request"]
        spans = trace["spans"]
        assert spans, result["workload"]
        ids = {span[0] for span in spans}
        assert ids == set(range(len(spans)))
        for span_id, name, start, end, parent, _request in spans:
            assert end >= start, (result["workload"], name)
            assert parent is None or (parent in ids and parent < span_id), name
        names = {span[1] for span in spans}
        assert {"request", "client.encode", "client.roundtrip", "client.decode",
                "server.execution", "engine.query", "matching.filter"} <= names
