"""Tests of the benchmark itself: inputs, metric names, spans, smoke runs."""

from __future__ import annotations

import json
import logging
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the repository's src/ on sys.path)
from layers import PER_LAYER_UNITS, self_times  # noqa: E402
from workloads import WORKLOADS, write_catalog  # noqa: E402

from crssim import nlu, simulator  # noqa: E402
from crssim.domain import ItemCollection, load_domain, load_item_collection  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "bundled_inproc": dict(n_users=20),
    "catalog_20k": dict(n_users=8, catalog_items=400, n_raters=40),
    "wire_loopback": dict(n_users=6),
}


def test_catalog_is_byte_identical_per_seed(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    first = write_catalog(tmp_path / "a", 7, 300, 50)
    again = write_catalog(tmp_path / "b", 7, 300, 50)
    other = write_catalog(tmp_path / "c", 8, 300, 50)
    for x, y, z in zip(first, again, other):
        assert x.read_bytes() == y.read_bytes()
        assert x.read_bytes() != z.read_bytes()


def test_catalog_loads_and_trains_without_lexicon_collisions(tmp_path, caplog):
    items_path, ratings_path = write_catalog(tmp_path, 3, 300, 50)
    from crssim import bundled
    domain = load_domain(bundled.asset_path(bundled.DOMAIN))
    items = load_item_collection(items_path, domain)
    assert len(items) == 300
    assert len({item.name for item in items}) == 300
    raters = {row.split(",")[0]
              for row in ratings_path.read_text().splitlines()[1:]}
    assert len(raters) == 50
    with caplog.at_level(logging.WARNING, logger="crssim"):
        nlu.train_slot_extractor([], items, domain)
    assert "collision" not in caplog.text


def test_metric_names_and_units_match_benchmark_json():
    for name, unit in {**run.END_TO_END_UNITS, **PER_LAYER_UNITS}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        PER_LAYER_UNITS
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


def test_self_time_subtracts_the_union_of_child_intervals():
    # 0: [0, 10] root; 1: [1, 3] and 2: [2, 5] overlap; 3: [8, 12] sticks
    # out of its parent; 4: [2.5, 4] is a grandchild inside span 2.
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    parents = [-1, 0, 0, 0, 2]
    assert self_times(starts, ends, parents) == pytest.approx(
        [10 - (4 + 2), 2.0, 3 - 1.5, 4.0, 1.5])


def test_best_cpu_median_takes_the_best_median_of_any_cpu():
    samples = [(0, 1.0), (0, 30.0), (0, 2.0), (1, 10.0), (1, 9.0)]
    assert run.best_cpu_median(samples) == pytest.approx(2.0)
    assert run.best_cpu_median(samples, higher_is_better=True) == \
        pytest.approx(9.5)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name, tmp_path):
    workload = replace(WORKLOADS[name], **TINY[name])
    result = run.run_workload(workload, seed=5, seconds=0, out_dir=tmp_path)
    assert result["correct"], result["checks"]
    assert result["failed"] == 0
    assert result["attempted"] == 3 * workload.n_users  # 2 rounds + traced
    assert set(result["end_to_end"]) == set(run.END_TO_END_UNITS)
    assert set(result["per_layer"]) == set(PER_LAYER_UNITS)
    assert all(v > 0 for v in result["end_to_end"].values())
    layers = result["per_layer"]
    assert layers["connector.connect_dialogue.aborted"] == 0
    assert layers["nlu.classify_intent.calls"] > 0
    if workload.wire:
        assert layers["wire.wire_exchange.calls"] > 0
        assert layers["mock_agent.MockAgentServer.sessions"] == workload.n_users
        assert result["checks"]["wire_transcript_equals_inproc"]
    else:
        assert layers["mock_agent.MockCRSAgent.respond.us_p50"] > 0
    assert (tmp_path / f"{name}.spans.jsonl").is_file()
    assert [p.name for p in tmp_path.iterdir()] == [f"{name}.spans.jsonl"]
    # the traced run put every original function back
    assert simulator.classify_intent is nlu.classify_intent
    assert not hasattr(nlu.classify_intent, "__wrapped__")
    assert not hasattr(ItemCollection.by_name, "__wrapped__")


def test_last_line_holds_the_trace_mode_metrics(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "bundled_inproc",
                        replace(WORKLOADS["bundled_inproc"], n_users=10))
    monkeypatch.setattr(run, "OUT", tmp_path)
    for trace, units in ((0, run.END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
        assert run.main(["--workload", "bundled_inproc", "--seed", "2",
                         "--seconds", "0", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert {k: v["unit"] for k, v in last["metrics"].items()} == units


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "bundled_inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert child.stdout.strip() == ""

