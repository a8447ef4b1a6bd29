"""Model documents under ``models/``: each is read by one walker over its
class's fields, so a document that does not fit its class is a
:class:`ParseError` naming the file, and each class checks its values
when it is built, from a document or by hand."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crssim import (IntentModel, ParseError, PopulationConfig,
                    SatisfactionModel, Simulation, SimulationConfig,
                    generate_population, load_artifacts, save_artifacts)

MODELS = ("interaction_model.json", "intent_model.json",
          "slot_lexicon.json", "template_store.json",
          "satisfaction_model.json")


@pytest.fixture(scope="module")
def saved(trained, tmp_path_factory) -> Path:
    """A run directory holding the models trained on the bundled sample."""
    run = tmp_path_factory.mktemp("trained")
    save_artifacts(trained, run)
    return run


@pytest.fixture
def run(saved, tmp_path) -> Path:
    """A copy of ``saved`` that a test may spoil."""
    shutil.copytree(saved / "models", tmp_path / "models")
    return tmp_path


def spoil(run: Path, name: str, path: list, value: Any) -> None:
    """Set the value at ``path`` in the document ``name`` of ``run``."""
    target = run / "models" / name
    document = json.loads(target.read_text(encoding="utf-8"))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    target.write_text(json.dumps(document), encoding="utf-8")


# each was read without an error, and the first two then crashed a run
DEFECTS = {
    "min-similarity-text": ("intent_model.json", ["min_similarity"], "0.1"),
    "no-centroids": ("intent_model.json", ["centroids"], {}),
    "lexicon-entry-text": ("slot_lexicon.json", ["entries", "action"],
                           "gk"),
    "default-level-9": ("satisfaction_model.json", ["default_level"], 9),
    "centroid-level-7": ("satisfaction_model.json", ["centroids", "7"], {}),
    **{f"unknown-key-{name}": (name, ["surplus"], 1) for name in MODELS},
}


@pytest.mark.parametrize("name, path, value", DEFECTS.values(),
                         ids=list(DEFECTS))
def test_a_document_that_does_not_fit_its_class_names_the_file(
        run, name, path, value):
    spoil(run, name, path, value)
    with pytest.raises(ParseError, match=name):
        load_artifacts(run)


@pytest.mark.parametrize("build", [
    lambda: IntentModel(idf={"a": 1.0}, centroids={}),
    lambda: SatisfactionModel(idf={}, centroids={7: {}}),
    lambda: SatisfactionModel(idf={}, centroids={}, default_level=9),
], ids=["no-centroids", "centroid-level-7", "default-level-9"])
def test_a_model_refuses_values_outside_its_rules_when_built(build):
    with pytest.raises(ValueError):
        build()


def test_simulate_over_a_mistyped_model_prints_one_error_line(run):
    spoil(run, "intent_model.json", ["min_similarity"], "0.1")
    result = subprocess.run(
        [sys.executable, "-m", "crssim", "simulate", "--out", str(run)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "intent_model.json" in line
    assert not (run / "transcripts.jsonl").exists()


SCALARS = (st.none() | st.booleans() | st.integers(-3, 9) | st.floats()
           | st.text(max_size=4))


@st.composite
def mutated(draw, document: dict) -> Any:
    """``document`` with one structure-aware edit at a drawn path: a
    scalar retyped, a key renamed, dropped or added, a value wrapped in a
    list, a mapping emptied or a list replaced by a string."""
    root = [copy.deepcopy(document)]
    container, key = root, 0
    while isinstance(container[key], (dict, list)) and container[key] \
            and draw(st.booleans()):
        node = container[key]
        container, key = node, draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
    node = container[key]
    edits = ["retype", "wrap"]
    edits += ["rename", "drop"] if isinstance(container, dict) else []
    edits += ["add", "empty"] if isinstance(node, dict) else []
    edits += ["stringify"] if isinstance(node, list) else []
    edit = draw(st.sampled_from(edits))
    if edit == "retype":
        container[key] = draw(SCALARS.filter(
            lambda value: type(value) is not type(node)))
    elif edit == "wrap":
        container[key] = [node]
    elif edit == "rename":
        container[draw(st.text(max_size=6))] = container.pop(key)
    elif edit == "drop":
        del container[key]
    elif edit == "add":
        node[draw(st.text(max_size=6))] = draw(SCALARS)
    elif edit == "empty":
        node.clear()
    else:
        container[key] = draw(st.text(max_size=4))
    return root[0]


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_document_loads_and_runs_or_names_the_file(
        run, movie_items, name, data):
    target = run / "models" / name
    original = target.read_text(encoding="utf-8")
    target.write_text(json.dumps(data.draw(mutated(json.loads(original)))),
                      encoding="utf-8")
    try:
        artifacts = load_artifacts(run)
    except ParseError as exc:
        assert name in str(exc)
        return
    finally:
        target.write_text(original, encoding="utf-8")
    users = list(generate_population(
        PopulationConfig(n_users=3, ground_in_ratings=False), []))
    Simulation(SimulationConfig(out=str(run / "out")), movie_items,
               artifacts, users, None).run()
