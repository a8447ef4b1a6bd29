"""Model documents under ``models/`` and the YAML configs: each is read
by one walker over its class's fields, so a document that does not fit
its class is a :class:`ParseError` naming the file, and each class checks
its values when it is built, from a document or by hand. Every reader of
an input file names the file in its errors."""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crssim import (CrssimError, IntentModel, ParseError, PopulationConfig,
                    RatingScale, SatisfactionModel, Simulation,
                    SimulationConfig, bundled, generate_population,
                    load_artifacts, load_domain, load_interaction_model,
                    load_item_collection, load_population_config,
                    load_ratings, save_artifacts)
from crssim.nlg import load_default_patterns
from crssim.transcript import import_dialogues

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
    # rules of the class, not of the walker: still ParseErrors
    "undeclared-terminal-intent": ("interaction_model.json",
                                   ["terminal_intent"], "NOPE"),
    "undeclared-accept-intent": ("interaction_model.json",
                                 ["accept_intent"], "NOPE"),
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
    (line,) = result.stderr.splitlines()
    path = run / "models" / "intent_model.json"
    assert line == (f"error: {path}: IntentModel.min_similarity must be a "
                    "number, not '0.1'")
    assert not (run / "transcripts.jsonl").exists()


SCALARS = (st.none() | st.booleans() | st.integers(-3, 9) | st.floats()
           | st.text(max_size=4))
# what a shorthand such as ``or {}`` would take for an empty section
FALSY = (False, 0, [], "")


@st.composite
def mutated(draw, document: dict) -> tuple[Any, bool]:
    """``document`` with one structure-aware edit at a drawn path: a
    scalar retyped, a key renamed, dropped or added, a value wrapped in a
    list, a mapping emptied, a list replaced by a string, or a mapping or
    list replaced by one of :data:`FALSY`; and whether the edit must be
    refused: a mapping or list replaced by a value that is neither."""
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
    edits += ["falsify"] if isinstance(node, (dict, list)) else []
    edit = draw(st.sampled_from(edits))
    if edit == "falsify":
        container[key] = copy.copy(draw(st.sampled_from(FALSY)))
    elif edit == "retype":
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
    refused = edit == "falsify" and (isinstance(node, dict)
                                     or container[key] != [])
    return root[0], refused


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_document_loads_and_runs_or_names_the_file(
        run, movie_items, name, data):
    target = run / "models" / name
    original = target.read_text(encoding="utf-8")
    document, refused = data.draw(mutated(json.loads(original)))
    target.write_text(json.dumps(document), encoding="utf-8")
    try:
        artifacts = load_artifacts(run)
    except ParseError as exc:
        assert name in str(exc)
        return
    finally:
        target.write_text(original, encoding="utf-8")
    assert not refused
    users = list(generate_population(
        PopulationConfig(n_users=3, ground_in_ratings=False), []))
    Simulation(SimulationConfig(out=str(run / "out")), movie_items,
               artifacts, users, None).run()


# each YAML config: its bundled asset and its reader
CONFIGS = {
    "domain": (bundled.DOMAIN, load_domain),
    "population": (bundled.POPULATION, load_population_config),
    "interaction": (bundled.INTERACTION_MODEL, load_interaction_model),
    "default-templates": (bundled.DEFAULT_TEMPLATES, load_default_patterns),
}


@pytest.mark.parametrize("name", CONFIGS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_config_loads_or_names_the_file(tmp_path, name, data):
    asset, read = CONFIGS[name]
    document = yaml.safe_load(bundled.asset_path(asset).read_text("utf-8"))
    document, refused = data.draw(mutated(document))
    path = tmp_path / asset
    path.write_text(yaml.safe_dump(document), encoding="utf-8")
    try:
        read(path)
    except CrssimError as exc:
        assert str(exc).count(str(path)) == 1, exc
        return
    assert not refused, document


def containers(node: Any, path: tuple = ()) -> Any:
    """``(path, node)`` for every mapping and list in ``node``, its own
    first."""
    if isinstance(node, (dict, list)):
        yield path, node
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield from containers(child, (*path, key))


def replaced(node: Any, path: tuple, value: Any) -> Any:
    """A copy of ``node`` with ``value`` at ``path``."""
    if not path:
        return value
    node = copy.copy(node)
    node[path[0]] = replaced(node[path[0]], path[1:], value)
    return node


@pytest.mark.parametrize("name", CONFIGS)
def test_every_section_or_list_replaced_by_a_falsy_value_is_refused(
        tmp_path, name):
    # each case the fuzz may draw, so that none of them rests on chance
    asset, read = CONFIGS[name]
    document = yaml.safe_load(bundled.asset_path(asset).read_text("utf-8"))
    path = tmp_path / asset
    for where, node in containers(document):
        for value in FALSY:
            if value == [] and isinstance(node, list):
                continue  # an empty list is still a list
            path.write_text(yaml.safe_dump(replaced(document, where, value)),
                            encoding="utf-8")
            with pytest.raises(CrssimError) as error:
                read(path)
            assert str(error.value).count(str(path)) == 1, (where, value)


# each reader of an input file: its asset, its reader, a fault put into
# the bundled text, and the command and flag that read the file first
FAULTS = {
    "domain": (bundled.DOMAIN, load_domain, ("- keyword", "- 1"),
               ("train", "--domain")),
    "population": (bundled.POPULATION, load_population_config,
                   ("seed: 0", "seed: [0"), ("simulate", "--population")),
    "interaction": (bundled.INTERACTION_MODEL, load_interaction_model,
                    ("terminal_intent: DONE\n", ""),
                    ("train", "--interaction-model")),
    "default-templates": (bundled.DEFAULT_TEMPLATES, load_default_patterns,
                          ('"Thank you, goodbye."', "1"),
                          ("train", "--default-templates")),
    "items": (bundled.ITEMS, lambda source: load_item_collection(
        source, load_domain(bundled.asset_path(bundled.DOMAIN))),
              ("genre=action;", "colour=action;"), ("train", "--items")),
    "ratings": (bundled.RATINGS, lambda source: load_ratings(
        source, RatingScale(1.0, 5.0)), ("u001,m19,4", "u001,m19,9"),
                ("simulate", "--ratings")),
    "sample": (bundled.SAMPLE, import_dialogues,
               ('"turn_index": 0', '"turn_index": "0"'),
               ("train", "--sample")),
    "transcript": (bundled.SAMPLE, import_dialogues,
                   ('{"dialogues": 8}', '{"dialogues": 9}'),
                   ("evaluate", "--transcripts")),
}
# a YAML syntax error in each config but the population's, which has one
FAULTS.update({
    f"{name}-syntax": (asset, read, (old, old.replace(": ", ": [", 1)), cli)
    for name, old in (("domain", "name: movies"),
                      ("interaction", "name: crsv1"),
                      ("default-templates", 'GREETING: "Hello."'))
    for asset, read, _, cli in [FAULTS[name]]})


def faulty(tmp_path: Path, name: str) -> Path:
    """The bundled asset of ``name`` with its fault, as a file."""
    asset, _, (old, new), _ = FAULTS[name]
    text = bundled.asset_path(asset).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / asset
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", FAULTS)
def test_an_error_in_a_file_names_it_once(tmp_path, name):
    path, read = faulty(tmp_path, name), FAULTS[name][1]
    with pytest.raises(CrssimError) as streamed:
        read(io.StringIO(path.read_text(encoding="utf-8")))
    with pytest.raises(CrssimError) as filed:
        read(path)
    # the class and the line are the stream's; only the text grows
    assert type(filed.value) is type(streamed.value)
    assert getattr(filed.value, "line", None) == getattr(
        streamed.value, "line", None)
    assert str(path) not in str(streamed.value)
    assert str(filed.value).count(str(path)) == 1


@pytest.mark.parametrize("name", FAULTS)
def test_the_command_line_names_the_file_in_one_error_line(tmp_path, name):
    path, (command, flag) = faulty(tmp_path, name), FAULTS[name][3]
    result = subprocess.run(
        [sys.executable, "-m", "crssim", command, flag, str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: ")
    assert line.count(str(path)) == 1 and "<unicode string>" not in line
    assert "ParseError(" not in line


# bytes that make or break the syntax of some reader, beside any byte
SPECIAL = [b"\n", b"\r", b" ", b"\t", b"#", b"-", b":", b",", b"|", b"=",
           b";", b"[", b"]", b"{", b"}", b'"', b"'", b"\\", b"!", b"&",
           b"*", b"%", b"\x00", b"\xff", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def mangled(draw, data: bytes) -> bytes:
    """``data`` after one to three byte-level edits: a bit flipped, bytes
    inserted or deleted, the end cut off, or two lines swapped or one
    duplicated."""
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["flip", "insert", "delete", "cut",
                                     "swap", "duplicate"]))
        if edit in ("swap", "duplicate"):
            lines = data.splitlines(keepends=True) or [b""]
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in "ij")
            if edit == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines.insert(j, lines[i])
            data = b"".join(lines)
            continue
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if edit == "flip" and data:
            bit = 1 << draw(st.integers(0, 7))
            data = data[:at] + bytes([data[at] ^ bit]) + data[at + 1:]
        elif edit == "insert":
            inserted = draw(st.sampled_from(SPECIAL)
                            | st.binary(min_size=1, max_size=3))
            data = data[:at] + inserted + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)):]
        elif edit == "cut":
            data = data[:at]
    return data


@pytest.fixture(scope="module")
def simulated(saved, trained, movie_items) -> bytes:
    """The transcript of a three-user run."""
    out = saved / "out"
    users = list(generate_population(
        PopulationConfig(n_users=3, ground_in_ratings=False), []))
    Simulation(SimulationConfig(out=str(out)), movie_items, trained, users,
               None).run()
    return (out / "transcripts.jsonl").read_bytes()


# every file a run reads: each input, a transcript and each model document
BYTE_READERS = ["domain", "population", "interaction", "default-templates",
                "items", "ratings", "sample", "transcript", *MODELS]


@pytest.mark.parametrize("name", BYTE_READERS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_file_mangled_byte_by_byte_is_read_or_named_once(
        run, simulated, name, data):
    if name in MODELS:
        path, read = run / "models" / name, lambda _: load_artifacts(run)
        original = path.read_bytes()
    elif name == "transcript":
        path, read = run / "transcripts.jsonl", import_dialogues
        original = simulated
    else:
        asset, read = FAULTS[name][:2]
        path, original = run / asset, bundled.asset_path(asset).read_bytes()
    path.write_bytes(data.draw(mangled(original)))
    try:
        read(path)
    except CrssimError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        assert message.count(str(path)) == 1 and "\n" not in message, message
    finally:
        path.write_bytes(original)
