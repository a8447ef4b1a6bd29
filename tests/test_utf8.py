"""A file that is not UTF-8 is a ParseError naming the file and the line
of its first bad byte, whichever reader meets it, and one ``error:`` line
from the command line."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from crssim import (ParseError, RatingScale, bundled, load_artifacts,
                    load_domain, load_interaction_model,
                    load_item_collection, load_population_config,
                    load_ratings, run_evaluation, save_artifacts)
from crssim.nlg import load_default_patterns
from crssim.transcript import export_dialogues, read_dialogues


def spoiled(source: Path, target: Path, line: int,
            bad: bytes = b"\xff") -> Path:
    """``source`` copied to ``target`` with ``bad`` in the middle of
    ``line`` (1-based)."""
    lines = source.read_bytes().split(b"\n")
    middle = len(lines[line - 1]) // 2
    lines[line - 1] = lines[line - 1][:middle] + bad + lines[line - 1][middle:]
    target.write_bytes(b"\n".join(lines))
    return target


def assert_names(error: pytest.ExceptionInfo, path: Path, line: int) -> None:
    assert error.value.line == line
    assert str(error.value).startswith(f"{path}: line {line}: not UTF-8 ")
    assert str(error.value).count(str(path)) == 1


@pytest.mark.parametrize("asset, read", [
    (bundled.DOMAIN, load_domain),
    (bundled.ITEMS, lambda path: load_item_collection(
        path, load_domain(bundled.asset_path(bundled.DOMAIN)))),
    (bundled.RATINGS, lambda path: load_ratings(path, RatingScale(1, 5))),
    (bundled.POPULATION, load_population_config),
    (bundled.INTERACTION_MODEL, load_interaction_model),
    (bundled.DEFAULT_TEMPLATES, load_default_patterns),
], ids=["domain", "items", "ratings", "population", "interaction",
        "default-templates"])
@pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80", b"\xc3("],
                         ids=["ff", "surrogate", "cut-sequence"])
def test_an_input_file_that_is_not_utf8(tmp_path, asset, read, bad):
    path = spoiled(bundled.asset_path(asset), tmp_path / asset, 3, bad)
    with pytest.raises(ParseError) as error:
        read(path)
    assert_names(error, path, 3)


def test_a_transcript_that_is_not_utf8_raises_at_its_line(
        tmp_path, sample_dialogues):
    # far enough in that the text reader has decoded several chunks
    clean = tmp_path / "clean.jsonl"
    export_dialogues(sample_dialogues * 20, clean)
    path = spoiled(clean, tmp_path / "bad.jsonl", 120)
    read = []
    with pytest.raises(ParseError) as error:
        read.extend(read_dialogues(path))
    assert_names(error, path, 120)
    # the text reader decodes ahead, a few kB at a time
    assert 100 < len(read) <= 118


def test_a_model_document_that_is_not_utf8(tmp_path, trained):
    models = save_artifacts(trained, tmp_path)
    for name in ("intent_model.json", "interaction_model.json"):
        path = models / name
        path.write_bytes(spoiled(path, tmp_path / "bad.json", 1).read_bytes())
        with pytest.raises(ParseError) as error:
            load_artifacts(tmp_path)
        assert_names(error, path, 1)
    # evaluation reads the interaction model beside the transcripts
    transcripts = tmp_path / "transcripts.jsonl"
    export_dialogues([], transcripts)
    with pytest.raises(ParseError) as error:
        run_evaluation(transcripts)
    assert_names(error, models / "interaction_model.json", 1)


@pytest.mark.parametrize("command, asset, flag", [
    ("evaluate", bundled.SAMPLE, "--transcripts"),
    ("simulate", bundled.POPULATION, "--population"),
], ids=["evaluate-transcript", "simulate-population"])
def test_the_command_line_prints_one_error_line(tmp_path, command, asset,
                                                flag):
    path = spoiled(bundled.asset_path(asset), tmp_path / asset, 3)
    result = subprocess.run(
        [sys.executable, "-m", "crssim", command, flag, str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: line 3: not UTF-8 text: ")
