"""What a run holds: profiles are drawn as their dialogues start, so
loading a simulation costs the same at any population size, a run can be
repeated and a population too big for its raters fails before a run
writes anything; evaluation holds a few packed bytes per dialogue, and
``report.json`` is encoded a batch of rows at a time into the bytes of one
``write_document`` call."""

from __future__ import annotations

import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import pytest

from crssim.dialogue import Dialogue, Intent, Participant, Utterance
from crssim.errors import InsufficientRatingsUsers
from crssim.interaction import ACCEPT_INTENT
from crssim.metrics import evaluate
from crssim.runner import (_REPORT_BATCH, MODELS_DIR, REPORT_FILE,
                           TRANSCRIPTS_FILE, Simulation, SimulationConfig,
                           run_evaluation, run_training)
from crssim.transcript import export_dialogues, import_dialogues, write_document


def write_population(path: Path, n_users: int) -> str:
    path.write_text(f"n_users: {n_users}\nseed: 3\nground_in_ratings: false\n",
                    encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A run directory holding trained models."""
    out = tmp_path_factory.mktemp("trained")
    run_training(SimulationConfig(out=str(out)))
    return out


def test_loading_costs_the_same_at_any_population_size(trained_dir,
                                                       tmp_path):
    def traced_peak(n_users: int) -> int:
        config = SimulationConfig(population=write_population(
            tmp_path / f"{n_users}.yaml", n_users), out=str(trained_dir))
        tracemalloc.start()
        try:
            Simulation.load(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(100)  # whatever a first load leaves behind is not counted
    small, large = traced_peak(100), traced_peak(100_000)
    assert abs(large - small) < 64 << 10


def synthetic_dialogues(n: int) -> Iterator[Dialogue]:
    """``n`` two-utterance dialogues, each made as it is read."""
    for i in range(n):
        user = f"sim_user_{i:04d}"
        yield Dialogue(
            dialogue_id=f"dlg-{user}", agent_id="mock", user_id=user,
            utterances=[Utterance(Participant.AGENT, "Hello.", 0),
                        Utterance(Participant.USER, "Yes.", 1,
                                  intent=ACCEPT_INTENT if i % 2
                                  else Intent("GREETING"))],
            metadata={"terminated_by": ("agent", "user")[i % 2]})


def test_evaluation_holds_a_few_bytes_per_dialogue():
    def traced_peak(n_dialogues: int) -> int:
        tracemalloc.start()
        try:
            evaluate(synthetic_dialogues(n_dialogues))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(2_000)  # whatever a first run leaves behind is not counted
    small, large = traced_peak(2_000), traced_peak(20_000)
    assert (large - small) / 18_000 <= 64


@pytest.mark.parametrize("grounded", [False, True],
                         ids=["ungrounded", "grounded"])
def test_a_simulation_run_twice_writes_the_same_bytes(tmp_path, grounded):
    config = SimulationConfig(out=str(tmp_path / "out"), train=True)
    if not grounded:  # the bundled population is grounded
        config = replace(config, population=write_population(
            tmp_path / "population.yaml", 40))
    simulation = Simulation.load(config)
    transcripts = tmp_path / "out" / TRANSCRIPTS_FILE
    runs = []
    for _ in range(2):
        ran, aborted = simulation.run()
        runs.append(transcripts.read_bytes())
    assert ran > 0 and aborted == 0
    assert runs[0] == runs[1]


def test_too_few_raters_raise_before_a_run_writes_anything(trained_dir,
                                                          tmp_path):
    population = tmp_path / "population.yaml"
    population.write_text("n_users: 100000\n", encoding="utf-8")
    out = tmp_path / "out"
    shutil.copytree(trained_dir / MODELS_DIR, out / MODELS_DIR)
    simulation = Simulation.load(SimulationConfig(population=str(population),
                                                  out=str(out)))
    with pytest.raises(InsufficientRatingsUsers):
        simulation.run()
    assert sorted(path.name for path in out.iterdir()) == [MODELS_DIR]


@pytest.fixture(scope="module")
def dialogues(trained_dir):
    """One batch of report rows and one dialogue more."""
    config = SimulationConfig(population=write_population(
        trained_dir / "population.yaml", _REPORT_BATCH + 1),
        out=str(trained_dir))
    Simulation.load(config).run()
    return import_dialogues(trained_dir / TRANSCRIPTS_FILE)


@pytest.mark.parametrize("n", [1, _REPORT_BATCH, _REPORT_BATCH + 1])
def test_report_json_holds_the_bytes_of_one_write_document_call(
        dialogues, tmp_path, n):
    transcripts = tmp_path / TRANSCRIPTS_FILE
    export_dialogues(dialogues[:n], transcripts)
    report = run_evaluation(transcripts, tmp_path)
    assert report.n_dialogues == n
    expected = tmp_path / "expected.json"
    write_document(expected, {"accept_intent": str(ACCEPT_INTENT),
                              **report.to_dict()})
    assert (tmp_path / REPORT_FILE).read_bytes() == expected.read_bytes()
