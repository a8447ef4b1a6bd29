"""Command-line interface: train, simulate, evaluate, annotate."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Any

from .dialogue import Participant
from .errors import CrssimError
from .nlu import (classify_intent, extract_slots, predict_satisfaction,
                  train_intent_classifier)
from .runner import (REPORT_FILE, Simulation, SimulationConfig,
                     TRANSCRIPTS_FILE, load_artifacts, run_evaluation,
                     run_training)
from .transcript import export_dialogues, import_dialogues

# setting -> how its flag parses and what it says; the defaults live in
# SimulationConfig alone, so a flag that is not given is not passed on
_SETTINGS: dict[str, dict[str, Any]] = {
    "domain": dict(help="domain schema (YAML)"),
    "items": dict(help="item collection (pipe-delimited text)"),
    "ratings": dict(help="historical item ratings (CSV)"),
    "interaction_model": dict(help="interaction-model config (YAML)"),
    "sample": dict(help="annotated dialogue sample (JSON lines)"),
    "population": dict(help="population recipe (YAML)"),
    "agent": dict(help="agent target: 'mock' or a base URL"),
    "max_turns": dict(type=int, help="maximum user turns per dialogue"),
    "seed": dict(type=int, help="master random seed"),
    "out": dict(help="run artifact directory"),
    "train": dict(action="store_true", help="train models first"),
    "default_templates": dict(
        help="per-intent default template patterns (YAML)"),
}


def _add_flags(parser: argparse.ArgumentParser, *settings: str) -> None:
    for setting in settings:
        parser.add_argument("--" + setting.replace("_", "-"),
                            default=argparse.SUPPRESS, **_SETTINGS[setting])


def _config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(**{setting: value for setting, value
                               in vars(args).items() if setting in _SETTINGS})


def _cmd_train(args: argparse.Namespace) -> int:
    models = run_training(_config(args))
    print(f"trained models written to {models}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config(args)
    n_dialogues, aborted = Simulation.load(config).run()
    print(f"simulated {n_dialogues} dialogues "
          f"({aborted} aborted) into {Path(config.out)}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    out = Path(_config(args).out)
    report = run_evaluation(args.transcripts or out / TRANSCRIPTS_FILE, out)
    print(f"n_dialogues: {report.n_dialogues}")
    print(f"avg_turns: {report.avg_turns:.4f}")
    print(f"avg_success: {report.avg_success:.4f}")
    print(f"report written to {out / REPORT_FILE}")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    config = _config(args)
    artifacts = load_artifacts(config.out)
    if artifacts.satisfaction_model is None:
        raise CrssimError("no satisfaction model was trained; the sample "
                          "had no satisfaction labels")
    # the simulator's intent model knows the agent's side; the user's side
    # is told apart by the user templates the sample taught
    intent_models = {
        Participant.AGENT: artifacts.intent_model,
        Participant.USER: train_intent_classifier([
            (template.pattern, template.intent)
            for templates in artifacts.templates.templates.values()
            for template in templates]),
    }
    annotated = []
    for dialogue in import_dialogues(config.sample):
        utterances = []
        for u in dialogue.utterances:
            if u.intent is None:
                intent, _ = classify_intent(intent_models[u.participant],
                                            u.text)
                u = dataclasses.replace(
                    u, intent=intent,
                    slot_values=extract_slots(artifacts.lexicon, u.text))
            if u.participant is Participant.USER and u.satisfaction is None:
                u = dataclasses.replace(u, satisfaction=predict_satisfaction(
                    artifacts.satisfaction_model, u.text))
            utterances.append(u)
        annotated.append(dataclasses.replace(dialogue,
                                             utterances=utterances))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "annotated-sample.jsonl"
    export_dialogues(annotated, target)
    print(f"annotated dialogues written to {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crssim",
        description="Train a simulated user, run it against a "
                    "conversational recommender, and evaluate the dialogues.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser(
        "train", help="fit simulator models from an annotated sample")
    _add_flags(train, "domain", "items", "interaction_model", "sample",
               "default_templates", "out")
    train.set_defaults(handler=_cmd_train)

    simulate = subparsers.add_parser(
        "simulate", help="run one dialogue per generated user")
    _add_flags(simulate, *_SETTINGS)
    simulate.set_defaults(handler=_cmd_simulate)

    evaluate = subparsers.add_parser(
        "evaluate", help="compute AvgTurns/AvgSuccess over transcripts")
    _add_flags(evaluate, "out")
    evaluate.add_argument("--transcripts", default=None,
                          help="transcript file "
                               f"(default: <out>/{TRANSCRIPTS_FILE})")
    evaluate.set_defaults(handler=_cmd_evaluate)

    annotate = subparsers.add_parser(
        "annotate", help="pre-label intents, slots, and satisfaction on "
                         "raw dialogues for human correction")
    _add_flags(annotate, "out", "sample")
    annotate.set_defaults(handler=_cmd_annotate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CrssimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
