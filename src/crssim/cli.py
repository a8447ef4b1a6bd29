"""Command-line interface: train, simulate, evaluate, annotate."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bundled
from .dialogue import AnnotatedUtterance, Participant
from .errors import CrssimError
from .nlu import classify_intent, extract_slots, predict_satisfaction
from .runner import (REPORT_FILE, SimulationConfig, TRANSCRIPTS_FILE,
                     load_artifacts, run_evaluation, run_training, simulate)
from .transcript import export_dialogues, import_dialogues


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domain", default=str(bundled.asset_path(
        bundled.DOMAIN)), help="domain schema (YAML)")
    parser.add_argument("--items", default=str(bundled.asset_path(
        bundled.ITEMS)), help="item collection (pipe-delimited text)")
    parser.add_argument("--ratings", default=str(bundled.asset_path(
        bundled.RATINGS)), help="historical item ratings (CSV)")
    parser.add_argument("--interaction-model", default=str(
        bundled.asset_path(bundled.INTERACTION_MODEL)),
        help="interaction-model config (YAML)")
    parser.add_argument("--sample", default=str(bundled.asset_path(
        bundled.SAMPLE)), help="annotated dialogue sample (JSON)")
    parser.add_argument("--population", default=str(bundled.asset_path(
        bundled.POPULATION)), help="population recipe (YAML)")
    parser.add_argument("--default-templates", default=str(
        bundled.asset_path(bundled.DEFAULT_TEMPLATES)),
        help="per-intent default template patterns (YAML)")
    parser.add_argument("--agent", default="mock",
                        help="agent target: 'mock' or a base URL")
    parser.add_argument("--max-turns", type=int, default=30,
                        help="maximum user turns per dialogue")
    parser.add_argument("--seed", type=int, default=None,
                        help="master random seed")
    parser.add_argument("--out", default="out",
                        help="run artifact directory")


def _config(args: argparse.Namespace, train: bool = False
            ) -> SimulationConfig:
    return SimulationConfig(
        domain=args.domain,
        items=args.items,
        ratings=args.ratings,
        interaction_model=args.interaction_model,
        sample=args.sample,
        population=args.population,
        agent=args.agent,
        max_turns=args.max_turns,
        seed=args.seed,
        out=args.out,
        train=train,
        default_templates=args.default_templates,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    models = run_training(_config(args))
    print(f"trained models written to {models}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    out, dialogues = simulate(_config(args, train=args.train))
    aborted = sum(1 for d in dialogues if d.metadata.get("aborted"))
    print(f"simulated {len(dialogues)} dialogues "
          f"({aborted} aborted) into {out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    transcripts = args.transcripts or str(Path(args.out) / TRANSCRIPTS_FILE)
    report = run_evaluation(transcripts, args.out)
    print(f"n_dialogues: {report.n_dialogues}")
    print(f"avg_turns: {report.avg_turns:.4f}")
    print(f"avg_success: {report.avg_success:.4f}")
    print(f"report written to {Path(args.out) / REPORT_FILE}")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    artifacts = load_artifacts(args.out)
    if artifacts.satisfaction_model is None:
        raise CrssimError("no satisfaction model was trained; the sample "
                          "had no satisfaction labels")
    dialogues = import_dialogues(args.sample)
    annotated = []
    for dialogue in dialogues:
        utterances = []
        for u in dialogue.utterances:
            base = u.utterance if isinstance(u, AnnotatedUtterance) else u
            if base.participant is Participant.USER:
                if isinstance(u, AnnotatedUtterance):
                    intent, slots = u.intent, u.slot_values
                else:
                    intent, _ = classify_intent(artifacts.intent_model,
                                                base.text)
                    slots = tuple(extract_slots(artifacts.lexicon, base.text))
                satisfaction = (u.satisfaction
                                if isinstance(u, AnnotatedUtterance)
                                and u.satisfaction is not None
                                else predict_satisfaction(
                                    artifacts.satisfaction_model, base.text))
                utterances.append(AnnotatedUtterance(
                    utterance=base, intent=intent, slot_values=slots,
                    satisfaction=satisfaction))
            else:
                utterances.append(u)
        annotated.append(dataclasses.replace(dialogue,
                                             utterances=utterances))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "annotated-sample.json"
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
    _add_common_flags(train)
    train.set_defaults(handler=_cmd_train)

    simulate = subparsers.add_parser(
        "simulate", help="run one dialogue per generated user")
    _add_common_flags(simulate)
    simulate.add_argument("--train", action="store_true",
                          help="train models first")
    simulate.set_defaults(handler=_cmd_simulate)

    evaluate = subparsers.add_parser(
        "evaluate", help="compute AvgTurns/AvgSuccess over transcripts")
    _add_common_flags(evaluate)
    evaluate.add_argument("--transcripts", default=None,
                          help="transcript file "
                               "(default: <out>/transcripts.json)")
    evaluate.set_defaults(handler=_cmd_evaluate)

    annotate = subparsers.add_parser(
        "annotate", help="pre-label intents, slots, and satisfaction on "
                         "raw dialogues for human correction")
    _add_common_flags(annotate)
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
