"""Interaction model: intent spaces, expected responses, intent transitions.

The interaction model declares which intents the user and agent may express,
which agent intents count as the expected follow-up to each user intent, and
how user intents chain over a conversation (a first-order transition model
learned from annotated dialogues, carried on the interaction model itself).
The model's fields are its document under ``models/``, which
:mod:`crssim.schema` writes and reads; the YAML config is read by the
same walker once its user intents are unfolded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable, Mapping

from .dialogue import Dialogue, Intent, Participant
from .domain import _load, _yaml_mapping
from .errors import EmptySample, NoTerminalIntent, UnknownIntent
from .schema import Document, known, read

#: Synthetic boundary markers for transition rows; never uttered.
START = Intent("START")
END = Intent("END")

#: The intent roles of a model that does not name its own.
ACCEPT_INTENT = Intent("ACCEPT")
REJECT_INTENT = Intent("REJECT")
RECOMMEND_INTENT = Intent("RECOMMEND")


@dataclass
class TransitionModel(Document):
    """First-order user-intent transition probabilities.

    Rows are conditioning intents (including :data:`START`), columns range
    over user intents plus :data:`END`. Rows never observed in training
    fall through to ``{END: 1.0}``, so the end of the conversation stays
    reachable from everywhere.
    """

    probabilities: dict[Intent, dict[Intent, float]] = field(
        default_factory=dict)
    # row -> (intents in sorted order, their weights), filled on first
    # draw; a row is not edited once drawn from
    _draws: dict[Intent, tuple[list[Intent], list[float]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def row(self, current: Intent) -> dict[Intent, float]:
        return self.probabilities.get(current, {END: 1.0})

    def sample_next(self, current: Intent, rng: random.Random) -> Intent:
        """Draw the next intent given the current one."""
        draw = self._draws.get(current)
        if draw is None:
            row = self.row(current)
            intents = sorted(row)
            draw = self._draws[current] = (intents,
                                           [row[i] for i in intents])
        intents, weights = draw
        return rng.choices(intents, weights=weights, k=1)[0]


@dataclass(frozen=True)
class InteractionModel(Document):
    """Declarative description of one agent's conversational contract;
    the roles it does not name are ACCEPT, REJECT and RECOMMEND."""

    name: str
    user_intents: tuple[Intent, ...]
    agent_intents: tuple[Intent, ...]
    required_slots: Mapping[Intent, tuple[str, ...]] = field(
        default_factory=dict, kw_only=True)
    expected_responses: Mapping[Intent, frozenset[Intent]] = field(
        default_factory=dict, kw_only=True)
    terminal_intent: Intent
    accept_intent: Intent = ACCEPT_INTENT
    reject_intent: Intent = REJECT_INTENT
    recommendation_intents: frozenset[Intent] = frozenset({RECOMMEND_INTENT})
    transitions: TransitionModel | None = None

    def __post_init__(self) -> None:
        users = set(self.user_intents)
        agents = set(self.agent_intents)
        if not users:
            raise UnknownIntent("interaction model declares no user intents")
        if not agents:
            raise UnknownIntent("interaction model declares no agent intents")
        for intent in self.required_slots:
            if intent not in users:
                raise UnknownIntent(f"required_slots references undeclared "
                                    f"user intent {intent}")
        for intent, responses in self.expected_responses.items():
            if intent not in users:
                raise UnknownIntent(f"expected_responses references "
                                    f"undeclared user intent {intent}")
            for response in responses:
                if response not in agents:
                    raise UnknownIntent(f"expected response {response} to "
                                        f"{intent} is not an agent intent")
        if self.terminal_intent not in users:
            raise NoTerminalIntent(f"terminal intent {self.terminal_intent} "
                                   "is not a declared user intent")
        for role, intent in (("accept", self.accept_intent),
                             ("reject", self.reject_intent)):
            if intent not in users:
                raise UnknownIntent(f"{role} intent {intent} is not a "
                                    "declared user intent")
        for intent in self.recommendation_intents:
            if intent not in agents:
                raise UnknownIntent(f"recommendation intent {intent} is not "
                                    "a declared agent intent")
        if self.transitions is not None:
            self._check_transitions(self.transitions, users)

    @staticmethod
    def _check_transitions(transitions: TransitionModel,
                           users: set[Intent]) -> None:
        columns = users | {END}
        for current, row in transitions.probabilities.items():
            if current != START and current not in users:
                raise UnknownIntent(f"transition row for non-user intent "
                                    f"{current}")
            if (not all(0.0 <= p <= 1.0 for p in row.values())
                    or abs(sum(row.values()) - 1.0) > 1e-9):
                raise ValueError(f"transition row for {current} does not "
                                 "sum to 1 over probabilities in [0, 1]")
            if current != START and row.get(END, 0.0) <= 0.0:
                raise ValueError(f"transition row for {current} assigns END "
                                 "zero mass")
            for nxt in row:
                if nxt not in columns:
                    raise UnknownIntent(f"transition from {current} to "
                                        f"undeclared intent {nxt}")

    def slots_for(self, intent: Intent) -> tuple[str, ...]:
        return self.required_slots.get(intent, ())

    def is_expected_response(self, user_intent: Intent,
                             agent_intent: Intent) -> bool:
        """Is ``agent_intent`` an anticipated reply to ``user_intent``?"""
        return agent_intent in self.expected_responses.get(user_intent,
                                                           frozenset())


def parse_interaction_model(text: str) -> InteractionModel:
    """Parse the YAML interaction-model document.

    It holds the fields of :class:`InteractionModel` but ``transitions``,
    and states ``required_slots`` under the user intents: ``user_intents``
    is a list of labels, or a mapping of label to nothing or to a mapping
    with an optional ``required_slots`` list. A valueless or empty
    ``required_slots``, a valueless ``expected_responses`` and a
    valueless expected response (``DONE:``) mean none; any other value
    goes to the walker, which refuses what is not a list or mapping.
    """
    what = "interaction config"
    doc = dict(_yaml_mapping(text, what))
    known(doc, {"name", "user_intents", "agent_intents", "terminal_intent",
                "accept_intent", "reject_intent", "recommendation_intents",
                "expected_responses"}, what)
    users = doc.get("user_intents")
    if isinstance(users, dict):
        for label, spec in users.items():
            if spec is not None:
                known(spec, {"required_slots"},
                      f"{what}.user_intents[{label!r}]")
        doc["user_intents"] = list(users)
        doc["required_slots"] = {
            label: spec["required_slots"] for label, spec in users.items()
            if spec and spec["required_slots"] not in (None, [])}
    if (responses := doc.pop("expected_responses", None)) is not None:
        doc["expected_responses"] = (
            {label: [] if agents is None else agents
             for label, agents in responses.items()}
            if isinstance(responses, dict) else responses)
    return read(InteractionModel, doc, what)


def load_interaction_model(source: str | Path | IO[str]) -> InteractionModel:
    return _load(source, parse_interaction_model)


def learn_transitions(sample: Iterable[Dialogue],
                      model: InteractionModel) -> InteractionModel:
    """Estimate intent transitions from annotated dialogues.

    Counts consecutive user-intent pairs (with START/END boundary markers)
    and applies add-one smoothing over each row's observed support plus END,
    so every observed row keeps a nonzero path to conversation end. Returns
    a copy of ``model`` carrying the learned transitions.
    """
    declared = set(model.user_intents)
    counts: dict[Intent, dict[Intent, int]] = {}
    for dialogue in sample:
        seq = [u.intent for u in dialogue.utterances
               if u.intent is not None and u.participant is Participant.USER]
        if not seq:
            continue
        for intent in seq:
            if intent not in declared:
                raise UnknownIntent(f"annotated user intent {intent} is not "
                                    "declared by the interaction model")
        chain = [START, *seq, END]
        for current, nxt in zip(chain, chain[1:]):
            counts.setdefault(current, {}).setdefault(nxt, 0)
            counts[current][nxt] += 1
    if not counts:
        raise EmptySample("no annotated user intents to learn transitions from")

    probabilities: dict[Intent, dict[Intent, float]] = {}
    for current in sorted(counts):
        row_counts = counts[current]
        support = sorted(set(row_counts) | {END})
        total = sum(row_counts.values()) + len(support)
        probabilities[current] = {
            nxt: (row_counts.get(nxt, 0) + 1) / total for nxt in support
        }
    return replace(model, transitions=TransitionModel(probabilities))
