"""Interaction model: intent spaces, expected responses, intent transitions.

The interaction model declares which intents the user and agent may express,
which agent intents count as the expected follow-up to each user intent, and
how user intents chain over a conversation (a first-order transition model
learned from annotated dialogues, carried on the interaction model itself).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Any, Iterable, Mapping

from .dialogue import Dialogue, Intent, Participant
from .domain import _known, _read_text, _text, _yaml_mapping
from .errors import EmptySample, NoTerminalIntent, ParseError, UnknownIntent

#: Synthetic boundary markers for transition rows; never uttered.
START = Intent("START")
END = Intent("END")

#: The intent roles of a model that does not name its own.
ACCEPT_INTENT = Intent("ACCEPT")
REJECT_INTENT = Intent("REJECT")
RECOMMEND_INTENT = Intent("RECOMMEND")


@dataclass
class TransitionModel:
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

    def to_dict(self) -> dict[str, Any]:
        return {
            str(current): {str(nxt): row[nxt] for nxt in sorted(row)}
            for current, row in sorted(self.probabilities.items())
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, float]]
                  ) -> "TransitionModel":
        return cls(probabilities={
            Intent(current): {Intent(nxt): float(p) for nxt, p in row.items()}
            for current, row in data.items()
        })


@dataclass(frozen=True)
class InteractionModel:
    """Declarative description of one agent's conversational contract."""

    name: str
    user_intents: tuple[Intent, ...]
    agent_intents: tuple[Intent, ...]
    required_slots: Mapping[Intent, tuple[str, ...]]
    expected_responses: Mapping[Intent, frozenset[Intent]]
    terminal_intent: Intent
    accept_intent: Intent
    reject_intent: Intent
    recommendation_intents: frozenset[Intent]
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
            if abs(sum(row.values()) - 1.0) > 1e-9:
                raise ValueError(f"transition row for {current} does not "
                                 "sum to 1")
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

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "user_intents": [str(i) for i in self.user_intents],
            "agent_intents": [str(i) for i in self.agent_intents],
            "required_slots": {
                str(intent): list(self.required_slots[intent])
                for intent in sorted(self.required_slots)
            },
            "expected_responses": {
                str(intent): sorted(str(r) for r in responses)
                for intent, responses in sorted(
                    self.expected_responses.items())
            },
            "terminal_intent": str(self.terminal_intent),
            "accept_intent": str(self.accept_intent),
            "reject_intent": str(self.reject_intent),
            "recommendation_intents": sorted(
                str(i) for i in self.recommendation_intents),
        }
        if self.transitions is not None:
            data["transitions"] = self.transitions.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InteractionModel":
        """Build a model from its :meth:`to_dict` layout.

        Every label, mapping keys included, must be text; a missing role
        takes its default. A label that is not text or a section of the
        wrong shape raises :class:`ParseError`.
        """
        transitions = data.get("transitions")
        return cls(
            name=_text(data["name"], "'name'"),
            user_intents=tuple(map(Intent, _labels(data["user_intents"],
                                                   "'user_intents'"))),
            agent_intents=tuple(map(Intent, _labels(data["agent_intents"],
                                                    "'agent_intents'"))),
            required_slots={
                Intent(_text(i, "a key of 'required_slots'")):
                    tuple(_labels(slots, f"required_slots of {i}"))
                for i, slots in _section(data, "required_slots").items()
            },
            expected_responses={
                Intent(_text(i, "a key of 'expected_responses'")):
                    frozenset(map(Intent, _labels(
                        responses, f"expected responses to {i}")))
                for i, responses in _section(data,
                                             "expected_responses").items()
            },
            terminal_intent=Intent(_text(data["terminal_intent"],
                                         "'terminal_intent'")),
            accept_intent=Intent(_text(data.get("accept_intent",
                                                ACCEPT_INTENT.label),
                                       "'accept_intent'")),
            reject_intent=Intent(_text(data.get("reject_intent",
                                                REJECT_INTENT.label),
                                       "'reject_intent'")),
            recommendation_intents=frozenset(map(Intent, _labels(
                data.get("recommendation_intents", [RECOMMEND_INTENT.label]),
                "'recommendation_intents'"))),
            transitions=(TransitionModel.from_dict(transitions)
                         if transitions is not None else None),
        )


def _labels(value: Any, what: str) -> list[str]:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list")
    return [_text(label, f"an entry of {what}") for label in value]


def _section(data: Mapping[str, Any], key: str) -> Mapping[Any, Any]:
    value = data.get(key, {})
    if not isinstance(value, Mapping):
        raise ParseError(f"{key!r} must be a mapping")
    return value


def parse_interaction_model(text: str) -> InteractionModel:
    """Parse the YAML interaction-model document.

    Required: ``name``, ``user_intents`` (a list of labels, or a mapping of
    label to nothing or to a mapping with an optional ``required_slots``
    list), ``agent_intents`` and ``terminal_intent``. A valueless expected
    response (``DONE:``) means none. Every other key, each role default
    and each shape check is as in :meth:`InteractionModel.from_dict`.
    """
    doc = _yaml_mapping(text, "interaction config")
    if "terminal_intent" not in doc:
        raise NoTerminalIntent("interaction config is missing 'terminal_intent'")
    for key in ("name", "user_intents", "agent_intents"):
        if key not in doc:
            raise ParseError(f"interaction config is missing {key!r}")
    roles = ("name", "agent_intents", "terminal_intent", "accept_intent",
             "reject_intent", "recommendation_intents")
    _known(doc, {*roles, "user_intents", "expected_responses"},
           "interaction config")
    users = doc["user_intents"]
    if isinstance(users, list):
        specs = {}
    elif isinstance(users, Mapping):
        specs = users
        for label, spec in specs.items():
            if spec is not None and not isinstance(spec, Mapping):
                raise ParseError(f"user intent {label} must be a mapping "
                                 "or empty")
            _known(spec or {}, {"required_slots"}, f"user intent {label}")
    else:
        raise ParseError("'user_intents' must be a mapping or a list")
    responses = doc.get("expected_responses") or {}
    data: dict[str, Any] = {key: doc[key] for key in roles if key in doc}
    data["user_intents"] = list(users)
    data["required_slots"] = {label: spec["required_slots"]
                              for label, spec in specs.items()
                              if spec and spec.get("required_slots")}
    data["expected_responses"] = (
        {label: agents or [] for label, agents in responses.items()}
        if isinstance(responses, Mapping) else responses)
    return InteractionModel.from_dict(data)


def load_interaction_model(source: str | Path | IO[str]) -> InteractionModel:
    return parse_interaction_model(_read_text(source))


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
