"""Core dialogue types (participants, intents, slot values, utterances,
dialogues), the one schema of a record: each checks its fields when built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


def _require(record: Any, **kinds: type) -> None:
    """Raise TypeError for the first field of ``record`` not of its kind
    (a bool is no int); hot callers test inline first, as that is cheaper."""
    for name, kind in kinds.items():
        value = getattr(record, name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise TypeError(f"{type(record).__name__}.{name} must be "
                            f"{kind.__name__}, not {type(value).__name__}")


class Participant(str, Enum):
    """Which side of the conversation an utterance belongs to."""

    USER = "USER"
    AGENT = "AGENT"


@dataclass(frozen=True, order=True)
class Intent:
    """A discrete dialogue-act label. Compared by exact string match."""

    label: str

    def __post_init__(self) -> None:
        _require(self, label=str)
        if not self.label or any(c.isspace() for c in self.label):
            raise ValueError(f"intent label must be a non-empty token, got {self.label!r}")

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class SlotValue:
    """A typed entity annotation, e.g. genre=action.

    Slot membership in a domain is enforced at the parsing and training
    boundaries where a :class:`~crssim.domain.Domain` is in scope.
    """

    slot: str
    value: str

    def __post_init__(self) -> None:
        _require(self, slot=str, value=str)


@dataclass(frozen=True)
class Utterance:
    """One utterance of a dialogue and its optional labels: an intent, the
    slot values it mentions, and, on a USER turn only, a satisfaction int
    in [1, 5]. Slot values and satisfaction need an intent."""

    participant: Participant
    text: str
    turn_index: int
    intent: Intent | None = None
    slot_values: tuple[SlotValue, ...] = ()
    satisfaction: int | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.participant, Participant)
                and isinstance(self.text, str)
                and type(self.turn_index) is int):
            _require(self, participant=Participant, text=str, turn_index=int)
        if self.turn_index < 0:
            raise ValueError("turn_index must be non-negative")
        # allow lists at construction for convenience
        if not isinstance(self.slot_values, tuple):
            object.__setattr__(self, "slot_values", tuple(self.slot_values))
        if self.intent is None:
            if self.slot_values or self.satisfaction is not None:
                raise ValueError("slot values and satisfaction need an intent")
            return
        if not isinstance(self.intent, Intent):
            _require(self, intent=Intent)
        if self.satisfaction is not None:
            if (not isinstance(self.satisfaction, int)
                    or isinstance(self.satisfaction, bool)
                    or not 1 <= self.satisfaction <= 5):
                raise ValueError("satisfaction must be an int in [1, 5], "
                                 f"got {self.satisfaction!r:.40}")
            if self.participant is not Participant.USER:
                raise ValueError("satisfaction labels belong on USER utterances only")


@dataclass
class Dialogue:
    """An ordered two-party conversation plus run metadata.

    Invariants enforced at construction: ``str`` ids (a non-empty first),
    ``dict`` metadata, strictly increasing turn indices, strict speaker
    alternation after the opening utterance, and an outcome flag (when
    present) of SUCCESS or FAILURE.
    """

    dialogue_id: str
    agent_id: str
    user_id: str
    utterances: list[Utterance] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (isinstance(self.dialogue_id, str)
                and isinstance(self.agent_id, str)
                and isinstance(self.user_id, str)
                and isinstance(self.metadata, dict)):
            _require(self, dialogue_id=str, agent_id=str, user_id=str,
                     metadata=dict)
        if not self.dialogue_id:
            raise ValueError("dialogue_id must be non-empty")
        previous: Utterance | None = None
        for u in self.utterances:
            if previous is not None:
                if u.turn_index <= previous.turn_index:
                    raise ValueError("turn_index must strictly increase")
                if u.participant is previous.participant:
                    raise ValueError("participants must alternate")
            previous = u
        outcome = self.metadata.get("outcome")
        if outcome is not None and outcome not in ("SUCCESS", "FAILURE"):
            raise ValueError(f"outcome must be SUCCESS or FAILURE, got {outcome!r}")

    def user_utterances(self) -> list[Utterance]:
        return [u for u in self.utterances if u.participant is Participant.USER]

    @property
    def turns(self) -> int:
        """Number of USER utterances (the toolkit-wide turn definition)."""
        return len(self.user_utterances())
