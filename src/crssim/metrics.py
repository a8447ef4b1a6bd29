"""Dialogue-set evaluation: average turns and average success."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .dialogue import AnnotatedUtterance, Dialogue, Intent, Participant
from .errors import NoDialogues
from .interaction import ACCEPT_INTENT


@dataclass(frozen=True)
class DialogueStats:
    """Per-dialogue evaluation row."""

    dialogue_id: str
    turns: int
    success: bool
    terminated_by: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "dialogue_id": self.dialogue_id,
            "turns": self.turns,
            "success": self.success,
            "terminated_by": self.terminated_by,
        }


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate metrics over a dialogue set.

    ``avg_turns`` and ``avg_success`` are the arithmetic means of the
    per-dialogue ``turns`` and ``success`` columns.
    """

    n_dialogues: int
    avg_turns: float
    avg_success: float
    rows: tuple[DialogueStats, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_dialogues": self.n_dialogues,
            "avg_turns": self.avg_turns,
            "avg_success": self.avg_success,
            "dialogues": [row.to_dict() for row in self.rows],
        }


def dialogue_success(dialogue: Dialogue,
                     accept_intent: Intent = ACCEPT_INTENT) -> bool:
    """True iff the user expressed the accept intent before the end."""
    return any(
        isinstance(u, AnnotatedUtterance)
        and u.participant is Participant.USER
        and u.intent == accept_intent
        for u in dialogue.utterances
    )


def evaluate(dialogues: Iterable[Dialogue],
             accept_intent: Intent = ACCEPT_INTENT) -> MetricsReport:
    """Compute AvgTurns and AvgSuccess over a non-empty dialogue set.

    A turn is one USER utterance; a dialogue succeeds when it contains a
    USER utterance annotated with the accept intent.
    """
    rows = []
    for d in dialogues:
        rows.append(DialogueStats(
            dialogue_id=d.dialogue_id,
            turns=d.turns,
            success=dialogue_success(d, accept_intent),
            terminated_by=str(d.metadata.get("terminated_by", "unknown")),
        ))
    if not rows:
        raise NoDialogues("cannot evaluate an empty dialogue set")
    return MetricsReport(
        n_dialogues=len(rows),
        avg_turns=sum(r.turns for r in rows) / len(rows),
        avg_success=sum(1 for r in rows if r.success) / len(rows),
        rows=tuple(rows),
    )
