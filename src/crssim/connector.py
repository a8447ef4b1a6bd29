"""Dialogue connector: orchestrates and stores a two-party conversation."""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from .dialogue import Dialogue, Intent, Participant, SlotValue, Utterance
from .errors import AgentError

logger = logging.getLogger(__name__)


@dataclass
class Response:
    """What a participant hands back for one turn.

    ``text`` may be None only together with ``terminate=True`` (silent
    termination); :func:`connect_dialogue` aborts the dialogue on an
    agent's reply with neither, and raises ``ValueError`` on a user's. The
    labels are optional; the stored utterance carries them when ``intent``
    is set, and none of them otherwise.
    """

    text: str | None
    terminate: bool = False
    intent: Intent | None = None
    slot_values: list[SlotValue] = field(default_factory=list)
    satisfaction: int | None = None


class DialogueParticipant(ABC):
    """One side of a conversation.

    The interface is symmetric: humans, simulators, and wire-connected
    agents all receive the other party's last utterance and produce a
    :class:`Response`. The opening call passes ``None`` (nothing has been
    said yet).
    """

    @abstractmethod
    def respond(self, incoming: Utterance | None) -> Response:
        raise NotImplementedError


def _store(dialogue: Dialogue, participant: Participant, response: Response,
           turn_index: int) -> Utterance:
    labels = (() if response.intent is None else
              (response.intent, response.slot_values, response.satisfaction))
    stored = Utterance(participant, response.text or "", turn_index, *labels)
    dialogue.utterances.append(stored)
    return stored


def connect_dialogue(
    user: DialogueParticipant,
    agent: DialogueParticipant,
    max_turns: int,
    dialogue_id: str = "dialogue",
    agent_id: str = "agent",
    user_id: str = "user",
) -> Dialogue:
    """Run one conversation to completion and return the stored dialogue.

    The agent speaks first. The conversation ends when either participant
    signals termination or once ``max_turns`` USER utterances have been
    produced; the cause lands in ``metadata['terminated_by']``. A
    participant raising :class:`~crssim.errors.AgentError`, or an agent
    reply with neither text nor termination, aborts the dialogue, which is
    kept as-is with ``metadata['aborted'] = True``.
    """
    if max_turns < 1:
        raise ValueError("max_turns must be positive")
    dialogue = Dialogue(dialogue_id=dialogue_id, agent_id=agent_id,
                        user_id=user_id)
    turn_index = 0
    user_turns = 0
    last: Utterance | None = None
    try:
        while True:
            reply = agent.respond(last)
            if reply.text is not None:
                last = _store(dialogue, Participant.AGENT, reply, turn_index)
                turn_index += 1
            if reply.terminate:
                dialogue.metadata["terminated_by"] = "agent"
                return dialogue
            if reply.text is None:
                raise AgentError("agent reply had neither text nor termination")
            response = user.respond(last)
            if response.text is not None:
                last = _store(dialogue, Participant.USER, response, turn_index)
                turn_index += 1
                user_turns += 1
            if response.terminate:
                dialogue.metadata["terminated_by"] = "user"
                return dialogue
            if response.text is None:
                raise ValueError("participant produced neither text nor termination")
            if user_turns >= max_turns:
                dialogue.metadata["terminated_by"] = "max_turns"
                return dialogue
    except AgentError as exc:
        logger.warning("dialogue %s aborted: %s", dialogue_id, exc)
        dialogue.metadata["aborted"] = True
        dialogue.metadata["abort_cause"] = str(exc)
        dialogue.metadata["terminated_by"] = "aborted"
        return dialogue
