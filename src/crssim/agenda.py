"""Agenda stack: the simulated user's plan of pending intents."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .dialogue import Intent
from .interaction import END, START, InteractionModel
from .population import Persona, SatisfactionEvent


@dataclass
class Agenda:
    """Ordered plan of pending user intents.

    ``stack[0]`` is the top — the next action to execute. ``last_action``
    remembers what the user did on their previous turn;
    ``consecutive_unexpected`` counts how many agent turns in a row failed
    to match the interaction model's expectations (the patience meter).
    """

    stack: list[Intent] = field(default_factory=list)
    last_action: Intent | None = None
    consecutive_unexpected: int = 0

    def __len__(self) -> int:
        return len(self.stack)

    def __bool__(self) -> bool:
        return bool(self.stack)

    def push(self, intent: Intent) -> None:
        self.stack.insert(0, intent)

    def pop(self) -> Intent:
        return self.stack.pop(0)


def initialize_agenda(model: InteractionModel, rng: random.Random,
                      cap: int = 20) -> Agenda:
    """Plan a conversation by walking the learned intent transitions.

    Walks from START, drawing successors until END comes up or ``cap - 1``
    intents have been emitted; the terminal intent is appended if the walk
    did not already finish on it. The first-drawn intent ends up on top.
    """
    if cap < 1:
        raise ValueError("agenda cap must be positive")
    if model.transitions is None:
        raise ValueError("interaction model has no learned transitions; "
                         "run learn_transitions first")
    plan: list[Intent] = []
    current = START
    while len(plan) < cap - 1:
        nxt = model.transitions.sample_next(current, rng)
        if nxt == END:
            break
        plan.append(nxt)
        current = nxt
    if not plan or plan[-1] != model.terminal_intent:
        plan.append(model.terminal_intent)
    return Agenda(stack=plan)


def next_user_action(
    agenda: Agenda,
    agent_intent: Intent,
    model: InteractionModel,
    persona: Persona,
    rng: random.Random,
    recommendation_weight: float | None = None,
) -> tuple[Intent, SatisfactionEvent]:
    """Decide the user's next intent given the agent's last move.

    If the agent responded in an expected manner (or spoke first), the next
    planned intent is pulled off the stack — except that an anticipated
    recommendation is answered immediately with accept or reject according
    to the sign of ``recommendation_weight``, pre-empting the plan.
    Otherwise the user either repeats their previous action (with
    probability ``persona.cooperativeness``), switches to an intent drawn
    from the transition row of their last action, or — once patience runs
    out — quits with the terminal intent.

    Mutates ``agenda`` (stack, ``last_action``, ``consecutive_unexpected``)
    and returns the chosen intent together with the satisfaction event the
    agent's move produced.
    """
    expected = agenda.last_action is None or model.is_expected_response(
        agenda.last_action, agent_intent)
    if expected:
        agenda.consecutive_unexpected = 0
        event = SatisfactionEvent.EXPECTED_RESPONSE
        if (agent_intent in model.recommendation_intents
                and recommendation_weight is not None):
            verdict = (model.accept_intent if recommendation_weight >= 0
                       else model.reject_intent)
            agenda.push(verdict)
            event = (SatisfactionEvent.GOOD_RECOMMENDATION
                     if recommendation_weight >= 0
                     else SatisfactionEvent.BAD_RECOMMENDATION)
        intent = agenda.pop() if agenda else model.terminal_intent
        agenda.last_action = intent
        return intent, event

    agenda.consecutive_unexpected += 1
    event = SatisfactionEvent.UNEXPECTED_RESPONSE
    if agenda.consecutive_unexpected >= persona.patience:
        intent = model.terminal_intent
    elif rng.random() < persona.cooperativeness:
        intent = agenda.last_action
    else:
        assert model.transitions is not None
        row = {i: p for i, p in model.transitions.row(agenda.last_action).items()
               if i != END}
        if not row:
            intent = agenda.last_action
        else:
            intents = sorted(row)
            intent = rng.choices(intents, weights=[row[i] for i in intents],
                                 k=1)[0]
    agenda.last_action = intent
    return intent, event
