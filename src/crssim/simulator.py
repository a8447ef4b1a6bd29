"""The simulated user: one conversational participant per session.

Each turn runs the full pipeline: understand the agent's utterance
(intent + slots), decide the next action via the agenda, update
satisfaction, consult the preference graph for any slot values the chosen
intent requires, and phrase the result through the template store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .agenda import Agenda, initialize_agenda, next_user_action
from .connector import DialogueParticipant, Response
from .dialogue import Intent, SlotValue, Utterance
from .domain import ItemCollection
from .interaction import InteractionModel
from .nlg import Polarity, TemplateStore, instantiate, select_template
from .nlu import (ExtractionLexicon, IntentModel, classify_intent,
                  extract_slots)
from .errors import MissingSlotValue
from .population import UserProfile, update_satisfaction
from .preferences import PreferenceGraph


@dataclass
class SimulatedUser(DialogueParticipant):
    """A trained user simulator driving one dialogue session; it draws from
    ``preferences.rng`` alone, and no cold start goes into ``profile``."""

    profile: UserProfile
    preferences: PreferenceGraph
    interaction_model: InteractionModel
    intent_model: IntentModel
    lexicon: ExtractionLexicon
    templates: TemplateStore
    items: ItemCollection
    agenda: Agenda = field(init=False)

    def __post_init__(self) -> None:
        self.context = self.profile.context
        self.agenda = initialize_agenda(self.interaction_model,
                                        self.preferences.rng)

    def _recommendation_weight(self, agent_intent: Intent,
                               agent_slots: list[SlotValue]) -> float | None:
        """Preference for the item the agent just recommended, if any."""
        if agent_intent not in self.interaction_model.recommendation_intents:
            return None
        for sv in agent_slots:
            item = self.items.by_name(sv.value)
            if item is not None:
                return self.preferences.get_item_preference(item.item_id)
        return None

    def _fill_slots(self, intent: Intent) -> tuple[dict[str, str],
                                                   list[float]]:
        """Choose a value for each slot the intent requires.

        Prefers the known attribute value with the strongest preference
        (maximum absolute weight); with no graph knowledge for the slot, a
        value is drawn from the item collection and its cold-start
        preference weight is used.
        """
        values: dict[str, str] = {}
        weights: list[float] = []
        for slot in self.interaction_model.slots_for(intent):
            known = self.preferences.known_attribute_values(slot)
            if known:
                value, weight = min(known,
                                    key=lambda vw: (-abs(vw[1]), vw[0]))
            else:
                pool = self.items.values_for_slot(slot)
                if not pool:
                    continue
                value = self.preferences.rng.choice(pool)
                weight = self.preferences.get_attribute_preference(slot, value)
            values[slot] = value
            weights.append(weight)
        return values, weights

    def _polarity(self, intent: Intent, weights: list[float],
                  recommendation_weight: float | None) -> Polarity:
        if intent == self.interaction_model.accept_intent:
            return Polarity.POSITIVE
        if intent == self.interaction_model.reject_intent:
            return Polarity.NEGATIVE
        if weights:
            return (Polarity.NEGATIVE if any(w < 0 for w in weights)
                    else Polarity.POSITIVE)
        if recommendation_weight is not None:
            return (Polarity.POSITIVE if recommendation_weight >= 0
                    else Polarity.NEGATIVE)
        return Polarity.NEUTRAL

    def respond(self, incoming: Utterance | None) -> Response:
        if incoming is None:
            raise ValueError("the simulated user never opens the dialogue; "
                             "the agent speaks first")
        agent_intent, _ = classify_intent(self.intent_model, incoming.text)
        agent_slots = extract_slots(self.lexicon, incoming.text)
        weight = self._recommendation_weight(agent_intent, agent_slots)
        intent, event = next_user_action(
            self.agenda, agent_intent, self.interaction_model,
            self.profile.persona, self.preferences.rng,
            recommendation_weight=weight)
        self.context = update_satisfaction(self.context, event)

        slot_values, weights = self._fill_slots(intent)
        polarity = self._polarity(intent, weights, weight)
        template = select_template(self.templates, intent,
                                   frozenset(slot_values), polarity,
                                   self.context, self.preferences.rng)
        try:
            text = instantiate(template, slot_values)
        except MissingSlotValue:
            template = self.templates.default_for(intent,
                                                  frozenset(slot_values))
            text = instantiate(template, slot_values)

        return Response(
            text=text,
            terminate=intent == self.interaction_model.terminal_intent,
            intent=intent,
            slot_values=[SlotValue(slot, value)
                         for slot, value in slot_values.items()],
            satisfaction=self.context.satisfaction,
        )
