"""crssim: train a simulated user from a small annotated dialogue sample,
run it against a black-box conversational recommender, and evaluate the
resulting dialogues."""

from .agenda import Agenda, initialize_agenda, next_user_action
from .connector import DialogueParticipant, Response, connect_dialogue
from .dialogue import Dialogue, Intent, Participant, SlotValue, Utterance
from .domain import (Domain, Item, ItemCollection, Rating, RatingScale,
                     load_domain, load_item_collection, load_ratings,
                     parse_domain_config)
from .errors import (AgentError, CrssimError, DuplicateItem, DuplicateSlot,
                     EmptySample, EmptySlotList, InsufficientRatingsUsers,
                     MissingSlotValue, NoDialogues, NoTerminalIntent,
                     ParseError, ProtocolError, RatingOutOfScale,
                     SchemaVersionMismatch, TransportError, UnknownIntent,
                     UnknownSlot)
from .interaction import (END, InteractionModel, START, TransitionModel,
                          learn_transitions, load_interaction_model,
                          parse_interaction_model)
from .metrics import DialogueStats, MetricsReport, dialogue_success, evaluate
from .mock_agent import MockCRSAgent
from .nlg import (Polarity, SatisfactionBucket, Template, TemplateStore,
                  bucket_of, detect_polarity, extract_templates, instantiate,
                  select_template)
from .nlu import (ExtractionLexicon, IntentModel, SatisfactionModel,
                  UNKNOWN_INTENT, classify_intent, extract_slots,
                  predict_satisfaction, tokenize, train_intent_classifier,
                  train_satisfaction_classifier, train_slot_extractor)
from .population import (ContextState, DayType, Persona, PopulationConfig,
                         SatisfactionEvent, Setting, TimeOfDay, UserProfile,
                         generate_population, load_population_config,
                         parse_population_config, update_satisfaction)
from .preferences import PreferenceGraph, build_preference_graph
from .runner import (Simulation, SimulationConfig, TrainedArtifacts,
                     load_artifacts, run_evaluation, run_simulation,
                     run_training, save_artifacts, train_simulator)
from .simulator import SimulatedUser
from .transcript import export_dialogues, import_dialogues

__version__ = "0.1.0"

# names of crssim.wire, which loads the socket modules: imported on first use
_WIRE_NAMES = frozenset({"AgentEndpoint", "MockAgentServer", "WireAgent",
                         "serve_mock", "wire_exchange"})


def __getattr__(name: str) -> object:
    if name in _WIRE_NAMES:
        from . import wire
        return getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Agenda", "AgentEndpoint", "AgentError", "ContextState", "CrssimError",
    "DayType", "Dialogue", "DialogueParticipant", "DialogueStats", "Domain",
    "DuplicateItem", "DuplicateSlot", "EmptySample", "EmptySlotList", "END",
    "ExtractionLexicon", "InsufficientRatingsUsers", "Intent",
    "IntentModel", "InteractionModel", "Item", "ItemCollection",
    "MetricsReport", "MissingSlotValue", "MockAgentServer", "MockCRSAgent",
    "NoDialogues", "NoTerminalIntent", "ParseError", "Participant",
    "Persona", "Polarity", "PopulationConfig", "PreferenceGraph",
    "ProtocolError", "Rating", "RatingOutOfScale", "RatingScale",
    "Response", "SatisfactionBucket", "SatisfactionEvent",
    "SatisfactionModel", "SchemaVersionMismatch", "Setting", "Simulation",
    "SimulatedUser", "SimulationConfig", "SlotValue", "START", "Template",
    "TemplateStore", "TimeOfDay", "TrainedArtifacts", "TransitionModel",
    "TransportError", "UNKNOWN_INTENT", "UnknownIntent", "UnknownSlot",
    "UserProfile", "Utterance", "WireAgent", "bucket_of",
    "classify_intent", "connect_dialogue", "detect_polarity",
    "dialogue_success", "evaluate", "export_dialogues", "extract_slots",
    "extract_templates", "generate_population", "import_dialogues",
    "initialize_agenda", "instantiate", "learn_transitions",
    "load_artifacts", "load_domain", "load_interaction_model",
    "load_item_collection", "load_population_config", "load_ratings",
    "next_user_action", "parse_domain_config", "parse_interaction_model",
    "parse_population_config", "predict_satisfaction",
    "build_preference_graph", "run_evaluation", "run_simulation",
    "run_training", "save_artifacts", "select_template", "serve_mock",
    "tokenize", "train_intent_classifier", "train_satisfaction_classifier",
    "train_simulator", "train_slot_extractor", "update_satisfaction",
    "wire_exchange",
]
