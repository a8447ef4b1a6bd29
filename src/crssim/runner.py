"""Training and simulation orchestration plus artifact persistence.

A run directory looks like::

    out/
      models/             trained model documents, one JSON line each
      transcripts.jsonl   every simulated dialogue, one JSON line each
      config-snapshot     the exact configuration of the run, one JSON line
      report.json         evaluation metrics, one JSON line (``evaluate``)

Every document is written by :func:`~crssim.transcript.write_document`,
or, for ``report.json``, in its bytes a batch of rows at a time.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping,
                    Sequence)

from . import bundled
from .connector import DialogueParticipant, connect_dialogue
from .dialogue import Dialogue, Intent, Participant
from .domain import (Domain, ItemCollection, Rating, RatingScale,
                     _load, load_domain, load_item_collection,
                     load_ratings)
from .errors import ParseError, _opened
from .interaction import (ACCEPT_INTENT, InteractionModel,
                          learn_transitions, load_interaction_model)
from .metrics import MetricsReport, evaluate
from .mock_agent import MockCRSAgent
from .nlg import TemplateStore, extract_templates, load_default_patterns
from .nlu import (ExtractionLexicon, IntentModel, SatisfactionModel,
                  UNKNOWN_INTENT, train_intent_classifier,
                  train_satisfaction_classifier, train_slot_extractor)
from .population import (PopulationConfig, UserProfile,
                         generate_population, load_population_config)
from .preferences import build_preference_graph
from .simulator import SimulatedUser
from .transcript import (SCHEMA_VERSION, _document, _encode,
                         export_dialogues, import_dialogues, read_dialogues,
                         write_document)

if TYPE_CHECKING:  # a run against the in-process mock loads no transport
    from .wire import AgentEndpoint

DEFAULT_SCALE = RatingScale(1.0, 5.0)

MODELS_DIR = "models"
TRANSCRIPTS_FILE = "transcripts.jsonl"
SNAPSHOT_FILE = "config-snapshot"
REPORT_FILE = "report.json"
# report.json rows encoded per call: the C encoder keeps every token of a
# call until its final join
_REPORT_BATCH = 256


@dataclass
class TrainedArtifacts:
    """Everything the simulator learns from the annotated sample."""

    interaction_model: InteractionModel
    intent_model: IntentModel
    lexicon: ExtractionLexicon
    templates: TemplateStore
    satisfaction_model: SatisfactionModel | None = None


def train_simulator(
    sample: Sequence[Dialogue],
    interaction_model: InteractionModel,
    domain: Domain,
    items: ItemCollection,
    default_patterns: Mapping[str, str] | None = None,
) -> TrainedArtifacts:
    """Fit every trainable component from the annotated dialogue sample.

    The intent classifier is trained on *agent* utterances (the simulator
    must understand the other side), the satisfaction classifier on user
    utterances carrying satisfaction labels, the slot lexicon on all
    annotations plus the item collection, the transition model on user
    intent sequences, and the template store on user utterances.
    """
    agent_samples = [
        (u.text, u.intent)
        for d in sample for u in d.utterances
        if u.intent is not None and u.participant is Participant.AGENT
    ]
    intent_model = train_intent_classifier(agent_samples,
                                           fallback_intent=UNKNOWN_INTENT)
    lexicon = train_slot_extractor(sample, items, domain)
    satisfaction_samples = [
        (u.text, u.satisfaction)
        for d in sample for u in d.utterances
        if u.participant is Participant.USER and u.satisfaction is not None
    ]
    satisfaction_model = (train_satisfaction_classifier(satisfaction_samples)
                          if satisfaction_samples else None)
    model = learn_transitions(sample, interaction_model)
    templates = extract_templates(sample, default_patterns)
    return TrainedArtifacts(
        interaction_model=model,
        intent_model=intent_model,
        lexicon=lexicon,
        templates=templates,
        satisfaction_model=satisfaction_model,
    )


def _load_model(path: Path, from_dict: Callable[[dict[str, Any]], Any]) -> Any:
    """Read one model document; an error in it is led by the file's name."""
    if not path.is_file():
        raise ParseError(f"missing model artifact: {path}")
    return _load(path, lambda text: from_dict(_document(text)))


# each TrainedArtifacts field: its document under models/ and its class
_MODELS = {
    "interaction_model": ("interaction_model.json", InteractionModel),
    "intent_model": ("intent_model.json", IntentModel),
    "lexicon": ("slot_lexicon.json", ExtractionLexicon),
    "templates": ("template_store.json", TemplateStore),
    "satisfaction_model": ("satisfaction_model.json", SatisfactionModel),
}


def save_artifacts(artifacts: TrainedArtifacts, out_dir: str | Path) -> Path:
    """Persist trained models under ``out_dir/models/``."""
    models = Path(out_dir) / MODELS_DIR
    models.mkdir(parents=True, exist_ok=True)
    for field, (name, _) in _MODELS.items():
        if (model := getattr(artifacts, field)) is not None:
            write_document(models / name, model.to_dict())
    return models


def load_artifacts(out_dir: str | Path) -> TrainedArtifacts:
    """Load trained models persisted by :func:`save_artifacts`; only the
    satisfaction model may be missing, and the interaction model holds
    the transitions learned in training."""
    models = Path(out_dir) / MODELS_DIR
    artifacts = TrainedArtifacts(**{
        field: _load_model(models / name, kind.from_dict)
        for field, (name, kind) in _MODELS.items()
        if field != "satisfaction_model" or (models / name).is_file()})
    if artifacts.interaction_model.transitions is None:
        path = models / _MODELS["interaction_model"][0]
        raise ParseError(f"{path}: the trained interaction model holds no "
                         "transitions")
    return artifacts


def _bundled(name: str) -> str:
    return str(bundled.asset_path(name))


@dataclass
class SimulationConfig:
    """Everything one simulation run needs, by path or literal value.

    Each setting and its default are declared here alone; the paths
    default to the bundled movies case study."""

    domain: str = _bundled(bundled.DOMAIN)
    items: str = _bundled(bundled.ITEMS)
    ratings: str = _bundled(bundled.RATINGS)
    interaction_model: str = _bundled(bundled.INTERACTION_MODEL)
    sample: str = _bundled(bundled.SAMPLE)
    population: str = _bundled(bundled.POPULATION)
    agent: str = "mock"
    max_turns: int = 30
    seed: int | None = None
    out: str = "out"
    train: bool = False
    default_templates: str | None = _bundled(bundled.DEFAULT_TEMPLATES)

    def __post_init__(self) -> None:
        if self.max_turns < 2:
            raise ValueError("max_turns must be at least 2")


def _train(config: SimulationConfig, domain: Domain,
           items: ItemCollection) -> Path:
    """Load the training-only inputs, train, and persist the models."""
    interaction_model = load_interaction_model(config.interaction_model)
    sample = import_dialogues(config.sample)
    patterns = (load_default_patterns(config.default_templates)
                if config.default_templates else None)
    artifacts = train_simulator(sample, interaction_model, domain, items,
                                default_patterns=patterns)
    return save_artifacts(artifacts, config.out)


def run_training(config: SimulationConfig) -> Path:
    """Train all simulator components and persist them under the run dir."""
    domain = load_domain(config.domain)
    return _train(config, domain, load_item_collection(config.items, domain))


@dataclass(frozen=True)
class _Population:
    """The users of a population config, drawn anew by every iteration,
    each profile as the iteration reaches it."""

    config: PopulationConfig
    ratings: list[Rating]

    def __iter__(self) -> Iterator[UserProfile]:
        return generate_population(self.config, self.ratings)


@dataclass
class Simulation:
    """What all dialogues of a run share; no ``endpoint`` for the mock.

    Every :meth:`run` iterates ``population`` afresh. The population that
    :meth:`load` gives it keeps only its config and the ratings, and draws
    each profile as its dialogue starts. :mod:`crssim.wire` is imported
    only for an ``endpoint``.
    """

    config: SimulationConfig
    items: ItemCollection
    artifacts: TrainedArtifacts
    population: Iterable[UserProfile]
    endpoint: AgentEndpoint | None
    # a wire agent for a session id, bound to ``endpoint``
    _wire_agent: Callable[..., DialogueParticipant] | None = field(
        init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.endpoint is not None:
            from .wire import WireAgent
            self._wire_agent = functools.partial(WireAgent, self.endpoint)

    @classmethod
    def load(cls, config: SimulationConfig) -> Simulation:
        """Load the catalog once, training the models first if asked."""
        endpoint = None
        if config.agent != "mock":
            from .wire import AgentEndpoint
            endpoint = AgentEndpoint(config.agent)
        population_config = load_population_config(config.population)
        if config.seed is not None:
            population_config = replace(population_config, seed=config.seed)
        domain = load_domain(config.domain)
        items = load_item_collection(config.items, domain)
        ratings = (load_ratings(config.ratings, DEFAULT_SCALE)
                   if population_config.ground_in_ratings else [])
        if config.train:
            _train(config, domain, items)
        artifacts = load_artifacts(config.out)
        return cls(config, items, artifacts,
                   _Population(population_config, ratings), endpoint)

    def run_user(self, profile: UserProfile) -> Dialogue:
        """The dialogue of ``profile``, on a fresh graph of its draws, with
        the configured agent."""
        artifacts = self.artifacts
        user = SimulatedUser(
            profile=profile,
            preferences=build_preference_graph(
                profile.ratings, self.items, DEFAULT_SCALE,
                profile.graph_seed),
            interaction_model=artifacts.interaction_model,
            intent_model=artifacts.intent_model, lexicon=artifacts.lexicon,
            templates=artifacts.templates, items=self.items)
        agent = (MockCRSAgent(self.items) if self.endpoint is None
                 else self._wire_agent(session_id=profile.user_id))
        return connect_dialogue(
            user=user, agent=agent, max_turns=self.config.max_turns,
            dialogue_id=f"dlg-{profile.user_id}", agent_id=self.config.agent,
            user_id=profile.user_id)

    def run(self) -> tuple[int, int]:
        """Write the ``config-snapshot``, then run every user, writing each
        dialogue as it finishes; return how many dialogues ran and how many
        of them aborted. An agent failure aborts only its own dialogue; a
        population that cannot be drawn raises before anything is
        written."""
        profiles = iter(self.population)
        ran = aborted = 0

        def dialogues() -> Iterator[Dialogue]:
            nonlocal ran, aborted
            for profile in profiles:
                dialogue = self.run_user(profile)
                ran += 1
                aborted += bool(dialogue.metadata.get("aborted"))
                yield dialogue
                del dialogue  # written: the next user starts without it

        out = Path(self.config.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            write_document(out / SNAPSHOT_FILE, asdict(self.config))
            export_dialogues(dialogues(), out / TRANSCRIPTS_FILE)
        finally:
            if self.endpoint is not None:
                self.endpoint.close()
        return ran, aborted


def run_simulation(config: SimulationConfig) -> Path:
    """Run the :class:`Simulation` of ``config``; return its directory."""
    Simulation.load(config).run()
    return Path(config.out)


def run_evaluation(transcripts: str | Path, out_dir: str | Path | None = None,
                   ) -> MetricsReport:
    """Evaluate a transcript file; optionally persist ``report.json``.

    Success is scored against the accept intent of the run's
    ``models/interaction_model.json`` beside the transcripts, or against
    the default one where there is no such file.
    """
    model = Path(transcripts).parent / MODELS_DIR / "interaction_model.json"
    accept = (_load_model(model, InteractionModel.from_dict).accept_intent
              if model.is_file() else ACCEPT_INTENT)
    report = evaluate(read_dialogues(transcripts), accept)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_report(out / REPORT_FILE, accept, report)
    return report


def _write_report(path: Path, accept: Intent, report: MetricsReport) -> None:
    """Write the bytes of ``write_document(path, {"accept_intent": ...,
    **report.to_dict()})``, whose rows close it, :data:`_REPORT_BATCH` rows
    per encoding call, each read from the packed rows of :func:`evaluate`."""
    head = _encode({"schema_version": SCHEMA_VERSION,
                    "accept_intent": str(accept),
                    **replace(report, rows=()).to_dict()})
    rows = report.rows
    with _opened(path, "w") as file:
        file.write(head[:-len("]}")])  # up to the rows' opening bracket
        for start in range(0, len(rows), _REPORT_BATCH):
            file.write((", " if start else "") + _encode(
                rows._dicts(start, start + _REPORT_BATCH))[1:-1])
        file.write("]}\n")
