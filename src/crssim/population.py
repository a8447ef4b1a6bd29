"""Persona traits, situational context, and user population generation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import IO, Any, Iterator

from .domain import Rating, _load, _yaml_mapping
from .errors import InsufficientRatingsUsers
from .schema import known, read


class TimeOfDay(str, Enum):
    MORNING = "morning"
    AFTERNOON = "afternoon"
    EVENING = "evening"
    NIGHT = "night"


class DayType(str, Enum):
    WEEKDAY = "weekday"
    WEEKEND = "weekend"


class Setting(str, Enum):
    ALONE = "alone"
    GROUP = "group"


class SatisfactionEvent(str, Enum):
    """What the agent's latest move did to the ongoing conversation."""

    EXPECTED_RESPONSE = "EXPECTED_RESPONSE"
    UNEXPECTED_RESPONSE = "UNEXPECTED_RESPONSE"
    GOOD_RECOMMENDATION = "GOOD_RECOMMENDATION"
    BAD_RECOMMENDATION = "BAD_RECOMMENDATION"


@dataclass(frozen=True)
class Persona:
    """Stable user traits.

    ``patience`` is the number of consecutive unexpected agent responses the
    user tolerates before quitting; ``cooperativeness`` is the probability of
    repeating the previous action (rather than switching to a new one) when
    the agent misbehaves.
    """

    patience: int
    cooperativeness: float

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be a positive integer")
        if not 0.0 <= self.cooperativeness <= 1.0:
            raise ValueError("cooperativeness must be in [0, 1]")


@dataclass(frozen=True)
class ContextState:
    """Temporal, relational, and conversational situation of the user."""

    time_of_day: TimeOfDay = TimeOfDay.EVENING
    day_type: DayType = DayType.WEEKDAY
    setting: Setting = Setting.ALONE
    satisfaction: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "satisfaction",
                           min(5, max(1, self.satisfaction)))


_SATISFACTION_DELTA = {
    SatisfactionEvent.EXPECTED_RESPONSE: 0,
    SatisfactionEvent.UNEXPECTED_RESPONSE: -1,
    SatisfactionEvent.GOOD_RECOMMENDATION: +1,
    SatisfactionEvent.BAD_RECOMMENDATION: -1,
}


def update_satisfaction(context: ContextState,
                        event: SatisfactionEvent) -> ContextState:
    """Apply one event to the conversational satisfaction, clamped to [1, 5].

    Unexpected responses and bad recommendations cost one point, good
    recommendations earn one, expected responses are neutral. An event
    that leaves the value where it was returns ``context`` itself.
    """
    satisfaction = min(5, max(1, context.satisfaction
                              + _SATISFACTION_DELTA[event]))
    if satisfaction == context.satisfaction:
        return context
    return replace(context, satisfaction=satisfaction)


@dataclass(frozen=True)
class UserProfile:
    """What was drawn for one simulated user.

    ``seed`` seeds each dialogue's one random stream, and ``ratings`` are
    the rows of the one rater a grounded user borrows.
    """

    user_id: str
    persona: Persona
    context: ContextState
    seed: int
    ratings: tuple[Rating, ...] = ()


WeightTable = dict[Any, float]


@dataclass
class PopulationConfig:
    """How to synthesize a user population.

    Each trait has a ``{value: weight}`` sampling table. With
    ``ground_in_ratings`` set, every profile borrows the ratings of a
    distinct user sampled out of the ratings dataset.
    """

    n_users: int
    seed: int = 0
    ground_in_ratings: bool = True
    patience: dict[int, float] | None = None
    cooperativeness: dict[float, float] | None = None
    time_of_day: dict[TimeOfDay, float] | None = None
    day_type: dict[DayType, float] | None = None
    setting: dict[Setting, float] | None = None
    satisfaction: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        defaults: dict[str, WeightTable] = {
            "patience": {3: 1.0},
            "cooperativeness": {0.8: 1.0},
            "time_of_day": {TimeOfDay.EVENING: 1.0},
            "day_type": {DayType.WEEKDAY: 1.0},
            "setting": {Setting.ALONE: 1.0},
            "satisfaction": {3: 1.0},
        }
        for trait, table in defaults.items():
            current = getattr(self, trait)
            if current is None:
                setattr(self, trait, table)
                current = table
            weights = current.values()
            if not all(w >= 0 for w in weights) or not (
                    0 < sum(weights) < math.inf):
                raise ValueError(f"trait {trait!r} needs non-negative weights, "
                                 "at least one positive, with a finite sum")


# a trait table as (values, cumulative weights), ready for rng.choices
_Draw = tuple[list[Any], list[float]]


def _draw_table(table: WeightTable) -> _Draw:
    values = list(table.keys())
    return values, list(accumulate(table[v] for v in values))


def _sample(rng: random.Random, draw: _Draw) -> Any:
    values, cum_weights = draw
    return rng.choices(values, cum_weights=cum_weights, k=1)[0]


# each section of the population document and the traits it holds
_SECTIONS = {"persona": {"patience", "cooperativeness"},
             "context": {"time_of_day", "day_type", "setting", "satisfaction"}}


def parse_population_config(text: str) -> PopulationConfig:
    """Parse the YAML population document.

    Expected fields: ``n_users``, ``seed``, ``ground_in_ratings``, plus
    ``persona`` and ``context`` sections holding per-trait weight tables.
    """
    what = "population config"
    doc = dict(_yaml_mapping(text, what))
    known(doc, {"n_users", "seed", "ground_in_ratings", *_SECTIONS}, what)
    for key, traits in _SECTIONS.items():
        if (section := doc.pop(key, None)) is not None:  # valueless: none
            known(section, traits, f"{what}.{key}")
            doc.update(section)
    return read(PopulationConfig, doc, what)


def load_population_config(source: str | Path | IO[str]) -> PopulationConfig:
    return _load(source, parse_population_config)


def generate_population(config: PopulationConfig,
                        ratings: list[Rating]) -> Iterator[UserProfile]:
    """Deterministically synthesize ``n_users`` profiles, one at a time.

    A pure function of its inputs: per-user seeds derive from the master
    seed, and all trait draws use those seeds, so the same config and data
    always produce the same population. ``ratings`` is read only when the
    population is grounded in them; each grounded profile then keeps the
    rows of one distinct rater.

    The raters are checked and sampled, and only their rows grouped, when
    this is called, so too few raters raise here. Each profile is drawn
    when the returned iterator reaches it: a run holds one at a time.
    """
    master = random.Random(config.seed)
    grounding: list[list[Rating]] = []
    if config.ground_in_ratings:
        distinct = sorted({r.user_id for r in ratings})
        if len(distinct) < config.n_users:
            raise InsufficientRatingsUsers(
                f"need {config.n_users} distinct ratings users, have {len(distinct)}"
            )
        by_user: dict[str, list[Rating]] = {
            user: [] for user in master.sample(distinct, config.n_users)}
        for r in ratings:
            if (rows := by_user.get(r.user_id)) is not None:
                rows.append(r)
        grounding = list(by_user.values())
    draws = [_draw_table(table) for table in (
        config.patience, config.cooperativeness, config.time_of_day,
        config.day_type, config.setting, config.satisfaction)]
    return _profiles(config.n_users, draws, master, grounding)


def _profiles(n_users: int, draws: list[_Draw], master: random.Random,
              grounding: list[list[Rating]]) -> Iterator[UserProfile]:
    """The profiles of :func:`generate_population`, each drawn from
    ``master`` as it is reached; ``grounding`` holds the rows of each
    sampled rater, in sampling order."""
    patience, cooperativeness, time_of_day, day_type, setting, satisfaction = (
        draws)
    width = max(4, len(str(n_users - 1)))
    for i in range(n_users):
        rng = random.Random(master.getrandbits(32))
        persona = Persona(
            patience=_sample(rng, patience),
            cooperativeness=_sample(rng, cooperativeness),
        )
        context = ContextState(
            time_of_day=_sample(rng, time_of_day),
            day_type=_sample(rng, day_type),
            setting=_sample(rng, setting),
            satisfaction=_sample(rng, satisfaction),
        )
        yield UserProfile(
            user_id=f"sim_user_{i:0{width}d}",
            persona=persona,
            context=context,
            # drawn after the traits: a dialogue never replays their draws
            seed=rng.getrandbits(32),
            ratings=tuple(grounding[i]) if grounding else (),
        )
