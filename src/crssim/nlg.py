"""Template-based generation of user utterances.

Templates are harvested from an annotated dialogue sample by cutting each
annotated slot value out of the utterance text and leaving a ``{slot}``
placeholder. Selection is conditioned on the situation: dissatisfied users
pick from templates that were uttered at matching satisfaction levels, and
late-night or group settings prefer the shorter half of the candidates.
The fields of a :class:`TemplateStore` are its document under
``models/``, which :mod:`crssim.schema` writes and reads.
"""

from __future__ import annotations

import random
import re
import statistics
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Mapping

from .dialogue import Dialogue, Intent, Participant, Utterance
from .domain import _load, _yaml_mapping
from .errors import MissingSlotValue
from .nlu import tokenize
from .population import ContextState, Setting, TimeOfDay
from .schema import Document, read

_PLACEHOLDER = re.compile(r"\{([^{}]+)\}")
_NEGATION_WORDS = ("not", "don't", "dont", "hate", "dislike", "no")
_POSITIVE_WORDS = ("like", "love", "want")
_NEGATION_RE = re.compile(
    r"\b(?:" + "|".join(re.escape(w) for w in _NEGATION_WORDS) + r")\b",
    re.IGNORECASE)
_POSITIVE_RE = re.compile(
    r"\b(?:" + "|".join(re.escape(w) for w in _POSITIVE_WORDS) + r")\b",
    re.IGNORECASE)

#: Marker in default patterns that stands for "whatever slots are needed".
SLOT_MARKER = "{slot}"

#: Built-in fallback patterns so every intent can always say something.
BUILTIN_DEFAULT_PATTERNS: dict[str, str] = {
    "GREETING": "Hello.",
    "DISCLOSE": "I am looking for {slot}.",
    "REVISE": "I would prefer {slot} instead.",
    "INQUIRE": "Can you tell me more?",
    "ACCEPT": "That sounds good.",
    "REJECT": "No, not that one.",
    "DONE": "Thank you, goodbye.",
}
_GENERIC_SLOTTED = "I am thinking of {slot}."
_GENERIC_SLOTLESS = "Okay."


class Polarity(str, Enum):
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"
    NEUTRAL = "NEUTRAL"


class SatisfactionBucket(str, Enum):
    LOW = "LOW"    # satisfaction 1-2
    MID = "MID"    # satisfaction 3
    HIGH = "HIGH"  # satisfaction 4-5
    ANY = "ANY"    # harvested without a satisfaction label


def bucket_of(satisfaction: int) -> SatisfactionBucket:
    if satisfaction <= 2:
        return SatisfactionBucket.LOW
    if satisfaction == 3:
        return SatisfactionBucket.MID
    return SatisfactionBucket.HIGH


def detect_polarity(text: str) -> Polarity:
    """Negation words win over liking words; neither → neutral."""
    if _NEGATION_RE.search(text):
        return Polarity.NEGATIVE
    if _POSITIVE_RE.search(text):
        return Polarity.POSITIVE
    return Polarity.NEUTRAL


@dataclass(frozen=True)
class Template(Document):
    """One utterance pattern with ``{slot}`` placeholders and styling facts."""

    intent: Intent
    pattern: str
    polarity: Polarity
    bucket: SatisfactionBucket = SatisfactionBucket.ANY
    slots: frozenset[str] = field(init=False)
    length: int = field(init=False)

    def __post_init__(self) -> None:
        placeholders = frozenset(_PLACEHOLDER.findall(self.pattern))
        object.__setattr__(self, "slots", placeholders)
        object.__setattr__(self, "length", len(tokenize(self.pattern)))


def instantiate(template: Template, slot_values: Mapping[str, str]) -> str:
    """Fill every placeholder; raise :class:`MissingSlotValue` on a gap."""

    def fill(match: re.Match) -> str:
        slot = match.group(1)
        if slot not in slot_values:
            raise MissingSlotValue(
                f"template for {template.intent} needs a value for slot "
                f"{slot!r}")
        return slot_values[slot]

    return _PLACEHOLDER.sub(fill, template.pattern)


def _specialize_default(pattern: str, slots: Iterable[str]) -> str:
    """Rewrite the generic ``{slot}`` marker for concrete slot names."""
    if SLOT_MARKER not in pattern:
        return pattern
    names = sorted(slots)
    if not names:
        return pattern.replace(SLOT_MARKER, "something")
    return pattern.replace(SLOT_MARKER,
                           " and ".join("{" + s + "}" for s in names))


def _default_template(intent: Intent, raw: str,
                      needed: frozenset[str]) -> Template:
    return Template(intent=intent, pattern=_specialize_default(raw, needed),
                    polarity=Polarity.NEUTRAL, bucket=SatisfactionBucket.ANY)


@dataclass
class TemplateStore(Document):
    """All harvested templates plus the per-intent default patterns."""

    templates: dict[Intent, list[Template]] = field(default_factory=dict)
    default_patterns: dict[str, str] = field(default_factory=dict)
    # (intent, needed, polarity, bucket, prefers_short) -> the candidates
    # select_template draws from, derived from ``templates``; not
    # serialised, not compared, emptied by ``add``
    _candidates: dict[tuple, tuple[Template, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # read and ignored: the defaults older documents stored ready-made
    _retired_keys = ("default_templates",)

    def add(self, template: Template) -> None:
        bucket = self.templates.setdefault(template.intent, [])
        for existing in bucket:
            if (existing.pattern == template.pattern
                    and existing.bucket == template.bucket
                    and existing.polarity == template.polarity):
                return
        bucket.append(template)
        self._candidates.clear()

    def templates_for(self, intent: Intent) -> list[Template]:
        return list(self.templates.get(intent, []))

    def default_for(self, intent: Intent,
                    needed_slots: Iterable[str] = ()) -> Template:
        """A default template for exactly the needed slots, built from the
        store's pattern for the intent, else the builtin one, else a
        generic one.

        A pattern that names a slot outside ``needed_slots`` itself (not
        through the ``{slot}`` marker) could not be filled, so it is passed
        over for the next one.
        """
        needed = frozenset(needed_slots)
        label = str(intent)
        for raw in (self.default_patterns.get(label),
                    BUILTIN_DEFAULT_PATTERNS.get(label)):
            if raw is not None:
                template = _default_template(intent, raw, needed)
                if template.slots <= needed:
                    return template
        return _default_template(
            intent, _GENERIC_SLOTTED if needed else _GENERIC_SLOTLESS, needed)


def _pattern_from(utterance: Utterance) -> str:
    """Cut annotated values out of the text, longest value first."""
    pattern = utterance.text
    pairs = sorted(utterance.slot_values,
                   key=lambda sv: (-len(sv.value), sv.slot, sv.value))
    for sv in pairs:
        placeholder = "{" + sv.slot + "}"
        if sv.value and sv.value in pattern:
            pattern = pattern.replace(sv.value, placeholder, 1)
    return pattern


def extract_templates(
    sample: Iterable[Dialogue],
    default_patterns: Mapping[str, str] | None = None,
) -> TemplateStore:
    """Harvest user-utterance templates from an annotated sample.

    Every annotated USER utterance yields one template: slot values are
    replaced by placeholders, polarity is read off the pattern's wording,
    and the utterance's satisfaction label (when present) fixes the
    satisfaction bucket. Exact duplicates collapse. An intent without a
    fitting template speaks through :meth:`TemplateStore.default_for`.
    """
    store = TemplateStore()
    store.default_patterns = dict(default_patterns or BUILTIN_DEFAULT_PATTERNS)
    for dialogue in sample:
        for utterance in dialogue.utterances:
            if (utterance.intent is None
                    or utterance.participant is not Participant.USER):
                continue
            pattern = _pattern_from(utterance)
            bucket = (bucket_of(utterance.satisfaction)
                      if utterance.satisfaction is not None
                      else SatisfactionBucket.ANY)
            store.add(Template(intent=utterance.intent, pattern=pattern,
                               polarity=detect_polarity(pattern),
                               bucket=bucket))
    return store


def _prefers_short(context: ContextState) -> bool:
    return (context.time_of_day is TimeOfDay.NIGHT
            or context.setting is Setting.GROUP)


def select_template(
    store: TemplateStore,
    intent: Intent,
    needed_slots: Iterable[str],
    polarity: Polarity,
    context: ContextState,
    rng: random.Random,
) -> Template:
    """Pick a template, relaxing constraints one at a time until one fits.

    Stage 1 demands everything: the intent, placeholder coverage of the
    needed slots, matching polarity, a satisfaction bucket equal to the
    context's, and — at night or in company — membership in the shorter
    half of those candidates (token length at most their median). Stages
    2-4 drop the length preference, then the bucket, then the polarity.
    Stage 5 falls back to the intent's default template. The candidates
    are worked out once per situation; the draw among them is made on
    every call.
    """
    needed = frozenset(needed_slots)
    key = (intent, needed, polarity, bucket_of(context.satisfaction),
           _prefers_short(context))
    candidates = store._candidates.get(key)
    if candidates is None:
        candidates = store._candidates[key] = _relaxed_candidates(
            store, *key)
    if candidates:
        return candidates[0] if len(candidates) == 1 else rng.choice(
            candidates)
    return store.default_for(intent, needed)


def _relaxed_candidates(store: TemplateStore, intent: Intent,
                        needed: frozenset[str], polarity: Polarity,
                        bucket: SatisfactionBucket, prefers_short: bool
                        ) -> tuple[Template, ...]:
    """The templates of the first relaxation stage with any, or none. Each
    stage drops a filter: the length (the median keeps one), the bucket,
    then the polarity."""
    base = [t for t in store.templates_for(intent) if t.slots >= needed]
    polar = [t for t in base if t.polarity is polarity]
    bucketed = [t for t in polar if t.bucket is bucket]
    if bucketed and prefers_short:
        median = statistics.median(t.length for t in bucketed)
        return tuple(t for t in bucketed if t.length <= median)
    return tuple(bucketed or polar or base)


def load_default_patterns(source: str | Path | IO[str]) -> dict[str, str]:
    """Load the YAML intent → default-pattern table."""
    what = "default-template table"
    return _load(source, lambda text: read(
        dict[str, str], _yaml_mapping(text, what), what))
