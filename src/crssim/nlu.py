"""Natural language understanding: intent classification, slot extraction,
and the training-time satisfaction classifier.

Intent and satisfaction classification share one scheme: utterances become
sparse TF-IDF vectors and are matched against L2-normalized per-class
centroids by cosine similarity. Slot extraction is a deterministic
gazetteer with greedy longest-match scanning; the lexicon is harvested from
the annotated sample and the item collection.

Each model's fields are its document under ``models/``, which
:mod:`crssim.schema` writes and reads; each model checks its values when
it is built, so a trained model and a loaded one meet the same rules.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .dialogue import Dialogue, Intent, SlotValue
from .domain import Domain, ItemCollection
from .errors import EmptySample, UnknownSlot
from .schema import Document

logger = logging.getLogger(__name__)

UNKNOWN_INTENT = Intent("UNKNOWN")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# sparse token -> weight map; zero weights are never stored
TokenVector = dict[str, float]

#: Most texts one model's memo remembers; past it the oldest is forgotten,
#: so an agent that never repeats itself cannot grow the memo.
MEMO_LIMIT = 4096
# a memo miss; ``None`` is a remembered answer in the intent memo
_MISSING = object()


def _remember(memo: OrderedDict, text: str, result):
    """Store ``result`` under ``text``, first evicting the oldest entry if
    the memo is full; return ``result``."""
    if len(memo) >= MEMO_LIMIT:
        memo.popitem(last=False)
    memo[text] = result
    return result


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; drops empty tokens."""
    return _TOKEN_RE.findall(text.lower())


def _l2_normalize(vector: TokenVector) -> TokenVector:
    norm = math.sqrt(sum(w * w for w in vector.values()))
    if norm == 0.0:
        return {}
    return {t: w / norm for t, w in vector.items()}


def _tfidf(tokens: Sequence[str], idf: dict[str, float]) -> TokenVector:
    """Raw term counts weighted by idf; tokens outside the vocabulary are
    ignored (they carry no trained weight)."""
    vector: TokenVector = {}
    for token, count in Counter(tokens).items():
        weight = idf.get(token)
        if weight is not None:
            vector[token] = count * weight
    return vector


def _smoothed_idf(token_lists: Sequence[list[str]]) -> dict[str, float]:
    """idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the N training utterances."""
    n = len(token_lists)
    df = Counter()
    for tokens in token_lists:
        for token in set(tokens):
            df[token] += 1
    return {t: math.log((1 + n) / (1 + d)) + 1.0 for t, d in sorted(df.items())}


def _centroids(labeled: Sequence[tuple[list[str], object]],
               idf: dict[str, float]) -> dict[object, TokenVector]:
    grouped: dict[object, list[TokenVector]] = {}
    for tokens, label in labeled:
        grouped.setdefault(label, []).append(_tfidf(tokens, idf))
    centroids: dict[object, TokenVector] = {}
    for label, vectors in grouped.items():
        mean: TokenVector = {}
        for vector in vectors:
            for token, weight in vector.items():
                mean[token] = mean.get(token, 0.0) + weight / len(vectors)
        centroids[label] = _l2_normalize(mean)
    return centroids


def _cosine_to_unit(query: TokenVector, norm: float,
                    unit_centroid: TokenVector) -> float:
    """Cosine between a raw query vector of L2 ``norm`` and an already
    unit-norm centroid."""
    if norm == 0.0:
        return 0.0
    return sum(w * unit_centroid.get(t, 0.0) for t, w in query.items()) / norm


def _best_centroid(ranked: Sequence[tuple[object, TokenVector]],
                   query: TokenVector, floor: float) -> tuple[object, float]:
    """The first label in ``ranked`` whose cosine beats ``floor`` and every
    earlier label's, with that cosine; ``(None, floor)`` if none does."""
    norm = math.sqrt(sum(w * w for w in query.values()))
    best_label = None
    best_similarity = floor
    for label, centroid in ranked:
        similarity = _cosine_to_unit(query, norm, centroid)
        if similarity > best_similarity:
            best_label, best_similarity = label, similarity
    return best_label, best_similarity


def _by_label(centroids: dict) -> list[tuple[object, TokenVector]]:
    """``(label, centroid)`` pairs in ascending label order."""
    return sorted(centroids.items(), key=lambda pair: pair[0])


@dataclass
class IntentModel(Document):
    """Per-intent unit-norm TF-IDF centroids plus the shared idf table;
    at least one centroid."""

    idf: dict[str, float]
    centroids: dict[Intent, TokenVector]
    fallback_intent: Intent = UNKNOWN_INTENT
    min_similarity: float = 0.0
    # derived from ``centroids``; not serialised, not compared
    _ranked: list[tuple[Intent, TokenVector]] = field(
        init=False, repr=False, compare=False)
    # text -> best centroid match (``None`` for no known token), derived
    # from ``idf`` and ``centroids``; not serialised, not compared
    _memo: OrderedDict[str, tuple[Intent, float] | None] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.centroids:
            raise ValueError("an intent model needs at least one centroid")
        self._ranked = _by_label(self.centroids)
        self._memo = OrderedDict()


def train_intent_classifier(
    samples: Sequence[tuple[str, Intent]],
    fallback_intent: Intent = UNKNOWN_INTENT,
    min_similarity: float = 0.0,
) -> IntentModel:
    """Fit one centroid per intent seen in ``samples``."""
    if not samples:
        raise EmptySample("cannot train an intent classifier on no samples")
    token_lists = [tokenize(text) for text, _ in samples]
    idf = _smoothed_idf(token_lists)
    labeled = [(tokens, intent) for tokens, (_, intent) in zip(token_lists, samples)]
    centroids = _centroids(labeled, idf)
    return IntentModel(idf=idf, centroids=centroids,
                       fallback_intent=fallback_intent,
                       min_similarity=min_similarity)


def classify_intent(model: IntentModel, text: str) -> tuple[Intent, float]:
    """Return the best-matching intent and its cosine similarity.

    An empty query vector, or a best similarity below ``min_similarity``,
    yields ``(fallback_intent, 0.0)``. Ties break toward the
    lexicographically smallest intent label. The match is remembered per
    text, so a text the agent repeats is scored once.
    """
    best = model._memo.get(text, _MISSING)
    if best is _MISSING:
        query = _tfidf(tokenize(text), model.idf)
        best = _remember(model._memo, text,
                         _best_centroid(model._ranked, query, -1.0)
                         if query else None)
    # no label when no cosine beats -1.0, as with a NaN weight
    if best is None or best[0] is None or best[1] < model.min_similarity:
        return model.fallback_intent, 0.0
    return best


@dataclass
class ExtractionLexicon(Document):
    """Gazetteer mapping lowercased token phrases to (slot, canonical value).

    The set of phrase-initial tokens is taken from ``entries`` when the
    lexicon is built, and matches are remembered per text from then on,
    so ``entries`` must not change once the lexicon is in use.
    """

    entries: dict[str, tuple[str, str]] = field(default_factory=dict)
    max_phrase_len: int = 1
    # first token of every phrase, derived from ``entries``; not serialised
    _first_tokens: frozenset[str] = field(init=False, repr=False,
                                          compare=False)
    # text -> its matches, derived from ``entries``; not serialised, not
    # compared
    _memo: OrderedDict[str, tuple[SlotValue, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._first_tokens = frozenset(
            phrase.split(" ", 1)[0] for phrase in self.entries)
        self._memo = OrderedDict()


def _phrase(value: str) -> str:
    return " ".join(tokenize(value))


def train_slot_extractor(
    sample: Iterable[Dialogue],
    items: ItemCollection,
    domain: Domain,
) -> ExtractionLexicon:
    """Harvest a lexicon from sample annotations and the item collection.

    Sources: every annotated slot value, every item name (under the
    ``title`` slot, when the domain declares one), and every item attribute
    value under its own slot. A phrase claimed by two different slots goes
    to the earlier-declared slot; a same-slot clash takes the
    lexicographically smaller canonical value. Either collision is logged.
    """
    candidates: dict[str, tuple[str, str]] = {}

    def offer(surface: str, slot: str, value: str) -> None:
        phrase = _phrase(surface)
        if not phrase:
            return
        if not domain.has_slot(slot):
            raise UnknownSlot(f"annotation references unknown slot {slot!r}")
        current = candidates.get(phrase)
        if current is None:
            candidates[phrase] = (slot, value)
            return
        if current == (slot, value):
            return
        keep = min(current, (slot, value),
                   key=lambda sv: (domain.slot_priority(sv[0]), sv[1]))
        dropped = current if keep != current else (slot, value)
        candidates[phrase] = keep
        logger.warning(
            "lexicon collision for %r: kept %s=%s, dropped %s=%s",
            phrase, keep[0], keep[1], dropped[0], dropped[1],
        )

    for dialogue in sample:
        for utterance in dialogue.utterances:
            for sv in utterance.slot_values:
                offer(sv.value, sv.slot, sv.value)
    title_slot = next((s for s in domain.slots if s.lower() == "title"), None)
    for item in items:
        if title_slot is not None:
            offer(item.name, title_slot, item.name)
        for slot, values in item.attributes.items():
            for value in values:
                offer(value, slot, value)

    if not candidates:
        raise EmptySample("slot extractor training produced an empty lexicon")
    max_len = max(len(phrase.split()) for phrase in candidates)
    return ExtractionLexicon(entries=candidates, max_phrase_len=max_len)


def extract_slots(lexicon: ExtractionLexicon, text: str) -> list[SlotValue]:
    """Greedy longest-match scan; matched spans never overlap.

    The matches are remembered per text; every call returns a new list.
    """
    found = lexicon._memo.get(text)
    if found is None:
        found = _remember(lexicon._memo, text,
                          tuple(_scan_slots(lexicon, text)))
    return list(found)


def _scan_slots(lexicon: ExtractionLexicon, text: str) -> list[SlotValue]:
    tokens = tokenize(text)
    starts = lexicon._first_tokens
    found: list[SlotValue] = []
    i = 0
    while i < len(tokens):
        if tokens[i] not in starts:
            i += 1
            continue
        matched = False
        longest = min(lexicon.max_phrase_len, len(tokens) - i)
        for length in range(longest, 0, -1):
            phrase = " ".join(tokens[i:i + length])
            entry = lexicon.entries.get(phrase)
            if entry is not None:
                found.append(SlotValue(slot=entry[0], value=entry[1]))
                i += length
                matched = True
                break
        if not matched:
            i += 1
    return found


@dataclass
class SatisfactionModel(Document):
    """Centroid classifier over satisfaction levels 1..5; its centroids
    and its default are levels in that range."""

    idf: dict[str, float]
    centroids: dict[int, TokenVector]
    default_level: int = 3
    # derived from ``centroids``; not serialised, not compared
    _ranked: list[tuple[int, TokenVector]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for level in (*self.centroids, self.default_level):
            if not 1 <= level <= 5:
                raise ValueError(f"satisfaction level {level} outside [1, 5]")
        self._ranked = _by_label(self.centroids)


def train_satisfaction_classifier(
    samples: Sequence[tuple[str, int]],
    default_level: int = 3,
) -> SatisfactionModel:
    """Fit per-level centroids; levels may cover any subset of 1..5."""
    if not samples:
        raise EmptySample("cannot train a satisfaction classifier on no samples")
    token_lists = [tokenize(text) for text, _ in samples]
    idf = _smoothed_idf(token_lists)
    labeled = [(tokens, level) for tokens, (_, level) in zip(token_lists, samples)]
    centroids = _centroids(labeled, idf)
    return SatisfactionModel(idf=idf, centroids=centroids,
                             default_level=default_level)


def predict_satisfaction(model: SatisfactionModel, text: str) -> int:
    """Best-matching level by cosine; no vocabulary overlap falls back to
    the default level (scale midpoint)."""
    query = _tfidf(tokenize(text), model.idf)
    if not query:
        return model.default_level
    best_level, _ = _best_centroid(model._ranked, query, 0.0)
    if best_level is None:
        return model.default_level
    return best_level
