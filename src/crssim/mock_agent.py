"""A deterministic scripted recommender for offline runs and tests.

The mock agent walks a fixed script over the supplied item collection:
greet, elicit a genre, recommend matching items one at a time, answer
"tell me more" questions from item attributes, and say goodbye on accept
or exhaustion. Unrecognized input draws a clarification request, which a
simulated user will typically fail to map to an expected intent — useful
for exercising repeat/sample/patience behavior.

It runs in-process as a :class:`~crssim.connector.DialogueParticipant`.
Its loopback HTTP server, :func:`crssim.wire.serve_mock`, lives beside the
wire client in :mod:`crssim.wire`, so a run against the in-process mock
loads no socket module.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .connector import DialogueParticipant, Response
from .dialogue import Utterance
from .domain import Item, ItemCollection
from .nlg import detect_polarity, Polarity

WELCOME_TEXT = "Hello, I am your movie recommendation assistant."
ELICIT_TEXT = "What genre of movie are you in the mood for?"
RECOMMEND_TEXT = "You should watch {name}."
INFORM_TEXT = "It is about {facts}."
ACCEPT_BYE_TEXT = "Great! Enjoy watching. Bye."
EXHAUSTED_BYE_TEXT = "I am afraid I have no more suggestions. Goodbye."
FAREWELL_TEXT = "Goodbye! I hope to see you again."
CLARIFY_TEXT = "I am sorry, I did not understand that. Could you rephrase?"
# the slot the mock elicits and recommends by, and the one it answers from
GENRE_SLOT = "genre"
DETAIL_SLOT = "keyword"

_GOODBYE_CUES = ("bye", "goodbye", "quit", "stop", "done")
_ACCEPT_CUES = ("yes", "great", "good", "sounds", "thanks", "sure",
                "perfect", "love")
_REJECT_CUES = ("no", "not", "another", "else", "different", "hate",
                "dislike")
_INQUIRE_CUES = ("what", "why", "tell", "about")


def _cue_pattern(*words: str) -> re.Pattern[str]:
    r"""One word-bounded alternation over ``words``, matched on lowercased text.

    With ``\b`` on both sides of the group, the pattern matches exactly
    where some single word would have matched on its own.
    """
    alternatives = "|".join(re.escape(w.lower()) for w in words)
    return re.compile(r"\b(?:" + alternatives + r")\b")


_GOODBYE_RE = _cue_pattern(*_GOODBYE_CUES)
_ACCEPT_RE = _cue_pattern(*_ACCEPT_CUES)
_REJECT_RE = _cue_pattern(*_REJECT_CUES)
_INQUIRE_RE = _cue_pattern(*_INQUIRE_CUES)
# A catalog has few genres; the bound only keeps a pathological one finite.
_genre_pattern = functools.lru_cache(maxsize=4096)(_cue_pattern)


@dataclass
class MockCRSAgent(DialogueParticipant):
    """One scripted recommender session."""

    items: ItemCollection
    elicited: bool = field(init=False, default=False)
    matches: list[Item] = field(init=False, default_factory=list)
    index: int = field(init=False, default=-1)

    @property
    def _current(self) -> Item | None:
        if 0 <= self.index < len(self.matches):
            return self.matches[self.index]
        return None

    def _find_genre(self, lowered: str) -> str | None:
        """The first genre, in sorted order, that ``lowered`` mentions."""
        for genre in self.items.values_for_slot(GENRE_SLOT):
            if _genre_pattern(genre).search(lowered):
                return genre
        return None

    def _recommend_next(self) -> Response:
        self.index += 1
        item = self._current
        if item is None:
            return Response(EXHAUSTED_BYE_TEXT, terminate=True)
        return Response(RECOMMEND_TEXT.format(name=item.name))

    def respond(self, incoming: Utterance | None) -> Response:
        if incoming is None:
            return Response(WELCOME_TEXT)
        text = incoming.text
        lowered = text.lower()
        negated = detect_polarity(text) is Polarity.NEGATIVE

        if _GOODBYE_RE.search(lowered):
            return Response(FAREWELL_TEXT, terminate=True)

        genre = self._find_genre(lowered)
        if genre is not None and not negated:
            self.elicited = True
            self.matches = self.items.with_attribute(GENRE_SLOT, genre)
            self.index = -1
            return self._recommend_next()

        if self._current is not None:
            if _ACCEPT_RE.search(lowered) and not negated:
                return Response(ACCEPT_BYE_TEXT, terminate=True)
            if negated or _REJECT_RE.search(lowered):
                return self._recommend_next()
            if _INQUIRE_RE.search(lowered):
                item = self._current
                facts = item.attributes.get(DETAIL_SLOT, ())
                if not facts:
                    facts = item.attributes.get(GENRE_SLOT, ())
                joined = " and ".join(facts) if facts else "a well-kept secret"
                return Response(INFORM_TEXT.format(facts=joined))

        if not self.elicited:
            self.elicited = True
            return Response(ELICIT_TEXT)
        return Response(CLARIFY_TEXT)


def __getattr__(name: str) -> object:
    if name in ("MockAgentServer", "serve_mock"):  # they moved to wire.py
        from . import wire
        return getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
