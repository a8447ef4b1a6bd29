"""Dialogue-set evaluation: average turns and average success."""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, fields
from itertools import starmap
from typing import Any, Iterable, Iterator, Sequence

from .dialogue import Dialogue, Intent, Participant
from .errors import NoDialogues
from .interaction import ACCEPT_INTENT
from .schema import Document


@dataclass(frozen=True)
class DialogueStats(Document):
    """Per-dialogue evaluation row."""

    dialogue_id: str
    turns: int
    success: bool
    terminated_by: str


_FIELDS = tuple(field.name for field in fields(DialogueStats))


class _PackedRows(Sequence[DialogueStats]):
    """The rows of a report, one packed column per :class:`DialogueStats`
    field; a row is built only when it is read.

    The ids are UTF-8 bytes, ``surrogatepass`` so that every ``str``
    comes back, in one ``bytearray`` with an array of end offsets; each
    cause is an index into the list of distinct causes, numbered in order
    of first appearance, so equal rows have equal columns. The rows equal,
    and hash as, the tuple of the same :class:`DialogueStats`.
    """

    __slots__ = ("_ids", "_ends", "_turns", "_success", "_causes",
                 "_terminated_by")

    def __init__(self, ids: bytearray, ends: array, turns: array,
                 success: bytearray, causes: list[str],
                 terminated_by: array) -> None:
        self._ids = ids
        self._ends = ends
        self._turns = turns
        self._success = success
        self._causes = causes
        self._terminated_by = terminated_by

    def __len__(self) -> int:
        return len(self._turns)

    def _fields(self, start: int, stop: int,
                ) -> Iterator[tuple[str, int, bool, str]]:
        """The field values of rows ``start:stop``, ``start`` a row."""
        ids, causes = self._ids, self._causes
        ends = self._ends[start:stop]
        begins = (self._ends[start - 1] if start else 0, *ends[:-1])
        for begin, end, turns, success, cause in zip(
                begins, ends, self._turns[start:stop],
                self._success[start:stop], self._terminated_by[start:stop]):
            yield (ids[begin:end].decode("utf-8", "surrogatepass"), turns,
                   bool(success), causes[cause])

    def __getitem__(self, index: int | slice,
                    ) -> DialogueStats | tuple[DialogueStats, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__,
                             range(*index.indices(len(self)))))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("report row index out of range")
        return DialogueStats(*next(self._fields(i, i + 1)))

    def __iter__(self) -> Iterator[DialogueStats]:
        return starmap(DialogueStats, self._fields(0, len(self)))

    def _dicts(self, start: int, stop: int) -> list[dict[str, Any]]:
        """:meth:`DialogueStats.to_dict` of rows ``start:stop``, read from
        the columns without building the rows."""
        return [dict(zip(_FIELDS, values))
                for values in self._fields(start, stop)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _PackedRows):
            return (self._turns == other._turns
                    and self._success == other._success
                    and self._ends == other._ends
                    and self._ids == other._ids
                    and self._causes == other._causes
                    and self._terminated_by == other._terminated_by)
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate metrics over a dialogue set.

    ``avg_turns`` and ``avg_success`` are the arithmetic means of the
    per-dialogue ``turns`` and ``success`` columns. :func:`evaluate`
    holds ``rows`` packed, a few bytes per dialogue besides its id; they
    read, compare and hash as a tuple of :class:`DialogueStats`.
    """

    n_dialogues: int
    avg_turns: float
    avg_success: float
    rows: Sequence[DialogueStats]

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
        u.participant is Participant.USER and u.intent == accept_intent
        for u in dialogue.utterances
    )


def evaluate(dialogues: Iterable[Dialogue],
             accept_intent: Intent = ACCEPT_INTENT) -> MetricsReport:
    """Compute AvgTurns and AvgSuccess over a non-empty dialogue set.

    A turn is one USER utterance; a dialogue succeeds when it contains a
    USER utterance annotated with the accept intent.
    """
    ids, ends = bytearray(), array("Q")
    turns, success = array("q"), bytearray()
    causes: dict[str, int] = {}
    terminated_by = array("I")
    for d in dialogues:
        ids += d.dialogue_id.encode("utf-8", "surrogatepass")
        ends.append(len(ids))
        turns.append(d.turns)
        success.append(dialogue_success(d, accept_intent))
        cause = str(d.metadata.get("terminated_by", "unknown"))
        terminated_by.append(causes.setdefault(cause, len(causes)))
    n = len(turns)
    if not n:
        raise NoDialogues("cannot evaluate an empty dialogue set")
    return MetricsReport(
        n_dialogues=n,
        avg_turns=sum(turns) / n,
        avg_success=sum(success) / n,
        rows=_PackedRows(ids, ends, turns, success, list(causes),
                         terminated_by),
    )
