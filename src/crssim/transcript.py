"""Run-file persistence: one JSON line per dialogue or document.

A dialogue record holds the fields of :mod:`crssim.dialogue`'s types, which
check them; what they or the record's shape reject is a :class:`ParseError`
at its line, naming the file if read from a path.

Every line is what ``json.dumps(value, ensure_ascii=False)`` writes plus a
newline; JSON escapes the newlines in strings. Model documents,
``config-snapshot`` and ``report.json`` are one such line, an object whose
first member is ``schema_version``, written by :func:`write_document` and
read by :func:`_document`. The reader ignores whitespace, so the indented
documents of earlier versions read the same.

A transcript file is the empty document ``{"schema_version": 1}``, one
line per dialogue and the footer ``{"dialogues": N}``. Both directions
stream, one dialogue at a time; a file cut at any byte lacks its footer or
a newline, so reading it raises after the records before the cut.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

from .dialogue import (
    AnnotatedUtterance,
    AnyUtterance,
    Dialogue,
    Intent,
    Participant,
    SlotValue,
    Utterance,
)
from .errors import ParseError, SchemaVersionMismatch

SCHEMA_VERSION = 1
_SHARED_LIMIT = 4096  # distinct utterances a reader shares, see _dialogues
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _decoded(text: str, source: str, line: int | None = None,
             **hooks: Any) -> Any:
    """``json.loads(text)``; a syntax error is a :class:`ParseError` at
    ``line``, or else at the line of ``text`` where it is."""
    try:
        return json.loads(text, **hooks)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {source}: {exc.msg} (char "
                         f"{exc.pos})", line=line or exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError(f"malformed JSON in {source}: nested too deeply",
                         line=line) from exc


def _document(text: str, source: str, line: int | None = None
              ) -> dict[str, Any]:
    """Parse a JSON object whose ``schema_version`` is
    :data:`SCHEMA_VERSION`; ``source`` names it in errors. A duplicate
    member of the object itself is an error."""
    outer: list[tuple[str, Any]] = []

    def members(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        nonlocal outer
        outer = pairs  # the outermost object is decoded last
        return dict(pairs)

    document = _decoded(text, source, line, object_pairs_hook=members)
    if type(document) is not dict:
        raise ParseError(f"{source} must be a JSON object", line=line)
    if len(document) < len(outer):
        names = [name for name, _ in outer]
        duplicate = next(name for name in names if names.count(name) > 1)
        raise ParseError(f"duplicate member {duplicate!r} in {source}",
                         line=line)
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{source}: schema_version {version!r}, expected "
            f"{SCHEMA_VERSION}", line=line)
    return document


def write_document(sink: str | Path | IO[str],
                   payload: Mapping[str, Any]) -> None:
    """Write ``payload`` after the current ``schema_version`` as one JSON
    line, the layout :func:`_document` reads."""
    with _file(sink, "w") as file:
        file.write(_encode({"schema_version": SCHEMA_VERSION, **payload})
                   + "\n")


def _utterance(u: AnyUtterance) -> dict[str, Any]:
    base = u.utterance if isinstance(u, AnnotatedUtterance) else u
    record = {"participant": base.participant.value, "text": base.text,
              "turn_index": base.turn_index}
    if base is u:
        return record
    record["intent"] = u.intent.label
    if u.slot_values:
        record["slot_values"] = [{"slot": sv.slot, "value": sv.value}
                                 for sv in u.slot_values]
    if u.satisfaction is not None:
        record["satisfaction"] = u.satisfaction
    return record


def _record(d: Dialogue) -> str:
    return _encode({"dialogue_id": d.dialogue_id, "agent_id": d.agent_id,
                    "user_id": d.user_id, "metadata": d.metadata,
                    "utterances": [_utterance(u) for u in d.utterances]})


def dumps(dialogues: Iterable[Dialogue]) -> str:
    text = io.StringIO()
    export_dialogues(dialogues, text)
    return text.getvalue()


def _records(file: IO[str], source: str) -> Iterator[tuple[int, Any]]:
    """``(line, record)`` for each dialogue record of a transcript file,
    as it is read; the header is checked before the first record, the
    footer once it is reached. Only the current line is held."""
    number = 0
    for number, line in enumerate(file, 1):
        if not line.endswith("\n"):
            raise ParseError(f"{source} is cut: its last line has no "
                             "newline", line=number)
        if number == 1:
            if len(_document(line, source, 1)) != 1:
                raise ParseError(f"the header of {source} must hold only "
                                 "schema_version", line=1)
            continue
        value = _decoded(line, source, number)
        if type(value) is not dict or "dialogues" not in value:
            yield number, value
            continue
        if (value != {"dialogues": number - 2}
                or type(value["dialogues"]) is not int):
            raise ParseError(f"the {source} footer must be "
                             f'{{"dialogues": {number - 2}}}', line=number)
        if file.readline():
            raise ParseError(f"data after the {source} footer",
                             line=number + 1)
        return
    raise ParseError(f'{source} is cut: it ends before its {{"dialogues": '
                     'N} footer', line=number + 1)


def _array(value: Any, what: str) -> list[Any]:
    """``value``, a JSON array; an object or a string would iterate too."""
    if type(value) is not list:
        raise TypeError(f"{what} must be list, not {type(value).__name__}")
    return value


def _dialogues(records: Iterable[tuple[int, Any]], source: str
               ) -> Iterator[Dialogue]:
    """A :class:`Dialogue` for each ``(line, record)`` of a transcript file,
    built as it comes."""
    # Equal records share one frozen object per file, so each distinct
    # utterance, label and slot value is built and checked once; past
    # _SHARED_LIMIT distinct utterances (free-text agents) the memo starts
    # over, so it cannot hold the whole file. A key that failed its checks
    # is never stored, and a str key equals only a str; a turn index of
    # true or 1.0 would equal a stored 1, so only an int one is looked up.
    bases: dict[tuple[str, str, int], Utterance] = {}
    intents: dict[str, Intent] = {}
    slot_values: dict[tuple[str, str], SlotValue] = {}
    for line, record in records:
        try:
            utterances = []
            for u in _array(record["utterances"], "utterances"):
                key = u["participant"], u["text"], u["turn_index"]
                shared = type(key[2]) is int
                if not shared or (base := bases.get(key)) is None:
                    base = Utterance(Participant(key[0]), key[1], key[2])
                    if shared:
                        if len(bases) >= _SHARED_LIMIT:
                            bases.clear()
                        bases[key] = base
                if "intent" not in u:
                    utterances.append(base)
                    continue
                if (intent := intents.get(label := u["intent"])) is None:
                    intent = intents[label] = Intent(label)
                annotations = []
                for sv in _array(u.get("slot_values", []), "slot_values"):
                    pair = sv["slot"], sv["value"]
                    if (slot_value := slot_values.get(pair)) is None:
                        slot_value = slot_values[pair] = SlotValue(*pair)
                    annotations.append(slot_value)
                utterances.append(AnnotatedUtterance(
                    base, intent, tuple(annotations), u.get("satisfaction")))
            dialogue = Dialogue(record["dialogue_id"], record["agent_id"],
                                record["user_id"], utterances,
                                record.get("metadata", {}))
        except KeyError as exc:
            raise ParseError(f"dialogue record in {source} is missing "
                             f"field {exc}", line=line) from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"malformed dialogue record in {source}: {exc}",
                             line=line) from exc
        yield dialogue


def _file(source: str | Path | IO[str], mode: str
          ) -> contextlib.AbstractContextManager[IO[str]]:
    """``source`` opened in ``mode`` if it is a path, else as it is."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8")
    return contextlib.nullcontext(source)


def loads(text: str) -> list[Dialogue]:
    return import_dialogues(io.StringIO(text))


def export_dialogues(dialogues: Iterable[Dialogue],
                     sink: str | Path | IO[str]) -> None:
    """Write the header, one line per dialogue as it arrives, then the
    footer; no dialogue is kept once its line is written."""
    with _file(sink, "w") as file:
        write_document(file, {})
        count = 0
        for count, record in enumerate(map(_record, dialogues), 1):
            file.write(record + "\n")
        file.write(_encode({"dialogues": count}) + "\n")


def read_dialogues(source: str | Path | IO[str]) -> Iterator[Dialogue]:
    """The dialogues of a transcript file, each built when the reader
    reaches its line: a broken file raises after those before the break."""
    name = str(source) if isinstance(source, (str, Path)) else "transcript"
    with _file(source, "r") as file:
        yield from _dialogues(_records(file, name), name)


def import_dialogues(source: str | Path | IO[str]) -> list[Dialogue]:
    """Inverse of :func:`export_dialogues`; round-trips field-for-field."""
    return list(read_dialogues(source))
