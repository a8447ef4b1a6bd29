"""Run-file persistence: one JSON line per dialogue or document.

A dialogue record holds the fields of :mod:`crssim.dialogue`'s types, which
check them; what they or the record's shape reject is a :class:`ParseError`
at its line. Every file is opened by :func:`~crssim.errors._opened`, so an
error in a file read from a path is led by its name.

Every line is what ``json.dumps(value, ensure_ascii=False)`` writes plus a
newline; JSON escapes the newlines in strings. Model documents,
``config-snapshot`` and ``report.json`` are one such line, an object whose
first member is ``schema_version``, written by :func:`write_document` and
read by :func:`_document`, which checks and drops it. The reader ignores
whitespace, so the indented documents of earlier versions read the same.
The members of a model document are its class's fields, which
:mod:`crssim.schema` reads and writes; the dialogue records are kept
apart, hand-written for the speed of evaluation, and checked by
:mod:`crssim.dialogue`'s types.

A transcript file is the empty document ``{"schema_version": 1}``, one
line per dialogue and the footer ``{"dialogues": N}``. Both directions
stream, one dialogue at a time; a file cut at any byte lacks its footer or
a newline, so reading it raises after the records before the cut.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

from .dialogue import Dialogue, Intent, Participant, SlotValue, Utterance
from .errors import ParseError, SchemaVersionMismatch, _opened

SCHEMA_VERSION = 1
_SHARED_LIMIT = 4096  # distinct utterances a reader shares, see _dialogues
# an absent intent in a memo key: json.loads never returns it, so a null
# one, which is malformed, does not match
_NO_INTENT = object()
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _decoded(text: str, line: int | None = None, **hooks: Any) -> Any:
    """``json.loads(text)``; a syntax error is a :class:`ParseError` at
    ``line``, or else at the line of ``text`` where it is, and a string
    holding a lone surrogate, which UTF-8 cannot write back, is one at
    ``line``."""
    try:
        value = json.loads(text, **hooks)
        if "\\ud" in text or "\\uD" in text:  # only an escape makes one
            _encode(value).encode("utf-8")
        return value
    except UnicodeEncodeError as exc:
        raise ParseError("malformed JSON: a \\u escape makes a lone "
                         "surrogate", line=line) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg} (char {exc.pos})",
                         line=line or exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply",
                         line=line) from exc


def _document(text: str, line: int | None = None) -> dict[str, Any]:
    """The members of a JSON object but its ``schema_version``, which must
    be :data:`SCHEMA_VERSION`. A duplicate member of the object itself is
    an error."""
    outer: list[tuple[str, Any]] = []

    def members(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        nonlocal outer
        outer = pairs  # the outermost object is decoded last
        return dict(pairs)

    document = _decoded(text, line, object_pairs_hook=members)
    if type(document) is not dict:
        raise ParseError("the document must be a JSON object", line=line)
    if len(document) < len(outer):
        names = [name for name, _ in outer]
        duplicate = next(name for name in names if names.count(name) > 1)
        raise ParseError(f"duplicate member {duplicate!r}", line=line)
    version = document.pop("schema_version", None)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"schema_version {version!r}, expected "
                                    f"{SCHEMA_VERSION}", line=line)
    return document


def write_document(sink: str | Path | IO[str],
                   payload: Mapping[str, Any]) -> None:
    """Write ``payload`` after the current ``schema_version`` as one JSON
    line, the layout :func:`_document` reads."""
    with _opened(sink, "w") as file:
        file.write(_encode({"schema_version": SCHEMA_VERSION, **payload})
                   + "\n")


def _utterance(u: Utterance) -> dict[str, Any]:
    record = {"participant": u.participant.value, "text": u.text,
              "turn_index": u.turn_index}
    if u.intent is not None:
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


def _records(file: IO[str]) -> Iterator[tuple[int, Any]]:
    """``(line, record)`` for each dialogue record of a transcript file,
    as it is read; the header is checked before the first record, the
    footer once it is reached. Only the current line is held."""
    number = 0
    for number, line in enumerate(file, 1):
        if not line.endswith("\n"):
            raise ParseError("the transcript is cut: its last line has no "
                             "newline", line=number)
        if number == 1:
            if _document(line, 1):
                raise ParseError("the transcript header must hold only "
                                 "schema_version", line=1)
            continue
        value = _decoded(line, number)
        if type(value) is not dict or "dialogues" not in value:
            yield number, value
            continue
        if (value != {"dialogues": number - 2}
                or type(value["dialogues"]) is not int):
            raise ParseError("the transcript footer must be "
                             f'{{"dialogues": {number - 2}}}', line=number)
        if file.readline():
            raise ParseError("data after the transcript footer",
                             line=number + 1)
        return
    raise ParseError('the transcript is cut: it ends before its '
                     '{"dialogues": N} footer', line=number + 1)


def _array(value: Any, what: str) -> list[Any]:
    """``value``, a JSON array; an object or a string would iterate too."""
    if type(value) is not list:
        raise TypeError(f"{what} must be list, not {type(value).__name__}")
    return value


def _dialogues(records: Iterable[tuple[int, Any]]) -> Iterator[Dialogue]:
    """A :class:`Dialogue` for each ``(line, record)`` of a transcript file,
    built as it comes."""
    # Equal utterance records share one frozen Utterance per file, so each
    # distinct one is built and checked once, and equal labels share one
    # Intent; past _SHARED_LIMIT distinct utterances (free-text agents)
    # the memo starts over, so it cannot hold the whole file. A key that
    # failed its checks is never stored, and a str key equals only a str;
    # a turn index or satisfaction of true or 1.0 would equal a stored 1,
    # so only a key whose two are an int (or no satisfaction) is looked up.
    shared: dict[tuple[Any, ...], Utterance] = {}
    intents: dict[str, Intent] = {}
    for line, record in records:
        try:
            utterances = []
            for u in _array(record["utterances"], "utterances"):
                key = (u["participant"], u["text"], u["turn_index"],
                       u.get("intent", _NO_INTENT),
                       tuple((sv["slot"], sv["value"]) for sv in
                             _array(u.get("slot_values", []), "slot_values")),
                       u.get("satisfaction"))
                typed = type(key[2]) is int and (key[5] is None
                                                 or type(key[5]) is int)
                if not typed or (utterance := shared.get(key)) is None:
                    if (label := key[3]) is _NO_INTENT:
                        intent = None
                    elif (intent := intents.get(label)) is None:
                        intent = intents[label] = Intent(label)
                    utterance = Utterance(
                        Participant(key[0]), key[1], key[2], intent,
                        tuple(SlotValue(*pair) for pair in key[4]), key[5])
                    if typed:
                        if len(shared) >= _SHARED_LIMIT:
                            shared.clear()
                        shared[key] = utterance
                utterances.append(utterance)
            dialogue = Dialogue(record["dialogue_id"], record["agent_id"],
                                record["user_id"], utterances,
                                record.get("metadata", {}))
        except KeyError as exc:
            raise ParseError(f"the dialogue record is missing field {exc}",
                             line=line) from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"malformed dialogue record: {exc}",
                             line=line) from exc
        yield dialogue


def loads(text: str) -> list[Dialogue]:
    return import_dialogues(io.StringIO(text))


def export_dialogues(dialogues: Iterable[Dialogue],
                     sink: str | Path | IO[str]) -> None:
    """Write the header, one line per dialogue as it arrives, then the
    footer; no dialogue is kept once its line is written."""
    with _opened(sink, "w") as file:
        write_document(file, {})
        count = 0
        for count, record in enumerate(map(_record, dialogues), 1):
            file.write(record + "\n")
        file.write(_encode({"dialogues": count}) + "\n")


def read_dialogues(source: str | Path | IO[str]) -> Iterator[Dialogue]:
    """The dialogues of a transcript file, each built when the reader
    reaches its line: a broken file raises after those before the break.
    A byte that is not UTF-8 raises once the reader decodes it, which may
    be a few kB ahead of the current line, at that byte's line."""
    with _opened(source) as file:
        yield from _dialogues(_records(file))


def import_dialogues(source: str | Path | IO[str]) -> list[Dialogue]:
    """Inverse of :func:`export_dialogues`; round-trips field-for-field."""
    return list(read_dialogues(source))
