"""Transcript persistence: one JSON document per run, schema-versioned.

Normative utterance fields: ``participant``, ``text``, ``turn_index`` plus
optional ``intent``, ``slot_values``, ``satisfaction``.

The document is exactly what ``json.dumps(doc, indent=2,
ensure_ascii=False)`` writes, plus a newline. On CPython, ``indent`` sends
``json.dumps`` through the pure-Python encoder, so the writer here lays the
document out itself: strings go through the C string escaper, ints and
finite floats through their ``repr``, and dicts with str keys and lists
are indented here. Anything else (subclasses, non-finite floats, other
keys, very deep nesting) goes through ``json.dumps``. Every other JSON
document of a run is written by :func:`json_text` too.

Both directions stream. :func:`export_dialogues` writes each record as its
dialogue arrives and keeps none of them. :func:`read_dialogues` walks the
document in pieces with ``JSONDecoder.raw_decode`` and yields each record
as a :class:`Dialogue` once it is decoded, so a cut document raises only
after the records before the cut. The reader takes any JSON layout of the
document and any member order.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from json.decoder import WHITESPACE
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NoReturn

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


def _document(text: str, source: str) -> dict[str, Any]:
    """Parse a JSON object whose ``schema_version`` is
    :data:`SCHEMA_VERSION`; ``source`` names it in errors."""
    return dict(_members(io.StringIO(text).read, source))


def _check_version(version: Any, source: str) -> None:
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{source}: schema_version {version!r}, expected {SCHEMA_VERSION}")


# From this indentation on, nested containers go to ``json.dumps``, which
# also rejects circular references as the stdlib encoder does.
_MAX_PAD = 40


def _dumped(value: Any, pad: str) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False).replace(
        "\n", "\n" + pad)


def _value(value: Any, pad: str) -> str:
    """``value`` as ``json.dumps(indent=2, ensure_ascii=False)`` writes it
    where the line holding it is indented by ``pad``."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if len(pad) < _MAX_PAD:
        if kind is dict:
            return _object(value, pad)
        if kind is list:
            return _array(value, pad)
    return _dumped(value, pad)


def _object(mapping: dict, pad: str) -> str:
    if not mapping:
        return "{}"
    inner = pad + "  "
    fields = []
    for key, item in mapping.items():
        if type(key) is not str:
            return _dumped(mapping, pad)
        fields.append(f"{inner}{_quote(key)}: {_value(item, inner)}")
    return "{\n" + ",\n".join(fields) + "\n" + pad + "}"


def _array(items: list, pad: str) -> str:
    if not items:
        return "[]"
    inner = pad + "  "
    return ("[\n" + ",\n".join([inner + _value(item, inner) for item in items])
            + "\n" + pad + "]")


def json_text(value: Any) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False) + "\\n"``."""
    return _value(value, "") + "\n"


_PARTICIPANT_JSON = {p: _quote(p.value) for p in Participant}


def _utterance_json(u: AnyUtterance) -> str:
    annotated = isinstance(u, AnnotatedUtterance)
    base = u.utterance if annotated else u
    record = ('        {\n          "participant": '
              + _PARTICIPANT_JSON[base.participant]
              + ',\n          "text": ' + _value(base.text, "          ")
              + ',\n          "turn_index": '
              + _value(base.turn_index, "          "))
    if not annotated:
        return record + "\n        }"
    record += ',\n          "intent": ' + _value(u.intent.label, "          ")
    if u.slot_values:
        record += (',\n          "slot_values": [\n' + ",\n".join([
            '            {\n              "slot": '
            + _value(sv.slot, "              ")
            + ',\n              "value": '
            + _value(sv.value, "              ") + "\n            }"
            for sv in u.slot_values]) + "\n          ]")
    if u.satisfaction is not None:
        record += (',\n          "satisfaction": '
                   + _value(u.satisfaction, "          "))
    return record + "\n        }"


def _record(d: Dialogue) -> str:
    utterances = (
        "[\n" + ",\n".join([_utterance_json(u) for u in d.utterances])
        + "\n      ]" if d.utterances else "[]")
    return ('    {\n      "dialogue_id": ' + _value(d.dialogue_id, "      ")
            + ',\n      "agent_id": ' + _value(d.agent_id, "      ")
            + ',\n      "user_id": ' + _value(d.user_id, "      ")
            + ',\n      "metadata": ' + _value(d.metadata, "      ")
            + ',\n      "utterances": ' + utterances + "\n    }")


def dumps(dialogues: Iterable[Dialogue]) -> str:
    text = io.StringIO()
    export_dialogues(dialogues, text)
    return text.getvalue()


def _json(kind: type, value: Any, what: str) -> Any:
    """``value``, which a transcript must hold as a JSON ``kind``."""
    if type(value) is not kind:
        raise ParseError(f"{what} must be a {kind.__name__}")
    return value


_DECODER = json.JSONDecoder()
_CHUNK = 1 << 18
_SHARED_LIMIT = 4096


def _members(read: Callable[[int], str], source: str,
             streamed: str | None = None) -> Iterator[tuple[str, Any]]:
    """Each member of the JSON object that ``read`` returns piece by piece,
    as ``(name, value)`` once the walk has decoded it; the array
    ``streamed`` comes one ``(streamed, element)`` at a time. Only the
    unread text of the current value is held.

    Members may come in any order; ``schema_version`` is checked as soon
    as it is read. A duplicate member and trailing data are errors."""
    text, pos, eof = "", 0, False
    dropped = lines = 0  # characters and newlines read past and let go

    def fail(message: str) -> NoReturn:
        raise ParseError(f"malformed JSON in {source}: {message} (char "
                         f"{dropped + pos})",
                         line=lines + text.count("\n", 0, pos) + 1)

    def more() -> None:
        """Read on, letting go of the text before ``pos``."""
        nonlocal text, pos, eof, dropped, lines
        chunk = read(max(_CHUNK, len(text) - pos))
        eof, dropped, lines = (not chunk, dropped + pos,
                               lines + text.count("\n", 0, pos))
        text, pos = text[pos:] + chunk, 0

    def peek() -> str:
        """The next character other than JSON whitespace; "" at the end."""
        nonlocal pos
        while ((pos := WHITESPACE.match(text, pos).end()) == len(text)
               and not eof):
            more()
        return text[pos:pos + 1]

    def take(*tokens: str) -> str:
        nonlocal pos
        if (token := peek()) not in tokens:
            fail("Expecting " + " or ".join(map(repr, tokens)))
        pos += 1
        return token

    def value() -> Any:
        nonlocal pos
        peek()
        while True:
            try:
                decoded, end = _DECODER.raw_decode(text, pos)
                if end < len(text) or eof:  # else a number may go on
                    pos = end
                    return decoded
            except json.JSONDecodeError as exc:
                if eof:
                    pos = exc.pos
                    fail(exc.msg)
            except RecursionError:
                fail("nested too deeply")
            more()

    def entries(opening: str, closing: str) -> Iterator[None]:
        """Once per entry of the next container; the caller reads each."""
        take(opening)
        if peek() == closing:
            take(closing)
            return
        yield
        while take(",", closing) == ",":
            yield

    seen: set[str] = set()
    for _ in entries("{", "}"):
        if peek() != '"':
            fail("Expecting property name enclosed in double quotes")
        if (key := value()) in seen:
            fail(f"duplicate member {key!r}")
        seen.add(key)
        take(":")
        if key == streamed:
            if peek() != "[":
                fail(f"{streamed} must be a list")
            for _ in entries("[", "]"):
                yield key, value()
            continue
        member = value()
        if key == "schema_version":
            _check_version(member, source)
        yield key, member
    if peek():
        fail("Extra data")
    if "schema_version" not in seen:
        _check_version(None, source)
    if streamed is not None and streamed not in seen:
        raise ParseError(f"{source} must contain {streamed!r}")


def _dialogues(members: Iterable[tuple[str, Any]]) -> Iterator[Dialogue]:
    """A :class:`Dialogue` for each ``dialogues`` record among a transcript
    document's members, built as it comes."""
    # Equal records share one frozen object per document, so each distinct
    # utterance, label and slot value is built and validated once; past
    # _SHARED_LIMIT distinct utterances (free-text agents) the memo starts
    # over, so it cannot hold the whole document. Only str and int fields
    # are shared: 1, 1.0 and true are equal keys.
    bases: dict[tuple[str, str, int], Utterance] = {}
    intents: dict[str, Intent] = {}
    slot_values: dict[tuple[str, str], SlotValue] = {}
    for name, record in members:
        if name != "dialogues":
            continue
        try:
            dialogue_id = _json(dict, record, "dialogue record")["dialogue_id"]
            agent_id = record["agent_id"]
            user_id = record["user_id"]
            utterances = []
            for u in _json(list, record["utterances"], "utterances"):
                try:
                    participant = u["participant"]
                    said = u["text"]
                    turn_index = u["turn_index"]
                    shared = (type(participant) is str and type(said) is str
                              and type(turn_index) is int)
                    base = (bases.get((participant, said, turn_index))
                            if shared else None)
                    if base is None:
                        base = Utterance(Participant(participant), said,
                                         turn_index)
                        if shared:
                            if len(bases) >= _SHARED_LIMIT:
                                bases.clear()
                            bases[participant, said, turn_index] = base
                except (KeyError, TypeError, ValueError) as exc:
                    raise ParseError(
                        f"malformed utterance record: {exc}") from exc
                if "intent" not in u:
                    utterances.append(base)
                    continue
                label = _json(str, u["intent"], "intent")
                if (intent := intents.get(label)) is None:
                    intent = intents[label] = Intent(label)
                annotations = []
                for sv in _json(list, u.get("slot_values", []), "slot_values"):
                    slot = _json(dict, sv, "slot record")["slot"]
                    value = sv["value"]
                    if type(slot) is not str or type(value) is not str:
                        slot_value = SlotValue(slot, value)
                    elif (slot_value := slot_values.get((slot, value))) is None:
                        slot_value = slot_values[slot, value] = SlotValue(
                            slot, value)
                    annotations.append(slot_value)
                utterances.append(AnnotatedUtterance(
                    base, intent, tuple(annotations), u.get("satisfaction")))
            metadata = _json(dict, record.get("metadata", {}), "metadata")
        except KeyError as exc:
            raise ParseError(
                f"dialogue record is missing field {exc}") from exc
        yield Dialogue(dialogue_id, agent_id, user_id, utterances, metadata)


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
    """Write the dialogues into one JSON document, each as it arrives; no
    dialogue is kept once its record is written."""
    with _file(sink, "w") as file:
        file.write(f'{{\n  "schema_version": {SCHEMA_VERSION},\n'
                   '  "dialogues": [')
        separator = "\n"
        for record in map(_record, dialogues):
            file.write(separator + record)
            separator = ",\n"
        file.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def read_dialogues(source: str | Path | IO[str]) -> Iterator[Dialogue]:
    """The dialogues of a transcript document, each built when the reader
    reaches it: a broken document raises after those before the break."""
    with _file(source, "r") as file:
        yield from _dialogues(_members(file.read, "transcript document",
                                       "dialogues"))


def import_dialogues(source: str | Path | IO[str]) -> list[Dialogue]:
    """Inverse of :func:`export_dialogues`; round-trips field-for-field."""
    return list(read_dialogues(source))
