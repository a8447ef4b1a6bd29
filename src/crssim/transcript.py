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
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import IO, Any

from .dialogue import (
    AnnotatedUtterance,
    AnyUtterance,
    Dialogue,
    Intent,
    Participant,
    SlotValue,
    Utterance,
)
from .domain import _read_text
from .errors import ParseError, SchemaVersionMismatch

SCHEMA_VERSION = 1


def _document(text: str, source: str) -> dict[str, Any]:
    """Parse a JSON object whose ``schema_version`` is
    :data:`SCHEMA_VERSION`; ``source`` names it in errors."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {source}: {exc}",
                         line=exc.lineno) from exc
    except RecursionError:
        raise ParseError(f"malformed JSON in {source}: nested too deeply"
                         ) from None
    if not isinstance(document, dict):
        raise ParseError(f"expected a JSON object in {source}")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{source}: schema_version {version!r}, expected {SCHEMA_VERSION}")
    return document


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


def dumps(dialogues: list[Dialogue]) -> str:
    if not dialogues:
        return json_text({"schema_version": SCHEMA_VERSION, "dialogues": []})
    records = []
    for d in dialogues:
        utterances = (
            "[\n" + ",\n".join([_utterance_json(u) for u in d.utterances])
            + "\n      ]" if d.utterances else "[]")
        records.append(
            '    {\n      "dialogue_id": ' + _value(d.dialogue_id, "      ")
            + ',\n      "agent_id": ' + _value(d.agent_id, "      ")
            + ',\n      "user_id": ' + _value(d.user_id, "      ")
            + ',\n      "metadata": ' + _value(d.metadata, "      ")
            + ',\n      "utterances": ' + utterances + "\n    }")
    return (f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "dialogues": [\n'
            + ",\n".join(records) + "\n  ]\n}\n")


def _json(kind: type, value: Any, what: str) -> Any:
    """``value``, which a transcript must hold as a JSON ``kind``."""
    if type(value) is not kind:
        raise ParseError(f"{what} must be a {kind.__name__}")
    return value


def loads(text: str) -> list[Dialogue]:
    doc = _document(text, "transcript document")
    if "dialogues" not in doc:
        raise ParseError("transcript document must contain 'dialogues'")
    # Equal records share one frozen object per document, so each distinct
    # utterance, label and slot value is built and validated once. Only
    # str and int fields are shared: 1, 1.0 and true are equal keys.
    bases: dict[tuple[str, str, int], Utterance] = {}
    intents: dict[str, Intent] = {}
    slot_values: dict[tuple[str, str], SlotValue] = {}
    dialogues = []
    for record in _json(list, doc["dialogues"], "dialogues"):
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
        dialogues.append(
            Dialogue(dialogue_id, agent_id, user_id, utterances, metadata))
    return dialogues


def export_dialogues(dialogues: list[Dialogue], sink: str | Path | IO[str]) -> None:
    """Write all dialogues of a run into one JSON document."""
    text = dumps(dialogues)
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)


def import_dialogues(source: str | Path | IO[str]) -> list[Dialogue]:
    """Inverse of :func:`export_dialogues`; round-trips field-for-field."""
    return loads(_read_text(source))
