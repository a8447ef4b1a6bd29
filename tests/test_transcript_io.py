"""Transcript export and import: byte-identical to ``json.dumps(indent=2)``,
round-trips, rejects malformed records, and stays off the pure-Python
JSON encoder."""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from crssim import (
    AnnotatedUtterance,
    Dialogue,
    Intent,
    ParseError,
    Participant,
    SimulationConfig,
    SlotValue,
    Utterance,
    run_evaluation,
    run_simulation,
)
from crssim.transcript import dumps, json_text, loads


def reference_dumps(dialogues: list[Dialogue]) -> str:
    """The transcript as the dict-building writer laid it out."""
    records = []
    for d in dialogues:
        utterances = []
        for u in d.utterances:
            base = u.utterance if isinstance(u, AnnotatedUtterance) else u
            doc: dict[str, Any] = {"participant": base.participant.value,
                                   "text": base.text,
                                   "turn_index": base.turn_index}
            if isinstance(u, AnnotatedUtterance):
                doc["intent"] = u.intent.label
                if u.slot_values:
                    doc["slot_values"] = [{"slot": sv.slot, "value": sv.value}
                                          for sv in u.slot_values]
                if u.satisfaction is not None:
                    doc["satisfaction"] = u.satisfaction
            utterances.append(doc)
        records.append({"dialogue_id": d.dialogue_id, "agent_id": d.agent_id,
                        "user_id": d.user_id, "metadata": d.metadata,
                        "utterances": utterances})
    return json.dumps({"schema_version": 1, "dialogues": records}, indent=2,
                      ensure_ascii=False) + "\n"


class Tag(str):
    pass


class Count(int):
    pass


TRICKY = '"\\/\x00\x01\x1f\x7f\n\r\t  é—😀'
texts = st.text(max_size=12) | st.text(alphabet=TRICKY, max_size=12)
labels = st.text(min_size=1, max_size=8).filter(
    lambda s: not any(c.isspace() for c in s))
scalars = (st.none() | st.booleans() | st.integers() | texts
           | st.floats(allow_nan=False))
exotic_scalars = (scalars | st.floats() | st.builds(Tag, texts)
                  | st.builds(Count, st.integers()))
exotic_keys = (texts | st.integers() | st.booleans() | st.none()
               | st.floats(allow_nan=False))


def json_values(leaves, keys):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(keys, inner, max_size=3),
                        max_leaves=8)


@st.composite
def dialogues(draw, exotic: bool) -> Dialogue:
    leaves = exotic_scalars if exotic else scalars
    keys = exotic_keys if exotic else texts
    metadata = draw(st.dictionaries(
        keys.filter(lambda k: k != "outcome"), json_values(leaves, keys),
        max_size=3))
    metadata.update(draw(st.fixed_dictionaries({}, optional={
        "terminated_by": st.sampled_from(["user", "agent", "max_turns",
                                          "aborted"]),
        "aborted": st.booleans(),
        "abort_cause": texts,
        "outcome": st.sampled_from(["SUCCESS", "FAILURE"]),
    })))
    slot_values = st.builds(SlotValue, texts, texts)
    satisfactions = st.none() | st.integers(1, 5)
    if exotic:
        satisfactions |= st.just(True) | st.floats(1, 5)
    speaker = draw(st.sampled_from(list(Participant)))
    index = draw(st.integers(0, 3))
    utterances = []
    for _ in range(draw(st.integers(0, 5))):
        text = draw(st.builds(Tag, texts) if exotic and draw(st.booleans())
                    else texts)
        base = Utterance(speaker, text, index)
        if draw(st.booleans()):
            utterances.append(AnnotatedUtterance(
                base, Intent(draw(labels)),
                tuple(draw(st.lists(slot_values, max_size=2))),
                draw(satisfactions) if speaker is Participant.USER
                else None))
        else:
            utterances.append(base)
        speaker = (Participant.AGENT if speaker is Participant.USER
                   else Participant.USER)
        index += draw(st.integers(1, 3))
    ids = st.builds(Tag, texts) if exotic else texts
    return Dialogue(draw(texts.filter(bool)), draw(ids), draw(ids),
                    utterances, metadata)


class TestExport:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(dialogues(exotic=True), max_size=3))
    def test_equals_json_dumps_of_the_dict_shape(self, batch):
        assert dumps(batch) == reference_dumps(batch)

    @settings(max_examples=200, deadline=None)
    @given(json_values(exotic_scalars, exotic_keys))
    def test_json_text_equals_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2,
                                              ensure_ascii=False) + "\n"

    def test_deep_nesting_matches_json_dumps(self):
        value: Any = ["leaf", {"k": 1.5}]
        for depth in range(30):
            value = {f"level{depth}": value, "n": depth} if depth % 2 \
                else [value, None]
        assert json_text(value) == json.dumps(value, indent=2,
                                              ensure_ascii=False) + "\n"

    def test_circular_metadata_is_rejected_like_json_dumps(self):
        loop: dict[str, Any] = {}
        loop["self"] = loop
        with pytest.raises(ValueError, match="Circular"):
            dumps([Dialogue("d", "a", "u", [], {"loop": loop})])


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(dialogues(exotic=False), max_size=3))
    def test_loads_inverts_dumps(self, batch):
        assert loads(dumps(batch)) == batch

    def test_equal_labels_share_one_object(self, sample_dialogues):
        restored = loads(dumps(sample_dialogues))
        intents = {}
        for d in restored:
            for u in d.utterances:
                assert intents.setdefault(u.intent.label, u.intent) is u.intent


    def test_equal_values_of_other_types_stay_apart(self):
        def dialogue(dialogue_id, text, turn_index, value):
            return Dialogue(dialogue_id, "a", "u", [AnnotatedUtterance(
                Utterance(Participant.USER, text, turn_index), Intent("I"),
                (SlotValue("s", value),))])

        batch = [dialogue("d1", 1, 1, 1), dialogue("d2", True, 1, True),
                 dialogue("d3", "x", 1.0, 1.0), dialogue("d4", "x", True, "1"),
                 dialogue("d5", "x", 1, 1)]
        text = dumps(batch)
        restored = loads(text)
        assert dumps(restored) == text
        for before, after in zip(batch, restored):
            (u,), (v,) = before.utterances, after.utterances
            assert type(v.text) is type(u.text)
            assert type(v.turn_index) is type(u.turn_index)
            assert type(v.slot_values[0].value) is type(u.slot_values[0].value)


def valid_document() -> dict[str, Any]:
    return {"schema_version": 1, "dialogues": [{
        "dialogue_id": "d1", "agent_id": "a", "user_id": "u",
        "metadata": {"terminated_by": "user"},
        "utterances": [
            {"participant": "AGENT", "text": "hi", "turn_index": 0},
            {"participant": "USER", "text": "i like action",
             "turn_index": 1, "intent": "DISCLOSE",
             "slot_values": [{"slot": "genre", "value": "action"}],
             "satisfaction": 3},
        ]}]}


def fields(node: Any, path: str) -> list[str]:
    """``path`` and every dotted path below it in ``node``."""
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    return [path, *(field for key, child in children
                    for field in fields(child, f"{path}.{key}"))]


def _set(path: str, value: Any, root: str = "dialogues.0."):
    """A mutation setting ``root + path`` (dotted, ints index) of a doc."""
    def mutate(doc):
        target = doc
        *parents, last = [int(p) if p.isdigit() else p
                          for p in (root + path).split(".")]
        for p in parents:
            target = target[p]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
    return mutate


_DELETE = object()

# Each malformed record raises ParseError where the loader checks it (a
# missing field, a bad participant or turn index, a value of the wrong
# JSON type) and the dataclass's own ValueError otherwise.
MALFORMED = [
    ("missing participant", _set("utterances.0.participant", _DELETE),
     ParseError),
    ("unknown participant", _set("utterances.0.participant", "BOT"),
     ParseError),
    ("lower-case participant", _set("utterances.0.participant", "agent"),
     ParseError),
    ("non-string participant", _set("utterances.0.participant", 1),
     ParseError),
    ("unhashable participant", _set("utterances.0.participant", ["AGENT"]),
     ParseError),
    ("missing text", _set("utterances.1.text", _DELETE), ParseError),
    ("missing turn index", _set("utterances.1.turn_index", _DELETE),
     ParseError),
    ("negative turn index", _set("utterances.0.turn_index", -1), ParseError),
    ("satisfaction above range", _set("utterances.1.satisfaction", 6),
     ValueError),
    ("satisfaction below range", _set("utterances.1.satisfaction", 0),
     ValueError),
    ("satisfaction on an agent turn",
     _set("utterances.0", {"participant": "AGENT", "text": "hi",
                           "turn_index": 0, "intent": "GREET",
                           "satisfaction": 3}), ValueError),
    ("speakers do not alternate", _set("utterances.0.participant", "USER"),
     ValueError),
    ("turn index does not increase", _set("utterances.1.turn_index", 0),
     ValueError),
    ("bad outcome", _set("metadata", {"outcome": "MAYBE"}), ValueError),
    ("slot record missing slot",
     _set("utterances.1.slot_values", [{"value": "action"}]), ParseError),
    ("slot record missing value",
     _set("utterances.1.slot_values", [{"slot": "genre"}]), ParseError),
    ("empty intent label", _set("utterances.1.intent", ""), ValueError),
    ("intent label with a space", _set("utterances.1.intent", "A B"),
     ValueError),
    ("missing dialogue id", _set("dialogue_id", _DELETE), ParseError),
    ("empty dialogue id", _set("dialogue_id", ""), ValueError),
    ("missing agent id", _set("agent_id", _DELETE), ParseError),
    ("missing utterances", _set("utterances", _DELETE), ParseError),
    ("dialogues dict", _set("dialogues", {"a": 1}, root=""), ParseError),
    ("dialogue record list", _set("dialogues.0", [1], root=""), ParseError),
    ("metadata str", _set("metadata", "x"), ParseError),
    ("utterances str", _set("utterances", ""), ParseError),
    ("utterance record int", _set("utterances.1", 1), ParseError),
    ("turn index None", _set("utterances.0.turn_index", None), ParseError),
    ("intent list", _set("utterances.1.intent", [1]), ParseError),
    ("slot values dict", _set("utterances.1.slot_values", {}), ParseError),
    ("slot record str", _set("utterances.1.slot_values.0", "x"), ParseError),
    ("satisfaction str", _set("utterances.1.satisfaction", "3"), ValueError),
]


class TestMalformedRecords:
    def test_the_valid_document_loads(self):
        (dialogue,) = loads(json.dumps(valid_document()))
        assert dialogue.utterances[1].slot_values == (
            SlotValue("genre", "action"),)

    @pytest.mark.parametrize("mutate, error", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_rejected_with_the_dict_loader_exception(self, mutate, error):
        doc = copy.deepcopy(valid_document())
        mutate(doc)
        with pytest.raises(Exception) as info:
            loads(json.dumps(doc))
        assert type(info.value) is error

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(fields(valid_document()["dialogues"], "dialogues")),
           json_values(scalars, texts))
    def test_any_value_anywhere_loads_or_is_rejected(self, path, value):
        doc = valid_document()
        _set(path, value, root="")(doc)
        try:
            loads(json.dumps(doc))
        except Exception as exc:
            assert type(exc) in (ParseError, ValueError), repr(exc)


def _no_pure_python_encoder(*args, **kwargs):
    raise AssertionError("the pure-Python JSON encoder was used")


def test_run_writes_every_document_without_the_pure_python_encoder(
        tmp_path, monkeypatch):
    population = tmp_path / "population.yaml"
    population.write_text("n_users: 40\nseed: 3\nground_in_ratings: false\n",
                          encoding="utf-8")
    config = SimulationConfig(population=str(population),
                              out=str(tmp_path / "out"), train=True, seed=3)
    monkeypatch.setattr(json.encoder, "_make_iterencode",
                        _no_pure_python_encoder)
    with pytest.raises(AssertionError):
        json.dumps({"bites": [1]}, indent=2)

    out = run_simulation(config)
    run_evaluation(out / "transcripts.json", out)

    monkeypatch.undo()
    written = [out / "transcripts.json", out / "config-snapshot",
               out / "report.json", *sorted((out / "models").iterdir())]
    assert len(written) == 8
    for path in written:
        text = Path(path).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2,
                                  ensure_ascii=False) + "\n", path
