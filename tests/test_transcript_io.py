"""Transcript export and import: one ``json.dumps`` line per record
between a header and a counting footer, round-trips, streams in both
directions, rejects malformed records and cut files with their line, and
stays off the pure-Python JSON encoder."""

from __future__ import annotations

import copy
import gc
import io
import json
import sys
import weakref
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from crssim import (
    Dialogue,
    Intent,
    ParseError,
    Participant,
    SchemaVersionMismatch,
    SimulationConfig,
    SlotValue,
    Utterance,
    run_evaluation,
    run_simulation,
)
from crssim import runner, transcript
from crssim.runner import TRANSCRIPTS_FILE
from crssim.transcript import (dumps, export_dialogues, import_dialogues,
                               loads, read_dialogues)


def jsonl(document: dict[str, Any]) -> str:
    """The transcript file of ``document``, given in the dict shape
    ``{"schema_version": v, "dialogues": [record, ...]}``: a header line,
    one ``json.dumps`` line per record and a footer that counts them. A
    ``dialogues`` value that is not a list stands for one line."""
    records = document["dialogues"]
    if type(records) is not list:
        records = [records]
    return "".join(json.dumps(value, ensure_ascii=False) + "\n" for value in [
        {"schema_version": document["schema_version"]}, *records,
        {"dialogues": len(records)}])


def reference_dumps(dialogues: list[Dialogue]) -> str:
    """The transcript as the dict-building writer laid it out."""
    records = []
    for d in dialogues:
        utterances = []
        for u in d.utterances:
            doc: dict[str, Any] = {"participant": u.participant.value,
                                   "text": u.text,
                                   "turn_index": u.turn_index}
            if u.intent is not None:
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
    return jsonl({"schema_version": 1, "dialogues": records})


class Tag(str):
    pass


class Count(int):
    pass


TRICKY = ('"\\/\x00\x01\x1f\x7f\n\r\t  é—😀'
          '\u2028\u2029\x85\x1c\x1d\x1e\x0b\x0c')
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
    speaker = draw(st.sampled_from(list(Participant)))
    index = draw(st.integers(0, 3))
    utterances = []
    for _ in range(draw(st.integers(0, 5))):
        text = draw(st.builds(Tag, texts) if exotic and draw(st.booleans())
                    else texts)
        if draw(st.booleans()):
            utterances.append(Utterance(
                speaker, text, index, Intent(draw(labels)),
                tuple(draw(st.lists(slot_values, max_size=2))),
                draw(satisfactions) if speaker is Participant.USER
                else None))
        else:
            utterances.append(Utterance(speaker, text, index))
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

    def test_circular_metadata_is_rejected_like_json_dumps(self):
        loop: dict[str, Any] = {}
        loop["self"] = loop
        with pytest.raises(ValueError, match="Circular"):
            dumps([Dialogue("d", "a", "u", [], {"loop": loop})])

    def test_a_url_agent_id_is_written_as_the_benchmark_normalises_it(self):
        # perfbench replaces these exact bytes to compare a wire transcript
        # with the in-process one
        url = "http://127.0.0.1:1/"
        batch = [Dialogue(f"d{i}", url, "u", [
            Utterance(Participant.AGENT, "hi", 0)]) for i in range(3)]
        data = dumps(batch).encode("utf-8")
        assert data.count(b'"agent_id": ' + json.dumps(url).encode()) == 3


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(dialogues(exotic=False), max_size=3))
    def test_loads_inverts_dumps(self, batch):
        text = dumps(batch)
        assert loads(text) == batch
        assert len(list(io.StringIO(text))) == len(batch) + 2

    def test_line_separators_in_strings_stay_inside_one_line(self, tmp_path):
        separators = "\u2028\u2029\x85\x1c\x1d\x1e\x0b\x0c\r\n"
        batch = [Dialogue(f"d{c}", c, "u", [
            Utterance(Participant.AGENT, f"a{c}b", 0)], {c: c})
            for c in separators]
        path = tmp_path / "transcripts.jsonl"
        export_dialogues(batch, path)
        with open(path, encoding="utf-8") as file:
            assert len(list(file)) == len(batch) + 2
        assert len(path.read_text(encoding="utf-8").splitlines()) > \
            len(batch) + 2
        assert import_dialogues(path) == batch

    def test_equal_labels_share_one_object(self, sample_dialogues):
        restored = loads(dumps(sample_dialogues))
        intents = {}
        for d in restored:
            for u in d.utterances:
                assert intents.setdefault(u.intent.label, u.intent) is u.intent


    @pytest.mark.parametrize("said, turn_index, value", [
        (1, 1, 1), (True, 1, True), ("x", 1.0, 1.0), ("x", True, "1"),
        ("x", 1, 1), ("x", 1, "1")])
    def test_equal_values_of_other_types_are_parse_errors(self, said,
                                                          turn_index, value):
        # the first record puts USER "x" at turn 1 in the shared memo,
        # where true and 1.0 are keys equal to 1
        def record(dialogue_id, said, turn_index, value):
            return {"dialogue_id": dialogue_id, "agent_id": "a",
                    "user_id": "u", "utterances": [{
                        "participant": "USER", "text": said,
                        "turn_index": turn_index, "intent": "I",
                        "slot_values": [{"slot": "s", "value": value}]}]}

        text = jsonl({"schema_version": 1, "dialogues": [
            record("d0", "x", 1, "1"), record("d1", said, turn_index, value)]})
        read: list[Dialogue] = []
        if (type(said), type(turn_index), type(value)) == (str, int, str):
            read.extend(read_dialogues(io.StringIO(text)))
            first, second = (d.utterances[0] for d in read)
            assert second is first
        else:
            with pytest.raises(ParseError) as info:
                read.extend(read_dialogues(io.StringIO(text)))
            assert info.value.line == 3
        assert [d.dialogue_id for d in read][:1] == ["d0"]

    @pytest.mark.parametrize("first, second, shared", [
        ({}, {}, True),
        ({}, {"intent": None}, False),
        ({"intent": "I", "satisfaction": 1},
         {"intent": "I", "satisfaction": 1}, True),
        ({"intent": "I", "satisfaction": 1},
         {"intent": "I", "satisfaction": True}, False),
        ({"intent": "I", "satisfaction": 1},
         {"intent": "I", "satisfaction": 1.0}, False),
    ], ids=["unlabelled", "null intent", "satisfaction", "satisfaction true",
            "satisfaction 1.0"])
    def test_a_shared_utterance_matches_labels_of_their_own_type(
            self, first, second, shared):
        # an absent intent is no label, a null one is malformed, and true
        # and 1.0 are keys equal to a stored satisfaction of 1
        def record(dialogue_id, labels):
            return {"dialogue_id": dialogue_id, "agent_id": "a",
                    "user_id": "u", "utterances": [{
                        "participant": "USER", "text": "x",
                        "turn_index": 1, **labels}]}

        text = jsonl({"schema_version": 1, "dialogues": [
            record("d0", first), record("d1", second)]})
        if shared:
            first_read, second_read = (d.utterances[0] for d in loads(text))
            assert second_read is first_read
        else:
            with pytest.raises(ParseError) as info:
                loads(text)
            assert info.value.line == 3


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

# Each malformed record is a ParseError at its line: a missing field, a
# value of the wrong JSON type and a value the dataclasses reject alike.
MALFORMED = [
    ("missing participant", _set("utterances.0.participant", _DELETE)),
    ("unknown participant", _set("utterances.0.participant", "BOT")),
    ("lower-case participant", _set("utterances.0.participant", "agent")),
    ("non-string participant", _set("utterances.0.participant", 1)),
    ("unhashable participant", _set("utterances.0.participant", ["AGENT"])),
    ("missing text", _set("utterances.1.text", _DELETE)),
    ("missing turn index", _set("utterances.1.turn_index", _DELETE)),
    ("negative turn index", _set("utterances.0.turn_index", -1)),
    ("satisfaction above range", _set("utterances.1.satisfaction", 6)),
    ("satisfaction below range", _set("utterances.1.satisfaction", 0)),
    ("satisfaction on an agent turn",
     _set("utterances.0", {"participant": "AGENT", "text": "hi",
                           "turn_index": 0, "intent": "GREET",
                           "satisfaction": 3})),
    ("speakers do not alternate", _set("utterances.0.participant", "USER")),
    ("turn index does not increase", _set("utterances.1.turn_index", 0)),
    ("bad outcome", _set("metadata", {"outcome": "MAYBE"})),
    ("slot record missing slot",
     _set("utterances.1.slot_values", [{"value": "action"}])),
    ("slot record missing value",
     _set("utterances.1.slot_values", [{"slot": "genre"}])),
    ("empty intent label", _set("utterances.1.intent", "")),
    ("intent label with a space", _set("utterances.1.intent", "A B")),
    ("missing dialogue id", _set("dialogue_id", _DELETE)),
    ("empty dialogue id", _set("dialogue_id", "")),
    ("missing agent id", _set("agent_id", _DELETE)),
    ("missing utterances", _set("utterances", _DELETE)),
    ("dialogues dict", _set("dialogues", {"a": 1}, root="")),
    ("dialogue record list", _set("dialogues.0", [1], root="")),
    ("metadata str", _set("metadata", "x")),
    ("utterances str", _set("utterances", "")),
    ("utterance record int", _set("utterances.1", 1)),
    ("turn index None", _set("utterances.0.turn_index", None)),
    ("intent list", _set("utterances.1.intent", [1])),
    ("slot values dict", _set("utterances.1.slot_values", {})),
    ("slot record str", _set("utterances.1.slot_values.0", "x")),
    ("satisfaction str", _set("utterances.1.satisfaction", "3")),
    ("satisfaction float", _set("utterances.1.satisfaction", 3.0)),
    ("satisfaction bool", _set("utterances.1.satisfaction", True)),
    ("text int", _set("utterances.1.text", 5)),
    ("turn index float", _set("utterances.1.turn_index", 1.0)),
    ("turn index bool", _set("utterances.1.turn_index", True)),
    ("dialogue id int", _set("dialogue_id", 1)),
    ("agent id null", _set("agent_id", None)),
    ("user id list", _set("user_id", ["u"])),
    ("slot int", _set("utterances.1.slot_values.0.slot", 5)),
]


class TestMalformedRecords:
    def test_the_valid_document_loads(self):
        (dialogue,) = loads(jsonl(valid_document()))
        assert dialogue.utterances[1].slot_values == (
            SlotValue("genre", "action"),)

    @pytest.mark.parametrize("mutate", [m[1] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_rejected_with_a_parse_error_at_its_line(self, mutate):
        doc = copy.deepcopy(valid_document())
        mutate(doc)
        with pytest.raises(Exception) as info:
            loads(jsonl(doc))
        assert type(info.value) is ParseError
        assert info.value.line == 2

    def test_a_surrogate_pair_reads_as_its_character(self):
        record = RECORD.replace('"d1"', '"dlg-\\ud83d\\ude00"')
        (dialogue,) = loads(HEADER + record + '{"dialogues": 1}\n')
        assert dialogue.dialogue_id == "dlg-\U0001F600"

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(fields(valid_document()["dialogues"], "dialogues")),
           json_values(scalars, texts))
    def test_any_value_anywhere_loads_or_is_rejected(self, path, value):
        doc = valid_document()
        _set(path, value, root="")(doc)
        try:
            loads(jsonl(doc))
        except Exception as exc:
            assert type(exc) is ParseError, repr(exc)
            assert exc.line == 2


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
    run_evaluation(out / TRANSCRIPTS_FILE, out)

    monkeypatch.undo()
    written = sorted(path for path in out.rglob("*") if path.is_file())
    assert len(written) == 1 + 7  # the transcript and seven documents
    for path in written:
        with open(path, encoding="utf-8") as file:
            lines = list(file)
        assert len(lines) == (40 + 2 if path.name == TRANSCRIPTS_FILE
                              else 1), path
        for line in lines:
            assert line == json.dumps(json.loads(line),
                                      ensure_ascii=False) + "\n", path


HEADER = '{"schema_version": 1}\n'
RECORD = json.dumps(valid_document()["dialogues"][0]) + "\n"


class TestStreaming:
    """The writer takes dialogues one at a time, the reader yields them one
    line at a time, and any JSON layout within a line reads the same."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(dialogues(exotic=True), max_size=3))
    def test_export_of_an_iterator_equals_dumps(self, batch):
        sink = io.StringIO()
        export_dialogues(iter(batch), sink)
        assert sink.getvalue() == dumps(batch)

    @pytest.mark.parametrize("layout", [
        dict(sort_keys=True), dict(separators=(",", ":")),
        dict(separators=(",\t", ":\t"), sort_keys=True),
        dict(separators=(" , ", " : ")),
    ], ids=["sorted", "compact", "tabs", "spaced"])
    def test_any_layout_of_a_line_loads_the_same(self, sample_dialogues,
                                                 layout):
        text = dumps(sample_dialogues)
        relaid = "".join(json.dumps(json.loads(line), **layout) + "\n"
                         for line in io.StringIO(text))
        assert relaid != text
        assert loads(relaid) == sample_dialogues

    @pytest.mark.parametrize("text, error, message, line", [
        ("", ParseError, "ends before its .* footer", 1),
        (RECORD + HEADER + '{"dialogues": 1}\n', SchemaVersionMismatch,
         "schema_version None,", 1),
        ('{"schema_version": 1, "schema_version": 1}\n{"dialogues": 0}\n',
         ParseError, "duplicate member 'schema_version'", 1),
        ('{"schema_version": 10}\n{"dialogues": 0}\n', SchemaVersionMismatch,
         "schema_version 10,", 1),
        # equal to 1, but not the integer that every writer writes
        ('{"schema_version": true}\n{"dialogues": 0}\n',
         SchemaVersionMismatch, "schema_version True,", 1),
        ('{"schema_version": 1.0}\n{"dialogues": 0}\n',
         SchemaVersionMismatch, "schema_version 1.0,", 1),
        ('{"schema_version": 1, "dialogues": []}\n{"dialogues": 0}\n',
         ParseError, "only schema_version", 1),
        ('[1]\n{"dialogues": 0}\n', ParseError, "must be a JSON object", 1),
        (HEADER + RECORD + '{"dialogue_id": "d2",}\n{"dialogues": 2}\n',
         ParseError, "Expecting property name", 3),
        (HEADER + RECORD + "\n" + '{"dialogues": 2}\n', ParseError,
         "Expecting value", 3),
        (HEADER + "[" * (sys.getrecursionlimit() + 1) + "\n"
         + '{"dialogues": 1}\n', ParseError, "nested too deeply", 2),
        (HEADER + RECORD, ParseError, "ends before its .* footer", 3),
        (HEADER + RECORD + '{"dialogues": 2}\n', ParseError,
         "transcript footer must be", 3),
        (HEADER + '{"dialogues": false}\n', ParseError,
         "transcript footer must be", 2),
        (HEADER + RECORD + '{"dialogues": 1, "more": 1}\n', ParseError,
         "transcript footer must be", 3),
        (HEADER + RECORD + '{"dialogues": 1}\n' + RECORD, ParseError,
         "after the transcript footer", 4),
        (HEADER + '{"dialogues": 0}\n\n', ParseError,
         "after the transcript footer", 3),
        (HEADER + RECORD + '{"dialogues": 1}', ParseError, "no newline", 3),
        (json.dumps(valid_document(), indent=2) + "\n", ParseError,
         "Expecting property name", 1),
        (json.dumps(valid_document()) + "\n", ParseError,
         "only schema_version", 1),
        # UTF-8 cannot hold a lone surrogate, so no transcript or
        # report.json could write one back
        (HEADER + RECORD + RECORD.replace('"d1"', '"dlg-\\ud800"')
         + '{"dialogues": 2}\n', ParseError, "lone surrogate", 3),
        (HEADER + RECORD.replace('"hi"', '"\\udc00\\uD800"')
         + '{"dialogues": 1}\n', ParseError, "lone surrogate", 2),
        ('{"schema_version": 1, "\\uDFFF": 1}\n{"dialogues": 0}\n',
         ParseError, "lone surrogate", 1),
    ], ids=["empty", "record-before-header", "duplicate-header-member",
            "bad-version", "version-true", "version-float",
            "other-header-member", "header-not-an-object",
            "syntax-error", "blank-line", "nested-too-deeply",
            "missing-footer", "wrong-count", "count-not-an-int",
            "other-footer-member", "data-after-footer",
            "blank-line-after-footer", "dropped-final-newline",
            "indented-json-layout", "one-line-json-layout", "lone-surrogate",
            "surrogates-in-the-wrong-order", "lone-surrogate-in-the-header"])
    def test_broken_files_are_parse_errors_with_a_line(self, tmp_path, text,
                                                       error, message, line):
        with pytest.raises(ParseError, match=message) as info:
            loads(text)
        assert type(info.value) is error
        assert info.value.line == line
        path = tmp_path / "transcripts.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            import_dialogues(path)
        assert type(info.value) is error
        assert info.value.line == line
        assert str(path) in str(info.value)

    def test_other_record_fields_are_read_past(self, sample_dialogues):
        lines = list(io.StringIO(dumps(sample_dialogues)))
        lines[1:-1] = [json.dumps({"note": {"nested": [1, 2.5e3, "x"]},
                                   **json.loads(line), "count": 12}) + "\n"
                       for line in lines[1:-1]]
        assert loads("".join(lines)) == sample_dialogues

    def test_version_is_checked_before_the_first_record(
            self, sample_dialogues):
        text = dumps(sample_dialogues).replace('"schema_version": 1',
                                               '"schema_version": 2')
        reader = read_dialogues(io.StringIO(text))
        with pytest.raises(SchemaVersionMismatch):
            next(reader)

    def test_shared_utterances_do_not_pile_up_over_a_document(self):
        n = transcript._SHARED_LIMIT + 10
        text = dumps(Dialogue(f"d{i}", "a", "u", [
            Utterance(Participant.AGENT, f"unique text {i}", 0)])
            for i in range(n))
        reader = read_dialogues(io.StringIO(text))
        first = weakref.ref(next(reader).utterances[0])
        for _ in range(n - 2):
            next(reader)
        gc.collect()
        assert first() is None
        assert next(reader).dialogue_id == f"d{n - 1}"

    @pytest.mark.parametrize("mutate", [m[1] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_records_from_a_file_name_it(self, tmp_path, mutate):
        doc = copy.deepcopy(valid_document())
        mutate(doc)
        path = tmp_path / "transcripts.jsonl"
        path.write_text(jsonl(doc), encoding="utf-8")
        with pytest.raises(Exception) as info:
            import_dialogues(path)
        assert type(info.value) is ParseError
        assert info.value.line == 2
        assert str(info.value).startswith(f"{path}: line 2: ")
        assert str(info.value).count(str(path)) == 1


class TestTruncatedRun:
    """What a crash mid-run leaves: the records written so far, cut."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        population = out / "population.yaml"
        population.write_text("n_users: 6\nseed: 5\nground_in_ratings: false\n",
                              encoding="utf-8")
        run_simulation(SimulationConfig(population=str(population),
                                        out=str(out), train=True, seed=5))
        return out / TRANSCRIPTS_FILE

    def test_every_cut_is_a_parse_error_with_a_line(self, run, tmp_path):
        text = run.read_text(encoding="utf-8")
        cut_path = tmp_path / TRANSCRIPTS_FILE
        newlines = [i for i, c in enumerate(text) if c == "\n"]
        starts = [0, *(i + 1 for i in newlines)]
        # every line boundary, and in each line its first character, its
        # middle and all but its newline
        cuts = sorted({cut for start, end in zip(starts, newlines)
                       for cut in (start, start + 1, (start + end) // 2, end)})
        assert cuts[-1] == len(text) - 1
        assert len(cuts) > 10
        for cut in cuts:
            cut_path.write_text(text[:cut], encoding="utf-8")
            with pytest.raises(ParseError) as info:
                run_evaluation(cut_path, tmp_path / "report")
            assert info.value.line == text[:cut].count("\n") + 1, cut
            assert not (tmp_path / "report").exists()

    def test_records_before_the_cut_are_read_before_the_error(self, run):
        text = run.read_text(encoding="utf-8")
        cut = text.index('"dialogue_id": "dlg-sim_user_0003"')
        read = []
        with pytest.raises(ParseError):
            read.extend(read_dialogues(io.StringIO(text[:cut])))
        assert [d.dialogue_id for d in read] == [
            "dlg-sim_user_0000", "dlg-sim_user_0001", "dlg-sim_user_0002"]

    def test_a_run_that_dies_keeps_its_finished_dialogues_on_disk(
            self, tmp_path, monkeypatch):
        connect = runner.connect_dialogue
        calls = []

        def dies_at_the_fourth(*args, **kwargs):
            calls.append(kwargs["dialogue_id"])
            if len(calls) == 4:
                raise RuntimeError("killed")
            return connect(*args, **kwargs)

        monkeypatch.setattr(runner, "connect_dialogue", dies_at_the_fourth)
        population = tmp_path / "population.yaml"
        population.write_text("n_users: 6\nseed: 5\nground_in_ratings: false\n",
                              encoding="utf-8")
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="killed"):
            run_simulation(SimulationConfig(population=str(population),
                                            out=str(out), train=True, seed=5))
        assert (out / "config-snapshot").is_file()
        text = (out / "transcripts.jsonl").read_text(encoding="utf-8")
        read = []
        with pytest.raises(ParseError):
            read.extend(read_dialogues(io.StringIO(text)))
        assert [d.dialogue_id for d in read] == calls[:3]
        with pytest.raises(ParseError):
            run_evaluation(out / "transcripts.jsonl", out)
        assert not (out / "report.json").exists()
