"""Dialogue types, domain/items/ratings parsing, connector, transcripts."""

from __future__ import annotations

import io
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crssim import (
    AgentError,
    CrssimError,
    Dialogue,
    DialogueParticipant,
    Domain,
    DuplicateItem,
    DuplicateSlot,
    EmptySlotList,
    Intent,
    Item,
    ItemCollection,
    ParseError,
    Participant,
    PopulationConfig,
    Rating,
    RatingOutOfScale,
    RatingScale,
    Response,
    SchemaVersionMismatch,
    SlotValue,
    UnknownSlot,
    Utterance,
    connect_dialogue,
    load_domain,
    load_item_collection,
    load_ratings,
    parse_domain_config,
    parse_interaction_model,
    parse_population_config,
)
from crssim.nlg import load_default_patterns
from crssim.transcript import (
    dumps,
    export_dialogues,
    import_dialogues,
    loads,
)


def default_patterns(text):
    return load_default_patterns(io.StringIO(text))


def u(participant, text, turn_index, intent=None, slots=(), satisfaction=None):
    return Utterance(participant, text, turn_index,
                     None if intent is None else Intent(intent), slots,
                     satisfaction)


class TestIntent:
    def test_label_round_trip(self):
        assert str(Intent("DISCLOSE")) == "DISCLOSE"

    @pytest.mark.parametrize("label, error", [
        ("", ValueError), (5, TypeError), (None, TypeError),
        (True, TypeError), (["A"], TypeError)])
    def test_empty_or_non_string_label_rejected(self, label, error):
        with pytest.raises(error):
            Intent(label)

    def test_whitespace_rejected(self):
        with pytest.raises(ValueError):
            Intent("TWO WORDS")

    def test_equality_is_exact_string_match(self):
        assert Intent("A") == Intent("A")
        assert Intent("A") != Intent("a")

    def test_orderable_for_deterministic_iteration(self):
        assert sorted([Intent("B"), Intent("A")]) == [Intent("A"), Intent("B")]


class TestUtterance:
    @pytest.mark.parametrize("participant, text, turn_index, error", [
        (Participant.USER, "hi", -1, ValueError),
        (Participant.USER, "hi", 1.0, TypeError),
        (Participant.USER, "hi", True, TypeError),
        (Participant.USER, "hi", None, TypeError),
        (Participant.USER, "hi", "1", TypeError),
        (Participant.USER, 5, 0, TypeError),
        (Participant.USER, None, 0, TypeError),
        ("USER", "hi", 0, TypeError),
    ])
    def test_negative_or_mistyped_fields_rejected(self, participant, text,
                                                  turn_index, error):
        with pytest.raises(error):
            Utterance(participant, text, turn_index)

    @pytest.mark.parametrize("slot, value", [
        (5, "action"), ("genre", 5), ("genre", None), (["genre"], "action"),
        ("genre", True)])
    def test_non_string_slot_values_rejected(self, slot, value):
        with pytest.raises(TypeError):
            SlotValue(slot, value)

    def test_string_subclasses_are_strings(self):
        class Tag(str):
            pass

        assert Utterance(Participant.USER, Tag("hi"), 0).text == "hi"
        assert SlotValue(Tag("genre"), Tag("action")).value == "action"
        assert Dialogue(Tag("d"), Tag("a"), Tag("u")).dialogue_id == "d"

    def test_labels_are_optional_fields(self):
        a = u(Participant.USER, "i like action", 2, intent="DISCLOSE",
              slots=[SlotValue("genre", "action")], satisfaction=4)
        assert (a.participant, a.text, a.turn_index) == (
            Participant.USER, "i like action", 2)
        bare = Utterance(Participant.USER, "i like action", 2)
        assert (bare.intent, bare.slot_values, bare.satisfaction) == (
            None, (), None)
        assert a != bare

    # the transcript writes slot values and satisfaction only beside an
    # intent, so an utterance holding them without one would not read back
    @pytest.mark.parametrize("labels", [
        dict(slot_values=[SlotValue("genre", "action")]),
        dict(satisfaction=3)])
    def test_labels_need_an_intent(self, labels):
        with pytest.raises(ValueError, match="need an intent"):
            Utterance(Participant.USER, "x", 0, **labels)

    def test_intent_must_be_an_intent(self):
        with pytest.raises(TypeError):
            Utterance(Participant.USER, "x", 0, intent="DISCLOSE")

    def test_slot_values_coerced_to_tuple(self):
        a = u(Participant.USER, "x", 0, intent="DISCLOSE",
              slots=[SlotValue("genre", "action")])
        assert isinstance(a.slot_values, tuple)

    # a float or bool label would export a transcript its reader rejects
    @pytest.mark.parametrize("level", [0, 6, 4.0, True])
    def test_satisfaction_bounds(self, level):
        with pytest.raises(ValueError):
            u(Participant.USER, "x", 0, intent="DISCLOSE", satisfaction=level)

    def test_satisfaction_only_on_user_utterances(self):
        with pytest.raises(ValueError):
            u(Participant.AGENT, "x", 0, intent="ELICIT", satisfaction=3)


class TestDialogue:
    def test_turns_counts_user_utterances(self):
        d = Dialogue("d1", "a", "u", [
            u(Participant.AGENT, "hello", 0),
            u(Participant.USER, "hi", 1),
            u(Participant.AGENT, "what genre", 2),
            u(Participant.USER, "action", 3),
        ])
        assert d.turns == 2
        assert [x.text for x in d.user_utterances()] == ["hi", "action"]

    def test_participants_must_alternate(self):
        with pytest.raises(ValueError, match="alternate"):
            Dialogue("d1", "a", "u", [
                u(Participant.AGENT, "hello", 0),
                u(Participant.AGENT, "anyone there", 1),
            ])

    def test_turn_indices_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Dialogue("d1", "a", "u", [
                u(Participant.AGENT, "hello", 1),
                u(Participant.USER, "hi", 1),
            ])

    @pytest.mark.parametrize("fields, error", [
        (("", "a", "u"), ValueError),
        ((1, "a", "u"), TypeError),
        (("d", None, "u"), TypeError),
        (("d", "a", ["u"]), TypeError),
        (("d", "a", "u", [], "x"), TypeError),
        (("d", "a", "u", [], [("outcome", "SUCCESS")]), TypeError),
    ], ids=["empty-id", "int-id", "null-agent", "list-user",
            "str-metadata", "list-metadata"])
    def test_empty_or_mistyped_id_or_metadata_rejected(self, fields, error):
        with pytest.raises(error):
            Dialogue(*fields)

    def test_outcome_flag_validated(self):
        with pytest.raises(ValueError, match="outcome"):
            Dialogue("d1", "a", "u", metadata={"outcome": "MEH"})
        d = Dialogue("d1", "a", "u", metadata={"outcome": "SUCCESS"})
        assert d.metadata["outcome"] == "SUCCESS"


class TestDomainParsing:
    def test_parse_minimal_domain(self):
        domain = parse_domain_config("name: movies\nslots:\n  - title\n  - genre\n")
        assert domain.name == "movies"
        assert domain.slots == ("title", "genre")
        assert domain.slot_priority("title") == 0

    def test_unknown_key_reports_line(self, tmp_path):
        text = "name: movies\nbogus: 1\nslots: [a]\n"
        with pytest.raises(ParseError, match="'bogus'"):
            parse_domain_config(text)
        path = tmp_path / "domain.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_domain(path)
        assert str(exc.value).count(str(path)) == 1
        assert "'bogus'" in str(exc.value)

    @pytest.mark.parametrize("text, error", [
        ("name: ''\nslots: [a]\n", "domain name must be a non-empty"),
        ("name:\nslots: [a]\n", "domain config.name must be text, not None"),
        ("name: 123\nslots: [a]\n",
         "domain config.name must be text, not 123: quote it"),
        ("name: m\nslots: [a, 1]\n",
         "domain config.slots\\[1\\] must be text, not 1: quote it"),
        ("name: m\nslots: [a, ~]\n", "domain config.slots\\[1\\] must be text"),
        ("name: m\nslots: [a, ' ']\n", "slot names must be non-empty"),
        ("name: m\nslots: genre\n", "domain config.slots must be a list"),
        ("name: m\nslots:\n", "domain config.slots must be a list, not None"),
        ("name: m\nslots: ''\n", "domain config.slots must be a list, not ''"),
        ("name: m\n", "domain config is missing 'slots'"),
        ("- name\n", "domain config must be a mapping"),
    ], ids=["empty-name", "null-name", "number-name", "number-slot",
            "null-slot", "blank-slot", "slots-text", "slots-null",
            "slots-empty-text", "no-slots", "list"])
    def test_malformed_domain_is_a_parse_error(self, text, error):
        with pytest.raises(ParseError, match=error):
            parse_domain_config(text)

    def test_slot_names_are_stripped(self):
        assert parse_domain_config(
            "name: m\nslots: [' a ', b]\n").slots == ("a", "b")

    def test_missing_name(self):
        with pytest.raises(ParseError, match="name"):
            parse_domain_config("slots: [a]\n")

    def test_empty_slots_rejected(self):
        with pytest.raises(EmptySlotList):
            parse_domain_config("name: movies\nslots: []\n")

    def test_duplicate_slot_case_insensitive(self):
        with pytest.raises(DuplicateSlot):
            parse_domain_config("name: m\nslots: [Genre, genre]\n")

    def test_direct_construction_validates_too(self):
        with pytest.raises(EmptySlotList):
            Domain(name="m", slots=())
        with pytest.raises(DuplicateSlot):
            Domain(name="m", slots=("a", "A "))
        with pytest.raises(ParseError, match="name"):
            Domain(name="", slots=("a",))
        with pytest.raises(ParseError, match="slot names"):
            Domain(name="m", slots=("a", " "))

    def test_bundled_domain(self, movies_domain):
        assert movies_domain.name == "movies"
        assert movies_domain.slots == ("title", "genre", "keyword")


def interaction_text(slots="[genre]", agents="[RECOMMEND, BYE]",
                     responses="{ASK: [RECOMMEND], DONE: }"):
    """A small interaction-model document with swappable sections."""
    return ("name: m\n"
            "user_intents:\n"
            f"  ASK: {{required_slots: {slots}}}\n"
            "  ACCEPT:\n  REJECT:\n  DONE:\n"
            f"agent_intents: {agents}\n"
            f"expected_responses: {responses}\n"
            "terminal_intent: DONE\n")


class TestConfigDocuments:
    @pytest.mark.parametrize("parse, text, message", [
        (parse_population_config, "n_users: 2\npersona: [1, 2]\n",
         "population config.persona must be a mapping"),
        (parse_interaction_model, interaction_text(agents="5"),
         "interaction config.agent_intents must be a list"),
        (parse_interaction_model, interaction_text(responses="[1]"),
         "interaction config.expected_responses must be a mapping"),
        (parse_interaction_model, interaction_text(slots="genre"),
         "interaction config.required_slots\\['ASK'\\] must be a list"),
        (parse_interaction_model,
         "name: m\nuser_intents: {ASK: [genre], DONE: }\n"
         "agent_intents: [RECOMMEND]\nterminal_intent: DONE\n",
         "interaction config.user_intents\\['ASK'\\] must be a mapping"),
        # a misspelt key must not leave its section at the defaults
        (parse_population_config,
         "n_users: 2\npersona: {patince: {2: 1}}\n",
         "unknown population config.persona key\\(s\\): 'patince'"),
        (parse_population_config, "n_users: 2\ncontext: {mood: {x: 1}}\n",
         "unknown population config.context key\\(s\\): 'mood'"),
        (parse_population_config, "n_users: 2\n1: 2\nx: 3\n",
         "unknown population config key\\(s\\): 'x', 1"),
        (parse_interaction_model,
         interaction_text() + "recomendation_intents: [RECOMMEND]\n",
         "unknown interaction config key\\(s\\): 'recomendation_intents'"),
        (parse_interaction_model,
         interaction_text() + "expected_response: {ASK: [BYE]}\n",
         "unknown interaction config key\\(s\\): 'expected_response'"),
        (parse_interaction_model,
         interaction_text().replace("required_slots", "required_slot"),
         "unknown interaction config.user_intents\\['ASK'\\] "
         "key\\(s\\): 'required_slot'"),
        # the walker's error for a missing key, as for every other one
        (parse_interaction_model,
         interaction_text().replace("terminal_intent: DONE\n", ""),
         "^interaction config is missing 'terminal_intent'$"),
        # a value that is not a section is not an empty one
        *[(parse_population_config, f"n_users: 2\n{section}: {value}\n",
           f"population config.{section} must be a mapping, not {shown}")
          for section in ("persona", "context")
          for value, shown in (("false", "False"), ("0", "0"),
                               ("[]", "\\[\\]"), ("''", "''"))],
        *[(parse_interaction_model, interaction_text(responses=value),
           f"interaction config.expected_responses must be a mapping, "
           f"not {shown}")
          for value, shown in (("false", "False"), ("0", "0"),
                               ("[]", "\\[\\]"), ("''", "''"))],
        *[(parse_interaction_model, interaction_text(slots=value),
           f"interaction config.required_slots\\['ASK'\\] must be a list, "
           f"not {shown}")
          for value, shown in (("0", "0"), ("false", "False"),
                               ("''", "''"))],
    ], ids=["persona-list", "agent-intents-int", "responses-list",
            "slots-string", "user-intent-list", "persona-key", "context-key",
            "mixed-top-level-keys", "interaction-key", "responses-key",
            "user-intent-key", "no-terminal-intent",
            *[f"{section}-{value}" for section in ("persona", "context")
              for value in ("false", "0", "list", "text")],
            *[f"responses-{value}" for value in ("false", "0", "list",
                                                 "text")],
            *[f"slots-{value}" for value in ("0", "false", "text")]])
    def test_malformed_section_is_a_parse_error(self, parse, text, message):
        with pytest.raises(ParseError, match=message):
            parse(text)

    def test_the_well_formed_document_parses(self):
        model = parse_interaction_model(interaction_text())
        assert model.required_slots == {Intent("ASK"): ("genre",)}
        assert model.expected_responses == {
            Intent("ASK"): frozenset({Intent("RECOMMEND")}),
            Intent("DONE"): frozenset()}

    def test_role_defaults_and_yaml_shorthands(self):
        # a list of user intents, quoted numeric labels, an empty slot
        # list and a valueless DONE all read as their to_dict layout
        model = parse_interaction_model(
            "name: '7'\n"
            "user_intents: ['1', ACCEPT, REJECT, DONE]\n"
            "agent_intents: [RECOMMEND, '2']\n"
            "expected_responses:\n  '1': ['2']\n  DONE:\n"
            "terminal_intent: DONE\n")
        assert model.to_dict() == {
            "name": "7",
            "user_intents": ["1", "ACCEPT", "REJECT", "DONE"],
            "agent_intents": ["RECOMMEND", "2"],
            "required_slots": {},
            "expected_responses": {"1": ["2"], "DONE": []},
            "terminal_intent": "DONE",
            "accept_intent": "ACCEPT",
            "reject_intent": "REJECT",
            "recommendation_intents": ["RECOMMEND"],
        }
        # an empty or valueless slot list, or none at all, writes the same
        # document; so do a valueless expected_responses and none at all
        written = parse_interaction_model(interaction_text(
            slots="[]", responses="")).to_dict()
        assert written["required_slots"] == written["expected_responses"] == {}
        for ask in ("{required_slots: }", "{}", ""):
            assert parse_interaction_model(interaction_text().replace(
                "{required_slots: [genre]}", ask).replace(
                "expected_responses: {ASK: [RECOMMEND], DONE: }\n", "")
            ).to_dict() == written

    @pytest.mark.parametrize("sections", ["", "persona:\ncontext:\n",
                                          "persona: {}\ncontext: {}\n"])
    def test_a_missing_or_valueless_population_section_is_empty(
            self, sections):
        assert parse_population_config(f"n_users: 2\n{sections}") == \
            PopulationConfig(n_users=2)

    @pytest.mark.parametrize("parse, what", [
        (parse_population_config, "population config"),
        (parse_interaction_model, "interaction config"),
        (default_patterns, "default-template table"),
    ])
    def test_yaml_errors_name_the_document_and_line(self, parse, what):
        with pytest.raises(ParseError, match=f"malformed {what}") as exc:
            parse("a: 1\nb: [\n")
        assert exc.value.line is not None
        with pytest.raises(ParseError, match=f"{what} must be a mapping"):
            parse("- a list\n")


MOVIES = Domain(name="movies", slots=("title", "genre", "keyword"))

# every document reader, fed text alone
READERS = {
    "domain": parse_domain_config,
    "items": lambda text: load_item_collection(io.StringIO(text), MOVIES),
    "ratings": lambda text: load_ratings(io.StringIO(text),
                                         RatingScale(1.0, 5.0)),
    "population": parse_population_config,
    "interaction-model": parse_interaction_model,
    "default-templates": default_patterns,
    "transcript": loads,
}

# fragments of every document layout, so that the texts reach past the
# first syntax check
PIECES = [
    "name: m\n", "slots: [title, genre]\n", "n_users: 2\n", "seed: x\n",
    "persona:\n", "context:\n", "  patience: {2: 1}\n",
    "  time_of_day: {night: .inf}\n", "user_intents:\n", "  ASK:\n",
    "    required_slots: [genre]\n", "agent_intents: [RECOMMEND]\n",
    "expected_responses: {ASK: [RECOMMEND]}\n", "terminal_intent: ASK\n",
    "DISCLOSE: I like {genre}\n", "m1 | Alien | genre=sci-fi\n",
    "u1,m1,4\n", "user_id,item_id,rating\n", '{"schema_version": 1, ',
    '"dialogues": [', '{"dialogue_id": "d", "utterances": [',
    '{"participant": "USER", "text": "hi", "turn_index": 0}', "]", "}",
    "[", "{", ",", ":", "|", "=", ";", " ", "\n", "- ", "&a ", "*a ", "!!",
    "~", "null", "true", "1e999", "-1", "0", "nan", '"', "'", "#", "---\n",
    "\t", "\x00", "\u00e9",
]
ANY_TEXT = st.one_of(st.text(max_size=120),
                     st.lists(st.sampled_from(PIECES), max_size=30)
                     .map("".join))


class TestAnyText:
    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    @settings(max_examples=200, deadline=None)
    @given(text=ANY_TEXT)
    @example(text="u1,m1,4\r0")
    def test_parses_or_raises_a_toolkit_error(self, read, text):
        try:
            read(text)
        except CrssimError:
            pass

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_nesting_past_the_recursion_limit_is_a_parse_error(self, read):
        with pytest.raises(ParseError):
            read("[" * (sys.getrecursionlimit() + 1))


class TestItemCollection:
    def test_load_items(self, toy_domain):
        items = load_item_collection(io.StringIO(
            "# comment\n"
            "i1 | Margherita | cuisine=italian; dish=pizza\n"
            "\n"
            "i2 | Plain Toast |\n"
        ), toy_domain)
        assert len(items) == 2
        assert items.get("i1").attributes["cuisine"] == ("italian",)
        assert items.get("i2").attributes == {}

    def test_multi_value_attribute(self, toy_domain):
        items = load_item_collection(io.StringIO(
            "i1 | Fusion Bowl | cuisine=italian,thai\n"), toy_domain)
        assert items.get("i1").attributes["cuisine"] == ("italian", "thai")

    def test_bad_column_count_reports_line(self, toy_domain):
        with pytest.raises(ParseError) as exc:
            load_item_collection(io.StringIO("i1\n"), toy_domain)
        assert exc.value.line == 1

    def test_unknown_slot_reports_line(self, toy_domain):
        with pytest.raises(UnknownSlot) as exc:
            load_item_collection(io.StringIO(
                "i1 | X | color=red\n"), toy_domain)
        assert exc.value.line == 1

    def test_duplicate_item_reports_line(self, toy_domain):
        with pytest.raises(DuplicateItem) as exc:
            load_item_collection(io.StringIO(
                "i1 | X |\ni1 | Y |\n"), toy_domain)
        assert exc.value.line == 2

    @pytest.mark.parametrize("mark", ["\x85", "\u2028", "\x0c", "\x1c"])
    def test_unicode_line_breaks_stay_inside_a_name(self, toy_domain, mark):
        name = f"Caf\u00e9{mark}Noir"
        items = load_item_collection(io.StringIO(
            f"i1 | {name} | dish=pizza\ni2 | Toast |\n"), toy_domain)
        assert [(i.item_id, i.name, i.attributes) for i in items] == [
            ("i1", name, {"dish": ("pizza",)}), ("i2", "Toast", {})]
        with pytest.raises(DuplicateItem) as exc:
            load_item_collection(io.StringIO(
                f"i1 | {name} |\ni1 | Toast |\n"), toy_domain)
        assert exc.value.line == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_every_newline_convention_loads_alike(self, toy_domain,
                                                  newline):
        rows = ["# comment", "i1 | Margherita | dish=pizza", "",
                "i2 | Toast |", "i1 | Again |"]
        text = newline.join(rows)
        items = load_item_collection(io.StringIO(newline.join(rows[:4])),
                                     toy_domain)
        assert [(i.item_id, i.name, i.attributes) for i in items] == [
            ("i1", "Margherita", {"dish": ("pizza",)}), ("i2", "Toast", {})]
        with pytest.raises(DuplicateItem) as exc:
            load_item_collection(io.StringIO(text), toy_domain)
        assert exc.value.line == 5

    def test_by_name_case_insensitive(self, toy_items):
        assert toy_items.by_name("pad thai").item_id == "i3"
        assert toy_items.by_name("unheard of") is None

    def test_with_attribute_preserves_collection_order(self, toy_items):
        matches = toy_items.with_attribute("cuisine", "italian")
        assert [i.item_id for i in matches] == ["i1", "i2"]

    def test_values_for_slot_sorted(self, toy_items):
        assert toy_items.values_for_slot("cuisine") == ["italian", "thai"]
        assert toy_items.values_for_slot("dish") == ["noodles", "pasta",
                                                     "pizza"]

    def test_add_rejects_undeclared_slot(self, toy_domain):
        items = ItemCollection(toy_domain)
        with pytest.raises(UnknownSlot):
            items.add(Item("x", "X", {"color": ("red",)}))

    def test_bundled_items(self, movie_items):
        assert len(movie_items) == 24
        assert movie_items.by_name("The Matrix").item_id == "m01"


class TestRatings:
    def test_header_detected_and_skipped(self):
        rows = load_ratings(io.StringIO(
            "user_id,item_id,rating\nu1,i1,4\nu1,i2,2.5\n"),
            RatingScale(1, 5))
        assert rows == [Rating("u1", "i1", 4.0), Rating("u1", "i2", 2.5)]

    def test_headerless_file(self):
        rows = load_ratings(io.StringIO("u1,i1,3\n"), RatingScale(1, 5))
        assert rows == [Rating("u1", "i1", 3.0)]

    def test_non_numeric_rating_reports_line(self):
        with pytest.raises(ParseError) as exc:
            load_ratings(io.StringIO("u1,i1,4\nu1,i2,lots\n"),
                         RatingScale(1, 5))
        assert exc.value.line == 2

    def test_out_of_scale_reports_line(self):
        with pytest.raises(RatingOutOfScale) as exc:
            load_ratings(io.StringIO("u1,i1,9\n"), RatingScale(1, 5))
        assert exc.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            load_ratings(io.StringIO("u1,i1\n"), RatingScale(1, 5))

    def test_degenerate_scale_rejected(self):
        with pytest.raises(ValueError):
            RatingScale(5, 5)

    def test_bundled_ratings(self, movie_ratings):
        assert len(movie_ratings) == 698
        assert len({r.user_id for r in movie_ratings}) == 80
        assert all(1 <= r.rating <= 5 for r in movie_ratings)


class ScriptedParticipant(DialogueParticipant):
    """Replays a fixed list of responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.received = []

    def respond(self, incoming):
        self.received.append(incoming)
        return self.responses.pop(0)


class TestConnector:
    def test_agent_speaks_first(self):
        agent = ScriptedParticipant([Response("hello"),
                                     Response("bye", terminate=True)])
        user = ScriptedParticipant([Response("hi")])
        d = connect_dialogue(user, agent, max_turns=5)
        assert agent.received[0] is None
        assert d.utterances[0].participant is Participant.AGENT
        assert d.utterances[0].text == "hello"
        assert d.metadata["terminated_by"] == "agent"

    def test_user_termination(self):
        agent = ScriptedParticipant([Response("hello"), Response("more")])
        user = ScriptedParticipant([Response("bye", terminate=True)])
        d = connect_dialogue(user, agent, max_turns=5)
        assert d.metadata["terminated_by"] == "user"
        assert d.turns == 1

    def test_max_turns_caps_user_utterances(self):
        agent = ScriptedParticipant([Response("say more")] * 10)
        user = ScriptedParticipant([Response("blah")] * 10)
        d = connect_dialogue(user, agent, max_turns=3)
        assert d.metadata["terminated_by"] == "max_turns"
        assert d.turns == 3

    def test_agent_error_aborts_and_keeps_dialogue(self):
        class FailingAgent(DialogueParticipant):
            def respond(self, incoming):
                if incoming is None:
                    return Response("hello")
                raise AgentError("connection lost")

        user = ScriptedParticipant([Response("hi"), Response("again")])
        d = connect_dialogue(user, FailingAgent(), max_turns=5)
        assert d.metadata["aborted"] is True
        assert d.metadata["terminated_by"] == "aborted"
        assert "connection lost" in d.metadata["abort_cause"]
        assert d.turns == 1  # the pre-failure content is preserved

    def test_annotations_are_stored(self):
        agent = ScriptedParticipant([Response("hello")])
        user = ScriptedParticipant([Response(
            "i like action", terminate=True, intent=Intent("DISCLOSE"),
            slot_values=[SlotValue("genre", "action")], satisfaction=4)])
        d = connect_dialogue(user, agent, max_turns=5)
        stored = d.utterances[1]
        assert stored == Utterance(Participant.USER, "i like action", 1,
                                   Intent("DISCLOSE"),
                                   (SlotValue("genre", "action"),), 4)

    def test_labels_without_an_intent_are_dropped(self):
        agent = ScriptedParticipant([Response("hello")])
        user = ScriptedParticipant([Response(
            "action", terminate=True,
            slot_values=[SlotValue("genre", "action")], satisfaction=4)])
        d = connect_dialogue(user, agent, max_turns=5)
        assert d.utterances[1] == Utterance(Participant.USER, "action", 1)

    def test_a_user_reply_of_neither_text_nor_termination_raises(self):
        agent = ScriptedParticipant([Response("hello")])
        user = ScriptedParticipant([Response(None)])
        with pytest.raises(ValueError, match="neither text nor termination"):
            connect_dialogue(user, agent, max_turns=5)

    def test_stored_dialogue_alternates_with_increasing_indices(self):
        agent = ScriptedParticipant([Response(f"a{i}") for i in range(4)])
        user = ScriptedParticipant([Response("u0"), Response("u1"),
                                    Response("u2", terminate=True)])
        d = connect_dialogue(user, agent, max_turns=9)
        indices = [x.turn_index for x in d.utterances]
        assert indices == sorted(set(indices))
        for first, second in zip(d.utterances, d.utterances[1:]):
            assert first.participant is not second.participant

    def test_nonpositive_max_turns_rejected(self):
        with pytest.raises(ValueError):
            connect_dialogue(ScriptedParticipant([]), ScriptedParticipant([]),
                             max_turns=0)


class TestTranscript:
    def make_dialogue(self):
        return Dialogue("d1", "agent-x", "user-y", [
            u(Participant.AGENT, "hello", 0, intent="WELCOME"),
            u(Participant.USER, "i like action", 1, intent="DISCLOSE",
              slots=[SlotValue("genre", "action")], satisfaction=4),
            u(Participant.AGENT, "ok", 2),
        ], metadata={"terminated_by": "agent", "note": "fixture"})

    def test_round_trip_identity(self, tmp_path):
        original = [self.make_dialogue()]
        path = tmp_path / "t.json"
        export_dialogues(original, path)
        restored = import_dialogues(path)
        assert restored == original

    def test_unannotated_utterances_stay_unannotated(self):
        d = self.make_dialogue()
        restored = loads(dumps([d]))[0]
        assert restored.utterances[2].intent is None
        assert restored.utterances[1].intent == Intent("DISCLOSE")

    def test_schema_version_checked(self):
        text = dumps([]).replace('"schema_version": 1', '"schema_version": 99')
        with pytest.raises(SchemaVersionMismatch):
            loads(text)

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            loads('{"schema_version": 1}\n{"dialogue_id": }\n'
                  '{"dialogues": 1}\n')
        assert exc.value.line == 2

    def test_missing_dialogues_key(self):
        with pytest.raises(ParseError, match="dialogues"):
            loads('{"schema_version": 1}\n')

    def test_output_is_stable_utf8_json(self):
        d = Dialogue("d1", "a", "u", [
            u(Participant.AGENT, "héllo — ünïcode", 0)])
        text = dumps([d])
        assert "héllo" in text  # ensure_ascii disabled
        assert text.endswith("\n")
        assert dumps([d]) == text

    def test_bundled_sample_shape(self, sample_dialogues):
        assert len(sample_dialogues) == 8
        total_user = sum(d.turns for d in sample_dialogues)
        assert total_user == 37
        for d in sample_dialogues:
            for utt in d.utterances:
                assert utt.intent is not None
