"""Intent classification, slot extraction, satisfaction prediction.

Numeric expectations were hand-computed with an independent TF-IDF/cosine
oracle (raw term counts, idf = ln((1+N)/(1+df)) + 1, L2-normalized class
centroids) and are asserted to 1e-9.
"""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crssim import (
    Domain,
    EmptySample,
    Intent,
    Item,
    ItemCollection,
    SlotValue,
    UNKNOWN_INTENT,
    classify_intent,
    extract_slots,
    load_item_collection,
    predict_satisfaction,
    tokenize,
    train_intent_classifier,
    train_satisfaction_classifier,
    train_slot_extractor,
)
from crssim.dialogue import Dialogue, Participant, Utterance
from crssim.nlu import ExtractionLexicon, IntentModel, SatisfactionModel

A, B = Intent("A"), Intent("B")
GREET, ORDER, BYE = Intent("GREET"), Intent("ORDER"), Intent("BYE")

TOY2 = [("i like action", A), ("goodbye now", B)]
CORPUS3 = [
    ("hello there", GREET),
    ("hi there friend", GREET),
    ("i want pizza", ORDER),
    ("i want pasta now", ORDER),
    ("goodbye friend", BYE),
]


class TestTokenize:
    def test_lowercases_and_splits_on_non_alphanumerics(self):
        assert tokenize("I don't LIKE it!") == ["i", "don", "t", "like", "it"]

    def test_underscore_is_a_separator(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_empty(self):
        assert tokenize("...!?") == []


class TestClassifyOracle:
    def test_two_intent_oracle(self):
        model = train_intent_classifier(TOY2)
        intent, similarity = classify_intent(model, "action")
        assert intent == A
        assert similarity == pytest.approx(0.577350269189626, abs=1e-9)
        assert similarity == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    @pytest.mark.parametrize("query,expected,similarity", [
        ("i want pizza", ORDER, 0.829099381401653),
        ("pizza now", ORDER, 0.493644253629115),
        ("hello friend", GREET, 0.560523051993060),
        ("goodbye", BYE, 0.778282922804618),
        ("hello there", GREET, 0.781523666239205),
        ("hi there friend", GREET, 0.849025182453527),
        ("i want pasta now", ORDER, 0.884352159347386),
    ])
    def test_three_intent_oracle(self, query, expected, similarity):
        model = train_intent_classifier(CORPUS3)
        intent, score = classify_intent(model, query)
        assert intent == expected
        assert score == pytest.approx(similarity, abs=1e-9)

    def test_single_sample_class_verbatim_gives_unit_similarity(self):
        model = train_intent_classifier(CORPUS3)
        intent, score = classify_intent(model, "goodbye friend")
        assert intent == BYE
        assert score == pytest.approx(1.0, abs=1e-9)
        toy = train_intent_classifier(TOY2)
        for text, label in TOY2:
            intent, score = classify_intent(toy, text)
            assert intent == label
            assert score == pytest.approx(1.0, abs=1e-9)


class TestClassifyBehavior:
    def test_gibberish_falls_back(self):
        model = train_intent_classifier(TOY2)
        assert classify_intent(model, "qwxz blorp") == (UNKNOWN_INTENT, 0.0)

    def test_empty_text_falls_back(self):
        model = train_intent_classifier(TOY2)
        assert classify_intent(model, "") == (UNKNOWN_INTENT, 0.0)

    def test_custom_fallback_intent(self):
        other = Intent("OTHER")
        model = train_intent_classifier(TOY2, fallback_intent=other)
        assert classify_intent(model, "zzz")[0] == other

    def test_min_similarity_gate(self):
        model = train_intent_classifier(TOY2, min_similarity=0.99)
        assert classify_intent(model, "action movies rule") == (
            UNKNOWN_INTENT, 0.0)

    def test_tie_breaks_to_lexicographically_smallest(self):
        model = train_intent_classifier(
            [("shared words", Intent("ZULU")), ("shared words", Intent("ALFA"))])
        intent, score = classify_intent(model, "shared words")
        assert intent == Intent("ALFA")
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptySample):
            train_intent_classifier([])

    def test_round_trip_serialization(self):
        model = train_intent_classifier(CORPUS3)
        clone = IntentModel.from_dict(model.to_dict())
        for query in ("i want pizza", "hello friend", "goodbye", "zzz"):
            assert classify_intent(clone, query) == classify_intent(model,
                                                                    query)

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_similarity_always_in_unit_interval(self, text):
        model = train_intent_classifier(CORPUS3)
        intent, score = classify_intent(model, text)
        assert 0.0 <= score <= 1.0 + 1e-12
        assert intent in (GREET, ORDER, BYE, UNKNOWN_INTENT)

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_duplicating_the_corpus_preserves_every_argmax(self, copies):
        # k copies of every sample scale df and N together; the smoothing
        # terms shift similarities slightly but never the winning intent
        base = train_intent_classifier(CORPUS3)
        duplicated = train_intent_classifier(CORPUS3 * copies)
        queries = [text for text, _ in CORPUS3] + [
            "pizza now", "hello friend", "goodbye", "zzz", ""]
        for query in queries:
            assert classify_intent(base, query)[0] == classify_intent(
                duplicated, query)[0]


@pytest.fixture
def annotated_sample(toy_domain):
    def user(text, slots):
        return Utterance(Participant.USER, text, 1, Intent("DISCLOSE"),
                         tuple(SlotValue(s, v) for s, v in slots))

    return [Dialogue("d1", "a", "u", [
        Utterance(Participant.AGENT, "what dish?", 0, Intent("ELICIT")),
        user("I feel like pad thai tonight", [("dish", "pad thai")]),
    ])]


class TestSlotExtractor:
    def test_harvests_annotations_and_item_attributes(
            self, annotated_sample, toy_items, toy_domain):
        lexicon = train_slot_extractor(annotated_sample, toy_items, toy_domain)
        assert lexicon.entries["pad thai"] == ("dish", "pad thai")
        assert lexicon.entries["italian"] == ("cuisine", "italian")
        assert lexicon.max_phrase_len == 2

    def test_greedy_longest_match_wins(self, annotated_sample, toy_items,
                                       toy_domain):
        lexicon = train_slot_extractor(annotated_sample, toy_items, toy_domain)
        lexicon.entries["pad"] = ("dish", "pad")  # shorter decoy
        assert extract_slots(lexicon, "give me pad thai please") == [
            SlotValue("dish", "pad thai")]

    def test_matched_spans_do_not_overlap(self):
        lexicon = ExtractionLexicon(
            entries={"a b": ("x", "a b"), "b c": ("x", "b c")},
            max_phrase_len=2)
        assert extract_slots(lexicon, "a b c") == [SlotValue("x", "a b")]

    def test_extraction_is_case_insensitive(self, annotated_sample, toy_items,
                                            toy_domain):
        lexicon = train_slot_extractor(annotated_sample, toy_items, toy_domain)
        assert extract_slots(lexicon, "PAD THAI!") == [
            SlotValue("dish", "pad thai")]

    def test_cross_slot_collision_resolved_by_domain_order(self, caplog):
        domain = Domain("movies", ("genre", "keyword"))
        items = ItemCollection(domain)
        items.add(Item("m1", "One", {"genre": ("romance",),
                                     "keyword": ("romance",)}))
        with caplog.at_level("WARNING"):
            lexicon = train_slot_extractor([], items, domain)
        assert lexicon.entries["romance"] == ("genre", "romance")
        assert any("collision" in r.message for r in caplog.records)

    def test_same_slot_collision_takes_smaller_value(self):
        domain = Domain("movies", ("keyword",))
        items = ItemCollection(domain)
        items.add(Item("m1", "One", {"keyword": ("Twisty Plot",)}))
        items.add(Item("m2", "Two", {"keyword": ("twisty plot",)}))
        lexicon = train_slot_extractor([], items, domain)
        # both normalize to the phrase "twisty plot"
        assert lexicon.entries["twisty plot"] == ("keyword", "Twisty Plot")

    def test_item_names_harvested_under_title_slot(self, movies_domain,
                                                   movie_items):
        lexicon = train_slot_extractor([], movie_items, movies_domain)
        assert lexicon.entries["the matrix"] == ("title", "The Matrix")

    def test_empty_lexicon_rejected(self, toy_domain):
        with pytest.raises(EmptySample):
            train_slot_extractor([], ItemCollection(toy_domain), toy_domain)

    def test_round_trip_serialization(self, annotated_sample, toy_items,
                                      toy_domain):
        lexicon = train_slot_extractor(annotated_sample, toy_items, toy_domain)
        clone = ExtractionLexicon.from_dict(lexicon.to_dict())
        text = "carbonara and pad thai"
        assert extract_slots(clone, text) == extract_slots(lexicon, text)

    def test_bundled_lexicon_resolves_romance_to_genre(self, trained):
        assert trained.lexicon.entries["romance"] == ("genre", "romance")
        assert extract_slots(trained.lexicon, "I love romance") == [
            SlotValue("genre", "romance")]


class TestSatisfaction:
    SAMPLES = [
        ("this is terrible and useless", 1),
        ("not great honestly", 2),
        ("fine i guess", 3),
        ("pretty good suggestion", 4),
        ("wonderful i love it", 5),
    ]

    def test_recovers_training_labels(self):
        model = train_satisfaction_classifier(self.SAMPLES)
        for text, level in self.SAMPLES:
            assert predict_satisfaction(model, text) == level

    def test_no_overlap_falls_back_to_default(self):
        model = train_satisfaction_classifier(self.SAMPLES)
        assert predict_satisfaction(model, "zzz qqq") == 3

    def test_custom_default(self):
        model = train_satisfaction_classifier(self.SAMPLES, default_level=4)
        assert predict_satisfaction(model, "") == 4

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            train_satisfaction_classifier([("x", 6)])

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptySample):
            train_satisfaction_classifier([])

    def test_round_trip_serialization(self):
        model = train_satisfaction_classifier(self.SAMPLES)
        clone = SatisfactionModel.from_dict(model.to_dict())
        for text, _ in self.SAMPLES:
            assert predict_satisfaction(clone, text) == predict_satisfaction(
                model, text)

    def test_prediction_always_in_range(self):
        model = train_satisfaction_classifier(self.SAMPLES)
        for text in ("good", "terrible", "meh", "love love love", ""):
            assert 1 <= predict_satisfaction(model, text) <= 5


class TestTrainedOnBundledSample:
    def test_agent_intent_classifier_recognizes_mock_script(self, trained):
        from crssim.mock_agent import (ELICIT_TEXT, INFORM_TEXT,
                                       RECOMMEND_TEXT, WELCOME_TEXT)
        cases = [
            (WELCOME_TEXT, "WELCOME"),
            (ELICIT_TEXT, "ELICIT"),
            (RECOMMEND_TEXT.format(name="The Matrix"), "RECOMMEND"),
            (INFORM_TEXT.format(facts="destiny and kindness"), "INFORM"),
        ]
        for text, label in cases:
            intent, _ = classify_intent(trained.intent_model, text)
            assert intent == Intent(label), text

    def test_unseen_gibberish_is_unknown(self, trained):
        intent, score = classify_intent(trained.intent_model, "zzgrbl")
        assert intent == UNKNOWN_INTENT
        assert score == 0.0
