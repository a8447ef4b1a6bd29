"""Per-turn lookups answer exactly as the scans they replace.

Catalog indexes, the centroid order of the classifiers, the lexicon's
first-token set and the transition rows are all derived once; each test
here pins one derived table against the behaviour it must keep.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from crssim import (Domain, DuplicateItem, Intent, Item, ItemCollection,
                    SlotValue, UnknownSlot, classify_intent, extract_slots,
                    predict_satisfaction)
from crssim.interaction import END, START, TransitionModel
from crssim.nlu import ExtractionLexicon, IntentModel, tokenize, _tfidf


def movie_collection(*items: Item) -> ItemCollection:
    collection = ItemCollection(Domain("movies", ("genre", "keyword")))
    for item in items:
        collection.add(item)
    return collection


class TestCatalogIndex:
    def test_by_name_returns_the_first_item_of_a_shared_name(self):
        items = movie_collection(
            Item("m1", "Alien", {"genre": ("horror",)}),
            Item("m2", "alien", {"genre": ("sci-fi",)}))
        assert items.by_name("Alien").item_id == "m1"
        assert items.by_name("  ALIEN \n").item_id == "m1"
        assert items.by_name("Aliens") is None

    def test_with_attribute_ignores_case_and_keeps_collection_order(self):
        items = movie_collection(
            Item("m3", "Three", {"genre": ("Drama",)}),
            Item("m1", "One", {"genre": ("comedy",)}),
            Item("m2", "Two", {"genre": ("drama", "DRAMA", "comedy")}))
        assert [i.item_id for i in items.with_attribute("genre", "DRAMA")] \
            == ["m3", "m2"]
        assert [i.item_id for i in items.with_attribute("genre", "comedy")] \
            == ["m1", "m2"]
        assert items.with_attribute("keyword", "drama") == []
        assert items.with_attribute("genre", "western") == []

    def test_values_for_slot_are_sorted_and_distinct(self):
        items = movie_collection(
            Item("m1", "One", {"genre": ("drama", "comedy")}),
            Item("m2", "Two", {"genre": ("comedy", "Drama")}))
        assert items.values_for_slot("genre") == ["Drama", "comedy", "drama"]
        assert items.values_for_slot("keyword") == []

    def test_an_item_added_after_a_lookup_is_seen(self):
        items = movie_collection(Item("m1", "One", {"genre": ("drama",)}))
        assert items.values_for_slot("genre") == ["drama"]
        assert items.by_name("Two") is None
        items.add(Item("m2", "Two", {"genre": ("action",)}))
        assert items.values_for_slot("genre") == ["action", "drama"]
        assert items.by_name("two").item_id == "m2"
        assert [i.item_id for i in items.with_attribute("genre", "action")] \
            == ["m2"]

    def test_a_rejected_item_leaves_the_catalog_as_it_was(self):
        items = movie_collection(Item("m1", "One", {"genre": ("drama",)}))
        assert items.by_name("One").item_id == "m1"  # a lookup comes first

        def answers():
            return (len(items), items.by_name("One"), items.by_name("Two"),
                    items.with_attribute("genre", "drama"),
                    items.with_attribute("genre", "western"),
                    items.values_for_slot("genre"),
                    items.values_for_slot("keyword"))

        before = answers()
        with pytest.raises(DuplicateItem):
            items.add(Item("m1", "Two", {"genre": ("western",)}))
        with pytest.raises(UnknownSlot):
            items.add(Item("m2", "Two", {"genre": ("western",),
                                         "keyword": ("space",),
                                         "decade": ("1980s",)}))
        assert answers() == before

    def test_mutating_a_result_leaves_the_next_lookup_alone(self):
        items = movie_collection(
            Item("m1", "One", {"genre": ("drama",)}),
            Item("m2", "Two", {"genre": ("drama",)}))
        values = items.values_for_slot("genre")
        values.append("western")
        matches = items.with_attribute("genre", "drama")
        matches.clear()
        assert items.values_for_slot("genre") == ["drama"]
        assert [i.item_id for i in items.with_attribute("genre", "drama")] \
            == ["m1", "m2"]

    def test_lookups_stay_fast_on_a_large_catalog(self):
        genres = [f"genre{g}" for g in range(8)]
        items = movie_collection(*(
            Item(f"c{i:05d}", f"Title {i}",
                 {"genre": (genres[i % len(genres)],),
                  "keyword": (f"kw{i % 97}", f"kw{i % 89}")})
            for i in range(20_000)))
        start = time.perf_counter()
        for n in range(1_000):
            assert items.with_attribute("genre", genres[n % len(genres)])
            assert items.by_name(f"title {n * 19}") is not None
            assert len(items.values_for_slot("genre")) == len(genres)
        elapsed = time.perf_counter() - start
        # A scan of 20k items takes milliseconds per call, several seconds
        # for these 3,000 lookups; the index needs a few tens of ms.
        assert elapsed < 0.5, f"3,000 lookups took {elapsed:.2f}s"


def classify_by_scan(model: IntentModel, text: str) -> tuple[Intent, float]:
    """Reference: sort the labels and take the query norm per centroid."""
    query = _tfidf(tokenize(text), model.idf)
    if not query:
        return model.fallback_intent, 0.0
    best_intent, best_similarity = None, -1.0
    for intent in sorted(model.centroids):
        norm = math.sqrt(sum(w * w for w in query.values()))
        centroid = model.centroids[intent]
        similarity = (sum(w * centroid.get(t, 0.0) for t, w in query.items())
                      / norm) if norm else 0.0
        if similarity > best_similarity:
            best_intent, best_similarity = intent, similarity
    if best_similarity < model.min_similarity:
        return model.fallback_intent, 0.0
    return best_intent, best_similarity


def extract_by_scan(lexicon: ExtractionLexicon, text: str) -> list[SlotValue]:
    """Reference: try every phrase length at every position."""
    tokens = tokenize(text)
    found, i = [], 0
    while i < len(tokens):
        for length in range(min(lexicon.max_phrase_len, len(tokens) - i),
                            0, -1):
            entry = lexicon.entries.get(" ".join(tokens[i:i + length]))
            if entry is not None:
                found.append(SlotValue(slot=entry[0], value=entry[1]))
                i += length
                break
        else:
            i += 1
    return found


class TestClassifiers:
    def test_ties_break_toward_the_smallest_label(self):
        same = {"hello": 1.0}
        model = IntentModel(idf={"hello": 1.0}, centroids={
            Intent("ZED"): dict(same), Intent("ABE"): dict(same),
            Intent("MID"): dict(same)})
        assert classify_intent(model, "hello") == (Intent("ABE"), 1.0)

    def test_matches_the_scan_bit_for_bit(self, trained, sample_dialogues):
        texts = [u.text for d in sample_dialogues for u in d.utterances]
        texts += ["", "zzz", "I like action and what about comedy"]
        for text in texts:
            assert classify_intent(trained.intent_model, text) == \
                classify_by_scan(trained.intent_model, text)

    def test_satisfaction_matches_the_scan(self, trained, sample_dialogues):
        model = trained.satisfaction_model
        for text in [u.text for d in sample_dialogues for u in d.utterances]:
            query = _tfidf(tokenize(text), model.idf)
            norm = math.sqrt(sum(w * w for w in query.values()))
            best_level, best_similarity = model.default_level, 0.0
            for level in sorted(model.centroids) if norm else ():
                centroid = model.centroids[level]
                similarity = sum(w * centroid.get(t, 0.0)
                                 for t, w in query.items()) / norm
                if similarity > best_similarity:
                    best_level, best_similarity = level, similarity
            assert predict_satisfaction(model, text) == best_level

    def test_derived_fields_stay_out_of_persistence_and_equality(
            self, trained):
        for model in (trained.intent_model, trained.satisfaction_model,
                      trained.lexicon):
            doc = model.to_dict()
            assert not any(key.startswith("_") for key in doc)
            assert type(model).from_dict(doc) == model


class TestSlotExtraction:
    def test_text_without_a_phrase_start_finds_nothing(self):
        lexicon = ExtractionLexicon(
            entries={"pad thai": ("dish", "pad thai")}, max_phrase_len=2)
        assert extract_slots(lexicon, "thai food tonight please") == []

    def test_overlapping_phrases_take_the_longest_match(self):
        lexicon = ExtractionLexicon(entries={
            "new": ("x", "new"), "new york": ("city", "new york"),
            "new york pizza": ("dish", "new york pizza"),
            "york": ("x", "york"), "pizza": ("dish", "pizza")},
            max_phrase_len=3)
        assert extract_slots(lexicon, "new york pizza or new york or york") \
            == [SlotValue("dish", "new york pizza"),
                SlotValue("city", "new york"), SlotValue("x", "york")]

    def test_matches_the_scan(self, trained, sample_dialogues, movie_items):
        texts = [u.text for d in sample_dialogues for u in d.utterances]
        texts += [f"how about {item.name} or something {genre}"
                  for item in movie_items
                  for genre in item.attributes.get("genre", ())]
        for text in texts:
            assert extract_slots(trained.lexicon, text) == \
                extract_by_scan(trained.lexicon, text)


class TestTransitionDraws:
    def test_cached_rows_draw_as_sorting_every_time(self):
        a, b, c = Intent("A"), Intent("B"), Intent("C")
        probabilities = {
            START: {c: 0.2, a: 0.5, b: 0.3},
            a: {END: 0.4, c: 0.35, b: 0.25},
            b: {a: 0.5, END: 0.5},
            c: {END: 1.0},
        }
        model = TransitionModel(probabilities)
        ours, theirs = random.Random(99), random.Random(99)
        current = expected = START
        for _ in range(1_000):
            row = probabilities.get(expected, {END: 1.0})
            order = sorted(row)
            expected = theirs.choices(order, weights=[row[i] for i in order],
                                      k=1)[0]
            current = model.sample_next(current, ours)
            assert current == expected
            if current == END:
                current = expected = START
