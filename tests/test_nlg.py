"""Template harvesting, context-conditioned selection, instantiation."""

from __future__ import annotations

import io
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crssim import (
    ContextState,
    Dialogue,
    Intent,
    MissingSlotValue,
    ParseError,
    Participant,
    Polarity,
    SatisfactionBucket,
    Setting,
    SlotValue,
    Template,
    TemplateStore,
    TimeOfDay,
    Utterance,
    bucket_of,
    detect_polarity,
    extract_templates,
    instantiate,
    select_template,
)
from crssim.nlg import load_default_patterns

DISCLOSE = Intent("DISCLOSE")
ACCEPT = Intent("ACCEPT")


class ExplodingRng:
    def _boom(self, *args, **kwargs):
        raise AssertionError("rng consulted with a forced outcome")

    random = choice = choices = _boom


class TestBuckets:
    @pytest.mark.parametrize("level,bucket", [
        (1, SatisfactionBucket.LOW), (2, SatisfactionBucket.LOW),
        (3, SatisfactionBucket.MID),
        (4, SatisfactionBucket.HIGH), (5, SatisfactionBucket.HIGH),
    ])
    def test_bucket_of(self, level, bucket):
        assert bucket_of(level) is bucket


class TestPolarity:
    @pytest.mark.parametrize("text,polarity", [
        ("I like action movies", Polarity.POSITIVE),
        ("I love it, I want it", Polarity.POSITIVE),
        ("I hate horror", Polarity.NEGATIVE),
        ("I don't like horror", Polarity.NEGATIVE),  # negation wins
        ("No, not that one", Polarity.NEGATIVE),
        ("i dont want this", Polarity.NEGATIVE),
        ("Can you tell me more?", Polarity.NEUTRAL),
        ("A notable film", Polarity.NEUTRAL),  # 'no' must match whole words
        ("That was unwanted", Polarity.NEUTRAL),  # so must 'want'
    ])
    def test_detect_polarity(self, text, polarity):
        assert detect_polarity(text) is polarity


class TestTemplate:
    def test_slots_and_length_derived_from_pattern(self):
        t = Template(DISCLOSE, "I am looking for a {genre} movie.",
                     Polarity.POSITIVE)
        assert t.slots == frozenset({"genre"})
        assert t.length == 7
        assert t.bucket is SatisfactionBucket.ANY

    def test_instantiate_fills_placeholders(self):
        t = Template(DISCLOSE, "a {genre} movie about {keyword}",
                     Polarity.NEUTRAL)
        assert instantiate(t, {"genre": "action", "keyword": "heists"}) == \
            "a action movie about heists"

    def test_instantiate_missing_value(self):
        t = Template(DISCLOSE, "a {genre} movie", Polarity.NEUTRAL)
        with pytest.raises(MissingSlotValue, match="genre"):
            instantiate(t, {})

    def test_instantiate_ignores_extra_values(self):
        t = Template(ACCEPT, "Sounds great.", Polarity.POSITIVE)
        assert instantiate(t, {"genre": "x"}) == "Sounds great."

    def test_round_trip_serialization(self):
        t = Template(DISCLOSE, "a {genre} movie", Polarity.POSITIVE,
                     SatisfactionBucket.LOW)
        assert Template.from_dict(t.to_dict()) == t


def annotated(text, intent, slots=(), satisfaction=None, turn=1):
    return Utterance(Participant.USER, text, turn, Intent(intent),
                     tuple(SlotValue(s, v) for s, v in slots), satisfaction)


def one_dialogue(*user_utterances):
    utterances = []
    turn = 0
    for u in user_utterances:
        utterances.append(Utterance(Participant.AGENT, "agent side", turn,
                                    Intent("ELICIT")))
        utterances.append(replace(u, turn_index=turn + 1))
        turn += 2
    return Dialogue("d", "a", "u", utterances)


class TestExtractTemplates:
    def test_slot_values_become_placeholders(self):
        store = extract_templates([one_dialogue(
            annotated("I am looking for a good action movie.", "DISCLOSE",
                      [("genre", "action")]))])
        patterns = [t.pattern for t in store.templates_for(DISCLOSE)]
        assert patterns == ["I am looking for a good {genre} movie."]

    def test_longest_value_cut_first(self):
        store = extract_templates([one_dialogue(
            annotated("I love romantic action movies", "DISCLOSE",
                      [("genre", "action"), ("keyword", "romantic action")]))])
        (template,) = store.templates_for(DISCLOSE)
        assert template.pattern == "I love {keyword} movies"
        assert template.slots == frozenset({"keyword"})

    def test_only_first_occurrence_replaced(self):
        store = extract_templates([one_dialogue(
            annotated("action action forever", "DISCLOSE",
                      [("genre", "action")]))])
        (template,) = store.templates_for(DISCLOSE)
        assert template.pattern == "{genre} action forever"

    def test_polarity_and_bucket_recorded(self):
        store = extract_templates([one_dialogue(
            annotated("I hate slow movies", "DISCLOSE", satisfaction=2))])
        (template,) = store.templates_for(DISCLOSE)
        assert template.polarity is Polarity.NEGATIVE
        assert template.bucket is SatisfactionBucket.LOW

    def test_unlabeled_utterance_gets_any_bucket(self):
        store = extract_templates([one_dialogue(
            annotated("Sure, fine by me", "ACCEPT"))])
        (template,) = store.templates_for(ACCEPT)
        assert template.bucket is SatisfactionBucket.ANY

    def test_exact_duplicates_collapse(self):
        d = one_dialogue(
            annotated("Sounds good.", "ACCEPT", satisfaction=4),
            annotated("Sounds good.", "ACCEPT", satisfaction=4, turn=3))
        store = extract_templates([d])
        assert len(store.templates_for(ACCEPT)) == 1

    def test_same_pattern_different_bucket_kept_separately(self):
        d = one_dialogue(
            annotated("Sounds good.", "ACCEPT", satisfaction=4),
            annotated("Sounds good.", "ACCEPT", satisfaction=2, turn=3))
        store = extract_templates([d])
        assert len(store.templates_for(ACCEPT)) == 2

    def test_agent_utterances_ignored(self):
        store = extract_templates([one_dialogue(annotated("hi", "GREETING"))])
        assert store.templates_for(Intent("ELICIT")) == []

    def test_defaults_synthesized_for_every_model_intent(self, crsv1):
        store = extract_templates([])
        for intent in crsv1.user_intents:
            needed = crsv1.slots_for(intent)
            default = store.default_for(intent, needed)
            assert default.slots >= frozenset(needed)

    def test_round_trip_serialization(self, sample_dialogues):
        store = extract_templates(sample_dialogues)
        clone = TemplateStore.from_dict(store.to_dict())
        assert clone.templates == store.templates
        assert clone.default_patterns == store.default_patterns

    def test_stored_defaults_of_older_documents_are_ignored(
            self, sample_dialogues):
        store = extract_templates(sample_dialogues)
        older = {**store.to_dict(), "default_templates": {"DISCLOSE": {
            "intent": "DISCLOSE", "pattern": "I am looking for {genre}.",
            "polarity": "NEUTRAL", "bucket": "ANY"}}}
        clone = TemplateStore.from_dict(older)
        assert clone.to_dict() == store.to_dict()
        assert clone.default_for(DISCLOSE).slots == frozenset()


class TestDefaults:
    def test_slot_marker_specialized_sorted_and_joined(self):
        store = TemplateStore(default_patterns={
            "DISCLOSE": "I am looking for {slot}."})
        t = store.default_for(DISCLOSE, {"keyword", "genre"})
        assert t.pattern == "I am looking for {genre} and {keyword}."

    def test_marker_without_needed_slots_says_something(self):
        store = TemplateStore(default_patterns={
            "DISCLOSE": "I am looking for {slot}."})
        assert store.default_for(DISCLOSE).pattern == \
            "I am looking for something."

    def test_builtin_fallbacks_cover_unknown_intents(self):
        store = TemplateStore()
        assert store.default_for(Intent("WIBBLE")).pattern == "Okay."
        assert store.default_for(Intent("WIBBLE"), {"genre"}).pattern == \
            "I am thinking of {genre}."

    def test_slotless_default_fills_without_values(self, sample_dialogues):
        store = extract_templates(sample_dialogues)
        default = store.default_for(DISCLOSE, set())
        assert default.slots == frozenset()
        assert instantiate(default, {}) == "I am looking for something."

    def test_default_naming_an_unneeded_slot_is_passed_over(self):
        store = TemplateStore(default_patterns={
            "DISCLOSE": "I want a {genre} film.",
            "WIBBLE": "More {genre}, please."})
        assert store.default_for(DISCLOSE, {"genre"}).pattern == \
            "I want a {genre} film."
        # builtin pattern next, then the generic one
        assert store.default_for(DISCLOSE).pattern == \
            "I am looking for something."
        assert store.default_for(DISCLOSE, {"keyword"}).pattern == \
            "I am looking for {keyword}."
        assert store.default_for(Intent("WIBBLE")).pattern == "Okay."
        assert store.default_for(Intent("WIBBLE"), {"year"}).pattern == \
            "I am thinking of {year}."

    @given(st.dictionaries(st.sampled_from(["DISCLOSE", "REVISE", "WIBBLE"]),
                           st.sampled_from(["{slot}", "{genre}", "{year}",
                                            "{genre} and {slot}", "hi"])),
           st.sampled_from(["DISCLOSE", "REVISE", "WIBBLE", "DONE"]),
           st.frozensets(st.sampled_from(["genre", "keyword", "year"])))
    def test_default_never_needs_a_slot_it_was_not_given(
            self, patterns, intent, needed):
        template = TemplateStore(default_patterns=patterns).default_for(
            Intent(intent), needed)
        assert template.slots <= needed
        instantiate(template, {slot: "x" for slot in needed})

    def test_load_default_patterns(self):
        patterns = load_default_patterns(
            io.StringIO("ACCEPT: Fine.\nDONE: Bye now.\n"))
        assert patterns == {"ACCEPT": "Fine.", "DONE": "Bye now."}
        with pytest.raises(ParseError):
            load_default_patterns(io.StringIO("- just\n- a list\n"))

    @pytest.mark.parametrize("text, error", [
        ("GREETING:\n", "table\\['GREETING'\\] must be text, not None"),
        ("DONE: yes\n", "table\\['DONE'\\] must be text, not True"),
        ("NO: Nope.\n", "a key of default-template table must be text, "
                        "not False"),
        ("DONE: 1\n", "table\\['DONE'\\] must be text, not 1"),
    ])
    def test_a_default_pattern_yaml_does_not_read_as_text_is_refused(
            self, text, error):
        with pytest.raises(ParseError, match=f"{error}: quote it"):
            load_default_patterns(io.StringIO(text))


def ctx(satisfaction=3, time_of_day=TimeOfDay.EVENING, setting=Setting.ALONE):
    return ContextState(time_of_day=time_of_day, setting=setting,
                        satisfaction=satisfaction)


def store_of(*templates):
    store = TemplateStore()
    for t in templates:
        store.add(t)
    return store


class TestSelectTemplate:
    LOW_NEG = Template(DISCLOSE, "ugh, {genre} then", Polarity.NEGATIVE,
                       SatisfactionBucket.LOW)
    MID_POS = Template(DISCLOSE, "a {genre} movie would be nice today",
                       Polarity.POSITIVE, SatisfactionBucket.MID)
    HIGH_POS = Template(DISCLOSE, "I love {genre} movies so much!",
                        Polarity.POSITIVE, SatisfactionBucket.HIGH)
    ANY_POS = Template(DISCLOSE, "maybe a {genre} movie",
                       Polarity.POSITIVE, SatisfactionBucket.ANY)

    def test_full_match_wins(self):
        store = store_of(self.LOW_NEG, self.MID_POS, self.HIGH_POS)
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.NEGATIVE, ctx(satisfaction=1),
                                 ExplodingRng())
        assert chosen == self.LOW_NEG

    def test_exact_bucket_preferred_over_any(self):
        store = store_of(self.MID_POS, self.ANY_POS)
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.POSITIVE, ctx(satisfaction=3),
                                 ExplodingRng())
        assert chosen == self.MID_POS

    def test_bucket_relaxed_when_no_exact_match(self):
        store = store_of(self.HIGH_POS)
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.POSITIVE, ctx(satisfaction=1),
                                 ExplodingRng())
        assert chosen == self.HIGH_POS

    def test_polarity_relaxed_last(self):
        store = store_of(self.MID_POS)
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.NEGATIVE, ctx(satisfaction=3),
                                 ExplodingRng())
        assert chosen == self.MID_POS

    def test_slot_coverage_is_mandatory(self):
        slotless = Template(DISCLOSE, "anything really", Polarity.POSITIVE,
                            SatisfactionBucket.MID)
        store = store_of(slotless)
        store.default_patterns = {"DISCLOSE": "I am looking for {slot}."}
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.POSITIVE, ctx(), ExplodingRng())
        assert chosen.pattern == "I am looking for {genre}."

    def test_default_when_store_empty(self):
        store = TemplateStore(default_patterns={"DISCLOSE": "hmm {slot}"})
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.POSITIVE, ctx(), ExplodingRng())
        assert chosen.pattern == "hmm {genre}"

    def test_night_prefers_the_shorter_half(self):
        short = Template(DISCLOSE, "{genre} please", Polarity.POSITIVE,
                         SatisfactionBucket.MID)
        long = Template(
            DISCLOSE,
            "i would very much appreciate a {genre} movie if possible",
            Polarity.POSITIVE, SatisfactionBucket.MID)
        store = store_of(short, long)
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.POSITIVE,
                                 ctx(time_of_day=TimeOfDay.NIGHT),
                                 ExplodingRng())
        assert chosen == short

    def test_group_setting_prefers_short_too(self):
        short = Template(ACCEPT, "fine", Polarity.POSITIVE,
                         SatisfactionBucket.MID)
        long = Template(ACCEPT, "that is a wonderful suggestion honestly",
                        Polarity.POSITIVE, SatisfactionBucket.MID)
        store = store_of(short, long)
        chosen = select_template(store, ACCEPT, (), Polarity.POSITIVE,
                                 ctx(setting=Setting.GROUP), ExplodingRng())
        assert chosen == short

    def test_daytime_alone_considers_both_lengths(self):
        short = Template(ACCEPT, "fine", Polarity.POSITIVE,
                         SatisfactionBucket.MID)
        long = Template(ACCEPT, "that is a wonderful suggestion honestly",
                        Polarity.POSITIVE, SatisfactionBucket.MID)
        store = store_of(short, long)
        seen = {
            select_template(store, ACCEPT, (), Polarity.POSITIVE, ctx(),
                            random.Random(seed)).pattern
            for seed in range(30)
        }
        assert seen == {short.pattern, long.pattern}

    def test_single_candidate_skips_rng(self):
        store = store_of(self.MID_POS)
        chosen = select_template(store, DISCLOSE, {"genre"},
                                 Polarity.POSITIVE, ctx(), ExplodingRng())
        assert chosen == self.MID_POS

    def test_selection_is_seed_deterministic(self):
        store = store_of(self.MID_POS, self.ANY_POS, self.HIGH_POS)
        picks_a = [select_template(store, DISCLOSE, {"genre"},
                                   Polarity.POSITIVE, ctx(4),
                                   random.Random(9)).pattern
                   for _ in range(5)]
        picks_b = [select_template(store, DISCLOSE, {"genre"},
                                   Polarity.POSITIVE, ctx(4),
                                   random.Random(9)).pattern
                   for _ in range(5)]
        assert picks_a == picks_b


class TestRoundTripOnBundledSample:
    def test_every_user_utterance_reproducible(self, sample_dialogues):
        """Harvest, then re-instantiate each user utterance from its own
        annotations: the original text must come back byte-for-byte."""
        from crssim.nlg import _pattern_from

        store = extract_templates(sample_dialogues)
        checked = 0
        for dialogue in sample_dialogues:
            for utterance in dialogue.utterances:
                if utterance.participant is not Participant.USER:
                    continue
                pattern = _pattern_from(utterance)
                matches = [t for t in store.templates_for(utterance.intent)
                           if t.pattern == pattern]
                assert matches, f"no template harvested for {utterance.text!r}"
                values = {sv.slot: sv.value for sv in utterance.slot_values}
                assert instantiate(matches[0], values) == utterance.text
                checked += 1
        assert checked == 37


_PATTERN_POOL = [
    "{genre} now",
    "fine",
    "a {genre} movie please",
    "i would love to watch a {genre} film tonight",
    "how about {genre}",
    "anything goes",
    "absolutely not {genre}",
    "maybe something with more {genre} energy in it",
]

_template_st = st.builds(
    Template,
    intent=st.just(DISCLOSE),
    pattern=st.sampled_from(_PATTERN_POOL),
    polarity=st.sampled_from(list(Polarity)),
    bucket=st.sampled_from(list(SatisfactionBucket)),
)


class TestCascadeExactness:
    @given(
        templates=st.lists(_template_st, min_size=0, max_size=12),
        satisfaction=st.integers(min_value=1, max_value=5),
        night=st.booleans(),
        group=st.booleans(),
        polarity=st.sampled_from(list(Polarity)),
        needs_genre=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=300, deadline=None)
    def test_selection_comes_from_the_earliest_nonempty_stage(
            self, templates, satisfaction, night, group, polarity,
            needs_genre, seed):
        import statistics

        store = store_of(*templates)
        context = ctx(
            satisfaction=satisfaction,
            time_of_day=TimeOfDay.NIGHT if night else TimeOfDay.EVENING,
            setting=Setting.GROUP if group else Setting.ALONE)
        needed = frozenset({"genre"} if needs_genre else set())
        bucket = bucket_of(satisfaction)
        prefers_short = night or group

        base = [t for t in store.templates_for(DISCLOSE)
                if t.slots >= needed]

        def stage(check_polarity, check_bucket, check_length):
            out = base
            if check_polarity:
                out = [t for t in out if t.polarity is polarity]
            if check_bucket:
                out = [t for t in out if t.bucket is bucket]
            if check_length and out and prefers_short:
                median = statistics.median(t.length for t in out)
                out = [t for t in out if t.length <= median]
            return out

        expected_pool = None
        for flags in ((True, True, True), (True, True, False),
                      (True, False, False), (False, False, False)):
            candidates = stage(*flags)
            if candidates:
                expected_pool = candidates
                break

        chosen = select_template(store, DISCLOSE, needed, polarity, context,
                                 random.Random(seed))
        if expected_pool is None:
            assert chosen == store.default_for(DISCLOSE, needed)
        else:
            assert chosen in expected_pool
