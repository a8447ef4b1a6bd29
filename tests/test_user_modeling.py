"""Preference graphs, persona/context, satisfaction dynamics, populations."""

from __future__ import annotations

import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crssim import (
    ContextState,
    DayType,
    InsufficientRatingsUsers,
    ParseError,
    Persona,
    PopulationConfig,
    PreferenceGraph,
    Rating,
    RatingScale,
    SatisfactionEvent,
    Setting,
    TimeOfDay,
    build_preference_graph,
    generate_population,
    parse_population_config,
    update_satisfaction,
)

SCALE = RatingScale(1.0, 5.0)


def make_food_items():
    from crssim import Domain, Item, ItemCollection
    items = ItemCollection(Domain(name="food", slots=("dish", "cuisine")))
    items.add(Item("i1", "Margherita", {"cuisine": ("italian",),
                                        "dish": ("pizza",)}))
    items.add(Item("i2", "Carbonara", {"cuisine": ("italian",),
                                       "dish": ("pasta",)}))
    items.add(Item("i3", "Pad Thai", {"cuisine": ("thai",),
                                      "dish": ("noodles",)}))
    return items


class TestPreferenceGraph:
    @pytest.mark.parametrize("rating,weight", [
        (5.0, 1.0), (1.0, -1.0), (3.0, 0.0), (4.0, 0.5), (2.0, -0.5),
    ])
    def test_item_weight_maps_rating_linearly(self, toy_items, rating,
                                              weight):
        graph = build_preference_graph([Rating("u", "i1", rating)],
                                       toy_items, SCALE, random.Random(0))
        assert graph.item_pref["i1"] == pytest.approx(weight, abs=1e-12)

    def test_repeated_ratings_are_averaged(self, toy_items):
        graph = build_preference_graph(
            [Rating("u", "i1", 1.0), Rating("u", "i1", 5.0)],
            toy_items, SCALE, random.Random(0))
        assert graph.item_pref["i1"] == pytest.approx(0.0, abs=1e-12)

    def test_attribute_weight_is_mean_of_item_weights(self, toy_items):
        # i1 and i2 share cuisine=italian; weights +1 and -0.5
        graph = build_preference_graph(
            [Rating("u", "i1", 5.0), Rating("u", "i2", 2.0)],
            toy_items, SCALE, random.Random(0))
        assert graph.attr_pref[("cuisine", "italian")] == pytest.approx(
            0.25, abs=1e-12)
        assert graph.attr_pref[("dish", "pizza")] == pytest.approx(
            1.0, abs=1e-12)

    def test_duplicate_attribute_values_counted_once(self, toy_domain):
        from crssim import Item, ItemCollection
        items = ItemCollection(toy_domain)
        items.add(Item("i1", "Double", {"cuisine": ("thai", "thai")}))
        graph = build_preference_graph([Rating("u", "i1", 5.0)], items,
                                       SCALE, random.Random(0))
        assert graph.attr_pref[("cuisine", "thai")] == pytest.approx(1.0)

    def test_unknown_item_ratings_skipped(self, toy_items, caplog):
        with caplog.at_level("WARNING"):
            graph = build_preference_graph([Rating("u", "ghost", 5.0)],
                                           toy_items, SCALE, random.Random(0))
        assert graph.item_pref == {}
        assert any("unknown item" in r.message for r in caplog.records)

    @given(shuffler=st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permuting_ratings_leaves_graph_unchanged(self, shuffler):
        items = make_food_items()
        ratings = [Rating("u", "i1", 5.0), Rating("u", "i2", 2.0),
                   Rating("u", "i3", 4.0), Rating("u", "i1", 3.0),
                   Rating("u", "i2", 1.0)]
        reference = build_preference_graph(ratings, items, SCALE,
                                           random.Random(1))
        shuffled = list(ratings)
        shuffler.shuffle(shuffled)
        permuted = build_preference_graph(shuffled, items, SCALE,
                                          random.Random(1))
        assert permuted.item_pref == reference.item_pref
        assert permuted.attr_pref == reference.attr_pref

    def test_cold_start_is_frozen_and_in_range(self, toy_items):
        graph = PreferenceGraph(toy_items, random.Random(42))
        first = graph.get_item_preference("i1")
        assert -1.0 <= first <= 1.0
        assert graph.get_item_preference("i1") == first
        attr = graph.get_attribute_preference("cuisine", "thai")
        assert -1.0 <= attr <= 1.0
        assert graph.get_attribute_preference("cuisine", "thai") == attr

    def test_cold_start_is_seed_deterministic(self, toy_items):
        a = PreferenceGraph(toy_items, random.Random(7))
        b = PreferenceGraph(toy_items, random.Random(7))
        assert a.get_item_preference("i2") == b.get_item_preference("i2")
        assert a.get_attribute_preference(
            "dish", "pizza") == b.get_attribute_preference("dish", "pizza")

    @given(seed=st.integers(0, 2**32 - 1),
           queries=st.lists(st.tuples(st.booleans(),
                                      st.sampled_from(["m01", "m02"]),
                                      st.sampled_from(["action", "drama"])),
                            max_size=12))
    def test_cold_starts_are_draws_of_the_given_stream(self, movie_items,
                                                       seed, queries):
        graph = PreferenceGraph(movie_items, random.Random(seed))
        stream = random.Random(seed)
        expected: dict = {}
        for is_item, item_id, genre in queries:
            key = item_id if is_item else ("genre", genre)
            if key not in expected:
                expected[key] = stream.uniform(-1.0, 1.0)
            got = (graph.get_item_preference(item_id) if is_item
                   else graph.get_attribute_preference("genre", genre))
            assert got == expected[key]

    def test_grounded_weight_not_overwritten_by_cold_start(self, toy_items):
        graph = build_preference_graph([Rating("u", "i1", 5.0)], toy_items,
                                       SCALE, random.Random(0))
        assert graph.get_item_preference("i1") == 1.0
        assert graph.get_item_preference("i1") == 1.0

    def test_unknown_slot_rejected(self, toy_items):
        from crssim import UnknownSlot
        graph = PreferenceGraph(toy_items, random.Random(0))
        with pytest.raises(UnknownSlot):
            graph.get_attribute_preference("color", "red")

    def test_known_attribute_values_filters_by_slot(self, toy_items):
        graph = build_preference_graph(
            [Rating("u", "i1", 5.0), Rating("u", "i3", 1.0)],
            toy_items, SCALE, random.Random(0))
        known = dict(graph.known_attribute_values("cuisine"))
        assert known == {"italian": 1.0, "thai": -1.0}
        assert graph.known_attribute_values("title") == []


class TestPersonaAndContext:
    def test_persona_validation(self):
        Persona(patience=1, cooperativeness=0.0)
        with pytest.raises(ValueError):
            Persona(patience=0, cooperativeness=0.5)
        with pytest.raises(ValueError):
            Persona(patience=2, cooperativeness=1.5)

    def test_context_defaults(self):
        ctx = ContextState()
        assert ctx.time_of_day is TimeOfDay.EVENING
        assert ctx.day_type is DayType.WEEKDAY
        assert ctx.setting is Setting.ALONE
        assert ctx.satisfaction == 3

    @pytest.mark.parametrize("raw,clamped", [(0, 1), (-3, 1), (9, 5), (4, 4)])
    def test_satisfaction_clamped_at_construction(self, raw, clamped):
        assert ContextState(satisfaction=raw).satisfaction == clamped


class TestUpdateSatisfaction:
    @pytest.mark.parametrize("event,expected", [
        (SatisfactionEvent.EXPECTED_RESPONSE, 3),
        (SatisfactionEvent.UNEXPECTED_RESPONSE, 2),
        (SatisfactionEvent.GOOD_RECOMMENDATION, 4),
        (SatisfactionEvent.BAD_RECOMMENDATION, 2),
    ])
    def test_event_deltas(self, event, expected):
        ctx = ContextState(satisfaction=3)
        assert update_satisfaction(ctx, event).satisfaction == expected

    def test_clamped_at_both_ends(self):
        low = ContextState(satisfaction=1)
        assert update_satisfaction(
            low, SatisfactionEvent.BAD_RECOMMENDATION).satisfaction == 1
        high = ContextState(satisfaction=5)
        assert update_satisfaction(
            high, SatisfactionEvent.GOOD_RECOMMENDATION).satisfaction == 5

    def test_returns_new_state_and_preserves_other_fields(self):
        ctx = ContextState(time_of_day=TimeOfDay.NIGHT, satisfaction=3)
        updated = update_satisfaction(ctx,
                                      SatisfactionEvent.UNEXPECTED_RESPONSE)
        assert ctx.satisfaction == 3  # original untouched
        assert updated.time_of_day is TimeOfDay.NIGHT


class TestPopulationConfig:
    def test_defaults_fill_missing_tables(self):
        config = PopulationConfig(n_users=2)
        assert config.patience == {3: 1.0}
        assert config.cooperativeness == {0.8: 1.0}
        assert config.satisfaction == {3: 1.0}

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_users=2, patience={2: -1.0, 3: 2.0})
        with pytest.raises(ValueError):
            PopulationConfig(n_users=2, patience={2: 0.0})

    @pytest.mark.parametrize("weights", [
        "{2: .inf}", "{2: .nan, 3: 1}", "{2: 1.0e+308, 3: 1.0e+308}"],
        ids=["infinite", "nan", "overflowing-sum"])
    def test_non_finite_weights_rejected_when_parsed(self, weights):
        with pytest.raises(ParseError, match="trait 'patience'"):
            parse_population_config(
                f"n_users: 2\npersona:\n  patience: {weights}\n")

    @pytest.mark.parametrize("trait, table", [
        ("patience", "{2: true}"), ("patience", "{3: '0.5'}"),
        ("cooperativeness", "{true: 1}"), ("cooperativeness", "{'0.5': 1}"),
    ], ids=["bool-weight", "string-weight", "bool-cooperativeness",
            "string-cooperativeness"])
    def test_non_number_in_a_table_rejected_naming_the_trait(self, trait,
                                                             table):
        with pytest.raises(ParseError,
                           match=f"{trait}.* must be a number"):
            parse_population_config(
                f"n_users: 2\npersona:\n  {trait}: {table}\n")

    def test_int_and_float_weights_and_cooperativeness_parse(self):
        config = parse_population_config(
            "n_users: 2\npersona:\n  patience: {2: 1, 3: 0.5}\n"
            "  cooperativeness: {1: 2, 0.5: 1.5}\n")
        assert config.patience == {2: 1.0, 3: 0.5}
        assert config.cooperativeness == {1.0: 2.0, 0.5: 1.5}
        assert all(type(key) is float for key in config.cooperativeness)

    def test_nonpositive_n_users_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_users=0)

    def test_parse_full_document(self):
        config = parse_population_config(
            "n_users: 4\n"
            "seed: 9\n"
            "ground_in_ratings: false\n"
            "persona:\n"
            "  patience: {2: 0.5, 5: 0.5}\n"
            "  cooperativeness: {0.9: 1.0}\n"
            "context:\n"
            "  time_of_day: {night: 1.0}\n"
            "  day_type: {weekend: 1.0}\n"
            "  setting: {group: 1.0}\n"
            "  satisfaction: {4: 1.0}\n")
        assert config.n_users == 4
        assert config.seed == 9
        assert config.ground_in_ratings is False
        assert config.patience == {2: 0.5, 5: 0.5}
        assert config.time_of_day == {TimeOfDay.NIGHT: 1.0}
        assert config.day_type == {DayType.WEEKEND: 1.0}
        assert config.setting == {Setting.GROUP: 1.0}
        assert config.satisfaction == {4: 1.0}

    def test_missing_n_users_rejected(self):
        with pytest.raises(ParseError, match="n_users"):
            parse_population_config("seed: 1\n")

    def test_unknown_top_level_key_rejected(self):
        # typos must not silently fall back to defaults
        with pytest.raises(ParseError, match="unknown population config"):
            parse_population_config("n_users: 3\nground_prefs: false\n")

    @pytest.mark.parametrize("document, key", [
        ("n_users: 2\npersona:\n  patience: 3\n", "patience"),
        ("n_users: 2\nground_in_ratings: 'false'\n", "ground_in_ratings"),
        ("n_users: 2\nground_in_ratings: 0\n", "ground_in_ratings"),
        ("n_users: 2.7\n", "n_users"),
        ("n_users: true\n", "n_users"),
        ("n_users: '3'\n", "n_users"),
        ("n_users: 2\nseed: 1.9\n", "seed"),
        ("n_users: 2\nseed: true\n", "seed"),
        ("n_users: 2\npersona:\n  patience: {2.5: 1}\n", "patience"),
        ("n_users: 2\npersona:\n  patience: {true: 1}\n", "patience"),
        ("n_users: 2\ncontext:\n  satisfaction: {2.5: 1}\n",
         "satisfaction"),
    ])
    def test_malformed_config_rejected_by_key(self, document, key):
        with pytest.raises(ParseError, match=key):
            parse_population_config(document)

    def test_unknown_enum_value_rejected(self):
        with pytest.raises(ParseError):
            parse_population_config(
                "n_users: 2\ncontext:\n  time_of_day: {dusk: 1.0}\n")

    def test_bundled_population_asset(self):
        from crssim import bundled, load_population_config
        config = load_population_config(
            bundled.asset_path(bundled.POPULATION))
        assert config.n_users == 50
        assert config.seed == 0
        assert config.ground_in_ratings is True
        assert set(config.patience) == {2, 3, 5}


class TestGeneratePopulation:
    def ungrounded(self, n, seed=0, **tables):
        return PopulationConfig(n_users=n, seed=seed, ground_in_ratings=False,
                                **tables)

    def test_deterministic_given_config(self, movie_ratings):
        config = PopulationConfig(n_users=6, seed=3)
        first = generate_population(config, movie_ratings)
        second = generate_population(config, movie_ratings)
        for a, b in zip(first, second):
            assert a.user_id == b.user_id
            assert a.seed == b.seed
            assert a.persona == b.persona
            assert a.context == b.context
            assert a.ratings == b.ratings

    def test_seed_changes_population(self, movie_ratings):
        base = generate_population(PopulationConfig(n_users=10, seed=0),
                                   movie_ratings)
        other = generate_population(PopulationConfig(n_users=10, seed=1),
                                    movie_ratings)
        assert [p.seed for p in base] != [p.seed for p in other]

    def test_user_ids_zero_padded_in_order(self):
        profiles = generate_population(self.ungrounded(3), [])
        assert [p.user_id for p in profiles] == [
            "sim_user_0000", "sim_user_0001", "sim_user_0002"]

    def test_grounding_requires_enough_distinct_raters(self):
        ratings = [Rating("u1", "i1", 4.0), Rating("u2", "i2", 2.0)]
        config = PopulationConfig(n_users=3, ground_in_ratings=True)
        with pytest.raises(InsufficientRatingsUsers):
            generate_population(config, ratings)

    def test_grounded_profiles_hold_one_raters_rows(self, movie_ratings):
        config = PopulationConfig(n_users=5, seed=11)
        profiles = list(generate_population(config, movie_ratings))
        by_user = {}
        for r in movie_ratings:
            by_user.setdefault(r.user_id, []).append(r)
        raters = [profile.ratings[0].user_id for profile in profiles]
        assert len(set(raters)) == len(profiles)
        for profile, rater in zip(profiles, raters):
            assert profile.ratings == tuple(by_user[rater])

    def test_run_user_builds_the_graph_of_its_rater(
            self, trained, movie_items, movie_ratings, monkeypatch):
        from crssim import Simulation, SimulationConfig, runner
        built = []

        class Recording(runner.SimulatedUser):
            def __post_init__(self):
                graph = self.preferences
                built.append((graph.rng.getstate(), dict(graph.item_pref),
                              dict(graph.attr_pref)))
                super().__post_init__()

        monkeypatch.setattr(runner, "SimulatedUser", Recording)
        profiles = list(generate_population(
            PopulationConfig(n_users=5, seed=11), movie_ratings))
        simulation = Simulation(SimulationConfig(), movie_items, trained,
                                profiles, None)
        for profile in profiles:
            simulation.run_user(profile)
        by_user = {}
        for r in movie_ratings:
            by_user.setdefault(r.user_id, []).append(r)
        for profile, got in zip(profiles, built, strict=True):
            # the graph holds the dialogue's stream, seeded and not yet drawn
            stream = random.Random(profile.seed)
            rater = build_preference_graph(
                by_user[profile.ratings[0].user_id], movie_items, SCALE,
                stream)
            assert got == (stream.getstate(), rater.item_pref,
                           rater.attr_pref)

    def test_a_bundled_profile_pickles_without_the_catalog(self):
        from crssim import bundled, load_population_config, load_ratings
        config = load_population_config(
            bundled.asset_path(bundled.POPULATION))
        ratings = load_ratings(bundled.asset_path(bundled.RATINGS), SCALE)
        profile = list(generate_population(config, ratings))[0]
        assert config.ground_in_ratings and profile.ratings
        data = pickle.dumps(profile)
        assert pickle.loads(data) == profile
        assert len(data) < 1024

    def test_profiles_are_frozen(self):
        profile = list(generate_population(self.ungrounded(1), []))[0]
        with pytest.raises(FrozenInstanceError):
            profile.seed = 0  # type: ignore[misc]

    def test_ungrounded_population_has_empty_graphs(self, toy_items):
        profiles = generate_population(self.ungrounded(2), [])
        for p in profiles:
            assert p.ratings == ()
            graph = build_preference_graph(p.ratings, toy_items, SCALE,
                                           random.Random(p.seed))
            assert graph.item_pref == {}
            assert graph.attr_pref == {}

    def test_trait_sampling_matches_weights(self):
        # 1000 draws from a fair two-point patience table: the observed
        # share must land within +/-0.05 of 0.5
        config = self.ungrounded(1000, seed=123,
                                 patience={2: 0.5, 5: 0.5})
        profiles = generate_population(config, [])
        share = sum(1 for p in profiles if p.persona.patience == 2) / 1000
        assert abs(share - 0.5) < 0.05

    def test_profiles_have_independent_rngs(self, toy_items):
        # two profiles' cold-start draws must not be correlated copies
        profiles = generate_population(self.ungrounded(2, seed=5), [])
        graphs = [PreferenceGraph(toy_items, random.Random(p.seed))
                  for p in profiles]
        a = graphs[0].get_item_preference("i1")
        b = graphs[1].get_item_preference("i1")
        assert a != b

    def test_population_rng_is_isolated_from_global_random(self):
        random.seed(999)
        first = list(generate_population(self.ungrounded(3, seed=4), []))
        random.seed(1)
        second = list(generate_population(self.ungrounded(3, seed=4), []))
        assert [p.seed for p in first] == [p.seed for p in second]
