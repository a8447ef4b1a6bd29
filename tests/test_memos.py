"""Memos and caches answer exactly as the work they skip.

``classify_intent`` and ``extract_slots`` remember their answer per text,
``select_template`` remembers its candidates per situation, population
draws use precomputed cumulative weights and a preference graph seeds its
generator on first use. Each test pins one of these against the uncached
computation, or checks that a warm cache cannot change a run's bytes.
"""

from __future__ import annotations

import copy
import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crssim import (AgentEndpoint, ContextState, Intent, Polarity,
                    SatisfactionBucket, Simulation, SimulationConfig,
                    SlotValue, Template, TemplateStore, classify_intent,
                    extract_slots, generate_population, select_template,
                    serve_mock)
from crssim.nlu import MEMO_LIMIT, ExtractionLexicon, IntentModel
from crssim.population import (DayType, PopulationConfig, Setting,
                               TimeOfDay)
from crssim.preferences import PreferenceGraph
from crssim.runner import TRANSCRIPTS_FILE, run_simulation
from crssim.transcript import dumps, import_dialogues

from test_lookups import classify_by_scan, extract_by_scan


def simulate_users(trained, items, n_users, seed):
    """Dialogues of ``n_users`` ungrounded users against the mock."""
    config = PopulationConfig(
        n_users=n_users, seed=seed, ground_in_ratings=False,
        patience={2: 0.3, 3: 0.4, 5: 0.3},
        cooperativeness={0.5: 0.3, 0.8: 0.5, 1.0: 0.2},
        time_of_day={TimeOfDay.EVENING: 0.6, TimeOfDay.NIGHT: 0.4},
        setting={Setting.ALONE: 0.7, Setting.GROUP: 0.3})
    simulation = Simulation(SimulationConfig(), items, trained,
                            generate_population(config, []), None)
    return [simulation.run_user(profile) for profile in simulation.population]


@pytest.fixture(scope="module")
def agent_texts(trained, movie_items, sample_dialogues):
    """Every agent text of the sample and of a short run against the mock."""
    texts = {u.text for d in sample_dialogues for u in d.utterances}
    for dialogue in simulate_users(trained, movie_items, 40, seed=3):
        texts.update(u.text for u in dialogue.utterances)
    return sorted(texts)


def fresh_copies(trained):
    return (IntentModel.from_dict(trained.intent_model.to_dict()),
            ExtractionLexicon.from_dict(trained.lexicon.to_dict()))


def cold_artifacts(trained):
    """``trained`` with every memo and cache empty."""
    model, lexicon = fresh_copies(trained)
    return replace(trained, intent_model=model, lexicon=lexicon,
                   templates=TemplateStore.from_dict(
                       trained.templates.to_dict()))


def text_strategy(trained, agent_texts):
    words = sorted(trained.intent_model.idf) + sorted(
        trained.lexicon.entries)
    return st.one_of(
        st.text(max_size=40),
        st.sampled_from(agent_texts),
        st.lists(st.sampled_from(words), max_size=8).map(" ".join))


class TestNluMemos:
    def test_memoised_nlu_equals_the_scan(self, trained, agent_texts):
        model, lexicon = fresh_copies(trained)

        @settings(max_examples=300, deadline=None)
        @given(st.lists(text_strategy(trained, agent_texts), min_size=1,
                        max_size=6))
        def check(texts):
            for text in texts + texts:  # the repeats are memo hits
                assert classify_intent(model, text) == \
                    classify_by_scan(model, text)
                assert extract_slots(lexicon, text) == \
                    extract_by_scan(lexicon, text)

        check()

    def test_agent_texts_hit_the_memo(self, trained, agent_texts):
        model, lexicon = fresh_copies(trained)
        for text in agent_texts * 3:
            classify_intent(model, text)
            extract_slots(lexicon, text)
        assert list(model._memo) == agent_texts
        assert list(lexicon._memo) == agent_texts

    def test_memos_stay_bounded_and_forget_the_oldest(self, trained):
        model, lexicon = fresh_copies(trained)
        texts = [f"do you like action movie number {i}"
                 for i in range(10_000)]
        for text in texts:
            classify_intent(model, text)
            extract_slots(lexicon, text)
        for memo in (model._memo, lexicon._memo):
            assert len(memo) == MEMO_LIMIT
            assert list(memo) == texts[-MEMO_LIMIT:]

    def test_each_model_keeps_its_own_memo(self, trained):
        model, lexicon = fresh_copies(trained)
        text = "I love comedy"
        other_model = IntentModel(idf={"comedy": 1.0},
                                  centroids={Intent("ZED"): {"comedy": 1.0}})
        other_lexicon = ExtractionLexicon(
            entries={"love": ("mood", "love")})
        for _ in range(2):
            assert classify_intent(other_model, text) == (Intent("ZED"), 1.0)
            assert classify_intent(model, text) == \
                classify_by_scan(model, text)
            assert extract_slots(other_lexicon, text) == [
                SlotValue("mood", "love")]
            assert extract_slots(lexicon, text) == [
                SlotValue("genre", "comedy")]

    def test_min_similarity_is_read_on_every_call(self, trained):
        model, _ = fresh_copies(trained)
        text = "what genre do you like"
        intent, similarity = classify_intent(model, text)
        assert intent != model.fallback_intent and similarity > 0.0
        model.min_similarity = similarity + 0.01
        assert classify_intent(model, text) == (model.fallback_intent, 0.0)

    def test_mutating_a_result_leaves_the_next_alone(self, trained):
        _, lexicon = fresh_copies(trained)
        text = "how about an action movie or a comedy"
        first = extract_slots(lexicon, text)
        assert first
        expected = list(first)
        first.clear()
        assert extract_slots(lexicon, text) == expected

    def test_memos_stay_out_of_persistence_and_equality(self, trained,
                                                        agent_texts):
        model, lexicon = fresh_copies(trained)
        documents = model.to_dict(), lexicon.to_dict()
        for text in agent_texts:
            classify_intent(model, text)
            extract_slots(lexicon, text)
        assert (model.to_dict(), lexicon.to_dict()) == documents
        assert model == trained.intent_model
        assert lexicon == trained.lexicon
        assert "_memo" not in repr(model) + repr(lexicon)


def night(satisfaction=3):
    return ContextState(time_of_day=TimeOfDay.NIGHT, satisfaction=satisfaction)


class TestTemplateCandidates:
    DISCLOSE = Intent("DISCLOSE")

    def test_added_template_is_seen_by_the_next_selection(self, trained):
        store = TemplateStore.from_dict(trained.templates.to_dict())
        genre_only = Template(self.DISCLOSE, "maybe {genre}, maybe not",
                              Polarity.NEGATIVE, SatisfactionBucket.LOW)
        before = {select_template(store, self.DISCLOSE, {"genre"},
                                  Polarity.NEGATIVE, night(1),
                                  random.Random(i)) for i in range(50)}
        assert genre_only not in before
        store.add(genre_only)
        after = {select_template(store, self.DISCLOSE, {"genre"},
                                 Polarity.NEGATIVE, night(1),
                                 random.Random(i)) for i in range(50)}
        assert genre_only in after

    def test_cached_candidates_draw_as_the_first_call(self, trained):
        store = trained.templates
        situations = [(intent, needed, polarity, context)
                      for intent in sorted(store.templates)
                      for needed in (set(), {"genre"}, {"genre", "keyword"})
                      for polarity in Polarity
                      for context in (night(1), night(3), ContextState(
                          satisfaction=5, setting=Setting.GROUP))]
        cold = TemplateStore.from_dict(store.to_dict())
        first = [select_template(cold, *s, random.Random(7))
                 for s in situations]
        again = [select_template(cold, *s, random.Random(7))
                 for s in situations]
        assert again == first
        # the rng stream is consumed exactly as without the cache
        ours, theirs = random.Random(11), random.Random(11)
        for s in situations:
            select_template(cold, *s, ours)
            select_template(TemplateStore.from_dict(store.to_dict()), *s,
                            theirs)
        assert ours.random() == theirs.random()

    def test_cache_stays_out_of_persistence_and_equality(self, trained):
        store = TemplateStore.from_dict(trained.templates.to_dict())
        select_template(store, self.DISCLOSE, {"genre"}, Polarity.POSITIVE,
                        night(), random.Random(1))
        assert store._candidates
        assert store.to_dict() == trained.templates.to_dict()
        assert store == trained.templates


weights = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def weight_table(keys):
    return st.dictionaries(st.sampled_from(keys), weights, min_size=1).filter(
        lambda table: any(w > 0 for w in table.values()))


class TestPopulationDraws:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           patience=weight_table([1, 2, 3, 5, 8]),
           cooperativeness=weight_table([0.0, 0.5, 0.8, 1.0]),
           time_of_day=weight_table(list(TimeOfDay)),
           day_type=weight_table(list(DayType)),
           setting=weight_table(list(Setting)),
           satisfaction=weight_table([1, 2, 3, 4, 5]))
    def test_draws_equal_a_weights_reference(self, movie_items, seed,
                                             **tables):
        config = PopulationConfig(n_users=20, seed=seed,
                                  ground_in_ratings=False, **tables)
        profiles = generate_population(config, [])

        def draw(rng, table):
            values = list(table)
            return rng.choices(values, weights=[table[v] for v in values],
                               k=1)[0]

        master = random.Random(seed)
        for profile in profiles:
            rng = random.Random(master.getrandbits(32))
            assert profile.persona.patience == draw(rng, tables["patience"])
            assert profile.persona.cooperativeness == draw(
                rng, tables["cooperativeness"])
            context = profile.context
            assert context.time_of_day == draw(rng, tables["time_of_day"])
            assert context.day_type == draw(rng, tables["day_type"])
            assert context.setting == draw(rng, tables["setting"])
            assert context.satisfaction == draw(rng, tables["satisfaction"])
            assert profile.graph_seed == rng.getrandbits(32)

    @given(seed=st.integers(0, 2**32 - 1),
           queries=st.lists(st.tuples(st.booleans(),
                                      st.sampled_from(["m01", "m02"]),
                                      st.sampled_from(["action", "drama"])),
                            max_size=12))
    def test_lazy_graph_draws_as_an_eager_one(self, movie_items, seed,
                                              queries):
        graph = PreferenceGraph(movie_items, seed=seed)
        assert graph._rng is None
        eager = random.Random(seed)
        expected: dict = {}
        for is_item, item_id, genre in queries:
            key = item_id if is_item else ("genre", genre)
            if key not in expected:
                expected[key] = eager.uniform(-1.0, 1.0)
            got = (graph.get_item_preference(item_id) if is_item
                   else graph.get_attribute_preference("genre", genre))
            assert got == expected[key]


class TestWarmCaches:
    def test_warm_memos_do_not_change_dialogues(self, trained, movie_items):
        artifacts = cold_artifacts(trained)
        cold = dumps(simulate_users(artifacts, movie_items, 60, seed=21))
        assert artifacts.intent_model._memo and artifacts.templates._candidates
        warm = dumps(simulate_users(artifacts, movie_items, 60, seed=21))
        assert warm == cold

    def test_back_to_back_runs_match_a_fresh_interpreter(self, tmp_path):
        population = tmp_path / "population.yaml"
        population.write_text(
            "n_users: 300\nseed: 0\nground_in_ratings: false\n"
            "persona:\n  patience: {2: 0.3, 3: 0.4, 5: 0.3}\n"
            "context:\n  time_of_day: {evening: 0.7, night: 0.3}\n"
            "  setting: {alone: 0.7, group: 0.3}\n", encoding="utf-8")
        config = SimulationConfig(population=str(population), seed=11,
                                  train=True, out=str(tmp_path / "inproc"))
        runs = [(run_simulation(config) / TRANSCRIPTS_FILE).read_bytes()
                for _ in range(2)]
        assert runs[0] == runs[1]

        out = tmp_path / "fresh"
        hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        result = subprocess.run(
            [sys.executable, "-m", "crssim", "simulate", "--train",
             "--population", str(population), "--seed", "11",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert result.returncode == 0, result.stderr
        fresh = (out / TRANSCRIPTS_FILE).read_bytes()
        assert hashlib.sha256(fresh).digest() == \
            hashlib.sha256(runs[0]).digest()

    def test_a_profile_run_twice_gives_the_same_dialogue(self, trained,
                                                         movie_items):
        config = PopulationConfig(n_users=60, seed=8,
                                  ground_in_ratings=False)
        simulation = Simulation(SimulationConfig(), movie_items, trained,
                                list(generate_population(config, [])), None)
        before = copy.deepcopy(simulation.population)
        first, second = (dumps(map(simulation.run_user, simulation.population))
                         for _ in range(2))
        assert first == second
        assert simulation.population == before

    @pytest.mark.parametrize("wire", [False, True], ids=["inproc", "wire"])
    def test_users_in_reverse_order_give_the_same_dialogues(
            self, tmp_path, movie_items, wire):
        servers = [serve_mock(movie_items) for _ in range(2 if wire else 0)]
        config = SimulationConfig(out=str(tmp_path), train=True, agent=(
            servers[0].base_url if wire else "mock"))
        transcripts = tmp_path / TRANSCRIPTS_FILE
        try:
            Simulation.load(config).run()
            forward = import_dialogues(transcripts)
            # fresh mock sessions on a server of its own
            simulation = Simulation.load(config)
            replace(simulation, population=list(simulation.population)[::-1],
                    endpoint=AgentEndpoint(servers[1].base_url) if wire
                    else None).run()
            reverse = import_dialogues(transcripts)
        finally:
            for server in servers:
                server.stop()
        assert not any(d.metadata.get("aborted") for d in forward)
        assert dumps(sorted(reverse, key=lambda d: d.dialogue_id)) == \
            dumps(sorted(forward, key=lambda d: d.dialogue_id))
