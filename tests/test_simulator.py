"""The simulated user's full turn pipeline against scripted agents."""

from __future__ import annotations

import gc
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crssim import (
    Agenda,
    ContextState,
    DialogueParticipant,
    Intent,
    Participant,
    Persona,
    Polarity,
    PopulationConfig,
    PreferenceGraph,
    Response,
    SimulatedUser,
    Simulation,
    SimulationConfig,
    SlotValue,
    UserProfile,
    Utterance,
    bundled,
    classify_intent,
    connect_dialogue,
    detect_polarity,
    generate_population,
    load_population_config,
)
from crssim import runner
from crssim.mock_agent import MockCRSAgent, RECOMMEND_TEXT, WELCOME_TEXT

DISCLOSE = Intent("DISCLOSE")
ACCEPT = Intent("ACCEPT")
REJECT = Intent("REJECT")
DONE = Intent("DONE")


def make_profile(items, seed=11, patience=3, cooperativeness=0.8,
                 satisfaction=3, item_pref=None, attr_pref=None):
    """A hand-built user: its profile and the graph its dialogue starts
    from, with the given preference weights already set."""
    graph = PreferenceGraph(items, random.Random(seed))
    graph.item_pref.update(item_pref or {})
    graph.attr_pref.update(attr_pref or {})
    profile = UserProfile(
        user_id="test_user",
        persona=Persona(patience=patience, cooperativeness=cooperativeness),
        context=ContextState(satisfaction=satisfaction),
        seed=seed,
    )
    return profile, graph


def make_user(trained, items, drawn, agenda=None):
    profile, preferences = drawn
    user = SimulatedUser(
        profile=profile,
        preferences=preferences,
        interaction_model=trained.interaction_model,
        intent_model=trained.intent_model,
        lexicon=trained.lexicon,
        templates=trained.templates,
        items=items,
    )
    if agenda is not None:
        user.agenda = agenda
    return user


def agent_says(text, turn=0):
    return Utterance(Participant.AGENT, text, turn)


class TestTurnPipeline:
    def test_user_never_opens(self, trained, movie_items):
        user = make_user(trained, movie_items, make_profile(movie_items))
        with pytest.raises(ValueError, match="agent speaks first"):
            user.respond(None)

    def test_first_agent_utterance_pops_the_plan(self, trained, movie_items):
        user = make_user(trained, movie_items, make_profile(movie_items),
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        response = user.respond(agent_says(WELCOME_TEXT))
        assert response.intent == DISCLOSE
        assert not response.terminate
        assert user.agenda.stack == [DONE]
        assert classify_intent(trained.intent_model,
                               WELCOME_TEXT)[0] == Intent("WELCOME")
        assert user.agenda.consecutive_unexpected == 0
        assert response.satisfaction == 3

    def test_elicited_disclosure_uses_strongest_preference(
            self, trained, movie_items):
        profile = make_profile(movie_items, attr_pref={
            ("genre", "action"): 0.9, ("genre", "drama"): 0.4})
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        response = user.respond(agent_says(
            "What genre of movie are you in the mood for?"))
        assert response.intent == DISCLOSE
        assert response.slot_values == [SlotValue("genre", "action")]
        assert "action" in response.text
        assert detect_polarity(response.text) is Polarity.POSITIVE

    def test_negative_preference_phrases_negatively(self, trained,
                                                    movie_items):
        # REVISE is the one intent whose harvested templates include a
        # negative phrasing, so the polarity request is observable there.
        profile = make_profile(movie_items, attr_pref={
            ("genre", "action"): 0.3, ("genre", "horror"): -0.95})
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[Intent("REVISE"), DONE]))
        response = user.respond(agent_says(WELCOME_TEXT))
        assert response.slot_values == [SlotValue("genre", "horror")]
        assert detect_polarity(response.text) is Polarity.NEGATIVE
        assert "horror" in response.text

    def test_absolute_weight_tie_breaks_to_smaller_value(self, trained,
                                                         movie_items):
        profile = make_profile(movie_items, attr_pref={
            ("genre", "drama"): -0.5, ("genre", "action"): 0.5})
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        response = user.respond(agent_says(WELCOME_TEXT))
        assert response.slot_values == [SlotValue("genre", "action")]

    def test_cold_start_slot_fill_is_seed_deterministic(self, trained,
                                                        movie_items):
        picks = []
        for _ in range(2):
            user = make_user(trained, movie_items,
                             make_profile(movie_items, seed=123),
                             agenda=Agenda(stack=[DISCLOSE, DONE]))
            response = user.respond(agent_says(WELCOME_TEXT))
            picks.append(response.slot_values[0])
        assert picks[0] == picks[1]
        assert picks[0].slot == "genre"
        assert picks[0].value in movie_items.values_for_slot("genre")

    def test_liked_recommendation_accepted(self, trained, movie_items):
        profile = make_profile(movie_items, item_pref={"m01": 1.0})
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        user.respond(agent_says(WELCOME_TEXT))
        response = user.respond(
            agent_says(RECOMMEND_TEXT.format(name="The Matrix"), turn=2))
        assert response.intent == ACCEPT
        assert response.satisfaction == 4  # up one from 3
        assert detect_polarity(response.text) is Polarity.POSITIVE

    def test_disliked_recommendation_rejected(self, trained, movie_items):
        profile = make_profile(movie_items, item_pref={"m01": -1.0})
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        user.respond(agent_says(WELCOME_TEXT))
        response = user.respond(
            agent_says(RECOMMEND_TEXT.format(name="The Matrix"), turn=2))
        assert response.intent == REJECT
        assert response.satisfaction == 2  # down one from 3
        assert detect_polarity(response.text) is Polarity.NEGATIVE

    def test_unrecommended_titles_do_not_trigger_verdicts(self, trained,
                                                          movie_items):
        # an INFORM mentioning a title is not a recommendation
        profile = make_profile(movie_items, item_pref={"m01": 1.0})
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        user.respond(agent_says(WELCOME_TEXT))
        response = user.respond(
            agent_says("It is about spirits and bathhouse.", turn=2))
        assert response.intent != ACCEPT

    def test_terminal_intent_terminates(self, trained, movie_items):
        user = make_user(trained, movie_items, make_profile(movie_items),
                         agenda=Agenda(stack=[DONE]))
        response = user.respond(agent_says(WELCOME_TEXT))
        assert response.intent == DONE
        assert response.terminate
        assert response.text  # the goodbye is still uttered


class TestPatience:
    def test_gibberish_agent_exhausts_patience(self, trained, movie_items):
        profile = make_profile(movie_items, patience=2, cooperativeness=1.0)
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        first = user.respond(agent_says(WELCOME_TEXT))
        assert not first.terminate
        second = user.respond(agent_says("zzz blorp qwx", turn=2))
        assert second.intent == DISCLOSE  # repeats, cooperativeness 1.0
        assert not second.terminate
        third = user.respond(agent_says("zzz blorp qwx", turn=4))
        assert third.intent == DONE
        assert third.terminate
        assert [r.satisfaction for r in (first, second, third)] == [3, 2, 1]
        assert user.agenda.consecutive_unexpected == 2

    def test_satisfaction_never_leaves_range(self, trained, movie_items):
        profile = make_profile(movie_items, patience=10, cooperativeness=1.0,
                               satisfaction=2)
        user = make_user(trained, movie_items, profile,
                         agenda=Agenda(stack=[DISCLOSE, DONE]))
        user.respond(agent_says(WELCOME_TEXT))
        for i in range(5):
            response = user.respond(agent_says("zzz", turn=2 * (i + 1)))
            assert 1 <= response.satisfaction <= 5
            if response.terminate:
                break
        assert response.satisfaction == 1


class TestEndToEnd:
    def test_full_dialogue_against_mock_agent(self, trained, movie_items):
        profile = make_profile(movie_items, seed=7)
        user = make_user(trained, movie_items, profile)
        dialogue = connect_dialogue(user, MockCRSAgent(movie_items),
                                    max_turns=30, dialogue_id="t1")
        assert dialogue.metadata["terminated_by"] in ("user", "agent")
        assert dialogue.turns >= 1
        for utterance in dialogue.user_utterances():
            assert utterance.intent in trained.interaction_model.user_intents
            assert 1 <= utterance.satisfaction <= 5

    def test_replay_is_byte_identical(self, trained, movie_items):
        def run(seed):
            user = make_user(trained, movie_items,
                             make_profile(movie_items, seed=seed))
            dialogue = connect_dialogue(user, MockCRSAgent(movie_items),
                                        max_turns=30)
            return [(u.participant.value, u.text) for u in
                    dialogue.utterances]

        assert run(99) == run(99)

    def test_different_seeds_differ_somewhere(self, trained, movie_items):
        def run(seed):
            user = make_user(trained, movie_items,
                             make_profile(movie_items, seed=seed))
            dialogue = connect_dialogue(user, MockCRSAgent(movie_items),
                                        max_turns=30)
            return [u.text for u in dialogue.utterances]

        runs = {tuple(run(seed)) for seed in range(12)}
        assert len(runs) > 1


class GibberishAgent(DialogueParticipant):
    """Opens normally, then emits unclassifiable noise forever."""

    def respond(self, incoming):
        if incoming is None:
            return Response(WELCOME_TEXT)
        return Response("zzz blorp qwx")


class TestBoundedness:
    def test_gibberish_dialogue_always_ends_by_user(self, trained,
                                                    movie_items):
        profile = make_profile(movie_items, patience=3, cooperativeness=1.0)
        user = make_user(trained, movie_items, profile)
        dialogue = connect_dialogue(user, GibberishAgent(), max_turns=30)
        assert dialogue.metadata["terminated_by"] == "user"
        last_user = dialogue.user_utterances()[-1]
        assert last_user.intent == DONE


def simulation_of(trained, items, n_users, seed, max_turns=30, out="out"):
    """A run of ``n_users`` ungrounded users against the in-process mock."""
    population = generate_population(PopulationConfig(
        n_users=n_users, seed=seed, ground_in_ratings=False,
        patience={1: 0.3, 2: 0.3, 5: 0.4},
        cooperativeness={0.0: 0.3, 0.5: 0.3, 1.0: 0.4}), [])
    return Simulation(SimulationConfig(max_turns=max_turns, out=str(out)),
                      items, trained, population, None)


class TestDialogueInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_turns=st.integers(2, 8))
    def test_seeded_dialogues_keep_the_invariants(self, trained, movie_items,
                                                  seed, max_turns):
        simulation = simulation_of(trained, movie_items, 3, seed, max_turns)
        terminal = trained.interaction_model.terminal_intent
        for profile in simulation.population:
            dialogue = simulation.run_user(profile)
            utterances = dialogue.utterances
            indices = [u.turn_index for u in utterances]
            assert indices == sorted(set(indices))
            assert utterances[0].participant is Participant.AGENT
            ending = [u for u in utterances
                      if u.participant is Participant.USER
                      and u.intent == terminal]
            assert len(ending) <= 1
            if ending:
                assert ending[0] is utterances[-1]
                assert dialogue.metadata["terminated_by"] == "user"
            assert dialogue.turns == sum(
                u.participant is Participant.USER for u in utterances)
            assert dialogue.turns <= max_turns


class TestOneStream:
    def test_the_persona_does_not_pick_the_opening_move(self, trained,
                                                        movie_items):
        # a dialogue's stream is not the one its traits were drawn from:
        # the share of dialogues that open with DISCLOSE is the same for
        # every patience level of the bundled recipe
        config = replace(
            load_population_config(bundled.asset_path(bundled.POPULATION)),
            n_users=2000, seed=1, ground_in_ratings=False)
        simulation = Simulation(SimulationConfig(), movie_items, trained,
                                generate_population(config, []), None)
        opened: dict[int, list[bool]] = {}
        for profile in simulation.population:
            first = simulation.run_user(profile).user_utterances()[0]
            opened.setdefault(profile.persona.patience, []).append(
                first.intent == DISCLOSE)
        overall = sum(map(sum, opened.values())) / config.n_users
        shares = {patience: sum(opens) / len(opens)
                  for patience, opens in opened.items()}
        assert sorted(shares) == [2, 3, 5]
        assert all(abs(share - overall) <= 0.10
                   for share in shares.values()), (shares, overall)


class TestMemory:
    def test_no_finished_dialogue_outlives_its_turn_in_a_run(
            self, trained, movie_items, tmp_path, monkeypatch):
        finished: list[weakref.ref] = []
        alive_at_start: list[int] = []
        connect = runner.connect_dialogue

        def watched(*args, **kwargs):
            gc.collect()
            alive_at_start.append(sum(ref() is not None for ref in finished))
            dialogue = connect(*args, **kwargs)
            finished.append(weakref.ref(dialogue))
            return dialogue

        monkeypatch.setattr(runner, "connect_dialogue", watched)
        simulation = simulation_of(trained, movie_items, 50, seed=4,
                                   out=tmp_path)
        assert simulation.run() == (50, 0)
        assert alive_at_start == [0] * 50
