"""Transition learning, agenda initialization, and the pull/repeat/sample
update rule.

The bundled-sample transition probabilities asserted below were counted by
hand from the 8 annotated dialogues (add-one smoothing over each row's
observed support plus END).
"""

from __future__ import annotations

import random

import pytest

from crssim import (
    Agenda,
    Dialogue,
    EmptySample,
    END,
    Intent,
    InteractionModel,
    Participant,
    Persona,
    SatisfactionEvent,
    START,
    TransitionModel,
    UnknownIntent,
    Utterance,
    initialize_agenda,
    learn_transitions,
    next_user_action,
)

GREETING = Intent("GREETING")
DISCLOSE = Intent("DISCLOSE")
REVISE = Intent("REVISE")
INQUIRE = Intent("INQUIRE")
ACCEPT = Intent("ACCEPT")
REJECT = Intent("REJECT")
DONE = Intent("DONE")
ELICIT = Intent("ELICIT")
RECOMMEND = Intent("RECOMMEND")
UNKNOWN = Intent("UNKNOWN")


class SequenceRng:
    """Stand-in rng replaying scripted outcomes."""

    def __init__(self, choices=(), randoms=()):
        self._choices = list(choices)
        self._randoms = list(randoms)

    def choices(self, population, weights=None, k=1):
        value = self._choices.pop(0)
        assert value in population, f"{value} not a valid outcome"
        return [value]

    def random(self):
        return self._randoms.pop(0)


class ExplodingRng:
    """Fails the test if any random method is consulted."""

    def _boom(self, *args, **kwargs):
        raise AssertionError("rng consulted on a deterministic branch")

    random = choices = choice = _boom


def dialogue_from_intents(dialogue_id, intents):
    utterances = []
    for i, label in enumerate(intents):
        turn = 2 * i
        utterances.append(Utterance(Participant.AGENT, f"agent {i}", turn,
                                    Intent("ELICIT")))
        utterances.append(Utterance(Participant.USER, f"user {i}", turn + 1,
                                    Intent(label)))
    return Dialogue(dialogue_id, "a", "u", utterances)


def simple_model(transitions=None):
    return InteractionModel(
        name="toy",
        user_intents=(DISCLOSE, INQUIRE, ACCEPT, REJECT, DONE),
        agent_intents=(ELICIT, RECOMMEND, Intent("INFORM"), Intent("BYE"),
                       UNKNOWN),
        required_slots={},
        expected_responses={
            DISCLOSE: frozenset({ELICIT, RECOMMEND}),
            INQUIRE: frozenset({Intent("INFORM"), RECOMMEND}),
            ACCEPT: frozenset({RECOMMEND, Intent("BYE")}),
            REJECT: frozenset({RECOMMEND, Intent("BYE")}),
            DONE: frozenset({Intent("BYE")}),
        },
        terminal_intent=DONE,
        accept_intent=ACCEPT,
        reject_intent=REJECT,
        recommendation_intents=frozenset({RECOMMEND}),
        transitions=transitions,
    )


class TestModelValidation:
    def test_expected_response_to_undeclared_user_intent(self):
        with pytest.raises(UnknownIntent):
            InteractionModel(
                name="bad", user_intents=(DONE,), agent_intents=(ELICIT,),
                required_slots={},
                expected_responses={DISCLOSE: frozenset({ELICIT})},
                terminal_intent=DONE, accept_intent=DONE, reject_intent=DONE,
                recommendation_intents=frozenset())

    def test_terminal_intent_must_be_declared(self):
        from crssim import NoTerminalIntent
        with pytest.raises(NoTerminalIntent):
            InteractionModel(
                name="bad", user_intents=(DISCLOSE,), agent_intents=(ELICIT,),
                required_slots={}, expected_responses={},
                terminal_intent=DONE, accept_intent=DISCLOSE,
                reject_intent=DISCLOSE, recommendation_intents=frozenset())

    def test_transition_rows_validated(self):
        with pytest.raises(ValueError, match="sum"):
            simple_model(TransitionModel({START: {DISCLOSE: 0.5}}))
        with pytest.raises(ValueError, match="END"):
            simple_model(TransitionModel({DISCLOSE: {ACCEPT: 1.0}}))
        with pytest.raises(UnknownIntent):
            simple_model(TransitionModel(
                {START: {Intent("GHOST"): 0.5, END: 0.5}}))

    def test_start_row_may_omit_end(self):
        model = simple_model(TransitionModel({
            START: {DISCLOSE: 1.0},
            DISCLOSE: {END: 1.0},
        }))
        assert model.transitions is not None

    def test_round_trip_serialization(self, crsv1, sample_dialogues):
        model = learn_transitions(sample_dialogues, crsv1)
        clone = InteractionModel.from_dict(model.to_dict())
        assert clone == model


class TestLearnTransitions:
    def test_single_dialogue_oracle(self):
        # sequence [DISCLOSE, ACCEPT]: counts START->D:1, D->A:1, A->END:1;
        # add-one over support+END gives 2/3-1/3 rows and A -> {END: 1.0}
        model = learn_transitions(
            [dialogue_from_intents("d1", ["DISCLOSE", "ACCEPT"])],
            simple_model())
        rows = model.transitions.probabilities
        assert rows[START] == pytest.approx(
            {DISCLOSE: 2 / 3, END: 1 / 3})
        assert rows[DISCLOSE] == pytest.approx(
            {ACCEPT: 2 / 3, END: 1 / 3})
        assert rows[ACCEPT] == pytest.approx({END: 1.0})

    def test_duplicated_sample_gives_identical_rows(self):
        d = dialogue_from_intents("d1", ["DISCLOSE", "ACCEPT"])
        d2 = dialogue_from_intents("d2", ["DISCLOSE", "ACCEPT"])
        once = learn_transitions([d], simple_model())
        twice = learn_transitions([d, d2], simple_model())
        for row_key, row in once.transitions.probabilities.items():
            twin = twice.transitions.probabilities[row_key]
            assert set(row) == set(twin)
            for col, p in row.items():
                # counts double but add-one smoothing shifts: 2/3 -> (2+1)/4
                # for START; equality holds only for the deterministic rows
                assert 0.0 < twin[col] <= 1.0
        assert twice.transitions.probabilities[ACCEPT] == {END: 1.0}

    def test_undeclared_intent_rejected(self):
        with pytest.raises(UnknownIntent):
            learn_transitions([dialogue_from_intents("d1", ["GHOST"])],
                              simple_model())

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            learn_transitions([], simple_model())

    def test_original_model_not_mutated(self):
        base = simple_model()
        learned = learn_transitions(
            [dialogue_from_intents("d1", ["DISCLOSE"])], base)
        assert base.transitions is None
        assert learned.transitions is not None

    def test_every_row_sums_to_one_with_end_mass(self, crsv1,
                                                 sample_dialogues):
        model = learn_transitions(sample_dialogues, crsv1)
        for current, row in model.transitions.probabilities.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
            assert row[END] > 0.0

    def test_bundled_sample_oracle(self, crsv1, sample_dialogues):
        # hand-counted over the 8 dialogues' user-intent sequences:
        # G,D,A,Dn / G,D,R,A,Dn / D,I,A,Dn / G,D,D,R,Dn / G,D,Rv,A,Dn /
        # D,I,Rv,A,Dn / G,D,A,Dn / G,D,R,R,Dn
        model = learn_transitions(sample_dialogues, crsv1)
        rows = model.transitions.probabilities
        expected = {
            START: {GREETING: 7 / 11, DISCLOSE: 3 / 11, END: 1 / 11},
            GREETING: {DISCLOSE: 7 / 8, END: 1 / 8},
            DISCLOSE: {ACCEPT: 3 / 15, REJECT: 4 / 15, DISCLOSE: 2 / 15,
                       REVISE: 2 / 15, INQUIRE: 3 / 15, END: 1 / 15},
            INQUIRE: {ACCEPT: 2 / 5, REVISE: 2 / 5, END: 1 / 5},
            REJECT: {ACCEPT: 2 / 8, REJECT: 2 / 8, DONE: 3 / 8, END: 1 / 8},
            REVISE: {ACCEPT: 3 / 4, END: 1 / 4},
            ACCEPT: {DONE: 7 / 8, END: 1 / 8},
            DONE: {END: 1.0},
        }
        assert set(rows) == set(expected)
        for current, row in expected.items():
            assert rows[current] == pytest.approx(row, abs=1e-12), current


class TestInitializeAgenda:
    def test_degenerate_chain_is_deterministic(self):
        model = simple_model(TransitionModel({
            START: {DISCLOSE: 1.0},
            DISCLOSE: {END: 1.0},
        }))
        agenda = initialize_agenda(model, random.Random(0), cap=20)
        assert agenda.stack == [DISCLOSE, DONE]
        assert agenda.last_action is None
        assert agenda.consecutive_unexpected == 0

    def test_walk_ending_on_terminal_does_not_duplicate_it(self):
        model = simple_model(TransitionModel({
            START: {DONE: 1.0},
            DONE: {END: 1.0},
        }))
        agenda = initialize_agenda(model, random.Random(0), cap=20)
        assert agenda.stack == [DONE]

    def test_cap_bounds_walk_and_appends_terminal(self):
        model = simple_model(TransitionModel({
            START: {DISCLOSE: 0.999, END: 0.001},
            DISCLOSE: {DISCLOSE: 0.999, END: 0.001},
        }))
        rng = SequenceRng(choices=[DISCLOSE, DISCLOSE, DISCLOSE, DISCLOSE])
        agenda = initialize_agenda(model, rng, cap=3)
        assert agenda.stack == [DISCLOSE, DISCLOSE, DONE]
        assert len(agenda) == 3

    def test_immediate_end_yields_bare_terminal(self):
        model = simple_model(TransitionModel({
            START: {DISCLOSE: 0.5, END: 0.5},
            DISCLOSE: {END: 1.0},
        }))
        agenda = initialize_agenda(model, SequenceRng(choices=[END]), cap=20)
        assert agenda.stack == [DONE]

    def test_first_sampled_intent_is_on_top(self):
        model = simple_model(TransitionModel({
            START: {INQUIRE: 0.9, END: 0.1},
            INQUIRE: {ACCEPT: 0.9, END: 0.1},
            ACCEPT: {END: 1.0},
        }))
        rng = SequenceRng(choices=[INQUIRE, ACCEPT, END])
        agenda = initialize_agenda(model, rng, cap=20)
        assert agenda.stack == [INQUIRE, ACCEPT, DONE]
        assert agenda.stack[0] == INQUIRE

    def test_requires_learned_transitions(self):
        with pytest.raises(ValueError, match="transitions"):
            initialize_agenda(simple_model(), random.Random(0))

    def test_requires_positive_cap(self):
        model = simple_model(TransitionModel({START: {END: 1.0}}))
        with pytest.raises(ValueError, match="cap"):
            initialize_agenda(model, random.Random(0), cap=0)

    def test_stack_never_exceeds_cap(self, crsv1, sample_dialogues):
        model = learn_transitions(sample_dialogues, crsv1)
        rng = random.Random(5)
        for _ in range(200):
            agenda = initialize_agenda(model, rng, cap=6)
            assert 1 <= len(agenda) <= 6
            assert agenda.stack[-1] == DONE


PERSONA = Persona(patience=3, cooperativeness=0.8)


class TestNextUserActionExpected:
    def test_first_agent_utterance_is_always_expected(self):
        model = simple_model()
        agenda = Agenda(stack=[INQUIRE, DONE])
        intent, event = next_user_action(
            agenda, UNKNOWN, model, PERSONA, ExplodingRng())
        assert intent == INQUIRE
        assert event is SatisfactionEvent.EXPECTED_RESPONSE
        assert agenda.stack == [DONE]
        assert agenda.last_action == INQUIRE

    def test_expected_response_pops_the_stack(self):
        # mirrors: agenda [INQUIRE, DONE], last DISCLOSE, agent ELICIT
        model = simple_model()
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE)
        intent, event = next_user_action(
            agenda, ELICIT, model, PERSONA, ExplodingRng())
        assert intent == INQUIRE
        assert agenda.stack == [DONE]
        assert event is SatisfactionEvent.EXPECTED_RESPONSE

    def test_expected_branch_never_consults_rng(self):
        model = simple_model()
        agenda = Agenda(stack=[DONE], last_action=ACCEPT)
        next_user_action(agenda, Intent("BYE"), model, PERSONA,
                         ExplodingRng())

    def test_expected_resets_unexpected_counter(self):
        model = simple_model()
        agenda = Agenda(stack=[DONE], last_action=DISCLOSE,
                        consecutive_unexpected=2)
        next_user_action(agenda, ELICIT, model, PERSONA, ExplodingRng())
        assert agenda.consecutive_unexpected == 0

    def test_empty_agenda_with_expected_response_returns_terminal(self):
        model = simple_model()
        agenda = Agenda(stack=[], last_action=ACCEPT)
        intent, _ = next_user_action(agenda, Intent("BYE"), model, PERSONA,
                                     ExplodingRng())
        assert intent == DONE

    def test_expected_recommendation_accepts_on_liked_item(self):
        model = simple_model()
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE)
        intent, event = next_user_action(
            agenda, RECOMMEND, model, PERSONA, ExplodingRng(),
            recommendation_weight=0.7)
        assert intent == ACCEPT
        assert event is SatisfactionEvent.GOOD_RECOMMENDATION
        # the planned agenda is pre-empted, not consumed
        assert agenda.stack == [INQUIRE, DONE]

    def test_zero_weight_counts_as_liked(self):
        model = simple_model()
        agenda = Agenda(stack=[DONE], last_action=DISCLOSE)
        intent, event = next_user_action(
            agenda, RECOMMEND, model, PERSONA, ExplodingRng(),
            recommendation_weight=0.0)
        assert intent == ACCEPT
        assert event is SatisfactionEvent.GOOD_RECOMMENDATION

    def test_expected_recommendation_rejects_on_disliked_item(self):
        model = simple_model()
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE)
        intent, event = next_user_action(
            agenda, RECOMMEND, model, PERSONA, ExplodingRng(),
            recommendation_weight=-0.2)
        assert intent == REJECT
        assert event is SatisfactionEvent.BAD_RECOMMENDATION
        assert agenda.stack == [INQUIRE, DONE]

    def test_recommendation_without_weight_follows_the_plan(self):
        model = simple_model()
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE)
        intent, event = next_user_action(
            agenda, RECOMMEND, model, PERSONA, ExplodingRng(),
            recommendation_weight=None)
        assert intent == INQUIRE
        assert event is SatisfactionEvent.EXPECTED_RESPONSE


class TestNextUserActionUnexpected:
    def test_full_cooperation_repeats_last_action(self):
        model = simple_model()
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE)
        persona = Persona(patience=5, cooperativeness=1.0)
        intent, event = next_user_action(
            agenda, UNKNOWN, model, persona, SequenceRng(randoms=[0.999999]))
        assert intent == DISCLOSE
        assert event is SatisfactionEvent.UNEXPECTED_RESPONSE
        assert agenda.stack == [INQUIRE, DONE]  # nothing pushed or popped
        assert agenda.consecutive_unexpected == 1

    def test_zero_cooperation_samples_a_replacement(self):
        transitions = TransitionModel({
            START: {DISCLOSE: 1.0},
            DISCLOSE: {INQUIRE: 0.9, END: 0.1},
        })
        model = simple_model(transitions)
        agenda = Agenda(stack=[ACCEPT, DONE], last_action=DISCLOSE)
        persona = Persona(patience=5, cooperativeness=0.0)
        intent, event = next_user_action(
            agenda, UNKNOWN, model, persona, SequenceRng(choices=[INQUIRE], randoms=[0.5]))
        assert intent == INQUIRE
        assert event is SatisfactionEvent.UNEXPECTED_RESPONSE
        assert agenda.stack == [ACCEPT, DONE]
        assert agenda.last_action == INQUIRE

    def test_sampling_excludes_end(self):
        transitions = TransitionModel({
            START: {DISCLOSE: 1.0},
            DISCLOSE: {INQUIRE: 0.5, END: 0.5},
        })
        model = simple_model(transitions)
        persona = Persona(patience=99, cooperativeness=0.0)
        rng = random.Random(0)
        for _ in range(50):
            agenda = Agenda(stack=[DONE], last_action=DISCLOSE)
            intent, _ = next_user_action(agenda, UNKNOWN, model, persona,
                                         rng)
            assert intent == INQUIRE  # END never sampled

    def test_end_only_row_falls_back_to_repeat(self):
        transitions = TransitionModel({
            START: {DISCLOSE: 1.0},
            DISCLOSE: {END: 1.0},
        })
        model = simple_model(transitions)
        agenda = Agenda(stack=[DONE], last_action=DISCLOSE)
        persona = Persona(patience=5, cooperativeness=0.0)
        intent, _ = next_user_action(agenda, UNKNOWN, model, persona,
                                     SequenceRng(randoms=[0.9]))
        assert intent == DISCLOSE

    def test_patience_exhaustion_returns_terminal_without_rng(self):
        model = simple_model()
        persona = Persona(patience=3, cooperativeness=0.5)
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE,
                        consecutive_unexpected=2)
        intent, event = next_user_action(
            agenda, UNKNOWN, model, persona, ExplodingRng())
        assert intent == DONE
        assert event is SatisfactionEvent.UNEXPECTED_RESPONSE
        assert agenda.consecutive_unexpected == 3

    def test_patience_one_quits_on_first_unexpected(self):
        model = simple_model()
        persona = Persona(patience=1, cooperativeness=1.0)
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE)
        intent, _ = next_user_action(agenda, UNKNOWN, model, persona,
                                     ExplodingRng())
        assert intent == DONE

    def test_counter_accumulates_across_turns(self):
        model = simple_model()
        persona = Persona(patience=3, cooperativeness=1.0)
        agenda = Agenda(stack=[INQUIRE, DONE], last_action=DISCLOSE)
        outcomes = []
        for _ in range(3):
            intent, _ = next_user_action(
                agenda, UNKNOWN, model, persona, SequenceRng(randoms=[0.0]))
            outcomes.append(intent)
        assert outcomes[0] == DISCLOSE  # repeat
        assert outcomes[1] == DISCLOSE  # repeat
        assert outcomes[2] == DONE      # patience hit


class TestAgendaContainer:
    def test_push_pop_peek(self):
        agenda = Agenda()
        agenda.push(DONE)
        agenda.push(INQUIRE)
        assert agenda.stack[0] == INQUIRE
        assert len(agenda) == 2
        assert agenda.pop() == INQUIRE
        assert agenda.stack == [DONE]
        assert bool(agenda)

    def test_empty_agenda(self):
        agenda = Agenda()
        assert not agenda
        assert agenda.stack == []
