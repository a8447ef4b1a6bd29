"""Ten acceptance criteria, one test and one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdicts;
each test also fails normally under plain pytest when its criterion does
not hold.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from crssim import (
    Agenda,
    ContextState,
    Dialogue,
    END,
    Intent,
    InteractionModel,
    Participant,
    Persona,
    PreferenceGraph,
    Rating,
    RatingScale,
    SatisfactionBucket,
    SatisfactionEvent,
    SimulatedUser,
    SimulationConfig,
    SlotValue,
    START,
    TransitionModel,
    UserProfile,
    Utterance,
    build_preference_graph,
    classify_intent,
    evaluate,
    export_dialogues,
    extract_templates,
    import_dialogues,
    initialize_agenda,
    instantiate,
    next_user_action,
    run_evaluation,
    run_simulation,
    train_intent_classifier,
)
from crssim.mock_agent import WELCOME_TEXT
from crssim.nlg import _pattern_from


def check(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {verdict} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def bundled_config(out: Path, **overrides) -> SimulationConfig:
    return SimulationConfig(**{"out": str(out), "train": True, **overrides})


def test_criterion_1_end_to_end_case_study(tmp_path):
    started = time.perf_counter()
    out = run_simulation(bundled_config(tmp_path / "run"))
    report = run_evaluation(out / "transcripts.jsonl", out)
    elapsed = time.perf_counter() - started

    dialogues = import_dialogues(out / "transcripts.jsonl")
    causes = Counter(d.metadata.get("terminated_by") for d in dialogues)
    clean = causes["user"] + causes["agent"]
    within_cap = sum(1 for d in dialogues if d.turns <= 30)
    passed = (len(dialogues) == 50
              and within_cap == 50
              and clean >= 0.8 * len(dialogues)
              and report.n_dialogues == 50
              and elapsed < 60.0)
    check(1, passed,
          f"50 users -> {len(dialogues)} dialogues, {within_cap} within cap, "
          f"{clean} clean terminations, {elapsed:.1f}s")


def test_criterion_2_seeded_reruns_are_byte_identical(tmp_path):
    transcripts = []
    for name, hash_seed in (("a", "1"), ("b", "4242")):
        out = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-m", "crssim", "simulate", "--train",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        transcripts.append((out / "transcripts.jsonl").read_bytes())
    passed = transcripts[0] == transcripts[1] and len(transcripts[0]) > 0
    check(2, passed,
          f"two --seed 7 runs, differing hash seeds: "
          f"{len(transcripts[0])} == {len(transcripts[1])} bytes, "
          f"identical={transcripts[0] == transcripts[1]}")


GREET, ORDER, BYE = Intent("GREET"), Intent("ORDER"), Intent("BYE")
NLU_CORPUS = [
    ("hello there", GREET),
    ("hi there friend", GREET),
    ("i want pizza", ORDER),
    ("i want pasta now", ORDER),
    ("goodbye friend", BYE),
]
# hand-computed: raw-count tf, idf = ln((1+N)/(1+df)) + 1, L2-normalized
# class centroids, cosine similarity
NLU_ORACLE = [
    ("i want pizza", ORDER, 0.829099381401653),
    ("pizza now", ORDER, 0.493644253629115),
    ("hello friend", GREET, 0.560523051993060),
    ("goodbye", BYE, 0.778282922804618),
    ("hello there", GREET, 0.781523666239205),
    ("hi there friend", GREET, 0.849025182453527),
    ("i want pasta now", ORDER, 0.884352159347386),
]


def test_criterion_3_nlu_matches_hand_oracle():
    model = train_intent_classifier(NLU_CORPUS)
    worst = 0.0
    labels_ok = True
    for text, expected_intent, expected_sim in NLU_ORACLE:
        intent, similarity = classify_intent(model, text)
        labels_ok &= intent == expected_intent
        worst = max(worst, abs(similarity - expected_sim))
    verbatim_intent, verbatim_sim = classify_intent(model, "goodbye friend")
    singleton_ok = (verbatim_intent == BYE
                    and abs(verbatim_sim - 1.0) <= 1e-9)
    passed = labels_ok and worst <= 1e-9 and singleton_ok
    check(3, passed,
          f"{len(NLU_ORACLE)} oracle probes, max |delta|={worst:.2e}, "
          f"verbatim single-sample sim={verbatim_sim:.12f}")


ASK, BROWSE, QUIT = Intent("ASK"), Intent("BROWSE"), Intent("QUIT")
AGENDA_ROWS = {
    START: {ASK: 0.6, BROWSE: 0.3, END: 0.1},
    ASK: {ASK: 0.2, BROWSE: 0.5, END: 0.3},
    BROWSE: {ASK: 0.4, END: 0.6},
}


def agenda_stats_model() -> InteractionModel:
    elicit = Intent("ELICIT")
    return InteractionModel(
        name="stats",
        user_intents=(ASK, BROWSE, QUIT),
        agent_intents=(elicit,),
        required_slots={},
        expected_responses={ASK: frozenset({elicit}),
                            BROWSE: frozenset({elicit}),
                            QUIT: frozenset({elicit})},
        terminal_intent=QUIT,
        accept_intent=ASK,
        reject_intent=BROWSE,
        recommendation_intents=frozenset(),
        transitions=TransitionModel(probabilities=dict(AGENDA_ROWS)),
    )


def test_criterion_4_agenda_sampling_statistics():
    model = agenda_stats_model()
    rng = random.Random(20240814)
    draws = 10_000
    first = Counter()
    pair_counts: dict[Intent, Counter] = {row: Counter()
                                          for row in AGENDA_ROWS}
    for _ in range(draws):
        stack = initialize_agenda(model, rng, cap=64).stack
        walk = stack[:-1] if stack[-1] == QUIT else list(stack)
        first[walk[0] if walk else END] += 1
        previous = START
        for intent in walk:
            pair_counts[previous][intent] += 1
            previous = intent
        pair_counts[previous][END] += 1

    worst = 0.0
    for row, expected in AGENDA_ROWS.items():
        observed = first if row is START else pair_counts[row]
        total = sum(observed.values())
        for nxt, probability in expected.items():
            worst = max(worst, abs(observed[nxt] / total - probability))
    # the START row is double-checked through the first-intent counter
    for nxt, probability in AGENDA_ROWS[START].items():
        worst = max(worst, abs(first[nxt] / draws - probability))
    passed = worst <= 0.05
    check(4, passed,
          f"{draws} agenda draws, worst |observed - expected| = {worst:.4f}")


class SequenceRng:
    """Replays scripted random() values; choices() picks by argmax weight."""

    def __init__(self, randoms=(), pick=None):
        self.randoms = list(randoms)
        self.pick = pick

    def random(self):
        return self.randoms.pop(0)

    def choices(self, population, weights=None, k=1):
        assert k == 1
        if self.pick is not None:
            assert self.pick in population
            return [self.pick]
        return [population[0]]


class ExplodingRng:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} consulted on a deterministic path")


def test_criterion_5_pull_repeat_sample_semantics():
    model = agenda_stats_model()
    persona = Persona(patience=2, cooperativeness=1.0)

    # expected agent move -> planned intent popped, rng untouched
    agenda = Agenda(stack=[ASK, QUIT])
    intent, event = next_user_action(agenda, Intent("ELICIT"), model,
                                     persona, ExplodingRng())
    pulled = (intent == ASK and agenda.stack == [QUIT]
              and event is SatisfactionEvent.EXPECTED_RESPONSE)

    # unexpected agent move, cooperativeness 1.0 -> repeat the last action
    agenda = Agenda(stack=[QUIT], last_action=ASK)
    intent, event = next_user_action(agenda, Intent("GIBBER"), model,
                                     persona,
                                     SequenceRng(randoms=[0.999999]))
    repeated = (intent == ASK and agenda.stack == [QUIT]
                and event is SatisfactionEvent.UNEXPECTED_RESPONSE)

    # unexpected, cooperativeness 0.0 -> sampled from the row, END excluded
    agenda = Agenda(stack=[QUIT], last_action=ASK)
    intent, _ = next_user_action(
        agenda, Intent("GIBBER"), model,
        Persona(patience=9, cooperativeness=0.0),
        SequenceRng(randoms=[0.0], pick=BROWSE))
    sampled = intent == BROWSE

    # patience exhaustion -> terminal intent, rng untouched
    agenda = Agenda(stack=[QUIT], last_action=ASK)
    agenda.consecutive_unexpected = 1
    intent, _ = next_user_action(agenda, Intent("GIBBER"), model,
                                 persona, ExplodingRng())
    quit_now = intent == QUIT and agenda.consecutive_unexpected == 2

    passed = pulled and repeated and sampled and quit_now
    check(5, passed,
          f"pop={pulled} repeat={repeated} sample={sampled} quit={quit_now}")


def test_criterion_6_nlg_round_trip(sample_dialogues):
    store = extract_templates(sample_dialogues)
    checked = reproduced = 0
    for dialogue in sample_dialogues:
        for utterance in dialogue.utterances:
            if utterance.participant is not Participant.USER:
                continue
            checked += 1
            pattern = _pattern_from(utterance)
            if not any(t.pattern == pattern
                       for t in store.templates_for(utterance.intent)):
                continue
            values = {sv.slot: sv.value for sv in utterance.slot_values}
            template = next(t for t in store.templates_for(utterance.intent)
                            if t.pattern == pattern)
            if instantiate(template, values) == utterance.text:
                reproduced += 1
    passed = checked == 37 and reproduced == checked
    check(6, passed,
          f"{reproduced}/{checked} sample user utterances reproduced "
          f"byte-for-byte")


def test_criterion_7_preference_consistency(movie_items):
    scale = RatingScale(1.0, 5.0)
    rng = random.Random(7)
    item_ids = sorted(i.item_id for i in movie_items)
    genres = movie_items.values_for_slot("genre")
    stable = in_range = permutation_proof = True

    for seed in range(25):
        ratings = [Rating("u", rng.choice(item_ids),
                          rng.choice([1.0, 2.0, 3.0, 4.0, 5.0]))
                   for _ in range(rng.randint(1, 30))]
        graph = build_preference_graph(ratings, movie_items, scale,
                                       random.Random(seed))
        shuffled = ratings[:]
        rng.shuffle(shuffled)
        twin = build_preference_graph(shuffled, movie_items, scale,
                                      random.Random(seed))
        # compared before any queries: cold-start lookups would freeze
        # fresh draws into whichever graph is asked first
        permutation_proof &= (twin.item_pref == graph.item_pref
                              and twin.attr_pref == graph.attr_pref)

        queries = [("item", rng.choice(item_ids)) for _ in range(5)] + \
                  [("attr", rng.choice(genres)) for _ in range(5)]
        rng.shuffle(queries)
        for kind, key in queries * 2:  # every query twice
            value = (graph.get_item_preference(key) if kind == "item"
                     else graph.get_attribute_preference("genre", key))
            repeat = (graph.get_item_preference(key) if kind == "item"
                      else graph.get_attribute_preference("genre", key))
            stable &= value == repeat
            in_range &= -1.0 <= value <= 1.0

    passed = stable and in_range and permutation_proof
    check(7, passed,
          f"25 seeds: stable={stable} in_range={in_range} "
          f"permutation_proof={permutation_proof}")


def fixture_dialogue(dialogue_id, n_turns, success):
    utterances = []
    index = 0
    for i in range(n_turns):
        utterances.append(Utterance(Participant.AGENT, f"agent {i}", index))
        index += 1
        intent = (Intent("ACCEPT") if success and i == n_turns - 1
                  else Intent("DISCLOSE"))
        utterances.append(Utterance(Participant.USER, f"user {i}", index,
                                    intent=intent))
        index += 1
    return Dialogue(dialogue_id=dialogue_id, agent_id="a", user_id="u",
                    utterances=utterances)


def test_criterion_8_metrics_oracle():
    report = evaluate([fixture_dialogue("d1", 3, True),
                       fixture_dialogue("d2", 5, False),
                       fixture_dialogue("d3", 7, True)])
    turns_delta = abs(report.avg_turns - 5.0)
    success_delta = abs(report.avg_success - 2.0 / 3.0)
    passed = turns_delta <= 1e-12 and success_delta <= 1e-12
    check(8, passed,
          f"AvgTurns delta={turns_delta:.2e}, "
          f"AvgSuccess delta={success_delta:.2e}")


_TEXT_POOL = ("yes", "héllo wörld", "право", "映画が好き", "no'quote\"s",
              "tabs\tand\nnewlines", "🎬 emoji", "plain words here", "")
_INTENT_POOL = ("DISCLOSE", "INQUIRE", "ACCEPT", "REJECT", "DONE")
_SLOT_POOL = (("genre", "action"), ("genre", "hörror"), ("title", "火口"),
              ("keyword", "space opera"))


def random_dialogue(rng: random.Random, dialogue_id: str) -> Dialogue:
    utterances = []
    index = rng.randrange(3)
    speaker = rng.choice((Participant.AGENT, Participant.USER))
    for _ in range(rng.randint(1, 8)):
        text = rng.choice(_TEXT_POOL)
        if rng.random() < 0.6:
            slots = tuple(SlotValue(s, v) for s, v in
                          rng.sample(_SLOT_POOL, rng.randint(0, 2)))
            satisfaction = (rng.randint(1, 5)
                            if speaker is Participant.USER
                            and rng.random() < 0.7 else None)
            utterances.append(Utterance(
                speaker, text, index, Intent(rng.choice(_INTENT_POOL)),
                slots, satisfaction))
        else:
            utterances.append(Utterance(speaker, text, index))
        index += rng.randint(1, 3)
        speaker = (Participant.USER if speaker is Participant.AGENT
                   else Participant.AGENT)
    metadata = {}
    if rng.random() < 0.8:
        metadata = {"terminated_by": rng.choice(("user", "agent")),
                    "note": rng.choice(_TEXT_POOL),
                    "turn_cap": rng.randint(2, 40),
                    "aborted": rng.random() < 0.1}
    return Dialogue(dialogue_id=dialogue_id, agent_id=f"agent-{rng.random():.3f}",
                    user_id="üser", utterances=utterances, metadata=metadata)


def test_criterion_9_transcript_round_trip(tmp_path):
    rng = random.Random(90210)
    dialogues = [random_dialogue(rng, f"d{i:04d}") for i in range(1000)]
    target = tmp_path / "generated.json"
    export_dialogues(dialogues, target)
    reloaded = import_dialogues(target)
    mismatches = sum(1 for a, b in zip(dialogues, reloaded) if a != b)
    passed = len(reloaded) == 1000 and mismatches == 0
    check(9, passed,
          f"{len(reloaded)} generated dialogues, {mismatches} mismatches "
          f"after export -> import")


class NoisyAgent:
    """Greets properly, then emits only unclassifiable noise."""

    def __init__(self):
        self.turn = 0

    def utterance(self):
        self.turn += 1
        if self.turn == 1:
            return WELCOME_TEXT
        return "fzzt blorp vreeble"


def test_criterion_10_low_satisfaction_shows_in_templates(trained,
                                                          movie_items):
    graph = PreferenceGraph(movie_items, random.Random(5))
    graph.attr_pref[("genre", "action")] = 0.9
    profile_user = SimulatedUser(
        profile=UserProfile(
            user_id="grumpy",
            persona=Persona(patience=10, cooperativeness=1.0),
            context=ContextState(satisfaction=3), seed=5),
        preferences=graph,
        interaction_model=trained.interaction_model,
        intent_model=trained.intent_model,
        lexicon=trained.lexicon,
        templates=trained.templates,
        items=movie_items,
    )
    profile_user.agenda = Agenda(stack=[Intent("DISCLOSE"), Intent("DONE")])

    agent = NoisyAgent()
    replies = []
    for turn in range(6):
        reply = profile_user.respond(
            Utterance(Participant.AGENT, agent.utterance(), 2 * turn))
        replies.append(reply)
        if reply.terminate:
            break

    affected = conforming = 0
    for reply in replies:
        if reply.satisfaction > 2:
            continue
        low = [t for t in trained.templates.templates_for(reply.intent)
               if t.bucket is SatisfactionBucket.LOW]
        if not low:
            continue
        affected += 1
        slot_values = {sv.slot: sv.value for sv in reply.slot_values}
        if reply.text in {instantiate(t, slot_values) for t in low
                          if t.slots <= set(slot_values)}:
            conforming += 1
    passed = affected >= 2 and conforming == affected
    check(10, passed,
          f"{conforming}/{affected} low-satisfaction turns chose LOW-bucket "
          f"templates")
