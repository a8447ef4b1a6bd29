"""Run one dialogue between a hand-built user and the mock recommender,
then read each user turn back from the annotated transcript.

The user plans an agenda by walking the learned transition model, pops
planned intents while the agent behaves as expected, repeats or improvises
when it does not, and accepts or rejects recommendations according to the
preference weight of the recommended item.
"""

import random

from crssim import (ContextState, MockCRSAgent, Persona, PreferenceGraph,
                    SimulatedUser, bundled, connect_dialogue,
                    import_dialogues, load_domain, load_interaction_model,
                    load_item_collection, train_simulator)

domain = load_domain(bundled.asset_path(bundled.DOMAIN))
items = load_item_collection(bundled.asset_path(bundled.ITEMS), domain)
model = load_interaction_model(bundled.asset_path(bundled.INTERACTION_MODEL))
sample = import_dialogues(bundled.asset_path(bundled.SAMPLE))
trained = train_simulator(sample, model, domain, items)

# A decisive persona: patient enough to survive one clarification request,
# and an action fan with a known dislike to make verdicts predictable. The
# profile holds only the draws; the hand-set weights go in the graph that
# the dialogue starts from, which holds the dialogue's one random stream.
graph = PreferenceGraph(items, random.Random(42))
graph.attr_pref[("genre", "action")] = 0.8
graph.item_pref["m01"] = 0.9    # The Matrix: will accept
graph.item_pref["m02"] = -0.7   # Mad Max: would reject

from crssim import UserProfile  # noqa: E402

profile = UserProfile(
    user_id="demo_user",
    persona=Persona(patience=3, cooperativeness=0.9),
    context=ContextState(satisfaction=3),
    seed=42,
)
user = SimulatedUser(
    profile=profile,
    preferences=graph,
    interaction_model=trained.interaction_model,
    intent_model=trained.intent_model,
    lexicon=trained.lexicon,
    templates=trained.templates,
    items=items,
)

dialogue = connect_dialogue(user, MockCRSAgent(items), max_turns=30,
                            dialogue_id="demo-1", agent_id="mock",
                            user_id=profile.user_id)

print("=== transcript ===")
for utterance in dialogue.utterances:
    print(f"  {utterance.participant.value:>5}: {utterance.text}")

print(f"\nterminated by: {dialogue.metadata['terminated_by']}, "
      f"{dialogue.turns} user turns")

print("\n=== user turns ===")
for i, turn in enumerate(dialogue.user_utterances(), start=1):
    slots = ", ".join(f"{sv.slot}={sv.value}" for sv in turn.slot_values)
    print(f"  turn {i}: intent={turn.intent.label:<8} "
          f"satisfaction={turn.satisfaction} slots={slots or '-'}")
