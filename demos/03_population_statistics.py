"""Generate a user population and look at how its traits are distributed.

Population recipes describe distributions, not individuals: how many
users, which patience/cooperativeness values with what weights, how
context is distributed, and whether preferences are grounded in historical
ratings (each simulated user borrows one real rater's history) or drawn
cold. One recipe plus one seed always yields the same population.
"""

from collections import Counter

from crssim import (RatingScale, build_preference_graph, bundled,
                    generate_population, load_domain, load_item_collection,
                    load_population_config, load_ratings)

domain = load_domain(bundled.asset_path(bundled.DOMAIN))
items = load_item_collection(bundled.asset_path(bundled.ITEMS), domain)
scale = RatingScale(1.0, 5.0)
ratings = load_ratings(bundled.asset_path(bundled.RATINGS), scale)
config = load_population_config(bundled.asset_path(bundled.POPULATION))

print(f"recipe: {config.n_users} users, seed {config.seed}, "
      f"grounded={config.ground_in_ratings}")

# generate_population draws each profile as it is reached; keep them all
population = list(generate_population(config, ratings))

patience = Counter(p.persona.patience for p in population)
cooperation = Counter(p.persona.cooperativeness for p in population)
times = Counter(p.context.time_of_day.value for p in population)
company = Counter(p.context.setting.value for p in population)

print("\npatience:        ", dict(sorted(patience.items())))
print("cooperativeness: ", dict(sorted(cooperation.items())))
print("time of day:     ", dict(sorted(times.items())))
print("setting:         ", dict(sorted(company.items())))

print("\n=== three sampled profiles ===")
for profile in population[:3]:
    # a profile keeps its rater's rows; each dialogue builds the graph anew
    graph = build_preference_graph(profile.ratings, items, scale,
                                   profile.graph_seed)
    likes = sorted(graph.attr_pref.items(), key=lambda kv: -kv[1])[:2]
    shaped = ", ".join(f"{slot}={value} {weight:+.2f}"
                       for (slot, value), weight in likes)
    print(f"  {profile.user_id}: patience {profile.persona.patience}, "
          f"cooperativeness {profile.persona.cooperativeness}, "
          f"top likes: {shaped or '(cold start)'}")

rerun = list(generate_population(config, ratings))
print("\nsame recipe + seed regenerated identically: "
      f"{population == rerun}")
