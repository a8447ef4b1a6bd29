"""Benchmark workloads: seeded input files plus the run configuration.

A workload turns ``--seed`` into files under a work directory and a
``SimulationConfig`` that points at them. The program under test sees only
those files, exactly as ``crssim train`` / ``simulate`` / ``evaluate``
would.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

from crssim import bundled
from crssim.domain import load_domain, load_item_collection
from crssim.runner import SimulationConfig

GENRE_SLOT = "genre"
KEYWORD_SLOT = "keyword"

# Single words, disjoint from the bundled genres, from the title words below
# and from the mock agent's cue words, so the slot lexicon trained on the
# synthetic catalog has no collisions and every title stays recognisable.
KEYWORDS = (
    "heist", "island", "robot", "dragon", "pirate", "voyage", "volcano",
    "submarine", "castle", "jungle", "spy", "detective", "circus",
    "orchestra", "chess", "wedding", "tournament", "asteroid", "glacier",
    "lighthouse", "carnival", "samurai", "cowboy", "vampire", "werewolf",
    "ghost", "wizard", "mermaid", "alien", "zombie", "knight", "gladiator",
    "astronaut", "hacker", "smuggler", "nurse", "chef", "boxer", "dancer",
    "painter", "poet", "sailor", "miner", "farmer", "pilot", "railway",
    "bridge", "desert", "prison", "treasure", "storm", "museum", "monastery",
    "casino", "satellite", "archive", "vineyard", "lagoon", "blizzard",
    "labyrinth", "rebellion", "amnesia", "inheritance", "tornado",
)
TITLE_ADJECTIVES = (
    "Crimson", "Silent", "Golden", "Hidden", "Broken", "Frozen", "Burning",
    "Distant", "Electric", "Midnight", "Silver", "Wandering", "Hollow",
    "Velvet", "Savage", "Quiet", "Restless", "Scarlet", "Endless", "Secret",
    "Shattered", "Emerald", "Lonely", "Copper",
)
TITLE_NOUNS = (
    "Harbor", "Empire", "Horizon", "Garden", "River", "Mirror", "Kingdom",
    "Shadow", "Frontier", "Tide", "Orchard", "Canyon", "Meadow", "Summit",
    "Lantern", "Citadel", "Compass", "Ember", "Echo", "Falcon", "Voyager",
    "Monument", "Station", "Signal",
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs, and why it exists."""

    name: str
    why: str
    n_users: int
    grounded: bool
    catalog_items: int = 0  # 0: the bundled 24-item catalog
    n_raters: int = 0
    wire: bool = False


# catalog_20k is left out of BENCHMARK.json: its ten-seed spreads on a
# 2-vCPU VM (0.16 to 0.44) are wider than any bound the benchmark may set.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="bundled_inproc",
            why="bundled 24-item catalog, thousands of short in-process "
                "dialogues: per-turn NLU, agenda, NLG and mock-agent cost",
            n_users=2000, grounded=False),
        Workload(
            name="catalog_20k",
            why="seeded 20k-item catalog with ratings and grounded users: "
                "O(catalog) item lookups per turn, loading and training",
            n_users=60, grounded=True, catalog_items=20_000, n_raters=3000),
        Workload(
            name="wire_loopback",
            why="bundled catalog against the mock served over loopback "
                "HTTP: one TCP connection and JSON round trip per exchange",
            n_users=300, grounded=False, wire=True),
    )
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_catalog(directory: Path, seed: int, n_items: int,
                  n_raters: int) -> tuple[Path, Path]:
    """Write a synthetic item file and ratings CSV, byte-identical per seed.

    Items reuse the bundled genres and draw one to three keywords from
    :data:`KEYWORDS`; titles are unique. Each rater rates 5 to 15 distinct
    items on the 1-5 scale.
    """
    rng = random.Random(seed)
    domain = load_domain(bundled.asset_path(bundled.DOMAIN))
    genres = load_item_collection(bundled.asset_path(bundled.ITEMS),
                                  domain).values_for_slot(GENRE_SLOT)
    lines = ["# synthetic catalog: item_id | name | genre=...; keyword=..."]
    for i in range(n_items):
        name = (f"{rng.choice(TITLE_ADJECTIVES)} {rng.choice(TITLE_NOUNS)} "
                f"{i + 1}")
        keywords = ",".join(rng.sample(KEYWORDS, rng.randint(1, 3)))
        lines.append(f"c{i:05d} | {name} | {GENRE_SLOT}={rng.choice(genres)}; "
                     f"{KEYWORD_SLOT}={keywords}")
    rows = ["user_id,item_id,rating"]
    for r in range(n_raters):
        for i in rng.sample(range(n_items), rng.randint(5, 15)):
            rows.append(f"r{r:05d},c{i:05d},{rng.randint(1, 5)}")
    items_path = directory / "items.txt"
    ratings_path = directory / "ratings.csv"
    items_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ratings_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return items_path, ratings_path


def write_population(directory: Path, seed: int, n_users: int,
                     grounded: bool) -> Path:
    """The bundled population recipe with the workload's size and seed."""
    recipe = yaml.safe_load(
        bundled.asset_path(bundled.POPULATION).read_text(encoding="utf-8"))
    recipe.update(n_users=n_users, seed=seed, ground_in_ratings=grounded)
    path = directory / "population.yaml"
    path.write_text(yaml.safe_dump(recipe, sort_keys=True), encoding="utf-8")
    return path


def prepare(workload: Workload, seed: int, directory: Path
            ) -> tuple[SimulationConfig, dict]:
    """Write the workload's inputs; return the run config and their sizes."""
    inputs = directory / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload.catalog_items:
        items, ratings = write_catalog(inputs, seed, workload.catalog_items,
                                       workload.n_raters)
    else:
        items = bundled.asset_path(bundled.ITEMS)
        ratings = bundled.asset_path(bundled.RATINGS)
    population = write_population(inputs, seed, workload.n_users,
                                  workload.grounded)
    config = SimulationConfig(
        domain=str(bundled.asset_path(bundled.DOMAIN)),
        items=str(items),
        ratings=str(ratings),
        interaction_model=str(bundled.asset_path(bundled.INTERACTION_MODEL)),
        sample=str(bundled.asset_path(bundled.SAMPLE)),
        population=str(population),
        seed=seed,
        out=str(directory / "run"),
        default_templates=str(bundled.asset_path(bundled.DEFAULT_TEMPLATES)),
    )
    rating_rows = ratings.read_text(encoding="utf-8").splitlines()[1:]
    sizes = {
        "items": sum(1 for line in items.read_text(encoding="utf-8")
                     .splitlines() if line and not line.startswith("#")),
        "ratings": len(rating_rows),
        "raters": len({row.split(",", 1)[0] for row in rating_rows}),
        "users": workload.n_users,
        "grounded": workload.grounded,
        "sha256": {p.name: sha256_file(p) for p in (items, ratings,
                                                    population)},
    }
    return config, sizes
