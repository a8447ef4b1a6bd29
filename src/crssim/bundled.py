"""Access to the assets shipped inside the package.

The package bundles a complete movie case study: a domain schema, an item
collection, a ratings file, an interaction model, a default-template
table, an annotated 8-dialogue sample, and a population recipe.
``SimulationConfig`` falls back to these for every path it is not given.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

DOMAIN = "movies_domain.yaml"
ITEMS = "movies.txt"
RATINGS = "ratings.csv"
INTERACTION_MODEL = "crsv1.yaml"
DEFAULT_TEMPLATES = "crsv1_default_templates.yaml"
SAMPLE = "sample_dialogues.jsonl"
POPULATION = "population.yaml"


def asset_path(name: str) -> Path:
    """Filesystem path of a bundled asset."""
    path = Path(str(resources.files("crssim").joinpath("assets", name)))
    if not path.is_file():
        raise FileNotFoundError(f"bundled asset not found: {name}")
    return path

