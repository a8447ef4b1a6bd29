"""Shared fixtures: bundled assets, toy domains, trained artifacts.

Child processes (the demos, fresh-interpreter probes) import the
``crssim`` that the tests import: its source root leads ``PYTHONPATH``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import crssim
from crssim import (
    Domain,
    Item,
    ItemCollection,
    RatingScale,
    load_domain,
    load_interaction_model,
    load_item_collection,
    load_ratings,
    train_simulator,
)
from crssim import bundled
from crssim.transcript import import_dialogues

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(crssim.__file__).resolve().parent.parent),
                os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def movies_domain():
    return load_domain(bundled.asset_path(bundled.DOMAIN))


@pytest.fixture(scope="session")
def movie_items(movies_domain):
    return load_item_collection(bundled.asset_path(bundled.ITEMS),
                                movies_domain)


@pytest.fixture(scope="session")
def movie_ratings():
    return load_ratings(bundled.asset_path(bundled.RATINGS),
                        RatingScale(1.0, 5.0))


@pytest.fixture(scope="session")
def crsv1():
    return load_interaction_model(
        bundled.asset_path(bundled.INTERACTION_MODEL))


@pytest.fixture(scope="session")
def sample_dialogues():
    return import_dialogues(bundled.asset_path(bundled.SAMPLE))


@pytest.fixture(scope="session")
def trained(sample_dialogues, crsv1, movies_domain, movie_items):
    """Simulator components trained once on the bundled sample."""
    return train_simulator(sample_dialogues, crsv1, movies_domain,
                           movie_items)


@pytest.fixture
def toy_domain():
    return Domain(name="food", slots=("dish", "cuisine"))


@pytest.fixture
def toy_items(toy_domain):
    items = ItemCollection(toy_domain)
    items.add(Item("i1", "Margherita", {"cuisine": ("italian",),
                                        "dish": ("pizza",)}))
    items.add(Item("i2", "Carbonara", {"cuisine": ("italian",),
                                       "dish": ("pasta",)}))
    items.add(Item("i3", "Pad Thai", {"cuisine": ("thai",),
                                      "dish": ("noodles",)}))
    return items
