"""Preference model: a personal knowledge graph over items and attributes.

Every node carries a weight in [-1, 1]. Weights are either grounded in a
ratings history or drawn on first query (cold start) and then frozen, so
a user's stated preferences stay consistent for their lifetime.
"""

from __future__ import annotations

import logging
import random
from typing import Iterable

from .domain import ItemCollection, Rating, RatingScale
from .errors import UnknownSlot

logger = logging.getLogger(__name__)


class PreferenceGraph:
    """Item and attribute preference weights for one user; cold starts are
    drawn from ``rng``, the one random stream of the user's dialogue."""

    def __init__(self, items: ItemCollection, rng: random.Random):
        self.items = items
        self.rng = rng
        self.item_pref: dict[str, float] = {}
        self.attr_pref: dict[tuple[str, str], float] = {}

    def get_item_preference(self, item_id: str) -> float:
        """Stored weight for the item, cold-started on first sight."""
        weight = self.item_pref.get(item_id)
        if weight is None:
            weight = self.rng.uniform(-1.0, 1.0)
            self.item_pref[item_id] = weight
        return weight

    def get_attribute_preference(self, slot: str, value: str) -> float:
        """Stored weight for (slot, value), cold-started on first sight."""
        if not self.items.domain.has_slot(slot):
            raise UnknownSlot(f"{slot!r} is not a domain slot")
        key = (slot, value)
        weight = self.attr_pref.get(key)
        if weight is None:
            weight = self.rng.uniform(-1.0, 1.0)
            self.attr_pref[key] = weight
        return weight

    def known_attribute_values(self, slot: str) -> list[tuple[str, float]]:
        """Materialized (value, weight) pairs for one slot, insertion order."""
        return [(value, weight) for (s, value), weight in self.attr_pref.items()
                if s == slot]


def build_preference_graph(
    ratings: Iterable[Rating],
    items: ItemCollection,
    scale: RatingScale,
    rng: random.Random,
) -> PreferenceGraph:
    """Ground a preference graph in one user's ratings.

    Item weights map the rating linearly onto [-1, 1]; attribute weights are
    the unweighted mean of item weights over the rated items carrying that
    attribute value, materialized eagerly. Ratings for unknown items are
    skipped with a warning; repeated ratings of one item are averaged, which
    keeps the construction independent of input order.
    """
    graph = PreferenceGraph(items, rng)
    span = scale.max - scale.min
    by_item: dict[str, list[float]] = {}
    for rating in ratings:
        if rating.item_id not in items:
            logger.warning("skipping rating for unknown item %r", rating.item_id)
            continue
        by_item.setdefault(rating.item_id, []).append(rating.rating)
    for item_id in sorted(by_item):
        # summed in sorted order so permuting the input cannot move a ulp
        values = sorted(by_item[item_id])
        mean_rating = sum(values) / len(values)
        graph.item_pref[item_id] = 2.0 * (mean_rating - scale.min) / span - 1.0

    by_attr: dict[tuple[str, str], list[float]] = {}
    for item_id, weight in sorted(graph.item_pref.items()):
        item = items.get(item_id)
        assert item is not None
        for slot in sorted(item.attributes):
            for value in sorted(set(item.attributes[slot])):
                by_attr.setdefault((slot, value), []).append(weight)
    for key, weights in by_attr.items():
        graph.attr_pref[key] = sum(weights) / len(weights)
    return graph
