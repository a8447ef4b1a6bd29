"""Domain schema, item collection, ratings ingestion, and the one YAML
reader every config document goes through. The data it builds is checked
by :mod:`crssim.schema`'s walker and by the class built from it: a domain
config holds a :class:`Domain`'s fields, which checks its own rules. An
error in a file that a ``load_*`` function reads is led by its name.

Where PyYAML has libyaml, its C parser scans and parses YAML; PyYAML's
Python composer and safe constructor build the node tree and the data,
so that nesting past the recursion limit stays a :class:`ParseError`
(libyaml's own composer recurses in C and overflows the C stack). Without
libyaml, ``yaml.SafeLoader`` does the same job in pure Python. The two
differ only on malformed input (the README lists how): libyaml accepts
a tab after a colon, reads a byte-order mark inside a document its own
way, rejects an unknown ``%`` directive, and words its errors its own
way, at times on another line; the line of an error is reported either
way.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping

import yaml
from yaml.composer import Composer
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.resolver import Resolver

from .errors import (
    DuplicateItem,
    DuplicateSlot,
    EmptySlotList,
    ParseError,
    RatingOutOfScale,
    UnknownSlot,
    _opened,
)
from .schema import read


@dataclass(frozen=True)
class Domain:
    """The application's slot schema, e.g. movies with title/genre/keyword.

    Slot declaration order doubles as the priority order used to resolve
    slot collisions during extractor training.
    """

    name: str
    slots: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ParseError("domain name must be a non-empty string")
        object.__setattr__(self, "slots", tuple(s.strip() for s in self.slots))
        if not self.slots:
            raise EmptySlotList("domain declares no slots")
        if not all(self.slots):
            raise ParseError("slot names must be non-empty strings")
        seen: set[str] = set()
        for s in self.slots:
            if s.lower() in seen:
                raise DuplicateSlot(f"duplicate slot {s!r} (case-insensitive)")
            seen.add(s.lower())

    def has_slot(self, slot: str) -> bool:
        return slot in self.slots

    def slot_priority(self, slot: str) -> int:
        return self.slots.index(slot)


@dataclass(frozen=True)
class Item:
    """One recommendable item with its typed attributes."""

    item_id: str
    name: str
    attributes: dict[str, tuple[str, ...]] = field(default_factory=dict)


class ItemCollection:
    """Items keyed by id, with attribute keys restricted to domain slots.

    ``add`` checks an item, then enters it in the name and attribute
    tables, so lookups read tables that are always up to date and a
    rejected item leaves them as they were. Lookups return fresh lists
    that callers may mutate.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self._items: dict[str, Item] = {}
        # lowercased name -> first item added under it
        self._by_name: dict[str, Item] = {}
        # (slot, lowercased value) -> items in collection order, each once
        self._by_value: dict[tuple[str, str], list[Item]] = {}
        # slot -> its distinct values, sorted
        self._values: dict[str, list[str]] = {}

    def add(self, item: Item) -> None:
        if item.item_id in self._items:
            raise DuplicateItem(f"duplicate item id {item.item_id!r}")
        for slot in item.attributes:
            if not self.domain.has_slot(slot):
                raise UnknownSlot(f"attribute {slot!r} is not a domain slot")
        self._items[item.item_id] = item
        self._by_name.setdefault(item.name.lower(), item)
        for slot, values in item.attributes.items():
            distinct = self._values.setdefault(slot, [])
            for value in values:
                at = bisect_left(distinct, value)
                if at == len(distinct) or distinct[at] != value:
                    distinct.insert(at, value)
                key = (slot, value.lower())
                bucket = self._by_value.get(key)
                if bucket is None:
                    self._by_value[key] = [item]
                elif bucket[-1] is not item:  # a repeat within this item
                    bucket.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def __iter__(self) -> Iterable[Item]:
        return iter(self._items.values())

    def get(self, item_id: str) -> Item | None:
        return self._items.get(item_id)

    def by_name(self, name: str) -> Item | None:
        """Look an item up by its display name, case-insensitively."""
        return self._by_name.get(name.strip().lower())

    def with_attribute(self, slot: str, value: str) -> list[Item]:
        """Items carrying ``value`` for ``slot``, in collection order."""
        return list(self._by_value.get((slot, value.lower()), ()))

    def values_for_slot(self, slot: str) -> list[str]:
        """Distinct attribute values observed for ``slot``, sorted."""
        return list(self._values.get(slot, ()))


@dataclass(frozen=True)
class Rating:
    """One (user, item, rating) preference triple."""

    user_id: str
    item_id: str
    rating: float


@dataclass(frozen=True)
class RatingScale:
    """Inclusive [min, max] range ratings are expressed on."""

    min: float
    max: float

    def __post_init__(self) -> None:
        if not self.min < self.max:
            raise ValueError(f"degenerate rating scale [{self.min}, {self.max}]")


def _load(source: str | Path | IO[str], parse: Callable[..., Any],
          *args: Any) -> Any:
    """``parse(text, *args)`` over the text of ``source``."""
    with _opened(source) as file:
        return parse(file.read(), *args)


if yaml.__with_libyaml__:
    from yaml.cyaml import CParser

    class _Loader(Composer, CParser, Resolver):
        """libyaml's parser under PyYAML's Python composer, which comes
        first in the MRO so that it, not ``CParser``, builds the nodes."""

        def __init__(self, stream: str) -> None:
            CParser.__init__(self, stream)
            Composer.__init__(self)
            Resolver.__init__(self)
else:
    _Loader = yaml.SafeLoader  # type: ignore[misc,assignment]


@contextmanager
def _yaml_errors(what: str) -> Iterator[None]:
    """Turn PyYAML's errors into a one-line :class:`ParseError` naming
    ``what``, at the line of the problem where PyYAML marks one; libyaml
    reads UTF-8, so a lone surrogate in the text is one too."""
    try:
        yield
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        parts = (getattr(exc, "context", None), getattr(exc, "problem", None))
        # else the first line: a reader's character, not the stream's name
        problem = ", ".join(filter(None, parts)) or str(exc).split("\n")[0]
        raise ParseError(f"malformed {what}: {problem}",
                         line=mark.line + 1 if mark else None) from exc
    except RecursionError:
        raise ParseError(f"malformed {what}: nested too deeply") from None


class _Constructor(SafeConstructor):
    """PyYAML's safe constructor, except that a scalar its explicit tag
    cannot convert (``!!bool x``, ``!!int ''``, ``!!timestamp x``) is a
    constructor error at that node, not the bare ``KeyError``,
    ``ValueError`` or ``AttributeError`` the conversion raised."""

    def construct_object(self, node: yaml.Node, deep: bool = False) -> Any:
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError) as exc:
            value = (node.value if isinstance(node, yaml.ScalarNode)
                     else node.id)
            raise ConstructorError(
                None, None, f"cannot convert {value!r} to {node.tag}",
                node.start_mark) from exc


def _yaml_node(text: str, what: str) -> yaml.Node | None:
    """The node tree of a one-document YAML text, with line marks; None
    where the text holds no document. The only reader of YAML: errors
    name the document as ``what``."""
    with _yaml_errors(what):
        return yaml.compose(text, Loader=_Loader)


def _yaml_mapping(text: str, what: str) -> Mapping[Any, Any]:
    """Load a YAML mapping; errors name the document as ``what``."""
    node = _yaml_node(text, what)
    with _yaml_errors(what):
        doc = (None if node is None
               else _Constructor().construct_document(node))
    if not isinstance(doc, Mapping):
        raise ParseError(f"{what} must be a mapping")
    return doc


def parse_domain_config(text: str) -> Domain:
    """Parse a domain config document: a YAML mapping of ``name`` and
    ``slots``, the ordered list of slot names."""
    return read(Domain, _yaml_mapping(text, "domain config"), "domain config")


def load_domain(source: str | Path | IO[str]) -> Domain:
    return _load(source, parse_domain_config)


def load_item_collection(source: str | Path | IO[str], domain: Domain) -> ItemCollection:
    """Load a pipe-delimited item file.

    Row format: ``item_id | name | slot=value[,value...][; slot=...]``.
    The attribute column may be empty. Lines starting with ``#`` and blank
    lines are skipped. Rows end at ``\n``, ``\r\n`` or ``\r`` only, so other
    Unicode line breaks stay inside a name.
    """
    return _load(source, _items, domain)


def _items(text: str, domain: Domain) -> ItemCollection:
    collection = ItemCollection(domain)
    lines = io.StringIO(text, newline=None)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (2, 3):
            raise ParseError(
                f"expected 'item_id | name | attributes', got {len(parts)} column(s)",
                line=lineno,
            )
        item_id, name = parts[0], parts[1]
        if not item_id or not name:
            raise ParseError("item_id and name must be non-empty", line=lineno)
        attributes: dict[str, tuple[str, ...]] = {}
        if len(parts) == 3 and parts[2]:
            for group in parts[2].split(";"):
                group = group.strip()
                if not group:
                    continue
                if "=" not in group:
                    raise ParseError(f"malformed attribute group {group!r}", line=lineno)
                slot, _, joined = group.partition("=")
                slot = slot.strip()
                values = tuple(v.strip() for v in joined.split(",") if v.strip())
                if not values:
                    raise ParseError(f"attribute {slot!r} has no values", line=lineno)
                attributes[slot] = attributes.get(slot, ()) + values
        try:
            collection.add(Item(item_id=item_id, name=name, attributes=attributes))
        except (DuplicateItem, UnknownSlot) as exc:
            raise type(exc)(str(exc), line=lineno) from None
    return collection


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The rows of a CSV text; one that does not parse is a
    :class:`ParseError` naming its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}",
                         line=reader.line_num) from exc


def load_ratings(source: str | Path | IO[str], scale: RatingScale) -> list[Rating]:
    """Load ``user_id,item_id,rating`` CSV triples, order preserved.

    A header row is detected by a non-numeric third field on the first data
    line; comment lines start with ``#``.
    """
    return _load(source, _ratings, scale)


def _ratings(text: str, scale: RatingScale) -> list[Rating]:
    ratings: list[Rating] = []
    first_data_line = True
    for lineno, row in enumerate(_csv_rows(text), start=1):
        if not row or (row[0].startswith("#")):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        user_id, item_id, raw_value = (f.strip() for f in row)
        if first_data_line:
            first_data_line = False
            try:
                float(raw_value)
            except ValueError:
                continue  # header row
        try:
            value = float(raw_value)
        except ValueError:
            raise ParseError(f"non-numeric rating {raw_value!r}", line=lineno) from None
        if not scale.min <= value <= scale.max:
            raise RatingOutOfScale(
                f"rating {value} outside scale [{scale.min}, {scale.max}]", line=lineno
            )
        ratings.append(Rating(user_id=user_id, item_id=item_id, rating=value))
    return ratings
