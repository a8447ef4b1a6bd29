"""One reader and one writer for every document that maps to a dataclass,
built from the annotations of the fields ``__init__`` takes, but
``_private`` ones.

The writer leaves out a field that is ``None`` and ``None`` by default.
It writes a dataclass of one field as that field, an ``Enum`` as its
value, a mapping sorted by key (an ``int`` key as text) and a
``frozenset`` sorted. The reader checks each type (a ``bool`` is no
``int``; a number, read as a ``float``, may be an ``int``), refuses keys
it does not know but a class's ``_retired_keys``, and names the path of
what does not fit. A JSON document holds every field that is written,
and ``int`` keys as text. Both are built once per annotation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import types
import typing
from collections.abc import Mapping
from enum import Enum
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable

from .errors import ParseError

_Reader = Callable[[Any, str], Any]
# the exact types of a scalar, what makes one of the annotated type (None:
# nothing) and their name; a container of scalars is checked in one pass
_SCALARS = {str: ((str,), None, "text"), int: ((int,), None, "an integer"),
            bool: ((bool,), None, "true or false"),
            float: ((float, int), float, "a number")}
_OPTIONAL = (typing.Union, types.UnionType)  # X | None


def read(tp: Any, value: Any, path: str, json: bool = False) -> Any:
    """``value`` as the annotation ``tp``, from a JSON document if
    ``json``; ``path`` names it in a :class:`ParseError`."""
    return _reader(tp, json)(value, path)


def known(value: Any, names: typing.AbstractSet[str], path: str) -> None:
    """Raise :class:`ParseError` unless ``value`` is a mapping whose keys
    are all in ``names``."""
    if not isinstance(value, dict):
        _fail(path, "a mapping", value)
    if not value.keys() <= names:
        unknown = ", ".join(sorted(map(repr, value.keys() - names)))
        raise ParseError(f"unknown {path} key(s): {unknown}")


class Document:
    """``to_dict`` and ``from_dict``: a dataclass and its JSON document."""

    def to_dict(self) -> Any:
        return _writer(type(self))(self)

    @classmethod
    def from_dict(cls, document: Any) -> Any:
        return read(cls, document, cls.__name__, json=True)


def _fail(path: str, kind: str, value: Any) -> typing.NoReturn:
    hint = ": quote it" if kind == "text" else ""
    raise ParseError(f"{path} must be {kind}, not {value!r:.60}{hint}")


def _made(make: Callable[[Any], Any], value: Any, path: str) -> Any:
    try:
        return make(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _fields(cls: type) -> list[tuple[str, Any, dataclasses.Field]]:
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name], f) for f in dataclasses.fields(cls)
            if f.init and not f.name.startswith("_")]


def _read_all(items: typing.Collection, item: tuple | _Reader, path: str,
              labels: typing.Iterable = repeat(None)) -> list:
    """``items`` read as ``item``, a scalar of :data:`_SCALARS` or a
    reader; the one that does not fit is named by its label."""
    if not isinstance(item, tuple):
        try:
            return [item(value, path) for value in items]
        except ParseError:
            for label, value in zip(labels, items):  # again, to name it
                item(value, path if label is None else f"{path}[{label!r}]")
            raise
    kinds, make, kind = item
    out = [value for value in items if type(value) in kinds]
    if len(out) < len(items):
        label, value = next((label, value) for label, value
                            in zip(labels, items) if type(value) not in kinds)
        _fail(path if label is None else f"{path}[{label!r}]", kind, value)
    return out if make is None else _made(list, map(make, out), path)


@functools.cache
def _reader(tp: Any, json: bool) -> _Reader:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in _OPTIONAL:
        inner = _reader(args[0], json)
        return lambda value, path: (None if value is None
                                    else inner(value, path))
    if scalar := _SCALARS.get(tp):
        return lambda value, path: _read_all([value], scalar, path)[0]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return lambda value, path: _made(tp, value, path)
    if dataclasses.is_dataclass(tp):
        return _dataclass_reader(tp, json)
    if origin is tuple and args[-1] is not Ellipsis:  # a pair of scalars
        (first, _, a), (second, _, b) = map(_SCALARS.get, args)

        def read_pair(value: Any, path: str) -> tuple:
            if (type(value) is list and len(value) == 2
                    and type(value[0]) in first
                    and type(value[1]) in second):
                return value[0], value[1]
            _fail(path, f"a list of {a} and {b}", value)
        return read_pair
    if origin in (dict, Mapping):
        key = (((str,), int, "an integer") if json and args[0] is int
               else _SCALARS.get(args[0]) or _reader(args[0], json))
        item = _SCALARS.get(args[1]) or _reader(args[1], json)
        plain = key in _SCALARS.values() and not isinstance(item, tuple)

        def read_mapping(value: Any, path: str) -> dict:
            if not isinstance(value, dict):
                _fail(path, "a mapping", value)
            if plain:  # in one pass if all fits, else again to name the misfit
                with contextlib.suppress(ParseError):
                    out = {k: item(v, path) for k, v in value.items()
                           if type(k) in key[0]}
                    if len(out) == len(value):
                        return out
            return dict(zip(_read_all(value, key, f"a key of {path}"),
                            _read_all(value.values(), item, path, value)))
        return read_mapping
    item = _SCALARS.get(args[0]) or _reader(args[0], json)

    def read_list(value: Any, path: str) -> Any:  # list, tuple, frozenset
        if not isinstance(value, list):
            _fail(path, "a list", value)
        return origin(_read_all(value, item, path, range(len(value))))
    return read_list


def _dataclass_reader(cls: type, json: bool) -> _Reader:
    fields = _fields(cls)
    if len(fields) == 1:  # read as its field
        ((name, tp, _),) = fields
        inner = _reader(tp, json)
        return lambda value, path: _made(
            lambda v: cls(**{name: v}), inner(value, path), path)
    readers = {name: _reader(tp, json) for name, tp, _ in fields}
    required = [name for name, _, f in fields if (
        f.default is not None if json
        else f.default is f.default_factory is dataclasses.MISSING)]
    accepted = {*readers, *getattr(cls, "_retired_keys", ())}
    build = lambda kwargs: cls(**kwargs)

    def read(value: Any, path: str) -> Any:
        known(value, accepted, path)
        for name in required:
            if name not in value:
                raise ParseError(f"{path} is missing {name!r}")
        return _made(build, {
            name: read_field(value[name], f"{path}.{name}")
            for name, read_field in readers.items() if name in value}, path)
    return read


@functools.cache
def _writer(tp: Any) -> Callable[[Any], Any]:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in _OPTIONAL:  # a None is left out
        return _writer(args[0])
    if isinstance(tp, type) and issubclass(tp, Enum):
        return attrgetter("_value_")
    if dataclasses.is_dataclass(tp):
        fields = [(name, _writer(t), f.default is None)
                  for name, t, f in _fields(tp)]
        if len(fields) == 1:  # written as its field
            ((name, write_field, _),) = fields
            return lambda value: write_field(getattr(value, name))
        return lambda value: {
            name: write_field(field_value)
            for name, write_field, omit in fields
            if (field_value := getattr(value, name)) is not None or not omit}
    if origin in (dict, Mapping):
        write_key = str if args[0] is int else _writer(args[0])
        write_value = _writer(args[1])
        if write_key is write_value is _same:
            return lambda value: dict(sorted(value.items()))
        return lambda value: {write_key(k): write_value(v)
                              for k, v in sorted(value.items())}
    write_item = _writer(args[0]) if args else _same
    if origin is frozenset:
        return lambda value: sorted(map(write_item, value))
    if origin in (list, tuple):
        return list if write_item is _same else (
            lambda value: list(map(write_item, value)))
    return _same


def _same(value: Any) -> Any:
    return value
