"""Exception hierarchy shared across the toolkit, and :func:`_opened`, the
one place that opens a file, which names it in the errors of its reader."""

from __future__ import annotations

from contextlib import contextmanager
from os import PathLike
from typing import IO, Iterator


class CrssimError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CrssimError):
    """A config or data document could not be parsed.

    Carries the 1-based ``line`` of the offending content when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@contextmanager
def _opened(source: str | PathLike[str] | IO[str], mode: str = "r"
            ) -> Iterator[IO[str]]:
    """``source`` opened as UTF-8 text in ``mode`` if it is a path, else as
    it is. Inside a path's block, a byte that is not UTF-8 raises
    :func:`_not_utf8`'s error, and a :class:`CrssimError` of any class is
    led by the path once, keeping its ``line``."""
    if not isinstance(source, (str, PathLike)):
        yield source
        return
    with open(source, mode, encoding="utf-8") as file:
        try:
            try:
                yield file
            except UnicodeDecodeError as exc:
                raise _not_utf8(source, exc) from exc
        except CrssimError as exc:
            exc.args = (f"{source}: {exc}",)
            raise


def _not_utf8(path: str | PathLike[str], error: UnicodeDecodeError
             ) -> ParseError:
    """The :class:`ParseError` for the file at ``path``, whose decoding
    failed with ``error``: at the line of its first byte that is not UTF-8
    (RFC 3629). It reads the file again, a line at a time, so a reader
    pays for it only once decoding has failed."""
    with open(path, "rb") as file:
        for number, line in enumerate(file, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(
                    f"not UTF-8 text: {exc.reason} "
                    f"{line[exc.start:exc.end]!r} at byte {exc.start + 1} "
                    "of the line", line=number)
    return ParseError(f"not UTF-8 text: {error.reason}")


class EmptySlotList(ParseError):
    """A domain declares no slots."""


class DuplicateSlot(ParseError):
    """A domain declares the same slot twice (case-insensitive)."""


class UnknownSlot(ParseError):
    """A slot name is not declared by the domain."""


class DuplicateItem(ParseError):
    """Two item rows share the same item id."""


class RatingOutOfScale(ParseError):
    """A rating value lies outside the declared scale."""


class SchemaVersionMismatch(ParseError):
    """A persisted document carries an unsupported schema version."""


class EmptySample(CrssimError):
    """A training operation received no samples."""


class UnknownIntent(ParseError):
    """An intent label is referenced but not declared."""


class NoTerminalIntent(ParseError):
    """The interaction model does not declare its terminal intent."""


class MissingSlotValue(CrssimError):
    """A template placeholder has no value to fill it with."""


class InsufficientRatingsUsers(CrssimError):
    """Grounded population generation needs more distinct ratings users."""


class AgentError(CrssimError):
    """A participant failed mid-conversation; the dialogue is aborted."""


class TransportError(AgentError):
    """The remote agent could not be reached (after retries)."""


class ProtocolError(AgentError):
    """The remote agent sent a response that violates the wire protocol."""


class NoDialogues(CrssimError):
    """Evaluation was asked to run on an empty dialogue set."""
