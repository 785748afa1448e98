"""Shared exception types for the toolkit, the one place that decides how a
malformed JSON input is reported and what type a JSON value must have, and
the one way an output file is replaced."""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Callable, Iterable, Iterator


class VlaadError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(VlaadError, ValueError):
    """A vector or parameter tensor has the wrong shape."""


class DegenerateInputError(VlaadError, ValueError):
    """Zero-norm or otherwise numerically unusable input."""


class EmptyInputError(VlaadError, ValueError):
    """An input that must be non-empty is empty."""


class ValidationError(VlaadError, ValueError):
    """A record, config, or argument violates its schema invariants."""


class MissingEmbeddingError(ValidationError):
    """An embedding cache holds no vector for a requested id."""


class SummarizerError(VlaadError, RuntimeError):
    """Summarizer endpoint unreachable or returned an unusable response."""


class SummarizerReplyError(SummarizerError):
    """The summarizer answered, but not with a usable reply: a retry would
    only ask again for the same answer."""


class NonFiniteLossError(VlaadError, RuntimeError):
    """Training produced a non-finite loss; message carries epoch/batch."""


# What bad JSON or a value of the wrong type raises while it is parsed
# (JSONDecodeError and ValidationError are ValueErrors).
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError,
              OverflowError)
_NUMBER_TYPES = frozenset((int, float))  # of a JSON number: no bool
LINES_BUFFER = 1 << 16  # bytes; the default 8 KB reads 7 KB lines 5x slower


def _malformed(where: str, exc: Exception) -> ValidationError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValidationError(f"{where}: {detail}")


_raw_decode = json.JSONDecoder().raw_decode


def _loads(text: str):
    """``json.loads(text)``, without its per-call cost when ``text`` starts
    with its JSON value: the value is decoded in one ``raw_decode`` and only
    JSON whitespace may follow.  Any other text goes to ``json.loads``, so
    the value or the error is always the one it gives."""
    try:
        obj, end = _raw_decode(text)
    except ValueError:
        return json.loads(text)
    if text[end:].strip(" \t\n\r"):
        return json.loads(text)
    return obj


def json_lines(lines: Iterable, where, what: str, parse: Callable,
               located: bool = False) -> Iterator:
    """``parse`` of each non-blank JSON line (str, or UTF-8 bytes), reading
    one line per item.

    A line that is not JSON, or that ``parse`` rejects, raises
    ``ValidationError("{where}: {what} line {n}: ...")``.  With ``located``,
    ``parse`` also gets that ``"{where}: {what} line {n}"``, to name in an
    error it raises later.
    """
    for lineno, line in enumerate(lines, start=1):
        if line and not line.isspace():
            try:  # strict UTF-8; json.loads(bytes) sniffs, slower, for UTF-16 too
                obj = _loads(line.decode() if isinstance(line, bytes) else line)
                item = (parse(obj, f"{where}: {what} line {lineno}") if located
                        else parse(obj))
            except _MALFORMED as exc:
                raise _malformed(f"{where}: {what} line {lineno}", exc) from exc
            yield item


def _refused(field: str, key, kind: str, value) -> ValidationError:
    """The one wording of a wrong JSON value: ``field`` or its entry ``key``."""
    name = field if key is None else f"{field}[{key!r}]"
    return ValidationError(f"{name} must be {kind}, got {value!r}")


def json_int(value, field: str, key=None) -> int:
    """``value`` if it is a JSON integer: not a bool, a float or a string."""
    if type(value) is not int:
        raise _refused(field, key, "an integer", value)
    return value


def json_str(value, field: str) -> str:
    """``value`` if it is a JSON string: not null, a number or a list."""
    if type(value) is not str:
        raise _refused(field, None, "a string", value)
    return value


def json_bool(value, field: str) -> bool:
    """``value`` if it is ``true`` or ``false``: not 0, 1 or ``"no"``."""
    if type(value) is not bool:
        raise _refused(field, None, "true or false", value)
    return value


def json_number(value, field: str, key=None):
    """``value`` if it is a finite JSON int or float: not a bool, NaN, inf or
    an int that no float holds."""
    try:
        if type(value) in _NUMBER_TYPES and math.isfinite(value):
            return value
    except OverflowError:  # isfinite of an int beyond float range
        pass
    raise _refused(field, key, "a finite number", value)


def json_strings(value, field: str) -> list:
    """``value`` if it is a non-empty JSON list of strings."""
    if not (type(value) is list and value and all(type(v) is str for v in value)):
        raise _refused(field, None, "a non-empty list of strings", value)
    return value


def json_numbers(value, field: str) -> list:
    """``value`` if it is a JSON list of numbers, not of bools or strings."""
    if not (type(value) is list and _NUMBER_TYPES.issuperset(map(type, value))):
        raise ValidationError(f"{field} must be a list of numbers, not bools or strings")
    return value


def json_document(path, what: str, parse: Callable):
    """``parse`` of the one JSON value in the file at ``path``.  Errors name
    the path (a syntax error also its line and column)."""
    with open(path, "rb") as fh:
        try:
            return parse(json.loads(fh.read().decode()))
        except _MALFORMED as exc:
            raise _malformed(f"{path}: {what}", exc) from exc


@contextlib.contextmanager
def replace_on_success(path) -> Iterator[str]:
    """A temporary path beside ``path`` for the caller to write the whole
    output to.  It replaces ``path`` only when the block finishes; on any
    exception it is removed, so ``path`` is never left half-written and an
    older file there stays as it was."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
