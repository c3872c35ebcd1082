"""Exception types shared across the package, the decorator that checks a value
type's every value, and the one reader of input files: every input file is read
by ``read_text`` or ``json_document``, inside ``reading``, so any fault in it
ends in the caller's typed error naming the file."""

import json
from contextlib import contextmanager
from pathlib import Path


class VoteTreeError(Exception):
    """Base class for all package errors."""


class CatalogError(VoteTreeError):
    """Malformed or inconsistent action catalog."""


class SceneError(VoteTreeError):
    """Malformed scene document or invariant violation while loading."""


class DatasetError(VoteTreeError):
    """Broken task fixture, e.g. a goal plan that does not execute."""


class ConfigError(VoteTreeError):
    """Invalid run or sampling configuration."""


class ProviderError(VoteTreeError):
    """A plan generator could not deliver the requested samples."""


class EmptyCommandPoolError(VoteTreeError):
    """No commands could be extracted from the generated plans."""


class NoPlansError(VoteTreeError):
    """A vote tree was requested for an empty plan collection."""


def checked(cls: type) -> type:
    """Make the named tuple ``cls`` call its ``_check()`` on every value it builds:
    by a call, ``_make``, ``_replace`` (which calls ``_make``) or 3.13's
    ``copy.replace`` (which calls ``_replace``)."""
    new = cls.__new__

    def __new__(kind, /, *args, **kwargs):  # a field may be named kind
        self = new(kind, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda kind, fields: kind(*fields))
    return cls


def check_choice(name: str, value: object, known: tuple[str, ...]) -> None:
    """The one check of a config value that names one of ``known``."""
    if value not in known:
        raise ConfigError(f"unknown {name} {value!r}; expected one of {', '.join(known)}")


# (check, what the check expects) for the numeric config values of several types.
INTEGER_AT_LEAST_1 = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
NUMBER_AT_LEAST_0 = (lambda v: type(v) in (int, float) and v >= 0, "a number >= 0")


def check_value(name: str, value: object, rule: tuple) -> None:
    """The one check of a config value against a (check, expected) rule."""
    if not rule[0](value):
        raise ConfigError(f"{name} must be {rule[1]}, got {value!r}")


@contextmanager
def reading(source: object, error: type[VoteTreeError]):
    """Report any fault met while reading ``source`` as ``error("<source>: ...")``.

    A package error raised inside keeps its type and gains the prefix unless
    it already starts with ``source``; an unreadable file, undecodable text,
    bad JSON, a missing field or a value of the wrong type becomes ``error``.
    """
    try:
        yield
    except VoteTreeError as exc:
        if str(exc).startswith(str(source)):
            raise
        raise type(exc)(f"{source}: {exc}") from exc
    except OSError as exc:
        raise error(f"{source}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise error(f"{source}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise error(f"{source}: {exc}") from exc


def read_text(path: str | Path, error: type[VoteTreeError]) -> str:
    """The UTF-8 text of the file at ``path``."""
    with reading(path, error):
        return Path(path).read_text(encoding="utf-8")


def json_document(path: str | Path, error: type[VoteTreeError], shape: type = dict):
    """The JSON document at ``path``, whose top level must be a ``shape``
    (``dict`` for an object, ``list`` for a list)."""
    with reading(path, error):
        document = json.loads(read_text(path, error))
        if not isinstance(document, shape):
            expected = "object" if shape is dict else "list"
            raise error(f"top level must be a JSON {expected}, got {type(document).__name__}")
    return document
