"""Exception types shared across the package, the decorator that checks a value
type's every value, the one refusal of a field (``check_value``), and the one
reader of input files: every input file is read by ``read_text`` or
``json_document``, inside ``reading``, so any fault in it ends in the caller's
typed error naming the file."""

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


# (check, what the check expects) rules that two or more fields share.
JSON_OBJECT = (lambda v: type(v) is dict, "a JSON object")
LIST = (lambda v: type(v) is list, "a list")
STRING = (lambda v: type(v) is str, "a string")
STRING_OR_NULL = (lambda v: v is None or type(v) is str, "a string or null")
STRINGS = (lambda v: type(v) is list and all(type(s) is str for s in v), "a list of strings")
BOOL = (lambda v: type(v) is bool, "true or false")
INTEGER = (lambda v: type(v) is int, "an integer")
INTEGER_AT_LEAST_1 = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
NUMBER_AT_LEAST_0 = (lambda v: type(v) in (int, float) and v >= 0, "a number >= 0")
PROBABILITY = (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]")


def check_value(name: str, value: object, rule: tuple, error: type[VoteTreeError] = ConfigError):
    """``value``, unless it fails the (check, expected) ``rule``: the one
    refusal of any field the package reads, ``error("<name> must be
    <expected>, got <value>")``."""
    if not rule[0](value):
        raise error(f"{name} must be {rule[1]}, got {value!r}")
    return value


@contextmanager
def reading(source: object, error: type[VoteTreeError]):
    """Report any fault met while reading ``source`` as ``error("<source>: ...")``.

    A package error raised inside keeps its type and gains the prefix unless
    it already starts with ``source``; an unreadable file, undecodable text,
    bad JSON, JSON nested too deeply, a missing field or a value of the wrong
    type becomes ``error``.
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
    except RecursionError as exc:  # say, JSON nested deeper than the interpreter's stack
        raise error(f"{source}: nested too deeply") from exc


def read_text(path: str | Path, error: type[VoteTreeError]) -> str:
    """The UTF-8 text of the file at ``path``."""
    with reading(path, error):
        return Path(path).read_text(encoding="utf-8")


def json_document(path: str | Path, error: type[VoteTreeError], rule: tuple = JSON_OBJECT):
    """The JSON document at ``path``, whose top level must pass ``rule``
    (``JSON_OBJECT`` or ``LIST``)."""
    with reading(path, error):
        return check_value("top level", json.loads(read_text(path, error)), rule, error)
