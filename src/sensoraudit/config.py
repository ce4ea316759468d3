"""Typed JSON configs: the one pattern every audit stage reads its config by.

A config is a frozen dataclass that subclasses ``JsonConfig``. It is read
from a JSON object with one key per field (``from_json_dict``,
``from_json_file``) and written back in field order (``to_json_dict``).
Every field is checked against its declared type whether the config comes
from JSON or from Python (``check_type``); a config that the type names is
built from its nested JSON object, directly or inside a list, dict or
``| None``. Lists are stored as tuples and JSON objects as ``FrozenMap``,
so every config is hashable. Errors are ``InvalidSpecError`` (exit 2),
and a config file that is missing is ``MissingFileError``.
"""

import dataclasses
import json
import numbers
import sys
from collections.abc import Mapping
from dataclasses import MISSING
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin

from .errors import InvalidSpecError, MissingFileError


_NOUNS = {int: "integer", float: "finite number", bool: "boolean", str: "string", NoneType: "null"}


def _conforms(t, value) -> bool:
    """True when ``value`` is of the declared type ``t``: an ``int`` that is
    not a bool, a finite real (not a bool) for ``float``, a list or tuple
    (never a string) of ``X`` for ``list[X]`` and ``tuple[X, ...]``, a
    dict (any mapping for ``Mapping``) of ``X`` for ``dict[str, X]``, None
    or ``X`` for ``X | None``, and an instance of any other class."""
    origin, args = get_origin(t), get_args(t)
    if origin in (Union, UnionType):
        return any(_conforms(a, value) for a in args)
    if origin in (list, tuple):
        return isinstance(value, (list, tuple)) and all(_conforms(args[0], v) for v in value)
    if origin in (dict, Mapping):
        return isinstance(value, origin) and all(
            _conforms(args[0], k) and _conforms(args[1], v) for k, v in value.items()
        )
    if isinstance(value, bool):
        return t is bool
    if t is float:  # the comparison is False for NaN and for ints beyond float range
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, t)


def _wanted(t, many: bool = False) -> str:
    """The declared type ``t`` in words, plural with ``many``."""
    origin, args = get_origin(t), get_args(t)
    if origin in (Union, UnionType):
        return " or ".join(_wanted(a, many) for a in args)
    if origin in (list, tuple):
        return f"list{'s' * many} of {_wanted(args[0], True)}"
    if origin in (dict, Mapping):
        return f"object{'s' * many} of {_wanted(args[1], True)}"
    return _NOUNS.get(t, f"{t.__name__} object") + "s" * many


def check_type(name: str, t, value, error: type[Exception] = InvalidSpecError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is of the declared
    type ``t`` (see ``_conforms``)."""
    if not _conforms(t, value):
        wanted = _wanted(t)
        article = "an" if wanted[0] in "aeiou" else "a"
        raise error(f"{name} must be {article} {wanted}, got {value!r}")


def _from_json(t, value):
    """``value`` read from JSON as the declared type ``t``: each config that
    ``t`` declares is built from its JSON object, directly or inside a
    list, dict or ``| None``; anything else is left for the type check."""
    origin, args = get_origin(t), get_args(t)
    if origin in (Union, UnionType):
        return None if value is None else _from_json(args[0], value)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        return [_from_json(args[0], v) for v in value]
    if origin in (dict, Mapping) and isinstance(value, dict):
        return {k: _from_json(args[1], v) for k, v in value.items()}
    if origin is None and issubclass(t, JsonConfig) and isinstance(value, dict):
        return t.from_json_dict(value)
    return value


def _checked_fields(cls, d) -> dict:
    """Constructor arguments of the dataclass ``cls`` from its JSON object.

    A field is read from the key of its name. A non-object, any other key,
    or a missing field that has no default raises ``InvalidSpecError``.
    """
    if not isinstance(d, dict):
        raise InvalidSpecError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise InvalidSpecError(f"unknown {cls.__name__} fields: {', '.join(unknown)}")
    required = [
        k for k, f in fields.items() if f.default is MISSING and f.default_factory is MISSING
    ]
    missing = [k for k in required if k not in d]
    if missing:
        raise InvalidSpecError(f"missing {cls.__name__} fields: {', '.join(missing)}")
    return {key: _from_json(fields[key].type, value) for key, value in d.items()}


def _to_json(value):
    if isinstance(value, JsonConfig):
        return value.to_json_dict()
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _to_json(v) for k, v in value.items()}
    return value


class FrozenMap(Mapping):
    """A read-only, hashable copy of a mapping: how a config stores a JSON
    object, as it stores a list as a tuple. Its values must be hashable."""

    def __init__(self, items=()):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"FrozenMap({self._items!r})"


class JsonConfig:
    """A frozen config dataclass, read from and written to JSON: one key per
    field, in field order, sequences as lists (see ``_checked_fields``).

    Every field must be of its declared type (``check_type``), whether the
    config comes from JSON or from Python. Sequence fields are declared
    ``tuple[...]`` (or ``tuple[...] | None``), and a list given to one is
    stored as a tuple. Mapping fields are declared ``Mapping[str, ...]``
    and stored as a ``FrozenMap``, so every config is hashable.
    ``check_bounds`` then applies the class's own limits on the values; it
    changes nothing.

    The declared type is ``Field.type``, so a module that defines a config
    must not postpone the evaluation of its annotations (PEP 563): that
    makes each type a string, which resolves only in its module's globals,
    and run by runpy (``python -m cProfile -m sensoraudit.cli``) the module
    a class names is not the one that defined it."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            check_type(f.name, f.type, value)
            if isinstance(value, list):
                object.__setattr__(self, f.name, tuple(value))
            elif isinstance(value, Mapping) and not isinstance(value, FrozenMap):
                object.__setattr__(self, f.name, FrozenMap(value))
        self.check_bounds()

    def check_bounds(self) -> None:
        """The class's limits on its well-typed fields; none by default."""

    @classmethod
    def from_json_dict(cls, d):
        return cls(**_checked_fields(cls, d))

    @classmethod
    def from_json_file(cls, path: str | Path):
        """The config in the JSON file ``path``; a path that is not a file
        raises ``MissingFileError``; invalid JSON, or a file that is not
        UTF-8 text, ``InvalidSpecError``."""
        path = Path(path)
        if not path.is_file():
            raise MissingFileError(f"{cls.__name__} not found: {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise InvalidSpecError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_json_dict(payload)

    def to_json_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in dataclasses.fields(self)}

    def check_positive_ints(self, *names: str) -> None:
        """Reject, by name, the first of these int fields that is below 1."""
        for name in names:
            value = getattr(self, name)
            if value < 1:
                raise InvalidSpecError(f"{name} must be a positive integer, got {value!r}")
