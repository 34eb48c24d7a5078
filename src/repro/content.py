"""Content digests and JSON codecs that walk dataclass fields.

Every content-keyed cache and persisted document in this package — the
simulation cache, the robust batch grouping, the perturbation-spec key,
plan files, sweep checkpoints — is keyed or encoded by a function here,
and each one reads the *fields* of the dataclass it is given, never a
hand-kept list of them. A field added to such a class is covered the
moment it is declared. A field leaves a digest only by saying so on
itself, with a reason, through ``field(metadata=...)``:

* :func:`omit` leaves the field out of every digest (a label no computed
  number reads);
* :func:`shape_free` leaves it out of shape digests only
  (``content_digest(obj, shape=True)``): values such as durations that
  change an answer but not the structure that computes it.

An empty reason raises when the class is defined. Codecs encode every
field, declared or not. A field whose value needs its own encoding names
it as ``metadata={CODEC: (encode, decode)}``.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import hashlib
import itertools
import operator
import typing
from array import array
from typing import Any, Callable, Dict, List, Mapping, Tuple, Type, TypeVar

__all__ = [
    "CODEC",
    "CodecError",
    "content_digest",
    "field_hints",
    "from_json",
    "omit",
    "shape_free",
    "to_json",
]

#: Field-metadata key of a per-field ``(encode, decode)`` JSON codec.
CODEC = "codec"
_OMIT = "digest.omit"
_SHAPE_FREE = "digest.shape_free"

_SEQUENCES = (list, tuple, collections.abc.Sequence)
_MAPPINGS = (dict, collections.abc.Mapping)

T = TypeVar("T")


class CodecError(ValueError):
    """A JSON document does not match the dataclass it should decode to.

    The message starts with the dotted path of the offending field.
    """


def _declaration(kind: str, reason: str) -> Dict[str, str]:
    if not isinstance(reason, str) or not reason.strip():
        raise ValueError(f"{kind}() needs a reason: say why the digest may skip the field")
    return {kind: reason}


def omit(reason: str) -> Dict[str, str]:
    """Field metadata leaving the field out of every digest."""
    return _declaration(_OMIT, reason)


def shape_free(reason: str) -> Dict[str, str]:
    """Field metadata leaving the field out of shape digests only."""
    return _declaration(_SHAPE_FREE, reason)


@functools.lru_cache(maxsize=None)
def field_hints(cls: Any) -> Tuple[Tuple[dataclasses.Field, Any], ...]:
    """``(field, resolved type hint)`` of each field of ``cls``, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def _optional(hint: Any) -> Any:
    """The ``X`` of ``Optional[X]``, or ``None`` when ``hint`` is not one."""
    if typing.get_origin(hint) is typing.Union:
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(args) == 1:
            return args[0]
    return None


def _is_dataclass_hint(hint: Any) -> bool:
    return isinstance(hint, type) and dataclasses.is_dataclass(hint)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _digested(cls: Any, shape: bool) -> Tuple[Tuple[Callable, Any], ...]:
    """``(getter, hint)`` of each field a digest of ``cls`` reads."""
    return tuple(
        (operator.attrgetter(f.name), hint)
        for f, hint in field_hints(cls)
        if _OMIT not in f.metadata and not (shape and _SHAPE_FREE in f.metadata)
    )


#: A member's value, read as the plain ``_value_`` attribute the enum
#: docs name: several times cheaper than the ``.value`` property.
_enum_value = operator.attrgetter("_value_")


@functools.lru_cache(maxsize=None)
def _enum_value_hint(cls: Any) -> Any:
    kinds = {type(member.value) for member in cls}
    return kinds.pop() if len(kinds) == 1 else object


def _feed(update: Callable[[Any], None], values: List, hint: Any, shape: bool) -> None:
    """Feed one column: ``values`` all have type ``hint``.

    Numbers go in as one ``array``, strings as their lengths and bytes, a
    dataclass as one column per digested field, a sequence or mapping as
    its lengths and then its flattened elements. The type fixes the
    layout, so equal bytes mean equal content.
    """
    if hint is float:
        update(array("d", values))
    elif hint is int or hint is bool:
        try:
            packed = array("q", values)
        except OverflowError:  # an int beyond 64 bits: digest the digits
            update(b"big")
            _feed(update, list(map(repr, values)), str, shape)
        else:
            update(packed)
    elif hint is str:
        encoded = list(map(str.encode, values))
        update(array("q", map(len, encoded)))
        update(b"".join(encoded))
    elif _is_dataclass_hint(hint):
        for getter, field_hint in _digested(hint, shape):
            _feed(update, list(map(getter, values)), field_hint, shape)
    elif isinstance(hint, type) and issubclass(hint, enum.Enum):
        _feed(update, list(map(_enum_value, values)), _enum_value_hint(hint), shape)
    elif _optional(hint) is not None:
        inner = _optional(hint)
        # An empty container means what no container means (the engines
        # read both as "use the default"), so both digest alike.
        sized = typing.get_origin(inner) in _SEQUENCES + _MAPPINGS
        present = [bool(v) if sized else v is not None for v in values]
        update(array("b", present))
        _feed(update, list(itertools.compress(values, present)), inner, shape)
    else:
        origin = typing.get_origin(hint)
        args = typing.get_args(hint)
        if origin in _MAPPINGS and args:
            items = [sorted(value.items()) for value in values]
            update(array("q", map(len, items)))
            flat = list(itertools.chain.from_iterable(items))
            _feed(update, [key for key, _ in flat], args[0], shape)
            _feed(update, [item for _, item in flat], args[1], shape)
        elif origin in _SEQUENCES and args and (origin is not tuple or args[-1] is ...):
            update(array("q", map(len, values)))
            _feed(update, list(itertools.chain.from_iterable(values)), args[0], shape)
        elif origin is tuple and args:
            for position, arg in enumerate(args):
                _feed(update, list(map(operator.itemgetter(position), values)), arg, shape)
        else:
            _feed(update, list(map(repr, values)), str, shape)


def content_digest(obj: Any, shape: bool = False) -> str:
    """Digest of every field of ``obj`` that is not declared out.

    ``shape=True`` also leaves out the :func:`shape_free` fields. Lists of
    dataclasses are hashed column by column, so the cost is a few C-level
    passes per field rather than a formatted string per element.
    """
    cls = type(obj)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(f"{cls.__module__}.{cls.__qualname__}|shape={shape}".encode())
    _feed(hasher.update, [obj], cls, shape)
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


def to_json(obj: Any) -> Dict[str, Any]:
    """``obj``'s fields as JSON-compatible data, one key per field."""
    return _to_json(obj, type(obj))


#: Hints whose values are already JSON data.
_PLAIN = frozenset({int, float, bool, str, object, Any})


def _to_json(value: Any, hint: Any) -> Any:
    if value is None or hint in _PLAIN:
        return value
    if _is_dataclass_hint(hint):
        out = {}
        for f, field_hint in field_hints(hint):
            item = getattr(value, f.name)
            codec = f.metadata.get(CODEC)
            out[f.name] = codec[0](item) if codec else _to_json(item, field_hint)
        return out
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return value.value
    inner = _optional(hint)
    if inner is not None:
        return _to_json(value, inner)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in _MAPPINGS and args:
        # JSON keys are strings; from_json turns them back by the hint.
        return {
            key if isinstance(key, str) else str(key): _to_json(item, args[1])
            for key, item in value.items()
        }
    if origin in _SEQUENCES and args:
        return [_to_json(item, args[0]) for item in value]
    return value


def from_json(cls: Type[T], data: Any) -> T:
    """Rebuild a ``cls`` from :func:`to_json` output, checking as it goes.

    Raises:
        CodecError: naming the dotted field path of a missing required
            field, an unknown field, or a value of the wrong JSON type (a
            bool is not a number). Missing fields that have a default
            take it.
    """
    return _from_json(data, cls, cls.__name__)


_SCALARS: Mapping[Any, Tuple[Tuple[type, ...], str]] = {
    int: ((int,), "an int"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a bool"),
    str: ((str,), "a string"),
}


def _from_json(data: Any, hint: Any, path: str) -> Any:
    if hint is object or hint is Any:
        return data
    if hint in _SCALARS:
        types, want = _SCALARS[hint]
        if type(data) not in types:
            raise CodecError(f"{path}: want {want}, got {data!r}")
        return data
    if _is_dataclass_hint(hint):
        return _dataclass_from_json(data, hint, path)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint(data)
        except ValueError as exc:
            raise CodecError(f"{path}: {exc}") from None
    inner = _optional(hint)
    if inner is not None:
        return None if data is None else _from_json(data, inner, path)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in _MAPPINGS:
        if type(data) is not dict:
            raise CodecError(f"{path}: want a JSON object, got {type(data).__name__}")
        if not args:
            return data
        return {
            _key_from_json(key, args[0], path): _from_json(
                item, args[1], f"{path}[{key!r}]"
            )
            for key, item in data.items()
        }
    if origin in _SEQUENCES and args and (origin is not tuple or args[-1] is ...):
        if type(data) is not list:
            raise CodecError(f"{path}: want a JSON array, got {type(data).__name__}")
        items = [
            _from_json(item, args[0], f"{path}[{i}]") for i, item in enumerate(data)
        ]
        return tuple(items) if origin is tuple else items
    raise TypeError(f"{path}: no JSON decoding for a field of type {hint}")


def _key_from_json(key: str, hint: Any, path: str) -> Any:
    if hint is int:
        try:
            return int(key)
        except ValueError:
            raise CodecError(f"{path}: want int keys, got {key!r}") from None
    return key


def _dataclass_from_json(data: Any, cls: Any, path: str) -> Any:
    if type(data) is not dict:
        raise CodecError(f"{path}: want a JSON object, got {type(data).__name__}")
    hints = field_hints(cls)
    unknown = set(data) - {f.name for f, _ in hints}
    if unknown:
        raise CodecError(f"{path}.{sorted(unknown)[0]}: unknown field")
    kwargs = {}
    for f, hint in hints:
        where = f"{path}.{f.name}"
        if f.name not in data:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise CodecError(f"{where}: missing required field")
            continue
        codec = f.metadata.get(CODEC)
        item = data[f.name]
        kwargs[f.name] = codec[1](item) if codec else _from_json(item, hint, where)
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the class's own checks (__post_init__)
        raise CodecError(f"{path}: {exc}") from exc
