"""The JSON file contract behind every file the package reads or writes.

Every record type declares its constructor fields once as a
:class:`record` spec, the one place a field is checked and given its
Python type: the constructor checks its fields by it (:func:`check_fields`)
and the reader builds the type from a document's fields unchecked
(``record.present``), so a file and a library caller meet the same rules.
A spec is a callable from a decoded JSON value to the checked value:
:func:`text` (a non-empty string), :func:`number` (the number rule),
``integer``, ``count`` (an integer >= 1), ``nonnegative`` (an integer >= 0,
the rule for seeds), :func:`flag`, :func:`nullable`, :func:`array`,
:func:`mapping` (an object with data for keys), :func:`instance` (a
nested record, or a document read into one) and :class:`record` (an
object of named fields, :func:`optional` ones with a default; other keys
are ignored).  :func:`versioned` checks a document's ``schema_version``.
A document shaped unlike its type keeps a spec of its own.
A refusal is a :class:`FieldError` naming the field path, e.g.
``nodes[3].id``.  :func:`number_column` is the number rule over a
whole column at once, for readers of large files.  Readers refuse the
``NaN``, ``Infinity`` and ``-Infinity`` tokens and prefix every error
with ``path``, or ``path:line`` for JSON-lines files; :func:`naming` puts
either in front of an error a caller raises about a file it read.
:func:`json_lines` decodes a JSON-lines file one line at a time, so a
reader of a large file can keep what it needs of each line and drop the
rest.  Writers sort keys, refuse non-finite values and serialise the
whole document before opening the file, so a refused value leaves no
file behind.
"""

from __future__ import annotations

import json
import numbers
import sys
from collections.abc import Mapping
from contextlib import contextmanager
from itertools import repeat
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import PoseGrammarError, ValidationError

SCHEMA_VERSION = 1

_FLOAT_MAX = sys.float_info.max


class FieldError(ValidationError):
    """A value a spec refused; each container it leaves puts its key or index
    in front of ``path``, so the message names the whole field.  ``want``
    is what the spec would have taken, when it refused the value's form."""

    def __init__(self, problem: str, want: str | None = None) -> None:
        super().__init__(problem)
        self.problem, self.path, self.want = problem, [], want

    def within(self, *keys) -> "FieldError":
        self.path[:0] = keys
        return self

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.path)
        return f"{where.removeprefix('.') or 'the document'} {self.problem}"


def _refused(want: str, value) -> FieldError:
    if isinstance(value, Mapping):
        shown = "a JSON object"
    elif isinstance(value, (list, tuple)):
        shown = f"a JSON array of length {len(value)}"
    elif isinstance(value, int) and not isinstance(value, bool) and abs(value) > _FLOAT_MAX:
        shown = "an integer beyond the float range"
    else:
        shown = repr(value)
    return FieldError(f"must be {want}, got {shown}", want)


def number(value) -> float:
    """The number rule: a finite float or an integer within the float range,
    never a bool; read as a float."""
    if type(value) is float:
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
    raise _refused("a finite number", value)


def number_column(values) -> np.ndarray:
    """The number rule over a sequence, read as a float array: one scan of
    the types, one conversion and one check of finiteness.  A refusal
    names the index of the first value refused."""
    types = set(map(type, values))
    if types <= {float, int}:
        try:
            column = np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            # An integer just beyond the float range rounds to its edge.
            edge = int in types and np.abs(column).max(initial=0.0) == _FLOAT_MAX
            if not edge and np.isfinite(column).all():
                return column
    # Some value is refused or of another type: check them one by one.
    checked = []
    for i, value in enumerate(values):
        try:
            checked.append(number(value))
        except FieldError as exc:
            raise exc.within(i) from None
    return np.array(checked, dtype=float)


def text(value) -> str:
    """A non-empty string."""
    if isinstance(value, str) and value:
        return value
    raise _refused("a non-empty string", value)


def _integer(least, want: str) -> Callable:
    def check(value) -> int:
        if type(value) is int:
            if least <= value <= _FLOAT_MAX:
                return value
        elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
            if least <= value <= _FLOAT_MAX:
                return int(value)
        raise _refused(want, value)

    return check


integer = _integer(-_FLOAT_MAX, "an integer")
count = _integer(1, "an integer >= 1")
nonnegative = _integer(0, "an integer >= 0")


def argument(name: str, value, spec: Callable):
    """``value`` checked by ``spec``; a refusal names the argument ``name``."""
    try:
        return spec(value)
    except FieldError as exc:
        raise exc.within(name) from None


def flag(value) -> bool:
    """``true`` or ``false``."""
    if isinstance(value, bool):
        return value
    raise _refused("true or false", value)


def nullable(spec: Callable) -> Callable:
    """``null``, read as ``None``, or what ``spec`` accepts."""
    return lambda value: None if value is None else spec(value)


def array(item, length: int | None = None) -> Callable:
    """A JSON array of ``item``s, of ``length`` entries when given, or with
    one entry per spec of a tuple ``item``; read as a tuple."""
    per_entry = isinstance(item, tuple)
    specs, length = (item, len(item)) if per_entry else (repeat(item), length)
    want = "a JSON array" + ("" if length is None else f" of length {length}")

    def check(value) -> tuple:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise _refused(want, value)
        if not per_entry:
            try:
                return tuple(map(item, value))
            except FieldError:
                pass  # refused again below, naming the entry's index
        out = []
        try:
            for i, (spec, entry) in enumerate(zip(specs, value)):
                out.append(spec(entry))
        except FieldError as exc:
            raise exc.within(i)
        return tuple(out)

    return check


def mapping(spec: Callable) -> Callable:
    """A JSON object with data for keys, every value checked by ``spec``."""

    def check(value) -> dict:
        if not isinstance(value, Mapping):
            raise _refused("a JSON object", value)
        out = {}
        try:
            for key, entry in value.items():
                out[key] = spec(entry)
        except FieldError as exc:
            raise exc.within(key)
        return out

    return check


def optional(spec: Callable, default) -> tuple:
    """A record field that may be absent, ``default`` then standing in."""
    return spec, default


_REQUIRED = object()


class record:
    """A JSON object of named fields, each a spec or an :func:`optional`
    one; keys it does not name are ignored.  Calling it gives a dict of
    every field, checked."""

    def __init__(self, **fields) -> None:
        self.fields = [(k, *f) if isinstance(f, tuple) else (k, f, _REQUIRED) for k, f in fields.items()]

    def __call__(self, value, checked: bool = True) -> dict:
        if type(value) is not dict and not isinstance(value, Mapping):
            raise _refused("a JSON object", value)
        out = {}
        try:
            for name, spec, default in self.fields:
                if name in value:
                    out[name] = spec(value[name]) if checked else value[name]
                elif default is _REQUIRED:
                    raise FieldError("is missing")
                else:
                    out[name] = default
        except FieldError as exc:
            raise exc.within(name)
        return out

    def present(self, value) -> dict:
        """The fields of ``value`` unchecked, for a constructor that checks
        them itself; only the object and its required keys are checked."""
        return self(value, checked=False)


def check_fields(obj, spec: record) -> None:
    """Set each field of the frozen dataclass ``obj`` to its value checked
    by ``spec``, past the frozen ``__setattr__``; ``obj`` may have slots."""
    try:
        for name, check, _default in spec.fields:
            object.__setattr__(obj, name, check(getattr(obj, name)))
    except FieldError as exc:
        raise exc.within(name)


def instance(cls: type, read: Callable | None = None) -> Callable:
    """An instance of ``cls``, kept as it is; with ``read``, any other value
    is read into one by it, e.g. a JSON object by ``cls.from_json_dict``.
    A value of neither form is refused naming both, e.g. ``must be a
    Person or a JSON object, got 5``."""

    def check(value):
        if isinstance(value, cls):
            return value
        if read is None:
            raise _refused(f"a {cls.__name__}", value)
        try:
            return read(value)
        except FieldError as exc:
            if exc.path:  # a field inside the value, not its form
                raise
            raise _refused(f"a {cls.__name__} or {exc.want}", value) from None

    return check


def _version(value) -> int:
    if type(value) is int and value == SCHEMA_VERSION:
        return value
    raise _refused(str(SCHEMA_VERSION), value)


schema_version = optional(_version, SCHEMA_VERSION)
_VERSIONED = record(schema_version=schema_version)


def versioned(doc):
    """``doc``, once it is a JSON object with the current ``schema_version``,
    if it has one."""
    _VERSIONED(doc)
    return doc


def parse_constant(token: str):
    """Decoder hook for ``NaN``, ``Infinity`` and ``-Infinity``: refuse them."""
    raise ValidationError(f"non-finite JSON constant {token!r} not allowed")


_DECODER = json.JSONDecoder(parse_constant=parse_constant)


@contextmanager
def naming(where: str):
    """Put ``where``, a path or ``path:line``, in front of a library error
    raised inside, as a :class:`~posegrammar.errors.ValidationError`."""
    try:
        yield
    except PoseGrammarError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def read_json(path: str, build: Callable = lambda doc: doc):
    """``build`` applied to the document in ``path``; errors name ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return build(_DECODER.decode(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def json_lines(path: str) -> Iterator[tuple[int, object]]:
    """Each non-blank line of ``path`` with its line number and its decoded
    document, one line at a time, so a caller can drop each document
    before the next line is decoded; a decode error names ``path:line``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                # A stripped line starts with its document, so ``decode``
                # is needed only for its error about text after it.
                doc, end = _DECODER.raw_decode(line)
                if end < len(line):
                    doc = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, doc


def read_json_lines(path: str, build: Callable) -> list:
    """``build`` applied to the document on each non-blank line of ``path``,
    line by line; errors name ``path:line``."""
    out = []
    for lineno, doc in json_lines(path):
        try:
            out.append(build(doc))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return out


def _write(path: str | None, docs: Iterable, indent: int | None = None) -> None:
    try:
        text = "".join(
            json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False) + "\n" for doc in docs
        )
    except ValueError as exc:
        raise ValidationError(f"{path or '<stdout>'}: {exc}") from exc
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path: str | None, doc) -> None:
    """Write ``doc`` indented by 2 with a trailing newline; ``None`` is stdout."""
    _write(path, [doc], indent=2)


def write_json_lines(path: str, docs: Iterable) -> None:
    """Write one compact document per line."""
    _write(path, docs)
