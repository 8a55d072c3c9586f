"""The JSON file contract behind every file the package reads or writes.

Readers refuse the ``NaN``, ``Infinity`` and ``-Infinity`` tokens and
report any error as a :class:`ValidationError` that names ``path``, or
``path:line`` for JSON-lines files.  Writers sort keys, refuse non-finite
values and serialise the whole document before opening the file, so a
refused value leaves no file behind.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Iterable, Mapping

from .errors import PoseGrammarError, ValidationError


def parse_constant(token: str):
    """Decoder hook for ``NaN``, ``Infinity`` and ``-Infinity``: refuse them."""
    raise ValidationError(f"non-finite JSON constant {token!r} not allowed")


_DECODER = json.JSONDecoder(parse_constant=parse_constant)


def _build(where: str, text: str, build: Callable):
    try:
        return build(_DECODER.decode(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def read_json(path: str, build: Callable = lambda doc: doc):
    """``build`` applied to the document in ``path``; errors name ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _build(path, text, build)


def read_json_lines(path: str, build: Callable) -> list:
    """``build`` applied to the document on each non-blank line of ``path``;
    errors name ``path:line``."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                out.append(_build(f"{path}:{lineno}", line, build))
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


class malformed:
    """Context manager reporting ``doc`` as a ``malformed <what>`` unless it is
    an object whose fields have the types the body reads; errors of the
    package pass through.  A class, not a generator: it is entered once per
    proposal line, and this form costs a third as much."""

    __slots__ = ("what",)

    def __init__(self, what: str, doc) -> None:
        if not isinstance(doc, Mapping):
            raise ValidationError(f"malformed {what}: expected a JSON object, got {type(doc).__name__}")
        self.what = what

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> bool:
        shape_error = (LookupError, TypeError, ValueError, AttributeError, OverflowError)
        if kind is not None and issubclass(kind, shape_error) and not issubclass(kind, PoseGrammarError):
            raise ValidationError(f"malformed {self.what}: {exc}") from exc
        return False
