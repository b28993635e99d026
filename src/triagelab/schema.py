"""Key tables for the JSON files triagelab reads back, and the one walker
that checks a parsed file against its table.

A table is a tree of ``Spec``s.  An object's keys are all required, and
a key its table does not list is an error unless the object is
``open``.  A number is an ``int`` or a finite ``float``, never a
``bool`` and never a string; a ``?`` kind also takes ``null``, which no
rule applies to.  A bound applies to a number, or to a list's length.
A bound may name a key of the file's top-level object: a number stands
for itself, a list for its length.  The walker visits keys in table
order, so a table lists a key before the keys whose specs name it.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib

from .errors import ValidationError

_KINDS = {  # kind: (the types json.loads gives, what an error says it expected)
    "int": ((int,), "an integer"),
    "int?": ((int, type(None)), "an integer or null"),
    "num": ((int, float), "a finite number"),
    "num?": ((int, float, type(None)), "a finite number or null"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "true or false"),
    "list": ((list,), "a list"),
    "obj": ((dict,), "an object"),
}
_BOUNDS = {"min": (operator.ge, ">= "), "max": (operator.le, "<= "),
           "above": (operator.gt, "> "), "below": (operator.lt, "< "),
           "length": (operator.eq, "")}


class Spec:
    """A JSON value's kind and rules.  ``of`` holds a list's item spec (a
    tuple: its items' specs by position, for a list of that length) or an
    object's specs by key.  Rules: the bounds of ``_BOUNDS``; ``one_of``,
    the allowed values; ``unique``, the item keys whose values may not
    repeat in a list (an index or key, or None for the item itself); and
    ``open``."""

    def __init__(self, kind, of=None, one_of=None, unique=(), open=False, **bounds):
        self.types, self.expected = _KINDS[kind]
        self.of, self.one_of, self.unique, self.open = of, one_of, unique, open
        if type(of) is tuple:
            bounds["length"] = len(of)
        self.bounds = [(*_BOUNDS[name], bound) for name, bound in bounds.items()]

    def parse(self, text):
        """The JSON ``text``, checked against this spec."""
        return check(self, json.loads(text))


def _fail(where, message):
    raise ValidationError(f"{where}: {message}" if where else message)


def check(spec: Spec, value, root=None, where=""):
    """``value`` if it matches ``spec``; else ValidationError naming the
    first part that does not.  ``root`` is the file's top-level value."""
    root = value if root is None else root
    kind = type(value)
    if kind not in spec.types or (kind is float and not math.isfinite(value)):
        _fail(where, f"expected {spec.expected}, got {reprlib.repr(value)}")
    if value is None:
        return value
    for test, sign, bound in spec.bounds:
        measured, what = (len(value), "length ") if kind is list else (value, "")
        text = ""
        if isinstance(bound, str):  # a named key: its number, or its list's length
            named = root[bound]
            text, bound = (f" (len({bound}))", len(named)) if isinstance(named, list) else (
                f" ({bound})", named)
        if not test(measured, bound):
            _fail(where, f"expected {what}{sign}{bound}{text}, got {reprlib.repr(measured)}")
    if spec.one_of is not None and value not in spec.one_of:
        _fail(where, f"{reprlib.repr(value)} is not in {spec.one_of}")
    if kind is dict:
        extra = [key for key in value if key not in spec.of]
        if extra and not spec.open:
            _fail(where, f"unknown key {reprlib.repr(extra[0])}")
        for key, sub in spec.of.items():
            if key not in value:
                _fail(where, f"missing key {key!r}")
            check(sub, value[key], root, f"{where}.{key}" if where else key)
    elif kind is list:
        for i, item in enumerate(value):
            check(spec.of[i] if type(spec.of) is tuple else spec.of, item, root, f"{where}[{i}]")
        for key in spec.unique:
            seen = set()
            for i, item in enumerate(value):
                k = item if key is None else item[key]
                if k in seen:
                    at = f"{where}[{i}]" + {str: f".{key}", int: f"[{key}]"}.get(type(key), "")
                    _fail(at, f"{reprlib.repr(k)} repeats an earlier entry")
                seen.add(k)
    return value
