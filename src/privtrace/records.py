"""The record base and the input readers every layer shares.

`Record` is the base of the immutable records; `parse_fraction` reads
the exact rationals of every input; `read_text`, `read_json` and the shape
walker `shaped` read input documents; `InputError` is the one error every
layer raises for an input it refuses.  This module imports no other
privtrace module, so a mechanism file's `dp-check` loads neither the cell
values nor the taxonomies.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import attrgetter


class InputError(ValueError):
    """An input the analyser refuses: its message names the input and what
    is wrong with it.  The CLI turns it, and only it and OSError, into
    `error:` and exit 2."""


class Record:
    """Base of the immutable records.

    A record's fields are its class's own annotations, in order, and a
    field's default is the value the class body assigns it.  The one
    constructor binds its arguments to the fields as a function with
    that signature would: a field left out takes its default, and a
    missing field, an unknown or repeated keyword or one positional
    argument too many raises TypeError.  It sets each field through
    `object.__setattr__` and then calls the class's `_check` hook, if it
    has one, which rejects bad values with InputError and may normalise a
    field in place (a mapping defaulted to None becomes a fresh empty
    dict, never one shared).  Assigning or deleting an attribute
    afterwards raises AttributeError.

    A record equals only a record of the same class with equal fields,
    and hashes as the tuple of its fields.  A class that writes its own
    `__eq__` and `__hash__` keeps them: `Atom`, `IntInterval`, `Number`,
    `Taxon` and `TuplePattern` do, reading their fields directly, since
    a saturating report hashes each of them hundreds to thousands of
    times (`Atom` 5,465, `Taxon` 1,578, `TuplePattern` 1,327,
    `IntInterval` 1,161, `Number` 184 calls on the seed-1 trace-saturate
    bench report) and the generic `attrgetter` path takes about twice as
    long per call.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _check = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {
            name: cls.__dict__[name] for name in fields if name in cls.__dict__
        }
        if "__eq__" in cls.__dict__:
            return
        if len(fields) > 1:
            key = attrgetter(*fields)
        else:
            def key(self):
                return tuple(getattr(self, name) for name in fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        check = self._check
        if check is not None:
            check()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call that is not exactly one
        positional argument per field."""
        fields, defaults = self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} "
                            f"positional arguments but {len(args)} were given")
        bound = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                raise TypeError(f"{type(self).__qualname__}() missing required "
                                f"argument {name!r}")
        for name in kwargs:
            if name in fields:
                raise TypeError(f"{type(self).__qualname__}() got multiple "
                                f"values for argument {name!r}")
            raise TypeError(f"{type(self).__qualname__}() got an unexpected "
                            f"keyword argument {name!r}")
        return bound

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        ) + ")"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new record of this class with `changes` applied to the fields,
        built through the constructor, so it is checked and caches
        nothing."""
        for name in self._fields:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)


# The largest decimal exponent, in magnitude, that `parse_fraction` accepts.
# `Fraction("1e999999999")` builds 10**999999999 and stalls for hours; 4300 is
# CPython's default limit on the digits of an integer read from text
# (`sys.int_info.default_max_str_digits`), which already bounds the mantissa.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_fraction(value) -> Fraction:
    """The exact rational an input holds: a fraction or decimal string, or
    a JSON number.  Anything else (a JSON boolean too), a zero denominator,
    a non-finite float and a decimal exponent beyond MAX_DECIMAL_EXPONENT
    (checked before any power of ten is built) raise InputError."""
    if isinstance(value, str):
        m = _EXPONENT_RE.search(value)
        if m:
            digits = m.group(1).replace("_", "").lstrip("0")
            if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                    or int(digits or 0) > MAX_DECIMAL_EXPONENT):
                raise InputError(
                    f"{value!r} has a decimal exponent beyond "
                    f"±{MAX_DECIMAL_EXPONENT}"
                )
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except ValueError as exc:  # a bad literal, or past the digit limit
            raise InputError(str(exc)) from None
        except (TypeError, ZeroDivisionError, OverflowError):
            pass
    raise InputError(f"{value!r} is not a fraction or decimal")


def located(where: str, parse, *args):
    """`parse(*args)`, its InputError raised again naming `where`."""
    try:
        return parse(*args)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def read_text(path) -> str:
    """The text of the file at `path`, read as UTF-8; a name the system cannot
    open (one holding a NUL) or bytes that do not decode raise InputError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except ValueError as exc:
        raise InputError(f"file {path}: {exc}") from None


def read_json(text: str, what: str):
    """The JSON value `text` holds, else InputError naming the document
    `what`, also when it nests deeper than the decoder can follow or holds
    an integer past the interpreter's limit on digits."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} is not readable JSON: {exc}") from None


class Required:
    """The shape of a field that every object of its kind must have."""

    def __init__(self, shape) -> None:
        self.shape = shape


class Names:
    """The shape of an object that maps free names to values of one shape."""

    def __init__(self, shape) -> None:
        self.shape = shape


# A pair: a JSON array of two strings (line ids, or mechanism inputs).
PAIR = "pair"

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", type(None): "null"}


def shaped(value, shape, what: str, path: str = ""):
    """`value`, checked to have the shape `shape`, else InputError naming
    the document `what` and the `path` to the part at fault.  A shape is a
    JSON type or a tuple of them (`object` for any value, which its reader
    checks), `PAIR`, `[shape]` for an array of that shape, `Names(shape)`,
    or a `{key: shape}` dict for an object whose fields, when present,
    have those shapes; a `Required(shape)` field must be present.  Other
    fields are ignored.  Each node of `value` the shape reaches is visited
    once."""
    where = f"{what} {path}" if path else what
    if shape is PAIR:
        if len(shaped(value, [str], what, path)) != 2:
            raise InputError(f"{where} must be a pair")
        return value
    if isinstance(shape, (dict, Names)):
        kind = dict
    elif isinstance(shape, list):
        kind = list
    else:
        kind = shape
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise InputError(f"{where} must be " + " or ".join(_JSON_TYPES[k] for k in kinds))
    prefix = f"{path}." if path else ""
    if isinstance(shape, list):
        for i, item in enumerate(value):
            shaped(item, shape[0], what, f"{path}[{i}]")
    elif isinstance(shape, Names):
        for name, item in value.items():
            shaped(item, shape.shape, what, prefix + name)
    elif isinstance(shape, dict):
        for key, field in shape.items():
            if isinstance(field, Required):
                if key not in value:
                    raise InputError(f"{where} has no field {key!r}")
                field = field.shape
            if key in value:
                shaped(value[key], field, what, prefix + key)
    return value
