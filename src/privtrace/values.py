"""Typed cell values for mixed-type anonymized records, and taxonomy trees.

Cells are one of five shapes: a literal atom, a finite atom set, a closed
integer interval, an exact rational number, or a node of a named taxonomy
tree.  Everything is immutable and hashable; all arithmetic downstream is
exact (`fractions.Fraction`), never floating point.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, Union


class ColumnClass(Enum):
    """The four header classes; each has its own [0,1]-valued metric."""

    NOMINAL = "nominal"
    NUMERVAL = "numerval"
    NUMERICAL = "numerical"
    TAXORAL = "taxoral"


class IntervalMeasureMode(Enum):
    """How `metrics.d_num` measures two integer intervals."""

    INTEGER_SET = "integer-set"
    PAPER_COMPAT = "paper-compat"


class Record:
    """Base of the immutable records.

    A record's fields are its class's own annotations, in order, and a
    field's default is the value the class body assigns it.  The one
    constructor binds its arguments to the fields as a function with
    that signature would: a field left out takes its default, and a
    missing field, an unknown or repeated keyword or one positional
    argument too many raises TypeError.  It sets each field through
    `object.__setattr__` and then calls the class's `_check` hook, if it
    has one, which rejects bad values with ValueError and may normalise a
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


class Atom(Record):
    """A single literal value of a nominal column."""

    value: str

    def _check(self) -> None:
        if not self.value:
            raise ValueError("empty atom")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __str__(self) -> str:
        return self.value


class AtomSet(Record):
    """A nonempty finite set of atoms: a generalized nominal cell."""

    values: frozenset[str]

    def _check(self) -> None:
        object.__setattr__(self, "values", frozenset(self.values))
        if not self.values:
            raise ValueError("atom set must be nonempty")

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self.values)) + "}"


class IntInterval(Record):
    """Closed integer interval [lo, hi]; a single value a is [a, a]."""

    lo: int
    hi: int

    def _check(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval [{self.lo},{self.hi}] has lo > hi")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __str__(self) -> str:
        return f"[{self.lo}-{self.hi}]"

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


class Number(Record):
    """An exact rational value of a numerical column."""

    value: Fraction

    def _check(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __str__(self) -> str:
        return str(self.value)


class Taxon(Record):
    """A node of the taxonomy tree named `tree`."""

    tree: str
    node: str

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.tree == other.tree and self.node == other.node
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.tree, self.node))

    def __str__(self) -> str:
        return self.node


class Wildcard:
    """The pattern wildcard; a single shared instance `STAR` is used."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


STAR = Wildcard()

Value = Union[Atom, AtomSet, IntInterval, Number, Taxon]
Cell = Union[Value, Wildcard]

_KINDS = {
    Atom: ColumnClass.NOMINAL,
    AtomSet: ColumnClass.NOMINAL,
    IntInterval: ColumnClass.NUMERVAL,
    Number: ColumnClass.NUMERICAL,
    Taxon: ColumnClass.TAXORAL,
}


def value_kind(v: Value) -> ColumnClass:
    try:
        return _KINDS[type(v)]
    except KeyError:
        raise TypeError(f"not a cell value: {v!r}") from None


class TaxonomyTree:
    """A rooted tree of node ids; depth counts nodes from the root inclusive.

    `parent` maps every non-root node to its parent.  Construction validates
    that the map induces a single tree: no cycles, every node reaches the
    root, the root has no parent.
    """

    def __init__(self, name: str, root: str, parent: Mapping[str, str]) -> None:
        if root in parent:
            raise ValueError(f"taxonomy {name}: root {root!r} has a parent")
        self.name = name
        self.root = root
        self.parent = dict(parent)
        self.nodes = {root} | set(self.parent)
        for p in self.parent.values():
            if p not in self.nodes:
                raise ValueError(f"taxonomy {name}: unknown parent {p!r}")
        self._depth: dict[str, int] = {root: 1}
        for node in self.parent:
            chain: dict[str, None] = {}  # an ordered set: the nodes of unknown depth
            while node not in self._depth:
                if node in chain:
                    raise ValueError(f"taxonomy {name}: parent chain loops at {node!r}")
                chain[node] = None
                node = self.parent[node]
            for n in reversed(chain):
                self._depth[n] = self._depth[self.parent[n]] + 1

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def depth(self, node: str) -> int:
        if node not in self.nodes:
            raise ValueError(f"node {node!r} not in taxonomy {self.name}")
        return self._depth[node]

    def common_ancestor(self, x: str, y: str) -> str:
        """Deepest common ancestor of x and y: lift the deeper node to the
        other's depth, then walk both up until they meet."""
        x, y = sorted((x, y), key=self.depth)
        for _ in range(self.depth(y) - self.depth(x)):
            y = self.parent[y]
        while x != y:
            x, y = self.parent[x], self.parent[y]
        return x

    def is_strict_descendant(self, node: str, ancestor: str) -> bool:
        depth = self.depth(node)
        return (self._depth.get(ancestor, depth) < depth
                and self.common_ancestor(node, ancestor) == ancestor)


# The largest decimal exponent, in magnitude, that `parse_fraction` accepts.
# `Fraction("1e999999999")` builds 10**999999999 and stalls for hours; 4300 is
# CPython's default limit on the digits of an integer read from text
# (`sys.int_info.default_max_str_digits`), which already bounds the mantissa.
MAX_DECIMAL_EXPONENT = 4300

_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


class ExponentError(ValueError):
    """A decimal exponent beyond MAX_DECIMAL_EXPONENT in magnitude."""


def parse_fraction(value) -> Fraction:
    """The exact rational an input holds: a fraction or decimal string, or
    a JSON number.  Anything else (a JSON boolean too), a zero denominator
    and a non-finite float raise ValueError, and so does a decimal exponent
    beyond MAX_DECIMAL_EXPONENT (as ExponentError, before any power of ten
    is built)."""
    if isinstance(value, str):
        m = _EXPONENT_RE.search(value)
        if m:
            digits = m.group(1).replace("_", "").lstrip("0")
            if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                    or int(digits or 0) > MAX_DECIMAL_EXPONENT):
                raise ExponentError(
                    f"{value!r} has a decimal exponent beyond "
                    f"±{MAX_DECIMAL_EXPONENT}"
                )
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"{value!r} is not a fraction or decimal")


class ShapeError(ValueError):
    """An input document, or a part of one, of the wrong JSON shape."""


def read_text(path) -> str:
    """The text of the file at `path`; undecodable bytes raise ValueError naming it."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"file {path}: {exc}") from None


def read_json(text: str, what: str):
    """The JSON value `text` holds, else ShapeError naming the document
    `what`, also when it nests deeper than the decoder can follow."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ShapeError(f"{what} is not readable JSON: {exc}") from None


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
    """`value`, checked to have the shape `shape`, else ShapeError naming
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
            raise ShapeError(f"{where} must be a pair")
        return value
    if isinstance(shape, (dict, Names)):
        kind = dict
    elif isinstance(shape, list):
        kind = list
    else:
        kind = shape
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ShapeError(f"{where} must be " + " or ".join(_JSON_TYPES[k] for k in kinds))
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
                    raise ShapeError(f"{where} has no field {key!r}")
                field = field.shape
            if key in value:
                shaped(value[key], field, what, prefix + key)
    return value


_INTERVAL_RE = re.compile(r"^\[\s*(-?\d+)\s*-\s*(-?\d+)\s*\]$")
_SET_RE = re.compile(r"^\{(.*)\}$")
# A match is the text up to a comma, a bracket or the end, where a bracket
# pair holding no bracket is text: {a,b} or [lo-hi] costs no match.
_SPLIT_RE = re.compile(r"(?:[^][(){},]|\[[^][(){}]*\]|\{[^][(){}]*\}|\([^][(){}]*\))*"
                       r"([][(){},]|\Z)")


def split_top_level(text: str) -> list[str]:
    """Split on commas outside any (), [], {} nesting, in one pass."""
    parts: list[str] = []
    start = depth = 0
    for m in _SPLIT_RE.finditer(text):
        token = m.group(1)
        if token == ",":
            if not depth:
                parts.append(text[start : m.start(1)])
                start = m.end()
        elif token:
            depth += 1 if token in "([{" else -1
            if depth < 0:
                break
    if depth:
        raise ValueError(f"unbalanced brackets in {text!r}")
    return parts + [text[start:]]


def parse_cell(
    text: str,
    cls: ColumnClass,
    tree: TaxonomyTree | None = None,
) -> Value:
    """Parse one cell per the grammar: `[lo-hi]` interval, `{a,b}` set, bare
    token otherwise, directed by the column class."""
    text = text.strip()
    if not text:
        raise ValueError("empty cell")
    if cls is ColumnClass.NOMINAL:
        m = _SET_RE.match(text)
        if m:
            atoms = [a.strip() for a in m.group(1).split(",")]
            if any(not a for a in atoms):
                raise ValueError(f"bad atom set {text!r}")
            return AtomSet(atoms)
        return Atom(text)
    if cls is ColumnClass.NUMERVAL:
        m = _INTERVAL_RE.match(text)
        if m:
            return IntInterval(int(m.group(1)), int(m.group(2)))
        try:
            a = int(text)
        except ValueError:
            raise ValueError(f"cell {text!r} is not an interval or integer") from None
        return IntInterval(a, a)
    if cls is ColumnClass.NUMERICAL:
        return Number(parse_fraction(text))
    if cls is ColumnClass.TAXORAL:
        if tree is None:
            raise ValueError("taxoral cell requires a taxonomy")
        if text not in tree:
            raise ValueError(f"node {text!r} not in taxonomy {tree.name}")
        return Taxon(tree.name, text)
    raise ValueError(f"unknown column class {cls}")


def render_cell(cell: Cell) -> str:
    """Inverse of parse_cell; parsing the result under the same column class
    yields a structurally equal value."""
    return str(cell)
