"""Typed cell values for mixed-type anonymized records, and taxonomy trees.

Cells are one of five shapes: a literal atom, a finite atom set, a closed
integer interval, an exact rational number, or a node of a named taxonomy
tree.  Everything is immutable and hashable; all arithmetic downstream is
exact (`fractions.Fraction`), never floating point.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from typing import Mapping, Union

from .records import Record, parse_fraction


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
    # ColumnClass.TAXORAL, the one class left
    if tree is None:
        raise ValueError("taxoral cell requires a taxonomy")
    if text not in tree:
        raise ValueError(f"node {text!r} not in taxonomy {tree.name}")
    return Taxon(tree.name, text)


def render_cell(cell: Cell) -> str:
    """Inverse of parse_cell; parsing the result under the same column class
    yields a structurally equal value."""
    return str(cell)
