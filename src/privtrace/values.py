"""Typed cell values for mixed-type anonymized records, and taxonomy trees.

Cells are one of five shapes: a literal atom, a finite atom set, a closed
integer interval, an exact rational number, or a node of a named taxonomy
tree.  Everything is immutable and hashable; all arithmetic downstream is
exact (`fractions.Fraction`), never floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Union


class ColumnClass(Enum):
    """The four header classes; each has its own [0,1]-valued metric."""

    NOMINAL = "nominal"
    NUMERVAL = "numerval"
    NUMERICAL = "numerical"
    TAXORAL = "taxoral"


@dataclass(frozen=True)
class Atom:
    """A single literal value of a nominal column."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("empty atom")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AtomSet:
    """A nonempty finite set of atoms: a generalized nominal cell."""

    values: frozenset[str]

    def __init__(self, values: Iterable[str]) -> None:
        vals = frozenset(values)
        if not vals:
            raise ValueError("atom set must be nonempty")
        object.__setattr__(self, "values", vals)

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self.values)) + "}"


@dataclass(frozen=True)
class IntInterval:
    """Closed integer interval [lo, hi]; a single value a is [a, a]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval [{self.lo},{self.hi}] has lo > hi")

    def __str__(self) -> str:
        return f"[{self.lo}-{self.hi}]"

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class Number:
    """An exact rational value of a numerical column."""

    value: Fraction

    def __init__(self, value) -> None:
        object.__setattr__(self, "value", Fraction(value))

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Taxon:
    """A node of the taxonomy tree named `tree`."""

    tree: str
    node: str

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

    def __str__(self) -> str:
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
            self._compute_depth(node)
        self._paths: dict[str, tuple[str, ...]] = {}

    def _compute_depth(self, node: str) -> int:
        if node in self._depth:
            return self._depth[node]
        seen = []
        cur = node
        while cur not in self._depth:
            if cur in seen:
                raise ValueError(
                    f"taxonomy {self.name}: parent chain loops at {cur!r}"
                )
            seen.append(cur)
            cur = self.parent[cur]
        d = self._depth[cur]
        for n in reversed(seen):
            d += 1
            self._depth[n] = d
        return self._depth[node]

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def depth(self, node: str) -> int:
        if node not in self.nodes:
            raise KeyError(f"node {node!r} not in taxonomy {self.name}")
        return self._depth[node]

    def _root_path(self, node: str) -> tuple[str, ...]:
        """The nodes from `node` up to the root, inclusive; walked once per
        node on first use and cached."""
        path = self._paths.get(node)
        if path is None:
            self.depth(node)
            walk = [node]
            while walk[-1] != self.root:
                walk.append(self.parent[walk[-1]])
            path = self._paths[node] = tuple(walk)
        return path

    def path_to_root(self, node: str) -> list[str]:
        return list(self._root_path(node))

    def common_ancestor(self, x: str, y: str) -> str:
        """Deepest common ancestor of x and y: both root paths end at the
        root, so it is the last node they share, read from the root."""
        px, py = self._root_path(x), self._root_path(y)
        shared = 0
        for a, b in zip(reversed(px), reversed(py)):
            if a != b:
                break
            shared += 1
        return px[-shared]

    def is_strict_descendant(self, node: str, ancestor: str) -> bool:
        path = self._root_path(node)
        depth = self._depth.get(ancestor)
        return depth is not None and depth < len(path) and path[-depth] == ancestor


_INTERVAL_RE = re.compile(r"^\[\s*(-?\d+)\s*-\s*(-?\d+)\s*\]$")
_SET_RE = re.compile(r"^\{(.*)\}$")


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on `sep` outside any (), [], {} nesting."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


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
        try:
            return Number(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cell {text!r} is not a number") from None
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
