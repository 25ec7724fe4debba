"""Database model: schemas with column groups, tables, tuple patterns with
wildcards, privacy policies, and the file loaders for all of them.

The canonical config grammar is JSON (columns / taxonomies / policy in one
document); tables are CSV with the cell grammar of `values.parse_cell`.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .records import (InputError, Names, Record, Required, located, parse_fraction,
                      read_json, shaped)
from .values import (
    Cell,
    ColumnClass,
    STAR,
    TaxonomyTree,
    Value,
    Wildcard,
    parse_cell,
    render_cell,
    split_top_level,
    value_kind,
)

GROUPS = ("identifier", "quasi-identifier", "sensitive")

_LINE_ID_NAMES = {"line", "line_id", "id"}


# The shapes `records.shaped` checks a schema document against.  A column
# document, in a schema or a scenario table; its class, group, taxonomy
# and normalizer values are checked as the column is built.
COLUMN = {"name": Required(str), "class": Required(str), "group": str,
          "taxonomy": (str, type(None)), "normalizer": object}
TAXONOMY = {"root": Required(str), "children": Names([str])}
SCHEMA = {"columns": [COLUMN], "taxonomies": Names(TAXONOMY), "policy": [str]}


class ColumnSchema(Record):
    """One column: its name, value class, group, the taxonomy tree its
    cells are nodes of (taxoral columns only) and optional normalizer D
    (numerical columns only)."""

    name: str
    cls: ColumnClass
    group: str
    taxonomy: TaxonomyTree | None = None
    normalizer: Fraction | None = None

    def _check(self) -> None:
        name = self.name
        if self.group not in GROUPS:
            raise InputError(f"column {name}: unknown group {self.group!r}")
        if (self.taxonomy is not None) != (self.cls is ColumnClass.TAXORAL):
            raise InputError(
                f"column {name}: taxonomy reference is required exactly "
                f"for taxoral columns"
            )
        if self.normalizer is not None:
            if self.cls is not ColumnClass.NUMERICAL:
                raise InputError(
                    f"column {name}: normalizer only applies to numerical columns"
                )
            if self.normalizer <= 0:
                raise InputError(f"column {name}: normalizer must be positive")


class Row(Record):
    """One table row: its line id and its cells in column order."""

    line_id: str
    cells: tuple[Value, ...]


class DataTable(Record):
    """A named table of rows over a column schema; a taxoral cell carries
    its own tree, a numerical cell its column's D."""

    name: str
    columns: tuple[ColumnSchema, ...]
    rows: tuple[Row, ...]

    def _check(self) -> None:
        name, columns = self.name, self.columns
        seen: set[str] = set()
        for row in self.rows:
            if row.line_id in seen:
                raise InputError(f"table {name}: duplicate line id {row.line_id}")
            seen.add(row.line_id)
            if len(row.cells) != len(columns):
                raise InputError(
                    f"table {name}: row {row.line_id} has arity "
                    f"{len(row.cells)}, expected {len(columns)}"
                )
            for cell, col in zip(row.cells, columns):
                if not _cell_matches_class(cell, col.cls):
                    raise InputError(
                        f"table {name}: row {row.line_id}, column {col.name}: "
                        f"{cell!r} does not match class {col.cls.value}"
                    )

    @cached_property
    def column_positions(self) -> dict[str, int]:
        """Column name -> cell position (the first column of that name)."""
        positions: dict[str, int] = {}
        for i, c in enumerate(self.columns):
            positions.setdefault(c.name, i)
        return positions

    def column_index(self, name: str) -> int:
        try:
            return self.column_positions[name]
        except KeyError:
            raise InputError(f"table {self.name}: no column {name!r}") from None

    @cached_property
    def _groups(self) -> dict[tuple[str, ...], dict[tuple, tuple[Row, ...]]]:
        return {}

    def rows_by(self, columns: tuple[str, ...]) -> Mapping[tuple, tuple[Row, ...]]:
        """The rows grouped by their cells in `columns`, in table order.
        Each grouping is built on first use and cached."""
        if columns not in self._groups:
            idx = [self.column_index(c) for c in columns]
            groups: dict[tuple, list[Row]] = {}
            for row in self.rows:
                groups.setdefault(tuple(row.cells[i] for i in idx), []).append(row)
            self._groups[columns] = {k: tuple(v) for k, v in groups.items()}
        return self._groups[columns]

    @cached_property
    def _rows_by_line(self) -> dict[str, Row]:
        return {r.line_id: r for r in self.rows}

    def row(self, line_id: str) -> Row:
        try:
            return self._rows_by_line[line_id]
        except KeyError:
            raise InputError(f"table {self.name}: no row {line_id!r}") from None

    def line_ids(self) -> tuple[str, ...]:
        return tuple(r.line_id for r in self.rows)


def _cell_matches_class(cell: Value, cls: ColumnClass) -> bool:
    kind = value_kind(cell)
    if cls is ColumnClass.NUMERVAL:
        # Numerval admits plain numbers too, but the loader normalizes them
        # to one-point intervals, so both kinds are accepted here.
        return kind in (ColumnClass.NUMERVAL, ColumnClass.NUMERICAL)
    return kind is cls


class TuplePattern(Record):
    """A signed tuple over named columns; cells may be the wildcard `*`."""

    columns: tuple[str, ...]
    cells: tuple[Cell, ...]
    negative: bool = False

    def _check(self) -> None:
        if len(self.columns) != len(self.cells):
            raise InputError("pattern arity does not match its column list")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.columns == other.columns and self.cells == other.cells
                    and self.negative == other.negative)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.columns, self.cells, self.negative))

    @cached_property
    def negation(self) -> TuplePattern:
        """The same tuple with the other sign, built once per pattern."""
        return TuplePattern(self.columns, self.cells, not self.negative)

    def cell(self, column: str) -> Cell | None:
        try:
            return self.cells[self.columns.index(column)]
        except ValueError:
            return None

    def concrete_items(self) -> list[tuple[str, Value]]:
        return [
            (c, v)
            for c, v in zip(self.columns, self.cells)
            if not isinstance(v, Wildcard)
        ]

    def is_ground(self) -> bool:
        return all(not isinstance(v, Wildcard) for v in self.cells)

    def __str__(self) -> str:
        if not self.columns:
            return "⊤"
        body = "(" + ",".join(render_cell(c) for c in self.cells) + ")"
        return ("!" if self.negative else "") + body


# The trivially-true initial tag element; carries no columns and never
# participates in deduction or consistency checking.
TOP = TuplePattern((), (), False)


class PrivacyPolicy(Record):
    """The protected tuples, encoded as negated patterns."""

    patterns: tuple[TuplePattern, ...]

    def _check(self) -> None:
        for p in self.patterns:
            if not p.negative:
                raise InputError("privacy policy patterns must be negative")


class SchemaBundle(Record):
    """A parsed schema document: columns, taxonomy trees and policy."""

    columns: tuple[ColumnSchema, ...]
    taxonomies: Mapping[str, TaxonomyTree]
    policy: PrivacyPolicy


def _parse_taxonomy(name: str, doc: Mapping) -> TaxonomyTree:
    """The tree a TAXONOMY document describes."""
    children = doc.get("children", {})
    parent: dict[str, str] = {}
    for node, kids in children.items():
        for kid in kids:
            if kid in parent:
                raise InputError(f"taxonomy {name}: node {kid!r} has two parents")
            parent[kid] = node
    tree = TaxonomyTree(name, doc["root"], parent)
    unreachable = set(children) - tree.nodes
    if unreachable:
        raise InputError(f"taxonomy {name}: unreachable nodes {sorted(unreachable)}")
    return tree


def parse_columns(
    docs: Iterable[Mapping], taxonomies: Mapping[str, TaxonomyTree]
) -> tuple[ColumnSchema, ...]:
    """The columns that COLUMN documents describe, each taxoral one with
    the tree it names."""
    cols = []
    for doc in docs:
        name = doc["name"]
        try:
            cls = ColumnClass(doc["class"])
        except ValueError:
            raise InputError(f"column {name}: unknown class {doc['class']!r}") from None
        ref = doc.get("taxonomy")
        if ref is not None and ref not in taxonomies:
            raise InputError(f"column {name}: unknown taxonomy {ref!r}")
        norm = doc.get("normalizer")
        if norm is not None:
            norm = located(f"column {name} normalizer", parse_fraction, norm)
        cols.append(
            ColumnSchema(
                name=name,
                cls=cls,
                group=doc.get("group", "quasi-identifier"),
                taxonomy=None if ref is None else taxonomies[ref],
                normalizer=norm,
            )
        )
    if not cols:
        raise InputError("schema has no columns")
    names = [c.name for c in cols]
    if len(set(names)) != len(names):
        raise InputError("duplicate column names")
    return tuple(cols)


def load_schema(config_text: str) -> SchemaBundle:
    """Parse a schema document: columns, taxonomy trees, privacy policy."""
    doc = shaped(read_json(config_text, "schema document"), SCHEMA, "schema")
    taxonomies = {
        name: _parse_taxonomy(name, tdoc)
        for name, tdoc in doc.get("taxonomies", {}).items()
    }
    columns = parse_columns(doc.get("columns", []), taxonomies)
    patterns = []
    for i, text in enumerate(doc.get("policy", [])):
        try:
            patterns.append(parse_pattern(text, columns, force_negative=True))
        except InputError as exc:
            raise InputError(f"schema policy[{i}]: {exc}") from None
    return SchemaBundle(columns, taxonomies, PrivacyPolicy(tuple(patterns)))


def parse_pattern(
    text: str,
    columns: Sequence[ColumnSchema],
    force_negative: bool = False,
) -> TuplePattern:
    """Parse `(John,*,M,*,CoVid)` positionally over `columns`; a leading
    `!` (or `¬`) marks a negative pattern."""
    text = text.strip()
    negative = False
    if text.startswith(("!", "¬")):
        negative = True
        text = text[1:].strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise InputError(f"pattern {text!r} must be parenthesized")
    parts = [p.strip() for p in split_top_level(text[1:-1])]
    if len(parts) != len(columns):
        raise InputError(
            f"pattern arity {len(parts)} does not match schema arity {len(columns)}"
        )
    cells: list[Cell] = []
    for part, col in zip(parts, columns):
        if part in ("*", "⋆"):
            cells.append(STAR)
        else:
            cells.append(parse_cell(part, col.cls, col.taxonomy, col.normalizer))
    return TuplePattern(
        tuple(c.name for c in columns), tuple(cells), negative or force_negative
    )


def load_table(
    csv_text: str,
    columns: Sequence[ColumnSchema],
    name: str = "table",
) -> DataTable:
    """Load a CSV table against a schema.  The header row must name the
    schema columns; an extra leading column named line/line_id/id supplies
    row line ids, otherwise l1..lN are generated."""
    try:
        rows = [r for r in csv.reader(io.StringIO(csv_text)) if any(f.strip() for f in r)]
    except csv.Error as exc:
        raise InputError(f"table {name}: {exc}") from None
    if not rows:
        raise InputError(f"table {name}: empty CSV")
    header = [h.strip() for h in rows[0]]
    line_col = None
    if header and header[0].lower() in _LINE_ID_NAMES:
        line_col = 0
        header = header[1:]
    expected = [c.name for c in columns]
    if header != expected:
        raise InputError(
            f"table {name}: header {header} does not match schema columns {expected}"
        )
    out = []
    for i, raw in enumerate(rows[1:], start=1):
        raw = [f.strip() for f in raw]
        if line_col is not None:
            line_id, raw = raw[0], raw[1:]
        else:
            line_id = f"l{i}"
        if len(raw) != len(columns):
            raise InputError(
                f"table {name}: row {line_id} has {len(raw)} cells, "
                f"expected {len(columns)}"
            )
        cells = []
        for text, col in zip(raw, columns):
            try:
                cells.append(parse_cell(text, col.cls, col.taxonomy, col.normalizer))
            except InputError as exc:
                raise InputError(
                    f"table {name}: row {line_id}, column {col.name}: {exc}"
                ) from exc
        out.append(Row(line_id, tuple(cells)))
    table = DataTable(name, tuple(columns), tuple(out))
    for col in columns:
        if col.cls is ColumnClass.NUMERICAL and col.normalizer is not None:
            idx = table.column_index(col.name)
            vals = [r.cells[idx].value for r in table.rows]
            if vals and max(vals) - min(vals) > col.normalizer:
                raise InputError(
                    f"table {name}: column {col.name} spread exceeds its "
                    f"normalizer {col.normalizer}"
                )
    return table
