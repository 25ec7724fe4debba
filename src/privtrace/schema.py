"""Database model: schemas with column groups, tables, tuple patterns with
wildcards, privacy policies, and the file loaders for all of them.

The canonical config grammar is JSON (columns / taxonomies / policy in one
document); tables are CSV with the cell grammar of `values.parse_cell`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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


class SchemaError(ValueError):
    """Malformed schema/table/pattern input."""


@dataclass(frozen=True)
class ColumnSchema:
    """One column: its name, value class, group, taxonomy (taxoral columns
    only) and optional normalizer D (numerical columns only)."""

    name: str
    cls: ColumnClass
    group: str
    taxonomy_ref: str | None = None
    normalizer: Fraction | None = None

    def __post_init__(self) -> None:
        if self.group not in GROUPS:
            raise SchemaError(f"column {self.name}: unknown group {self.group!r}")
        if (self.taxonomy_ref is not None) != (self.cls is ColumnClass.TAXORAL):
            raise SchemaError(
                f"column {self.name}: taxonomy reference is required exactly "
                f"for taxoral columns"
            )
        if self.normalizer is not None:
            if self.cls is not ColumnClass.NUMERICAL:
                raise SchemaError(
                    f"column {self.name}: normalizer only applies to numerical columns"
                )
            if self.normalizer <= 0:
                raise SchemaError(f"column {self.name}: normalizer must be positive")


@dataclass(frozen=True)
class Row:
    """One table row: its line id and its cells in column order."""

    line_id: str
    cells: tuple[Value, ...]


@dataclass(frozen=True)
class DataTable:
    """A named table of rows over a column schema, with the taxonomies its
    taxoral cells refer to."""

    name: str
    columns: tuple[ColumnSchema, ...]
    rows: tuple[Row, ...]
    taxonomies: Mapping[str, TaxonomyTree] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for row in self.rows:
            if row.line_id in seen:
                raise SchemaError(f"table {self.name}: duplicate line id {row.line_id}")
            seen.add(row.line_id)
            if len(row.cells) != len(self.columns):
                raise SchemaError(
                    f"table {self.name}: row {row.line_id} has arity "
                    f"{len(row.cells)}, expected {len(self.columns)}"
                )
            for cell, col in zip(row.cells, self.columns):
                if not _cell_matches_class(cell, col.cls):
                    raise SchemaError(
                        f"table {self.name}: row {row.line_id}, column {col.name}: "
                        f"{cell!r} does not match class {col.cls.value}"
                    )

    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> ColumnSchema:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(f"table {self.name}: no column {name!r}")

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
            raise KeyError(f"table {self.name}: no column {name!r}") from None

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

    def row(self, line_id: str) -> Row:
        for r in self.rows:
            if r.line_id == line_id:
                return r
        raise KeyError(f"table {self.name}: no row {line_id!r}")

    def line_ids(self) -> tuple[str, ...]:
        return tuple(r.line_id for r in self.rows)

    def effective_normalizer(self, name: str) -> Fraction:
        """Normalizer for a numerical column: configured value, else the max
        pairwise spread of the loaded data (1 when that spread is 0)."""
        col = self.column(name)
        if col.cls is not ColumnClass.NUMERICAL:
            raise SchemaError(f"column {name} is not numerical")
        if col.normalizer is not None:
            return col.normalizer
        idx = self.column_index(name)
        vals = [r.cells[idx].value for r in self.rows]
        if not vals:
            return Fraction(1)
        spread = max(vals) - min(vals)
        return spread if spread > 0 else Fraction(1)


def _cell_matches_class(cell: Value, cls: ColumnClass) -> bool:
    kind = value_kind(cell)
    if cls is ColumnClass.NUMERVAL:
        # Numerval admits plain numbers too, but the loader normalizes them
        # to one-point intervals, so both kinds are accepted here.
        return kind in (ColumnClass.NUMERVAL, ColumnClass.NUMERICAL)
    return kind is cls


@dataclass(frozen=True)
class TuplePattern:
    """A signed tuple over named columns; cells may be the wildcard `*`."""

    columns: tuple[str, ...]
    cells: tuple[Cell, ...]
    negative: bool = False

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.cells):
            raise SchemaError("pattern arity does not match its column list")

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

    def replace_cell(self, column: str, value: Cell) -> "TuplePattern":
        i = self.columns.index(column)
        cells = self.cells[:i] + (value,) + self.cells[i + 1 :]
        return TuplePattern(self.columns, cells, self.negative)

    def __str__(self) -> str:
        if not self.columns:
            return "⊤"
        body = "(" + ",".join(render_cell(c) for c in self.cells) + ")"
        return ("!" if self.negative else "") + body


# The trivially-true initial tag element; carries no columns and never
# participates in deduction or consistency checking.
TOP = TuplePattern((), (), False)


@dataclass(frozen=True)
class PrivacyPolicy:
    """The protected tuples, encoded as negated patterns."""

    patterns: tuple[TuplePattern, ...]

    def __post_init__(self) -> None:
        for p in self.patterns:
            if not p.negative:
                raise SchemaError("privacy policy patterns must be negative")


@dataclass(frozen=True)
class SchemaBundle:
    """A parsed schema document: columns, taxonomy trees and policy."""

    columns: tuple[ColumnSchema, ...]
    taxonomies: Mapping[str, TaxonomyTree]
    policy: PrivacyPolicy


def _parse_taxonomy(name: str, doc: Mapping) -> TaxonomyTree:
    try:
        root = doc["root"]
        children: Mapping[str, Sequence[str]] = doc.get("children", {})
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"taxonomy {name}: malformed document") from exc
    parent: dict[str, str] = {}
    for node, kids in children.items():
        for kid in kids:
            if kid in parent:
                raise SchemaError(f"taxonomy {name}: node {kid!r} has two parents")
            parent[kid] = node
    try:
        tree = TaxonomyTree(name, root, parent)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    unreachable = set(children) - tree.nodes
    if unreachable:
        raise SchemaError(f"taxonomy {name}: unreachable nodes {sorted(unreachable)}")
    return tree


def parse_columns(
    docs: Iterable[Mapping], taxonomies: Mapping[str, TaxonomyTree]
) -> tuple[ColumnSchema, ...]:
    cols = []
    for doc in docs:
        try:
            cls = ColumnClass(doc["class"])
            name = doc["name"]
            group = doc.get("group", "quasi-identifier")
        except (TypeError, KeyError, ValueError) as exc:
            raise SchemaError(f"malformed column document: {doc!r}") from exc
        ref = doc.get("taxonomy")
        if ref is not None and ref not in taxonomies:
            raise SchemaError(f"column {name}: unknown taxonomy {ref!r}")
        norm = doc.get("normalizer")
        cols.append(
            ColumnSchema(
                name=name,
                cls=cls,
                group=group,
                taxonomy_ref=ref,
                normalizer=Fraction(norm) if norm is not None else None,
            )
        )
    if not cols:
        raise SchemaError("schema has no columns")
    names = [c.name for c in cols]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate column names")
    return tuple(cols)


def load_schema(config_text: str) -> SchemaBundle:
    """Parse a schema document: columns, taxonomy trees, privacy policy."""
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema document is not valid JSON: {exc}") from exc
    taxonomies = {
        name: _parse_taxonomy(name, tdoc)
        for name, tdoc in doc.get("taxonomies", {}).items()
    }
    columns = parse_columns(doc.get("columns", []), taxonomies)
    patterns = tuple(
        parse_pattern(text, columns, taxonomies, force_negative=True)
        for text in doc.get("policy", [])
    )
    return SchemaBundle(columns, taxonomies, PrivacyPolicy(patterns))


def parse_pattern(
    text: str,
    columns: Sequence[ColumnSchema],
    taxonomies: Mapping[str, TaxonomyTree],
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
        raise SchemaError(f"pattern {text!r} must be parenthesized")
    parts = [p.strip() for p in split_top_level(text[1:-1])]
    if len(parts) != len(columns):
        raise SchemaError(
            f"pattern arity {len(parts)} does not match schema arity {len(columns)}"
        )
    cells: list[Cell] = []
    for part, col in zip(parts, columns):
        if part in ("*", "⋆"):
            cells.append(STAR)
        else:
            tree = taxonomies.get(col.taxonomy_ref) if col.taxonomy_ref else None
            cells.append(parse_cell(part, col.cls, tree))
    return TuplePattern(
        tuple(c.name for c in columns), tuple(cells), negative or force_negative
    )


def load_table(
    csv_text: str,
    columns: Sequence[ColumnSchema],
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    name: str = "table",
) -> DataTable:
    """Load a CSV table against a schema.  The header row must name the
    schema columns; an extra leading column named line/line_id/id supplies
    row line ids, otherwise l1..lN are generated."""
    taxonomies = taxonomies or {}
    reader = csv.reader(io.StringIO(csv_text))
    rows = [r for r in reader if r and any(f.strip() for f in r)]
    if not rows:
        raise SchemaError(f"table {name}: empty CSV")
    header = [h.strip() for h in rows[0]]
    line_col = None
    if header and header[0].lower() in _LINE_ID_NAMES:
        line_col = 0
        header = header[1:]
    expected = [c.name for c in columns]
    if header != expected:
        raise SchemaError(
            f"table {name}: header {header} does not match schema columns {expected}"
        )
    out = []
    for i, raw in enumerate(rows[1:], start=1):
        raw = [f.strip() for f in raw]
        if line_col is not None:
            if not raw:
                raise SchemaError(f"table {name}: blank row {i}")
            line_id, raw = raw[0], raw[1:]
        else:
            line_id = f"l{i}"
        if len(raw) != len(columns):
            raise SchemaError(
                f"table {name}: row {line_id} has {len(raw)} cells, "
                f"expected {len(columns)}"
            )
        cells = []
        for text, col in zip(raw, columns):
            tree = taxonomies.get(col.taxonomy_ref) if col.taxonomy_ref else None
            try:
                cells.append(parse_cell(text, col.cls, tree))
            except ValueError as exc:
                raise SchemaError(
                    f"table {name}: row {line_id}, column {col.name}: {exc}"
                ) from exc
        out.append(Row(line_id, tuple(cells)))
    table = DataTable(name, tuple(columns), tuple(out), taxonomies)
    for col in columns:
        if col.cls is ColumnClass.NUMERICAL and col.normalizer is not None:
            idx = table.column_index(col.name)
            vals = [r.cells[idx].value for r in table.rows]
            if vals and max(vals) - min(vals) > col.normalizer:
                raise SchemaError(
                    f"table {name}: column {col.name} spread exceeds its "
                    f"normalizer {col.normalizer}"
                )
    return table


def render_table(table: DataTable) -> str:
    """Serialize a table back to CSV (line ids included); round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["line"] + list(table.column_names()))
    for row in table.rows:
        writer.writerow([row.line_id] + [render_cell(c) for c in row.cells])
    return buf.getvalue()


def match_pattern(cells: Sequence[Value] | Row, pattern: TuplePattern) -> bool:
    """True iff every non-wildcard pattern cell equals the corresponding
    tuple cell (structural equality).  Polarity is the caller's business."""
    if isinstance(cells, Row):
        cells = cells.cells
    if len(cells) != len(pattern.cells):
        raise SchemaError(
            f"arity mismatch: tuple {len(cells)} vs pattern {len(pattern.cells)}"
        )
    return all(
        isinstance(p, Wildcard) or p == c for p, c in zip(pattern.cells, cells)
    )


@dataclass(frozen=True)
class Correspondence:
    """Positional pairing between the columns of two type-compatible tuples:
    (index in first, index in second)."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def type_compatible(
    t: Sequence[Value], t2: Sequence[Value]
) -> Correspondence | None:
    """The natural order-preserving, class-matching pairing of two tuples.

    Equal arities must match class-for-class; otherwise the longer tuple is
    projected onto the first class-matching subsequence covering the shorter
    one.  Returns None when the tuples are uncomparable.
    """
    if isinstance(t, Row):
        t = t.cells
    if isinstance(t2, Row):
        t2 = t2.cells
    k1 = [value_kind(v) for v in t]
    k2 = [value_kind(v) for v in t2]
    if len(k1) == len(k2):
        if k1 == k2:
            return Correspondence(tuple((i, i) for i in range(len(k1))))
        return None
    swap = len(k1) > len(k2)
    short, long_ = (k2, k1) if swap else (k1, k2)
    pairs = []
    j = 0
    for i, kind in enumerate(short):
        while j < len(long_) and long_[j] != kind:
            j += 1
        if j == len(long_):
            return None
        pairs.append((j, i) if swap else (i, j))
        j += 1
    return Correspondence(tuple(pairs))
