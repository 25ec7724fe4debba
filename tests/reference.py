"""Reference implementations the tests check the library against: the
whole-sum rho and the per-premise R1-R3 derivation that the planned ones
replaced, the oracle's whole-tag ruling, the multiset order on priority
keys, and the two-coin randomized response mechanism."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from privtrace.attack import _priority_key
from privtrace.dltts import (
    OracleVerdict,
    _is_knowledge,
    _merged_taxonomies,
    check_consistency,
)
from privtrace.lts import Tag
from privtrace.metrics import _cells, d_bar, type_compatible
from privtrace.privacy import Mechanism
from privtrace.schema import (
    ColumnSchema,
    DataTable,
    PrivacyPolicy,
    Row,
    TuplePattern,
)
from privtrace.values import (
    ColumnClass,
    IntervalMeasureMode,
    Number,
    Taxon,
    TaxonomyTree,
    Value,
    Wildcard,
)


def rho(
    S: Iterable[Sequence[Value] | Row],
    S2: Iterable[Sequence[Value] | Row],
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
    normalizer: Fraction | Mapping[int, Fraction] | None = None,
) -> Fraction | None:
    """min { d̄(t,t') : t in S, t' in S' } over type-compatible pairs, each
    pair's whole distance vector summed; None when no pair is comparable."""
    best: Fraction | None = None
    for t in S:
        for t2 in S2:
            corr = type_compatible(_cells(t), _cells(t2))
            if corr is None:
                continue
            d = d_bar(t, t2, corr, mode, taxonomies=taxonomies, normalizer=normalizer)
            if best is None or d < best:
                best = d
    return best


def replace_cell(p: TuplePattern, column: str, value) -> TuplePattern:
    """p with its cell in `column` (the first of that name) replaced."""
    i = p.columns.index(column)
    return TuplePattern(p.columns, p.cells[:i] + (value,) + p.cells[i + 1:], p.negative)


def _merge(p: TuplePattern, table: DataTable, row: Row) -> TuplePattern:
    """Union-of-columns merge: p's concrete cells win, the row fills p's
    wildcards on shared columns and contributes its remaining columns."""
    positions = table.column_positions
    columns = list(p.columns)
    cells = [
        row.cells[positions[c]] if isinstance(v, Wildcard) and c in positions else v
        for c, v in zip(p.columns, p.cells)
    ]
    for c, i in positions.items():
        if c not in p.columns:
            columns.append(c)
            cells.append(row.cells[i])
    return TuplePattern(tuple(columns), tuple(cells), False)


def _count_column(table: DataTable) -> str | None:
    for col in table.columns:
        if col.name.lower() == "count" and col.cls is ColumnClass.NUMERICAL:
            return col.name
    return None


def _derive(
    p: TuplePattern,
    table: DataTable,
    count_col: str | None,
    is_id: Mapping[str, bool],
    taxonomies: Mapping[str, TaxonomyTree],
) -> Iterable[TuplePattern]:
    """The tuples R1-R3 derive from the one premise p against one base,
    through the base's cached row groupings."""
    positions = table.column_positions
    shared = [(c, v) for c, v in p.concrete_items() if c in positions]
    if count_col is None:
        # R1: rows with p's identifier cell that agree on every shared cell.
        key = next(((c, v) for c, v in shared if is_id.get(c)), None)
        if key is not None:
            for row in table.rows_by((key[0],)).get((key[1],), ()):
                if all(row.cells[positions[c]] == v for c, v in shared):
                    yield _merge(p, table, row)
        # R3: the one row matching p's non-identifier cells, when p has an
        # identifier cell.
        join = [(c, v) for c, v in shared if not is_id.get(c)]
        if join and any(is_id.get(c) for c, _ in p.concrete_items()):
            cols, vals = zip(*join)
            matches = table.rows_by(cols).get(vals, ())
            if len(matches) == 1:
                yield _merge(p, table, matches[0])
        return
    # R2: count-1 rows agreeing on every other shared column move a taxon
    # cell down to their strictly deeper node.
    for c, x in shared:
        tree = taxonomies.get(x.tree) if isinstance(x, Taxon) else None
        if tree is None:
            continue
        join = [
            (jc, v) for jc, v in zip(p.columns, p.cells)
            if jc in positions and jc not in (c, count_col)
        ]
        if not join or any(isinstance(v, Wildcard) for _, v in join):
            continue
        cols, vals = zip(*join)
        for row in table.rows_by(cols + (count_col,)).get(vals + (Number(1),), ()):
            y = row.cells[positions[c]]
            if (
                isinstance(y, Taxon)
                and y.tree == x.tree
                and tree.is_strict_descendant(y.node, x.node)
            ):
                yield replace_cell(p, c, y)


def derivations(
    p: TuplePattern,
    externals: Sequence[DataTable],
    columns: Iterable[ColumnSchema] | None = None,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
) -> tuple[TuplePattern, ...]:
    """What R1-R3 derive from the premise p against every base, in order,
    with the identifier columns and trees `saturate` reads."""
    is_id: dict[str, bool] = {}
    for col in [*(columns or ()), *(c for t in externals for c in t.columns)]:
        is_id.setdefault(col.name, col.group == "identifier")
    trees = _merged_taxonomies(externals, taxonomies)
    return tuple(q for table in externals
                 for q in _derive(p, table, _count_column(table), is_id, trees))


def oracle_verdict(
    saturated_tag: Tag,
    policy: PrivacyPolicy,
    secret_set: Iterable[Sequence | DataTable] | None = None,
    epsilon: Fraction | None = None,
    mode: IntervalMeasureMode = IntervalMeasureMode.INTEGER_SET,
    *,
    taxonomies: Mapping[str, TaxonomyTree] | None = None,
) -> OracleVerdict:
    """The oracle's ruling on a whole saturated tag: the policy check first,
    then rho <= epsilon between its knowledge tuples and the secrets, armed
    only when both are given.  `DlttsBuilder.oracle_step` rules on what a
    state adds to its parent; this rules on the whole tag."""
    if not check_consistency(saturated_tag, policy):
        return OracleVerdict.VIOLATION
    if epsilon is not None and secret_set is not None:
        knowledge = [p.cells for p in saturated_tag if _is_knowledge(p)]
        found = [
            rho(knowledge, s.rows, mode, taxonomies=taxonomies,
                normalizer=s.normalizers)
            if isinstance(s, DataTable)
            else rho(knowledge, [s], mode, taxonomies=taxonomies)
            for s in secret_set
        ]
        r = min((r for r in found if r is not None), default=None)
        if r is not None and r <= epsilon:
            return OracleVerdict.EPSILON_VIOLATION
    return OracleVerdict.CONTINUE


class Comparison(Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"


def multiset_compare(
    m1: Iterable[Fraction], m2: Iterable[Fraction]
) -> Comparison:
    """The order the priority pass puts on two transitions' branch
    probabilities, through the key it compares (`attack._priority_key`):
    descending-sorted lexicographic, a proper prefix smaller.  EQUAL iff
    the multisets are identical."""
    k1, k2 = _priority_key(m1), _priority_key(m2)
    if k1 == k2:
        return Comparison.EQUAL
    return Comparison.GREATER if k1 > k2 else Comparison.LESS


def randomized_response() -> tuple[Mechanism, Mechanism]:
    """The two-coin randomized response mechanism, as (full, marginal).

    `full` maps the 8 explicit instances (X, F1, F2) deterministically:
    output X if F1=H, True if F1=T and F2=H, else False.  `marginal` is the
    coin-marginalized view (X alone, output probabilities 3/4 and 1/4) that
    the privacy bounds are stated over."""
    full_table = {}
    for x in ("True", "False"):
        for f1 in ("H", "T"):
            for f2 in ("H", "T"):
                out = x if f1 == "H" else "True" if f2 == "H" else "False"
                full_table[((x, f1, f2), out)] = Fraction(1)
    full = Mechanism("rr-instances", tuple(v for v, _ in full_table),
                     ("True", "False"), full_table)
    marginal = Mechanism.from_rows(
        "rr",
        {
            "True": {"True": Fraction(3, 4), "False": Fraction(1, 4)},
            "False": {"True": Fraction(1, 4), "False": Fraction(3, 4)},
        },
        outputs=("True", "False"),
    )
    return full, marginal
