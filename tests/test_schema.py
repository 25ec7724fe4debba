from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given, strategies as st

from privtrace.dltts import check_consistency
from privtrace.schema import (
    DataTable,
    PrivacyPolicy,
    Row,
    SchemaError,
    load_schema,
    load_table,
    parse_pattern,
)
from privtrace.records import ShapeError
from privtrace.values import (
    Atom, ColumnClass, IntInterval, Number, Taxon, render_cell,
)

from reference import type_compatible

SCHEMA_DOC = {
    "columns": [
        {"name": "Name", "class": "nominal", "group": "identifier"},
        {"name": "Age", "class": "numerval", "group": "quasi-identifier"},
        {"name": "Gender", "class": "nominal", "group": "quasi-identifier"},
        {"name": "Dept", "class": "nominal", "group": "quasi-identifier"},
        {"name": "Ailment", "class": "taxoral", "group": "sensitive",
         "taxonomy": "ailment"},
    ],
    "taxonomies": {
        "ailment": {
            "root": "Ailment",
            "children": {
                "Ailment": ["Heart-Disease", "Cancer", "Viral-Infection"],
                "Viral-Infection": ["Flu", "CoVid"],
            },
        }
    },
    "policy": ["!(John,*,*,*,CoVid)"],
}


def test_load_schema_running_example():
    bundle = load_schema(json.dumps(SCHEMA_DOC))
    assert [c.name for c in bundle.columns] == [
        "Name", "Age", "Gender", "Dept", "Ailment",
    ]
    assert bundle.columns[0].group == "identifier"
    assert bundle.columns[4].cls is ColumnClass.TAXORAL
    tree = bundle.taxonomies["ailment"]
    assert tree.root == "Ailment"
    assert tree.depth("Viral-Infection") == 2
    assert tree.depth("CoVid") == 3
    assert len(bundle.policy.patterns) == 1
    assert bundle.policy.patterns[0].negative


def test_load_schema_empty_columns_rejected():
    with pytest.raises(SchemaError):
        load_schema(json.dumps({"columns": [], "taxonomies": {}}))


def test_load_schema_taxonomy_cycle_rejected():
    doc = {
        "columns": [{"name": "A", "class": "nominal", "group": "identifier"}],
        "taxonomies": {"t": {"root": "x", "children": {"x": ["y"], "y": ["x"]}}},
    }
    with pytest.raises(SchemaError):
        load_schema(json.dumps(doc))


def test_load_schema_rejects_string_children_as_a_non_array():
    """A children string is not iterated character by character."""
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["taxonomies"]["ailment"]["children"]["Viral-Infection"] = "XY"
    message = "schema taxonomies.ailment.children.Viral-Infection must be an array"
    with pytest.raises(ShapeError, match=message):
        load_schema(json.dumps(doc))


def _schema_with(*keys, value):
    """SCHEMA_DOC with the item at the path `keys` set to `value`."""
    doc = json.loads(json.dumps(SCHEMA_DOC))
    item = doc
    for key in keys[:-1]:
        item = item[key]
    item[keys[-1]] = value
    return doc


AILMENT_CHILDREN = SCHEMA_DOC["taxonomies"]["ailment"]["children"]


@pytest.mark.parametrize("doc, message", [
    (_schema_with("columns", 2, "group", value="public"),
     "column Gender: unknown group 'public'"),
    (_schema_with("columns", 0, "class", value="text"), "column Name: unknown class 'text'"),
    (_schema_with("columns", 4, "taxonomy", value="disease"),
     "column Ailment: unknown taxonomy 'disease'"),
    (_schema_with("columns", 3, "name", value="Gender"), "duplicate column names"),
    (_schema_with("columns", value=[*SCHEMA_DOC["columns"], {
        "name": "Score", "class": "numerical", "group": "sensitive", "normalizer": "0"}]),
     "column Score: normalizer must be positive"),
    (_schema_with("taxonomies", "ailment", "children", "Ailment",
                  value=["Heart-Disease", "Cancer", "Viral-Infection", "Flu"]),
     "taxonomy ailment: node 'Flu' has two parents"),
    (_schema_with("taxonomies", "ailment", "children",
                  value={**AILMENT_CHILDREN, "Orphan": []}),
     "taxonomy ailment: unreachable nodes ['Orphan']"),
    (_schema_with("taxonomies", "ailment", "children",
                  value={**AILMENT_CHILDREN, "Orphan": ["Kid"]}),
     "taxonomy ailment: unknown parent 'Orphan'"),
    (_schema_with("policy", value=["!John,*,*,*,CoVid"]),
     "schema policy[0]: pattern 'John,*,*,*,CoVid' must be parenthesized"),
])
def test_load_schema_refusals_name_their_cause(doc, message):
    with pytest.raises(SchemaError) as err:
        load_schema(json.dumps(doc))
    assert str(err.value) == message


def test_policy_and_table_records_check_their_parts(bundle):
    """What the loaders cannot produce, the records refuse when built
    directly: a positive policy pattern, a row of the wrong arity, a cell
    of the wrong class."""
    pattern = parse_pattern("(John,*,*,*,CoVid)", bundle.columns, bundle.taxonomies)
    with pytest.raises(SchemaError, match="^privacy policy patterns must be negative$"):
        PrivacyPolicy((pattern,))
    columns = bundle.columns[2:4]
    with pytest.raises(SchemaError, match=r"^table t: row l1 has arity 1, expected 2$"):
        DataTable("t", columns, (Row("l1", (Atom("F"),)),))
    with pytest.raises(SchemaError, match=r"^table t: row l1, column Dept: "
                                          r"Number\(.*\) does not match class nominal$"):
        DataTable("t", columns, (Row("l1", (Atom("F"), Number(1))),))


def test_taxoral_column_requires_taxonomy():
    doc = {"columns": [{"name": "A", "class": "taxoral", "group": "sensitive"}]}
    with pytest.raises(SchemaError):
        load_schema(json.dumps(doc))


@pytest.fixture(scope="module")
def bundle():
    return load_schema(json.dumps(SCHEMA_DOC))


PUBLISHED_COLUMNS = SCHEMA_DOC["columns"][1:]


def _published(bundle):
    from privtrace.schema import parse_columns

    columns = parse_columns(PUBLISHED_COLUMNS, bundle.taxonomies)
    csv_text = (
        "Line,Age,Gender,Dept,Ailment\n"
        "l1,[20-30],F,Chemistry,Heart-Disease\n"
        "l2,[40-50],M,Chemistry,Cancer\n"
        "l3,[20-30],F,Physics,Viral-Infection\n"
        "l4,[50-60],M,Maths,Viral-Infection\n"
        "l5,[40-50],M,Physics,Viral-Infection\n"
    )
    return load_table(csv_text, columns, bundle.taxonomies, "published")


def test_load_table_published_row(bundle):
    table = _published(bundle)
    row = table.row("l4")
    assert row.cells == (
        IntInterval(50, 60),
        Atom("M"),
        Atom("Maths"),
        Taxon("ailment", "Viral-Infection"),
    )


def test_load_table_secret_numerval_single(bundle):
    csv_text = (
        "Name,Age,Gender,Dept,Ailment\n"
        "Joan,24,F,Chemistry,Heart-Disease\n"
    )
    table = load_table(csv_text, bundle.columns, bundle.taxonomies, "secret")
    assert table.rows[0].cells[1] == IntInterval(24, 24)
    assert table.rows[0].line_id == "l1"


def test_load_table_errors(bundle):
    for text in ("", "\n , \n"):
        with pytest.raises(SchemaError, match="^table table: empty CSV$"):
            load_table(text, bundle.columns, bundle.taxonomies)
    with pytest.raises(SchemaError):  # header mismatch
        load_table("X,Y\n1,2\n", bundle.columns, bundle.taxonomies)
    with pytest.raises(SchemaError):  # arity
        load_table(
            "Name,Age,Gender,Dept,Ailment\nJoan,24,F\n",
            bundle.columns,
            bundle.taxonomies,
        )
    with pytest.raises(SchemaError):  # node not in tree
        load_table(
            "Name,Age,Gender,Dept,Ailment\nJoan,24,F,Chemistry,Plague\n",
            bundle.columns,
            bundle.taxonomies,
        )
    with pytest.raises(SchemaError):  # duplicate line id
        load_table(
            "Line,Age,Gender,Dept,Ailment\nl1,24,F,Chem,Flu\nl1,25,M,Chem,Flu\n",
            [c for c in bundle.columns if c.name != "Name"],
            bundle.taxonomies,
        )


def test_numerical_normalizer_validated_at_load(bundle):
    from privtrace.schema import parse_columns

    cols = parse_columns(
        [{"name": "Score", "class": "numerical", "group": "sensitive",
          "normalizer": "10"}],
        {},
    )
    load_table("Score\n1\n9\n", cols, {}, "ok")  # spread 8 <= 10
    with pytest.raises(SchemaError):
        load_table("Score\n1\n20\n", cols, {}, "bad")  # spread 19 > 10


def render_table(table) -> str:
    """Serialize a table back to CSV, line ids included."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["line"] + [c.name for c in table.columns])
    for row in table.rows:
        writer.writerow([row.line_id] + [render_cell(c) for c in row.cells])
    return buf.getvalue()


def test_table_round_trip(bundle):
    table = _published(bundle)
    again = load_table(render_table(table), table.columns, bundle.taxonomies, "published")
    assert again.rows == table.rows


def test_policy_running_example_through_check_consistency(bundle):
    """A policy pattern is confirmed only by equal cells at every concrete
    position; an all-wildcard one by any positive tuple."""
    def pattern(text, negative=False):
        return parse_pattern(text, bundle.columns, bundle.taxonomies, negative)

    aline = pattern("(Aline,23,F,Physics,Flu)")
    covid_any = PrivacyPolicy((pattern("(*,*,*,*,CoVid)", negative=True),))
    assert check_consistency(frozenset({aline}), covid_any)
    assert check_consistency(frozenset({aline}), bundle.policy)
    all_star = PrivacyPolicy((pattern("(*,*,*,*,*)", negative=True),))
    for person in (aline, pattern("(John,46,M,Physics,CoVid)")):
        assert not check_consistency(frozenset({person}), all_star)


def test_type_compatible_identity_and_failure():
    t = (IntInterval(1, 2), Atom("a"))
    t2 = (IntInterval(2, 3), Atom("b"))
    corr = type_compatible(t, t2)
    assert corr is not None and corr == ((0, 0), (1, 1))
    bad = (Atom("bd"), Atom("a"))
    assert type_compatible(bad, t2) is None
    assert type_compatible(t, t) == ((0, 0), (1, 1))


def test_type_compatible_projection():
    short = (Atom("a"), Number(1))
    long_ = (IntInterval(1, 2), Atom("a"), Number(3))
    corr = type_compatible(short, long_)
    assert corr is not None and corr == ((0, 1), (1, 2))
    corr2 = type_compatible(long_, short)
    assert corr2 is not None and corr2 == ((1, 0), (2, 1))


_value = st.one_of(
    st.sampled_from([Atom("a"), Atom("b")]),
    st.sampled_from([IntInterval(0, 1), IntInterval(2, 5)]),
    st.sampled_from([Number(1), Number(2)]),
)


@given(st.lists(_value, max_size=4), st.lists(_value, max_size=4))
def test_type_compatible_symmetric_success(t, t2):
    assert (type_compatible(tuple(t), tuple(t2)) is None) == (
        type_compatible(tuple(t2), tuple(t)) is None
    )
