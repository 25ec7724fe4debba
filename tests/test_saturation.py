"""Semi-naive, indexed, incremental saturation and the incremental epsilon
oracle, against the naive fixpoint over per-row R1-R3 scans they replaced,
which lives on here as the oracle; and the delta consistency check against
the full one."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from privtrace.dltts import (DlttsBuilder, OracleVerdict, check_consistency,
                             reach_stop, saturate, validate)
from privtrace.lts import DELTA, Label
from privtrace.metrics import IntervalMeasureMode
from privtrace.records import InputError
from privtrace.schema import (
    ColumnSchema,
    DataTable,
    PrivacyPolicy,
    Row,
    TOP,
    TuplePattern,
)
from privtrace.values import (
    Atom,
    ColumnClass,
    IntInterval,
    Number,
    STAR,
    Taxon,
    TaxonomyTree,
    Wildcard,
)
from reference import derivations, oracle_verdict, replace_cell
from test_graph_walks import oracle_reach_stop

CASES = 1500
BUILDS = 300


# -- oracle: the naive fixpoint over per-row R1-R3 scans ---------------------

def _column_registry(externals, columns):
    registry: dict[str, ColumnSchema] = {}
    for col in columns or ():
        registry.setdefault(col.name, col)
    for table in externals:
        for col in table.columns:
            registry.setdefault(col.name, col)
    return registry


def _column_names(table):
    return tuple(c.name for c in table.columns)


def _row_cell(table, row, column):
    return row.cells[[c.name for c in table.columns].index(column)]


def _merge(p, table, row):
    table_cols = set(_column_names(table))
    columns = list(p.columns)
    cells = []
    for c, v in zip(p.columns, p.cells):
        if isinstance(v, Wildcard) and c in table_cols:
            cells.append(_row_cell(table, row, c))
        else:
            cells.append(v)
    for c in _column_names(table):
        if c not in p.columns:
            columns.append(c)
            cells.append(_row_cell(table, row, c))
    return TuplePattern(tuple(columns), tuple(cells), False)


def _count_column(table):
    for col in table.columns:
        if col.name.lower() == "count" and col.cls is ColumnClass.NUMERICAL:
            return col.name
    return None


def _r1_join(p, table, registry):
    if _count_column(table) is not None:
        return []
    shared = [c for c in p.columns if c in set(_column_names(table))]
    if not shared:
        return []
    out = []
    for row in table.rows:
        id_hit = False
        for c in shared:
            pc = p.cell(c)
            if isinstance(pc, Wildcard):
                continue
            if pc != _row_cell(table, row, c):
                break
            col = registry.get(c)
            if col is not None and col.group == "identifier":
                id_hit = True
        else:
            if id_hit:
                out.append(_merge(p, table, row))
    return out


def _r2_refine(p, table):
    count_col = _count_column(table)
    if count_col is None:
        return []
    table_cols = set(_column_names(table))
    out = []
    for c, x in p.concrete_items():
        if not isinstance(x, Taxon) or c not in table_cols:
            continue
        join_cols = [
            jc for jc in p.columns if jc in table_cols and jc not in (c, count_col)
        ]
        for row in table.rows:
            y = _row_cell(table, row, c)
            if not isinstance(y, Taxon) or y.tree.name != x.tree.name:
                continue
            if not x.tree.is_strict_descendant(y.node, x.node):
                continue
            count = _row_cell(table, row, count_col)
            if not isinstance(count, Number) or count.value != 1:
                continue
            hits = 0
            ok = True
            for jc in join_cols:
                pc = p.cell(jc)
                if isinstance(pc, Wildcard) or pc != _row_cell(table, row, jc):
                    ok = False
                    break
                hits += 1
            if ok and hits >= 1:
                out.append(replace_cell(p, c, y))
    return out


def _r3_link(p, table, registry):
    if _count_column(table) is not None:
        return []

    def is_id(c):
        col = registry.get(c)
        return col is not None and col.group == "identifier"

    id_cells = [(c, v) for c, v in p.concrete_items() if is_id(c)]
    other = [(c, v) for c, v in p.concrete_items() if not is_id(c)]
    if not id_cells or not other:
        return []
    table_cols = set(_column_names(table))
    join = [(c, v) for c, v in other if c in table_cols]
    if not join:
        return []
    matches = [
        row
        for row in table.rows
        if all(_row_cell(table, row, c) == v for c, v in join)
    ]
    if len(matches) != 1:
        return []
    return [_merge(p, table, matches[0])]


def naive_saturate(tag, externals=(), *, columns=None, max_rounds=1000):
    registry = _column_registry(externals, columns)
    current = set(tag)
    for _ in range(max_rounds + 1):
        new = set()
        for p in current:
            if p.negative or not p.columns:
                continue
            for table in externals:
                for rule in (_r1_join(p, table, registry),
                             _r2_refine(p, table),
                             _r3_link(p, table, registry)):
                    new.update(q for q in rule if q not in current)
        if not new:
            return frozenset(current)
        current |= new
    raise InputError(f"saturation did not reach a fixpoint in {max_rounds} rounds")


# -- random tags and bases ----------------------------------------------------

# A column's tree is the one its loader parses cells in; the cells drawn
# here are built directly and carry the random trees they are nodes of.
COLUMNS = (
    ColumnSchema("Name", ColumnClass.NOMINAL, "identifier"),
    ColumnSchema("Dept", ColumnClass.NOMINAL, "quasi-identifier"),
    ColumnSchema("Age", ColumnClass.NUMERVAL, "quasi-identifier"),
    ColumnSchema("Ailment", ColumnClass.TAXORAL, "sensitive",
                 taxonomy=TaxonomyTree("t", "n0", {})),
)
_BY_NAME = {c.name: c for c in COLUMNS}
_COUNT = ColumnSchema("Count", ColumnClass.NUMERICAL, "quasi-identifier")
NAMES = ("John", "Joan")
DEPTS = ("Phys", "Chem")
AGES = (IntInterval(1, 2), IntInterval(2, 5))


def _random_tree(rng: random.Random, name: str) -> TaxonomyTree:
    parent = {f"n{i}": f"n{rng.randrange(i)}" for i in range(1, rng.randint(1, 6))}
    return TaxonomyTree(name, "n0", parent)


def _value(rng, column, trees):
    if column == "Name":
        return Atom(rng.choice(NAMES))
    if column == "Dept":
        return Atom(rng.choice(DEPTS))
    if column == "Age":
        return rng.choice(AGES)
    # mostly tree t; sometimes a taxon from another tree
    tree = trees["t"] if rng.random() < 0.85 else trees["u"]
    return Taxon(tree, rng.choice(sorted(tree.nodes)))


def _pattern(rng, trees, *, ground=False, negative=False):
    names = [c.name for c in COLUMNS]
    if rng.random() < 0.25:  # a projection onto some of the columns
        names = [c for c in names if rng.random() < 0.6] or ["Dept"]
    cells = tuple(
        STAR if not ground and rng.random() < 0.35 else _value(rng, c, trees)
        for c in names
    )
    return TuplePattern(tuple(names), cells, negative)


def _random_tag(rng, trees):
    tag = {_pattern(rng, trees) for _ in range(rng.randint(0, 3))}
    if rng.random() < 0.3:
        tag.add(_pattern(rng, trees, negative=True))
    if rng.random() < 0.3:
        tag.add(TOP)
    return frozenset(tag)


def _random_bases(rng, trees):
    """A record base (no Count column; R1 and R3 read it), sometimes a
    second one, and a count base (R2 reads it)."""
    bases = []
    for k in range(rng.randint(1, 2)):
        names = [c for c in ("Name", "Dept", "Age", "Ailment") if rng.random() < 0.6]
        names = names or ["Name", "Dept"]
        cols = tuple(_BY_NAME[c] for c in names)
        # few values, so two rows often match one join (R3 must not link)
        rows = tuple(
            Row(f"r{i}", tuple(_value(rng, c, trees) for c in names))
            for i in range(rng.randint(0, 4))
        )
        bases.append(DataTable(f"records{k}", cols, rows))
    names = [c for c in ("Dept", "Age") if rng.random() < 0.7] + ["Count", "Ailment"]
    cols = tuple(_COUNT if c == "Count" else _BY_NAME[c] for c in names)
    rows = tuple(
        Row(f"c{i}", tuple(
            Number(rng.randint(0, 2)) if c == "Count" else _value(rng, c, trees)
            for c in names
        ))
        for i in range(rng.randint(0, 5))
    )
    bases.append(DataTable("counts", cols, rows))
    rng.shuffle(bases)
    return [b for b in bases if rng.random() < 0.9]


def _derived_as_the_reference(memo, bases, **kw) -> int:
    """Check that the planned rules derived from each premise in `memo`
    what the per-premise reference derives, in order; return how many
    tuples they derived."""
    for p, derived in memo.items():
        assert derived == derivations(p, bases, **kw), p
    return sum(map(len, memo.values()))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        return str(exc)


def test_semi_naive_saturation_matches_the_naive_fixpoint():
    """The semi-naive closure is the naive one, and every premise derives
    through its shape's plans what the per-premise reference derives, in
    order."""
    rng = random.Random(404)
    seeded = derived = 0
    for _ in range(CASES):
        trees = {"t": _random_tree(rng, "t"), "u": _random_tree(rng, "u")}
        bases = _random_bases(rng, trees)
        kw = {"columns": COLUMNS if rng.random() < 0.7 else None}
        a, b = _random_tag(rng, trees), _random_tag(rng, trees)
        rounds = rng.choice([0, 1, 2, 1000])
        assert _outcome(saturate, a | b, bases, max_rounds=rounds, **kw) == (
            _outcome(naive_saturate, a | b, bases, max_rounds=rounds, **kw)
        )
        closed = saturate(a, bases, **kw)
        assert closed == naive_saturate(a, bases, **kw)
        assert _outcome(
            saturate, closed | b, bases, closed=closed, max_rounds=rounds, **kw
        ) == _outcome(naive_saturate, closed | b, bases, max_rounds=rounds, **kw)
        seeded += closed != a
        # one memo and one set of plans across two calls, as a builder keeps
        memo, plans = {}, {}
        for tag in (a, a | b):
            saturate(tag, bases, memo=memo, plans=plans, **kw)
        derived += _derived_as_the_reference(memo, bases, **kw)
    assert seeded > CASES // 10  # the seeded cases do derive something
    assert derived > CASES


def test_r3_needs_exactly_one_matching_row():
    cols = (_BY_NAME["Name"], _BY_NAME["Dept"], _BY_NAME["Age"])
    rows = (Row("r1", (Atom("John"), Atom("Phys"), AGES[0])),
            Row("r2", (Atom("Joan"), Atom("Phys"), AGES[1])),
            Row("r3", (Atom("Joan"), Atom("Chem"), AGES[1])))
    table = DataTable("staff", cols, rows)
    probe = TuplePattern(("Name", "Dept", "Age"), (Atom("Ann"), Atom("Phys"), STAR))
    assert saturate(frozenset({probe}), [table]) == {probe}
    unique = replace_cell(probe, "Dept", Atom("Chem"))
    assert saturate(frozenset({unique}), [table]) == {
        unique, replace_cell(unique, "Age", AGES[1])}


def test_data_table_caches_its_row_groups():
    cols = (_BY_NAME["Name"], _BY_NAME["Dept"])
    rows = (Row("r1", (Atom("John"), Atom("Phys"))),
            Row("r2", (Atom("Joan"), Atom("Phys"))))
    table = DataTable("staff", cols, rows)
    groups = table.rows_by(("Dept",))
    assert groups == {(Atom("Phys"),): rows}
    assert table.rows_by(("Dept",)) is groups
    assert table.rows_by(("Dept", "Name"))[(Atom("Phys"), Atom("Joan"))] == rows[1:]
    assert table.column_index("Dept") == 1
    with pytest.raises(InputError, match="^table staff: no column 'Age'$"):
        table.column_index("Age")


# -- the builder: incremental saturation and epsilon oracle -------------------

MODES = tuple(IntervalMeasureMode)


def _secret_pool(rng, trees):
    return [
        [_pattern(rng, trees, ground=True)
         for _ in range(rng.randint(1, 2))]
        for _ in range(3)
    ]


def _as_rows(patterns):
    """Each secret as a table row holding its pattern's cells."""
    return [Row(f"l{k}", p.cells) for k, p in enumerate(patterns)]


def _oracle_config(rng, secrets, epsilons):
    """One oracle configuration: the settings a builder takes for its life.
    Secrets come as bare cell tuples or as table rows."""
    config = {"secrets": rng.choice(secrets + [None]), "epsilon": rng.choice(epsilons),
              "mode": rng.choice(MODES)}
    chosen, as_rows = config["secrets"], rng.choice([False, True])
    if chosen is not None:
        config["secrets"] = _as_rows(chosen) if as_rows else [p.cells for p in chosen]
    return config


def _flipped(p):
    return TuplePattern(p.columns, p.cells, not p.negative)


def _violating(rng, policy, trees):
    """A positive tuple that the policy's pattern matches."""
    n = rng.choice(policy.patterns)
    return TuplePattern(n.columns, tuple(
        _value(rng, c, trees) if isinstance(v, Wildcard) else v
        for c, v in zip(n.columns, n.cells)
    ))


def _contradiction(rng, tag, policy, trees):
    """Sometimes the negation of a tuple in `tag` (or the affirmation of a
    negative one), sometimes a tuple the policy matches."""
    out = set()
    flippable = sorted((p for p in tag if p.columns), key=str)
    if flippable and rng.random() < 0.15:
        out.add(_flipped(rng.choice(flippable)))
    if policy.patterns and rng.random() < 0.1:
        out.add(_violating(rng, policy, trees))
    return out


def test_incremental_builder_matches_oracle_verdict_and_naive_closure():
    rng = random.Random(405)
    verdicts = {v: 0 for v in OracleVerdict}
    derived = 0
    for _ in range(BUILDS):
        tree = _random_tree(rng, "t")
        trees = {"t": tree, "u": tree}  # one tree: rho compares every taxon pair
        bases = _random_bases(rng, trees)
        policy = PrivacyPolicy(tuple(
            _pattern(rng, trees, negative=True) for _ in range(rng.randint(0, 1))
        ))
        config = _oracle_config(
            rng, _secret_pool(rng, trees), [None, F(0), F(1, 2), F(1), F(2)]
        )
        secrets = config["secrets"]
        builder = DlttsBuilder(
            policy=policy, externals=bases, columns=COLUMNS,
            **{**config, "secrets": None if secrets is None else iter(secrets)},
        )
        for step in range(rng.randint(1, 8)):
            sources = [s for s, v in builder.verdicts.items()
                       if v is OracleVerdict.CONTINUE]
            if not sources:
                break
            source = rng.choice(sources)
            k = rng.randint(1, 3)
            branches = [
                (f"s{step}_{i}", F(1, k), Label(tuples=frozenset(
                    _pattern(rng, trees, ground=rng.random() < 0.7)
                    for _ in range(rng.randint(0, 2))
                ) | _contradiction(rng, builder.saturated[source], policy, trees)))
                for i in range(k)
            ]
            builder.add_transition(source, "q", branches)
        built = builder.build()
        # a state's tag: its parent's saturated tag plus its label's tuples
        tags = {builder.initial: frozenset({TOP})}
        for t in built.transitions:
            for b in t.branches:
                if b.to != built.stop:
                    tags[b.to] = builder.saturated[t.source] | b.label.tuples
        assert builder.verdicts.keys() == builder.saturated.keys() == tags.keys()
        for state, tag in tags.items():
            assert builder.saturated[state] == naive_saturate(tag, bases, columns=COLUMNS)
            expected = oracle_verdict(
                builder.saturated[state], policy, config["secrets"],
                config["epsilon"], config["mode"],
            )
            assert builder.verdicts[state] is expected
            verdicts[expected] += 1
            if expected is not OracleVerdict.CONTINUE:
                # a violating state's one outgoing transition is delta to Stop
                (out,) = [t for t in builder.transitions if t.source == state]
                assert out.action == DELTA
                assert [b.to for b in out.branches] == [builder.stop]
        assert validate(built) == []
        assert reach_stop(built) == oracle_reach_stop(built)
        derived += _derived_as_the_reference(
            builder._derivations, bases, columns=COLUMNS)
    assert min(verdicts.values()) > 20, verdicts
    assert derived > BUILDS


def test_a_violating_parent_never_narrows_a_child_check():
    """A state is judged as it is made, and a violating one takes no
    transition but delta: it never becomes a parent whose tag narrows a
    child's check."""
    policy = PrivacyPolicy((TuplePattern(("Name",), (Atom("John"),), True),))
    builder = DlttsBuilder(policy=policy, columns=COLUMNS)
    leak = TuplePattern(("Name",), (Atom("John"),))
    builder.add_transition("s0", "q", [("s1", F(1), Label(tuples=frozenset({leak})))])
    assert builder.verdicts["s1"] is OracleVerdict.VIOLATION
    with pytest.raises(InputError):
        builder.add_transition("s1", "q", [("s2", F(1), Label())])


def test_delta_consistency_check_matches_the_full_check():
    """check_consistency(tag, policy, closed=c) equals the full check for
    every consistent c within the tag."""
    rng = random.Random(406)
    trees = {"t": _random_tree(rng, "t"), "u": _random_tree(rng, "u")}
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        policy = PrivacyPolicy(tuple(
            _pattern(rng, trees, negative=True) for _ in range(rng.randint(0, 2))
        ))
        tag = set(_random_tag(rng, trees))
        for _ in range(rng.randint(0, 2)):
            tag |= _contradiction(rng, tag, policy, trees)
        tag = frozenset(tag)
        full = check_consistency(tag, policy)
        outcomes[full] += 1
        members = sorted(tag, key=str)
        for r in range(len(members) + 1):
            for closed in map(frozenset, itertools.combinations(members, r)):
                if check_consistency(closed, policy):
                    assert check_consistency(tag, policy, closed=closed) is full
    assert min(outcomes.values()) > 30, outcomes


def test_builders_do_not_share_derivations():
    """Two builders whose externals differ each derive from their own
    bases, even when they see the same premises."""
    name, dept = _BY_NAME["Name"], _BY_NAME["Dept"]
    premise = TuplePattern(("Name", "Dept"), (Atom("John"), STAR))
    for d in DEPTS:
        table = DataTable("staff", (name, dept), (Row("r1", (Atom("John"), Atom(d))),))
        builder = DlttsBuilder(externals=[table], columns=COLUMNS)
        builder.add_transition(
            "s0", "q", [("s1", F(1), Label(tuples=frozenset({premise})))]
        )
        assert builder.saturated["s1"] == {
            TOP, premise, replace_cell(premise, "Dept", Atom(d))
        }
