"""The plain record classes against the frozen dataclasses they replace.

Each record class gets a `dataclasses.make_dataclass(..., frozen=True)`
twin with the same fields, built here only.  Over seeded random field
values, records and twins must agree on equality (across classes too),
hash, repr, immutability and `replace`.  Each class is built through
`Record`'s one constructor, which must bind arguments as the classes'
former hand-written `__init__` signatures did.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F

import pytest

from privtrace import (attack, cli, dltts, indist, lts, privacy, profiles, scenario,
                       schema, values)
from privtrace.metrics import IntervalMeasureMode
from privtrace.schema import GROUPS, Row, TuplePattern
from privtrace.records import Record
from privtrace.values import STAR, Atom, ColumnClass, TaxonomyTree

CASES = 300

# Field values for the classes whose `__init__` checks nothing.  Small, so
# two records often coincide, within a class and across classes.
POOL = (0, 1, "a", "b", (), ("a",), None, F(1, 2))


def _pool(n):
    return lambda rng: tuple(rng.choice(POOL) for _ in range(n))


def _interval(rng):
    lo = rng.randint(0, 2)
    return (lo, lo + rng.randint(0, 1))


# The tree of every drawn taxon and taxoral column.
TREE = TaxonomyTree("t", "r", {"a": "r", "b": "r"})


def _column(rng):
    cls = rng.choice(list(ColumnClass))
    numerical = cls is ColumnClass.NUMERICAL
    return (rng.choice("ab"), cls, rng.choice(GROUPS),
            TREE if cls is ColumnClass.TAXORAL else None,
            F(rng.randint(1, 2)) if numerical and rng.random() < 0.5 else None)


def _pattern(rng, negative=None):
    columns = tuple(rng.sample("ab", rng.randint(0, 2)))
    cells = tuple(rng.choice((STAR, Atom("a"), Atom("b"))) for _ in columns)
    return (columns, cells, rng.random() < 0.5 if negative is None else negative)


def _mechanism(rng):
    p = F(rng.randint(0, 2), 2)
    inputs = tuple(rng.sample(("u", "v"), rng.randint(0, 2)))
    table = {(v, o): q for v in inputs for o, q in (("x", p), ("y", 1 - p))}
    return (rng.choice("ab"), inputs, ("x", "y"), table)


def _profile(rng):
    p = F(rng.randint(0, 2), 2)
    priors = rng.choice(({}, {"A": {Atom("a"): p, Atom("b"): 1 - p}}))
    return (rng.choice("ab"), tuple(rng.sample("AB", rng.randint(0, 2))), priors,
            rng.choice(("", "o")), rng.random() < 0.5)


def _table(rng):
    rows = tuple(Row(f"l{i}", ()) for i in range(rng.randint(0, 2)))
    return (rng.choice("ab"), (), rows)


# Every record class: its fields, in order, and a draw of valid values.
RECORDS = {
    values.Atom: (("value",), lambda rng: (rng.choice("ab"),)),
    values.AtomSet: (("values",),
                     lambda rng: (frozenset(rng.sample("abc", rng.randint(1, 2))),)),
    values.IntInterval: (("lo", "hi"), _interval),
    values.Number: (("value", "bound"),
                    lambda rng: (F(rng.randint(0, 2), 2), rng.choice((None, F(1), F(2))))),
    values.Taxon: (("tree", "node"), lambda rng: (TREE, rng.choice("rab"))),
    schema.ColumnSchema: (("name", "cls", "group", "taxonomy", "normalizer"),
                          _column),
    schema.Row: (("line_id", "cells"), _pool(2)),
    schema.DataTable: (("name", "columns", "rows"), _table),
    schema.TuplePattern: (("columns", "cells", "negative"), _pattern),
    schema.PrivacyPolicy: (("patterns",),
                           lambda rng: (tuple(TuplePattern(*_pattern(rng, True))
                                              for _ in range(rng.randint(0, 2))),)),
    schema.SchemaBundle: (("columns", "taxonomies", "policy"), _pool(3)),
    lts.Label: (("text", "lines", "tuples", "source"), _pool(4)),
    lts.Branch: (("to", "prob", "label"), _pool(3)),
    lts.Transition: (("source", "action", "branches"), _pool(3)),
    lts.Dltts: (("initial", "stop", "transitions"), _pool(3)),
    dltts.Run: (("states", "actions", "probability"), _pool(3)),
    privacy.Mechanism: (("name", "inputs", "outputs", "table"), _mechanism),
    privacy.EpsilonResult: (("scale", "ratio", "unbounded", "both_zero", "witness"),
                            _pool(5)),
    privacy.HammingAdjacency: ((), _pool(0)),
    indist.RhoAdjacency: (("mode",), _pool(1)),
    profiles.AttackerProfile: (("name", "attribute_order", "priors", "objective",
                              "empirical"), _profile),
    attack.ResponseEdge: (("node", "line", "value", "target", "assumed"), _pool(5)),
    attack.AttackDltts: (("name", "dltts", "responses", "off"), _pool(4)),
    attack.StrategyDecision: (("node", "line", "probability", "baseline",
                               "switched_off"), _pool(5)),
    scenario.Scenario: (("name", "schema", "tables", "externals", "mechanisms",
                         "dltts", "attack_dltts", "profiles", "baseline",
                         "declared_baseline", "runs", "analysis"), _pool(12)),
    cli.Option: (("name", "kind", "help", "required", "choices", "default", "metavar"),
                 _pool(7)),
}

# The default of each field that has one, as the hand-written `__init__`
# signatures that the one constructor replaced declared them.
DEFAULTS = {
    schema.ColumnSchema: {"taxonomy": None, "normalizer": None},
    values.Number: {"bound": None},
    schema.TuplePattern: {"negative": False},
    lts.Label: {"text": "", "lines": frozenset(), "tuples": frozenset(),
                  "source": "db"},
    lts.Branch: {"label": lts.Label("", frozenset(), frozenset(), "db")},
    privacy.EpsilonResult: {"scale": None, "ratio": None, "unbounded": False,
                            "both_zero": False, "witness": None},
    indist.RhoAdjacency: {"mode": IntervalMeasureMode.INTEGER_SET},
    profiles.AttackerProfile: {"priors": None, "objective": "", "empirical": False},
    attack.ResponseEdge: {"assumed": False},
    attack.AttackDltts: {"off": frozenset()},
    cli.Option: {"required": False, "choices": (), "default": None, "metavar": ""},
}

# A taxon hashes by its tree's name, not the tree, so that the cells of two
# loads of one scenario are equal; its twin over the one tree `TREE` does too.
# A number compares and hashes by its value alone, not its column's D.
NAMESPACES = {
    values.Taxon: {"__hash__": lambda self: hash((self.tree.name, self.node))},
    values.Number: {
        "__eq__": lambda self, other: (other.value == self.value
                                       if other.__class__ is self.__class__
                                       else NotImplemented),
        "__hash__": lambda self: hash((self.value,)),
    },
}
TWINS = {
    cls: dataclasses.make_dataclass(
        cls.__name__, [(f, object) for f in fields], frozen=True,
        namespace=NAMESPACES.get(cls))
    for cls, (fields, _) in RECORDS.items()
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered_with_its_fields():
    found = {c for c in _subclasses(Record) if c.__module__.startswith("privtrace.")}
    assert found == set(RECORDS)
    for cls, (fields, _) in RECORDS.items():
        assert cls._fields == fields, cls
        # Every class is built by `Record`'s one constructor.
        assert "__init__" not in cls.__dict__, cls


def _draw(rng):
    """(record, twin, class, field values) for random classes and values."""
    cls = rng.choice(list(RECORDS))
    vals = RECORDS[cls][1](rng)
    return cls(*vals), TWINS[cls](*vals), cls, vals


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_equality_hash_and_repr_match_the_dataclass_twins():
    rng = random.Random(20261018)
    drawn = [_draw(rng) for _ in range(CASES)]
    for rec, twin, _, _ in drawn:
        assert repr(rec) == repr(twin)
        assert _hash(rec) == _hash(twin)
    cross = 0
    for rec, twin, cls, vals in drawn:
        for rec2, twin2, cls2, vals2 in drawn:
            assert (rec == rec2) == (twin == twin2), (rec, rec2)
            assert (rec != rec2) == (twin != twin2), (rec, rec2)
            cross += cls is not cls2 and vals == vals2
    # Records of two classes with equal fields met, and stayed unequal.
    assert cross > 0


def test_records_are_immutable_like_the_twins():
    rng = random.Random(7)
    for _ in range(CASES):
        rec, twin, cls, vals = _draw(rng)
        for obj in (rec, twin):
            for name in RECORDS[cls][0] + ("other",):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert rec == cls(*vals) and repr(rec) == repr(twin)


def test_replace_matches_dataclasses_replace():
    rng = random.Random(11)
    for _ in range(CASES):
        rec, twin, cls, vals = _draw(rng)
        fields = RECORDS[cls][0]
        other = RECORDS[cls][1](rng)
        changed = {i for i in range(len(fields)) if rng.random() < 0.5}
        changes = {fields[i]: other[i] for i in changed}
        mixed = tuple(other[i] if i in changed else v for i, v in enumerate(vals))
        try:
            expected = cls(*mixed)
        except ValueError as exc:
            # The combination breaks a check of `__init__`, which the old
            # `__post_init__` made too.
            with pytest.raises(type(exc)):
                rec.replace(**changes)
            continue
        got = rec.replace(**changes)
        assert type(got) is cls and got == expected
        assert repr(got) == repr(dataclasses.replace(twin, **changes))
        assert _hash(got) == _hash(dataclasses.replace(twin, **changes))
        with pytest.raises(TypeError):
            rec.replace(no_such_field=1)
        with pytest.raises(TypeError):
            dataclasses.replace(twin, no_such_field=1)


def test_replace_builds_a_new_record_without_the_cached_values():
    d = lts.Dltts("s0", "STOP", (
        lts.Transition("s0", "delta", (lts.Branch("STOP", F(1)),)),))
    assert d.outgoing("s0")
    assert "_outgoing" in vars(d)
    e = d.replace(transitions=())
    assert "_outgoing" not in vars(e) and e.outgoing("s0") == ()


def test_positional_keyword_and_defaulted_calls_bind_alike():
    rng = random.Random(13)
    for cls, (fields, draw) in RECORDS.items():
        defaults = DEFAULTS.get(cls, {})
        assert cls._defaults == defaults, cls
        for _ in range(CASES // 10):
            vals = draw(rng)
            rec = cls(*vals)
            assert cls(**dict(zip(fields, vals))) == rec
            given = {f: v for f, v in zip(fields, vals) if f not in defaults}
            try:
                expected = cls(*(defaults.get(f, v) for f, v in zip(fields, vals)))
            except ValueError as exc:
                # The defaults break a check (a taxoral column needs its
                # taxonomy), which the call leaving them out makes too.
                with pytest.raises(type(exc)):
                    cls(**given)
                continue
            assert cls(**given) == expected, cls


def test_bad_calls_raise_type_error_like_the_twins():
    rng = random.Random(17)
    for cls, (fields, draw) in RECORDS.items():
        vals = draw(rng)
        kwargs = dict(zip(fields, vals))
        bad = [
            lambda c: c(*vals, None),
            lambda c: c(**kwargs, no_such_field=1),
        ]
        if fields:
            bad.append(lambda c: c(vals[0], **kwargs))
            required = [f for f in fields if f not in DEFAULTS.get(cls, {})]
            if required:
                bad.append(lambda c: c(**{f: v for f, v in kwargs.items()
                                          if f != required[-1]}))
        for call in bad:
            for c in (cls, TWINS[cls]):
                with pytest.raises(TypeError):
                    call(c)
