from __future__ import annotations

import dataclasses
import importlib
import random
from fractions import Fraction

import pytest

from privtrace.values import (
    Atom,
    AtomSet,
    ColumnClass,
    IntInterval,
    Number,
    TaxonomyTree,
    Taxon,
    parse_cell,
    render_cell,
    split_top_level,
)


def test_interval_requires_order():
    with pytest.raises(ValueError):
        IntInterval(5, 4)


def test_atom_set_nonempty():
    with pytest.raises(ValueError):
        AtomSet([])


def test_parse_interval():
    assert parse_cell("[40-50]", ColumnClass.NUMERVAL) == IntInterval(40, 50)
    assert parse_cell("[-5--3]", ColumnClass.NUMERVAL) == IntInterval(-5, -3)


def test_numerval_single_value_becomes_point_interval():
    assert parse_cell("24", ColumnClass.NUMERVAL) == IntInterval(24, 24)


def test_parse_set_and_atom():
    assert parse_cell("{a,b}", ColumnClass.NOMINAL) == AtomSet({"a", "b"})
    assert parse_cell("CoVid", ColumnClass.NOMINAL) == Atom("CoVid")


def test_parse_number_exact():
    assert parse_cell("3/2", ColumnClass.NUMERICAL) == Number(Fraction(3, 2))
    assert parse_cell("0.5", ColumnClass.NUMERICAL) == Number(Fraction(1, 2))


@pytest.mark.parametrize(
    "text,cls",
    [
        ("[40-50]", ColumnClass.NUMERVAL),
        ("24", ColumnClass.NUMERVAL),
        ("{a,b,c}", ColumnClass.NOMINAL),
        ("M", ColumnClass.NOMINAL),
        ("7/3", ColumnClass.NUMERICAL),
    ],
)
def test_cell_round_trip(text, cls):
    v = parse_cell(text, cls)
    assert parse_cell(render_cell(v), cls) == v


def test_taxonomy_depths_and_ancestor():
    tree = TaxonomyTree(
        "ailment",
        "Ailment",
        {
            "Heart-Disease": "Ailment",
            "Cancer": "Ailment",
            "Viral-Infection": "Ailment",
            "Flu": "Viral-Infection",
            "CoVid": "Viral-Infection",
        },
    )
    assert tree.depth("Ailment") == 1
    assert tree.depth("Cancer") == 2
    assert tree.depth("CoVid") == 3
    assert tree.common_ancestor("Flu", "CoVid") == "Viral-Infection"
    assert tree.common_ancestor("Flu", "Cancer") == "Ailment"
    assert tree.is_strict_descendant("CoVid", "Viral-Infection")
    assert not tree.is_strict_descendant("CoVid", "CoVid")


def _walk(tree, node):
    """The root path by walking the parent map, as the tree did uncached."""
    path = [node]
    while path[-1] != tree.root:
        path.append(tree.parent[path[-1]])
    return path


def test_cached_root_paths_match_the_parent_map_walk():
    rng = random.Random(407)
    for _ in range(300):
        n = rng.randint(1, 30)
        tree = TaxonomyTree("t", "n0", {f"n{i}": f"n{rng.randrange(i)}" for i in range(1, n)})
        nodes = sorted(tree.nodes)
        for _ in range(20):
            x, y = rng.choice(nodes), rng.choice(nodes)
            assert tree.path_to_root(x) == _walk(tree, x)
            ys = set(_walk(tree, y))
            assert tree.common_ancestor(x, y) == next(a for a in _walk(tree, x) if a in ys)
            assert tree.is_strict_descendant(x, y) == (y in _walk(tree, x)[1:])
        assert not tree.is_strict_descendant(x, "elsewhere")
        with pytest.raises(KeyError):
            tree.common_ancestor(x, "elsewhere")


def test_taxonomy_cycle_rejected():
    with pytest.raises(ValueError):
        TaxonomyTree("bad", "r", {"a": "b", "b": "a"})


def test_taxonomy_root_cannot_have_parent():
    with pytest.raises(ValueError):
        TaxonomyTree("bad", "r", {"r": "a", "a": "r"})


def test_taxon_parse_checks_membership():
    tree = TaxonomyTree("t", "root", {"leaf": "root"})
    assert parse_cell("leaf", ColumnClass.TAXORAL, tree) == Taxon("t", "leaf")
    with pytest.raises(ValueError):
        parse_cell("nope", ColumnClass.TAXORAL, tree)


def test_split_top_level_respects_nesting():
    assert split_top_level("a,{b,c},[1-2]") == ["a", "{b,c}", "[1-2]"]
    assert split_top_level("(x,y),z") == ["(x,y)", "z"]
    with pytest.raises(ValueError):
        split_top_level("a,{b")


def test_every_dataclass_declares_its_docstring():
    """A dataclass without a docstring gets one built from its signature at
    import, which every CLI process would pay for."""
    for name in ("values", "schema", "metrics", "dltts", "privacy", "attack",
                 "scenario"):
        module = importlib.import_module(f"privtrace.{name}")
        for cls in vars(module).values():
            if (dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and isinstance(cls, type)):
                assert not cls.__doc__.startswith(cls.__name__ + "("), cls
